package scalesim

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// durabilityCampaign is the shared workload of the durability tests: three
// jobs over two benchmarks, the third a duplicate of the first so both
// memoization tiers are exercised in one batch, and the engine that runs
// them against storeDir.
func durabilityCampaign(storeDir string) (ServiceConfig, []CampaignJob) {
	spec := MachineSpec{Cores: 2, Bandwidth: BandwidthMCFirst}
	opts := FastOptions()
	opts.Instructions = 60_000
	opts.Warmup = 20_000
	benches := BenchmarkNames()[:2]
	var jobs []CampaignJob
	for _, seed := range []uint64{1, 7, 1} {
		o := opts
		o.Seed = seed
		jobs = append(jobs, CampaignJob{Machine: spec, Benchmarks: benches, Options: o})
	}
	return ServiceConfig{Tuning: &Tuning{CampaignWorkers: 2}, Store: storeDir}, jobs
}

// renderOutcomes flattens every per-core metric of every outcome with
// bit-exact float formatting, so two renderings are equal iff the results
// are bit-identical.
func renderOutcomes(t *testing.T, res *CampaignResult) string {
	t.Helper()
	var b strings.Builder
	for _, oc := range res.Outcomes {
		if oc.Err != nil {
			t.Fatalf("job %d: %v", oc.Job, oc.Err)
		}
		for i, cr := range oc.Result.Cores {
			fmt.Fprintf(&b, "job=%d core=%d ipc=%s bw=%s mpki=%s\n", oc.Job, i,
				strconv.FormatFloat(cr.IPC, 'x', -1, 64),
				strconv.FormatFloat(cr.BWBytesPerCycle, 'x', -1, 64),
				strconv.FormatFloat(cr.LLCMPKI, 'x', -1, 64))
		}
	}
	return b.String()
}

// artifactFiles lists the store's artifact paths, sorted.
func artifactFiles(t *testing.T, storeDir string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(filepath.Join(storeDir, "objects"), func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(p, ".json") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walk store: %v", err)
	}
	sort.Strings(files)
	return files
}

// TestStoreBitTransparency pins the store's core contract: a campaign run
// against a durable store returns bit-identical results to a store-less
// run, and a second run against the same store recomputes nothing.
func TestStoreBitTransparency(t *testing.T) {
	ctx := context.Background()

	cfg, jobs := durabilityCampaign("")
	baseRes, err := RunCampaignContext(ctx, cfg, jobs)
	if err != nil {
		t.Fatalf("store-less campaign: %v", err)
	}
	baseline := renderOutcomes(t, baseRes)

	storeDir := filepath.Join(t.TempDir(), "store")
	cfg.Store = storeDir

	first, err := RunCampaignContext(ctx, cfg, jobs)
	if err != nil {
		t.Fatalf("first stored campaign: %v", err)
	}
	if got := renderOutcomes(t, first); got != baseline {
		t.Errorf("first stored run differs from store-less run:\n--- store-less ---\n%s--- stored ---\n%s", baseline, got)
	}
	if first.Stats.UniqueRuns != 2 || first.Stats.DiskHits != 0 {
		t.Errorf("first run stats = %+v, want 2 unique runs and 0 disk hits", first.Stats)
	}
	// Job 2 duplicates job 0; with two workers it dedups either against the
	// completed entry (memory) or the still-in-flight run (coalesced).
	for i, oc := range first.Outcomes[:2] {
		if oc.Source != SourceCompute {
			t.Errorf("first run job %d source = %q, want %q", i, oc.Source, SourceCompute)
		}
	}
	if src := first.Outcomes[2].Source; src != SourceMemory && src != SourceCoalesced {
		t.Errorf("first run job 2 source = %q, want memory or coalesced", src)
	}

	second, err := RunCampaignContext(ctx, cfg, jobs)
	if err != nil {
		t.Fatalf("second stored campaign: %v", err)
	}
	if got := renderOutcomes(t, second); got != baseline {
		t.Errorf("second stored run differs from store-less run:\n--- store-less ---\n%s--- stored ---\n%s", baseline, got)
	}
	if second.Stats.UniqueRuns != 0 {
		t.Errorf("second run simulated %d times, want zero recomputation (stats %+v)", second.Stats.UniqueRuns, second.Stats)
	}
	if second.Stats.DiskHits != 2 || second.Stats.CacheHits+second.Stats.CoalescedHits != 1 {
		t.Errorf("second run stats = %+v, want 2 disk hits and 1 memory/coalesced hit", second.Stats)
	}
	if hr := second.Stats.HitRate(); hr != 1 {
		t.Errorf("second run hit rate = %v, want 1", hr)
	}
	for i, oc := range second.Outcomes[:2] {
		if oc.Source != SourceDisk {
			t.Errorf("second run job %d source = %q, want %q", i, oc.Source, SourceDisk)
		}
	}
	if src := second.Outcomes[2].Source; src != SourceMemory && src != SourceCoalesced {
		t.Errorf("second run job 2 source = %q, want memory or coalesced", src)
	}
	for i, oc := range second.Outcomes {
		if !oc.CacheHit {
			t.Errorf("second run job %d not reported as cache hit", i)
		}
	}
}

// TestStoreCorruptionRecovery truncates one artifact of a populated store
// and re-runs the campaign: the damaged job must be quarantined and
// recomputed with no caller-visible error, and the healed store must serve
// everything from disk afterwards.
func TestStoreCorruptionRecovery(t *testing.T) {
	ctx := context.Background()
	storeDir := filepath.Join(t.TempDir(), "store")
	cfg, jobs := durabilityCampaign(storeDir)

	first, err := RunCampaignContext(ctx, cfg, jobs)
	if err != nil {
		t.Fatalf("populating campaign: %v", err)
	}
	baseline := renderOutcomes(t, first)

	files := artifactFiles(t, storeDir)
	if len(files) != 2 {
		t.Fatalf("store holds %d artifacts, want 2: %v", len(files), files)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], data[:len(data)/2], 0o644); err != nil {
		t.Fatalf("truncate artifact: %v", err)
	}

	second, err := RunCampaignContext(ctx, cfg, jobs)
	if err != nil {
		t.Fatalf("campaign against corrupt store: %v", err)
	}
	if got := renderOutcomes(t, second); got != baseline {
		t.Errorf("recovered run differs from original:\n--- original ---\n%s--- recovered ---\n%s", baseline, got)
	}
	if second.Stats.StoreCorrupt != 1 {
		t.Errorf("StoreCorrupt = %d, want 1 (stats %+v)", second.Stats.StoreCorrupt, second.Stats)
	}
	if second.Stats.UniqueRuns != 1 || second.Stats.DiskHits != 1 {
		t.Errorf("recovery stats = %+v, want exactly the damaged job recomputed (1 unique run, 1 disk hit)", second.Stats)
	}
	if second.Stats.Failures != 0 {
		t.Errorf("recovery reported %d failures, want 0", second.Stats.Failures)
	}

	// The bad artifact is quarantined, not left in place, and the recompute
	// rewrote it: the store is healed.
	info, err := CheckStore(storeDir)
	if err != nil {
		t.Fatalf("CheckStore: %v", err)
	}
	if info.Corrupt != 0 || info.Quarantined != 1 || info.Artifacts != 2 {
		t.Errorf("healed store check = %+v, want 2 clean artifacts and 1 quarantined file", info)
	}

	third, err := RunCampaignContext(ctx, cfg, jobs)
	if err != nil {
		t.Fatalf("campaign against healed store: %v", err)
	}
	if third.Stats.UniqueRuns != 0 || third.Stats.DiskHits != 2 {
		t.Errorf("healed-store stats = %+v, want zero recomputation", third.Stats)
	}
}

// TestCrossProcessStoreReuse is the cross-process half of the durability
// contract: a second process pointed at the first process's store must
// serve every design point from disk (100% hit rate, zero simulator
// invocations) and produce byte-identical metrics.
func TestCrossProcessStoreReuse(t *testing.T) {
	if out := os.Getenv("SCALESIM_STORE_OUT"); out != "" {
		writeStorePayload(t, out, os.Getenv("SCALESIM_STORE_DIR"), os.Getenv("SCALESIM_STORE_EXPECT"))
		return
	}
	if testing.Short() {
		t.Skip("re-executes the test binary")
	}

	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	runChild := func(name, expect string) []byte {
		path := filepath.Join(dir, name)
		cmd := exec.Command(exe, "-test.run=^TestCrossProcessStoreReuse$", "-test.count=1")
		cmd.Env = append(os.Environ(),
			"SCALESIM_STORE_OUT="+path,
			"SCALESIM_STORE_DIR="+storeDir,
			"SCALESIM_STORE_EXPECT="+expect)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("child %s failed: %v\n%s", name, err, out)
		}
		payload, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read child payload: %v", err)
		}
		if len(payload) == 0 {
			t.Fatalf("child %s wrote an empty payload", name)
		}
		return payload
	}

	first := runChild("first", "compute")
	second := runChild("second", "disk")
	if !bytes.Equal(first, second) {
		t.Errorf("store round-trip across processes changed the results:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

// writeStorePayload runs the durability campaign in a child process,
// asserts the expected memoization behavior (fresh store computes; reused
// store disk-hits everything), and streams the bit-exact metrics to path.
func writeStorePayload(t *testing.T, path, storeDir, expect string) {
	cfg, jobs := durabilityCampaign(storeDir)
	res, err := RunCampaignContext(context.Background(), cfg, jobs)
	if err != nil {
		t.Fatalf("RunCampaignContext: %v", err)
	}
	switch expect {
	case "compute":
		if res.Stats.UniqueRuns != 2 || res.Stats.DiskHits != 0 {
			t.Fatalf("first process stats = %+v, want 2 unique runs against a fresh store", res.Stats)
		}
	case "disk":
		if res.Stats.UniqueRuns != 0 {
			t.Fatalf("second process simulated %d times, want zero recomputation (stats %+v)", res.Stats.UniqueRuns, res.Stats)
		}
		if res.Stats.DiskHits != 2 || res.Stats.HitRate() != 1 {
			t.Fatalf("second process stats = %+v, want 2 disk hits and a 100%% hit rate", res.Stats)
		}
	default:
		t.Fatalf("unknown SCALESIM_STORE_EXPECT %q", expect)
	}
	payload := renderOutcomes(t, res)
	if err := os.WriteFile(path, []byte(payload), 0o644); err != nil {
		t.Fatalf("write payload: %v", err)
	}
}

// openFDs counts this process's open descriptors.
func openFDs(t *testing.T) int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count open descriptors on this platform: %v", err)
	}
	return len(ents)
}

// TestStoreAndSurrogateHandlesAreReleased pins the one place handles are
// closed: with Store and Surrogate both set, a campaign and a Service each
// hold the store journal and the surrogate's dataset file, and both must be
// closed by the time the campaign returns or Close does. The open
// descriptor count of this process stays flat across 50 of each. The closed
// services stay referenced so a leaked file cannot be rescued by its
// finalizer mid-test.
func TestStoreAndSurrogateHandlesAreReleased(t *testing.T) {
	dir := t.TempDir()
	before := openFDs(t)
	var closed []*Service
	for i := 0; i < 50; i++ {
		if _, err := RunCampaignContext(context.Background(), ServiceConfig{Store: dir, Surrogate: &SurrogateConfig{}}, nil); err != nil {
			t.Fatal(err)
		}
		svc, err := NewService(ServiceConfig{Store: dir, Surrogate: &SurrogateConfig{}})
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
		closed = append(closed, svc)
	}
	if after := openFDs(t); after != before {
		t.Errorf("%d descriptors open after 50 store+surrogate campaigns and %d services, %d before: a handle leaks", after, len(closed), before)
	}
}

// TestExperimentsSetStoreReplacesAndCloses: a second SetStore closes the
// store it replaces, so re-pointing a driver 50 times and closing it leaves
// the descriptor count flat (the first store's journal used to stay open).
// The drivers stay referenced so no finalizer can close a leaked file.
func TestExperimentsSetStoreReplacesAndCloses(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	before := openFDs(t)
	var closed []*Experiments
	for i := 0; i < 50; i++ {
		ex, err := NewExperimentsSubset(tinyOptions(), subsetNames()...)
		if err != nil {
			t.Fatal(err)
		}
		for _, dir := range []string{dirA, dirB, dirA} {
			if err := ex.SetStore(dir); err != nil {
				t.Fatal(err)
			}
		}
		if err := ex.Close(); err != nil {
			t.Fatal(err)
		}
		closed = append(closed, ex)
	}
	if after := openFDs(t); after != before {
		t.Errorf("%d descriptors open after %d drivers each re-pointed twice, %d before: a replaced store leaks", after, len(closed), before)
	}
}
