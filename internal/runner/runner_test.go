package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scalesim/internal/config"
	"scalesim/internal/metrics"
	"scalesim/internal/sim"
	"scalesim/internal/trace"
)

// job builds a distinct design point by seed (the seed lives in Options and
// therefore in the cache key).
func job(seed uint64) Job {
	return Job{
		Config:   config.Target(),
		Workload: sim.Workload{Profiles: []*trace.Profile{trace.Suite()[0]}},
		Options:  sim.Options{Seed: seed},
	}
}

// runBatch keys jobs, as a batch's caller does once, and runs them.
func runBatch(ctx context.Context, e *Engine, jobs []Job) ([]Outcome, error) {
	keys := make([]string, len(jobs))
	for i, j := range jobs {
		keys[i] = j.Key()
	}
	return e.RunBatch(ctx, keys, jobs)
}

// fakeResult fabricates a result carrying the seed, so tests can check which
// execution produced it.
func fakeResult(seed uint64) *sim.Result {
	return &sim.Result{ConfigName: fmt.Sprintf("fake-%d", seed)}
}

func countingEngine(workers int, delay time.Duration) (*Engine, *atomic.Int64) {
	e := New(workers)
	var calls atomic.Int64
	e.SetRunFunc(func(ctx context.Context, _ *config.SystemConfig, _ sim.Workload, o sim.Options) (*sim.Result, error) {
		calls.Add(1)
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return fakeResult(o.Seed), nil
	})
	return e, &calls
}

// TestKeyContentAddressing: identical jobs share a key, different machines
// do not. Field-by-field coverage is TestKeyCoversEveryField's.
func TestKeyContentAddressing(t *testing.T) {
	a, b := job(1), job(1)
	if a.Key() != b.Key() {
		t.Fatal("identical jobs hash differently")
	}
	small, err := config.ScaleModel(config.Target(), 2, config.ScaleModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c := (Job{Config: small, Workload: a.Workload, Options: a.Options}); a.Key() == c.Key() {
		t.Fatal("config not part of the key")
	}
}

// fixtureJob is a fully specified design point for the pinned-key test:
// every semantic field is set explicitly so the expected hash depends only on
// the canonical encoding (and the Table II target configuration).
func fixtureJob() Job {
	prof := &trace.Profile{
		Name:           "fixture",
		BaseCPI:        0.45,
		LoadsPerKI:     260,
		StoresPerKI:    110,
		BranchesPerKI:  150,
		MLP:            3.5,
		StaticBranches: 4096,
		HardFrac:       0.125,
		IFootprint:     96 * 1024,
		Regions: []trace.Region{
			{Size: 8 << 20, Frac: 0.75, Pattern: trace.Rand, ElemSize: 8, ZipfS: 0},
			{Size: 1 << 16, Frac: 0.25, Pattern: trace.Seq, ElemSize: 64, ZipfS: 0},
		},
	}
	return Job{
		Config:   config.Target(),
		Workload: sim.Workload{Profiles: []*trace.Profile{prof}},
		Options: sim.Options{
			Instructions:  1_000_000,
			Warmup:        250_000,
			EpochCycles:   20_000,
			CapacityScale: 8,
			Seed:          1,
		},
	}
}

// TestKeyPinned pins the canonical key of a fixture job. The key must be
// byte-stable across processes and platforms, so this exact value must
// reproduce on every run; it changes only when a semantic field is added to
// the encoding (key.go), the fixture, or the Table II target — re-pin it
// deliberately in that case.
func TestKeyPinned(t *testing.T) {
	const want = "f9ba0b4b94b316ba10d4db17cd572226e12d8fbae2468c768c36acc3a2311644"
	if got := fixtureJob().Key(); got != want {
		t.Fatalf("fixture key drifted:\n got %s\nwant %s", got, want)
	}
	// And it must be stable within the process, trivially.
	if fixtureJob().Key() != fixtureJob().Key() {
		t.Fatal("fixture key unstable across calls")
	}
}

func TestMemoizationAndStats(t *testing.T) {
	e, calls := countingEngine(1, 0)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		oc := e.Run(ctx, job(7))
		if oc.Err != nil {
			t.Fatal(oc.Err)
		}
		if oc.Result.ConfigName != "fake-7" {
			t.Fatalf("wrong result %q", oc.Result.ConfigName)
		}
		if wantHit := i > 0; oc.CacheHit != wantHit {
			t.Fatalf("run %d: hit=%v", i, oc.CacheHit)
		}
		wantSrc := SourceCompute
		if i > 0 {
			wantSrc = SourceMemory
		}
		if oc.Source != wantSrc {
			t.Fatalf("run %d: source=%q, want %q", i, oc.Source, wantSrc)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("%d executions, want 1", calls.Load())
	}
	s := e.Stats()
	if s.Jobs != 3 || s.UniqueRuns != 1 || s.CacheHits != 2 || s.Failures != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestInFlightDeduplication(t *testing.T) {
	e, calls := countingEngine(4, 50*time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if oc := e.Run(context.Background(), job(1)); oc.Err != nil {
				t.Error(oc.Err)
			}
		}()
	}
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("%d executions for 8 concurrent identical jobs", calls.Load())
	}
	s := e.Stats()
	if s.CacheHits+s.CoalescedHits != 7 || s.UniqueRuns != 1 {
		t.Fatalf("8 identical jobs must yield 1 run and 7 deduplications: %+v", s)
	}
}

// TestCoalescedSource pins the served-vocabulary contract: a job submitted
// while its identical twin is still simulating reports SourceCoalesced and
// counts as a CoalescedHit, while a job submitted after completion reports
// SourceMemory and counts as a CacheHit.
func TestCoalescedSource(t *testing.T) {
	e := New(2)
	entered := make(chan struct{})
	release := make(chan struct{})
	e.SetRunFunc(func(ctx context.Context, _ *config.SystemConfig, _ sim.Workload, o sim.Options) (*sim.Result, error) {
		close(entered)
		<-release
		return fakeResult(o.Seed), nil
	})

	first := make(chan Outcome, 1)
	go func() { first <- e.Run(context.Background(), job(1)) }()
	<-entered // the leader is now in flight

	second := make(chan Outcome, 1)
	go func() { second <- e.Run(context.Background(), job(1)) }()
	// The follower registered Jobs before blocking on the entry; wait for it
	// so the release below cannot race its lookup.
	for e.Stats().CoalescedHits == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)

	if oc := <-first; oc.Err != nil || oc.Source != SourceCompute {
		t.Fatalf("leader outcome %+v, want computed", oc)
	}
	if oc := <-second; oc.Err != nil || oc.Source != SourceCoalesced || !oc.CacheHit {
		t.Fatalf("in-flight follower outcome %+v, want SourceCoalesced cache hit", oc)
	}
	// After completion the entry serves as a plain memory hit.
	if oc := e.Run(context.Background(), job(1)); oc.Source != SourceMemory {
		t.Fatalf("post-completion outcome %+v, want SourceMemory", oc)
	}
	s := e.Stats()
	if s.UniqueRuns != 1 || s.CoalescedHits != 1 || s.CacheHits != 1 {
		t.Fatalf("stats %+v, want 1 run / 1 coalesced / 1 memory hit", s)
	}
	if s.HitRate() != 2.0/3.0 {
		t.Fatalf("HitRate = %v, want 2/3 (coalesced hits count)", s.HitRate())
	}
}

// TestLookupAnswersOnlyLandedFlights: Lookup answers a key as RunKeyed would
// once its flight has landed — SourceMemory, the leader's result, counted
// once — and before that, absent or in the air, reports false and counts
// nothing, so the caller's RunKeyed is the job's one claim.
func TestLookupAnswersOnlyLandedFlights(t *testing.T) {
	e := New(2)
	entered, release := make(chan struct{}), make(chan struct{})
	e.SetRunFunc(func(ctx context.Context, _ *config.SystemConfig, _ sim.Workload, o sim.Options) (*sim.Result, error) {
		close(entered)
		<-release
		return fakeResult(o.Seed), nil
	})
	key := job(1).Key()
	if _, ok := e.Lookup(key); ok {
		t.Fatal("Lookup answered a key never run")
	}
	first := make(chan Outcome, 1)
	go func() { first <- e.RunKeyed(context.Background(), key, job(1)) }()
	<-entered
	if oc, ok := e.Lookup(key); ok {
		t.Fatalf("Lookup answered a flight still in the air: %+v", oc)
	}
	if s := e.Stats(); s.Jobs != 1 || s.CacheHits != 0 || s.CoalescedHits != 0 {
		t.Fatalf("stats before landing = %+v, want the leader's one job", s)
	}
	close(release)
	leader := <-first
	oc, ok := e.Lookup(key)
	if !ok || oc.Source != SourceMemory || !oc.CacheHit || oc.Err != nil || oc.Result != leader.Result {
		t.Fatalf("Lookup on a landed key = %+v, %v; want a memory hit with the leader's result", oc, ok)
	}
	if s := e.Stats(); s.Jobs != 2 || s.CacheHits != 1 || s.UniqueRuns != 1 {
		t.Fatalf("stats after one lookup hit = %+v, want 2 jobs, 1 cache hit, 1 run", s)
	}
}

// TestPanickingJobRunsOnce: a job runs once. A panic in the simulator is that
// job's answer — recovered, its stack kept, wrapped in ErrJobFailed, never
// tried again — and its batch siblings are unaffected.
func TestPanickingJobRunsOnce(t *testing.T) {
	e := New(2)
	var panics atomic.Int64
	e.SetRunFunc(func(_ context.Context, _ *config.SystemConfig, _ sim.Workload, o sim.Options) (*sim.Result, error) {
		if o.Seed == 2 {
			panics.Add(1)
			panic("permanent")
		}
		return fakeResult(o.Seed), nil
	})
	out, err := runBatch(context.Background(), e, []Job{job(1), job(2), job(3)})
	if err != nil {
		t.Fatal(err)
	}
	if n := panics.Load(); n != 1 {
		t.Fatalf("the panicking simulation was called %d times, want exactly 1", n)
	}
	var pe *PanicError
	if err := out[1].Err; !errors.Is(err, ErrJobFailed) || !errors.As(err, &pe) {
		t.Fatalf("err %v, want ErrJobFailed wrapping a *PanicError", err)
	}
	if pe.Value != "permanent" || len(pe.Stack) == 0 {
		t.Fatalf("panic detail lost: %+v", pe)
	}
	if out[1].Result != nil || out[1].Source != SourceCompute || out[1].CacheHit {
		t.Fatalf("panicked outcome %+v, want a computed failure", out[1])
	}
	for _, i := range []int{0, 2} {
		if out[i].Err != nil || out[i].Result.ConfigName != fmt.Sprintf("fake-%d", i+1) {
			t.Fatalf("sibling job %d did not succeed: %+v", i, out[i])
		}
	}
	if s := e.Stats(); s.Jobs != 3 || s.Failures != 1 || s.UniqueRuns != 3 {
		t.Fatalf("stats %+v, want 3 jobs / 1 failure / 3 runs", s)
	}
	// The failure is the key's settled answer: asking again serves it from
	// memory without a second run.
	if oc := e.Run(context.Background(), job(2)); !errors.As(oc.Err, &pe) || oc.Source != SourceMemory || panics.Load() != 1 {
		t.Fatalf("repeat of a failed job: %+v after %d runs, want the memoized failure", oc, panics.Load())
	}
}

func TestCancellationNotCached(t *testing.T) {
	e, calls := countingEngine(1, time.Hour)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	if err := e.Run(ctx, job(1)).Err; !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v", err)
	}
	// Resubmitting with a live context must actually run, not replay the
	// cancellation.
	e.SetRunFunc(func(_ context.Context, _ *config.SystemConfig, _ sim.Workload, o sim.Options) (*sim.Result, error) {
		calls.Add(1)
		return fakeResult(o.Seed), nil
	})
	oc := e.Run(context.Background(), job(1))
	if oc.Err != nil || oc.CacheHit {
		t.Fatalf("resubmit: res=%v hit=%v err=%v", oc.Result, oc.CacheHit, oc.Err)
	}
	if s := e.Stats(); s.UniqueRuns != 1 {
		t.Fatalf("cancelled run still counted: %+v", s)
	}
}

func TestRunBatchOrdering(t *testing.T) {
	e, calls := countingEngine(4, time.Millisecond)
	jobs := make([]Job, 12)
	for i := range jobs {
		jobs[i] = job(uint64(i % 5)) // 5 unique points, 7 duplicates
	}
	out, err := runBatch(context.Background(), e, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range out {
		if o.Err != nil {
			t.Fatalf("job %d: %v", i, o.Err)
		}
		if want := fmt.Sprintf("fake-%d", i%5); o.Result.ConfigName != want {
			t.Fatalf("job %d got %q, want %q (submission order broken)", i, o.Result.ConfigName, want)
		}
	}
	if calls.Load() != 5 {
		t.Fatalf("%d executions, want 5", calls.Load())
	}
}

// TestBatchSplitsHostByItsOwnWidth: an auto CoreWorkers is the job's share
// of the batch it runs in, whose pool is clamped to its job list — not of the
// engine's nominal pool — so a one-job campaign on a default engine gets the
// whole host. The split never reaches the key.
func TestBatchSplitsHostByItsOwnWidth(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	e := New(0) // pool = GOMAXPROCS
	var mu sync.Mutex
	got := map[uint64]int{} // seed -> CoreWorkers the simulator was handed
	e.SetRunFunc(func(_ context.Context, _ *config.SystemConfig, _ sim.Workload, o sim.Options) (*sim.Result, error) {
		mu.Lock()
		defer mu.Unlock()
		got[o.Seed] = o.CoreWorkers
		return fakeResult(o.Seed), nil
	})
	run := func(jobs ...Job) {
		t.Helper()
		if _, err := runBatch(context.Background(), e, jobs); err != nil {
			t.Fatal(err)
		}
	}

	run(job(100))
	if got[100] != procs {
		t.Errorf("one-job batch: CoreWorkers = %d, want GOMAXPROCS = %d", got[100], procs)
	}

	explicit := job(200)
	explicit.Options.CoreWorkers = 3
	wide := []Job{explicit, job(100)} // job(100) again: same key, so a memory hit
	for i := 0; i < procs; i++ {
		wide = append(wide, job(uint64(i)))
	}
	run(wide...)
	for i := 0; i < procs; i++ {
		if got[uint64(i)] != 1 {
			t.Errorf("batch at least as wide as the host: job %d got CoreWorkers = %d, want 1", i, got[uint64(i)])
		}
	}
	if got[200] != 3 {
		t.Errorf("explicit CoreWorkers = 3 was rewritten to %d", got[200])
	}
	if runs := e.Stats().UniqueRuns; runs != procs+2 {
		t.Errorf("%d simulations, want %d: the split must not change a job's key", runs, procs+2)
	}
}

func TestReportPerConfig(t *testing.T) {
	e, _ := countingEngine(2, time.Millisecond)
	jobs := []Job{job(1), job(2), job(1)} // 2 unique runs on one config
	out, err := runBatch(context.Background(), e, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range out {
		if o.Err != nil {
			t.Fatalf("job %d: %v", i, o.Err)
		}
	}
	r := e.Report()
	if r.Stats.Jobs != 3 || r.Stats.UniqueRuns != 2 {
		t.Fatalf("report stats %+v", r.Stats)
	}
	if len(r.PerConfig) != 1 {
		t.Fatalf("%d per-config rows, want 1", len(r.PerConfig))
	}
	row := r.PerConfig[0]
	if row.Name != config.Target().Name || row.Runs != 2 {
		t.Fatalf("per-config row %+v", row)
	}
	s := r.String()
	if !strings.Contains(s, "campaign:") || !strings.Contains(s, row.Name) || !strings.Contains(s, "total") {
		t.Fatalf("report rendering incomplete:\n%s", s)
	}
}

// TestEngineSharesFrontsAcrossMachines drives the default run function: two
// machine sizes running the same program instances through one engine step
// the private half once, the engine's stats say so, and the report prints
// the line — with counts that repeat exactly.
func TestEngineSharesFrontsAcrossMachines(t *testing.T) {
	campaign := func() metrics.FrontStats {
		e := New(1)
		var jobs []Job
		for _, cores := range []int{1, 2} {
			cfg, err := config.ScaleModel(config.Target(), cores, config.ScaleModelOptions{Policy: config.PRSFull})
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, Job{
				Config:   cfg,
				Workload: sim.Homogeneous(trace.ByName("gcc"), cores),
				Options:  sim.Options{Instructions: 40_000, Warmup: 10_000, EpochCycles: 10_000, CapacityScale: 32, Seed: 1},
			})
		}
		out, err := runBatch(context.Background(), e, jobs)
		if err != nil || out[0].Err != nil || out[1].Err != nil {
			t.Fatal(err, out[0].Err, out[1].Err)
		}
		st := e.Stats().Fronts
		if st.StreamsBuilt != 2 || st.ChunksProduced == 0 || st.ChunksConsumed <= st.ChunksProduced || st.BytesRetained == 0 || st.StreamsEvicted != 0 {
			t.Fatalf("two machines over the same instances: %+v", st)
		}
		if r := e.Report().String(); !strings.Contains(r, "\nfronts: "+st.String()) {
			t.Fatalf("report does not print the fronts line:\n%s", r)
		}
		return st
	}
	if a, b := campaign(), campaign(); a != b {
		t.Fatalf("the same campaign counted differently: %+v then %+v", a, b)
	}
}

func TestRunBatchCancellationCompletesOutcomes(t *testing.T) {
	e, _ := countingEngine(2, 30*time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	jobs := make([]Job, 16)
	for i := range jobs {
		jobs[i] = job(uint64(i))
	}
	out, err := runBatch(ctx, e, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("batch err %v", err)
	}
	cancelled := 0
	for i, o := range out {
		if o.Result == nil && o.Err == nil {
			t.Fatalf("job %d has neither result nor error", i)
		}
		if errors.Is(o.Err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Fatal("no job observed the cancellation")
	}
}
