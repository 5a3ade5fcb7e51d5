package scalesim

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
)

// TestCrossProcessDeterminism is the end-to-end reproducibility gate: it
// re-executes this test binary twice as fresh child processes, has each run
// the same small campaign plus a traced simulation, and asserts the two
// payloads — cache keys, bit-exact result metrics, and the JSONL telemetry
// stream — are byte-identical. In-process repetition cannot catch the bug
// class this guards against (address-dependent hashing, map-iteration
// order, ambient randomness): those diverge only across processes, exactly
// like the PR-2 cache-key bug that motivated simlint.
func TestCrossProcessDeterminism(t *testing.T) {
	if out := os.Getenv("SCALESIM_DETERMINISM_OUT"); out != "" {
		writeDeterminismPayload(t, out)
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
	runChild := func(name string) []byte {
		path := filepath.Join(dir, name)
		cmd := exec.Command(exe, "-test.run=^TestCrossProcessDeterminism$", "-test.count=1")
		cmd.Env = append(os.Environ(), "SCALESIM_DETERMINISM_OUT="+path)
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

	first := runChild("first")
	second := runChild("second")
	if !bytes.Equal(first, second) {
		t.Errorf("two processes produced different payloads for the same campaign:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

// writeDeterminismPayload runs the child's workload and streams every
// process-visible artifact into one file: the content-addressed cache key
// of each job, the full-precision per-core metrics of the campaign results,
// and the JSONL rendering of a telemetry trace.
func writeDeterminismPayload(t *testing.T, path string) {
	f, err := os.Create(path)
	if err != nil {
		t.Fatalf("create payload: %v", err)
	}
	defer f.Close()

	spec := MachineSpec{Cores: 2, Bandwidth: BandwidthMCFirst}
	opts := FastOptions()
	opts.Instructions = 60_000
	opts.Warmup = 20_000
	benches := BenchmarkNames()[:2]

	// Cache keys must be a pure function of the design point.
	for _, seed := range []uint64{1, 7} {
		o := opts
		o.Seed = seed
		job, err := CampaignJob{Machine: spec, Benchmarks: benches, Options: o}.job()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(f, "key seed=%d %s\n", seed, job.Key())
	}

	// Campaign results (including a duplicate job exercising the memo
	// cache) rendered with bit-exact float formatting.
	var jobs []CampaignJob
	for _, seed := range []uint64{1, 7, 1} {
		o := opts
		o.Seed = seed
		jobs = append(jobs, CampaignJob{Machine: spec, Benchmarks: benches, Options: o})
	}
	res, err := RunCampaignContext(context.Background(), ServiceConfig{Tuning: &Tuning{CampaignWorkers: 2}}, jobs)
	if err != nil {
		t.Fatalf("RunCampaignContext: %v", err)
	}
	for _, oc := range res.Outcomes {
		if oc.Err != nil {
			t.Fatalf("job %d: %v", oc.Job, oc.Err)
		}
		for i, cr := range oc.Result.Cores {
			fmt.Fprintf(f, "job=%d core=%d ipc=%s bw=%s mpki=%s\n", oc.Job, i,
				strconv.FormatFloat(cr.IPC, 'x', -1, 64),
				strconv.FormatFloat(cr.BWBytesPerCycle, 'x', -1, 64),
				strconv.FormatFloat(cr.LLCMPKI, 'x', -1, 64))
		}
	}

	// The telemetry stream must serialise to identical bytes.
	traced := opts
	traced.Trace = true
	tr, err := SimulateContext(context.Background(), spec, benches, traced)
	if err != nil {
		t.Fatalf("SimulateContext: %v", err)
	}
	if len(tr.Trace) == 0 {
		t.Fatal("traced run produced no snapshots")
	}
	if err := WriteTraceJSONL(f, tr.Trace); err != nil {
		t.Fatalf("WriteTraceJSONL: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close payload: %v", err)
	}
}
