package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"scalesim/internal/trace"
)

// tracedOpts enables telemetry on top of the fast unit-test options.
func tracedOpts(warmup bool) Options {
	o := fastOpts()
	o.Telemetry = &TelemetryOptions{Warmup: warmup}
	return o
}

func TestTelemetryCollectsMeasuredEpochs(t *testing.T) {
	res, err := Run(scaleModel(t, 2), Homogeneous(trace.ByName("mcf"), 2), tracedOpts(false))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("traced run produced an empty trace")
	}
	for i, e := range res.Trace {
		if e.Phase != PhaseMeasure {
			t.Fatalf("epoch %d: phase %q, want %q (warmup observation is off)", i, e.Phase, PhaseMeasure)
		}
		if e.Epoch != i {
			t.Fatalf("epoch %d: index %d", i, e.Epoch)
		}
		if len(e.Cores) != 2 {
			t.Fatalf("epoch %d: %d core records, want 2", i, len(e.Cores))
		}
		if e.Config == "" || e.EpochCycles <= 0 {
			t.Fatalf("epoch %d: incomplete snapshot %+v", i, e)
		}
	}
	// The measured-phase snapshots must account for the full instruction
	// budget of each core.
	var instr uint64
	for _, e := range res.Trace {
		instr += e.Cores[0].Instructions
	}
	if instr != res.Cores[0].Instructions {
		t.Fatalf("trace accounts for %d instructions on core 0, result reports %d", instr, res.Cores[0].Instructions)
	}
	for i, e := range res.Trace {
		c := e.Cores[0]
		if c.Benchmark != "mcf" {
			t.Fatalf("epoch %d: benchmark %q", i, c.Benchmark)
		}
		if c.L1DHitRate < 0 || c.L1DHitRate > 1 || c.LLCHitRate < 0 || c.LLCHitRate > 1 {
			t.Fatalf("epoch %d: hit rate out of [0,1]: %+v", i, c)
		}
	}
}

func TestTelemetryWarmupCoverage(t *testing.T) {
	res, err := Run(scaleModel(t, 1), Homogeneous(trace.ByName("gcc"), 1), tracedOpts(true))
	if err != nil {
		t.Fatal(err)
	}
	warm := 0
	for _, e := range res.Trace {
		if e.Phase == PhaseWarmup {
			warm++
		}
	}
	if warm == 0 {
		t.Fatal("Warmup: true but no warmup epochs in the trace")
	}
	// Warmup epochs come first, and the epoch index is monotonic across the
	// phase boundary.
	for i, e := range res.Trace {
		if e.Epoch != i {
			t.Fatalf("epoch %d: index %d", i, e.Epoch)
		}
		if i > 0 && res.Trace[i-1].Phase == PhaseMeasure && e.Phase == PhaseWarmup {
			t.Fatalf("warmup epoch %d after a measured epoch", i)
		}
	}
}

// TestTelemetryDoesNotPerturbResults pins the zero-overhead contract's
// correctness half: a traced run retires the same instructions in the same
// cycles as an untraced one.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	for _, wl := range []Workload{
		Homogeneous(trace.ByName("lbm"), 2),
		{Threads: trace.ParallelByName("par.graph")}, // barrier waits move core clocks between observations
	} {
		plain, err := Run(scaleModel(t, 2), wl, fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		traced, err := Run(scaleModel(t, 2), wl, tracedOpts(true))
		if err != nil {
			t.Fatal(err)
		}
		if len(traced.Trace) == 0 {
			t.Fatalf("%s: traced run produced no snapshots", wl.profile(0).Name)
		}
		// WallClock is host time and Trace is the telemetry itself; everything
		// else must match bit for bit.
		plain.WallClock, traced.WallClock = 0, 0
		traced.Trace = nil
		if !reflect.DeepEqual(plain, traced) {
			t.Fatalf("telemetry perturbed the simulation:\nuntraced: %+v\ntraced:   %+v", plain, traced)
		}
	}
}

// TestTelemetryJSONLDeterminism pins the reproducibility half: two traced
// runs of the same job encode to byte-identical JSONL.
func TestTelemetryJSONLDeterminism(t *testing.T) {
	stream := func() []byte {
		res, err := Run(scaleModel(t, 2), Homogeneous(trace.ByName("mcf"), 2), tracedOpts(true))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for i := range res.Trace {
			if err := enc.Encode(&res.Trace[i]); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	a, b := stream(), stream()
	if len(a) == 0 {
		t.Fatal("traced run produced no snapshots")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("traced runs differ: %d vs %d bytes", len(a), len(b))
	}
}

// TestEpochLogGrowthDeterminism undersizes the per-core LLC replay log so
// the arena growth path is exercised, not just the pre-sized happy path: a
// parallel run that must grow every log mid-epoch stays byte-identical to
// the serial run at the default capacity.
func TestEpochLogGrowthDeterminism(t *testing.T) {
	run := func(workers int) *Result {
		o := tracedOpts(true)
		o.CoreWorkers = workers
		res, err := Run(scaleModel(t, 4), Homogeneous(trace.ByName("mcf"), 4), o)
		if err != nil {
			t.Fatal(err)
		}
		res.WallClock = 0
		return res
	}
	serial := run(1)
	defer func(n int) { defaultEpochLogOps = n }(defaultEpochLogOps)
	defaultEpochLogOps = 8
	if grown := run(4); !reflect.DeepEqual(serial, grown) {
		t.Fatalf("undersized parallel logs diverged from the serial run:\nserial: %+v\ngrown:  %+v", serial, grown)
	}
}
