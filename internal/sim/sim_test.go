package sim

import (
	"context"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/trace"
)

// fastOpts keeps unit-test runs short; experiments use DefaultOptions.
func fastOpts() Options {
	return Options{
		Instructions:  120_000,
		Warmup:        40_000,
		EpochCycles:   10_000,
		CapacityScale: 16,
		Seed:          7,
	}
}

// Run is RunContext without cancellation, for the tests' many call sites.
func Run(cfg *config.SystemConfig, wl Workload, opts Options) (*Result, error) {
	return RunContext(context.Background(), cfg, wl, opts)
}

// averageIPC returns the mean per-core IPC.
func (r *Result) averageIPC() float64 {
	sum := 0.0
	for _, c := range r.Cores {
		sum += c.IPC
	}
	return sum / float64(len(r.Cores))
}

// mixMachine builds the machine a Run of wl would, with every stream taken
// from fronts (nil: private).
func mixMachine(fronts *Fronts, cfg *config.SystemConfig, wl Workload, opts Options) (*machine, error) {
	return newMachine(cfg, len(wl.Profiles), opts, fronts.cores(cfg, wl, opts))
}

func scaleModel(t *testing.T, cores int) *config.SystemConfig {
	t.Helper()
	sm, err := config.ScaleModel(config.Target(), cores, config.ScaleModelOptions{Policy: config.PRSFull})
	if err != nil {
		t.Fatal(err)
	}
	return sm
}

func TestRunSingleCore(t *testing.T) {
	res, err := Run(scaleModel(t, 1), Homogeneous(trace.ByName("gcc"), 1), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != 1 {
		t.Fatalf("%d core results, want 1", len(res.Cores))
	}
	c := res.Cores[0]
	if c.Benchmark != "gcc" {
		t.Fatalf("benchmark %q, want gcc", c.Benchmark)
	}
	if c.Instructions < fastOpts().Instructions {
		t.Fatalf("retired %d < budget %d", c.Instructions, fastOpts().Instructions)
	}
	if c.IPC <= 0 || c.IPC > 4 {
		t.Fatalf("IPC %.3f out of physical range (0, 4]", c.IPC)
	}
	if c.BWBytesPerCycle < 0 || c.BWShare < 0 {
		t.Fatalf("negative bandwidth: %+v", c)
	}
}

func TestRunRejectsMismatchedWorkload(t *testing.T) {
	if _, err := Run(scaleModel(t, 2), Homogeneous(trace.ByName("gcc"), 1), fastOpts()); err == nil {
		t.Fatal("2-core config with 1-program workload accepted")
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	cfg := config.Target()
	cfg.Cores = 0
	if _, err := Run(cfg, Workload{}, fastOpts()); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		res, err := Run(scaleModel(t, 2), Homogeneous(trace.ByName("mcf"), 2), fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a.Cores {
		if a.Cores[i].IPC != b.Cores[i].IPC || a.Cores[i].LLCMPKI != b.Cores[i].LLCMPKI {
			t.Fatalf("non-deterministic results: %+v vs %+v", a.Cores[i], b.Cores[i])
		}
	}
}

func TestComputeBoundIPCHigh(t *testing.T) {
	res, err := Run(scaleModel(t, 1), Homogeneous(trace.ByName("exchange2"), 1), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cores[0]
	if c.IPC < 1.5 {
		t.Fatalf("compute-bound exchange2 IPC %.3f, want > 1.5", c.IPC)
	}
	if c.LLCMPKI > 2 {
		t.Fatalf("exchange2 LLC MPKI %.2f, want near-zero", c.LLCMPKI)
	}
}

func TestMemoryBoundIPCLow(t *testing.T) {
	cmp, err := Run(scaleModel(t, 1), Homogeneous(trace.ByName("exchange2"), 1), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	mem, err := Run(scaleModel(t, 1), Homogeneous(trace.ByName("lbm"), 1), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if mem.Cores[0].IPC >= cmp.Cores[0].IPC {
		t.Fatalf("lbm IPC %.3f >= exchange2 IPC %.3f", mem.Cores[0].IPC, cmp.Cores[0].IPC)
	}
	if mem.Cores[0].LLCMPKI < 2 {
		t.Fatalf("lbm LLC MPKI %.2f, want streaming-level misses", mem.Cores[0].LLCMPKI)
	}
	if mem.Cores[0].BWShare < 0.1 {
		t.Fatalf("lbm bandwidth share %.3f, want substantial", mem.Cores[0].BWShare)
	}
}

func TestContentionDegradesMemoryBoundIPC(t *testing.T) {
	// The core methodological premise: per-core IPC of a memory-bound
	// program is lower when co-run on the target than alone on an
	// NRS-style machine with full-size shared resources.
	nrs, err := config.ScaleModel(config.Target(), 1, config.ScaleModelOptions{Policy: config.NRS})
	if err != nil {
		t.Fatal(err)
	}
	alone, err := Run(nrs, Homogeneous(trace.ByName("lbm"), 1), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	target, err := Run(config.Target(), Homogeneous(trace.ByName("lbm"), 32), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if target.averageIPC() >= alone.Cores[0].IPC*0.95 {
		t.Fatalf("no contention: target per-core IPC %.3f vs isolated %.3f",
			target.averageIPC(), alone.Cores[0].IPC)
	}
}

func TestPRSScaleModelTracksTarget(t *testing.T) {
	// A PRS single-core scale model should be much closer to target
	// per-core IPC than the NRS one for a memory-bound benchmark.
	prsRes, err := Run(scaleModel(t, 1), Homogeneous(trace.ByName("lbm"), 1), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	nrsCfg, _ := config.ScaleModel(config.Target(), 1, config.ScaleModelOptions{Policy: config.NRS})
	nrsRes, err := Run(nrsCfg, Homogeneous(trace.ByName("lbm"), 1), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	target, err := Run(config.Target(), Homogeneous(trace.ByName("lbm"), 32), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	actual := target.averageIPC()
	errOf := func(pred float64) float64 {
		e := (pred - actual) / actual
		if e < 0 {
			return -e
		}
		return e
	}
	if errOf(prsRes.Cores[0].IPC) >= errOf(nrsRes.Cores[0].IPC) {
		t.Fatalf("PRS error %.3f not below NRS error %.3f (pred %.3f / %.3f vs actual %.3f)",
			errOf(prsRes.Cores[0].IPC), errOf(nrsRes.Cores[0].IPC),
			prsRes.Cores[0].IPC, nrsRes.Cores[0].IPC, actual)
	}
}

func TestHeterogeneousMixRuns(t *testing.T) {
	wl := Workload{Profiles: []*trace.Profile{
		trace.ByName("lbm"), trace.ByName("exchange2"),
		trace.ByName("mcf"), trace.ByName("gcc"),
	}}
	res, err := Run(scaleModel(t, 4), wl, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != 4 {
		t.Fatalf("%d results, want 4", len(res.Cores))
	}
	// The compute-bound program should retire the most instructions and
	// terminate the run.
	var maxInstr uint64
	maxName := ""
	for _, c := range res.Cores {
		if c.Instructions > maxInstr {
			maxInstr, maxName = c.Instructions, c.Benchmark
		}
	}
	if maxName != "exchange2" {
		t.Errorf("fastest program was %s, expected exchange2", maxName)
	}
	if maxInstr < fastOpts().Instructions {
		t.Errorf("first-finisher retired %d < budget", maxInstr)
	}
}

func TestFirstFinisherTerminates(t *testing.T) {
	// In a mixed workload, slow programs must NOT be required to reach the
	// full budget (paper: stop when the first program finishes).
	wl := Workload{Profiles: []*trace.Profile{
		trace.ByName("exchange2"), trace.ByName("mcf"),
	}}
	res, err := Run(scaleModel(t, 2), wl, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	var mcf CoreResult
	for _, c := range res.Cores {
		if c.Benchmark == "mcf" {
			mcf = c
		}
	}
	if mcf.Instructions >= fastOpts().Instructions {
		t.Fatalf("mcf retired %d, expected to be cut short by exchange2 finishing", mcf.Instructions)
	}
}

func TestResultAggregates(t *testing.T) {
	res, err := Run(scaleModel(t, 2), Homogeneous(trace.ByName("gcc"), 2), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != 2 || res.averageIPC() <= 0 {
		t.Fatalf("%d cores at average IPC %v, want 2 with positive IPC", len(res.Cores), res.averageIPC())
	}
	if res.ElapsedCycles <= 0 || res.WallClock <= 0 {
		t.Fatal("missing elapsed/wall-clock accounting")
	}
}

func TestOptionsNormalization(t *testing.T) {
	var o Options
	n := o.Resolved()
	d := DefaultOptions()
	if n.Instructions != d.Instructions || n.Warmup != d.Warmup ||
		n.EpochCycles != d.EpochCycles || n.CapacityScale != d.CapacityScale {
		t.Fatalf("resolved zero options %+v != defaults %+v", n, d)
	}
}

func TestPrefetcherHelpsStreaming(t *testing.T) {
	// An L2 stream prefetcher must raise streaming IPC and leave the
	// pointer chaser essentially unchanged.
	run := func(name string, pf bool) float64 {
		opts := fastOpts()
		opts.EnablePrefetch = pf
		res, err := Run(scaleModel(t, 1), Homogeneous(trace.ByName(name), 1), opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cores[0].IPC
	}
	lbmOff, lbmOn := run("lbm", false), run("lbm", true)
	if lbmOn <= lbmOff*1.02 {
		t.Errorf("prefetch did not help lbm: %.3f -> %.3f", lbmOff, lbmOn)
	}
	mcfOff, mcfOn := run("mcf", false), run("mcf", true)
	if ratio := mcfOn / mcfOff; ratio < 0.9 || ratio > 1.15 {
		t.Errorf("prefetch changed mcf too much: %.3f -> %.3f", mcfOff, mcfOn)
	}
}

func TestAblationOptionsChangeResults(t *testing.T) {
	base := fastOpts()
	noFB := base
	noFB.NoFeedback = true
	part := base
	part.PartitionedLLC = true

	run := func(o Options) float64 {
		res, err := Run(config.Target(), Homogeneous(trace.ByName("lbm"), 32), o)
		if err != nil {
			t.Fatal(err)
		}
		return res.averageIPC()
	}
	full := run(base)
	unfed := run(noFB)
	// Without bandwidth feedback a saturating workload runs unrealistically
	// fast on the loaded target.
	if unfed <= full*1.1 {
		t.Errorf("NoFeedback target IPC %.3f not well above full model %.3f", unfed, full)
	}
	parted := run(part)
	if parted == full {
		t.Error("PartitionedLLC produced bit-identical results; ablation not wired?")
	}
}
