package scalesim

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"scalesim/internal/sim"
)

// surrogateSweep builds the e2e workload: a base DRAM-bandwidth grid that
// trains the model, followed by midpoints the trained model should serve.
// Returned alongside is the index where the midpoints start.
func surrogateSweep() ([]CampaignJob, int) {
	opts := FastOptions()
	opts.Instructions = 60_000
	opts.Warmup = 20_000
	bench := BenchmarkNames()[:1]
	grid := []float64{1, 2, 4, 8, 16}
	mids := []float64{1.5, 3, 6, 12}
	var jobs []CampaignJob
	for _, gb := range append(append([]float64{}, grid...), mids...) {
		jobs = append(jobs, CampaignJob{
			Machine:    MachineSpec{Cores: 1, DRAMPerCoreGBps: gb},
			Benchmarks: bench,
			Options:    opts,
		})
	}
	return jobs, len(grid)
}

// looseSurrogate serves everything once trained: the e2e tests exercise the
// plumbing (sources, markers, stats, tier isolation), not gate calibration.
func looseSurrogate(minTrain int) *SurrogateConfig {
	return &SurrogateConfig{MinTrain: minTrain, VarGate: 1e9, DistGate: 1e9, RefitEvery: 1}
}

// TestSurrogateCampaignEndToEnd drives the full stack: a sequential
// campaign whose base grid computes (training the model) and whose
// midpoints are then served approximately by the surrogate tier, visible in
// outcomes and stats.
func TestSurrogateCampaignEndToEnd(t *testing.T) {
	jobs, base := surrogateSweep()
	res, err := RunCampaignContext(context.Background(), ServiceConfig{
		Tuning:    &Tuning{CampaignWorkers: 1}, // sequential: the base grid trains before the midpoints query
		Surrogate: looseSurrogate(base),
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, oc := range res.Outcomes {
		if oc.Err != nil {
			t.Fatalf("job %d: %v", i, oc.Err)
		}
		if i < base {
			if oc.Source != SourceCompute || oc.Approximate {
				t.Fatalf("base point %d = %q approx=%v, want exact compute", i, oc.Source, oc.Approximate)
			}
			continue
		}
		if oc.Source != SourceModel || !oc.Approximate || !oc.CacheHit {
			t.Fatalf("midpoint %d = %q approx=%v, want approximate model hit", i, oc.Source, oc.Approximate)
		}
		if !(oc.Result.AverageIPC() > 0) {
			t.Fatalf("midpoint %d served a non-physical IPC: %+v", i, oc.Result)
		}
	}
	want := len(jobs) - base
	if res.Stats.ModelHits != want {
		t.Fatalf("ModelHits = %d, want %d; stats: %s", res.Stats.ModelHits, want, res.Stats)
	}
	if res.Stats.UniqueRuns != base {
		t.Fatalf("UniqueRuns = %d, want %d", res.Stats.UniqueRuns, base)
	}
}

// TestSurrogateOffByDefault pins the opt-in contract: without a
// SurrogateConfig the campaign is bit-identical to one that has never heard
// of the tier — every point computes, nothing is approximate.
func TestSurrogateOffByDefault(t *testing.T) {
	jobs, _ := surrogateSweep()
	res, err := RunCampaignContext(context.Background(), ServiceConfig{Tuning: &Tuning{CampaignWorkers: 1}}, jobs[:3])
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ModelHits != 0 {
		t.Fatalf("ModelHits = %d without a surrogate config", res.Stats.ModelHits)
	}
	for i, oc := range res.Outcomes {
		if oc.Approximate || oc.Source != SourceCompute {
			t.Fatalf("job %d = %q approx=%v with the surrogate off", i, oc.Source, oc.Approximate)
		}
	}
}

// TestSurrogateModelResultsNeverPersist pins tier isolation end to end:
// model-served midpoints must not enter the durable store, so a later
// surrogate-free campaign on the same store computes them from scratch —
// and its exact results match a store-less run bit for bit.
func TestSurrogateModelResultsNeverPersist(t *testing.T) {
	jobs, base := surrogateSweep()
	storeDir := filepath.Join(t.TempDir(), "store")

	first, err := RunCampaignContext(context.Background(), ServiceConfig{
		Tuning:    &Tuning{CampaignWorkers: 1},
		Store:     storeDir,
		Surrogate: looseSurrogate(base),
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.ModelHits == 0 {
		t.Fatal("setup: no model hits in the surrogate campaign")
	}

	// Same store, surrogate off: the base grid is ground truth on disk, the
	// midpoints were only ever approximated and must compute now.
	second, err := RunCampaignContext(context.Background(), ServiceConfig{
		Tuning: &Tuning{CampaignWorkers: 1},
		Store:  storeDir,
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.DiskHits != base {
		t.Fatalf("DiskHits = %d, want the %d ground-truth base points", second.Stats.DiskHits, base)
	}
	if got, want := second.Stats.UniqueRuns, len(jobs)-base; got != want {
		t.Fatalf("UniqueRuns = %d, want %d (approximations must not be on disk)", got, want)
	}
	for i, oc := range second.Outcomes {
		if oc.Err != nil {
			t.Fatalf("job %d: %v", i, oc.Err)
		}
		if oc.Approximate {
			t.Fatalf("job %d approximate in a surrogate-free campaign", i)
		}
	}
}

// TestModelNeverAnswersWhatTheSimulatorRefuses is the converse of serving
// approximately: the model answers only a job the simulator would run. Two
// programs on a one-core machine is a job the simulator refuses, and a model
// trained on one-core points with its gates wide open must not answer it in
// the simulator's stead — neither through Prepare, whose door refuses it, nor
// when the same job is built by hand and handed to the engine, as
// scalemodel.Lab and scalebench drive it.
func TestModelNeverAnswersWhatTheSimulatorRefuses(t *testing.T) {
	ctx := context.Background()
	grid := []float64{1, 2, 4, 8, 16}
	svc, err := NewService(ServiceConfig{Tuning: &Tuning{CampaignWorkers: 1}, Surrogate: looseSurrogate(len(grid))})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	point := func(gb float64, programs int) CampaignJob {
		return CampaignJob{
			Machine:    MachineSpec{Cores: 1, DRAMPerCoreGBps: gb},
			Benchmarks: mixOf("xalancbmk", programs),
			Options:    tinyOptions(),
		}
	}
	for _, gb := range grid {
		p, err := svc.Prepare(point(gb, 1))
		if err != nil {
			t.Fatal(err)
		}
		if oc := svc.RunJobContext(ctx, p); oc.Err != nil || oc.Source != SourceCompute {
			t.Fatalf("training point %g GB/s: %q, %v", gb, oc.Source, oc.Err)
		}
	}
	single, err := point(3, 1).job()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := svc.sur.Predict(single); !ok {
		t.Fatal("setup: the trained model does not answer a one-core midpoint")
	}

	p, err := svc.Prepare(point(3, 2))
	if err == nil {
		oc := svc.RunJobContext(ctx, p)
		cores := 0
		if oc.Result != nil {
			cores = len(oc.Result.Cores)
		}
		t.Fatalf("two programs on one core were prepared and answered source=%s, approximate=%v, %d cores", oc.Source, oc.Approximate, cores)
	}
	if !errors.Is(err, ErrBadSpec) {
		t.Fatalf("Prepare: err = %v, want ErrBadSpec", err)
	}

	double := single
	double.Workload.Profiles = append(single.Workload.Profiles[:1:1], single.Workload.Profiles[0])
	if res, ok := svc.sur.Predict(double); ok {
		t.Fatalf("Predict answered two programs on one core with %d cores", len(res.Cores))
	}
	if oc := svc.eng.Run(ctx, double); oc.Source != SourceCompute || oc.Err == nil {
		t.Fatalf("the engine answered two programs on one core from %q (err %v), want the simulator's refusal", oc.Source, oc.Err)
	}
}

// TestSurrogateSeesTheOptionsThatRun: the model is queried with resolved
// options, so a request that leaves the budget and capacity scale at zero
// gets the prediction of the one that spells the defaults out — the same
// features, and a synthesized result whose cores retired the budget that
// would have run, in a positive number of cycles.
func TestSurrogateSeesTheOptionsThatRun(t *testing.T) {
	ctx := context.Background()
	jobs, base := surrogateSweep()
	svc, err := NewService(ServiceConfig{Tuning: &Tuning{CampaignWorkers: 1}, Surrogate: looseSurrogate(base)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for i, job := range jobs[:base] { // train on spelled-out jobs
		p, err := svc.Prepare(job)
		if err != nil {
			t.Fatal(err)
		}
		if oc := svc.RunJobContext(ctx, p); oc.Err != nil || oc.Source != SourceCompute {
			t.Fatalf("training point %d: %q, %v", i, oc.Source, oc.Err)
		}
	}

	d := DefaultOptions()
	spelled, twin := jobs[base], jobs[base]
	spelled.Options, twin.Options = d, SimOptions{Seed: d.Seed}
	var served [2]*sim.Result
	for i, job := range []CampaignJob{spelled, twin} {
		p, err := svc.Prepare(job)
		if err != nil {
			t.Fatal(err)
		}
		oc := svc.eng.RunKeyed(ctx, p.key, p.job)
		if oc.Err != nil || oc.Source != SourceModel || !oc.Approximate {
			t.Fatalf("query %d: %q approx=%v, %v, want a model hit", i, oc.Source, oc.Approximate, oc.Err)
		}
		for _, c := range oc.Result.Cores {
			if !(c.Cycles > 0) || c.Instructions != d.Instructions {
				t.Fatalf("query %d: synthesized core %+v, want %d instructions in a positive number of cycles", i, c, d.Instructions)
			}
		}
		served[i] = oc.Result
	}
	if !reflect.DeepEqual(served[0], served[1]) {
		t.Fatalf("the zero-spelled twin was predicted differently:\n spelled %+v\n zeroed  %+v", served[0], served[1])
	}
}
