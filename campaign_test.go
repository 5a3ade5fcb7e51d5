package scalesim

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// campaignJobs builds a campaign with duplicated design points: 4 unique
// (benchmark, seed) points, each submitted twice.
func campaignJobs() []CampaignJob {
	var jobs []CampaignJob
	for _, seed := range []uint64{3, 11} {
		for _, bench := range []string{"gcc", "lbm"} {
			opts := tinyOptions()
			opts.Seed = seed
			job := CampaignJob{
				Machine:    MachineSpec{Cores: 1, Policy: PolicyPRS},
				Benchmarks: []string{bench},
				Options:    opts,
			}
			jobs = append(jobs, job, job) // duplicate design point
		}
	}
	return jobs
}

// stripWallClock zeroes the only non-deterministic field so outcomes can be
// compared bit-for-bit.
func stripWallClock(r *CampaignResult) {
	for i := range r.Outcomes {
		if res := r.Outcomes[i].Result; res != nil {
			res.WallClockSec = 0
		}
	}
}

func TestCampaignMemoizesAndPreservesOrder(t *testing.T) {
	jobs := campaignJobs()
	if len(jobs) < 8 {
		t.Fatalf("campaign too small: %d jobs", len(jobs))
	}
	res, err := RunCampaignContext(context.Background(), Campaign{Jobs: jobs, Tuning: &Tuning{CampaignWorkers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != len(jobs) {
		t.Fatalf("%d outcomes for %d jobs", len(res.Outcomes), len(jobs))
	}
	for i, o := range res.Outcomes {
		if o.Err != nil {
			t.Fatalf("job %d: %v", i, o.Err)
		}
		if o.Job != i {
			t.Fatalf("outcome %d labelled job %d", i, o.Job)
		}
		if got := o.Result.Cores[0].Benchmark; got != jobs[i].Benchmarks[0] {
			t.Fatalf("job %d ran %q, want %q (submission order broken)", i, got, jobs[i].Benchmarks[0])
		}
	}
	s := res.Stats
	if s.Jobs != 8 || s.UniqueRuns != 4 || s.CacheHits+s.CoalescedHits != 4 || s.Failures != 0 {
		t.Fatalf("each unique design point must simulate exactly once: %+v", s)
	}
	if got := s.HitRate(); got != 0.5 {
		t.Fatalf("hit rate %v, want 0.5", got)
	}
	// Duplicates carry bit-identical results.
	for i := 0; i+1 < len(res.Outcomes); i += 2 {
		a, b := *res.Outcomes[i].Result, *res.Outcomes[i+1].Result
		a.WallClockSec, b.WallClockSec = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("jobs %d and %d describe the same point but differ", i, i+1)
		}
	}
}

func TestCampaignParallelBitIdenticalToSequential(t *testing.T) {
	jobs := campaignJobs()
	seq, err := RunCampaignContext(context.Background(), Campaign{Jobs: jobs, Tuning: &Tuning{CampaignWorkers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunCampaignContext(context.Background(), Campaign{Jobs: jobs, Tuning: &Tuning{CampaignWorkers: runtime.NumCPU()}})
	if err != nil {
		t.Fatal(err)
	}
	stripWallClock(seq)
	stripWallClock(par)
	// CacheHit attribution may differ between schedules (any of the
	// duplicates can be the one that simulates); compare results only.
	for i := range seq.Outcomes {
		if !reflect.DeepEqual(seq.Outcomes[i].Result, par.Outcomes[i].Result) {
			t.Fatalf("job %d: parallel result differs from sequential", i)
		}
	}
	if seq.Stats.UniqueRuns != par.Stats.UniqueRuns {
		t.Fatalf("unique runs differ: %d vs %d", seq.Stats.UniqueRuns, par.Stats.UniqueRuns)
	}
}

func TestCampaignSpeedup(t *testing.T) {
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs for a meaningful speedup, have %d", runtime.NumCPU())
	}
	// 8 distinct design points (seeds) so there is real parallel work.
	var jobs []CampaignJob
	for seed := uint64(1); seed <= 8; seed++ {
		opts := tinyOptions()
		opts.Seed = seed
		jobs = append(jobs, CampaignJob{
			Machine:    MachineSpec{Cores: 2, Policy: PolicyPRS},
			Benchmarks: []string{"lbm", "mcf"},
			Options:    opts,
		})
	}
	t0 := time.Now()
	if _, err := RunCampaignContext(context.Background(), Campaign{Jobs: jobs, Tuning: &Tuning{CampaignWorkers: 1}}); err != nil {
		t.Fatal(err)
	}
	seq := time.Since(t0)
	t0 = time.Now()
	if _, err := RunCampaignContext(context.Background(), Campaign{Jobs: jobs, Tuning: &Tuning{CampaignWorkers: 4}}); err != nil {
		t.Fatal(err)
	}
	par := time.Since(t0)
	if speedup := seq.Seconds() / par.Seconds(); speedup < 1.5 {
		t.Errorf("4-worker speedup %.2fx, want > 1.5x (seq %v, par %v)", speedup, seq, par)
	}
}

func TestCampaignInvalidJobIsolated(t *testing.T) {
	jobs := []CampaignJob{
		{Machine: MachineSpec{Cores: 1}, Benchmarks: []string{"gcc"}, Options: tinyOptions()},
		{Machine: MachineSpec{Cores: 1, Policy: "bogus"}, Benchmarks: []string{"gcc"}, Options: tinyOptions()},
		{Machine: MachineSpec{Cores: 1}, Benchmarks: []string{"nothere"}, Options: tinyOptions()},
	}
	res, err := RunCampaignContext(context.Background(), Campaign{Jobs: jobs, Tuning: &Tuning{CampaignWorkers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes[0].Err != nil || res.Outcomes[0].Result == nil {
		t.Fatalf("valid job failed: %+v", res.Outcomes[0])
	}
	if !errors.Is(res.Outcomes[1].Err, ErrUnknownPolicy) {
		t.Fatalf("job 1 err %v, want ErrUnknownPolicy", res.Outcomes[1].Err)
	}
	if !errors.Is(res.Outcomes[2].Err, ErrUnknownBenchmark) {
		t.Fatalf("job 2 err %v, want ErrUnknownBenchmark", res.Outcomes[2].Err)
	}
	if got := len(res.Errs()); got != 2 {
		t.Fatalf("%d failed outcomes, want 2", got)
	}
	if res.Stats.Failures != 2 || res.Stats.Jobs != 3 {
		t.Fatalf("stats %+v", res.Stats)
	}
	// The experiment driver reports an unknown name through the same sentinel.
	if _, err := NewExperimentsSubset(tinyOptions(), "gcc", "nothere", "lbm"); !errors.Is(err, ErrUnknownBenchmark) {
		t.Fatalf("NewExperimentsSubset err %v, want ErrUnknownBenchmark", err)
	}
}

// TestCampaignIsABatchOverService pins the contract that lets Campaign stay a
// thin batch over Service: the same job list — a valid point, its duplicate,
// an invalid spec, an unknown benchmark — driven through RunCampaignContext
// and through Service.Prepare + RunJobContext one job at a time yields the
// same Source, Approximate and result bytes per job and the same
// CampaignStats, once the invalid jobs the service never ran are counted the
// way the campaign counts them. With a store, a second pass over it (disk
// hits) must agree too.
func TestCampaignIsABatchOverService(t *testing.T) {
	jobs := []CampaignJob{
		{Machine: MachineSpec{Cores: 1}, Benchmarks: []string{"gcc"}, Options: tinyOptions()},
		{Machine: MachineSpec{Cores: 1}, Benchmarks: []string{"gcc"}, Options: tinyOptions()},
		{Machine: MachineSpec{Cores: 1, Policy: "bogus"}, Benchmarks: []string{"gcc"}, Options: tinyOptions()},
		{Machine: MachineSpec{Cores: 1}, Benchmarks: []string{"nothere"}, Options: tinyOptions()},
	}
	type row struct {
		Source      ResultSource
		Approximate bool
		Err         string
		Result      string
	}
	rowOf := func(o JobOutcome) row {
		r := row{Source: o.Source, Approximate: o.Approximate}
		if o.Err != nil {
			r.Err = o.Err.Error()
		}
		if o.Result != nil {
			res := *o.Result
			res.WallClockSec = 0
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			r.Result = string(b)
		}
		return r
	}
	sequential := &Tuning{CampaignWorkers: 1}
	viaCampaign := func(store string) ([]row, CampaignStats) {
		res, err := RunCampaignContext(context.Background(), Campaign{Jobs: jobs, Tuning: sequential, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]row, len(res.Outcomes))
		for i, o := range res.Outcomes {
			rows[i] = rowOf(o)
		}
		return rows, res.Stats
	}
	viaService := func(store string) ([]row, CampaignStats) {
		svc, err := NewService(ServiceConfig{Tuning: sequential, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		rows := make([]row, len(jobs))
		invalid := 0
		for i, j := range jobs {
			p, err := svc.Prepare(j)
			if err != nil {
				rows[i] = rowOf(JobOutcome{Err: err})
				invalid++
				continue
			}
			rows[i] = rowOf(svc.RunJobContext(context.Background(), p))
		}
		stats := svc.Stats()
		stats.Jobs += invalid
		stats.Failures += invalid
		return rows, stats
	}
	for _, tc := range []struct {
		name   string
		store  bool
		passes int
	}{{"memory only", false, 1}, {"with store", true, 2}} {
		t.Run(tc.name, func(t *testing.T) {
			var dirA, dirB string
			if tc.store {
				dirA, dirB = t.TempDir(), t.TempDir()
			}
			for pass := 0; pass < tc.passes; pass++ {
				crows, cstats := viaCampaign(dirA)
				srows, sstats := viaService(dirB)
				if !reflect.DeepEqual(crows, srows) {
					t.Errorf("pass %d: outcomes differ:\ncampaign %+v\nservice  %+v", pass, crows, srows)
				}
				if cstats != sstats {
					t.Errorf("pass %d: stats differ:\ncampaign %+v\nservice  %+v", pass, cstats, sstats)
				}
				want := []ResultSource{SourceCompute, SourceMemory, "", ""}
				if pass == 1 {
					want[0] = SourceDisk
				}
				for i, r := range crows {
					if r.Source != want[i] {
						t.Errorf("pass %d job %d: source %q, want %q", pass, i, r.Source, want[i])
					}
				}
			}
		})
	}
}

func TestSimulateContextCancellation(t *testing.T) {
	// A big budget so the run would take far longer than the cancel delay.
	opts := tinyOptions()
	opts.Instructions = 50_000_000
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	t0 := time.Now()
	_, err := SimulateContext(ctx, MachineSpec{Cores: 1}, []string{"lbm"}, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if elapsed := time.Since(t0); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
}

func TestSimulateParallelContextCancellation(t *testing.T) {
	opts := tinyOptions()
	opts.Instructions = 50_000_000
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	_, err := SimulateParallelContext(ctx, MachineSpec{Cores: 2}, "par.stencil", opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
}

func TestTypedEnumsValidate(t *testing.T) {
	for _, p := range []Policy{"", PolicyTarget, PolicyNRS, PolicyPRS, PolicyPRSLLC, PolicyPRSDRAM} {
		if err := p.Validate(); err != nil {
			t.Errorf("policy %q rejected: %v", p, err)
		}
	}
	if err := Policy("bogus").Validate(); !errors.Is(err, ErrUnknownPolicy) {
		t.Errorf("bogus policy: %v", err)
	}
	// The other enumerations have one switch each, their conversion.
	for _, b := range []Bandwidth{"", BandwidthMCFirst, BandwidthMBFirst} {
		if _, err := b.internal(); err != nil {
			t.Errorf("bandwidth %q rejected: %v", b, err)
		}
	}
	if _, err := Bandwidth("bogus").internal(); !errors.Is(err, ErrUnknownBandwidth) {
		t.Errorf("bogus bandwidth: %v", err)
	}
	for _, p := range []Pattern{PatternSeq, PatternRand, PatternZipf, PatternChase} {
		if _, err := p.internal(); err != nil {
			t.Errorf("pattern %q rejected: %v", p, err)
		}
	}
	if _, err := Pattern("wat").internal(); !errors.Is(err, ErrUnknownPattern) {
		t.Errorf("bogus pattern: %v", err)
	}
	if _, err := (MachineSpec{Cores: 1, Policy: "bogus"}).internal(); !errors.Is(err, ErrUnknownPolicy) {
		t.Errorf("spec policy: %v", err)
	}
	if _, err := (MachineSpec{Cores: 1, Bandwidth: "bogus"}).internal(); !errors.Is(err, ErrUnknownBandwidth) {
		t.Errorf("spec bandwidth: %v", err)
	}
}

func TestSentinelErrorsSurfaceFromAPI(t *testing.T) {
	if _, err := Simulate(MachineSpec{Cores: 1, Policy: "bogus"}, []string{"gcc"}, tinyOptions()); !errors.Is(err, ErrUnknownPolicy) {
		t.Errorf("Simulate policy err: %v", err)
	}
	if _, err := Simulate(MachineSpec{Cores: 1, Bandwidth: "bogus"}, []string{"gcc"}, tinyOptions()); !errors.Is(err, ErrUnknownBandwidth) {
		t.Errorf("Simulate bandwidth err: %v", err)
	}
	if _, err := Simulate(MachineSpec{Cores: 1}, []string{"nope"}, tinyOptions()); !errors.Is(err, ErrUnknownBenchmark) {
		t.Errorf("Simulate benchmark err: %v", err)
	}
	if _, err := SimulateParallel(MachineSpec{Cores: 2}, "nope", tinyOptions()); !errors.Is(err, ErrUnknownBenchmark) {
		t.Errorf("SimulateParallel err: %v", err)
	}
	bad := Profile{Name: "x", BaseCPI: 1, MLP: 1, Regions: []Region{{SizeBytes: 1 << 20, Frac: 1, Pattern: "wat"}}}
	if _, err := Simulate(MachineSpec{Cores: 1}, []string{"x"}, tinyOptions(), bad); !errors.Is(err, ErrUnknownPattern) {
		t.Errorf("custom pattern err: %v", err)
	}
}

// TestTableIRowNumericFields: every construction parameter in Table I's
// MC-first block is positive, the target row splits its DRAM bandwidth
// evenly over its controllers, and the 16-core model has half the target's
// DRAM bandwidth.
func TestTableIRowNumericFields(t *testing.T) {
	tab := TableI()
	full := "32-core MC-first"
	if tab.Cell(full, "LLC") != 32 || tab.Cell(full, "slices") != 32 {
		t.Fatalf("target LLC %v MB in %v slices", tab.Cell(full, "LLC"), tab.Cell(full, "slices"))
	}
	if dram := tab.Cell(full, "DRAM"); dram != 128 || tab.Cell(full, "MCs")*tab.Cell(full, "per MC") != dram {
		t.Fatalf("target DRAM %v GB/s = %v MCs x %v GB/s", dram, tab.Cell(full, "MCs"), tab.Cell(full, "per MC"))
	}
	blk := tab.Blocks[0]
	for _, r := range blk.Rows {
		for i, c := range blk.Columns {
			if float64(r.Values[i]) <= 0 {
				t.Errorf("%s: non-positive %s %v", r.Label, c.Name, r.Values[i])
			}
		}
	}
	// PRS: per-core proportionality of the 16-core model vs the target.
	if tab.Cell("16-core MC-first", "DRAM")*2 != tab.Cell(full, "DRAM") {
		t.Fatalf("16-core DRAM %v GB/s not half the target's", tab.Cell("16-core MC-first", "DRAM"))
	}
}

func TestExperimentsParallelMatchesSequential(t *testing.T) {
	names := []string{"exchange2", "gcc", "lbm"}
	seq, err := NewExperimentsSubset(tinyOptions(), names...)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewExperimentsSubset(tinyOptions(), names...)
	if err != nil {
		t.Fatal(err)
	}
	par.SetWorkers(max(4, runtime.NumCPU()))
	figSeq, err := seq.fig3Construction()
	if err != nil {
		t.Fatal(err)
	}
	figPar, err := par.fig3Construction()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(figSeq, figPar) {
		t.Fatalf("parallel figure differs from sequential:\n%s\nvs\n%s", figSeq, figPar)
	}
	mtSeq, err := seq.extMultithreaded()
	if err != nil {
		t.Fatal(err)
	}
	mtPar, err := par.extMultithreaded()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mtSeq, mtPar) {
		t.Fatalf("parallel threaded study differs from sequential:\n%s\nvs\n%s", mtSeq, mtPar)
	}
	if par.Runs() != seq.Runs() {
		t.Fatalf("parallel ran %d sims, sequential %d", par.Runs(), seq.Runs())
	}
}
