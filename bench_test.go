package scalesim

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (one Benchmark* per table/figure; see DESIGN.md's experiment
// index). Each benchmark prints the rows/series the paper reports and
// attaches the headline numbers as custom metrics (avg_err_pct, ...).
//
// Run the full harness with:
//
//	go test -bench=. -benchtime=1x -timeout=2h
//
// Simulations are cached inside a shared experiment driver, so the whole
// harness costs roughly one full data collection. Set SCALESIM_BENCH_FAST=1
// to run at reduced fidelity (~5x faster; not every verdict of verdicts.go
// survives it, see FastOptions).

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"
)

var (
	benchOnce sync.Once
	benchExp  *Experiments
	benchErr  error
)

// benchExperiments returns the shared full-suite experiment driver.
func benchExperiments(b *testing.B) *Experiments {
	b.Helper()
	benchOnce.Do(func() {
		opts := DefaultOptions()
		if os.Getenv("SCALESIM_BENCH_FAST") != "" {
			opts = FastOptions()
			fmt.Println("bench fidelity: fast (SCALESIM_BENCH_FAST set)")
		} else {
			fmt.Println("bench fidelity: full (set SCALESIM_BENCH_FAST=1 for a ~10x faster run)")
		}
		benchExp, benchErr = NewExperiments(opts)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchExp
}

// reportOnce prints the figure's table on the first iteration only.
var printedFigures sync.Map

func printFigure(id string, body fmt.Stringer) {
	if _, loaded := printedFigures.LoadOrStore(id, true); !loaded {
		fmt.Println(body.String())
	}
}

// BenchmarkTableI_ScaleModelConstruction regenerates Table I (both
// bandwidth-scaling orders).
func BenchmarkTableI_ScaleModelConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printFigure("Table I", TableI())
	}
}

// BenchmarkFig3_ScaleModelConstruction regenerates Fig. 3: NRS vs PRS
// variants with a single-core scale model and no extrapolation.
func BenchmarkFig3_ScaleModelConstruction(b *testing.B) {
	ex := benchExperiments(b)
	for i := 0; i < b.N; i++ {
		res, err := ex.Fig3Construction()
		if err != nil {
			b.Fatal(err)
		}
		printFigure(res.ID, res)
		for _, m := range res.Methods {
			if m.Method == "PRS" {
				b.ReportMetric(100*m.Mean, "PRS_avg_err_pct")
			}
			if m.Method == "NRS" {
				b.ReportMetric(100*m.Mean, "NRS_avg_err_pct")
			}
		}
	}
}

// BenchmarkFig4_HomogeneousExtrapolation regenerates Fig. 4.
func BenchmarkFig4_HomogeneousExtrapolation(b *testing.B) {
	ex := benchExperiments(b)
	for i := 0; i < b.N; i++ {
		res, err := ex.Fig4Homogeneous()
		if err != nil {
			b.Fatal(err)
		}
		printFigure(res.ID, res)
		for _, m := range res.Methods {
			switch m.Method {
			case "SVM":
				b.ReportMetric(100*m.Mean, "SVM_avg_err_pct")
			case "SVM-log":
				b.ReportMetric(100*m.Mean, "SVMlog_avg_err_pct")
			case "No Extrapolation":
				b.ReportMetric(100*m.Mean, "NoExtrap_avg_err_pct")
			}
		}
	}
}

// BenchmarkFig5_HeterogeneousExtrapolation regenerates Fig. 5.
func BenchmarkFig5_HeterogeneousExtrapolation(b *testing.B) {
	ex := benchExperiments(b)
	for i := 0; i < b.N; i++ {
		res, err := ex.Fig5Heterogeneous()
		if err != nil {
			b.Fatal(err)
		}
		printFigure(res.ID, res)
		for _, m := range res.Methods {
			switch m.Method {
			case "SVM":
				b.ReportMetric(100*m.Mean, "SVM_avg_err_pct")
			case "SVM-log":
				b.ReportMetric(100*m.Mean, "SVMlog_avg_err_pct")
			}
		}
	}
}

// BenchmarkFig6_STPPrediction regenerates Fig. 6.
func BenchmarkFig6_STPPrediction(b *testing.B) {
	ex := benchExperiments(b)
	for i := 0; i < b.N; i++ {
		res, err := ex.Fig6STP()
		if err != nil {
			b.Fatal(err)
		}
		printFigure("Fig. 6", res)
		b.ReportMetric(100*res.Cell("SVM-log", "avg"), "SVMlog_STP_avg_err_pct")
	}
}

// BenchmarkFig7_ErrorVsSpeedup regenerates Fig. 7.
func BenchmarkFig7_ErrorVsSpeedup(b *testing.B) {
	ex := benchExperiments(b)
	for i := 0; i < b.N; i++ {
		res, err := ex.Fig7ErrorVsSpeedup()
		if err != nil {
			b.Fatal(err)
		}
		printFigure("Fig. 7", res)
		b.ReportMetric(res.Cell("No Extrapolation 1-core", "speedup"), "1core_speedup_x")
	}
}

// BenchmarkFig8_MemoryBandwidthScaling regenerates Fig. 8.
func BenchmarkFig8_MemoryBandwidthScaling(b *testing.B) {
	ex := benchExperiments(b)
	for i := 0; i < b.N; i++ {
		res, err := ex.Fig8BandwidthScaling()
		if err != nil {
			b.Fatal(err)
		}
		printFigure(res.ID, res)
		for _, m := range res.Methods {
			switch m.Method {
			case "MC-first SVM-log":
				b.ReportMetric(100*m.Mean, "MCfirst_SVMlog_err_pct")
			case "MB-first SVM-log":
				b.ReportMetric(100*m.Mean, "MBfirst_SVMlog_err_pct")
			}
		}
	}
}

// BenchmarkFig9_RegressionForms regenerates Fig. 9.
func BenchmarkFig9_RegressionForms(b *testing.B) {
	ex := benchExperiments(b)
	for i := 0; i < b.N; i++ {
		res, err := ex.Fig9RegressionForms()
		if err != nil {
			b.Fatal(err)
		}
		printFigure(res.ID, res)
		for _, m := range res.Methods {
			switch m.Method {
			case "SVM-linear":
				b.ReportMetric(100*m.Mean, "linear_err_pct")
			case "SVM-power":
				b.ReportMetric(100*m.Mean, "power_err_pct")
			case "SVM-log":
				b.ReportMetric(100*m.Mean, "log_err_pct")
			}
		}
	}
}

// BenchmarkFig10_MLInputs regenerates Fig. 10.
func BenchmarkFig10_MLInputs(b *testing.B) {
	ex := benchExperiments(b)
	for i := 0; i < b.N; i++ {
		res, err := ex.Fig10Inputs()
		if err != nil {
			b.Fatal(err)
		}
		printFigure(res.ID, res)
		for _, m := range res.Methods {
			switch m.Method {
			case "SVM-log (IPC-only)":
				b.ReportMetric(100*m.Mean, "SVMlog_ipc_only_err_pct")
			case "SVM-log (IPC+BW)":
				b.ReportMetric(100*m.Mean, "SVMlog_ipc_bw_err_pct")
			}
		}
	}
}

// BenchmarkFig11_ScaleModelCount regenerates Fig. 11.
func BenchmarkFig11_ScaleModelCount(b *testing.B) {
	ex := benchExperiments(b)
	for i := 0; i < b.N; i++ {
		res, err := ex.Fig11ScaleModelCount()
		if err != nil {
			b.Fatal(err)
		}
		printFigure(res.ID, res)
		for j, m := range res.Methods {
			b.ReportMetric(100*m.Mean, fmt.Sprintf("with_%d_models_err_pct", j+2))
		}
	}
}

// BenchmarkFig12_BandwidthPrediction regenerates Fig. 12.
func BenchmarkFig12_BandwidthPrediction(b *testing.B) {
	ex := benchExperiments(b)
	for i := 0; i < b.N; i++ {
		res, err := ex.Fig12Bandwidth()
		if err != nil {
			b.Fatal(err)
		}
		printFigure(res.ID, res)
		for _, m := range res.Methods {
			switch m.Method {
			case "SVM":
				b.ReportMetric(100*m.Mean, "SVM_bw_err_pct")
			case "SVM-log":
				b.ReportMetric(100*m.Mean, "SVMlog_bw_err_pct")
			}
		}
	}
}

// BenchmarkSpeedup_SimulationTime regenerates the §I simulation-cost
// observation: wall-clock per machine size grows super-linearly with core
// count.
func BenchmarkSpeedup_SimulationTime(b *testing.B) {
	ex := benchExperiments(b)
	for i := 0; i < b.N; i++ {
		res, err := ex.SimulationTimeStudy()
		if err != nil {
			b.Fatal(err)
		}
		printFigure("speedup", res)
		b.ReportMetric(res.Cell("1", "speedup"), "speedup_1core_x")
	}
}

// BenchmarkSimulator_TargetRun measures the raw cost of one 32-core target
// simulation (the thing scale models avoid).
func BenchmarkSimulator_TargetRun(b *testing.B) {
	wl := make([]string, 32)
	for i := range wl {
		wl[i] = "gcc"
	}
	opts := FastOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(MachineSpec{Cores: 32, Policy: PolicyTarget}, wl, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulator_ScaleModelRun measures the cost of the single-core
// scale-model simulation that replaces it.
func BenchmarkSimulator_ScaleModelRun(b *testing.B) {
	opts := FastOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(MachineSpec{Cores: 1}, []string{"gcc"}, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExt_Multithreaded runs the §V-E6 future-work extension:
// scale-model extrapolation for data-parallel multi-threaded workloads.
func BenchmarkExt_Multithreaded(b *testing.B) {
	ex := benchExperiments(b)
	for i := 0; i < b.N; i++ {
		res, err := ex.ExtMultithreaded()
		if err != nil {
			b.Fatal(err)
		}
		printFigure("ext-mt", res)
		b.ReportMetric(100*res.Cell("extrapolation error:", "avg"), "avg_err_pct")
	}
}

// BenchmarkAblation_ContentionModel quantifies the starred design choices
// of DESIGN.md: the epoch bandwidth fixed point and the structurally shared
// LLC.
func BenchmarkAblation_ContentionModel(b *testing.B) {
	ex := benchExperiments(b)
	for i := 0; i < b.N; i++ {
		res, err := ex.Ablations()
		if err != nil {
			b.Fatal(err)
		}
		printFigure("ablations", res)
		b.ReportMetric(100*res.Cell("no bandwidth feedback", "PRS err"), "nofeedback_PRS_err_pct")
	}
}

// BenchmarkExt_PrefetchRobustness checks the methodology with an L2 stream
// prefetcher added to scale model and target alike.
func BenchmarkExt_PrefetchRobustness(b *testing.B) {
	ex := benchExperiments(b)
	for i := 0; i < b.N; i++ {
		res, err := ex.PrefetchStudy()
		if err != nil {
			b.Fatal(err)
		}
		printFigure("ext-prefetch", res)
		b.ReportMetric(100*res.Cell("NoExtrap error without prefetcher:", "avg"), "err_off_pct")
		b.ReportMetric(100*res.Cell("NoExtrap error with prefetcher:", "avg"), "err_on_pct")
	}
}

// surrogateBenchService builds a service with a trained surrogate: the base
// DRAM-bandwidth grid is computed (and observed), so the returned midpoint
// job serves from the model on every subsequent run (model-served entries
// are never memoized, by design).
func surrogateBenchService(b *testing.B) (*Service, *PreparedJob) {
	b.Helper()
	jobs, base := surrogateBenchSweep()
	svc, err := NewService(ServiceConfig{
		Surrogate: &SurrogateConfig{MinTrain: base, VarGate: 1e9, DistGate: 1e9, RefitEvery: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { svc.Close() })
	for _, j := range jobs[:base] {
		p, err := svc.Prepare(j)
		if err != nil {
			b.Fatal(err)
		}
		if oc := svc.RunJobContext(context.Background(), p); oc.Err != nil {
			b.Fatal(oc.Err)
		}
	}
	mid, err := svc.Prepare(jobs[base])
	if err != nil {
		b.Fatal(err)
	}
	return svc, mid
}

// surrogateBenchSweep is the benchmark's design-space grid: the base points
// train the model, the point at the returned index queries it.
func surrogateBenchSweep() ([]CampaignJob, int) {
	opts := FastOptions()
	opts.Instructions = 60_000
	opts.Warmup = 20_000
	bench := BenchmarkNames()[:1]
	var jobs []CampaignJob
	for _, gb := range []float64{1, 2, 4, 8, 16, 6} {
		jobs = append(jobs, CampaignJob{
			Machine:    MachineSpec{Cores: 1, DRAMPerCoreGBps: gb},
			Benchmarks: bench,
			Options:    opts,
		})
	}
	return jobs, 5
}

// BenchmarkSurrogate_ModelHit measures the learned tier's serving latency:
// one design-point query answered by the trained forest (gate included).
// Compare against BenchmarkSurrogate_Compute for the tier's speedup.
func BenchmarkSurrogate_ModelHit(b *testing.B) {
	svc, mid := surrogateBenchService(b)
	// Warm check: the query must actually serve from the model.
	if oc := svc.RunJobContext(context.Background(), mid); oc.Source != SourceModel {
		b.Fatalf("midpoint served from %q, want model", oc.Source)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oc := svc.RunJobContext(context.Background(), mid)
		if oc.Err != nil || oc.Source != SourceModel {
			b.Fatalf("outcome %+v", oc)
		}
	}
}

// BenchmarkSurrogate_Compute measures what the model hit replaces: the same
// class of design point through the full simulator (fresh seed per
// iteration, so memoization never serves it).
func BenchmarkSurrogate_Compute(b *testing.B) {
	jobs, base := surrogateBenchSweep()
	svc, err := NewService(ServiceConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { svc.Close() })
	job := jobs[base]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := job
		j.Options.Seed = uint64(i + 1)
		p, err := svc.Prepare(j)
		if err != nil {
			b.Fatal(err)
		}
		oc := svc.RunJobContext(context.Background(), p)
		if oc.Err != nil || oc.Source != SourceCompute {
			b.Fatalf("outcome %+v", oc)
		}
	}
}

// BenchmarkFigures_Warm measures one warm regeneration: Figs. 4, 9, 10, 11
// and 12 on an eight-benchmark subset over a store a cold pass has filled,
// so every simulation is a disk read and the fold-model fits and the
// evaluation are the cost (scalebench's methodology-warm, visible to
// go test -bench). Beside wall time it reports the process CPU time per
// regeneration and util, CPU over wall time over the two workers: below 1
// is a worker idle while the other finishes, what a barrier costs.
func BenchmarkFigures_Warm(b *testing.B) {
	dir := b.TempDir()
	regenerate := func() {
		ex, err := NewExperimentsSubset(FastOptions(), "exchange2", "povray", "gcc", "xz", "omnetpp", "fotonik3d", "mcf", "lbm")
		if err != nil {
			b.Fatal(err)
		}
		ex.SetWorkers(2)
		if err := ex.SetStore(dir); err != nil {
			b.Fatal(err)
		}
		for _, fig := range []func() (*FigureResult, error){
			ex.Fig4Homogeneous, ex.Fig9RegressionForms, ex.Fig10Inputs, ex.Fig11ScaleModelCount, ex.Fig12Bandwidth,
		} {
			if _, err := fig(); err != nil {
				b.Fatal(err)
			}
		}
		if err := ex.Close(); err != nil {
			b.Fatal(err)
		}
	}
	regenerate() // cold: fills the store
	b.ReportAllocs()
	cpu0 := processCPU(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		regenerate()
	}
	b.StopTimer()
	cpu := processCPU(b) - cpu0
	b.ReportMetric(cpu.Seconds()*1000/float64(b.N), "cpu-ms/op")
	b.ReportMetric(cpu.Seconds()/b.Elapsed().Seconds()/2, "util")
}
