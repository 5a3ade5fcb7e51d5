package scalesim

// The benchmark harness regenerates every table and figure of the paper's
// evaluation: BenchmarkFigures runs each entry of Figures(), the table of
// contents cmd/experiments loops over, as BenchmarkFigures/<id> and prints
// the table the paper reports (see DESIGN.md's experiment index).
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

// BenchmarkFigures regenerates every entry of Figures() as a sub-benchmark
// named by its id, printing its table once: BenchmarkFigures/1 is Table I
// (no simulation), /3 to /12 the figures, /mt, /ablations, /prefetch and
// /speedup the studies. -bench 'Figures$/^8$' runs one.
func BenchmarkFigures(b *testing.B) {
	for _, f := range benchExperiments(b).Figures() {
		b.Run(f.ID, func(b *testing.B) {
			var t *Table
			for b.Loop() {
				var err error
				if t, err = f.Run(); err != nil {
					b.Fatal(err)
				}
			}
			fmt.Println(t)
		})
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
