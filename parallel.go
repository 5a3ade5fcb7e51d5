package scalesim

import (
	"context"
	"fmt"
	"strings"

	"scalesim/internal/config"
	"scalesim/internal/fit"
	"scalesim/internal/metrics"
	"scalesim/internal/runner"
	"scalesim/internal/sim"
	"scalesim/internal/trace"
)

// This file implements the paper's future-work extension (§V-E6):
// scale-model simulation for data-parallel multi-threaded workloads, with
// speedup-stack bottleneck analysis.

// SpeedupStack decomposes average per-thread execution cycles into the
// bottleneck components of Eyerman et al.'s speedup stacks: what a thread's
// time went to, as fractions summing to ~1. Comparing stacks across machine
// sizes shows which bottleneck limits scaling.
type SpeedupStack struct {
	Base     float64 // useful (ILP-limited) execution
	Branch   float64 // misprediction penalties
	Memory   float64 // exposed memory latency (incl. queuing contention)
	Frontend float64 // instruction-fetch stalls
	Barrier  float64 // barrier wait (load imbalance)
}

// String renders the stack as percentages.
func (s SpeedupStack) String() string {
	return fmt.Sprintf("base %.0f%% | branch %.0f%% | memory %.0f%% | frontend %.0f%% | barrier %.0f%%",
		100*s.Base, 100*s.Branch, 100*s.Memory, 100*s.Frontend, 100*s.Barrier)
}

// ParallelResult is the outcome of one multi-threaded simulation.
type ParallelResult struct {
	Machine        string
	Threads        int
	MakespanCycles float64
	AggregateIPC   float64
	Stack          SpeedupStack
	WallClockSec   float64
	// Trace is SimResult.Trace for a threaded run, in the same schema: a
	// thread's wait at a barrier shows in the epoch the barrier opened in, as
	// core cycles the four CPI components do not explain.
	Trace []EpochSnapshot
}

// parallelResult reads a threaded run: throughput is total instructions per
// makespan cycle, the stack each component's share of all threads' cycles.
func parallelResult(res *sim.Result) *ParallelResult {
	out := &ParallelResult{
		Machine:        res.ConfigName,
		Threads:        len(res.Cores),
		MakespanCycles: float64(res.ElapsedCycles),
		WallClockSec:   res.WallClock.Seconds(),
		Trace:          res.Trace,
	}
	var instr uint64
	var cycles float64
	s := &out.Stack
	for _, c := range res.Cores {
		instr += c.Instructions
		cycles += float64(c.Cycles)
		s.Base += float64(c.BaseCycles)
		s.Branch += float64(c.BranchCycles)
		s.Memory += float64(c.MemoryCycles)
		s.Frontend += float64(c.FrontendCycles)
		s.Barrier += float64(c.BarrierCycles)
	}
	if res.ElapsedCycles > 0 {
		out.AggregateIPC = float64(instr) / float64(res.ElapsedCycles)
		for _, part := range []*float64{&s.Base, &s.Branch, &s.Memory, &s.Frontend, &s.Barrier} {
			*part /= cycles
		}
	}
	return out
}

// ParallelBenchmarkNames lists the data-parallel workload suite.
func ParallelBenchmarkNames() []string {
	var names []string
	for _, p := range trace.ParallelSuite() {
		names = append(names, p.Serial.Name)
	}
	return names
}

// SimulateParallel runs the named data-parallel workload with one thread
// per core of the machine (strong scaling: opts.Instructions is the total
// work, split across threads).
func SimulateParallel(spec MachineSpec, workload string, opts SimOptions) (*ParallelResult, error) {
	return SimulateParallelContext(context.Background(), spec, workload, opts)
}

// SimulateParallelContext is SimulateParallel bounded by ctx: cancellation
// or deadline expiry propagates into the simulator's epoch loop, aborting
// the run within one epoch and returning ctx.Err().
func SimulateParallelContext(ctx context.Context, spec MachineSpec, workload string, opts SimOptions) (*ParallelResult, error) {
	pp := trace.ParallelByName(workload)
	if pp == nil {
		return nil, fmt.Errorf("scalesim: %w: parallel workload %q", ErrUnknownBenchmark, workload)
	}
	j, err := newJob(spec, sim.Workload{Threads: pp}, opts)
	if err != nil {
		return nil, err
	}
	res, err := sim.RunContext(ctx, j.Config, j.Workload, j.Options)
	if err != nil {
		return nil, err
	}
	return parallelResult(res), nil
}

// MTWorkloadResult is one parallel workload's scaling study.
type MTWorkloadResult struct {
	Workload string
	// ThroughputAt maps machine size to aggregate IPC (strong scaling).
	ThroughputAt map[int]float64
	StackAt      map[int]SpeedupStack
	// Predicted32 is the 32-thread throughput extrapolated from the 2-16
	// thread scale models: a logarithmic fit of per-thread throughput
	// versus thread count (the saturating quantity), times 32. Actual32 is
	// simulated.
	Predicted32 float64
	Actual32    float64
	Error       float64
}

// MTResult is the multi-threaded extension study.
type MTResult struct {
	Workloads []MTWorkloadResult
	Summary   metrics.Summary
}

// String renders the study.
func (r *MTResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — scale-model simulation for data-parallel multi-threaded workloads (§V-E6)\n")
	for _, w := range r.Workloads {
		fmt.Fprintf(&b, "  %-14s throughput:", w.Workload)
		for _, c := range []int{1, 2, 4, 8, 16, 32} {
			if v, ok := w.ThroughputAt[c]; ok {
				fmt.Fprintf(&b, " %d:%.2f", c, v)
			}
		}
		fmt.Fprintf(&b, "\n  %-14s 32-thread: predicted %.2f vs simulated %.2f -> err %.1f%%\n",
			"", w.Predicted32, w.Actual32, 100*w.Error)
		fmt.Fprintf(&b, "  %-14s stack@32: %s\n", "", w.StackAt[32])
	}
	fmt.Fprintf(&b, "  extrapolation error: %s\n", r.Summary)
	return b.String()
}

// ExtMultithreaded runs the multi-threaded extension study: each parallel
// workload is simulated on the PRS scale-model ladder (1-16 threads), its
// 32-thread throughput extrapolated with the paper's logarithmic fit, and
// validated against a simulated 32-core target. Speedup stacks show which
// bottleneck (memory contention or barrier imbalance) limits scaling.
func (e *Experiments) ExtMultithreaded() (*MTResult, error) {
	suite, sizes := trace.ParallelSuite(), []int{1, 2, 4, 8, 16, 32}
	jobs := make([]runner.Job, 0, len(suite)*len(sizes))
	for _, cores := range sizes {
		cfg, err := e.lab.Machine(cores)
		if err != nil {
			return nil, err
		}
		for _, pp := range suite {
			jobs = append(jobs, runner.Job{Config: cfg, Workload: sim.Workload{Threads: pp}, Options: e.lab.Opts})
		}
	}
	results, err := e.lab.RunBatch(jobs)
	if err != nil {
		return nil, err
	}
	out := &MTResult{}
	var errs []float64
	for wi, pp := range suite {
		w := MTWorkloadResult{
			Workload:     pp.Serial.Name,
			ThroughputAt: map[int]float64{},
			StackAt:      map[int]SpeedupStack{},
		}
		var xs, ys []float64
		for ci, cores := range sizes {
			res := parallelResult(results[ci*len(suite)+wi])
			w.ThroughputAt[cores] = res.AggregateIPC
			w.StackAt[cores] = res.Stack
			if cores >= 2 && cores <= 16 {
				xs = append(xs, float64(cores))
				ys = append(ys, res.AggregateIPC/float64(cores))
			}
		}
		curve, err := fit.Fit(fit.Logarithmic, xs, ys)
		if err != nil {
			return nil, err
		}
		w.Predicted32 = 32 * curve.Eval(32)
		w.Actual32 = w.ThroughputAt[32]
		w.Error = metrics.PredictionError(w.Predicted32, w.Actual32)
		errs = append(errs, w.Error)
		out.Workloads = append(out.Workloads, w)
	}
	out.Summary = metrics.Summarize(errs)
	return out, nil
}

// AblationRow is one model variant's construction-accuracy outcome.
type AblationRow struct {
	Variant string
	// NRSMean / PRSMean are the single-core scale-model prediction errors
	// under each construction, suite-averaged.
	NRSMean float64
	PRSMean float64
}

// AblationResult compares the full contention model against the ablated
// variants of DESIGN.md's starred design decisions.
type AblationResult struct {
	Rows []AblationRow
}

// String renders the ablation table.
func (r *AblationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — contention-model design choices (single-core scale model, no extrapolation)\n")
	fmt.Fprintf(&b, "  %-24s %10s %10s\n", "variant", "NRS err", "PRS err")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-24s %9.1f%% %9.1f%%\n", row.Variant, 100*row.NRSMean, 100*row.PRSMean)
	}
	return b.String()
}

// Ablations quantifies how much the two load-bearing simulator mechanisms
// matter to the paper's Fig. 3 result: the epoch bandwidth fixed point and
// the structurally shared LLC. Removing either changes the NRS/PRS error
// structure qualitatively (e.g. without feedback, bandwidth contention
// disappears and NRS looks far better than it should).
func (e *Experiments) Ablations() (*AblationResult, error) {
	variants := []struct {
		name   string
		mutate func(*sim.Options)
	}{
		{"full model", func(o *sim.Options) {}},
		{"no bandwidth feedback", func(o *sim.Options) { o.NoFeedback = true }},
		{"partitioned LLC", func(o *sim.Options) { o.PartitionedLLC = true }},
	}
	out := &AblationResult{}
	for _, v := range variants {
		opts := e.lab.Opts
		v.mutate(&opts)
		lab := e.lab.WithSimOptions(opts)
		row := AblationRow{Variant: v.name}
		for _, pol := range []config.ScalingPolicy{config.NRS, config.PRSFull} {
			_, errs, err := e.noExtrapolation(lab.WithPolicy(pol))
			if err != nil {
				return nil, err
			}
			if mean := methodResult(v.name, errs).Mean; pol == config.NRS {
				row.NRSMean = mean
			} else {
				row.PRSMean = mean
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// PrefetchRow is one benchmark's outcome in the prefetcher robustness
// study.
type PrefetchRow struct {
	Benchmark string
	IPCOff    float64 // single-core scale model, prefetcher off
	IPCOn     float64 // single-core scale model, prefetcher on
	ErrOff    float64 // NoExtrap target prediction error, prefetcher off
	ErrOn     float64 // same with the prefetcher on (both machines)
}

// PrefetchResult is the prefetcher robustness study.
type PrefetchResult struct {
	Rows       []PrefetchRow
	SummaryOff metrics.Summary
	SummaryOn  metrics.Summary
}

// String renders the study.
func (r *PrefetchResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — methodology robustness with an L2 stream prefetcher\n")
	fmt.Fprintf(&b, "  %-12s %8s %8s %10s %10s\n", "benchmark", "IPC off", "IPC on", "err off", "err on")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-12s %8.3f %8.3f %9.1f%% %9.1f%%\n",
			row.Benchmark, row.IPCOff, row.IPCOn, 100*row.ErrOff, 100*row.ErrOn)
	}
	fmt.Fprintf(&b, "  NoExtrap error without prefetcher: %s\n", r.SummaryOff)
	fmt.Fprintf(&b, "  NoExtrap error with prefetcher:    %s\n", r.SummaryOn)
	return b.String()
}

// PrefetchStudy checks that the scale-model methodology is robust to a
// microarchitectural feature the paper's configuration does not include: an
// L2 stream prefetcher. When both the scale model and the target gain the
// prefetcher, proportional scaling should remain (about) as accurate as
// without it — the methodology does not depend on the exact core-side
// configuration, only on both machines sharing it.
func (e *Experiments) PrefetchStudy() (*PrefetchResult, error) {
	out := &PrefetchResult{}
	var offErrs, onErrs []float64
	for _, variant := range []bool{false, true} {
		opts := e.lab.Opts
		opts.EnablePrefetch = variant
		d, errsList, err := e.noExtrapolation(e.lab.WithSimOptions(opts))
		if err != nil {
			return nil, err
		}
		for _, ne := range errsList {
			if !variant {
				out.Rows = append(out.Rows, PrefetchRow{
					Benchmark: ne.Name,
					IPCOff:    d.Meas[ne.Name].IPC,
					ErrOff:    ne.Error,
				})
				offErrs = append(offErrs, ne.Error)
			} else {
				// EvaluateLOO sorts by MPKI which may differ slightly
				// between variants; match by name.
				for j := range out.Rows {
					if out.Rows[j].Benchmark == ne.Name {
						out.Rows[j].IPCOn = d.Meas[ne.Name].IPC
						out.Rows[j].ErrOn = ne.Error
					}
				}
				onErrs = append(onErrs, ne.Error)
			}
		}
	}
	out.SummaryOff = metrics.Summarize(offErrs)
	out.SummaryOn = metrics.Summarize(onErrs)
	return out, nil
}
