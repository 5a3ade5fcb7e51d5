package scalesim

import (
	"context"
	"fmt"

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

// extMultithreaded runs the multi-threaded extension study: each parallel
// workload is simulated on the PRS scale-model ladder (1-16 threads), its
// 32-thread throughput extrapolated with the paper's logarithmic fit, and
// validated against a simulated 32-core target. Speedup stacks show which
// bottleneck (memory contention or barrier imbalance) limits scaling.
func (e *Experiments) extMultithreaded() (*Table, error) {
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
	// Strong scaling: throughput is aggregate IPC. The prediction fits
	// per-thread throughput, the saturating quantity, and scales it by 32.
	tput := Block{Heading: "throughput (aggregate IPC) per thread count:", Label: "workload", LabelFormat: "  %-14s",
		Columns: append(columns("IPC", " %6.2f", "1", "2", "4", "8", "16", "32"),
			Column{Name: "predicted 32", Unit: "IPC", Format: " %13.2f"}, Column{Name: "err", Unit: "%", Format: " %7.1f%%"})}
	stacks := Block{Heading: "speedup stack at 32 threads:", Label: "workload", LabelFormat: "  %-14s",
		Columns: columns("%", " %7.0f%%", "base", "branch", "memory", "frontend", "barrier")}
	var errs []float64
	for wi, pp := range suite {
		row := Row{Label: pp.Serial.Name}
		var xs, ys []float64
		var res *ParallelResult // after the loop, the 32-thread target's
		for ci, cores := range sizes {
			res = parallelResult(results[ci*len(suite)+wi])
			row.Values = append(row.Values, Cell(res.AggregateIPC))
			if cores >= 2 && cores <= 16 {
				xs = append(xs, float64(cores))
				ys = append(ys, res.AggregateIPC/float64(cores))
			}
		}
		curve, err := fit.Fit(fit.Logarithmic, xs, ys)
		if err != nil {
			return nil, err
		}
		predicted := float64(32 * curve.Eval(32))
		errs = append(errs, metrics.PredictionError(predicted, res.AggregateIPC))
		row.Values = append(row.Values, Cell(predicted), Cell(errs[wi]))
		tput.Rows = append(tput.Rows, row)
		s := res.Stack
		stacks.Rows = append(stacks.Rows, Row{Label: row.Label, Values: []Cell{Cell(s.Base), Cell(s.Branch), Cell(s.Memory), Cell(s.Frontend), Cell(s.Barrier)}})
	}
	return &Table{
		ID: "Extension", Title: "scale-model simulation for data-parallel multi-threaded workloads (§V-E6)",
		Blocks: []Block{tput, stacks, summaryBlock("  %s", []string{"extrapolation error:"}, metrics.Summarize(errs))},
	}, nil
}

// ablations quantifies how much the two load-bearing simulator mechanisms
// matter to the paper's Fig. 3 result: the epoch bandwidth fixed point and
// the structurally shared LLC. Removing either changes the NRS/PRS error
// structure qualitatively (e.g. without feedback, bandwidth contention
// disappears and NRS looks far better than it should). A row is a model
// variant, a cell the suite-averaged single-core scale-model error under one
// construction.
func (e *Experiments) ablations() (*Table, error) {
	noFeedback, partitioned := e.lab.Opts, e.lab.Opts
	noFeedback.NoFeedback, partitioned.PartitionedLLC = true, true
	variants := []struct {
		name string
		opts sim.Options
	}{{"full model", e.lab.Opts}, {"no bandwidth feedback", noFeedback}, {"partitioned LLC", partitioned}}
	blk := Block{Label: "variant", LabelFormat: "  %-24s", Columns: columns("%", " %9.1f%%", "NRS err", "PRS err")}
	for _, v := range variants {
		row := Row{Label: v.name}
		for _, pol := range []config.ScalingPolicy{config.NRS, config.PRSFull} {
			_, errs, err := e.noExtrapolation(e.lab.WithSimOptions(v.opts).WithPolicy(pol))
			if err != nil {
				return nil, err
			}
			row.Values = append(row.Values, Cell(methodResult(v.name, errs).Mean))
		}
		blk.Rows = append(blk.Rows, row)
	}
	return &Table{ID: "Ablation", Title: "contention-model design choices (single-core scale model, no extrapolation)", Blocks: []Block{blk}}, nil
}

// prefetchStudy checks that the scale-model methodology is robust to a
// microarchitectural feature the paper's configuration does not include: an
// L2 stream prefetcher. When both the scale model and the target gain the
// prefetcher, proportional scaling should remain (about) as accurate as
// without it — the methodology does not depend on the exact core-side
// configuration, only on both machines sharing it. A row is a benchmark: its
// single-core scale-model IPC and its No Extrapolation target prediction
// error, each without and with the prefetcher (on both machines).
func (e *Experiments) prefetchStudy() (*Table, error) {
	blk := Block{Label: "benchmark", LabelFormat: "  %-12s",
		Columns: append(columns("IPC", " %8.3f", "IPC off", "IPC on"), columns("%", " %9.1f%%", "err off", "err on")...)}
	var errs [2][]float64
	for on, variant := range []bool{false, true} {
		opts := e.lab.Opts
		opts.EnablePrefetch = variant
		d, named, err := e.noExtrapolation(e.lab.WithSimOptions(opts))
		if err != nil {
			return nil, err
		}
		for _, ne := range named {
			if !variant {
				blk.Rows = append(blk.Rows, Row{Label: ne.Name, Values: make([]Cell, 4)})
			}
			// EvaluateLOO sorts by MPKI, which may differ slightly between
			// variants; match by name.
			for _, r := range blk.Rows {
				if r.Label == ne.Name {
					r.Values[on], r.Values[2+on] = Cell(d.Meas[ne.Name].IPC), Cell(ne.Error)
				}
			}
			errs[on] = append(errs[on], ne.Error)
		}
	}
	return &Table{ID: "Extension", Title: "methodology robustness with an L2 stream prefetcher", Blocks: []Block{blk,
		summaryBlock("  %-34s", []string{"NoExtrap error without prefetcher:", "NoExtrap error with prefetcher:"},
			metrics.Summarize(errs[0]), metrics.Summarize(errs[1])),
	}}, nil
}
