package sim

import (
	"context"
	"fmt"
	"time"

	"scalesim/internal/config"
	"scalesim/internal/trace"
	"scalesim/internal/units"
)

// ParallelSpec describes a data-parallel multi-threaded run: one thread per
// core of the machine, all executing Profile with barrier synchronisation
// (the paper's §V-E6 outlook). The total work is fixed (strong scaling):
// Options.Instructions instructions are split evenly across threads, so
// running the same spec on machines of different sizes measures parallel
// speedup.
type ParallelSpec struct {
	Profile *trace.ParallelProfile
}

// ThreadResult is one thread's measured statistics.
type ThreadResult struct {
	Thread       int
	Instructions uint64
	Cycles       units.Cycles
	IPC          float64
	// BarrierCycles counts cycles spent waiting at barriers (imbalance).
	BarrierCycles   units.Cycles
	Barriers        int
	LLCMPKI         float64
	BWBytesPerCycle units.BytesPerCycle
}

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

// ParallelResult is the outcome of one multi-threaded run.
type ParallelResult struct {
	ConfigName string
	Threads    []ThreadResult
	// MakespanCycles is the time until the last thread completed its work
	// (the parallel execution time).
	MakespanCycles  units.Cycles
	Stack           SpeedupStack
	DRAMUtilization float64
	NoCUtilization  float64
	WallClock       time.Duration
}

// AggregateIPC returns total instructions per makespan cycle (system
// throughput of the parallel run).
func (r *ParallelResult) AggregateIPC() float64 {
	if r.MakespanCycles == 0 {
		return 0
	}
	var instr uint64
	for _, t := range r.Threads {
		instr += t.Instructions
	}
	return float64(instr) / float64(r.MakespanCycles)
}

// RunParallel simulates spec on cfg with one thread per core. Total work
// (opts.Instructions) is divided across threads; barriers from the profile
// synchronise them; the run ends when every thread finished its share.
func RunParallel(cfg *config.SystemConfig, spec ParallelSpec, opts Options) (*ParallelResult, error) {
	return RunParallelContext(context.Background(), cfg, spec, opts)
}

// RunParallelContext is RunParallel with cancellation, checked at every
// epoch boundary like RunContext.
func RunParallelContext(ctx context.Context, cfg *config.SystemConfig, spec ParallelSpec, opts Options) (*ParallelResult, error) {
	opts = opts.normalized()
	if spec.Profile == nil {
		return nil, fmt.Errorf("sim: nil parallel profile")
	}
	if err := spec.Profile.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Thread generators share an address space and differ by thread, so each
	// core replays a private stream: there is nothing to share between runs.
	return runThreads(ctx, cfg, spec, opts, func(i int, cc *coreCtx) (executor, error) {
		gen, err := trace.NewThreadGenerator(spec.Profile, i, cfg.Cores, trace.GenOptions{
			CapacityScale: opts.CapacityScale,
			Seed:          opts.Seed,
		})
		if err != nil {
			return nil, err
		}
		fr, err := newFront(gen, cfg.L1I, cfg.L1D, cfg.L2, opts.CapacityScale, opts.EnablePrefetch)
		if err != nil {
			return nil, err
		}
		return newCore(cfg, &spec.Profile.Serial, newStream(fr), cc), nil
	})
}

// runThreads is RunParallelContext over whatever cores build returns.
func runThreads(ctx context.Context, cfg *config.SystemConfig, spec ParallelSpec, opts Options, build func(int, *coreCtx) (executor, error)) (*ParallelResult, error) {
	start := time.Now() //simlint:ignore wallclock measures Result.WallClock reporting only; never simulated state
	threads := cfg.Cores
	m, err := newMachine(cfg, threads, opts, build)
	if err != nil {
		return nil, err
	}

	// Per-thread work shares (strong scaling), with the profile's skew.
	perThread := opts.Instructions / uint64(threads)
	if perThread < 1000 {
		perThread = 1000
	}
	warmPerThread := opts.Warmup / uint64(threads)
	if warmPerThread < 500 {
		warmPerThread = 500
	}
	interval := spec.Profile.BarrierInterval
	work := make([]uint64, threads)        // measured budget per thread
	barrierStep := make([]uint64, threads) // instructions between barriers
	for t := 0; t < threads; t++ {
		if interval > 0 {
			// Every thread passes the same number of barriers; skew makes
			// the work between consecutive barriers differ per thread.
			steps := (perThread + interval/2) / interval
			if steps < 1 {
				steps = 1
			}
			barrierStep[t] = spec.Profile.ThreadBudget(t, threads)
			work[t] = steps * barrierStep[t]
		} else {
			work[t] = perThread
		}
	}

	// Warmup (no barriers), then reset statistics.
	limits := noLimits(make([]uint64, threads))
	base, err := m.warmUp(ctx, opts.EpochCycles, limits, warmPerThread, nil)
	if err != nil {
		return nil, err
	}

	// Measured phase with barrier synchronisation.
	barrierWait := make([]units.Cycles, threads)
	barriers := make([]int, threads)
	nextBarrier := make([]uint64, threads)
	done := make([]bool, threads)
	for t := range nextBarrier {
		if interval > 0 {
			nextBarrier[t] = barrierStep[t]
		} else {
			nextBarrier[t] = work[t]
		}
	}
	for {
		// A finished thread gets a zero instruction bound, so its core runs
		// no steps this epoch (Instructions is already >= 0).
		for t := range m.cores {
			limits[t] = 0
			if !done[t] {
				limits[t] = nextBarrier[t]
				if limits[t] > work[t] {
					limits[t] = work[t]
				}
			}
		}
		if err := m.runEpoch(ctx, opts.EpochCycles, limits); err != nil {
			return nil, err
		}
		m.endEpoch(opts.EpochCycles)

		// Barrier release: when every unfinished thread has reached its
		// pending boundary, synchronise clocks and charge the wait.
		if everyoneBlocked(m.cores, nextBarrier, work, done) {
			release := units.Cycles(0)
			for t, c := range m.cores {
				if !done[t] && c.stats().Cycles > release {
					release = c.stats().Cycles
				}
			}
			for t, c := range m.cores {
				if done[t] {
					continue
				}
				st := c.stats()
				if wait := release - st.Cycles; wait > 0 {
					st.Cycles = release
					barrierWait[t] += wait
				}
				barriers[t]++
				if st.Instructions >= work[t] {
					done[t] = true
					continue
				}
				nextBarrier[t] += barrierStep[t]
				if interval == 0 {
					nextBarrier[t] = work[t]
				}
			}
		}
		complete := true
		for t := range done {
			if !done[t] {
				complete = false
				break
			}
		}
		if complete {
			break
		}
	}

	res := &ParallelResult{
		ConfigName:      cfg.Name,
		DRAMUtilization: m.mem.Utilization(),
		NoCUtilization:  m.mesh.Utilization(),
	}
	var stack SpeedupStack
	totalCycles := 0.0
	for t, c := range m.cores {
		st := c.stats()
		ki := float64(st.Instructions) / 1000
		cur := m.counters(t)
		llcMisses := cur.llc.Misses - base[t].llc.Misses
		cycles := st.Cycles
		if cycles > res.MakespanCycles {
			res.MakespanCycles = cycles
		}
		res.Threads = append(res.Threads, ThreadResult{
			Thread:          t,
			Instructions:    st.Instructions,
			Cycles:          cycles,
			IPC:             st.IPC(),
			BarrierCycles:   barrierWait[t],
			Barriers:        barriers[t],
			LLCMPKI:         float64(llcMisses) / ki,
			BWBytesPerCycle: (cur.dramBytes - base[t].dramBytes).Per(cycles),
		})
		stack.Base += float64(st.BaseCycles)
		stack.Branch += float64(st.BranchCycles)
		stack.Memory += float64(st.MemoryCycles)
		stack.Frontend += float64(st.FrontendCycles)
		stack.Barrier += float64(barrierWait[t])
		totalCycles += float64(cycles)
	}
	if totalCycles > 0 {
		stack.Base /= totalCycles
		stack.Branch /= totalCycles
		stack.Memory /= totalCycles
		stack.Frontend /= totalCycles
		stack.Barrier /= totalCycles
	}
	res.Stack = stack
	res.WallClock = time.Since(start) //simlint:ignore wallclock measures Result.WallClock reporting only; never simulated state
	return res, nil
}

// everyoneBlocked reports whether every unfinished thread has reached its
// pending barrier boundary (or its end of work).
func everyoneBlocked(cores []executor, next []uint64, work []uint64, done []bool) bool {
	for t, c := range cores {
		if done[t] {
			continue
		}
		limit := next[t]
		if limit > work[t] {
			limit = work[t]
		}
		if c.stats().Instructions < limit {
			return false
		}
	}
	return true
}
