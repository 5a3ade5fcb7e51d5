// Package sim is the multicore simulator: it co-executes a workload — a
// multiprogram mix, or the threads of one data-parallel program — on a
// configured machine, one trace-driven out-of-order core per program or
// thread, against structurally simulated private caches, a shared NUCA LLC,
// a mesh NoC and a multi-controller DRAM subsystem.
//
// # Contention model
//
// Simulation proceeds in fixed-length epochs. Within an epoch each core
// executes instructions against the shared structures (so LLC capacity
// contention is emergent from interleaved LRU state), while NoC and DRAM
// queue delays are taken from the previous epoch's measured utilization. At
// each epoch boundary the utilizations are refreshed from the traffic just
// accounted. This closes the feedback loop {IPC -> bandwidth demand ->
// queuing delay -> IPC} as a relaxed fixed-point iteration across epochs —
// the same abstraction-level trick interval simulators such as Sniper use,
// and the reason a 32-core simulation costs super-linearly more than a
// single-core one: more shared-state work per epoch and a longer
// convergence transient.
//
// # Termination
//
// Following the paper (§IV-2), a run warms all cores up, resets statistics,
// and then measures until the first program retires its instruction budget.
// A threaded program's budget is its total work, split across its threads
// (strong scaling): it measures until every thread has passed its last
// barrier (barrier.go).
package sim

import (
	"context"
	"errors"
	"fmt"
	"time"

	"scalesim/internal/cache"
	"scalesim/internal/config"
	"scalesim/internal/cpu"
	"scalesim/internal/dram"
	"scalesim/internal/noc"
	"scalesim/internal/pad"
	"scalesim/internal/trace"
	"scalesim/internal/units"
)

// Options controls a simulation run.
type Options struct {
	// Instructions is the measured instruction budget per program: the run
	// ends when the first program retires this many post-warmup
	// instructions (the paper's 1B-instruction SimPoint, capacity-scaled).
	Instructions uint64
	// Warmup instructions per program before statistics are reset.
	Warmup uint64
	// EpochCycles is the contention feedback epoch length.
	EpochCycles units.Cycles
	// CapacityScale divides all cache capacities and workload footprints
	// (the global miniaturisation documented in DESIGN.md).
	CapacityScale int
	// Seed is the experiment-level base seed.
	Seed uint64

	// Ablations (DESIGN.md "Key design decisions"; default off = full model).
	//
	// NoFeedback disables the epoch fixed-point: NoC and DRAM queue delays
	// stay at their unloaded values regardless of measured traffic, so
	// bandwidth contention never throttles anything.
	NoFeedback bool
	// PartitionedLLC replaces the shared NUCA LLC with an analytic
	// equal-split partition: each core gets a private 1/N-capacity slice,
	// so no program can steal capacity from (or donate it to) another.
	PartitionedLLC bool
	// EnablePrefetch adds a per-core L2 stream/stride prefetcher. Off by
	// default (the paper's Sniper configuration does not mention one);
	// turning it on is a robustness study for the methodology: prefetches
	// change both isolated performance and bandwidth contention.
	EnablePrefetch bool

	// Tuning (performance-only; never part of the campaign cache key).
	//
	// CoreWorkers bounds the worker pool executing per-core epoch work in
	// parallel; 0 means auto (one worker per core, up to GOMAXPROCS), 1
	// forces serial execution. Parallel and serial runs are byte-identical
	// by construction (DESIGN.md, "Performance invariants"), proven by the
	// seed-matrix determinism test — which is why this is the one field
	// runner.Job.Key leaves out (TestKeyCoversEveryField's keyless set).
	CoreWorkers int

	// Telemetry enables per-epoch observability when non-nil: every
	// measured epoch (and warmup epoch when Telemetry.Warmup is set) is
	// snapshotted into Result.Trace. Nil — the default — is the
	// zero-overhead fast path: the epoch loop performs a single nil check
	// and nothing else. Telemetry never perturbs the simulation: a traced
	// run's Result is bit-identical to an untraced run's (wall-clock and
	// Trace aside).
	Telemetry *TelemetryOptions
}

// DefaultOptions returns the options used by the experiment suite.
func DefaultOptions() Options {
	return Options{
		Instructions:  1_000_000,
		Warmup:        250_000,
		EpochCycles:   20_000,
		CapacityScale: 8,
		Seed:          1,
	}
}

// Resolved returns the options that run: a zero Instructions, Warmup,
// EpochCycles or CapacityScale is replaced by its default, every other field
// (Seed included: 0 is a seed like any other) is kept. It is idempotent.
// runner.Job.Key hashes options as given, so whoever builds a Job resolves
// them first; RunContext resolves again for callers that did not.
func (o Options) Resolved() Options {
	d := DefaultOptions()
	if o.Instructions == 0 {
		o.Instructions = d.Instructions
	}
	if o.Warmup == 0 {
		o.Warmup = d.Warmup
	}
	if o.EpochCycles == 0 {
		o.EpochCycles = d.EpochCycles
	}
	if o.CapacityScale == 0 {
		o.CapacityScale = d.CapacityScale
	}
	return o
}

// Workload is what a machine runs, one of two kinds: a multiprogram mix, one
// benchmark profile per core, or one data-parallel program, a thread per core
// (the paper's §V-E6 outlook). Setting both is an input error.
type Workload struct {
	Profiles []*trace.Profile
	Threads  *trace.ParallelProfile
}

// profile returns what core i executes.
func (wl Workload) profile(i int) *trace.Profile {
	if wl.Threads != nil {
		return &wl.Threads.Serial
	}
	return wl.Profiles[i]
}

// Homogeneous builds a mix of cores copies of prof.
func Homogeneous(prof *trace.Profile, cores int) Workload {
	ps := make([]*trace.Profile, cores)
	for i := range ps {
		ps[i] = prof
	}
	return Workload{Profiles: ps}
}

// CoreResult holds the measured statistics of one program/core.
type CoreResult struct {
	Core      int
	Benchmark string

	Instructions uint64
	Cycles       units.Cycles
	IPC          float64

	// Barriers counts the barriers a thread crossed and BarrierCycles the
	// cycles, included in Cycles, it waited at them for its siblings (load
	// imbalance). Both are zero, and absent from a stored artifact, for a
	// program of a mix.
	Barriers      int          `json:",omitempty"`
	BarrierCycles units.Cycles `json:",omitempty"`

	// BWBytesPerCycle is the program's DRAM traffic (reads + writebacks) in
	// bytes per cycle. BWShare is the same value as a fraction of the
	// machine's total DRAM bandwidth — the BW feature the ML models use.
	BWBytesPerCycle units.BytesPerCycle
	BWShare         float64

	// Miss statistics (per kilo-instruction for MPKI values).
	L1DMPKI   float64
	L2MPKI    float64
	LLCMPKI   float64
	LLCMisses uint64

	BranchMispredictRate float64

	// Stall decomposition from the core model.
	BaseCycles, BranchCycles, MemoryCycles, FrontendCycles units.Cycles
}

// Result holds one simulation run's outcome.
type Result struct {
	ConfigName string
	Cores      []CoreResult

	// ElapsedCycles is the measured-phase length in core cycles; for a
	// threaded program its makespan, the cycle the last thread finished at.
	ElapsedCycles units.Cycles
	// SimulatedPicos is ElapsedCycles converted to simulated time at the
	// core clock — the denominator of the paper's slowdown metric.
	SimulatedPicos units.Picoseconds
	// DRAMUtilization and NoCUtilization are end-of-run smoothed values.
	DRAMUtilization float64
	NoCUtilization  float64
	// WallClock is the host time spent simulating (warmup + measure),
	// used by the speedup experiments.
	WallClock time.Duration

	// Trace holds the run's per-epoch telemetry snapshots. Nil unless
	// Options.Telemetry was set.
	Trace []EpochSnapshot
}

// executor is what the run loops need of a core. The program has one, core
// (core.go); the oracle test puts cpu.Core over the monolithic memory system
// behind it.
type executor interface {
	Run(cycleBudget units.Cycles, instrBudget uint64)
	ResetStats()
	stats() *cpu.Stats
	// private returns the cumulative L1-D and L2 access and miss counts.
	private() (l1d, l2 cache.Stats)
	// ahead does, on an idle epoch worker, work the next Run would do.
	ahead()
}

// machine is the simulated shared memory hierarchy plus its cores. Each core
// replays its program's private half (front.go) and reaches the shared
// hierarchy through its own coreCtx (see epoch.go), with thread-local
// accounting so per-core epoch work can execute in parallel.
type machine struct {
	cfg   *config.SystemConfig
	llc   *cache.NUCA
	mesh  *noc.Mesh
	mem   *dram.Memory
	cores []executor
	ctxs  []*coreCtx

	// blocks holds one block of cores per epoch worker (resolveWorkers of
	// them; see runCoresParallel) and owner the worker that replays each LLC
	// slice; ran and replayed are where the workers wait for each other.
	blocks        []block
	owner         []int
	ran, replayed phase

	// part, when non-nil, replaces the shared LLC with per-core private
	// partitions (the PartitionedLLC ablation).
	part []*cache.Level

	// noFeedback suppresses the epoch utilization updates (the NoFeedback
	// ablation).
	noFeedback bool

	l1Time, l2Time, llcTime units.Cycles
}

// endEpoch refreshes the contention estimates unless feedback is ablated.
func (m *machine) endEpoch(cycles units.Cycles) {
	if m.noFeedback {
		return
	}
	m.mesh.EndEpoch(cycles)
	m.mem.EndEpoch(cycles)
}

// llcSliceOf returns the home tile for addr from core's perspective (under
// the PartitionedLLC ablation the home slice is the requester's own tile,
// so the NoC path degenerates to zero hops).
func (m *machine) llcSliceOf(core int, addr uint64) int {
	if m.part != nil {
		return core
	}
	return m.llc.SliceOf(addr)
}

// llcCoreStats returns the LLC statistics attributed to core (the private
// partition's counters under the PartitionedLLC ablation).
func (m *machine) llcCoreStats(core int) cache.Stats {
	if m.part != nil {
		return m.part[core].Stats
	}
	return m.llc.CoreStats(core)
}

// reqBytes is the NoC cost of a request+response pair for one cache line
// (8-byte request header + 64-byte data); lineBytes is the DRAM transfer
// size for one line.
const (
	reqBytes  = units.Bytes(72)
	lineBytes = units.Bytes(64)
)

// newMachine builds the shared hierarchy of cfg and one core per program;
// build returns core i, which reaches the hierarchy through cc.
func newMachine(cfg *config.SystemConfig, programs int, opts Options, build func(i int, cc *coreCtx) (executor, error)) (*machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if programs != cfg.Cores {
		return nil, fmt.Errorf("sim: workload has %d programs for %d cores", programs, cfg.Cores)
	}
	m := &machine{
		cfg:        cfg,
		noFeedback: opts.NoFeedback,
		l1Time:     units.Cycles(cfg.L1D.AccessTime),
		l2Time:     units.Cycles(cfg.L2.AccessTime),
		llcTime:    units.Cycles(cfg.LLC.AccessTime),
	}
	if opts.PartitionedLLC {
		for i := 0; i < cfg.Cores; i++ {
			p, err := cache.NewLevel(cfg.LLC.Slice(), opts.CapacityScale)
			if err != nil {
				return nil, err
			}
			m.part = append(m.part, p)
		}
	}
	var err error
	if m.llc, err = cache.NewNUCA(cfg.LLC, opts.CapacityScale, cfg.Cores); err != nil {
		return nil, err
	}
	if m.mesh, err = noc.New(cfg.NoC, cfg.Core.FrequencyGHz); err != nil {
		return nil, err
	}
	if m.mem, err = dram.New(cfg.DRAM, cfg.Core.FrequencyGHz, cfg.Cores); err != nil {
		return nil, err
	}
	// The shared NUCA needs copy-on-write overlays only when more than one
	// core can touch it within an epoch; a single core or the partitioned
	// ablation keeps the zero-overhead direct path.
	sharedLLC := cfg.Cores > 1 && m.part == nil
	workers := resolveWorkers(opts.CoreWorkers, cfg.Cores)
	m.blocks = pad.Slice[block](workers)
	for w := range m.blocks {
		m.blocks[w].llc = pad.Slice[cache.Stats](cfg.Cores)
	}
	m.owner = pad.Slice[int](cfg.LLC.Slices)
	for s := range m.owner {
		m.owner[s] = s % workers
	}
	for i := 0; i < cfg.Cores; i++ {
		cc := pad.New(coreCtx{m: m, core: i, dramAcc: m.mem.NewAcc(), logs: pad.Slice[[]llcOp](workers)})
		if sharedLLC {
			cc.ov = cache.NewOverlay(m.llc)
			for w := range cc.logs {
				cc.logs[w] = pad.Slice[llcOp](max(1, defaultEpochLogOps/workers))[:0]
			}
		}
		m.ctxs = append(m.ctxs, cc)
		core, err := build(i, cc)
		if err != nil {
			return nil, err
		}
		m.cores = append(m.cores, core)
	}
	return m, nil
}

// cores returns newMachine's builder for wl. Core i of a mix replays the
// stream of instance i of wl.Profiles[i], taken from the memo (a nil memo: a
// private stream). A thread's generator differs by thread and thread count
// within one shared address space, so no two machines run the same one: its
// stream is private.
func (f *Fronts) cores(cfg *config.SystemConfig, wl Workload, opts Options) func(int, *coreCtx) (executor, error) {
	return func(i int, cc *coreCtx) (executor, error) {
		k := frontKey{
			prof: wl.profile(i), instance: i, seed: opts.Seed, scale: opts.CapacityScale,
			l1i: cfg.L1I, l1d: cfg.L1D, l2: cfg.L2, prefetch: opts.EnablePrefetch,
		}
		var str *stream
		var err error
		if wl.Threads != nil {
			str, err = k.thread(wl.Threads, cfg.Cores)
		} else {
			str, err = f.stream(k)
		}
		if err != nil {
			return nil, err
		}
		return newCore(cfg, k.prof, str, cc), nil
	}
}

// RunContext simulates workload wl on machine cfg and returns measured
// per-core results. The run is deterministic for fixed (cfg, wl, opts). ctx
// is checked at every epoch boundary (both warmup and measurement), so a
// cancelled or expired context aborts the run within one epoch's worth of
// simulated work and returns ctx.Err(). Cancellation does not corrupt
// anything — the machine state is simply discarded.
func RunContext(ctx context.Context, cfg *config.SystemConfig, wl Workload, opts Options) (*Result, error) {
	return (*Fronts)(nil).RunContext(ctx, cfg, wl, opts)
}

// warmUp runs epochs until every core has retired budget instructions — a
// core that is warm early keeps running, it must keep generating contention
// — calling observe, when non-nil, after each. It then resets the cores'
// statistics and returns each core's cumulative counters at that boundary:
// microarchitectural state (cache contents, predictor tables, utilization
// estimates, generator positions) and the cache and DRAM counters carry over.
func (m *machine) warmUp(ctx context.Context, epochCycles units.Cycles, limits []uint64, budget uint64, observe func()) ([]coreCounters, error) {
	for {
		if err := m.runEpoch(ctx, epochCycles, limits); err != nil {
			return nil, err
		}
		allWarm := true
		for _, c := range m.cores {
			if c.stats().Instructions < budget {
				allWarm = false
			}
		}
		m.endEpoch(epochCycles)
		if observe != nil {
			observe()
		}
		if allWarm {
			break
		}
	}
	base := make([]coreCounters, len(m.cores))
	for i, c := range m.cores {
		c.ResetStats()
		base[i] = m.counters(i)
	}
	return base, nil
}

// runMachine is RunContext, for resolved opts, over whatever cores build
// returns: the one run loop, for a mix and for a threaded program alike.
func runMachine(ctx context.Context, cfg *config.SystemConfig, wl Workload, opts Options, build func(int, *coreCtx) (executor, error)) (*Result, error) {
	start := time.Now() //simlint:ignore wallclock measures Result.WallClock reporting only; never simulated state
	programs := len(wl.Profiles)
	if wl.Threads != nil {
		if programs > 0 {
			return nil, errors.New("sim: workload has both programs and threads")
		}
		programs = cfg.Cores
	}
	m, err := newMachine(cfg, programs, opts, build)
	if err != nil {
		return nil, err
	}
	// A mix's budgets are each program's; a threaded program's are split
	// across its threads, whose barriers (nil for a mix) then bound every
	// measured epoch and say when the run is over.
	warmup := opts.Warmup
	var bar *barriers
	if wl.Threads != nil {
		warmup = max(500, opts.Warmup/uint64(cfg.Cores))
		bar = newBarriers(wl.Threads, cfg.Cores, opts.Instructions)
	}

	// Telemetry is allocated only when requested; the disabled path costs
	// one nil check per epoch.
	var obs *observer
	if opts.Telemetry != nil {
		obs = newObserver(m, wl)
	}

	// Phase 1 — warmup (no barriers), until every core has retired its
	// warmup budget.
	limits := noLimits(make([]uint64, cfg.Cores))
	var observeWarmup func()
	if obs != nil && opts.Telemetry.Warmup {
		observeWarmup = func() { obs.observe(PhaseWarmup, opts.EpochCycles) }
	}
	base, err := m.warmUp(ctx, opts.EpochCycles, limits, warmup, observeWarmup)
	if err != nil {
		return nil, err
	}
	if obs != nil {
		// Core statistics were just reset; re-base the delta computation.
		obs.sync()
	}

	// Phase 2 — measure: epochs until the first program retires its budget,
	// or the last barrier opens.
	elapsed := units.Cycles(0)
	for done := false; !done; elapsed += opts.EpochCycles {
		if bar != nil {
			bar.bound(limits)
		}
		if err := m.runEpoch(ctx, opts.EpochCycles, limits); err != nil {
			return nil, err
		}
		if bar != nil {
			done = bar.release(m.cores)
		} else {
			for _, c := range m.cores {
				if c.stats().Instructions >= opts.Instructions {
					done = true
				}
			}
		}
		m.endEpoch(opts.EpochCycles)
		if obs != nil {
			obs.observe(PhaseMeasure, opts.EpochCycles)
		}
	}
	if bar != nil {
		// Threads stop where their work ends, not at an epoch boundary: the
		// run took as long as its last thread.
		elapsed = 0
		for _, c := range m.cores {
			elapsed = max(elapsed, c.stats().Cycles)
		}
	}

	totalBW := units.FromGBps(float64(cfg.DRAM.TotalGBps()), cfg.Core.FrequencyGHz)
	res := &Result{
		ConfigName:      cfg.Name,
		ElapsedCycles:   elapsed,
		SimulatedPicos:  elapsed.AtGHz(cfg.Core.FrequencyGHz),
		DRAMUtilization: m.mem.Utilization(),
		NoCUtilization:  m.mesh.Utilization(),
	}
	for i, c := range m.cores {
		st := c.stats()
		cur := m.counters(i)
		ki := float64(st.Instructions) / 1000
		llcMisses := cur.llc.Misses - base[i].llc.Misses
		bwBytes := cur.dramBytes - base[i].dramBytes
		cycles := st.Cycles
		if cycles == 0 {
			cycles = 1
		}
		cr := CoreResult{
			Core:                 i,
			Benchmark:            wl.profile(i).Name,
			Instructions:         st.Instructions,
			Cycles:               st.Cycles,
			IPC:                  st.IPC(),
			BWBytesPerCycle:      bwBytes.Per(cycles),
			BWShare:              float64(bwBytes.Per(cycles)) / float64(totalBW),
			L1DMPKI:              float64(cur.l1d.Misses-base[i].l1d.Misses) / ki,
			L2MPKI:               float64(cur.l2.Misses-base[i].l2.Misses) / ki,
			LLCMPKI:              float64(llcMisses) / ki,
			LLCMisses:            llcMisses,
			BranchMispredictRate: st.Branch.MispredictRate(),
			BaseCycles:           st.BaseCycles,
			BranchCycles:         st.BranchCycles,
			MemoryCycles:         st.MemoryCycles,
			FrontendCycles:       st.FrontendCycles,
		}
		if bar != nil {
			cr.Barriers, cr.BarrierCycles = bar.crossed, bar.wait[i]
		}
		res.Cores = append(res.Cores, cr)
	}
	if obs != nil {
		res.Trace = obs.trace
	}
	res.WallClock = time.Since(start) + m.borrowed() //simlint:ignore wallclock measures Result.WallClock reporting only; never simulated state
	return res, nil
}

// borrowed is the host time this run saved because another run of the
// campaign had produced chunks it read: their recorded production time,
// spread over the epoch workers that would have shared it. Adding it keeps
// Result.WallClock meaning "what this run costs alone", which Fig. 7 and the
// simulation-time study read from a collection.
func (m *machine) borrowed() (sum time.Duration) {
	for _, cc := range m.ctxs {
		sum += cc.borrowed
	}
	return sum / time.Duration(len(m.blocks))
}
