// Telemetry: the simulator's per-epoch observability layer.
//
// The epoch fixed point that makes the contention model work (see the
// package documentation) is also the natural observation boundary: at every
// epoch end the shared-resource utilizations have just been refreshed and
// every core's cumulative counters are consistent. When telemetry is
// enabled, the run loop snapshots the delta since the previous boundary into
// an EpochSnapshot — per-core CPI stacks, cache hit rates, DRAM demand — and
// the current shared-state estimates (NoC/DRAM utilization, queue delays,
// row-buffer efficiency).
//
// The layer is zero-overhead when off: Options.Telemetry == nil reduces the
// entire feature to one nil check per epoch (tens of thousands of simulated
// cycles), and no counters beyond the ones the simulator already keeps are
// maintained. Snapshots are pure reads of deterministic state, so a traced
// run retires the same instructions in the same cycles as an untraced one,
// and two traced runs of the same job produce byte-identical JSONL.
package sim

import (
	"scalesim/internal/cache"
	"scalesim/internal/units"
)

// Phase labels for EpochSnapshot.Phase.
const (
	PhaseWarmup  = "warmup"
	PhaseMeasure = "measure"
)

// TelemetryOptions enables per-epoch observability (see Options.Telemetry).
type TelemetryOptions struct {
	// Warmup additionally snapshots warmup epochs (Phase == PhaseWarmup).
	// The default observes only the measured phase.
	Warmup bool
}

// CoreEpoch is one core's activity during one epoch (all counters are deltas
// over the epoch, not cumulative).
type CoreEpoch struct {
	Core      int    `json:"core"`
	Benchmark string `json:"benchmark"`

	Instructions uint64  `json:"instructions"`
	Cycles       float64 `json:"cycles"`
	IPC          float64 `json:"ipc"`

	// CPI stack components, per retired instruction this epoch. Their sum
	// is the epoch CPI (1/IPC).
	BaseCPI     float64 `json:"base_cpi"`
	BranchCPI   float64 `json:"branch_cpi"`
	MemoryCPI   float64 `json:"memory_cpi"`
	FrontendCPI float64 `json:"frontend_cpi"`

	// Private-hierarchy and LLC hit rates over the epoch's accesses
	// (0 when a level saw no accesses).
	L1DHitRate float64 `json:"l1d_hit_rate"`
	L2HitRate  float64 `json:"l2_hit_rate"`
	LLCHitRate float64 `json:"llc_hit_rate"`
	LLCMisses  uint64  `json:"llc_misses"`

	// DRAMBytes is the core's DRAM traffic (reads + writebacks) this epoch.
	DRAMBytes float64 `json:"dram_bytes"`
}

// EpochSnapshot is one epoch's observability record: per-core activity plus
// the shared-resource state the contention feedback just refreshed.
type EpochSnapshot struct {
	// Epoch is the snapshot's index within the trace (monotonic across
	// phases; starts at 0 with the first observed epoch).
	Epoch int `json:"epoch"`
	// Phase is PhaseWarmup or PhaseMeasure.
	Phase string `json:"phase"`
	// Config names the simulated machine.
	Config string `json:"config"`
	// EndCycle is the cumulative observed cycle count at the epoch's end;
	// EpochCycles is the epoch length.
	EndCycle    float64 `json:"end_cycle"`
	EpochCycles float64 `json:"epoch_cycles"`

	// Shared-resource state after the epoch's feedback update: smoothed
	// utilizations, the queue delays the next epoch will charge, DRAM
	// row-buffer efficiency, and the aggregate DRAM demand this epoch.
	NoCUtilization    float64 `json:"noc_utilization"`
	NoCQueueDelay     float64 `json:"noc_queue_delay"`
	DRAMUtilization   float64 `json:"dram_utilization"`
	DRAMQueueDelay    float64 `json:"dram_queue_delay"`
	DRAMRowEfficiency float64 `json:"dram_row_efficiency"`
	DRAMBytesPerCycle float64 `json:"dram_bytes_per_cycle"`

	Cores []CoreEpoch `json:"cores"`
}

// coreCounters is one core's cumulative counter state at an epoch boundary:
// the run loops difference it across the measured phase, the observer across
// each epoch.
type coreCounters struct {
	instructions                   uint64
	cycles                         units.Cycles
	base, branch, memory, frontend units.Cycles
	l1d, l2, llc                   cache.Stats
	dramBytes                      units.Bytes
}

// observer computes epoch snapshots for one run. It is only allocated when
// telemetry is enabled; the disabled path never touches it.
type observer struct {
	m  *machine
	wl Workload

	epoch    int
	endCycle units.Cycles
	prev     []coreCounters
	prevDRAM units.Bytes

	trace []EpochSnapshot
}

func newObserver(m *machine, wl Workload) *observer {
	o := &observer{m: m, wl: wl, prev: make([]coreCounters, len(m.cores))}
	o.sync()
	return o
}

// counters captures core i's current cumulative state.
func (m *machine) counters(i int) coreCounters {
	st := m.cores[i].stats()
	l1d, l2 := m.cores[i].private()
	return coreCounters{
		instructions: st.Instructions,
		cycles:       st.Cycles,
		base:         st.BaseCycles,
		branch:       st.BranchCycles,
		memory:       st.MemoryCycles,
		frontend:     st.FrontendCycles,
		l1d:          l1d,
		l2:           l2,
		llc:          m.llcCoreStats(i),
		dramBytes:    m.mem.CoreBytes(i),
	}
}

// sync re-bases the delta computation on the current counters. Called at
// construction and at the warmup/measurement boundary (where core statistics
// are reset while cache and DRAM counters keep accumulating).
func (o *observer) sync() {
	for i := range o.prev {
		o.prev[i] = o.m.counters(i)
	}
	o.prevDRAM = o.m.mem.TotalBytes
}

// ratio returns num/den, or 0 for an empty denominator (avoids NaN in JSON).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// hitRate converts an epoch's access/miss delta into a hit rate.
func hitRate(d cache.Stats) float64 {
	return ratio(float64(d.Accesses-d.Misses), float64(d.Accesses))
}

// observe snapshots the epoch that just ended into the trace. Must be
// called after the machine's endEpoch so the shared-resource estimates
// reflect the epoch's traffic.
func (o *observer) observe(phase string, epochCycles units.Cycles) {
	o.endCycle += epochCycles
	snap := EpochSnapshot{
		Epoch:             o.epoch,
		Phase:             phase,
		Config:            o.m.cfg.Name,
		EndCycle:          float64(o.endCycle),
		EpochCycles:       float64(epochCycles),
		NoCUtilization:    o.m.mesh.Utilization(),
		NoCQueueDelay:     float64(o.m.mesh.QueueDelay()),
		DRAMUtilization:   o.m.mem.Utilization(),
		DRAMQueueDelay:    float64(o.m.mem.QueueDelay()),
		DRAMRowEfficiency: o.m.mem.Efficiency(),
		DRAMBytesPerCycle: ratio(float64(o.m.mem.TotalBytes-o.prevDRAM), float64(epochCycles)),
		Cores:             make([]CoreEpoch, len(o.m.cores)),
	}
	for i := range o.m.cores {
		cur := o.m.counters(i)
		p := o.prev[i]
		instr := cur.instructions - p.instructions
		cycles := cur.cycles - p.cycles
		ki := float64(instr)
		llcDelta := cur.llc.Delta(p.llc)
		snap.Cores[i] = CoreEpoch{
			Core:         i,
			Benchmark:    o.wl.profile(i).Name,
			Instructions: instr,
			Cycles:       float64(cycles),
			IPC:          ratio(float64(instr), float64(cycles)),
			BaseCPI:      ratio(float64(cur.base-p.base), ki),
			BranchCPI:    ratio(float64(cur.branch-p.branch), ki),
			MemoryCPI:    ratio(float64(cur.memory-p.memory), ki),
			FrontendCPI:  ratio(float64(cur.frontend-p.frontend), ki),
			L1DHitRate:   hitRate(cur.l1d.Delta(p.l1d)),
			L2HitRate:    hitRate(cur.l2.Delta(p.l2)),
			LLCHitRate:   hitRate(llcDelta),
			LLCMisses:    llcDelta.Misses,
			DRAMBytes:    float64(cur.dramBytes - p.dramBytes),
		}
		o.prev[i] = cur
	}
	o.prevDRAM = o.m.mem.TotalBytes
	o.epoch++
	o.trace = append(o.trace, snap)
}
