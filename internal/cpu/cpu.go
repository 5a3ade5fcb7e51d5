// Package cpu implements the out-of-order core timing model. It follows the
// mechanistic interval-model tradition (Karkhanis & Smith; Genbrugge,
// Eyerman & Eeckhout's interval simulation; Carlson et al.'s Sniper core
// models): in the absence of miss events a balanced superscalar core
// sustains its ILP-limited throughput, and miss events insert penalties —
// fully exposed for branch mispredictions and front-end misses, partially
// hidden and MLP-amortised for long-latency loads.
//
// The core consumes a trace.Generator's instruction stream, drives a real
// branch predictor, and resolves memory operations through a MemSystem
// (implemented by internal/sim on top of the cache/NoC/DRAM substrates).
package cpu

import (
	"fmt"

	"scalesim/internal/branch"
	"scalesim/internal/config"
	"scalesim/internal/pad"
	"scalesim/internal/trace"
	"scalesim/internal/units"
)

// MemLevel identifies where a memory access was served.
type MemLevel uint8

// Memory hierarchy levels.
const (
	LevelL1 MemLevel = iota + 1
	LevelL2
	LevelLLC
	LevelDRAM
)

func (l MemLevel) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelLLC:
		return "LLC"
	case LevelDRAM:
		return "DRAM"
	default:
		return fmt.Sprintf("MemLevel(%d)", uint8(l))
	}
}

// MemResult describes a resolved data access.
type MemResult struct {
	// Latency is the full load-to-use latency, including NoC and DRAM
	// queuing components.
	Latency units.Cycles
	// Level is the hierarchy level that served the access.
	Level MemLevel
}

// MemSystem resolves a core's memory traffic against the shared memory
// hierarchy. Implementations account bandwidth and contention.
type MemSystem interface {
	// Load resolves a data read by core at addr.
	Load(core int, addr uint64) MemResult
	// Store resolves a data write by core at addr. Stores are posted (the
	// result is used only for store-buffer pressure modelling).
	Store(core int, addr uint64) MemResult
	// IFetch resolves an instruction fetch of the line at addr, returning
	// the front-end stall. Sequential fetches (jump=false) are
	// next-line-prefetchable: they warm the caches but never stall.
	IFetch(core int, addr uint64, jump bool) units.Cycles
}

// Stats aggregates a core's execution counters.
type Stats struct {
	Instructions uint64
	Cycles       units.Cycles
	Loads        uint64
	Stores       uint64
	LoadsAt      [5]uint64 // indexed by MemLevel
	Branch       branch.Stats
	// Stall cycle decomposition (approximate, for reporting).
	BaseCycles     units.Cycles
	BranchCycles   units.Cycles
	MemoryCycles   units.Cycles
	FrontendCycles units.Cycles
}

// IPC returns retired instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// Core is one out-of-order core executing one benchmark instance.
type Core struct {
	id   int
	cfg  config.CoreConfig
	gen  *trace.Generator
	pred branch.Predictor
	mem  MemSystem

	// Derived timing parameters.
	baseCPI    units.Cycles // max(profile ILP limit, dispatch width limit)
	hideCycles units.Cycles // latency the OoO window hides per isolated miss
	effMLP     float64      // overlap factor for independent misses

	// Fetch pacing: one I-fetch per fetchGroup instructions.
	fetchGroup  int
	sinceIFetch int

	Stats Stats
}

// instrBytes is the nominal x86 instruction footprint used to pace I-side
// line fetches (64-byte line / 4 bytes per instruction = 16 instructions).
const instrBytes = 4

// New builds a core with the given id executing gen on mem with predictor
// pred under the machine's core configuration.
func New(id int, cfg config.CoreConfig, gen *trace.Generator, pred branch.Predictor, mem MemSystem) (*Core, error) {
	if gen == nil || pred == nil || mem == nil {
		return nil, fmt.Errorf("cpu: nil generator, predictor or memory system")
	}
	if cfg.IssueWidth < 1 || cfg.ROBSize < cfg.IssueWidth {
		return nil, fmt.Errorf("cpu: invalid core config %+v", cfg)
	}
	prof := gen.Profile()
	baseCPI := prof.BaseCPI
	if min := 1 / float64(cfg.IssueWidth); baseCPI < min {
		baseCPI = min
	}
	// The reorder window hides roughly the time to drain half the ROB at
	// the base dispatch rate: shorter-latency events (L2 hits and part of an
	// LLC hit) disappear under out-of-order execution.
	hide := float64(cfg.ROBSize) / 2 / float64(cfg.IssueWidth)
	// Independent misses overlap up to the profile's inherent MLP, bounded
	// by the L1-D MSHRs.
	mlp := prof.MLP
	if m := float64(cfg.MaxL1DMisses); mlp > m {
		mlp = m
	}
	if mlp < 1 {
		mlp = 1
	}
	lineInstr := 64 / instrBytes
	// Stats is written on every instruction: the core lives on host cache
	// lines no other core shares (see package pad).
	return pad.New(Core{
		id:         id,
		cfg:        cfg,
		gen:        gen,
		pred:       pred,
		mem:        mem,
		baseCPI:    units.Cycles(baseCPI),
		hideCycles: units.Cycles(hide),
		effMLP:     mlp,
		fetchGroup: lineInstr,
	}), nil
}

// Run executes until cycleBudget cycles are consumed or instrBudget total
// retired instructions are reached, returning the cycles actually consumed
// in this call. Run can be invoked repeatedly (epoch by epoch).
func (c *Core) Run(cycleBudget units.Cycles, instrBudget uint64) units.Cycles {
	start := c.Stats.Cycles
	for c.Stats.Cycles-start < cycleBudget && c.Stats.Instructions < instrBudget {
		c.step()
	}
	return c.Stats.Cycles - start
}

// step retires one instruction and charges its cycles. It pulls the
// instruction from the generator piecewise (kind, then address or branch)
// rather than as a trace.Op, so the per-instruction path passes words.
func (c *Core) step() {
	// Front-end: fetch a new instruction line every fetchGroup instructions.
	c.sinceIFetch++
	if c.sinceIFetch >= c.fetchGroup {
		c.sinceIFetch = 0
		addr, jump := c.gen.NextIFetch()
		stall := c.mem.IFetch(c.id, addr, jump)
		if stall > 0 {
			c.Stats.Cycles += stall
			c.Stats.FrontendCycles += stall
		}
	}

	kind := c.gen.NextKind()
	c.Stats.Instructions++
	c.Stats.Cycles += c.baseCPI
	c.Stats.BaseCycles += c.baseCPI

	switch kind {
	case trace.OpBranch:
		pc, taken := c.gen.NextBranch()
		if c.Stats.Branch.Record(c.pred, pc, taken) {
			cost := units.Cycles(c.cfg.MispredictCost)
			c.Stats.Cycles += cost
			c.Stats.BranchCycles += cost
		}
	case trace.OpLoad:
		c.Stats.Loads++
		addr, dependent := c.gen.NextMem(false)
		res := c.mem.Load(c.id, addr)
		c.Stats.LoadsAt[res.Level]++
		if res.Level == LevelL1 {
			return // L1 hits are part of the base CPI
		}
		visible := res.Latency - c.hideCycles
		if visible <= 0 {
			return
		}
		if !dependent {
			visible = visible.Scale(1 / c.effMLP)
		}
		c.Stats.Cycles += visible
		c.Stats.MemoryCycles += visible
	case trace.OpStore:
		c.Stats.Stores++
		addr, _ := c.gen.NextMem(true)
		res := c.mem.Store(c.id, addr)
		if res.Level == LevelL1 {
			return
		}
		// Stores are posted through the store buffer; they only throttle
		// the core when deep misses back up. Charge a small, buffered
		// fraction of the visible latency.
		visible := res.Latency - c.hideCycles
		if visible <= 0 {
			return
		}
		visible = visible.Scale(1 / (2 * c.effMLP))
		c.Stats.Cycles += visible
		c.Stats.MemoryCycles += visible
	}
}

// ResetStats zeroes the statistics (used at the warmup/measurement
// boundary) while preserving all microarchitectural state: caches stay
// warm, predictors stay trained, the generator keeps its position.
func (c *Core) ResetStats() {
	c.Stats = Stats{}
}
