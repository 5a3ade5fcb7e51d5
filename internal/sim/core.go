package sim

import (
	"scalesim/internal/cache"
	"scalesim/internal/config"
	"scalesim/internal/cpu"
	"scalesim/internal/pad"
	"scalesim/internal/trace"
	"scalesim/internal/units"
)

// core is the timing half of the per-instruction path: package cpu's
// out-of-order interval model (see its documentation), consuming a stream's
// events instead of stepping a generator and a private hierarchy. Between
// events every instruction retires at the base rate; at an event the core
// charges exactly what cpu.Core.step charges, in the same floating-point
// order, and sends what left the private hierarchy to the machine's shared
// half. TestSplitMatchesMonolith holds it to cpu.Core bit for bit.
type core struct {
	shared *coreCtx
	str    *stream

	// Timing parameters, derived as cpu.New derives them.
	baseCPI, hideCycles, mispredict units.Cycles
	loadOverlap, storeOverlap       float64      // 1/MLP, and 1/(2 MLP) behind the store buffer
	l2Time, l2Latency               units.Cycles // an L2 hit seen by the fetch unit, and by a load

	// Cursor: chunks [0, next) are read; events[ev:] and instructions
	// [pos, chunkInstrs) of the last one are still ahead.
	next   int
	events []uint64
	ev     int
	pos    uint64

	// Stats counts since ResetStats. A stream says nothing about
	// instructions that hit, so the kind counts, LoadsAt[L1] and the private
	// levels' cumulative access and miss counts are derived when Run returns,
	// from how far the cursor has come and the events met on the way.
	Stats                                    cpu.Stats
	l1d, l2                                  cache.Stats
	dataMisses, ifetchMisses, l2Misses, wbL2 uint64
	reset                                    [3]uint64
}

// newCore returns the core of machine cfg that replays str, the stream of a
// front of prof, against shared.
func newCore(cfg *config.SystemConfig, prof *trace.Profile, str *stream, shared *coreCtx) *core {
	baseCPI := prof.BaseCPI
	if min := 1 / float64(cfg.Core.IssueWidth); baseCPI < min {
		baseCPI = min
	}
	// Independent misses overlap up to the profile's inherent MLP, bounded
	// by the L1-D MSHRs.
	mlp := prof.MLP
	if m := float64(cfg.Core.MaxL1DMisses); mlp > m {
		mlp = m
	}
	if mlp < 1 {
		mlp = 1
	}
	// Written on every instruction, so isolated from every other core's
	// (package pad).
	return pad.New(core{
		shared:  shared,
		str:     str,
		baseCPI: units.Cycles(baseCPI),
		// The reorder window hides roughly the time to drain half the ROB at
		// the base dispatch rate.
		hideCycles:   units.Cycles(float64(cfg.Core.ROBSize) / 2 / float64(cfg.Core.IssueWidth)),
		mispredict:   units.Cycles(cfg.Core.MispredictCost),
		loadOverlap:  1 / mlp,
		storeOverlap: 1 / (2 * mlp),
		l2Time:       units.Cycles(cfg.L2.AccessTime),
		l2Latency:    units.Cycles(cfg.L1D.AccessTime) + units.Cycles(cfg.L2.AccessTime),
		pos:          chunkInstrs,
	})
}

// Run retires instructions until cycleBudget cycles are consumed or
// instrBudget instructions have retired since the last ResetStats. It can be
// invoked repeatedly (epoch by epoch).
func (c *core) Run(cycleBudget units.Cycles, instrBudget uint64) {
	st := &c.Stats
	start := st.Cycles
	for st.Cycles-start < cycleBudget && st.Instructions < instrBudget {
		if c.pos == chunkInstrs {
			events, borrowed := c.str.chunk(c.next)
			c.shared.borrowed += borrowed
			c.events, c.next, c.ev, c.pos = events, c.next+1, 0, 0
		}
		// Retire up to the next instruction that has an event: cpu.Core.step's
		// two adds per instruction, under its budget test.
		stop := uint64(chunkInstrs)
		if c.ev < len(c.events) {
			stop = c.events[c.ev] >> evPosShift
		}
		pos, instrs, cycles, base, cpi := c.pos, st.Instructions, st.Cycles, st.BaseCycles, c.baseCPI
		for pos < stop && cycles-start < cycleBudget && instrs < instrBudget {
			pos++
			instrs++
			cycles += cpi
			base += cpi
		}
		c.pos, st.Instructions, st.Cycles, st.BaseCycles = pos, instrs, cycles, base
		if pos == stop && stop < chunkInstrs && cycles-start < cycleBudget && instrs < instrBudget {
			c.step()
		}
	}
	// Derive the counters that are a function of the cursor. The private
	// levels count from the start of the stream, as cache.Level does: every
	// data and I-fetch miss looks the L2 up, and so does a dirty L1-D victim
	// the L2 still holds.
	k := c.kinds()
	st.Loads, st.Stores, st.Branch.Branches = k[0]-c.reset[0], k[1]-c.reset[1], k[2]-c.reset[2]
	st.LoadsAt[cpu.LevelL1] = st.Loads - st.LoadsAt[cpu.LevelL2] - st.LoadsAt[cpu.LevelLLC] - st.LoadsAt[cpu.LevelDRAM]
	c.l1d = cache.Stats{Accesses: k[0] + k[1], Misses: c.dataMisses}
	c.l2 = cache.Stats{Accesses: c.dataMisses + c.ifetchMisses + c.wbL2, Misses: c.l2Misses}
}

// step retires the instruction at c.pos, which has events: its I-fetch
// first, then the instruction itself, then what its fills displaced.
func (c *core) step() {
	st, at := &c.Stats, c.pos
	if e := c.events[c.ev]; e&evKindMask == evIFetchL2 || e&evKindMask == evIFetchMiss {
		c.ev++
		c.ifetchMisses++
		stall := c.l2Time
		if e&evKindMask == evIFetchMiss {
			c.l2Misses++
			stall = c.shared.fetchMiss(e & evAddrMask)
		}
		// A sequential fetch is hidden by the next-line prefetcher: it warms
		// the hierarchy and consumes bandwidth but never stalls.
		if e&evFlag != 0 && stall > 0 {
			st.Cycles += stall
			st.FrontendCycles += stall
		}
	}
	st.Instructions++
	st.Cycles += c.baseCPI
	st.BaseCycles += c.baseCPI
	for ; c.ev < len(c.events) && c.events[c.ev]>>evPosShift == at; c.ev++ {
		e := c.events[c.ev]
		switch kind := e & evKindMask; kind {
		case evBranchMiss:
			st.Branch.Mispredicts++
			st.Cycles += c.mispredict
			st.BranchCycles += c.mispredict
		case evLoadL2, evLoadMiss, evStoreL2, evStoreMiss:
			c.dataMisses++
			latency, level := c.l2Latency, cpu.LevelL2
			if kind == evLoadMiss || kind == evStoreMiss {
				c.l2Misses++
				latency, level = c.shared.demand(e & evAddrMask)
			}
			// The reorder window hides part of the latency. What is left of an
			// independent load overlaps with its neighbours; a store is posted
			// through the store buffer and only throttles the core when deep
			// misses back up.
			overlap := c.storeOverlap
			if kind == evLoadL2 || kind == evLoadMiss {
				st.LoadsAt[level]++
				if overlap = c.loadOverlap; e&evFlag != 0 {
					overlap = 1 // serially dependent on the previous miss
				}
			}
			if visible := latency - c.hideCycles; visible > 0 {
				visible = visible.Scale(overlap)
				st.Cycles += visible
				st.MemoryCycles += visible
			}
		case evWritebackL2:
			c.wbL2++
		case evWritebackLLC:
			c.shared.writebackToLLC(e & evAddrMask)
		case evPrefetchMiss:
			c.shared.fetchMiss(e & evAddrMask)
		}
	}
	c.pos++
}

// ahead produces the chunk Run reads next into a private stream, unless it
// holds it already.
func (c *core) ahead() { c.str.ahead() }

// kinds returns the loads, stores and branches retired since the stream's
// start.
func (c *core) kinds() [3]uint64 {
	return c.str.kindsBefore(uint64(c.next)*chunkInstrs + c.pos - chunkInstrs)
}

// ResetStats zeroes the statistics at the warmup/measurement boundary; the
// cursor, and with it all microarchitectural state, stays where it is.
func (c *core) ResetStats() { c.Stats, c.reset = cpu.Stats{}, c.kinds() }

func (c *core) stats() *cpu.Stats { return &c.Stats }

func (c *core) private() (l1d, l2 cache.Stats) { return c.l1d, c.l2 }
