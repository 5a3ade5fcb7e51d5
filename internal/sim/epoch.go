package sim

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"scalesim/internal/cache"
	"scalesim/internal/cpu"
	"scalesim/internal/dram"
	"scalesim/internal/noc"
	"scalesim/internal/pad"
	"scalesim/internal/units"
)

// This file is the epoch execution engine: the shared half of each core's
// memory system, the fork/join of per-worker core blocks, and the
// canonical-order barrier that makes parallel execution byte-identical to
// serial execution.
//
// Within an epoch, NoC and DRAM latencies are pure functions (they read only
// the utilization estimates frozen at the last epoch boundary), and cores
// share mutable state only through the LLC. Each core therefore executes
// against a thread-local view: its own stream of private-hierarchy events
// (front.go), LLC through a copy-on-write overlay (cache.Overlay) with every
// operation appended to an ordered log, and NoC/DRAM traffic into per-core
// accumulators. At the barrier the logs are replayed against the real NUCA
// in canonical core order (0, 1, 2, ...), each slice's share by the one epoch
// worker that owns it, and the accumulators merged the same way, so the
// machine state entering the next epoch is a pure function of the inputs —
// never of goroutine scheduling. See DESIGN.md, "Performance invariants".
//
// Independent in the model is not unshared on the host: everything a core
// owns is allocated through package pad, so that two cores never touch one
// host cache line (TestCoresShareNoCacheLine).

// llcOpKind tags one logged shared-LLC operation: bit 1 set for a fill, bit
// 0 for a write or a dirty fill.
type llcOpKind uint8

const (
	opRead llcOpKind = iota
	opWrite
	opFillClean
	opFillDirty
)

// llcOp is one logged shared-LLC operation and the home slice the overlay
// computed for it; 16 bytes, kept flat so the log is a single reusable arena
// with no per-access allocation.
type llcOp struct {
	addr  uint64
	slice int32
	kind  llcOpKind
}

// defaultEpochLogOps is the initial per-core LLC log capacity. Logs grow on
// demand and keep their high-water capacity across epochs. A variable only
// so the in-package determinism test can undersize it and exercise growth.
var defaultEpochLogOps = 4096

// coreCtx is the shared half of one core's memory system: what a core does
// below its private hierarchy. The partitioned-LLC slice is mutated directly
// — no other core touches it. The shared NUCA is reached through ov when the
// machine actually shares it between cores; traffic lands in the thread
// local accumulators either way.
type coreCtx struct {
	m    *machine
	core int

	// ov is the copy-on-write LLC view, nil when this machine's LLC is not
	// shared between concurrently executing cores (single core, or the
	// PartitionedLLC ablation); logs[w] records this core's shared-LLC
	// operations on the slices epoch worker w replays.
	ov   *cache.Overlay
	logs [][]llcOp

	nocAcc  noc.Acc
	dramAcc *dram.Acc

	// borrowed is the recorded production time of the chunks this core read
	// from a memoized stream without producing them (Result.WallClock).
	borrowed time.Duration
}

// beginEpoch rebases the overlay on the LLC state left by the last barrier.
func (c *coreCtx) beginEpoch() {
	if c.ov != nil {
		c.ov.BeginEpoch()
	}
}

// replay applies the logged LLC operations on the slices worker w owns to
// the real NUCA, core by core in canonical order, counting each core's into
// w's row (cache.NUCA.Replay). Replay victims generate no NoC/DRAM traffic —
// that was accounted at execution time from the overlay's view. Each slice
// is replayed by one worker in core order and operations on different slices
// commute, so how the slices are split never shows.
func (m *machine) replay(w int) {
	row := m.blocks[w].llc
	for i, cc := range m.ctxs {
		for _, op := range cc.logs[w] {
			m.llc.Replay(int(op.slice), op.addr, op.kind&2 != 0, op.kind&1 != 0, &row[i])
		}
	}
}

// logOp appends one shared-LLC operation on slice to the log of the worker
// that replays it. A log keeps its high-water capacity across epochs, so
// steady-state appends never grow; when it must, it moves to a larger padded
// arena rather than letting append pick an ordinary allocation.
func (c *coreCtx) logOp(addr uint64, slice int, kind llcOpKind) {
	log := &c.logs[c.m.owner[slice]]
	if len(*log) == cap(*log) {
		*log = append(pad.Slice[llcOp](2 * cap(*log))[:0], *log...)
	}
	*log = append(*log, llcOp{addr: addr, slice: int32(slice), kind: kind})
}

// llcAccess routes an LLC lookup to the partition, the overlay, or the
// shared NUCA directly, mirroring the serial semantics of each mode.
func (c *coreCtx) llcAccess(addr uint64, write bool) (slice int, hit bool) {
	m := c.m
	if m.part != nil {
		return c.core, m.part[c.core].Access(addr, write)
	}
	if c.ov != nil {
		slice, hit = c.ov.Access(addr, write)
		kind := opRead
		if write {
			kind = opWrite
		}
		c.logOp(addr, slice, kind)
		return slice, hit
	}
	// Serial fallback: ov is nil only when one core runs, so no worker
	// races the shared LLC.
	return m.llc.Access(c.core, addr, write)
}

// llcFill allocates addr, on its home slice, after a miss, returning any
// victim from this core's view.
func (c *coreCtx) llcFill(addr uint64, slice int, dirty bool) (victimAddr uint64, victimDirty, evicted bool) {
	m := c.m
	if m.part != nil {
		return m.part[c.core].Fill(addr, dirty)
	}
	if c.ov != nil {
		victimAddr, victimDirty, evicted = c.ov.Fill(addr, dirty)
		kind := opFillClean
		if dirty {
			kind = opFillDirty
		}
		c.logOp(addr, slice, kind)
		return victimAddr, victimDirty, evicted
	}
	// Serial fallback: ov is nil only when one core runs, so no worker
	// races the shared LLC.
	return m.llc.Fill(c.core, addr, dirty)
}

// llcProbe reports presence in this core's view without disturbing state.
func (c *coreCtx) llcProbe(addr uint64) bool {
	m := c.m
	if m.part != nil {
		return m.part[c.core].Probe(addr)
	}
	if c.ov != nil {
		return c.ov.Probe(addr)
	}
	return m.llc.Probe(addr)
}

// demand serves a data access that missed the L2 at addr. It returns the
// full load-to-use latency and the serving level.
func (c *coreCtx) demand(addr uint64) (units.Cycles, cpu.MemLevel) {
	m := c.m
	// LLC lookup via the NoC: core tile -> home slice tile.
	slice, hit := c.llcAccess(addr, false)
	nocLat := m.mesh.LatencyInto(&c.nocAcc, c.core, slice, reqBytes)
	lat := m.l1Time + m.l2Time + m.llcTime + nocLat
	if hit {
		return lat, cpu.LevelLLC
	}
	// DRAM access: home slice tile -> memory controller tile.
	mc := m.mem.MCOf(addr)
	mcTile := m.mesh.MCTile(mc, m.mem.Controllers())
	lat += m.mesh.LatencyInto(&c.nocAcc, slice, mcTile, reqBytes)
	lat += m.mem.AccessInto(c.dramAcc, c.core, addr, lineBytes, false)
	// LLC victims write back to DRAM.
	if victim, vdirty, evicted := c.llcFill(addr, slice, false); evicted && vdirty {
		vmc := m.mem.MCOf(victim)
		m.mesh.LatencyInto(&c.nocAcc, m.llcSliceOf(c.core, victim), m.mesh.MCTile(vmc, m.mem.Controllers()), reqBytes)
		m.mem.AccessInto(c.dramAcc, c.core, victim, lineBytes, true)
	}
	return lat, cpu.LevelDRAM
}

// writebackToLLC handles a dirty victim leaving the private hierarchy: merge
// into the LLC if present, otherwise bypass straight to DRAM (bandwidth only;
// writes are posted).
func (c *coreCtx) writebackToLLC(addr uint64) {
	m := c.m
	slice := m.llcSliceOf(c.core, addr)
	m.mesh.LatencyInto(&c.nocAcc, c.core, slice, reqBytes)
	if c.llcProbe(addr) {
		c.llcAccess(addr, true)
		return
	}
	m.mesh.LatencyInto(&c.nocAcc, slice, m.mesh.MCTile(m.mem.MCOf(addr), m.mem.Controllers()), reqBytes)
	m.mem.AccessInto(c.dramAcc, c.core, addr, lineBytes, true)
}

// fetchMiss serves a read that missed the L2 at addr and fills no L1-D: an
// instruction fetch, or a prefetch candidate brought in in the background.
// Both consume LLC and DRAM bandwidth. It returns the stall a non-sequential
// fetch (a jump target) pays beyond the pipelined L1-I access; a sequential
// fetch is hidden by the next-line prefetcher and a prefetch adds no latency
// to the demand miss that triggered it.
func (c *coreCtx) fetchMiss(addr uint64) units.Cycles {
	m := c.m
	slice, hit := c.llcAccess(addr, false)
	nocLat := m.mesh.LatencyInto(&c.nocAcc, c.core, slice, reqBytes)
	lat := m.l2Time + m.llcTime + nocLat
	if !hit {
		mc := m.mem.MCOf(addr)
		lat += m.mesh.LatencyInto(&c.nocAcc, slice, m.mesh.MCTile(mc, m.mem.Controllers()), reqBytes)
		lat += m.mem.AccessInto(c.dramAcc, c.core, addr, lineBytes, false)
		if victim, vdirty, evicted := c.llcFill(addr, slice, false); evicted && vdirty {
			m.mem.AccessInto(c.dramAcc, c.core, victim, lineBytes, true)
		}
	}
	return lat
}

// resolveWorkers maps the CoreWorkers option to an effective pool size:
// 0 (auto) means one worker per core up to GOMAXPROCS; explicit values are
// clamped to the core count. The result never affects simulation output,
// only wall-clock time.
func resolveWorkers(req, cores int) int {
	if req <= 0 {
		req = runtime.GOMAXPROCS(0)
	}
	if req > cores {
		req = cores
	}
	if req < 1 {
		req = 1
	}
	return req
}

// runEpoch advances every core by one epoch of at most cycles cycles, with
// limits[i] bounding core i's cumulative retired instructions (pass
// ^uint64(0) for no bound), then executes the deterministic barrier: LLC
// log replay and accumulator merge in canonical core order. ctx aborts
// between epochs only — one epoch of work is the cancellation granularity.
func (m *machine) runEpoch(ctx context.Context, cycles units.Cycles, limits []uint64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(m.blocks) > 1 {
		m.runCoresParallel(ctx, cycles, limits)
	} else {
		for i := range m.cores {
			m.runCore(i, cycles, limits[i])
		}
		m.replay(0)
	}
	// Epoch barrier. Replay order — not execution order — defines the LLC
	// state and statistics, so parallel and serial runs are byte-identical.
	// The per-core LLC counts and the accumulator sums are integer-valued,
	// the latter far below 2^53, so the float64 merges are exact and the
	// canonical order makes the result schedule-independent.
	for i, cc := range m.ctxs {
		for w := range m.blocks {
			m.llc.AddCoreStats(i, m.blocks[w].llc[i])
			m.blocks[w].llc[i] = cache.Stats{}
		}
		for w := range cc.logs {
			cc.logs[w] = cc.logs[w][:0]
		}
		m.mesh.Merge(&cc.nocAcc)
		m.mem.Merge(i, cc.dramAcc)
	}
	return nil
}

// runCore advances core i by one epoch against its thread-local view.
func (m *machine) runCore(i int, cycles units.Cycles, limit uint64) {
	m.ctxs[i].beginEpoch()
	m.cores[i].Run(cycles, limit)
}

// block is one worker's share of the cores in the current epoch: the
// half-open range [lo, hi) packed into one word, so that the owner taking
// from the front and a thief taking from the back can never both win the
// last core. Each block fills a host cache-line pair of its own.
type block struct {
	span atomic.Uint64 // lo<<32 | hi
	// llc is the worker's row of per-core LLC counts from its share of the
	// barrier replay, added into the NUCA's after it.
	llc []cache.Stats
	_   [pad.Line - 32]byte
}

const blockHi = 1<<32 - 1

// left returns the number of unclaimed cores.
func (b *block) left() int {
	s := b.span.Load()
	return int(s&blockHi) - int(s>>32)
}

// take claims the block's first core, or with back set its last one.
func (b *block) take(back bool) (core int, ok bool) {
	for {
		s := b.span.Load()
		lo, hi := s>>32, s&blockHi
		if lo >= hi {
			return 0, false
		}
		core, claimed := int(lo), s+1<<32
		if back {
			core, claimed = int(hi-1), s-1
		}
		if b.span.CompareAndSwap(s, claimed) {
			return core, true
		}
	}
}

// runCoresParallel executes the epoch's per-core work and replay on
// len(m.blocks) workers: the calling goroutine and one forked helper per
// further block, all joined before it returns. Worker w owns cores [w*n/W,
// (w+1)*n/W) — the same contiguous block every epoch, so a core's state
// stays in the cache of the host CPU that ran it last, and neighbours in
// memory run one after the other on one thread rather than at the same
// moment on two. Each core's work is independent given the frozen
// epoch-boundary state, so who runs it never shows in the logs and
// accumulators.
func (m *machine) runCoresParallel(ctx context.Context, cycles units.Cycles, limits []uint64) {
	n, workers := len(m.cores), len(m.blocks)
	for w := range m.blocks {
		m.blocks[w].span.Store(uint64(w*n/workers)<<32 | uint64((w+1)*n/workers))
	}
	m.ran.start(workers)
	m.replayed.start(workers)
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			m.work(w, cycles, limits)
		}(w)
	}
	m.work(0, cycles, limits)
	wg.Wait()
}

// work is worker w's epoch: its cores, then, once every core is done (replay
// changes the NUCA the overlays read), its slices' share of the replay.
// Waiting for the other workers at either point, it produces ahead for the
// cores it ran from the front of its own block: they are done with this
// epoch, and a front is a pure function of its program instance.
func (m *machine) work(w int, cycles units.Cycles, limits []uint64) {
	m.runBlock(w, cycles, limits)
	done := m.cores[w*len(m.cores)/len(m.blocks) : m.blocks[w].span.Load()>>32]
	done = m.ran.pass(done)
	m.replay(w)
	m.replayed.pass(done)
}

// phase is a point in the epoch every worker passes; left counts the
// workers not yet past it.
type phase struct {
	left atomic.Int32
	wg   sync.WaitGroup
}

func (p *phase) start(workers int) {
	p.left.Store(int32(workers))
	p.wg.Add(workers)
}

// pass marks one worker past p and waits for the others, producing ahead
// for each of done in turn, one chunk at a time, until they are past too; it
// returns those it did not get to.
func (p *phase) pass(done []executor) []executor {
	p.left.Add(-1)
	p.wg.Done()
	for len(done) > 0 && p.left.Load() > 0 {
		done[0].ahead()
		done = done[1:]
	}
	p.wg.Wait()
	return done
}

// runBlock is worker w's epoch: its own block front to back, then — cores
// differ in cost, so blocks do not finish together — one core at a time
// from the far end of whichever block has the most left, until none has.
func (m *machine) runBlock(w int, cycles units.Cycles, limits []uint64) {
	for i, ok := m.blocks[w].take(false); ok; i, ok = m.blocks[w].take(false) {
		m.runCore(i, cycles, limits[i])
	}
	for {
		victim, most := -1, 0
		for v := range m.blocks {
			if left := m.blocks[v].left(); left > most {
				victim, most = v, left
			}
		}
		if victim < 0 {
			return
		}
		if i, ok := m.blocks[victim].take(true); ok {
			m.runCore(i, cycles, limits[i])
		}
	}
}

// noLimits fills limits with "unbounded" for the free-running phases.
func noLimits(limits []uint64) []uint64 {
	for i := range limits {
		limits[i] = ^uint64(0)
	}
	return limits
}
