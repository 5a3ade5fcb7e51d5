package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"scalesim/internal/branch"
	"scalesim/internal/cache"
	"scalesim/internal/config"
	"scalesim/internal/cpu"
	"scalesim/internal/trace"
	"scalesim/internal/units"
	"scalesim/internal/xrand"
)

// This file is the oracle for the front/core split (DESIGN.md, "Performance
// invariants", 7): the per-instruction path as it was when one cpu.Core
// stepped generator, predictor, private caches and shared hierarchy in one
// loop. monolithCtx is that path's cpu.MemSystem — coreCtx's Load, Store,
// IFetch, resolve, fillL1, fillL2, writebackToL2 and prefetch, moved here
// verbatim — over the machine's unchanged LLC/NoC/DRAM primitives.

type monolithCtx struct {
	*coreCtx
	l1i, l1d, l2 *cache.Level
	pf           *cache.StridePrefetcher
}

// prefetch issues the prefetcher's candidates for a demand L2 miss: each
// candidate is brought into the L2 in the background, consuming LLC/DRAM
// bandwidth but adding no latency to the triggering access.
func (c *monolithCtx) prefetch(addr uint64) {
	m := c.m
	if c.pf == nil {
		return
	}
	cands, n := c.pf.OnMiss(addr)
	for _, pa := range cands[:n] {
		if c.l2.Probe(pa) {
			continue
		}
		slice, hit := c.llcAccess(pa, false)
		m.mesh.LatencyInto(&c.nocAcc, c.core, slice, reqBytes)
		if !hit {
			m.mesh.LatencyInto(&c.nocAcc, slice, m.mesh.MCTile(m.mem.MCOf(pa), m.mem.Controllers()), reqBytes)
			m.mem.AccessInto(c.dramAcc, c.core, pa, lineBytes, false)
			if victim, vdirty, evicted := c.llcFill(pa, slice, false); evicted && vdirty {
				m.mem.AccessInto(c.dramAcc, c.core, victim, lineBytes, true)
			}
		}
		c.fillL2(pa, false)
	}
}

// resolve serves a data access that missed in L1 at addr, filling the
// hierarchy on its way back. It returns the total added latency beyond L1
// and the serving level.
func (c *monolithCtx) resolve(addr uint64, dirtyFill bool) cpu.MemResult {
	m := c.m
	// L2 lookup.
	if c.l2.Access(addr, false) {
		c.fillL1(addr, dirtyFill)
		return cpu.MemResult{Latency: m.l1Time + m.l2Time, Level: cpu.LevelL2}
	}
	// Demand L2 miss: train the prefetcher (if any) before going out.
	c.prefetch(addr)
	// LLC lookup via the NoC: core tile -> home slice tile.
	slice, hit := c.llcAccess(addr, false)
	nocLat := m.mesh.LatencyInto(&c.nocAcc, c.core, slice, reqBytes)
	lat := m.l1Time + m.l2Time + m.llcTime + nocLat
	if hit {
		c.fillL2(addr, false)
		c.fillL1(addr, dirtyFill)
		return cpu.MemResult{Latency: lat, Level: cpu.LevelLLC}
	}
	// DRAM access: home slice tile -> memory controller tile.
	mc := m.mem.MCOf(addr)
	mcTile := m.mesh.MCTile(mc, m.mem.Controllers())
	lat += m.mesh.LatencyInto(&c.nocAcc, slice, mcTile, reqBytes)
	lat += m.mem.AccessInto(c.dramAcc, c.core, addr, lineBytes, false)
	// Fill the hierarchy; LLC victims write back to DRAM.
	if victim, vdirty, evicted := c.llcFill(addr, slice, false); evicted && vdirty {
		vmc := m.mem.MCOf(victim)
		m.mesh.LatencyInto(&c.nocAcc, m.llcSliceOf(c.core, victim), m.mesh.MCTile(vmc, m.mem.Controllers()), reqBytes)
		m.mem.AccessInto(c.dramAcc, c.core, victim, lineBytes, true)
	}
	c.fillL2(addr, false)
	c.fillL1(addr, dirtyFill)
	return cpu.MemResult{Latency: lat, Level: cpu.LevelDRAM}
}

// fillL1 allocates addr in this core's L1-D; dirty victims write through to
// the L2.
func (c *monolithCtx) fillL1(addr uint64, dirty bool) {
	victim, vdirty, evicted := c.l1d.Fill(addr, dirty)
	if evicted && vdirty {
		c.writebackToL2(victim)
	}
}

// fillL2 allocates addr in this core's L2; dirty victims write to the LLC.
func (c *monolithCtx) fillL2(addr uint64, dirty bool) {
	victim, vdirty, evicted := c.l2.Fill(addr, dirty)
	if evicted && vdirty {
		c.writebackToLLC(victim)
	}
}

// writebackToL2 handles a dirty L1-D victim. Writebacks never allocate on a
// miss (no-allocate policy): if the line is gone from the L2 it is forwarded
// down the hierarchy.
func (c *monolithCtx) writebackToL2(addr uint64) {
	if c.l2.Probe(addr) {
		c.l2.Access(addr, true)
		return
	}
	c.writebackToLLC(addr)
}

// Load implements cpu.MemSystem.
func (c *monolithCtx) Load(core int, addr uint64) cpu.MemResult {
	if c.l1d.Access(addr, false) {
		return cpu.MemResult{Latency: c.m.l1Time, Level: cpu.LevelL1}
	}
	return c.resolve(addr, false)
}

// Store implements cpu.MemSystem (write-allocate).
func (c *monolithCtx) Store(core int, addr uint64) cpu.MemResult {
	if c.l1d.Access(addr, true) {
		return cpu.MemResult{Latency: c.m.l1Time, Level: cpu.LevelL1}
	}
	return c.resolve(addr, true)
}

// IFetch implements cpu.MemSystem. Sequential fetches are covered by the
// next-line prefetcher: they keep the hierarchy state warm and consume
// bandwidth but never stall. Non-sequential fetches (jump targets) stall
// the front end for their full latency beyond the pipelined L1-I access.
func (c *monolithCtx) IFetch(core int, addr uint64, jump bool) units.Cycles {
	m := c.m
	if c.l1i.Access(addr, false) {
		return 0
	}
	// Instruction lines are clean; reuse the data path read logic against
	// L2/LLC/DRAM but fill the L1-I instead of the L1-D.
	if c.l2.Access(addr, false) {
		c.l1i.Fill(addr, false)
		if !jump {
			return 0
		}
		return m.l2Time
	}
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
	c.fillL2(addr, false)
	c.l1i.Fill(addr, false)
	if !jump {
		return 0 // hidden by the next-line prefetcher
	}
	return lat
}

// monolithCore is cpu.Core over a monolithCtx, as the run loops see a core.
type monolithCore struct {
	core *cpu.Core
	mem  *monolithCtx
}

func (c *monolithCore) Run(cycles units.Cycles, limit uint64) { c.core.Run(cycles, limit) }
func (c *monolithCore) ResetStats()                           { c.core.ResetStats() }
func (c *monolithCore) stats() *cpu.Stats                     { return &c.core.Stats }
func (c *monolithCore) private() (l1d, l2 cache.Stats)        { return c.mem.l1d.Stats, c.mem.l2.Stats }
func (c *monolithCore) ahead()                                {}

// monolith returns newMachine's builder for the oracle: core i steps gen(i)
// through private caches built exactly as the machine used to build them.
func monolith(cfg *config.SystemConfig, opts Options, gen func(i int) (*trace.Generator, error)) func(int, *coreCtx) (executor, error) {
	return func(i int, cc *coreCtx) (executor, error) {
		mem := &monolithCtx{coreCtx: cc}
		var err error
		if mem.l1i, err = cache.NewLevel(cfg.L1I, 1); err != nil {
			return nil, err
		}
		if mem.l1d, err = cache.NewLevel(cfg.L1D, opts.CapacityScale); err != nil {
			return nil, err
		}
		if mem.l2, err = cache.NewLevel(cfg.L2, opts.CapacityScale); err != nil {
			return nil, err
		}
		if opts.EnablePrefetch {
			mem.pf = cache.NewStridePrefetcher(int(cfg.L2.LineSize))
		}
		g, err := gen(i)
		if err != nil {
			return nil, err
		}
		c, err := cpu.New(i, cfg.Core, g, branch.NewTournament(), mem)
		if err != nil {
			return nil, err
		}
		return &monolithCore{core: c, mem: mem}, nil
	}
}

// splitCase is one point of TestSplitMatchesMonolith's matrix.
type splitCase struct {
	cores                             int
	hetero                            bool
	prefetch, partitioned, noFeedback bool
	seed                              uint64
}

func (c splitCase) String() string {
	return fmt.Sprintf("cores=%d hetero=%v prefetch=%v partitioned=%v nofeedback=%v seed=%d",
		c.cores, c.hetero, c.prefetch, c.partitioned, c.noFeedback, c.seed)
}

func (c splitCase) options() Options {
	return Options{
		Instructions: 30_000, Warmup: 12_000, EpochCycles: 5_000, CapacityScale: 32, Seed: c.seed,
		EnablePrefetch: c.prefetch, PartitionedLLC: c.partitioned, NoFeedback: c.noFeedback,
		Telemetry: &TelemetryOptions{Warmup: true},
	}
}

// mix returns the case's workload on a machine of the given size: the first
// programs of one 16-program sequence, so that machines of two sizes run the
// same instances.
func (c splitCase) mix(cores int) Workload {
	// trace.ByName hands out the shared profiles a memo keys on.
	names, rng := trace.Names(), xrand.New(c.seed)
	wl := Homogeneous(trace.ByName(names[rng.Intn(len(names))]), cores)
	if c.hetero {
		for i := 0; i < 16; i++ {
			if prof := trace.ByName(names[rng.Intn(len(names))]); i < cores {
				wl.Profiles[i] = prof
			}
		}
	}
	return wl
}

// jsonl renders a trace the way `scalesim simulate -trace` writes it.
func jsonl(t *testing.T, trace []EpochSnapshot) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range trace {
		if err := enc.Encode(&trace[i]); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// countersMatch steps the case's machine both ways for a few epochs and
// compares what a Result does not show: every field of each core's
// cpu.Stats, the derived ones included, and the private levels' access and
// miss counts, at every epoch boundary.
func countersMatch(t *testing.T, c splitCase, cfg *config.SystemConfig, wl Workload, opts Options) {
	opts = opts.Resolved()
	split, err := mixMachine(nil, cfg, wl, opts)
	if err != nil {
		t.Fatal(err)
	}
	mono, err := newMachine(cfg, len(wl.Profiles), opts, monolith(cfg, opts, func(i int) (*trace.Generator, error) {
		return trace.NewGenerator(wl.Profiles[i], trace.GenOptions{Instance: i, CapacityScale: opts.CapacityScale, Seed: opts.Seed})
	}))
	if err != nil {
		t.Fatal(err)
	}
	limits := noLimits(make([]uint64, cfg.Cores))
	for epoch := 0; epoch < 6; epoch++ {
		for _, m := range []*machine{split, mono} {
			if err := m.runEpoch(context.Background(), opts.EpochCycles, limits); err != nil {
				t.Fatal(err)
			}
			m.endEpoch(opts.EpochCycles)
			if epoch == 2 {
				for _, core := range m.cores {
					core.ResetStats()
				}
			}
		}
		for i := range split.cores {
			if got, want := *split.cores[i].stats(), *mono.cores[i].stats(); got != want {
				t.Fatalf("%v: epoch %d core %d:\n split    %+v\n monolith %+v", c, epoch, i, got, want)
			}
			l1d, l2 := split.cores[i].private()
			wantL1D, wantL2 := mono.cores[i].private()
			if l1d.Accesses != wantL1D.Accesses || l1d.Misses != wantL1D.Misses || l2.Accesses != wantL2.Accesses || l2.Misses != wantL2.Misses {
				t.Fatalf("%v: epoch %d core %d: private levels %+v %+v, monolith %+v %+v", c, epoch, i, l1d, l2, wantL1D, wantL2)
			}
		}
	}
}

// TestSplitMatchesMonolith holds serial ≡ parallel ≡ traced ≡ memoized ≡
// the monolithic core: over a seeded matrix of machines, mixes and
// ablations, a run through fronts and cores — with private streams, through
// an empty memo, and through a memo a machine of another size has already
// filled, on one epoch worker and on two — returns the Result of cpu.Core
// stepping the monolithic memory system, field for field (WallClock aside),
// and the same per-epoch telemetry byte for byte.
func TestSplitMatchesMonolith(t *testing.T) {
	var cases []splitCase
	seed := uint64(0)
	for _, cores := range []int{1, 2, 4, 8} {
		for flags := 0; flags < 16; flags++ {
			seed++
			cases = append(cases, splitCase{
				cores: cores, hetero: flags&1 != 0, prefetch: flags&2 != 0,
				partitioned: flags&4 != 0, noFeedback: flags&8 != 0, seed: seed,
			})
		}
	}
	if testing.Short() {
		// A seeded sixth of the matrix.
		rng := xrand.New(24)
		rng.Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })
		cases = cases[:len(cases)/6]
	}
	ctx := context.Background()
	for _, c := range cases {
		cfg, opts, wl := scaleModel(t, c.cores), c.options(), c.mix(c.cores)
		want, err := runMachine(ctx, cfg, wl, opts, monolith(cfg, opts, func(i int) (*trace.Generator, error) {
			return trace.NewGenerator(wl.Profiles[i], trace.GenOptions{Instance: i, CapacityScale: opts.CapacityScale, Seed: opts.Seed})
		}))
		if err != nil {
			t.Fatalf("%v: monolith: %v", c, err)
		}
		want.WallClock = 0
		wantTrace := jsonl(t, want.Trace)
		countersMatch(t, c, cfg, wl, opts)

		for _, workers := range []int{1, 2} {
			opts.CoreWorkers = workers
			for _, memo := range []string{"none", "empty", "filled"} {
				var fronts *Fronts
				if memo != "none" {
					fronts = NewFronts()
				}
				if memo == "filled" {
					// A machine of another size, with another shared half,
					// reads the same instances first.
					other := c.cores * 2
					if _, err := fronts.RunContext(ctx, scaleModel(t, other), c.mix(other), opts); err != nil {
						t.Fatalf("%v: filling the memo: %v", c, err)
					}
				}
				got, err := fronts.RunContext(ctx, cfg, wl, opts)
				if err != nil {
					t.Fatalf("%v workers=%d memo=%s: %v", c, workers, memo, err)
				}
				if memo == "filled" && got.WallClock == 0 {
					t.Fatalf("%v: a run served from a filled memo reports no WallClock", c)
				}
				got.WallClock = 0
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v workers=%d memo=%s: split run differs from the monolith:\n split    %+v\n monolith %+v", c, workers, memo, got.Cores, want.Cores)
				}
				if !bytes.Equal(jsonl(t, got.Trace), wantTrace) {
					t.Fatalf("%v workers=%d memo=%s: telemetry differs from the monolith's", c, workers, memo)
				}
				if memo == "filled" {
					if st := fronts.Stats(); st.ChunksConsumed <= st.ChunksProduced || st.StreamsBuilt != 2*c.cores {
						t.Fatalf("%v: the second machine shared nothing: %+v", c, st)
					}
				}
			}
		}
	}

	// A threaded program takes the same loop, its fronts over thread
	// generators and its epochs bounded by barriers.
	cfg, opts := scaleModel(t, 4), parOpts()
	opts.EnablePrefetch, opts.Telemetry = true, &TelemetryOptions{Warmup: true}
	for _, pp := range trace.ParallelSuite()[:2] {
		wl := Workload{Threads: pp}
		want, err := runMachine(ctx, cfg, wl, opts.Resolved(), monolith(cfg, opts, func(i int) (*trace.Generator, error) {
			return trace.NewThreadGenerator(pp, i, cfg.Cores, trace.GenOptions{CapacityScale: opts.CapacityScale, Seed: opts.Seed})
		}))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			opts.CoreWorkers = workers
			got, err := NewFronts().RunContext(ctx, cfg, wl, opts)
			if err != nil {
				t.Fatal(err)
			}
			got.WallClock, want.WallClock = 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s workers=%d: split threaded run differs from the monolith:\n split    %+v\n monolith %+v", pp.Serial.Name, workers, got.Cores, want.Cores)
			}
			if !bytes.Equal(jsonl(t, got.Trace), jsonl(t, want.Trace)) {
				t.Fatalf("%s workers=%d: telemetry differs from the monolith's", pp.Serial.Name, workers)
			}
		}
	}
}
