package cpu

import (
	"testing"

	"scalesim/internal/branch"
	"scalesim/internal/config"
	"scalesim/internal/trace"
	"scalesim/internal/units"
)

// fakeMem serves every load at a fixed level/latency.
type fakeMem struct {
	level   MemLevel
	latency units.Cycles
	loads   int
	stores  int
	ifetch  int
}

func (f *fakeMem) Load(core int, addr uint64) MemResult {
	f.loads++
	return MemResult{Latency: f.latency, Level: f.level}
}

func (f *fakeMem) Store(core int, addr uint64) MemResult {
	f.stores++
	return MemResult{Latency: f.latency, Level: f.level}
}

func (f *fakeMem) IFetch(core int, addr uint64, jump bool) units.Cycles {
	f.ifetch++
	return 0
}

func coreConfig() config.CoreConfig {
	return config.Target().Core
}

func newCore(t *testing.T, profName string, mem MemSystem) *Core {
	t.Helper()
	gen, err := trace.NewGenerator(trace.ByName(profName), trace.GenOptions{Seed: 42, CapacityScale: 8})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(0, coreConfig(), gen, branch.NewTournament(), mem)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	gen, _ := trace.NewGenerator(trace.ByName("gcc"), trace.GenOptions{Seed: 1})
	if _, err := New(0, coreConfig(), nil, branch.NewTournament(), &fakeMem{}); err == nil {
		t.Error("nil generator accepted")
	}
	if _, err := New(0, coreConfig(), gen, nil, &fakeMem{}); err == nil {
		t.Error("nil predictor accepted")
	}
	bad := coreConfig()
	bad.IssueWidth = 0
	if _, err := New(0, bad, gen, branch.NewTournament(), &fakeMem{}); err == nil {
		t.Error("invalid core config accepted")
	}
}

func TestAllL1HitsApproachesBaseCPI(t *testing.T) {
	mem := &fakeMem{level: LevelL1, latency: 4}
	c := newCore(t, "exchange2", mem)
	c.Run(1e9, 200000)
	ipc := c.Stats.IPC()
	prof := trace.ByName("exchange2")
	// With all L1 hits the CPI is base CPI plus branch mispredict cycles.
	maxIPC := 1 / prof.BaseCPI
	if ipc > maxIPC {
		t.Fatalf("IPC %.3f exceeds ILP limit %.3f", ipc, maxIPC)
	}
	if ipc < 0.5*maxIPC {
		t.Fatalf("IPC %.3f far below ILP limit %.3f with a perfect cache", ipc, maxIPC)
	}
}

func TestMemoryLatencySlowsCore(t *testing.T) {
	fast := newCore(t, "lbm", &fakeMem{level: LevelL1, latency: 4})
	slow := newCore(t, "lbm", &fakeMem{level: LevelDRAM, latency: 300})
	fast.Run(1e9, 100000)
	slow.Run(1e9, 100000)
	if slow.Stats.IPC() >= fast.Stats.IPC()/2 {
		t.Fatalf("DRAM-bound IPC %.3f not well below L1-bound IPC %.3f",
			slow.Stats.IPC(), fast.Stats.IPC())
	}
}

func TestShortLatenciesHiddenByROB(t *testing.T) {
	// L2-hit latency (12 cycles) is below the ROB hide capacity
	// (128/2/4 = 16 cycles): the core should lose (almost) nothing.
	l1 := newCore(t, "imagick", &fakeMem{level: LevelL1, latency: 4})
	l2 := newCore(t, "imagick", &fakeMem{level: LevelL2, latency: 12})
	l1.Run(1e9, 100000)
	l2.Run(1e9, 100000)
	ratio := l2.Stats.IPC() / l1.Stats.IPC()
	if ratio < 0.95 {
		t.Fatalf("L2-hit IPC ratio %.3f; short latencies must be hidden by the OoO window", ratio)
	}
}

func TestMLPAmortisesIndependentMisses(t *testing.T) {
	// Same DRAM latency: the high-MLP streaming benchmark (lbm, MLP 9)
	// must lose far less than the dependent pointer chaser (mcf).
	hi := newCore(t, "lbm", &fakeMem{level: LevelDRAM, latency: 300})
	hi.Run(1e9, 100000)
	lo := newCore(t, "mcf", &fakeMem{level: LevelDRAM, latency: 300})
	lo.Run(1e9, 100000)
	// Compare memory stall per load rather than raw IPC (different mixes).
	hiStall := float64(hi.Stats.MemoryCycles) / float64(hi.Stats.Loads)
	loStall := float64(lo.Stats.MemoryCycles) / float64(lo.Stats.Loads)
	if hiStall >= loStall {
		t.Fatalf("high-MLP stall/load %.1f >= low-MLP stall/load %.1f", hiStall, loStall)
	}
}

func TestDependentLoadsPayFullLatency(t *testing.T) {
	// mcf's chase loads are Dependent: stall per dependent load should be
	// ~ latency - hide, not divided by MLP.
	mem := &fakeMem{level: LevelDRAM, latency: 300}
	c := newCore(t, "mcf", mem)
	c.Run(1e9, 200000)
	hide := float64(coreConfig().ROBSize) / 2 / float64(coreConfig().IssueWidth)
	full := 300 - hide
	// mcf profile: 5.5% of region accesses are chases; dependent loads pay
	// `full`, independent ones pay full/MLP. Average must sit between.
	avg := float64(c.Stats.MemoryCycles) / float64(c.Stats.Loads+c.Stats.Stores)
	if avg <= full/10 || avg >= full {
		t.Fatalf("avg stall %.1f outside (%.1f, %.1f)", avg, full/10, full)
	}
}

func TestBranchMispredictsCharged(t *testing.T) {
	mem := &fakeMem{level: LevelL1, latency: 4}
	c := newCore(t, "deepsjeng", mem) // branchy, hard branches
	c.Run(1e9, 300000)
	if c.Stats.Branch.Branches == 0 {
		t.Fatal("no branches recorded")
	}
	if c.Stats.Branch.Mispredicts == 0 {
		t.Fatal("no mispredictions on a hard-branch benchmark")
	}
	if c.Stats.BranchCycles == 0 {
		t.Fatal("no branch penalty cycles charged")
	}
	wantPenalty := float64(c.Stats.Branch.Mispredicts) * float64(coreConfig().MispredictCost)
	if float64(c.Stats.BranchCycles) != wantPenalty {
		t.Fatalf("branch cycles %.0f, want mispredicts x cost = %.0f", float64(c.Stats.BranchCycles), wantPenalty)
	}
}

func TestRunRespectsBudgets(t *testing.T) {
	mem := &fakeMem{level: LevelL1, latency: 4}
	c := newCore(t, "gcc", mem)
	used := c.Run(1000, 1<<62)
	if used < 1000 {
		t.Fatalf("Run stopped at %.0f cycles with budget 1000 and unlimited instructions", used)
	}
	if used > 1400 {
		t.Fatalf("Run overshot the cycle budget: %.0f", used)
	}
	c2 := newCore(t, "gcc", mem)
	c2.Run(1e12, 5000)
	if c2.Stats.Instructions != 5000 {
		t.Fatalf("instruction budget: retired %d, want exactly 5000", c2.Stats.Instructions)
	}
}

func TestRunResumable(t *testing.T) {
	mem := &fakeMem{level: LevelL1, latency: 4}
	whole := newCore(t, "gcc", mem)
	whole.Run(1e12, 50000)

	parts := newCore(t, "gcc", &fakeMem{level: LevelL1, latency: 4})
	for parts.Stats.Instructions < 50000 {
		parts.Run(500, 50000)
	}
	if whole.Stats.Instructions != parts.Stats.Instructions {
		t.Fatalf("instructions differ: %d vs %d", whole.Stats.Instructions, parts.Stats.Instructions)
	}
	// Identical streams and memory behaviour: cycle counts must match.
	if diff := whole.Stats.Cycles - parts.Stats.Cycles; diff > 1 || diff < -1 {
		t.Fatalf("epoch-split execution diverged: %.1f vs %.1f cycles", whole.Stats.Cycles, parts.Stats.Cycles)
	}
}

func TestResetStatsPreservesPosition(t *testing.T) {
	c := newCore(t, "gcc", &fakeMem{level: LevelL1, latency: 4})
	twin := newCore(t, "gcc", &fakeMem{level: LevelL1, latency: 4})
	c.Run(1e12, 10000)
	twin.Run(1e12, 10000)
	c.ResetStats()
	if c.Stats.Instructions != 0 || c.Stats.Cycles != 0 {
		t.Fatal("stats not zeroed")
	}
	if got, want := c.gen.Next(), twin.gen.Next(); got != want {
		t.Fatalf("generator position moved by ResetStats: next op %+v, an unreset twin's %+v", got, want)
	}
}

func TestIFetchStallsCharged(t *testing.T) {
	mem := &fakeMem{level: LevelL1, latency: 4}
	c := newCore(t, "gcc", mem)
	c.Run(1e12, 64000)
	// One I-fetch per 16 instructions.
	want := 64000 / 16
	if mem.ifetch < want-1 || mem.ifetch > want+1 {
		t.Fatalf("ifetches %d, want ~%d", mem.ifetch, want)
	}
}

func TestStatsLevelAttribution(t *testing.T) {
	mem := &fakeMem{level: LevelLLC, latency: 60}
	c := newCore(t, "gcc", mem)
	c.Run(1e12, 50000)
	if c.Stats.LoadsAt[LevelLLC] != c.Stats.Loads {
		t.Fatalf("LLC loads %d != total loads %d", c.Stats.LoadsAt[LevelLLC], c.Stats.Loads)
	}
	if c.Stats.IPC() <= 0 {
		t.Fatal("non-positive IPC")
	}
}

func BenchmarkCoreStep(b *testing.B) {
	gen, _ := trace.NewGenerator(trace.ByName("gcc"), trace.GenOptions{Seed: 1, CapacityScale: 8})
	c, _ := New(0, config.Target().Core, gen, branch.NewTournament(), &fakeMem{level: LevelL1, latency: 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.step()
	}
}

// hashMem is a MemSystem whose every answer is a hash of the address: a core
// that draws one different address, or makes the same draws in a different
// order, ends up with different Stats.
type hashMem struct{}

func hashAddr(addr, salt uint64) uint64 { return ((addr ^ salt) * 0x9e3779b97f4a7c15) >> 40 }

func hashResult(addr, salt uint64) MemResult {
	h := hashAddr(addr, salt)
	return MemResult{Level: LevelL1 + MemLevel(h%4), Latency: units.Cycles(4 + h>>2%300)}
}

func (hashMem) Load(core int, addr uint64) MemResult  { return hashResult(addr, 1) }
func (hashMem) Store(core int, addr uint64) MemResult { return hashResult(addr, 2) }

func (hashMem) IFetch(core int, addr uint64, jump bool) units.Cycles {
	if !jump {
		return 0
	}
	return units.Cycles(hashAddr(addr, 3) % 40)
}

// refStep is Core.step as it was while the core consumed whole trace.Op
// values from Generator.Next, kept as the oracle for the typed pulls.
func refStep(c *Core) {
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

	op := c.gen.Next()
	c.Stats.Instructions++
	c.Stats.Cycles += c.baseCPI
	c.Stats.BaseCycles += c.baseCPI

	switch op.Kind {
	case trace.OpBranch:
		if c.Stats.Branch.Record(c.pred, op.BranchPC, op.Taken) {
			cost := units.Cycles(c.cfg.MispredictCost)
			c.Stats.Cycles += cost
			c.Stats.BranchCycles += cost
		}
	case trace.OpLoad:
		c.Stats.Loads++
		res := c.mem.Load(c.id, op.Addr)
		c.Stats.LoadsAt[res.Level]++
		if res.Level == LevelL1 {
			return
		}
		visible := res.Latency - c.hideCycles
		if visible <= 0 {
			return
		}
		if !op.Dependent {
			visible = visible.Scale(1 / c.effMLP)
		}
		c.Stats.Cycles += visible
		c.Stats.MemoryCycles += visible
	case trace.OpStore:
		c.Stats.Stores++
		res := c.mem.Store(c.id, op.Addr)
		if res.Level == LevelL1 {
			return
		}
		visible := res.Latency - c.hideCycles
		if visible <= 0 {
			return
		}
		visible = visible.Scale(1 / (2 * c.effMLP))
		c.Stats.Cycles += visible
		c.Stats.MemoryCycles += visible
	}
}

// TestCoreMatchesOpReference runs every profile on two cores over the same
// address-sensitive memory system, one stepping through the typed pulls and
// one through refStep: every counter and every cycle total must agree
// exactly, and both generators must stand at the same instruction.
func TestCoreMatchesOpReference(t *testing.T) {
	for _, prof := range trace.Suite() {
		for _, instance := range []int{0, 31} {
			var cores [2]*Core
			for i := range cores {
				gen, err := trace.NewGenerator(prof, trace.GenOptions{Instance: instance, Seed: 7, CapacityScale: 32})
				if err != nil {
					t.Fatal(err)
				}
				if cores[i], err = New(instance, coreConfig(), gen, branch.NewTournament(), hashMem{}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 50_000; i++ {
				cores[0].step()
				refStep(cores[1])
			}
			if got, want := cores[0].Stats, cores[1].Stats; got != want {
				t.Errorf("%s instance %d: stats diverge from the Op consumer\n got  %+v\n want %+v", prof.Name, instance, got, want)
			}
			if want := cores[1].Stats; want.FrontendCycles == 0 || want.MemoryCycles == 0 {
				t.Errorf("%s instance %d: the oracle saw no front-end or memory stall, so it compares nothing: %+v", prof.Name, instance, want)
			}
			if got, want := cores[0].gen.Next(), cores[1].gen.Next(); got != want {
				t.Errorf("%s instance %d: generator left at %+v, the Op consumer's at %+v", prof.Name, instance, got, want)
			}
		}
	}
}
