package trace

import (
	"math"
	"testing"
	"testing/quick"

	"scalesim/internal/config"
)

func TestSuiteHas29ValidProfiles(t *testing.T) {
	suite := Suite()
	if len(suite) != 29 {
		t.Fatalf("suite has %d profiles, want 29 (paper: N=29 for SPEC CPU2017)", len(suite))
	}
	seen := map[string]bool{}
	for _, p := range suite {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if seen[p.Name] {
			t.Errorf("duplicate profile name %q", p.Name)
		}
		seen[p.Name] = true
	}
	for _, name := range []string{"milc", "lbm", "mcf", "exchange2"} {
		if !seen[name] {
			t.Errorf("suite missing paper-referenced benchmark %q", name)
		}
	}
}

func TestByName(t *testing.T) {
	if p := ByName("lbm"); p == nil || p.Name != "lbm" {
		t.Fatalf("ByName(lbm) = %v", p)
	}
	if p := ByName("no-such-benchmark"); p != nil {
		t.Fatalf("ByName(no-such-benchmark) = %v, want nil", p)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p := ByName("gcc")
	mk := func() *Generator {
		g, err := NewGenerator(p, GenOptions{Instance: 3, CapacityScale: 8, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	a, b := mk(), mk()
	for i := 0; i < 50000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("streams diverged at instruction %d", i)
		}
	}
}

func TestInstancesDecorrelated(t *testing.T) {
	p := ByName("lbm")
	g0, _ := NewGenerator(p, GenOptions{Instance: 0, Seed: 1})
	g1, _ := NewGenerator(p, GenOptions{Instance: 1, Seed: 1})
	sameAddr := 0
	memOps := 0
	for i := 0; i < 20000; i++ {
		a, b := g0.Next(), g1.Next()
		if a.Kind == OpLoad && b.Kind == OpLoad {
			memOps++
			if a.Addr == b.Addr {
				sameAddr++
			}
		}
	}
	if sameAddr > 0 {
		t.Fatalf("%d/%d identical addresses across instances; address spaces must be disjoint", sameAddr, memOps)
	}
}

func TestInstructionMixExact(t *testing.T) {
	// The Bresenham scheduler must deliver the per-KI rates exactly over
	// whole kilo-instruction multiples.
	for _, p := range Suite() {
		g, err := NewGenerator(p, GenOptions{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		const n = 100000
		counts := map[OpKind]int{}
		for i := 0; i < n; i++ {
			counts[g.Next().Kind]++
		}
		wantLoads := n / 1000 * p.LoadsPerKI
		wantStores := n / 1000 * p.StoresPerKI
		wantBranches := n / 1000 * p.BranchesPerKI
		if counts[OpLoad] != wantLoads {
			t.Errorf("%s: %d loads, want %d", p.Name, counts[OpLoad], wantLoads)
		}
		if counts[OpStore] != wantStores {
			t.Errorf("%s: %d stores, want %d", p.Name, counts[OpStore], wantStores)
		}
		if counts[OpBranch] != wantBranches {
			t.Errorf("%s: %d branches, want %d", p.Name, counts[OpBranch], wantBranches)
		}
	}
}

func TestAddressesStayInRegions(t *testing.T) {
	for _, p := range Suite() {
		g, err := NewGenerator(p, GenOptions{Instance: 2, CapacityScale: 8, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		lo := uint64(3) * addressSpaceStride
		hi := uint64(4) * addressSpaceStride
		for i := 0; i < 30000; i++ {
			op := g.Next()
			if op.Kind == OpLoad || op.Kind == OpStore {
				if op.Addr < lo || op.Addr >= hi {
					t.Fatalf("%s: address %#x outside instance 2 space [%#x,%#x)", p.Name, op.Addr, lo, hi)
				}
			}
		}
	}
}

func TestChaseOpsAreDependentLoads(t *testing.T) {
	p := ByName("mcf")
	g, _ := NewGenerator(p, GenOptions{Seed: 11})
	dep, loads := 0, 0
	for i := 0; i < 200000; i++ {
		op := g.Next()
		if op.Kind == OpLoad {
			loads++
			if op.Dependent {
				dep++
			}
		}
		if op.Kind == OpStore && op.Dependent {
			t.Fatal("store marked dependent")
		}
	}
	if dep == 0 {
		t.Fatal("mcf produced no dependent (pointer-chase) loads")
	}
	frac := float64(dep) / float64(loads)
	if frac < 0.02 || frac > 0.25 {
		t.Fatalf("dependent load fraction %.3f outside plausible range for mcf", frac)
	}
}

func TestBranchOutcomesVaryByProfile(t *testing.T) {
	// A branchy, hard-to-predict profile must produce more outcome entropy
	// than a regular loop-dominated one. Proxy: rate of outcome flips per
	// static branch.
	flipRate := func(name string) float64 {
		g, _ := NewGenerator(ByName(name), GenOptions{Seed: 3})
		last := map[uint64]bool{}
		flips, branches := 0, 0
		for i := 0; i < 400000; i++ {
			op := g.Next()
			if op.Kind != OpBranch {
				continue
			}
			branches++
			if prev, ok := last[op.BranchPC]; ok && prev != op.Taken {
				flips++
			}
			last[op.BranchPC] = op.Taken
		}
		return float64(flips) / float64(branches)
	}
	hard := flipRate("deepsjeng") // HardFrac 0.35
	easy := flipRate("lbm")       // HardFrac 0.02
	if hard <= easy {
		t.Fatalf("deepsjeng flip rate %.3f <= lbm flip rate %.3f; hard branches not modelled", hard, easy)
	}
}

func TestCapacityScaleShrinksFootprint(t *testing.T) {
	p := ByName("bwaves")
	g1, _ := NewGenerator(p, GenOptions{CapacityScale: 1, Seed: 1})
	g8, _ := NewGenerator(p, GenOptions{CapacityScale: 8, Seed: 1})
	footprint := func(g *Generator) (total uint64) {
		for _, r := range g.regions {
			total += r.size.n
		}
		return total
	}
	if footprint(g8) >= footprint(g1) {
		t.Fatalf("scale 8 footprint %d >= scale 1 footprint %d", footprint(g8), footprint(g1))
	}
	ratio := float64(footprint(g1)) / float64(footprint(g8))
	if ratio < 7.5 || ratio > 8.5 {
		t.Fatalf("footprint ratio %.2f, want ~8", ratio)
	}
}

func TestSeqPatternHasSpatialLocality(t *testing.T) {
	p := &Profile{
		Name: "seqtest", BaseCPI: 0.5, LoadsPerKI: 500, StoresPerKI: 0,
		BranchesPerKI: 0, MLP: 4, StaticBranches: 1,
		Regions:    []Region{{Size: 8 * config.MB, Frac: 1, Pattern: Seq, ElemSize: 8}},
		IFootprint: 64 * config.KB,
	}
	g, err := NewGenerator(p, GenOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var lastLine uint64
	newLines, accesses := 0, 0
	for i := 0; i < 80000; i++ {
		op := g.Next()
		if op.Kind != OpLoad {
			continue
		}
		accesses++
		line := op.Addr >> 6
		if line != lastLine {
			newLines++
			lastLine = line
		}
	}
	// 8-byte elements on 64-byte lines: one new line per 8 accesses.
	frac := float64(newLines) / float64(accesses)
	if frac < 0.1 || frac > 0.15 {
		t.Fatalf("new-line fraction %.3f, want ~0.125", frac)
	}
}

func TestZipfPatternSkewsAccesses(t *testing.T) {
	p := &Profile{
		Name: "zipftest", BaseCPI: 0.5, LoadsPerKI: 500, StoresPerKI: 0,
		BranchesPerKI: 0, MLP: 4, StaticBranches: 1,
		Regions:    []Region{{Size: 16 * config.MB, Frac: 1, Pattern: Zipf, ZipfS: 1.0}},
		IFootprint: 64 * config.KB,
	}
	g, _ := NewGenerator(p, GenOptions{Seed: 1})
	pages := map[uint64]int{}
	for i := 0; i < 200000; i++ {
		op := g.Next()
		if op.Kind == OpLoad {
			pages[op.Addr>>12]++
		}
	}
	// Top page should receive far more than the uniform share.
	max := 0
	for _, c := range pages {
		if c > max {
			max = c
		}
	}
	uniform := 100000 / (16 * 1024 * 1024 / 4096)
	if max < 10*uniform {
		t.Fatalf("hottest page got %d accesses, uniform share is %d; zipf skew missing", max, uniform)
	}
}

func TestNextIFetchStaysInCode(t *testing.T) {
	g, _ := NewGenerator(ByName("perlbench"), GenOptions{Instance: 1, CapacityScale: 8, Seed: 2})
	for i := 0; i < 10000; i++ {
		a, _ := g.NextIFetch()
		if a < uint64(2)*addressSpaceStride || a >= uint64(3)*addressSpaceStride {
			t.Fatalf("ifetch %#x outside instance space", a)
		}
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	good := func() *Profile {
		return &Profile{
			Name: "x", BaseCPI: 0.5, LoadsPerKI: 200, StoresPerKI: 100,
			BranchesPerKI: 100, MLP: 2, StaticBranches: 16,
			Regions:    []Region{{Size: config.MB, Frac: 1, Pattern: Rand}},
			IFootprint: 64 * config.KB,
		}
	}
	breakers := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.BaseCPI = 0.1 },
		func(p *Profile) { p.LoadsPerKI = 0; p.StoresPerKI = 0 },
		func(p *Profile) { p.LoadsPerKI = 900; p.BranchesPerKI = 200 },
		func(p *Profile) { p.MLP = 0.5 },
		func(p *Profile) { p.Regions = nil },
		func(p *Profile) { p.Regions[0].Frac = 0.5 },
		func(p *Profile) { p.Regions[0].Size = 0 },
		func(p *Profile) { p.StaticBranches = 0 },
		func(p *Profile) { p.BaseCPI = math.NaN() },
		func(p *Profile) { p.MLP = math.Inf(1) },
		func(p *Profile) { p.HardFrac = math.NaN() },
		func(p *Profile) {
			p.Regions = append(p.Regions, Region{Size: config.MB, Frac: math.NaN(), Pattern: Rand})
		},
		func(p *Profile) { p.Regions[0].ZipfS = -1 },
		func(p *Profile) { p.Regions[0].ZipfS = math.Inf(1) },
		func(p *Profile) { p.LoadsPerKI, p.StoresPerKI = 1500, -600 },
		func(p *Profile) { p.LoadsPerKI, p.BranchesPerKI = 1200, -300 },
	}
	for i, b := range breakers {
		p := good()
		b(p)
		if err := p.Validate(); err == nil {
			t.Errorf("breaker %d: Validate accepted broken profile", i)
		}
	}
}

func TestGeneratorPropertyAddressAlignment(t *testing.T) {
	// Loads/stores are at least 8-byte aligned for every profile and seed.
	check := func(seed uint64, inst uint8) bool {
		g, err := NewGenerator(ByName("milc"), GenOptions{Instance: int(inst % 32), Seed: seed})
		if err != nil {
			return false
		}
		for i := 0; i < 2000; i++ {
			op := g.Next()
			if (op.Kind == OpLoad || op.Kind == OpStore) && op.Addr%8 != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkGeneratorNext is the Go-benchmark twin of scalebench's
// trace.next_ns.gcc / .mcf probes (same profiles, same capacity scale). The
// /pull twin consumes the typed pulls in cpu.Core.step's order; what Next
// costs above it is the price of assembling an Op.
func BenchmarkGeneratorNext(b *testing.B) {
	for _, name := range []string{"gcc", "mcf"} {
		newGen := func(b *testing.B) *Generator {
			g, err := NewGenerator(ByName(name), GenOptions{CapacityScale: 16, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			return g
		}
		b.Run(name, func(b *testing.B) {
			g := newGen(b)
			b.ResetTimer()
			var sum uint64
			for i := 0; i < b.N; i++ {
				sum += g.Next().Addr
			}
			addrSink = sum
		})
		b.Run(name+"/pull", func(b *testing.B) {
			g := newGen(b)
			b.ResetTimer()
			var sum uint64
			for i := 0; i < b.N; i++ {
				switch kind := g.NextKind(); kind {
				case OpLoad, OpStore:
					addr, _ := g.NextMem(kind == OpStore)
					sum += addr
				case OpBranch:
					pc, _ := g.NextBranch()
					sum += pc
				}
			}
			addrSink = sum
		})
	}
}

var addrSink uint64
