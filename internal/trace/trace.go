// Package trace provides synthetic workload models standing in for the SPEC
// CPU2017 1B-instruction SimPoints used by the paper.
//
// Each benchmark is described by a statistical Profile: instruction mix,
// base (ILP-limited) CPI, a mixture of memory regions with distinct sizes
// and access patterns, memory-level parallelism, and a static branch
// population with per-branch outcome bias. A Generator turns a profile into
// a deterministic instruction/memory/branch stream that the simulator
// executes against real cache, NoC and DRAM structures — so miss rates and
// bandwidth demand are emergent, not scripted.
//
// Profiles are named after well-known SPEC benchmarks purely as mnemonic
// anchors for their behaviour class (e.g. "lbm" streams, "mcf" pointer-
// chases, "exchange2" is compute-bound); see DESIGN.md for the substitution
// rationale.
package trace

import (
	"fmt"
	"math"

	"scalesim/internal/config"
	"scalesim/internal/pad"
	"scalesim/internal/xrand"
)

// OpKind classifies one instruction of the synthetic stream.
type OpKind uint8

// Instruction kinds produced by a Generator.
const (
	OpALU OpKind = iota
	OpLoad
	OpStore
	OpBranch
)

func (k OpKind) String() string {
	switch k {
	case OpALU:
		return "alu"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpBranch:
		return "branch"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one instruction of the stream. For loads and stores, Addr is a byte
// address in the program's private address space and Dependent marks an
// access that is serially dependent on the previous miss (pointer chasing),
// which suppresses miss overlap in the core model. For branches, BranchPC
// identifies the static branch and Taken is the actual outcome.
type Op struct {
	Kind      OpKind
	Addr      uint64
	Dependent bool
	BranchPC  uint64
	Taken     bool
}

// Pattern selects the address pattern of a memory region.
type Pattern uint8

// Supported region access patterns.
const (
	// Seq walks the region sequentially, ElemSize bytes per access, wrapping
	// at the end (streaming; high spatial locality when ElemSize < line).
	Seq Pattern = iota
	// Rand accesses uniformly distributed elements of the region.
	Rand
	// Zipf accesses region elements with a Zipf popularity skew, modelling
	// hot data structures with high temporal locality.
	Zipf
	// Chase performs a pseudo-random dependent walk (linked-list traversal):
	// every access is marked Dependent, which limits MLP to 1 on this region.
	Chase
)

func (p Pattern) String() string {
	switch p {
	case Seq:
		return "seq"
	case Rand:
		return "rand"
	case Zipf:
		return "zipf"
	case Chase:
		return "chase"
	default:
		return fmt.Sprintf("Pattern(%d)", uint8(p))
	}
}

// Region is one component of a benchmark's data working set.
type Region struct {
	Size     config.Bytes // nominal footprint (before capacity scaling)
	Frac     float64      // fraction of data accesses that hit this region
	Pattern  Pattern
	ElemSize int     // bytes per element for Seq (spatial locality); 0 = 8
	ZipfS    float64 // skew for Zipf (0 = 0.8)
}

// Profile is the statistical model of one benchmark.
type Profile struct {
	Name string
	// BaseCPI is the ILP-limited CPI in the absence of miss events. It can
	// be below 1/width only for trivially parallel code; typical values are
	// 0.3-0.9 for a 4-wide core.
	BaseCPI float64
	// Instruction mix, per kilo-instruction.
	LoadsPerKI    int
	StoresPerKI   int
	BranchesPerKI int
	// MLP is the typical number of overlapping outstanding misses for
	// independent (non-Dependent) accesses.
	MLP float64
	// Branch population: StaticBranches branches whose taken-bias is drawn
	// from a mixture; HardFrac of them are near-50/50 data-dependent
	// branches, the rest are heavily biased loop/guard branches.
	StaticBranches int
	HardFrac       float64
	// Data regions. Fracs must sum to ~1.
	Regions []Region
	// IFootprint is the instruction-side working set (code size).
	IFootprint config.Bytes
}

// Validate reports the first inconsistency in the profile.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("trace: profile with empty name")
	}
	// NaN passes every comparison below; it would hang a worker.
	if !finite(p.BaseCPI, p.MLP, p.HardFrac) {
		return fmt.Errorf("trace: %s: BaseCPI %v, MLP %v and HardFrac %v must be finite", p.Name, p.BaseCPI, p.MLP, p.HardFrac)
	}
	if p.BaseCPI < 0.25 {
		return fmt.Errorf("trace: %s: BaseCPI %.2f below 4-wide dispatch floor 0.25", p.Name, p.BaseCPI)
	}
	// A negative count lets the others overfill the kind schedule: its build never ends.
	if mem := p.LoadsPerKI + p.StoresPerKI; min(p.LoadsPerKI, p.StoresPerKI, p.BranchesPerKI) < 0 || mem <= 0 || mem+p.BranchesPerKI > 1000 {
		return fmt.Errorf("trace: %s: instruction mix loads=%d stores=%d branches=%d invalid", p.Name, p.LoadsPerKI, p.StoresPerKI, p.BranchesPerKI)
	}
	if p.MLP < 1 {
		return fmt.Errorf("trace: %s: MLP %.2f < 1", p.Name, p.MLP)
	}
	if len(p.Regions) == 0 {
		return fmt.Errorf("trace: %s: no memory regions", p.Name)
	}
	sum := 0.0
	for i, r := range p.Regions {
		if r.Size <= 0 {
			return fmt.Errorf("trace: %s: region %d has size %v", p.Name, i, r.Size)
		}
		if r.Frac < 0 {
			return fmt.Errorf("trace: %s: region %d has negative frac", p.Name, i)
		}
		if !finite(r.Frac, r.ZipfS) || r.ZipfS < 0 {
			return fmt.Errorf("trace: %s: region %d has frac %v and Zipf skew %v, want both finite and the skew non-negative", p.Name, i, r.Frac, r.ZipfS)
		}
		sum += r.Frac
	}
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("trace: %s: region fracs sum to %.3f, want 1", p.Name, sum)
	}
	if p.StaticBranches <= 0 && p.BranchesPerKI > 0 {
		return fmt.Errorf("trace: %s: branches in mix but no static branches", p.Name)
	}
	return nil
}

// finite reports whether every v is neither NaN nor infinite.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Generator produces the deterministic op stream of one benchmark instance.
// Distinct instances of the same profile (different Instance values) produce
// decorrelated streams in disjoint address spaces, modelling the paper's
// "co-running instances starting at slightly different offsets".
//
// A generator and everything it points to except the profile belong to one
// simulated core and are allocated through package pad, so that cores
// running on different host CPUs never write to a shared cache line.
type Generator struct {
	prof *Profile

	rng *xrand.RNG

	// kinds is a repeating 1000-slot schedule realising the per-KI
	// instruction mix exactly, with loads/stores/branches spread evenly;
	// slot is the next instruction's position in it (instructions generated % 1000).
	// aluRun[s] counts the ALU slots from s up to the next drawing one.
	kinds  [1000]OpKind
	aluRun [1000]uint16
	slot   int

	regions []regionState
	fracs   []float64 // Regions[i].Frac, flat for the interleaving loop
	regAcc  []float64 // region interleaving accumulators

	branches []branchState
	brZipf   *xrand.Zipf

	// instruction-side state
	ibase   uint64
	isize   modulus
	icursor uint64
	// codeZipf picks jump targets: real code time is concentrated in hot
	// functions, so jump targets follow a Zipf popularity over 256-byte
	// code chunks rather than a uniform sweep of the footprint.
	codeZipf *xrand.Zipf
}

type regionState struct {
	base     uint64
	size     modulus // scaled size in bytes
	elem     uint64
	pattern  Pattern
	zipf     *xrand.Zipf
	zipfGran modulus // bytes per zipf bucket
	cursor   uint64
	chaseLCG uint64
}

// modulus is a fixed divisor for reducing random draws to an offset. A power
// of two — the L1-resident region's bucket size at the usual capacity scales,
// many scaled footprints — reduces with an AND instead of a 64-bit divide.
type modulus struct {
	n    uint64
	mask uint64 // n-1 when n is a power of two, else 0
}

func newModulus(n uint64) modulus {
	m := modulus{n: n}
	if n&(n-1) == 0 {
		m.mask = n - 1
	}
	return m
}

// reduce returns x % m.n.
func (m modulus) reduce(x uint64) uint64 {
	if m.mask != 0 {
		return x & m.mask
	}
	return x % m.n
}

type branchState struct {
	pc   uint64
	bias float64 // probability taken
}

// GenOptions configures generator instantiation.
type GenOptions struct {
	// Instance distinguishes co-running copies of the same benchmark: it
	// offsets seeds, start cursors and the address space.
	Instance int
	// CapacityScale divides all region footprints (and code footprint), the
	// same global miniaturisation applied to the simulated machine. 0 = 1.
	CapacityScale int
	// Seed is the experiment-level base seed. 0 is a valid seed.
	Seed uint64
}

// addressSpaceStride separates instances' address spaces. 1 TB apart.
const addressSpaceStride = 1 << 40

// NewGenerator instantiates a deterministic stream for prof.
func NewGenerator(prof *Profile, opts GenOptions) (*Generator, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	scale := opts.CapacityScale
	if scale <= 0 {
		scale = 1
	}
	seed := opts.Seed ^ hashName(prof.Name) ^ (uint64(opts.Instance+1) * 0x9e3779b97f4a7c15)
	rng := xrand.New(seed)

	g := pad.New(Generator{prof: prof, rng: rng})
	g.buildKindSchedule()

	base := uint64(opts.Instance+1) * addressSpaceStride
	// Data regions are laid out from 1 GB within the instance's space.
	next := base + (1 << 30)
	g.regions = pad.Slice[regionState](len(prof.Regions))
	g.fracs = pad.Slice[float64](len(prof.Regions))
	g.regAcc = pad.Slice[float64](len(prof.Regions))
	for i, r := range prof.Regions {
		size := uint64(int64(r.Size)) / uint64(scale)
		if size < 256 {
			size = 256
		}
		elem := uint64(r.ElemSize)
		if elem == 0 {
			elem = 8
		}
		rs := regionState{
			base:    next,
			size:    newModulus(size),
			elem:    elem,
			pattern: r.Pattern,
			// Each instance starts its walk at a different offset.
			cursor:   (uint64(opts.Instance) * 8191 * elem) % size,
			chaseLCG: rng.Uint64() | 1,
		}
		if r.Pattern == Zipf {
			s := r.ZipfS
			if s == 0 {
				s = 0.8
			}
			// Bucketise the region at 4 KB granularity (pages) to keep the
			// sampler table small; intra-bucket offsets are uniform.
			buckets := int(size / 4096)
			if buckets < 8 {
				buckets = 8
			}
			if buckets > 65536 {
				buckets = 65536
			}
			rs.zipf = xrand.NewZipf(rng.Split(), buckets, s)
			rs.zipfGran = newModulus(size / uint64(buckets))
		}
		g.regions[i], g.fracs[i] = rs, r.Frac
		next += size + (1 << 24) // 16 MB guard gap
	}

	// Static branch population.
	if prof.BranchesPerKI > 0 {
		g.branches = pad.Slice[branchState](prof.StaticBranches)
		for i := range g.branches {
			// The minority-direction rate bounds the achievable prediction
			// accuracy on i.i.d. outcomes: easy loop/guard branches flip
			// 0.5-2% of the time, hard data-dependent ones 10-35%.
			bias := 0.005 + float64(0.015*rng.Float64())
			if rng.Bool(prof.HardFrac) {
				bias = 0.10 + float64(0.25*rng.Float64())
			}
			if rng.Bool(0.5) {
				bias = 1 - bias
			}
			g.branches[i] = branchState{
				pc:   base + uint64(i)*16,
				bias: bias,
			}
		}
		// Branch execution frequency is itself skewed: a few hot branches
		// dominate, as in real programs.
		g.brZipf = xrand.NewZipf(rng.Split(), prof.StaticBranches, 1.1)
	}

	// The code footprint scales with the data miniaturisation, but the
	// simulator keeps the L1-I at native size: together this keeps
	// instruction-side misses a second-order effect (significant only for
	// the large-code benchmarks such as gcc and perlbench), matching real
	// machines, where the I-side rarely leaves the private hierarchy.
	g.ibase = base + (1 << 20)
	isize := uint64(int64(prof.IFootprint)) / uint64(scale)
	if isize < 4096 {
		isize = 4096
	}
	g.isize = newModulus(isize)
	g.icursor = (uint64(opts.Instance) * 997 * 64) % isize
	chunks := int(isize / 256)
	if chunks < 8 {
		chunks = 8
	}
	g.codeZipf = xrand.NewZipf(rng.Split(), chunks, 1.2)
	return g, nil
}

func hashName(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Profile returns the profile this generator was built from.
func (g *Generator) Profile() *Profile { return g.prof }

// NextIFetch returns the instruction-side line address for the current
// fetch group and whether it is a non-sequential fetch (taken jump or call
// target). The code footprint is walked pseudo-sequentially with occasional
// jumps, producing realistic L1-I behaviour for large-footprint benchmarks;
// sequential fetches are next-line-prefetchable and should not stall the
// front end even when they miss.
func (g *Generator) NextIFetch() (addr uint64, jump bool) {
	if g.rng.Bool(0.02) { // function call / long jump to a (hot) target
		g.icursor = g.isize.reduce(uint64(g.codeZipf.Next()) * 256)
		return g.ibase + g.icursor, true
	}
	g.icursor += 64
	if g.icursor >= g.isize.n {
		g.icursor = 0
	}
	return g.ibase + g.icursor, false
}

// buildKindSchedule fills g.kinds with a 1000-slot repeating pattern that
// realises the per-KI mix exactly. Each kind's occurrences are spread evenly
// across the window (Bresenham placement); collisions shift to the next free
// slot, preserving exact counts.
func (g *Generator) buildKindSchedule() {
	place := func(kind OpKind, count int) {
		if count <= 0 {
			return
		}
		for i := 0; i < count; i++ {
			slot := i * 1000 / count
			for g.kinds[slot] != OpALU {
				slot = (slot + 1) % 1000
			}
			g.kinds[slot] = kind
		}
	}
	place(OpLoad, g.prof.LoadsPerKI)
	place(OpStore, g.prof.StoresPerKI)
	place(OpBranch, g.prof.BranchesPerKI)
	for s := range g.aluRun { // Validate guarantees a drawing slot to stop at
		for g.kinds[(s+int(g.aluRun[s]))%len(g.kinds)] == OpALU {
			g.aluRun[s]++
		}
	}
}

// NextKind retires the next instruction and returns its kind; the kind
// schedule is exact and consumes no random draw. A load or store must be
// followed by NextMem and a branch by NextBranch before the next NextKind.
// The core pulls these three directly, so nothing wider than two words
// crosses a call on the per-instruction path.
func (g *Generator) NextKind() OpKind {
	kind := g.kinds[g.slot]
	if g.slot++; g.slot == len(g.kinds) {
		g.slot = 0
	}
	return kind
}

// SkipALU retires up to max ALU instructions ahead of the next drawing one,
// as many NextKind calls would, and returns how many it retired.
func (g *Generator) SkipALU(max int) int {
	n := min(int(g.aluRun[g.slot]), max)
	if g.slot += n; g.slot >= len(g.kinds) {
		g.slot -= len(g.kinds)
	}
	return n
}

// Next produces the next instruction as one value: the composition of the
// typed pulls, for consumers that want the whole Op.
func (g *Generator) Next() Op {
	switch kind := g.NextKind(); kind {
	case OpLoad, OpStore:
		addr, dependent := g.NextMem(kind == OpStore)
		return Op{Kind: kind, Addr: addr, Dependent: dependent}
	case OpBranch:
		pc, taken := g.NextBranch()
		return Op{Kind: kind, BranchPC: pc, Taken: taken}
	default:
		return Op{Kind: kind}
	}
}

// NextMem draws the address of the load or store NextKind just announced
// from the profile's region mixture. dependent marks a load serially
// dependent on the previous miss.
func (g *Generator) NextMem(store bool) (addr uint64, dependent bool) {
	best := pickRegion(g.fracs, g.regAcc)
	g.regAcc[best] -= 1
	rs := &g.regions[best]

	var off uint64
	switch rs.pattern {
	case Seq:
		rs.cursor += rs.elem
		if rs.cursor >= rs.size.n {
			rs.cursor = 0
		}
		off = rs.cursor
	case Rand:
		off = rs.size.reduce(g.rng.Uint64())
		off &^= 7
	case Zipf:
		b := uint64(rs.zipf.Next())
		off = b*rs.zipfGran.n + rs.zipfGran.reduce(g.rng.Uint64())
		off &^= 7
	case Chase:
		// Deterministic pseudo-random dependent walk: an LCG over the region
		// visits lines in an unpredictable order; each access depends on the
		// previous one.
		rs.chaseLCG = rs.chaseLCG*6364136223846793005 + 1442695040888963407
		off = rs.size.reduce(rs.chaseLCG >> 11)
		off &^= 63 // line-granular nodes
		// Stores retire without stalling the dependence chain.
		dependent = !store
	}
	return rs.base + off, dependent
}

// pickRegion adds each region's fraction to its accumulator and returns the
// first region with the largest deficit above −1, for the caller to debit (a
// select that feeds a load address stays a branch). Integer keys make the
// selects conditional moves; orderKey orders floats as < does but for NaN
// and −0, which Validate and IEEE rounding (1−1 = +0+0 = +0) keep out.
func pickRegion(fracs, acc []float64) int {
	acc = acc[:len(fracs)]
	best, bestKey := 0, orderKey(-1)
	for i, frac := range fracs {
		v := acc[i] + frac
		acc[i] = v
		if k := orderKey(v); k > bestKey {
			best, bestKey = i, k
		}
	}
	return best
}

// orderKey flips a negative float's magnitude bits: a larger magnitude, a smaller key.
func orderKey(v float64) int64 {
	b := int64(math.Float64bits(v))
	return b ^ int64(uint64(b>>63)>>1)
}

// NextBranch draws the static branch NextKind just announced and its actual
// outcome. Validate guarantees a branch population whenever the mix has
// branches.
func (g *Generator) NextBranch() (pc uint64, taken bool) {
	b := &g.branches[g.brZipf.Next()]
	return b.pc, g.rng.Bool(b.bias)
}

// KindSchedule returns the repeating kind schedule: instruction n of the
// stream has kind KindSchedule()[n%1000], whatever the seed or instance.
func (g *Generator) KindSchedule() [1000]OpKind { return g.kinds }

// AddrLimit returns an address above every data and instruction address the
// generator can produce.
func (g *Generator) AddrLimit() uint64 {
	limit := g.ibase + g.isize.n
	for _, r := range g.regions {
		limit = max(limit, r.base+r.size.n)
	}
	return limit
}

// TableBytes returns the host memory the generator's sampling tables hold,
// for callers that budget retained generators.
func (g *Generator) TableBytes() int {
	n := 16*len(g.branches) + 2*len(g.aluRun) + g.codeZipf.TableBytes()
	if g.brZipf != nil {
		n += g.brZipf.TableBytes()
	}
	for _, r := range g.regions {
		if r.zipf != nil {
			n += r.zipf.TableBytes()
		}
	}
	return n
}
