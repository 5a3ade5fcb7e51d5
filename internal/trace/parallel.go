package trace

import (
	"fmt"

	"scalesim/internal/config"
)

// ParallelProfile describes a data-parallel multi-threaded workload: every
// thread executes the same code on a partition of shared data, with barrier
// synchronisation between parallel iterations. This implements the paper's
// §V-E6 outlook ("scale-model simulation might be easily applied to
// data-parallel multi-threaded workloads in which all threads execute the
// same code and there is very little or no communication between threads").
//
// Shared Seq regions are partitioned: thread t streams the t-th contiguous
// slice. Shared Zipf/Rand/Chase regions are accessed by all threads over
// the full range (read-mostly shared data: constructive LLC sharing).
// Private regions (stack, per-thread scratch) are replicated at per-thread
// offsets.
type ParallelProfile struct {
	// Serial is the per-thread behaviour (instruction mix, regions, ...).
	Serial Profile
	// PrivateRegions marks which Serial.Regions indices are thread-private
	// (replicated per thread) rather than shared.
	PrivateRegions []bool
	// BarrierInterval is the number of instructions each thread retires
	// between barriers (one "parallel iteration"). 0 disables barriers.
	BarrierInterval uint64
	// Skew is the per-thread work imbalance: thread t's barrier interval
	// is scaled by 1 + Skew*(t/(N-1) - 0.5), modelling data skew. 0 means
	// perfectly balanced.
	Skew float64
}

// Validate reports the first inconsistency.
func (p *ParallelProfile) Validate() error {
	if err := p.Serial.Validate(); err != nil {
		return err
	}
	if p.PrivateRegions != nil && len(p.PrivateRegions) != len(p.Serial.Regions) {
		return fmt.Errorf("trace: %s: %d private flags for %d regions",
			p.Serial.Name, len(p.PrivateRegions), len(p.Serial.Regions))
	}
	if p.Skew < 0 || p.Skew > 1 {
		return fmt.Errorf("trace: %s: skew %.2f outside [0, 1]", p.Serial.Name, p.Skew)
	}
	return nil
}

// NewThreadGenerator builds the instruction stream of one thread of a
// parallel workload with `threads` threads in a shared address space.
func NewThreadGenerator(pp *ParallelProfile, thread, threads int, opts GenOptions) (*Generator, error) {
	if err := pp.Validate(); err != nil {
		return nil, err
	}
	if thread < 0 || thread >= threads || threads < 1 {
		return nil, fmt.Errorf("trace: thread %d of %d", thread, threads)
	}
	// All threads share the instance-0 address space; thread identity
	// enters through seeds, cursor offsets and partitioning below.
	base := GenOptions{
		Instance:      0,
		CapacityScale: opts.CapacityScale,
		Seed:          opts.Seed ^ (uint64(thread+1) * 0x9e3779b97f4a7c15),
	}
	g, err := NewGenerator(&pp.Serial, base)
	if err != nil {
		return nil, err
	}
	for i := range g.regions {
		rs := &g.regions[i]
		private := pp.PrivateRegions != nil && pp.PrivateRegions[i]
		switch {
		case private:
			// Replicate at a per-thread offset past the shared copy; the
			// guard gaps in the layout keep siblings apart for small
			// regions, and the address-space stride keeps threads apart
			// even for large ones.
			rs.base += uint64(thread+1) * (rs.size.n + (1 << 21))
		case rs.pattern == Seq:
			// Partition the stream: thread t walks slice [t*size/N, (t+1)*size/N).
			part := rs.size.n / uint64(threads)
			if part < rs.elem {
				part = rs.elem
			}
			rs.base += uint64(thread) * part
			rs.size = newModulus(part)
			rs.cursor = 0
		default:
			// Shared random/zipf/chase region: full range, thread-specific
			// RNG stream (already seeded above).
		}
	}
	// Spread thread start positions in the shared code.
	g.icursor = (uint64(thread) * 4096) % g.isize.n
	return g, nil
}

// ThreadBudget returns thread t's instruction count per barrier interval
// under the profile's skew.
func (p *ParallelProfile) ThreadBudget(thread, threads int) uint64 {
	if p.BarrierInterval == 0 {
		return 0
	}
	if threads <= 1 || p.Skew == 0 {
		return p.BarrierInterval
	}
	frac := float64(thread) / float64(threads-1)
	scaled := float64(p.BarrierInterval) * (1 + float64(p.Skew*(frac-0.5)))
	if scaled < 1 {
		scaled = 1
	}
	return uint64(scaled)
}

// ParallelSuite returns the data-parallel workloads used by the
// multi-threaded extension experiment. They span the same spectrum as the
// sequential suite: a bandwidth-bound stream, a cache-friendly stencil, an
// LLC-sharing-friendly table scan, and an irregular graph kernel.
func ParallelSuite() []*ParallelProfile {
	const kb, mb = config.KB, config.MB
	return []*ParallelProfile{
		{
			// STREAM-like triad over a large partitioned array.
			Serial: Profile{
				Name: "par.stream", BaseCPI: 0.45, LoadsPerKI: 340, StoresPerKI: 170,
				BranchesPerKI: 30, MLP: 9, StaticBranches: 128, HardFrac: 0.02,
				Regions: []Region{
					{Size: 16 * kb, Frac: 0.66, Pattern: Zipf, ZipfS: 1.1},
					{Size: 256 * mb, Frac: 0.34, Pattern: Seq, ElemSize: 8},
				},
				IFootprint: 64 * kb,
			},
			PrivateRegions:  []bool{true, false},
			BarrierInterval: 100_000,
		},
		{
			// Stencil: streaming with strong temporal reuse of a private tile.
			Serial: Profile{
				Name: "par.stencil", BaseCPI: 0.50, LoadsPerKI: 330, StoresPerKI: 120,
				BranchesPerKI: 60, MLP: 6, StaticBranches: 256, HardFrac: 0.05,
				Regions: []Region{
					{Size: 16 * kb, Frac: 0.72, Pattern: Zipf, ZipfS: 1.1},
					{Size: 192 * kb, Frac: 0.16, Pattern: Zipf, ZipfS: 1.0},
					{Size: 96 * mb, Frac: 0.12, Pattern: Seq, ElemSize: 8},
				},
				IFootprint: 128 * kb,
			},
			PrivateRegions:  []bool{true, true, false},
			BarrierInterval: 80_000,
		},
		{
			// Shared-table scan: all threads hit one hot shared structure
			// (constructive LLC sharing) plus partitioned input.
			Serial: Profile{
				Name: "par.tablescan", BaseCPI: 0.55, LoadsPerKI: 310, StoresPerKI: 90,
				BranchesPerKI: 140, MLP: 4, StaticBranches: 512, HardFrac: 0.15,
				Regions: []Region{
					{Size: 16 * kb, Frac: 0.70, Pattern: Zipf, ZipfS: 1.1},
					{Size: 8 * mb, Frac: 0.22, Pattern: Zipf, ZipfS: 0.9},
					{Size: 128 * mb, Frac: 0.08, Pattern: Seq, ElemSize: 8},
				},
				IFootprint: 256 * kb,
			},
			PrivateRegions:  []bool{true, false, false},
			BarrierInterval: 60_000,
			Skew:            0.15,
		},
		{
			// Irregular graph kernel: shared pointer chasing, low MLP,
			// skewed per-thread work.
			Serial: Profile{
				Name: "par.graph", BaseCPI: 0.65, LoadsPerKI: 320, StoresPerKI: 80,
				BranchesPerKI: 160, MLP: 1.6, StaticBranches: 512, HardFrac: 0.25,
				Regions: []Region{
					{Size: 16 * kb, Frac: 0.80, Pattern: Zipf, ZipfS: 1.1},
					{Size: 12 * mb, Frac: 0.17, Pattern: Zipf, ZipfS: 0.7},
					{Size: 96 * mb, Frac: 0.03, Pattern: Chase},
				},
				IFootprint: 256 * kb,
			},
			PrivateRegions:  []bool{true, false, false},
			BarrierInterval: 50_000,
			Skew:            0.30,
		},
	}
}

// ParallelByName returns the parallel-suite profile with the given name.
func ParallelByName(name string) *ParallelProfile {
	for _, p := range ParallelSuite() {
		if p.Serial.Name == name {
			return p
		}
	}
	return nil
}
