// Package xrand provides deterministic pseudo-random number generation for
// the simulator and the ML stack.
//
// The standard library's math/rand does not guarantee that a given seed
// produces the same stream across Go releases, and math/rand/v2 removed
// seeding of the global source entirely. Reproducibility is a core promise of
// this project — every experiment in EXPERIMENTS.md must be regenerable
// bit-for-bit — so we implement our own small, well-known generators:
// splitmix64 for seeding and xoshiro256** for the main stream.
package xrand

import (
	"math"

	"scalesim/internal/pad"
)

// RNG is a deterministic xoshiro256** generator. The zero value is not
// usable; construct with New.
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded from seed via splitmix64, as recommended by
// the xoshiro authors. Distinct seeds yield statistically independent
// streams. The state is written on every draw, so it is allocated on host
// cache lines of its own (see package pad).
func New(seed uint64) *RNG {
	r := pad.New(RNG{})
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// xoshiro must not start from the all-zero state; splitmix64 of any seed
	// cannot produce four zero words, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// Split derives an independent child generator. It is used to give each
// benchmark instance, mix, and ML estimator its own stream so that adding a
// consumer never perturbs another consumer's sequence.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0xa0761d6478bd642f)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value of the xoshiro256** sequence.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with n == 0")
	}
	// Lemire's multiply-shift rejection method: unbiased and fast.
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= n || lo >= -n%n {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t&mask32 + x0*y1
	hi = x1*y1 + t>>32 + w1>>32
	lo = x * y
	return hi, lo
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := float64(2*r.Float64()) - 1
		v := float64(2*r.Float64()) - 1
		s := float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap (Fisher-Yates).
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Zipf samples from a Zipf distribution over {0, ..., n-1} with exponent s
// by inverting a precomputed CDF: a draw u in [0, 1) maps to the lowest rank
// whose cumulative probability reaches u. A guide table (Chen & Asau's
// indexed search) makes the inversion O(1) expected: guide[j] is the lowest
// rank with cdf >= j/K, so the answer for any u in [j/K, (j+1)/K) is found by
// scanning up from guide[j] — with K >= max(2n, 256) cells, less than one
// step on average (the floor of 256 keeps a small table's scan exit from
// being a coin flip), and the same rank a search of the whole table would
// return.
//
// The inversion runs on the 53-bit integer m behind the draw u = m·2^-53
// (the value Float64 would return), never on u itself: thr[i] is
// floor(cdf[i]·2^53), exact because the scaling is by a power of two, and
// since m is an integer, cdf[i] < u if and only if thr[i] < m. The cell
// floor(u·K) is m >> shift with K = 2^(53-shift).
type Zipf struct {
	thr   []uint64
	guide []uint32
	shift uint
	rng   *RNG
}

// NewZipf builds a Zipf sampler over n items with exponent s > 0. Lower ranks
// are more probable. It panics if n <= 0 or s <= 0.
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	if n <= 0 || s <= 0 {
		panic("xrand: NewZipf requires n > 0 and s > 0")
	}
	thr := pad.Slice[uint64](n)
	sum := 0.0
	for i := range thr {
		sum += 1 / math.Pow(float64(i+1), s)
		thr[i] = math.Float64bits(sum) // the running sum, parked until the total is known
	}
	for i, partial := range thr {
		thr[i] = uint64(float64(math.Float64frombits(partial) / sum * (1 << 53)))
	}
	thr[n-1] = 1 << 53 // cdf 1, above every draw: guard against FP round-off
	cells, shift := 2, uint(52)
	for cells < max(2*n, 256) {
		cells <<= 1
		shift--
	}
	z := pad.New(Zipf{thr: thr, guide: pad.Slice[uint32](cells), shift: shift, rng: rng})
	rank := 0
	for j := range z.guide {
		for thr[rank] < uint64(j)<<shift {
			rank++
		}
		z.guide[j] = uint32(rank)
	}
	return z
}

// TableBytes returns the host memory the sampler's tables hold.
func (z *Zipf) TableBytes() int { return 8*len(z.thr) + 4*len(z.guide) }

// Next returns the next Zipf-distributed rank in [0, n).
func (z *Zipf) Next() int { return z.rank(z.rng.Uint64() >> 11) }

// rank returns the lowest rank whose threshold is at least m, for a draw
// m < 2^53. The scan ends at the latest on the last entry, which is 2^53.
func (z *Zipf) rank(m uint64) int {
	i := int(z.guide[m>>z.shift])
	for z.thr[i] < m {
		i++
	}
	return i
}
