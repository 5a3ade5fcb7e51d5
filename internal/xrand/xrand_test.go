package xrand

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct seeds produced %d identical values in 1000 draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child's stream must differ from the parent's continued stream.
	if parent.Uint64() == child.Uint64() {
		t.Fatal("split child mirrors parent")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v, want ~0.5", mean)
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(5)
	if err := quick.Check(func(nRaw uint64) bool {
		n := nRaw%1000 + 1
		v := r.Uint64n(n)
		return v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint64nUniformity(t *testing.T) {
	r := New(6)
	const buckets, draws = 10, 100000
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(buckets)]++
	}
	want := float64(draws) / buckets
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Fatalf("bucket %d has %d draws, want %v +/- 5%%", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(8)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(12)
	if err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleCoversArrangements(t *testing.T) {
	// Over many shuffles of [0,1,2], all 6 permutations should appear.
	r := New(13)
	seen := map[[3]int]int{}
	for i := 0; i < 6000; i++ {
		a := [3]int{0, 1, 2}
		r.Shuffle(3, func(i, j int) { a[i], a[j] = a[j], a[i] })
		seen[a]++
	}
	if len(seen) != 6 {
		t.Fatalf("saw %d permutations of 3 elements, want 6", len(seen))
	}
	for p, c := range seen {
		if c < 700 {
			t.Fatalf("permutation %v appeared only %d times; shuffle is biased", p, c)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(14)
	z := NewZipf(r, 100, 1.0)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[10] || counts[10] <= counts[90] {
		t.Fatalf("zipf counts not monotonically skewed: c0=%d c10=%d c90=%d",
			counts[0], counts[10], counts[90])
	}
}

func TestZipfBounds(t *testing.T) {
	r := New(15)
	z := NewZipf(r, 7, 1.2)
	for i := 0; i < 10000; i++ {
		if v := z.Next(); v < 0 || v >= 7 {
			t.Fatalf("zipf rank %d out of [0,7)", v)
		}
	}
}

func TestZipfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(0 items) did not panic")
		}
	}()
	NewZipf(New(1), 0, 1)
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

// BenchmarkZipf covers the table sizes the trace generator samples from: a
// scaled data region's buckets, the branch population, a code footprint.
func BenchmarkZipf(b *testing.B) {
	for _, n := range []int{8, 512, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			z := NewZipf(New(1), n, 0.9)
			b.ResetTimer()
			sum := 0
			for i := 0; i < b.N; i++ {
				sum += z.Next()
			}
			zipfSink = sum
		})
	}
}

var zipfSink int

// refCDF and refRank are the float sampler Zipf replaced, kept as the
// oracle: the cumulative distribution as NewZipf used to store it, and a
// binary search of the whole of it for the lowest rank with cdf >= u.
func refCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1
	return cdf
}

func refRank(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestZipfMatchesReference pins the integer guide-table sampler to the float
// binary search it replaced: the rank of the 53-bit draw m is the rank the
// reference gives u = m·2^-53, draw for draw, and on the draws where the two
// could part ways — m on a threshold, one either side of it, 0 and 2^53-1.
func TestZipfMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 8, 100, 512, 4096, 65536} {
		for _, s := range []float64{0.7, 0.8, 0.9, 1.0, 1.1, 1.2} {
			z := NewZipf(New(uint64(n)), n, s)
			cdf := refCDF(n, s)
			ref := New(uint64(n))
			for i := 0; i < 100_000; i++ {
				if got, want := z.Next(), refRank(cdf, ref.Float64()); got != want {
					t.Fatalf("n=%d s=%.1f draw %d: rank %d, reference %d", n, s, i, got, want)
				}
			}
			edges := []uint64{0, 1<<53 - 1}
			for _, thr := range z.thr {
				edges = append(edges, thr-1, thr, thr+1)
			}
			for _, m := range edges {
				if m >= 1<<53 { // draws lie in [0, 2^53)
					continue
				}
				if got, want := z.rank(m), refRank(cdf, float64(m)/(1<<53)); got != want {
					t.Fatalf("n=%d s=%.1f m=%#x: rank %d, reference %d", n, s, m, got, want)
				}
			}
		}
	}
}
