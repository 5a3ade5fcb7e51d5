package ml

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"testing"

	"scalesim/internal/xrand"
)

// The golden values below pin the tree, forest and SVR kernels bit for bit.
// The n7, n28 and n320ties values were recorded before the first speed
// rewrite (slices.SortFunc plus per-fit scratch in bestSplit, a flat kernel
// matrix in SVR.Fit); the n12ties values before the second (one scratch and
// one node arena per forest, the inline sort of nodes of up to 12 samples,
// SVR.Fit's four-row blocks). A rewrite must not move a single output bit,
// so they are compared exactly — on amd64, where they were recorded:
// architectures whose compiler fuses multiply-adds (arm64, ppc64le, s390x)
// round differently and are skipped.

// goldenSets are the training-set shapes the figures send: 7 rows (subset
// runs), 28 rows (the full suite's leave-one-out folds) and 320 rows (the
// heterogeneous protocol); n12ties is every node at or under the inline
// sort's 12 samples, with tied feature values carrying different labels.
var goldenSets = []struct {
	name string
	data func() ([][]float64, []float64)
}{
	{"n7", func() ([][]float64, []float64) { return synth(7, 11) }},
	{"n28", func() ([][]float64, []float64) { return synth(28, 12) }},
	{"n320ties", func() ([][]float64, []float64) { return tied(synth(320, 13)) }},
	{"n12ties", func() ([][]float64, []float64) { return tied(synth(12, 14)) }},
}

// tied quantises every feature to a handful of levels while keeping the
// noisy labels: runs of equal feature values with differing labels are the
// one case where the sort's order among ties reaches a float sum (the
// running leftSum in bestSplit), so a sort that permuted ties differently
// would change the fitted thresholds.
func tied(X [][]float64, y []float64) ([][]float64, []float64) {
	for _, row := range X {
		for j, v := range row {
			row[j] = math.Round(v*4) / 4
		}
	}
	return X, y
}

func skipUnlessAMD64(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits recorded on amd64, running on %s", runtime.GOARCH)
	}
}

func TestGoldenTreeAndForest(t *testing.T) {
	skipUnlessAMD64(t)
	want := map[string]string{
		"DT/n7":       "e962a7700e85cd26",
		"RF/n7":       "496b1c368129bb07",
		"DT/n28":      "61723172660af13a",
		"RF/n28":      "3a7c43662721c3e2",
		"DT/n320ties": "af8e78e15b764f1d",
		"RF/n320ties": "42f28029489b8a07",
		"DT/n12ties":  "0eb7b47bf19b8982",
		"RF/n12ties":  "2192df132b18d6a4",
	}
	for _, set := range goldenSets {
		X, y := set.data()
		for _, m := range []interface {
			Regressor
			WriteCanonical(io.Writer)
		}{&DecisionTree{}, &RandomForest{Seed: 7}} {
			if err := m.Fit(X, y); err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			m.WriteCanonical(h)
			name := m.Name() + "/" + set.name
			if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != want[name] {
				t.Errorf("%s: canonical hash %s, want %s", name, got, want[name])
			}
		}
	}
}

func TestGoldenSVRPredictions(t *testing.T) {
	skipUnlessAMD64(t)
	want := map[string][3]uint64{
		"svr/n7":         {0x3fe2dbfa3e4f78f5, 0x3fe5bd3f02d8c78a, 0x3fe5c323f1d92926},
		"tuned/n7":       {0x3fe2dbfa3e4f78f5, 0x3fe5bd3f02d8c78a, 0x3fe5c323f1d92926},
		"svr/n28":        {0x3fe28896ab3234b0, 0x3fe67176f3ec0602, 0x3fe1e93f8e5df576},
		"tuned/n28":      {0x3fe28896ab3234b0, 0x3fe67176f3ec0602, 0x3fe1e93f8e5df576},
		"svr/n320ties":   {0x3fd6786191e01239, 0x3fe67587ca0cca12, 0x3fe26b208591f77c},
		"tuned/n320ties": {0x3fd9ee557fb43bde, 0x3fe580d3e09cbdd3, 0x3fe3128b9ebd92ab},
		"svr/n12ties":    {0x3fe7a4366470bede, 0x3feb0b972256f9be, 0x3fe7695948ac613c},
		"tuned/n12ties":  {0x3fe7a4366470bede, 0x3feb0b972256f9be, 0x3fe7695948ac613c},
	}
	probes := [3][]float64{{0.4, 0.1, 0.3}, {1.1, 0.5, 1.5}, {1.9, 0.9, 2.8}}
	for _, set := range goldenSets {
		X, y := set.data()
		for _, c := range []struct {
			name string
			m    Regressor
		}{{"svr/" + set.name, &SVR{}}, {"tuned/" + set.name, &TunedSVR{}}} {
			if err := c.m.Fit(X, y); err != nil {
				t.Fatal(err)
			}
			var got [3]uint64
			for i, p := range probes {
				got[i] = math.Float64bits(c.m.Predict(p))
			}
			if got != want[c.name] {
				t.Errorf("%s: prediction bits %#x, want %#x", c.name, got, want[c.name])
			}
		}
	}
}

// TestSmallSortMatchesSlicesSortFunc keeps slices.SortFunc as the oracle of
// sortByValue's inline insertion sort: on tie-heavy inputs of 2 to 12
// samples (3 value levels) both must leave the same permutation. A
// non-strict comparison, or a toolchain whose SortFunc stops using a stable
// insertion sort at this size, fails here.
func TestSmallSortMatchesSlicesSortFunc(t *testing.T) {
	rng := xrand.New(31)
	for n := 2; n <= 12; n++ {
		for trial := 0; trial < 200; trial++ {
			got := make([]keyed, n)
			for i := range got {
				got[i] = keyed{float64(rng.Intn(3)), i}
			}
			want := slices.Clone(got)
			slices.SortFunc(want, byValue)
			sortByValue(got)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d trial %d: inline sort %v, slices.SortFunc %v", n, trial, got, want)
			}
		}
	}
}

// TestRowSumsMatchRowByRow keeps the one-row-at-a-time loop SVR.Fit ran
// before as the oracle of rowSums' four-row blocks, bit for bit. The SVR
// goldens cannot hold this alone: f reaches the model only through the tube
// signs, and no golden set's residual comes within rounding of the tube's
// edge, so a block that sums in another order leaves every prediction bit
// where it was.
func TestRowSumsMatchRowByRow(t *testing.T) {
	rng := xrand.New(32)
	for n := 1; n <= 40; n++ {
		rows := (n + 3) &^ 3
		K := make([]float64, rows*n) // the padding rows stay zero, as in Fit
		for i := range K[:n*n] {
			K[i] = rng.Float64()
		}
		beta := make([]float64, n)
		for j := range beta {
			beta[j] = rng.NormFloat64()
		}
		b := rng.NormFloat64()
		got := make([]float64, rows)
		rowSums(got, K, beta, b)
		for i := 0; i < n; i++ {
			want := b
			for j, k := range K[i*n : (i+1)*n] {
				want += k * beta[j]
			}
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("n=%d row %d: rowSums %v, row by row %v", n, i, got[i], want)
			}
		}
	}
}
