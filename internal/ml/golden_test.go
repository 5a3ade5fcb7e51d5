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
// The tree and forest values for n7, n28 and n320ties were recorded before
// the first speed rewrite (slices.SortFunc plus per-fit scratch in
// bestSplit), the n12ties values before the second (one scratch and one node
// arena per forest, the inline sort of nodes of up to 12 samples); the SVR
// values were recorded from the SMO solver. A rewrite must not move a single
// output bit, so they are compared exactly — on amd64, where they were
// recorded: architectures whose compiler fuses multiply-adds (arm64,
// ppc64le, s390x) round differently and are skipped.

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
		"svr/n7":         {0x3fe2dd67f0a51ea3, 0x3fe5bdadb2477897, 0x3fe5c35315f4be29},
		"tuned/n7":       {0x3fe2dd67f0a51ea3, 0x3fe5bdadb2477897, 0x3fe5c35315f4be29},
		"svr/n28":        {0x3fe28c809070016e, 0x3fe679333cc366f8, 0x3fe1eaa35c06042f},
		"tuned/n28":      {0x3fe28c809070016e, 0x3fe679333cc366f8, 0x3fe1eaa35c06042f},
		"svr/n320ties":   {0x3fd66bacb0ac61a7, 0x3fe67dfb976bf9e7, 0x3fe26af64e74625a},
		"tuned/n320ties": {0x3fd9e06cbdbd82d8, 0x3fe59a6cdc2d004c, 0x3fe2c38b9e8d9062},
		"svr/n12ties":    {0x3fe74286b53fa56a, 0x3fead503aa6dea5a, 0x3fe72a18a21c0afd},
		"tuned/n12ties":  {0x3fe74286b53fa56a, 0x3fead503aa6dea5a, 0x3fe72a18a21c0afd},
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
