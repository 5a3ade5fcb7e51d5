package ml

import (
	"fmt"
	"io"
	"math"

	"scalesim/internal/xrand"
)

// RandomForest is a bagged ensemble of CART trees: each tree is trained on a
// bootstrap resample of the training set and scans the features in its own
// random order. Like scikit-learn's RandomForestRegressor (max_features=1.0)
// every tree may split on all features — with only three inputs, dropping
// one per tree cripples the ensemble.
type RandomForest struct {
	// Trees is the ensemble size (0 = default 100, scikit-learn's default).
	Trees int
	// Seed drives the bootstrap and feature sampling. The zero seed is
	// valid and deterministic.
	Seed uint64

	// nodes holds tree t at nodes[t*stride:], in the pre-order layout of
	// DecisionTree.nodes: one pointer-free arena for the whole ensemble.
	nodes  []treeNode
	stride int
	trees  int
	d      int
}

// Name implements Regressor.
func (f *RandomForest) Name() string { return "RF" }

// Fit implements Regressor. Every tree is grown from one scratch into one
// node arena, tree t into arena[t*m:(t+1)*m] with m = maxNodes(n), so a fit
// allocates per forest, not per tree.
func (f *RandomForest) Fit(X [][]float64, y []float64) error {
	n, d, err := validate(X, y)
	if err != nil {
		return err
	}
	trees := f.Trees
	if trees <= 0 {
		trees = 100
	}
	m := maxNodes(n)
	f.nodes, f.stride, f.trees, f.d = make([]treeNode, trees*m), m, trees, d
	rng := xrand.New(f.Seed ^ 0x5eedf04e57)

	fit := newTreeFit(make([][]float64, n), make([]float64, n), d)
	perm := fit.features
	swap := func(i, j int) { perm[i], perm[j] = perm[j], perm[i] }
	for t := 0; t < trees; t++ {
		// Bootstrap resample (with replacement) of the validated rows.
		for i := 0; i < n; i++ {
			j := rng.Intn(n)
			fit.X[i] = X[j]
			fit.y[i] = y[j]
		}
		// The feature order rng.Perm(d) returns, drawn into the reused buffer.
		for j := range perm {
			perm[j] = j
		}
		rng.Shuffle(d, swap)
		fit.grow(f.nodes[t*m : (t+1)*m])
	}
	return nil
}

// Predict implements Regressor: the ensemble mean.
func (f *RandomForest) Predict(x []float64) float64 {
	mean, _ := f.PredictStats(x)
	return mean
}

// PredictStats returns the ensemble mean and the population standard
// deviation of the individual tree predictions — the forest's native
// uncertainty estimate. Trees that agree have seen this neighbourhood of
// feature space in their bootstrap samples; wide disagreement flags an
// extrapolation, which is what the surrogate tier's confidence gate keys
// on.
func (f *RandomForest) PredictStats(x []float64) (mean, std float64) {
	if f.trees == 0 {
		panic("ml: RandomForest.Predict before Fit")
	}
	if len(x) != f.d {
		panic(fmt.Sprintf("ml: RandomForest.Predict with %d features, trained on %d", len(x), f.d))
	}
	var sum, sumSq float64
	for t := 0; t < f.trees; t++ {
		p := predict(f.nodes[t*f.stride:], x)
		sum += p
		sumSq += float64(p * p)
	}
	n := float64(f.trees)
	mean = sum / n
	variance := sumSq/n - float64(mean*mean)
	if variance < 0 { // floating-point cancellation on near-identical trees
		variance = 0
	}
	return mean, math.Sqrt(variance)
}

// WriteCanonical writes a canonical, process-stable encoding of the fitted
// ensemble: every tree's structure in a fixed order and format. Two
// forests trained on the same data with the same parameters produce
// byte-identical encodings, which is how the surrogate tier fingerprints
// (and regression-tests) trained models.
func (f *RandomForest) WriteCanonical(w io.Writer) {
	fmt.Fprintf(w, "rf|trees=%d|d=%d\n", f.trees, f.d)
	for t := 0; t < f.trees; t++ {
		fmt.Fprintf(w, "tree|%d\n", t)
		writeTree(w, f.nodes[t*f.stride:])
	}
}
