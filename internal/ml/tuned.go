package ml

import (
	"fmt"
	"math"
)

// TunedSVR wraps SVR with small-grid hyperparameter selection by k-fold
// cross-validation during Fit, the way an SVR is normally deployed through
// a scikit-learn GridSearchCV pipeline with group folds (groupFolds). The
// selection is deterministic.
//
// The paper's two protocols hand the SVM very different training sets (28
// homogeneous points versus 320 noisy heterogeneous samples); no single
// (C, gamma) works well for both, and cross-validated selection resolves
// this exactly as it would in practice.
type TunedSVR struct {
	best    *SVR
	BestC   float64
	BestGam float64
}

// tunedFolds is the cross-validation's fold count.
const tunedFolds = 4

// Name implements Regressor.
func (t *TunedSVR) Name() string { return "SVM" }

// Fit implements Regressor: it cross-validates the grid and refits the best
// configuration on the full training set.
func (t *TunedSVR) Fit(X [][]float64, y []float64) error {
	n, _, err := validate(X, y)
	if err != nil {
		return err
	}
	// Cross-validation estimates are too noisy to be trusted on very small
	// training sets (the homogeneous protocol trains on 28 points); there
	// the moderate default (C=1, gamma=1) is used directly. Larger sets
	// (the heterogeneous protocol's 320 samples) get the grid search.
	if n < 64 {
		t.BestC, t.BestGam = 1, 1
		t.best = &SVR{C: t.BestC, Gamma: t.BestGam}
		return t.best.Fit(X, y)
	}

	assign, bestScore := groupFolds(X), math.Inf(1)
	for _, c := range [...]float64{1, 10, 30} {
		for _, g := range [...]float64{0.33, 1} {
			score, ok := cvScore(X, y, assign, c, g)
			if ok && score < bestScore {
				bestScore = score
				t.BestC, t.BestGam = c, g
			}
		}
	}
	if math.IsInf(bestScore, 1) {
		// Degenerate splits (e.g. n < 2 per fold): fall back to defaults.
		t.BestC, t.BestGam = 1, 1
	}
	t.best = &SVR{C: t.BestC, Gamma: t.BestGam}
	if err := t.best.Fit(X, y); err != nil {
		return fmt.Errorf("ml: tuned SVR refit: %w", err)
	}
	return nil
}

// groupFolds deals X's rows to the folds keeping rows that share their first
// feature, IPC^ss, in one: CV then scores unseen applications (EXPERIMENTS, Fig. 5).
func groupFolds(X [][]float64) []int {
	assign := make([]int, len(X))
	group := map[float64]int{}
	for i, row := range X {
		if _, ok := group[row[0]]; !ok {
			group[row[0]] = len(group)
		}
		assign[i] = (group[row[0]] * 7) % tunedFolds
	}
	return assign
}

// cvScore returns the mean absolute validation error of (c, g) across the
// folds.
func cvScore(X [][]float64, y []float64, assign []int, c, g float64) (float64, bool) {
	total, count := 0.0, 0
	for f := 0; f < tunedFolds; f++ {
		var trX [][]float64
		var trY []float64
		var teX [][]float64
		var teY []float64
		for i := range X {
			if assign[i] == f {
				teX = append(teX, X[i])
				teY = append(teY, y[i])
			} else {
				trX = append(trX, X[i])
				trY = append(trY, y[i])
			}
		}
		if len(trX) < 2 || len(teX) == 0 {
			return 0, false
		}
		m := &SVR{C: c, Gamma: g}
		if err := m.Fit(trX, trY); err != nil {
			return 0, false
		}
		for i := range teX {
			total += math.Abs(m.Predict(teX[i]) - teY[i])
			count++
		}
	}
	if count == 0 {
		return 0, false
	}
	return total / float64(count), true
}

// Predict implements Regressor.
func (t *TunedSVR) Predict(x []float64) float64 {
	if t.best == nil {
		panic("ml: TunedSVR.Predict before Fit")
	}
	return t.best.Predict(x)
}
