// Package ml implements the machine-learning estimators the paper uses for
// scale-model extrapolation (§III-B): a CART regression tree (DT), a random
// forest (RF), and an epsilon-insensitive support vector regressor with an
// RBF kernel (SVM) — the scikit-learn trio, reimplemented on the standard
// library only.
//
// All estimators implement Regressor and are deterministic: any internal
// randomisation (forest bootstrapping, feature subsampling) derives from an
// explicit seed.
package ml

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimension reports a feature vector whose length does not match the
// fitted state it is being applied to (a scaler or model trained on a
// different feature layout). Callers at serving boundaries — notably the
// surrogate tier — test with errors.Is and fall back to computing instead
// of serving a mis-scaled prediction.
var ErrDimension = errors.New("ml: feature dimension mismatch")

// Regressor is a trainable single-output regression model.
type Regressor interface {
	// Fit trains on rows X (n x d) with targets y (n). It returns an error
	// for degenerate input (empty set, ragged rows, mismatched lengths).
	Fit(X [][]float64, y []float64) error
	// Predict returns the model output for one feature vector. It panics if
	// called before a successful Fit.
	Predict(x []float64) float64
	// Name identifies the estimator kind ("DT", "RF", "SVM").
	Name() string
}

// validate checks the shape of a training set and returns (n, d).
func validate(X [][]float64, y []float64) (int, int, error) {
	if len(X) == 0 {
		return 0, 0, fmt.Errorf("ml: empty training set")
	}
	if len(X) != len(y) {
		return 0, 0, fmt.Errorf("ml: %d rows but %d targets", len(X), len(y))
	}
	d := len(X[0])
	if d == 0 {
		return 0, 0, fmt.Errorf("ml: zero-dimensional features")
	}
	for i, row := range X {
		if len(row) != d {
			return 0, 0, fmt.Errorf("ml: ragged row %d: %d features, want %d", i, len(row), d)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, 0, fmt.Errorf("ml: non-finite feature X[%d][%d]", i, j)
			}
		}
	}
	for i, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, 0, fmt.Errorf("ml: non-finite target y[%d]", i)
		}
	}
	return len(X), d, nil
}

// Scaler standardises features to zero mean and unit variance, the same
// preprocessing scikit-learn pipelines apply before SVR.
type Scaler struct {
	Mean  []float64
	Scale []float64
}

// FitScaler computes per-column mean and standard deviation.
func FitScaler(X [][]float64) (*Scaler, error) {
	if len(X) == 0 || len(X[0]) == 0 {
		return nil, fmt.Errorf("ml: cannot fit scaler on empty data")
	}
	d := len(X[0])
	s := &Scaler{Mean: make([]float64, d), Scale: make([]float64, d)}
	n := float64(len(X))
	for _, row := range X {
		for j, v := range row {
			s.Mean[j] += v
		}
	}
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for _, row := range X {
		for j, v := range row {
			dv := v - s.Mean[j]
			s.Scale[j] += float64(dv * dv)
		}
	}
	for j := range s.Scale {
		s.Scale[j] = math.Sqrt(s.Scale[j] / n)
		if s.Scale[j] < 1e-12 {
			s.Scale[j] = 1 // constant column: leave centred at zero
		}
	}
	return s, nil
}

// Transform returns the standardised copy of x. The vector must have
// exactly the dimensionality the scaler was fitted on; a mismatch is a
// programming error and panics with a diagnostic (previously it silently
// mis-scaled a short vector or raised an index panic on a long one).
// Serving boundaries that receive vectors of uncontrolled shape use
// TransformChecked instead.
func (s *Scaler) Transform(x []float64) []float64 {
	out, err := s.TransformChecked(x)
	if err != nil {
		panic(err.Error())
	}
	return out
}

// TransformChecked is Transform with the shape check surfaced as a typed
// error (wrapping ErrDimension) instead of a panic — the form serving
// layers use, where a mismatched vector must reject cleanly and fall
// through to ground truth.
func (s *Scaler) TransformChecked(x []float64) ([]float64, error) {
	if len(x) != len(s.Mean) {
		return nil, fmt.Errorf("%w: vector has %d features, scaler fitted on %d", ErrDimension, len(x), len(s.Mean))
	}
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = (v - s.Mean[j]) / s.Scale[j]
	}
	return out, nil
}

// Finite reports whether every element of x is a finite number. Fit
// validates its inputs, but Predict implementations do not: a serving
// layer must gate non-finite feature vectors itself (falling back to
// computing) so a NaN can never propagate into a served prediction.
func Finite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// TransformAll standardises every row.
func (s *Scaler) TransformAll(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		out[i] = s.Transform(row)
	}
	return out
}

// mean returns the arithmetic mean of xs (0 for empty input).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range xs {
		sum += v
	}
	return sum / float64(len(xs))
}
