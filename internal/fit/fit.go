// Package fit implements the least-squares curve fits used by the paper's
// ML-based regression step (§III-B2 and §V-E2): given per-application
// performance predicted at several scale-model core counts, extrapolate to
// the target core count with a linear (y = a*x + b), power (y = a*x^b) or
// logarithmic (y = a*ln(x) + b) model of performance versus core count.
package fit

import (
	"fmt"
	"math"
)

// Model selects the functional form of the fitted curve.
type Model int

// Supported curve families.
const (
	Linear Model = iota
	Power
	Logarithmic
)

func (m Model) String() string {
	switch m {
	case Linear:
		return "linear"
	case Power:
		return "power"
	case Logarithmic:
		return "log"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Curve is a fitted two-parameter model.
type Curve struct {
	Model Model
	A, B  float64
}

// leastSquares fits y = a*x + b, returning a and b.
func leastSquares(xs, ys []float64) (a, b float64, err error) {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += float64(xs[i] * xs[i])
		sxy += float64(xs[i] * ys[i])
	}
	den := float64(n*sxx) - float64(sx*sx)
	if math.Abs(den) < 1e-12 {
		return 0, 0, fmt.Errorf("fit: degenerate x values (all equal?)")
	}
	a = (float64(n*sxy) - float64(sx*sy)) / den
	b = (sy - float64(a*sx)) / n
	return a, b, nil
}

// Fit performs least-squares fitting of the chosen model to points
// (xs[i], ys[i]). Power and logarithmic models require positive x; the
// power model also requires positive y. At least two points are needed.
func Fit(model Model, xs, ys []float64) (Curve, error) {
	if len(xs) != len(ys) {
		return Curve{}, fmt.Errorf("fit: %d x values but %d y values", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return Curve{}, fmt.Errorf("fit: need at least 2 points, got %d", len(xs))
	}
	for i := range xs {
		if math.IsNaN(xs[i]) || math.IsNaN(ys[i]) || math.IsInf(xs[i], 0) || math.IsInf(ys[i], 0) {
			return Curve{}, fmt.Errorf("fit: non-finite point (%v, %v)", xs[i], ys[i])
		}
	}
	switch model {
	case Linear:
		a, b, err := leastSquares(xs, ys)
		if err != nil {
			return Curve{}, err
		}
		return Curve{Model: Linear, A: a, B: b}, nil
	case Logarithmic:
		lx := make([]float64, len(xs))
		for i, x := range xs {
			if x <= 0 {
				return Curve{}, fmt.Errorf("fit: logarithmic model requires x > 0, got %v", x)
			}
			lx[i] = math.Log(x)
		}
		a, b, err := leastSquares(lx, ys)
		if err != nil {
			return Curve{}, err
		}
		return Curve{Model: Logarithmic, A: a, B: b}, nil
	case Power:
		lx := make([]float64, len(xs))
		ly := make([]float64, len(ys))
		for i := range xs {
			if xs[i] <= 0 || ys[i] <= 0 {
				return Curve{}, fmt.Errorf("fit: power model requires positive points, got (%v, %v)", xs[i], ys[i])
			}
			lx[i] = math.Log(xs[i])
			ly[i] = math.Log(ys[i])
		}
		// ln y = ln a + b*ln x.
		b, lna, err := leastSquares(lx, ly)
		if err != nil {
			return Curve{}, err
		}
		return Curve{Model: Power, A: math.Exp(lna), B: b}, nil
	default:
		return Curve{}, fmt.Errorf("fit: unknown model %v", model)
	}
}

// Eval returns the fitted curve's value at x.
func (c Curve) Eval(x float64) float64 {
	switch c.Model {
	case Linear:
		return float64(c.A*x) + c.B
	case Logarithmic:
		return float64(c.A*math.Log(x)) + c.B
	case Power:
		return c.A * math.Pow(x, c.B)
	default:
		return math.NaN()
	}
}
