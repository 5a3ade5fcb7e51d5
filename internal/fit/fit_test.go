package fit

import (
	"math"
	"testing"
	"testing/quick"

	"scalesim/internal/xrand"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func sumSquaredResiduals(c Curve, xs, ys []float64) float64 {
	sum := 0.0
	for i := range xs {
		d := ys[i] - c.Eval(xs[i])
		sum += d * d
	}
	return sum
}

func TestLinearExact(t *testing.T) {
	xs := []float64{1, 2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2.5*x - 1.25
	}
	c, err := Fit(Linear, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(c.A, 2.5, 1e-9) || !almostEq(c.B, -1.25, 1e-9) {
		t.Fatalf("linear fit (%v, %v), want (2.5, -1.25)", c.A, c.B)
	}
	if !almostEq(c.Eval(32), 2.5*32-1.25, 1e-9) {
		t.Fatalf("Eval(32) = %v", c.Eval(32))
	}
	if res := sumSquaredResiduals(c, xs, ys); res > 1e-18 {
		t.Fatalf("residual sum of squares %v on exact data, want 0", res)
	}
}

func TestLogarithmicExact(t *testing.T) {
	xs := []float64{1, 2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 0.3*math.Log(x) + 0.9
	}
	c, err := Fit(Logarithmic, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(c.A, 0.3, 1e-9) || !almostEq(c.B, 0.9, 1e-9) {
		t.Fatalf("log fit (%v, %v), want (0.3, 0.9)", c.A, c.B)
	}
	if !almostEq(c.Eval(32), 0.3*math.Log(32)+0.9, 1e-9) {
		t.Fatalf("Eval(32) = %v", c.Eval(32))
	}
}

func TestPowerExact(t *testing.T) {
	xs := []float64{1, 2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 1.7 * math.Pow(x, -0.4)
	}
	c, err := Fit(Power, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(c.A, 1.7, 1e-9) || !almostEq(c.B, -0.4, 1e-9) {
		t.Fatalf("power fit (%v, %v), want (1.7, -0.4)", c.A, c.B)
	}
}

func TestLogBeatsLinearOnSaturatingCurve(t *testing.T) {
	// IPC-vs-cores curves saturate; the paper finds logarithmic regression
	// most accurate (Fig. 9). Check the analogous property here.
	xs := []float64{1, 2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 1 - 0.3/math.Sqrt(x) // saturating, not exactly log
	}
	lin, err := Fit(Linear, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := Fit(Logarithmic, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if lgRes, linRes := sumSquaredResiduals(lg, xs, ys), sumSquaredResiduals(lin, xs, ys); lgRes >= linRes {
		t.Fatalf("log residuals %.6f >= linear residuals %.6f on a saturating curve", lgRes, linRes)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(Linear, []float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := Fit(Linear, []float64{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := Fit(Linear, []float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("degenerate x accepted")
	}
	if _, err := Fit(Logarithmic, []float64{0, 2}, []float64{1, 2}); err == nil {
		t.Error("log model with x=0 accepted")
	}
	if _, err := Fit(Power, []float64{1, 2}, []float64{-1, 2}); err == nil {
		t.Error("power model with negative y accepted")
	}
	if _, err := Fit(Linear, []float64{math.NaN(), 1}, []float64{1, 2}); err == nil {
		t.Error("NaN point accepted")
	}
	if _, err := Fit(Model(42), []float64{1, 2}, []float64{1, 2}); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestResidualOrthogonalityProperty(t *testing.T) {
	// Least squares property: residuals of a linear fit sum to ~0.
	rng := xrand.New(5)
	check := func(seed uint16) bool {
		xs := []float64{1, 2, 4, 8, 16}
		ys := make([]float64, len(xs))
		for i := range ys {
			ys[i] = 0.5*xs[i] + 3 + rng.NormFloat64()
		}
		c, err := Fit(Linear, xs, ys)
		if err != nil {
			return false
		}
		sum := 0.0
		for i := range xs {
			sum += ys[i] - c.Eval(xs[i])
		}
		return math.Abs(sum) < 1e-8
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestModelString(t *testing.T) {
	if Linear.String() != "linear" || Power.String() != "power" || Logarithmic.String() != "log" {
		t.Fatal("model names wrong")
	}
}

func TestEvalUnknownModel(t *testing.T) {
	c := Curve{Model: Model(9)}
	if !math.IsNaN(c.Eval(1)) {
		t.Fatal("unknown model Eval should be NaN")
	}
}
