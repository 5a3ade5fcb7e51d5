package ml

import (
	"fmt"
	"math"
	"testing"

	"scalesim/internal/xrand"
)

// kktProblem draws an n-row, d-feature regression problem from seed: a
// smooth nonlinear target of the features plus noise, the shape of the
// extrapolation task.
func kktProblem(seed uint64, n, d int) ([][]float64, []float64) {
	rng := xrand.New(seed)
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = make([]float64, d)
		y[i] = 1
		for j := range X[i] {
			X[i][j] = 3 * rng.Float64()
			y[i] += math.Sin(float64(j+1) * X[i][j])
		}
		y[i] += 0.1 * rng.NormFloat64()
	}
	return X, y
}

// kktViolation fits an SVR with (c, g) to (X, y) and checks its solution of
// the epsilon-SVR dual on the standardised problem, where beta = alpha -
// alpha* and the gradient is G = Q[alpha; alpha*] + p (libsvm's form, with
// y_t = +1 on the first n variables and -1 on the second n). It returns what
// breaks, or "".
func kktViolation(X [][]float64, y []float64, c, g float64) string {
	s := &SVR{C: c, Gamma: g}
	if err := s.Fit(X, y); err != nil {
		return err.Error()
	}
	n := len(X)
	sum, scale := 0.0, 0.0
	for _, b := range s.beta {
		if b < -c || b > c {
			return fmt.Sprintf("coefficient %v outside [-%v, %v]", b, c, c)
		}
		sum += b
		scale += math.Abs(b)
	}
	if math.Abs(sum) > 1e-12*(1+scale) {
		return fmt.Sprintf("sum(alpha - alpha*) = %v, want 0", sum)
	}
	// -y_t*G_t for each of the 2n variables, and whether it may move up
	// (I_up) or down (I_low).
	var ygs []float64
	var up, low []bool
	for i := 0; i < n; i++ {
		kb := 0.0
		for j := 0; j < n; j++ {
			kb += s.beta[j] * s.kernel(s.X[i], s.X[j])
		}
		yi := (y[i] - s.yMean) / s.yStd
		a, as := max(s.beta[i], 0), max(-s.beta[i], 0)
		ygs = append(ygs, -kb-svrEpsilon+yi, -kb+svrEpsilon+yi)
		up = append(up, a < c, as > 0)
		low = append(low, a > 0, as < c)
	}
	m, M := math.Inf(-1), math.Inf(1)
	for t, yg := range ygs {
		if up[t] {
			m = max(m, yg)
		}
		if low[t] {
			M = min(M, yg)
		}
	}
	if m-M > svrTol {
		return fmt.Sprintf("maximal KKT violation %v > %v", m-M, svrTol)
	}
	for t, yg := range ygs {
		if up[t] && low[t] && math.Abs(s.b-yg) > svrTol {
			return fmt.Sprintf("bias %v, but -y*G = %v at free variable %d", s.b, yg, t)
		}
	}
	return ""
}

// TestSVRSatisfiesKKT is a property test of the solver over generated
// problems of 2 to 64 rows and 1 to 3 features at every (C, gamma) the tuned
// grid tries: each coefficient inside its box, the equality constraint,
// the stopping tolerance and the bias at the free support vectors. A failing
// case is shrunk by halving its rows while it still fails, and named by its
// seed.
func TestSVRSatisfiesKKT(t *testing.T) {
	cs, gs := [...]float64{1, 10, 30}, [...]float64{0.33, 1}
	for seed := uint64(1); seed <= 300; seed++ {
		rng := xrand.New(seed)
		n, d := 2+rng.Intn(63), 1+rng.Intn(3)
		c, g := cs[rng.Intn(len(cs))], gs[rng.Intn(len(gs))]
		X, y := kktProblem(seed, n, d)
		msg := kktViolation(X, y, c, g)
		if msg == "" {
			continue
		}
		for n > 2 {
			if m := kktViolation(X[:n/2], y[:n/2], c, g); m != "" {
				n, msg = n/2, m
				continue
			}
			break
		}
		t.Fatalf("seed %d: the first %d rows, d=%d, C=%v, gamma=%v: %s", seed, n, d, c, g, msg)
	}
}
