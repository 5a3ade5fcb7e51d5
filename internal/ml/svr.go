package ml

import (
	"math"
)

// SVR is an epsilon-insensitive support vector regressor with a radial
// basis function kernel, the paper's most accurate extrapolation model
// (§III-B1). The model is the standard kernel expansion
//
//	f(x) = sum_i beta_i * K(x_i, x) + b,   K(u,v) = exp(-gamma*|u-v|^2),
//
// with beta = alpha - alpha* solving the epsilon-SVR dual the way libsvm
// (scikit-learn's SVR) does: SMO over the 2n box-constrained variables with
// second-order working-set selection (Fan, Chen & Lin, JMLR 2005), stopped
// when the maximal KKT violation is at most svrTol, scikit-learn's tol.
// Features and targets are standardised internally.
type SVR struct {
	// C is the regularisation trade-off (0 = default 1, scikit-learn's
	// default).
	C float64
	// Gamma is the RBF width on standardised features (0 = default 1).
	Gamma float64

	xs    *Scaler
	yMean float64
	yStd  float64
	X     [][]float64 // standardised training rows
	beta  []float64
	b     float64
	gamma float64
}

const (
	// svrEpsilon is the insensitive-tube half-width on the *standardised*
	// target scale.
	svrEpsilon = 0.05
	// svrTol bounds the maximal KKT violation at which SMO stops.
	svrTol = 1e-3
	// svrMaxIter caps SMO's pair updates at libsvm's floor.
	svrMaxIter = 10_000_000
	// svrTau floors a pair's curvature K_ii + K_jj - 2K_ij (the RBF
	// diagonal being 1), as libsvm's TAU replaces a non-positive one.
	svrTau = 1e-12
)

// Name implements Regressor.
func (s *SVR) Name() string { return "SVM" }

func (s *SVR) kernel(u, v []float64) float64 {
	d := 0.0
	for j := range u {
		dv := u[j] - v[j]
		d += float64(dv * dv)
	}
	return math.Exp(-s.gamma * d)
}

// Fit implements Regressor.
func (s *SVR) Fit(X [][]float64, y []float64) error {
	n, _, err := validate(X, y)
	if err != nil {
		return err
	}
	s.xs, err = FitScaler(X)
	if err != nil {
		return err
	}
	s.X = s.xs.TransformAll(X)

	// Standardise the target.
	s.yMean = mean(y)
	varY := 0.0
	for _, v := range y {
		varY += float64((v - s.yMean) * (v - s.yMean))
	}
	s.yStd = math.Sqrt(varY / float64(n))
	if s.yStd < 1e-12 {
		// Constant target: the mean is the exact solution.
		s.yStd = 1
		s.beta = make([]float64, n)
		s.b = 0
		s.gamma = 1
		return nil
	}
	ys := make([]float64, n)
	for i, v := range y {
		ys[i] = (v - s.yMean) / s.yStd
	}

	C := s.C
	if C <= 0 {
		C = 1
	}
	s.gamma = s.Gamma
	if s.gamma <= 0 {
		s.gamma = 1 // features are unit-variance after scaling
	}

	// The kernel matrix, row-major in one block, built once per fit.
	K := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			k := s.kernel(s.X[i], s.X[j])
			K[i*n+j] = k
			K[j*n+i] = k
		}
	}
	s.beta, s.b = smo(K, ys, C)
	return nil
}

// smo solves the epsilon-SVR dual over the n x n kernel matrix K, libsvm's
// form: minimise a'Qa/2 + p'a over a = [alpha; alpha*] in [0, C]^2n subject
// to y'a = 0, where y_t is +1 for the first n variables and -1 for the
// second, Q_ts = y_t*y_s*K(t mod n, s mod n) and p = [eps - ys; eps + ys].
// It returns beta = alpha - alpha* and the bias. Each step updates the pair
// of svrWorkingSet through G, the dual's gradient Qa + p.
func smo(K, ys []float64, C float64) (beta []float64, b float64) {
	n := len(ys)
	a := make([]float64, 2*n)
	G := make([]float64, 2*n)
	for i, v := range ys {
		G[i], G[i+n] = svrEpsilon-v, svrEpsilon+v
	}
	for range svrMaxIter {
		i, j := svrWorkingSet(K, a, G, C)
		if i < 0 {
			break
		}
		ai, aj := a[i], a[j]
		quad := max(2-float64(2*K[i%n*n+j%n]), svrTau) // K_ii + K_jj - 2K_ij
		// The step along the constraint, clipped to the box (libsvm's
		// Solver::Solve, with C_i = C_j).
		if (i < n) != (j < n) {
			delta := (-G[i] - G[j]) / quad
			diff := ai - aj
			a[i], a[j] = ai+delta, aj+delta
			if diff > 0 {
				if a[j] < 0 {
					a[j], a[i] = 0, diff
				}
				if a[i] > C {
					a[i], a[j] = C, C-diff
				}
			} else {
				if a[i] < 0 {
					a[i], a[j] = 0, -diff
				}
				if a[j] > C {
					a[j], a[i] = C, C+diff
				}
			}
		} else {
			delta := (G[i] - G[j]) / quad
			sum := ai + aj
			a[i], a[j] = ai-delta, aj+delta
			if sum > C {
				if a[i] > C {
					a[i], a[j] = C, sum-C
				}
				if a[j] > C {
					a[j], a[i] = C, sum-C
				}
			} else {
				if a[j] < 0 {
					a[j], a[i] = 0, sum
				}
				if a[i] < 0 {
					a[i], a[j] = 0, sum
				}
			}
		}
		// G += Q_i*da_i + Q_j*da_j: row t of Q is y_t times row t mod n of
		// K on the first n variables and its negation on the second.
		u, v := a[i]-ai, a[j]-aj
		if i >= n {
			u = -u
		}
		if j >= n {
			v = -v
		}
		Ki, Kj := K[i%n*n:][:n], K[j%n*n:][:n]
		for k := range Ki {
			d := float64(Ki[k]*u) + float64(Kj[k]*v)
			G[k] += d
			G[k+n] -= d
		}
	}

	// The bias is minus rho, the mean of y_t*G_t over the free variables,
	// or the midpoint of its bounds when none is free.
	ub, lb, sum, free := math.Inf(1), math.Inf(-1), 0.0, 0
	for t, at := range a {
		yG := G[t]
		if t >= n {
			yG = -yG
		}
		switch {
		case at >= C && t >= n, at <= 0 && t < n:
			ub = min(ub, yG)
		case at >= C, at <= 0:
			lb = max(lb, yG)
		default:
			free++
			sum += yG
		}
	}
	rho := (ub + lb) / 2
	if free > 0 {
		rho = sum / float64(free)
	}
	beta = make([]float64, n)
	for i := range beta {
		beta[i] = a[i] - a[i+n]
	}
	return beta, -rho
}

// svrWorkingSet picks SMO's next pair by second-order selection: i is the
// variable of I_up with the largest -y_t*G_t, and j the one of I_low whose
// update with i decreases the dual most. Ties go to the lowest index. It
// returns -1, -1 once the maximal KKT violation, max over I_up of -y_t*G_t
// minus min over I_low, is at most svrTol.
func svrWorkingSet(K, a, G []float64, C float64) (i, j int) {
	n := len(G) / 2
	gmax, gmax2, i, j := math.Inf(-1), math.Inf(-1), -1, -1
	for t, g := range G {
		if t < n && a[t] < C && -g > gmax {
			gmax, i = -g, t
		} else if t >= n && a[t] > 0 && g > gmax {
			gmax, i = g, t
		}
	}
	best, ki := math.Inf(1), i%n*n // i's row of K, read only if grad > 0, so i >= 0
	for t, g := range G {
		// grad is how far t's -y_t*G_t sits below i's; only a pair with
		// grad > 0 decreases the dual.
		var grad float64
		k := t
		switch {
		case t < n && a[t] > 0:
			grad, gmax2 = gmax+g, max(gmax2, g)
		case t >= n && a[t] < C:
			grad, gmax2, k = gmax-g, max(gmax2, -g), t-n
		default:
			continue
		}
		if grad <= 0 {
			continue
		}
		if obj := -float64(grad*grad) / max(2-float64(2*K[ki+k]), svrTau); obj < best {
			best, j = obj, t
		}
	}
	if gmax+gmax2 <= svrTol || j < 0 {
		return -1, -1
	}
	return i, j
}

// Predict implements Regressor.
func (s *SVR) Predict(x []float64) float64 {
	if s.beta == nil {
		panic("ml: SVR.Predict before Fit")
	}
	xs := s.xs.Transform(x)
	sum := s.b
	for i, row := range s.X {
		if s.beta[i] != 0 {
			sum += float64(s.beta[i] * s.kernel(row, xs))
		}
	}
	return float64(sum*s.yStd) + s.yMean
}
