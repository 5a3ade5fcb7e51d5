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
// trained by deterministic full-batch projected subgradient descent on the
// regularised epsilon-insensitive primal objective
//
//	lambda/2 * beta' K beta + (1/n) * sum_i max(0, |f(x_i)-y_i| - eps).
//
// (scikit-learn's SVR solves the equivalent dual with SMO to a tolerance;
// this trainer runs a fixed budget of 1,500 primal epochs, which is not
// known to reach the dual's optimum: predictions can sit a few percent from
// SMO's, ROADMAP 14. DESIGN.md, "Substitutions", 6, records this.) Features
// and targets are standardised internally; Gamma follows scikit-learn's
// "scale" heuristic.
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
	// svrEpochs bounds the optimisation.
	svrEpochs = 1500
)

// svrBiasStep[t] is epoch t's bias step size, 0.1/sqrt(t+1).
var svrBiasStep = func() (steps [svrEpochs]float64) {
	for t := range steps {
		steps[t] = 0.1 / math.Sqrt(float64(t+1))
	}
	return steps
}()

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
	lambda := 1 / (C * float64(n))

	// Precompute the kernel matrix, row-major in one block, padded with
	// zero rows to a multiple of four for rowSums (the padding rows' sums
	// land past f[n-1] and are never read).
	rows := (n + 3) &^ 3
	K := make([]float64, rows*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			k := s.kernel(s.X[i], s.X[j])
			K[i*n+j] = k
			K[j*n+i] = k
		}
	}

	// Kernelised Pegasos (Shalev-Shwartz et al.) adapted to the
	// epsilon-insensitive loss: the RKHS subgradient of the objective is
	// lambda*f + (1/n) sum_i s_i K(x_i, .) with s_i the tube sign, giving
	// the update beta <- (1 - eta*lambda)*beta - (eta/n)*s under the
	// schedule eta_t = 1/(lambda*(t+2)).
	beta := make([]float64, n)
	s.beta = beta
	b := 0.0
	f := make([]float64, rows)
	sign := make([]float64, n)
	for epoch := 0; epoch < svrEpochs; epoch++ {
		rowSums(f, K, beta, b) // f = K beta + b
		// gb is the tube signs' sum: small integers, exact as an int.
		active, gb := 0, 0
		for i := 0; i < n; i++ {
			r := f[i] - ys[i]
			switch {
			case r > svrEpsilon:
				sign[i] = 1
				active++
				gb++
			case r < -svrEpsilon:
				sign[i] = -1
				active++
				gb--
			default:
				sign[i] = 0
			}
		}
		if active == 0 && epoch > 0 {
			break // every point inside the tube: optimum reached
		}
		eta := 1 / (lambda * float64(epoch+2))
		shrink := 1 - float64(eta*lambda)
		step := eta / float64(n)
		for i := 0; i < n; i++ {
			beta[i] = float64(shrink*beta[i]) - float64(step*sign[i])
		}
		// The bias is unregularised; a small decaying step on its
		// subgradient keeps it stable alongside the Pegasos schedule.
		b -= svrBiasStep[epoch] * float64(gb) / float64(n)
	}
	s.b = b
	return nil
}

// rowSums sets f[i] = b + sum_j K[i*n+j]*beta[j] for each of K's len(f)
// rows (n = len(beta), len(f) a multiple of four), four rows at a time: each
// row adds its terms j = 0..n-1 in order into its own accumulator, exactly
// as a row on its own does, but the four add chains overlap their latency.
func rowSums(f, K, beta []float64, b float64) {
	n := len(beta)
	for i := 0; i < len(f); i += 4 {
		k0, k1, k2, k3 := K[i*n:][:n], K[(i+1)*n:][:n], K[(i+2)*n:][:n], K[(i+3)*n:][:n]
		f0, f1, f2, f3 := b, b, b, b
		for j, bj := range beta {
			f0 += float64(k0[j] * bj)
			f1 += float64(k1[j] * bj)
			f2 += float64(k2[j] * bj)
			f3 += float64(k3[j] * bj)
		}
		f[i], f[i+1], f[i+2], f[i+3] = f0, f1, f2, f3
	}
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
