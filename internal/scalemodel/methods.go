package scalemodel

import (
	"fmt"

	"scalesim/internal/fit"
	"scalesim/internal/ml"
)

// Predictor is the ML-based Prediction method (Fig. 1): a single model
// trained on (features -> value measured on machine M), where M is the
// target system in the paper's Prediction method and a multi-core scale
// model inside the Regression method.
//
// Internally the estimator learns the *contention ratio* — the measured
// value divided by the single-core scale-model baseline (IPC^ss or BW^ss)
// that is already among its input features — and the prediction multiplies
// the ratio back. This is mathematically equivalent to predicting the
// absolute value, but it removes the estimator's boundary-extrapolation
// error for applications whose scale-model reading lies outside the
// training range: their contention ratio is still well inside it. (With
// absolute targets, leave-one-out errors on the most compute-bound
// benchmarks exceed 80% for every estimator; with ratio targets the whole
// lineup lands in the paper's reported range.)
//
// A query is clamped into the training features' box, beyond which trees
// answer with their edge leaf and an RBF SVR decays to its bias (EXPERIMENTS, Fig. 5).
type Predictor struct {
	Inputs Inputs
	Metric Metric
	model  ml.Regressor
	lo, hi Features
}

// baseline returns the no-extrapolation reading the ratio is taken
// against: IPC^ss for performance, BW^ss for bandwidth. The bare ratio is
// the right transform for bandwidth too — every workload has some DRAM
// traffic, and both floor and offset variants distort the low-bandwidth end
// where the error metric is most sensitive (validated by the full-fidelity
// sweep in TestFig12Tune). The guard only prevents division by an exact
// zero.
func baseline(m Metric, f Features) float64 {
	if m == MetricBW {
		if f.BW < 1e-6 {
			return 1e-6
		}
		return f.BW
	}
	return f.IPC
}

// TrainPredictor fits a fresh estimator of the given kind on the samples.
func TrainPredictor(kind EstimatorKind, in Inputs, metric Metric, samples []Sample, seed uint64) (*Predictor, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("scalemodel: no training samples")
	}
	est, err := newEstimator(kind, seed)
	if err != nil {
		return nil, err
	}
	X := make([][]float64, len(samples))
	y := make([]float64, len(samples))
	p := &Predictor{Inputs: in, Metric: metric, model: est, lo: samples[0].F, hi: samples[0].F}
	for i, s := range samples {
		p.lo = Features{min(p.lo.IPC, s.F.IPC), min(p.lo.BW, s.F.BW), min(p.lo.CoBW, s.F.CoBW)}
		p.hi = Features{max(p.hi.IPC, s.F.IPC), max(p.hi.BW, s.F.BW), max(p.hi.CoBW, s.F.CoBW)}
		X[i] = s.F.Vector(in)
		b := baseline(metric, s.F)
		if b <= 0 {
			return nil, fmt.Errorf("scalemodel: sample %s has non-positive baseline", s.Bench)
		}
		y[i] = s.Y / b
	}
	if err := est.Fit(X, y); err != nil {
		return nil, fmt.Errorf("scalemodel: training %v predictor: %w", kind, err)
	}
	return p, nil
}

// Predict returns the model's estimate for one application's features.
func (p *Predictor) Predict(f Features) float64 {
	in := Features{min(max(f.IPC, p.lo.IPC), p.hi.IPC), min(max(f.BW, p.lo.BW), p.hi.BW), min(max(f.CoBW, p.lo.CoBW), p.hi.CoBW)}
	return p.model.Predict(in.Vector(p.Inputs)) * baseline(p.Metric, f)
}

// RegressionModel is the ML-based Regression method (Fig. 2): one trained
// predictor per multi-core scale model, whose per-application predictions
// are extrapolated to the target core count with a least-squares curve fit
// of performance versus core count.
type RegressionModel struct {
	Form fit.Model

	cores      []int // ascending multi-core scale-model sizes
	predictors map[int]*Predictor
}

// assembleRegression builds the regression model over the given ascending
// scale-model sizes from one predictor per size; train is handed each
// size's seed, the size itself.
func assembleRegression(form fit.Model, sizes []int, train trainFunc) (*RegressionModel, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("scalemodel: regression needs >= 2 multi-core scale models, got %d", len(sizes))
	}
	r := &RegressionModel{
		Form:       form,
		cores:      sizes,
		predictors: make(map[int]*Predictor, len(sizes)),
	}
	for _, cores := range sizes {
		if cores < 2 {
			return nil, fmt.Errorf("scalemodel: regression scale model with %d cores (need multi-core)", cores)
		}
		p, err := train(cores, uint64(cores))
		if err != nil {
			return nil, fmt.Errorf("scalemodel: %d-core scale model: %w", cores, err)
		}
		r.predictors[cores] = p
	}
	return r, nil
}

// queryFor projects the application's features into the X-core scale
// model's feature space: that model was trained on X-program mixes, whose
// co-runner pressure sums over X-1 applications, so the workload of
// interest's CoBW (a sum over targetCores-1 co-runners) is rescaled
// proportionally. Without this projection the query lies far outside the
// small scale models' training distribution and kernel methods collapse to
// their bias. (The paper leaves this step implicit; trees mask the problem
// by clamping, an RBF SVM does not.)
func queryFor(f Features, scaleCores, targetCores int) Features {
	if targetCores <= 1 {
		return f
	}
	g := f
	g.CoBW = f.CoBW * float64(scaleCores-1) / float64(targetCores-1)
	return g
}

// Predict extrapolates the application's value to targetCores: it predicts
// the value on every multi-core scale model and fits the chosen curve to
// (cores, value) points (step 3 of Fig. 2).
func (r *RegressionModel) Predict(f Features, targetCores int) (float64, error) {
	xs := make([]float64, 0, len(r.cores))
	ys := make([]float64, 0, len(r.cores))
	for _, c := range r.cores {
		xs = append(xs, float64(c))
		y := r.predictors[c].Predict(queryFor(f, c, targetCores))
		if r.Form == fit.Power && y <= 0 {
			// Power fits need positive values; clamp pathological model
			// outputs to a tiny positive IPC.
			y = 1e-6
		}
		ys = append(ys, y)
	}
	curve, err := fit.Fit(r.Form, xs, ys)
	if err != nil {
		return 0, fmt.Errorf("scalemodel: regression fit: %w", err)
	}
	return curve.Eval(float64(targetCores)), nil
}

// NoExtrapolation implements the baseline method of §III-A: the single-core
// scale-model reading itself is the target prediction.
func NoExtrapolation(f Features) float64 { return f.IPC }
