package scalemodel

import (
	"sync"
	"testing"

	"scalesim/internal/fit"
	"scalesim/internal/metrics"
	"scalesim/internal/trace"
)

// figureSpec is one EvaluateLOO call of the evaluation.
type figureSpec struct {
	metric Metric
	spec   MethodSpec
}

// figureSpecs lists every method Figs. 4, 9, 10, 11 and 12 evaluate, in
// figure order (the lineups live in the root package's experiments.go).
func figureSpecs() []figureSpec {
	lineup := []MethodSpec{
		{Method: MethodNoExtrapolation},
		{Method: MethodPrediction, Estimator: DT},
		{Method: MethodPrediction, Estimator: RF},
		{Method: MethodPrediction, Estimator: SVM},
		{Method: MethodRegression, Estimator: DT, Form: fit.Logarithmic},
		{Method: MethodRegression, Estimator: RF, Form: fit.Logarithmic},
		{Method: MethodRegression, Estimator: SVM, Form: fit.Logarithmic},
	}
	var out []figureSpec
	for _, s := range lineup { // Fig. 4
		out = append(out, figureSpec{MetricIPC, s})
	}
	for _, form := range []fit.Model{fit.Linear, fit.Power, fit.Logarithmic} { // Fig. 9
		out = append(out, figureSpec{MetricIPC, MethodSpec{Method: MethodRegression, Estimator: SVM, Form: form}})
	}
	for _, in := range []Inputs{InputsIPCOnly, InputsIPCAndBW} { // Fig. 10
		for _, s := range lineup[1:] {
			s.Inputs = in
			out = append(out, figureSpec{MetricIPC, s})
		}
	}
	for _, sub := range [][]int{{2, 4}, {2, 4, 8}, {2, 4, 8, 16}} { // Fig. 11
		out = append(out, figureSpec{MetricIPC, MethodSpec{Method: MethodRegression, Estimator: SVM, Form: fit.Logarithmic, ScaleModels: sub}})
	}
	for _, s := range lineup { // Fig. 12
		out = append(out, figureSpec{MetricBW, s})
	}
	return out
}

var figureScaleCores = []int{2, 4, 8, 16}

// collectFigureData collects both metrics' data for the figures on the fake
// world with the given engine pool size: eight benchmarks spread over the
// suite's memory intensities, all with DRAM traffic (a zero bandwidth target
// has no relative error to compare).
func collectFigureData(t *testing.T, workers int) map[Metric]*HomogeneousData {
	t.Helper()
	l := fakeLabWorkers(workers)
	var benches []*trace.Profile
	for i := 5; i < 29; i += 3 {
		benches = append(benches, trace.Suite()[i])
	}
	data := map[Metric]*HomogeneousData{}
	for _, m := range []Metric{MetricIPC, MetricBW} {
		d, err := l.CollectHomogeneous(benches, figureScaleCores, m)
		if err != nil {
			t.Fatal(err)
		}
		data[m] = d
	}
	return data
}

// TestEvaluateLOOWorkersIdentical holds the evaluation to its reference:
// every figure spec, evaluated from cached fold models at 1, 2 and 8
// workers, must equal — bit for bit — a serial evaluation that builds each
// fold's method from scratch on freshly excluded samples.
func TestEvaluateLOOWorkersIdentical(t *testing.T) {
	reference := func(d *HomogeneousData, spec MethodSpec) []metrics.NamedError {
		var out []metrics.NamedError
		for _, b := range d.Benchmarks {
			predict, err := buildMethod(spec, d.TargetCores, d.Metric, sortedKeys(d.Scale), func(cores int, seed uint64) (*Predictor, error) {
				return TrainPredictor(spec.Estimator, spec.Inputs, d.Metric, d.samplesExcluding(b, cores), seed)
			})
			if err != nil {
				t.Fatalf("%s for %s: %v", spec.Name(), b, err)
			}
			pred, err := predict(d.Feat[b])
			if err != nil {
				t.Fatalf("%s predicting %s: %v", spec.Name(), b, err)
			}
			out = append(out, metrics.NamedError{Name: b, Key: d.Meas[b].MPKI, Error: metrics.PredictionError(pred, d.Target[b])})
		}
		metrics.SortByKey(out)
		return out
	}

	specs := figureSpecs()
	refData := collectFigureData(t, 1)
	want := make([][]metrics.NamedError, len(specs))
	for i, fs := range specs {
		want[i] = reference(refData[fs.metric], fs.spec)
	}
	for _, workers := range []int{1, 2, 8} {
		data := collectFigureData(t, workers)
		for i, fs := range specs {
			got, err := data[fs.metric].EvaluateLOO(fs.spec)
			if err != nil {
				t.Fatalf("%d workers, %s: %v", workers, fs.spec.Name(), err)
			}
			if len(got) != len(want[i]) {
				t.Fatalf("%d workers, %s: %d errors, want %d", workers, fs.spec.Name(), len(got), len(want[i]))
			}
			for j := range got {
				if got[j] != want[i][j] {
					t.Errorf("%d workers, %s (%s, %v) fold %d: %+v, want %+v",
						workers, fs.spec.Name(), fs.spec.Inputs, fs.spec.ScaleModels, j, got[j], want[i][j])
				}
			}
		}
	}
}

// TestFoldModelsTrainedOnce counts trainings across the five figures: each
// distinct fold key — worked out here from the specs, not read back from the
// cache — is trained exactly once, even when two callers ask for the same
// spec at the same time and when the figures are regenerated.
func TestFoldModelsTrainedOnce(t *testing.T) {
	type key struct {
		metric  Metric
		kind    EstimatorKind
		inputs  Inputs
		cores   int
		heldOut string
		seed    uint64
	}
	data := collectFigureData(t, 2)
	distinct := map[key]bool{}
	for _, fs := range figureSpecs() {
		var sizes []int
		switch fs.spec.Method {
		case MethodPrediction:
			sizes = []int{data[fs.metric].TargetCores}
		case MethodRegression:
			sizes = fs.spec.ScaleModels
			if sizes == nil {
				sizes = figureScaleCores
			}
		}
		for _, c := range sizes {
			seed := uint64(0)
			if fs.spec.Method == MethodRegression {
				seed = uint64(c)
			}
			for _, b := range data[fs.metric].Benchmarks {
				distinct[key{fs.metric, fs.spec.Estimator, fs.spec.Inputs, c, b, seed}] = true
			}
		}
	}
	// 3 estimators x (IPC+BW inputs, IPC-only inputs, bandwidth metric) x
	// (target + 4 scale models) x 8 folds.
	if len(distinct) != 360 {
		t.Fatalf("the figures need %d distinct fold models, want 360", len(distinct))
	}

	for round := 0; round < 2; round++ {
		for _, fs := range figureSpecs() {
			var wg sync.WaitGroup
			for caller := 0; caller < 2; caller++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := data[fs.metric].EvaluateLOO(fs.spec); err != nil {
						t.Errorf("%s: %v", fs.spec.Name(), err)
					}
				}()
			}
			wg.Wait()
		}
		trained := data[MetricIPC].models.trained.Load() + data[MetricBW].models.trained.Load()
		if trained != int64(len(distinct)) {
			t.Fatalf("round %d: %d trainings for %d distinct fold models", round, trained, len(distinct))
		}
	}
}
