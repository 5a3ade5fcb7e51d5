package scalemodel

import (
	"maps"
	"sync"
	"testing"

	"scalesim/internal/fit"
	"scalesim/internal/metrics"
	"scalesim/internal/trace"
)

// figure is one EvaluateLOO call of the evaluation: a figure's whole lineup
// on its metric's data set.
type figure struct {
	metric Metric
	specs  []MethodSpec
}

// figures lists the lineups of Figs. 4, 9, 10, 11 and 12, in figure order
// (they live in the root package's experiments.go).
func figures() []figure {
	lineup := []MethodSpec{
		{Method: MethodNoExtrapolation},
		{Method: MethodPrediction, Estimator: DT},
		{Method: MethodPrediction, Estimator: RF},
		{Method: MethodPrediction, Estimator: SVM},
		{Method: MethodRegression, Estimator: DT, Form: fit.Logarithmic},
		{Method: MethodRegression, Estimator: RF, Form: fit.Logarithmic},
		{Method: MethodRegression, Estimator: SVM, Form: fit.Logarithmic},
	}
	fig9 := figure{metric: MetricIPC}
	for _, form := range []fit.Model{fit.Linear, fit.Power, fit.Logarithmic} {
		fig9.specs = append(fig9.specs, MethodSpec{Method: MethodRegression, Estimator: SVM, Form: form})
	}
	fig10 := figure{metric: MetricIPC}
	for _, in := range []Inputs{InputsIPCOnly, InputsIPCAndBW} {
		for _, s := range lineup[1:] {
			s.Inputs = in
			fig10.specs = append(fig10.specs, s)
		}
	}
	fig11 := figure{metric: MetricIPC}
	for _, sub := range [][]int{{2, 4}, {2, 4, 8}, {2, 4, 8, 16}} {
		fig11.specs = append(fig11.specs, MethodSpec{Method: MethodRegression, Estimator: SVM, Form: fit.Logarithmic, ScaleModels: sub})
	}
	return []figure{{MetricIPC, lineup}, fig9, fig10, fig11, {MetricBW, lineup}}
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
	ds, err := l.CollectHomogeneous(benches, figureScaleCores, MetricIPC, MetricBW)
	if err != nil {
		t.Fatal(err)
	}
	return map[Metric]*HomogeneousData{MetricIPC: ds[0], MetricBW: ds[1]}
}

// TestEvaluateLOOWorkersIdentical holds the evaluation to its reference:
// each figure's whole lineup, evaluated in one call — one pool of (spec,
// fold) tasks over cached fold models — at 1, 2 and 8 workers, must equal,
// bit for bit, a serial evaluation that builds each fold's method from
// scratch on freshly excluded samples, one spec at a time.
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

	figs := figures()
	refData := collectFigureData(t, 1)
	wants := make([][][]metrics.NamedError, len(figs))
	for fi, fig := range figs {
		for _, spec := range fig.specs {
			wants[fi] = append(wants[fi], reference(refData[fig.metric], spec))
		}
	}
	for _, workers := range []int{1, 2, 8} {
		data := collectFigureData(t, workers)
		for fi, fig := range figs {
			got, err := data[fig.metric].EvaluateLOO(fig.specs...)
			if err != nil {
				t.Fatalf("%d workers, figure %d: %v", workers, fi, err)
			}
			if len(got) != len(fig.specs) {
				t.Fatalf("%d workers, figure %d: %d rows for %d specs", workers, fi, len(got), len(fig.specs))
			}
			for s, spec := range fig.specs {
				want := wants[fi][s]
				if len(got[s]) != len(want) {
					t.Fatalf("%d workers, %s: %d errors, want %d", workers, spec.Name(), len(got[s]), len(want))
				}
				for j := range want {
					if got[s][j] != want[j] {
						t.Errorf("%d workers, figure %d row %d, %s (%s, %v) fold %d: %+v, want %+v",
							workers, fi, s, spec.Name(), spec.Inputs, spec.ScaleModels, j, got[s][j], want[j])
					}
				}
			}
		}
	}
}

// TestFoldModelsTrainedOnce counts trainings across the five figures: each
// distinct fold key — worked out here from the specs, not read back from the
// cache — is trained exactly once, even when two callers ask for the same
// figure at the same time (and the pool of each asks for one key from
// several tasks) and when the figures are regenerated.
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
	for _, fig := range figures() {
		for _, spec := range fig.specs {
			var sizes []int
			switch spec.Method {
			case MethodPrediction:
				sizes = []int{data[fig.metric].TargetCores}
			case MethodRegression:
				sizes = spec.ScaleModels
				if sizes == nil {
					sizes = figureScaleCores
				}
			}
			for _, c := range sizes {
				seed := uint64(0)
				if spec.Method == MethodRegression {
					seed = uint64(c)
				}
				for _, b := range data[fig.metric].Benchmarks {
					distinct[key{fig.metric, spec.Estimator, spec.Inputs, c, b, seed}] = true
				}
			}
		}
	}
	// 3 estimators x (IPC+BW inputs, IPC-only inputs, bandwidth metric) x
	// (target + 4 scale models) x 8 folds.
	if len(distinct) != 360 {
		t.Fatalf("the figures need %d distinct fold models, want 360", len(distinct))
	}

	for round := 0; round < 2; round++ {
		for fi, fig := range figures() {
			var wg sync.WaitGroup
			for caller := 0; caller < 2; caller++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := data[fig.metric].EvaluateLOO(fig.specs...); err != nil {
						t.Errorf("figure %d: %v", fi, err)
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

// TestHeldOutLabelsNeverReachTheirPrediction: a benchmark's own target and
// scale-model labels never reach its leave-one-out prediction. For each
// benchmark in turn, a copy of the data set whose labels for that benchmark
// alone are scaled by arbitrary positive factors evaluates every figure's
// lineup (so every fold model is trained, the benchmark's own folds
// included); its prediction for the benchmark must then equal the original's
// bit for bit, under every spec of Figs. 4, 9, 10 and 11.
func TestHeldOutLabelsNeverReachTheirPrediction(t *testing.T) {
	d := collectFigureData(t, 1)[MetricIPC]
	var specs []MethodSpec
	for _, fig := range figures()[:4] {
		specs = append(specs, fig.specs...)
	}
	for bi, b := range d.Benchmarks {
		moved := &HomogeneousData{TargetCores: d.TargetCores, Metric: d.Metric, Benchmarks: d.Benchmarks,
			Meas: d.Meas, Feat: d.Feat, Target: maps.Clone(d.Target), Scale: map[int]map[string]float64{}}
		moved.Target[b] *= 1.7 + 0.3*float64(bi)
		for X, labels := range d.Scale {
			moved.Scale[X] = maps.Clone(labels)
			moved.Scale[X][b] *= 0.4 + 0.1*float64(X)
		}
		if _, err := moved.EvaluateLOO(specs...); err != nil {
			t.Fatal(err)
		}
		for _, spec := range specs {
			want, _, err := d.PredictOne(b, spec)
			if err != nil {
				t.Fatal(err)
			}
			if got, _, err := moved.PredictOne(b, spec); err != nil || got != want {
				t.Errorf("%s, %s (%s, %v): %v (err %v) with its own labels moved, %v without", b, spec.Name(), spec.Inputs, spec.ScaleModels, got, err, want)
			}
		}
	}
}
