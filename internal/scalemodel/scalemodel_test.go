package scalemodel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"scalesim/internal/config"
	"scalesim/internal/fit"
	"scalesim/internal/metrics"
	"scalesim/internal/runner"
	"scalesim/internal/sim"
	"scalesim/internal/trace"
	"scalesim/internal/units"
)

// fakeWorld is an analytic stand-in for the simulator: each benchmark has
// an intrinsic isolated IPC and bandwidth demand derived from its profile;
// co-running programs contend for the machine's total bandwidth through a
// smooth throttling law. This gives the pipeline a ground truth that is
// cheap, deterministic and learnable.
type fakeWorld struct{}

func (fakeWorld) intrinsics(p *trace.Profile) (ipc0, bw0 float64) {
	// Derive stable per-benchmark characteristics from the profile itself.
	memFrac := float64(p.LoadsPerKI+p.StoresPerKI) / 1000
	intensity := 0.0
	for _, r := range p.Regions {
		if r.Size > 2*config.MB {
			intensity += r.Frac
		}
	}
	ipc0 = 1/p.BaseCPI - 2*intensity
	if ipc0 < 0.2 {
		ipc0 = 0.2
	}
	bw0 = 8 * intensity * memFrac // fair-share units
	return ipc0, bw0
}

// run produces a synthetic result: per-core IPC reduced by total bandwidth
// pressure relative to the machine's aggregate capacity.
func (w fakeWorld) run(cfg *config.SystemConfig, wl sim.Workload, opts sim.Options) (*sim.Result, error) {
	totalDemand := 0.0
	for _, p := range wl.Profiles {
		_, bw0 := w.intrinsics(p)
		totalDemand += bw0
	}
	capacity := float64(cfg.Cores) // fair-share units
	pressure := totalDemand / capacity
	res := &sim.Result{ConfigName: cfg.Name, ElapsedCycles: 1000}
	perCoreShare := (float64(cfg.DRAM.TotalGBps()) / cfg.Core.FrequencyGHz) / float64(cfg.Cores)
	for i, p := range wl.Profiles {
		ipc0, bw0 := w.intrinsics(p)
		// Smooth saturating contention: more pressure, lower IPC; larger
		// machines add a mild NoC penalty the 1-core model cannot see.
		ipc := ipc0 / (1 + 0.4*bw0*pressure) * (1 - 0.02*math.Log2(float64(cfg.Cores)+1))
		eff := ipc / ipc0
		res.Cores = append(res.Cores, sim.CoreResult{
			Core:            i,
			Benchmark:       p.Name,
			Instructions:    100000,
			Cycles:          units.Cycles(100000 / ipc),
			IPC:             ipc,
			BWBytesPerCycle: units.BytesPerCycle(bw0 * eff * perCoreShare),
			LLCMPKI:         bw0 * 10,
		})
	}
	res.WallClock = time.Duration(cfg.Cores) * time.Millisecond
	return res, nil
}

func fakeLab() *Lab { return fakeLabWorkers(1) }

// fakeLabWorkers is a Lab on a fresh engine of the given pool size whose
// simulator is the fake world.
func fakeLabWorkers(workers int) *Lab {
	eng := runner.New(workers)
	eng.SetRunFunc(func(_ context.Context, cfg *config.SystemConfig, wl sim.Workload, opts sim.Options) (*sim.Result, error) {
		return fakeWorld{}.run(cfg, wl, opts)
	})
	return NewLab(eng, sim.Options{Instructions: 1000, Warmup: 100, EpochCycles: 100, CapacityScale: 16, Seed: 1})
}

func someBenchmarks(n int) []*trace.Profile {
	return trace.Suite()[:n]
}

func TestFeatureVector(t *testing.T) {
	f := Features{IPC: 1.5, BW: 0.4, CoBW: 2.1}
	v := f.Vector(InputsIPCAndBW)
	if len(v) != 3 || v[0] != 1.5 || v[1] != 0.4 || v[2] != 2.1 {
		t.Fatalf("full vector %v", v)
	}
	v = f.Vector(InputsIPCOnly)
	if len(v) != 1 || v[0] != 1.5 {
		t.Fatalf("ipc-only vector %v", v)
	}
}

func TestMethodSpecNames(t *testing.T) {
	cases := map[string]MethodSpec{
		"No Extrapolation": {Method: MethodNoExtrapolation},
		"SVM":              {Method: MethodPrediction, Estimator: SVM},
		"DT":               {Method: MethodPrediction, Estimator: DT},
		"SVM-log":          {Method: MethodRegression, Estimator: SVM, Form: fit.Logarithmic},
		"RF-linear":        {Method: MethodRegression, Estimator: RF, Form: fit.Linear},
	}
	for want, spec := range cases {
		if got := spec.Name(); got != want {
			t.Errorf("spec name %q, want %q", got, want)
		}
	}
}

func TestCollectHomogeneousShapes(t *testing.T) {
	l := fakeLab()
	benches := someBenchmarks(6)
	d, err := l.CollectHomogeneous(benches, []int{2, 4, 8, 16}, MetricIPC)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Benchmarks) != 6 {
		t.Fatalf("%d benchmarks, want 6", len(d.Benchmarks))
	}
	for _, b := range d.Benchmarks {
		if d.Feat[b].IPC <= 0 {
			t.Errorf("%s: non-positive feature IPC", b)
		}
		if d.Target[b] <= 0 {
			t.Errorf("%s: non-positive target label", b)
		}
		// CoBW must be (T-1) * BW for homogeneous mixes.
		want := 31 * d.Feat[b].BW
		if math.Abs(d.Feat[b].CoBW-want) > 1e-9 {
			t.Errorf("%s: CoBW %v, want %v", b, d.Feat[b].CoBW, want)
		}
	}
	for _, c := range []int{2, 4, 8, 16} {
		if len(d.Scale[c]) != 6 {
			t.Errorf("scale model %d: %d labels, want 6", c, len(d.Scale[c]))
		}
	}
}

func TestLabCaching(t *testing.T) {
	l := fakeLab()
	benches := someBenchmarks(4)
	if _, err := l.CollectHomogeneous(benches, []int{2, 4}, MetricIPC); err != nil {
		t.Fatal(err)
	}
	runs := l.engine.Stats().UniqueRuns
	// Re-collecting must hit the cache entirely.
	if _, err := l.CollectHomogeneous(benches, []int{2, 4}, MetricIPC); err != nil {
		t.Fatal(err)
	}
	if again := l.engine.Stats().UniqueRuns; again != runs {
		t.Fatalf("recollection ran %d extra simulations", again-runs)
	}
	// 4 benches x (1-core + target + 2 scale models) = 16 runs.
	if runs != 16 {
		t.Fatalf("ran %d simulations, want 16", runs)
	}
}

// TestCollectionIsOneBatch pins the single enumeration: a collection submits
// each of its jobs to the engine exactly once, at any pool size. (A prewarm
// followed by a replay would show 32 jobs and 16 memory hits at 4 workers.)
func TestCollectionIsOneBatch(t *testing.T) {
	for _, workers := range []int{1, 4} {
		l := fakeLabWorkers(workers)
		d, err := l.CollectHomogeneous(someBenchmarks(4), []int{2, 4}, MetricIPC)
		if err != nil {
			t.Fatal(err)
		}
		st := l.engine.Stats()
		if st.Jobs != 16 || st.CacheHits != 0 || st.UniqueRuns != 16 {
			t.Errorf("%d workers: jobs %d, memory hits %d, unique runs %d; want 16, 0, 16",
				workers, st.Jobs, st.CacheHits, st.UniqueRuns)
		}
		// The fake world charges one millisecond per core per run.
		for _, c := range []int{1, 32, 2, 4} {
			if want := 4 * time.Duration(c) * time.Millisecond; d.SimTime[c] != want {
				t.Errorf("%d workers: SimTime[%d] = %v, want %v", workers, c, d.SimTime[c], want)
			}
		}
	}
}

// TestCollectionReportsFirstFailureInOrder: whichever worker fails first,
// the collection's error is the first failed job in submission order.
func TestCollectionReportsFirstFailureInOrder(t *testing.T) {
	benches := someBenchmarks(4)
	for _, workers := range []int{1, 4} {
		eng := runner.New(workers)
		eng.SetRunFunc(func(_ context.Context, cfg *config.SystemConfig, wl sim.Workload, opts sim.Options) (*sim.Result, error) {
			if name := wl.Profiles[0].Name; name == benches[1].Name || name == benches[3].Name {
				return nil, fmt.Errorf("no %s on %d cores", name, cfg.Cores)
			}
			return fakeWorld{}.run(cfg, wl, opts)
		})
		_, err := NewLab(eng, sim.Options{Seed: 1}).CollectHomogeneous(benches, []int{2}, MetricIPC)
		if want := fmt.Sprintf("no %s on 1 cores", benches[1].Name); err == nil || !errors.Is(err, runner.ErrJobFailed) || !strings.Contains(err.Error(), want) {
			t.Errorf("%d workers: err %v, want ErrJobFailed carrying %q", workers, err, want)
		}
	}
}

func TestEvaluateLOOAllMethods(t *testing.T) {
	l := fakeLab()
	d, err := l.CollectHomogeneous(someBenchmarks(10), []int{2, 4, 8, 16}, MetricIPC)
	if err != nil {
		t.Fatal(err)
	}
	specs := []MethodSpec{
		{Method: MethodNoExtrapolation},
		{Method: MethodPrediction, Estimator: DT},
		{Method: MethodPrediction, Estimator: RF},
		{Method: MethodPrediction, Estimator: SVM},
		{Method: MethodRegression, Estimator: SVM, Form: fit.Logarithmic},
		{Method: MethodRegression, Estimator: DT, Form: fit.Linear},
		{Method: MethodRegression, Estimator: RF, Form: fit.Power},
	}
	rows, err := d.EvaluateLOO(specs...)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		errs := rows[i]
		if len(errs) != 10 {
			t.Fatalf("%s: %d errors, want 10", spec.Name(), len(errs))
		}
		for _, e := range errs {
			if math.IsNaN(e.Error) || e.Error < 0 {
				t.Errorf("%s/%s: bad error %v", spec.Name(), e.Name, e.Error)
			}
		}
		// Errors must be sorted by MPKI key.
		for i := 1; i < len(errs); i++ {
			if errs[i-1].Key > errs[i].Key {
				t.Errorf("%s: errors not sorted by MPKI", spec.Name())
			}
		}
	}
}

func TestPredictionBeatsNoExtrapolationOnFakeWorld(t *testing.T) {
	// The fake world has a learnable contention law, so ML prediction must
	// reduce the mean error substantially.
	l := fakeLab()
	d, err := l.CollectHomogeneous(trace.Suite(), []int{2, 4, 8, 16}, MetricIPC)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := d.EvaluateLOO(MethodSpec{Method: MethodNoExtrapolation}, MethodSpec{Method: MethodPrediction, Estimator: SVM})
	if err != nil {
		t.Fatal(err)
	}
	noneErrs, svmErrs := rows[0], rows[1]
	collect := func(es []metrics.NamedError) []float64 {
		out := make([]float64, len(es))
		for i, e := range es {
			out[i] = e.Error
		}
		return out
	}
	none := metrics.Summarize(collect(noneErrs))
	svm := metrics.Summarize(collect(svmErrs))
	if svm.Mean >= none.Mean {
		t.Fatalf("SVM mean error %.3f not below No Extrapolation %.3f", svm.Mean, none.Mean)
	}
}

func TestRegressionWithScaleModelSubset(t *testing.T) {
	l := fakeLabWorkers(4)
	d, err := l.CollectHomogeneous(someBenchmarks(8), []int{2, 4, 8, 16}, MetricIPC)
	if err != nil {
		t.Fatal(err)
	}
	spec := MethodSpec{Method: MethodRegression, Estimator: SVM, Form: fit.Logarithmic, ScaleModels: []int{2, 4}}
	if _, err := d.EvaluateLOO(spec); err != nil {
		t.Fatal(err)
	}
	bad := spec
	bad.ScaleModels = []int{2, 64}
	// Every fold of bad fails; the error is the first in (spec, fold) order
	// whichever of the pool's tasks failed first.
	_, err = d.EvaluateLOO(spec, bad, bad)
	if want := fmt.Sprintf("scalemodel: %s for %s: ", bad.Name(), d.Benchmarks[0]); err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("uncollected scale model: err %v, want it to begin %q", err, want)
	}
}

func TestCollectHeterogeneous(t *testing.T) {
	l := fakeLab()
	opts := HeteroOptions{
		EvalBenchmarks: 4,
		TrainResults:   128,
		EvalMixes:      3,
		STPMixes:       5,
		ScaleModels:    []int{2, 4},
		Metric:         MetricIPC,
		Seed:           7,
	}
	d, err := l.CollectHeterogeneous(trace.Suite()[:12], opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.EvalBenchmarks) != 4 || len(d.TrainBenchmarks) != 8 {
		t.Fatalf("split %d/%d, want 4/8", len(d.EvalBenchmarks), len(d.TrainBenchmarks))
	}
	// Train and eval sets must be disjoint.
	evalSet := map[string]bool{}
	for _, b := range d.EvalBenchmarks {
		evalSet[b] = true
	}
	for _, b := range d.TrainBenchmarks {
		if evalSet[b] {
			t.Fatalf("benchmark %s in both sets", b)
		}
	}
	// Training samples must come from training benchmarks only.
	if len(d.PredSamples) != 128/32*32 {
		t.Fatalf("%d prediction samples, want 128", len(d.PredSamples))
	}
	for _, s := range d.PredSamples {
		if evalSet[s.Bench] {
			t.Fatalf("eval benchmark %s leaked into training", s.Bench)
		}
	}
	for X, samples := range d.RegSamples {
		if len(samples) != 128/X*X {
			t.Errorf("scale model %d: %d samples, want %d", X, len(samples), 128)
		}
	}
	if len(d.EvalMixes) != 3 || len(d.STPMixes) != 5 {
		t.Fatalf("mix counts %d/%d, want 3/5", len(d.EvalMixes), len(d.STPMixes))
	}
	// Balanced eval mixes contain every eval benchmark.
	for _, mix := range d.EvalMixes {
		seen := map[string]bool{}
		for _, s := range mix.Slots {
			seen[s] = true
			if evalSet[s] == false {
				t.Fatalf("training benchmark %s in eval mix", s)
			}
		}
		if len(seen) != 4 {
			t.Fatalf("eval mix covers %d benchmarks, want 4", len(seen))
		}
	}
}

func TestHeterogeneousEvaluation(t *testing.T) {
	l := fakeLab()
	opts := HeteroOptions{
		EvalBenchmarks: 4, TrainResults: 160, EvalMixes: 3, STPMixes: 6,
		ScaleModels: []int{2, 4, 8, 16}, Metric: MetricIPC, Seed: 9,
	}
	d, err := l.CollectHeterogeneous(trace.Suite()[:16], opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []MethodSpec{
		{Method: MethodNoExtrapolation},
		{Method: MethodPrediction, Estimator: SVM},
		{Method: MethodRegression, Estimator: SVM, Form: fit.Logarithmic},
	} {
		perApp, err := d.EvaluatePerApp(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name(), err)
		}
		if len(perApp) != 1 || len(perApp[0]) != 4 {
			t.Fatalf("%s: %v per-app errors, want one row of 4", spec.Name(), perApp)
		}
		stp, err := d.EvaluateSTP(spec)
		if err != nil {
			t.Fatalf("%s STP: %v", spec.Name(), err)
		}
		if len(stp) != 6 {
			t.Fatalf("%s: %d STP errors, want 6", spec.Name(), len(stp))
		}
		for _, e := range stp {
			if math.IsNaN(e) || e < 0 {
				t.Fatalf("%s: bad STP error %v", spec.Name(), e)
			}
		}
	}
}

func TestSTPRequiresIPCMetric(t *testing.T) {
	l := fakeLab()
	opts := HeteroOptions{
		EvalBenchmarks: 3, TrainResults: 64, EvalMixes: 1, STPMixes: 1,
		ScaleModels: []int{2, 4}, Metric: MetricBW, Seed: 3,
	}
	d, err := l.CollectHeterogeneous(trace.Suite()[:10], opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.EvaluateSTP(MethodSpec{Method: MethodNoExtrapolation}); err == nil {
		t.Fatal("STP with BW metric accepted")
	}
}

func TestCollectHeterogeneousRejectsBadSplit(t *testing.T) {
	l := fakeLab()
	if _, err := l.CollectHeterogeneous(trace.Suite()[:5], HeteroOptions{EvalBenchmarks: 5}); err == nil {
		t.Fatal("eval=all split accepted")
	}
	if _, err := l.CollectHeterogeneous(trace.Suite()[:5], HeteroOptions{EvalBenchmarks: 0}); err == nil {
		t.Fatal("eval=0 split accepted")
	}
}

func TestDeterministicCollection(t *testing.T) {
	collect := func(workers int) *HeterogeneousData {
		l := fakeLabWorkers(workers)
		d, err := l.CollectHeterogeneous(trace.Suite()[:10], HeteroOptions{
			EvalBenchmarks: 3, TrainResults: 64, EvalMixes: 2, STPMixes: 2,
			ScaleModels: []int{2, 4}, Metric: MetricIPC, Seed: 42,
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b := collect(1), collect(1)
	par := collect(4)
	par.engine = a.engine // the engine lends evaluation its width; it is not data
	if !reflect.DeepEqual(a, par) {
		t.Fatal("heterogeneous collection differs between 1 and 4 workers")
	}
	if len(a.PredSamples) != len(b.PredSamples) {
		t.Fatal("sample counts differ across identical collections")
	}
	for i := range a.PredSamples {
		if a.PredSamples[i] != b.PredSamples[i] {
			t.Fatalf("sample %d differs: %+v vs %+v", i, a.PredSamples[i], b.PredSamples[i])
		}
	}
	for i := range a.EvalMixes {
		for j := range a.EvalMixes[i].Slots {
			if a.EvalMixes[i].Slots[j] != b.EvalMixes[i].Slots[j] {
				t.Fatal("eval mix composition differs")
			}
		}
	}
}

func TestBuildMethodErrors(t *testing.T) {
	// fresh trains on the given samples at every call, as the heterogeneous
	// protocol did before its predictors were cached.
	fresh := func(spec MethodSpec, pred []Sample, reg map[int][]Sample) trainFunc {
		return func(cores int, seed uint64) (*Predictor, error) {
			samples := reg[cores]
			if cores == 32 {
				samples = pred
			}
			return TrainPredictor(spec.Estimator, spec.Inputs, MetricIPC, samples, seed)
		}
	}
	if _, err := buildMethod(MethodSpec{Method: MethodKind(9)}, 32, MetricIPC, nil, nil); err == nil {
		t.Fatal("unknown method accepted")
	}
	spec := MethodSpec{Method: MethodPrediction, Estimator: SVM}
	if _, err := buildMethod(spec, 32, MetricIPC, nil, fresh(spec, nil, nil)); err == nil {
		t.Fatal("prediction without samples accepted")
	}
	spec = MethodSpec{Method: MethodRegression, Estimator: SVM}
	one := map[int][]Sample{2: {{F: Features{IPC: 1}, Y: 1}}}
	if _, err := buildMethod(spec, 32, MetricIPC, sortedKeys(one), fresh(spec, nil, one)); err == nil {
		t.Fatal("regression with one scale model accepted")
	}
	spec.ScaleModels = []int{2, 4}
	if _, err := buildMethod(spec, 32, MetricIPC, sortedKeys(one), fresh(spec, nil, one)); err == nil {
		t.Fatal("regression over an uncollected scale model accepted")
	}
}

// trainRegression assembles a regression model whose per-size predictors are
// trained on the given samples, keyed by scale-model core count.
func trainRegression(kind EstimatorKind, form fit.Model, in Inputs, metric Metric, perScaleModel map[int][]Sample) (*RegressionModel, error) {
	return assembleRegression(form, sortedKeys(perScaleModel), func(cores int, seed uint64) (*Predictor, error) {
		return TrainPredictor(kind, in, metric, perScaleModel[cores], seed)
	})
}

func TestTrainRegressionRejectsSingleCore(t *testing.T) {
	samples := map[int][]Sample{
		1: {{F: Features{IPC: 1}, Y: 1}, {F: Features{IPC: 2}, Y: 2}},
		2: {{F: Features{IPC: 1}, Y: 1}, {F: Features{IPC: 2}, Y: 2}},
	}
	if _, err := trainRegression(SVM, fit.Logarithmic, InputsIPCAndBW, MetricIPC, samples); err == nil {
		t.Fatal("1-core scale model accepted in regression")
	}
}

func TestNoExtrapolationPassthrough(t *testing.T) {
	if got := NoExtrapolation(Features{IPC: 0.75}); got != 0.75 {
		t.Fatalf("NoExtrapolation = %v, want 0.75", got)
	}
}

// TestRealSimulatorSmoke exercises the full pipeline against the actual
// simulator with tiny budgets.
func TestRealSimulatorSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	l := NewLab(runner.New(1), sim.Options{Instructions: 40_000, Warmup: 10_000, EpochCycles: 10_000, CapacityScale: 32, Seed: 5})
	benches := []*trace.Profile{trace.ByName("exchange2"), trace.ByName("gcc"), trace.ByName("lbm"), trace.ByName("mcf")}
	d, err := l.CollectHomogeneous(benches, []int{2, 4}, MetricIPC)
	if err != nil {
		t.Fatal(err)
	}
	specs := []MethodSpec{
		{Method: MethodNoExtrapolation},
		{Method: MethodPrediction, Estimator: DT},
		{Method: MethodRegression, Estimator: DT, Form: fit.Logarithmic},
	}
	rows, err := d.EvaluateLOO(specs...)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		if len(rows[i]) != 4 {
			t.Fatalf("%s: %d errors", spec.Name(), len(rows[i]))
		}
	}
}

func TestPredictOne(t *testing.T) {
	l := fakeLab()
	d, err := l.CollectHomogeneous(someBenchmarks(8), []int{2, 4}, MetricIPC)
	if err != nil {
		t.Fatal(err)
	}
	spec := MethodSpec{Method: MethodPrediction, Estimator: DT}
	pred, actual, err := d.PredictOne(d.Benchmarks[3], spec)
	if err != nil {
		t.Fatal(err)
	}
	if pred <= 0 || actual <= 0 {
		t.Fatalf("pred %v actual %v", pred, actual)
	}
	if _, _, err := d.PredictOne("missing", spec); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestRegressionQueryProjection(t *testing.T) {
	// queryFor scales CoBW into the scale model's mix-size space.
	f := Features{IPC: 1, BW: 0.5, CoBW: 31 * 0.5}
	q := queryFor(f, 2, 32)
	want := 31 * 0.5 / 31.0 // (2-1)/(32-1) of the original
	if math.Abs(q.CoBW-want) > 1e-12 {
		t.Fatalf("projected CoBW %v, want %v", q.CoBW, want)
	}
	if q.IPC != f.IPC || q.BW != f.BW {
		t.Fatal("projection must only touch CoBW")
	}
	if got := queryFor(f, 4, 1); got != f {
		t.Fatal("degenerate target must be identity")
	}
}

func TestPredictScaleModels(t *testing.T) {
	samples := map[int][]Sample{}
	for _, c := range []int{2, 4} {
		for i := 0; i < 8; i++ {
			ipc := 0.5 + 0.2*float64(i)
			samples[c] = append(samples[c], Sample{
				Bench: fmt.Sprintf("b%d", i),
				F:     Features{IPC: ipc, BW: 0.1 * float64(i), CoBW: 0.3 * float64(i)},
				Y:     ipc * (1 - 0.05*float64(c)),
			})
		}
	}
	r, err := trainRegression(DT, fit.Logarithmic, InputsIPCAndBW, MetricIPC, samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.cores) != 2 || r.cores[0] != 2 || r.cores[1] != 4 {
		t.Fatalf("scale model cores %v", r.cores)
	}
	// Step 2 of Fig. 2: every scale model's own prediction for the workload.
	for _, c := range r.cores {
		if p := r.predictors[c].Predict(queryFor(Features{IPC: 1.0, BW: 0.2, CoBW: 6}, c, 32)); p <= 0 {
			t.Fatalf("%d-core scale-model prediction %v", c, p)
		}
	}
}

func TestTrainPredictorRejectsBadBaseline(t *testing.T) {
	samples := []Sample{{Bench: "x", F: Features{IPC: 0}, Y: 1}}
	if _, err := TrainPredictor(DT, InputsIPCAndBW, MetricIPC, samples, 1); err == nil {
		t.Fatal("zero-IPC baseline accepted")
	}
}

func TestMetricAndInputStrings(t *testing.T) {
	if MetricIPC.String() != "IPC" || MetricBW.String() != "bandwidth" {
		t.Fatal("metric strings")
	}
	if InputsIPCAndBW.String() != "IPC+BW" || InputsIPCOnly.String() != "IPC-only" {
		t.Fatal("input strings")
	}
	for _, k := range Kinds() {
		if k.String() == "" {
			t.Fatal("empty estimator name")
		}
	}
}
