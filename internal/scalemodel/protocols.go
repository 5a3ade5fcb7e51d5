package scalemodel

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"scalesim/internal/config"
	"scalesim/internal/fit"
	"scalesim/internal/metrics"
	"scalesim/internal/runner"
	"scalesim/internal/sim"
	"scalesim/internal/trace"
	"scalesim/internal/xrand"
)

// MethodKind selects the extrapolation method (§III).
type MethodKind int

const (
	// MethodNoExtrapolation uses the single-core scale-model reading.
	MethodNoExtrapolation MethodKind = iota
	// MethodPrediction is ML-based Prediction (trained on target runs).
	MethodPrediction
	// MethodRegression is ML-based Regression (trained on multi-core scale
	// models, extrapolated with a curve fit).
	MethodRegression
)

// MethodSpec fully describes one extrapolation method variant.
type MethodSpec struct {
	Method    MethodKind
	Estimator EstimatorKind // Prediction/Regression
	Form      fit.Model     // Regression curve family
	Inputs    Inputs
	// ScaleModels optionally restricts Regression to a subset of the
	// collected multi-core scale models (Fig. 11); nil = all.
	ScaleModels []int
}

// Name renders the paper's label for the method ("No Extrapolation",
// "SVM", "SVM-log", ...).
func (s MethodSpec) Name() string {
	switch s.Method {
	case MethodNoExtrapolation:
		return "No Extrapolation"
	case MethodPrediction:
		return s.Estimator.String()
	case MethodRegression:
		return fmt.Sprintf("%s-%s", s.Estimator, s.Form)
	default:
		return fmt.Sprintf("MethodSpec(%d)", int(s.Method))
	}
}

// predictFunc maps an application's features to a target-system estimate.
type predictFunc func(Features) (float64, error)

// trainFunc returns the spec's Predictor for labels measured on the
// cores-wide machine — the target system for Prediction, a multi-core scale
// model inside Regression — under the given estimator seed (random forest
// bootstrap): 0 for Prediction, the scale model's size inside Regression.
type trainFunc func(cores int, seed uint64) (*Predictor, error)

// buildMethod assembles the method described by spec from the predictors
// train hands out and returns its prediction function. collected lists the
// multi-core scale-model sizes the data holds, ascending; metric selects
// the no-extrapolation feature passthrough.
func buildMethod(spec MethodSpec, targetCores int, metric Metric, collected []int, train trainFunc) (predictFunc, error) {
	switch spec.Method {
	case MethodNoExtrapolation:
		return func(f Features) (float64, error) {
			if metric == MetricBW {
				return f.BW, nil
			}
			return NoExtrapolation(f), nil
		}, nil
	case MethodPrediction:
		p, err := train(targetCores, 0)
		if err != nil {
			return nil, err
		}
		return func(f Features) (float64, error) { return p.Predict(f), nil }, nil
	case MethodRegression:
		sizes := collected
		if spec.ScaleModels != nil {
			sizes = slices.Clone(spec.ScaleModels)
			slices.Sort(sizes)
			sizes = slices.Compact(sizes)
			for _, c := range sizes {
				if !slices.Contains(collected, c) {
					return nil, fmt.Errorf("scalemodel: no samples collected for %d-core scale model", c)
				}
			}
		}
		r, err := assembleRegression(spec.Form, sizes, train)
		if err != nil {
			return nil, err
		}
		return func(f Features) (float64, error) { return r.Predict(f, targetCores) }, nil
	default:
		return nil, fmt.Errorf("scalemodel: unknown method %d", int(spec.Method))
	}
}

// foldKey identifies one trained Predictor within a collected data set: the
// estimator and its inputs, the machine size whose measurements are the
// labels (see trainFunc), the benchmark held out of training (none in the
// heterogeneous protocol) and the effective seed; the metric is the data
// set's own. A Predictor is a pure function of these fields and the
// read-only data, so every method that needs one — any curve Form, any
// ScaleModels subset — shares a single training and gets the same bits.
type foldKey struct {
	kind    EstimatorKind
	inputs  Inputs
	cores   int
	heldOut string
	seed    uint64
}

// foldModels trains each fold model of one data set once and keeps it for
// the data set's lifetime.
type foldModels struct {
	mu      sync.Mutex
	entries map[foldKey]*foldEntry
	trained atomic.Int64 // trainings run; equals len(entries) once all return
}

type foldEntry struct {
	once sync.Once
	p    *Predictor
	err  error
}

// get returns k's model, training it on the first request. Concurrent
// callers of one key wait on that one training; the map's lock is released
// before it starts.
func (m *foldModels) get(k foldKey, train func() (*Predictor, error)) (*Predictor, error) {
	m.mu.Lock()
	e := m.entries[k]
	if e == nil {
		if m.entries == nil {
			m.entries = map[foldKey]*foldEntry{}
		}
		e = &foldEntry{}
		m.entries[k] = e
	}
	m.mu.Unlock()
	e.once.Do(func() {
		m.trained.Add(1)
		e.p, e.err = train()
	})
	return e.p, e.err
}

// HomogeneousData holds every measurement the homogeneous leave-one-out
// protocol needs (§IV-2): single-core features, target-system labels and
// multi-core scale-model labels for each benchmark.
type HomogeneousData struct {
	TargetCores int
	Metric      Metric
	Benchmarks  []string

	Meas   map[string]Measurement
	Feat   map[string]Features
	Target map[string]float64
	Scale  map[int]map[string]float64

	// SimTime is the simulator wall-clock the suite cost at each machine
	// size (1, the scale models, the target), as recorded in the collected
	// results — the speedup studies' only input besides the errors.
	SimTime map[int]time.Duration

	// engine lends EvaluateLOO its worker count (nil, as in hand-built
	// data, means one worker); models holds the fold models trained so far.
	engine *runner.Engine
	models foldModels
}

// CollectHomogeneous simulates everything the homogeneous protocol needs:
// for each benchmark, the single-core scale model, the homogeneous target
// run, and homogeneous runs on each multi-core scale model in scaleCores.
// The collection is one ordered job list run as one engine batch, and out[i]
// is metrics[i]'s data, each derived from the same results by index, so it
// is bit-identical for any worker count.
func (l *Lab) CollectHomogeneous(benchmarks []*trace.Profile, scaleCores []int, metrics ...Metric) ([]*HomogeneousData, error) {
	T := l.Target.Cores
	sizes := append([]int{1, T}, scaleCores...)
	cfgs, err := l.machines(sizes)
	if err != nil {
		return nil, err
	}
	jobs := make([]runner.Job, 0, len(benchmarks)*len(sizes))
	for _, prof := range benchmarks {
		for _, c := range sizes {
			jobs = append(jobs, runner.Job{Config: cfgs[c], Workload: sim.Homogeneous(prof, c), Options: l.Opts})
		}
	}
	results, err := l.RunBatch(jobs)
	if err != nil {
		return nil, err
	}

	out := make([]*HomogeneousData, len(metrics))
	for mi, metric := range metrics {
		d := &HomogeneousData{
			TargetCores: T,
			Metric:      metric,
			Meas:        map[string]Measurement{},
			Feat:        map[string]Features{},
			Target:      map[string]float64{},
			Scale:       map[int]map[string]float64{},
			SimTime:     map[int]time.Duration{},
			engine:      l.engine,
		}
		for _, c := range scaleCores {
			d.Scale[c] = map[string]float64{}
		}
		for bi, prof := range benchmarks {
			row := results[bi*len(sizes) : (bi+1)*len(sizes)]
			m := singleCoreMeasurement(cfgs[1], row[0])
			d.Benchmarks = append(d.Benchmarks, prof.Name)
			d.Meas[prof.Name] = m
			// In a homogeneous mix every co-runner is another copy of the
			// benchmark itself: CoBW = (T-1) * BW^ss.
			d.Feat[prof.Name] = Features{IPC: m.IPC, BW: m.BW, CoBW: float64(T-1) * m.BW}
			d.Target[prof.Name] = perBenchAverage(metric, l.Target, row[1])[prof.Name]
			for i, c := range scaleCores {
				d.Scale[c][prof.Name] = perBenchAverage(metric, cfgs[c], row[2+i])[prof.Name]
			}
			for i, c := range sizes {
				d.SimTime[c] += row[i].WallClock
			}
		}
		out[mi] = d
	}
	return out, nil
}

// samplesExcluding builds the training samples whose labels were measured
// on the cores-wide machine, from every benchmark except skip. The labels
// come from cores-copy homogeneous runs, so the co-runner bandwidth feature
// is the pressure of cores-1 copies — keeping each machine's feature space
// consistent with its measurements (Regression queries are projected into
// the same space by RegressionModel).
func (d *HomogeneousData) samplesExcluding(skip string, cores int) []Sample {
	labels := d.Scale[cores]
	if cores == d.TargetCores {
		labels = d.Target
	}
	out := make([]Sample, 0, len(d.Benchmarks))
	for _, b := range d.Benchmarks {
		if b == skip {
			continue
		}
		m := d.Meas[b]
		f := Features{IPC: m.IPC, BW: m.BW, CoBW: float64(cores-1) * m.BW}
		out = append(out, Sample{Bench: b, F: f, Y: labels[b]})
	}
	return out
}

// fanOut runs task(0), …, task(n-1) on e.Workers() goroutines (one if e is
// nil) taking indices in order from one counter; a task writes its own slot.
// It returns the first error in index order, with its index.
func fanOut(e *runner.Engine, n int, task func(i int) error) (int, error) {
	workers := 1
	if e != nil {
		workers = e.Workers()
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				errs[i] = task(i)
			}
		}()
	}
	wg.Wait()
	if i := slices.IndexFunc(errs, func(err error) bool { return err != nil }); i >= 0 {
		return i, errs[i]
	}
	return -1, nil
}

// EvaluateLOO runs the paper's leave-one-benchmark-out protocol for each
// method: for every benchmark, a model trained on the other N-1 benchmarks
// predicts it, and the absolute relative error against the target-system
// measurement is recorded, keyed by the benchmark's single-core LLC MPKI
// (Fig. 3/4 order benchmarks by memory intensity); out[s] is specs[s]'s.
// Every (spec, held-out benchmark) fold is one task of one fanOut: no method
// waits for the last one's slowest fold, and any worker count gives the same bits.
func (d *HomogeneousData) EvaluateLOO(specs ...MethodSpec) ([][]metrics.NamedError, error) {
	nb := len(d.Benchmarks)
	folds := make([]metrics.NamedError, len(specs)*nb)
	if i, err := fanOut(d.engine, len(folds), func(i int) error {
		b := d.Benchmarks[i%nb]
		pred, actual, err := d.PredictOne(b, specs[i/nb])
		folds[i] = metrics.NamedError{Name: b, Key: d.Meas[b].MPKI, Error: metrics.PredictionError(pred, actual)}
		return err
	}); err != nil {
		return nil, fmt.Errorf("scalemodel: %s for %s: %w", specs[i/nb].Name(), d.Benchmarks[i%nb], err)
	}
	out := make([][]metrics.NamedError, len(specs))
	for s := range out {
		out[s] = folds[s*nb : (s+1)*nb : (s+1)*nb]
		metrics.SortByKey(out[s])
	}
	return out, nil
}

// PredictOne returns spec's prediction for bench from models trained on
// every other benchmark, alongside the measured target value (one fold of
// the leave-one-out protocol). The fold's models come from d's cache.
func (d *HomogeneousData) PredictOne(bench string, spec MethodSpec) (pred, actual float64, err error) {
	if _, ok := d.Feat[bench]; !ok {
		return 0, 0, fmt.Errorf("scalemodel: benchmark %q not collected", bench)
	}
	predict, err := buildMethod(spec, d.TargetCores, d.Metric, sortedKeys(d.Scale), func(cores int, seed uint64) (*Predictor, error) {
		return d.models.get(foldKey{spec.Estimator, spec.Inputs, cores, bench, seed}, func() (*Predictor, error) {
			return TrainPredictor(spec.Estimator, spec.Inputs, d.Metric, d.samplesExcluding(bench, cores), seed)
		})
	})
	if err != nil {
		return 0, 0, err
	}
	pred, err = predict(d.Feat[bench])
	return pred, d.Target[bench], err
}

// HeteroOptions parameterises the heterogeneous protocol (§IV-2).
type HeteroOptions struct {
	// EvalBenchmarks is the number of randomly chosen evaluation
	// benchmarks (paper: 8); the rest of the suite trains the models.
	EvalBenchmarks int
	// TrainResults is the total number of labelled training results per
	// model (paper: 320). Prediction uses TrainResults/T target mixes;
	// Regression uses TrainResults/X mixes on each X-core scale model.
	TrainResults int
	// EvalMixes is the number of evaluation mixes per application (paper:
	// 10).
	EvalMixes int
	// STPMixes is the number of mixes for the system-throughput study
	// (paper: 80). 0 skips STP collection.
	STPMixes int
	// ScaleModels are the multi-core scale-model sizes for Regression
	// (paper: 2, 4, 8, 16).
	ScaleModels []int
	// Metric selects the dependent variable.
	Metric Metric
	// Seed drives benchmark selection and mix composition.
	Seed uint64
}

// DefaultHeteroOptions returns the paper's heterogeneous setup.
func DefaultHeteroOptions() HeteroOptions {
	return HeteroOptions{
		EvalBenchmarks: 8,
		TrainResults:   320,
		EvalMixes:      10,
		STPMixes:       80,
		ScaleModels:    []int{2, 4, 8, 16},
		Metric:         MetricIPC,
		Seed:           2022,
	}
}

// HeterogeneousData holds the heterogeneous protocol's measurements.
type HeterogeneousData struct {
	TargetCores int
	Metric      Metric

	TrainBenchmarks []string
	EvalBenchmarks  []string
	Meas            map[string]Measurement

	// PredSamples carry target-system labels; RegSamples carry labels per
	// multi-core scale-model size.
	PredSamples []Sample
	RegSamples  map[int][]Sample

	// EvalMixes are the balanced evaluation mixes with their measured
	// per-benchmark target values (metric units).
	EvalMixes []MixResult
	// STPMixes are the random mixes for the throughput study (IPC metric).
	STPMixes []MixResult

	engine *runner.Engine // lends EvaluatePerApp its worker count
	models foldModels     // the predictors trained so far, shared by every spec
}

// MixResult is one simulated mix: its composition and the measured
// per-benchmark average metric on the target system.
type MixResult struct {
	Slots  []string
	Actual map[string]float64
}

// features computes the per-benchmark features within this mix given the
// single-core measurements: CoBW sums the other slots' BW^ss.
func (m MixResult) features(meas map[string]Measurement) map[string]Features {
	total := 0.0
	for _, s := range m.Slots {
		total += meas[s].BW
	}
	out := make(map[string]Features)
	for _, s := range m.Slots {
		if _, ok := out[s]; ok {
			continue
		}
		mm := meas[s]
		out[s] = Features{IPC: mm.IPC, BW: mm.BW, CoBW: total - mm.BW}
	}
	return out
}

// CollectHeterogeneous simulates everything the heterogeneous protocol
// needs. All randomness (benchmark split, mix composition) derives from
// opts.Seed.
func (l *Lab) CollectHeterogeneous(suite []*trace.Profile, opts HeteroOptions) (*HeterogeneousData, error) {
	if opts.EvalBenchmarks <= 0 || opts.EvalBenchmarks >= len(suite) {
		return nil, fmt.Errorf("scalemodel: %d eval benchmarks out of %d", opts.EvalBenchmarks, len(suite))
	}
	T := l.Target.Cores
	rng := xrand.New(opts.Seed ^ 0x48e7e20)

	// Random train/eval split.
	perm := rng.Perm(len(suite))
	d := &HeterogeneousData{
		TargetCores: T,
		Metric:      opts.Metric,
		Meas:        map[string]Measurement{},
		RegSamples:  map[int][]Sample{},
		engine:      l.engine,
	}
	var evalProfiles, trainProfiles []*trace.Profile
	for i, pi := range perm {
		p := suite[pi]
		if i < opts.EvalBenchmarks {
			d.EvalBenchmarks = append(d.EvalBenchmarks, p.Name)
			evalProfiles = append(evalProfiles, p)
		} else {
			d.TrainBenchmarks = append(d.TrainBenchmarks, p.Name)
			trainProfiles = append(trainProfiles, p)
		}
	}

	randomMix := func(rng *xrand.RNG, pool []*trace.Profile, slots int) []*trace.Profile {
		mix := make([]*trace.Profile, slots)
		for i := range mix {
			mix[i] = pool[rng.Intn(len(pool))]
		}
		return mix
	}

	// Draw every mix composition up front: the draws depend only on the
	// seed, not on simulation results, so the whole collection is known
	// before anything runs.
	mixRng := rng.Split()
	nTrainMixes := opts.TrainResults / T
	if nTrainMixes < 1 {
		nTrainMixes = 1
	}
	trainMixes := make([][]*trace.Profile, nTrainMixes)
	for i := range trainMixes {
		trainMixes[i] = randomMix(mixRng, trainProfiles, T)
	}
	regMixes := make([][][]*trace.Profile, len(opts.ScaleModels))
	for xi, X := range opts.ScaleModels {
		n := opts.TrainResults / X
		if n < 1 {
			n = 1
		}
		smRng := rng.Split()
		for i := 0; i < n; i++ {
			regMixes[xi] = append(regMixes[xi], randomMix(smRng, trainProfiles, X))
		}
	}
	evalRng := rng.Split()
	evalMixes := make([][]*trace.Profile, opts.EvalMixes)
	for i := range evalMixes {
		evalMixes[i] = balancedMix(evalRng, evalProfiles, T)
	}
	stpRng := rng.Split()
	stpMixes := make([][]*trace.Profile, opts.STPMixes)
	for i := range stpMixes {
		stpMixes[i] = randomMix(stpRng, evalProfiles, T)
	}

	// One ordered job list — the single-core measurements, then every mix
	// group in protocol order — run as one batch and read back through a
	// cursor in the same order.
	cfgs, err := l.machines(append([]int{1, T}, opts.ScaleModels...))
	if err != nil {
		return nil, err
	}
	var jobs []runner.Job
	for _, p := range suite {
		jobs = append(jobs, runner.Job{Config: cfgs[1], Workload: sim.Homogeneous(p, 1), Options: l.Opts})
	}
	groups := append(append([][][]*trace.Profile{trainMixes}, regMixes...), evalMixes, stpMixes)
	for _, mixes := range groups {
		for _, mix := range mixes {
			jobs = append(jobs, runner.Job{Config: cfgs[len(mix)], Workload: sim.Workload{Profiles: mix}, Options: l.Opts})
		}
	}
	results, err := l.RunBatch(jobs)
	if err != nil {
		return nil, err
	}
	next := func() *sim.Result {
		res := results[0]
		results = results[1:]
		return res
	}

	// Single-core measurements for every benchmark.
	for _, p := range suite {
		d.Meas[p.Name] = singleCoreMeasurement(cfgs[1], next())
	}

	// Training mixes for ML-based Prediction: target-system runs.
	for _, mix := range trainMixes {
		d.PredSamples = append(d.PredSamples, d.mixSamples(mix, l.Target, next())...)
	}

	// Training mixes for ML-based Regression: multi-core scale models.
	for xi, X := range opts.ScaleModels {
		for _, mix := range regMixes[xi] {
			d.RegSamples[X] = append(d.RegSamples[X], d.mixSamples(mix, cfgs[X], next())...)
		}
	}

	// Evaluation mixes: balanced (each eval benchmark appears T/n times),
	// then shuffled across cores.
	for _, mix := range evalMixes {
		d.EvalMixes = append(d.EvalMixes, MixResult{
			Slots:  profileNames(mix),
			Actual: perBenchAverage(opts.Metric, l.Target, next()),
		})
	}

	// STP mixes: random compositions of eval benchmarks (IPC metric).
	for _, mix := range stpMixes {
		d.STPMixes = append(d.STPMixes, MixResult{
			Slots:  profileNames(mix),
			Actual: perBenchAverage(MetricIPC, l.Target, next()),
		})
	}
	return d, nil
}

// mixSamples labels one training mix: a sample per core of its run on cfg,
// with the mix's co-runner features.
func (d *HeterogeneousData) mixSamples(mix []*trace.Profile, cfg *config.SystemConfig, res *sim.Result) []Sample {
	feats := MixResult{Slots: profileNames(mix)}.features(d.Meas)
	out := make([]Sample, len(res.Cores))
	for i, cr := range res.Cores {
		out[i] = Sample{Bench: cr.Benchmark, F: feats[cr.Benchmark], Y: metricValue(d.Metric, cfg, cr)}
	}
	return out
}

func profileNames(ps []*trace.Profile) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// balancedMix distributes slots evenly across the pool and shuffles the
// arrangement (every benchmark participates in every evaluation mix).
func balancedMix(rng *xrand.RNG, pool []*trace.Profile, slots int) []*trace.Profile {
	mix := make([]*trace.Profile, slots)
	for i := range mix {
		mix[i] = pool[i%len(pool)]
	}
	rng.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
	return mix
}

// fitMethod assembles spec from predictors trained on the heterogeneous
// training data, each trained once however many specs and figures use it.
func (d *HeterogeneousData) fitMethod(spec MethodSpec) (predictFunc, error) {
	return buildMethod(spec, d.TargetCores, d.Metric, sortedKeys(d.RegSamples), func(cores int, seed uint64) (*Predictor, error) {
		return d.models.get(foldKey{spec.Estimator, spec.Inputs, cores, "", seed}, func() (*Predictor, error) {
			samples := d.RegSamples[cores]
			if cores == d.TargetCores {
				samples = d.PredSamples
			}
			return TrainPredictor(spec.Estimator, spec.Inputs, d.Metric, samples, seed)
		})
	})
}

// EvaluatePerApp returns, for each method, each evaluation benchmark's mean
// absolute prediction error across the evaluation mixes (Fig. 5), keyed by
// the benchmark's single-core LLC MPKI; out[s] is specs[s]'s, one fanOut
// task per spec.
func (d *HeterogeneousData) EvaluatePerApp(specs ...MethodSpec) ([][]metrics.NamedError, error) {
	out := make([][]metrics.NamedError, len(specs))
	if i, err := fanOut(d.engine, len(specs), func(i int) (err error) {
		out[i], err = d.perApp(specs[i])
		return err
	}); err != nil {
		return nil, fmt.Errorf("scalemodel: %s: %w", specs[i].Name(), err)
	}
	return out, nil
}

func (d *HeterogeneousData) perApp(spec MethodSpec) ([]metrics.NamedError, error) {
	predict, err := d.fitMethod(spec)
	if err != nil {
		return nil, err
	}
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, mix := range d.EvalMixes {
		feats := mix.features(d.Meas)
		for _, bench := range sortedKeys(feats) {
			pred, err := predict(feats[bench])
			if err != nil {
				return nil, err
			}
			sums[bench] += metrics.PredictionError(pred, mix.Actual[bench])
			counts[bench]++
		}
	}
	var out []metrics.NamedError
	for _, bench := range d.EvalBenchmarks {
		if counts[bench] == 0 {
			continue
		}
		out = append(out, metrics.NamedError{
			Name:  bench,
			Key:   d.Meas[bench].MPKI,
			Error: sums[bench] / float64(counts[bench]),
		})
	}
	metrics.SortByKey(out)
	return out, nil
}

// EvaluateSTP returns the absolute system-throughput prediction error for
// every STP mix (Fig. 6). STP is the sum over cores of target IPC
// normalised by the application's single-core scale-model IPC; the
// prediction replaces target IPC with the method's estimate.
func (d *HeterogeneousData) EvaluateSTP(spec MethodSpec) ([]float64, error) {
	if d.Metric != MetricIPC {
		return nil, fmt.Errorf("scalemodel: STP requires the IPC metric")
	}
	predict, err := d.fitMethod(spec)
	if err != nil {
		return nil, err
	}
	var errs []float64
	for _, mix := range d.STPMixes {
		feats := mix.features(d.Meas)
		var stpPred, stpActual float64
		for _, bench := range mix.Slots {
			base := d.Meas[bench].IPC
			if base <= 0 {
				return nil, fmt.Errorf("scalemodel: non-positive baseline IPC for %s", bench)
			}
			pred, err := predict(feats[bench])
			if err != nil {
				return nil, err
			}
			stpPred += pred / base
			stpActual += mix.Actual[bench] / base
		}
		errs = append(errs, metrics.PredictionError(stpPred, stpActual))
	}
	return errs, nil
}
