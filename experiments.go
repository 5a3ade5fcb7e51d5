package scalesim

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"scalesim/internal/config"
	"scalesim/internal/fit"
	"scalesim/internal/metrics"
	"scalesim/internal/scalemodel"
	"scalesim/internal/trace"
)

// Experiments drives the paper's full evaluation (§V). All underlying
// simulations are cached, so regenerating several figures shares their
// common runs; collecting the first figure is the expensive step.
type Experiments struct {
	// svc owns the engine the lab's collections run on, and its store.
	svc        *Service
	lab        *scalemodel.Lab
	suite      []*trace.Profile
	scaleCores []int
	heteroOpts scalemodel.HeteroOptions

	homog  map[scalemodel.Metric]*scalemodel.HomogeneousData
	hetero *scalemodel.HeterogeneousData
}

// NewExperiments prepares an experiment driver with the paper's defaults:
// the 29-benchmark suite, multi-core scale models of 2/4/8/16 cores, and
// the heterogeneous protocol of §IV-2.
func NewExperiments(opts SimOptions) (*Experiments, error) {
	return newExperiments(opts, trace.Suite())
}

// NewExperimentsSubset restricts the suite to the named benchmarks, each
// named once (useful for quick runs; the paper's numbers use the full suite).
func NewExperimentsSubset(opts SimOptions, names ...string) (*Experiments, error) {
	var suite []*trace.Profile
	for i, n := range names {
		p := trace.ByName(n)
		if p == nil {
			return nil, fmt.Errorf("scalesim: %w %q", ErrUnknownBenchmark, n)
		}
		if slices.Contains(names[:i], n) {
			return nil, fmt.Errorf("scalesim: %w: benchmark %q named twice", ErrBadSpec, n)
		}
		suite = append(suite, p)
	}
	if len(suite) < 3 {
		return nil, fmt.Errorf("scalesim: %w: need at least 3 benchmarks, got %d", ErrBadSpec, len(suite))
	}
	return newExperiments(opts, suite)
}

func newExperiments(opts SimOptions, suite []*trace.Profile) (*Experiments, error) {
	io, err := opts.internal()
	if err != nil {
		return nil, err
	}
	heteroOpts := scalemodel.DefaultHeteroOptions()
	if len(suite) < 12 {
		// Scale the protocol down with the suite for subset runs.
		heteroOpts.EvalBenchmarks = len(suite) / 3
		heteroOpts.TrainResults = 128
		heteroOpts.EvalMixes = 4
		heteroOpts.STPMixes = 10
	}
	// Sequential by default; SetWorkers widens the pool.
	svc, err := newService("experiment", ServiceConfig{Tuning: &Tuning{CampaignWorkers: 1}})
	if err != nil {
		return nil, err
	}
	return &Experiments{
		svc:        svc,
		lab:        scalemodel.NewLab(svc.eng, io),
		suite:      suite,
		scaleCores: []int{2, 4, 8, 16},
		heteroOpts: heteroOpts,
		homog:      map[scalemodel.Metric]*scalemodel.HomogeneousData{},
	}, nil
}

// Runs reports how many distinct simulations have been executed so far.
func (e *Experiments) Runs() int { return e.svc.Stats().UniqueRuns }

// CacheHits reports how many simulations were served from the memo cache.
func (e *Experiments) CacheHits() int { return e.svc.Stats().CacheHits }

// DiskHits reports how many simulations were served from the durable store.
func (e *Experiments) DiskHits() int { return e.svc.Stats().DiskHits }

// SetStore attaches the durable result store at dir (created on first use)
// as a second memoization tier: previously computed design points load from
// disk instead of simulating, making full-suite regeneration incremental
// across invocations. Results are bit-identical with or without a store.
// A second call replaces the first store and closes it.
func (e *Experiments) SetStore(dir string) error { return e.svc.attachStore("experiment", dir) }

// Close releases the attached store, if any.
func (e *Experiments) Close() error { return e.svc.Close() }

// CampaignReport renders the campaign engine's execution report: job
// counters plus a per-configuration table of where simulation time went
// (printed by `experiments -stats`).
func (e *Experiments) CampaignReport() string { return e.svc.eng.Report().String() }

// SetWorkers sets the campaign engine's worker-pool size (<= 0 selects
// GOMAXPROCS; the default is 1, i.e. sequential). It bounds both fan-outs:
// the batches of simulations a collection submits, and the leave-one-out
// folds an evaluation trains and predicts concurrently. Results are
// bit-identical for any worker count.
func (e *Experiments) SetWorkers(n int) { e.svc.eng.SetWorkers(n) }

func (e *Experiments) homogData(m scalemodel.Metric) (*scalemodel.HomogeneousData, error) {
	if d, ok := e.homog[m]; ok {
		return d, nil
	}
	d, err := e.lab.CollectHomogeneous(e.suite, e.scaleCores, m)
	if err != nil {
		return nil, err
	}
	e.homog[m] = d
	return d, nil
}

func (e *Experiments) heteroData() (*scalemodel.HeterogeneousData, error) {
	if e.hetero != nil {
		return e.hetero, nil
	}
	d, err := e.lab.CollectHeterogeneous(e.suite, e.heteroOpts)
	if err != nil {
		return nil, err
	}
	e.hetero = d
	return d, nil
}

// BenchError is one benchmark's absolute prediction error, with its LLC
// MPKI sort key (figures order benchmarks by memory intensity).
type BenchError struct {
	Benchmark string
	MPKI      float64
	Error     float64
}

// MethodResult is one method's evaluation outcome.
type MethodResult struct {
	Method   string
	PerBench []BenchError
	Mean     float64
	Max      float64
}

func methodResult(name string, errs []metrics.NamedError) MethodResult {
	mr := MethodResult{Method: name}
	vals := make([]float64, 0, len(errs))
	for _, e := range errs {
		mr.PerBench = append(mr.PerBench, BenchError{Benchmark: e.Name, MPKI: e.Key, Error: e.Error})
		vals = append(vals, e.Error)
	}
	s := metrics.Summarize(vals)
	mr.Mean, mr.Max = s.Mean, s.Max
	return mr
}

// FigureResult is one regenerated figure or table.
type FigureResult struct {
	ID      string
	Title   string
	Methods []MethodResult
}

// String renders the figure as a text table: one row per method, with the
// per-benchmark series (sorted by MPKI) and the mean/max summary the paper
// quotes.
func (f *FigureResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, f.Title)
	for _, m := range f.Methods {
		fmt.Fprintf(&b, "  %-22s avg %6.1f%%  max %6.1f%%\n", m.Method, 100*m.Mean, 100*m.Max)
	}
	if len(f.Methods) > 0 && len(f.Methods[0].PerBench) > 0 {
		fmt.Fprintf(&b, "  per-benchmark (sorted by LLC MPKI):\n")
		fmt.Fprintf(&b, "  %-12s", "benchmark")
		for _, m := range f.Methods {
			fmt.Fprintf(&b, " %12s", m.Method)
		}
		fmt.Fprintln(&b)
		for i, be := range f.Methods[0].PerBench {
			fmt.Fprintf(&b, "  %-12s", be.Benchmark)
			for _, m := range f.Methods {
				if i < len(m.PerBench) {
					fmt.Fprintf(&b, " %11.1f%%", 100*m.PerBench[i].Error)
				}
			}
			fmt.Fprintln(&b)
		}
	}
	return b.String()
}

// predictionSpecs returns the method lineup of Figs. 4, 5 and 12.
func predictionSpecs() []scalemodel.MethodSpec {
	return []scalemodel.MethodSpec{
		{Method: scalemodel.MethodNoExtrapolation},
		{Method: scalemodel.MethodPrediction, Estimator: scalemodel.DT},
		{Method: scalemodel.MethodPrediction, Estimator: scalemodel.RF},
		{Method: scalemodel.MethodPrediction, Estimator: scalemodel.SVM},
		{Method: scalemodel.MethodRegression, Estimator: scalemodel.DT, Form: fit.Logarithmic},
		{Method: scalemodel.MethodRegression, Estimator: scalemodel.RF, Form: fit.Logarithmic},
		{Method: scalemodel.MethodRegression, Estimator: scalemodel.SVM, Form: fit.Logarithmic},
	}
}

// regressionSpecs returns the ML-based regression lineup of Figs. 6 and 8:
// every estimator under the logarithmic curve.
func regressionSpecs() []scalemodel.MethodSpec {
	var specs []scalemodel.MethodSpec
	for _, est := range scalemodel.Kinds() {
		specs = append(specs, scalemodel.MethodSpec{Method: scalemodel.MethodRegression, Estimator: est, Form: fit.Logarithmic})
	}
	return specs
}

// addMethods appends one row per spec to the figure: evaluate applies every
// spec to the figure's data set in one call (one pool of folds), label names
// the row, and summaryOnly drops the per-benchmark series.
func (f *FigureResult) addMethods(evaluate func(...scalemodel.MethodSpec) ([][]metrics.NamedError, error), specs []scalemodel.MethodSpec, label func(scalemodel.MethodSpec) string, summaryOnly bool) error {
	errs, err := evaluate(specs...)
	if err != nil {
		return fmt.Errorf("%s: %w", f.ID, err)
	}
	for i, spec := range specs {
		mr := methodResult(label(spec), errs[i])
		if summaryOnly {
			mr.PerBench = nil
		}
		f.Methods = append(f.Methods, mr)
	}
	return nil
}

// homogFigure is a figure whose every row is a leave-one-out evaluation of
// the homogeneous collection for metric.
func (e *Experiments) homogFigure(id, title string, metric scalemodel.Metric, specs []scalemodel.MethodSpec, label func(scalemodel.MethodSpec) string, summaryOnly bool) (*FigureResult, error) {
	d, err := e.homogData(metric)
	if err != nil {
		return nil, err
	}
	out := &FigureResult{ID: id, Title: title}
	return out, out.addMethods(d.EvaluateLOO, specs, label, summaryOnly)
}

// noExtrapolation collects the suite on lab's single-core scale model and
// target only, and evaluates the No Extrapolation baseline on it: the shared
// step of Fig. 3, the ablations and the prefetcher study.
func (e *Experiments) noExtrapolation(lab *scalemodel.Lab) (*scalemodel.HomogeneousData, []metrics.NamedError, error) {
	d, err := lab.CollectHomogeneous(e.suite, nil, scalemodel.MetricIPC)
	if err != nil {
		return nil, nil, err
	}
	errs, err := d.EvaluateLOO(scalemodel.MethodSpec{Method: scalemodel.MethodNoExtrapolation})
	if err != nil {
		return nil, nil, err
	}
	return d, errs[0], nil
}

// Fig3Construction regenerates Fig. 3: single-core scale-model prediction
// error under the four construction policies (NRS; PRS scaling LLC only;
// PRS scaling DRAM only; PRS scaling all shared resources), sorted by LLC
// MPKI, no extrapolation.
func (e *Experiments) Fig3Construction() (*FigureResult, error) {
	policies := []struct {
		name   string
		policy config.ScalingPolicy
	}{
		{"NRS", config.NRS},
		{"PRS-LLC", config.PRSLLCOnly},
		{"PRS-DRAM", config.PRSDRAMOnly},
		{"PRS", config.PRSFull},
	}
	out := &FigureResult{ID: "Fig. 3", Title: "Scale-model construction: NRS vs PRS variants (single-core scale model, no extrapolation)"}
	for _, p := range policies {
		_, errs, err := e.noExtrapolation(e.lab.WithPolicy(p.policy))
		if err != nil {
			return nil, fmt.Errorf("fig3 %s: %w", p.name, err)
		}
		out.Methods = append(out.Methods, methodResult(p.name, errs))
	}
	return out, nil
}

// Fig4Homogeneous regenerates Fig. 4: extrapolation accuracy on homogeneous
// mixes — No Extrapolation vs ML prediction (DT/RF/SVM) vs ML regression
// (DT/RF/SVM-log), leave-one-benchmark-out.
func (e *Experiments) Fig4Homogeneous() (*FigureResult, error) {
	return e.homogFigure("Fig. 4", "Scale-model extrapolation, homogeneous workload mixes (LOO)",
		scalemodel.MetricIPC, predictionSpecs(), scalemodel.MethodSpec.Name, false)
}

// Fig5Heterogeneous regenerates Fig. 5: per-application prediction error on
// heterogeneous mixes.
func (e *Experiments) Fig5Heterogeneous() (*FigureResult, error) {
	d, err := e.heteroData()
	if err != nil {
		return nil, err
	}
	out := &FigureResult{ID: "Fig. 5", Title: "Scale-model extrapolation, heterogeneous workload mixes"}
	return out, out.addMethods(d.EvaluatePerApp, predictionSpecs(), scalemodel.MethodSpec.Name, false)
}

// STPResult is Fig. 6's outcome: sorted per-mix STP errors per method.
type STPResult struct {
	Methods []STPMethodResult
	Mixes   int
}

// STPMethodResult is one regression method's STP error curve.
type STPMethodResult struct {
	Method string
	Sorted []float64 // ascending per-mix absolute errors
	Mean   float64
	Max    float64
}

// String renders the sorted STP error curves.
func (r *STPResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 6 — STP prediction error across %d heterogeneous mixes\n", r.Mixes)
	for _, m := range r.Methods {
		fmt.Fprintf(&b, "  %-10s avg %5.1f%%  max %5.1f%%\n", m.Method, 100*m.Mean, 100*m.Max)
	}
	return b.String()
}

// Fig6STP regenerates Fig. 6: system-throughput prediction error of the
// ML-based regression methods across the heterogeneous STP mixes.
func (e *Experiments) Fig6STP() (*STPResult, error) {
	d, err := e.heteroData()
	if err != nil {
		return nil, err
	}
	out := &STPResult{Mixes: len(d.STPMixes)}
	for _, spec := range regressionSpecs() {
		errs, err := d.EvaluateSTP(spec)
		if err != nil {
			return nil, fmt.Errorf("fig6 %s: %w", spec.Name(), err)
		}
		sorted := metrics.Sorted(errs)
		s := metrics.Summarize(errs)
		out.Methods = append(out.Methods, STPMethodResult{
			Method: spec.Name(), Sorted: sorted, Mean: s.Mean, Max: s.Max,
		})
	}
	return out, nil
}

// SpeedupPoint is one point of Fig. 7: a method's mean error and its
// simulation speedup over simulating the target system.
type SpeedupPoint struct {
	Label   string
	Error   float64
	Speedup float64
}

// SpeedupResult is Fig. 7's outcome.
type SpeedupResult struct {
	NoExtrapolation []SpeedupPoint // 16-, 8-, 4-, 2-, 1-core scale models
	ML              []SpeedupPoint // SVM, SVM-log (single-core scale model)
}

// String renders the error-versus-speedup points.
func (r *SpeedupResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 7 — prediction error vs simulation speedup\n")
	for _, p := range r.NoExtrapolation {
		fmt.Fprintf(&b, "  No Extrapolation %-9s err %5.1f%%  speedup %6.1fx\n", p.Label, 100*p.Error, p.Speedup)
	}
	for _, p := range r.ML {
		fmt.Fprintf(&b, "  %-26s err %5.1f%%  speedup %6.1fx\n", p.Label, 100*p.Error, p.Speedup)
	}
	return b.String()
}

// Fig7ErrorVsSpeedup regenerates Fig. 7: No Extrapolation accuracy with
// increasingly large scale models (1-16 cores) against their measured
// simulation speedup, plus the ML methods at the single-core scale model's
// speedup. Speedups are measured wall-clock ratios on this host.
func (e *Experiments) Fig7ErrorVsSpeedup() (*SpeedupResult, error) {
	d, err := e.homogData(scalemodel.MetricIPC)
	if err != nil {
		return nil, err
	}
	// Wall-clock per machine size, as the collection recorded it.
	targetSecs := d.SimTime[d.TargetCores].Seconds()

	out := &SpeedupResult{}
	// No-extrapolation points: the X-core scale-model reading predicts
	// per-core target performance directly.
	sizes := append([]int{1}, e.scaleCores...)
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	for _, X := range sizes {
		var errs []float64
		for _, b := range d.Benchmarks {
			pred := d.Meas[b].IPC
			if X > 1 {
				pred = d.Scale[X][b]
			}
			errs = append(errs, metrics.PredictionError(pred, d.Target[b]))
		}
		s := metrics.Summarize(errs)
		out.NoExtrapolation = append(out.NoExtrapolation, SpeedupPoint{
			Label:   fmt.Sprintf("%d-core", X),
			Error:   s.Mean,
			Speedup: targetSecs / d.SimTime[X].Seconds(),
		})
	}
	// ML points: both methods only need the single-core scale model at
	// prediction time.
	specs := []scalemodel.MethodSpec{
		{Method: scalemodel.MethodPrediction, Estimator: scalemodel.SVM},
		{Method: scalemodel.MethodRegression, Estimator: scalemodel.SVM, Form: fit.Logarithmic},
	}
	errs, err := d.EvaluateLOO(specs...)
	if err != nil {
		return nil, err
	}
	for i, spec := range specs {
		out.ML = append(out.ML, SpeedupPoint{
			Label:   spec.Name() + " (1-core)",
			Error:   methodResult(spec.Name(), errs[i]).Mean,
			Speedup: targetSecs / d.SimTime[1].Seconds(),
		})
	}
	return out, nil
}

// Fig8BandwidthScaling regenerates Fig. 8: MC-first versus MB-first DRAM
// bandwidth scaling, comparing the direct multi-core scale-model readings
// and the ML-based regression methods under both orders.
func (e *Experiments) Fig8BandwidthScaling() (*FigureResult, error) {
	out := &FigureResult{ID: "Fig. 8", Title: "Memory bandwidth scaling alternatives under PRS (MC-first vs MB-first)"}
	for _, bwp := range []struct {
		name string
		bw   config.BandwidthScaling
	}{{"MC-first", config.MCFirst}, {"MB-first", config.MBFirst}} {
		var d *scalemodel.HomogeneousData
		var err error
		if bwp.bw == e.lab.Bandwidth {
			// The base lab's own order is Fig. 4's data: its rows reuse the
			// fold models already trained there.
			d, err = e.homogData(scalemodel.MetricIPC)
		} else {
			d, err = e.lab.WithBandwidth(bwp.bw).CollectHomogeneous(e.suite, e.scaleCores, scalemodel.MetricIPC)
		}
		if err != nil {
			return nil, fmt.Errorf("fig8 %s: %w", bwp.name, err)
		}
		// Direct scale-model readings per size.
		for _, X := range e.scaleCores {
			var errs []float64
			for _, b := range d.Benchmarks {
				errs = append(errs, metrics.PredictionError(d.Scale[X][b], d.Target[b]))
			}
			s := metrics.Summarize(errs)
			out.Methods = append(out.Methods, MethodResult{
				Method: fmt.Sprintf("%s %d-core", bwp.name, X),
				Mean:   s.Mean, Max: s.Max,
			})
		}
		label := func(spec scalemodel.MethodSpec) string { return bwp.name + " " + spec.Name() }
		if err := out.addMethods(d.EvaluateLOO, regressionSpecs(), label, true); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Fig9RegressionForms regenerates Fig. 9: linear vs power vs logarithmic
// regression under SVM-based regression.
func (e *Experiments) Fig9RegressionForms() (*FigureResult, error) {
	var specs []scalemodel.MethodSpec
	for _, form := range []fit.Model{fit.Linear, fit.Power, fit.Logarithmic} {
		specs = append(specs, scalemodel.MethodSpec{Method: scalemodel.MethodRegression, Estimator: scalemodel.SVM, Form: form})
	}
	return e.homogFigure("Fig. 9", "Regression curve families under SVM-based regression",
		scalemodel.MetricIPC, specs, scalemodel.MethodSpec.Name, false)
}

// Fig10Inputs regenerates Fig. 10: using IPC-only versus IPC+bandwidth as
// model inputs, for every ML method.
func (e *Experiments) Fig10Inputs() (*FigureResult, error) {
	var specs []scalemodel.MethodSpec
	for _, in := range []scalemodel.Inputs{scalemodel.InputsIPCOnly, scalemodel.InputsIPCAndBW} {
		for _, spec := range predictionSpecs()[1:] { // skip No Extrapolation
			spec.Inputs = in
			specs = append(specs, spec)
		}
	}
	label := func(spec scalemodel.MethodSpec) string { return fmt.Sprintf("%s (%s)", spec.Name(), spec.Inputs) }
	return e.homogFigure("Fig. 10", "ML input variables: performance-only vs performance+bandwidth",
		scalemodel.MetricIPC, specs, label, true)
}

// Fig11ScaleModelCount regenerates Fig. 11: SVM-log regression accuracy as
// the number of multi-core scale models shrinks from four to two.
func (e *Experiments) Fig11ScaleModelCount() (*FigureResult, error) {
	var specs []scalemodel.MethodSpec
	for _, sub := range [][]int{{2, 4}, {2, 4, 8}, {2, 4, 8, 16}} {
		specs = append(specs, scalemodel.MethodSpec{
			Method: scalemodel.MethodRegression, Estimator: scalemodel.SVM,
			Form: fit.Logarithmic, ScaleModels: sub,
		})
	}
	label := func(spec scalemodel.MethodSpec) string {
		return fmt.Sprintf("%d scale models %v", len(spec.ScaleModels), spec.ScaleModels)
	}
	return e.homogFigure("Fig. 11", "Number of multi-core scale models used for SVM-log regression",
		scalemodel.MetricIPC, specs, label, true)
}

// Fig12Bandwidth regenerates Fig. 12: predicting per-application memory
// bandwidth utilization instead of performance.
func (e *Experiments) Fig12Bandwidth() (*FigureResult, error) {
	return e.homogFigure("Fig. 12", "Predicting memory bandwidth utilization",
		scalemodel.MetricBW, predictionSpecs(), scalemodel.MethodSpec.Name, true)
}

// SimTimeRow is one row of the simulation-cost study (§I: 8/16/32-core
// simulations take super-linearly longer).
type SimTimeRow struct {
	Cores      int
	TotalSecs  float64
	PerBenchMs float64
}

// SimTimeRows is the simulation-cost study: one row per machine size,
// smallest first, the target last.
type SimTimeRows []SimTimeRow

// String renders the rows with each size's speedup over the target.
func (rows SimTimeRows) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Simulation time study (§I / §V-D) — wall-clock per machine size, full homogeneous suite\n")
	target := rows[len(rows)-1]
	for _, r := range rows {
		fmt.Fprintf(&b, "  %2d cores: %8.2fs total (%6.1f ms/benchmark)  speedup vs %d-core: %5.1fx\n",
			r.Cores, r.TotalSecs, r.PerBenchMs, target.Cores, target.TotalSecs/r.TotalSecs)
	}
	return b.String()
}

// SimulationTimeStudy reports the wall-clock cost of simulating the
// homogeneous suite at each machine size, reproducing §I's super-linear
// growth observation and the 28x single-core speedup claim. It reads the
// durations the homogeneous collection recorded.
func (e *Experiments) SimulationTimeStudy() (SimTimeRows, error) {
	d, err := e.homogData(scalemodel.MetricIPC)
	if err != nil {
		return nil, err
	}
	var rows SimTimeRows
	for _, c := range append(append([]int{1}, e.scaleCores...), d.TargetCores) {
		total := d.SimTime[c].Seconds()
		rows = append(rows, SimTimeRow{
			Cores:      c,
			TotalSecs:  total,
			PerBenchMs: 1000 * total / float64(len(e.suite)),
		})
	}
	return rows, nil
}

// Figure is one entry of the evaluation's table of contents.
type Figure struct {
	ID   string // what the CLIs select it by: "3".."12", "mt", "ablations", "prefetch", "speedup"
	Name string
	Run  func() (fmt.Stringer, error)
}

// figure adapts a FigN method, whose result type is its own, to a table entry.
func figure[T fmt.Stringer](id, name string, run func() (T, error)) Figure {
	return Figure{ID: id, Name: name, Run: func() (fmt.Stringer, error) { return run() }}
}

// Figures lists everything the driver can regenerate, in report order. Both
// CLIs loop over it.
func (e *Experiments) Figures() []Figure {
	return []Figure{
		figure("3", "Fig. 3", e.Fig3Construction),
		figure("4", "Fig. 4", e.Fig4Homogeneous),
		figure("5", "Fig. 5", e.Fig5Heterogeneous),
		figure("6", "Fig. 6", e.Fig6STP),
		figure("7", "Fig. 7", e.Fig7ErrorVsSpeedup),
		figure("8", "Fig. 8", e.Fig8BandwidthScaling),
		figure("9", "Fig. 9", e.Fig9RegressionForms),
		figure("10", "Fig. 10", e.Fig10Inputs),
		figure("11", "Fig. 11", e.Fig11ScaleModelCount),
		figure("12", "Fig. 12", e.Fig12Bandwidth),
		figure("mt", "Extension: multi-threaded", e.ExtMultithreaded),
		figure("ablations", "Ablations", e.Ablations),
		figure("prefetch", "Extension: prefetcher robustness", e.PrefetchStudy),
		figure("speedup", "Simulation time study", e.SimulationTimeStudy),
	}
}

// PredictTargetIPC predicts the named benchmark's per-core IPC on the
// 32-core target using SVM-log regression trained on the rest of the suite
// — the paper's recommended practical configuration (no target-system
// simulations needed for training).
func (e *Experiments) PredictTargetIPC(benchmark string) (float64, error) {
	d, err := e.suiteData(benchmark)
	if err != nil {
		return 0, err
	}
	spec := scalemodel.MethodSpec{
		Method: scalemodel.MethodRegression, Estimator: scalemodel.SVM, Form: fit.Logarithmic,
	}
	pred, _, err := d.PredictOne(benchmark, spec)
	return pred, err
}

// ActualTargetIPC simulates the benchmark homogeneously on the 32-core
// target and returns the measured per-core IPC (for validating
// predictions).
func (e *Experiments) ActualTargetIPC(benchmark string) (float64, error) {
	d, err := e.suiteData(benchmark)
	if err != nil {
		return 0, err
	}
	return d.Target[benchmark], nil
}

// suiteData returns the homogeneous IPC collection, refusing a benchmark
// outside the experiment suite (ErrUnknownBenchmark) before it simulates.
func (e *Experiments) suiteData(benchmark string) (*scalemodel.HomogeneousData, error) {
	if !slices.ContainsFunc(e.suite, func(p *trace.Profile) bool { return p.Name == benchmark }) {
		return nil, fmt.Errorf("scalesim: %w %q: not in the experiment suite", ErrUnknownBenchmark, benchmark)
	}
	return e.homogData(scalemodel.MetricIPC)
}
