package scalesim

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"time"

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
	}, nil
}

// Runs reports how many distinct simulations have been executed so far.
func (e *Experiments) Runs() int { return e.svc.Stats().UniqueRuns }

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

// homogData returns the base lab's homogeneous collection for m. The first
// call collects once for both metrics the figures read (Fig. 12's is BW).
func (e *Experiments) homogData(m scalemodel.Metric) (*scalemodel.HomogeneousData, error) {
	if d, ok := e.homog[m]; ok {
		return d, nil
	}
	ds, err := e.lab.CollectHomogeneous(e.suite, e.scaleCores, scalemodel.MetricIPC, scalemodel.MetricBW)
	if err != nil {
		return nil, err
	}
	e.homog = map[scalemodel.Metric]*scalemodel.HomogeneousData{scalemodel.MetricIPC: ds[0], scalemodel.MetricBW: ds[1]}
	return e.homog[m], nil
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

// BenchError is one benchmark's absolute prediction error; a method's
// series is in LLC MPKI order (figures order benchmarks by memory intensity).
type BenchError struct {
	Benchmark string
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
		mr.PerBench = append(mr.PerBench, BenchError{Benchmark: e.Name, Error: e.Error})
		vals = append(vals, e.Error)
	}
	s := metrics.Summarize(vals)
	mr.Mean, mr.Max = s.Mean, s.Max
	return mr
}

// FigureResult is a regenerated figure as Figs. 4 and 9-12 return it.
type FigureResult struct {
	ID      string
	Title   string
	Methods []MethodResult
}

// String renders the figure's Table.
func (f *FigureResult) String() string { return f.Table().String() }

// avgMax are the columns of a method's mean and max error, each cell printed
// with verb.
func avgMax(verb string) []Column {
	return []Column{
		{Name: "avg", Unit: "%", Format: " avg " + verb + "%%"},
		{Name: "max", Unit: "%", Format: "  max " + verb + "%%"},
	}
}

// Table lays the figure out: one row per method with its mean and max error,
// then, if the methods carry it, the per-benchmark series (sorted by MPKI).
func (f *FigureResult) Table() *Table {
	sum := Block{LabelFormat: "  %-22s", Columns: avgMax("%6.1f")}
	per := Block{Heading: "per-benchmark (sorted by LLC MPKI):", Label: "benchmark", LabelFormat: "  %-12s"}
	for _, m := range f.Methods {
		sum.Rows = append(sum.Rows, Row{Label: m.Method, Values: []Cell{Cell(m.Mean), Cell(m.Max)}})
		// A column is as wide as its method's name, "No Extrapolation" included.
		per.Columns = append(per.Columns, Column{Name: m.Method, Unit: "%", Format: fmt.Sprintf(" %%%d.1f%%%%", max(11, len(m.Method)))})
	}
	t := &Table{ID: f.ID, Title: f.Title, Blocks: []Block{sum}}
	if len(f.Methods) == 0 || len(f.Methods[0].PerBench) == 0 {
		return t
	}
	for i, be := range f.Methods[0].PerBench {
		row := Row{Label: be.Benchmark}
		for _, m := range f.Methods {
			if i < len(m.PerBench) {
				row.Values = append(row.Values, Cell(m.PerBench[i].Error))
			}
		}
		per.Rows = append(per.Rows, row)
	}
	t.Blocks = append(t.Blocks, per)
	return t
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
	ds, err := lab.CollectHomogeneous(e.suite, nil, scalemodel.MetricIPC)
	if err != nil {
		return nil, nil, err
	}
	d := ds[0]
	errs, err := d.EvaluateLOO(scalemodel.MethodSpec{Method: scalemodel.MethodNoExtrapolation})
	if err != nil {
		return nil, nil, err
	}
	return d, errs[0], nil
}

// direct summarizes the error of reading the X-core scale model's per-core
// value as the target's, without extrapolation (X = 1: the single-core model).
func direct(d *scalemodel.HomogeneousData, X int) metrics.Summary {
	var errs []float64
	for _, b := range d.Benchmarks {
		pred := d.Meas[b].IPC
		if X > 1 {
			pred = d.Scale[X][b]
		}
		errs = append(errs, metrics.PredictionError(pred, d.Target[b]))
	}
	return metrics.Summarize(errs)
}

// fig3Construction regenerates Fig. 3: single-core scale-model prediction
// error under the four construction policies (NRS; PRS scaling LLC only;
// PRS scaling DRAM only; PRS scaling all shared resources), sorted by LLC
// MPKI, no extrapolation.
func (e *Experiments) fig3Construction() (*Table, error) {
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
	return out.Table(), nil
}

// Fig4Homogeneous regenerates Fig. 4: extrapolation accuracy on homogeneous
// mixes — No Extrapolation vs ML prediction (DT/RF/SVM) vs ML regression
// (DT/RF/SVM-log), leave-one-benchmark-out.
func (e *Experiments) Fig4Homogeneous() (*FigureResult, error) {
	return e.homogFigure("Fig. 4", "Scale-model extrapolation, homogeneous workload mixes (LOO)",
		scalemodel.MetricIPC, predictionSpecs(), scalemodel.MethodSpec.Name, false)
}

// fig5Heterogeneous regenerates Fig. 5: per-application prediction error on
// heterogeneous mixes.
func (e *Experiments) fig5Heterogeneous() (*Table, error) {
	d, err := e.heteroData()
	if err != nil {
		return nil, err
	}
	out := &FigureResult{ID: "Fig. 5", Title: "Scale-model extrapolation, heterogeneous workload mixes"}
	err = out.addMethods(d.EvaluatePerApp, predictionSpecs(), scalemodel.MethodSpec.Name, false)
	return out.Table(), err
}

// fig6STP regenerates Fig. 6: system-throughput prediction error of the
// ML-based regression methods across the heterogeneous STP mixes.
func (e *Experiments) fig6STP() (*Table, error) {
	d, err := e.heteroData()
	if err != nil {
		return nil, err
	}
	blk := Block{LabelFormat: "  %-10s", Columns: avgMax("%5.1f")}
	for _, spec := range regressionSpecs() {
		errs, err := d.EvaluateSTP(spec)
		if err != nil {
			return nil, fmt.Errorf("fig6 %s: %w", spec.Name(), err)
		}
		s := metrics.Summarize(errs)
		blk.Rows = append(blk.Rows, Row{Label: spec.Name(), Values: []Cell{Cell(s.Mean), Cell(s.Max)}})
	}
	return &Table{ID: "Fig. 6", Title: fmt.Sprintf("STP prediction error across %d heterogeneous mixes", len(d.STPMixes)), Blocks: []Block{blk}}, nil
}

// fig7ErrorVsSpeedup regenerates Fig. 7: No Extrapolation accuracy with
// increasingly large scale models (1-16 cores) against their measured
// simulation speedup, plus the ML methods at the single-core scale model's
// speedup. Speedups are measured wall-clock ratios on this host.
func (e *Experiments) fig7ErrorVsSpeedup() (*Table, error) {
	d, err := e.homogData(scalemodel.MetricIPC)
	if err != nil {
		return nil, err
	}
	// Wall-clock per machine size, as the collection recorded it.
	targetSecs := d.SimTime[d.TargetCores].Seconds()
	blk := Block{LabelFormat: "  %-26s", Columns: []Column{
		{Name: "err", Unit: "%", Format: " err %5.1f%%"},
		{Name: "speedup", Unit: "x", Format: "  speedup %6.1fx"},
	}}
	point := func(label string, err float64, cores int) {
		blk.Rows = append(blk.Rows, Row{Label: label, Values: []Cell{Cell(err), Cell(targetSecs / d.SimTime[cores].Seconds())}})
	}
	sizes := append([]int{1}, e.scaleCores...)
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	for _, X := range sizes {
		point(fmt.Sprintf("No Extrapolation %d-core", X), direct(d, X).Mean, X)
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
		point(spec.Name()+" (1-core)", methodResult(spec.Name(), errs[i]).Mean, 1)
	}
	return &Table{ID: "Fig. 7", Title: "prediction error vs simulation speedup", Blocks: []Block{blk}}, nil
}

// fig8BandwidthScaling regenerates Fig. 8: MC-first versus MB-first DRAM
// bandwidth scaling, comparing the direct multi-core scale-model readings
// and the ML-based regression methods under both orders.
func (e *Experiments) fig8BandwidthScaling() (*Table, error) {
	out := &FigureResult{ID: "Fig. 8", Title: "Memory bandwidth scaling alternatives under PRS (MC-first vs MB-first)"}
	for _, bwp := range []struct {
		name string
		bw   config.BandwidthScaling
	}{{"MC-first", config.MCFirst}, {"MB-first", config.MBFirst}} {
		ds, err := []*scalemodel.HomogeneousData{nil}, error(nil)
		if bwp.bw == e.lab.Bandwidth {
			// The base lab's own order is Fig. 4's data: its rows reuse the
			// fold models already trained there.
			ds[0], err = e.homogData(scalemodel.MetricIPC)
		} else {
			ds, err = e.lab.WithBandwidth(bwp.bw).CollectHomogeneous(e.suite, e.scaleCores, scalemodel.MetricIPC)
		}
		if err != nil {
			return nil, fmt.Errorf("fig8 %s: %w", bwp.name, err)
		}
		d := ds[0]
		// Direct scale-model readings per size.
		for _, X := range e.scaleCores {
			s := direct(d, X)
			out.Methods = append(out.Methods, MethodResult{Method: fmt.Sprintf("%s %d-core", bwp.name, X), Mean: s.Mean, Max: s.Max})
		}
		label := func(spec scalemodel.MethodSpec) string { return bwp.name + " " + spec.Name() }
		if err := out.addMethods(d.EvaluateLOO, regressionSpecs(), label, true); err != nil {
			return nil, err
		}
	}
	return out.Table(), nil
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

// simulationTimeStudy reports the wall-clock cost of simulating the
// homogeneous suite at each machine size, reproducing §I's super-linear
// growth observation and the 28x single-core speedup claim. It reads the
// durations the homogeneous collection recorded.
func (e *Experiments) simulationTimeStudy() (*Table, error) {
	d, err := e.homogData(scalemodel.MetricIPC)
	if err != nil {
		return nil, err
	}
	return simTimeTable(d.SimTime, append(append([]int{1}, e.scaleCores...), d.TargetCores), len(e.suite)), nil
}

// simTimeTable lays the time study out: per machine size, smallest first and
// the target last, its total and per-benchmark wall-clock and its speedup
// over the target.
func simTimeTable(simTime map[int]time.Duration, cores []int, benchmarks int) *Table {
	last := cores[len(cores)-1]
	blk := Block{LabelFormat: "  %2s cores:", Columns: []Column{
		{Name: "total", Unit: "s", Format: " %8.2fs total"},
		{Name: "per benchmark", Unit: "ms", Format: " (%6.1f ms/benchmark)"},
		{Name: "speedup", Unit: "x", Format: fmt.Sprintf("  speedup vs %d-core: %%5.1fx", last)},
	}}
	for _, c := range cores {
		secs := simTime[c].Seconds()
		blk.Rows = append(blk.Rows, Row{Label: strconv.Itoa(c), Values: []Cell{Cell(secs), Cell(1000 * secs / float64(benchmarks)), Cell(simTime[last].Seconds() / secs)}})
	}
	return &Table{ID: "Simulation time study (§I / §V-D)", Title: "wall-clock per machine size, full homogeneous suite", Blocks: []Block{blk}}
}

// TableI reproduces the paper's Table I, the Proportional Resource Scaling
// ladder from the 32-core target down to one core, with a block per DRAM
// bandwidth order: MC-first (the paper's table) and MB-first (§V-E1). A row's
// label names its size and order, e.g. "8-core MB-first"; its columns are the
// LLC (MB, slices), the NoC (bisection GB/s, CSLs, GB/s per CSL) and the DRAM
// (GB/s, MCs, GB/s per MC).
func TableI() *Table {
	t := &Table{ID: "Table I", Title: "scale-model construction (Proportional Resource Scaling)"}
	for _, order := range []struct {
		bw      config.BandwidthScaling
		heading string
	}{
		{config.MCFirst, "MC-first, the paper's table: memory controllers are dropped first"},
		{config.MBFirst, "MB-first (§V-E1): bandwidth per controller shrinks first"},
	} {
		blk := Block{Heading: order.heading, LabelFormat: "  %16s", Columns: []Column{
			{Name: "LLC", Unit: "MB", Format: " | %2g MB:"},
			{Name: "slices", Unit: "count", Format: " %2g slices"},
			{Name: "NoC", Unit: "GB/s", Format: " | %3g GB/s:"},
			{Name: "CSLs", Unit: "count", Format: " %g CSLs,"},
			{Name: "per CSL", Unit: "GB/s", Format: " %2g GB/s per CSL"},
			{Name: "DRAM", Unit: "GB/s", Format: " | %3g GB/s:"},
			{Name: "MCs", Unit: "count", Format: " %g MCs,"},
			{Name: "per MC", Unit: "GB/s", Format: " %2g GB/s per MC"},
		}}
		for _, n := range []int{32, 16, 8, 4, 2, 1} {
			sm, err := config.ScaleModel(config.Target(), n, config.ScaleModelOptions{Policy: config.PRSFull, Bandwidth: order.bw})
			if err != nil {
				panic(err) // unreachable: every count divides 32
			}
			blk.Rows = append(blk.Rows, Row{Label: fmt.Sprintf("%d-core %v", n, order.bw), Values: []Cell{
				Cell(float64(sm.LLC.Size()) / float64(config.MB)), Cell(sm.LLC.Slices),
				Cell(sm.NoC.BisectionGBps()), Cell(sm.NoC.CrossSectionLinks), Cell(sm.NoC.LinkGBps),
				Cell(sm.DRAM.TotalGBps()), Cell(sm.DRAM.Controllers), Cell(sm.DRAM.PerControllerGBps),
			}})
		}
		t.Blocks = append(t.Blocks, blk)
	}
	return t
}

// Figure is one entry of the evaluation's table of contents.
type Figure struct {
	ID   string // what cmd/experiments -figs selects it by: "1" (Table I), "3".."12", "mt", "ablations", "prefetch", "speedup"
	Name string
	Run  func() (*Table, error)
}

// Figures lists everything the driver can regenerate, in report order;
// cmd/experiments loops over it. The builders of Figs. 4 and 9-12 are
// exported too, because bench/cmd/scalebench calls them by name.
func (e *Experiments) Figures() []Figure {
	table := func(run func() (*FigureResult, error)) func() (*Table, error) {
		return func() (*Table, error) {
			f, err := run()
			if err != nil {
				return nil, err
			}
			return f.Table(), nil
		}
	}
	return []Figure{
		{"1", "Table I", func() (*Table, error) { return TableI(), nil }},
		{"3", "Fig. 3", e.fig3Construction},
		{"4", "Fig. 4", table(e.Fig4Homogeneous)},
		{"5", "Fig. 5", e.fig5Heterogeneous},
		{"6", "Fig. 6", e.fig6STP},
		{"7", "Fig. 7", e.fig7ErrorVsSpeedup},
		{"8", "Fig. 8", e.fig8BandwidthScaling},
		{"9", "Fig. 9", table(e.Fig9RegressionForms)},
		{"10", "Fig. 10", table(e.Fig10Inputs)},
		{"11", "Fig. 11", table(e.Fig11ScaleModelCount)},
		{"12", "Fig. 12", table(e.Fig12Bandwidth)},
		{"mt", "Extension: multi-threaded", e.extMultithreaded},
		{"ablations", "Ablations", e.ablations},
		{"prefetch", "Extension: prefetcher robustness", e.prefetchStudy},
		{"speedup", "Simulation time study", e.simulationTimeStudy},
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
