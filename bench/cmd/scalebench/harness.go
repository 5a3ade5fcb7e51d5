package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"scalesim"
)

// runConfig is one invocation of the harness.
type runConfig struct {
	Workloads []string // names from the workloads table; empty selects all
	Seed      uint64   // drives mix selection, key order and request scripts
	// Seconds is the nominal length of one timed phase on the 2-CPU
	// reference box. Every operation count is a fixed multiple of it, so a
	// run measures a fixed amount of work — never a fixed duration — and the
	// same seed always yields the same operations and the same digest.
	Seconds float64
	Trace   bool   // measure per-layer metrics instead of end-to-end ones
	OutDir  string // span JSONL and every temp dir live below it
	Setups  int    // set-up repetitions of an untraced run; the median is reported
	// Sim is the simulation fidelity every workload derives its options
	// from. FastOptions in production; the tests shrink it.
	Sim scalesim.SimOptions
}

// env is what a workload's set-up sees: the configuration and a place to
// put temp dirs that the harness removes on every exit path.
type env struct {
	cfg runConfig
	tmp string
}

func (e *env) mkTemp(prefix string) (string, error) {
	dir, err := os.MkdirTemp(e.tmp, prefix+"-")
	if err != nil {
		return "", fmt.Errorf("creating temp dir: %w", err)
	}
	return dir, nil
}

// ops scales a workload's operation count: perTenSeconds is the count that
// fills ten seconds on the reference box.
func (e *env) ops(perTenSeconds, floor int) int {
	return max(floor, int(math.Round(float64(perTenSeconds)*e.cfg.Seconds/10)))
}

// pointOptions is the budget of the 1-core design points the serving
// workloads and the tier-chain probe use (60k/20k instructions at
// FastOptions).
func (e *env) pointOptions(seed uint64) scalesim.SimOptions {
	o := e.cfg.Sim
	o.Instructions = o.Instructions * 3 / 10
	o.Warmup = o.Warmup / 3
	o.Seed = seed
	return o
}

// workload is one entry of the benchmark. setup builds a fresh instance:
// inputs generated from the seed, stores pre-filled, caches warmed by an
// untimed pass. Its wall time is the workload's setup_s.
type workload struct {
	name  string
	setup func(ctx context.Context, e *env) (instance, error)
}

// The names are normative: BENCHMARK.json, the README and later issues
// cite them.
var workloads = []workload{
	{"sim-target32", setupSimTarget},
	{"methodology-cold", setupMethodologyCold},
	{"methodology-warm", setupMethodologyWarm},
	{"serve-hot", setupServeHot},
	{"serve-mixed", setupServeMixed},
}

// instance is one set-up of a workload. It owns every resource it created
// (servers, services, stores, temp dirs) and releases all of them in close.
type instance interface {
	// measure runs the workload's fixed operation script, recording one
	// latency sample per operation, the timed wall clock and the digest.
	measure(ctx context.Context, p *pass, tr *tracer) error
	// verify runs the untimed correctness checks on a measured pass and
	// fills its accuracy figures and layer counters.
	verify(ctx context.Context, p *pass) error
	close() error
}

// pass is what one timed phase produced.
type pass struct {
	lat    []float64     // per-operation latency, ms
	wall   time.Duration // timed phase, first operation sent to last reply
	instr  uint64        // simulated instructions in the results delivered
	digest string        // SHA-256 over every simulated statistic delivered
	script string        // SHA-256 over the operations sent, in order
	// parts cuts a script of thousands of operations into equal consecutive
	// shares, each measured on its own; nil where the operations are few and
	// the phase is measured whole.
	parts []part

	failed   int      // operations that failed, failed checks included
	failures []string // the first few, for the report

	// classes counts, per request class, the tier that answered
	// ("memory" includes requests coalesced onto an in-flight twin).
	classes map[string]map[string]int

	predErrPct   float64 // methodology: SVM-log leave-one-out error
	approxErrPct float64 // serve-mixed: served model error vs simulation

	spans []span             // nil unless the pass was traced
	layer map[string]float64 // per-layer metrics this pass can state
}

// part is one share of a timed phase.
type part struct {
	lat  []float64 // per-operation latency, ms
	rate float64   // operations per second, summed over the clients
	mips float64   // delivered instructions per microsecond, likewise
}

const maxFailuresKept = 8

func (p *pass) fail(format string, args ...any) {
	p.failed++
	if len(p.failures) < maxFailuresKept {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

func (p *pass) count(class, source string, n int) {
	if source == string(scalesim.SourceCoalesced) {
		source = string(scalesim.SourceMemory)
	}
	if p.classes == nil {
		p.classes = map[string]map[string]int{}
	}
	if p.classes[class] == nil {
		p.classes[class] = map[string]int{}
	}
	p.classes[class][source] += n
}

// metric is one reported number.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Stat    string  `json:"stat,omitempty"` // the percentile or estimator used
}

// workloadReport is everything the harness states about one workload.
type workloadReport struct {
	Name      string                    `json:"name"`
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	FailRatio float64                   `json:"fail_ratio"`
	Failures  []string                  `json:"failures,omitempty"`
	Digest    string                    `json:"result_digest"`
	Script    string                    `json:"script_digest"`
	Classes   map[string]map[string]int `json:"classes,omitempty"`
	// PredErrPct and ApproxErrPct are the errors behind accuracy_pct. The
	// reference is the repository's own 32-core target simulation: the
	// model is unvalidated against hardware.
	PredErrPct   float64 `json:"pred_err_pct,omitempty"`
	ApproxErrPct float64 `json:"approx_err_pct,omitempty"`
	// WholeRun holds, for a phase measured in parts, what its end-to-end
	// metrics read over the phase as a whole.
	WholeRun map[string]float64 `json:"whole_run,omitempty"`
	Metrics  map[string]metric  `json:"metrics"`
}

// report is the detail object printed before the contract's result line.
type report struct {
	Schema     string            `json:"schema"`
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      bool              `json:"trace"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go"`
	Workloads  []*workloadReport `json:"workloads"`
}

// result is the last line of standard output, the shape BENCHMARK.json's
// contract fixes.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) result() result {
	out := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range r.Workloads {
		out.Correct = out.Correct && w.Correct
		out.Attempted += w.Attempted
		out.Failed += w.Failed
		for name, m := range w.Metrics {
			if len(r.Workloads) > 1 {
				name = w.Name + "." + name
			}
			out.Metrics[name] = metric{Value: m.Value, Unit: m.Unit}
		}
	}
	return out
}

// benchSpec is the part of BENCHMARK.json the harness checks itself against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// findRoot walks up from the working directory to the directory holding
// BENCHMARK.json: the checkout root under `go run`, the package directory's
// ancestor under `go test`.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", fmt.Errorf("locating BENCHMARK.json: %w", err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("locating BENCHMARK.json: not found in the working directory or any parent")
		}
		dir = parent
	}
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, fmt.Errorf("reading benchmark spec: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// selfCheck holds the harness to BENCHMARK.json: a run emits exactly the
// declared metrics of its mode, under well-formed names, and takes each
// unit from the declaration.
func (spec *benchSpec) selfCheck(w *workloadReport, trace bool) error {
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		return fmt.Errorf("BENCHMARK.json declares %d end-to-end and %d per-layer metrics (limits 16 and 128)", len(spec.EndToEnd), len(spec.PerLayer))
	}
	known := false
	for _, sw := range spec.Workloads {
		known = known || sw.Name == w.Name
	}
	if !known {
		return fmt.Errorf("workload %q is not declared in BENCHMARK.json", w.Name)
	}
	declared := spec.EndToEnd
	if trace {
		declared = spec.PerLayer
	}
	seen := map[string]bool{}
	for _, d := range declared {
		if !metricNameRE.MatchString(d.Name) {
			return fmt.Errorf("declared metric name %q is malformed", d.Name)
		}
		m, ok := w.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("%s: declared metric %q was not measured", w.Name, d.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s: metric %q is not finite", w.Name, d.Name)
		}
		m.Unit = d.Unit
		w.Metrics[d.Name] = m
		seen[d.Name] = true
	}
	for name := range w.Metrics {
		if !seen[name] {
			return fmt.Errorf("%s: measured metric %q is not declared in BENCHMARK.json", w.Name, name)
		}
	}
	return nil
}

// run executes the selected workloads and returns the report. Every
// resource a workload creates is released before run returns, whatever the
// outcome; run itself verifies that no goroutine and no temp dir is left.
func run(ctx context.Context, cfg runConfig) (_ *report, err error) {
	baseline := runtime.NumGoroutine()
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return nil, err
	}
	if cfg.OutDir == "" {
		cfg.OutDir = filepath.Join(root, "bench", "out")
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, fmt.Errorf("creating output dir: %w", err)
	}
	tmp, err := os.MkdirTemp(cfg.OutDir, "tmp-")
	if err != nil {
		return nil, fmt.Errorf("creating temp root: %w", err)
	}
	e := &env{cfg: cfg, tmp: tmp}
	defer func() {
		// Instances remove their own dirs; this sweep covers the error paths.
		if rerr := os.RemoveAll(tmp); rerr != nil && err == nil {
			err = fmt.Errorf("removing temp root: %w", rerr)
		}
		if lerr := awaitGoroutines(baseline); lerr != nil && err == nil {
			err = lerr
		}
	}()

	selected, err := selectWorkloads(cfg.Workloads)
	if err != nil {
		return nil, err
	}
	rep := &report{
		Schema: "scalebench/v1", Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
	var probed map[string]metric
	if cfg.Trace {
		// The layer probes do not depend on the workload: one set per
		// invocation, reported beside every workload's spans.
		if probed, err = runProbes(ctx, e); err != nil {
			return nil, err
		}
	}
	for _, w := range selected {
		wr, err := runWorkload(ctx, e, w)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		for name, m := range probed {
			wr.Metrics[name] = m
		}
		if err := spec.selfCheck(wr, cfg.Trace); err != nil {
			return nil, err
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep, nil
}

func selectWorkloads(names []string) ([]workload, error) {
	if len(names) == 0 {
		return workloads, nil
	}
	var out []workload
	for _, n := range names {
		found := false
		for _, w := range workloads {
			if w.name == n {
				out, found = append(out, w), true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
	}
	return out, nil
}

// awaitGoroutines waits for the goroutines the run started (connection
// readers, server workers) to finish exiting, and fails if any remains.
func awaitGoroutines(baseline int) error {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("goroutine leak: %d running, %d at start\n%s", runtime.NumGoroutine(), baseline, buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// runWorkload sets a workload up, measures it, checks it and names its
// metrics. An untraced run sets up cfg.Setups times (reporting the median)
// and measures the last instance. A traced run measures two fresh
// instances of the same script, the first with tracing off, so the trace's
// own cost and its effect on the results are both stated.
func runWorkload(ctx context.Context, e *env, w workload) (_ *workloadReport, err error) {
	var inst instance
	release := func() error {
		if inst == nil {
			return nil
		}
		cerr := inst.close()
		inst = nil
		return cerr
	}
	defer func() {
		if cerr := release(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	var setupS []float64
	fresh := func() error {
		if err := release(); err != nil {
			return err
		}
		t0 := time.Now()
		i, err := w.setup(ctx, e)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		inst = i
		setupS = append(setupS, time.Since(t0).Seconds())
		return nil
	}

	setups := max(1, e.cfg.Setups)
	if e.cfg.Trace {
		setups = 1
	}
	for i := 0; i < setups; i++ {
		if err := fresh(); err != nil {
			return nil, err
		}
	}
	p := &pass{layer: map[string]float64{}}
	usage, err := measured(ctx, inst, p, nil)
	if err != nil {
		return nil, err
	}
	if err := inst.verify(ctx, p); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	wr := &workloadReport{Name: w.name, Metrics: map[string]metric{}}
	if !e.cfg.Trace {
		endToEnd(wr, p, setupS)
	} else {
		if err := fresh(); err != nil {
			return nil, err
		}
		tp := &pass{layer: map[string]float64{}}
		tr := newTracer()
		if _, err := measured(ctx, inst, tp, tr); err != nil {
			return nil, err
		}
		tp.spans = tr.snapshot()
		if err := inst.verify(ctx, tp); err != nil {
			return nil, fmt.Errorf("verify: %w", err)
		}
		out := filepath.Join(e.cfg.OutDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, e.cfg.Seed))
		if err := writeJSONL(out, tp.spans); err != nil {
			return nil, err
		}
		perLayer(wr, p, tp, usage)
		tp.failed += p.failed
		tp.failures = append(p.failures, tp.failures...)
		p = tp
	}
	wr.Attempted = len(p.lat)
	wr.Failed = p.failed
	wr.Correct = p.failed == 0
	wr.FailRatio = float64(p.failed) / float64(max(1, len(p.lat)))
	wr.Failures = p.failures
	wr.Digest = p.digest
	wr.Script = p.script
	wr.Classes = p.classes
	wr.PredErrPct, wr.ApproxErrPct = p.predErrPct, p.approxErrPct
	return wr, nil
}

// measured runs one timed phase and reports what the process spent on it.
func measured(ctx context.Context, inst instance, p *pass, tr *tracer) (procUsage, error) {
	runtime.GC()
	before := readProc()
	if err := inst.measure(ctx, p, tr); err != nil {
		return procUsage{}, fmt.Errorf("measure: %w", err)
	}
	if len(p.lat) == 0 {
		return procUsage{}, errors.New("measure: no operation was attempted")
	}
	return readProc().since(before), nil
}

// quietShare is the share of a phase's parts its metrics are read off.
const quietShare = 0.1

// endToEnd names the metrics a user of the system sees (tracing off).
//
// The reference box is a guest on a shared host. Its neighbours slow it by
// up to a third, for seconds or for minutes at a time, and never speed it up.
// So where a phase is cut into parts, each metric is read off the quietest
// tenth of them: throughput is the ninth decile of the parts' throughputs, a
// latency the first decile of the parts' latencies. That is the number the
// program sets and the neighbours do not; over ten runs of the same code it
// spreads half as far as the whole-run figure when the host is busy and as
// far when it is not (bench/README.md has the runs). The whole-run figures
// stay in the detail report. A phase measured whole is one part, and the
// decile of one value is the value.
func endToEnd(wr *workloadReport, p *pass, setupS []float64) {
	n := len(p.lat)
	wall := p.wall.Seconds()
	whole := part{lat: p.lat, rate: float64(n) / wall, mips: float64(p.instr) / wall / 1e6}
	parts := p.parts
	if parts == nil {
		parts = []part{whole}
	}
	var rate, mips, p50, tail []float64
	var tailStat string
	for _, pt := range parts {
		sorted := append([]float64(nil), pt.lat...)
		sort.Float64s(sorted)
		t, stat := tailOf(sorted)
		rate, mips = append(rate, pt.rate), append(mips, pt.mips)
		p50, tail, tailStat = append(p50, quantile(sorted, 0.50)), append(tail, t), stat
	}
	stat := func(decile, of string) string {
		if len(parts) == 1 {
			return of
		}
		return fmt.Sprintf("%s of %d parts' %s", decile, len(parts), of)
	}
	wr.Metrics["setup_s"] = metric{Value: median(setupS), Samples: len(setupS), Stat: "p50"}
	wr.Metrics["ops_per_s"] = metric{Value: quantileOf(rate, 1-quietShare), Samples: n, Stat: stat("p90", "ops/wall")}
	wr.Metrics["op_p50_ms"] = metric{Value: quantileOf(p50, quietShare), Samples: n, Stat: stat("p10", "p50")}
	wr.Metrics["op_tail_ms"] = metric{Value: quantileOf(tail, quietShare), Samples: n, Stat: stat("p10", tailStat)}
	wr.Metrics["sim_mips"] = metric{Value: quantileOf(mips, 1-quietShare), Samples: n, Stat: stat("p90", "instructions/wall")}
	wr.Metrics["accuracy_pct"] = metric{Value: 100 - p.predErrPct - p.approxErrPct, Stat: "100-mean error"}
	if len(parts) > 1 {
		sorted := append([]float64(nil), p.lat...)
		sort.Float64s(sorted)
		t, _ := tailOf(sorted)
		wr.WholeRun = map[string]float64{"ops_per_s": whole.rate, "op_p50_ms": quantile(sorted, 0.50), "op_tail_ms": t, "sim_mips": whole.mips}
	}
}

// spanMetrics are the per-layer metrics read off a workload's own spans and
// counters. A workload that never crosses a layer leaves that layer's
// entries at zero.
var spanMetrics = []string{
	"server.self_us_p50", "server.queue_wait_us_p50", "server.batch8_ms_p50", "server.coalesced", "server.shed",
	"runner.run_memory_us_p50", "runner.run_disk_us_p50", "runner.run_model_us_p50", "runner.run_compute_ms_p50",
	"runner.jobs", "runner.unique_runs", "runner.memory_hits", "runner.disk_hits", "runner.model_hits",
	"runner.coalesced_hits", "runner.hit_ratio",
	"scalemodel.collect_s", "scalemodel.evaluate_ms", "scalemodel.pred_err_pct", "surrogate.approx_err_pct",
}

// perLayer names the metrics of single layers (tracing on): the traced
// pass's spans and counters, what the process spent on the untraced pass,
// and the cost of tracing itself.
func perLayer(wr *workloadReport, base, traced *pass, usage procUsage) {
	for _, name := range spanMetrics {
		wr.Metrics[name] = metric{}
	}
	for name, v := range traced.layer {
		wr.Metrics[name] = metric{Value: v}
	}

	n := float64(len(base.lat))
	wr.Metrics["proc.alloc_kb_per_op"] = metric{Value: float64(usage.allocBytes) / 1024 / n}
	wr.Metrics["proc.gc_cycles"] = metric{Value: float64(usage.gcCycles)}
	wr.Metrics["proc.heap_peak_mb"] = metric{Value: float64(usage.heapSys) / (1 << 20)}
	wr.Metrics["proc.cpu_util"] = metric{Value: usage.cpu.Seconds() / base.wall.Seconds() / float64(runtime.NumCPU())}

	baseRate := n / base.wall.Seconds()
	tracedRate := float64(len(traced.lat)) / traced.wall.Seconds()
	wr.Metrics["bench.trace_overhead_pct"] = metric{Value: 100 * (1 - tracedRate/baseRate)}
	match := 0.0
	if base.digest == traced.digest {
		match = 1
	} else {
		traced.fail("result digest changed under tracing: %s vs %s", base.digest, traced.digest)
	}
	wr.Metrics["bench.digest_match"] = metric{Value: match}
}

// procUsage is what the process spent between two readProc calls.
type procUsage struct {
	allocBytes uint64
	gcCycles   uint32
	heapSys    uint64 // heap obtained from the OS: the run's high-water mark
	cpu        time.Duration
}

// cpuTime is the user plus system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readProc() procUsage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procUsage{allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC, heapSys: ms.HeapSys, cpu: cpuTime()}
}

func (u procUsage) since(before procUsage) procUsage {
	return procUsage{
		allocBytes: u.allocBytes - before.allocBytes,
		gcCycles:   u.gcCycles - before.gcCycles,
		heapSys:    u.heapSys,
		cpu:        u.cpu - before.cpu,
	}
}

func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

// quantileOf is quantile for a sample in any order.
func quantileOf(xs []float64, q float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantile(sorted, q)
}

// quantile interpolates linearly between the order statistics of a sorted
// sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// tailOf returns the highest of p99/p90/p75 that still has at least ten
// samples beyond it, and the slowest operation when even p75 has not.
func tailOf(sorted []float64) (float64, string) {
	for _, t := range []struct {
		q    float64
		name string
	}{{0.99, "p99"}, {0.90, "p90"}, {0.75, "p75"}} {
		if float64(len(sorted))*(1-t.q) >= 10 {
			return quantile(sorted, t.q), t.name
		}
	}
	return sorted[len(sorted)-1], "max"
}

// sameResult reports whether two results carry the same simulated
// statistics. Host wall-clock and the optional epoch trace are not
// simulated statistics.
func sameResult(a, b *scalesim.SimResult) bool {
	if a == nil || b == nil || a.Machine != b.Machine || len(a.Cores) != len(b.Cores) ||
		a.DRAMUtilization != b.DRAMUtilization || a.NoCUtilization != b.NoCUtilization ||
		a.SimulatedSec != b.SimulatedSec {
		return false
	}
	for i := range a.Cores {
		if a.Cores[i] != b.Cores[i] {
			return false
		}
	}
	return true
}

// plausible reports whether a result could be a simulation's: every core
// has a finite, positive IPC.
func plausible(r *scalesim.SimResult) bool {
	if r == nil || len(r.Cores) == 0 {
		return false
	}
	for _, c := range r.Cores {
		if !(c.IPC > 0) || math.IsInf(c.IPC, 0) {
			return false
		}
	}
	return true
}

func instructions(r *scalesim.SimResult) uint64 {
	var n uint64
	for _, c := range r.Cores {
		n += c.Instructions
	}
	return n
}

// resultDigest accumulates simulated statistics field by field, in a fixed
// order and format, so equal statistics hash equally in every process.
type resultDigest struct{ h hash.Hash }

func newResultDigest() resultDigest { return resultDigest{h: sha256.New()} }

func (d resultDigest) add(label string, r *scalesim.SimResult) {
	fmt.Fprintf(d.h, "result|%s|%s|%d|%g|%g|%g\n", label, r.Machine, len(r.Cores), r.DRAMUtilization, r.NoCUtilization, r.SimulatedSec)
	for _, c := range r.Cores {
		fmt.Fprintf(d.h, "core|%d|%s|%d|%g|%g|%g|%g\n", c.Core, c.Benchmark, c.Instructions, c.IPC, c.BWBytesPerCycle, c.LLCMPKI, c.BranchMispredictRate)
	}
}

func (d resultDigest) text(label, s string) {
	fmt.Fprintf(d.h, "text|%s|%d\n", label, len(s))
	io.WriteString(d.h, s)
}

func (d resultDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// printTable renders the report for a reader, on standard error.
func printTable(w io.Writer, rep *report) {
	fmt.Fprintf(w, "scalebench seed=%d seconds=%g trace=%t nproc=%d GOMAXPROCS=%d %s\n",
		rep.Seed, rep.Seconds, rep.Trace, rep.NProc, rep.GOMAXPROCS, rep.GoVersion)
	for _, wr := range rep.Workloads {
		fmt.Fprintf(w, "\n%s: correct=%t attempted=%d failed=%d digest=%.16s\n", wr.Name, wr.Correct, wr.Attempted, wr.Failed, wr.Digest)
		if wr.PredErrPct != 0 || wr.ApproxErrPct != 0 {
			fmt.Fprintf(w, "  pred_err_pct=%.4f approx_err_pct=%.4f (reference: this repository's own simulation; model unvalidated against hardware)\n", wr.PredErrPct, wr.ApproxErrPct)
		}
		classes := make([]string, 0, len(wr.Classes))
		for c := range wr.Classes {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		for _, c := range classes {
			sources := make([]string, 0, len(wr.Classes[c]))
			for s, n := range wr.Classes[c] {
				sources = append(sources, fmt.Sprintf("%s=%d", s, n))
			}
			sort.Strings(sources)
			fmt.Fprintf(w, "  class %-9s %s\n", c, strings.Join(sources, " "))
		}
		for _, f := range wr.Failures {
			fmt.Fprintf(w, "  FAIL %s\n", f)
		}
		names := make([]string, 0, len(wr.Metrics))
		for name := range wr.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := wr.Metrics[name]
			fmt.Fprintf(w, "  %-34s %14.4f %-6s", name, m.Value, m.Unit)
			if m.Samples > 0 {
				fmt.Fprintf(w, " n=%d", m.Samples)
			}
			if m.Stat != "" {
				fmt.Fprintf(w, " (%s)", m.Stat)
			}
			fmt.Fprintln(w)
		}
	}
}
