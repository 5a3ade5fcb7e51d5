package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"scalesim"
)

// smokeConfig is the harness at a hundredth of its length and a tenth of
// its fidelity: every code path, none of the waiting.
func smokeConfig(t *testing.T, workloads ...string) runConfig {
	t.Helper()
	return runConfig{
		Workloads: workloads, Seed: 1, Seconds: 0.1, Setups: 1, OutDir: t.TempDir(),
		Sim: scalesim.SimOptions{Instructions: 8_000, Warmup: 2_000, EpochCycles: 10_000, CapacityScale: 16, Seed: 1},
	}
}

// listeners counts the TCP sockets this process holds in LISTEN state, via
// /proc: the socket inodes behind its descriptors against the kernel's
// socket tables.
func listeners(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	mine := map[string]bool{}
	for _, fd := range fds {
		if link, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(link, "socket:[") {
			mine[strings.TrimSuffix(strings.TrimPrefix(link, "socket:["), "]")] = true
		}
	}
	n := 0
	for _, table := range []string{"/proc/net/tcp", "/proc/net/tcp6"} {
		data, err := os.ReadFile(table)
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(data), "\n")[1:] {
			// sl local rem st tx:rx tr:tm retrnsmt uid timeout inode ...
			if f := strings.Fields(line); len(f) > 9 && f[3] == "0A" && mine[f[9]] {
				n++
			}
		}
	}
	return n
}

// children counts the live processes whose parent is this one.
func children(t *testing.T) int {
	t.Helper()
	stats, err := filepath.Glob("/proc/[0-9]*/stat")
	if err != nil {
		t.Fatal(err)
	}
	self, n := strconv.Itoa(os.Getpid()), 0
	for _, path := range stats {
		data, err := os.ReadFile(path)
		if err != nil {
			continue // exited between the glob and the read
		}
		// pid (comm) state ppid ...; comm may itself contain spaces.
		rest := string(data[strings.LastIndexByte(string(data), ')')+1:])
		if f := strings.Fields(rest); len(f) > 1 && f[1] == self {
			n++
		}
	}
	return n
}

// assertNothingLeft holds a finished run to the teardown contract: no temp
// dir below the output dir, and on Linux no listening socket and no child
// process. (run itself fails on a leaked goroutine.)
func assertNothingLeft(t *testing.T, cfg runConfig) {
	t.Helper()
	if left, _ := filepath.Glob(filepath.Join(cfg.OutDir, "tmp-*")); len(left) > 0 {
		t.Errorf("temp dirs left behind: %v", left)
	}
	if runtime.GOOS != "linux" {
		return
	}
	if n := listeners(t); n != 0 {
		t.Errorf("%d listening sockets left open", n)
	}
	if n := children(t); n != 0 {
		t.Errorf("%d child processes left running", n)
	}
}

func TestEveryWorkloadRunsAndTearsDown(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := smokeConfig(t)
	rep, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(workloads) {
		t.Fatalf("ran %d workloads, want %d", len(rep.Workloads), len(workloads))
	}
	for _, w := range rep.Workloads {
		if !w.Correct || w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: correct=%t attempted=%d failed=%d: %v", w.Name, w.Correct, w.Attempted, w.Failed, w.Failures)
		}
		if w.Digest == "" {
			t.Errorf("%s: no result digest", w.Name)
		}
	}
	if res := rep.result(); !res.Correct || res.Attempted == 0 {
		t.Errorf("result line: %+v", res)
	}
	assertNothingLeft(t, cfg)
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after the run, %d before", after, before)
	}
}

// A cancelled context — what SIGINT, SIGTERM and the watchdog deliver —
// must still drain the server, close the store and remove the temp dirs.
func TestCancelMidServeMixedLeavesNothing(t *testing.T) {
	cfg := smokeConfig(t, "serve-mixed")
	cfg.Seconds = 20 // far more work than the test lets it do
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(400*time.Millisecond, cancel)
	_, err := run(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run returned %v, want context.Canceled", err)
	}
	assertNothingLeft(t, cfg)
}

// The same seed must give the same inputs, the same tier decisions and the
// same results; another seed must give other inputs and still no failure.
// Later changes compare digests across commits, so this is what makes a
// claim on an unseen seed meaningful.
func TestSameSeedSameRun(t *testing.T) {
	names := []string{"sim-target32", "serve-hot", "serve-mixed"}
	run1 := func(seed uint64) *report {
		cfg := smokeConfig(t, names...)
		cfg.Seed = seed
		rep, err := run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b, other := run1(1), run1(1), run1(2)
	for i, name := range names {
		wa, wb, wo := a.Workloads[i], b.Workloads[i], other.Workloads[i]
		if wa.Script != wb.Script || wa.Digest != wb.Digest || !reflect.DeepEqual(wa.Classes, wb.Classes) || wa.Attempted != wb.Attempted {
			t.Errorf("%s: two runs of seed 1 differ:\n%+v\n%+v", name, wa, wb)
		}
		if wo.Script == wa.Script {
			t.Errorf("%s: seeds 1 and 2 sent the same script", name)
		}
		if wo.Failed != 0 || !wo.Correct {
			t.Errorf("%s: seed 2 failed %d of %d: %v", name, wo.Failed, wo.Attempted, wo.Failures)
		}
	}
}

func TestTracedRunStatesEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every layer probe")
	}
	cfg := smokeConfig(t, "serve-mixed")
	cfg.Trace = true
	rep, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err) // run's self-check already demands every declared per-layer metric
	}
	w := rep.Workloads[0]
	if !w.Correct {
		t.Fatalf("traced run incorrect: %v", w.Failures)
	}
	if w.Metrics["bench.digest_match"].Value != 1 {
		t.Error("tracing changed the results")
	}
	if mem, compute := w.Metrics["runner.run_memory_us_p50"].Value, 1000*w.Metrics["runner.run_compute_ms_p50"].Value; !(mem > 0 && mem < compute) {
		t.Errorf("memory hit %v us is not below compute %v us", mem, compute)
	}
	for _, name := range []string{"spans-serve-mixed-seed1.jsonl", "spans-tierchain-seed1.jsonl"} {
		if st, err := os.Stat(filepath.Join(cfg.OutDir, name)); err != nil || st.Size() == 0 {
			t.Errorf("span file %s missing or empty (%v)", name, err)
		}
	}
	assertNothingLeft(t, cfg)
}

func TestSelfCheckHoldsOutputToTheDeclaration(t *testing.T) {
	spec := &benchSpec{
		EndToEnd: []specMetric{{Name: "setup_s", Unit: "s"}, {Name: "ops_per_s", Unit: "1/s"}},
		PerLayer: []specMetric{{Name: "store.open_ms", Unit: "ms"}},
	}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
	}{"serve-hot"})
	good := func() *workloadReport {
		return &workloadReport{Name: "serve-hot", Metrics: map[string]metric{"setup_s": {Value: 1}, "ops_per_s": {Value: 2}}}
	}

	w := good()
	if err := spec.selfCheck(w, false); err != nil {
		t.Fatalf("well-formed report rejected: %v", err)
	}
	if got := w.Metrics["ops_per_s"].Unit; got != "1/s" {
		t.Errorf("unit %q not taken from the declaration", got)
	}
	w = good()
	delete(w.Metrics, "setup_s")
	if err := spec.selfCheck(w, false); err == nil {
		t.Error("a missing declared metric passed")
	}
	w = good()
	w.Metrics["surprise"] = metric{Value: 1}
	if err := spec.selfCheck(w, false); err == nil {
		t.Error("an undeclared metric passed")
	}
	if err := spec.selfCheck(good(), true); err == nil {
		t.Error("end-to-end metrics passed as a traced run's")
	}
	w = good()
	w.Name = "nameless"
	if err := spec.selfCheck(w, false); err == nil {
		t.Error("an undeclared workload passed")
	}
	spec.EndToEnd[0].Name = "bad name"
	if err := spec.selfCheck(good(), false); err == nil {
		t.Error("a malformed metric name passed")
	}
}

// BENCHMARK.json and the workload table must name the same workloads.
func TestSpecNamesEveryWorkload(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	var declared, built []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		built = append(built, w.name)
	}
	if !reflect.DeepEqual(declared, built) {
		t.Errorf("BENCHMARK.json declares %v, the harness builds %v", declared, built)
	}
}

// A phase cut into parts is read off its quietest tenth: parts slowed by a
// busy host do not move the metrics. A phase measured whole reads as it is.
func TestEndToEndReadsTheQuietestTenth(t *testing.T) {
	quiet := part{lat: []float64{1, 1, 1, 2}, rate: 1000, mips: 10}
	busy := part{lat: []float64{3, 3, 3, 9}, rate: 300, mips: 3}
	p := &pass{wall: time.Second, parts: []part{busy, quiet, busy, busy, busy, busy, quiet, busy, busy, busy}}
	for _, pt := range p.parts {
		p.lat = append(p.lat, pt.lat...)
	}
	wr := &workloadReport{Metrics: map[string]metric{}}
	endToEnd(wr, p, []float64{3, 1, 2})
	for name, want := range map[string]float64{"ops_per_s": 1000, "sim_mips": 10, "op_p50_ms": 1, "op_tail_ms": 2, "setup_s": 2} {
		if got := wr.Metrics[name].Value; got != want {
			t.Errorf("%s = %v, want %v (%s)", name, got, want, wr.Metrics[name].Stat)
		}
	}
	if stat := wr.Metrics["ops_per_s"].Stat; !strings.Contains(stat, "10 parts") {
		t.Errorf("ops_per_s stat %q does not name the parts", stat)
	}
	if got := wr.WholeRun["op_p50_ms"]; got != 3 {
		t.Errorf("whole-run op_p50_ms = %v, want 3", got)
	}

	whole := &pass{lat: []float64{1, 2, 3, 4}, wall: 2 * time.Second, instr: 8_000_000}
	wr = &workloadReport{Metrics: map[string]metric{}}
	endToEnd(wr, whole, []float64{1})
	for name, want := range map[string]float64{"ops_per_s": 2, "sim_mips": 4, "op_p50_ms": 2.5, "op_tail_ms": 4} {
		if got := wr.Metrics[name].Value; got != want {
			t.Errorf("whole phase: %s = %v, want %v", name, got, want)
		}
	}
}
