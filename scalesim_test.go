package scalesim

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// tinyOptions keeps root-level pipeline tests fast; the benches use
// DefaultOptions for the paper-fidelity numbers.
func tinyOptions() SimOptions {
	return SimOptions{
		Instructions:  60_000,
		Warmup:        20_000,
		EpochCycles:   10_000,
		CapacityScale: 32,
		Seed:          3,
	}
}

func subsetNames() []string {
	return []string{"exchange2", "leela", "gcc", "xalancbmk", "omnetpp", "bwaves", "mcf", "lbm", "milc"}
}

// TestTableI: Table I is the first entry of Figures(), id "1", and its
// table survives its JSON form.
func TestTableI(t *testing.T) {
	ex, err := NewExperimentsSubset(tinyOptions(), subsetNames()...)
	if err != nil {
		t.Fatal(err)
	}
	f := ex.Figures()[0]
	tab, err := f.Run()
	if err != nil || f.ID != "1" || f.Name != "Table I" || tab.String() != TableI().String() {
		t.Fatalf("Figures()[0] = %q %q, err %v, table\n%s", f.ID, f.Name, err, tab)
	}
	checkJSONRoundTrip(t, tab)
}

// TestTableIMCFirst checks every cell of the paper's Table I.
func TestTableIMCFirst(t *testing.T) {
	tab := TableI()
	cols := []string{"LLC", "slices", "NoC", "CSLs", "per CSL", "DRAM", "MCs", "per MC"}
	want := map[int][]float64{
		32: {32, 32, 128, 4, 32, 128, 8, 16},
		16: {16, 16, 64, 4, 16, 64, 4, 16},
		8:  {8, 8, 32, 2, 16, 32, 2, 16},
		4:  {4, 4, 16, 2, 8, 16, 1, 16},
		2:  {2, 2, 8, 1, 8, 8, 1, 8},
		1:  {1, 1, 4, 1, 4, 4, 1, 4},
	}
	if rows := len(tab.Blocks[0].Rows); rows != len(want) {
		t.Fatalf("MC-first block has %d rows, want %d", rows, len(want))
	}
	for cores, w := range want {
		label := fmt.Sprintf("%d-core MC-first", cores)
		for i, col := range cols {
			if got := tab.Cell(label, col); got != w[i] {
				t.Errorf("%s %s = %v, want %v", label, col, got, w[i])
			}
		}
	}
}

// TestTableIMBFirst checks the MB-first alternative from §V-E1: bandwidth
// per controller shrinks 16->4 GB/s before controllers are dropped.
func TestTableIMBFirst(t *testing.T) {
	tab := TableI()
	wantMCs := map[int]float64{32: 8, 16: 8, 8: 8, 4: 4, 2: 2, 1: 1}
	wantPerMC := map[int]float64{32: 16, 16: 8, 8: 4, 4: 4, 2: 4, 1: 4}
	if rows := len(tab.Blocks[1].Rows); rows != len(wantMCs) {
		t.Fatalf("MB-first block has %d rows, want %d", rows, len(wantMCs))
	}
	for cores := range wantMCs {
		label := fmt.Sprintf("%d-core MB-first", cores)
		if got := tab.Cell(label, "MCs"); got != wantMCs[cores] {
			t.Errorf("%s: %v MCs, want %v", label, got, wantMCs[cores])
		}
		if got := tab.Cell(label, "per MC"); got != wantPerMC[cores] {
			t.Errorf("%s: %v GB/s per MC, want %v", label, got, wantPerMC[cores])
		}
		if got := tab.Cell(label, "DRAM"); got != float64(4*cores) {
			t.Errorf("%s: total DRAM %v GB/s, want %d", label, got, 4*cores)
		}
	}
}

func TestSuiteAccessors(t *testing.T) {
	suite := Suite()
	if len(suite) != 29 {
		t.Fatalf("suite length %d, want 29", len(suite))
	}
	names := BenchmarkNames()
	if len(names) != 29 {
		t.Fatalf("names length %d", len(names))
	}
	for i, p := range suite {
		if p.Name != names[i] {
			t.Fatalf("order mismatch at %d: %s vs %s", i, p.Name, names[i])
		}
		if len(p.Regions) == 0 {
			t.Fatalf("%s: no regions exposed", p.Name)
		}
	}
}

func TestSimulatePublicAPI(t *testing.T) {
	res, err := Simulate(MachineSpec{Cores: 1, Policy: PolicyPRS}, []string{"gcc"}, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != 1 || res.Cores[0].Benchmark != "gcc" {
		t.Fatalf("unexpected result %+v", res)
	}
	if res.AverageIPC() <= 0 {
		t.Fatal("non-positive IPC")
	}
	if res.WallClockSec <= 0 {
		t.Fatal("missing wall clock")
	}
	if _, err := Simulate(MachineSpec{Cores: 1}, []string{"nope"}, tinyOptions()); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := Simulate(MachineSpec{Cores: 3}, []string{"gcc", "gcc", "gcc"}, tinyOptions()); err == nil {
		t.Fatal("invalid core count accepted")
	}
	if _, err := Simulate(MachineSpec{Cores: 1, Policy: "bogus"}, []string{"gcc"}, tinyOptions()); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

func TestSimulateCustomProfile(t *testing.T) {
	custom := Profile{
		Name: "mystream", BaseCPI: 0.5, LoadsPerKI: 300, StoresPerKI: 100,
		BranchesPerKI: 100, MLP: 6, StaticBranches: 64, HardBranchFrac: 0.1,
		CodeBytes: 64 << 10,
		Regions: []Region{
			{SizeBytes: 16 << 10, Frac: 0.8, Pattern: PatternZipf, ZipfS: 1.1},
			{SizeBytes: 64 << 20, Frac: 0.2, Pattern: PatternSeq, ElemSize: 8},
		},
	}
	res, err := Simulate(MachineSpec{Cores: 2}, []string{"mystream", "gcc"}, tinyOptions(), custom)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cores[0].Benchmark != "mystream" {
		t.Fatalf("custom profile not used: %+v", res.Cores[0])
	}
	// Invalid custom profile must be rejected.
	custom.Regions[0].Pattern = "wat"
	if _, err := Simulate(MachineSpec{Cores: 1}, []string{"mystream"}, tinyOptions(), custom); err == nil {
		t.Fatal("invalid pattern accepted")
	}
}

func TestMachineSpecVariants(t *testing.T) {
	for _, pol := range []Policy{PolicyNRS, PolicyPRS, PolicyPRSLLC, PolicyPRSDRAM} {
		if _, err := Simulate(MachineSpec{Cores: 1, Policy: pol}, []string{"exchange2"}, tinyOptions()); err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
	}
	if _, err := Simulate(MachineSpec{Cores: 2, Bandwidth: BandwidthMBFirst}, []string{"lbm", "lbm"}, tinyOptions()); err != nil {
		t.Fatal(err)
	}
}

func TestExperimentsSubsetValidation(t *testing.T) {
	for _, names := range [][]string{{"gcc"}, {"gcc", "lbm"}} {
		if _, err := NewExperimentsSubset(tinyOptions(), names...); !errors.Is(err, ErrBadSpec) {
			t.Fatalf("%d-benchmark suite: err = %v, want ErrBadSpec", len(names), err)
		}
	}
	if _, err := NewExperimentsSubset(tinyOptions(), "gcc", "lbm", "nothere"); !errors.Is(err, ErrUnknownBenchmark) {
		t.Fatalf("unknown benchmark: err = %v, want ErrUnknownBenchmark", err)
	}
}

// TestExperimentsSubsetRefusesDuplicates: a benchmark named twice would be
// two rows of one benchmark, and leave-one-out folds trained on one sample
// fewer than the subset promises.
func TestExperimentsSubsetRefusesDuplicates(t *testing.T) {
	if ex, err := NewExperimentsSubset(tinyOptions(), "mcf", "mcf", "lbm"); !errors.Is(err, ErrBadSpec) {
		if err == nil {
			ex.Close()
		}
		t.Fatalf("err = %v, want ErrBadSpec", err)
	}
}

// TestTargetIPCOutsideTheSuite: asking for a benchmark the experiment suite
// does not hold — a suite benchmark outside the subset, or no benchmark at
// all — wraps ErrUnknownBenchmark, and is answered before anything simulates.
func TestTargetIPCOutsideTheSuite(t *testing.T) {
	ex, err := NewExperimentsSubset(tinyOptions(), "mcf", "lbm", "gcc")
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	for _, name := range []string{"povray", "nothere"} {
		if _, err := ex.PredictTargetIPC(name); !errors.Is(err, ErrUnknownBenchmark) {
			t.Errorf("PredictTargetIPC(%q): err = %v, want ErrUnknownBenchmark", name, err)
		}
		if _, err := ex.ActualTargetIPC(name); !errors.Is(err, ErrUnknownBenchmark) {
			t.Errorf("ActualTargetIPC(%q): err = %v, want ErrUnknownBenchmark", name, err)
		}
	}
	if n := ex.Runs(); n != 0 {
		t.Errorf("%d simulations ran to refuse a name", n)
	}
}

// TestFig3OnSubset builds Fig. 3 under the short test set, so the race run
// covers the four construction policies; what the figure concludes is the
// verdict table's (verdicts.go).
func TestFig3OnSubset(t *testing.T) {
	ex, err := NewExperimentsSubset(tinyOptions(), subsetNames()...)
	if err != nil {
		t.Fatal(err)
	}
	fig3, err := ex.fig3Construction()
	if err != nil {
		t.Fatal(err)
	}
	if got := labels(fig3.Blocks[0].Rows); got != "NRS,PRS-LLC,PRS-DRAM,PRS" {
		t.Fatalf("policies %s, want NRS,PRS-LLC,PRS-DRAM,PRS", got)
	}
	if s := fig3.String(); !strings.Contains(s, "NRS") || !strings.Contains(s, "per-benchmark") {
		t.Errorf("figure rendering incomplete:\n%s", s)
	}
}

func TestFig4AndDerivativesOnSubset(t *testing.T) {
	ex, err := NewExperimentsSubset(tinyOptions(), subsetNames()...)
	if err != nil {
		t.Fatal(err)
	}
	fig4, err := ex.Fig4Homogeneous()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig4.Methods) != 7 {
		t.Fatalf("%d methods, want 7", len(fig4.Methods))
	}
	for _, m := range fig4.Methods {
		if math.IsNaN(m.Mean) || m.Mean < 0 {
			t.Errorf("%s: invalid mean %v", m.Method, m.Mean)
		}
		if len(m.PerBench) != len(subsetNames()) {
			t.Errorf("%s: %d per-bench errors", m.Method, len(m.PerBench))
		}
	}

	// These figures reuse the same collected data (no new simulations
	// beyond what Fig. 4 ran).
	runsBefore := ex.Runs()
	if _, err := ex.Fig9RegressionForms(); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Fig10Inputs(); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Fig11ScaleModelCount(); err != nil {
		t.Fatal(err)
	}
	if ex.Runs() != runsBefore {
		t.Errorf("figures 9-11 ran %d extra simulations; they must reuse Fig. 4 data", ex.Runs()-runsBefore)
	}

	// The speedup studies read the durations the collection recorded: they
	// submit nothing to the engine, not even memory hits.
	jobsBefore := ex.svc.Stats().Jobs
	fig7, err := ex.fig7ErrorVsSpeedup()
	if err != nil {
		t.Fatal(err)
	}
	points := fig7.Blocks[0].Rows
	if got, want := labels(points), "No Extrapolation 16-core,No Extrapolation 8-core,No Extrapolation 4-core,"+
		"No Extrapolation 2-core,No Extrapolation 1-core,SVM (1-core),SVM-log (1-core)"; got != want {
		t.Fatalf("fig7 points %s, want %s", got, want)
	}
	// The single-core scale model must be the fastest.
	fastest := fig7.Cell("No Extrapolation 1-core", "speedup")
	for _, p := range points[:4] {
		if got := fig7.Cell(p.Label, "speedup"); !(got < fastest) {
			t.Errorf("%s speedup %.1f >= 1-core speedup %.1f", p.Label, got, fastest)
		}
	}

	study, err := ex.simulationTimeStudy()
	if err != nil {
		t.Fatal(err)
	}
	if jobs := ex.svc.Stats().Jobs; jobs != jobsBefore {
		t.Errorf("Fig. 7 and the simulation-time study submitted %d engine jobs; they must read collected data", jobs-jobsBefore)
	}
	if got := labels(study.Blocks[0].Rows); got != "1,2,4,8,16,32" {
		t.Fatalf("sim-time rows %s, want 1,2,4,8,16,32", got)
	}
	if big, small := study.Cell("32", "total"), study.Cell("1", "total"); !(big > small) {
		t.Errorf("32-core sim (%.3fs) not slower than 1-core (%.3fs)", big, small)
	}

	pred, err := ex.PredictTargetIPC("lbm")
	if err != nil {
		t.Fatal(err)
	}
	actual, err := ex.ActualTargetIPC("lbm")
	if err != nil {
		t.Fatal(err)
	}
	if pred <= 0 || actual <= 0 {
		t.Fatalf("non-positive pred %v / actual %v", pred, actual)
	}
	if _, err := ex.PredictTargetIPC("nothere"); err == nil {
		t.Fatal("unknown benchmark accepted by PredictTargetIPC")
	}
}

func TestFig12OnSubset(t *testing.T) {
	ex, err := NewExperimentsSubset(tinyOptions(), subsetNames()...)
	if err != nil {
		t.Fatal(err)
	}
	fig12, err := ex.Fig12Bandwidth()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig12.Methods) != 7 {
		t.Fatalf("%d methods, want 7", len(fig12.Methods))
	}
}

func TestHeterogeneousFiguresOnSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("heterogeneous collection is the most expensive test")
	}
	ex, err := NewExperimentsSubset(tinyOptions(), subsetNames()...)
	if err != nil {
		t.Fatal(err)
	}
	fig5, err := ex.fig5Heterogeneous()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig5.Blocks[0].Rows) != 7 {
		t.Fatalf("%d methods, want 7", len(fig5.Blocks[0].Rows))
	}
	fig6, err := ex.fig6STP()
	if err != nil {
		t.Fatal(err)
	}
	if got := labels(fig6.Blocks[0].Rows); got != "DT-log,RF-log,SVM-log" {
		t.Fatalf("STP methods %s, want DT-log,RF-log,SVM-log", got)
	}
	for _, m := range fig6.Blocks[0].Rows {
		if avg := fig6.Cell(m.Label, "avg"); !(avg > 0) {
			t.Errorf("%s: STP error %v", m.Label, avg)
		}
		if !strings.Contains(fig6.String(), m.Label) {
			t.Errorf("STP rendering missing %s", m.Label)
		}
	}
}

func TestFastAndDefaultOptionDefaults(t *testing.T) {
	d := DefaultOptions()
	if d.Instructions == 0 || d.Warmup == 0 || d.CapacityScale == 0 {
		t.Fatalf("default options empty: %+v", d)
	}
	f := FastOptions()
	if f.Instructions >= d.Instructions {
		t.Fatal("FastOptions not faster than DefaultOptions")
	}
}

func TestSimulateParallelPublicAPI(t *testing.T) {
	names := ParallelBenchmarkNames()
	if len(names) < 4 {
		t.Fatalf("parallel suite %v", names)
	}
	res, err := SimulateParallel(MachineSpec{Cores: 2}, "par.stencil", tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Threads != 2 || res.AggregateIPC <= 0 || res.MakespanCycles <= 0 {
		t.Fatalf("bad parallel result %+v", res)
	}
	sum := res.Stack.Base + res.Stack.Branch + res.Stack.Memory + res.Stack.Frontend + res.Stack.Barrier
	if sum < 0.9 || sum > 1.1 {
		t.Fatalf("stack sums to %.3f: %s", sum, res.Stack)
	}
	if _, err := SimulateParallel(MachineSpec{Cores: 2}, "nope", tinyOptions()); err == nil {
		t.Fatal("unknown parallel workload accepted")
	}
	// Tracing records the epochs and changes nothing else.
	traced := tinyOptions()
	traced.Trace, traced.TraceWarmup = true, true
	got, err := SimulateParallel(MachineSpec{Cores: 2}, "par.stencil", traced)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Trace) == 0 || got.Trace[0].Phase != "warmup" || len(got.Trace[0].Cores) != 2 {
		t.Fatalf("traced threaded run recorded %d snapshots", len(got.Trace))
	}
	got.Trace, got.WallClockSec, res.WallClockSec = nil, 0, 0
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("tracing perturbed the threaded run:\nuntraced: %+v\ntraced:   %+v", res, got)
	}
}

func TestExtMultithreadedOnTinyBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 32-core target for each parallel workload")
	}
	ex, err := NewExperimentsSubset(tinyOptions(), subsetNames()...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.extMultithreaded()
	if err != nil {
		t.Fatal(err)
	}
	if got := labels(res.Blocks[0].Rows); got != "par.stream,par.stencil,par.tablescan,par.graph" {
		t.Fatalf("workloads %s", got)
	}
	for _, w := range res.Blocks[0].Rows {
		if !(res.Cell(w.Label, "32") > 0 && res.Cell(w.Label, "predicted 32") > 0) {
			t.Errorf("%s: bad throughputs %v", w.Label, w.Values)
		}
		// Strong scaling: 32 threads must beat 1 thread.
		if !(res.Cell(w.Label, "32") > res.Cell(w.Label, "1")) {
			t.Errorf("%s: no scaling: %v", w.Label, w.Values)
		}
	}
	if !strings.Contains(res.String(), "par.stream") {
		t.Error("rendering missing workloads")
	}

	// The study is 24 engine jobs: simulated once, a repeat served from
	// memory, a later process served from the store, the figure the same.
	if ex.Runs() != 24 {
		t.Fatalf("the study ran %d simulations, want 24", ex.Runs())
	}
	dir := t.TempDir()
	for process, want := range []struct{ runs, disk int }{{24, 0}, {0, 24}} {
		stored, err := NewExperimentsSubset(tinyOptions(), subsetNames()...)
		if err != nil {
			t.Fatal(err)
		}
		if err := stored.SetStore(dir); err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 2; rep++ {
			again, err := stored.extMultithreaded()
			if err != nil {
				t.Fatal(err)
			}
			if again.String() != res.String() {
				t.Fatalf("process %d, regeneration %d: figure differs:\n%s\nvs\n%s", process, rep, again, res)
			}
		}
		if stored.Runs() != want.runs || stored.DiskHits() != want.disk || stored.CacheHits() != 24 {
			t.Fatalf("process %d: %d simulated, %d from disk, %d from memory; want %d, %d, 24",
				process, stored.Runs(), stored.DiskHits(), stored.CacheHits(), want.runs, want.disk)
		}
		if err := stored.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPrefetchStudyOnSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("two homogeneous collections")
	}
	ex, err := NewExperimentsSubset(tinyOptions(), subsetNames()...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.prefetchStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blocks[0].Rows) != len(subsetNames()) {
		t.Fatalf("%d rows", len(res.Blocks[0].Rows))
	}
	foundSpeedup := false
	for _, row := range res.Blocks[0].Rows {
		on, off := res.Cell(row.Label, "IPC on"), res.Cell(row.Label, "IPC off")
		if on > off*1.02 {
			foundSpeedup = true
		}
		if !(on > 0 && off > 0) {
			t.Errorf("%s: missing variant data %v", row.Label, row.Values)
		}
	}
	if !foundSpeedup {
		t.Error("prefetcher helped no benchmark at all")
	}
	if !strings.Contains(res.String(), "prefetcher") {
		t.Error("rendering incomplete")
	}
}

func TestCustomMachineSpec(t *testing.T) {
	res, err := Simulate(MachineSpec{Cores: 1, LLCPerCoreKB: 2048}, []string{"xalancbmk"}, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	base, err := Simulate(MachineSpec{Cores: 1}, []string{"xalancbmk"}, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Doubling the capacity-sensitive benchmark's LLC must help it.
	if res.Cores[0].IPC <= base.Cores[0].IPC {
		t.Errorf("2 MB LLC IPC %.3f not above 1 MB IPC %.3f", res.Cores[0].IPC, base.Cores[0].IPC)
	}
	if _, err := Simulate(MachineSpec{Cores: 1, LLCPerCoreKB: 3000}, []string{"gcc"}, tinyOptions()); err == nil {
		t.Error("invalid custom LLC accepted")
	}
}

// TestFiguresTable pins the table of contents cmd/experiments loops over:
// the ids its -figs accepts, in report order, and the simulation-time study's
// rendering (the layout experiments_full.txt records).
func TestFiguresTable(t *testing.T) {
	ex, err := NewExperimentsSubset(tinyOptions(), subsetNames()...)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, f := range ex.Figures() {
		if f.Name == "" || f.Run == nil {
			t.Errorf("figure %q: incomplete entry", f.ID)
		}
		ids = append(ids, f.ID)
	}
	if got, want := strings.Join(ids, ","), "1,3,4,5,6,7,8,9,10,11,12,mt,ablations,prefetch,speedup"; got != want {
		t.Errorf("figure ids %s, want %s", got, want)
	}
	study := simTimeTable(map[int]time.Duration{1: time.Second / 2, 32: 14 * time.Second}, []int{1, 32}, 4)
	want := "Simulation time study (§I / §V-D) — wall-clock per machine size, full homogeneous suite\n" +
		"   1 cores:     0.50s total ( 125.0 ms/benchmark)  speedup vs 32-core:  28.0x\n" +
		"  32 cores:    14.00s total (3500.0 ms/benchmark)  speedup vs 32-core:   1.0x\n"
	if got := study.String(); got != want {
		t.Errorf("time study renders\n%s\nwant\n%s", got, want)
	}
}
