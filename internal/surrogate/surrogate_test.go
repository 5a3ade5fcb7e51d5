package surrogate

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"scalesim/internal/config"
	"scalesim/internal/runner"
	"scalesim/internal/sim"
	"scalesim/internal/trace"
)

// synthJob builds a distinct, fully specified design point, one program on a
// one-core machine: i shifts the workload's BaseCPI (and so the feature row),
// keeping everything else at the fixture values.
func synthJob(i int) runner.Job {
	cfg, err := config.CustomSystem(1, config.CustomOptions{})
	if err != nil {
		panic(err) // the one-core PRS budgets are valid
	}
	prof := &trace.Profile{
		Name:           "synth",
		BaseCPI:        0.4 + 0.01*float64(i),
		LoadsPerKI:     200 + i,
		StoresPerKI:    100,
		BranchesPerKI:  150,
		MLP:            3,
		StaticBranches: 4096,
		HardFrac:       0.1,
		IFootprint:     64 * 1024,
		Regions: []trace.Region{
			{Size: 1 << 20, Frac: 0.8, Pattern: trace.Rand, ElemSize: 8},
			{Size: 1 << 16, Frac: 0.2, Pattern: trace.Seq, ElemSize: 64},
		},
	}
	return runner.Job{
		Config:   cfg,
		Workload: sim.Workload{Profiles: []*trace.Profile{prof}},
		Options: sim.Options{
			Instructions:  1_000_000,
			Warmup:        100_000,
			EpochCycles:   10_000,
			CapacityScale: 8,
			Seed:          1,
		},
	}
}

// synthResult fabricates a smooth ground truth over the synthJob family, so
// a trained forest interpolates it confidently.
func synthResult(i int) *sim.Result {
	ipc := 2.0 - 0.01*float64(i)
	return &sim.Result{
		ConfigName: "target",
		Cores: []sim.CoreResult{{
			Core: 0, Benchmark: "synth",
			Instructions:    1_000_000,
			IPC:             ipc,
			LLCMPKI:         5 + 0.1*float64(i),
			BWBytesPerCycle: 2,
		}},
	}
}

// train feeds n distinct points into a fresh surrogate with loose gates.
func train(t *testing.T, n int, cfg Config) *Surrogate {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < n; i++ {
		s.Observe(synthJob(i), synthResult(i))
	}
	return s
}

// trainedPoints returns the number of distinct design points in the
// training set.
func (s *Surrogate) trainedPoints() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.rows)
}

// looseConfig trains fast and serves everything the model can express: the
// gates are effectively off, isolating the mechanics under test.
func looseConfig() Config {
	return Config{MinTrain: 8, VarGate: 1e9, DistGate: 1e9, RefitEvery: 4}
}

func TestObserveFitPredict(t *testing.T) {
	s := train(t, 8, looseConfig())
	if !s.Ready() {
		t.Fatal("surrogate not fitted after MinTrain observations")
	}
	if got := s.trainedPoints(); got != 8 {
		t.Fatalf("TrainedPoints = %d, want 8", got)
	}

	// An interior point of the trained family must serve.
	job := synthJob(3)
	res, ok := s.Predict(job)
	if !ok {
		t.Fatal("Predict rejected an interior query under loose gates")
	}
	if len(res.Cores) != 1 {
		t.Fatalf("predicted %d cores, want 1", len(res.Cores))
	}
	c := res.Cores[0]
	if c.Benchmark != "synth" || c.Instructions != 1_000_000 {
		t.Fatalf("core identity not carried over: %+v", c)
	}
	if !(c.IPC > 0) || math.IsNaN(c.LLCMPKI) || math.IsNaN(float64(c.BWBytesPerCycle)) {
		t.Fatalf("non-physical prediction: %+v", c)
	}
	// Derived fields must be consistent with the predicted IPC.
	wantCycles := float64(job.Options.Instructions) / c.IPC
	if math.Abs(float64(c.Cycles)-wantCycles) > 1e-6 {
		t.Fatalf("Cycles = %v, want Instructions/IPC = %v", c.Cycles, wantCycles)
	}
	if res.ElapsedCycles != c.Cycles {
		t.Fatalf("ElapsedCycles = %v, want max core cycles %v", res.ElapsedCycles, c.Cycles)
	}
	if !(res.SimulatedPicos > 0) {
		t.Fatalf("SimulatedPicos = %v, want > 0", res.SimulatedPicos)
	}
}

// TestPredictDoesNotWaitForRefit holds the mutex as Observe does for the
// whole of a refit, and requires the serving-side reads to return anyway.
func TestPredictDoesNotWaitForRefit(t *testing.T) {
	s := train(t, 8, looseConfig())
	s.mu.Lock()
	defer s.mu.Unlock()
	served := make(chan bool, 1)
	go func() {
		_, ok := s.Predict(synthJob(3))
		served <- ok && s.Ready() && s.Fingerprint() != ""
	}()
	select {
	case ok := <-served:
		if !ok {
			t.Error("a trained surrogate did not serve while the mutex was held")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Predict, Ready or Fingerprint waited for the mutex a refit holds")
	}
}

func TestNotReadyBeforeMinTrain(t *testing.T) {
	s := train(t, 7, looseConfig()) // one short of MinTrain
	if s.Ready() {
		t.Fatal("fitted before MinTrain observations")
	}
	if _, ok := s.Predict(synthJob(0)); ok {
		t.Fatal("served a prediction before the first fit")
	}
}

func TestObserveDedupesByKey(t *testing.T) {
	cfg := looseConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 3; i++ {
		s.Observe(synthJob(0), synthResult(0)) // same key every time
	}
	if got := s.trainedPoints(); got != 1 {
		t.Fatalf("TrainedPoints = %d after duplicate observes, want 1", got)
	}
}

func TestGateRejectsNonFinite(t *testing.T) {
	s := train(t, 8, looseConfig())
	bad := synthJob(3)
	prof := *bad.Workload.Profiles[0]
	prof.MLP = math.NaN()
	bad.Workload.Profiles = []*trace.Profile{&prof}
	if _, ok := s.Predict(bad); ok {
		t.Fatal("served a prediction for a NaN feature vector")
	}
	inf := synthJob(3)
	prof2 := *inf.Workload.Profiles[0]
	prof2.BaseCPI = math.Inf(1)
	inf.Workload.Profiles = []*trace.Profile{&prof2}
	if _, ok := s.Predict(inf); ok {
		t.Fatal("served a prediction for an Inf feature vector")
	}
	// Non-finite ground truth must not poison the training set either.
	before := s.trainedPoints()
	s.Observe(bad, synthResult(99))
	if s.trainedPoints() != before {
		t.Fatal("non-finite features entered the training set")
	}
}

// TestThreadedJobNeverOfferedToModel: the features are per program of a mix,
// so a threaded job (Workload.Threads) is outside the model — never served by
// it, never a training row.
func TestThreadedJobNeverOfferedToModel(t *testing.T) {
	s := train(t, 8, looseConfig())
	before, fp := s.trainedPoints(), s.Fingerprint()
	threaded := synthJob(3)
	threaded.Workload = sim.Workload{Threads: &trace.ParallelProfile{Serial: *threaded.Workload.Profiles[0]}}
	if res, ok := s.Predict(threaded); ok || res != nil {
		t.Fatalf("served a prediction for a threaded job: %+v", res)
	}
	threadedResult := synthResult(3)
	threadedResult.Cores = append(threadedResult.Cores, threadedResult.Cores[0])
	s.Observe(threaded, threadedResult)
	if s.trainedPoints() != before || s.Fingerprint() != fp {
		t.Fatal("a threaded job entered the training set")
	}
}

func TestGateRejectsNovelQueries(t *testing.T) {
	cfg := looseConfig()
	cfg.DistGate = 0.05 // tight novelty gate
	s := train(t, 8, cfg)
	// A job far outside the trained family (very different machine scale
	// and workload) must fall through.
	far := synthJob(3)
	prof := *far.Workload.Profiles[0]
	prof.BaseCPI = 3.5
	prof.MLP = 16
	prof.LoadsPerKI = 900
	far.Workload.Profiles = []*trace.Profile{&prof}
	far.Options.Instructions = 64_000_000
	if _, ok := s.Predict(far); ok {
		t.Fatal("novelty gate served a far-out-of-distribution query")
	}
	// An exact training point sits at distance zero and must still serve.
	if _, ok := s.Predict(synthJob(3)); !ok {
		t.Fatal("novelty gate rejected an exact training point")
	}
}

func TestGateRejectsDisagreement(t *testing.T) {
	cfg := looseConfig()
	cfg.VarGate = 1e-12 // any per-tree spread rejects
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Noisy targets: bootstrap resamples disagree, so per-tree std > 0.
	for i := 0; i < 8; i++ {
		res := synthResult(i)
		res.Cores[0].IPC = 1 + float64(i%2) // alternating ground truth
		s.Observe(synthJob(i), res)
	}
	if !s.Ready() {
		t.Fatal("not fitted")
	}
	if _, ok := s.Predict(synthJob(3)); ok {
		t.Fatal("agreement gate served despite tree disagreement")
	}
}

func TestFingerprintInsertionOrderIndependent(t *testing.T) {
	cfg := looseConfig()
	a, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 8; i++ {
		a.Observe(synthJob(i), synthResult(i))
	}
	for i := 7; i >= 0; i-- {
		b.Observe(synthJob(i), synthResult(i))
	}
	fa, fb := a.Fingerprint(), b.Fingerprint()
	if fa == "" || fa != fb {
		t.Fatalf("model depends on observation order:\n forward %s\n reverse %s", fa, fb)
	}
	// ... and the served predictions are identical too.
	ra, oka := a.Predict(synthJob(4))
	rb, okb := b.Predict(synthJob(4))
	if !oka || !okb {
		t.Fatal("prediction rejected under loose gates")
	}
	if ra.Cores[0].IPC != rb.Cores[0].IPC || ra.Cores[0].LLCMPKI != rb.Cores[0].LLCMPKI {
		t.Fatalf("insertion order changed predictions: %+v vs %+v", ra.Cores[0], rb.Cores[0])
	}
}

func TestDatasetPersistence(t *testing.T) {
	dir := t.TempDir()
	cfg := looseConfig()
	cfg.Dir = dir

	first := train(t, 8, cfg)
	want := first.Fingerprint()
	if want == "" {
		t.Fatal("first surrogate not fitted")
	}
	if err := first.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A fresh surrogate on the same directory replays the dataset, fits
	// immediately, and reaches the byte-identical model.
	second, err := New(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer second.Close()
	if !second.Ready() {
		t.Fatal("reopened surrogate did not fit from the persisted dataset")
	}
	if got := second.Fingerprint(); got != want {
		t.Fatalf("persisted dataset changed the model:\n got %s\nwant %s", got, want)
	}
}

func TestReplayToleratesDamage(t *testing.T) {
	dir := t.TempDir()
	cfg := looseConfig()
	cfg.Dir = dir

	s := train(t, 8, cfg)
	want := s.Fingerprint()
	s.Close()

	// Damage the dataset: garbage lines, a truncated tail, a foreign-layout
	// row, an unknown schema. All must be skipped silently.
	path := filepath.Join(dir, datasetFile)
	damage := "not json at all\n" +
		`{"schema":"scalesim/surrogate/v99","key":"x","features":[[1]],"targets":[[1]]}` + "\n" +
		`{"schema":"scalesim/surrogate/v1","key":"short","features":[[1,2,3]],"targets":[[1,2,3]]}` + "\n" +
		`{"schema":"scalesim/surrogate/v1","key":"trunc","featur`
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(damage); err != nil {
		t.Fatal(err)
	}
	f.Close()

	reopened, err := New(cfg)
	if err != nil {
		t.Fatalf("reopen over damaged dataset: %v", err)
	}
	defer reopened.Close()
	if got := reopened.trainedPoints(); got != 8 {
		t.Fatalf("TrainedPoints = %d after damage, want the 8 valid rows", got)
	}
	if got := reopened.Fingerprint(); got != want {
		t.Fatalf("damaged lines leaked into the model:\n got %s\nwant %s", got, want)
	}
}

// TestDatasetTornTailKeepsNextRow: New ends a torn last row, so the first row
// persisted after it starts on its own line — appended to the torn row it
// would be part of one unparseable line, and gone on the next New.
func TestDatasetTornTailKeepsNextRow(t *testing.T) {
	cfg := looseConfig()
	cfg.Dir = t.TempDir()
	train(t, 2, cfg).Close()
	f, err := os.OpenFile(filepath.Join(cfg.Dir, datasetFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"schema":"scalesim/surrogate/v1","key":"trunc","featur`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s := train(t, 3, cfg) // replays rows 0 and 1, persists row 2
	s.Close()
	reopened, err := New(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer reopened.Close()
	if got := reopened.trainedPoints(); got != 3 {
		t.Fatalf("TrainedPoints = %d after reopening, want 3: the row persisted after the torn one is lost", got)
	}
}

// TestCrossProcessModelDeterminism is the cross-process half of the model
// determinism contract (mirroring the store's TestCrossProcessStoreReuse):
// two separate processes training on the same persisted dataset must reach
// byte-identical models.
func TestCrossProcessModelDeterminism(t *testing.T) {
	if dir := os.Getenv("SCALESIM_SURROGATE_DIR"); dir != "" {
		cfg := looseConfig()
		cfg.Dir = dir
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("child New: %v", err)
		}
		defer s.Close()
		if !s.Ready() {
			t.Fatal("child surrogate did not fit from the dataset")
		}
		if err := os.WriteFile(os.Getenv("SCALESIM_SURROGATE_OUT"), []byte(s.Fingerprint()), 0o644); err != nil {
			t.Fatalf("child write: %v", err)
		}
		return
	}
	if testing.Short() {
		t.Skip("re-executes the test binary")
	}

	dir := t.TempDir()
	cfg := looseConfig()
	cfg.Dir = filepath.Join(dir, "surrogate")
	s := train(t, 8, cfg)
	want := s.Fingerprint()
	s.Close()

	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	out := filepath.Join(dir, "fingerprint")
	cmd := exec.Command(exe, "-test.run=^TestCrossProcessModelDeterminism$", "-test.count=1")
	cmd.Env = append(os.Environ(),
		"SCALESIM_SURROGATE_DIR="+cfg.Dir,
		"SCALESIM_SURROGATE_OUT="+out)
	if cout, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child failed: %v\n%s", err, cout)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("read child fingerprint: %v", err)
	}
	if string(got) != want {
		t.Fatalf("model differs across processes:\n got %s\nwant %s", got, want)
	}
}

func TestFeatureDimMatchesLayout(t *testing.T) {
	rows := jobFeatures(synthJob(0))
	if len(rows) != 1 {
		t.Fatalf("one-core job produced %d rows", len(rows))
	}
	if len(rows[0]) != featureDim {
		t.Fatalf("featureRow emits %d features, featureDim = %d — bump the constant alongside the layout", len(rows[0]), featureDim)
	}
}
