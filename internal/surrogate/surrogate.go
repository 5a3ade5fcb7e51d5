// Package surrogate is the learned memoization tier: a random-forest
// surrogate model trained on accumulated ground-truth simulation results
// that slots between the durable store and the simulator (the engine's
// lookup order becomes memory → disk → model → compute).
//
// # Serving contract
//
// Predict answers a design-point query in microseconds from the trained
// ensemble, but only when a two-part confidence gate passes for every core
// of the query:
//
//   - agreement: the relative standard deviation of the per-tree
//     predictions must not exceed Config.VarGate for any target — wide
//     ensemble disagreement flags extrapolation;
//   - novelty: the query's normalised distance to its nearest training
//     point in scaled feature space must not exceed Config.DistGate —
//     a query far from everything the model has seen falls through no
//     matter how confidently the trees happen to agree.
//
// Feature vectors that are non-finite (NaN/Inf) or of the wrong
// dimensionality (ml.ErrDimension from a persisted dataset of an older
// layout) are rejected by the same gate: the query falls through to ground
// truth, and a NaN can never reach a served prediction. A rejected query is
// indistinguishable from having no surrogate at all — the simulator runs
// and its bit-exact result is returned.
//
// # Active learning
//
// Observe feeds every ground-truth result (freshly computed or loaded from
// disk) into the training set. The model first fits after Config.MinTrain
// distinct design points and refits after every Config.RefitEvery new
// observations — always on the observe path, never on the serving fast
// path. Gate-rejected queries therefore teach the model exactly the regions
// it was unsure about.
//
// # Determinism and persistence
//
// Training rows are ordered by content-addressed job key before every fit,
// and the forests' seeds are constants, so the trained model is a pure
// function of the training set's contents — byte-identical
// across processes and insertion orders (Fingerprint exposes this for
// tests). With Config.Dir set, the training set persists as a JSONL sidecar
// (store artifacts hold only results, not model features, so the surrogate
// keeps its own dataset) and is replayed tolerantly on open: corrupt lines
// and rows of a foreign feature layout are skipped, never fatal, and a torn
// last row is ended so the next row persisted starts on a line of its own.
package surrogate

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"scalesim/internal/ml"
	"scalesim/internal/runner"
	"scalesim/internal/sim"
	"scalesim/internal/units"
)

// datasetSchema tags every persisted dataset row, mirroring the repo's
// store/trace/api versioning convention.
const datasetSchema = "scalesim/surrogate/v1"

// datasetFile is the JSONL training-set sidecar inside Config.Dir.
const datasetFile = "dataset.jsonl"

// Defaults for the zero Config values.
const (
	defaultMinTrain   = 32
	defaultVarGate    = 0.05
	defaultDistGate   = 1.0
	defaultRefitEvery = 16
)

// trees is the random-forest ensemble size per target.
const trees = 50

// Config parameterises a Surrogate. The zero value of every field selects
// the documented default, so Config{} is usable as-is.
type Config struct {
	// MinTrain is the number of distinct ground-truth design points required
	// before the first fit; the model serves nothing until then.
	MinTrain int
	// VarGate bounds the relative per-tree standard deviation of a served
	// prediction (ensemble-agreement gate).
	VarGate float64
	// DistGate bounds the normalised scaled-space distance from a query to
	// its nearest training point (novelty gate).
	DistGate float64
	// RefitEvery retrains after this many new observations since the last
	// fit.
	RefitEvery int
	// Dir, when non-empty, roots the persistent JSONL training set. Created
	// on first use; empty means the training set is process-local.
	Dir string
}

// withDefaults returns cfg with zero fields replaced by defaults.
func (c Config) withDefaults() Config {
	if c.MinTrain <= 0 {
		c.MinTrain = defaultMinTrain
	}
	if c.VarGate <= 0 {
		c.VarGate = defaultVarGate
	}
	if c.DistGate <= 0 {
		c.DistGate = defaultDistGate
	}
	if c.RefitEvery <= 0 {
		c.RefitEvery = defaultRefitEvery
	}
	return c
}

// record is one design point's training contribution: the per-core feature
// rows and target vectors. Serialised verbatim as a dataset line.
type record struct {
	Schema   string      `json:"schema"`
	Key      string      `json:"key"`
	Features [][]float64 `json:"features"`
	Targets  [][]float64 `json:"targets"`
}

// model is one immutable fitted generation: Predict loads the pointer and
// works on it without the mutex while Observe builds the next generation.
type model struct {
	scaler  *ml.Scaler
	forests [numTargets]*ml.RandomForest
	// trainX is the scaled training matrix, for the nearest-neighbour
	// novelty gate.
	trainX [][]float64
}

// Surrogate implements runner.Predictor. Construct with New; safe for
// concurrent use.
type Surrogate struct {
	cfg Config

	// fitted is the serving generation, nil until MinTrain points are
	// observed. Readers load it without mu, so a query never waits out a
	// refit; writers fit and publish under mu.
	fitted atomic.Pointer[model]

	mu      sync.Mutex
	rows    map[string]record // by job key; one entry per design point
	pending int               // observations since the last fit
	file    *os.File          // append-only dataset sidecar (nil without Dir)
}

// New builds a surrogate tier. With cfg.Dir set, the directory is created
// and any existing dataset replayed (tolerantly: corrupt lines and rows of
// a foreign feature layout are skipped); if the replayed set already
// reaches MinTrain, the model fits immediately, so a restarted service
// serves from its first query.
func New(cfg Config) (*Surrogate, error) {
	s := &Surrogate{cfg: cfg.withDefaults(), rows: make(map[string]record)}
	if cfg.Dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("surrogate: creating dataset dir: %w", err)
	}
	path := filepath.Join(cfg.Dir, datasetFile)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("surrogate: reading dataset: %w", err)
	}
	s.replay(data)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("surrogate: opening dataset: %w", err)
	}
	if len(data) > 0 && data[len(data)-1] != '\n' {
		// A torn row (a crash mid-append) is ended, best-effort like persist,
		// so it stays one skipped line and the next row starts on its own.
		_, _ = f.Write([]byte{'\n'})
	}
	s.file = f
	if len(s.rows) >= s.cfg.MinTrain {
		s.fit()
	}
	return s, nil
}

// replay loads persisted dataset lines, skipping anything unusable: a
// corrupt tail from a crash mid-append, rows from an older feature layout
// (wrong dimensionality), non-finite values. The dataset is an accelerator,
// never a correctness input, so damage costs retraining — not failure.
func (s *Surrogate) replay(data []byte) {
	for _, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var rec record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			continue
		}
		if rec.Schema != datasetSchema || rec.Key == "" || !usable(rec) {
			continue
		}
		if _, ok := s.rows[rec.Key]; ok {
			continue
		}
		s.rows[rec.Key] = rec
	}
}

// usable reports whether a record can enter the training set: current
// feature layout, matching per-core shapes, everything finite.
func usable(rec record) bool {
	if len(rec.Features) == 0 || len(rec.Features) != len(rec.Targets) {
		return false
	}
	for i, row := range rec.Features {
		if len(row) != featureDim || !ml.Finite(row) {
			return false
		}
		if len(rec.Targets[i]) != numTargets || !ml.Finite(rec.Targets[i]) {
			return false
		}
	}
	return true
}

// Observe implements runner.Predictor: feed one ground-truth result into
// the training set. Results whose features or targets are non-finite, or
// whose shapes do not line up (defensive; engine jobs are well-formed), are
// ignored. Fitting happens here — never on the Predict fast path.
func (s *Surrogate) Observe(job runner.Job, res *sim.Result) {
	if res == nil || len(res.Cores) == 0 {
		return
	}
	rec := record{
		Schema:   datasetSchema,
		Key:      job.Key(),
		Features: jobFeatures(job),
		Targets:  resultTargets(res),
	}
	if !usable(rec) {
		return
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.rows[rec.Key]; ok {
		return // deterministic simulation: the same key cannot teach twice
	}
	s.rows[rec.Key] = rec
	//simlint:ignore lockscope the training-set journal must persist rows in exactly the order they enter s.rows or replay diverges; the append is small and bounded
	s.persist(rec)
	s.pending++
	switch fitted := s.fitted.Load() != nil; {
	case !fitted && len(s.rows) >= s.cfg.MinTrain:
		s.fit()
	case fitted && s.pending >= s.cfg.RefitEvery:
		s.fit()
	}
}

// persist appends one dataset line. Best-effort, like store writes: a full
// disk costs future retraining, never the current campaign.
func (s *Surrogate) persist(rec record) {
	if s.file == nil {
		return
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return
	}
	_, _ = s.file.Write(append(line, '\n'))
}

// fit trains a fresh model generation from the current training set.
// Called with mu held. Rows are ordered by job key so the trained model is
// independent of observation order.
func (s *Surrogate) fit() {
	keys := make([]string, 0, len(s.rows))
	//simlint:ignore maporder keys are sorted immediately below
	for k := range s.rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	var X [][]float64
	ys := make([][]float64, numTargets)
	for _, k := range keys {
		rec := s.rows[k]
		for i, row := range rec.Features {
			X = append(X, row)
			for t := 0; t < numTargets; t++ {
				ys[t] = append(ys[t], rec.Targets[i][t])
			}
		}
	}

	scaler, err := ml.FitScaler(X)
	if err != nil {
		return // degenerate set; keep the previous generation
	}
	m := &model{scaler: scaler, trainX: scaler.TransformAll(X)}
	for t := 0; t < numTargets; t++ {
		f := &ml.RandomForest{Trees: trees, Seed: uint64(t+1) * 0x9e3779b97f4a7c15}
		if err := f.Fit(m.trainX, ys[t]); err != nil {
			return
		}
		m.forests[t] = f
	}
	s.fitted.Store(m)
	s.pending = 0
}

// Predict implements runner.Predictor: answer the query from the trained
// model iff the confidence gate passes for every core and every target.
// It works on one whole model generation and never takes the mutex, so a
// concurrent refit never blocks serving.
func (s *Surrogate) Predict(job runner.Job) (*sim.Result, bool) {
	m := s.fitted.Load()
	if m == nil {
		return nil, false
	}

	rows := jobFeatures(job)
	// Gate, part zero: the model answers only what the simulator would run —
	// one program row per core of the machine (a threaded job has none).
	if len(rows) == 0 || len(rows) != job.Config.Cores {
		return nil, false
	}
	preds := make([][]float64, len(rows))
	for i, row := range rows {
		// Part zero, too: a non-finite or mis-shaped feature vector must
		// fall through to compute — never into the forest, whose output for
		// such input would be garbage served as a result.
		if !ml.Finite(row) {
			return nil, false
		}
		scaled, err := m.scaler.TransformChecked(row)
		if err != nil {
			return nil, false // ml.ErrDimension: foreign feature layout
		}
		// Gate, part one: ensemble agreement per target.
		p := make([]float64, numTargets)
		for t := 0; t < numTargets; t++ {
			mean, std := m.forests[t].PredictStats(scaled)
			if !relativeStdOK(mean, std, s.cfg.VarGate) {
				return nil, false
			}
			p[t] = mean
		}
		// Gate, part two: novelty — distance to the nearest training point.
		if nearestDistance(m.trainX, scaled) > s.cfg.DistGate {
			return nil, false
		}
		// A servable core needs a physically meaningful IPC.
		if !(p[targetIPC] > 0) || math.IsInf(p[targetIPC], 0) {
			return nil, false
		}
		preds[i] = p
	}
	return synthesize(job, preds), true
}

// relativeStdOK is the agreement gate: std relative to |mean| (absolute
// when the mean is near zero, where a ratio is meaningless).
func relativeStdOK(mean, std, gate float64) bool {
	if math.IsNaN(mean) || math.IsNaN(std) {
		return false
	}
	denom := math.Abs(mean)
	if denom < 1e-9 {
		return std <= gate
	}
	return std/denom <= gate
}

// nearestDistance returns the query's L2 distance to its nearest training
// row, normalised by sqrt(d) so the gate threshold reads as "standard
// deviations per feature" independently of the layout width.
func nearestDistance(trainX [][]float64, q []float64) float64 {
	best := math.Inf(1)
	for _, row := range trainX {
		var d2 float64
		for j := range q {
			dv := q[j] - row[j]
			d2 += float64(dv * dv)
			if d2 >= best {
				break
			}
		}
		if d2 < best {
			best = d2
		}
	}
	return math.Sqrt(best / float64(len(q)))
}

// synthesize assembles an approximate sim.Result from per-core predictions
// (preds[i] indexed by the target constants). Fields the model does not
// predict are derived where the derivation is exact in the predicted terms
// (cycles, simulated time, bandwidth shares) and left zero where it is not
// (stall decomposition, detailed miss ladder, wall-clock).
func synthesize(job runner.Job, preds [][]float64) *sim.Result {
	freq := job.Config.Core.FrequencyGHz
	// Total DRAM bandwidth in bytes per core cycle: GB/s ÷ Gcycles/s.
	var totalBPC float64
	if freq > 0 {
		totalBPC = float64(job.Config.DRAM.TotalGBps()) / freq
	}

	res := &sim.Result{ConfigName: job.Config.Name, Cores: make([]sim.CoreResult, len(preds))}
	var sumBW float64
	for i, p := range preds {
		ipc := p[targetIPC]
		bw := math.Max(0, p[targetBWBytesPerCycle])
		cycles := units.Cycles(float64(job.Options.Instructions) / ipc)
		core := sim.CoreResult{
			Core:            i,
			Instructions:    job.Options.Instructions,
			Cycles:          cycles,
			IPC:             ipc,
			LLCMPKI:         math.Max(0, p[targetLLCMPKI]),
			BWBytesPerCycle: units.BytesPerCycle(bw),
		}
		if i < len(job.Workload.Profiles) && job.Workload.Profiles[i] != nil {
			core.Benchmark = job.Workload.Profiles[i].Name
		}
		if totalBPC > 0 {
			core.BWShare = bw / totalBPC
		}
		sumBW += bw
		if cycles > res.ElapsedCycles {
			res.ElapsedCycles = cycles
		}
		res.Cores[i] = core
	}
	res.SimulatedPicos = res.ElapsedCycles.AtGHz(freq)
	if totalBPC > 0 {
		res.DRAMUtilization = math.Min(1, sumBW/totalBPC)
	}
	return res
}

// Ready reports whether a model generation has been fitted (the tier can
// serve).
func (s *Surrogate) Ready() bool { return s.fitted.Load() != nil }

// Fingerprint returns a stable hex digest of the current model generation:
// the canonical encoding of every forest plus the scaler parameters. Equal
// training sets produce equal fingerprints, across
// processes and observation orders; the determinism suite asserts exactly
// this. Empty until the first fit.
func (s *Surrogate) Fingerprint() string {
	m := s.fitted.Load()
	if m == nil {
		return ""
	}
	h := sha256.New()
	fmt.Fprintf(h, "scaler|%v|%v\n", m.scaler.Mean, m.scaler.Scale)
	for t := 0; t < numTargets; t++ {
		fmt.Fprintf(h, "target|%d\n", t)
		m.forests[t].WriteCanonical(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Close releases the dataset sidecar, if any.
func (s *Surrogate) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.file == nil {
		return nil
	}
	err := s.file.Close()
	s.file = nil
	return err
}
