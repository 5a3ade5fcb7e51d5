// Package runner is the concurrent experiment-campaign engine: it executes
// batches of simulation jobs (machine config × workload × options) on a
// bounded pool of worker goroutines and memoizes results in a
// content-addressed cache, so repeated design points across experiment
// sweeps simulate exactly once.
//
// # Determinism
//
// Each simulation is fully deterministic for a fixed (config, workload,
// options, seed) — including one that runs its per-core epoch work on
// several core workers, which is byte-identical to the serial run — and
// jobs share no mutable state. Results are therefore bit-identical
// regardless of worker count or scheduling order, and RunBatch returns them
// in submission order. The only non-deterministic field is the measured
// host wall-clock (sim.Result.WallClock).
//
// # Memoization
//
// The cache key is a SHA-256 hash over a canonical field-by-field encoding
// (see key.go) of the complete machine configuration, every workload
// profile's full parameter set, and the simulation options (which include
// the seed). Two jobs collide only if they describe the same simulation, in
// which case the second is served the first's result — including across
// concurrent submissions (in-flight deduplication: the duplicate waits
// instead of re-simulating, and its outcome reports SourceCoalesced rather
// than SourceMemory). Keys are byte-stable across processes, so they are
// also safe to persist.
//
// A second, durable memoization tier sits behind the in-memory map when a
// ResultStore is attached (SetStore): a job missing from memory is looked up
// on disk before simulating, and freshly computed results are written back.
// Store access is strictly best-effort — a corrupt or unreadable artifact is
// counted (CampaignStats.StoreCorrupt) and the job recomputed; store write
// failures never fail the job, whose result is still served from memory.
//
// A third, learned tier sits between disk and compute when a Predictor is
// attached (SetPredictor): a job that misses both ground-truth tiers is
// offered to a surrogate model trained on accumulated results, which either
// serves an approximate prediction (SourceModel, Outcome.Approximate) or
// falls through to the simulator. Predictions never enter the memory cache
// or the store — those tiers hold ground truth only — and every computed or
// disk-loaded result is fed back to the predictor's training set.
//
// # Isolation, and why a failed job is not retried
//
// A panicking simulation does not kill the campaign: the panic is recovered
// in the worker and converted into a *PanicError, stack included, for that
// one job. A job runs once. The simulator is a pure function of the job and
// does no I/O, so a second attempt reproduces the first's failure at twice
// the cost; a failure is the simulator's answer, wrapped in ErrJobFailed.
// Context errors pass through unwrapped and are never cached.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"scalesim/internal/config"
	"scalesim/internal/metrics"
	"scalesim/internal/sim"
)

// Job is one unit of campaign work: a workload simulated on a machine with
// given options. The seed lives inside Options. The content-addressed cache
// key is computed by Key (key.go) over the options as given, so a Job carries
// resolved options (sim.Options.Resolved): the values that will run. The root
// package builds every Job at its one door, newJob, which resolves them.
type Job struct {
	Config   *config.SystemConfig
	Workload sim.Workload
	Options  sim.Options
}

// PanicError wraps a panic recovered from a simulation worker.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: simulation panicked: %v", e.Value)
}

// ErrJobFailed marks a job whose one run returned an error or panicked. Test
// with errors.Is; the underlying cause (including a *PanicError) remains
// reachable through errors.As.
var ErrJobFailed = errors.New("job failed")

// RunFunc is the simulation entry point the engine drives; injectable for
// tests. The default is the engine's sim.Fronts.RunContext: sim.RunContext
// with the programs' private halves shared between the campaign's machines.
type RunFunc func(context.Context, *config.SystemConfig, sim.Workload, sim.Options) (*sim.Result, error)

// Source says where a job's result came from.
type Source string

const (
	// SourceCompute: the simulator actually ran for this job.
	SourceCompute Source = "compute"
	// SourceMemory: served by the in-memory memo cache — the identical job
	// had already completed when this one was submitted.
	SourceMemory Source = "memory"
	// SourceCoalesced: deduplicated against an identical job that was still
	// in flight — this job waited for that run instead of simulating.
	SourceCoalesced Source = "coalesced"
	// SourceDisk: loaded from the attached ResultStore.
	SourceDisk Source = "disk"
	// SourceModel: predicted by the attached surrogate Predictor instead of
	// simulating — an approximate result (Outcome.Approximate is set).
	SourceModel Source = "model"
)

// Outcome is one job's result within a batch: either a simulation result or
// an error, plus where it came from.
type Outcome struct {
	Result *sim.Result
	Err    error
	// Source reports whether the simulator ran (SourceCompute) or the
	// result was served from memory or disk.
	Source Source
	// CacheHit is Source != SourceCompute: the simulator did not run.
	CacheHit bool
	// Approximate marks a result predicted by the surrogate model
	// (SourceModel, or SourceCoalesced onto a model-served flight) rather
	// than simulated or loaded from ground truth.
	Approximate bool
}

// ResultStore is the durable memoization tier (implemented by
// internal/store). Load reports (result, found, err); a non-nil error means
// the artifact existed but was unusable — the engine counts it and
// recomputes. Begin/Fail journal a job's lifecycle so an interrupted
// campaign can tell killed jobs from failed ones.
type ResultStore interface {
	Load(key string) (*sim.Result, bool, error)
	Begin(key string) error
	Save(key string, res *sim.Result) error
	Fail(key string) error
}

// Predictor is the learned memoization tier (implemented by
// internal/surrogate): a model trained on accumulated ground truth that
// can answer some design-point queries without simulating. Predict returns
// an approximate result and true when the model is confident enough to
// serve the job, or false to fall through to compute — a rejected query is
// indistinguishable from having no predictor at all. Observe feeds a
// ground-truth result (computed or loaded from disk) back into the
// training set; the predictor decides when to refit.
//
// Both methods are called outside the engine's lock and must be safe for
// concurrent use. Predictions never enter the ground-truth tiers: the
// engine neither caches a model-served result in memory nor writes it to
// the ResultStore.
type Predictor interface {
	Predict(job Job) (*sim.Result, bool)
	Observe(job Job, res *sim.Result)
}

// flight is one cache slot: the job's Outcome as its owner resolved it,
// final once done is closed. A model-served flight is evicted before done
// closes (the memory tier holds ground truth only), so an approximate
// Outcome is read only by waiters that coalesced onto it.
type flight struct {
	done chan struct{}
	oc   Outcome
}

// Engine executes jobs on a bounded worker pool with memoization. An Engine
// is safe for concurrent use; its cache persists across batches, so
// consecutive campaigns (e.g. successive figures of an experiment suite)
// share their common design points.
type Engine struct {
	workers   int
	fronts    *sim.Fronts
	run       RunFunc
	store     ResultStore
	predictor Predictor

	mu        sync.Mutex
	cache     map[string]*flight
	stats     metrics.CampaignStats
	perConfig map[string]ConfigTime
}

// New returns an engine with the given worker-pool size (<= 0 selects
// GOMAXPROCS) and no durable store.
func New(workers int) *Engine {
	fronts := sim.NewFronts()
	return &Engine{
		workers:   workers,
		fronts:    fronts,
		run:       fronts.RunContext,
		cache:     make(map[string]*flight),
		perConfig: make(map[string]ConfigTime),
	}
}

// SetWorkers resizes the worker pool for subsequent batches (<= 0 selects
// GOMAXPROCS).
func (e *Engine) SetWorkers(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.workers = n
}

// SetRunFunc replaces the simulation entry point (tests).
func (e *Engine) SetRunFunc(fn RunFunc) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.run = fn
}

// SetStore attaches (or, with nil, detaches) the durable memoization tier.
func (e *Engine) SetStore(s ResultStore) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.store = s
}

// SetPredictor attaches (or, with nil, detaches) the learned memoization
// tier. With a predictor attached the lookup order becomes memory → disk →
// model → compute: a job that misses both ground-truth tiers is offered to
// the predictor, and only a rejected (low-confidence) query simulates.
func (e *Engine) SetPredictor(p Predictor) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.predictor = p
}

// Workers returns the effective pool size.
func (e *Engine) Workers() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.effectiveWorkers()
}

func (e *Engine) effectiveWorkers() int {
	if e.workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return e.workers
}

// Stats returns a snapshot of the engine's counters, the front memo's
// included.
func (e *Engine) Stats() metrics.CampaignStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.stats
	st.Fronts = e.fronts.Stats()
	return st
}

// ConfigTime aggregates the simulator wall-clock spent on one machine
// configuration (cache misses only — cached results cost nothing).
type ConfigTime struct {
	Name string
	Runs int // simulator invocations
	Time time.Duration
}

// Report is a campaign execution report: the engine's counters plus the
// per-configuration breakdown of where simulation time went.
type Report struct {
	Stats     metrics.CampaignStats
	PerConfig []ConfigTime // sorted by configuration name
}

// Report returns a snapshot of the engine's execution report.
func (e *Engine) Report() Report {
	e.mu.Lock()
	defer e.mu.Unlock()
	r := Report{Stats: e.stats, PerConfig: make([]ConfigTime, 0, len(e.perConfig))}
	r.Stats.Fronts = e.fronts.Stats()
	//simlint:ignore maporder PerConfig is sorted by name immediately below
	for _, ct := range e.perConfig {
		r.PerConfig = append(r.PerConfig, ct)
	}
	sort.Slice(r.PerConfig, func(i, j int) bool { return r.PerConfig[i].Name < r.PerConfig[j].Name })
	return r
}

// String renders the report as a small table.
func (r Report) String() string {
	out := "campaign: " + r.Stats.String() + "\nfronts: " + r.Stats.Fronts.String()
	if len(r.PerConfig) == 0 {
		return out
	}
	out += "\n  configuration                             runs   sim time"
	var total time.Duration
	for _, c := range r.PerConfig {
		out += fmt.Sprintf("\n  %-40s %5d %10.2fs", c.Name, c.Runs, c.Time.Seconds())
		total += c.Time
	}
	out += fmt.Sprintf("\n  %-40s %5d %10.2fs", "total", r.Stats.UniqueRuns, total.Seconds())
	return out
}

// Run keys the job and executes it with RunKeyed.
func (e *Engine) Run(ctx context.Context, job Job) Outcome {
	return e.RunKeyed(ctx, job.Key(), job)
}

// RunKeyed executes one job through the memoization tiers, in their order:
// claim the key in memory (a hit, a coalesce, or a new flight this caller
// owns), resolve a new flight from disk → model → compute, settle it for
// waiters and later callers. The returned Outcome carries the result or
// error plus its Source. key must be job.Key(), computed once by the caller
// (DESIGN.md, Performance invariants, 6).
func (e *Engine) RunKeyed(ctx context.Context, key string, job Job) Outcome {
	f, src := e.claim(key)
	if src == SourceCoalesced {
		select {
		case <-f.done:
		case <-ctx.Done():
			return Outcome{Err: ctx.Err(), Source: src, CacheHit: true}
		}
	}
	if src != "" {
		oc := f.oc
		oc.Source, oc.CacheHit = src, true
		return oc
	}
	f.oc = e.resolve(ctx, key, job)
	e.settle(key, job, f)
	return f.oc
}

// Lookup answers a job from the memory tier alone, as RunKeyed would answer
// it: a landed flight's outcome as SourceMemory, counted once in Jobs and
// CacheHits. For a key that is absent or still in flight it reports false,
// claiming and counting nothing, and the caller goes on to RunKeyed. key is
// the job's Key().
func (e *Engine) Lookup(key string) (Outcome, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	f, ok := e.cache[key]
	if !ok || !e.landed(f) {
		return Outcome{}, false
	}
	oc := f.oc
	oc.Source, oc.CacheHit = SourceMemory, true
	return oc, true
}

// claim says how the memory tier serves the key: SourceMemory from a landed
// flight, SourceCoalesced from one still in the air (the same result, told
// apart only so batch and serving report dedup alike), or "" with a fresh
// flight the caller must resolve.
func (e *Engine) claim(key string) (*flight, Source) {
	e.mu.Lock()
	defer e.mu.Unlock()
	f, ok := e.cache[key]
	if ok && e.landed(f) {
		return f, SourceMemory
	}
	e.stats.Jobs++
	if ok {
		e.stats.CoalescedHits++
		return f, SourceCoalesced
	}
	f = &flight{done: make(chan struct{})}
	e.cache[key] = f
	return f, ""
}

// landed is the memory tier's hit rule, claim's and Lookup's: a cached
// flight whose done is closed is a hit, counted in Jobs and CacheHits. It
// counts nothing for a flight still in the air. e.mu is held.
func (e *Engine) landed(f *flight) bool {
	select {
	case <-f.done:
		e.stats.Jobs++
		e.stats.CacheHits++
		return true
	default:
		return false
	}
}

// resolve answers a claimed job from the first tier below memory that can:
// the store, then the model, then the simulator. Ground truth goes through
// admit; the model step returns before anything that calls it.
func (e *Engine) resolve(ctx context.Context, key string, job Job) Outcome {
	e.mu.Lock()
	store, predictor := e.store, e.predictor
	e.mu.Unlock()
	if store != nil {
		res, ok, err := store.Load(key)
		if ok {
			// Already on disk, but the model may not have seen it (e.g.
			// computed by an earlier process).
			admit(nil, predictor, key, job, res)
			return Outcome{Result: res, Source: SourceDisk, CacheHit: true}
		}
		if err != nil { // quarantined by the store; recompute, never fatal
			e.mu.Lock()
			e.stats.StoreCorrupt++
			e.mu.Unlock()
		}
	}
	if predictor != nil {
		// A query the confidence gate rejects falls through to the
		// simulator as if no predictor were attached.
		if res, ok := predictor.Predict(job); ok {
			return Outcome{Result: res, Source: SourceModel, CacheHit: true, Approximate: true}
		}
	}
	if store != nil {
		_ = store.Begin(key) // best-effort journaling
	}
	res, err := e.execute(ctx, job)
	switch {
	case err == nil:
		// Active learning: a gate-rejected query teaches the model the
		// region it was unsure about.
		admit(store, predictor, key, job, res)
	case store != nil && !cancelled(err):
		_ = store.Fail(key)
	}
	return Outcome{Result: res, Err: err, Source: SourceCompute}
}

// admit is the only door into the ground-truth tiers, the store and the
// predictor's training set; resolve hands it what the store or the
// simulator produced, never a prediction. Both writes are best-effort:
// memory still serves the result.
func admit(store ResultStore, predictor Predictor, key string, job Job, res *sim.Result) {
	if store != nil {
		_ = store.Save(key, res)
	}
	if predictor != nil {
		predictor.Observe(job, res)
	}
}

// settle lands a resolved flight: one counter update for how it was
// answered, the two eviction rules, then done closes and waiters read it.
func (e *Engine) settle(key string, job Job, f *flight) {
	oc, gaveUp := f.oc, cancelled(f.oc.Err)
	e.mu.Lock()
	switch {
	case oc.Source == SourceDisk:
		e.stats.DiskHits++
	case oc.Source == SourceModel:
		e.stats.ModelHits++
	case oc.Err == nil:
		e.stats.UniqueRuns++
		name := job.Config.Name
		ct := e.perConfig[name]
		e.perConfig[name] = ConfigTime{Name: name, Runs: ct.Runs + 1, Time: ct.Time + oc.Result.WallClock}
	case gaveUp:
		e.stats.Failures++
	default:
		e.stats.Failures++
		e.stats.UniqueRuns++
	}
	// The memory tier holds ground truth only, so an identical later query
	// re-predicts (the model may have learned since); and a cancelled job
	// re-submitted with a live context must actually run.
	if oc.Approximate || gaveUp {
		delete(e.cache, key)
	}
	e.mu.Unlock()
	close(f.done)
}

// cancelled reports whether err is a context giving up, not a job failing.
func cancelled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// execute runs the job once, with panic isolation. A failure wraps
// ErrJobFailed (and, through it, the underlying cause); context errors pass
// through unwrapped.
func (e *Engine) execute(ctx context.Context, job Job) (*sim.Result, error) {
	e.mu.Lock()
	run := e.run
	workers := e.effectiveWorkers()
	e.mu.Unlock()
	// A direct Run caller (the server's pool) has no batch to size the
	// split by: the engine's pool size stands in for the campaign's width.
	res, err := protect(ctx, run, withCoreShare(job, workers))
	if err != nil && !cancelled(err) {
		return nil, fmt.Errorf("runner: %w: %w", ErrJobFailed, err)
	}
	return res, err
}

// withCoreShare splits the host's parallelism budget between job-level and
// core-level workers: a job that left CoreWorkers at auto gets GOMAXPROCS
// divided by width, the number of jobs that run side by side, so a wide
// campaign does not oversubscribe the host while a lone job is handed the
// whole machine. CoreWorkers is not part of the cache key — it cannot
// change results — so setting it never changes which stored result the job
// maps to.
func withCoreShare(job Job, width int) Job {
	if job.Options.CoreWorkers == 0 {
		job.Options.CoreWorkers = max(1, runtime.GOMAXPROCS(0)/width)
	}
	return job
}

// protect invokes the simulation, converting a panic into an error.
func protect(ctx context.Context, run RunFunc, job Job) (res *sim.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return run(ctx, job.Config, job.Workload, job.Options)
}

// RunBatch executes jobs on the worker pool and returns their outcomes in
// submission order. keys[i] must be jobs[i].Key(), computed by the caller
// once; duplicated jobs (same key) simulate once. RunBatch returns ctx.Err()
// when the batch was cut short by cancellation; per-job errors (including
// cancellation of in-flight jobs) are reported in the outcomes either way.
func (e *Engine) RunBatch(ctx context.Context, keys []string, jobs []Job) ([]Outcome, error) {
	out := make([]Outcome, len(jobs))
	if len(jobs) == 0 {
		return out, ctx.Err()
	}
	// The batch is as wide as its pool, never wider than its job list: that
	// width, not the engine's, is what an auto CoreWorkers is a share of.
	workers := min(e.Workers(), len(jobs))

	var wg sync.WaitGroup
	idx := make(chan int)
	worker := func() {
		defer wg.Done()
		for i := range idx {
			out[i] = e.RunKeyed(ctx, keys[i], withCoreShare(jobs[i], workers))
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
feed:
	for i := range jobs {
		select {
		case idx <- i:
		case <-ctx.Done():
			// Mark unfed jobs as cancelled so the outcome slice is complete.
			for j := i; j < len(jobs); j++ {
				out[j] = Outcome{Err: ctx.Err()}
			}
			break feed
		}
	}
	close(idx)
	wg.Wait()
	return out, ctx.Err()
}
