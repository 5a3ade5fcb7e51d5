package scalesim

import (
	"context"
	"fmt"

	"scalesim/internal/runner"
	"scalesim/internal/store"
	"scalesim/internal/surrogate"
)

// ServiceConfig configures the campaign engine: a long-lived Service or one
// batch (RunCampaignContext).
type ServiceConfig struct {
	// Tuning consolidates the service's performance knobs: job-level
	// workers (CampaignWorkers sizes the engine's pool for batch use;
	// callers that drive jobs one at a time, like `scalesim serve`, bound
	// concurrency themselves) and the per-simulation CoreWorkers default
	// for jobs that carry no tuning of their own. Nil means auto. Tuning
	// never changes results or cache keys.
	Tuning *Tuning
	// Store, when non-empty, is the durable memoization directory shared
	// with batch campaigns: results a campaign computed serve from disk,
	// and results the service computes are visible to later campaigns.
	// Several service replicas may share one store directory.
	Store string
	// Surrogate, when non-nil, enables the learned fast path for served
	// jobs: the lookup order becomes memory → disk → model → compute, with
	// confident predictions served approximately (SourceModel) and every
	// ground-truth result feeding the training set. Nil — the default —
	// changes nothing. When Store is also set, the training set persists
	// in <Store>/surrogate and is shared with batch campaigns pointed at
	// the same store. See SurrogateConfig.
	Surrogate *SurrogateConfig
}

// Service is a long-lived handle on the campaign engine: one memoization
// hierarchy (memory, optional durable store, optional surrogate model)
// that outlives any single batch. `scalesim serve` runs every request through one Service, so
// identical design points submitted by different clients — or by the same
// client across requests — simulate exactly once. The zero value is not
// usable; construct with NewService and Close when done.
//
// A Service is safe for concurrent use.
type Service struct {
	eng *runner.Engine
	st  *store.Store         // nil without ServiceConfig.Store
	sur *surrogate.Surrogate // nil without ServiceConfig.Surrogate
	tun *Tuning
}

// NewService opens the store (when configured) and assembles the engine.
func NewService(cfg ServiceConfig) (*Service, error) {
	return newService("service", cfg)
}

// newService is the one place an engine is assembled; owner names the
// caller ("service", "campaign", "experiment") in the store-open error.
func newService(owner string, cfg ServiceConfig) (*Service, error) {
	if err := cfg.Tuning.Validate(); err != nil {
		return nil, err
	}
	svc := &Service{eng: runner.New(cfg.Tuning.campaignWorkers()), tun: cfg.Tuning}
	if cfg.Store != "" {
		if err := svc.attachStore(owner, cfg.Store); err != nil {
			return nil, err
		}
	}
	if cfg.Surrogate != nil {
		sur, err := surrogate.New(cfg.Surrogate.internal(cfg.Store))
		if err != nil {
			svc.Close()
			return nil, fmt.Errorf("scalesim: opening surrogate tier: %w", err)
		}
		svc.sur = sur
		svc.eng.SetPredictor(sur)
	}
	return svc, nil
}

// attachStore opens the durable store at dir and makes it the engine's disk
// tier — the one place a store is opened. A store already attached is
// replaced and closed. owner names the caller in the open error.
func (s *Service) attachStore(owner, dir string) error {
	st, err := store.Open(dir)
	if err != nil {
		return fmt.Errorf("scalesim: opening %s store: %w", owner, err)
	}
	old := s.st
	s.st = st
	s.eng.SetStore(st)
	if old != nil {
		return old.Close()
	}
	return nil
}

// PreparedJob is a validated, compiled design point: the machine resolved
// to a concrete configuration, benchmarks resolved against the suite, and
// the content-addressed identity computed. Preparing is cheap and does not
// simulate.
type PreparedJob struct {
	key string
	job runner.Job
}

// Key returns the job's content-addressed identity: equal keys mean the
// same design point, bit-for-bit the same result. Serving layers use it to
// coalesce identical concurrent requests.
func (p *PreparedJob) Key() string { return p.key }

// Prepare validates and compiles one campaign job. A job the simulator
// cannot run fails here, before any keying, queueing or simulation, with
// ErrBadSpec, ErrBadTuning or the matching ErrUnknown* sentinel.
func (s *Service) Prepare(job CampaignJob) (*PreparedJob, error) {
	rj, err := job.job()
	if err != nil {
		return nil, err
	}
	if job.Options.Tuning == nil {
		// The service-level tuning is the default for jobs that carry none
		// of their own (tuning is keyless, so this cannot split the memo).
		rj.Options.CoreWorkers = s.tun.coreWorkers()
	}
	return &PreparedJob{key: rj.Key(), job: rj}, nil
}

// RunJobContext executes one prepared job through the memoization
// hierarchy — memory, durable store, surrogate model (when configured),
// then compute — and reports the outcome. The outcome's Job index is zero; callers tracking batch
// positions set it themselves.
//
// Cancelling ctx aborts an in-flight simulation at its next epoch
// boundary; jobs another caller is already computing are waited on and
// reported as SourceCoalesced.
func (s *Service) RunJobContext(ctx context.Context, p *PreparedJob) JobOutcome {
	return outcomeFromInternal(s.eng.RunKeyed(ctx, p.key, p.job))
}

// Lookup answers a prepared job from the memory tier alone: when an
// identical job has already completed it reports that outcome, as
// RunJobContext would (SourceMemory, counted once in Stats), and true.
// Otherwise — never run, still running, or answered approximately — it
// reports false and counts nothing; RunJobContext then runs the job.
func (s *Service) Lookup(p *PreparedJob) (JobOutcome, bool) {
	oc, ok := s.eng.Lookup(p.key)
	if !ok {
		return JobOutcome{}, false
	}
	return outcomeFromInternal(oc), true
}

// outcomeFromInternal is the one engine-to-public outcome conversion.
func outcomeFromInternal(oc runner.Outcome) JobOutcome {
	out := JobOutcome{Err: oc.Err, Source: oc.Source, CacheHit: oc.CacheHit, Approximate: oc.Approximate}
	if oc.Result != nil {
		out.Result = resultFromInternal(oc.Result)
	}
	return out
}

// Stats snapshots the engine's counters across every job the service has
// run since construction.
func (s *Service) Stats() CampaignStats {
	return s.eng.Stats()
}

// Close releases the surrogate's training-set file and the durable store,
// if any, returning the first error. The Service must not be used
// afterwards.
func (s *Service) Close() error {
	var err error
	if s.sur != nil {
		err = s.sur.Close()
	}
	if s.st != nil {
		if cerr := s.st.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
