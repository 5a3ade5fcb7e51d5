package scalesim

import (
	"context"

	"scalesim/internal/metrics"
	"scalesim/internal/runner"
)

// CampaignJob is one design point of a campaign: a machine, a benchmark
// mix (one name per core), the simulation options, and optional custom
// profiles resolved by name before the suite. It is also the wire form of a
// job (api/v1's JobSpec), named by its tags.
type CampaignJob struct {
	Machine    MachineSpec `json:"machine"`
	Benchmarks []string    `json:"benchmarks"`
	Options    SimOptions  `json:"options"`
	Extra      []Profile   `json:"profiles,omitempty"`
}

// ResultSource says where a job's result came from.
type ResultSource = runner.Source

const (
	// SourceCompute: the simulator actually ran for this job.
	SourceCompute = runner.SourceCompute
	// SourceMemory: served by the in-memory memo cache — the identical
	// design point had already completed when this job was submitted.
	SourceMemory = runner.SourceMemory
	// SourceCoalesced: deduplicated against an identical design point that
	// was still in flight — the job waited for that run instead of
	// simulating. Batch campaigns and the serving daemon (`scalesim serve`)
	// report request coalescing through this one value.
	SourceCoalesced = runner.SourceCoalesced
	// SourceDisk: loaded from the campaign's durable store.
	SourceDisk = runner.SourceDisk
	// SourceModel: predicted by the surrogate model instead of simulating —
	// an approximate answer (JobOutcome.Approximate is set). Only possible
	// when a surrogate tier is configured; the memory and disk tiers hold
	// ground truth exclusively.
	SourceModel = runner.SourceModel
)

// JobOutcome is one job's result: either a simulation result or an error,
// plus where the result came from.
type JobOutcome struct {
	// Job is the submission-order index into the campaign's jobs.
	Job int
	// Result is the simulation outcome (nil when Err is set).
	Result *SimResult
	// Err is the job's failure, if any. A panicking simulation surfaces
	// here (wrapped in ErrJobFailed; a job runs once) without affecting
	// other jobs. A job the simulator cannot run fails, unkeyed and unrun,
	// with ErrBadSpec, ErrBadTuning or the matching ErrUnknown* sentinel.
	Err error
	// Source reports whether the simulator ran (SourceCompute) or the
	// result was served from memory or disk. Empty for jobs that never
	// ran (invalid specs, jobs cut off by cancellation before starting).
	Source ResultSource
	// CacheHit reports whether the job was served without simulating
	// (Source is memory, disk, or model).
	CacheHit bool
	// Approximate marks a result predicted by the surrogate model rather
	// than simulated: SourceModel, or SourceCoalesced onto a model-served
	// flight. Ground-truth outcomes always report false.
	Approximate bool
}

// CampaignStats aggregates a campaign's execution counters; HitRate is
// the fraction of jobs served without simulating and String renders a
// one-line report.
type CampaignStats = metrics.CampaignStats

// CampaignResult is a completed campaign: outcomes in submission order plus
// the engine's counters.
type CampaignResult struct {
	Outcomes []JobOutcome
	Stats    CampaignStats
}

// RunCampaignContext executes jobs on the worker pool of an engine configured
// by cfg and returns their outcomes in submission order. Duplicated design
// points (seed included) simulate once; each simulation is deterministic, so
// results are bit-identical to a sequential (CampaignWorkers: 1) run apart
// from the measured wall-clock. Per-job failures — including invalid specs
// and recovered panics — are reported in the outcomes without aborting the
// batch.
//
// Cancelling ctx stops feeding jobs and aborts in-flight simulations at
// their next epoch boundary; RunCampaignContext then returns ctx.Err()
// alongside the partial outcomes (jobs cut short carry the context error).
//
// When cfg.Store is set, the directory is opened (created on first use) as a
// durable memoization tier: previously computed design points load from
// disk instead of simulating, and fresh computes are written back
// atomically. A store that cannot be opened is an error; a corrupt artifact
// inside an open store is not — it is quarantined and its job recomputed
// (counted in Stats.StoreCorrupt).
func RunCampaignContext(ctx context.Context, cfg ServiceConfig, jobs []CampaignJob) (*CampaignResult, error) {
	svc, err := newService("campaign", cfg)
	if err != nil {
		return nil, err
	}
	defer svc.Close()

	res := &CampaignResult{Outcomes: make([]JobOutcome, len(jobs))}
	var keys []string
	var batch []runner.Job
	var at []int // batch[k], keyed keys[k], is jobs[at[k]]
	for i, cj := range jobs {
		p, err := svc.Prepare(cj)
		if err != nil {
			// Invalid job: fails in its outcome without entering the batch.
			res.Outcomes[i] = JobOutcome{Job: i, Err: err}
			continue
		}
		keys, batch = append(keys, p.key), append(batch, p.job)
		at = append(at, i)
	}
	outcomes, ctxErr := svc.eng.RunBatch(ctx, keys, batch)
	for k, oc := range outcomes {
		res.Outcomes[at[k]] = outcomeFromInternal(oc)
		res.Outcomes[at[k]].Job = at[k]
	}
	res.Stats = svc.Stats()
	res.Stats.Jobs = len(jobs)
	res.Stats.Failures += len(jobs) - len(batch) // invalid jobs count as failed
	return res, ctxErr
}
