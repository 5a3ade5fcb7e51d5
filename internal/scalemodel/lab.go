package scalemodel

import (
	"context"

	"scalesim/internal/config"
	"scalesim/internal/runner"
	"scalesim/internal/sim"
	"scalesim/internal/trace"
	"scalesim/internal/units"
)

// Lab runs and memoises simulations for the experiment protocols. Many of
// the paper's figures share the same underlying runs (e.g. every
// homogeneous study needs the 29 single-core scale-model runs), so the Lab
// routes every run through a shared campaign engine (internal/runner) whose
// content-addressed cache is keyed by the full (configuration, workload,
// options, seed) tuple; experiments then cost only their unique
// simulations, and batch collections fan out across the engine's worker
// pool.
type Lab struct {
	// Target is the system being predicted (default: config.Target()).
	Target *config.SystemConfig
	// Opts are the simulation options shared by every run.
	Opts sim.Options
	// Policy is the scale-model construction policy (default PRSFull).
	Policy config.ScalingPolicy
	// Bandwidth is the DRAM scaling order (default MCFirst).
	Bandwidth config.BandwidthScaling

	// ctx bounds every simulation issued by this Lab (nil = Background).
	ctx context.Context

	// engine is shared by every Lab variant (WithPolicy, WithBandwidth,
	// ...), so e.g. the Fig. 3 policy sweep reuses one set of target runs.
	engine *runner.Engine
}

// NewLab returns a Lab predicting the Table II target with the given
// simulation options. The campaign engine starts sequential (one worker);
// use SetWorkers to enable parallel batch collection.
func NewLab(opts sim.Options) *Lab {
	return &Lab{
		Target:    config.Target(),
		Opts:      opts,
		Policy:    config.PRSFull,
		Bandwidth: config.MCFirst,
		engine:    runner.New(1),
	}
}

// SetWorkers resizes the engine's worker pool (<= 0 selects GOMAXPROCS).
// Results are bit-identical for any worker count; only wall-clock changes.
func (l *Lab) SetWorkers(n int) { l.engine.SetWorkers(n) }

// SetStore attaches a durable result store as the engine's second
// memoization tier (nil detaches). Results are bit-identical with or
// without a store; only recomputation cost changes.
func (l *Lab) SetStore(s runner.ResultStore) { l.engine.SetStore(s) }

// SetRetry replaces the engine's transient-failure retry policy.
func (l *Lab) SetRetry(p runner.RetryPolicy) { l.engine.SetRetry(p) }

// WithContext returns a Lab variant whose simulations are bounded by ctx:
// cancellation propagates into the simulator's epoch loop.
func (l *Lab) WithContext(ctx context.Context) *Lab {
	v := *l
	v.ctx = ctx
	return &v
}

// WithPolicy returns a Lab variant using the given scale-model construction
// policy. The variant shares the run cache (and counters) with l.
func (l *Lab) WithPolicy(p config.ScalingPolicy) *Lab {
	v := *l
	v.Policy = p
	return &v
}

// WithBandwidth returns a Lab variant using the given DRAM bandwidth
// scaling order, sharing the run cache with l.
func (l *Lab) WithBandwidth(b config.BandwidthScaling) *Lab {
	v := *l
	v.Bandwidth = b
	return &v
}

// WithSimOptions returns a Lab variant with different simulation options,
// sharing the run cache (cache keys include the options, so variants never
// collide).
func (l *Lab) WithSimOptions(opts sim.Options) *Lab {
	v := *l
	v.Opts = opts
	return &v
}

// Runs reports how many distinct simulations have actually been executed.
func (l *Lab) Runs() int { return l.engine.Stats().UniqueRuns }

// CacheHits reports how many runs were served from the memo cache.
func (l *Lab) CacheHits() int { return l.engine.Stats().CacheHits }

// DiskHits reports how many runs were served from the durable store.
func (l *Lab) DiskHits() int { return l.engine.Stats().DiskHits }

// Report returns the engine's campaign execution report: job counters plus
// the per-configuration simulation-time breakdown.
func (l *Lab) Report() runner.Report { return l.engine.Report() }

// context returns the Lab's bounding context.
func (l *Lab) context() context.Context {
	if l.ctx != nil {
		return l.ctx
	}
	return context.Background()
}

// ScaleModelConfig derives the Lab's scale model with the given core count
// (the target configuration itself when cores equals the target's).
func (l *Lab) ScaleModelConfig(cores int) (*config.SystemConfig, error) {
	return config.ScaleModel(l.Target, cores, config.ScaleModelOptions{
		Policy:    l.Policy,
		Bandwidth: l.Bandwidth,
	})
}

// Run simulates wl on cfg through the shared engine, returning a cached
// result when the same run was already performed.
func (l *Lab) Run(cfg *config.SystemConfig, wl sim.Workload) (*sim.Result, error) {
	oc := l.engine.Run(l.context(), runner.Job{Config: cfg, Workload: wl, Options: l.Opts})
	return oc.Result, oc.Err
}

// Prewarm fans the given jobs out across the engine's worker pool, filling
// the memo cache so subsequent sequential Run calls are hits. Job errors
// are deferred: the sequential replay re-encounters (and reports) them in
// protocol order, keeping error behaviour identical to a sequential run.
// Only context errors abort the prewarm.
func (l *Lab) Prewarm(jobs []runner.Job) error {
	if len(jobs) < 2 || l.engine.Workers() < 2 {
		return nil // nothing to gain
	}
	_, err := l.engine.RunBatch(l.context(), jobs, nil)
	return err
}

// HomogeneousJob builds (without running) the job for `cores` copies of
// prof on the matching scale model.
func (l *Lab) HomogeneousJob(cores int, prof *trace.Profile) (runner.Job, error) {
	cfg := l.Target
	if cores != l.Target.Cores {
		var err error
		cfg, err = l.ScaleModelConfig(cores)
		if err != nil {
			return runner.Job{}, err
		}
	}
	return runner.Job{Config: cfg, Workload: sim.Homogeneous(prof, cores), Options: l.Opts}, nil
}

// HomogeneousRun simulates `cores` copies of prof on the matching scale
// model (or the target when cores equals the target core count).
func (l *Lab) HomogeneousRun(cores int, prof *trace.Profile) (*sim.Result, error) {
	job, err := l.HomogeneousJob(cores, prof)
	if err != nil {
		return nil, err
	}
	return l.Run(job.Config, job.Workload)
}

// MixRun simulates a heterogeneous mix on the machine with exactly
// len(profiles) cores.
func (l *Lab) MixRun(profiles []*trace.Profile) (*sim.Result, error) {
	cores := len(profiles)
	cfg := l.Target
	if cores != l.Target.Cores {
		var err error
		cfg, err = l.ScaleModelConfig(cores)
		if err != nil {
			return nil, err
		}
	}
	return l.Run(cfg, sim.Workload{Profiles: profiles})
}

// fairShareBW converts a core result's DRAM traffic into the dimensionless
// bandwidth utilization used throughout the methodology: bytes per cycle
// relative to the machine's per-core fair share (4 GB/s per core under
// PRS). The same application saturating its share reads ~1.0 on the
// single-core scale model and on the target alike.
func fairShareBW(cfg *config.SystemConfig, cr sim.CoreResult) float64 {
	totalBpc := units.FromGBps(float64(cfg.DRAM.TotalGBps()), cfg.Core.FrequencyGHz)
	perCore := float64(totalBpc) / float64(cfg.Cores)
	if perCore <= 0 {
		return 0
	}
	return float64(cr.BWBytesPerCycle) / perCore
}

// Measurement is one application's single-core scale-model reading.
type Measurement struct {
	Bench string
	IPC   float64
	BW    float64 // fair-share bandwidth utilization
	MPKI  float64 // LLC misses per kilo-instruction (Fig. 3's sort key)
}

// MeasureSingleCore runs prof alone on the single-core scale model and
// returns its measurement (cached like any other run).
func (l *Lab) MeasureSingleCore(prof *trace.Profile) (Measurement, error) {
	cfg, err := l.ScaleModelConfig(1)
	if err != nil {
		return Measurement{}, err
	}
	res, err := l.Run(cfg, sim.Homogeneous(prof, 1))
	if err != nil {
		return Measurement{}, err
	}
	cr := res.Cores[0]
	return Measurement{
		Bench: prof.Name,
		IPC:   cr.IPC,
		BW:    fairShareBW(cfg, cr),
		MPKI:  cr.LLCMPKI,
	}, nil
}

// metricValue extracts the dependent variable from one core result.
func metricValue(m Metric, cfg *config.SystemConfig, cr sim.CoreResult) float64 {
	if m == MetricBW {
		return fairShareBW(cfg, cr)
	}
	return cr.IPC
}

// perBenchAverage averages the metric per benchmark name across a run's
// cores (homogeneous runs have one benchmark; mixes may repeat one).
func perBenchAverage(m Metric, cfg *config.SystemConfig, res *sim.Result) map[string]float64 {
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, cr := range res.Cores {
		sums[cr.Benchmark] += metricValue(m, cfg, cr)
		counts[cr.Benchmark]++
	}
	out := make(map[string]float64, len(sums))
	//simlint:ignore maporder writes into a map under the same keys; order cannot leak
	for name, sum := range sums {
		out[name] = sum / float64(counts[name])
	}
	return out
}
