package scalemodel

import (
	"context"

	"scalesim/internal/config"
	"scalesim/internal/runner"
	"scalesim/internal/sim"
	"scalesim/internal/units"
)

// Lab runs the experiment protocols' simulations. Many of the paper's
// figures share the same underlying runs (e.g. every homogeneous study needs
// the 29 single-core scale-model runs), so every collection is one ordered
// batch on the campaign engine (internal/runner) whose content-addressed
// cache is keyed by the full (configuration, workload, options, seed) tuple;
// experiments then cost only their unique simulations, and a collection fans
// out across the engine's worker pool.
type Lab struct {
	// Target is the system being predicted (default: config.Target()).
	Target *config.SystemConfig
	// Opts are the simulation options shared by every run.
	Opts sim.Options
	// Policy is the scale-model construction policy (default PRSFull).
	Policy config.ScalingPolicy
	// Bandwidth is the DRAM scaling order (default MCFirst).
	Bandwidth config.BandwidthScaling

	// engine is shared by every Lab variant (WithPolicy, WithBandwidth,
	// ...), so e.g. the Fig. 3 policy sweep reuses one set of target runs.
	engine *runner.Engine
}

// NewLab returns a Lab predicting the Table II target with the given
// simulation options on eng. The Lab owns no engine state: workers, store
// and counters belong to whoever assembled eng.
func NewLab(eng *runner.Engine, opts sim.Options) *Lab {
	return &Lab{
		Target:    config.Target(),
		Opts:      opts,
		Policy:    config.PRSFull,
		Bandwidth: config.MCFirst,
		engine:    eng,
	}
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

// Machine returns the machine a cores-wide workload runs on: the target
// itself at the target's core count, the Lab's scale model below it.
func (l *Lab) Machine(cores int) (*config.SystemConfig, error) {
	if cores == l.Target.Cores {
		return l.Target, nil
	}
	return config.ScaleModel(l.Target, cores, config.ScaleModelOptions{
		Policy:    l.Policy,
		Bandwidth: l.Bandwidth,
	})
}

// machines derives Machine for each size, keyed by core count.
func (l *Lab) machines(sizes []int) (map[int]*config.SystemConfig, error) {
	cfgs := make(map[int]*config.SystemConfig, len(sizes))
	for _, c := range sizes {
		cfg, err := l.Machine(c)
		if err != nil {
			return nil, err
		}
		cfgs[c] = cfg
	}
	return cfgs, nil
}

// RunBatch runs a collection's jobs as one engine batch and returns their
// results by index. The jobs are keyed on the engine's workers, and one
// worker runs them in submission order; more workers change only wall-clock.
// The first failed outcome in submission order is the returned error,
// whichever worker hit it first.
func (l *Lab) RunBatch(jobs []runner.Job) ([]*sim.Result, error) {
	keys := make([]string, len(jobs))
	fanOut(l.engine, len(jobs), func(i int) error {
		keys[i] = jobs[i].Key()
		return nil
	})
	//simlint:ignore ctxflow the figure API is context-free; the process is the cancellation scope
	outcomes, err := l.engine.RunBatch(context.Background(), keys, jobs)
	results := make([]*sim.Result, len(outcomes))
	for i, oc := range outcomes {
		if oc.Err != nil {
			return nil, oc.Err
		}
		results[i] = oc.Result
	}
	return results, err
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
	IPC  float64
	BW   float64 // fair-share bandwidth utilization
	MPKI float64 // LLC misses per kilo-instruction (Fig. 3's sort key)
}

// singleCoreMeasurement reads an application's measurement off its run alone
// on the single-core scale model cfg.
func singleCoreMeasurement(cfg *config.SystemConfig, res *sim.Result) Measurement {
	cr := res.Cores[0]
	return Measurement{
		IPC:  cr.IPC,
		BW:   fairShareBW(cfg, cr),
		MPKI: cr.LLCMPKI,
	}
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
