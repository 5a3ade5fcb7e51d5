package surrogate

import (
	"math"

	"scalesim/internal/runner"
	"scalesim/internal/sim"
	"scalesim/internal/trace"
)

// Feature extraction: one fixed-length row per core of a design point.
//
// The model predicts per-core metrics, so a job with N cores contributes N
// training rows (and is queried as N rows at serve time). Each row is the
// concatenation of machine-wide features (shared by every core of the
// job), option features, workload-aggregate pressure features (the
// co-runners a core contends with), and the core's own profile features.
// The layout is fixed; featureDim pins it, and persisted dataset rows with
// a different dimensionality are skipped at load so a layout change can
// never silently mis-scale (see ml.ErrDimension for the serve-time guard).

// featureDim is the current row width. Bump alongside any change to
// featureRow; persisted rows of other widths are ignored at load.
const featureDim = 31

// targets are the per-core metrics the surrogate predicts, one forest
// each, in this order.
const (
	targetIPC = iota
	targetLLCMPKI
	targetBWBytesPerCycle
	numTargets
)

// jobFeatures returns one feature row per program of the job: a non-nil
// config and resolved options (the budget and capacity scale that run) are
// assumed, and Predict's gate refuses a job whose rows are not one per core.
// A threaded job has no per-program rows.
func jobFeatures(job runner.Job) [][]float64 {
	cfg, opts := job.Config, job.Options
	scale := float64(opts.CapacityScale)

	// Machine-wide features, effective (post-miniaturisation) capacities.
	freq := cfg.Core.FrequencyGHz
	shared := []float64{
		float64(cfg.Cores),
		freq,
		float64(cfg.Core.IssueWidth),
		float64(cfg.Core.ROBSize),
		float64(cfg.Core.MaxL1DMisses),
		float64(cfg.Core.MispredictCost),
		float64(cfg.L1D.Size) / scale,
		float64(cfg.L2.Size) / scale,
		float64(cfg.LLC.Size()) / scale,
		float64(cfg.LLC.Assoc),
		float64(cfg.LLC.AccessTime),
		float64(cfg.DRAM.TotalGBps()),
		float64(cfg.DRAM.BaseLatency),
		float64(cfg.NoC.BisectionGBps()),
		float64(cfg.NoC.HopLatency),
		// Option features: the ablation flags and budget change the result,
		// so they must be model inputs exactly as they are key inputs.
		scale,
		math.Log2(float64(opts.Instructions) + 1),
		boolFeature(opts.NoFeedback),
		boolFeature(opts.PartitionedLLC),
		boolFeature(opts.EnablePrefetch),
	}

	// Workload-aggregate pressure: what this core's co-runners demand.
	var totalFoot, totalMem, sumMLP float64
	for _, p := range job.Workload.Profiles {
		if p == nil {
			continue
		}
		totalFoot += profileFootprint(p) / scale
		totalMem += float64(p.LoadsPerKI + p.StoresPerKI)
		sumMLP += p.MLP
	}
	n := float64(len(job.Workload.Profiles))
	if n < 1 {
		n = 1
	}
	aggregate := []float64{totalFoot, totalMem, sumMLP / n}

	rows := make([][]float64, 0, len(job.Workload.Profiles))
	for _, p := range job.Workload.Profiles {
		row := make([]float64, 0, featureDim)
		row = append(row, shared...)
		row = append(row, aggregate...)
		row = append(row, profileFeatures(p, scale)...)
		rows = append(rows, row)
	}
	return rows
}

// profileFeatures encodes one core's workload profile.
func profileFeatures(p *trace.Profile, scale float64) []float64 {
	if p == nil {
		nan := math.NaN() // a nil profile: rejected by the gate
		return []float64{nan, nan, nan, nan, nan, nan, nan, nan}
	}
	// seqFrac summarises spatial locality: the fraction of data accesses
	// that stream sequentially rather than pointer-chase or hot-set skew.
	var seqFrac float64
	for _, r := range p.Regions {
		if r.Pattern == trace.Seq {
			seqFrac += r.Frac
		}
	}
	return []float64{
		p.BaseCPI,
		float64(p.LoadsPerKI),
		float64(p.StoresPerKI),
		float64(p.BranchesPerKI),
		p.MLP,
		p.HardFrac,
		profileFootprint(p) / scale,
		seqFrac,
	}
}

// profileFootprint sums the profile's data regions plus code footprint, in
// bytes (nominal, pre-scaling).
func profileFootprint(p *trace.Profile) float64 {
	total := float64(p.IFootprint)
	for _, r := range p.Regions {
		total += float64(r.Size)
	}
	return total
}

// resultTargets extracts the per-core target vector [numTargets] for every
// core of a ground-truth result.
func resultTargets(res *sim.Result) [][]float64 {
	out := make([][]float64, len(res.Cores))
	for i, c := range res.Cores {
		t := make([]float64, numTargets)
		t[targetIPC] = c.IPC
		t[targetLLCMPKI] = c.LLCMPKI
		t[targetBWBytesPerCycle] = float64(c.BWBytesPerCycle)
		out[i] = t
	}
	return out
}

func boolFeature(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
