package scalesim

import (
	"path/filepath"

	"scalesim/internal/surrogate"
)

// SurrogateConfig enables the learned fast path: a surrogate model trained
// on accumulated ground-truth results that slots between the durable store
// and the simulator, so the memoization lookup order becomes memory → disk
// → model → compute. The model answers design-point queries in
// microseconds; a confidence gate decides per query whether the prediction
// is trustworthy enough to serve (SourceModel, JobOutcome.Approximate) or
// whether the job falls through to full simulation, whose result then
// joins the training set (active learning).
//
// The surrogate is strictly opt-in: with a nil SurrogateConfig, behavior
// is bit-identical to not having the tier at all. Even when enabled,
// ground-truth queries are never displaced — results already in memory or
// on disk are served exactly as before, approximate results never enter
// those tiers, and a gate-rejected query returns the bit-identical result
// a surrogate-free run would have produced.
//
// The zero value of every field selects a sensible default, so
// &SurrogateConfig{} is a valid way to turn the tier on.
type SurrogateConfig struct {
	// MinTrain is the number of ground-truth design points the model must
	// have observed before it serves anything (0 = default 32).
	MinTrain int
	// VarGate is the confidence gate on ensemble disagreement: the
	// relative standard deviation of the forest's per-tree predictions
	// must not exceed this for any core of the queried design point
	// (0 = default 0.05, i.e. the trees agree within 5%).
	VarGate float64
	// DistGate is the confidence gate on novelty: the normalised distance
	// from the query to its nearest training point in scaled feature space
	// must not exceed this (0 = default 1.0 — about one standard deviation
	// per feature). Queries far from everything the model has seen fall
	// through to compute regardless of how confidently the trees agree.
	DistGate float64
	// RefitEvery retrains the model after this many new ground-truth
	// observations since the last fit (0 = default 16). Refitting happens
	// on the compute/observe path, never on the serving fast path.
	RefitEvery int
}

// internal converts the public configuration to the surrogate package's,
// rooting the persistent training set inside storeDir when one is set.
func (c *SurrogateConfig) internal(storeDir string) surrogate.Config {
	cfg := surrogate.Config{
		MinTrain:   c.MinTrain,
		VarGate:    c.VarGate,
		DistGate:   c.DistGate,
		RefitEvery: c.RefitEvery,
	}
	if storeDir != "" {
		cfg.Dir = filepath.Join(storeDir, "surrogate")
	}
	return cfg
}
