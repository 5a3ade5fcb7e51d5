// Package metrics implements the paper's evaluation metrics: the absolute
// relative IPC prediction error (§V), system throughput (STP, the
// normalised-IPC sum of Eyerman & Eeckhout's multiprogram metrics, §V-C),
// and small summary helpers used by every experiment report.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// PredictionError returns the paper's error metric:
// |predicted - actual| / actual. It returns NaN when actual is zero.
func PredictionError(predicted, actual float64) float64 {
	if actual == 0 {
		return math.NaN()
	}
	return math.Abs(predicted-actual) / math.Abs(actual)
}

// Summary aggregates a set of absolute prediction errors.
type Summary struct {
	Mean float64
	Max  float64
	N    int
}

// finite reports whether e is a usable sample (neither NaN nor ±Inf).
func finite(e float64) bool {
	return !math.IsNaN(e) && !math.IsInf(e, 0)
}

// Summarize computes mean and max of errs, skipping non-finite values (NaN
// and ±Inf — e.g. from a zero or denormal baseline): a single infinite
// sample would otherwise poison the mean and max of the whole set.
func Summarize(errs []float64) Summary {
	var s Summary
	sum := 0.0
	for _, e := range errs {
		if !finite(e) {
			continue
		}
		sum += e
		if e > s.Max {
			s.Max = e
		}
		s.N++
	}
	if s.N > 0 {
		s.Mean = sum / float64(s.N)
	}
	return s
}

// CampaignStats aggregates a campaign engine's counters: how many jobs were
// requested, how many unique simulations actually ran, and how many were
// deduplicated by the content-addressed cache — in memory or on disk. The
// public scalesim.CampaignStats is an alias of this type.
type CampaignStats struct {
	Jobs          int // jobs submitted
	UniqueRuns    int // simulator invocations (computes)
	CacheHits     int // jobs served from the completed in-memory memo cache
	CoalescedHits int // jobs deduplicated against an identical in-flight job
	DiskHits      int // jobs served from the durable result store
	ModelHits     int // jobs served (approximately) by the surrogate model
	Failures      int // jobs that ended in an error
	StoreCorrupt  int // store artifacts quarantined and recomputed

	// Fronts reports how much of the campaign's per-instruction work was
	// shared between machines (sim.Fronts).
	Fronts FrontStats
}

// FrontStats counts a campaign's shared private-half simulation: a chunk is
// 4096 instructions of one program instance stepped through generator,
// predictor, L1 and L2. Every machine that runs the instance consumes the
// chunk; only the first to need it produces it.
type FrontStats struct {
	ChunksProduced uint64
	ChunksConsumed uint64
	StreamsBuilt   int // program instances whose private half was built
	StreamsEvicted int // streams unlinked by the memo's byte budget
	BytesRetained  int // events and front tables the memo holds now
}

// String renders the counters as a one-line report.
func (s FrontStats) String() string {
	return fmt.Sprintf("%d chunks produced for %d consumed, %d streams, %.0f MB retained, %d evicted",
		s.ChunksProduced, s.ChunksConsumed, s.StreamsBuilt, float64(s.BytesRetained)/1e6, s.StreamsEvicted)
}

// HitRate returns the fraction of jobs served without simulating — from the
// in-memory cache, by coalescing onto an in-flight run, from the durable
// store, or by the surrogate model.
func (s CampaignStats) HitRate() float64 {
	if s.Jobs == 0 {
		return 0
	}
	return float64(s.CacheHits+s.CoalescedHits+s.DiskHits+s.ModelHits) / float64(s.Jobs)
}

// String renders the stats as a one-line report.
func (s CampaignStats) String() string {
	out := fmt.Sprintf("%d jobs: %d simulated, %d cached, %d coalesced, %d from store (%.0f%% hit rate), %d failed",
		s.Jobs, s.UniqueRuns, s.CacheHits, s.CoalescedHits, s.DiskHits, 100*s.HitRate(), s.Failures)
	if s.ModelHits > 0 {
		out += fmt.Sprintf(", %d from model (approximate)", s.ModelHits)
	}
	if s.StoreCorrupt > 0 {
		out += fmt.Sprintf(", %d corrupt artifacts quarantined", s.StoreCorrupt)
	}
	return out
}

// NamedError pairs a benchmark with its prediction error, for per-benchmark
// figures sorted by a key (e.g. LLC MPKI in Fig. 3).
type NamedError struct {
	Name  string
	Key   float64 // sort key (e.g. MPKI)
	Error float64
}

// SortByKey sorts named errors by ascending key (stable on name ties).
func SortByKey(es []NamedError) {
	sort.SliceStable(es, func(i, j int) bool {
		if es[i].Key != es[j].Key {
			return es[i].Key < es[j].Key
		}
		return es[i].Name < es[j].Name
	})
}
