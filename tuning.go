package scalesim

import (
	"errors"
	"fmt"
)

// ErrBadTuning reports a Tuning with out-of-range fields. It is wrapped
// with context by the functions that return it; test with errors.Is.
var ErrBadTuning = errors.New("invalid tuning")

// Tuning is the consolidated performance-tuning surface: every knob that
// trades wall-clock time or memory for nothing else. Tuning never changes
// simulation results — parallel and serial runs are byte-identical (see
// DESIGN.md, "Performance invariants") — and is therefore never part of the
// campaign cache key: two runs differing only in Tuning memoize to the same
// stored result.
//
// The zero value (and a nil *Tuning) means "auto" everywhere. Tuning is
// accepted by SimOptions and ServiceConfig, and is settable from the CLIs
// via -core-workers / -campaign-workers.
type Tuning struct {
	// CoreWorkers bounds the worker pool that executes per-core epoch work
	// in parallel inside one simulation. 0 = auto: a standalone simulation
	// uses min(cores, GOMAXPROCS); a campaign splits the host budget
	// between job-level and core-level parallelism (GOMAXPROCS divided by
	// the jobs running side by side: the effective campaign workers, or
	// the campaign's job count when that is smaller). 1 forces serial
	// epoch execution.
	CoreWorkers int `json:"core_workers,omitempty"`
	// CampaignWorkers bounds concurrent jobs in a campaign or service.
	// 0 = auto (GOMAXPROCS).
	CampaignWorkers int `json:"campaign_workers,omitempty"`
}

// Validate reports whether every field is in range. A nil receiver is
// valid (it means "auto"). The error wraps ErrBadTuning.
func (t *Tuning) Validate() error {
	if t == nil {
		return nil
	}
	if t.CoreWorkers < 0 {
		return fmt.Errorf("scalesim: %w: CoreWorkers %d < 0", ErrBadTuning, t.CoreWorkers)
	}
	if t.CampaignWorkers < 0 {
		return fmt.Errorf("scalesim: %w: CampaignWorkers %d < 0", ErrBadTuning, t.CampaignWorkers)
	}
	return nil
}

// coreWorkers returns the per-simulation worker bound, 0 for auto.
func (t *Tuning) coreWorkers() int {
	if t == nil {
		return 0
	}
	return t.CoreWorkers
}

// campaignWorkers returns the job-level worker bound, 0 for auto.
func (t *Tuning) campaignWorkers() int {
	if t == nil {
		return 0
	}
	return t.CampaignWorkers
}
