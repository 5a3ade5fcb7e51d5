package cpu

import (
	"testing"

	"scalesim/internal/branch"
	"scalesim/internal/config"
	"scalesim/internal/trace"
)

// TestCoreStepAllocFree holds the per-cycle stepper's 0 allocs/op
// invariant against a fake memory system; internal/sim's
// TestEpochSteadyStateAllocFree holds it against the real one. Runs under
// -short, so `make check` gates it.
func TestCoreStepAllocFree(t *testing.T) {
	gen, err := trace.NewGenerator(trace.ByName("gcc"), trace.GenOptions{Seed: 1, CapacityScale: 8})
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	c, err := New(0, config.Target().Core, gen, branch.NewTournament(), &fakeMem{level: LevelL1, latency: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		c.step()
	}); n != 0 {
		t.Errorf("Core.step: %.1f allocs/op, want 0", n)
	}
}
