package sim

import (
	"context"
	"fmt"
	"testing"

	"scalesim/internal/trace"
)

// TestEpochSteadyStateAllocFree holds the epoch loop's 0 allocs/op
// invariant where the substrate tests (cache and cpu alloc_test.go) cannot
// see it: the whole memory-system resolve path — L1/L2 miss, LLC overlay
// and op log, eviction, writeback, NoC and DRAM accounting, the barrier
// replay and merge — under a mix with memory-bound programs, for both LLC
// organisations. Past warm-up (arenas and op logs at their high-water
// capacity) a serial epoch allocates nothing; a parallel epoch allocates
// only its fork/join goroutines, a per-epoch constant independent of the
// simulated work. Runs under -short, so `make check` gates it.
func TestEpochSteadyStateAllocFree(t *testing.T) {
	const (
		warmEpochs = 40
		// forkJoin bounds a parallel epoch: one goroutine (and its closure)
		// per forked helper plus the WaitGroup. 3 measured at CoreWorkers 2;
		// anything proportional to simulated work is thousands.
		forkJoin = 8
	)
	wl := Workload{Profiles: []*trace.Profile{
		trace.ByName("mcf"), trace.ByName("gcc"),
		trace.ByName("lbm"), trace.ByName("povray"),
	}}
	for _, partitioned := range []bool{false, true} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("partitioned=%v/workers=%d", partitioned, workers), func(t *testing.T) {
				opts := fastOpts()
				opts.PartitionedLLC = partitioned
				opts.CoreWorkers = workers
				m, err := newMachine(scaleModel(t, 4), wl, opts)
				if err != nil {
					t.Fatal(err)
				}
				ctx := context.Background()
				limits := noLimits(make([]uint64, len(m.cores)))
				epoch := func() {
					if err := m.runEpoch(ctx, opts.EpochCycles, limits); err != nil {
						t.Fatal(err)
					}
					m.endEpoch(opts.EpochCycles)
				}
				for i := 0; i < warmEpochs; i++ {
					epoch()
				}
				before := m.l2[0].Stats.Misses
				allocs := testing.AllocsPerRun(20, epoch)
				if m.l2[0].Stats.Misses == before {
					t.Fatal("measured epochs took no L2 misses on mcf; the miss path was not exercised")
				}
				t.Logf("%.1f allocs/epoch", allocs)
				limit := 0.0
				if workers > 1 {
					limit = forkJoin
				}
				if allocs > limit {
					t.Errorf("steady-state epoch: %.1f allocs, want <= %.0f", allocs, limit)
				}
			})
		}
	}
}
