package sim

import (
	"context"
	"fmt"
	"testing"

	"scalesim/internal/trace"
)

// TestEpochSteadyStateAllocFree holds the epoch loop's 0 allocs/op
// invariant where the substrate tests (cache and cpu alloc_test.go) cannot
// see it: the whole memory-system path — the front's L1/L2 miss, fill,
// eviction and prefetch, the event arena, the core's replay of it, LLC
// overlay and op log, NoC and DRAM accounting, the barrier replay and merge
// — under a mix with memory-bound programs, for both LLC organisations. Past
// warm-up (arenas and op logs at their high-water capacity) a serial epoch
// allocates nothing; a parallel epoch allocates only its fork/join
// goroutines, a per-epoch constant independent of the simulated work; and an
// epoch that reads a memoized stream allocates only the chunks it is first
// to produce. Runs under -short, so `make check` gates it.
func TestEpochSteadyStateAllocFree(t *testing.T) {
	const (
		runs       = 20
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
	type variant struct {
		name                  string
		partitioned, prefetch bool
		workers               int
		fronts                *Fronts
	}
	var variants []variant
	for _, partitioned := range []bool{false, true} {
		for _, workers := range []int{1, 2} {
			variants = append(variants, variant{name: fmt.Sprintf("partitioned=%v/workers=%d", partitioned, workers), partitioned: partitioned, workers: workers})
		}
	}
	variants = append(variants,
		variant{name: "prefetch", prefetch: true, workers: 1},
		variant{name: "memoized", workers: 1, fronts: NewFronts()})
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			opts := fastOpts()
			opts.PartitionedLLC = v.partitioned
			opts.EnablePrefetch = v.prefetch
			opts.CoreWorkers = v.workers
			m, err := mixMachine(v.fronts, scaleModel(t, 4), wl, opts)
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
			_, l2Before := m.cores[0].private()
			producedBefore := v.fronts.Stats().ChunksProduced
			allocs := testing.AllocsPerRun(runs, epoch)
			if _, l2 := m.cores[0].private(); l2.Misses == l2Before.Misses {
				t.Fatal("measured epochs took no L2 misses on mcf; the miss path was not exercised")
			}
			t.Logf("%.1f allocs/epoch", allocs)
			limit := 0.0
			if v.workers > 1 {
				limit = forkJoin
			}
			if v.fronts != nil {
				// A produced chunk is one allocation, plus the amortised
				// growth of the stream's chunk list.
				n := v.fronts.Stats().ChunksProduced - producedBefore
				if n == 0 {
					t.Fatal("measured epochs produced no chunk; the memoized path was not exercised")
				}
				limit = 2 * float64(n+runs-1) / runs
			}
			if allocs > limit {
				t.Errorf("steady-state epoch: %.1f allocs, want <= %.0f", allocs, limit)
			}
		})
	}
}
