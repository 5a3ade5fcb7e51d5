// Heterogeneous consolidation: how much does a latency-sensitive
// application suffer from noisy neighbours on a big multicore — and can a
// scale model tell us without simulating the big machine?
//
// The program co-runs a cache-sensitive application (xalancbmk) against
// three co-runner mixes of increasing aggressiveness on small PRS scale
// models (2 and 4 cores), and shows that the *per-core-share* contention on
// the scale model tracks the slowdown measured on the 32-core target with
// the same per-core pressure.
//
// Run with:
//
//	go run ./examples/hetero_consolidation
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"scalesim"
)

const victim = "xalancbmk"

// mixes are co-runner classes of increasing memory aggressiveness.
var mixes = []struct {
	label    string
	coRunner string
}{
	{"quiet neighbours (compute-bound)", "exchange2"},
	{"moderate neighbours (cache-sensitive)", "gcc"},
	{"aggressive neighbours (streaming)", "lbm"},
}

func main() {
	log.SetFlags(0)
	ctx := context.Background()
	opts := scalesim.FastOptions()

	// Baseline: the victim alone on the 1-core scale model (its fair share
	// of the target's resources, no interference beyond its own).
	alone, err := scalesim.SimulateContext(ctx, scalesim.MachineSpec{Cores: 1}, []string{victim}, opts)
	if err != nil {
		log.Fatal(err)
	}
	baseIPC := alone.Cores[0].IPC
	fmt.Printf("%s alone on its fair share: IPC %.3f\n\n", victim, baseIPC)
	fmt.Printf("%-40s %16s %16s\n", "co-runner mix", "4-core model", "32-core target")

	for _, m := range mixes {
		// Scale model: victim + 3 co-runners on a 4-core PRS model.
		smWl := []string{victim, m.coRunner, m.coRunner, m.coRunner}
		sm, err := scalesim.SimulateContext(ctx, scalesim.MachineSpec{Cores: 4}, smWl, opts)
		if err != nil {
			log.Fatal(err)
		}
		// Target: same 1:3 ratio scaled to 32 cores (8 victims, 24
		// co-runners).
		var tgtWl []string
		for i := 0; i < 8; i++ {
			tgtWl = append(tgtWl, victim)
		}
		for i := 0; i < 24; i++ {
			tgtWl = append(tgtWl, m.coRunner)
		}
		tgt, err := scalesim.SimulateContext(ctx, scalesim.MachineSpec{Cores: 32, Policy: scalesim.PolicyTarget}, tgtWl, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-40s %15.1f%% %15.1f%%\n", m.label,
			100*victimSlowdown(sm, baseIPC), 100*victimSlowdown(tgt, baseIPC))
	}

	fmt.Println("\nslowdown = 1 - IPC(co-run)/IPC(alone), averaged over the victim's instances.")
	fmt.Println("The 4-core scale model ranks and roughly sizes the interference without")
	fmt.Println("ever simulating the 32-core machine.")
}

// victimSlowdown averages the victim's IPC loss relative to running alone.
func victimSlowdown(res *scalesim.SimResult, baseIPC float64) float64 {
	var sum float64
	n := 0
	for _, c := range res.Cores {
		if strings.EqualFold(c.Benchmark, victim) {
			sum += c.IPC
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return 1 - (sum / float64(n) / baseIPC)
}
