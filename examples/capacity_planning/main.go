// Capacity planning: the procurement use case from the paper's conclusion
// (§VII) — "scale-model simulation could be used to provide performance
// predictions for next-generation processors to steer purchasing
// decisions".
//
// A team runs a known application portfolio and is offered a 32-core part.
// Nobody can benchmark the part (it may not exist yet), but its datasheet
// pins down the shared-resource budget per core. This program:
//
//  1. characterises each portfolio application on a cheap single-core
//     scale model of the candidate part,
//  2. predicts each application's per-core performance on the full part
//     with SVM-log regression (no target simulations needed),
//  3. aggregates the predictions into system throughput (STP) and compares
//     against a ground-truth simulation of the part to show how close the
//     procurement estimate would have been.
//
// Run with:
//
//	go run ./examples/capacity_planning
package main

import (
	"fmt"
	"log"
	"math"

	"scalesim"
)

// portfolio is the customer's application mix: a latency-sensitive
// database-ish workload, two scientific kernels, a code-heavy service and a
// compute-bound encoder.
var portfolio = []string{"mcf", "bwaves", "roms", "xalancbmk", "x264"}

func main() {
	log.SetFlags(0)
	opts := scalesim.FastOptions()

	ex, err := scalesim.NewExperiments(opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("candidate part: 32 cores, 32 MB LLC, 128 GB/s DRAM (Table II)")
	fmt.Println("characterising the portfolio on a 1-core scale model and extrapolating...")
	fmt.Println()
	fmt.Printf("%-12s %14s %14s %9s\n", "application", "predicted IPC", "actual IPC", "error")

	var predSum, actualSum float64
	for _, app := range portfolio {
		pred, err := ex.PredictTargetIPC(app)
		if err != nil {
			log.Fatal(err)
		}
		actual, err := ex.ActualTargetIPC(app)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %14.3f %14.3f %8.1f%%\n", app, pred, actual, 100*math.Abs(pred-actual)/actual)
		predSum += pred
		actualSum += actual
	}

	// A procurement decision hinges on aggregate throughput, and aggregate
	// predictions are even more reliable than per-application ones: over-
	// and under-estimates offset (the paper's Fig. 6 observation).
	fmt.Printf("\nportfolio throughput estimate (sum of per-core IPC):\n")
	fmt.Printf("  predicted %.3f vs simulated %.3f  ->  error %.1f%%\n",
		predSum, actualSum, 100*math.Abs(predSum-actualSum)/actualSum)
	fmt.Println("\n(the prediction never simulated the 32-core part; only 1-16-core scale models)")
}
