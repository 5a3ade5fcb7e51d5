// Quickstart: the 60-second tour of scale-model simulation.
//
// It (1) prints the scale-model construction table, (2) simulates one
// benchmark on a single-core scale model, and (3) predicts the benchmark's
// per-core performance on the 32-core target from that single-core run —
// then checks the prediction against an actual target simulation.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math"

	"scalesim"
)

func main() {
	log.SetFlags(0)

	// 1. How the scale models are built (the paper's Table I): shrinking
	// core count together with every shared resource.
	fmt.Print(scalesim.TableI())

	// 2. Simulate one memory-intensive benchmark on the single-core PRS
	// scale model: 1 MB of LLC and 4 GB/s of memory bandwidth — the
	// per-core share of the 32-core target.
	opts := scalesim.FastOptions()
	const bench = "mcf"
	res, err := scalesim.Simulate(scalesim.MachineSpec{Cores: 1, Policy: scalesim.PolicyPRS},
		[]string{bench}, opts)
	if err != nil {
		log.Fatal(err)
	}
	c := res.Cores[0]
	fmt.Printf("\n%s on the 1-core scale model: IPC %.3f, LLC MPKI %.1f, %.2f B/cycle DRAM traffic\n",
		bench, c.IPC, c.LLCMPKI, c.BWBytesPerCycle)

	// 3. Predict the 32-core target's per-core IPC with SVM-log regression
	// — the paper's practical configuration: training needs only scale
	// models (2-16 cores), never the target system.
	ex, err := scalesim.NewExperiments(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntraining the extrapolation model (simulating scale models)...")
	pred, err := ex.PredictTargetIPC(bench)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("predicted per-core IPC of %s on the 32-core target: %.3f\n", bench, pred)

	// Validate against the ground truth (in real use the target may be too
	// big to simulate — that is the point of the methodology).
	actual, err := ex.ActualTargetIPC(bench)
	if err != nil {
		log.Fatal(err)
	}
	errPct := 100 * math.Abs(pred-actual) / actual
	fmt.Printf("simulated target IPC: %.3f  ->  prediction error %.1f%%\n", actual, errPct)
}
