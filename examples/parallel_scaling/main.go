// Parallel scaling: the paper's future-work extension (§V-E6) in action —
// applying scale-model simulation to data-parallel multi-threaded
// workloads, with speedup stacks identifying the scaling bottleneck.
//
// For each parallel kernel the program measures aggregate throughput on the
// scale-model ladder (1-16 threads), extrapolates 32-thread throughput with
// a logarithmic fit, validates against a 32-core target simulation, and
// prints each configuration's speedup stack (where thread time goes: useful
// work, memory contention, barrier imbalance, ...).
//
// Run with:
//
//	go run ./examples/parallel_scaling
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"scalesim"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()
	opts := scalesim.FastOptions()

	for _, workload := range scalesim.ParallelBenchmarkNames() {
		fmt.Printf("%s\n", workload)
		var lnCores, tputs []float64
		for _, cores := range []int{1, 2, 4, 8, 16} {
			spec := scalesim.MachineSpec{Cores: cores}
			res, err := scalesim.SimulateParallelContext(ctx, spec, workload, opts)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %2d threads: throughput %5.2f IPC   [%s]\n",
				cores, res.AggregateIPC, res.Stack)
			if cores >= 2 {
				lnCores = append(lnCores, math.Log(float64(cores)))
				// Per-thread throughput is the saturating quantity the
				// paper's logarithmic regression models.
				tputs = append(tputs, res.AggregateIPC/float64(cores))
			}
		}
		a, b := leastSquares(lnCores, tputs)
		pred := float64(32 * (float64(a*math.Log(32)) + b))

		tgt, err := scalesim.SimulateParallelContext(ctx,
			scalesim.MachineSpec{Cores: 32, Policy: scalesim.PolicyTarget}, workload, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  32 threads: predicted %5.2f vs simulated %5.2f (err %.1f%%)   [%s]\n\n",
			pred, tgt.AggregateIPC, 100*math.Abs(pred-tgt.AggregateIPC)/tgt.AggregateIPC, tgt.Stack)
	}
	fmt.Println("Bandwidth-bound kernels flatten early (memory share grows); skewed kernels")
	fmt.Println("accumulate barrier share. Both are visible on scale models long before 32 cores.")
}

// leastSquares fits y = a*x + b.
func leastSquares(xs, ys []float64) (a, b float64) {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += float64(xs[i] * xs[i])
		sxy += float64(xs[i] * ys[i])
	}
	a = (float64(n*sxy) - float64(sx*sy)) / (float64(n*sxx) - float64(sx*sx))
	b = (sy - float64(a*sx)) / n
	return a, b
}
