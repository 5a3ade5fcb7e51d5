// Custom benchmark: push your own workload through the scale-model
// pipeline.
//
// The synthetic suite is convenient, but the library accepts arbitrary
// workload models: define a Profile (instruction mix, working-set regions,
// branch behaviour), then measure it on a ladder of scale models and
// extrapolate its 32-core performance with the same logarithmic fit the
// paper's regression method uses — all through the public API.
//
// Run with:
//
//	go run ./examples/custom_benchmark
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

	// A hypothetical in-memory analytics kernel: mostly hot hash tables,
	// plus a scan phase streaming a 96 MB column and a pointer-heavy index
	// walk over 24 MB.
	kernel := scalesim.Profile{
		Name:           "analytics",
		BaseCPI:        0.55,
		LoadsPerKI:     310,
		StoresPerKI:    110,
		BranchesPerKI:  120,
		MLP:            4,
		StaticBranches: 512,
		HardBranchFrac: 0.15,
		CodeBytes:      512 << 10,
		Regions: []scalesim.Region{
			{SizeBytes: 16 << 10, Frac: 0.80, Pattern: scalesim.PatternZipf, ZipfS: 1.1},
			{SizeBytes: 256 << 10, Frac: 0.13, Pattern: scalesim.PatternZipf, ZipfS: 1.0},
			{SizeBytes: 96 << 20, Frac: 0.05, Pattern: scalesim.PatternSeq, ElemSize: 8},
			{SizeBytes: 24 << 20, Frac: 0.02, Pattern: scalesim.PatternChase},
		},
	}

	opts := scalesim.FastOptions()

	// Measure per-core IPC on the ladder of proportional scale models.
	fmt.Println("measuring the custom kernel on the scale-model ladder:")
	var lnCores, ipcs []float64
	for _, cores := range []int{1, 2, 4, 8, 16} {
		wl := make([]string, cores)
		for i := range wl {
			wl[i] = kernel.Name
		}
		res, err := scalesim.SimulateContext(ctx, scalesim.MachineSpec{Cores: cores}, wl, opts, kernel)
		if err != nil {
			log.Fatal(err)
		}
		ipc := res.AverageIPC()
		fmt.Printf("  %2d-core scale model: per-core IPC %.3f (LLC MPKI %.1f, DRAM util %.2f)\n",
			cores, ipc, res.Cores[0].LLCMPKI, res.DRAMUtilization)
		if cores >= 2 {
			lnCores = append(lnCores, math.Log(float64(cores)))
			ipcs = append(ipcs, ipc)
		}
	}

	// Logarithmic least squares over the multi-core points (the paper's
	// best-performing regression family), extrapolated to 32 cores.
	a, b := leastSquares(lnCores, ipcs)
	pred := float64(a*math.Log(32)) + b
	fmt.Printf("\nlog fit: IPC(n) = %.4f*ln(n) + %.4f\n", a, b)
	fmt.Printf("extrapolated per-core IPC at 32 cores: %.3f\n", pred)

	// Ground truth.
	wl := make([]string, 32)
	for i := range wl {
		wl[i] = kernel.Name
	}
	tgt, err := scalesim.SimulateContext(ctx, scalesim.MachineSpec{Cores: 32, Policy: scalesim.PolicyTarget}, wl, opts, kernel)
	if err != nil {
		log.Fatal(err)
	}
	actual := tgt.AverageIPC()
	fmt.Printf("simulated 32-core target: %.3f  ->  extrapolation error %.1f%%\n",
		actual, 100*math.Abs(pred-actual)/actual)
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
