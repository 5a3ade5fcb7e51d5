//go:build unix

package sim

import (
	"fmt"
	"syscall"
	"testing"
	"time"

	"scalesim/internal/config"
)

// cpuSeconds returns the user+system CPU time this process has consumed.
func cpuSeconds(b *testing.B) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// BenchmarkTarget32 is the 32-core target run on one and on two epoch
// workers. Besides wall time per run it reports simulated MIPS and the
// process CPU-seconds each run burned: two workers doing the work of one
// should cost about the CPU-seconds of one (cpu-s/op equal) in about half
// the wall time. A workers=2 figure well above workers=1 is CPU spent on
// something other than simulation — cores sharing host cache lines, before
// they were padded apart (DESIGN.md, "Performance invariants").
func BenchmarkTarget32(b *testing.B) {
	cfg := config.Target()
	wl := targetMix(7)
	opts := Options{Instructions: 200_000, Warmup: 60_000, EpochCycles: 10_000, CapacityScale: 16, Seed: 1}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts.CoreWorkers = workers
			var instr uint64
			cpu0 := cpuSeconds(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Run(cfg, wl, opts)
				if err != nil {
					b.Fatal(err)
				}
				for _, c := range res.Cores {
					instr += c.Instructions
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(instr)/b.Elapsed().Seconds()/1e6, "MIPS")
			b.ReportMetric((cpuSeconds(b)-cpu0)/float64(b.N), "cpu-s/op")
		})
	}
}
