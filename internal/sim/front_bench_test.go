package sim

import (
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/trace"
)

// BenchmarkFrontProduce is the private half alone: a front per suite
// profile, on the target's private levels at capacity scale 16, producing
// chunks in turn. ns/instr is what one produced instruction costs — the
// generator's draws, the predictor step and the L1/L2 accesses — averaged
// over the suite's instruction mixes.
func BenchmarkFrontProduce(b *testing.B) {
	cfg := config.Target()
	var fronts []*front
	for _, p := range trace.Suite() {
		gen, err := trace.NewGenerator(p, trace.GenOptions{CapacityScale: 16, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		f, err := newFront(gen, cfg.L1I, cfg.L1D, cfg.L2, 16, false)
		if err != nil {
			b.Fatal(err)
		}
		fronts = append(fronts, f)
	}
	ev := make([]uint64, 0, 2*chunkInstrs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range fronts {
			ev = f.produce(ev[:0])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(fronts)*chunkInstrs), "ns/instr")
}
