package dram

import (
	"math"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/units"
	"scalesim/internal/xrand"
)

func newMem(t *testing.T, mcs int, perMC config.GBps) *Memory {
	t.Helper()
	m, err := New(config.DRAMConfig{Controllers: mcs, PerControllerGBps: perMC, BaseLatency: 240}, 4.0, 4)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// epoch closes an epoch the way the simulator's barrier does: core's
// accumulator is merged, then the load estimates are recomputed.
func epoch(m *Memory, core int, a *Acc, cycles units.Cycles) {
	m.Merge(core, a)
	m.EndEpoch(cycles)
}

func TestNewErrors(t *testing.T) {
	if _, err := New(config.DRAMConfig{Controllers: 0, PerControllerGBps: 16}, 4.0, 1); err == nil {
		t.Error("zero controllers accepted")
	}
	if _, err := New(config.DRAMConfig{Controllers: 1, PerControllerGBps: 0}, 4.0, 1); err == nil {
		t.Error("zero bandwidth accepted")
	}
	if _, err := New(config.DRAMConfig{Controllers: 1, PerControllerGBps: 16}, 0, 1); err == nil {
		t.Error("zero frequency accepted")
	}
}

func TestUnloadedLatencyIsBase(t *testing.T) {
	m := newMem(t, 8, 16)
	if l := m.AccessInto(m.NewAcc(), 0, 0x1000, 64, false); l != 240 {
		t.Fatalf("unloaded read latency %v, want 240", l)
	}
}

func TestWritesArePostedButConsumeBandwidth(t *testing.T) {
	m := newMem(t, 1, 4)
	a := m.NewAcc()
	if l := m.AccessInto(a, 0, 0x40, 64, true); l != 0 {
		t.Fatalf("write latency %v, want 0 (posted)", l)
	}
	m.Merge(0, a)
	if m.TotalWrites != 1 || m.TotalBytes != 64 {
		t.Fatalf("stats writes=%d bytes=%v, want 1/64", m.TotalWrites, m.TotalBytes)
	}
	// The write's bytes still drive utilization.
	m.EndEpoch(64) // demand 64B over capacity 1 B/cyc * 64 cyc => inst rho 1.0
	if u := m.Utilization(); u < 0.4 {
		t.Fatalf("utilization %v after saturating writes, want >= 0.4 (smoothed)", u)
	}
}

func TestMCInterleaving(t *testing.T) {
	m := newMem(t, 8, 16)
	counts := make([]int, 8)
	for i := uint64(0); i < 80000; i++ {
		counts[m.MCOf(i*64)]++
	}
	for mc, c := range counts {
		if c < 8000 || c > 12000 {
			t.Errorf("MC %d received %d/80000 sequential lines; interleaving unbalanced", mc, c)
		}
	}
}

func TestMCOfStable(t *testing.T) {
	m := newMem(t, 4, 16)
	for i := uint64(0); i < 1000; i++ {
		a := i * 4096
		if m.MCOf(a) != m.MCOf(a) || m.MCOf(a) != m.MCOf(a+63) {
			t.Fatal("controller mapping unstable or not line-granular")
		}
	}
}

func TestLatencyRisesWithLoad(t *testing.T) {
	m := newMem(t, 1, 4) // 1 B/cycle
	a := m.NewAcc()
	rng := xrand.New(3)
	// Saturate: 10000 lines in a 100k-cycle epoch = 640k bytes vs 100k capacity.
	for e := 0; e < 10; e++ {
		for i := 0; i < 10000; i++ {
			m.AccessInto(a, 0, rng.Uint64()&^63, 64, false)
		}
		epoch(m, 0, a, 100000)
	}
	loaded := m.AccessInto(a, 0, 0x123440, 64, false)
	if loaded <= 240+50 {
		t.Fatalf("loaded latency %v, want well above base 240", loaded)
	}
	if math.IsNaN(float64(loaded)) || math.IsInf(float64(loaded), 0) || loaded > 1e6 {
		t.Fatalf("loaded latency %v unbounded", loaded)
	}
}

func TestFatControllerHasLowerQueueDelay(t *testing.T) {
	// Same total bandwidth and same utilization: 1 MC @ 16 GB/s drains lines
	// 4x faster than 4 MCs @ 4 GB/s, so its queue delay is lower. This
	// asymmetry is what makes MC-first vs MB-first scaling (Fig. 8) differ.
	run := func(mcs int, per config.GBps) units.Cycles {
		m := newMem(t, mcs, per)
		a := m.NewAcc()
		rng := xrand.New(9)
		for e := 0; e < 10; e++ {
			for i := 0; i < 8000; i++ {
				m.AccessInto(a, 0, rng.Uint64()&^63, 64, false)
			}
			epoch(m, 0, a, 100000)
		}
		return m.AccessInto(a, 0, 0x5540, 64, false)
	}
	fat := run(1, 16)
	thin := run(4, 4)
	if fat >= thin {
		t.Fatalf("1x16GB/s latency %v >= 4x4GB/s latency %v; service-time asymmetry missing", fat, thin)
	}
}

func TestPerCoreAttribution(t *testing.T) {
	m := newMem(t, 2, 16)
	a0, a3 := m.NewAcc(), m.NewAcc()
	m.AccessInto(a0, 0, 0x40, 64, false)
	m.AccessInto(a0, 0, 0x80, 64, false)
	m.AccessInto(a3, 3, 0xc0, 64, true)
	m.Merge(0, a0)
	m.Merge(3, a3)
	if m.CoreBytes(0) != 128 {
		t.Fatalf("core 0 bytes %v, want 128", m.CoreBytes(0))
	}
	if m.CoreBytes(3) != 64 {
		t.Fatalf("core 3 bytes %v, want 64", m.CoreBytes(3))
	}
	if m.CoreBytes(1) != 0 {
		t.Fatalf("core 1 bytes %v, want 0", m.CoreBytes(1))
	}
}

func TestUtilizationDecay(t *testing.T) {
	m := newMem(t, 1, 4)
	a := m.NewAcc()
	for i := 0; i < 10000; i++ {
		m.AccessInto(a, 0, uint64(i)*64, 64, false)
	}
	epoch(m, 0, a, 1000)
	u1 := m.Utilization()
	for e := 0; e < 30; e++ {
		m.EndEpoch(1000)
	}
	if u := m.Utilization(); u > u1/100 {
		t.Fatalf("utilization %v did not decay from %v over idle epochs", u, u1)
	}
}

func TestEndEpochZeroCyclesIsNoop(t *testing.T) {
	m := newMem(t, 1, 4)
	a := m.NewAcc()
	m.AccessInto(a, 0, 0, 64, false)
	epoch(m, 0, a, 0)
	if u := m.Utilization(); u != 0 {
		t.Fatalf("EndEpoch(0) changed utilization to %v", u)
	}
}

func TestBytesPerCycleConversion(t *testing.T) {
	m := newMem(t, 8, 16)
	// 16 GB/s at 4 GHz = 4 bytes/cycle.
	if m.bytesPerCyc != 4 {
		t.Fatalf("bytes/cycle = %v, want 4", m.bytesPerCyc)
	}
	if m.Controllers() != 8 {
		t.Fatalf("controllers %d, want 8", m.Controllers())
	}
}
