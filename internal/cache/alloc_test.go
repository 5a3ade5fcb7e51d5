package cache

import (
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/xrand"
)

// The hot cache paths are 0 allocs/op (PR 9's invariant). These tests are
// what holds it — cheap enough to run under -short, so `make check` catches
// a regression even where benchmarks don't run. The paths in composition
// (miss, fill, eviction, overlay, barrier replay) are held by internal/sim's
// TestEpochSteadyStateAllocFree.

func TestLevelAccessHitAllocFree(t *testing.T) {
	l, err := NewLevel(config.CacheLevelConfig{Size: 32 * config.KB, Assoc: 8, LineSize: 64}, 1)
	if err != nil {
		t.Fatalf("NewLevel: %v", err)
	}
	l.Fill(0, false)
	if n := testing.AllocsPerRun(1000, func() {
		l.Access(0, false)
	}); n != 0 {
		t.Errorf("Level.Access hit: %.1f allocs/op, want 0", n)
	}
}

func TestNUCAAccessAllocFree(t *testing.T) {
	n, err := NewNUCA(config.LLCConfig{Slices: 32, SlicePerCore: config.MB, Assoc: 64, LineSize: 64}, 8, 32)
	if err != nil {
		t.Fatalf("NewNUCA: %v", err)
	}
	rng := xrand.New(1)
	addrs := make([]uint64, 1024)
	for i := range addrs {
		addrs[i] = rng.Uint64() &^ 63
	}
	i := 0
	if got := testing.AllocsPerRun(1000, func() {
		a := addrs[i%1024]
		if _, hit := n.Access(i%32, a, false); !hit {
			n.Fill(i%32, a, false)
		}
		i++
	}); got != 0 {
		t.Errorf("NUCA.Access+Fill: %.1f allocs/op, want 0", got)
	}
}
