package cache

import (
	"testing"

	"scalesim/internal/xrand"
)

func TestPrefetcherLearnsUnitStride(t *testing.T) {
	p := NewStridePrefetcher(64)
	var issued [PrefetchDegree]uint64
	n := 0
	for i := uint64(0); i < 20; i++ {
		issued, n = p.OnMiss(i * 64)
	}
	if n == 0 {
		t.Fatal("no prefetches after 20 unit-stride misses")
	}
	// Next-line prefetches: addresses ahead of the stream.
	want := uint64(20 * 64)
	if issued[0] != want {
		t.Fatalf("first prefetch %#x, want %#x", issued[0], want)
	}
	if p.Issued == 0 || p.Trained == 0 {
		t.Fatalf("issued %d, trained %d: counters not tracked", p.Issued, p.Trained)
	}
}

func TestPrefetcherLearnsLargeStride(t *testing.T) {
	p := NewStridePrefetcher(64)
	var issued [PrefetchDegree]uint64
	n := 0
	for i := uint64(0); i < 20; i++ {
		issued, n = p.OnMiss(i * 4 * 64) // stride of 4 lines
	}
	if n == 0 {
		t.Fatal("no prefetches on strided stream")
	}
	if issued[0] != 20*4*64 {
		t.Fatalf("prefetch %#x, want %#x", issued[0], uint64(20*4*64))
	}
}

func TestPrefetcherIgnoresRandom(t *testing.T) {
	p := NewStridePrefetcher(64)
	rng := xrand.New(5)
	issued := 0
	for i := 0; i < 5000; i++ {
		// Uniform misses over 1 GB: no stable stride.
		_, n := p.OnMiss(rng.Uint64() % (1 << 30) &^ 63)
		issued += n
	}
	// Spurious matches can happen but must stay rare.
	if frac := float64(issued) / 5000; frac > 0.05 {
		t.Fatalf("%.3f prefetches per random miss, want ~0", frac)
	}
}

func TestPrefetcherTracksMultipleStreams(t *testing.T) {
	p := NewStridePrefetcher(64)
	okA, okB := false, false
	for i := uint64(0); i < 30; i++ {
		if _, n := p.OnMiss(i * 64); n > 0 {
			okA = true
		}
		if _, n := p.OnMiss(1<<30 + i*2*64); n > 0 {
			okB = true
		}
	}
	if !okA || !okB {
		t.Fatalf("interleaved streams not both detected: A=%v B=%v", okA, okB)
	}
}

func TestPrefetcherStrideChangeRetrains(t *testing.T) {
	p := NewStridePrefetcher(64)
	for i := uint64(0); i < 10; i++ {
		p.OnMiss(i * 64)
	}
	// Change stride: confidence must drop before new prefetches appear.
	base := uint64(9 * 64)
	if _, n := p.OnMiss(base + 3*64); n != 0 {
		t.Fatal("prefetch issued immediately after stride change")
	}
	if _, n := p.OnMiss(base + 6*64); n == 0 {
		t.Fatal("prefetcher did not re-train on the new stride")
	}
}
