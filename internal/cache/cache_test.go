package cache

import (
	"fmt"
	"testing"
	"testing/quick"

	"scalesim/internal/config"
	"scalesim/internal/xrand"
)

func mustLevel(t *testing.T, size config.Bytes, assoc int, scale int) *Level {
	t.Helper()
	l, err := NewLevel(config.CacheLevelConfig{Size: size, Assoc: assoc, LineSize: 64, AccessTime: 4}, scale)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestGeometry(t *testing.T) {
	l := mustLevel(t, 32*config.KB, 8, 1)
	if l.Sets() != 64 || l.Assoc() != 8 || l.LineSize() != 64 {
		t.Fatalf("geometry sets=%d assoc=%d line=%d, want 64/8/64", l.Sets(), l.Assoc(), l.LineSize())
	}
	if got := l.Sets() * l.Assoc() * l.LineSize(); got != 32*1024 {
		t.Fatalf("capacity %v, want 32768", got)
	}
	scaled := mustLevel(t, 32*config.KB, 8, 8)
	if scaled.Sets() != 8 {
		t.Fatalf("scaled sets %d, want 8", scaled.Sets())
	}
}

func TestNewLevelErrors(t *testing.T) {
	if _, err := NewLevel(config.CacheLevelConfig{Size: 0, Assoc: 8, LineSize: 64}, 1); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := NewLevel(config.CacheLevelConfig{Size: 3 * config.KB, Assoc: 8, LineSize: 64}, 1); err == nil {
		t.Error("non-power-of-two set count accepted")
	}
	// 48 KB of 8 x 96-byte lines is 64 sets: only the line size is wrong.
	if _, err := NewLevel(config.CacheLevelConfig{Size: 48 * config.KB, Assoc: 8, LineSize: 96}, 1); err == nil {
		t.Error("96-byte line accepted (would be simulated as 128-byte lines)")
	}
	if _, err := NewLevel(config.CacheLevelConfig{Size: 8, Assoc: 1, LineSize: 1}, 1); err == nil {
		t.Error("one-byte line accepted (line<<1 needs a free top bit)")
	}
}

func TestHitAfterFill(t *testing.T) {
	l := mustLevel(t, 32*config.KB, 8, 1)
	addr := uint64(0xdeadbe00)
	if l.Access(addr, false) {
		t.Fatal("hit on cold cache")
	}
	l.Fill(addr, false)
	if !l.Access(addr, false) {
		t.Fatal("miss after fill")
	}
	// Same line, different byte: still a hit.
	if !l.Access(addr+63, false) {
		t.Fatal("miss within the same line")
	}
	// Next line: miss.
	if l.Access(addr+64, false) {
		t.Fatal("hit on neighbouring line")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// Direct construction of a tiny cache: 2 sets x 2 ways, line 64.
	l := mustLevel(t, 256, 2, 1)
	if l.Sets() != 2 {
		t.Fatalf("sets = %d, want 2", l.Sets())
	}
	// Three lines mapping to set 0: line addresses 0, 2, 4 (even lines).
	a, b, c := uint64(0), uint64(2*64), uint64(4*64)
	l.Fill(a, false)
	l.Fill(b, false)
	l.Access(a, false) // a is now MRU, b is LRU
	victim, _, evicted := l.Fill(c, false)
	if !evicted {
		t.Fatal("no eviction from full set")
	}
	if victim != b {
		t.Fatalf("evicted %#x, want LRU %#x", victim, b)
	}
	if !l.Access(a, false) || !l.Access(c, false) {
		t.Fatal("resident lines missing after eviction")
	}
	if l.Access(b, false) {
		t.Fatal("evicted line still hits")
	}
}

func TestDirtyWritebackPath(t *testing.T) {
	l := mustLevel(t, 256, 2, 1)
	a, b, c := uint64(0), uint64(2*64), uint64(4*64)
	l.Fill(a, false)
	l.Access(a, true) // dirty a
	l.Fill(b, false)
	l.Access(b, false)
	// a is LRU and dirty.
	victim, dirty, evicted := l.Fill(c, false)
	if !evicted || victim != a || !dirty {
		t.Fatalf("evicted=(%v,%#x,dirty=%v), want dirty eviction of %#x", evicted, victim, dirty, a)
	}
	if l.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", l.Stats.Writebacks)
	}
}

func TestFillDirtyFlag(t *testing.T) {
	l := mustLevel(t, 256, 2, 1)
	l.Fill(0, true) // filled dirty (write-allocate on store miss)
	l.Fill(2*64, false)
	victim, dirty, evicted := l.Fill(4*64, false)
	if !evicted || victim != 0 || !dirty {
		t.Fatalf("write-allocated line not evicted dirty: (%v, %#x, %v)", evicted, victim, dirty)
	}
}

func TestWorkingSetFitsNoCapacityMisses(t *testing.T) {
	l := mustLevel(t, 32*config.KB, 8, 1)
	// 256 lines = half the cache. Touch all, then re-touch: all hits.
	for i := uint64(0); i < 256; i++ {
		if !l.Access(i*64, false) {
			l.Fill(i*64, false)
		}
	}
	before := l.Stats.Misses
	for pass := 0; pass < 3; pass++ {
		for i := uint64(0); i < 256; i++ {
			if !l.Access(i*64, false) {
				l.Fill(i*64, false)
			}
		}
	}
	if l.Stats.Misses != before {
		t.Fatalf("capacity misses on a fitting working set: %d new misses", l.Stats.Misses-before)
	}
}

func TestWorkingSetExceedsLRUThrashes(t *testing.T) {
	l := mustLevel(t, 32*config.KB, 8, 1)
	// Cyclic sweep over 2x capacity with true LRU: every access misses.
	lines := uint64(2 * 512)
	for pass := 0; pass < 3; pass++ {
		for i := uint64(0); i < lines; i++ {
			if !l.Access(i*64, false) {
				l.Fill(i*64, false)
			}
		}
	}
	// After warmup pass, passes 2-3 should be ~100% misses.
	rate := float64(l.Stats.Misses) / float64(l.Stats.Accesses)
	if rate < 0.99 {
		t.Fatalf("cyclic over-capacity sweep miss rate %.3f, want ~1.0", rate)
	}
}

func TestProbeDoesNotDisturbState(t *testing.T) {
	l := mustLevel(t, 256, 2, 1)
	a, b, c := uint64(0), uint64(2*64), uint64(4*64)
	l.Fill(a, false)
	l.Fill(b, false)
	accesses := l.Stats.Accesses
	// Probing a must NOT refresh its LRU position.
	if !l.Probe(a) {
		t.Fatal("probe missed resident line")
	}
	if l.Probe(c) {
		t.Fatal("probe hit absent line")
	}
	if l.Stats.Accesses != accesses {
		t.Fatal("probe changed statistics")
	}
	victim, _, _ := l.Fill(c, false)
	if victim != a {
		t.Fatalf("probe refreshed LRU: victim %#x, want %#x", victim, a)
	}
}

func TestLRUPropertyMostRecentSurvives(t *testing.T) {
	// Property: after any access sequence, immediately re-accessing the last
	// touched line always hits (the MRU line is never the victim).
	l := mustLevel(t, 4*config.KB, 4, 1)
	rng := xrand.New(77)
	check := func(seqSeed uint16) bool {
		for i := 0; i < 200; i++ {
			addr := (rng.Uint64() % 4096) * 64
			if !l.Access(addr, rng.Bool(0.3)) {
				l.Fill(addr, false)
			}
			if !l.Access(addr, false) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAccounting(t *testing.T) {
	l := mustLevel(t, 256, 2, 1)
	l.Access(0, false) // miss
	l.Fill(0, false)
	l.Access(0, false) // hit
	l.Access(0, true)  // write hit
	if l.Stats.Accesses != 3 || l.Stats.Misses != 1 || l.Stats.Writes != 1 {
		t.Fatalf("stats %+v, want 3 accesses / 1 miss / 1 write", l.Stats)
	}
}

func newNUCA(t *testing.T, slices int, slicePerCore config.Bytes, scale int) *NUCA {
	t.Helper()
	n, err := NewNUCA(config.LLCConfig{
		Slices: slices, SlicePerCore: slicePerCore, Assoc: 64, LineSize: 64, AccessTime: 30,
	}, scale, slices)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNUCASliceDistribution(t *testing.T) {
	n := newNUCA(t, 8, config.MB, 8)
	counts := make([]int, 8)
	for i := uint64(0); i < 64000; i++ {
		counts[n.SliceOf(i*64)]++
	}
	for s, c := range counts {
		if c < 6000 || c > 10000 {
			t.Errorf("slice %d received %d/64000 sequential lines; hash not balanced", s, c)
		}
	}
}

func TestNUCASliceStable(t *testing.T) {
	n := newNUCA(t, 4, config.MB, 8)
	for i := uint64(0); i < 1000; i++ {
		addr := i * 977 * 64
		if n.SliceOf(addr) != n.SliceOf(addr) || n.SliceOf(addr) != n.SliceOf(addr+63) {
			t.Fatal("slice mapping unstable or not line-granular")
		}
	}
}

func TestNUCAPerCoreAttribution(t *testing.T) {
	n := newNUCA(t, 2, config.MB, 8)
	// Core 0 performs 100 accesses, core 1 none.
	for i := uint64(0); i < 100; i++ {
		addr := i * 64
		if _, hit := n.Access(0, addr, false); !hit {
			n.Fill(0, addr, false)
		}
	}
	if got := n.CoreStats(0).Accesses; got != 100 {
		t.Fatalf("core 0 accesses %d, want 100", got)
	}
	if got := n.CoreStats(1).Accesses; got != 0 {
		t.Fatalf("core 1 accesses %d, want 0", got)
	}
	var accesses, misses uint64
	for _, s := range n.slices {
		accesses += s.Stats.Accesses
		misses += s.Stats.Misses
	}
	if accesses != 100 || misses != 100 {
		t.Fatalf("slices saw %d accesses, %d misses; want 100 cold misses", accesses, misses)
	}
}

func TestNUCACapacityContention(t *testing.T) {
	// Two cores share a small LLC. Alone, core 0's working set fits; with
	// core 1 streaming through it, core 0 starts missing. This is the
	// emergent contention the whole methodology relies on.
	missRate := func(withAggressor bool) float64 {
		n := newNUCA(t, 2, 64*config.KB, 1) // 128 KB total
		rng := xrand.New(5)
		// Victim working set: 96 KB = 1536 lines, fits in 128 KB.
		victimLines := uint64(1536)
		var victimStats func() Stats
		victimStats = func() Stats { return n.CoreStats(0) }
		warm := func() {
			for i := uint64(0); i < victimLines; i++ {
				addr := i * 64
				if _, hit := n.Access(0, addr, false); !hit {
					n.Fill(0, addr, false)
				}
			}
		}
		warm()
		base := victimStats()
		for round := 0; round < 4; round++ {
			if withAggressor {
				for i := 0; i < 4096; i++ {
					addr := uint64(1<<30) + rng.Uint64()%(1<<24)
					addr &^= 63
					if _, hit := n.Access(1, addr, false); !hit {
						n.Fill(1, addr, false)
					}
				}
			}
			warm()
		}
		st := victimStats()
		return float64(st.Misses-base.Misses) / float64(st.Accesses-base.Accesses)
	}
	alone := missRate(false)
	shared := missRate(true)
	if alone > 0.02 {
		t.Fatalf("victim misses %.3f alone; working set should fit", alone)
	}
	if shared < 5*alone+0.05 {
		t.Fatalf("victim miss rate alone %.3f vs shared %.3f; no emergent contention", alone, shared)
	}
}

func TestNUCAFillEvictsWithinSlice(t *testing.T) {
	n := newNUCA(t, 2, 64*config.KB, 8) // tiny slices: 8 KB each
	// Stream enough lines to force evictions.
	for i := uint64(0); i < 4096; i++ {
		addr := i * 64
		if _, hit := n.Access(0, addr, false); !hit {
			n.Fill(0, addr, true)
		}
	}
	if n.CoreStats(0).Evictions == 0 {
		t.Fatal("no evictions after streaming 4x capacity")
	}
	if n.CoreStats(0).Writebacks == 0 {
		t.Fatal("no writebacks despite dirty fills")
	}
}

func TestNewNUCAErrors(t *testing.T) {
	if _, err := NewNUCA(config.LLCConfig{Slices: 0}, 1, 1); err == nil {
		t.Error("zero slices accepted")
	}
	if _, err := NewNUCA(config.LLCConfig{Slices: 1, SlicePerCore: 0, Assoc: 16, LineSize: 64}, 1, 1); err == nil {
		t.Error("zero slice size accepted")
	}
}

// BenchmarkLevelAccessHit prices a hit at a fixed depth of an 8-way set:
// depth+1 lines of one set visited round-robin, so each access finds its
// line last among them and moves it to the front past the others.
func BenchmarkLevelAccessHit(b *testing.B) {
	for _, depth := range []int{0, 3, 7} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			l, _ := NewLevel(config.CacheLevelConfig{Size: 32 * config.KB, Assoc: 8, LineSize: 64}, 1)
			stride := uint64(l.Sets() * l.LineSize())
			for i := 0; i <= depth; i++ {
				l.Fill(uint64(i)*stride, false)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Access(uint64(i&depth)*stride, false) // depth+1 is a power of two
			}
			if l.Stats.Misses != 0 {
				b.Fatalf("%d misses, want every access to hit", l.Stats.Misses)
			}
		})
	}
}

// BenchmarkLevelAccessStream prices the private levels on traffic shaped like
// a program's: a seeded Zipf stream of lines, 30 % of them writes, replayed
// on the target's L1-D and L2 at CapacityScale 16 with a fill on every miss.
// Its hits land at every depth, as a program's do; LevelAccessHit's depth
// never changes, so a branch on the depth is always predicted there.
func BenchmarkLevelAccessStream(b *testing.B) {
	target := config.Target()
	for _, lv := range []struct {
		name string
		cfg  config.CacheLevelConfig
	}{{"L1D", target.L1D}, {"L2", target.L2}} {
		b.Run(lv.name, func(b *testing.B) {
			l, err := NewLevel(lv.cfg, 16)
			if err != nil {
				b.Fatal(err)
			}
			rng := xrand.New(5)
			// Twice the level's lines at skew 1.2: on the L1-D a third of the
			// accesses hit at depth 0, a sixth at depth 1, every deeper depth
			// takes its share and one in seven misses, close to a program's.
			lines := xrand.NewZipf(rng.Split(), 2*l.Sets()*l.Assoc(), 1.2)
			type op struct {
				addr  uint64
				write bool
			}
			stream := make([]op, 1<<16)
			for i := range stream {
				stream[i] = op{uint64(lines.Next()) << 6, rng.Bool(0.3)}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o := stream[i&(len(stream)-1)]
				if !l.Access(o.addr, o.write) {
					l.Fill(o.addr, o.write)
				}
			}
			b.ReportMetric(float64(l.Stats.Misses)/float64(l.Stats.Accesses), "misses/op")
		})
	}
}

// BenchmarkNUCAAccess prices the 64-way LLC: a hit on the most recently used
// line, a hit on the last of a full set (62 words move), and a miss with the
// fill that follows it (63 words move, one falls off).
func BenchmarkNUCAAccess(b *testing.B) {
	newLLC := func() *NUCA {
		n, _ := NewNUCA(config.LLCConfig{Slices: 32, SlicePerCore: config.MB, Assoc: 64, LineSize: 64}, 8, 32)
		return n
	}
	b.Run("hit-mru", func(b *testing.B) {
		n := newLLC()
		n.Fill(0, 0, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.Access(i%32, 0, false)
		}
	})
	b.Run("hit-deep", func(b *testing.B) {
		n := newLLC()
		// 64 lines of one set of one slice, visited round-robin.
		var addrs [64]uint64
		for found, line := 0, uint64(0); found < len(addrs); line++ {
			if addr := line << 6; n.SliceOf(addr) == 0 && line&n.slices[0].setMask == 0 {
				addrs[found] = addr
				n.Fill(0, addr, false)
				found++
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.Access(i%32, addrs[i%64], false)
		}
		if misses := n.slices[0].Stats.Misses; misses != 0 {
			b.Fatalf("%d misses, want every access to hit", misses)
		}
	})
	b.Run("miss-fill", func(b *testing.B) {
		n := newLLC()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := uint64(i) << 6 // a line never seen before
			if _, hit := n.Access(i%32, a, false); !hit {
				n.Fill(i%32, a, false)
			}
		}
	})
}
