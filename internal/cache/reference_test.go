package cache

import (
	"fmt"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/xrand"
)

// refCache is an obviously-correct (but slow) reference model of a
// set-associative LRU cache: per-set slices of lines ordered by recency.
// The production Level must agree with it on every access outcome and every
// eviction, for arbitrary access sequences.
type refCache struct {
	sets      int
	assoc     int
	lineShift uint
	lines     [][]refLine // per set, most-recent first
}

type refLine struct {
	tag   uint64
	dirty bool
}

func newRef(size config.Bytes, assoc int) *refCache {
	sets := int(int64(size) / (int64(assoc) * 64))
	return &refCache{
		sets: sets, assoc: assoc, lineShift: 6,
		lines: make([][]refLine, sets),
	}
}

func (r *refCache) setOf(addr uint64) uint64 { return (addr >> r.lineShift) % uint64(r.sets) }

func (r *refCache) access(addr uint64, write bool) bool {
	tag := addr >> r.lineShift
	set := r.setOf(addr)
	for i, l := range r.lines[set] {
		if l.tag == tag {
			// Move to front (MRU).
			l.dirty = l.dirty || write
			r.lines[set] = append([]refLine{l}, append(r.lines[set][:i:i], r.lines[set][i+1:]...)...)
			return true
		}
	}
	return false
}

func (r *refCache) fill(addr uint64, dirty bool) (victim uint64, victimDirty, evicted bool) {
	tag := addr >> r.lineShift
	set := r.setOf(addr)
	if len(r.lines[set]) == r.assoc {
		last := r.lines[set][len(r.lines[set])-1]
		victim, victimDirty, evicted = last.tag<<r.lineShift, last.dirty, true
		r.lines[set] = r.lines[set][:len(r.lines[set])-1]
	}
	r.lines[set] = append([]refLine{{tag: tag, dirty: dirty}}, r.lines[set]...)
	return victim, victimDirty, evicted
}

// setInvariant returns the first violation of the set representation in the
// set addr maps to: no line twice, no valid word behind an empty one.
func setInvariant(l *Level, addr uint64) error {
	set := l.set(addr >> l.lineShift)
	for i, w := range set {
		if w == emptyWay {
			continue
		}
		if i > 0 && set[i-1] == emptyWay {
			return fmt.Errorf("valid word %#x at depth %d behind an empty way: %#x", w, i, set)
		}
		for _, v := range set[:i] {
			if v>>1 == w>>1 {
				return fmt.Errorf("line %#x twice in one set: %#x", w>>1, set)
			}
		}
	}
	return nil
}

// TestLevelMatchesReferenceModel drives both implementations with a long
// random access sequence and demands bit-identical behaviour, on a 4-way
// geometry, an 8-way one (the set kernels) and a 12-way one (a set size that
// is no power of two).
func TestLevelMatchesReferenceModel(t *testing.T) {
	for _, geom := range []struct {
		size  config.Bytes
		assoc int
	}{
		{8 * config.KB, 4},   // 32 sets x 4 ways
		{16 * config.KB, 8},  // 32 sets x 8 ways
		{12 * config.KB, 12}, // 16 sets x 12 ways
	} {
		size, assoc := geom.size, geom.assoc
		lvl, err := NewLevel(config.CacheLevelConfig{Size: size, Assoc: assoc, LineSize: 64}, 1)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRef(size, assoc)

		rng := xrand.New(321)
		for i := 0; i < 300000; i++ {
			// Skewed address distribution: reuse within 4x capacity.
			addr := (rng.Uint64() % (4 * uint64(size))) &^ 63
			write := rng.Bool(0.3)
			gotHit := lvl.Access(addr, write)
			wantHit := ref.access(addr, write)
			if gotHit != wantHit {
				t.Fatalf("assoc %d step %d: addr %#x hit=%v, reference says %v", assoc, i, addr, gotHit, wantHit)
			}
			if !gotHit {
				dirty := write
				gv, gd, ge := lvl.Fill(addr, dirty)
				wv, wd, we := ref.fill(addr, dirty)
				if ge != we || (ge && (gv != wv || gd != wd)) {
					t.Fatalf("assoc %d step %d: fill victim (%#x,%v,%v), reference (%#x,%v,%v)",
						assoc, i, gv, gd, ge, wv, wd, we)
				}
			}
			if err := setInvariant(lvl, addr); err != nil {
				t.Fatalf("assoc %d step %d: %v", assoc, i, err)
			}
		}
	}
}

// TestLevelMatchesReferenceHighAssoc repeats the equivalence check at the
// LLC's 64-way associativity, where a hit or a fill moves the most words.
func TestLevelMatchesReferenceHighAssoc(t *testing.T) {
	const size, assoc = 64 * config.KB, 64 // 16 sets x 64 ways
	lvl, err := NewLevel(config.CacheLevelConfig{Size: size, Assoc: assoc, LineSize: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRef(size, assoc)
	rng := xrand.New(77)
	for i := 0; i < 200000; i++ {
		addr := (rng.Uint64() % (3 * uint64(size))) &^ 63
		gotHit := lvl.Access(addr, false)
		wantHit := ref.access(addr, false)
		if gotHit != wantHit {
			t.Fatalf("step %d: hit=%v, reference %v", i, gotHit, wantHit)
		}
		if !gotHit {
			gv, _, ge := lvl.Fill(addr, false)
			wv, _, we := ref.fill(addr, false)
			if ge != we || (ge && gv != wv) {
				t.Fatalf("step %d: victim %#x/%v vs reference %#x/%v", i, gv, ge, wv, we)
			}
		}
		if err := setInvariant(lvl, addr); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

type lawOp struct {
	addr  uint64
	write bool
}

// inclusionViolation replays trace (fill on miss) on an a-way and a 2a-way
// level of the same set count and returns the first broken law, or "".
func inclusionViolation(sets, a int, trace []lawOp) string {
	geom := func(assoc int) config.CacheLevelConfig {
		return config.CacheLevelConfig{Size: config.Bytes(sets * assoc * 64), Assoc: assoc, LineSize: 64}
	}
	small, err := NewLevel(geom(a), 1)
	if err != nil {
		return err.Error()
	}
	big, err := NewLevel(geom(2*a), 1)
	if err != nil {
		return err.Error()
	}
	for i, op := range trace {
		hitSmall, hitBig := small.Access(op.addr, op.write), big.Access(op.addr, op.write)
		if hitSmall && !hitBig {
			return fmt.Sprintf("op %d: %#x hits with %d ways and misses with %d", i, op.addr, a, 2*a)
		}
		if !hitSmall {
			small.Fill(op.addr, op.write)
		}
		if !hitBig {
			big.Fill(op.addr, op.write)
		}
		for _, l := range []*Level{small, big} {
			if err := setInvariant(l, op.addr); err != nil {
				return fmt.Sprintf("op %d, %d ways: %v", i, l.assoc, err)
			}
		}
		// The LRU stack property: the small set is the front of the big one.
		// Lines only — the small level may have written a line back and
		// refetched it clean while the big one kept it dirty.
		line := op.addr >> 6
		front := big.set(line)[:a]
		for d, w := range small.set(line) {
			if w|1 != front[d]|1 {
				return fmt.Sprintf("op %d: %d-way set %#x is not the front of the %d-way set %#x", i, a, small.set(line), 2*a, big.set(line))
			}
		}
	}
	return ""
}

// TestLRUInclusionOverGeneratedTraces holds LRU's inclusion law on generated
// geometries and traces: at a fixed set count, every access that hits with a
// ways hits with 2a, and after every operation each a-way set is the first a
// words of the 2a-way set. A failing trace is shrunk by halving.
func TestLRUInclusionOverGeneratedTraces(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		rng := xrand.New(seed)
		sets, a := 1<<rng.Intn(7), 1+rng.Intn(32)
		// Reuse within 1-4x the small level's capacity: hits at every depth,
		// misses that evict, and sets that never fill.
		lines := uint64(sets*a) * uint64(1+rng.Intn(4))
		trace := make([]lawOp, 2000)
		for i := range trace {
			trace[i] = lawOp{addr: rng.Uint64n(lines)<<6 | rng.Uint64n(64), write: rng.Bool(0.3)}
		}
		msg := inclusionViolation(sets, a, trace)
		if msg == "" {
			continue
		}
		for len(trace) > 1 {
			half := len(trace) / 2
			if m := inclusionViolation(sets, a, trace[:half]); m != "" {
				trace, msg = trace[:half], m
			} else if m := inclusionViolation(sets, a, trace[half:]); m != "" {
				trace, msg = trace[half:], m
			} else {
				break
			}
		}
		t.Fatalf("seed %d, %d sets, %d vs %d ways, trace shrunk to %d ops: %s", seed, sets, a, 2*a, len(trace), msg)
	}
}
