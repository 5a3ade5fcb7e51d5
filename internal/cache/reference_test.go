package cache

import (
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

// TestLevelMatchesReferenceModel drives both implementations with a long
// random access sequence and demands bit-identical behaviour: on a 4-way
// geometry, and on a 12-way one whose sets start at way indices that are not
// multiples of the dirty bitset's 64-bit word (some sets straddle two words).
func TestLevelMatchesReferenceModel(t *testing.T) {
	for _, geom := range []struct {
		size  config.Bytes
		assoc int
	}{
		{8 * config.KB, 4},   // 32 sets x 4 ways
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
		}
	}
}

// TestLevelMatchesReferenceHighAssoc repeats the equivalence check at the
// LLC's 64-way associativity, where the lazy-timestamp LRU is most at risk
// of divergence (wrap-around handling).
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
	}
}
