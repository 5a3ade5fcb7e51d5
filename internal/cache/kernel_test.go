package cache

import (
	"fmt"
	"slices"
	"testing"

	"scalesim/internal/config"
)

// The early-exit scans the 8-way kernels replaced, verbatim: every other
// associativity still runs them inside touch, holds and pushFront, and on an
// 8-way set they are the oracle.

func scanTouch(set []uint64, line uint64, write bool) bool {
	for d, w := range set {
		if w>>1 != line {
			continue
		}
		if write {
			w |= 1
		}
		if d > 0 {
			copy(set[1:d+1], set[:d])
		}
		set[0] = w
		return true
	}
	return false
}

func scanHolds(set []uint64, line uint64) bool {
	for _, w := range set {
		if w>>1 == line {
			return true
		}
	}
	return false
}

func scanPushFront(set []uint64, line uint64, dirty bool, lineShift uint) (victimAddr uint64, victimDirty, evicted bool) {
	last := set[len(set)-1]
	copy(set[1:], set)
	set[0] = line << 1
	if dirty {
		set[0] |= 1
	}
	if last == emptyWay {
		return 0, false, false
	}
	return last >> 1 << lineShift, last&1 != 0, true
}

// TestSetKernelsMatchScan holds the 8-way touch, holds and pushFront to the
// scans on every set state a level can reach: 0 to 8 valid words with the
// empty ways trailing, each pattern of dirty bits, a lookup that hits at
// every depth or misses, as a read and as a write, and a fill of the missing
// line clean and dirty. Two line ranges are used: small lines, and lines
// just below the largest one a set word can hold. It compares the returned
// values and all eight words.
func TestSetKernelsMatchScan(t *testing.T) {
	for _, base := range []uint64{1, emptyWay>>1 - 16} {
		for n := 0; n <= 8; n++ {
			for dirty := 0; dirty < 1<<n; dirty++ {
				var set [8]uint64
				for i := range set {
					set[i] = emptyWay
					if i < n {
						set[i] = (base+uint64(i))<<1 | uint64(dirty>>i&1)
					}
				}
				// Depth n is the miss: the line after the ones the set holds.
				for d := 0; d <= n; d++ {
					line := base + uint64(d)
					state := fmt.Sprintf("%d valid, dirty %#b, line at depth %d", n, dirty, d)
					if got, want := holds(set[:], line), scanHolds(set[:], line); got != want {
						t.Fatalf("%s: holds %v, scan %v", state, got, want)
					}
					for _, write := range []bool{false, true} {
						got, want := set, set
						gotHit, wantHit := touch(got[:], line, write), scanTouch(want[:], line, write)
						if gotHit != wantHit || got != want {
							t.Fatalf("%s, write %v: touch %v %#x, scan %v %#x", state, write, gotHit, got, wantHit, want)
						}
					}
					if d < n {
						continue
					}
					for _, fillDirty := range []bool{false, true} {
						got, want := set, set
						ga, gd, ge := pushFront(got[:], line, fillDirty, 6)
						wa, wd, we := scanPushFront(want[:], line, fillDirty, 6)
						if ga != wa || gd != wd || ge != we || got != want {
							t.Fatalf("%s, fill dirty %v: pushFront (%#x,%v,%v) %#x, scan (%#x,%v,%v) %#x",
								state, fillDirty, ga, gd, ge, got, wa, wd, we, want)
						}
					}
				}
			}
		}
	}
}

// FuzzSetKernels drives a level and refCache with the same byte-coded
// operations and requires equal outcomes and a well-formed set after each.
// The first byte picks the geometry: 4 ways (the L1-I's scan), 8 ways (the
// kernels) or 64 ways (the LLC's scan). Each further pair is an operation
// and a line: op&3 is 0 for an access, 1 for a probe, 2 for a fill of a
// line the set lacks and 3 for an access filled on a miss; op&4 makes the
// access or the fill a write. Lines range over about three times the
// level's capacity, so sets fill, evict and hit at every depth.
func FuzzSetKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		geoms := []struct{ sets, assoc int }{{8, 4}, {4, 8}, {2, 64}}
		g := geoms[int(data[0])%len(geoms)]
		size := config.Bytes(g.sets * g.assoc * 64)
		lvl, err := NewLevel(config.CacheLevelConfig{Size: size, Assoc: g.assoc, LineSize: 64}, 1)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRef(size, g.assoc)
		universe := uint64(3 * g.sets * g.assoc)
		for i := 1; i+1 < len(data); i += 2 {
			op, addr := data[i], uint64(data[i+1])%universe<<6
			write := op&4 != 0
			switch op & 3 {
			case 0:
				if got, want := lvl.Access(addr, write), ref.access(addr, write); got != want {
					t.Fatalf("%d ways, op %d: access %#x hit %v, reference %v", g.assoc, i/2, addr, got, want)
				}
			case 1:
				want := slices.ContainsFunc(ref.lines[ref.setOf(addr)], func(l refLine) bool { return l.tag == addr>>6 })
				if got := lvl.Probe(addr); got != want {
					t.Fatalf("%d ways, op %d: probe %#x %v, reference %v", g.assoc, i/2, addr, got, want)
				}
			default:
				if op&3 == 3 && lvl.Access(addr, write) != ref.access(addr, write) {
					t.Fatalf("%d ways, op %d: access %#x disagrees with the reference", g.assoc, i/2, addr)
				}
				if lvl.Probe(addr) {
					break
				}
				gv, gd, ge := lvl.Fill(addr, write)
				wv, wd, we := ref.fill(addr, write)
				if ge != we || (ge && (gv != wv || gd != wd)) {
					t.Fatalf("%d ways, op %d: fill %#x victim (%#x,%v,%v), reference (%#x,%v,%v)", g.assoc, i/2, addr, gv, gd, ge, wv, wd, we)
				}
			}
			if err := setInvariant(lvl, addr); err != nil {
				t.Fatalf("%d ways, op %d: %v", g.assoc, i/2, err)
			}
		}
	})
}
