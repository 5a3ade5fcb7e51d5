package cache

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/xrand"
)

// levelState is a deep copy of everything a Level holds.
type levelState struct {
	ways  []uint64
	stats Stats
}

type nucaState struct {
	slices  []levelState
	perCore []Stats
}

func snapshotNUCA(n *NUCA) nucaState {
	st := nucaState{perCore: slices.Clone(n.perCore)}
	for _, l := range n.slices {
		st.slices = append(st.slices, levelState{
			ways:  slices.Clone(l.ways),
			stats: l.Stats,
		})
	}
	return st
}

const overlayTestCores = 2

// prefilledNUCA builds an LLC of the given geometry and warms it with a fixed
// script, leaving some sets full, some with invalid ways, and about a third
// of the lines dirty. Two calls return deep twins.
func prefilledNUCA(t *testing.T, assoc, sets, nslices int) *NUCA {
	t.Helper()
	n, err := NewNUCA(config.LLCConfig{
		Slices: nslices, SlicePerCore: config.Bytes(sets * assoc * 64), Assoc: assoc, LineSize: 64,
	}, 1, overlayTestCores)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(99)
	lines := uint64(nslices * sets * assoc)
	for i := uint64(0); i < lines; i++ {
		addr, core, write := rng.Uint64n(3*lines)<<6, rng.Intn(overlayTestCores), rng.Bool(0.3)
		if _, hit := n.Access(core, addr, write); !hit {
			n.Fill(core, addr, write)
		}
	}
	return n
}

// TestOverlayMatchesNUCA holds the overlay to its definition: within an
// epoch it answers exactly as the shared LLC would if this core's operations
// were applied to it directly, without writing to it; a new epoch starts from
// the shared LLC again.
func TestOverlayMatchesNUCA(t *testing.T) {
	for _, assoc := range []int{1, 4, 12, 64} {
		for _, sets := range []int{1, 16} {
			for _, nslices := range []int{1, 4} {
				t.Run(fmt.Sprintf("assoc%d_sets%d_slices%d", assoc, sets, nslices), func(t *testing.T) {
					a := prefilledNUCA(t, assoc, sets, nslices)
					before := snapshotNUCA(a)
					ov := NewOverlay(a)
					for epoch := 0; epoch < 3; epoch++ {
						if epoch == 1 {
							// The next BeginEpoch wraps the version counter to
							// the value the first epoch's clones are stamped
							// with: unless ver is cleared they read as current.
							ov.epoch = ^uint32(0)
						}
						ov.BeginEpoch()
						if epoch == 1 && (ov.epoch != 1 || slices.ContainsFunc(ov.ver, func(v uint32) bool { return v != 0 })) {
							t.Fatalf("version wrap: epoch %d, ver %v, want epoch 1 and ver all zero", ov.epoch, ov.ver)
						}
						b := prefilledNUCA(t, assoc, sets, nslices)
						if !reflect.DeepEqual(snapshotNUCA(b), before) {
							t.Fatal("prefilledNUCA did not build a twin")
						}
						overlayScript(t, ov, b, uint64(epoch), uint64(nslices*sets*assoc))
						if !reflect.DeepEqual(snapshotNUCA(a), before) {
							t.Fatalf("epoch %d: the overlay wrote to the shared NUCA", epoch)
						}
					}
				})
			}
		}
	}
}

// overlayScript applies one seeded sequence of demand accesses (fill on
// miss), probes and bare fills (a prefetch or write-back arriving) to the
// overlay and to twin, and requires every answer to agree.
func overlayScript(t *testing.T, ov *Overlay, twin *NUCA, seed, lines uint64) {
	t.Helper()
	rng := xrand.New(seed)
	for i := 0; i < 4000; i++ {
		addr, core, flag := rng.Uint64n(3*lines)<<6, rng.Intn(overlayTestCores), rng.Bool(0.3)
		switch rng.Intn(4) {
		case 0, 1:
			gs, gh := ov.Access(addr, flag)
			ws, wh := twin.Access(core, addr, flag)
			if gs != ws || gh != wh {
				t.Fatalf("op %d: Access(%#x, %v) = slice %d hit %v, applied directly: slice %d hit %v", i, addr, flag, gs, gh, ws, wh)
			}
			if gh {
				continue
			}
			fallthrough
		case 2:
			ga, gd, ge := ov.Fill(addr, flag)
			wa, wd, we := twin.Fill(core, addr, flag)
			if ga != wa || gd != wd || ge != we {
				t.Fatalf("op %d: Fill(%#x, %v) = victim %#x dirty %v evicted %v, applied directly: %#x %v %v", i, addr, flag, ga, gd, ge, wa, wd, we)
			}
		case 3:
			if got, want := ov.Probe(addr), twin.Probe(addr); got != want {
				t.Fatalf("op %d: Probe(%#x) = %v, applied directly: %v", i, addr, got, want)
			}
		}
	}
}

// BenchmarkOverlayFirstTouch is one cloneFor of a 64-way set per iteration:
// the copy-on-write cost an epoch pays for every LLC set it touches.
func BenchmarkOverlayFirstTouch(b *testing.B) {
	n, _ := NewNUCA(config.LLCConfig{Slices: 32, SlicePerCore: config.MB, Assoc: 64, LineSize: 64}, 8, 32)
	o := NewOverlay(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.BeginEpoch()
		addr := uint64(i) << 6
		o.cloneFor(n.SliceOf(addr), addr>>n.lineShift)
	}
}
