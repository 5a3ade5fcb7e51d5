package sim

import (
	"context"
	"reflect"
	"testing"

	"scalesim/internal/cache"
	"scalesim/internal/config"
	"scalesim/internal/dram"
	"scalesim/internal/noc"
	"scalesim/internal/pad"
	"scalesim/internal/trace"
	"scalesim/internal/xrand"
)

// targetMix is a shuffled 32-program mix on the 32-core target: the whole
// suite once plus three repeats, in an order drawn from seed — the shape of
// scalebench's sim-target32 operations.
func targetMix(seed uint64) Workload {
	rng := xrand.New(seed)
	suite := trace.Suite()
	profiles := append([]*trace.Profile(nil), suite...)
	for len(profiles) < config.Target().Cores {
		profiles = append(profiles, suite[rng.Intn(len(suite))])
	}
	rng.Shuffle(len(profiles), func(i, j int) { profiles[i], profiles[j] = profiles[j], profiles[i] })
	return Workload{Profiles: profiles}
}

// hostRange is the address range [lo, hi) of one allocation's payload.
type hostRange struct{ lo, hi uintptr }

// ownedMemory collects the address range of every object reachable from v:
// structs behind pointers and interfaces, and the backing arrays of slices up
// to their capacity. It stops at the machine-wide structures in shared (which
// workers only read during an epoch) and needs no cooperation from the
// packages it walks — unexported fields included — so state added to a core
// later is covered without touching this test.
func ownedMemory(t *testing.T, v reflect.Value, shared map[reflect.Type]bool, seen map[uintptr]bool, out *[]hostRange) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || shared[v.Type()] || seen[v.Pointer()] {
			return
		}
		seen[v.Pointer()] = true
		*out = append(*out, hostRange{v.Pointer(), v.Pointer() + v.Type().Elem().Size()})
		ownedMemory(t, v.Elem(), shared, seen, out)
	case reflect.Interface:
		if !v.IsNil() {
			ownedMemory(t, v.Elem(), shared, seen, out)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			ownedMemory(t, v.Field(i), shared, seen, out)
		}
	case reflect.Slice:
		if v.Cap() == 0 || seen[v.Pointer()] {
			return
		}
		seen[v.Pointer()] = true
		*out = append(*out, hostRange{v.Pointer(), v.Pointer() + uintptr(v.Cap())*v.Type().Elem().Size()})
		fallthrough
	case reflect.Array:
		switch v.Type().Elem().Kind() {
		case reflect.Pointer, reflect.Interface, reflect.Struct, reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				ownedMemory(t, v.Index(i), shared, seen, out)
			}
		}
	case reflect.Map, reflect.Chan, reflect.Func, reflect.UnsafePointer:
		t.Fatalf("per-core state holds a %s: the walker cannot tell whose memory is behind it", v.Type())
	}
}

// TestCoresShareNoCacheLine holds the host-layout invariant (DESIGN.md,
// "Performance invariants"): on the 32-core target, no two cores — and no
// two epoch workers' claim words — own bytes in the same 128-byte-aligned
// block, so concurrently running cores never write to (or read beside a
// write on) one host cache line or adjacent-line pair. It looks at the
// addresses the allocator actually handed out, after enough epochs for the
// overlay arenas and op logs to have grown.
func TestCoresShareNoCacheLine(t *testing.T) {
	for _, ablated := range []bool{false, true} {
		opts := fastOpts()
		opts.CoreWorkers = 2
		// The ablated machine swaps the overlays for private LLC partitions
		// and adds the per-core prefetchers.
		opts.PartitionedLLC, opts.EnablePrefetch = ablated, ablated
		m, err := mixMachine(nil, config.Target(), targetMix(7), opts)
		if err != nil {
			t.Fatal(err)
		}
		limits := noLimits(make([]uint64, len(m.cores)))
		for i := 0; i < 10; i++ {
			if err := m.runEpoch(context.Background(), opts.EpochCycles, limits); err != nil {
				t.Fatal(err)
			}
			m.endEpoch(opts.EpochCycles)
		}

		shared := map[reflect.Type]bool{
			reflect.TypeOf(m):                true,
			reflect.TypeOf(&cache.NUCA{}):    true,
			reflect.TypeOf(&noc.Mesh{}):      true,
			reflect.TypeOf(&dram.Memory{}):   true,
			reflect.TypeOf(&trace.Profile{}): true,
		}
		owner := map[uintptr]int{} // 128-byte block number -> owning core (or cores+worker)
		total := 0
		claim := func(who int, roots ...any) {
			var ranges []hostRange
			seen := map[uintptr]bool{}
			for _, r := range roots {
				ownedMemory(t, reflect.ValueOf(r), shared, seen, &ranges)
			}
			for _, r := range ranges {
				total += int(r.hi - r.lo)
				for b := r.lo / pad.Line; b <= (r.hi-1)/pad.Line; b++ {
					if prev, taken := owner[b]; taken && prev != who {
						t.Fatalf("ablated=%v: owners %d and %d share the %d-byte block at %#x", ablated, prev, who, pad.Line, b*pad.Line)
					}
					owner[b] = who
				}
			}
		}
		for i := range m.cores {
			// A core reaches its stream, and the stream its front.
			claim(i, m.cores[i], m.ctxs[i])
			if ablated {
				claim(i, m.part[i])
				if m.cores[i].(*core).str.front.pf == nil {
					t.Fatal("the ablated machine's fronts have no prefetcher")
				}
			}
		}
		for w := range m.blocks {
			claim(len(m.cores)+w, &m.blocks[w])
		}
		if perCore := total / len(m.cores); perCore < 32<<10 {
			t.Fatalf("ablated=%v: walked only %d bytes per core; the walker lost track of a core's state", ablated, perCore)
		}
	}
}

// TestSuiteTableIsNeverMutated pins the contract that lets trace.ByName hand
// out shared profiles: after a full simulation of every suite program the
// lookup table still deep-equals a freshly built suite.
func TestSuiteTableIsNeverMutated(t *testing.T) {
	var wl Workload
	for _, name := range trace.Names() {
		wl.Profiles = append(wl.Profiles, trace.ByName(name))
	}
	for len(wl.Profiles) < config.Target().Cores {
		wl.Profiles = append(wl.Profiles, trace.ByName("mcf"))
	}
	opts := fastOpts()
	opts.Instructions, opts.Warmup = 20_000, 5_000
	if _, err := Run(config.Target(), wl, opts); err != nil {
		t.Fatal(err)
	}
	fresh := trace.Suite()
	if len(trace.Names()) != len(fresh) {
		t.Fatalf("table has %d profiles, a fresh suite %d", len(trace.Names()), len(fresh))
	}
	for i, name := range trace.Names() {
		if !reflect.DeepEqual(trace.ByName(name), fresh[i]) {
			t.Errorf("shared profile %s was mutated:\n table %+v\n fresh %+v", name, trace.ByName(name), fresh[i])
		}
	}
}
