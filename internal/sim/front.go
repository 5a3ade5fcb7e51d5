package sim

import (
	"fmt"

	"scalesim/internal/branch"
	"scalesim/internal/cache"
	"scalesim/internal/config"
	"scalesim/internal/pad"
	"scalesim/internal/trace"
)

// This file is the private half of the per-instruction path. Everything
// above the LLC — generator draws, branch predictor, L1-I, L1-D and L2
// contents, the L2 prefetcher — is a pure function of the program instance
// and the private geometry: the simulator is trace-driven, nothing below the
// L2 invalidates a private line, and the prefetcher trains on the private
// miss stream. A front steps those structures with no notion of time and
// records only what leaves the L1 or mispredicts, as one-word events that a
// core (core.go) replays against any machine's shared half. DESIGN.md,
// "Performance invariants", 7.

// chunkInstrs is the number of instructions a front steps per chunk.
const chunkInstrs = 4096

// An event is one word:
//
//	63..52 position in chunk | 51..48 kind | 47 flag | 46..0 byte address
//
// in the order the monolithic core touched shared state: per instruction the
// I-fetch event, then each prefetch candidate, then the branch or data
// event, each followed by the dirty victims its fills displaced.
const (
	evPosShift  = 52
	evKindShift = 48
	evKindMask  = 0xf << evKindShift
	evFlag      = 1 << 47 // jump on an I-fetch, dependent on a load
	evAddrBits  = 47
	evAddrMask  = 1<<evAddrBits - 1
)

const (
	evBranchMiss   = iota << evKindShift // mispredicted branch
	evIFetchL2                           // L1-I miss served by the L2
	evIFetchMiss                         // L1-I miss that also misses the L2
	evLoadL2                             // L1-D load miss served by the L2
	evLoadMiss                           // L1-D load miss that also misses the L2
	evStoreL2                            // the same two for a store
	evStoreMiss                          //
	evWritebackL2                        // dirty L1-D victim merged into the L2
	evWritebackLLC                       // dirty victim leaving the private hierarchy
	evPrefetchMiss                       // prefetch candidate missing the L2
)

// fetchGroup paces I-side line fetches: a 64-byte line of nominal 4-byte
// instructions.
const fetchGroup = 16

// front is one program instance's private half.
type front struct {
	gen          *trace.Generator
	pred         *branch.Tournament
	l1i, l1d, l2 *cache.Level
	pf           *cache.StridePrefetcher // nil unless Options.EnablePrefetch
	sinceIFetch  int
}

// newFront builds the private hierarchy around gen.
func newFront(gen *trace.Generator, l1i, l1d, l2 config.CacheLevelConfig, scale int, prefetch bool) (*front, error) {
	// The margin covers prefetch candidates, which run a few lines past the
	// demand miss they follow.
	if gen.AddrLimit()+1<<20 > evAddrMask {
		return nil, fmt.Errorf("sim: %s addresses reach %#x, beyond the %d bits an event carries", gen.Profile().Name, gen.AddrLimit(), evAddrBits)
	}
	// Written on every instruction, so isolated like everything a core owns
	// (package pad).
	f := pad.New(front{gen: gen, pred: branch.NewTournament()})
	var err error
	// The L1-I stays at native size: code footprints are not miniaturised
	// (see trace.NewGenerator), so scaling the L1-I would thrash it on every
	// benchmark and flood the L2/NoC with instruction traffic no real machine
	// produces.
	if f.l1i, err = cache.NewLevel(l1i, 1); err != nil {
		return nil, err
	}
	if f.l1d, err = cache.NewLevel(l1d, scale); err != nil {
		return nil, err
	}
	if f.l2, err = cache.NewLevel(l2, scale); err != nil {
		return nil, err
	}
	if prefetch {
		f.pf = cache.NewStridePrefetcher(int(l2.LineSize))
	}
	return f, nil
}

// tableBytes returns the host memory the front's structures hold.
func (f *front) tableBytes() int {
	n := f.gen.TableBytes() + f.pred.TableBytes()
	for _, l := range []*cache.Level{f.l1i, f.l1d, f.l2} {
		n += 8 * l.Sets() * l.Assoc()
	}
	return n
}

// produce steps the next chunkInstrs instructions and appends their events
// to ev: per instruction the I-fetch every fetchGroup instructions, then the
// instruction's own draw — the monolithic core's order, so every random draw
// lands on the same consumer. ALU instructions draw nothing and leave no
// event, so a run of them is retired in one step, stopping short of the next
// I-fetch and of the chunk's end.
func (f *front) produce(ev []uint64) []uint64 {
	for pos := 0; pos < chunkInstrs; pos++ {
		skip := f.gen.SkipALU(min(fetchGroup-1-f.sinceIFetch, chunkInstrs-pos))
		f.sinceIFetch += skip
		if pos += skip; pos == chunkInstrs {
			break
		}
		at := uint64(pos) << evPosShift
		f.sinceIFetch++
		if f.sinceIFetch >= fetchGroup {
			f.sinceIFetch = 0
			addr, jump := f.gen.NextIFetch()
			if !f.l1i.Access(addr, false) {
				ev = f.ifetchMiss(ev, at, addr, jump)
			}
		}
		switch kind := f.gen.NextKind(); kind {
		case trace.OpBranch:
			pc, taken := f.gen.NextBranch()
			if !f.pred.Step(pc, taken) {
				ev = append(ev, at|evBranchMiss)
			}
		case trace.OpLoad, trace.OpStore:
			store := kind == trace.OpStore
			addr, dependent := f.gen.NextMem(store)
			if !f.l1d.Access(addr, store) {
				ev = f.dataMiss(ev, at, addr, store, dependent)
			}
		}
	}
	return ev
}

func flagIf(set bool) uint64 {
	if set {
		return evFlag
	}
	return 0
}

// ifetchMiss serves an L1-I miss. Instruction lines are clean, so the L1-I
// fill displaces nothing that needs writing back.
func (f *front) ifetchMiss(ev []uint64, at, addr uint64, jump bool) []uint64 {
	if f.l2.Access(addr, false) {
		f.l1i.Fill(addr, false)
		return append(ev, at|evIFetchL2|flagIf(jump))
	}
	ev = f.fillL2(append(ev, at|evIFetchMiss|flagIf(jump)|addr), at, addr)
	f.l1i.Fill(addr, false)
	return ev
}

// dataMiss serves a data access that missed the L1-D, filling the private
// levels on its way back.
func (f *front) dataMiss(ev []uint64, at, addr uint64, store, dependent bool) []uint64 {
	l2Kind, missKind := evLoadL2|flagIf(dependent), evLoadMiss|flagIf(dependent)
	if store {
		l2Kind, missKind = evStoreL2, evStoreMiss
	}
	if f.l2.Access(addr, false) {
		return f.fillL1(append(ev, at|l2Kind), at, addr, store)
	}
	// Demand L2 miss: train the prefetcher (if any) before going out. Each
	// candidate the L2 lacks is brought into it in the background.
	if f.pf != nil {
		cands, n := f.pf.OnMiss(addr)
		for _, pa := range cands[:n] {
			if !f.l2.Probe(pa) {
				ev = f.fillL2(append(ev, at|evPrefetchMiss|pa), at, pa)
			}
		}
	}
	ev = f.fillL2(append(ev, at|missKind|addr), at, addr)
	return f.fillL1(ev, at, addr, store)
}

// fillL1 allocates addr in the L1-D. A dirty victim writes back without
// allocating: if the L2 no longer holds the line it goes on down. Allocating
// would recall evicted lines and amplify one eviction into a cascade of
// fills.
func (f *front) fillL1(ev []uint64, at, addr uint64, dirty bool) []uint64 {
	victim, vdirty, evicted := f.l1d.Fill(addr, dirty)
	if !evicted || !vdirty {
		return ev
	}
	if f.l2.Probe(victim) {
		f.l2.Access(victim, true)
		return append(ev, at|evWritebackL2)
	}
	return append(ev, at|evWritebackLLC|victim)
}

// fillL2 allocates addr in the L2; a dirty victim leaves for the LLC.
func (f *front) fillL2(ev []uint64, at, addr uint64) []uint64 {
	if victim, vdirty, evicted := f.l2.Fill(addr, false); evicted && vdirty {
		ev = append(ev, at|evWritebackLLC|victim)
	}
	return ev
}
