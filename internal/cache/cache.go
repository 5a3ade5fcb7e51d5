// Package cache implements the structurally simulated cache hierarchy: true
// LRU set-associative levels for the private L1-I/L1-D/L2 and a shared NUCA
// last-level cache composed of per-core slices selected by address hash.
//
// Caches hold real tag/LRU state, so capacity and conflict behaviour — and
// in particular *contention* between co-running programs interleaving
// accesses in the shared LLC — is emergent rather than modelled. This is the
// property scale-model simulation depends on: the same program sees
// different miss rates on differently sized shared caches.
package cache

import (
	"fmt"
	"math/bits"

	"scalesim/internal/config"
	"scalesim/internal/pad"
)

// Stats counts events at one cache level (or one LLC slice).
type Stats struct {
	Accesses  uint64
	Misses    uint64
	Writes    uint64
	Evictions uint64
	// Writebacks counts dirty evictions, which generate write traffic to the
	// next level down (or DRAM for the LLC).
	Writebacks uint64
}

// Delta returns the counters accumulated since prev was captured (s - prev,
// field-wise). prev must be an earlier snapshot of the same counters.
func (s Stats) Delta(prev Stats) Stats {
	return Stats{
		Accesses:   s.Accesses - prev.Accesses,
		Misses:     s.Misses - prev.Misses,
		Writes:     s.Writes - prev.Writes,
		Evictions:  s.Evictions - prev.Evictions,
		Writebacks: s.Writebacks - prev.Writebacks,
	}
}

// Level is one set-associative, write-back, write-allocate cache level with
// true LRU replacement. A private level is written by its core on every
// access, so the Level and its ways are allocated through package pad:
// cores run on different host CPUs and must not share a cache line.
type Level struct {
	sets      int
	assoc     int
	lineShift uint
	setMask   uint64

	// ways holds set s as the assoc words [s*assoc, (s+1)*assoc), each
	// line<<1 | dirty, most recently used first; empty ways hold emptyWay
	// and always trail. The order is the LRU state: a hit moves its word to
	// the front, a fill pushes one on and the word that falls off the end is
	// the victim.
	ways []uint64

	Stats Stats
}

// emptyWay marks an empty way. A line is addr >> lineShift with lineShift
// >= 1, so line<<1 loses no bit and the all-ones word is reachable only from
// the topmost line of the 64-bit address space, dirty — no workload
// generates it, and the set scans need no separate valid flag.
const emptyWay = ^uint64(0)

// touch, holds and pushFront are the three set primitives; each runs an
// unrolled body on an 8-way set and the early-exit scan on any other. The
// target's L1-D and L2 are 8-way, and on real traffic their hits land at
// every depth, so the scan's exit is mispredicted about once an access; in
// the unrolled bodies the only data-dependent branch is hit or miss. The
// 4-way L1-I hits at depth 0 most of the time, and a 64-way set is too wide
// to compare whole, so both keep the scan.

// touch looks line up in set; on a hit it marks the word dirty if write,
// moves it to the front (an MRU hit moves nothing) and returns true.
func touch(set []uint64, line uint64, write bool) bool {
	if len(set) == 8 {
		// The 8-way kernel: hits8's mask, written out again to save a call,
		// then on a hit at depth d the words at depths [0, d) move back one,
		// each by a select on i <= d, and the hit word becomes the front.
		s := (*[8]uint64)(set)
		w0, w1, w2, w3, w4, w5, w6, w7 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]
		m := ((w0>>1^line)-1)>>63 | ((w1>>1^line)-1)>>63<<1 | ((w2>>1^line)-1)>>63<<2 | ((w3>>1^line)-1)>>63<<3 |
			((w4>>1^line)-1)>>63<<4 | ((w5>>1^line)-1)>>63<<5 | ((w6>>1^line)-1)>>63<<6 | ((w7>>1^line)-1)>>63<<7
		if m == 0 {
			return false
		}
		d := uint(bits.TrailingZeros64(m))
		s[0] = s[d&7] | b2u(write)
		s[7] = sel(7 <= d, w6, w7)
		s[6] = sel(6 <= d, w5, w6)
		s[5] = sel(5 <= d, w4, w5)
		s[4] = sel(4 <= d, w3, w4)
		s[3] = sel(3 <= d, w2, w3)
		s[2] = sel(2 <= d, w1, w2)
		s[1] = sel(1 <= d, w0, w1)
		return true
	}
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

// holds reports whether line is in set, moving nothing.
func holds(set []uint64, line uint64) bool {
	if len(set) == 8 {
		return hits8((*[8]uint64)(set), line) != 0
	}
	for _, w := range set {
		if w>>1 == line {
			return true
		}
	}
	return false
}

// pushFront makes line the most recently used word of set and decodes the
// word that fell off the end: evicted is false if that way was empty. The
// caller fills only a line the set does not hold.
func pushFront(set []uint64, line uint64, dirty bool, lineShift uint) (victimAddr uint64, victimDirty, evicted bool) {
	last := set[len(set)-1]
	if len(set) == 8 {
		s := (*[8]uint64)(set)
		s[7], s[6], s[5], s[4], s[3], s[2], s[1] = s[6], s[5], s[4], s[3], s[2], s[1], s[0]
	} else {
		copy(set[1:], set)
	}
	set[0] = line<<1 | b2u(dirty)
	if last == emptyWay {
		return 0, false, false
	}
	return last >> 1 << lineShift, last&1 != 0, true
}

// hits8 compares all eight words of s with line: bit d of the mask is set
// if the word at depth d holds it. A set holds a line at most once. Both
// w>>1 and line are below 1<<63, so (w>>1 ^ line) - 1 has its top bit set
// exactly when they are equal.
func hits8(s *[8]uint64, line uint64) uint64 {
	return ((s[0]>>1^line)-1)>>63 | ((s[1]>>1^line)-1)>>63<<1 | ((s[2]>>1^line)-1)>>63<<2 | ((s[3]>>1^line)-1)>>63<<3 |
		((s[4]>>1^line)-1)>>63<<4 | ((s[5]>>1^line)-1)>>63<<5 | ((s[6]>>1^line)-1)>>63<<6 | ((s[7]>>1^line)-1)>>63<<7
}

// sel returns a if c, else b; the compiler emits a conditional move.
func sel(c bool, a, b uint64) uint64 {
	if c {
		return a
	}
	return b
}

// b2u is 1 for true and 0 for false, without a branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// NewLevel builds a cache level from cfg with its capacity divided by scale
// (scale <= 1 means unscaled). Associativity and line size are preserved;
// the set count shrinks, exactly like a die-shrunk miniature.
func NewLevel(cfg config.CacheLevelConfig, scale int) (*Level, error) {
	sets, err := cfg.Sets(scale)
	if err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	shift := uint(bits.TrailingZeros64(uint64(cfg.LineSize)))
	ways := pad.Slice[uint64](sets * cfg.Assoc)
	for i := range ways {
		ways[i] = emptyWay
	}
	return pad.New(Level{
		sets:      sets,
		assoc:     cfg.Assoc,
		lineShift: shift,
		setMask:   uint64(sets - 1),
		ways:      ways,
	}), nil
}

// Sets returns the number of sets.
func (l *Level) Sets() int { return l.sets }

// Assoc returns the associativity.
func (l *Level) Assoc() int { return l.assoc }

// LineSize returns the line size in bytes.
func (l *Level) LineSize() int { return 1 << l.lineShift }

// set returns the ways of the set line maps to.
func (l *Level) set(line uint64) []uint64 {
	base := int(line&l.setMask) * l.assoc
	return l.ways[base : base+l.assoc]
}

// Access looks up the line containing addr. On a hit it updates LRU state
// (and the dirty bit for writes) and returns true. On a miss it returns
// false without allocating; the caller is responsible for resolving the miss
// down the hierarchy and then calling Fill.
func (l *Level) Access(addr uint64, write bool) bool {
	line := addr >> l.lineShift
	l.Stats.Accesses++
	l.Stats.Writes += b2u(write)
	if touch(l.set(line), line, write) {
		return true
	}
	l.Stats.Misses++
	return false
}

// Probe reports whether the line containing addr is present without
// updating LRU state or statistics.
func (l *Level) Probe(addr uint64) bool {
	line := addr >> l.lineShift
	return holds(l.set(line), line)
}

// Fill allocates the line containing addr (marking it dirty if dirty),
// evicting the LRU way if the set is full. It returns the evicted line's
// address and dirty state; evicted is false if an empty way was used.
func (l *Level) Fill(addr uint64, dirty bool) (victimAddr uint64, victimDirty, evicted bool) {
	line := addr >> l.lineShift
	victimAddr, victimDirty, evicted = pushFront(l.set(line), line, dirty, l.lineShift)
	// A victim is dirty as often as not: count it without a branch
	// (victimDirty implies evicted).
	l.Stats.Evictions += b2u(evicted)
	l.Stats.Writebacks += b2u(victimDirty)
	return victimAddr, victimDirty, evicted
}

// NUCA is the shared last-level cache: one slice per core, with lines
// distributed across slices by a mixing hash of the line address. Requester
// core ids attribute per-core statistics even though the structure is
// shared.
type NUCA struct {
	slices    []*Level
	perCore   []Stats
	lineShift uint
}

// NewNUCA builds the LLC from cfg with capacity scaled down by scale, for a
// machine with cores cores (per-core stats attribution).
func NewNUCA(cfg config.LLCConfig, scale, cores int) (*NUCA, error) {
	if cfg.Slices < 1 {
		return nil, fmt.Errorf("cache: LLC with %d slices", cfg.Slices)
	}
	lvl := cfg.Slice()
	n := &NUCA{perCore: make([]Stats, cores)}
	for i := 0; i < cfg.Slices; i++ {
		s, err := NewLevel(lvl, scale)
		if err != nil {
			return nil, fmt.Errorf("cache: LLC slice: %w", err)
		}
		n.slices = append(n.slices, s)
		n.lineShift = s.lineShift
	}
	return n, nil
}

// SliceOf returns the home slice index for addr. A multiplicative hash of
// the line address spreads consecutive lines across slices, as in real NUCA
// designs (and makes slice load roughly uniform for any stride).
func (n *NUCA) SliceOf(addr uint64) int {
	line := addr >> n.lineShift
	line *= 0x9e3779b97f4a7c15
	return int((line >> 40) % uint64(len(n.slices)))
}

// Access looks up addr in its home slice on behalf of core. It returns the
// slice index (for NoC distance) and whether it hit.
func (n *NUCA) Access(core int, addr uint64, write bool) (slice int, hit bool) {
	slice = n.SliceOf(addr)
	hit = n.slices[slice].Access(addr, write)
	st := &n.perCore[core]
	st.Accesses++
	if write {
		st.Writes++
	}
	if !hit {
		st.Misses++
	}
	return slice, hit
}

// Probe reports whether addr is present in its home slice, without
// disturbing LRU state or statistics.
func (n *NUCA) Probe(addr uint64) bool {
	return n.slices[n.SliceOf(addr)].Probe(addr)
}

// Fill allocates addr in its home slice and returns the victim, as
// Level.Fill. Writebacks are attributed to core.
func (n *NUCA) Fill(core int, addr uint64, dirty bool) (victimAddr uint64, victimDirty, evicted bool) {
	victimAddr, victimDirty, evicted = n.slices[n.SliceOf(addr)].Fill(addr, dirty)
	if evicted {
		n.perCore[core].Evictions++
		if victimDirty {
			n.perCore[core].Writebacks++
		}
	}
	return victimAddr, victimDirty, evicted
}

// Replay repeats an access (or, with fill set, a fill) that a core made to
// addr through its Overlay, on slice, addr's home slice as the overlay
// computed it, counting it into st; the caller adds st into the core's
// attribution with AddCoreStats. Replays on different slices touch disjoint
// memory and may run at once. A fill replays only if the line is absent: a
// fill replayed earlier, from another core's log, may have brought it in.
func (n *NUCA) Replay(slice int, addr uint64, fill, dirty bool, st *Stats) {
	lvl := n.slices[slice]
	if !fill {
		hit := lvl.Access(addr, dirty)
		st.Accesses++
		st.Writes += b2u(dirty)
		st.Misses += b2u(!hit)
	} else if !lvl.Probe(addr) {
		_, victimDirty, evicted := lvl.Fill(addr, dirty)
		st.Evictions += b2u(evicted)
		st.Writebacks += b2u(victimDirty)
	}
}

// AddCoreStats adds st to core's attribution.
func (n *NUCA) AddCoreStats(core int, st Stats) {
	c := &n.perCore[core]
	c.Accesses, c.Misses, c.Writes = c.Accesses+st.Accesses, c.Misses+st.Misses, c.Writes+st.Writes
	c.Evictions, c.Writebacks = c.Evictions+st.Evictions, c.Writebacks+st.Writebacks
}

// CoreStats returns the per-core attribution for core.
func (n *NUCA) CoreStats(core int) Stats { return n.perCore[core] }
