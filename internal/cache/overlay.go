package cache

import "scalesim/internal/pad"

// Overlay is a per-core copy-on-write view of a shared NUCA for one epoch of
// parallel execution.
//
// Within an epoch, each core runs against [the LLC as it stood at the epoch
// boundary] + [that core's own prior operations this epoch]: the first touch
// of a set clones it into a private arena and all further operations hit the
// clone, so cores never observe (or race on) each other's intra-epoch
// traffic. The authoritative interleaved state is reconstructed at the epoch
// barrier by replaying every core's operation log against the real NUCA in
// canonical core order (see internal/sim).
//
// Overlay mutates nothing in the underlying NUCA and keeps no statistics;
// per-core LLC stats are attributed during replay. The clone arena is
// reused across epochs via version stamps (no per-epoch clearing), so a
// steady-state epoch allocates only when it touches more sets than any
// epoch before it.
type Overlay struct {
	n     *NUCA
	sets  int
	assoc int

	// slot[g] is the clone index for global set g = slice*sets + set,
	// valid only when ver[g] == epoch.
	slot  []int32
	ver   []uint32
	epoch uint32

	// ways is the clone arena, clone k occupying ways [k*assoc, (k+1)*assoc)
	// in Level's set representation, so Level's set primitives run on a
	// clone unchanged.
	ways []uint64
	used int // clones handed out this epoch
}

// NewOverlay builds an overlay over n. All slices of a NUCA share one
// geometry, so a flat global set index addresses every set.
func NewOverlay(n *NUCA) *Overlay {
	lvl := n.slices[0]
	total := len(n.slices) * lvl.sets
	return pad.New(Overlay{
		n:     n,
		sets:  lvl.sets,
		assoc: lvl.assoc,
		slot:  pad.Slice[int32](total),
		ver:   pad.Slice[uint32](total),
	})
}

// BeginEpoch invalidates every clone (the shared NUCA may have changed at
// the barrier) and recycles the arena capacity.
func (o *Overlay) BeginEpoch() {
	o.epoch++
	if o.epoch == 0 {
		// Version wrap-around: stale ver entries would alias the new epoch.
		for i := range o.ver {
			o.ver[i] = 0
		}
		o.epoch = 1
	}
	o.used = 0
}

// cloneFor returns this core's clone of line's home set in slice, copying
// the set out of the shared NUCA on first touch this epoch.
func (o *Overlay) cloneFor(slice int, line uint64) []uint64 {
	lvl := o.n.slices[slice]
	g := slice*o.sets + int(line&lvl.setMask)
	if o.ver[g] == o.epoch {
		return o.clone(int(o.slot[g]))
	}
	if need := (o.used + 1) * o.assoc; need > len(o.ways) {
		// Double to amortize. The arena keeps its high-water capacity across
		// epochs, so steady-state epochs run allocation-free.
		grown := pad.Slice[uint64](max(2*len(o.ways), need))
		copy(grown, o.ways)
		o.ways = grown
	}
	// One copy is the whole set: lines, dirty bits, recency order and the
	// trailing empty ways.
	clone := o.clone(o.used)
	copy(clone, lvl.set(line))
	o.slot[g] = int32(o.used)
	o.ver[g] = o.epoch
	o.used++
	return clone
}

// clone returns the ways of clone k.
func (o *Overlay) clone(k int) []uint64 {
	return o.ways[k*o.assoc : (k+1)*o.assoc]
}

// Access mirrors NUCA.Access against this core's view: LRU and dirty state
// update in the clone, never the shared structure, and no statistics are
// kept (replay attributes them).
func (o *Overlay) Access(addr uint64, write bool) (slice int, hit bool) {
	slice = o.n.SliceOf(addr)
	line := addr >> o.n.lineShift
	return slice, touch(o.cloneFor(slice, line), line, write)
}

// Probe reports presence in this core's view without cloning, disturbing
// LRU state, or touching the shared NUCA's statistics.
func (o *Overlay) Probe(addr uint64) bool {
	slice := o.n.SliceOf(addr)
	lvl := o.n.slices[slice]
	line := addr >> o.n.lineShift
	g := slice*o.sets + int(line&lvl.setMask)
	if o.ver[g] != o.epoch {
		return holds(lvl.set(line), line)
	}
	return holds(o.clone(int(o.slot[g])), line)
}

// Fill mirrors NUCA.Fill against this core's view, returning the victim the
// clone evicts. The victim drives this core's writeback traffic accounting;
// the authoritative eviction happens again at replay.
func (o *Overlay) Fill(addr uint64, dirty bool) (victimAddr uint64, victimDirty, evicted bool) {
	slice := o.n.SliceOf(addr)
	line := addr >> o.n.lineShift
	return pushFront(o.cloneFor(slice, line), line, dirty, o.n.lineShift)
}
