package cache

import "scalesim/internal/pad"

// Overlay is a per-core copy-on-write view of a shared NUCA for one epoch of
// parallel execution.
//
// Within an epoch, each core runs against [the LLC as it stood at the epoch
// boundary] + [that core's own prior operations this epoch]: the first touch
// of a set clones its tag/LRU/flag state into a private arena and all further
// operations hit the clone, so cores never observe (or race on) each other's
// intra-epoch traffic. The authoritative interleaved state is reconstructed
// at the epoch barrier by replaying every core's operation log against the
// real NUCA in canonical core order (see internal/sim).
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

	// Clone arena, clone k occupying ways [k*assoc, (k+1)*assoc). Invalid
	// ways hold invalidTag exactly as in Level, so the hit loops are a
	// single tag compare per way; meta carries only the dirty flag.
	tags  []uint64
	meta  []uint8 // bit 0: dirty
	stamp []uint32
	clock []uint32 // per-clone set clock
	used  int      // clones handed out this epoch
}

const ovDirty uint8 = 1 << 0

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

// cloneFor returns the index of the clone for addr's home set (its ways start
// at arena index k*assoc), copying the set out of the shared NUCA on first
// touch this epoch.
func (o *Overlay) cloneFor(slice int, line uint64) (k int) {
	lvl := o.n.slices[slice]
	set := int(line & lvl.setMask)
	g := slice*o.sets + set
	if o.ver[g] == o.epoch {
		return int(o.slot[g])
	}
	k = o.used
	o.used++
	need := o.used * o.assoc
	if need > len(o.tags) {
		o.grow(need)
	}
	base := k * o.assoc
	sbase := set * o.assoc
	// Tags copy verbatim: invalidTag sentinels ride along, so the clone
	// needs no separate valid flag either.
	copy(o.tags[base:base+o.assoc], lvl.tags[sbase:sbase+o.assoc])
	copy(o.stamp[base:base+o.assoc], lvl.stamp[sbase:sbase+o.assoc])
	meta := o.meta[base : base+o.assoc]
	for w := range meta {
		var m uint8
		if lvl.dirty.get(sbase + w) {
			m = ovDirty
		}
		meta[w] = m
	}
	o.clock[k] = lvl.clock[set]
	o.slot[g] = int32(k)
	o.ver[g] = o.epoch
	return k
}

// grow extends the arena to hold at least need ways, doubling to amortize.
// The arena keeps its high-water capacity across epochs (Reset truncates,
// never frees), so steady-state epochs run allocation-free.
func (o *Overlay) grow(need int) {
	newCap := 2 * len(o.tags)
	if newCap < need {
		newCap = need
	}
	tags := pad.Slice[uint64](newCap)
	copy(tags, o.tags)
	o.tags = tags
	meta := pad.Slice[uint8](newCap)
	copy(meta, o.meta)
	o.meta = meta
	stamp := pad.Slice[uint32](newCap)
	copy(stamp, o.stamp)
	o.stamp = stamp
	clock := pad.Slice[uint32](newCap / o.assoc)
	copy(clock, o.clock)
	o.clock = clock
}

// Access mirrors NUCA.Access against this core's view: LRU and dirty state
// update in the clone, never the shared structure, and no statistics are
// kept (replay attributes them).
func (o *Overlay) Access(addr uint64, write bool) (slice int, hit bool) {
	slice = o.n.SliceOf(addr)
	line := addr >> o.n.lineShift
	k := o.cloneFor(slice, line)
	base := k * o.assoc
	for w, tag := range o.tags[base : base+o.assoc] {
		if tag == line {
			o.clock[k]++
			o.stamp[base+w] = o.clock[k]
			if write {
				o.meta[base+w] |= ovDirty
			}
			return slice, true
		}
	}
	return slice, false
}

// Probe reports presence in this core's view without cloning, disturbing
// LRU state, or touching the shared NUCA's statistics.
func (o *Overlay) Probe(addr uint64) bool {
	slice := o.n.SliceOf(addr)
	lvl := o.n.slices[slice]
	line := addr >> o.n.lineShift
	set := int(line & lvl.setMask)
	g := slice*o.sets + set
	if o.ver[g] != o.epoch {
		return lvl.Probe(addr)
	}
	base := int(o.slot[g]) * o.assoc
	for _, tag := range o.tags[base : base+o.assoc] {
		if tag == line {
			return true
		}
	}
	return false
}

// Fill mirrors NUCA.Fill against this core's view, returning the victim the
// clone evicts. The victim drives this core's writeback traffic accounting;
// the authoritative eviction happens again at replay.
func (o *Overlay) Fill(addr uint64, dirty bool) (victimAddr uint64, victimDirty, evicted bool) {
	slice := o.n.SliceOf(addr)
	line := addr >> o.n.lineShift
	k := o.cloneFor(slice, line)
	base := k * o.assoc
	clock := o.clock[k]
	victim := base + lruVictim(o.tags[base:base+o.assoc], o.stamp[base:], clock)
	if o.tags[victim] != invalidTag {
		evicted = true
		victimAddr = o.tags[victim] << o.n.lineShift
		victimDirty = o.meta[victim]&ovDirty != 0
	}
	o.tags[victim] = line
	var m uint8
	if dirty {
		m = ovDirty
	}
	o.meta[victim] = m
	o.clock[k] = clock + 1
	o.stamp[victim] = clock + 1
	return victimAddr, victimDirty, evicted
}
