package cache

import "scalesim/internal/pad"

// bitset is a packed bit vector. Levels track way dirtiness for sets*assoc
// ways; packing the flags 64-per-word (instead of []bool) cuts the metadata
// footprint 8x. Validity is not a bitset: invalid ways hold invalidTag in
// the tag array itself, keeping the way-search hit loop a single compare.
type bitset []uint64

func newBitset(n int) bitset { return pad.Slice[uint64]((n + 63) / 64) }

func (b bitset) get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

func (b bitset) set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

func (b bitset) clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

func (b bitset) assign(i int, v bool) {
	if v {
		b.set(i)
	} else {
		b.clear(i)
	}
}
