// Package pad allocates memory that shares no host cache line with any other
// allocation.
//
// The epoch simulator runs independent cores on different host CPUs; every
// simulated instruction writes its core's state (statistics, RNG words, cache
// sets, predictor counters). Go's allocator packs objects of one size class
// back to back, so without help core i's and core i+1's state land on the
// same host line and every write on one CPU invalidates the other's copy —
// the two workers then burn more CPU-seconds than one. Everything a core
// owns is therefore allocated through this package, which keeps a payload
// out of every Line-aligned block any other allocation touches — by Line dead
// bytes on either side of it, or by giving it whole aligned Lines — wherever
// the allocator puts it.
// TestCoresShareNoCacheLine (internal/sim) checks the addresses.
package pad

import "unsafe"

// Line is the isolation granule: two 64-byte lines, because Intel's
// adjacent-line prefetcher fetches lines in aligned pairs.
const Line = 128

// New returns a pointer to a copy of v isolated from every other allocation.
func New[T any](v T) *T {
	p := &struct {
		_ [Line]byte
		v T
		_ [Line]byte
	}{v: v}
	return &p.v
}

// Slice returns a zeroed []T of length and capacity n isolated from every
// other allocation. Appending past n moves it to an ordinary allocation: a
// slice that grows is copied into a larger Slice instead.
func Slice[T any](n int) []T {
	var zero T
	size := int(unsafe.Sizeof(zero))
	// Whole Lines that start on a Line boundary are blocks nothing else can
	// touch, and they cost less than guards: the power-of-two arrays that
	// make up most of a core's state (cache sets, overlay arenas,
	// op logs) stay in their size class instead of spilling onto an extra
	// page. Go aligns such allocations; the address check turns that habit
	// into a fact verified per allocation, with the guards as the fallback.
	if n > 0 && Line%size == 0 {
		perLine := Line / size
		if s := make([]T, (n+perLine-1)/perLine*perLine); uintptr(unsafe.Pointer(&s[0]))%Line == 0 {
			return s[:n:n]
		}
	}
	guard := (Line + size - 1) / size
	return make([]T, n+2*guard)[guard : guard+n : guard+n]
}
