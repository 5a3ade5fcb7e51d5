package pad

import (
	"runtime"
	"testing"
	"unsafe"
)

// blocks returns the first and last Line-aligned block the n bytes at p touch.
func blocks(p unsafe.Pointer, n uintptr) (first, last uintptr) {
	return uintptr(p) / Line, (uintptr(p) + n - 1) / Line
}

// TestPayloadsShareNoBlock allocates many small payloads back to back — the
// pattern that packs them onto shared lines with plain make/new — and
// checks that no two of them touch the same Line-aligned block.
func TestPayloadsShareNoBlock(t *testing.T) {
	type state struct{ a, b, c uint64 }
	owner := map[uintptr]int{}
	claim := func(who int, p unsafe.Pointer, n uintptr) {
		first, last := blocks(p, n)
		for b := first; b <= last; b++ {
			if prev, ok := owner[b]; ok && prev != who {
				t.Fatalf("allocations %d and %d share block %#x", prev, who, b*Line)
			}
			owner[b] = who
		}
	}
	var keep []any
	for i := 0; i < 4000; i += 4 {
		s := New(state{a: uint64(i)})
		bytes := Slice[uint8](5)    // rounded up to one whole Line
		words := Slice[uint64](33)  // to three
		lines := Slice[[3]byte](64) // 3 does not divide a Line: guarded
		if s.a != uint64(i) || len(bytes) != 5 || cap(bytes) != 5 || len(words) != 33 || cap(words) != 33 || len(lines) != 64 || cap(lines) != 64 {
			t.Fatalf("New/Slice returned the wrong shape: %+v len %d cap %d len %d cap %d", *s, len(bytes), cap(bytes), len(words), cap(words))
		}
		for _, w := range words {
			if w != 0 {
				t.Fatal("Slice payload not zeroed")
			}
		}
		claim(i, unsafe.Pointer(s), unsafe.Sizeof(*s))
		claim(i+1, unsafe.Pointer(&bytes[0]), 5)
		claim(i+2, unsafe.Pointer(&words[0]), 33*8)
		claim(i+3, unsafe.Pointer(&lines[0]), 64*3)
		keep = append(keep, s, bytes, words, lines)
	}
	runtime.KeepAlive(keep) // a freed payload's block may be handed out again
}
