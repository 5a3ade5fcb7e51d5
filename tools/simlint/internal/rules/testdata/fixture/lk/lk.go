// Package lk exercises the lockscope rule: no blocking operation with a
// mutex held, no return path that leaks a lock.
package lk

import (
	"os"
	"sync"
	"time"
)

// Box mixes a mutex with the blocking machinery lockscope guards against.
type Box struct {
	mu   sync.Mutex
	n    int
	file *os.File
	ch   chan int
	cond *sync.Cond
}

// HeldAcrossSend sends on a channel with the mutex held: flagged.
func (b *Box) HeldAcrossSend(v int) {
	b.mu.Lock()
	b.ch <- v
	b.mu.Unlock()
}

// HeldAcrossIO writes a file with the mutex held: flagged even though the
// unlock is deferred.
func (b *Box) HeldAcrossIO(p []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.file.Write(p)
}

// LeakyReturn's early return leaves the lock held: flagged.
func (b *Box) LeakyReturn(v int) bool {
	b.mu.Lock()
	if v < 0 {
		return false
	}
	b.n = v
	b.mu.Unlock()
	return true
}

// Probe is clean: a select with a default clause cannot block.
func (b *Box) Probe(v int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	select {
	case b.ch <- v:
		return true
	default:
		return false
	}
}

// Blocks holds the lock across a default-less select: flagged.
func (b *Box) Blocks(v int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	select {
	case b.ch <- v:
	}
}

// CondWait is clean: sync.Cond.Wait's contract requires the lock held.
func (b *Box) CondWait() int {
	b.mu.Lock()
	for b.n == 0 {
		b.cond.Wait()
	}
	n := b.n
	b.mu.Unlock()
	return n
}

// sleepy may block; the local summary poisons its callers.
func sleepy() { time.Sleep(time.Millisecond) }

// ViaHelper holds the lock across a callee that sleeps: flagged.
func (b *Box) ViaHelper() {
	b.mu.Lock()
	sleepy()
	b.mu.Unlock()
}

// UnlockedIO releases the lock before the write: clean.
func (b *Box) UnlockedIO(p []byte) {
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
	b.file.Write(p)
}

// Journal is clean by suppression: the justified ignore mirrors the
// store's ordered-journal idiom.
func (b *Box) Journal(p []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	//simlint:ignore lockscope ordered journal append, bounded write
	b.file.Write(p)
}

// BranchUnlock unlocks inside a branch and returns: correct on every path,
// and rejected — the section's end is no longer one statement on the page.
func (b *Box) BranchUnlock(v int) bool {
	b.mu.Lock()
	if v < 0 {
		b.mu.Unlock()
		return false
	}
	b.n = v
	b.mu.Unlock()
	return true
}

// LoopBreak leaves the loop that encloses the section with the lock held:
// flagged.
func (b *Box) LoopBreak(vs []int) {
	for _, v := range vs {
		b.mu.Lock()
		if v < 0 {
			break
		}
		b.n += v
		b.mu.Unlock()
	}
}

// NestedDefer takes the lock in a block, but the deferred unlock runs at
// the end of the function: the write after the block is under it, flagged.
func (b *Box) NestedDefer(p []byte) {
	if len(p) > 0 {
		b.mu.Lock()
		defer b.mu.Unlock()
		b.n += len(p)
	}
	b.file.Write(p)
}

// BranchOnlyLock locks in a branch and unlocks after the join: both calls
// are flagged, neither is half of a shape.
func (b *Box) BranchOnlyLock(v int) {
	if v > 0 {
		b.mu.Lock()
	}
	b.n = v
	b.mu.Unlock()
}

// SwitchInside's explicit break and inner continue stay inside the section
// and are flagged all the same: a paired section has no branch statement.
func (b *Box) SwitchInside(v int) {
	b.mu.Lock()
	switch {
	case v < 0:
		b.n--
	case v == 0:
		break
	default:
		b.n++
	}
	for i := 0; i < v; i++ {
		if i%2 == 0 {
			continue
		}
		b.n += i
	}
	b.mu.Unlock()
}
