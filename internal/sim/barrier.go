package sim

import (
	"scalesim/internal/trace"
	"scalesim/internal/units"
)

// barriers synchronises the threads of a data-parallel program through the
// measured phase. The program's work is fixed (strong scaling): instructions
// split evenly across threads and rounded to a whole number of barrier
// intervals, so every thread crosses the same count of barriers and the last
// one ends the run. The profile's skew makes the work between two barriers
// differ per thread — what a thread waits for at each.
type barriers struct {
	step    []uint64       // instructions thread t retires between two barriers
	total   int            // barriers on each thread's way; 1 without an interval: the end of its work
	crossed int            // barriers released so far
	wait    []units.Cycles // cycles thread t has spent waiting at them
}

func newBarriers(pp *trace.ParallelProfile, threads int, instructions uint64) *barriers {
	perThread := max(1000, instructions/uint64(threads))
	b := &barriers{step: make([]uint64, threads), total: 1, wait: make([]units.Cycles, threads)}
	interval := pp.BarrierInterval
	if interval > 0 {
		b.total = int(max(1, (perThread+interval/2)/interval))
	}
	for t := range b.step {
		if b.step[t] = perThread; interval > 0 {
			b.step[t] = pp.ThreadBudget(t, threads)
		}
	}
	return b
}

// pending is thread t's next barrier, in cumulative retired instructions.
func (b *barriers) pending(t int) uint64 { return uint64(b.crossed+1) * b.step[t] }

// bound limits each thread's epoch to its pending barrier: a thread already
// there runs no steps.
func (b *barriers) bound(limits []uint64) {
	for t := range limits {
		limits[t] = b.pending(t)
	}
}

// release opens the pending barrier once every thread has reached it: clocks
// synchronise on the last arrival and each thread is charged its wait. It
// reports whether that was the last barrier.
func (b *barriers) release(cores []executor) (done bool) {
	arrival := units.Cycles(0)
	for t, c := range cores {
		st := c.stats()
		if st.Instructions < b.pending(t) {
			return false
		}
		arrival = max(arrival, st.Cycles)
	}
	for t, c := range cores {
		st := c.stats()
		b.wait[t] += arrival - st.Cycles
		st.Cycles = arrival
	}
	b.crossed++
	return b.crossed == b.total
}
