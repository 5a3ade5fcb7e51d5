package sim

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"scalesim/internal/config"
	"scalesim/internal/metrics"
	"scalesim/internal/pad"
	"scalesim/internal/trace"
)

// stream is the chunk sequence of one front. A private stream belongs to one
// core of one run and keeps only the chunk being consumed and at most one
// produced ahead; a stream in a Fronts memo is read by every machine of a
// campaign that runs the same program instance, and keeps every chunk it has
// produced.
type stream struct {
	memo *Fronts // nil for a private stream

	// kinds[r] counts the loads, stores and branches in slots [0, r) of the
	// generator's kind schedule, perKI those of all 1000: a consumer's kind
	// counters are a function of how far it has read.
	kinds [1000][3]uint16
	perKI [3]uint64

	mu     sync.Mutex // guards the rest, on a memoized stream
	front  *front
	buf    []uint64 // production arena; a private stream's current chunk
	chunks []chunk

	// A private stream's second arena, holding the chunk after buf's when
	// ready: the chunk being consumed is never overwritten.
	spare []uint64
	ready bool

	// The memo's, under its mutex.
	used   uint64
	bytes  int
	linked bool
}

// chunk is one produced chunk: its events, immutable, and the host time
// producing them took.
type chunk struct {
	events []uint64
	cost   time.Duration
}

// streamBytes is what a stream holds besides its front and its chunks: the
// arena (twice the busiest suite chunk), the kind table, the headers.
const streamBytes = 16 << 10

func newStream(f *front) *stream {
	s := pad.New(stream{front: f, buf: pad.Slice[uint64](streamBytes / 16)[:0]})
	var c [3]uint16
	for slot, kind := range f.gen.KindSchedule() {
		s.kinds[slot] = c
		if kind != trace.OpALU {
			c[kind-trace.OpLoad]++
		}
	}
	s.perKI = [3]uint64{uint64(c[0]), uint64(c[1]), uint64(c[2])}
	return s
}

// kindsBefore returns the loads, stores and branches among the stream's
// first n instructions.
func (s *stream) kindsBefore(n uint64) (k [3]uint64) {
	for i, before := range s.kinds[n%1000] {
		k[i] = uint64(before) + n/1000*s.perKI[i]
	}
	return k
}

// produce steps the front one chunk further into arena, moving to a larger
// padded arena when append outgrew this one.
func (s *stream) produce(arena *[]uint64) []uint64 {
	ev := s.front.produce((*arena)[:0])
	if cap(ev) != cap(*arena) {
		ev = append(pad.Slice[uint64](cap(ev))[:0], ev...)
	}
	*arena = ev
	return ev
}

// chunk returns the events of chunk k; a consumer reads chunks in order, so
// k is at most one past what the stream has produced. borrowed is the
// recorded production time of a chunk somebody else produced — what this
// read would have cost a run on its own.
func (s *stream) chunk(k int) (events []uint64, borrowed time.Duration) {
	if s.memo == nil {
		if s.ready {
			s.ready = false
			s.buf, s.spare = s.spare, s.buf
			return s.buf, 0
		}
		return s.produce(&s.buf), 0
	}
	s.memo.consumed.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	if k < len(s.chunks) {
		return s.chunks[k].events, s.chunks[k].cost
	}
	start := time.Now() //simlint:ignore wallclock prices a chunk for Result.WallClock reporting only; never simulated state
	events = append([]uint64(nil), s.produce(&s.buf)...)
	//simlint:ignore wallclock prices a chunk for Result.WallClock reporting only; never simulated state
	s.chunks = append(s.chunks, chunk{events, time.Since(start)})
	s.memo.produced.Add(1)
	s.memo.mu.Lock()
	s.memo.account(s, 8*cap(events)+32)
	s.memo.mu.Unlock()
	return events, 0
}

// ahead produces a private stream's next chunk into its second arena,
// unless it holds it already. The reader is not running: the epoch worker
// that ran it calls this while it waits. A memo stream produces only what is
// read.
func (s *stream) ahead() {
	if s.memo != nil || s.ready {
		return
	}
	s.produce(&s.spare)
	s.ready = true
}

// frontKey identifies a front: everything its event stream is a function
// of. Suite profiles are the shared read-only pointers trace.ByName hands
// out and the key keeps a custom profile alive, so pointer identity is safe;
// a custom profile simply shares only within its own job.
type frontKey struct {
	prof         *trace.Profile
	instance     int
	seed         uint64
	scale        int
	l1i, l1d, l2 config.CacheLevelConfig
	prefetch     bool
}

// front returns the front of k that steps gen, given as its constructor
// returned it.
func (k frontKey) front(gen *trace.Generator, err error) (*front, error) {
	if err != nil {
		return nil, err
	}
	return newFront(gen, k.l1i, k.l1d, k.l2, k.scale, k.prefetch)
}

// thread returns the private stream of thread k.instance of pp, one of
// threads in a shared address space.
func (k frontKey) thread(pp *trace.ParallelProfile, threads int) (*stream, error) {
	fr, err := k.front(trace.NewThreadGenerator(pp, k.instance, threads, trace.GenOptions{CapacityScale: k.scale, Seed: k.seed}))
	if err != nil {
		return nil, err
	}
	return newStream(fr), nil
}

// frontsBudget bounds the bytes a memo retains, events and front tables
// alike. DESIGN.md, "Performance invariants", 7, says what it was sized
// against.
const frontsBudget = 32 << 20

// Fronts memoizes fronts across the runs of one campaign: every machine
// that runs a program instance replays one stream, and whoever needs a chunk
// first produces it. Sharing never shows in a result; it shows in Stats and
// in host time.
type Fronts struct {
	budget             int
	produced, consumed atomic.Uint64

	mu             sync.Mutex
	streams        map[frontKey]*stream
	tick           uint64
	bytes          int
	built, evicted int
}

// NewFronts returns an empty memo.
func NewFronts() *Fronts {
	return &Fronts{budget: frontsBudget, streams: make(map[frontKey]*stream)}
}

// RunContext is the package's RunContext with every program's private half
// shared through the memo; on a nil memo it is the package's RunContext.
func (f *Fronts) RunContext(ctx context.Context, cfg *config.SystemConfig, wl Workload, opts Options) (*Result, error) {
	opts = opts.Resolved()
	return runMachine(ctx, cfg, wl, opts, f.cores(cfg, wl, opts))
}

// Stats returns the memo's counters; a nil memo has shared nothing.
func (f *Fronts) Stats() metrics.FrontStats {
	if f == nil {
		return metrics.FrontStats{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return metrics.FrontStats{
		ChunksProduced: f.produced.Load(), ChunksConsumed: f.consumed.Load(),
		StreamsBuilt: f.built, StreamsEvicted: f.evicted, BytesRetained: f.bytes,
	}
}

// stream returns the memo's stream of k, built on first use; a nil memo
// returns a private one. A front is built under the memo's lock: it takes
// ≈ 0.1 ms, and a second run asking for it meanwhile must not build another.
func (f *Fronts) stream(k frontKey) (*stream, error) {
	if f != nil {
		f.mu.Lock()
		defer f.mu.Unlock()
		f.tick++
		if s := f.streams[k]; s != nil {
			s.used = f.tick
			return s, nil
		}
	}
	fr, err := k.front(trace.NewGenerator(k.prof, trace.GenOptions{Instance: k.instance, CapacityScale: k.scale, Seed: k.seed}))
	if err != nil {
		return nil, err
	}
	s := newStream(fr)
	if f != nil {
		s.memo, s.linked, s.used = f, true, f.tick
		f.streams[k] = s
		f.built++
		f.account(s, fr.tableBytes()+streamBytes)
	}
	return s, nil
}

// account adds n bytes to a linked stream, under the memo's lock, then
// unlinks least recently acquired streams until the memo is within budget. A
// run that still holds an unlinked stream keeps reading, and extending, its
// own copy.
func (f *Fronts) account(s *stream, n int) {
	if !s.linked {
		return
	}
	s.bytes += n
	f.bytes += n
	for f.bytes > f.budget {
		var key frontKey
		var lru *stream
		//simlint:ignore maporder acquisition ticks are unique, so the minimum is the same in any order
		for k, c := range f.streams {
			if lru == nil || c.used < lru.used {
				key, lru = k, c
			}
		}
		delete(f.streams, key)
		lru.linked = false
		f.bytes -= lru.bytes
		f.evicted++
	}
}
