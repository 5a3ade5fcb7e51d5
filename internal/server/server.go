// Package server is the campaign service behind `scalesim serve`: a
// long-lived HTTP/JSON daemon that runs simulate/campaign requests
// through the shared memoization hierarchy (in-memory memo cache,
// optional durable store).
//
// Four properties define the service:
//
//   - A landed key is answered where it arrives. A request whose design
//     point has already completed is served from the memory tier on the
//     request's goroutine, right after Prepare: it takes no server lock,
//     queue slot, worker or goroutine, so it is never queued or shed.
//
//   - Coalescing. Admission is singleflight on the content-addressed job
//     key: when a request arrives for a design point that is already
//     queued or running, it attaches to that flight instead of consuming
//     a queue slot, and its outcome reports SourceCoalesced. N identical
//     concurrent requests cost one simulation.
//
//   - Fair, bounded admission. Distinct jobs enter a bounded queue that
//     round-robins across client identities — one client's bulk batch
//     cannot starve another's single job. A full queue sheds load
//     immediately (HTTP 429 with Retry-After) rather than buffering
//     unboundedly.
//
//   - Graceful drain. Shutdown stops admission (503), lets queued and
//     in-flight jobs finish, then joins every worker; results computed
//     during the drain still land in the durable store.
//
// The package is deliberately clock-free: nothing in the serving path
// reads wall-clock time, so its behavior is a pure function of the
// request arrival order.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"scalesim"
)

// Prepared is a validated, compiled design point with a content-addressed
// identity. *scalesim.PreparedJob implements it.
type Prepared interface {
	// Key returns the job's content-addressed identity; equal keys mean
	// bit-identical results, which is what makes coalescing sound.
	Key() string
}

// Backend executes prepared jobs for the server. The production backend
// wraps *scalesim.Service (NewServiceBackend); tests substitute fakes to
// control timing.
type Backend interface {
	// Prepare validates and compiles one job without simulating.
	Prepare(job scalesim.CampaignJob) (Prepared, error)
	// Run executes a job this backend prepared, through whatever
	// memoization tiers it has.
	Run(ctx context.Context, p Prepared) scalesim.JobOutcome
	// Lookup answers a job from the memory tier alone, as Run would answer
	// it, and reports false — having counted nothing — when the job has
	// not landed or p is not a Prepared this backend minted.
	Lookup(p Prepared) (scalesim.JobOutcome, bool)
	// Stats snapshots the backend's campaign counters.
	Stats() scalesim.CampaignStats
}

// serviceBackend adapts *scalesim.Service to the Backend interface.
type serviceBackend struct {
	svc *scalesim.Service
}

// NewServiceBackend wraps a scalesim Service as the server's backend.
func NewServiceBackend(svc *scalesim.Service) Backend {
	return serviceBackend{svc: svc}
}

func (b serviceBackend) Prepare(job scalesim.CampaignJob) (Prepared, error) {
	return b.svc.Prepare(job)
}

func (b serviceBackend) Run(ctx context.Context, p Prepared) scalesim.JobOutcome {
	// The assertion cannot fail: Run only receives values this backend's
	// Prepare returned.
	return b.svc.RunJobContext(ctx, p.(*scalesim.PreparedJob))
}

func (b serviceBackend) Lookup(p Prepared) (scalesim.JobOutcome, bool) {
	// Unlike Run's, this assertion is checked: Lookup is called before
	// admission, with whatever Prepare returned, and a backend that wraps
	// this one may have wrapped its Prepared too. Such a job is a miss
	// here and runs through the queue.
	pj, ok := p.(*scalesim.PreparedJob)
	if !ok {
		return scalesim.JobOutcome{}, false
	}
	return b.svc.Lookup(pj)
}

func (b serviceBackend) Stats() scalesim.CampaignStats {
	return b.svc.Stats()
}

// DefaultQueueDepth bounds the admission queue when Config.QueueDepth is
// zero.
const DefaultQueueDepth = 64

// MaxRequestBytes bounds the body of one POST /v1/jobs (413 beyond it):
// admission control sees a request only once it is decoded, so what a client
// can make the daemon buffer is bounded first. 1 MiB is ≈ 2 000 32-program jobs.
const MaxRequestBytes = 1 << 20

// retryAfterSec is the Retry-After hint sent with 429 responses. A constant,
// not a measurement: the service never consults the wall clock.
const retryAfterSec = 1

// Config configures a Server.
type Config struct {
	// Workers bounds concurrent simulations (<= 0 selects GOMAXPROCS, like
	// the campaign engine). Each worker runs one queued job at a time.
	Workers int
	// QueueDepth caps queued (admitted, not yet running) jobs across all
	// clients (<= 0 selects DefaultQueueDepth). Coalesced requests and
	// memory hits do not consume depth.
	QueueDepth int
	// DrainTimeout bounds the graceful drain in ListenAndServeContext.
	// Zero waits indefinitely for in-flight jobs; past the deadline,
	// remaining jobs are cancelled.
	DrainTimeout time.Duration
	// OnListen, when non-nil, is invoked with the bound address before
	// serving begins — how `scalesim serve` publishes an ephemeral port.
	OnListen func(net.Addr)
}

// flight is one in-flight design point. Requests for the same key wait on
// done; the worker that runs the job publishes the outcome and closes it.
type flight struct {
	done chan struct{}
	oc   scalesim.JobOutcome
}

// Server coalesces, queues, and executes jobs. Construct with New, start
// workers with Start, and stop with Drain. HTTP transport is layered on
// top via Handler / ListenAndServeContext.
type Server struct {
	backend Backend
	queue   *admitQueue
	workers int

	draining atomic.Bool // read lock-free by the hit path

	mu        sync.Mutex
	inflight  map[string]*flight // job key -> flight queued or running
	coalesced int                // requests served by attaching to a flight

	wg sync.WaitGroup
}

// New assembles a Server over backend. Start must be called before any
// Submit can complete.
func New(backend Backend, cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	return &Server{
		backend:  backend,
		queue:    newAdmitQueue(cfg.QueueDepth),
		workers:  cfg.Workers,
		inflight: make(map[string]*flight),
	}
}

// Start launches the worker pool. Workers run jobs under ctx — it should
// span the server's lifetime, not any single request, so a disconnecting
// requester never cancels a computation other requests coalesced onto.
func (s *Server) Start(ctx context.Context) {
	for i := 0; i < s.workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.work(ctx)
		}()
	}
}

// work drains the admission queue until it is closed and empty.
func (s *Server) work(ctx context.Context) {
	for {
		t, ok := s.queue.dequeue()
		if !ok {
			return
		}
		oc := s.backend.Run(ctx, t.prep)
		// Unregister before resolving so a request arriving after this
		// point runs through the backend (memory tier) rather than
		// attaching to a completed flight.
		s.mu.Lock()
		delete(s.inflight, t.prep.Key())
		s.mu.Unlock()
		t.fl.oc = oc
		close(t.fl.done)
	}
}

// Submit runs one job to completion on the caller's behalf: answer a
// landed key from the memory tier at once, coalesce onto an identical
// in-flight job, or admit it under the client's identity and wait. The
// returned error is an admission failure (ErrQueueFull, ErrDraining, ctx
// cancellation); job-level failures — an invalid spec, a simulation error —
// are reported inside the outcome, like batch campaigns do.
func (s *Server) Submit(ctx context.Context, client string, job scalesim.CampaignJob) (scalesim.JobOutcome, error) {
	prep, oc, answered := s.prepare(job)
	if answered {
		return oc, nil
	}
	return s.queued(ctx, client, prep)
}

// prepare prepares job and answers it there if it can: a spec the backend
// refuses, or a landed key, from the backend's memory tier, on the caller's
// goroutine and under no server lock — nothing is queued, so nothing can be
// shed. Otherwise it returns the prepared job for queued. A draining server
// looks nothing up: every job it is sent goes on to admit, which refuses it.
func (s *Server) prepare(job scalesim.CampaignJob) (_ Prepared, _ scalesim.JobOutcome, answered bool) {
	prep, err := s.backend.Prepare(job)
	if err != nil {
		return nil, scalesim.JobOutcome{Err: err}, true
	}
	if !s.draining.Load() {
		if oc, ok := s.backend.Lookup(prep); ok {
			return nil, oc, true
		}
	}
	return prep, scalesim.JobOutcome{}, false
}

// queued runs a job the memory tier did not answer through admission: it
// coalesces onto a flight or enqueues a new one, then waits for it.
func (s *Server) queued(ctx context.Context, client string, prep Prepared) (scalesim.JobOutcome, error) {
	fl, coalesced, err := s.admit(client, prep)
	if err != nil {
		return scalesim.JobOutcome{}, err
	}
	return s.await(ctx, fl, coalesced)
}

// admit is the queued path's whole critical section: refuse while
// draining, attach to an identical in-flight job (coalesced), or enqueue a
// new flight under the client's identity.
func (s *Server) admit(client string, prep Prepared) (_ *flight, coalesced bool, _ error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return nil, false, fmt.Errorf("server: %w", ErrDraining)
	}
	if fl, ok := s.inflight[prep.Key()]; ok {
		// Coalesce: attach to the flight instead of consuming queue
		// depth. Counted at attach time, so stats reflect waiters the
		// moment they join.
		s.coalesced++
		return fl, true, nil
	}
	fl := &flight{done: make(chan struct{})}
	if err := s.queue.enqueue(client, &task{prep: prep, fl: fl}); err != nil {
		return nil, false, err
	}
	// Register only after successful admission, inside the same critical
	// section: a follower can never attach to a flight that was shed.
	s.inflight[prep.Key()] = fl
	return fl, false, nil
}

// await blocks until the flight resolves or ctx is cancelled. Coalesced
// waiters re-label the outcome: the result came from someone else's run.
func (s *Server) await(ctx context.Context, fl *flight, coalesced bool) (scalesim.JobOutcome, error) {
	select {
	case <-fl.done:
	case <-ctx.Done():
		// The flight itself keeps running: other requests may be waiting
		// on it, and its result still lands in the memo tiers.
		return scalesim.JobOutcome{Err: ctx.Err()}, ctx.Err()
	}
	oc := fl.oc
	if coalesced {
		oc.Source = scalesim.SourceCoalesced
		oc.CacheHit = true
	}
	return oc, nil
}

// Drain stops admission and blocks until every queued and in-flight job
// has finished and every worker has exited. Safe to call more than once.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.queue.close()
	s.wg.Wait()
}

// Draining reports whether shutdown has begun.
func (s *Server) Draining() bool {
	return s.draining.Load()
}

// Stats merges the backend's counters with admission-level coalescing:
// requests served by attaching to an in-flight job never reach the
// backend, so the server accounts for them here. The result reads like
// batch CampaignStats — Jobs counts every request served.
func (s *Server) Stats() scalesim.CampaignStats {
	st := s.backend.Stats()
	s.mu.Lock()
	st.Jobs += s.coalesced
	st.CoalescedHits += s.coalesced
	s.mu.Unlock()
	return st
}

// ListenAndServeContext builds a Server over backend, binds addr, and
// serves until ctx is cancelled, then drains gracefully: admission stops
// (healthz reports draining, new jobs get 503), queued and in-flight jobs
// finish — bounded by cfg.DrainTimeout — and their results persist to the
// backend's store before the function returns. There is no context-free
// twin: a daemon is stopped by cancelling ctx.
func ListenAndServeContext(ctx context.Context, addr string, backend Backend, cfg Config) error {
	s := New(backend, cfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", addr, err)
	}
	if cfg.OnListen != nil {
		cfg.OnListen(ln.Addr())
	}

	// Workers outlive ctx: cancelling ctx triggers the drain, and the
	// drain must be able to finish in-flight jobs. hardStop is the
	// post-timeout abort path.
	workCtx, hardStop := context.WithCancel(context.WithoutCancel(ctx))
	defer hardStop()
	s.Start(workCtx)

	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		errc <- hs.Serve(ln)
	}()

	select {
	case err = <-errc:
		// The listener failed outright; abort workers and fall through to
		// the drain so every flight still resolves.
		hardStop()
	case <-ctx.Done():
		// Graceful drain: refuse new jobs, wait for connections whose
		// requests are riding in-flight flights, bounded by DrainTimeout.
		s.draining.Store(true)
		shutCtx := context.WithoutCancel(ctx)
		if cfg.DrainTimeout > 0 {
			var cancel context.CancelFunc
			shutCtx, cancel = context.WithTimeout(shutCtx, cfg.DrainTimeout)
			defer cancel()
		}
		if serr := hs.Shutdown(shutCtx); serr != nil {
			// Deadline passed: cut remaining connections and cancel
			// whatever is still simulating.
			hs.Close()
			hardStop()
			err = fmt.Errorf("server: drain incomplete: %w", serr)
		}
	}
	s.Drain()
	wg.Wait()
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}
