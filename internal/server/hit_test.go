package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"scalesim"
	apiv1 "scalesim/api/v1"
	"scalesim/internal/config"
	"scalesim/internal/runner"
	"scalesim/internal/sim"
)

// engineBackend is a Backend over a real runner.Engine, so Lookup and Run
// share the engine's memory tier and its one hit rule, with a run function
// that stands in for the simulator. A job's design point is its first
// benchmark and seed; a job whose benchmark is "slow" announces itself on
// entered and blocks until release is closed, every other job lands at once.
type engineBackend struct {
	eng     *runner.Engine
	entered chan string
	release chan struct{}
	opened  sync.Once
}

// open releases every gated run, now and later; safe to call more than once.
func (b *engineBackend) open() { b.opened.Do(func() { close(b.release) }) }

// enginePrepared is a prepared job of an engineBackend.
type enginePrepared struct {
	key string
	job runner.Job
}

func (p enginePrepared) Key() string { return p.key }

func newEngineBackend() *engineBackend {
	b := &engineBackend{eng: runner.New(1), entered: make(chan string, 8), release: make(chan struct{})}
	b.eng.SetRunFunc(func(ctx context.Context, cfg *config.SystemConfig, _ sim.Workload, _ sim.Options) (*sim.Result, error) {
		if strings.HasPrefix(cfg.Name, "slow/") {
			b.entered <- cfg.Name
			select {
			case <-b.release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return &sim.Result{ConfigName: cfg.Name}, nil
	})
	return b
}

func (b *engineBackend) Prepare(job scalesim.CampaignJob) (Prepared, error) {
	key := fmt.Sprintf("%s/%d", job.Benchmarks[0], job.Options.Seed)
	return enginePrepared{key: key, job: runner.Job{Config: &config.SystemConfig{Name: key}}}, nil
}

func (b *engineBackend) Run(ctx context.Context, p Prepared) scalesim.JobOutcome {
	ep := p.(enginePrepared)
	return publicOutcome(b.eng.RunKeyed(ctx, ep.key, ep.job))
}

func (b *engineBackend) Lookup(p Prepared) (scalesim.JobOutcome, bool) {
	oc, ok := b.eng.Lookup(p.(enginePrepared).key)
	return publicOutcome(oc), ok
}

func (b *engineBackend) Stats() scalesim.CampaignStats { return b.eng.Stats() }

// publicOutcome is the root package's conversion, as far as these tests
// read it: the result carries only its machine name.
func publicOutcome(oc runner.Outcome) scalesim.JobOutcome {
	out := scalesim.JobOutcome{Err: oc.Err, Source: oc.Source, CacheHit: oc.CacheHit, Approximate: oc.Approximate}
	if oc.Result != nil {
		out.Result = &scalesim.SimResult{Machine: oc.Result.ConfigName}
	}
	return out
}

// slowJob is a design point whose run blocks on the gate.
func slowJob(seed uint64) scalesim.CampaignJob {
	j := job(seed)
	j.Benchmarks = []string{"slow"}
	return j
}

// startEngineServer starts a server over a fresh engineBackend; cleanup
// opens the gate and drains it.
func startEngineServer(t *testing.T, cfg Config) (*Server, *engineBackend) {
	b := newEngineBackend()
	s := New(b, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	s.Start(ctx)
	t.Cleanup(func() {
		b.open()
		s.Drain()
		cancel()
	})
	return s, b
}

// land submits job and requires it to be computed.
func land(t *testing.T, s *Server, j scalesim.CampaignJob) {
	t.Helper()
	if oc, err := s.Submit(context.Background(), "setup", j); err != nil || oc.Err != nil || oc.Source != scalesim.SourceCompute {
		t.Fatalf("landing %v: %q, %v, %v", j.Benchmarks, oc.Source, err, oc.Err)
	}
}

// TestHitNeverQueued: with the only worker blocked on a slow compute and the
// queue full behind it, a landed key is still answered from memory, at once,
// without taking queue depth or being shed; it counts once in Stats, as a
// cache hit, and moves no coalescing counter.
func TestHitNeverQueued(t *testing.T) {
	s, b := startEngineServer(t, Config{Workers: 1, QueueDepth: 1})
	land(t, s, job(1))

	go s.Submit(context.Background(), "a", slowJob(2))
	<-b.entered // the only worker is blocked
	go s.Submit(context.Background(), "b", slowJob(3))
	waitUntil(t, "the queue to fill", func() bool { return s.queue.snapshot().depth == 1 })
	if _, err := s.Submit(context.Background(), "c", job(4)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("a distinct miss past a full queue: error = %v, want ErrQueueFull", err)
	}
	before, q := s.Stats(), s.queue.snapshot()

	oc, err := s.Submit(context.Background(), "d", job(1))
	if err != nil || oc.Err != nil || oc.Source != scalesim.SourceMemory || !oc.CacheHit {
		t.Fatalf("landed key = %q (hit %v), %v, %v; want a memory hit", oc.Source, oc.CacheHit, err, oc.Err)
	}
	if oc.Result == nil || oc.Result.Machine != "mcf/1" {
		t.Errorf("landed key's result = %+v, want mcf/1's", oc.Result)
	}
	if got := s.queue.snapshot(); got != q {
		t.Errorf("queue after a hit = %+v, want it untouched at %+v", got, q)
	}
	after := s.Stats()
	if after.Jobs != before.Jobs+1 || after.CacheHits != before.CacheHits+1 || after.CoalescedHits != before.CoalescedHits {
		t.Errorf("stats moved %+v → %+v, want one job and one cache hit more, coalescing unchanged", before, after)
	}
	s.mu.Lock()
	coalesced := s.coalesced
	s.mu.Unlock()
	if coalesced != 0 {
		t.Errorf("server.coalesced = %d after a hit, want 0", coalesced)
	}
}

// TestInFlightKeyIsNotAHit: a key whose compute is still running is not
// answered by the lookup; a repeat attaches to the flight and waits, and the
// lookup counts nothing on the way.
func TestInFlightKeyIsNotAHit(t *testing.T) {
	s, b := startEngineServer(t, Config{Workers: 1})
	first := make(chan scalesim.JobOutcome, 1)
	go func() { oc, _ := s.Submit(context.Background(), "a", slowJob(7)); first <- oc }()
	<-b.entered
	second := make(chan scalesim.JobOutcome, 1)
	go func() { oc, _ := s.Submit(context.Background(), "b", slowJob(7)); second <- oc }()
	waitUntil(t, "the repeat to coalesce", func() bool {
		select {
		case oc := <-second:
			t.Fatalf("a key in flight was answered (%q, result %+v) before its run landed", oc.Source, oc.Result)
		default:
		}
		return s.Stats().CoalescedHits == 1
	})
	if st := b.eng.Stats(); st.Jobs != 1 || st.CacheHits != 0 {
		t.Errorf("engine stats with the flight in the air = %+v, want the leader's one job and no hit", st)
	}
	b.open()
	for _, c := range []struct {
		oc   scalesim.JobOutcome
		want scalesim.ResultSource
	}{{<-first, scalesim.SourceCompute}, {<-second, scalesim.SourceCoalesced}} {
		if c.oc.Source != c.want || c.oc.Result == nil || c.oc.Result.Machine != "slow/7" {
			t.Errorf("outcome = %q %+v, want %q with slow/7's result", c.oc.Source, c.oc.Result, c.want)
		}
	}
}

// TestDrainRefusesHits: once the drain has begun a landed key is refused
// with 503 like any other job, and the refused lookup counts nothing.
func TestDrainRefusesHits(t *testing.T) {
	s, _ := startEngineServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	land(t, s, job(1))
	s.Drain()
	before := s.Stats()
	resp := postJobs(t, ts.URL, "a", []scalesim.CampaignJob{job(1)})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("landed key during drain: status = %d, want 503", resp.StatusCode)
	}
	if after := s.Stats(); after != before {
		t.Errorf("stats moved during drain %+v → %+v", before, after)
	}
}

// TestBatchForksOnlyForMisses: a batch's landed key is answered from memory
// while its identical misses still coalesce onto one compute.
func TestBatchForksOnlyForMisses(t *testing.T) {
	s, b := startEngineServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	land(t, s, job(1))

	results := make(chan *apiv1.JobResponse, 1)
	go func() {
		results <- decodeOK(t, postJobs(t, ts.URL, "a", []scalesim.CampaignJob{slowJob(5), job(1), slowJob(5)}))
	}()
	<-b.entered
	waitUntil(t, "the duplicate miss to coalesce", func() bool { return s.Stats().CoalescedHits == 1 })
	b.open()

	resp := <-results
	if got := resp.Outcomes[1]; got.Source != string(scalesim.SourceMemory) || got.Result == nil || got.Result.Machine != "mcf/1" {
		t.Errorf("landed job = %+v, want a memory hit with mcf/1's result", got)
	}
	sources := map[string]int{}
	for _, i := range []int{0, 2} {
		oc := resp.Outcomes[i]
		if oc.Job != i || oc.Result == nil || oc.Result.Machine != "slow/5" {
			t.Errorf("miss %d = %+v, want slow/5's result", i, oc)
		}
		sources[oc.Source]++
	}
	if sources[string(scalesim.SourceCompute)] != 1 || sources[string(scalesim.SourceCoalesced)] != 1 {
		t.Errorf("miss sources = %v, want one compute and one coalesced", sources)
	}
	if st := resp.Stats; st.Jobs != 4 || st.UniqueRuns != 2 || st.CacheHits != 1 || st.CoalescedHits != 1 {
		t.Errorf("stats = %+v, want 4 jobs: 2 computed, 1 cached, 1 coalesced", st)
	}
}

// foreignBackend wraps a backend's Prepared in its own type, as scalebench's
// traced backend does, and counts the jobs that reach Run.
type foreignBackend struct {
	Backend
	runs atomic.Int32
}

type foreignPrepared struct{ Prepared }

func (b *foreignBackend) Prepare(job scalesim.CampaignJob) (Prepared, error) {
	p, err := b.Backend.Prepare(job)
	if err != nil {
		return nil, err
	}
	return foreignPrepared{p}, nil
}

func (b *foreignBackend) Run(ctx context.Context, p Prepared) scalesim.JobOutcome {
	b.runs.Add(1)
	return b.Backend.Run(ctx, p.(foreignPrepared).Prepared)
}

// TestForeignPreparedFallsThrough: a Prepared the service backend did not
// mint is no hit there — the lookup declines instead of panicking — and the
// landed key is still answered from memory, through the queue.
func TestForeignPreparedFallsThrough(t *testing.T) {
	svc, err := scalesim.NewService(scalesim.ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	b := &foreignBackend{Backend: NewServiceBackend(svc)}
	s := New(b, Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	defer s.Drain()

	for i, want := range []scalesim.ResultSource{scalesim.SourceCompute, scalesim.SourceMemory} {
		oc, err := s.Submit(ctx, "a", replicaJob())
		if err != nil || oc.Err != nil || oc.Source != want || oc.Result == nil {
			t.Fatalf("submit %d = %q, %v, %v; want %q with a result", i, oc.Source, err, oc.Err, want)
		}
	}
	if n := b.runs.Load(); n != 2 {
		t.Errorf("%d jobs reached Run, want 2: a foreign Prepared goes through the queue", n)
	}
}
