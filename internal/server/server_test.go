package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"scalesim"
	apiv1 "scalesim/api/v1"
)

// fakePrepared keys a job by its seed, so distinct seeds are distinct
// design points.
type fakePrepared struct{ key string }

func (p fakePrepared) Key() string { return p.key }

// fakeBackend is a gated Backend: when gated, every Run announces itself
// on entered and blocks until release is closed. It has no memo tiers —
// every Run is a compute — so the number of Run calls measures exactly
// how many requests reached execution.
type fakeBackend struct {
	entered chan string   // nil: don't announce
	release chan struct{} // nil: don't block

	mu    sync.Mutex
	runs  int
	stats scalesim.CampaignStats

	opened sync.Once
}

// open releases every gated Run, now and later; safe to call more than once.
func (b *fakeBackend) open() { b.opened.Do(func() { close(b.release) }) }

// serve starts s on a test HTTP server. Cleanup opens the gate before it
// closes the server and drains s, so a test that fails while requests are
// gated fails instead of hanging in ts.Close.
func serve(t *testing.T, s *Server, fake *fakeBackend) *httptest.Server {
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Drain() })
	t.Cleanup(fake.open) // cleanups run last-in first-out: this one first
	return ts
}

func (b *fakeBackend) Prepare(job scalesim.CampaignJob) (Prepared, error) {
	if len(job.Benchmarks) > 0 && job.Benchmarks[0] == "bad" {
		return nil, fmt.Errorf("%w %q", scalesim.ErrUnknownBenchmark, "bad")
	}
	return fakePrepared{key: fmt.Sprintf("%s/%d", job.Benchmarks[0], job.Options.Seed)}, nil
}

func (b *fakeBackend) Run(ctx context.Context, p Prepared) scalesim.JobOutcome {
	b.mu.Lock()
	b.runs++
	b.stats.Jobs++
	b.stats.UniqueRuns++
	b.mu.Unlock()
	if b.entered != nil {
		b.entered <- p.Key()
	}
	if b.release != nil {
		select {
		case <-b.release:
		case <-ctx.Done():
			return scalesim.JobOutcome{Err: ctx.Err()}
		}
	}
	return scalesim.JobOutcome{
		Source: scalesim.SourceCompute,
		Result: &scalesim.SimResult{Machine: p.Key()},
	}
}

// Lookup answers nothing: the fake has no memory tier.
func (b *fakeBackend) Lookup(Prepared) (scalesim.JobOutcome, bool) {
	return scalesim.JobOutcome{}, false
}

func (b *fakeBackend) Stats() scalesim.CampaignStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

func (b *fakeBackend) runCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.runs
}

// job builds a single-job batch whose design point is determined by seed.
func job(seed uint64) scalesim.CampaignJob {
	opts := scalesim.FastOptions()
	opts.Seed = seed
	return scalesim.CampaignJob{
		Machine:    scalesim.MachineSpec{Cores: 1},
		Benchmarks: []string{"mcf"},
		Options:    opts,
	}
}

// waitUntil polls cond until it holds, failing the test after a few
// seconds. Used only to sequence test phases, never to assert outcomes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// postJobs submits a batch and returns the raw response.
func postJobs(t *testing.T, base, client string, jobs []scalesim.CampaignJob) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if err := apiv1.Encode(&buf, apiv1.NewJobRequest(client, jobs)); err != nil {
		t.Fatalf("encode request: %v", err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", &buf)
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	return resp
}

// decodeOK asserts a 200 and returns the decoded batch response.
func decodeOK(t *testing.T, resp *http.Response) *apiv1.JobResponse {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	out, err := apiv1.DecodeJobResponse(resp.Body)
	if err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return out
}

func TestQueueRoundRobinFairness(t *testing.T) {
	q := newAdmitQueue(16)
	mk := func(key string) *task { return &task{prep: fakePrepared{key: key}} }
	// Client A dumps a batch; B and C submit less. Admission order is
	// a1 a2 a3, b1, c1 c2.
	for _, it := range []struct{ client, key string }{
		{"a", "a1"}, {"a", "a2"}, {"a", "a3"}, {"b", "b1"}, {"c", "c1"}, {"c", "c2"},
	} {
		if err := q.enqueue(it.client, mk(it.key)); err != nil {
			t.Fatalf("enqueue %s: %v", it.key, err)
		}
	}
	want := []string{"a1", "b1", "c1", "a2", "c2", "a3"}
	for i, w := range want {
		tk, ok := q.dequeue()
		if !ok {
			t.Fatalf("dequeue %d: queue reported drained", i)
		}
		if got := tk.prep.Key(); got != w {
			t.Errorf("dequeue %d = %s, want %s (round-robin across clients)", i, got, w)
		}
	}
	if s := q.snapshot(); s.depth != 0 || s.clients != 0 {
		t.Errorf("drained queue snapshot = %+v, want empty", s)
	}
}

func TestQueueShedsAndCloses(t *testing.T) {
	q := newAdmitQueue(2)
	mk := func(key string) *task { return &task{prep: fakePrepared{key: key}} }
	if err := q.enqueue("a", mk("a1")); err != nil {
		t.Fatal(err)
	}
	if err := q.enqueue("b", mk("b1")); err != nil {
		t.Fatal(err)
	}
	if err := q.enqueue("c", mk("c1")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-capacity enqueue error = %v, want ErrQueueFull", err)
	}
	if s := q.snapshot(); s.shed != 1 || s.depth != 2 {
		t.Errorf("snapshot after shed = %+v, want shed=1 depth=2", s)
	}
	q.close()
	if err := q.enqueue("a", mk("a2")); !errors.Is(err, ErrDraining) {
		t.Fatalf("closed enqueue error = %v, want ErrDraining", err)
	}
	// Queued tasks still drain after close; then dequeue reports done.
	for i := 0; i < 2; i++ {
		if _, ok := q.dequeue(); !ok {
			t.Fatalf("dequeue %d after close: queue reported drained early", i)
		}
	}
	if _, ok := q.dequeue(); ok {
		t.Fatal("dequeue on drained closed queue returned a task")
	}
}

// TestCoalescingComputesOnce is the tentpole property over real HTTP: N
// identical concurrent requests cost one simulation; every other request
// reports SourceCoalesced.
func TestCoalescingComputesOnce(t *testing.T) {
	fake := &fakeBackend{entered: make(chan string, 8), release: make(chan struct{})}
	s := New(fake, Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Drain() }()

	const followers = 7
	results := make(chan *apiv1.JobResponse, followers+1)
	post := func(client string) {
		go func() {
			results <- decodeOK(t, postJobs(t, ts.URL, client, []scalesim.CampaignJob{job(1)}))
		}()
	}

	post("leader")
	<-fake.entered // the leader's job is now running (and gated)
	for i := 0; i < followers; i++ {
		post(fmt.Sprintf("tenant-%d", i))
	}
	// Every follower must be attached to the leader's flight before the
	// gate opens, or it would race completion and recompute.
	waitUntil(t, "followers to coalesce", func() bool {
		return s.Stats().CoalescedHits == followers
	})
	close(fake.release)

	bySource := map[string]int{}
	for i := 0; i < followers+1; i++ {
		resp := <-results
		if len(resp.Outcomes) != 1 {
			t.Fatalf("response has %d outcomes, want 1", len(resp.Outcomes))
		}
		oc := resp.Outcomes[0]
		if oc.Error != "" {
			t.Fatalf("job failed: %s", oc.Error)
		}
		if oc.Result == nil || oc.Result.Machine != "mcf/1" {
			t.Errorf("outcome result = %+v, want the computed result", oc.Result)
		}
		if oc.Source == string(scalesim.SourceCoalesced) && !oc.CacheHit {
			t.Errorf("coalesced outcome not marked as cache hit")
		}
		bySource[oc.Source]++
	}
	if bySource[string(scalesim.SourceCompute)] != 1 || bySource[string(scalesim.SourceCoalesced)] != followers {
		t.Errorf("sources = %v, want 1 compute and %d coalesced", bySource, followers)
	}
	if n := fake.runCount(); n != 1 {
		t.Errorf("backend ran %d times for %d identical requests, want exactly 1", n, followers+1)
	}
	st := s.Stats()
	if st.Jobs != followers+1 || st.UniqueRuns != 1 || st.CoalescedHits != followers {
		t.Errorf("server stats = %+v, want %d jobs, 1 unique, %d coalesced", st, followers+1, followers)
	}
}

// TestBatchCoalescesIntraRequest: duplicates inside one batch coalesce
// exactly like concurrent requests do.
func TestBatchCoalescesIntraRequest(t *testing.T) {
	fake := &fakeBackend{entered: make(chan string, 8), release: make(chan struct{})}
	s := New(fake, Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Drain() }()

	results := make(chan *apiv1.JobResponse, 1)
	go func() {
		results <- decodeOK(t, postJobs(t, ts.URL, "dup", []scalesim.CampaignJob{job(5), job(5)}))
	}()
	<-fake.entered // one of the two is the leader and is gated
	waitUntil(t, "the duplicate to coalesce", func() bool {
		return s.Stats().CoalescedHits == 1
	})
	close(fake.release)

	resp := <-results
	if len(resp.Outcomes) != 2 {
		t.Fatalf("batch returned %d outcomes, want 2", len(resp.Outcomes))
	}
	sources := map[string]int{}
	for _, oc := range resp.Outcomes {
		sources[oc.Source]++
	}
	if sources[string(scalesim.SourceCompute)] != 1 || sources[string(scalesim.SourceCoalesced)] != 1 {
		t.Errorf("batch sources = %v, want one compute and one coalesced", sources)
	}
	if n := fake.runCount(); n != 1 {
		t.Errorf("backend ran %d times for a duplicated batch, want 1", n)
	}
	if resp.Stats.CoalescedHits != 1 {
		t.Errorf("reported stats = %+v, want CoalescedHits=1", resp.Stats)
	}
}

// TestQueueFullReturns429: with the worker busy and the queue at
// capacity, a distinct job is shed with 429 and the constant Retry-After
// hint, in the header and in the body.
func TestQueueFullReturns429(t *testing.T) {
	fake := &fakeBackend{entered: make(chan string, 8), release: make(chan struct{})}
	s := New(fake, Config{Workers: 1, QueueDepth: 1})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	s.Start(ctx)
	ts := serve(t, s, fake)

	done := make(chan *apiv1.JobResponse, 2)
	go func() { done <- decodeOK(t, postJobs(t, ts.URL, "a", []scalesim.CampaignJob{job(1)})) }()
	<-fake.entered // job 1 occupies the only worker
	go func() { done <- decodeOK(t, postJobs(t, ts.URL, "b", []scalesim.CampaignJob{job(2)})) }()
	waitUntil(t, "job 2 to queue", func() bool { return s.queue.snapshot().depth == 1 })

	// Queue full: job 3 must be shed, not buffered.
	resp := postJobs(t, ts.URL, "c", []scalesim.CampaignJob{job(3)})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}
	apiErr, err := apiv1.DecodeErrorResponse(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode 429 body: %v", err)
	}
	if apiErr.RetryAfterSec != 1 || apiErr.Error == "" {
		t.Errorf("429 body = %+v, want retry_after_sec=1 and an error", apiErr)
	}

	fake.open()
	for i := 0; i < 2; i++ {
		if resp := <-done; resp.Outcomes[0].Error != "" {
			t.Errorf("admitted job failed: %s", resp.Outcomes[0].Error)
		}
	}
	if n := fake.runCount(); n != 2 {
		t.Errorf("backend ran %d jobs, want 2 (the shed job never ran)", n)
	}

	// The shed shows up in /statsz.
	sresp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatalf("GET /statsz: %v", err)
	}
	stats, err := apiv1.DecodeStatsResponse(sresp.Body)
	sresp.Body.Close()
	if err != nil {
		t.Fatalf("decode statsz: %v", err)
	}
	if stats.Shed != 1 || stats.QueueCapacity != 1 {
		t.Errorf("statsz = %+v, want shed=1 capacity=1", stats)
	}
}

// TestPartiallyShedBatchNamesItsShedJob: with the worker busy and room for
// one queued job, a two-job batch has one job queued and one shed. The batch
// answers 200 with the completed outcome, and the shed job's outcome carries
// the queue-full error instead of an empty source, error and result.
func TestPartiallyShedBatchNamesItsShedJob(t *testing.T) {
	fake := &fakeBackend{entered: make(chan string, 8), release: make(chan struct{})}
	s := New(fake, Config{Workers: 1, QueueDepth: 1})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	s.Start(ctx)
	ts := serve(t, s, fake)

	busy := make(chan *apiv1.JobResponse, 1)
	go func() { busy <- decodeOK(t, postJobs(t, ts.URL, "a", []scalesim.CampaignJob{job(1)})) }()
	<-fake.entered // job 1 occupies the only worker
	batch := make(chan *apiv1.JobResponse, 1)
	go func() { batch <- decodeOK(t, postJobs(t, ts.URL, "b", []scalesim.CampaignJob{job(2), job(3)})) }()
	waitUntil(t, "one batch job queued and one shed", func() bool {
		q := s.queue.snapshot()
		return q.depth == 1 && q.shed == 1
	})
	fake.open()
	<-busy

	resp := <-batch
	if len(resp.Outcomes) != 2 {
		t.Fatalf("batch returned %d outcomes, want 2", len(resp.Outcomes))
	}
	var served, shed int
	for i, oc := range resp.Outcomes {
		switch {
		case oc.Source == string(scalesim.SourceCompute) && oc.Error == "" && oc.Result != nil:
			served++
		case oc.Source == "" && oc.Result == nil && strings.Contains(oc.Error, "admission queue full"):
			shed++
		default:
			t.Errorf("outcome %d = %+v, want a computed result or the queue-full error", i, oc)
		}
	}
	if served != 1 || shed != 1 {
		t.Errorf("batch has %d served and %d shed outcomes, want one of each", served, shed)
	}
}

// TestDefaultWorkersIsGOMAXPROCS: a zero Config runs GOMAXPROCS jobs at
// once, the way the campaign engine, the -campaign-workers help text and
// the README resolve auto — not one at a time.
func TestDefaultWorkersIsGOMAXPROCS(t *testing.T) {
	const procs = 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fake := &fakeBackend{entered: make(chan string, procs+1), release: make(chan struct{})}
	s := New(fake, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)

	done := make(chan error, procs+1)
	for seed := uint64(1); seed <= procs+1; seed++ {
		seed := seed
		go func() {
			_, err := s.Submit(context.Background(), "a", job(seed))
			done <- err
		}()
	}
	// Every worker is gated inside the backend and one job is left queued
	// behind them: exactly procs run concurrently.
	waitUntil(t, "the default pool to fill", func() bool {
		return fake.runCount() == procs && s.queue.snapshot().depth == 1
	})
	close(fake.release)
	for i := 0; i < procs+1; i++ {
		if err := <-done; err != nil {
			t.Errorf("submit: %v", err)
		}
	}
	s.Drain()
	if n := fake.runCount(); n != procs+1 {
		t.Errorf("backend ran %d jobs, want %d", n, procs+1)
	}
}

// TestDrainCompletesInFlight: draining refuses new work but finishes both
// the running job and the queued one before returning.
func TestDrainCompletesInFlight(t *testing.T) {
	fake := &fakeBackend{entered: make(chan string, 8), release: make(chan struct{})}
	s := New(fake, Config{Workers: 1})
	t.Cleanup(fake.open)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)

	type result struct {
		oc  scalesim.JobOutcome
		err error
	}
	done := make(chan result, 2)
	submit := func(seed uint64) {
		go func() {
			oc, err := s.Submit(context.Background(), "a", job(seed))
			done <- result{oc, err}
		}()
	}
	submit(1)
	<-fake.entered // job 1 running
	submit(2)      // job 2 queued behind the only worker
	waitUntil(t, "job 2 to queue", func() bool { return s.queue.snapshot().depth == 1 })

	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()
	waitUntil(t, "drain to begin", s.Draining)

	if _, err := s.Submit(context.Background(), "b", job(3)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain error = %v, want ErrDraining", err)
	}

	fake.open()
	<-drained
	for i := 0; i < 2; i++ {
		r := <-done
		if r.err != nil || r.oc.Err != nil {
			t.Errorf("in-flight job did not survive the drain: %v / %v", r.err, r.oc.Err)
		}
		if r.oc.Source != scalesim.SourceCompute {
			t.Errorf("drained job source = %q, want compute", r.oc.Source)
		}
	}
	if n := fake.runCount(); n != 2 {
		t.Errorf("backend ran %d jobs through the drain, want 2", n)
	}
}

// TestGracefulShutdownOverHTTP drives the full lifecycle: cancel the serve
// context mid-request, verify new connections are refused while the
// in-flight request still completes, and the server exits cleanly.
func TestGracefulShutdownOverHTTP(t *testing.T) {
	fake := &fakeBackend{entered: make(chan string, 8), release: make(chan struct{})}
	addrs := make(chan string, 1)
	cfg := Config{Workers: 1, OnListen: func(a net.Addr) { addrs <- a.String() }}
	t.Cleanup(fake.open)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	served := make(chan error, 1)
	go func() { served <- ListenAndServeContext(ctx, "127.0.0.1:0", fake, cfg) }()
	base := "http://" + <-addrs

	// Healthy while serving.
	hresp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	health, err := apiv1.DecodeHealthResponse(hresp.Body)
	hresp.Body.Close()
	if err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	if hresp.StatusCode != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz = %d %q, want 200 ok", hresp.StatusCode, health.Status)
	}

	results := make(chan *apiv1.JobResponse, 1)
	go func() {
		results <- decodeOK(t, postJobs(t, base, "a", []scalesim.CampaignJob{job(1)}))
	}()
	<-fake.entered // the request is mid-simulation

	cancel() // SIGINT equivalent: begin the graceful drain
	waitUntil(t, "listener to close", func() bool {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			return true
		}
		resp.Body.Close()
		return false
	})

	fake.open()
	resp := <-results
	if oc := resp.Outcomes[0]; oc.Error != "" || oc.Source != string(scalesim.SourceCompute) {
		t.Errorf("in-flight request outcome = %+v, want a completed compute", oc)
	}
	if err := <-served; err != nil {
		t.Errorf("ListenAndServeContext returned %v after graceful drain, want nil", err)
	}
}

// TestBadRequestsRejected covers the strict wire boundary over HTTP.
func TestBadRequestsRejected(t *testing.T) {
	fake := &fakeBackend{}
	s := New(fake, Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Drain() }()

	for name, body := range map[string]string{
		"garbage":        `{"jobs": 12`,
		"unknown schema": `{"schema":"scalesim/api/v99","jobs":[{"machine":{"Cores":1},"benchmarks":["mcf"],"options":{}}]}`,
		"empty batch":    `{"schema":"` + apiv1.Schema + `","jobs":[]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
		apiErr, err := apiv1.DecodeErrorResponse(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Errorf("%s: 400 body does not decode: %v", name, err)
		} else if apiErr.Error == "" {
			t.Errorf("%s: 400 body carries no error", name)
		}
	}

	// A spec that passes wire validation but fails Prepare is a job-level
	// failure inside a 200, exactly like batch campaigns report it.
	resp := decodeOK(t, postJobs(t, ts.URL, "a", []scalesim.CampaignJob{
		{Machine: scalesim.MachineSpec{Cores: 1}, Benchmarks: []string{"bad"}, Options: scalesim.FastOptions()},
	}))
	if oc := resp.Outcomes[0]; oc.Error == "" || oc.Source != "" {
		t.Errorf("invalid-spec outcome = %+v, want a job-level error with no source", oc)
	}
	if fake.runCount() != 0 {
		t.Error("invalid spec reached the backend")
	}
}

// TestRequestBodyLimit stands on both sides of MaxRequestBytes: a request of
// exactly that size is served, and one whose body runs past it, as JSON or
// as trailing whitespace, is answered 413 with an ErrorResponse, without
// reaching the backend.
func TestRequestBodyLimit(t *testing.T) {
	fake := &fakeBackend{}
	s := New(fake, Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Drain() }()

	// body is a valid one-job request of exactly n bytes: the client name
	// is the padding.
	body := func(n int) *bytes.Buffer {
		encode := func(client string) *bytes.Buffer {
			var buf bytes.Buffer
			if err := apiv1.Encode(&buf, apiv1.NewJobRequest(client, []scalesim.CampaignJob{job(1)})); err != nil {
				t.Fatal(err)
			}
			return &buf
		}
		buf := encode(strings.Repeat("c", 1+n-encode("c").Len()))
		if buf.Len() != n {
			t.Fatalf("built a %d-byte body, want %d", buf.Len(), n)
		}
		return buf
	}

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", body(MaxRequestBytes))
	if err != nil {
		t.Fatal(err)
	}
	if out := decodeOK(t, resp); len(out.Outcomes) != 1 || out.Outcomes[0].Error != "" {
		t.Fatalf("request at the limit: outcomes = %+v, want one success", out.Outcomes)
	}

	// Past the limit: a longer document, and a valid one padded with
	// whitespace, which is read to its end before it is decoded.
	padded := body(MaxRequestBytes / 2)
	padded.WriteString(strings.Repeat(" ", MaxRequestBytes))
	for name, over := range map[string]*bytes.Buffer{"long": body(MaxRequestBytes + 64), "padded": padded} {
		resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", over)
		if err != nil {
			t.Fatal(err)
		}
		apiErr, err := apiv1.DecodeErrorResponse(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s request past the limit: status = %d (%+v), want 413", name, resp.StatusCode, apiErr)
		}
		if err != nil || apiErr.Error == "" {
			t.Errorf("%s: 413 body = %+v, %v; want an ErrorResponse carrying the error", name, apiErr, err)
		}
	}
	if fake.runCount() != 1 {
		t.Errorf("backend ran %d jobs, want only the request at the limit", fake.runCount())
	}
}
