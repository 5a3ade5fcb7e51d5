package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"

	"scalesim"
	apiv1 "scalesim/api/v1"
)

// replicaJob is a real, tiny design point — small enough to simulate in
// milliseconds, real enough to exercise the full store round trip.
func replicaJob() scalesim.CampaignJob {
	opts := scalesim.FastOptions()
	opts.Instructions = 60_000
	opts.Warmup = 20_000
	opts.Seed = 11
	return scalesim.CampaignJob{
		Machine:    scalesim.MachineSpec{Cores: 2, Bandwidth: scalesim.BandwidthMCFirst},
		Benchmarks: scalesim.BenchmarkNames()[:2],
		Options:    opts,
	}
}

// startReplica builds a real-service server over the shared store dir.
func startReplica(t *testing.T, storeDir string) (*httptest.Server, func()) {
	t.Helper()
	svc, err := scalesim.NewService(scalesim.ServiceConfig{Store: storeDir})
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	s := New(NewServiceBackend(svc), Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	stop := func() {
		ts.Close()
		s.Drain()
		cancel()
		if err := svc.Close(); err != nil {
			t.Errorf("closing service: %v", err)
		}
	}
	return ts, stop
}

// TestReplicasShareStore is the N-replica contract: a second server
// instance pointed at the first one's store directory serves the same
// design point from disk, bit-identically, without simulating.
func TestReplicasShareStore(t *testing.T) {
	storeDir := filepath.Join(t.TempDir(), "store")

	tsA, stopA := startReplica(t, storeDir)
	first := decodeOK(t, postJobs(t, tsA.URL, "a", []scalesim.CampaignJob{replicaJob()}))
	stopA()
	if oc := first.Outcomes[0]; oc.Error != "" || oc.Source != string(scalesim.SourceCompute) {
		t.Fatalf("replica A outcome = %+v, want a fresh compute", oc)
	}

	tsB, stopB := startReplica(t, storeDir)
	defer stopB()
	second := decodeOK(t, postJobs(t, tsB.URL, "b", []scalesim.CampaignJob{replicaJob()}))
	oc := second.Outcomes[0]
	if oc.Error != "" || oc.Source != string(scalesim.SourceDisk) || !oc.CacheHit {
		t.Fatalf("replica B outcome source = %q (cache hit %v), want a disk hit", oc.Source, oc.CacheHit)
	}
	if !reflect.DeepEqual(first.Outcomes[0].Result, oc.Result) {
		t.Errorf("replica B result differs from replica A:\n A: %+v\n B: %+v",
			first.Outcomes[0].Result, oc.Result)
	}
	if second.Stats.UniqueRuns != 0 || second.Stats.DiskHits != 1 {
		t.Errorf("replica B stats = %+v, want zero computes and one disk hit", second.Stats)
	}

	// /statsz agrees.
	resp, err := http.Get(tsB.URL + "/statsz")
	if err != nil {
		t.Fatalf("GET /statsz: %v", err)
	}
	stats, err := apiv1.DecodeStatsResponse(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode statsz: %v", err)
	}
	if stats.Stats.DiskHits != 1 || stats.Draining {
		t.Errorf("statsz = %+v, want one disk hit on a live server", stats)
	}
}

// TestBatchWithBadMachineKeepsServing: a request cannot take the daemon down.
// A custom machine off the core-count ladder, riding a two-job batch whose
// jobs run side by side, is refused in its own outcome (ErrBadSpec) — it
// once panicked inside the machine's construction on a bare goroutine — while
// its sibling is served, and so is the next request.
func TestBatchWithBadMachineKeepsServing(t *testing.T) {
	ts, stop := startReplica(t, "")
	defer stop()
	bad := replicaJob()
	bad.Machine = scalesim.MachineSpec{Cores: 3, DRAMPerCoreGBps: 4}
	bad.Benchmarks = []string{"mcf", "mcf", "mcf"}
	svc, err := scalesim.NewService(scalesim.ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	_, refusal := svc.Prepare(bad)
	if !errors.Is(refusal, scalesim.ErrBadSpec) {
		t.Fatalf("Prepare: err = %v, want ErrBadSpec", refusal)
	}

	resp := decodeOK(t, postJobs(t, ts.URL, "a", []scalesim.CampaignJob{bad, replicaJob()}))
	if got := resp.Outcomes[0]; got.Error != refusal.Error() || got.Result != nil || got.Source != "" {
		t.Fatalf("job 0 = %+v, want refused with %q", got, refusal)
	}
	if got := resp.Outcomes[1]; got.Error != "" || got.Result == nil {
		t.Fatalf("job 1 = %+v, want its result", got)
	}
	next := decodeOK(t, postJobs(t, ts.URL, "b", []scalesim.CampaignJob{replicaJob()}))
	if got := next.Outcomes[0]; got.Error != "" || got.Source != string(scalesim.SourceMemory) {
		t.Fatalf("next request = %+v, want a memory hit", got)
	}
}

// hitServer is a server over a real Service with n distinct replica jobs
// landed in its memory tier.
func hitServer(tb testing.TB, n int) (*Server, []scalesim.CampaignJob) {
	svc, err := scalesim.NewService(scalesim.ServiceConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	s := New(NewServiceBackend(svc), Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	s.Start(ctx)
	tb.Cleanup(func() {
		s.Drain()
		cancel()
		svc.Close()
	})
	jobs := make([]scalesim.CampaignJob, n)
	for i := range jobs {
		jobs[i] = replicaJob()
		jobs[i].Options.Seed += uint64(i)
		if oc, err := s.Submit(ctx, "setup", jobs[i]); err != nil || oc.Err != nil {
			tb.Fatalf("landing job %d: %v, %v", i, err, oc.Err)
		}
	}
	return s, jobs
}

// TestSubmitHitAllocs holds the server's share of a one-job hit — Prepare,
// the one hash, the lookup and the public outcome — to 10 allocations: no
// flight, task, channel or goroutine is made for it.
func TestSubmitHitAllocs(t *testing.T) {
	s, jobs := hitServer(t, 1)
	ctx := context.Background()
	n := testing.AllocsPerRun(100, func() {
		if oc, err := s.Submit(ctx, "a", jobs[0]); err != nil || oc.Source != scalesim.SourceMemory {
			t.Fatalf("Submit = %q, %v; want a memory hit", oc.Source, err)
		}
	})
	if n > 10 {
		t.Errorf("a one-job hit allocates %v times, want at most 10", n)
	}
}

// BenchmarkSubmitHit is the server's share of a serve-hot request below the
// HTTP layer, through a real Service, every design point already landed: one
// job through Submit, and eight through submitBatch, as a batch request
// arrives. Each job is Prepare (the one hash) and the memory-tier lookup on
// the calling goroutine; no queue, worker or goroutine is involved.
func BenchmarkSubmitHit(b *testing.B) {
	b.Run("1", func(b *testing.B) {
		s, jobs := hitServer(b, 1)
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if oc, err := s.Submit(ctx, "bench", jobs[0]); err != nil || oc.Source != scalesim.SourceMemory {
				b.Fatalf("Submit = %q, %v; want a memory hit", oc.Source, err)
			}
		}
	})
	b.Run("8", func(b *testing.B) {
		s, jobs := hitServer(b, 8)
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, oc := range s.submitBatch(ctx, "bench", jobs) {
				if oc.wire.Source != string(scalesim.SourceMemory) {
					b.Fatalf("job %d = %q, %s; want a memory hit", oc.wire.Job, oc.wire.Source, oc.wire.Error)
				}
			}
		}
	})
}
