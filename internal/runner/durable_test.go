package runner

import (
	"context"
	"errors"
	"os"
	"reflect"
	"sync/atomic"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/sim"
	"scalesim/internal/store"
)

// openStore opens a real store in a temp dir for engine integration tests.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestStoreTierDiskHit pins the second memoization tier: a fresh engine
// sharing a store directory with a previous one serves the job from disk
// without invoking the simulator, and counts it as a disk hit.
func TestStoreTierDiskHit(t *testing.T) {
	dir := t.TempDir()
	e1, calls1 := countingEngine(1, 0)
	e1.SetStore(openStore(t, dir))
	first := e1.Run(context.Background(), job(3))
	if first.Err != nil || first.Source != SourceCompute {
		t.Fatalf("first run: %+v", first)
	}
	if calls1.Load() != 1 {
		t.Fatalf("first engine: %d simulator calls, want 1", calls1.Load())
	}

	// Fresh engine, empty memory cache, same store directory.
	e2, calls2 := countingEngine(1, 0)
	e2.SetStore(openStore(t, dir))
	oc := e2.Run(context.Background(), job(3))
	if oc.Err != nil {
		t.Fatal(oc.Err)
	}
	if oc.Source != SourceDisk || !oc.CacheHit {
		t.Fatalf("second engine outcome = %+v, want SourceDisk cache hit", oc)
	}
	if calls2.Load() != 0 {
		t.Fatalf("second engine invoked the simulator %d times, want 0", calls2.Load())
	}
	if !reflect.DeepEqual(oc.Result, first.Result) {
		t.Errorf("disk-served result differs from computed result:\n got %+v\nwant %+v", oc.Result, first.Result)
	}
	s := e2.Stats()
	if s.Jobs != 1 || s.DiskHits != 1 || s.UniqueRuns != 0 || s.CacheHits != 0 {
		t.Fatalf("stats %+v, want 1 job / 1 disk hit / 0 unique runs", s)
	}
	if s.HitRate() != 1 {
		t.Fatalf("HitRate = %v, want 1 (disk hits count)", s.HitRate())
	}

	// Re-running within the second engine is now a memory hit: the disk
	// tier populated the in-memory map.
	again := e2.Run(context.Background(), job(3))
	if again.Source != SourceMemory {
		t.Fatalf("third run source = %q, want memory", again.Source)
	}
}

// TestStoreCorruptionRecompute pins quarantine-and-recompute: a damaged
// artifact never surfaces an error to the caller — the job recomputes, the
// corruption is counted, and the store heals with a fresh artifact.
func TestStoreCorruptionRecompute(t *testing.T) {
	dir := t.TempDir()
	e1, _ := countingEngine(1, 0)
	st1 := openStore(t, dir)
	e1.SetStore(st1)
	if oc := e1.Run(context.Background(), job(5)); oc.Err != nil {
		t.Fatal(oc.Err)
	}

	// Truncate the single artifact on disk.
	key := job(5).Key()
	path := artifactPath(t, dir, key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	e2, calls2 := countingEngine(1, 0)
	e2.SetStore(openStore(t, dir))
	oc := e2.Run(context.Background(), job(5))
	if oc.Err != nil {
		t.Fatalf("corruption leaked to the caller: %v", oc.Err)
	}
	if oc.Source != SourceCompute || calls2.Load() != 1 {
		t.Fatalf("corrupt artifact not recomputed: source=%q calls=%d", oc.Source, calls2.Load())
	}
	if s := e2.Stats(); s.StoreCorrupt != 1 || s.DiskHits != 0 {
		t.Fatalf("stats %+v, want StoreCorrupt=1 DiskHits=0", s)
	}
	if info, err := store.Check(dir); err != nil || info.Quarantined != 1 {
		t.Fatalf("store.Check = (%+v, %v), want Quarantined=1", info, err)
	}
	// The recompute re-saved a clean artifact: a third engine disk-hits.
	e3, calls3 := countingEngine(1, 0)
	e3.SetStore(openStore(t, dir))
	if oc := e3.Run(context.Background(), job(5)); oc.Source != SourceDisk || calls3.Load() != 0 {
		t.Fatalf("store did not heal after recompute: source=%q calls=%d err=%v", oc.Source, calls3.Load(), oc.Err)
	}
}

// artifactPath finds the single artifact for key in a store directory.
func artifactPath(t *testing.T, dir, key string) string {
	t.Helper()
	path := dir + "/objects/" + key[:2] + "/" + key + ".json"
	if _, err := os.Lstat(path); err != nil {
		t.Fatalf("artifact for %s not at %s: %v", key, path, err)
	}
	return path
}

// recordingStore wraps calls so tests can assert the journaling protocol.
type recordingStore struct {
	ops []string
}

func (r *recordingStore) Load(key string) (*sim.Result, bool, error) {
	r.ops = append(r.ops, "load")
	return nil, false, nil
}
func (r *recordingStore) Begin(key string) error { r.ops = append(r.ops, "begin"); return nil }
func (r *recordingStore) Save(key string, res *sim.Result) error {
	r.ops = append(r.ops, "save")
	return nil
}
func (r *recordingStore) Fail(key string) error { r.ops = append(r.ops, "fail"); return nil }

// TestStoreProtocol pins the lifecycle the engine journals: load→begin→save
// on success, load→begin→fail on a deterministic failure, and no fail
// record on cancellation (a killed job must replay as interrupted).
func TestStoreProtocol(t *testing.T) {
	ctx := context.Background()

	e, _ := countingEngine(1, 0)
	rec := &recordingStore{}
	e.SetStore(rec)
	if oc := e.Run(ctx, job(1)); oc.Err != nil {
		t.Fatal(oc.Err)
	}
	if want := []string{"load", "begin", "save"}; !reflect.DeepEqual(rec.ops, want) {
		t.Errorf("success ops = %v, want %v", rec.ops, want)
	}

	e2 := New(1)
	rec2 := &recordingStore{}
	e2.SetStore(rec2)
	e2.SetRunFunc(func(context.Context, *config.SystemConfig, sim.Workload, sim.Options) (*sim.Result, error) {
		return nil, errors.New("deterministic model error")
	})
	if oc := e2.Run(ctx, job(1)); !errors.Is(oc.Err, ErrJobFailed) {
		t.Fatalf("err = %v, want ErrJobFailed", oc.Err)
	}
	if want := []string{"load", "begin", "fail"}; !reflect.DeepEqual(rec2.ops, want) {
		t.Errorf("failure ops = %v, want %v", rec2.ops, want)
	}

	e3 := New(1)
	rec3 := &recordingStore{}
	e3.SetStore(rec3)
	cctx, cancel := context.WithCancel(ctx)
	e3.SetRunFunc(func(ctx context.Context, _ *config.SystemConfig, _ sim.Workload, _ sim.Options) (*sim.Result, error) {
		cancel()
		return nil, ctx.Err()
	})
	if oc := e3.Run(cctx, job(1)); !errors.Is(oc.Err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", oc.Err)
	}
	if want := []string{"load", "begin"}; !reflect.DeepEqual(rec3.ops, want) {
		t.Errorf("cancellation ops = %v, want %v (no fail: job must replay as interrupted)", rec3.ops, want)
	}
}

// TestDeterministicErrorNotRetried: a plain simulation error is a pure
// function of the design point — retrying cannot change it, so the engine
// must not.
func TestDeterministicErrorNotRetried(t *testing.T) {
	e := New(1)
	var calls atomic.Int64
	modelErr := errors.New("negative cache capacity")
	e.SetRunFunc(func(context.Context, *config.SystemConfig, sim.Workload, sim.Options) (*sim.Result, error) {
		calls.Add(1)
		return nil, modelErr
	})
	oc := e.Run(context.Background(), job(1))
	if calls.Load() != 1 {
		t.Fatalf("deterministic error retried: %d calls", calls.Load())
	}
	if !errors.Is(oc.Err, ErrJobFailed) || !errors.Is(oc.Err, modelErr) {
		t.Fatalf("err = %v, want wrapping both ErrJobFailed and the cause", oc.Err)
	}
}
