package sim

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"scalesim/internal/config"
	"scalesim/internal/trace"
	"scalesim/internal/units"
	"scalesim/internal/xrand"
)

// lawCase is one generated machine, run and program instance for
// TestStreamIsMachineIndependent. Every machine keeps the target's private
// geometry unless vary says otherwise.
type lawCase struct {
	seed   uint64
	cores  int
	epochs int // how long the machine runs before the stream is compared
	chunks int // how many chunks are compared

	// The shared half: a scale model of the target, or a custom system.
	custom    bool
	policy    config.ScalingPolicy
	bandwidth config.BandwidthScaling
	llcSlice  config.Bytes
	dramGBps  config.GBps
	nocGBps   config.GBps

	partitioned, noFeedback bool

	// vary names the one key component a second machine changes.
	vary string
}

func (c lawCase) String() string {
	return fmt.Sprintf("seed=%d cores=%d epochs=%d chunks=%d custom=%v policy=%v bw=%v llc=%v dram=%v noc=%v partitioned=%v nofeedback=%v vary=%s",
		c.seed, c.cores, c.epochs, c.chunks, c.custom, c.policy, c.bandwidth, c.llcSlice, c.dramGBps, c.nocGBps, c.partitioned, c.noFeedback, c.vary)
}

var keyComponents = []string{"seed", "instance", "scale", "prefetch", "l1i", "l1d", "l2"}

func generateLawCase(seed uint64) lawCase {
	rng := xrand.New(seed)
	return lawCase{
		seed:        seed,
		cores:       1 << rng.Intn(6),
		epochs:      1 + rng.Intn(6),
		chunks:      64,
		custom:      rng.Bool(0.5),
		policy:      config.ScalingPolicy(rng.Intn(4)),
		bandwidth:   config.BandwidthScaling(rng.Intn(2)),
		llcSlice:    config.Bytes(256*config.KB) << rng.Intn(5),
		dramGBps:    config.GBps(1 + 15*rng.Float64()),
		nocGBps:     config.GBps(1 + 15*rng.Float64()),
		partitioned: rng.Bool(0.3),
		noFeedback:  rng.Bool(0.3),
		vary:        keyComponents[rng.Intn(len(keyComponents))],
	}
}

func (c lawCase) machine() (*config.SystemConfig, error) {
	if c.custom {
		return config.CustomSystem(c.cores, config.CustomOptions{
			LLCSlicePerCore: c.llcSlice, DRAMPerCoreGBps: c.dramGBps, NoCPerCoreGBps: c.nocGBps, Bandwidth: c.bandwidth,
		})
	}
	return config.ScaleModel(config.Target(), c.cores, config.ScaleModelOptions{Policy: c.policy, Bandwidth: c.bandwidth})
}

// reference reads the first n chunks of a program instance from a stream
// built here, from the generator up, with no key and no memo in between.
func reference(prof *trace.Profile, instance int, cfg *config.SystemConfig, opts Options, n int) ([][]uint64, error) {
	gen, err := trace.NewGenerator(prof, trace.GenOptions{Instance: instance, CapacityScale: opts.CapacityScale, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	fr, err := newFront(gen, cfg.L1I, cfg.L1D, cfg.L2, opts.CapacityScale, opts.EnablePrefetch)
	if err != nil {
		return nil, err
	}
	s, out := newStream(fr), make([][]uint64, n)
	for k := range out {
		ev, _ := s.chunk(k)
		out[k] = slices.Clone(ev)
	}
	return out, nil
}

// differs returns the first chunk of s that is not want's, or "".
func differs(s *stream, want [][]uint64) string {
	for k := range want {
		if got, _ := s.chunk(k); !slices.Equal(got, want[k]) {
			return fmt.Sprintf("chunk %d has %d events, the private stream's %d, or the same number with other words", k, len(got), len(want[k]))
		}
	}
	return ""
}

// violation runs the case and returns the first broken clause of the law,
// or "".
func (c lawCase) violation() string {
	cfg, err := c.machine()
	if err != nil {
		return err.Error()
	}
	rng := xrand.New(c.seed ^ 0x5eed)
	names := trace.Names()
	wl := Workload{Profiles: make([]*trace.Profile, c.cores)}
	for i := range wl.Profiles {
		wl.Profiles[i] = trace.ByName(names[rng.Intn(len(names))])
	}
	instance := rng.Intn(c.cores)
	opts := Options{
		Instructions: 1, Warmup: 1, EpochCycles: units.Cycles(2_000 + 1_000*rng.Intn(8)), CapacityScale: 16 << rng.Intn(2),
		Seed: c.seed, PartitionedLLC: c.partitioned, NoFeedback: c.noFeedback, EnablePrefetch: rng.Bool(0.3),
	}
	opts = opts.Resolved()
	ctx := context.Background()
	epochs := func(m *machine) error {
		limits := noLimits(make([]uint64, len(m.cores)))
		for e := 0; e < c.epochs; e++ {
			if err := m.runEpoch(ctx, opts.EpochCycles, limits); err != nil {
				return err
			}
			m.endEpoch(opts.EpochCycles)
		}
		return nil
	}

	// 1. Read through a cold memo by this machine, the stream is the private
	// stream's, word for word.
	fronts := NewFronts()
	m, err := mixMachine(fronts, cfg, wl, opts)
	if err != nil {
		return err.Error()
	}
	if err := epochs(m); err != nil {
		return err.Error()
	}
	want, err := reference(wl.Profiles[instance], instance, cfg, opts, c.chunks)
	if err != nil {
		return err.Error()
	}
	first := m.cores[instance].(*core).str
	if msg := differs(first, want); msg != "" {
		return "through a cold memo: " + msg
	}

	// 2. A second machine that changes one key component gets another
	// stream, and that one is its own private stream's.
	cfg2, opts2, wl2, instance2 := *cfg, opts, wl, instance
	switch c.vary {
	case "seed":
		opts2.Seed++
	case "instance":
		// The same program one position further: another instance of it.
		instance2 = (instance + 1) % c.cores
		wl2 = Workload{Profiles: slices.Clone(wl.Profiles)}
		wl2.Profiles[instance2] = wl.Profiles[instance]
	case "scale":
		opts2.CapacityScale *= 2
	case "prefetch":
		opts2.EnablePrefetch = !opts.EnablePrefetch
	case "l1i":
		cfg2.L1I.Size *= 2
	case "l1d":
		cfg2.L1D.Assoc /= 2
	case "l2":
		cfg2.L2.Size *= 2
	}
	if c.vary != "instance" || c.cores > 1 {
		m2, err := mixMachine(fronts, &cfg2, wl2, opts2)
		if err != nil {
			return err.Error()
		}
		if err := epochs(m2); err != nil {
			return err.Error()
		}
		second := m2.cores[instance2].(*core).str
		if second == first {
			return "a machine that differs in " + c.vary + " was handed the same stream"
		}
		want2, err := reference(wl2.Profiles[instance2], instance2, &cfg2, opts2, c.chunks)
		if err != nil {
			return err.Error()
		}
		if msg := differs(second, want2); msg != "" {
			return "after changing " + c.vary + ": " + msg
		}
	}

	// 3. Evicted by the budget and rebuilt, the stream has the same words.
	fronts.budget = 1
	fronts.mu.Lock()
	fronts.account(first, 0)
	fronts.mu.Unlock()
	if st := fronts.Stats(); st.StreamsEvicted == 0 || st.BytesRetained != 0 {
		return fmt.Sprintf("a memo over budget evicted nothing: %+v", st)
	}
	fronts.budget = frontsBudget
	m3, err := mixMachine(fronts, cfg, wl, opts)
	if err != nil {
		return err.Error()
	}
	rebuilt := m3.cores[instance].(*core).str
	if rebuilt == first {
		return "the evicted stream is still linked"
	}
	if msg := differs(rebuilt, want); msg != "" {
		return "rebuilt after eviction: " + msg
	}
	// ... and whoever still holds the unlinked one keeps reading it.
	if msg := differs(first, want); msg != "" {
		return "unlinked but still held: " + msg
	}
	return ""
}

// TestStreamIsMachineIndependent holds the law the front memo rests on
// (DESIGN.md, "Performance invariants", 7), over generated machines: the
// event stream of a program instance is a function of (profile, instance,
// seed, capacity scale, private geometry, prefetch flag) and of nothing
// else. Whatever shared half reads it — any core count, scale-model policy,
// bandwidth order, DRAM and NoC bandwidth, LLC slice size, either ablation,
// any epoch length — through a cold memo, the first 64 chunks are word for
// word those of a private stream; a machine that changes one key component
// is handed another stream; a stream evicted by the budget and rebuilt has
// the same words. A failing case is shrunk by halving.
func TestStreamIsMachineIndependent(t *testing.T) {
	seeds := uint64(60)
	if testing.Short() {
		seeds = 12
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		c := generateLawCase(seed)
		msg := c.violation()
		if msg == "" {
			continue
		}
		for shrunk := true; shrunk; {
			shrunk = false
			for _, smaller := range []lawCase{
				func() lawCase { s := c; s.cores = max(1, c.cores/2); return s }(),
				func() lawCase { s := c; s.epochs = max(1, c.epochs/2); return s }(),
				func() lawCase { s := c; s.chunks = max(1, c.chunks/2); return s }(),
			} {
				if smaller != c {
					if m := smaller.violation(); m != "" {
						c, msg, shrunk = smaller, m, true
						break
					}
				}
			}
		}
		t.Fatalf("case shrunk to %v: %s", c, msg)
	}
}

// TestFrontsSharedByConcurrentRuns is the memo under the campaign's job
// workers: machines of several sizes run the same program instances through
// one memo at once — within budget, and over it so that streams are unlinked
// under their readers — and each returns the result of a run on its own. The
// reference runs are serial and the shared ones run two epoch workers on
// any host, so that a split barrier, with a worker waiting at it, runs over
// streams other runs are reading. `make check` runs it under the race
// detector.
func TestFrontsSharedByConcurrentRuns(t *testing.T) {
	ctx, opts, prof := context.Background(), fastOpts(), trace.ByName("mcf")
	opts.Instructions, opts.Warmup = 40_000, 10_000
	sizes := []int{1, 2, 4, 2, 1, 4}
	want := map[int]*Result{}
	serial := opts
	serial.CoreWorkers, opts.CoreWorkers = 1, 2
	for _, cores := range sizes {
		if want[cores] == nil {
			res, err := Run(scaleModel(t, cores), Homogeneous(prof, cores), serial)
			if err != nil {
				t.Fatal(err)
			}
			res.WallClock = 0
			want[cores] = res
		}
	}
	for _, budget := range []int{frontsBudget, 64 << 10} {
		fronts := NewFronts()
		fronts.budget = budget
		var wg sync.WaitGroup
		for _, cores := range sizes {
			wg.Add(1)
			go func(cores int) {
				defer wg.Done()
				got, err := fronts.RunContext(ctx, scaleModel(t, cores), Homogeneous(prof, cores), opts)
				if err != nil {
					t.Error(err)
					return
				}
				got.WallClock = 0
				if !reflect.DeepEqual(got, want[cores]) {
					t.Errorf("budget %d: %d cores through the shared memo: %+v, alone: %+v", budget, cores, got.Cores, want[cores].Cores)
				}
			}(cores)
		}
		wg.Wait()
		st := fronts.Stats()
		if (st.StreamsEvicted > 0) != (budget < frontsBudget) || st.BytesRetained > budget {
			t.Errorf("budget %d: %+v", budget, st)
		}
	}
}

// TestWallClockChargesBorrowedChunks holds Result.WallClock to "what this
// run costs alone" under the memo: a 1-core run served wholly from streams a
// 2-core run produced reports the recorded production time of every chunk it
// read on top of its own elapsed time.
func TestWallClockChargesBorrowedChunks(t *testing.T) {
	ctx, opts, prof := context.Background(), fastOpts(), trace.ByName("gcc")
	fronts := NewFronts()
	// Twice the budget, so that the 1-core run's last epoch, which overshoots
	// its budget by another amount, still finds every chunk.
	longer := opts
	longer.Instructions *= 2
	if _, err := fronts.RunContext(ctx, scaleModel(t, 2), Homogeneous(prof, 2), longer); err != nil {
		t.Fatal(err)
	}
	filled := fronts.Stats()

	// The run again, by hand, to see what it borrows.
	opts = opts.Resolved()
	cfg, wl := scaleModel(t, 1), Homogeneous(prof, 1)
	m, err := mixMachine(fronts, cfg, wl, opts)
	if err != nil {
		t.Fatal(err)
	}
	limits := noLimits(make([]uint64, 1))
	for m.cores[0].stats().Instructions < opts.Warmup+opts.Instructions {
		if err := m.runEpoch(ctx, opts.EpochCycles, limits); err != nil {
			t.Fatal(err)
		}
		m.endEpoch(opts.EpochCycles)
	}
	if st := fronts.Stats(); st.ChunksProduced != filled.ChunksProduced || st.StreamsBuilt != filled.StreamsBuilt {
		t.Fatalf("the 1-core run produced chunks of its own: %+v after %+v", st, filled)
	}
	// Chunk 0's recorded cost includes the front's construction.
	c := m.cores[0].(*core)
	var want time.Duration
	for _, ch := range c.str.chunks[:c.next] {
		want += ch.cost
	}
	if got := m.borrowed(); got != want || got <= 0 {
		t.Fatalf("the run read %d chunks recorded at %v and was charged %v", c.next, want, got)
	}

	res, err := fronts.RunContext(ctx, cfg, wl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.WallClock < want {
		t.Fatalf("WallClock %v does not include the %v its borrowed chunks took to produce", res.WallClock, want)
	}
}
