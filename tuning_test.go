package scalesim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/runner"
	"scalesim/internal/sim"
	"scalesim/internal/trace"
)

func TestTuningValidate(t *testing.T) {
	var nilTuning *Tuning
	if err := nilTuning.Validate(); err != nil {
		t.Fatalf("nil tuning must validate: %v", err)
	}
	if err := (&Tuning{}).Validate(); err != nil {
		t.Fatalf("zero tuning must validate: %v", err)
	}
	for _, bad := range []Tuning{
		{CoreWorkers: -1},
		{CampaignWorkers: -2},
	} {
		if err := bad.Validate(); !errors.Is(err, ErrBadTuning) {
			t.Errorf("Validate(%+v) = %v, want ErrBadTuning", bad, err)
		}
	}
}

// TestBadTuningSurfaces pins where an invalid Tuning fails: before any
// simulation, wrapping ErrBadTuning, at every entry point that accepts one.
func TestBadTuningSurfaces(t *testing.T) {
	bad := &Tuning{CoreWorkers: -1}
	spec := MachineSpec{Cores: 1}
	opts := FastOptions()
	opts.Tuning = bad

	if _, err := SimulateContext(context.Background(), spec, []string{"mcf"}, opts); !errors.Is(err, ErrBadTuning) {
		t.Errorf("SimulateContext with bad tuning = %v, want ErrBadTuning", err)
	}
	if _, err := SimulateParallelContext(context.Background(), spec, "par.stream", opts); !errors.Is(err, ErrBadTuning) {
		t.Errorf("SimulateParallelContext with bad tuning = %v, want ErrBadTuning", err)
	}
	if _, err := RunCampaignContext(context.Background(), ServiceConfig{Tuning: bad}, nil); !errors.Is(err, ErrBadTuning) {
		t.Errorf("RunCampaignContext with bad campaign tuning = %v, want ErrBadTuning", err)
	}
	if _, err := NewService(ServiceConfig{Tuning: bad}); !errors.Is(err, ErrBadTuning) {
		t.Errorf("NewService with bad tuning = %v, want ErrBadTuning", err)
	}
	// A bad per-job tuning fails in that job's outcome without sinking the
	// batch.
	res, err := RunCampaignContext(context.Background(), ServiceConfig{}, []CampaignJob{
		{Machine: spec, Benchmarks: []string{"mcf"}, Options: opts},
	})
	if err != nil {
		t.Fatalf("RunCampaignContext: %v", err)
	}
	if got := res.Outcomes[0].Err; !errors.Is(got, ErrBadTuning) {
		t.Errorf("job outcome = %v, want ErrBadTuning", got)
	}
}

// TestTuningIsKeyless pins the memoization contract: two jobs differing
// only in Tuning are the same design point and share one cache key.
func TestTuningIsKeyless(t *testing.T) {
	cj := CampaignJob{Machine: MachineSpec{Cores: 2}, Benchmarks: []string{"mcf", "lbm"}, Options: FastOptions()}
	base, err := cj.job()
	if err != nil {
		t.Fatal(err)
	}
	cj.Options.Tuning = &Tuning{CoreWorkers: 8, CampaignWorkers: 3}
	alt, err := cj.job()
	if err != nil {
		t.Fatal(err)
	}
	if base.Key() != alt.Key() {
		t.Fatalf("tuning changed the cache key:\n base %s\ntuned %s", base.Key(), alt.Key())
	}
}

// TestPreparedKeyIsJobKey is the guard on keying a served job once: the key
// Prepare hands out — which RunJobContext passes to the engine in place of a
// second hash — is the key of the very job the engine runs, for every
// fixture job, with and without per-job and service-level tuning.
func TestPreparedKeyIsJobKey(t *testing.T) {
	_, durable := durabilityCampaign("")
	jobs := append(campaignJobs(), durable...)
	jobs = append(jobs, CampaignJob{
		Machine:    MachineSpec{Cores: 2, DRAMPerCoreGBps: 2.5},
		Benchmarks: []string{"mcf", "lbm"},
		Options:    tinyOptions(),
	})
	for _, tun := range []*Tuning{nil, {CoreWorkers: 2, CampaignWorkers: 1}} {
		svc, err := NewService(ServiceConfig{Tuning: tun})
		if err != nil {
			t.Fatal(err)
		}
		var ran runner.Job // what the engine handed the simulator
		svc.eng.SetRunFunc(func(_ context.Context, cfg *config.SystemConfig, wl sim.Workload, o sim.Options) (*sim.Result, error) {
			ran = runner.Job{Config: cfg, Workload: wl, Options: o}
			return &sim.Result{ConfigName: cfg.Name}, nil
		})
		seen := map[string]bool{}
		for i, job := range jobs {
			for _, jobTun := range []*Tuning{nil, {CoreWorkers: 3}} {
				job.Options.Tuning = jobTun
				p, err := svc.Prepare(job)
				if err != nil {
					t.Fatal(err)
				}
				if p.Key() != p.job.Key() {
					t.Fatalf("job %d (tuning %v): prepared key %s, but the prepared job keys to %s", i, jobTun, p.Key(), p.job.Key())
				}
				oc := svc.RunJobContext(context.Background(), p)
				if oc.Err != nil {
					t.Fatal(oc.Err)
				}
				if !seen[p.Key()] { // first sight of the design point: it was computed
					if oc.Source != SourceCompute || ran.Key() != p.Key() {
						t.Fatalf("job %d: served from %q under key %s, but the engine ran the job keyed %s", i, oc.Source, p.Key(), ran.Key())
					}
					seen[p.Key()] = true
				} else if oc.Source != SourceMemory {
					t.Fatalf("job %d (tuning %v): a repeated design point was served from %q, want memory", i, jobTun, oc.Source)
				}
			}
		}
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestParallelEpochDeterminism is the parallel-correctness gate for the
// epoch fork/join: across a seed matrix and both LLC organisations, a run
// with CoreWorkers > 1 must be byte-identical to the serial run — the same
// full-precision per-core metrics, the same contention utilisations, and
// the same JSONL telemetry bytes — however the cores fall into worker
// blocks and whoever ends up running them. It stays in -short (and therefore in
// `make check` under -race, where the race detector also vets the epoch
// barrier) because parallel epochs are the default execution mode.
func TestParallelEpochDeterminism(t *testing.T) {
	spec := MachineSpec{Cores: 4, Bandwidth: BandwidthMCFirst}
	benches := BenchmarkNames()[:4]
	variants := []struct {
		name   string
		mutate func(*SimOptions)
	}{
		{"shared-llc", func(*SimOptions) {}},
		{"partitioned", func(o *SimOptions) { o.PartitionedLLC = true }},
	}
	for _, v := range variants {
		for _, seed := range []uint64{1, 7} {
			t.Run(fmt.Sprintf("%s/seed=%d", v.name, seed), func(t *testing.T) {
				opts := FastOptions()
				opts.Instructions = 60_000
				opts.Warmup = 20_000
				opts.Trace = true
				opts.Seed = seed
				v.mutate(&opts)

				serial := opts
				serial.Tuning = &Tuning{CoreWorkers: 1}
				parallel := opts
				parallel.Tuning = &Tuning{CoreWorkers: 4}

				a := simPayload(t, spec, benches, serial)
				b := simPayload(t, spec, benches, parallel)
				if !bytes.Equal(a, b) {
					t.Errorf("parallel run diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
				}
			})
		}
	}

	// One core per worker never shares a block and never steals. Seven and
	// eight cores on 2, 3, 5, 8 and 16 workers give even and uneven blocks,
	// blocks that finish early and steal, and more workers than cores. A
	// 7-core machine is not a paper configuration: it is the 8-core scale
	// model with a core and its LLC slice taken out.
	machine := func(cores int) *config.SystemConfig {
		cfg, err := config.ScaleModel(config.Target(), 8, config.ScaleModelOptions{Policy: config.PRSFull})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cores, cfg.LLC.Slices = cores, cores
		return cfg
	}
	workerCounts := []int{2, 3, 5, 8, 16}
	for _, cores := range []int{7, 8} {
		var wl sim.Workload
		for _, name := range []string{"mcf", "exchange2", "lbm", "gcc", "povray", "milc", "leela", "xz"}[:cores] {
			wl.Profiles = append(wl.Profiles, trace.ByName(name))
		}
		run := func(workers int) *sim.Result {
			res, err := sim.RunContext(context.Background(), machine(cores), wl, sim.Options{
				Instructions: 30_000, Warmup: 10_000, EpochCycles: 10_000, CapacityScale: 16, Seed: 3,
				CoreWorkers: workers, Telemetry: &sim.TelemetryOptions{Warmup: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			res.WallClock = 0
			return res
		}
		serial := run(1)
		for _, workers := range workerCounts {
			if got := run(workers); !reflect.DeepEqual(serial, got) {
				t.Errorf("%d cores on %d workers diverged from the serial run:\nserial:   %+v\nparallel: %+v", cores, workers, serial, got)
			}
		}
	}

	// A skewed data-parallel run: threads that reach a barrier early retire
	// nothing for whole epochs while the stragglers catch up, so blocks cost
	// very different amounts and idle workers steal.
	threads := func(workers int) *sim.Result {
		opts := sim.Options{Instructions: 160_000, Warmup: 40_000, EpochCycles: 10_000, CapacityScale: 16, Seed: 3,
			CoreWorkers: workers, Telemetry: &sim.TelemetryOptions{Warmup: true}}
		res, err := sim.RunContext(context.Background(), machine(8), sim.Workload{Threads: trace.ParallelByName("par.graph")}, opts)
		if err != nil {
			t.Fatal(err)
		}
		res.WallClock = 0
		return res
	}
	serial := threads(1)
	if parallelResult(serial).Stack.Barrier == 0 {
		t.Fatal("no thread ever waited at a barrier; the skewed run does not exercise idle cores")
	}
	if got := threads(3); !reflect.DeepEqual(serial, got) {
		t.Errorf("multi-threaded run on 3 workers diverged from the serial run:\nserial:   %+v\nparallel: %+v", serial, got)
	}
}

// simPayload renders every observable of one simulation with bit-exact
// formatting: hex floats for the per-core metrics and utilisations, plus
// the raw JSONL telemetry stream.
func simPayload(t *testing.T, spec MachineSpec, benches []string, opts SimOptions) []byte {
	t.Helper()
	res, err := SimulateContext(context.Background(), spec, benches, opts)
	if err != nil {
		t.Fatalf("SimulateContext: %v", err)
	}
	var buf bytes.Buffer
	hex := func(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }
	fmt.Fprintf(&buf, "dram=%s noc=%s\n", hex(res.DRAMUtilization), hex(res.NoCUtilization))
	for i, cr := range res.Cores {
		fmt.Fprintf(&buf, "core=%d ipc=%s bw=%s mpki=%s mispred=%s\n", i,
			hex(cr.IPC), hex(cr.BWBytesPerCycle), hex(cr.LLCMPKI), hex(cr.BranchMispredictRate))
	}
	if len(res.Trace) == 0 {
		t.Fatal("traced run produced no snapshots")
	}
	if err := WriteTraceJSONL(&buf, res.Trace); err != nil {
		t.Fatalf("WriteTraceJSONL: %v", err)
	}
	return buf.Bytes()
}
