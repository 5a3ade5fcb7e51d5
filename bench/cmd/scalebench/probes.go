package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"time"

	"scalesim"
	apiv1 "scalesim/api/v1"
	"scalesim/internal/branch"
	"scalesim/internal/cache"
	"scalesim/internal/config"
	"scalesim/internal/cpu"
	"scalesim/internal/dram"
	"scalesim/internal/ml"
	"scalesim/internal/noc"
	"scalesim/internal/runner"
	"scalesim/internal/sim"
	"scalesim/internal/trace"
	"scalesim/internal/units"
	"scalesim/internal/xrand"
)

// The layer probes call one public function of one layer in a fixed-count
// loop, from outside the layer. Each states what one call costs on this
// host; multiplied by the layer's calls per operation it bounds the layer's
// share of an end-to-end metric (bench/README.md has the map).

// sink keeps probe results observable so the compiler keeps the calls.
var sink uint64

const lineBytes units.Bytes = 64

// perCall reports what one call costs, in nanoseconds, when fn makes n of
// them back to back: the median over reps repetitions, after one untimed
// repetition.
func perCall(reps, n int, fn func(n int)) float64 {
	fn(n)
	ds := make([]float64, reps)
	for r := range ds {
		t0 := time.Now()
		fn(n)
		ds[r] = float64(time.Since(t0)) / float64(n)
	}
	return median(ds)
}

func us(ns float64) float64 { return ns / 1e3 }
func ms(ns float64) float64 { return ns / 1e6 }

// pointJob is the engine-level form of the 1-core design points the
// serving workloads request: PRS, or a custom DRAM bandwidth when gbps is
// set.
func (e *env) pointJob(bench string, gbps float64, seed uint64) (runner.Job, error) {
	cfg, err := config.ScaleModel(config.Target(), 1, config.ScaleModelOptions{Policy: config.PRSFull})
	if gbps > 0 {
		cfg, err = config.CustomSystem(1, config.CustomOptions{DRAMPerCoreGBps: config.GBps(gbps)})
	}
	if err != nil {
		return runner.Job{}, err
	}
	prof := trace.ByName(bench)
	if prof == nil {
		return runner.Job{}, fmt.Errorf("unknown benchmark %q", bench)
	}
	o := e.pointOptions(seed)
	return runner.Job{
		Config:   cfg,
		Workload: sim.Workload{Profiles: []*trace.Profile{prof}},
		Options: sim.Options{
			Instructions: o.Instructions, Warmup: o.Warmup, EpochCycles: units.Cycles(o.EpochCycles),
			CapacityScale: o.CapacityScale, Seed: o.Seed, CoreWorkers: 1,
		},
	}, nil
}

// runProbes measures every layer probe once.
func runProbes(ctx context.Context, e *env) (map[string]metric, error) {
	out := map[string]metric{}
	set := func(name string, v float64) { out[name] = metric{Value: v, Stat: "probe"} }
	for _, probe := range []func(context.Context, *env, func(string, float64)) error{
		probeWire, probeML, probeSim, probeSubstrates, probeTierChain,
	} {
		if err := probe(ctx, e, set); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// probeWire: api/v1 decode and encode of a one-job exchange, and the
// content-addressed key of its design point.
func probeWire(ctx context.Context, e *env, set func(string, float64)) error {
	job := scalesim.CampaignJob{Machine: scalesim.MachineSpec{Cores: 1}, Benchmarks: []string{"gcc"}, Options: e.pointOptions(1)}
	var body bytes.Buffer
	if err := apiv1.Encode(&body, apiv1.NewJobRequest("probe", []scalesim.CampaignJob{job})); err != nil {
		return err
	}
	res, err := scalesim.SimulateContext(ctx, job.Machine, job.Benchmarks, job.Options)
	if err != nil {
		return err
	}
	resp := &apiv1.JobResponse{Schema: apiv1.Schema, Outcomes: []apiv1.JobOutcome{{Source: "memory", CacheHit: true, Result: res}}}
	var failed error
	set("api.decode_request_us", us(perCall(5, 2000, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := apiv1.DecodeJobRequest(bytes.NewReader(body.Bytes())); err != nil {
				failed = err
			}
		}
	})))
	set("api.encode_response_us", us(perCall(5, 2000, func(n int) {
		for i := 0; i < n; i++ {
			if err := apiv1.Encode(io.Discard, resp); err != nil {
				failed = err
			}
		}
	})))
	rj, err := e.pointJob("gcc", 0, 1)
	if err != nil {
		return err
	}
	set("runner.key_us", us(perCall(5, 2000, func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(len(rj.Key()))
		}
	})))
	return failed
}

// probeML: the three estimators on a training set shaped like the
// homogeneous protocol's — 28 rows of (IPC, bandwidth share).
func probeML(_ context.Context, _ *env, set func(string, float64)) error {
	rng := xrand.New(7)
	X := make([][]float64, 28)
	y := make([]float64, len(X))
	for i := range X {
		ipc, bw := 0.2+2.3*rng.Float64(), rng.Float64()
		X[i] = []float64{ipc, bw}
		y[i] = ipc * (1 - 0.4*bw) * (1 + 0.02*rng.NormFloat64())
	}
	var failed error
	fit := func(r ml.Regressor) func(int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				if err := r.Fit(X, y); err != nil {
					failed = err
				}
			}
		}
	}
	predict := func(r ml.Regressor) func(int) {
		return func(n int) {
			var acc float64
			for i := 0; i < n; i++ {
				acc += r.Predict(X[i%len(X)])
			}
			sink += uint64(acc)
		}
	}
	svr, forest, tree := &ml.TunedSVR{}, &ml.RandomForest{Seed: 1}, &ml.DecisionTree{}
	set("ml.svr_fit_ms", ms(perCall(5, 20, fit(svr))))
	set("ml.svr_predict_us", us(perCall(5, 20000, predict(svr))))
	set("ml.forest_fit_ms", ms(perCall(5, 5, fit(forest))))
	set("ml.forest_predict_us", us(perCall(5, 5000, predict(forest))))
	set("ml.tree_fit_ms", ms(perCall(5, 200, fit(tree))))
	return failed
}

// simulateHomogeneous times one simulation of cores copies of bench on the
// PRS ladder (the target at 32 cores).
func simulateHomogeneous(ctx context.Context, e *env, bench string, cores, coreWorkers int, telemetry bool) (*scalesim.SimResult, time.Duration, error) {
	spec := scalesim.MachineSpec{Cores: cores}
	if cores == targetCores {
		spec.Policy = scalesim.PolicyTarget
	}
	mix := make([]string, cores)
	for i := range mix {
		mix[i] = bench
	}
	opts := e.cfg.Sim
	opts.Tuning = &scalesim.Tuning{CoreWorkers: coreWorkers}
	opts.Trace = telemetry
	t0 := time.Now()
	res, err := scalesim.SimulateContext(ctx, spec, mix, opts)
	return res, time.Since(t0), err
}

// probeSim: the simulator through its public entry point. Host time per
// machine size on the serial epoch path (what methodology-cold runs), the
// parallel path at 32 cores (what sim-target32 runs), simulated MIPS at the
// two ends of memory intensity, and what epoch telemetry costs.
func probeSim(ctx context.Context, e *env, set func(string, float64)) error {
	// Small machines are quick enough to repeat; the big ones run once.
	run := func(bench string, cores, workers int) (*scalesim.SimResult, time.Duration, error) {
		reps := 1
		if cores <= 8 {
			reps = 3
		}
		var res *scalesim.SimResult
		ds := make([]float64, reps)
		for r := range ds {
			var d time.Duration
			var err error
			if res, d, err = simulateHomogeneous(ctx, e, bench, cores, workers, false); err != nil {
				return nil, 0, err
			}
			ds[r] = float64(d)
		}
		return res, time.Duration(median(ds)), nil
	}
	var serial32 time.Duration
	for _, cores := range []int{1, 2, 4, 8, 16, 32} {
		res, d, err := run("gcc", cores, 1)
		if err != nil {
			return err
		}
		set(fmt.Sprintf("sim.run_ms.c%d", cores), ms(float64(d)))
		if cores == 1 || cores == targetCores {
			set(fmt.Sprintf("sim.ns_per_instr.c%d", cores), float64(d)/float64(instructions(res)))
		}
		serial32 = d
	}
	_, parallel32, err := run("gcc", targetCores, 2)
	if err != nil {
		return err
	}
	set("sim.run_ms.c32_w2", ms(float64(parallel32)))
	set("sim.parallel_speedup.c32", float64(serial32)/float64(parallel32))
	for _, m := range [][2]string{{"sim.mips.compute_bound", "exchange2"}, {"sim.mips.memory_bound", "mcf"}} {
		res, d, err := run(m[1], targetCores, 2)
		if err != nil {
			return err
		}
		set(m[0], float64(instructions(res))/d.Seconds()/1e6)
	}
	traced, _, err := simulateHomogeneous(ctx, e, "gcc", targetCores, 1, true)
	if err != nil {
		return err
	}
	set("sim.epochs.c32", float64(len(traced.Trace)))

	// Telemetry on against off at 8 cores, alternating, median of nine.
	const pairs = 9
	on, off := make([]float64, pairs), make([]float64, pairs)
	for i := 0; i < pairs; i++ {
		for _, telemetry := range []bool{i%2 == 0, i%2 != 0} {
			_, d, err := simulateHomogeneous(ctx, e, "gcc", 8, 1, telemetry)
			if err != nil {
				return err
			}
			if telemetry {
				on[i] = float64(d)
			} else {
				off[i] = float64(d)
			}
		}
	}
	set("sim.telemetry_overhead_pct", 100*(median(on)/median(off)-1))
	return nil
}

// flatMemory answers every access from the L1 in one cycle: the core
// stepper's own cost with the memory system taken out. It joins the
// simulator's hot set through cpu.MemSystem, so it allocates and locks
// nothing.
type flatMemory struct{}

func (flatMemory) Load(int, uint64) cpu.MemResult {
	return cpu.MemResult{Latency: units.Cycles(1), Level: cpu.LevelL1}
}
func (flatMemory) Store(int, uint64) cpu.MemResult {
	return cpu.MemResult{Latency: units.Cycles(1), Level: cpu.LevelL1}
}
func (flatMemory) IFetch(int, uint64, bool) units.Cycles { return 0 }

// probeSubstrates: one call into each substrate of the simulator, on the
// target's geometry at the workloads' capacity scale.
func probeSubstrates(_ context.Context, e *env, set func(string, float64)) error {
	target := config.Target()
	scale := e.cfg.Sim.CapacityScale
	gen := func(bench string) (*trace.Generator, error) {
		return trace.NewGenerator(trace.ByName(bench), trace.GenOptions{CapacityScale: scale, Seed: 1})
	}
	const calls = 200_000

	for _, bench := range []string{"gcc", "mcf"} {
		g, err := gen(bench)
		if err != nil {
			return err
		}
		set("trace.next_ns."+bench, perCall(5, calls, func(n int) {
			for i := 0; i < n; i++ {
				sink += g.Next().Addr
			}
		}))
	}
	var failed error
	set("trace.new_generator_us", us(perCall(5, 200, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := gen("gcc"); err != nil {
				failed = err
			}
		}
	})))
	if failed != nil {
		return failed
	}

	g, err := gen("gcc")
	if err != nil {
		return err
	}
	core, err := cpu.New(0, target.Core, g, branch.NewTournament(), flatMemory{})
	if err != nil {
		return err
	}
	set("cpu.step_ns_per_instr", perCall(5, calls, func(n int) {
		core.Run(units.Cycles(1<<60), core.Stats.Instructions+uint64(n))
	}))

	// A branch stream as the core sees it: gcc's branches, replayed.
	var pcs []uint64
	var taken []bool
	for len(pcs) < 4096 {
		if op := g.Next(); op.Kind == trace.OpBranch {
			pcs, taken = append(pcs, op.BranchPC), append(taken, op.Taken)
		}
	}
	pred, stats := branch.NewTournament(), branch.Stats{}
	set("branch.tournament_ns", perCall(5, calls, func(n int) {
		for i := 0; i < n; i++ {
			stats.Record(pred, pcs[i%len(pcs)], taken[i%len(pcs)])
		}
	}))
	sink += stats.Mispredicts

	l1, err := cache.NewLevel(target.L1D, scale)
	if err != nil {
		return err
	}
	line := uint64(l1.LineSize())
	for i := uint64(0); i < 16; i++ {
		l1.Fill(i*line, false)
	}
	set("cache.level_hit_ns", perCall(5, calls, func(n int) {
		for i := 0; i < n; i++ {
			if l1.Access(uint64(i%16)*line, false) {
				sink++
			}
		}
	}))
	next := uint64(1 << 30)
	set("cache.level_miss_fill_ns", perCall(5, calls, func(n int) {
		for i := 0; i < n; i++ {
			next += line
			if !l1.Access(next, false) {
				l1.Fill(next, false)
			}
		}
	}))

	llc, err := cache.NewNUCA(target.LLC, scale, target.Cores)
	if err != nil {
		return err
	}
	const resident = 4096 // lines, well inside the scaled LLC
	for i := uint64(0); i < resident; i++ {
		llc.Fill(int(i)%target.Cores, i*line, false)
	}
	set("cache.nuca_access_ns", perCall(5, calls, func(n int) {
		for i := 0; i < n; i++ {
			if _, hit := llc.Access(i%target.Cores, uint64(i%resident)*line, false); hit {
				sink++
			}
		}
	}))
	overlay := cache.NewOverlay(llc)
	set("cache.overlay_access_ns", perCall(5, calls, func(n int) {
		overlay.BeginEpoch()
		for i := 0; i < n; i++ {
			if _, hit := overlay.Access(uint64(i%resident)*line, false); hit {
				sink++
			}
		}
	}))
	set("cache.overlay_begin_epoch_ns", perCall(5, calls, func(n int) {
		for i := 0; i < n; i++ {
			overlay.BeginEpoch()
		}
	}))

	mesh, err := noc.New(target.NoC, target.Core.FrequencyGHz)
	if err != nil {
		return err
	}
	var nocAcc noc.Acc
	set("noc.latency_into_ns", perCall(5, calls, func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(mesh.LatencyInto(&nocAcc, i%target.Cores, (i*7)%target.Cores, lineBytes))
		}
	}))
	mem, err := dram.New(target.DRAM, target.Core.FrequencyGHz, target.Cores)
	if err != nil {
		return err
	}
	dramAcc := mem.NewAcc()
	set("dram.access_into_ns", perCall(5, calls, func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(mem.AccessInto(dramAcc, i%target.Cores, uint64(i)*line, lineBytes, false))
		}
	}))
	return nil
}
