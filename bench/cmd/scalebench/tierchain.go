package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"scalesim/internal/config"
	"scalesim/internal/runner"
	"scalesim/internal/sim"
	"scalesim/internal/store"
	"scalesim/internal/surrogate"
)

// The tier-chain probe assembles the lookup chain the way the Service does
// — engine, durable store, surrogate, simulator — but with a timing
// decorator around each tier, and feeds it serve-mixed's kinds of design
// point one at a time. Its spans give what each tier costs per call and
// what the engine itself adds (runner.run minus its children).

const chainFar = 16 // far points computed, and grid-adjacent points served by the model

// tierChain records spans around the tiers of one engine. Jobs run one at
// a time on the caller's goroutine, so "the current job" is a plain field.
type tierChain struct {
	tr       *tracer
	cur, req int
}

type timedStore struct {
	*store.Store
	tc *tierChain
}

func (s timedStore) Load(key string) (*sim.Result, bool, error) {
	sp := s.tc.tr.begin("store.load", s.tc.cur, s.tc.req)
	res, ok, err := s.Store.Load(key)
	tag := "miss"
	if ok {
		tag = "hit"
	}
	s.tc.tr.end(sp, tag)
	return res, ok, err
}

func (s timedStore) Begin(key string) error {
	sp := s.tc.tr.begin("store.begin", s.tc.cur, s.tc.req)
	err := s.Store.Begin(key)
	s.tc.tr.end(sp, "")
	return err
}

func (s timedStore) Save(key string, res *sim.Result) error {
	sp := s.tc.tr.begin("store.save", s.tc.cur, s.tc.req)
	err := s.Store.Save(key, res)
	s.tc.tr.end(sp, "")
	return err
}

type timedPredictor struct {
	*surrogate.Surrogate
	tc *tierChain
}

func (p timedPredictor) Predict(job runner.Job) (*sim.Result, bool) {
	tag := "untrained"
	if p.Ready() {
		tag = "reject"
	}
	sp := p.tc.tr.begin("surrogate.predict", p.tc.cur, p.tc.req)
	res, ok := p.Surrogate.Predict(job)
	if ok {
		tag = "accept"
	}
	p.tc.tr.end(sp, tag)
	return res, ok
}

func (p timedPredictor) Observe(job runner.Job, res *sim.Result) {
	was := p.Ready()
	sp := p.tc.tr.begin("surrogate.observe", p.tc.cur, p.tc.req)
	p.Surrogate.Observe(job, res)
	tag := ""
	if !was && p.Ready() {
		tag = "fit" // the observation that reached MinTrain trained the model
	}
	p.tc.tr.end(sp, tag)
}

func (tc *tierChain) simulate(ctx context.Context, cfg *config.SystemConfig, wl sim.Workload, opts sim.Options) (*sim.Result, error) {
	sp := tc.tr.begin("sim.run", tc.cur, tc.req)
	res, err := sim.RunContext(ctx, cfg, wl, opts)
	tc.tr.end(sp, "")
	return res, err
}

// run sends the jobs through the engine in order; each must be answered
// by the expected tier.
func (tc *tierChain) run(ctx context.Context, eng *runner.Engine, jobs []runner.Job, want runner.Source) error {
	for _, job := range jobs {
		tc.req++
		tc.cur = tc.tr.begin("runner.run", 0, tc.req)
		oc := eng.Run(ctx, job)
		tc.tr.end(tc.cur, string(oc.Source))
		if oc.Err != nil {
			return oc.Err
		}
		if oc.Source != want {
			return fmt.Errorf("tier chain: job %d answered by %q, want %q", tc.req, oc.Source, want)
		}
	}
	return nil
}

func probeTierChain(ctx context.Context, e *env, set func(string, float64)) (err error) {
	dir, err := e.mkTemp("tierchain")
	if err != nil {
		return err
	}
	defer func() {
		if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
			err = rerr
		}
	}()

	var grid, far, near []runner.Job
	add := func(dst *[]runner.Job, bench string, gbps float64, seed uint64) error {
		job, err := e.pointJob(bench, gbps, seed)
		*dst = append(*dst, job)
		return err
	}
	for _, b := range gridBenchmarks {
		for _, g := range gridGBps {
			if err := add(&grid, b, g, 1); err != nil {
				return err
			}
		}
	}
	untrained := untrained()
	for k := 0; k < chainFar; k++ {
		if err := add(&far, untrained[k%len(untrained)], 0, uint64(100+k)); err != nil {
			return err
		}
		if err := add(&near, gridBenchmarks[k%len(gridBenchmarks)], gridGBps[k%len(gridGBps)], uint64(200+k)); err != nil {
			return err
		}
	}

	tc := &tierChain{tr: newTracer()}
	frozen := frozenSurrogate()
	newEngine := func() (*runner.Engine, *store.Store, error) {
		st, err := store.Open(dir)
		if err != nil {
			return nil, nil, err
		}
		sur, err := surrogate.New(surrogate.Config{MinTrain: frozen.MinTrain, VarGate: frozen.VarGate, DistGate: frozen.DistGate, RefitEvery: frozen.RefitEvery})
		if err != nil {
			st.Close()
			return nil, nil, err
		}
		eng := runner.New(1)
		eng.SetStore(timedStore{st, tc})
		eng.SetPredictor(timedPredictor{sur, tc})
		eng.SetRunFunc(tc.simulate)
		return eng, st, nil
	}

	// First engine, empty store: the grid computes and trains the model;
	// far points are rejected and compute; the grid again is memory; points
	// beside the grid are served by the model.
	eng, st, err := newEngine()
	if err != nil {
		return err
	}
	for _, step := range []struct {
		jobs []runner.Job
		want runner.Source
	}{{grid, runner.SourceCompute}, {far, runner.SourceCompute}, {grid, runner.SourceMemory}, {near, runner.SourceModel}} {
		if err = tc.run(ctx, eng, step.jobs, step.want); err != nil {
			break
		}
	}
	if cerr := st.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	// The store now holds 48 artifacts, a methodology store's worth.
	var failed error
	set("store.open_ms", ms(perCall(9, 1, func(int) {
		st, err := store.Open(dir)
		if err == nil {
			err = st.Close()
		}
		if err != nil {
			failed = err
		}
	})))
	if failed != nil {
		return failed
	}

	// Second engine, same directory, empty memory: everything is a disk hit.
	eng, st, err = newEngine()
	if err != nil {
		return err
	}
	err = tc.run(ctx, eng, append(grid, far...), runner.SourceDisk)
	if cerr := st.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	info, err := store.Check(dir)
	if err != nil {
		return err
	}
	set("store.bytes_per_artifact", float64(info.Bytes)/float64(max(1, info.Artifacts)))
	set("store.corrupt", float64(info.Corrupt))

	spans := tc.tr.snapshot()
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	var self []float64
	for _, s := range spans {
		if s.Name == "runner.run" {
			self = append(self, float64(selfTime(s, children[s.ID]))/float64(time.Microsecond))
		}
	}
	set("runner.self_us_p50", median(self))
	set("store.load_us_p50", median(durations(spans, time.Microsecond, tagged("store.load", "hit"))))
	set("store.save_us_p50", median(durations(spans, time.Microsecond, named("store.save"))))
	set("store.begin_us_p50", median(durations(spans, time.Microsecond, named("store.begin"))))
	accepts := durations(spans, time.Microsecond, tagged("surrogate.predict", "accept"))
	rejects := durations(spans, time.Microsecond, tagged("surrogate.predict", "reject"))
	set("surrogate.predict_us_p50", median(accepts))
	set("surrogate.reject_us_p50", median(rejects))
	set("surrogate.accept_ratio", float64(len(accepts))/float64(max(1, len(accepts)+len(rejects))))
	set("surrogate.observe_us_p50", median(durations(spans, time.Microsecond, tagged("surrogate.observe", ""))))
	set("surrogate.fit_ms", median(durations(spans, time.Millisecond, tagged("surrogate.observe", "fit"))))
	return writeJSONL(filepath.Join(e.cfg.OutDir, fmt.Sprintf("spans-tierchain-seed%d.jsonl", e.cfg.Seed)), spans)
}
