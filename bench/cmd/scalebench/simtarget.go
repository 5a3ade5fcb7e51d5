package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"scalesim"
	"scalesim/internal/xrand"
)

// sim-target32: heterogeneous 32-program mixes on the 32-core target with
// two core workers — the run scale models exist to avoid. internal/sim's
// parallel epoch path (copy-on-write LLC overlays, canonical barrier
// replay, NoC/DRAM accumulators) and cpu/cache/trace do all the work;
// api, server, runner, store, surrogate and ml do none.

const (
	targetMixes    = 12 // distinct mixes; a longer script runs them again
	targetCores    = 32
	serialRechecks = 2 // mixes re-run with one core worker in verify
)

type simTarget struct {
	e     *env
	mixes [][]string
	ops   int
	// ref holds, per mix, the first result seen; every later run of the
	// mix must equal it field for field.
	ref []*scalesim.SimResult
}

// drawMixes draws the workload's mixes from the seed. Each mix is a random
// permutation of the whole suite, topped up to 32 programs with random
// picks: mixes differ in who runs beside whom and on which tile, while the
// work per mix stays close enough across seeds for runs to be comparable.
func drawMixes(seed uint64) [][]string {
	rng := xrand.New(seed)
	names := scalesim.BenchmarkNames()
	mixes := make([][]string, targetMixes)
	for m := range mixes {
		mix := make([]string, 0, targetCores)
		for _, i := range rng.Perm(len(names)) {
			if len(mix) < targetCores {
				mix = append(mix, names[i])
			}
		}
		for len(mix) < targetCores {
			mix = append(mix, names[rng.Intn(len(names))])
		}
		rng.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
		mixes[m] = mix
	}
	return mixes
}

func setupSimTarget(ctx context.Context, e *env) (instance, error) {
	s := &simTarget{
		e:     e,
		mixes: drawMixes(e.cfg.Seed),
		ops:   e.ops(targetMixes, serialRechecks),
		ref:   make([]*scalesim.SimResult, targetMixes),
	}
	// Warm-up: the first mix once, untimed. Its result is the reference the
	// timed run of the same mix must reproduce.
	res, err := s.simulate(ctx, 0, 2)
	if err != nil {
		return nil, err
	}
	s.ref[0] = res
	return s, nil
}

func (s *simTarget) simulate(ctx context.Context, mix, coreWorkers int) (*scalesim.SimResult, error) {
	opts := s.e.cfg.Sim
	opts.Tuning = &scalesim.Tuning{CoreWorkers: coreWorkers}
	res, err := scalesim.SimulateContext(ctx, scalesim.MachineSpec{Cores: targetCores, Policy: scalesim.PolicyTarget}, s.mixes[mix], opts)
	if err != nil {
		return nil, fmt.Errorf("simulating mix %d: %w", mix, err)
	}
	return res, nil
}

func (s *simTarget) measure(ctx context.Context, p *pass, tr *tracer) error {
	start := time.Now()
	for op := 0; op < s.ops; op++ {
		mix := op % targetMixes
		sp := tr.begin("sim.simulate", 0, op+1)
		t0 := time.Now()
		res, err := s.simulate(ctx, mix, 2)
		p.lat = append(p.lat, float64(time.Since(t0))/float64(time.Millisecond))
		tr.end(sp, "")
		if err != nil {
			if ctx.Err() != nil {
				return err
			}
			p.fail("op %d: %v", op, err)
			continue
		}
		p.instr += instructions(res)
		switch {
		case !plausible(res):
			p.fail("op %d: mix %d has a non-positive or non-finite IPC", op, mix)
		case s.ref[mix] == nil:
			s.ref[mix] = res
		case !sameResult(s.ref[mix], res):
			p.fail("op %d: mix %d differs from its earlier run", op, mix)
		}
	}
	p.wall = time.Since(start)
	d := newResultDigest()
	for mix, res := range s.ref {
		if res != nil {
			d.add(fmt.Sprintf("mix%d", mix), res)
		}
	}
	p.digest = d.sum()
	script := newResultDigest()
	for _, mix := range s.mixes {
		script.text("mix", strings.Join(mix, ","))
	}
	p.script = script.sum()
	return nil
}

// verify re-runs two mixes serially: one core worker must reproduce the
// parallel result exactly.
func (s *simTarget) verify(ctx context.Context, p *pass) error {
	for mix := 0; mix < serialRechecks; mix++ {
		res, err := s.simulate(ctx, mix, 1)
		if err != nil {
			return err
		}
		if !sameResult(s.ref[mix], res) {
			p.fail("mix %d: serial result differs from the parallel one", mix)
		}
	}
	return nil
}

func (s *simTarget) close() error { return nil }
