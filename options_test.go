package scalesim

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/sim"
	"scalesim/internal/xrand"
)

// optionsCase is one generated request in two spellings: opts spells every
// field out, and its twin leaves the fields named in zeroed — which opts
// holds at their defaults — at zero.
type optionsCase struct {
	opts   SimOptions
	zeroed [4]bool // Instructions, Warmup, EpochCycles, CapacityScale
	cores  int
	bench  int  // index into the suite
	flip   bool // the twin writes the artifact and the spelled-out job reads it
}

// defaulted copies, from one SimOptions into another, each field whose zero
// value selects a default, in the order of optionsCase.zeroed.
var defaulted = [4]func(dst *SimOptions, src SimOptions){
	func(dst *SimOptions, src SimOptions) { dst.Instructions = src.Instructions },
	func(dst *SimOptions, src SimOptions) { dst.Warmup = src.Warmup },
	func(dst *SimOptions, src SimOptions) { dst.EpochCycles = src.EpochCycles },
	func(dst *SimOptions, src SimOptions) { dst.CapacityScale = src.CapacityScale },
}

func generateOptionsCase(seed uint64) optionsCase {
	rng := xrand.New(seed)
	d := DefaultOptions()
	c := optionsCase{
		opts: SimOptions{
			Instructions:   20_000 + rng.Uint64n(80_000),
			Warmup:         5_000 + rng.Uint64n(25_000),
			EpochCycles:    float64(2_000 + rng.Intn(18_000)),
			CapacityScale:  4 << rng.Intn(5),
			Seed:           rng.Uint64n(1 << 20),
			EnablePrefetch: rng.Bool(0.3),
			NoFeedback:     rng.Bool(0.2),
			PartitionedLLC: rng.Bool(0.2),
			Trace:          rng.Bool(0.2),
		},
		cores: 1 << rng.Intn(3),
		bench: rng.Intn(len(BenchmarkNames())),
		flip:  rng.Bool(0.5),
	}
	for i := range c.zeroed {
		c.zeroed[i] = rng.Bool(0.5)
	}
	c.zeroed[rng.Intn(len(c.zeroed))] = true // a case zeroes at least one field
	for i, set := range defaulted {
		if c.zeroed[i] {
			set(&c.opts, d)
		}
	}
	return c
}

// jobs returns the spelled-out job and its zero-spelled twin.
func (c optionsCase) jobs() (spelled, twin CampaignJob) {
	benches := make([]string, c.cores)
	for i := range benches {
		benches[i] = BenchmarkNames()[c.bench]
	}
	spelled = CampaignJob{Machine: MachineSpec{Cores: c.cores}, Benchmarks: benches, Options: c.opts}
	twin = spelled
	for i, set := range defaulted {
		if c.zeroed[i] {
			set(&twin.Options, SimOptions{})
		}
	}
	return spelled, twin
}

// smaller returns the case's shrinking candidates: each number that is not
// pinned to a default halved, each flag cleared, one zeroed field fewer.
func (c optionsCase) smaller() []optionsCase {
	var out []optionsCase
	add := func(edit func(*optionsCase)) {
		s := c
		edit(&s)
		if s != c {
			out = append(out, s)
		}
	}
	add(func(s *optionsCase) { s.cores = max(1, s.cores/2) })
	add(func(s *optionsCase) { s.bench /= 2 })
	add(func(s *optionsCase) { s.opts.Seed /= 2 })
	add(func(s *optionsCase) {
		s.opts.EnablePrefetch, s.opts.NoFeedback, s.opts.PartitionedLLC, s.opts.Trace = false, false, false, false
	})
	add(func(s *optionsCase) { s.flip = false })
	for i, halve := range []func(*optionsCase){
		func(s *optionsCase) { s.opts.Instructions = max(1, s.opts.Instructions/2) },
		func(s *optionsCase) { s.opts.Warmup = max(1, s.opts.Warmup/2) },
		func(s *optionsCase) { s.opts.EpochCycles = max(1, float64(int(s.opts.EpochCycles)/2)) },
		func(s *optionsCase) { s.opts.CapacityScale = max(1, s.opts.CapacityScale/2) },
	} {
		if !c.zeroed[i] {
			add(halve)
			continue
		}
		if c.zeroed != [4]bool{i == 0, i == 1, i == 2, i == 3} { // keep one
			add(func(s *optionsCase) { s.zeroed[i] = false })
		}
	}
	return out
}

// violation checks the law on one case and describes the first breach: the
// two spellings prepare to one key; in one service the second spelling is a
// memory hit on the first's run; an artifact written for one is a disk hit
// for the other in a service that shares only the store.
func (c optionsCase) violation(t *testing.T) string {
	ctx := context.Background()
	dir := t.TempDir()
	ran := 0
	service := func() *Service {
		svc, err := NewService(ServiceConfig{Tuning: &Tuning{CampaignWorkers: 1}, Store: dir})
		if err != nil {
			t.Fatal(err)
		}
		svc.eng.SetRunFunc(func(_ context.Context, cfg *config.SystemConfig, _ sim.Workload, o sim.Options) (*sim.Result, error) {
			ran++
			return &sim.Result{ConfigName: cfg.Name, Cores: []sim.CoreResult{{Instructions: o.Instructions}}}, nil
		})
		return svc
	}
	first, second := c.jobs()
	if c.flip {
		first, second = second, first
	}
	writer, reader := service(), service()
	defer writer.Close()
	defer reader.Close()
	pw, err := writer.Prepare(first)
	if err != nil {
		return err.Error()
	}
	pr, err := reader.Prepare(second)
	if err != nil {
		return err.Error()
	}
	if pw.Key() != pr.Key() {
		return fmt.Sprintf("one simulation, two keys: %s for %+v, %s for %+v", pw.Key(), first.Options, pr.Key(), second.Options)
	}
	if oc := writer.RunJobContext(ctx, pw); oc.Err != nil || oc.Source != SourceCompute {
		return fmt.Sprintf("first spelling: %q, %v", oc.Source, oc.Err)
	}
	again, err := writer.Prepare(second)
	if err != nil {
		return err.Error()
	}
	if oc := writer.RunJobContext(ctx, again); oc.Err != nil || oc.Source != SourceMemory {
		return fmt.Sprintf("second spelling in the same service: %q, %v, want a memory hit", oc.Source, oc.Err)
	}
	if oc := reader.RunJobContext(ctx, pr); oc.Err != nil || oc.Source != SourceDisk {
		return fmt.Sprintf("second spelling over the first's store: %q, %v, want a disk hit", oc.Source, oc.Err)
	}
	if ran != 1 {
		return fmt.Sprintf("%d simulations for one design point", ran)
	}
	return ""
}

// TestZeroedOptionsAreTheSpelledOutJob is the law of the one door
// (SimOptions.internal): a request that leaves Instructions, Warmup,
// EpochCycles or CapacityScale at zero is the simulation that spells the
// default out — one key, one run, one store artifact, one result. Over
// generated requests; a failing case is shrunk by halving.
func TestZeroedOptionsAreTheSpelledOutJob(t *testing.T) {
	seeds := uint64(200)
	if testing.Short() {
		seeds = 40
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		c := generateOptionsCase(seed)
		msg := c.violation(t)
		if msg == "" {
			continue
		}
		for shrunk := true; shrunk; {
			shrunk = false
			for _, s := range c.smaller() {
				if m := s.violation(t); m != "" {
					c, msg, shrunk = s, m, true
					break
				}
			}
		}
		t.Fatalf("seed %d, case shrunk to %+v: %s", seed, c, msg)
	}

	// One pair simulated both ways: the same result, wall-clock aside.
	c := generateOptionsCase(1)
	c.cores = 1
	spelled, twin := c.jobs()
	var results [2]*SimResult
	for i, job := range []CampaignJob{spelled, twin} {
		res, err := SimulateContext(context.Background(), job.Machine, job.Benchmarks, job.Options)
		if err != nil {
			t.Fatal(err)
		}
		res.WallClockSec = 0
		results[i] = res
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatalf("case %+v simulated in both spellings:\n spelled %+v\n zeroed  %+v", c, results[0], results[1])
	}
}
