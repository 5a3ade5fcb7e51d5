package scalesim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// What a refused input is part of, and so which entries take it: options
// reach every entry, a machine every entry that takes one, a mix only the
// entries that run one (SimulateParallelContext runs a thread per core).
const (
	ofOptions = iota
	ofMachine
	ofMix
)

// mixOf is a homogeneous mix: n copies of name.
func mixOf(name string, n int) []string {
	mix := make([]string, n)
	for i := range mix {
		mix[i] = name
	}
	return mix
}

// TestDoorRefusesWhatCannotRun holds newJob, the one door from a public design
// point to a job, at every public entry that builds one. Each input below is
// one the simulator cannot run or would run under a second name — before the
// door they panicked in the machine's construction, hung a worker, ran the
// default machine or scale under another key, or failed with an unclassified
// error — and every entry must refuse it with an error wrapping ErrBadSpec
// (an unknown enumeration value: its ErrUnknown*), well inside the deadline
// rather than at it.
func TestDoorRefusesWhatCannotRun(t *testing.T) {
	good := CampaignJob{Machine: MachineSpec{Cores: 1}, Benchmarks: []string{"mcf"}, Options: tinyOptions()}
	options := func(edit func(*SimOptions)) CampaignJob {
		j := good
		edit(&j.Options)
		return j
	}
	machine := func(m MachineSpec, programs int) CampaignJob {
		j := good
		j.Machine, j.Benchmarks = m, mixOf("mcf", programs)
		return j
	}
	// custom runs one valid custom profile as edited: a non-finite number
	// passes every comparison a NaN takes part in, and a negative skew
	// reaches the Zipf sampler, which panics on it.
	custom := func(edit func(*Profile)) CampaignJob {
		p := Profile{Name: "custom", BaseCPI: 1, LoadsPerKI: 100, BranchesPerKI: 100, MLP: 2,
			StaticBranches: 16, HardBranchFrac: 0.1, CodeBytes: 1 << 16,
			Regions: []Region{{SizeBytes: 1 << 20, Frac: 0.5, Pattern: PatternZipf, ZipfS: 1}, {SizeBytes: 1 << 20, Frac: 0.5, Pattern: PatternSeq}}}
		edit(&p)
		j := good
		j.Benchmarks, j.Extra = []string{p.Name}, []Profile{p}
		return j
	}
	hollow := custom(func(p *Profile) { p.Regions = p.Regions[1:] }) // its regions cover half its accesses
	// A negative skew as JSON carries it to scalesim serve: the job of
	// FuzzPrepareJobRequest's negative-zipf-skew request, decoded as strictly.
	var wire CampaignJob
	dec := json.NewDecoder(strings.NewReader(`{"machine":{"Cores":1},"benchmarks":["skew"],"options":{"Instructions":60000,"Warmup":20000,"CapacityScale":32,"Seed":1},` +
		`"profiles":[{"Name":"skew","BaseCPI":1,"LoadsPerKI":100,"MLP":2,"Regions":[{"SizeBytes":1048576,"Frac":1,"Pattern":"zipf","ZipfS":-1}]}]}`))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wire); err != nil {
		t.Fatal(err)
	}
	nan, inf := math.NaN(), math.Inf(1)

	cases := []struct {
		name string
		of   int
		job  CampaignJob
		want error // nil: ErrBadSpec
	}{
		{"EpochCycles=-5", ofOptions, options(func(o *SimOptions) { o.EpochCycles = -5 }), nil},
		{"EpochCycles=NaN", ofOptions, options(func(o *SimOptions) { o.EpochCycles = math.NaN() }), nil},
		{"EpochCycles=+Inf", ofOptions, options(func(o *SimOptions) { o.EpochCycles = math.Inf(1) }), nil},
		{"CapacityScale=-4", ofOptions, options(func(o *SimOptions) { o.CapacityScale = -4 }), nil},
		// 64 L1-D sets / 3 = 21 and / 6 = 10: no power of two, so NewLevel
		// would refuse the run only once it starts.
		{"CapacityScale=3", ofMachine, options(func(o *SimOptions) { o.CapacityScale = 3 }), nil},
		{"CapacityScale=6", ofMachine, options(func(o *SimOptions) { o.CapacityScale = 6 }), nil},
		{"DRAMPerCoreGBps=-4", ofMachine, machine(MachineSpec{Cores: 1, DRAMPerCoreGBps: -4}, 1), nil},
		// A KB count whose bytes wrap to 0 would run the default slice.
		{"LLCPerCoreKB=1<<54", ofMachine, machine(MachineSpec{Cores: 1, LLCPerCoreKB: 1 << 54}, 1), nil},
		{"LLCPerCoreKB=-(1<<54)", ofMachine, machine(MachineSpec{Cores: 1, LLCPerCoreKB: -(1 << 54)}, 1), nil},
		{"custom-cores=0", ofMachine, machine(MachineSpec{Cores: 0, DRAMPerCoreGBps: 4}, 1), nil},
		{"custom-cores=3", ofMachine, machine(MachineSpec{Cores: 3, DRAMPerCoreGBps: 4}, 3), nil},
		{"custom-cores=64", ofMachine, machine(MachineSpec{Cores: 64, DRAMPerCoreGBps: 4}, 64), nil},
		// An enumeration is checked on every machine, not only where it is used.
		{"target-bogus-bandwidth", ofMachine, machine(MachineSpec{Cores: 32, Policy: PolicyTarget, Bandwidth: "bogus"}, 32), ErrUnknownBandwidth},
		{"custom-bogus-policy", ofMachine, machine(MachineSpec{Cores: 4, Policy: "bogus", DRAMPerCoreGBps: 4}, 4), ErrUnknownPolicy},
		{"two-programs-one-core", ofMix, machine(MachineSpec{Cores: 1}, 2), nil},
		{"invalid-custom-profile", ofMix, hollow, nil},
		{"ZipfS=-1", ofMix, custom(func(p *Profile) { p.Regions[0].ZipfS = -1 }), nil},
		{"ZipfS=-1-on-the-wire", ofMix, wire, nil},
		{"ZipfS=+Inf", ofMix, custom(func(p *Profile) { p.Regions[0].ZipfS = inf }), nil},
		{"ZipfS=NaN", ofMix, custom(func(p *Profile) { p.Regions[0].ZipfS = nan }), nil},
		{"Frac=NaN", ofMix, custom(func(p *Profile) { p.Regions[1].Frac = nan }), nil},
		{"MLP=NaN", ofMix, custom(func(p *Profile) { p.MLP = nan }), nil},
		{"MLP=+Inf", ofMix, custom(func(p *Profile) { p.MLP = inf }), nil},
		{"BaseCPI=NaN", ofMix, custom(func(p *Profile) { p.BaseCPI = nan }), nil},
		{"BaseCPI=+Inf", ofMix, custom(func(p *Profile) { p.BaseCPI = inf }), nil},
		{"HardBranchFrac=NaN", ofMix, custom(func(p *Profile) { p.HardBranchFrac = nan }), nil},
		// Negative counts whose sums pass: 1500 loads never fit the schedule.
		{"StoresPerKI=-600", ofMix, custom(func(p *Profile) { p.LoadsPerKI, p.StoresPerKI = 1500, -600 }), nil},
		{"BranchesPerKI=-300", ofMix, custom(func(p *Profile) { p.LoadsPerKI, p.BranchesPerKI = 1200, -300 }), nil},
	}
	prepare := func(_ context.Context, j CampaignJob) error {
		svc, err := NewService(ServiceConfig{})
		if err != nil {
			return err
		}
		defer svc.Close()
		_, err = svc.Prepare(j)
		return err
	}
	entries := []struct {
		name  string
		takes int // the widest kind of input the entry takes
		run   func(context.Context, CampaignJob) error
	}{
		{"SimulateContext", ofMix, func(ctx context.Context, j CampaignJob) error {
			_, err := SimulateContext(ctx, j.Machine, j.Benchmarks, j.Options, j.Extra...)
			return err
		}},
		{"SimulateParallelContext", ofMachine, func(ctx context.Context, j CampaignJob) error {
			_, err := SimulateParallelContext(ctx, j.Machine, "par.stream", j.Options)
			return err
		}},
		{"Service.Prepare", ofMix, prepare},
		{"RunCampaign", ofMix, func(ctx context.Context, j CampaignJob) error {
			res, err := RunCampaignContext(ctx, ServiceConfig{}, []CampaignJob{j})
			if err != nil {
				return err
			}
			if st := res.Stats; st.UniqueRuns != 0 || st.Failures != 1 {
				return fmt.Errorf("a refused job was run: %s", st)
			}
			return res.Outcomes[0].Err
		}},
		{"NewExperiments", ofOptions, func(_ context.Context, j CampaignJob) error {
			ex, err := NewExperiments(j.Options)
			if err == nil {
				ex.Close()
			}
			return err
		}},
	}
	for _, e := range entries {
		for _, c := range cases {
			if c.of > e.takes {
				continue
			}
			t.Run(e.name+"/"+c.name, func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				defer cancel()
				want := c.want
				if want == nil {
					want = ErrBadSpec
				}
				if err := e.run(ctx, c.job); !errors.Is(err, want) {
					t.Fatalf("err = %v, want %v", err, want)
				}
			})
		}
	}
	// An LLC whose sets take gigabytes — 16 GiB a slice, ≈ 2 GiB of set words
	// at CapacityScale 32 — is asked only of Prepare, which keys without
	// running: through an entry that runs, a door that let it pass would
	// allocate them.
	t.Run("Service.Prepare/LLCPerCoreKB=1<<24", func(t *testing.T) {
		if err := prepare(context.Background(), machine(MachineSpec{Cores: 32, LLCPerCoreKB: 1 << 24}, 32)); !errors.Is(err, ErrBadSpec) {
			t.Fatalf("err = %v, want %v", err, ErrBadSpec)
		}
	})
}
