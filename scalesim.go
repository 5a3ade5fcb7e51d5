// Package scalesim is an open-source implementation of scale-model
// architectural simulation (Liu, Heirman, Eyerman, Akram, Eeckhout —
// ISPASS 2022): predicting large multicore system performance by simulating
// a proportionally scaled-down model of the target system and extrapolating
// with machine learning.
//
// The package bundles everything the methodology needs, built from scratch
// on the standard library:
//
//   - a trace-driven multicore simulator (out-of-order cores, three-level
//     cache hierarchy with a shared NUCA LLC, mesh NoC, multi-controller
//     DRAM with emergent bandwidth contention) whose one run loop takes a
//     multiprogram mix or the barrier-synchronised threads of one
//     data-parallel program (the paper's §V-E6 outlook),
//   - a 29-benchmark synthetic workload suite spanning compute-bound to
//     bandwidth-saturating behaviour,
//   - scale-model construction (No Resource Scaling and Proportional
//     Resource Scaling, with MC-first/MB-first DRAM scaling),
//   - ML extrapolation (CART decision tree, random forest, RBF-kernel SVR)
//     and least-squares performance/core-count regression,
//   - a concurrent campaign engine (Campaign / RunCampaign) that executes
//     batches of design points on a worker pool with content-addressed
//     memoization,
//   - experiment drivers regenerating every table and figure in the paper.
//
// # Quick start
//
//	ex, _ := scalesim.NewExperiments(scalesim.FastOptions())
//	pred, _ := ex.PredictTargetIPC("mcf")        // from a 1-core scale model
//	fmt.Printf("predicted 32-core IPC: %.3f\n", pred)
//
// The context-aware entry points (SimulateContext, SimulateParallelContext,
// RunCampaignContext) are the preferred API: they honour cancellation and
// deadlines down to the simulator's epoch loop. The context-free wrappers
// remain for convenience; each delegates to its *Context counterpart (a
// pairing pinned by test).
//
// See the examples/ directory for complete programs and DESIGN.md for the
// architecture and the paper-to-module map.
package scalesim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"scalesim/internal/config"
	"scalesim/internal/runner"
	"scalesim/internal/sim"
	"scalesim/internal/store"
	"scalesim/internal/trace"
	"scalesim/internal/units"
)

// Sentinel errors for invalid public-API inputs. They are wrapped with
// context by the functions that return them; test with errors.Is.
var (
	// ErrUnknownPolicy reports a MachineSpec.Policy outside the Policy*
	// constants.
	ErrUnknownPolicy = errors.New("unknown scaling policy")
	// ErrUnknownBandwidth reports a bandwidth scaling order outside the
	// Bandwidth* constants.
	ErrUnknownBandwidth = errors.New("unknown bandwidth scaling")
	// ErrUnknownPattern reports a Region.Pattern outside the Pattern*
	// constants.
	ErrUnknownPattern = errors.New("unknown region pattern")
	// ErrUnknownBenchmark reports a benchmark name that is neither in the
	// suite nor among the supplied custom profiles.
	ErrUnknownBenchmark = errors.New("unknown benchmark")
	// ErrBadSpec reports a design point the simulator cannot run or would run
	// under a second name (DESIGN.md, "Serving invariants", lists them); it
	// is refused before it is keyed.
	ErrBadSpec = errors.New("invalid design point")
	// ErrUnknownSchema reports a versioned payload — a store artifact, the
	// store journal, or a JSONL trace header — whose schema tag this build
	// does not understand.
	ErrUnknownSchema = store.ErrUnknownSchema
	// ErrStoreCorrupt reports a durable-store artifact that failed
	// verification (unparseable bytes, checksum or key mismatch). During a
	// campaign this is handled internally — the artifact is quarantined
	// and the job recomputed — so it surfaces only from the offline
	// artifact API (CheckStore, ReadArtifact).
	ErrStoreCorrupt = store.ErrCorrupt
	// ErrJobFailed marks a campaign job whose one run returned an error or
	// panicked; the underlying cause remains reachable with errors.As /
	// errors.Is.
	ErrJobFailed = runner.ErrJobFailed
)

// SimOptions controls simulation fidelity and cost. A zero Instructions,
// Warmup, EpochCycles or CapacityScale selects its default, and a request
// that leaves one at zero is the same simulation — same campaign key, same
// store artifact — as one that spells the default out.
type SimOptions struct {
	// Instructions is the measured per-program instruction budget (the
	// paper's 1B-instruction SimPoint, capacity-scaled). Default 1e6.
	Instructions uint64
	// Warmup instructions per program before measurement. Default 250k.
	Warmup uint64
	// EpochCycles is the contention-feedback epoch. Default 20k.
	EpochCycles float64
	// CapacityScale divides cache capacities and workload footprints
	// (see DESIGN.md, "Substitutions", 5). Default 8.
	CapacityScale int
	// Seed makes every run reproducible. It has no default: 0 is a seed
	// like any other, and DefaultOptions and FastOptions use 1.
	Seed uint64
	// EnablePrefetch adds a per-core L2 stream/stride prefetcher (off in
	// the paper's baseline configuration).
	EnablePrefetch bool
	// NoFeedback and PartitionedLLC are contention-model ablations; see
	// DESIGN.md "Key design decisions".
	NoFeedback     bool
	PartitionedLLC bool

	// Trace collects one EpochSnapshot per measured epoch into
	// SimResult.Trace (see README "Observability" and the schema in
	// DESIGN.md). Off by default; disabled tracing adds no measurable
	// overhead, and enabling it never perturbs the simulated results.
	Trace bool
	// TraceWarmup additionally snapshots warmup epochs (requires Trace).
	TraceWarmup bool

	// Tuning holds the performance-only knobs (the worker pools). Nil means
	// auto everywhere. Tuning never changes results and is not part of the
	// campaign cache key. The field rides the wire in api/v1 as an optional
	// "tuning" object; payloads without it decode unchanged.
	Tuning *Tuning `json:"tuning,omitempty"`
}

// DefaultOptions returns the full-fidelity experiment options used for
// EXPERIMENTS.md.
func DefaultOptions() SimOptions {
	d := sim.DefaultOptions()
	return SimOptions{
		Instructions:  d.Instructions,
		Warmup:        d.Warmup,
		EpochCycles:   float64(d.EpochCycles),
		CapacityScale: d.CapacityScale,
		Seed:          d.Seed,
	}
}

// FastOptions returns reduced-budget options at roughly a fifth of the
// simulation cost, used by the examples and quick CLI runs. Against
// DefaultOptions on seeds 1–5 (EXPERIMENTS.md) they lose two verdicts on some
// seeds: Fig. 5's "SVM is best in each family" and Fig. 10's "adding
// bandwidth worsens no method".
func FastOptions() SimOptions {
	return SimOptions{
		Instructions:  200_000,
		Warmup:        60_000,
		EpochCycles:   10_000,
		CapacityScale: 16,
		Seed:          1,
	}
}

// internal is newJob's half for options: it returns resolved options
// (sim.Options.Resolved), the values that run, so what a job is keyed by,
// stored under and shown to the surrogate is what is simulated — or an error
// wrapping ErrBadTuning or ErrBadSpec for options that cannot run.
func (o SimOptions) internal() (sim.Options, error) {
	if err := o.Tuning.Validate(); err != nil {
		return sim.Options{}, err
	}
	io := sim.Options{
		Instructions:   o.Instructions,
		Warmup:         o.Warmup,
		EpochCycles:    units.Cycles(o.EpochCycles),
		CapacityScale:  o.CapacityScale,
		Seed:           o.Seed,
		EnablePrefetch: o.EnablePrefetch,
		NoFeedback:     o.NoFeedback,
		PartitionedLLC: o.PartitionedLLC,
		CoreWorkers:    o.Tuning.coreWorkers(),
	}
	if o.Trace {
		io.Telemetry = &sim.TelemetryOptions{Warmup: o.TraceWarmup}
	}
	io = io.Resolved()
	if !(io.EpochCycles > 0) || math.IsInf(float64(io.EpochCycles), 1) {
		return sim.Options{}, fmt.Errorf("scalesim: %w: EpochCycles %g is not positive and finite", ErrBadSpec, o.EpochCycles)
	}
	if io.CapacityScale < 1 {
		return sim.Options{}, fmt.Errorf("scalesim: %w: CapacityScale %d < 1", ErrBadSpec, o.CapacityScale)
	}
	return io, nil
}

// Pattern names a memory access pattern in Region.Pattern.
type Pattern string

// Patterns accepted in Region.Pattern.
const (
	PatternSeq   Pattern = "seq"
	PatternRand  Pattern = "rand"
	PatternZipf  Pattern = "zipf"
	PatternChase Pattern = "chase"
)

// internal maps the pattern onto the trace generator's enumeration.
func (p Pattern) internal() (trace.Pattern, error) {
	switch p {
	case PatternSeq:
		return trace.Seq, nil
	case PatternRand:
		return trace.Rand, nil
	case PatternZipf:
		return trace.Zipf, nil
	case PatternChase:
		return trace.Chase, nil
	default:
		return 0, fmt.Errorf("scalesim: %w %q", ErrUnknownPattern, string(p))
	}
}

// Region describes one memory region of a synthetic benchmark profile.
type Region struct {
	SizeBytes int64   // nominal footprint
	Frac      float64 // fraction of memory accesses
	Pattern   Pattern // PatternSeq, PatternRand, PatternZipf or PatternChase
	ElemSize  int     // seq element size in bytes (0 = 8)
	ZipfS     float64 // zipf skew (0 = 0.8)
}

// Profile is a synthetic benchmark description (see the package
// documentation of internal/trace for the modelling rationale).
type Profile struct {
	Name           string
	BaseCPI        float64
	LoadsPerKI     int
	StoresPerKI    int
	BranchesPerKI  int
	MLP            float64
	StaticBranches int
	HardBranchFrac float64
	CodeBytes      int64
	Regions        []Region
}

func (p Profile) internal() (*trace.Profile, error) {
	tp := &trace.Profile{
		Name:           p.Name,
		BaseCPI:        p.BaseCPI,
		LoadsPerKI:     p.LoadsPerKI,
		StoresPerKI:    p.StoresPerKI,
		BranchesPerKI:  p.BranchesPerKI,
		MLP:            p.MLP,
		StaticBranches: p.StaticBranches,
		HardFrac:       p.HardBranchFrac,
		IFootprint:     config.Bytes(p.CodeBytes),
	}
	for _, r := range p.Regions {
		pat, err := r.Pattern.internal()
		if err != nil {
			return nil, err
		}
		tp.Regions = append(tp.Regions, trace.Region{
			Size:     config.Bytes(r.SizeBytes),
			Frac:     r.Frac,
			Pattern:  pat,
			ElemSize: r.ElemSize,
			ZipfS:    r.ZipfS,
		})
	}
	return badSpec(tp, tp.Validate())
}

// badSpec returns v, or err wrapped in ErrBadSpec when there is one.
func badSpec[T any](v T, err error) (T, error) {
	if err != nil {
		var zero T
		return zero, fmt.Errorf("scalesim: %w: %w", ErrBadSpec, err)
	}
	return v, nil
}

func profileFromInternal(tp *trace.Profile) Profile {
	p := Profile{
		Name:           tp.Name,
		BaseCPI:        tp.BaseCPI,
		LoadsPerKI:     tp.LoadsPerKI,
		StoresPerKI:    tp.StoresPerKI,
		BranchesPerKI:  tp.BranchesPerKI,
		MLP:            tp.MLP,
		StaticBranches: tp.StaticBranches,
		HardBranchFrac: tp.HardFrac,
		CodeBytes:      int64(tp.IFootprint),
	}
	for _, r := range tp.Regions {
		p.Regions = append(p.Regions, Region{
			SizeBytes: int64(r.Size),
			Frac:      r.Frac,
			Pattern:   Pattern(r.Pattern.String()),
			ElemSize:  r.ElemSize,
			ZipfS:     r.ZipfS,
		})
	}
	return p
}

// Suite returns the 29-benchmark workload suite.
func Suite() []Profile {
	suite := trace.Suite()
	out := make([]Profile, len(suite))
	for i, p := range suite {
		out[i] = profileFromInternal(p)
	}
	return out
}

// BenchmarkNames returns the suite benchmark names.
func BenchmarkNames() []string { return trace.Names() }

// Policy names a scale-model construction policy in MachineSpec.Policy.
type Policy string

// Scaling policies accepted in MachineSpec.Policy.
const (
	PolicyTarget  Policy = "target"   // the full 32-core Table II system
	PolicyNRS     Policy = "NRS"      // no resource scaling
	PolicyPRS     Policy = "PRS"      // proportional scaling of LLC+NoC+DRAM
	PolicyPRSLLC  Policy = "PRS-LLC"  // scale LLC capacity only
	PolicyPRSDRAM Policy = "PRS-DRAM" // scale DRAM bandwidth only
)

// Validate reports whether the policy is one of the Policy* constants ("" is
// valid and selects PRS). The error wraps ErrUnknownPolicy.
func (p Policy) Validate() error {
	_, err := p.internal()
	return err
}

// internal maps the policy onto the construction enumeration; PolicyTarget,
// whose machine MachineSpec.internal builds without it, maps to the target's
// own policy.
func (p Policy) internal() (config.ScalingPolicy, error) {
	switch p {
	case PolicyPRS, "", PolicyTarget:
		return config.PRSFull, nil
	case PolicyNRS:
		return config.NRS, nil
	case PolicyPRSLLC:
		return config.PRSLLCOnly, nil
	case PolicyPRSDRAM:
		return config.PRSDRAMOnly, nil
	default:
		return 0, fmt.Errorf("scalesim: %w %q", ErrUnknownPolicy, string(p))
	}
}

// Bandwidth names a DRAM bandwidth scaling order in MachineSpec.Bandwidth.
type Bandwidth string

// Bandwidth scaling orders accepted in MachineSpec.Bandwidth.
const (
	BandwidthMCFirst Bandwidth = "MC-first"
	BandwidthMBFirst Bandwidth = "MB-first"
)

// internal maps the order onto the construction enumeration.
func (b Bandwidth) internal() (config.BandwidthScaling, error) {
	switch b {
	case BandwidthMCFirst, "":
		return config.MCFirst, nil
	case BandwidthMBFirst:
		return config.MBFirst, nil
	default:
		return 0, fmt.Errorf("scalesim: %w %q", ErrUnknownBandwidth, string(b))
	}
}

// MachineSpec selects a machine: the target system, a scale model, or a
// custom design point.
type MachineSpec struct {
	// Cores is the machine size (ignored for PolicyTarget). Must divide
	// the target's 32 cores: 1, 2, 4, 8, 16 or 32.
	Cores int
	// Policy is one of the Policy* constants ("" = PRS).
	Policy Policy
	// Bandwidth is one of the Bandwidth* constants ("" = MC-first).
	Bandwidth Bandwidth

	// Design-space knobs (0 = PRS default). Setting any of these builds a
	// custom machine instead of a paper configuration.
	LLCPerCoreKB    int     // per-core LLC slice in KB (power-of-two sets required)
	DRAMPerCoreGBps float64 // DRAM bandwidth per core
	NoCPerCoreGBps  float64 // NoC bisection bandwidth per core
}

// internal builds the machine. Both enumerations are checked whatever the
// machine; a construction error wraps ErrBadSpec.
func (m MachineSpec) internal() (*config.SystemConfig, error) {
	pol, err := m.Policy.internal()
	if err != nil {
		return nil, err
	}
	bw, err := m.Bandwidth.internal()
	if err != nil {
		return nil, err
	}
	switch {
	case m.LLCPerCoreKB < 0 || int64(m.LLCPerCoreKB) > math.MaxInt64>>10:
		return nil, fmt.Errorf("scalesim: %w: LLCPerCoreKB %d is negative or overflows bytes", ErrBadSpec, m.LLCPerCoreKB)
	case m.LLCPerCoreKB != 0 || m.DRAMPerCoreGBps != 0 || m.NoCPerCoreGBps != 0:
		return badSpec(config.CustomSystem(m.Cores, config.CustomOptions{
			LLCSlicePerCore: config.Bytes(m.LLCPerCoreKB) * config.KB,
			DRAMPerCoreGBps: config.GBps(m.DRAMPerCoreGBps),
			NoCPerCoreGBps:  config.GBps(m.NoCPerCoreGBps),
			Bandwidth:       bw,
		}))
	case m.Policy == PolicyTarget || m.Policy == "" && m.Cores == 32:
		return config.Target(), nil
	}
	return badSpec(config.ScaleModel(config.Target(), m.Cores, config.ScaleModelOptions{Policy: pol, Bandwidth: bw}))
}

// CoreResult is the measured outcome of one program in a simulation.
type CoreResult struct {
	Core                 int
	Benchmark            string
	Instructions         uint64
	IPC                  float64
	BWBytesPerCycle      float64
	LLCMPKI              float64
	BranchMispredictRate float64
}

// SimResult is a simulation run's outcome.
type SimResult struct {
	Machine         string
	Cores           []CoreResult
	DRAMUtilization float64
	NoCUtilization  float64
	WallClockSec    float64
	// SimulatedSec is the measured phase's simulated time at the machine's
	// core clock — the denominator of the paper's slowdown metric.
	SimulatedSec float64
	// Trace holds the per-epoch observability record when SimOptions.Trace
	// was set (nil otherwise). See WriteTraceJSONL and SummarizeTrace.
	Trace []EpochSnapshot
}

// AverageIPC returns the mean per-core IPC.
func (r *SimResult) AverageIPC() float64 {
	if len(r.Cores) == 0 {
		return 0
	}
	sum := 0.0
	for _, c := range r.Cores {
		sum += c.IPC
	}
	return sum / float64(len(r.Cores))
}

// Simulate runs the named benchmarks (one per core; repeat a name for
// multiple copies) on the machine described by spec. Custom profiles can be
// passed via extra; they take precedence over suite names.
func Simulate(spec MachineSpec, benchmarks []string, opts SimOptions, extra ...Profile) (*SimResult, error) {
	return SimulateContext(context.Background(), spec, benchmarks, opts, extra...)
}

// SimulateContext is Simulate bounded by ctx: cancellation or deadline
// expiry propagates into the simulator's epoch loop, aborting the run
// within one epoch and returning ctx.Err().
func SimulateContext(ctx context.Context, spec MachineSpec, benchmarks []string, opts SimOptions, extra ...Profile) (*SimResult, error) {
	j, err := CampaignJob{Machine: spec, Benchmarks: benchmarks, Options: opts, Extra: extra}.job()
	if err != nil {
		return nil, err
	}
	res, err := sim.RunContext(ctx, j.Config, j.Workload, j.Options)
	if err != nil {
		return nil, err
	}
	return resultFromInternal(res), nil
}

// job resolves the mix — custom profiles by name first, then the suite — and
// hands the design point to newJob.
func (j CampaignJob) job() (runner.Job, error) {
	custom := map[string]*trace.Profile{}
	for _, p := range j.Extra {
		tp, err := p.internal()
		if err != nil {
			return runner.Job{}, err
		}
		custom[p.Name] = tp
	}
	var wl sim.Workload
	for _, name := range j.Benchmarks {
		tp := custom[name]
		if tp == nil {
			tp = trace.ByName(name)
		}
		if tp == nil {
			return runner.Job{}, fmt.Errorf("scalesim: %w %q", ErrUnknownBenchmark, name)
		}
		wl.Profiles = append(wl.Profiles, tp)
	}
	return newJob(j.Machine, wl, j.Options)
}

// newJob is the one door from a public design point to what the engine or the
// simulator runs. Converting is checking: it refuses, before anything is
// keyed, what the simulator cannot run or would run under a second name
// (DESIGN.md, "Serving invariants").
func newJob(spec MachineSpec, wl sim.Workload, opts SimOptions) (runner.Job, error) {
	cfg, err := spec.internal()
	if err != nil {
		return runner.Job{}, err
	}
	if wl.Threads == nil && len(wl.Profiles) != cfg.Cores {
		return runner.Job{}, fmt.Errorf("scalesim: %w: %d programs for %d cores", ErrBadSpec, len(wl.Profiles), cfg.Cores)
	}
	io, err := opts.internal()
	if err != nil {
		return runner.Job{}, err
	}
	llc := cfg.LLC
	if words := int64(llc.SlicePerCore/llc.LineSize) / int64(io.CapacityScale) * int64(llc.Slices); words > maxLLCSetBytes/8 {
		return runner.Job{}, fmt.Errorf("scalesim: %w: the LLC's sets take %d MiB after CapacityScale %d, over %d MiB",
			ErrBadSpec, words>>17, io.CapacityScale, maxLLCSetBytes>>20)
	}
	// The levels CapacityScale shrinks, by the rule cache.NewLevel builds
	// them with: a scale that leaves a set count no power of two would fail
	// only once the run starts.
	for _, lvl := range []struct {
		name string
		c    config.CacheLevelConfig
	}{{"L1-D", cfg.L1D}, {"L2", cfg.L2}, {"LLC slice", llc.Slice()}} {
		if _, err := lvl.c.Sets(io.CapacityScale); err != nil {
			return runner.Job{}, fmt.Errorf("scalesim: %w: %s: %v", ErrBadSpec, lvl.name, err)
		}
	}
	return runner.Job{Config: cfg, Workload: wl, Options: io}, nil
}

// maxLLCSetBytes bounds the LLC set words (8 bytes a line, every slice, after
// CapacityScale) a run allocates when it starts: four times the largest design
// point in the repository, the 4 MB-a-core sweep on 32 cores at CapacityScale 1.
const maxLLCSetBytes = 64 << 20

func resultFromInternal(res *sim.Result) *SimResult {
	out := &SimResult{
		Machine:         res.ConfigName,
		DRAMUtilization: res.DRAMUtilization,
		NoCUtilization:  res.NoCUtilization,
		WallClockSec:    res.WallClock.Seconds(),
		SimulatedSec:    res.SimulatedPicos.Seconds(),
		Trace:           res.Trace,
	}
	for _, c := range res.Cores {
		out.Cores = append(out.Cores, CoreResult{
			Core:                 c.Core,
			Benchmark:            c.Benchmark,
			Instructions:         c.Instructions,
			IPC:                  c.IPC,
			BWBytesPerCycle:      float64(c.BWBytesPerCycle),
			LLCMPKI:              c.LLCMPKI,
			BranchMispredictRate: c.BranchMispredictRate,
		})
	}
	return out
}
