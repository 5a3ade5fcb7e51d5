// Package config defines machine configurations and implements scale-model
// construction: deriving a scaled-down configuration from a target system by
// reducing core count and, optionally, the shared resources (LLC capacity,
// NoC bandwidth, DRAM bandwidth) by the same factor.
//
// The package works in the paper's nominal units (bytes, GB/s). The
// simulator applies a global capacity scale when instantiating hardware
// structures; that scaling never changes the ratios this package computes,
// so Table I is reproduced exactly in nominal units.
package config

import (
	"fmt"
	"math"
	"strconv"
)

// Bytes expresses a capacity in bytes.
type Bytes int64

// Convenient capacity units.
const (
	KB Bytes = 1 << 10
	MB Bytes = 1 << 20
	GB Bytes = 1 << 30
)

func (b Bytes) String() string {
	switch {
	case b >= GB && b%GB == 0:
		return fmt.Sprintf("%d GB", b/GB)
	case b >= MB && b%MB == 0:
		return fmt.Sprintf("%d MB", b/MB)
	case b >= KB && b%KB == 0:
		return fmt.Sprintf("%d KB", b/KB)
	default:
		return fmt.Sprintf("%d B", int64(b))
	}
}

// GBps expresses a bandwidth in gigabytes per second.
type GBps float64

func (g GBps) String() string { return fmt.Sprintf("%g GB/s", float64(g)) }

// CoreConfig describes one out-of-order core (Table II, "Processor").
type CoreConfig struct {
	FrequencyGHz   float64 // core clock
	IssueWidth     int     // superscalar dispatch/issue width
	ROBSize        int     // reorder buffer entries
	MaxLoads       int     // max outstanding loads
	MaxStores      int     // max outstanding stores
	MaxL1DMisses   int     // max outstanding L1-D misses (MSHRs)
	MispredictCost int     // front-end refill penalty in cycles
}

// CacheLevelConfig describes one private cache level.
type CacheLevelConfig struct {
	Size       Bytes
	Assoc      int
	LineSize   Bytes
	AccessTime int // cycles
}

// LLCConfig describes the shared NUCA last-level cache. Capacity is
// SlicePerCore per slice times Slices; there is one slice per core in every
// configuration this package produces.
type LLCConfig struct {
	Slices       int
	SlicePerCore Bytes
	Assoc        int
	LineSize     Bytes
	AccessTime   int // cycles, to the local slice
}

// Size returns the total LLC capacity.
func (l LLCConfig) Size() Bytes { return Bytes(l.Slices) * l.SlicePerCore }

// Slice returns the geometry of one LLC slice.
func (l LLCConfig) Slice() CacheLevelConfig {
	return CacheLevelConfig{Size: l.SlicePerCore, Assoc: l.Assoc, LineSize: l.LineSize, AccessTime: l.AccessTime}
}

// Sets returns the set count of a cache of geometry c with its capacity
// divided by scale (scale <= 1 means unscaled), at least one set, or why
// such a cache cannot be built. A way holds line<<1 | dirty with line =
// addr >> log2(LineSize), so the line size must be a power of two >= 2; a
// set is picked by masking the line, so the set count must be a power of
// two.
func (c CacheLevelConfig) Sets(scale int) (int, error) {
	scale = max(scale, 1)
	if c.Assoc <= 0 || c.Size <= 0 {
		return 0, fmt.Errorf("non-positive geometry %+v", c)
	}
	if c.LineSize < 2 || c.LineSize&(c.LineSize-1) != 0 {
		return 0, fmt.Errorf("line size %d is not a power of two >= 2", int64(c.LineSize))
	}
	sets := max(int(int64(c.Size)/(int64(c.Assoc)*int64(c.LineSize))/int64(scale)), 1)
	if sets&(sets-1) != 0 {
		return 0, fmt.Errorf("set count %d not a power of two (size %v assoc %d scale %d)", sets, c.Size, c.Assoc, scale)
	}
	return sets, nil
}

// NoCConfig describes the 2D mesh interconnect. BisectionGBps is the
// aggregate bandwidth across the bisection cut: CrossSectionLinks links of
// LinkGBps each.
type NoCConfig struct {
	MeshWidth         int
	MeshHeight        int
	CrossSectionLinks int
	LinkGBps          GBps
	HopLatency        int // cycles per hop (router + link)
}

// BisectionGBps returns the NoC bisection bandwidth.
func (n NoCConfig) BisectionGBps() GBps { return GBps(n.CrossSectionLinks) * n.LinkGBps }

// DRAMConfig describes the main-memory subsystem: Controllers memory
// controllers of PerControllerGBps each.
type DRAMConfig struct {
	Controllers       int
	PerControllerGBps GBps
	BaseLatency       int // unloaded DRAM access latency in core cycles
}

// TotalGBps returns the aggregate DRAM bandwidth.
func (d DRAMConfig) TotalGBps() GBps { return GBps(d.Controllers) * d.PerControllerGBps }

// SystemConfig is a complete machine description.
type SystemConfig struct {
	Name  string
	Cores int
	Core  CoreConfig
	L1I   CacheLevelConfig
	L1D   CacheLevelConfig
	L2    CacheLevelConfig
	LLC   LLCConfig
	NoC   NoCConfig
	DRAM  DRAMConfig
}

// Validate reports the first structural inconsistency in the configuration.
func (c *SystemConfig) Validate() error {
	switch {
	case c.Cores < 1:
		return fmt.Errorf("config %q: cores %d < 1", c.Name, c.Cores)
	case c.Core.IssueWidth < 1:
		return fmt.Errorf("config %q: issue width %d < 1", c.Name, c.Core.IssueWidth)
	case c.Core.ROBSize < c.Core.IssueWidth:
		return fmt.Errorf("config %q: ROB %d smaller than issue width %d", c.Name, c.Core.ROBSize, c.Core.IssueWidth)
	case c.LLC.Slices != c.Cores:
		return fmt.Errorf("config %q: %d LLC slices for %d cores (NUCA requires one slice per core)", c.Name, c.LLC.Slices, c.Cores)
	case c.NoC.MeshWidth*c.NoC.MeshHeight < c.Cores:
		return fmt.Errorf("config %q: %dx%d mesh cannot host %d cores", c.Name, c.NoC.MeshWidth, c.NoC.MeshHeight, c.Cores)
	case c.DRAM.Controllers < 1:
		return fmt.Errorf("config %q: %d memory controllers", c.Name, c.DRAM.Controllers)
	}
	for _, lvl := range []struct {
		name string
		c    CacheLevelConfig
	}{{"L1I", c.L1I}, {"L1D", c.L1D}, {"L2", c.L2}, {"LLC slice", c.LLC.Slice()}} {
		if _, err := lvl.c.Sets(1); err != nil {
			return fmt.Errorf("config %q: %s: %w", c.Name, lvl.name, err)
		}
		if int64(lvl.c.Size) < int64(lvl.c.Assoc)*int64(lvl.c.LineSize) {
			return fmt.Errorf("config %q: %s is smaller than one set", c.Name, lvl.name)
		}
	}
	return nil
}

// Target returns the paper's 32-core target system (Table II).
func Target() *SystemConfig {
	c, _ := makeSystem("target-32", 32, MCFirst) // 32 is on the ladder
	return c
}

// meshShapes is the width × height mesh of each supported core count,
// matching Table I's cross-section-link counts (bisection cut across the
// shorter dimension). Its keys are the Table I ladder, the one place a core
// count is checked: nocFor refuses any other.
var meshShapes = map[int]struct{ w, h int }{32: {4, 8}, 16: {4, 4}, 8: {2, 4}, 4: {2, 2}, 2: {1, 2}, 1: {1, 1}}

// BandwidthScaling selects how DRAM bandwidth is scaled down with core count
// under proportional resource scaling (paper §II and §V-E1).
type BandwidthScaling int

const (
	// MCFirst first reduces the number of memory controllers (keeping 16 GB/s
	// per controller) and only then reduces per-controller bandwidth once a
	// single controller is left. This is the paper's default.
	MCFirst BandwidthScaling = iota
	// MBFirst first reduces per-controller bandwidth from 16 GB/s down to
	// 4 GB/s (keeping 8 controllers) and then reduces the controller count.
	MBFirst
)

func (b BandwidthScaling) String() string {
	if b == MBFirst {
		return "MB-first"
	}
	return "MC-first"
}

// dramFor returns the DRAM configuration for a given core count under
// proportional scaling with the chosen policy. Total bandwidth is always
// 4 GB/s per core; the policies differ in how it is split across controllers.
func dramFor(cores int, policy BandwidthScaling) DRAMConfig {
	total := GBps(4 * cores)
	var mcs int
	switch policy {
	case MCFirst:
		// 16 GB/s per MC until one MC remains: 32c->8, 16c->4, 8c->2, 4c->1,
		// then shrink per-MC bandwidth: 2c->1@8, 1c->1@4.
		mcs = cores / 4
		if mcs < 1 {
			mcs = 1
		}
	case MBFirst:
		// Shrink per-MC bandwidth 16->4 GB/s first (32c:8@16, 16c:8@8, 8c:8@4),
		// then drop controllers at 4 GB/s each (4c:4@4, 2c:2@4, 1c:1@4).
		if cores >= 8 {
			mcs = 8
		} else {
			mcs = cores
		}
	default:
		panic(fmt.Sprintf("config: unknown bandwidth scaling policy %d", policy))
	}
	return DRAMConfig{
		Controllers:       mcs,
		PerControllerGBps: total / GBps(mcs),
		BaseLatency:       240, // ~60 ns at 4 GHz
	}
}

// nocFor returns the mesh NoC configuration for a core count under
// proportional scaling: bisection bandwidth is 4 GB/s per core, realised by
// the cross-section links of the Table I mesh shapes.
func nocFor(cores int) (NoCConfig, error) {
	mesh, ok := meshShapes[cores]
	if !ok {
		return NoCConfig{}, fmt.Errorf("config: unsupported core count %d (want 1, 2, 4, 8, 16 or 32)", cores)
	}
	csl := mesh.w // bisection cuts the longer dimension, leaving `w` links
	if mesh.h < 2 {
		// A 1xN or 1x1 mesh has a single (nominal) cross-section link.
		csl = 1
	}
	return NoCConfig{
		MeshWidth:         mesh.w,
		MeshHeight:        mesh.h,
		CrossSectionLinks: csl,
		LinkGBps:          GBps(4*cores) / GBps(csl),
		HopLatency:        4,
	}, nil
}

// makeSystem builds a PRS-scaled system with the given core count, or the
// error of a count off the Table I ladder.
func makeSystem(name string, cores int, policy BandwidthScaling) (*SystemConfig, error) {
	noc, err := nocFor(cores)
	if err != nil {
		return nil, err
	}
	return &SystemConfig{
		Name:  name,
		Cores: cores,
		Core: CoreConfig{
			FrequencyGHz:   4.0,
			IssueWidth:     4,
			ROBSize:        128,
			MaxLoads:       48,
			MaxStores:      32,
			MaxL1DMisses:   10,
			MispredictCost: 15,
		},
		L1I: CacheLevelConfig{Size: 32 * KB, Assoc: 4, LineSize: 64, AccessTime: 4},
		L1D: CacheLevelConfig{Size: 32 * KB, Assoc: 8, LineSize: 64, AccessTime: 4},
		L2:  CacheLevelConfig{Size: 256 * KB, Assoc: 8, LineSize: 64, AccessTime: 8},
		LLC: LLCConfig{
			Slices:       cores,
			SlicePerCore: 1 * MB,
			Assoc:        64,
			LineSize:     64,
			AccessTime:   30,
		},
		NoC:  noc,
		DRAM: dramFor(cores, policy),
	}, nil
}

// ScalingPolicy selects which shared resources a scale model scales down
// with core count (paper §V-A, Fig. 3).
type ScalingPolicy int

const (
	// NRS (No Resource Scaling): shared resources stay at target size.
	NRS ScalingPolicy = iota
	// PRSLLCOnly scales LLC capacity only.
	PRSLLCOnly
	// PRSDRAMOnly scales DRAM bandwidth only.
	PRSDRAMOnly
	// PRSFull scales LLC capacity, NoC bandwidth and DRAM bandwidth (the
	// paper's recommended construction).
	PRSFull
)

func (p ScalingPolicy) String() string {
	switch p {
	case NRS:
		return "NRS"
	case PRSLLCOnly:
		return "PRS-LLC"
	case PRSDRAMOnly:
		return "PRS-DRAM"
	case PRSFull:
		return "PRS"
	default:
		return fmt.Sprintf("ScalingPolicy(%d)", int(p))
	}
}

// ScaleModelOptions configures scale-model construction.
type ScaleModelOptions struct {
	Policy    ScalingPolicy
	Bandwidth BandwidthScaling // DRAM scaling order when DRAM is scaled
}

// ScaleModel derives a scale model with the given core count from the target
// system. Cores are always reduced; shared resources are reduced according
// to opts.Policy. The per-core private hierarchy (L1I/L1D/L2) is never
// scaled — each core keeps its private caches, as in the paper.
func ScaleModel(target *SystemConfig, cores int, opts ScaleModelOptions) (*SystemConfig, error) {
	if err := target.Validate(); err != nil {
		return nil, err
	}
	sm, err := makeSystem(target.Name+"-sm"+strconv.Itoa(cores)+"-"+opts.Policy.String()+"-"+opts.Bandwidth.String(), cores, opts.Bandwidth)
	if err != nil {
		return nil, err
	}
	if target.Cores%cores != 0 {
		return nil, fmt.Errorf("config: scale factor %d/%d is not integral", target.Cores, cores)
	}
	sm.Core = target.Core
	sm.L1I, sm.L1D, sm.L2 = target.L1I, target.L1D, target.L2

	// Start from a fully scaled machine, then undo scaling per policy.
	switch opts.Policy {
	case PRSFull:
		// keep everything scaled
	case NRS:
		sm.LLC = unscaledLLC(target, cores)
		sm.NoC = unscaledNoC(target, sm.NoC)
		sm.DRAM = target.DRAM
	case PRSLLCOnly:
		sm.NoC = unscaledNoC(target, sm.NoC)
		sm.DRAM = target.DRAM
	case PRSDRAMOnly:
		sm.LLC = unscaledLLC(target, cores)
		sm.NoC = unscaledNoC(target, sm.NoC)
	default:
		return nil, fmt.Errorf("config: unknown scaling policy %v", opts.Policy)
	}
	if err := sm.Validate(); err != nil {
		return nil, err
	}
	return sm, nil
}

// unscaledLLC keeps the target's total LLC capacity on the scale model by
// growing the per-slice capacity (the slice count must track core count for
// the NUCA structure to remain valid).
func unscaledLLC(target *SystemConfig, cores int) LLCConfig {
	llc := target.LLC
	llc.Slices = cores
	llc.SlicePerCore = target.LLC.Size() / Bytes(cores)
	return llc
}

// unscaledNoC keeps the target's bisection bandwidth on the scale model's
// (smaller) mesh by fattening its cross-section links.
func unscaledNoC(target *SystemConfig, noc NoCConfig) NoCConfig {
	noc.LinkGBps = target.NoC.BisectionGBps() / GBps(noc.CrossSectionLinks)
	return noc
}

// CustomOptions tweak a derived system for design-space exploration. Zero
// values keep the PRS defaults (1 MB LLC per core, 4 GB/s DRAM and NoC
// bisection bandwidth per core).
type CustomOptions struct {
	LLCSlicePerCore Bytes // per-core LLC slice capacity
	DRAMPerCoreGBps GBps  // DRAM bandwidth per core
	NoCPerCoreGBps  GBps  // NoC bisection bandwidth per core
	Bandwidth       BandwidthScaling
}

// CustomSystem builds a machine with the Table II core/private hierarchy
// but freely chosen shared-resource budgets — the knob a design-space
// exploration sweeps. Core counts follow the Table I ladder (1..32); another
// count, or a negative or non-finite budget, is an error.
func CustomSystem(cores int, opts CustomOptions) (*SystemConfig, error) {
	for _, b := range []float64{float64(opts.LLCSlicePerCore), float64(opts.DRAMPerCoreGBps), float64(opts.NoCPerCoreGBps)} {
		if !(b >= 0) || math.IsInf(b, 1) {
			return nil, fmt.Errorf("config: custom budget %g is negative or not finite", b)
		}
	}
	c, err := makeSystem("custom-"+strconv.Itoa(cores), cores, opts.Bandwidth)
	if err != nil {
		return nil, err
	}
	if opts.LLCSlicePerCore > 0 {
		c.LLC.SlicePerCore = opts.LLCSlicePerCore // Validate, below, holds its set count
	}
	if opts.DRAMPerCoreGBps > 0 {
		total := opts.DRAMPerCoreGBps * GBps(cores)
		c.DRAM.PerControllerGBps = total / GBps(c.DRAM.Controllers)
		c.Name += "-dram" + strconv.FormatFloat(float64(opts.DRAMPerCoreGBps), 'g', -1, 64)
	}
	if opts.NoCPerCoreGBps > 0 {
		c.NoC.LinkGBps = opts.NoCPerCoreGBps * GBps(cores) / GBps(c.NoC.CrossSectionLinks)
		c.Name += "-noc" + strconv.FormatFloat(float64(opts.NoCPerCoreGBps), 'g', -1, 64)
	}
	if opts.LLCSlicePerCore > 0 {
		c.Name += "-llc" + strconv.FormatInt(int64(opts.LLCSlicePerCore)>>10, 10)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// TableIRow is one row of the paper's Table I.
type TableIRow struct {
	Cores      int
	LLCSize    Bytes
	LLCSlices  int
	NoCGBps    GBps
	CSLs       int
	PerCSLGBps GBps
	DRAMGBps   GBps
	MCs        int
	PerMCGBps  GBps
}

// TableI reproduces the paper's Table I for the given bandwidth-scaling
// policy (the paper's table uses MC-first).
func TableI(policy BandwidthScaling) []TableIRow {
	target := Target()
	counts := []int{32, 16, 8, 4, 2, 1}
	rows := make([]TableIRow, 0, len(counts))
	for _, n := range counts {
		sm, err := ScaleModel(target, n, ScaleModelOptions{Policy: PRSFull, Bandwidth: policy})
		if err != nil {
			panic(err) // unreachable: all counts divide 32
		}
		rows = append(rows, TableIRow{
			Cores:      n,
			LLCSize:    sm.LLC.Size(),
			LLCSlices:  sm.LLC.Slices,
			NoCGBps:    sm.NoC.BisectionGBps(),
			CSLs:       sm.NoC.CrossSectionLinks,
			PerCSLGBps: sm.NoC.LinkGBps,
			DRAMGBps:   sm.DRAM.TotalGBps(),
			MCs:        sm.DRAM.Controllers,
			PerMCGBps:  sm.DRAM.PerControllerGBps,
		})
	}
	return rows
}

// String renders the row in the paper's Table I format.
func (r TableIRow) String() string {
	return fmt.Sprintf("%2d | %s: %d slices | %s: %d CSLs, %s per CSL | %s: %d MCs, %s per MC",
		r.Cores, r.LLCSize, r.LLCSlices,
		r.NoCGBps, r.CSLs, r.PerCSLGBps,
		r.DRAMGBps, r.MCs, r.PerMCGBps)
}
