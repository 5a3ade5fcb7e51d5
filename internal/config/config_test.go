package config

import (
	"fmt"
	"strings"
	"testing"
)

func TestTargetMatchesTableII(t *testing.T) {
	c := Target()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Cores != 32 {
		t.Errorf("cores = %d, want 32", c.Cores)
	}
	if c.Core.FrequencyGHz != 4.0 || c.Core.IssueWidth != 4 || c.Core.ROBSize != 128 {
		t.Errorf("core config %+v does not match Table II", c.Core)
	}
	if c.Core.MaxLoads != 48 || c.Core.MaxStores != 32 || c.Core.MaxL1DMisses != 10 {
		t.Errorf("outstanding-op limits %+v do not match Table II", c.Core)
	}
	if c.L1I.Size != 32*KB || c.L1I.Assoc != 4 || c.L1I.AccessTime != 4 {
		t.Errorf("L1I %+v does not match Table II", c.L1I)
	}
	if c.L1D.Size != 32*KB || c.L1D.Assoc != 8 || c.L1D.AccessTime != 4 {
		t.Errorf("L1D %+v does not match Table II", c.L1D)
	}
	if c.L2.Size != 256*KB || c.L2.Assoc != 8 || c.L2.AccessTime != 8 {
		t.Errorf("L2 %+v does not match Table II", c.L2)
	}
	if c.LLC.Size() != 32*MB || c.LLC.Slices != 32 || c.LLC.Assoc != 64 || c.LLC.AccessTime != 30 {
		t.Errorf("LLC %+v does not match Table II", c.LLC)
	}
	if c.NoC.MeshWidth != 4 || c.NoC.MeshHeight != 8 {
		t.Errorf("mesh %dx%d, want 4x8", c.NoC.MeshWidth, c.NoC.MeshHeight)
	}
	if c.NoC.BisectionGBps() != 128 {
		t.Errorf("bisection bandwidth %v, want 128 GB/s", c.NoC.BisectionGBps())
	}
	if c.DRAM.Controllers != 8 || c.DRAM.TotalGBps() != 128 {
		t.Errorf("DRAM %+v does not match Table II (8 MCs, 128 GB/s)", c.DRAM)
	}
}

// TestTableIMCFirst checks every cell of the paper's Table I.
func TestTableIMCFirst(t *testing.T) {
	rows := TableI(MCFirst)
	want := []TableIRow{
		{32, 32 * MB, 32, 128, 4, 32, 128, 8, 16},
		{16, 16 * MB, 16, 64, 4, 16, 64, 4, 16},
		{8, 8 * MB, 8, 32, 2, 16, 32, 2, 16},
		{4, 4 * MB, 4, 16, 2, 8, 16, 1, 16},
		{2, 2 * MB, 2, 8, 1, 8, 8, 1, 8},
		{1, 1 * MB, 1, 4, 1, 4, 4, 1, 4},
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for i, w := range want {
		if rows[i] != w {
			t.Errorf("row %d:\n got %+v\nwant %+v", i, rows[i], w)
		}
	}
}

// TestTableIMBFirst checks the MB-first alternative from §V-E1: bandwidth
// per controller shrinks 16->4 GB/s before controllers are dropped.
func TestTableIMBFirst(t *testing.T) {
	rows := TableI(MBFirst)
	wantMCs := map[int]int{32: 8, 16: 8, 8: 8, 4: 4, 2: 2, 1: 1}
	wantPerMC := map[int]GBps{32: 16, 16: 8, 8: 4, 4: 4, 2: 4, 1: 4}
	for _, r := range rows {
		if r.MCs != wantMCs[r.Cores] {
			t.Errorf("%d cores: %d MCs, want %d", r.Cores, r.MCs, wantMCs[r.Cores])
		}
		if r.PerMCGBps != wantPerMC[r.Cores] {
			t.Errorf("%d cores: %v per MC, want %v", r.Cores, r.PerMCGBps, wantPerMC[r.Cores])
		}
		if r.DRAMGBps != GBps(4*r.Cores) {
			t.Errorf("%d cores: total DRAM %v, want %v", r.Cores, r.DRAMGBps, GBps(4*r.Cores))
		}
	}
}

func TestScaleModelPolicies(t *testing.T) {
	target := Target()
	cases := []struct {
		policy ScalingPolicy
		llc    Bytes
		dram   GBps
		noc    GBps
	}{
		{NRS, 32 * MB, 128, 128},
		{PRSLLCOnly, 1 * MB, 128, 128},
		{PRSDRAMOnly, 32 * MB, 4, 128},
		{PRSFull, 1 * MB, 4, 4},
	}
	for _, c := range cases {
		sm, err := ScaleModel(target, 1, ScaleModelOptions{Policy: c.policy})
		if err != nil {
			t.Fatalf("%v: %v", c.policy, err)
		}
		if sm.Cores != 1 {
			t.Errorf("%v: cores = %d, want 1", c.policy, sm.Cores)
		}
		if sm.LLC.Size() != c.llc {
			t.Errorf("%v: LLC %v, want %v", c.policy, sm.LLC.Size(), c.llc)
		}
		if sm.DRAM.TotalGBps() != c.dram {
			t.Errorf("%v: DRAM %v, want %v", c.policy, sm.DRAM.TotalGBps(), c.dram)
		}
		if sm.NoC.BisectionGBps() != c.noc {
			t.Errorf("%v: NoC %v, want %v", c.policy, sm.NoC.BisectionGBps(), c.noc)
		}
		if err := sm.Validate(); err != nil {
			t.Errorf("%v: invalid scale model: %v", c.policy, err)
		}
	}
}

func TestScaleModelPreservesPrivateCaches(t *testing.T) {
	target := Target()
	for _, n := range []int{1, 2, 4, 8, 16} {
		sm, err := ScaleModel(target, n, ScaleModelOptions{Policy: PRSFull})
		if err != nil {
			t.Fatal(err)
		}
		if sm.L1I != target.L1I || sm.L1D != target.L1D || sm.L2 != target.L2 {
			t.Errorf("%d cores: private caches were scaled; they must not be", n)
		}
		if sm.Core != target.Core {
			t.Errorf("%d cores: core microarchitecture changed", n)
		}
	}
}

func TestScaleModelRejectsBadCounts(t *testing.T) {
	target := Target()
	for _, n := range []int{0, -1, 33, 3, 5, 7, 64} {
		if _, err := ScaleModel(target, n, ScaleModelOptions{Policy: PRSFull}); err == nil {
			t.Errorf("ScaleModel(%d cores) succeeded, want error", n)
		}
	}
}

func TestScaleModelIdentity(t *testing.T) {
	// A "scale model" with the full core count must equal the target's
	// shared-resource sizing under every policy.
	target := Target()
	for _, p := range []ScalingPolicy{NRS, PRSLLCOnly, PRSDRAMOnly, PRSFull} {
		sm, err := ScaleModel(target, 32, ScaleModelOptions{Policy: p})
		if err != nil {
			t.Fatal(err)
		}
		if sm.LLC.Size() != target.LLC.Size() || sm.DRAM.TotalGBps() != target.DRAM.TotalGBps() {
			t.Errorf("%v at 32 cores: resources differ from target", p)
		}
	}
}

func TestValidateCatchesBrokenConfigs(t *testing.T) {
	breakers := []func(*SystemConfig){
		func(c *SystemConfig) { c.Cores = 0 },
		func(c *SystemConfig) { c.Core.IssueWidth = 0 },
		func(c *SystemConfig) { c.Core.ROBSize = 1 },
		func(c *SystemConfig) { c.LLC.Slices = 7 },
		func(c *SystemConfig) { c.NoC.MeshWidth = 1; c.NoC.MeshHeight = 1 },
		func(c *SystemConfig) { c.DRAM.Controllers = 0 },
		func(c *SystemConfig) { c.L1D.Size = 0 },
		func(c *SystemConfig) { c.L2.Size = 3 * KB },                                  // non-power-of-two sets
		func(c *SystemConfig) { c.L1D.LineSize = 96; c.L1D.Size = 48 * KB },           // 64 sets of a line no shift addresses
		func(c *SystemConfig) { c.L2.LineSize = 1; c.L2.Size = 8 },                    // one-byte lines leave line<<1 no free bit
		func(c *SystemConfig) { c.LLC.LineSize = 96; c.LLC.SlicePerCore = 1536 * KB }, // 256 sets
		func(c *SystemConfig) { c.LLC.Assoc = 0 },
		func(c *SystemConfig) { c.LLC.SlicePerCore = 3 * MB }, // non-power-of-two sets
	}
	for i, breaker := range breakers {
		c := Target()
		breaker(c)
		if err := c.Validate(); err == nil {
			t.Errorf("breaker %d: Validate accepted a broken config", i)
		}
	}
}

func TestBytesString(t *testing.T) {
	cases := map[Bytes]string{
		64:      "64 B",
		32 * KB: "32 KB",
		1 * MB:  "1 MB",
		32 * MB: "32 MB",
		2 * GB:  "2 GB",
		1500:    "1500 B",
	}
	for b, want := range cases {
		if got := b.String(); got != want {
			t.Errorf("Bytes(%d).String() = %q, want %q", int64(b), got, want)
		}
	}
}

func TestTableIRowString(t *testing.T) {
	rows := TableI(MCFirst)
	s := rows[0].String()
	for _, frag := range []string{"32 MB", "32 slices", "4 CSLs", "8 MCs", "16 GB/s per MC"} {
		if !strings.Contains(s, frag) {
			t.Errorf("row string %q missing %q", s, frag)
		}
	}
}

func TestMeshShapesMatchTableI(t *testing.T) {
	wantCSL := map[int]int{32: 4, 16: 4, 8: 2, 4: 2, 2: 1, 1: 1}
	for cores, want := range wantCSL {
		noc, err := nocFor(cores)
		if err != nil {
			t.Fatal(err)
		}
		if noc.CrossSectionLinks != want {
			t.Errorf("%d cores: %d CSLs, want %d", cores, noc.CrossSectionLinks, want)
		}
		if noc.BisectionGBps() != GBps(4*cores) {
			t.Errorf("%d cores: bisection %v, want %v GB/s", cores, noc.BisectionGBps(), 4*cores)
		}
	}
}

func TestCustomSystem(t *testing.T) {
	c, err := CustomSystem(4, CustomOptions{
		LLCSlicePerCore: 2 * MB,
		DRAMPerCoreGBps: 8,
		NoCPerCoreGBps:  8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.LLC.Size() != 8*MB {
		t.Errorf("LLC %v, want 8 MB", c.LLC.Size())
	}
	if c.DRAM.TotalGBps() != 32 {
		t.Errorf("DRAM %v, want 32 GB/s", c.DRAM.TotalGBps())
	}
	if c.NoC.BisectionGBps() != 32 {
		t.Errorf("NoC %v, want 32 GB/s", c.NoC.BisectionGBps())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Defaults: zero options keep PRS sizing.
	d, err := CustomSystem(2, CustomOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.LLC.Size() != 2*MB || d.DRAM.TotalGBps() != 8 {
		t.Errorf("default custom system %v/%v, want PRS sizing", d.LLC.Size(), d.DRAM.TotalGBps())
	}
	// Non-power-of-two LLC sets rejected.
	if _, err := CustomSystem(1, CustomOptions{LLCSlicePerCore: 3 * MB}); err == nil {
		t.Error("3 MB slice accepted (sets not a power of two)")
	}
}

// TestMachineNamesPinned holds the concatenated machine names to the
// fmt.Sprintf forms they replaced, byte for byte: the name is part of a
// job's cache key, so a drifted name orphans every stored result.
func TestMachineNamesPinned(t *testing.T) {
	target := Target()
	for _, cores := range []int{1, 2, 4, 8, 16, 32} {
		for _, bw := range []BandwidthScaling{MCFirst, MBFirst} {
			for _, pol := range []ScalingPolicy{NRS, PRSLLCOnly, PRSDRAMOnly, PRSFull} {
				sm, err := ScaleModel(target, cores, ScaleModelOptions{Policy: pol, Bandwidth: bw})
				if err != nil {
					t.Fatal(err)
				}
				if want := fmt.Sprintf("%s-sm%d-%s-%s", target.Name, cores, pol, bw); sm.Name != want {
					t.Errorf("ScaleModel name = %q, want %q", sm.Name, want)
				}
			}
			for _, opts := range []CustomOptions{
				{},
				{DRAMPerCoreGBps: 2.5},
				{NoCPerCoreGBps: 1e-7},
				{LLCSlicePerCore: 512 * KB},
				{DRAMPerCoreGBps: 1e21, NoCPerCoreGBps: 0.1, LLCSlicePerCore: 2 * MB},
			} {
				opts.Bandwidth = bw
				c, err := CustomSystem(cores, opts)
				if err != nil {
					t.Fatal(err)
				}
				want := fmt.Sprintf("custom-%d", cores)
				if opts.DRAMPerCoreGBps > 0 {
					want = fmt.Sprintf("%s-dram%g", want, float64(opts.DRAMPerCoreGBps))
				}
				if opts.NoCPerCoreGBps > 0 {
					want = fmt.Sprintf("%s-noc%g", want, float64(opts.NoCPerCoreGBps))
				}
				if opts.LLCSlicePerCore > 0 {
					want = fmt.Sprintf("%s-llc%d", want, int64(opts.LLCSlicePerCore)>>10)
				}
				if c.Name != want {
					t.Errorf("CustomSystem name = %q, want %q", c.Name, want)
				}
			}
		}
	}
}
