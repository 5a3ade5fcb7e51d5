package sim

import (
	"math"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/trace"
)

// The tests in this file print the calibration tables under -v; what they
// assert, on every run they pay for, is the CPI stack's conservation law
// (ROADMAP 3(c)): on each core the base, branch, memory and front-end cycles
// add up to the cycles charged — the same charges summed in two groupings, so
// equal to float rounding (worst seen over five 32-core runs: 2.6e-12
// relative) — and the IPC is a finite positive number.

func checkCPIStack(t *testing.T, label string, cores ...CoreResult) {
	t.Helper()
	for _, c := range cores {
		sum := c.BaseCycles + c.BranchCycles + c.MemoryCycles + c.FrontendCycles
		if math.Abs(float64(sum-c.Cycles)) > 1e-9*float64(c.Cycles) {
			t.Errorf("%s core %d: CPI stack %v + %v + %v + %v = %v, cycles %v", label, c.Core,
				c.BaseCycles, c.BranchCycles, c.MemoryCycles, c.FrontendCycles, sum, c.Cycles)
		}
		if !(c.IPC > 0) || math.IsInf(c.IPC, 0) {
			t.Errorf("%s core %d: IPC %v", label, c.Core, c.IPC)
		}
	}
}

func TestCPIStackSumsToCyclesScaleModel(t *testing.T) {
	sm, _ := config.ScaleModel(config.Target(), 1, config.ScaleModelOptions{Policy: config.PRSFull})
	for _, name := range []string{"exchange2", "leela", "gcc", "lbm", "mcf", "milc"} {
		res, err := Run(sm, Homogeneous(trace.ByName(name), 1), fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		checkCPIStack(t, name, res.Cores...)
		c := res.Cores[0]
		t.Logf("%-10s IPC %.3f CPI %.3f base %.3f branch %.3f mem %.3f fe %.3f | L1D %.1f L2 %.1f LLC %.2f MPKI | bw %.3f B/c mispred %.4f\n",
			name, c.IPC, 1/c.IPC,
			float64(c.BaseCycles)/float64(c.Instructions), float64(c.BranchCycles)/float64(c.Instructions),
			float64(c.MemoryCycles)/float64(c.Instructions), float64(c.FrontendCycles)/float64(c.Instructions),
			c.L1DMPKI, c.L2MPKI, c.LLCMPKI, c.BWBytesPerCycle, c.BranchMispredictRate)
	}
}

// TestCPIStackSumsToCyclesSuite covers the whole suite on the 1-core NRS and
// PRS scale models and the 32-core target, and prints the Fig-3-style
// construction table when run with -v (manual calibration aid).
func TestCPIStackSumsToCyclesSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration table")
	}
	opts := fastOpts()
	target := config.Target()
	t.Logf("%-11s %7s %7s %7s | %7s %7s | %6s %6s\n",
		"bench", "NRS1", "PRS1", "tgt32", "errNRS", "errPRS", "MPKI1", "BW1")
	for _, p := range trace.Suite() {
		nrsCfg, _ := config.ScaleModel(target, 1, config.ScaleModelOptions{Policy: config.NRS})
		prsCfg, _ := config.ScaleModel(target, 1, config.ScaleModelOptions{Policy: config.PRSFull})
		nrs, err := Run(nrsCfg, Homogeneous(p, 1), opts)
		if err != nil {
			t.Fatal(err)
		}
		prs, err := Run(prsCfg, Homogeneous(p, 1), opts)
		if err != nil {
			t.Fatal(err)
		}
		tgt, err := Run(target, Homogeneous(p, 32), opts)
		if err != nil {
			t.Fatal(err)
		}
		checkCPIStack(t, p.Name+" NRS-1", nrs.Cores...)
		checkCPIStack(t, p.Name+" PRS-1", prs.Cores...)
		checkCPIStack(t, p.Name+" target-32", tgt.Cores...)
		actual := tgt.averageIPC()
		abs := func(x float64) float64 {
			if x < 0 {
				return -x
			}
			return x
		}
		t.Logf("%-11s %7.3f %7.3f %7.3f | %6.1f%% %6.1f%% | %6.2f %6.3f\n",
			p.Name, nrs.Cores[0].IPC, prs.Cores[0].IPC, actual,
			100*abs(nrs.Cores[0].IPC-actual)/actual,
			100*abs(prs.Cores[0].IPC-actual)/actual,
			prs.Cores[0].LLCMPKI, prs.Cores[0].BWBytesPerCycle)
	}
}

func TestCPIStackSumsToCyclesTarget32(t *testing.T) {
	for _, name := range []string{"povray", "namd", "deepsjeng", "xz", "exchange2"} {
		res, err := Run(config.Target(), Homogeneous(trace.ByName(name), 32), fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		checkCPIStack(t, name, res.Cores...)
		c := res.Cores[5]
		t.Logf("%-10s IPC %.3f CPI %.3f base %.3f branch %.3f mem %.3f fe %.3f | L1D %.1f L2 %.1f LLC %.2f MPKI | bw %.3f B/c | dramU %.2f nocU %.2f\n",
			name, c.IPC, 1/c.IPC,
			float64(c.BaseCycles)/float64(c.Instructions), float64(c.BranchCycles)/float64(c.Instructions),
			float64(c.MemoryCycles)/float64(c.Instructions), float64(c.FrontendCycles)/float64(c.Instructions),
			c.L1DMPKI, c.L2MPKI, c.LLCMPKI, c.BWBytesPerCycle, res.DRAMUtilization, res.NoCUtilization)
	}
}

// TestCPIStackSumsToCyclesBareMachine steps a core outside the epoch loop and
// holds the law on its raw counters; -v prints per-level cache events.
func TestCPIStackSumsToCyclesBareMachine(t *testing.T) {
	opts := fastOpts().Resolved()
	sm, _ := config.ScaleModel(config.Target(), 1, config.ScaleModelOptions{Policy: config.PRSFull})
	for _, name := range []string{"povray", "exchange2", "deepsjeng"} {
		m, err := mixMachine(nil, sm, Homogeneous(trace.ByName(name), 1), opts)
		if err != nil {
			t.Fatal(err)
		}
		for m.cores[0].stats().Instructions < 400000 {
			m.cores[0].Run(opts.EpochCycles, ^uint64(0))
			m.mesh.EndEpoch(opts.EpochCycles)
			m.mem.EndEpoch(opts.EpochCycles)
		}
		st := m.cores[0].stats()
		checkCPIStack(t, name, CoreResult{
			Cycles: st.Cycles, IPC: st.IPC(), BaseCycles: st.BaseCycles, BranchCycles: st.BranchCycles,
			MemoryCycles: st.MemoryCycles, FrontendCycles: st.FrontendCycles,
		})
		ki := float64(st.Instructions) / 1000
		// The front's own counters: up to one chunk ahead of the core.
		f := m.cores[0].(*core).str.front
		l1i, l1d, l2 := f.l1i.Stats, f.l1d.Stats, f.l2.Stats
		llc := m.llc.CoreStats(0)
		t.Logf("%-10s L1I acc %.0f mis %.1f | L1D acc %.0f mis %.1f wb %.1f | L2 acc %.0f mis %.1f wb %.1f | LLC acc %.1f mis %.1f wb %.1f (per KI)\n",
			name,
			float64(l1i.Accesses)/ki, float64(l1i.Misses)/ki,
			float64(l1d.Accesses)/ki, float64(l1d.Misses)/ki, float64(l1d.Writebacks)/ki,
			float64(l2.Accesses)/ki, float64(l2.Misses)/ki, float64(l2.Writebacks)/ki,
			float64(llc.Accesses)/ki, float64(llc.Misses)/ki, float64(llc.Writebacks)/ki)
	}
}
