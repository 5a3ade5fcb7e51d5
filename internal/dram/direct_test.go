package dram

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/units"
	"scalesim/internal/xrand"
)

// Access is the direct accounting form the simulator used before the epoch
// fork/join: it returns the latency of one line access and records its
// demand straight into the Memory. AccessInto + Merge replaced it; it is
// kept, verbatim, as their oracle.
func (m *Memory) Access(core int, addr uint64, bytes units.Bytes, write bool) units.Cycles {
	mc := m.MCOf(addr)
	m.epochBytes[mc] += bytes
	m.epochStreams[mc] |= 1 << (uint(core) % 64)
	m.perCoreBytes[core] += bytes
	m.TotalBytes += bytes
	if write {
		m.TotalWrites++
		// Writes are posted: they consume bandwidth but do not stall the
		// requester, so no latency is returned.
		return 0
	}
	m.TotalReads++
	return m.baseLatency + m.queueDelay(mc)
}

// lawAccess is one access of a generated trace: issued by core, accounted
// into accumulator core (canonical) or alt (scrambled). end > 0 closes an
// epoch of that many cycles after the access.
type lawAccess struct {
	core, alt int
	addr      uint64
	write     bool
	end       units.Cycles
}

// accountingViolation replays trace on two memories of one configuration —
// directly, and through per-core accumulators merged in core order at every
// epoch end — and returns the first difference between them, or "".
func accountingViolation(cfg config.DRAMConfig, cores int, trace []lawAccess, scrambled bool) string {
	direct, err := New(cfg, 4.0, cores)
	if err != nil {
		return err.Error()
	}
	into, _ := New(cfg, 4.0, cores)
	accs := make([]*Acc, cores)
	for c := range accs {
		accs[c] = into.NewAcc()
	}
	zero := into.NewAcc()
	barrier := func(i int, cycles units.Cycles) string {
		for c, a := range accs {
			into.Merge(c, a)
			if !reflect.DeepEqual(a, zero) {
				return fmt.Sprintf("access %d: accumulator %d is %+v after Merge, want zero", i, c, *a)
			}
		}
		direct.EndEpoch(cycles)
		into.EndEpoch(cycles)
		perCore := into.perCoreBytes
		if scrambled {
			// Merge attributes an accumulator's bytes to the core it is
			// merged for, so per-core bytes follow the accumulator; their
			// sum, TotalBytes, does not.
			into.perCoreBytes = direct.perCoreBytes
		}
		equal := reflect.DeepEqual(direct, into)
		into.perCoreBytes = perCore
		if !equal {
			return fmt.Sprintf("access %d: after the epoch's barrier the memory is %+v, the direct form's %+v", i, *into, *direct)
		}
		for _, f := range []func(*Memory) float64{
			(*Memory).Utilization, (*Memory).Efficiency, func(m *Memory) float64 { return float64(m.QueueDelay()) },
		} {
			if d, a := f(direct), f(into); math.Float64bits(d) != math.Float64bits(a) {
				return fmt.Sprintf("access %d: utilization, efficiency or queue delay %v, the direct form's %v", i, a, d)
			}
		}
		return ""
	}
	for i, op := range trace {
		acc := op.core
		if scrambled {
			acc = op.alt
		}
		want := direct.Access(op.core, op.addr, lineBytes, op.write)
		got := into.AccessInto(accs[acc], op.core, op.addr, lineBytes, op.write)
		if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
			return fmt.Sprintf("access %d: latency %v, the direct form's %v", i, got, want)
		}
		if op.end > 0 {
			if v := barrier(i, op.end); v != "" {
				return v
			}
		}
	}
	return barrier(len(trace), 0)
}

// TestAccumulatorsMatchDirectAccounting holds the path core.step executes —
// AccessInto per line, Merge in core order and EndEpoch at the barrier — to
// the direct form over generated controller counts, bandwidths, core counts
// and traffic: every latency bit-equal, every cumulative, per-core and
// per-controller figure and the post-EndEpoch utilization, queue delay and
// row efficiency equal, an accumulator zero after Merge, and all of it (bar
// the per-core attribution) whichever accumulator took which access. A
// failing trace is shrunk by halving.
func TestAccumulatorsMatchDirectAccounting(t *testing.T) {
	seeds := uint64(200)
	if testing.Short() {
		seeds = 40
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		rng := xrand.New(seed)
		cfg := config.DRAMConfig{
			Controllers: 1 + rng.Intn(16), PerControllerGBps: config.GBps(int(1) << rng.Intn(6)), BaseLatency: rng.Intn(400),
		}
		cores := 1 + rng.Intn(32)
		epoch := 1 + rng.Intn(400) // mean accesses per epoch
		trace := make([]lawAccess, 2000)
		for i := range trace {
			trace[i] = lawAccess{core: rng.Intn(cores), alt: rng.Intn(cores), addr: rng.Uint64(), write: rng.Bool(0.3)}
			if rng.Intn(epoch) == 0 {
				// Short epochs saturate the controllers, long ones leave them idle.
				trace[i].end = units.Cycles(1 + rng.Intn(1<<uint(1+rng.Intn(16))))
			}
		}
		for _, scrambled := range []bool{false, true} {
			msg := accountingViolation(cfg, cores, trace, scrambled)
			if msg == "" {
				continue
			}
			for len(trace) > 1 {
				half := len(trace) / 2
				if m := accountingViolation(cfg, cores, trace[:half], scrambled); m != "" {
					trace, msg = trace[:half], m
				} else if m := accountingViolation(cfg, cores, trace[half:], scrambled); m != "" {
					trace, msg = trace[half:], m
				} else {
					break
				}
			}
			t.Fatalf("seed %d, dram %+v, %d cores, scrambled=%v, trace shrunk to %d accesses: %s", seed, cfg, cores, scrambled, len(trace), msg)
		}
	}
}
