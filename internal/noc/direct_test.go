package noc

import (
	"fmt"
	"math"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/units"
	"scalesim/internal/xrand"
)

// Latency is the direct accounting form the simulator used before the epoch
// fork/join: it returns the latency of one message and records its traffic
// straight into the Mesh. LatencyInto + Merge replaced it; it is kept,
// verbatim, as their oracle.
func (m *Mesh) Latency(from, to int, bytes units.Bytes) units.Cycles {
	hops, crossing := m.Route(from, to)
	m.TotalMessages++
	m.TotalBytes += bytes
	lat := m.hopLatency.Scale(float64(hops))
	if crossing {
		m.epochBisectionBytes += bytes
		m.TotalBisectionBytes += bytes
		lat += m.queueDelay()
	}
	return lat
}

// lawMsg is one message of a generated trace: sent by core, accounted into
// accumulator core (canonical) or alt (scrambled). end > 0 closes an epoch of
// that many cycles after the message.
type lawMsg struct {
	core, alt int
	from, to  int
	bytes     units.Bytes
	end       units.Cycles
}

// accountingViolation replays trace on two meshes of one configuration —
// directly, and through cores accumulators merged in core order at every
// epoch end — and returns the first difference between them, or "".
func accountingViolation(cfg config.NoCConfig, cores int, trace []lawMsg, scrambled bool) string {
	direct, err := New(cfg, 4.0)
	if err != nil {
		return err.Error()
	}
	into, _ := New(cfg, 4.0)
	accs := make([]Acc, cores)
	barrier := func(i int, cycles units.Cycles) string {
		for c := range accs {
			into.Merge(&accs[c])
			if accs[c] != (Acc{}) {
				return fmt.Sprintf("msg %d: accumulator %d is %+v after Merge, want zero", i, c, accs[c])
			}
		}
		direct.EndEpoch(cycles)
		into.EndEpoch(cycles)
		if *direct != *into {
			return fmt.Sprintf("msg %d: after the epoch's barrier the mesh is %+v, the direct form's %+v", i, *into, *direct)
		}
		if d, a := direct.QueueDelay(), into.QueueDelay(); math.Float64bits(float64(d)) != math.Float64bits(float64(a)) {
			return fmt.Sprintf("msg %d: queue delay %v, the direct form's %v", i, a, d)
		}
		return ""
	}
	for i, msg := range trace {
		acc := msg.core
		if scrambled {
			acc = msg.alt
		}
		want := direct.Latency(msg.from, msg.to, msg.bytes)
		got := into.LatencyInto(&accs[acc], msg.from, msg.to, msg.bytes)
		if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
			return fmt.Sprintf("msg %d: latency %v, the direct form's %v", i, got, want)
		}
		if msg.end > 0 {
			if v := barrier(i, msg.end); v != "" {
				return v
			}
		}
	}
	return barrier(len(trace), 0)
}

// TestAccumulatorsMatchDirectAccounting holds the path core.step executes —
// LatencyInto per message, Merge in core order and EndEpoch at the barrier —
// to the direct form over generated meshes, core counts and traffic: every
// latency bit-equal, every counter and the post-EndEpoch utilization and
// queue delay equal, an accumulator zero after Merge, and all of it whichever
// accumulator took which message. A failing trace is shrunk by halving.
func TestAccumulatorsMatchDirectAccounting(t *testing.T) {
	seeds := uint64(200)
	if testing.Short() {
		seeds = 40
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		rng := xrand.New(seed)
		cfg := config.NoCConfig{
			MeshWidth: 1 + rng.Intn(8), MeshHeight: 1 + rng.Intn(8),
			CrossSectionLinks: 1 + rng.Intn(8), LinkGBps: config.GBps(int(1) << rng.Intn(6)), HopLatency: rng.Intn(4),
		}
		tiles, cores := cfg.MeshWidth*cfg.MeshHeight, 1+rng.Intn(32)
		epoch := 1 + rng.Intn(400) // mean messages per epoch
		trace := make([]lawMsg, 2000)
		for i := range trace {
			trace[i] = lawMsg{
				core: rng.Intn(cores), alt: rng.Intn(cores),
				from: rng.Intn(tiles), to: rng.Intn(tiles), bytes: units.Bytes(int(8) << rng.Intn(4)),
			}
			if rng.Intn(epoch) == 0 {
				// Short epochs saturate the bisection, long ones leave it idle.
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
			t.Fatalf("seed %d, mesh %+v, %d cores, scrambled=%v, trace shrunk to %d messages: %s", seed, cfg, cores, scrambled, len(trace), msg)
		}
	}
}
