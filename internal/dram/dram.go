// Package dram models the main-memory subsystem: multiple memory
// controllers with address-interleaved line mapping, each an independent
// bandwidth-limited queue. Access latency is the unloaded DRAM latency plus
// an M/D/1-style queuing delay driven by the controller's measured
// utilization, updated at epoch boundaries by the simulator.
//
// The split between "number of controllers" and "bandwidth per controller"
// matters: the paper's MC-first vs MB-first scaling study (Fig. 8) works
// precisely because a 16 GB/s controller drains a 64-byte line four times
// faster than a 4 GB/s controller at equal total bandwidth, giving different
// queuing delay at the same utilization.
package dram

import (
	"fmt"

	"scalesim/internal/config"
	"scalesim/internal/pad"
	"scalesim/internal/units"
)

// Memory is the DRAM subsystem state for one simulated machine.
type Memory struct {
	mcs         int
	bytesPerCyc units.BytesPerCycle // per-controller capacity
	baseLatency units.Cycles

	epochBytes []units.Bytes // demand accumulated this epoch, per controller
	util       []float64     // smoothed utilization, per controller

	// Row-buffer efficiency: interleaved request streams from many cores
	// destroy per-controller row locality, reducing the usable fraction of
	// peak bandwidth. epochStreams tracks which cores touched each
	// controller this epoch (bitmask, core id mod 64); eff is the smoothed
	// efficiency per controller.
	epochStreams []uint64
	eff          []float64

	// Cumulative statistics.
	perCoreBytes []units.Bytes
	TotalReads   uint64
	TotalWrites  uint64
	TotalBytes   units.Bytes
}

// lineBytes is the transfer granularity: every access moves one 64-byte
// line, and the M/D/1 service time is that of one line.
const lineBytes = units.Bytes(64)

// New builds the DRAM model from cfg for a machine clocked at freqGHz with
// cores cores (for per-core bandwidth attribution).
func New(cfg config.DRAMConfig, freqGHz float64, cores int) (*Memory, error) {
	if cfg.Controllers < 1 {
		return nil, fmt.Errorf("dram: %d controllers", cfg.Controllers)
	}
	if cfg.PerControllerGBps <= 0 {
		return nil, fmt.Errorf("dram: non-positive bandwidth %v", cfg.PerControllerGBps)
	}
	if freqGHz <= 0 {
		return nil, fmt.Errorf("dram: invalid frequency %v GHz", freqGHz)
	}
	m := &Memory{
		mcs:          cfg.Controllers,
		bytesPerCyc:  units.FromGBps(float64(cfg.PerControllerGBps), freqGHz),
		baseLatency:  units.Cycles(cfg.BaseLatency),
		epochBytes:   make([]units.Bytes, cfg.Controllers),
		util:         make([]float64, cfg.Controllers),
		epochStreams: make([]uint64, cfg.Controllers),
		eff:          make([]float64, cfg.Controllers),
		perCoreBytes: make([]units.Bytes, cores),
	}
	for i := range m.eff {
		m.eff[i] = 1
	}
	return m, nil
}

// Controllers returns the number of memory controllers.
func (m *Memory) Controllers() int { return m.mcs }

// MCOf returns the controller serving addr: line-interleaved via a mixing
// hash, so any access pattern spreads across controllers.
func (m *Memory) MCOf(addr uint64) int {
	line := addr >> 6
	line *= 0xd6e8feb86659fd93
	return int((line >> 32) % uint64(m.mcs))
}

// Acc accumulates one core's DRAM traffic during an epoch. Latencies read
// only the utilization and efficiency estimates frozen at the last epoch
// boundary, and the Memory's counters are per-controller sums and stream
// sets, so which accumulator took which access and the order accumulators
// are merged in change nothing the Memory reports.
type Acc struct {
	epochBytes   []units.Bytes
	epochStreams []uint64
	coreBytes    units.Bytes
	reads        uint64
	writes       uint64
}

// NewAcc returns an accumulator shaped for this memory's controller count,
// on host cache lines no other core's accumulator shares (see package pad).
func (m *Memory) NewAcc() *Acc {
	return pad.New(Acc{
		epochBytes:   pad.Slice[units.Bytes](m.mcs),
		epochStreams: pad.Slice[uint64](m.mcs),
	})
}

// AccessInto accounts a read (write=false) or write of one line at addr by
// core into a and returns its latency in cycles under the load estimate of
// the last epoch boundary. The Memory itself is only read, so concurrent
// callers with distinct accumulators are safe.
func (m *Memory) AccessInto(a *Acc, core int, addr uint64, bytes units.Bytes, write bool) units.Cycles {
	mc := m.MCOf(addr)
	a.epochBytes[mc] += bytes
	a.epochStreams[mc] |= 1 << (uint(core) % 64)
	a.coreBytes += bytes
	if write {
		a.writes++
		// Writes are posted: they consume bandwidth but do not stall the
		// requester, so no latency is returned.
		return 0
	}
	a.reads++
	return m.baseLatency + m.queueDelay(mc)
}

// Merge adds an accumulator's demand to the epoch's per-controller demand
// and stream sets and to the cumulative counters, attributing its bytes to
// core, and leaves the accumulator zero.
func (m *Memory) Merge(core int, a *Acc) {
	for mc := range a.epochBytes {
		m.epochBytes[mc] += a.epochBytes[mc]
		m.epochStreams[mc] |= a.epochStreams[mc]
		a.epochBytes[mc] = 0
		a.epochStreams[mc] = 0
	}
	m.perCoreBytes[core] += a.coreBytes
	m.TotalBytes += a.coreBytes
	m.TotalReads += a.reads
	m.TotalWrites += a.writes
	a.coreBytes = 0
	a.reads = 0
	a.writes = 0
}

// queueDelay returns the M/D/1 waiting time at controller mc: the service
// time of one 64-byte line scaled by rho/(2(1-rho)), with utilization capped
// just below saturation. The CPI feedback loop (higher latency -> lower
// request rate) provides the real throttling; the cap only bounds the
// transient.
func (m *Memory) queueDelay(mc int) units.Cycles {
	rho := m.util[mc]
	if rho > 0.98 {
		rho = 0.98
	}
	if rho <= 0 {
		return 0
	}
	service := m.bytesPerCyc.Scale(m.eff[mc]).Transfer(lineBytes)
	return service.Scale(rho / (2 * (1 - rho)))
}

// rowEfficiency returns the usable fraction of peak bandwidth when streams
// distinct request streams interleave at one controller: a single stream
// keeps near-perfect row-buffer locality; many co-running programs degrade
// it towards a 3/4 floor. This is a first-order stand-in for DRAM page
// policy effects, and it is precisely the kind of target-system behaviour a
// proportionally scaled-down model cannot reproduce (motivating the paper's
// ML extrapolation step).
func rowEfficiency(streams int) float64 {
	if streams < 1 {
		streams = 1
	}
	return 0.75 + 0.25/float64(streams)
}

// EndEpoch folds the demand accounted since the last call into each
// controller's utilization estimate, given the epoch length in cycles.
func (m *Memory) EndEpoch(cycles units.Cycles) {
	if cycles <= 0 {
		return
	}
	for mc := range m.epochBytes {
		streams := popcount(m.epochStreams[mc])
		if m.epochBytes[mc] > 0 {
			m.eff[mc] = float64(0.5*m.eff[mc]) + float64(0.5*rowEfficiency(streams))
		}
		capacity := m.bytesPerCyc.Scale(m.eff[mc]).Capacity(cycles)
		inst := float64(m.epochBytes[mc]) / float64(capacity)
		if inst > 1.5 {
			inst = 1.5
		}
		m.util[mc] = float64(0.5*m.util[mc]) + float64(0.5*inst)
		m.epochBytes[mc] = 0
		m.epochStreams[mc] = 0
	}
}

// Utilization returns the mean smoothed utilization across controllers.
func (m *Memory) Utilization() float64 {
	sum := 0.0
	for _, u := range m.util {
		sum += u
	}
	return sum / float64(len(m.util))
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// QueueDelay returns the mean M/D/1 waiting time across controllers under
// the current utilization and efficiency estimates — the queuing penalty a
// read issued now would expect on an average controller.
func (m *Memory) QueueDelay() units.Cycles {
	sum := units.Cycles(0)
	for mc := range m.util {
		sum += m.queueDelay(mc)
	}
	return sum.Scale(1 / float64(len(m.util)))
}

// Efficiency returns the mean smoothed row-buffer efficiency across
// controllers.
func (m *Memory) Efficiency() float64 {
	sum := 0.0
	for _, e := range m.eff {
		sum += e
	}
	return sum / float64(len(m.eff))
}

// CoreBytes returns the cumulative DRAM traffic attributed to core.
func (m *Memory) CoreBytes(core int) units.Bytes { return m.perCoreBytes[core] }
