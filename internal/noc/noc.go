// Package noc models the 2D mesh on-chip network: XY-routed hop latency
// between tiles plus a queuing delay on the mesh's bisection (cross-section)
// links driven by measured traffic.
//
// The model is epoch-based, matching the simulator's contention scheme: the
// simulator accounts every message's bytes during an epoch; at the epoch
// boundary the bisection utilization is recomputed and determines the
// congestion delay applied to bisection-crossing messages in the next epoch.
// This is the same feedback abstraction high-speed simulators like Sniper
// use in their default network models.
package noc

import (
	"fmt"

	"scalesim/internal/config"
	"scalesim/internal/units"
)

// Mesh is the mesh NoC state for one simulated machine.
type Mesh struct {
	w, h       int
	hopLatency units.Cycles
	// linkBytesPerCycle is the capacity of one cross-section link expressed
	// in bytes per core clock cycle.
	linkBytesPerCycle units.BytesPerCycle
	csls              int

	// Epoch accounting.
	epochBisectionBytes units.Bytes
	util                float64 // smoothed bisection utilization

	// Cumulative statistics.
	TotalMessages       uint64
	TotalBisectionBytes units.Bytes
	TotalBytes          units.Bytes
}

// flitBytes is the link arbitration granularity: the service time underlying
// the M/D/1 queue is that of one 64-byte flit group.
const flitBytes = units.Bytes(64)

// New builds a mesh from cfg for a machine clocked at freqGHz. Bandwidth is
// not capacity-scaled: the global miniaturisation shortens runs but the
// bytes-per-cycle ratios between configurations are what matter, and those
// come straight from cfg.
func New(cfg config.NoCConfig, freqGHz float64) (*Mesh, error) {
	if cfg.MeshWidth < 1 || cfg.MeshHeight < 1 {
		return nil, fmt.Errorf("noc: invalid mesh %dx%d", cfg.MeshWidth, cfg.MeshHeight)
	}
	if cfg.CrossSectionLinks < 1 || cfg.LinkGBps <= 0 {
		return nil, fmt.Errorf("noc: invalid cross-section %d links x %v", cfg.CrossSectionLinks, cfg.LinkGBps)
	}
	if freqGHz <= 0 {
		return nil, fmt.Errorf("noc: invalid frequency %v GHz", freqGHz)
	}
	return &Mesh{
		w:                 cfg.MeshWidth,
		h:                 cfg.MeshHeight,
		hopLatency:        units.Cycles(cfg.HopLatency),
		linkBytesPerCycle: units.FromGBps(float64(cfg.LinkGBps), freqGHz),
		csls:              cfg.CrossSectionLinks,
	}, nil
}

// Tile returns the (x, y) mesh coordinates of tile id (row-major layout).
func (m *Mesh) Tile(id int) (x, y int) { return id % m.w, id / m.w }

// MCTile returns the tile adjacent to memory controller mc out of total.
// Controllers are spread across the top and bottom mesh rows, as in typical
// server floorplans.
func (m *Mesh) MCTile(mc, total int) int {
	if total <= 0 {
		return 0
	}
	mc = mc % total
	half := (total + 1) / 2
	if mc < half {
		// Bottom row (y = 0), spread across x.
		x := (mc*m.w + m.w/2) / max(half, 1) % m.w
		return x
	}
	// Top row (y = h-1).
	i := mc - half
	x := (i*m.w + m.w/2) / max(total-half, 1) % m.w
	return (m.h-1)*m.w + x
}

// Route returns the XY-routing hop count between two tiles and whether the
// route crosses the horizontal bisection cut (between rows h/2-1 and h/2).
func (m *Mesh) Route(from, to int) (hops int, crossesBisection bool) {
	fx, fy := m.Tile(from)
	tx, ty := m.Tile(to)
	dx, dy := tx-fx, ty-fy
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	hops = dx + dy
	if m.h >= 2 {
		cut := m.h / 2
		crossesBisection = (fy < cut) != (ty < cut)
	}
	return hops, crossesBisection
}

// Acc accumulates one core's mesh traffic during an epoch. Latencies read
// only the utilization frozen at the last epoch boundary, and the Mesh's
// counters are sums, so which accumulator took which message and the order
// accumulators are merged in change nothing the Mesh reports.
type Acc struct {
	messages       uint64
	bytes          units.Bytes
	bisectionBytes units.Bytes
}

// LatencyInto returns the current network latency in cycles for a message of
// size bytes between two tiles and accounts its traffic into a. The latency
// is hop propagation plus, for bisection-crossing messages, the congestion
// delay derived from the utilization at the last epoch boundary. The Mesh
// itself is only read, so concurrent callers with distinct accumulators are
// safe.
func (m *Mesh) LatencyInto(a *Acc, from, to int, bytes units.Bytes) units.Cycles {
	hops, crossing := m.Route(from, to)
	a.messages++
	a.bytes += bytes
	lat := m.hopLatency.Scale(float64(hops))
	if crossing {
		a.bisectionBytes += bytes
		lat += m.queueDelay()
	}
	return lat
}

// Merge adds an accumulator's traffic to the epoch's bisection demand and to
// the cumulative counters, and leaves the accumulator zero.
func (m *Mesh) Merge(a *Acc) {
	m.TotalMessages += a.messages
	m.TotalBytes += a.bytes
	m.epochBisectionBytes += a.bisectionBytes
	m.TotalBisectionBytes += a.bisectionBytes
	*a = Acc{}
}

// queueDelay is an M/D/1-style waiting time on a cross-section link:
// W = s * rho / (2 * (1 - rho)), with s the service time of a 64-byte flit
// group and rho the smoothed bisection utilization, capped below 1.
func (m *Mesh) queueDelay() units.Cycles {
	rho := m.util
	if rho > 0.98 {
		rho = 0.98
	}
	if rho <= 0 {
		return 0
	}
	service := m.linkBytesPerCycle.Transfer(flitBytes)
	return service.Scale(rho / (2 * (1 - rho)))
}

// EndEpoch folds the traffic accounted since the previous call into the
// utilization estimate, given the epoch length in cycles.
func (m *Mesh) EndEpoch(cycles units.Cycles) {
	if cycles <= 0 {
		return
	}
	capacity := m.linkBytesPerCycle.Capacity(cycles).Scale(float64(m.csls))
	inst := 0.0
	if capacity > 0 {
		inst = float64(m.epochBisectionBytes) / float64(capacity)
	}
	if inst > 1.5 {
		inst = 1.5 // bounded overshoot; the CPI feedback throttles demand
	}
	// Exponential smoothing stabilises the fixed point across epochs.
	m.util = float64(0.5*m.util) + float64(0.5*inst)
	m.epochBisectionBytes = 0
}

// Utilization returns the smoothed bisection utilization (can exceed 1
// transiently when demand overshoots capacity).
func (m *Mesh) Utilization() float64 { return m.util }

// QueueDelay returns the congestion delay currently charged to
// bisection-crossing messages — the telemetry view of queueDelay.
func (m *Mesh) QueueDelay() units.Cycles { return m.queueDelay() }
