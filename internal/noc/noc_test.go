package noc

import (
	"math"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/units"
)

func mesh4x8(t *testing.T) *Mesh {
	t.Helper()
	m, err := New(config.NoCConfig{
		MeshWidth: 4, MeshHeight: 8, CrossSectionLinks: 4, LinkGBps: 32, HopLatency: 2,
	}, 4.0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// epoch closes an epoch the way the simulator's barrier does: the
// accumulator is merged, then the utilization is recomputed.
func epoch(m *Mesh, a *Acc, cycles units.Cycles) {
	m.Merge(a)
	m.EndEpoch(cycles)
}

func TestNewErrors(t *testing.T) {
	bad := []config.NoCConfig{
		{MeshWidth: 0, MeshHeight: 4, CrossSectionLinks: 1, LinkGBps: 4},
		{MeshWidth: 4, MeshHeight: 4, CrossSectionLinks: 0, LinkGBps: 4},
		{MeshWidth: 4, MeshHeight: 4, CrossSectionLinks: 1, LinkGBps: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg, 4.0); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := New(config.NoCConfig{MeshWidth: 2, MeshHeight: 2, CrossSectionLinks: 1, LinkGBps: 4}, 0); err == nil {
		t.Error("zero frequency accepted")
	}
}

func TestTileLayout(t *testing.T) {
	m := mesh4x8(t)
	if m.w*m.h != 32 {
		t.Fatalf("tiles = %d, want 32", m.w*m.h)
	}
	cases := map[int][2]int{0: {0, 0}, 3: {3, 0}, 4: {0, 1}, 31: {3, 7}}
	for id, want := range cases {
		x, y := m.Tile(id)
		if x != want[0] || y != want[1] {
			t.Errorf("tile %d at (%d,%d), want (%d,%d)", id, x, y, want[0], want[1])
		}
	}
}

func TestRouteHops(t *testing.T) {
	m := mesh4x8(t)
	cases := []struct {
		from, to, hops int
		crossing       bool
	}{
		{0, 0, 0, false},
		{0, 1, 1, false},   // same row
		{0, 4, 1, false},   // one row up
		{0, 31, 10, true},  // corner to corner: 3 + 7
		{12, 16, 1, true},  // row 3 -> row 4 crosses the cut
		{16, 12, 1, true},  // symmetric
		{16, 20, 1, false}, // rows 4 -> 5, above the cut
	}
	for _, c := range cases {
		hops, crossing := m.Route(c.from, c.to)
		if hops != c.hops || crossing != c.crossing {
			t.Errorf("Route(%d,%d) = (%d,%v), want (%d,%v)", c.from, c.to, hops, crossing, c.hops, c.crossing)
		}
	}
}

func TestSingleTileMesh(t *testing.T) {
	m, err := New(config.NoCConfig{MeshWidth: 1, MeshHeight: 1, CrossSectionLinks: 1, LinkGBps: 4, HopLatency: 2}, 4.0)
	if err != nil {
		t.Fatal(err)
	}
	hops, crossing := m.Route(0, 0)
	if hops != 0 || crossing {
		t.Fatalf("1x1 route = (%d,%v), want (0,false)", hops, crossing)
	}
}

func TestLatencyGrowsWithUtilization(t *testing.T) {
	m := mesh4x8(t)
	var a Acc
	// Unloaded: crossing latency is pure hop latency.
	l0 := m.LatencyInto(&a, 0, 31, 64)
	if l0 != 20 {
		t.Fatalf("unloaded corner-to-corner latency %v, want 10 hops x 2 = 20", l0)
	}
	// Saturate the bisection for several epochs.
	for e := 0; e < 10; e++ {
		for i := 0; i < 10000; i++ {
			m.LatencyInto(&a, 0, 31, 64)
		}
		epoch(m, &a, 1000) // tiny epoch => huge utilization
	}
	lLoaded := m.LatencyInto(&a, 0, 31, 64)
	if lLoaded <= l0+10 {
		t.Fatalf("loaded latency %v not meaningfully above unloaded %v", lLoaded, l0)
	}
	// Non-crossing messages see no congestion delay.
	lLocal := m.LatencyInto(&a, 0, 1, 64)
	if lLocal != 2 {
		t.Fatalf("non-crossing latency %v, want 2", lLocal)
	}
}

func TestEndEpochDecaysUtilization(t *testing.T) {
	m := mesh4x8(t)
	var a Acc
	for i := 0; i < 10000; i++ {
		m.LatencyInto(&a, 0, 31, 64)
	}
	epoch(m, &a, 1000)
	u1 := m.Utilization()
	if u1 <= 0 {
		t.Fatal("utilization not raised by traffic")
	}
	// Idle epochs decay it.
	for e := 0; e < 20; e++ {
		m.EndEpoch(100000)
	}
	if u := m.Utilization(); u > u1/100 {
		t.Fatalf("utilization %v did not decay from %v", u, u1)
	}
}

func TestUtilizationBounded(t *testing.T) {
	m := mesh4x8(t)
	var a Acc
	for e := 0; e < 50; e++ {
		for i := 0; i < 100000; i++ {
			m.LatencyInto(&a, 0, 31, 64)
		}
		epoch(m, &a, 1)
	}
	if u := m.Utilization(); u > 1.5 {
		t.Fatalf("utilization %v exceeds overshoot bound 1.5", u)
	}
	// Queue delay must stay finite at saturation.
	if l := m.LatencyInto(&a, 0, 31, 64); math.IsInf(float64(l), 0) || math.IsNaN(float64(l)) || l > 1e6 {
		t.Fatalf("saturated latency %v not finite/bounded", l)
	}
}

func TestMCTilesOnEdges(t *testing.T) {
	m := mesh4x8(t)
	for mc := 0; mc < 8; mc++ {
		tile := m.MCTile(mc, 8)
		_, y := m.Tile(tile)
		if y != 0 && y != 7 {
			t.Errorf("MC %d at tile %d (row %d); controllers must sit on top/bottom rows", mc, tile, y)
		}
	}
	// All 8 MCs map to distinct tiles on a 4x8 mesh.
	seen := map[int]bool{}
	for mc := 0; mc < 8; mc++ {
		tile := m.MCTile(mc, 8)
		if seen[tile] {
			t.Errorf("MC %d shares tile %d", mc, tile)
		}
		seen[tile] = true
	}
}

func TestMCTileSingleController(t *testing.T) {
	m, err := New(config.NoCConfig{MeshWidth: 1, MeshHeight: 2, CrossSectionLinks: 1, LinkGBps: 8, HopLatency: 2}, 4.0)
	if err != nil {
		t.Fatal(err)
	}
	tile := m.MCTile(0, 1)
	if tile < 0 || tile >= m.w*m.h {
		t.Fatalf("MC tile %d out of mesh", tile)
	}
}

func TestAverageHopsGrowsWithMesh(t *testing.T) {
	// Mean XY hop distance between distinct tiles, from Route.
	averageHops := func(m *Mesh) float64 {
		total, pairs := 0, 0
		for a := 0; a < m.w*m.h; a++ {
			for b := 0; b < m.w*m.h; b++ {
				if h, _ := m.Route(a, b); a != b {
					total += h
					pairs++
				}
			}
		}
		return float64(total) / float64(pairs)
	}
	small, _ := New(config.NoCConfig{MeshWidth: 2, MeshHeight: 2, CrossSectionLinks: 2, LinkGBps: 8, HopLatency: 2}, 4.0)
	big := mesh4x8(t)
	if averageHops(small) >= averageHops(big) {
		t.Fatalf("2x2 average hops %v >= 4x8 average hops %v", averageHops(small), averageHops(big))
	}
}

func TestTrafficStatistics(t *testing.T) {
	m := mesh4x8(t)
	var a Acc
	m.LatencyInto(&a, 0, 31, 64) // crossing
	m.LatencyInto(&a, 0, 1, 8)   // not crossing
	if m.TotalMessages != 0 {
		t.Fatalf("messages = %d before Merge, want 0", m.TotalMessages)
	}
	m.Merge(&a)
	if m.TotalMessages != 2 {
		t.Fatalf("messages = %d, want 2", m.TotalMessages)
	}
	if m.TotalBytes != 72 {
		t.Fatalf("total bytes = %v, want 72", m.TotalBytes)
	}
	if m.TotalBisectionBytes != 64 {
		t.Fatalf("bisection bytes = %v, want 64", m.TotalBisectionBytes)
	}
}
