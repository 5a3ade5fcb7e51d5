// Canonical cache-key encoding for the campaign engine.
//
// The memoization key must be a pure function of a job's *semantic content*:
// the machine configuration, every workload profile's parameters, and the
// simulation options. Hashing Go's reflected "%+v" rendering is not that —
// any pointer-, map-, or interface-typed field (such as the telemetry
// options) renders as an address or in nondeterministic order, making keys
// differ between processes that describe the identical simulation and
// silently defeating cross-campaign memoization. Instead every field is
// written explicitly, in a fixed order, with a fixed format; the encoding
// (and the regression test pinning a fixture key) must be extended whenever
// a semantic field is added to config.SystemConfig, trace.Profile or
// sim.Options.
package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"scalesim/internal/config"
	"scalesim/internal/sim"
	"scalesim/internal/trace"
)

// Key returns the job's content-addressed cache key: a hex SHA-256 over a
// canonical field-by-field encoding of the full configuration, every
// profile's parameters, and the options (seed included). Profiles are keyed
// by value, so two custom benchmarks sharing a name but differing in any
// parameter never collide. The key is byte-stable across processes and
// platforms. The performance-only option (CoreWorkers) is excluded; whether
// telemetry is enabled is included, because it changes the result's content
// (Result.Trace).
func (j Job) Key() string {
	h := sha256.New()
	if j.Config != nil {
		writeConfig(h, j.Config)
	}
	for _, p := range j.Workload.Profiles {
		if p != nil {
			writeProfile(h, p)
		}
	}
	writeOptions(h, j.Options)
	return hex.EncodeToString(h.Sum(nil))
}

// writeConfig encodes every semantic field of the machine configuration.
// Floats use Go's shortest round-trip formatting (%v), which is exact and
// deterministic.
func writeConfig(w io.Writer, c *config.SystemConfig) {
	fmt.Fprintf(w, "cfg|name=%s|cores=%d\n", c.Name, c.Cores)
	fmt.Fprintf(w, "core|freq=%v|width=%d|rob=%d|loads=%d|stores=%d|mshrs=%d|mispredict=%d\n",
		c.Core.FrequencyGHz, c.Core.IssueWidth, c.Core.ROBSize,
		c.Core.MaxLoads, c.Core.MaxStores, c.Core.MaxL1DMisses, c.Core.MispredictCost)
	writeCacheLevel(w, "l1i", c.L1I)
	writeCacheLevel(w, "l1d", c.L1D)
	writeCacheLevel(w, "l2", c.L2)
	fmt.Fprintf(w, "llc|slices=%d|slice=%d|assoc=%d|line=%d|time=%d\n",
		c.LLC.Slices, int64(c.LLC.SlicePerCore), c.LLC.Assoc, int64(c.LLC.LineSize), c.LLC.AccessTime)
	fmt.Fprintf(w, "noc|w=%d|h=%d|csls=%d|link=%v|hop=%d\n",
		c.NoC.MeshWidth, c.NoC.MeshHeight, c.NoC.CrossSectionLinks,
		float64(c.NoC.LinkGBps), c.NoC.HopLatency)
	fmt.Fprintf(w, "dram|mcs=%d|permc=%v|lat=%d\n",
		c.DRAM.Controllers, float64(c.DRAM.PerControllerGBps), c.DRAM.BaseLatency)
}

func writeCacheLevel(w io.Writer, tag string, l config.CacheLevelConfig) {
	fmt.Fprintf(w, "%s|size=%d|assoc=%d|line=%d|time=%d\n",
		tag, int64(l.Size), l.Assoc, int64(l.LineSize), l.AccessTime)
}

// writeProfile encodes one workload profile by value, regions included.
func writeProfile(w io.Writer, p *trace.Profile) {
	fmt.Fprintf(w, "prof|name=%s|cpi=%v|loads=%d|stores=%d|branches=%d|mlp=%v|static=%d|hard=%v|code=%d\n",
		p.Name, p.BaseCPI, p.LoadsPerKI, p.StoresPerKI, p.BranchesPerKI,
		p.MLP, p.StaticBranches, p.HardFrac, int64(p.IFootprint))
	for _, r := range p.Regions {
		fmt.Fprintf(w, "region|size=%d|frac=%v|pattern=%d|elem=%d|zipf=%v\n",
			int64(r.Size), r.Frac, uint8(r.Pattern), r.ElemSize, r.ZipfS)
	}
}

// writeOptions encodes the simulation options. CoreWorkers is excluded (it
// cannot change results); telemetry's enablement and warmup-coverage bits
// are included, since they change the produced Result.
func writeOptions(w io.Writer, o sim.Options) {
	traced, warm := false, false
	if o.Telemetry != nil {
		traced, warm = true, o.Telemetry.Warmup
	}
	fmt.Fprintf(w, "opts|instr=%d|warmup=%d|epoch=%v|scale=%d|seed=%d|nofb=%t|part=%t|pf=%t|trace=%t|tracewarm=%t\n",
		o.Instructions, o.Warmup, o.EpochCycles, o.CapacityScale, o.Seed,
		o.NoFeedback, o.PartitionedLLC, o.EnablePrefetch, traced, warm)
}
