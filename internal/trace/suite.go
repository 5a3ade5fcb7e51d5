package trace

import "scalesim/internal/config"

// Suite returns the 29-benchmark workload suite used by every experiment,
// mirroring the paper's SPEC CPU2017 setup (N=29, §IV-2). Profiles span the
// same behavioural spectrum as Fig. 3's x-axis: from compute-bound
// (exchange2, leela) through LLC-capacity-sensitive, up to
// bandwidth-saturating streaming (lbm) and latency-bound pointer chasing
// (mcf, omnetpp). The most memory-intensive profile is named milc, matching
// the paper's reported worst case for PRS without extrapolation.
//
// Each profile is built from a common recipe relative to the Table II
// machine (256 KB L2, 1 MB fair LLC share per core, 32 MB full LLC):
//
//   - hot data split across an L1-resident (16 KB), an L2-resident (128 KB)
//     and an LLC-share-resident (512 KB) region — these produce the hit
//     traffic at each level;
//   - a "capacity" region (2-24 MB, uniform random): it fits in the full
//     32 MB LLC but not in a 1 MB share, so its miss rate depends on the
//     *available* LLC capacity — the mechanism behind the NRS-vs-PRS gap of
//     Fig. 3 and behind heterogeneous LLC stealing;
//   - a "stream" region (sequential, far larger than any LLC): pure
//     bandwidth demand, one compulsory miss per line;
//   - a "chase" region (dependent pointer walk): latency-bound misses with
//     MLP 1.
//
// The miss-generator fractions are dosed so that LLC MPKI on a 1 MB-share
// machine covers ~0 to ~25 across the suite, with per-benchmark bandwidth
// demand up to ~2x the 4 GB/s per-core budget — the regime in which the
// paper's contention effects (and extrapolation benefits) appear.
func Suite() []*Profile {
	const kb, mb = config.KB, config.MB

	type missGen struct {
		capMB   int     // capacity-region size in MB (0 = none)
		capFrac float64 // fraction of accesses to the capacity region
		strFrac float64 // fraction to the stream region
		strMB   int     // stream region size in MB
		strElem int     // stream element size (default 8)
		chsFrac float64 // fraction to the chase region
		chsMB   int     // chase region size in MB
		rndFrac float64 // fraction to a very large uniform region (always missing)
		rndMB   int
	}

	build := func(name string, baseCPI float64, loads, stores, branches int,
		mlp, hardFrac float64, code config.Bytes, g missGen) *Profile {
		rest := 1.0 - g.capFrac - g.strFrac - g.chsFrac - g.rndFrac
		// Hit-traffic split: the bulk of accesses are L1-resident; a few
		// percent spill to the L2 and LLC. (Real workloads have single-digit
		// L2 MPKI; an overweight LLC-resident share would saturate the NoC
		// for every benchmark.)
		regions := []Region{
			{Size: 16 * kb, Frac: rest * 0.90, Pattern: Zipf, ZipfS: 1.1},
			{Size: 96 * kb, Frac: rest * 0.08, Pattern: Zipf, ZipfS: 1.0},
			{Size: 384 * kb, Frac: rest * 0.02, Pattern: Zipf, ZipfS: 0.9},
		}
		if g.capFrac > 0 {
			regions = append(regions, Region{
				Size: config.Bytes(g.capMB) * mb, Frac: g.capFrac, Pattern: Rand,
			})
		}
		if g.strFrac > 0 {
			elem := g.strElem
			if elem == 0 {
				elem = 8
			}
			regions = append(regions, Region{
				Size: config.Bytes(g.strMB) * mb, Frac: g.strFrac, Pattern: Seq, ElemSize: elem,
			})
		}
		if g.chsFrac > 0 {
			regions = append(regions, Region{
				Size: config.Bytes(g.chsMB) * mb, Frac: g.chsFrac, Pattern: Chase,
			})
		}
		if g.rndFrac > 0 {
			regions = append(regions, Region{
				Size: config.Bytes(g.rndMB) * mb, Frac: g.rndFrac, Pattern: Rand,
			})
		}
		return &Profile{
			Name:           name,
			BaseCPI:        baseCPI,
			LoadsPerKI:     loads,
			StoresPerKI:    stores,
			BranchesPerKI:  branches,
			MLP:            mlp,
			StaticBranches: 512,
			HardFrac:       hardFrac,
			Regions:        regions,
			IFootprint:     code,
		}
	}

	return []*Profile{
		// --- compute-bound ---
		build("exchange2", 0.35, 180, 90, 180, 2.0, 0.08, 64*kb, missGen{}),
		build("leela", 0.45, 210, 60, 140, 2.0, 0.30, 128*kb, missGen{}),
		build("povray", 0.40, 250, 80, 120, 2.5, 0.12, 256*kb,
			missGen{strFrac: 0.0006, strMB: 64}),
		build("imagick", 0.35, 260, 110, 60, 3.0, 0.05, 128*kb,
			missGen{strFrac: 0.004, strMB: 64}),
		build("namd", 0.40, 280, 90, 50, 3.0, 0.05, 192*kb,
			missGen{capMB: 2, capFrac: 0.002}),

		// --- mildly cache-sensitive ---
		build("x264", 0.45, 290, 120, 80, 3.5, 0.10, 256*kb,
			missGen{capMB: 2, capFrac: 0.002, strFrac: 0.006, strMB: 64}),
		build("deepsjeng", 0.50, 230, 90, 160, 2.0, 0.30, 384*kb,
			missGen{capMB: 3, capFrac: 0.003}),
		build("perlbench", 0.55, 270, 140, 180, 1.8, 0.15, 1*mb,
			missGen{capMB: 4, capFrac: 0.003}),
		build("nab", 0.45, 270, 80, 70, 3.0, 0.08, 192*kb,
			missGen{capMB: 2, capFrac: 0.004, strFrac: 0.004, strMB: 64}),
		build("gcc", 0.60, 250, 120, 200, 1.8, 0.18, 2*mb,
			missGen{capMB: 6, capFrac: 0.005}),
		build("blender", 0.45, 280, 100, 90, 3.0, 0.10, 512*kb,
			missGen{capMB: 8, capFrac: 0.005, strFrac: 0.004, strMB: 64}),

		// --- LLC-capacity-sensitive: footprints between the 1 MB fair share
		// --- and the 32 MB full LLC; NRS is maximally wrong here ---
		build("xalancbmk", 0.55, 300, 130, 170, 1.6, 0.15, 1536*kb,
			missGen{capMB: 10, capFrac: 0.006, chsFrac: 0.003, chsMB: 2}),
		build("parest", 0.50, 300, 90, 80, 4.0, 0.05, 384*kb,
			missGen{capMB: 12, capFrac: 0.008}),
		build("wrf", 0.50, 310, 110, 70, 4.0, 0.05, 768*kb,
			missGen{capMB: 16, capFrac: 0.006, strFrac: 0.020, strMB: 64}),
		build("cam4", 0.55, 300, 110, 100, 3.5, 0.08, 1*mb,
			missGen{capMB: 20, capFrac: 0.008, strFrac: 0.024, strMB: 64}),
		build("xz", 0.60, 280, 130, 140, 1.8, 0.25, 256*kb,
			missGen{capMB: 24, capFrac: 0.009}),
		build("sphinx3", 0.50, 320, 60, 110, 3.0, 0.12, 512*kb,
			missGen{capMB: 24, capFrac: 0.010, strFrac: 0.020, strMB: 64}),
		build("omnetpp", 0.65, 290, 140, 160, 1.4, 0.20, 1536*kb,
			missGen{capMB: 8, capFrac: 0.006, chsFrac: 0.009, chsMB: 40}),

		// --- bandwidth-sensitive streaming ---
		build("cactuBSSN", 0.50, 330, 140, 40, 6.0, 0.03, 1*mb,
			missGen{capMB: 8, capFrac: 0.004, strFrac: 0.072, strMB: 96}),
		build("pop2", 0.55, 310, 120, 80, 5.0, 0.08, 1536*kb,
			missGen{capMB: 8, capFrac: 0.005, strFrac: 0.100, strMB: 96}),
		build("bwaves", 0.50, 340, 110, 50, 8.0, 0.02, 384*kb,
			missGen{capMB: 4, capFrac: 0.003, strFrac: 0.140, strMB: 128}),
		build("roms", 0.50, 330, 120, 60, 7.0, 0.04, 512*kb,
			missGen{capMB: 8, capFrac: 0.004, strFrac: 0.150, strMB: 128}),
		build("fotonik3d", 0.50, 330, 100, 40, 8.0, 0.02, 384*kb,
			missGen{capMB: 4, capFrac: 0.003, strFrac: 0.180, strMB: 128}),
		build("gemsfdtd", 0.55, 340, 110, 40, 6.0, 0.03, 512*kb,
			missGen{capMB: 16, capFrac: 0.005, strFrac: 0.190, strMB: 192}),

		// --- latency- and bandwidth-bound irregular ---
		build("soplex", 0.60, 320, 110, 130, 2.5, 0.15, 768*kb,
			missGen{capMB: 16, capFrac: 0.010, strFrac: 0.060, strMB: 64,
				rndFrac: 0.020, rndMB: 64}),
		build("libquantum", 0.45, 300, 150, 120, 10.0, 0.02, 128*kb,
			missGen{strFrac: 0.130, strMB: 128, strElem: 16}),
		build("mcf", 0.70, 330, 100, 190, 1.3, 0.20, 256*kb,
			missGen{capMB: 24, capFrac: 0.010, chsFrac: 0.026, chsMB: 160}),
		build("lbm", 0.45, 340, 170, 30, 9.0, 0.02, 128*kb,
			missGen{strFrac: 0.270, strMB: 256}),
		build("milc", 0.50, 340, 140, 50, 5.0, 0.03, 256*kb,
			missGen{strFrac: 0.210, strMB: 192, rndFrac: 0.026, rndMB: 96}),
	}
}

// suite is the lookup table behind ByName and Names: one Suite(), built
// once. Its profiles are handed out shared — a served request resolves one
// per program — so nothing may mutate them; TestSuiteTableIsNeverMutated
// (internal/sim) compares it with a fresh Suite() after a simulation.
var suite = Suite()

// ByName returns the suite profile with the given name, or nil. The profile
// is shared: callers must treat it as read-only (copy it to derive a
// variant; Suite builds fresh ones).
func ByName(name string) *Profile {
	for _, p := range suite {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// Names returns the suite benchmark names in suite order.
func Names() []string {
	names := make([]string, len(suite))
	for i, p := range suite {
		names[i] = p.Name
	}
	return names
}
