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
	"strconv"

	"scalesim/internal/config"
	"scalesim/internal/sim"
	"scalesim/internal/trace"
)

// Key returns the job's content-addressed cache key: a hex SHA-256 over a
// canonical field-by-field encoding of the full configuration, every
// profile's parameters or the threaded program's, and the options (seed
// included). Profiles are keyed by value, so two custom benchmarks sharing a
// name but differing in any parameter never collide. The key is byte-stable
// across processes and platforms. The performance-only option (CoreWorkers)
// is excluded; whether telemetry is enabled is included, because it changes
// the result's content (Result.Trace).
func (j Job) Key() string {
	// One or two programs encode on the stack; a larger job (a 32-program
	// target is ≈ 13 KB) grows once, to a bound: 20 bytes an integer, 24 a float.
	var stack [4096]byte
	b := keyBuf(stack[:0])
	if j.Config != nil {
		b = b.config(j.Config)
	}
	n := len(b) + 256 // the options record
	for _, p := range j.Workload.Profiles {
		if p != nil {
			n += 256 + len(p.Name) + 160*len(p.Regions)
		}
	}
	if n > cap(b) {
		b = append(make(keyBuf, 0, n), b...)
	}
	// A program repeated at one address (a homogeneous mix is one pointer,
	// cores times) repeats its record, b[from:to]: copy the bytes, not the floats.
	var last *trace.Profile
	var from, to int
	for _, p := range j.Workload.Profiles {
		if p != nil && p == last {
			b = append(b, b[from:to]...)
		} else if p != nil {
			from, last = len(b), p
			b = b.profile(p)
			to = len(b)
		}
	}
	if t := j.Workload.Threads; t != nil {
		b = b.threads(t)
	}
	b = b.options(j.Options)
	sum := sha256.Sum256(b)
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], sum[:])
	return string(hx[:])
}

// keyBuf is the preimage, text appended with strconv and not through fmt (a
// served job is keyed on the request path): each method adds a tag and one
// value as %s, %d, %t or — strconv's shortest 'g' form — %v would print it.
type keyBuf []byte

func (b keyBuf) str(tag, v string) keyBuf       { return append(append(b, tag...), v...) }
func (b keyBuf) int(tag string, v int64) keyBuf { return strconv.AppendInt(append(b, tag...), v, 10) }
func (b keyBuf) bool(tag string, v bool) keyBuf { return strconv.AppendBool(append(b, tag...), v) }
func (b keyBuf) uint(tag string, v uint64) keyBuf {
	return strconv.AppendUint(append(b, tag...), v, 10)
}
func (b keyBuf) float(tag string, v float64) keyBuf {
	return strconv.AppendFloat(append(b, tag...), v, 'g', -1, 64)
}

// config encodes every semantic field of the machine configuration.
func (b keyBuf) config(c *config.SystemConfig) keyBuf {
	b = b.str("cfg|name=", c.Name)
	b = b.int("|cores=", int64(c.Cores))
	b = b.float("\ncore|freq=", c.Core.FrequencyGHz)
	b = b.int("|width=", int64(c.Core.IssueWidth))
	b = b.int("|rob=", int64(c.Core.ROBSize))
	b = b.int("|loads=", int64(c.Core.MaxLoads))
	b = b.int("|stores=", int64(c.Core.MaxStores))
	b = b.int("|mshrs=", int64(c.Core.MaxL1DMisses))
	b = b.int("|mispredict=", int64(c.Core.MispredictCost))
	b = b.cacheLevel("\nl1i|size=", c.L1I)
	b = b.cacheLevel("\nl1d|size=", c.L1D)
	b = b.cacheLevel("\nl2|size=", c.L2)
	b = b.int("\nllc|slices=", int64(c.LLC.Slices))
	b = b.int("|slice=", int64(c.LLC.SlicePerCore))
	b = b.int("|assoc=", int64(c.LLC.Assoc))
	b = b.int("|line=", int64(c.LLC.LineSize))
	b = b.int("|time=", int64(c.LLC.AccessTime))
	b = b.int("\nnoc|w=", int64(c.NoC.MeshWidth))
	b = b.int("|h=", int64(c.NoC.MeshHeight))
	b = b.int("|csls=", int64(c.NoC.CrossSectionLinks))
	b = b.float("|link=", float64(c.NoC.LinkGBps))
	b = b.int("|hop=", int64(c.NoC.HopLatency))
	b = b.int("\ndram|mcs=", int64(c.DRAM.Controllers))
	b = b.float("|permc=", float64(c.DRAM.PerControllerGBps))
	b = b.int("|lat=", int64(c.DRAM.BaseLatency))
	return append(b, '\n')
}

func (b keyBuf) cacheLevel(tag string, l config.CacheLevelConfig) keyBuf {
	b = b.int(tag, int64(l.Size))
	b = b.int("|assoc=", int64(l.Assoc))
	b = b.int("|line=", int64(l.LineSize))
	return b.int("|time=", int64(l.AccessTime))
}

// profile encodes one workload profile by value, regions included.
func (b keyBuf) profile(p *trace.Profile) keyBuf {
	b = b.str("prof|name=", p.Name)
	b = b.float("|cpi=", p.BaseCPI)
	b = b.int("|loads=", int64(p.LoadsPerKI))
	b = b.int("|stores=", int64(p.StoresPerKI))
	b = b.int("|branches=", int64(p.BranchesPerKI))
	b = b.float("|mlp=", p.MLP)
	b = b.int("|static=", int64(p.StaticBranches))
	b = b.float("|hard=", p.HardFrac)
	b = b.int("|code=", int64(p.IFootprint))
	for _, r := range p.Regions {
		b = b.int("\nregion|size=", int64(r.Size))
		b = b.float("|frac=", r.Frac)
		b = b.uint("|pattern=", uint64(r.Pattern))
		b = b.int("|elem=", int64(r.ElemSize))
		b = b.float("|zipf=", r.ZipfS)
	}
	return append(b, '\n')
}

// threads encodes a data-parallel program by value: the per-thread profile,
// which regions are thread-private, and the barrier discipline. The record
// exists only for a threaded job, so a mix's key is what it was without it.
func (b keyBuf) threads(p *trace.ParallelProfile) keyBuf {
	b = b.profile(&p.Serial)
	b = b.uint("threads|barrier=", p.BarrierInterval)
	b = b.float("|skew=", p.Skew)
	for _, private := range p.PrivateRegions {
		b = b.bool("|private=", private)
	}
	return append(b, '\n')
}

// options encodes the simulation options. CoreWorkers is excluded (it
// cannot change results); telemetry's enablement and warmup-coverage bits
// are included, since they change the produced Result.
func (b keyBuf) options(o sim.Options) keyBuf {
	b = b.uint("opts|instr=", o.Instructions)
	b = b.uint("|warmup=", o.Warmup)
	b = b.float("|epoch=", float64(o.EpochCycles))
	b = b.int("|scale=", int64(o.CapacityScale))
	b = b.uint("|seed=", o.Seed)
	b = b.bool("|nofb=", o.NoFeedback)
	b = b.bool("|part=", o.PartitionedLLC)
	b = b.bool("|pf=", o.EnablePrefetch)
	b = b.bool("|trace=", o.Telemetry != nil)
	b = b.bool("|tracewarm=", o.Telemetry != nil && o.Telemetry.Warmup)
	return append(b, '\n')
}
