package runner

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/sim"
	"scalesim/internal/trace"
	"scalesim/internal/units"
	"scalesim/internal/xrand"
)

// keyless is every Job leaf that Key leaves out on purpose, by path. A
// field belongs here only if it cannot change a Result.
var keyless = map[string]bool{
	"Options.CoreWorkers": true, // host parallelism; serial and parallel epochs are byte-identical
}

// TestKeyCoversEveryField is the memo's coverage property: every leaf of a
// Job — found by reflection, so a field added tomorrow is enumerated without
// anyone extending a list — moves Key when it alone changes, and the keyless
// leaves do not. Reading a field is not enough to pass: an encoder that
// writes it masked by another field, or drops its verb, fails here.
func TestKeyCoversEveryField(t *testing.T) {
	for _, base := range []struct {
		name string
		job  Job
	}{
		{"fixture", fixtureJob()},         // every option set
		{"suite", job(1)},                 // options mostly zero, a profile shared with the suite table
		{"threads", threadedFixtureJob()}, // a threaded program, so its private flags are leaves
	} {
		t.Run(base.name, func(t *testing.T) {
			// Perturb a deep copy: the suite's profiles are shared, read-only data.
			j := deepCopy(reflect.ValueOf(base.job)).Interface().(Job)
			if j.Key() != base.job.Key() {
				t.Fatal("deep copy has a different key")
			}
			met := map[string]bool{} // every leaf visited, by path
			eachLeaf(t, reflect.ValueOf(&j).Elem(), "", func(path string, leaf reflect.Value) {
				met[path] = true
				before := j.Key()
				old := reflect.ValueOf(leaf.Interface())
				perturb(t, path, leaf)
				moved := j.Key() != before
				leaf.Set(old)
				switch {
				case keyless[path] && moved:
					t.Errorf("%s is declared keyless but moves the key", path)
				case !keyless[path] && !moved:
					t.Errorf("%s does not move the key: encode it in key.go (re-pinning TestKeyPinned), or list it as keyless if it cannot change a Result", path)
				}
			})
			for path := range keyless {
				if !met[path] {
					t.Errorf("keyless names %s, which is not a leaf of Job", path)
				}
			}
			if j.Key() != base.job.Key() {
				t.Error("a perturbation was not undone")
			}
			t.Logf("%d leaves", len(met))
		})
	}
}

// threadedFixtureJob is fixtureJob with its program made data-parallel: the
// same machine and options, the fixture profile per thread.
func threadedFixtureJob() Job {
	j := fixtureJob()
	j.Workload = sim.Workload{Threads: &trace.ParallelProfile{
		Serial:          *j.Workload.Profiles[0],
		PrivateRegions:  []bool{true, false},
		BarrierInterval: 50_000,
		Skew:            0.25,
	}}
	return j
}

// TestThreadedKeyPinned is TestKeyPinned for a threaded job, whose key is as
// durable as a mix's: re-pin it as deliberately.
func TestThreadedKeyPinned(t *testing.T) {
	const want = "1275aed14a6b641c644cb3bfd5b1e94e96429863e535c5297bd13c58a6fefb50"
	if got := threadedFixtureJob().Key(); got != want {
		t.Fatalf("threaded fixture key drifted:\n got %s\nwant %s", got, want)
	}
}

// eachLeaf visits every settable scalar reachable from v through structs,
// slices and pointers. A nil pointer is a leaf itself (nil versus set) and
// is then set for the visit of what lies behind it.
func eachLeaf(t *testing.T, v reflect.Value, path string, visit func(path string, leaf reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			if path != "" {
				name = path + "." + name
			}
			eachLeaf(t, v.Field(i), name, visit)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			eachLeaf(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), visit)
		}
	case reflect.Pointer:
		if v.IsNil() {
			visit(path, v)
			v.Set(reflect.New(v.Type().Elem()))
			defer v.SetZero()
		}
		eachLeaf(t, v.Elem(), path, visit)
	default:
		if !v.CanSet() {
			t.Fatalf("%s is unexported: the test cannot perturb it and callers cannot set it", path)
		}
		visit(path, v)
	}
}

// perturb changes one leaf to a different value of its type.
func perturb(t *testing.T, path string, v reflect.Value) {
	switch {
	case v.Kind() == reflect.Bool:
		v.SetBool(!v.Bool())
	case v.CanInt():
		v.SetInt(v.Int() + 1)
	case v.CanUint():
		v.SetUint(v.Uint() + 1)
	case v.CanFloat():
		v.SetFloat(v.Float() + 0.5)
	case v.Kind() == reflect.String:
		v.SetString(v.String() + "'")
	case v.Kind() == reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	default:
		t.Fatalf("%s: no perturbation for kind %s; teach this test, and Job.Key, the new kind", path, v.Kind())
	}
}

// deepCopy clones v through pointers, slices and structs.
func deepCopy(v reflect.Value) reflect.Value {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return v
		}
		c := reflect.New(v.Type().Elem())
		c.Elem().Set(deepCopy(v.Elem()))
		return c
	case reflect.Slice:
		c := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		for i := 0; i < v.Len(); i++ {
			c.Index(i).Set(deepCopy(v.Index(i)))
		}
		return c
	case reflect.Struct:
		c := reflect.New(v.Type()).Elem()
		for i := 0; i < v.NumField(); i++ {
			c.Field(i).Set(deepCopy(v.Field(i)))
		}
		return c
	}
	return v
}

// refPreimage is the encoder Job.Key replaced, verbatim: the canonical
// preimage written field by field through fmt. It defines the key's bytes;
// TestKeyMatchesFmtReference holds the append encoder to it.
func refPreimage(j Job) []byte {
	var w bytes.Buffer
	if j.Config != nil {
		writeConfig(&w, j.Config)
	}
	for _, p := range j.Workload.Profiles {
		if p != nil {
			writeProfile(&w, p)
		}
	}
	writeOptions(&w, j.Options)
	return w.Bytes()
}

func refKey(j Job) string {
	sum := sha256.Sum256(refPreimage(j))
	return hex.EncodeToString(sum[:])
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

// keyFloats are the values where a float formatter's choices show: both
// zeros, each side of %v's switch to an exponent (1e21 up, 1e-5 down), the
// range's ends, and the three non-numbers.
var keyFloats = []float64{
	0, math.Copysign(0, -1), 1e21, 1e20, 1e-5, 1e-4,
	math.MaxFloat64, math.SmallestNonzeroFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// keyNames break a separator-based encoding if anything does.
var keyNames = []string{"", "|", "a|cores=2", "two\nlines", "naïve-ß-日本", "plain"}

// randomJob draws a Job whose every leaf is arbitrary: no field is valid as
// a machine, which Key neither knows nor checks.
func randomJob(rng *xrand.RNG) Job {
	float := func() float64 {
		switch rng.Intn(3) {
		case 0:
			return keyFloats[rng.Intn(len(keyFloats))]
		case 1:
			return math.Float64frombits(rng.Uint64()) // any bit pattern: subnormals, NaN payloads
		}
		return math.Round(rng.NormFloat64()*1e4) / 64
	}
	integer := func() int {
		if rng.Intn(4) == 0 {
			return []int{0, -1, math.MinInt64, math.MaxInt64}[rng.Intn(4)]
		}
		return int(rng.Uint64() >> uint(rng.Intn(64)))
	}
	name := func() string { return keyNames[rng.Intn(len(keyNames))] }
	level := func() config.CacheLevelConfig {
		return config.CacheLevelConfig{Size: config.Bytes(integer()), Assoc: integer(), LineSize: config.Bytes(integer()), AccessTime: integer()}
	}
	var j Job
	if rng.Intn(8) != 0 {
		j.Config = &config.SystemConfig{
			Name:  name(),
			Cores: integer(),
			Core: config.CoreConfig{FrequencyGHz: float(), IssueWidth: integer(), ROBSize: integer(), MaxLoads: integer(),
				MaxStores: integer(), MaxL1DMisses: integer(), MispredictCost: integer()},
			L1I:  level(),
			L1D:  level(),
			L2:   level(),
			LLC:  config.LLCConfig{Slices: integer(), SlicePerCore: config.Bytes(integer()), Assoc: integer(), LineSize: config.Bytes(integer()), AccessTime: integer()},
			NoC:  config.NoCConfig{MeshWidth: integer(), MeshHeight: integer(), CrossSectionLinks: integer(), LinkGBps: config.GBps(float()), HopLatency: integer()},
			DRAM: config.DRAMConfig{Controllers: integer(), PerControllerGBps: config.GBps(float()), BaseLatency: integer()},
		}
	}
	for n := rng.Intn(5); n > 0; n-- {
		if rng.Intn(8) == 0 {
			j.Workload.Profiles = append(j.Workload.Profiles, nil) // Key skips it
			continue
		}
		p := &trace.Profile{Name: name(), BaseCPI: float(), LoadsPerKI: integer(), StoresPerKI: integer(), BranchesPerKI: integer(),
			MLP: float(), StaticBranches: integer(), HardFrac: float(), IFootprint: config.Bytes(integer())}
		for r := rng.Intn(6); r > 0; r-- {
			p.Regions = append(p.Regions, trace.Region{Size: config.Bytes(integer()), Frac: float(),
				Pattern: trace.Pattern(rng.Intn(256)), ElemSize: integer(), ZipfS: float()})
		}
		j.Workload.Profiles = append(j.Workload.Profiles, p)
	}
	j.Options = sim.Options{Instructions: rng.Uint64(), Warmup: uint64(integer()), EpochCycles: units.Cycles(float()),
		CapacityScale: integer(), Seed: rng.Uint64(), NoFeedback: rng.Bool(0.5), PartitionedLLC: rng.Bool(0.5),
		EnablePrefetch: rng.Bool(0.5), CoreWorkers: integer()}
	if rng.Bool(0.5) {
		j.Options.Telemetry = &sim.TelemetryOptions{Warmup: rng.Bool(0.5)}
	}
	return j
}

// TestKeyMatchesFmtReference is the append encoder's oracle: Job.Key equals
// the fmt form's key on every job the repository builds — the fixture, each
// suite profile at 1, 2 and 32 programs, every scale-model policy and
// bandwidth order at every size — and on seeded arbitrary jobs, and no
// preimage outgrows the buffer Key sized for it.
func TestKeyMatchesFmtReference(t *testing.T) {
	check := func(what string, j Job) {
		t.Helper()
		if got, want := j.Key(), refKey(j); got != want {
			t.Fatalf("%s: Key() = %s, fmt reference = %s\npreimage:\n%s", what, got, want, refPreimage(j))
		}
		// The returned string, and for a job that outgrows the stack one
		// buffer sized for it: a third allocation is a bound that did not hold.
		if n := testing.AllocsPerRun(1, func() { keySink = j.Key() }); n > 2 {
			t.Fatalf("%s: Key allocates %v times, want at most 2: the %d-byte preimage outgrew its buffer", what, n, len(refPreimage(j)))
		}
	}
	check("fixture", fixtureJob())
	check("zero", Job{})
	for _, p := range trace.Suite() {
		for _, n := range []int{1, 2, 32} {
			profs := make([]*trace.Profile, n)
			for i := range profs {
				profs[i] = p
			}
			check(fmt.Sprintf("%s x%d", p.Name, n), Job{Config: config.Target(), Workload: sim.Workload{Profiles: profs}, Options: sim.DefaultOptions()})
		}
	}
	for _, pol := range []config.ScalingPolicy{config.NRS, config.PRSLLCOnly, config.PRSDRAMOnly, config.PRSFull} {
		for _, bw := range []config.BandwidthScaling{config.MCFirst, config.MBFirst} {
			for cores := 1; cores <= 32; cores *= 2 {
				sm, err := config.ScaleModel(config.Target(), cores, config.ScaleModelOptions{Policy: pol, Bandwidth: bw})
				if err != nil {
					t.Fatal(err)
				}
				check(sm.Name, Job{Config: sm, Workload: job(1).Workload, Options: sim.DefaultOptions()})
			}
		}
	}
	rng := xrand.New(21)
	for i := 0; i < 2500; i++ {
		check(fmt.Sprintf("random job %d", i), randomJob(rng))
	}
	// Repeated programs, whose record Key copies: runs of one pointer, and
	// beside them the look-alikes a copy must not be taken for.
	mcf, gcc := trace.ByName("mcf"), trace.ByName("gcc")
	custom := *mcf // mcf by name, one region a byte larger
	custom.Regions = slices.Clone(mcf.Regions)
	custom.Regions[0].Size++
	for _, mix := range []struct {
		name  string
		profs []*trace.Profile
	}{
		{"A A B B A", []*trace.Profile{mcf, mcf, gcc, gcc, mcf}},
		{"A nil A", []*trace.Profile{mcf, nil, mcf}},
		{"same name", []*trace.Profile{mcf, &custom, &custom, mcf}},
		{"equal, another address", []*trace.Profile{mcf, ptrTo(*mcf), mcf}},
	} {
		check(mix.name, Job{Config: config.Target(), Workload: sim.Workload{Profiles: mix.profs}, Options: sim.DefaultOptions()})
	}
	for i := 0; i < 1000; i++ {
		check(fmt.Sprintf("repeated job %d", i), repeatedJob(rng))
	}
}

func ptrTo[T any](v T) *T { return &v }

// repeatedJob is randomJob's job with its programs redrawn as runs from a
// palette of its own profiles, one of them copied to another address, and a
// same-name twin of that one differing in one region field: homogeneous
// jobs, run-length mixes, and the look-alikes a reused record must not be
// taken for.
func repeatedJob(rng *xrand.RNG) Job {
	j := randomJob(rng)
	var palette []*trace.Profile
	for _, p := range j.Workload.Profiles {
		if p != nil {
			palette = append(palette, p)
		}
	}
	if len(palette) == 0 {
		palette = append(palette, &trace.Profile{Name: "plain"})
	}
	p := palette[rng.Intn(len(palette))]
	if len(p.Regions) == 0 {
		p.Regions = []trace.Region{{Size: 4096, Frac: 1, ElemSize: 8}}
	}
	twin := *p
	twin.Regions = slices.Clone(p.Regions)
	if r := &twin.Regions[rng.Intn(len(twin.Regions))]; rng.Bool(0.5) {
		r.Size++
	} else {
		r.ElemSize++
	}
	palette = append(palette, ptrTo(*p), &twin)
	j.Workload.Profiles = nil
	for runs := 1 + rng.Intn(6); runs > 0; runs-- {
		q := palette[rng.Intn(len(palette))]
		for n := 1 + rng.Intn(4); n > 0; n-- {
			j.Workload.Profiles = append(j.Workload.Profiles, q)
		}
	}
	return j
}

// TestKeyAllocs keeps fmt and the second hash from coming back: keying a
// one-program job allocates its result string and nothing else, and running
// a landed key allocates nothing (it must not key the job again).
func TestKeyAllocs(t *testing.T) {
	fixture := fixtureJob()
	served := []Job{fixture}
	sm, err := config.ScaleModel(config.Target(), 1, config.ScaleModelOptions{Policy: config.PRSFull})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range trace.Suite() { // what `scalesim serve` is asked most: one suite program on the 1-core scale model
		served = append(served, Job{Config: sm, Workload: sim.Workload{Profiles: []*trace.Profile{p}}, Options: sim.DefaultOptions()})
	}
	for _, j := range served {
		if n := testing.AllocsPerRun(100, func() { keySink = j.Key() }); n > 1 {
			t.Errorf("%s on %s: Job.Key allocates %v times per call, want at most 1 (the returned string)",
				j.Workload.Profiles[0].Name, j.Config.Name, n)
		}
	}
	e, _ := countingEngine(1, 0)
	ctx, key := context.Background(), fixture.Key()
	if oc := e.RunKeyed(ctx, key, fixture); oc.Err != nil {
		t.Fatal(oc.Err)
	}
	n := testing.AllocsPerRun(100, func() {
		if oc := e.RunKeyed(ctx, key, fixture); oc.Source != SourceMemory {
			t.Fatalf("landed key served from %q", oc.Source)
		}
	})
	if n != 0 {
		t.Errorf("RunKeyed on a landed key allocates %v times per call, want 0", n)
	}
	n = testing.AllocsPerRun(100, func() {
		if _, ok := e.Lookup(key); !ok {
			t.Fatal("Lookup missed a landed key")
		}
	})
	if n != 0 {
		t.Errorf("Lookup on a landed key allocates %v times per call, want 0", n)
	}
}

// BenchmarkJobKey is the per-request hash: c1 is a served one-program job,
// c32 the ≈ 13 KB preimage of a 32-program target mix, c32-homogeneous one
// suite program 32 times (a collection's target job), whose record Key copies.
func BenchmarkJobKey(b *testing.B) {
	for _, c := range []struct {
		name      string
		n, stride int
	}{{"c1", 1, 1}, {"c32", 32, 1}, {"c32-homogeneous", 32, 0}} {
		suite, profs := trace.Suite(), make([]*trace.Profile, c.n)
		for i := range profs {
			profs[i] = suite[i*c.stride%len(suite)]
		}
		j := Job{Config: config.Target(), Workload: sim.Workload{Profiles: profs}, Options: sim.DefaultOptions()}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(refPreimage(j))))
			for i := 0; i < b.N; i++ {
				keySink = j.Key()
			}
		})
	}
}

var keySink string
