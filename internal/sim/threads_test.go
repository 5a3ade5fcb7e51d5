package sim

import (
	"math"
	"reflect"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/trace"
	"scalesim/internal/units"
)

func parOpts() Options {
	return Options{
		Instructions:  400_000, // total work, split across threads
		Warmup:        80_000,
		EpochCycles:   10_000,
		CapacityScale: 16,
		Seed:          11,
	}
}

func TestParallelSuiteValid(t *testing.T) {
	suite := trace.ParallelSuite()
	if len(suite) < 4 {
		t.Fatalf("parallel suite has %d workloads", len(suite))
	}
	for _, p := range suite {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Serial.Name, err)
		}
	}
	if trace.ParallelByName("par.stream") == nil {
		t.Fatal("ParallelByName(par.stream) = nil")
	}
	if trace.ParallelByName("nope") != nil {
		t.Fatal("ParallelByName(nope) != nil")
	}
}

func TestThreadGeneratorPartitionsStreams(t *testing.T) {
	pp := trace.ParallelByName("par.stream")
	g0, err := trace.NewThreadGenerator(pp, 0, 4, trace.GenOptions{Seed: 1, CapacityScale: 16})
	if err != nil {
		t.Fatal(err)
	}
	g1, err := trace.NewThreadGenerator(pp, 1, 4, trace.GenOptions{Seed: 1, CapacityScale: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Stream (Seq) addresses of different threads must be disjoint; the
	// private hot region must also be disjoint.
	seen0 := map[uint64]bool{}
	for i := 0; i < 200000; i++ {
		op := g0.Next()
		if op.Kind == trace.OpLoad || op.Kind == trace.OpStore {
			seen0[op.Addr>>12] = true // page granularity
		}
	}
	overlap := 0
	total := 0
	for i := 0; i < 200000; i++ {
		op := g1.Next()
		if op.Kind == trace.OpLoad || op.Kind == trace.OpStore {
			total++
			if seen0[op.Addr>>12] {
				overlap++
			}
		}
	}
	// par.stream has a private hot region (66%) and a partitioned stream
	// (34%): overlap should be tiny (only page-boundary effects).
	if frac := float64(overlap) / float64(total); frac > 0.02 {
		t.Fatalf("thread page overlap %.3f for partitioned+private workload, want ~0", frac)
	}
}

func TestThreadGeneratorSharesTables(t *testing.T) {
	pp := trace.ParallelByName("par.tablescan")
	g0, _ := trace.NewThreadGenerator(pp, 0, 4, trace.GenOptions{Seed: 1, CapacityScale: 16})
	g1, _ := trace.NewThreadGenerator(pp, 1, 4, trace.GenOptions{Seed: 1, CapacityScale: 16})
	seen0 := map[uint64]bool{}
	for i := 0; i < 300000; i++ {
		if op := g0.Next(); op.Kind == trace.OpLoad {
			seen0[op.Addr>>12] = true
		}
	}
	overlap, total := 0, 0
	for i := 0; i < 300000; i++ {
		if op := g1.Next(); op.Kind == trace.OpLoad {
			total++
			if seen0[op.Addr>>12] {
				overlap++
			}
		}
	}
	// The shared hot table (22% of accesses) must produce real overlap.
	if frac := float64(overlap) / float64(total); frac < 0.1 {
		t.Fatalf("thread page overlap %.3f for shared-table workload, want >= 0.1", frac)
	}
}

func TestThreadGeneratorRejectsBadArgs(t *testing.T) {
	pp := trace.ParallelByName("par.stream")
	if _, err := trace.NewThreadGenerator(pp, 4, 4, trace.GenOptions{}); err == nil {
		t.Fatal("thread index == threads accepted")
	}
	if _, err := trace.NewThreadGenerator(pp, -1, 4, trace.GenOptions{}); err == nil {
		t.Fatal("negative thread accepted")
	}
	bad := *pp
	bad.PrivateRegions = []bool{true}
	if _, err := trace.NewThreadGenerator(&bad, 0, 2, trace.GenOptions{}); err == nil {
		t.Fatal("mismatched private flags accepted")
	}
}

// runThreaded runs the named parallel-suite workload, a thread per core of
// cfg, through the one run loop.
func runThreaded(t *testing.T, cfg *config.SystemConfig, name string, opts Options) *Result {
	t.Helper()
	res, err := Run(cfg, Workload{Threads: trace.ParallelByName(name)}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// aggregateIPC is a threaded run's throughput: instructions per makespan cycle.
func (r *Result) aggregateIPC() float64 {
	var instr uint64
	for _, c := range r.Cores {
		instr += c.Instructions
	}
	return float64(instr) / float64(r.ElapsedCycles)
}

// shares returns what fraction of the threads' cycles the core model's four
// stall components explain, and what fraction was barrier wait.
func (r *Result) shares() (stalls, barrier float64) {
	var total units.Cycles
	for _, c := range r.Cores {
		stalls += float64(c.BaseCycles + c.BranchCycles + c.MemoryCycles + c.FrontendCycles)
		barrier += float64(c.BarrierCycles)
		total += c.Cycles
	}
	return stalls / float64(total), barrier / float64(total)
}

func TestThreadedBasics(t *testing.T) {
	res := runThreaded(t, scaleModel(t, 4), "par.stencil", parOpts())
	if len(res.Cores) != 4 {
		t.Fatalf("%d threads, want 4", len(res.Cores))
	}
	makespan := units.Cycles(0)
	for _, th := range res.Cores {
		if th.Benchmark != "par.stencil" {
			t.Errorf("thread %d runs %q", th.Core, th.Benchmark)
		}
		if th.Instructions < 50_000 {
			t.Errorf("thread %d retired only %d", th.Core, th.Instructions)
		}
		if th.IPC <= 0 || th.IPC > 4 {
			t.Errorf("thread %d IPC %.3f out of range", th.Core, th.IPC)
		}
		if th.Barriers == 0 {
			t.Errorf("thread %d crossed no barriers", th.Core)
		}
		makespan = max(makespan, th.Cycles)
	}
	if res.ElapsedCycles <= 0 || res.ElapsedCycles != makespan {
		t.Fatalf("ElapsedCycles %.0f, the last thread finished at %.0f", res.ElapsedCycles, makespan)
	}
	if stalls, barrier := res.shares(); math.Abs(stalls+barrier-1) > 0.05 {
		t.Fatalf("stall components %.3f and barrier wait %.3f do not explain the threads' cycles", stalls, barrier)
	}
}

func TestThreadedStrongScaling(t *testing.T) {
	// More threads must raise aggregate throughput for the same workload
	// (strong scaling), bounded by the thread count.
	for _, name := range []string{"par.stream", "par.stencil"} {
		p1 := runThreaded(t, scaleModel(t, 1), name, parOpts()).aggregateIPC()
		p4 := runThreaded(t, scaleModel(t, 4), name, parOpts()).aggregateIPC()
		speedup := p4 / p1
		if speedup <= 1 {
			t.Errorf("%s: no speedup from 4 threads (%.2f)", name, speedup)
		}
		if speedup > 4.3 {
			t.Errorf("%s: impossible speedup %.2f with 4 threads", name, speedup)
		}
	}
}

func TestThreadedSkewShowsImbalance(t *testing.T) {
	_, balanced := runThreaded(t, scaleModel(t, 4), "par.stencil", parOpts()).shares()
	_, skewed := runThreaded(t, scaleModel(t, 4), "par.graph", parOpts()).shares()
	if skewed <= balanced {
		t.Fatalf("skewed workload barrier share %.3f not above balanced %.3f", skewed, balanced)
	}
}

func TestThreadedDeterministic(t *testing.T) {
	a := runThreaded(t, scaleModel(t, 2), "par.tablescan", parOpts())
	b := runThreaded(t, scaleModel(t, 2), "par.tablescan", parOpts())
	a.WallClock, b.WallClock = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs of one threaded job differ:\n %+v\n %+v", a, b)
	}
}

func TestThreadedErrors(t *testing.T) {
	cfg := scaleModel(t, 2)
	if _, err := Run(cfg, Workload{}, parOpts()); err == nil {
		t.Fatal("a workload of neither kind accepted")
	}
	stream := trace.ParallelByName("par.stream")
	if _, err := Run(cfg, Workload{Profiles: Homogeneous(trace.ByName("gcc"), 2).Profiles, Threads: stream}, parOpts()); err == nil {
		t.Fatal("a workload of both kinds accepted")
	}
	skewed := *stream
	skewed.Skew = 2
	if _, err := Run(cfg, Workload{Threads: &skewed}, parOpts()); err == nil {
		t.Fatal("invalid parallel profile accepted")
	}
	bad := config.Target()
	bad.Cores = 0
	if _, err := Run(bad, Workload{Threads: stream}, parOpts()); err == nil {
		t.Fatal("invalid config accepted")
	}
}
