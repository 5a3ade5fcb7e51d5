// Command scalesim is the interactive CLI for the scale-model simulation
// library: list the workload suite, simulate workloads on scale models or
// the target system, and predict target performance from single-core
// scale-model runs. The paper's tables and figures, Table I's scale-model
// construction included, are cmd/experiments' (go run ./cmd/experiments
// -figs 1).
//
// Usage:
//
//	scalesim suite
//	scalesim simulate -machine <cores>[:<policy>] -bench <a,b,...> [-fast] [-core-workers N]
//	scalesim predict -bench <name> [-fast]
//	scalesim sweep -knob llc|dram -bench <name> [-cores N] [-campaign-workers N] [-store <dir>]
//	scalesim stats -trace <file>
//	scalesim store -dir <dir>
//	scalesim serve [-addr <host:port>] [-campaign-workers N] [-store <dir>]
//	scalesim request -bench <a,b,...> [-server <url>]
//
// Performance flags follow a -<subsystem>-<knob> convention: -core-workers
// (epoch parallelism inside one simulation), -campaign-workers (concurrent
// jobs), -surrogate-* (learned fast path). None of them change results —
// only wall-clock. simulate and sweep also take -cpuprofile/-memprofile to
// capture pprof profiles.
//
// Examples:
//
//	scalesim simulate -machine 1:PRS -bench lbm
//	scalesim simulate -machine 32:target -bench "lbm x32"
//	scalesim predict -bench mcf
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strconv"
	"strings"

	"scalesim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("scalesim: ")
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "suite":
		cmdSuite()
	case "simulate":
		cmdSimulate(os.Args[2:])
	case "predict":
		cmdPredict(os.Args[2:])
	case "sweep":
		cmdSweep(os.Args[2:])
	case "stats":
		cmdStats(os.Args[2:])
	case "store":
		cmdStore(os.Args[2:])
	case "serve":
		cmdServe(os.Args[2:])
	case "request":
		cmdRequest(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		log.Printf("unknown command %q", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  scalesim suite                            list the 29-benchmark workload suite
  scalesim simulate -machine C[:POLICY] -bench A,B,... [-fast] [-trace FILE] [-stats] [-store DIR]
                                            simulate a workload ("lbm x4" repeats);
                                            -trace streams per-epoch JSONL, -stats
                                            prints the per-component trace summary,
                                            -store reuses results across invocations
  scalesim predict -bench NAME [-fast]      predict 32-core IPC from a 1-core scale model
  scalesim sweep -knob llc|dram -bench NAME [-cores N] [-campaign-workers N] [-fast] [-store DIR]
                                            concurrent design-space sweep on a scale model
  scalesim stats -trace FILE                summarise a JSONL trace file
  scalesim store -dir DIR                   verify a durable campaign store (artifacts,
                                            checksums, interrupted jobs)
  scalesim serve [-addr HOST:PORT] [-campaign-workers N] [-queue N] [-store DIR]
                                            run the campaign service: coalesces identical
                                            concurrent requests, bounds admission with a
                                            client-fair queue, drains on SIGINT/SIGTERM
  scalesim request -bench A,B,... [-machine C[:POLICY]] [-server URL] [-client ID] [-fast]
                                            submit one design point to a running daemon

performance flags (identical results at any setting, wall-clock only):
  -core-workers N       epoch workers inside one simulation (0 = auto)
  -campaign-workers N   concurrent campaign jobs (0 = GOMAXPROCS)
  -cpuprofile FILE      write a pprof CPU profile (simulate, sweep)
  -memprofile FILE      write a pprof heap profile at exit (simulate, sweep)

to regenerate a figure: go run ./cmd/experiments -fast -figs 3 (Table I: -figs 1)`)
}

func options(fast bool) scalesim.SimOptions {
	if fast {
		return scalesim.FastOptions()
	}
	return scalesim.DefaultOptions()
}

func cmdSuite() {
	fmt.Println("Workload suite (29 synthetic SPEC-CPU2017-like benchmarks):")
	for _, p := range scalesim.Suite() {
		totalMem := p.LoadsPerKI + p.StoresPerKI
		var biggest int64
		for _, r := range p.Regions {
			if r.SizeBytes > biggest {
				biggest = r.SizeBytes
			}
		}
		fmt.Printf("  %-11s baseCPI %.2f  mem/KI %3d  branches/KI %3d  MLP %4.1f  max region %4d MB\n",
			p.Name, p.BaseCPI, totalMem, p.BranchesPerKI, p.MLP, biggest>>20)
	}
}

// parseWorkload expands "lbm x4,gcc" into [lbm lbm lbm lbm gcc].
func parseWorkload(spec string) ([]string, error) {
	var out []string
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, count := part, 1
		if fields := strings.Fields(part); len(fields) == 2 && strings.HasPrefix(fields[1], "x") {
			n, err := strconv.Atoi(fields[1][1:])
			if err != nil || n < 1 {
				return nil, fmt.Errorf("bad repeat count in %q", part)
			}
			name, count = fields[0], n
		}
		for i := 0; i < count; i++ {
			out = append(out, name)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty workload")
	}
	return out, nil
}

func parseMachine(spec string) (scalesim.MachineSpec, error) {
	parts := strings.SplitN(spec, ":", 2)
	cores, err := strconv.Atoi(parts[0])
	if err != nil {
		return scalesim.MachineSpec{}, fmt.Errorf("bad core count %q", parts[0])
	}
	m := scalesim.MachineSpec{Cores: cores}
	if len(parts) == 2 {
		m.Policy = scalesim.Policy(parts[1])
		if err := m.Policy.Validate(); err != nil {
			return scalesim.MachineSpec{}, err
		}
	}
	return m, nil
}

func cmdSimulate(args []string) {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	machine := fs.String("machine", "1:PRS", "machine spec: <cores>[:<policy>] (policies: target, PRS, NRS, PRS-LLC, PRS-DRAM)")
	bench := fs.String("bench", "", "workload: comma-separated benchmarks, 'name xN' repeats")
	bwOrder := fs.String("bw", string(scalesim.BandwidthMCFirst), "DRAM bandwidth scaling order")
	fast := fs.Bool("fast", false, "reduced fidelity")
	traceFile := fs.String("trace", "", "write the per-epoch telemetry trace to FILE as JSON Lines")
	stats := fs.Bool("stats", false, "print the per-component trace summary after the run")
	storeDir := fs.String("store", "", "durable result store directory: reuse results across invocations")
	tuning := tuningFlags(fs, false)
	profile := profileFlags(fs)
	_ = fs.Parse(args)

	wl, err := parseWorkload(*bench)
	if err != nil {
		log.Fatal(err)
	}
	m, err := parseMachine(*machine)
	if err != nil {
		log.Fatal(err)
	}
	m.Bandwidth = scalesim.Bandwidth(*bwOrder)
	opts := options(*fast)
	opts.Trace = *traceFile != "" || *stats
	opts.Tuning = tuning()
	defer profile()()

	// One path with or without -store: a one-job campaign, whose engine
	// hands the job the whole host. An empty Store is no store.
	cres, err := scalesim.RunCampaign(scalesim.Campaign{
		Jobs:  []scalesim.CampaignJob{{Machine: m, Benchmarks: wl, Options: opts}},
		Store: *storeDir,
	})
	if err != nil {
		log.Fatal(err)
	}
	oc := cres.Outcomes[0]
	if oc.Err != nil {
		log.Fatal(oc.Err)
	}
	res := oc.Result
	if *storeDir != "" {
		fmt.Printf("store: %s (%s)\n", oc.Source, cres.Stats)
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			log.Fatal(err)
		}
		if err := scalesim.WriteTraceJSONL(f, res.Trace); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d epoch snapshots to %s\n", len(res.Trace), *traceFile)
	}
	printResult(res)
	if *stats {
		fmt.Print(scalesim.SummarizeTrace(res.Trace))
	}
}

func cmdStats(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	traceFile := fs.String("trace", "", "JSONL trace file to summarise (written by simulate -trace)")
	_ = fs.Parse(args)
	if *traceFile == "" {
		log.Fatal("stats: -trace is required")
	}
	f, err := os.Open(*traceFile)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	trace, err := scalesim.ReadTraceJSONL(f)
	if err != nil {
		log.Fatal(err)
	}
	if len(trace) == 0 {
		log.Fatalf("stats: %s holds no epoch snapshots", *traceFile)
	}
	fmt.Print(scalesim.SummarizeTrace(trace))
}

func cmdStore(args []string) {
	fs := flag.NewFlagSet("store", flag.ExitOnError)
	dir := fs.String("dir", "", "store directory to verify")
	_ = fs.Parse(args)
	if *dir == "" {
		log.Fatal("store: -dir is required")
	}
	info, err := scalesim.CheckStore(*dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("store %s (schema %s):\n", *dir, scalesim.StoreSchema)
	fmt.Printf("  %d verified artifacts (%d bytes)\n", info.Artifacts, info.Bytes)
	fmt.Printf("  %d corrupt, %d quarantined, %d interrupted jobs\n",
		info.Corrupt, info.Quarantined, info.Interrupted)
	for _, k := range info.CorruptKeys {
		fmt.Printf("  corrupt: %s\n", k)
	}
	if info.Corrupt > 0 {
		os.Exit(1)
	}
}

func cmdPredict(args []string) {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	bench := fs.String("bench", "", "benchmark to predict")
	fast := fs.Bool("fast", false, "reduced fidelity")
	validate := fs.Bool("validate", true, "also simulate the target for comparison")
	_ = fs.Parse(args)
	if *bench == "" {
		log.Fatal("predict: -bench is required")
	}
	ex, err := scalesim.NewExperiments(options(*fast))
	if err != nil {
		log.Fatal(err)
	}
	pred, err := ex.PredictTargetIPC(*bench)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: predicted per-core IPC on the 32-core target: %.3f (SVM-log regression, 1-core scale model)\n", *bench, pred)
	if *validate {
		actual, err := ex.ActualTargetIPC(*bench)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: simulated target IPC: %.3f  (prediction error %.1f%%)\n",
			*bench, actual, 100*math.Abs(pred-actual)/actual)
	}
}

// surrogateFlags registers the shared surrogate-tier flags on fs and
// returns a closure producing the resulting configuration after parsing
// (nil when the tier stays off).
func surrogateFlags(fs *flag.FlagSet) func() *scalesim.SurrogateConfig {
	on := fs.Bool("surrogate", false, "enable the learned fast path (memory → disk → model → compute)")
	min := fs.Int("surrogate-min", 0, "ground-truth points required before the model serves (0 = default)")
	gate := fs.Float64("surrogate-gate", 0, "ensemble-agreement gate: max relative per-tree std (0 = default)")
	dist := fs.Float64("surrogate-dist", 0, "novelty gate: max scaled distance to the nearest training point (0 = default)")
	return func() *scalesim.SurrogateConfig {
		if !*on {
			return nil
		}
		return &scalesim.SurrogateConfig{MinTrain: *min, VarGate: *gate, DistGate: *dist}
	}
}

func cmdSweep(args []string) {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	knob := fs.String("knob", "llc", "what to sweep: llc (per-core KB) or dram (per-core GB/s)")
	bench := fs.String("bench", "xalancbmk", "benchmark to sweep")
	cores := fs.Int("cores", 1, "scale-model core count")
	fast := fs.Bool("fast", true, "reduced fidelity")
	storeDir := fs.String("store", "", "durable result store directory: reuse results across invocations")
	dense := fs.Bool("dense", false, "also sweep the knob-grid midpoints (appended after the base grid)")
	surrogate := surrogateFlags(fs)
	tuning := tuningFlags(fs, true)
	profile := profileFlags(fs)
	_ = fs.Parse(args)
	defer profile()()

	type point struct {
		label string
		spec  scalesim.MachineSpec
	}
	var points []point
	switch *knob {
	case "llc":
		if *dense {
			// LLC capacities must keep power-of-two set counts, so the grid
			// has no valid midpoints to densify with.
			log.Fatal("-dense requires -knob dram (LLC sizes are constrained to power-of-two sets)")
		}
		for _, kb := range []int{256, 512, 1024, 2048, 4096} {
			points = append(points, point{
				label: fmt.Sprintf("%4d KB LLC/core", kb),
				spec:  scalesim.MachineSpec{Cores: *cores, LLCPerCoreKB: kb},
			})
		}
	case "dram":
		grid := []float64{1, 2, 4, 8, 16}
		if *dense {
			// Midpoints ride after the base grid: with the surrogate on, the
			// base points train the model and the midpoints exercise it.
			for i := 0; i+1 < 5; i++ {
				grid = append(grid, (grid[i]+grid[i+1])/2)
			}
		}
		for _, gb := range grid {
			points = append(points, point{
				label: fmt.Sprintf("%4.1f GB/s DRAM/core", gb),
				spec:  scalesim.MachineSpec{Cores: *cores, DRAMPerCoreGBps: gb},
			})
		}
	default:
		log.Fatalf("unknown knob %q", *knob)
	}

	wl := make([]string, *cores)
	for i := range wl {
		wl[i] = *bench
	}
	campaign := scalesim.Campaign{Tuning: tuning(), Store: *storeDir, Surrogate: surrogate()}
	for _, p := range points {
		campaign.Jobs = append(campaign.Jobs, scalesim.CampaignJob{
			Machine:    p.spec,
			Benchmarks: wl,
			Options:    options(*fast),
		})
	}
	fmt.Printf("design-space sweep: %s on a %d-core scale model (%d design points)\n",
		*bench, *cores, len(campaign.Jobs))
	res, err := scalesim.RunCampaignContext(context.Background(), campaign)
	if err != nil {
		log.Fatal(err)
	}
	for i, o := range res.Outcomes {
		if o.Err != nil {
			log.Fatal(o.Err)
		}
		c := o.Result.Cores[0]
		marker := ""
		if o.Approximate {
			marker = "  (approximate, from model)"
		}
		fmt.Printf("  %s: IPC %6.3f  LLC MPKI %6.2f  DRAM util %.2f%s\n",
			points[i].label, o.Result.AverageIPC(), c.LLCMPKI, o.Result.DRAMUtilization, marker)
	}
	fmt.Printf("  campaign: %s\n", res.Stats)
	fmt.Printf("  fronts: %s\n", res.Stats.Fronts)
}
