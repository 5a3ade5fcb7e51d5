// Command experiments regenerates every table and figure of the paper's
// evaluation (§V) and prints a consolidated report. This is the program
// behind EXPERIMENTS.md.
//
// Usage:
//
//	experiments [-fast] [-figs 3,4,7] [-skip-hetero] [-workers N] [-stats] [-store DIR]
//
// -fast runs at reduced simulation fidelity (about 10x cheaper; the
// qualitative conclusions survive). The full run regenerates the numbers
// recorded in EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"scalesim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	fast := flag.Bool("fast", false, "reduced simulation fidelity (~10x faster)")
	figs := flag.String("figs", "", "comma-separated ids to run (default: all): 1,3..12, mt, ablations, prefetch, speedup")
	skipHetero := flag.Bool("skip-hetero", false, "skip the heterogeneous studies (Figs. 5 and 6), the most expensive collection")
	workers := flag.Int("workers", 1, "campaign worker-pool size: bounds batch collections and leave-one-out evaluation fan-out (0 = GOMAXPROCS)")
	stats := flag.Bool("stats", false, "print the campaign execution report (per-configuration simulation time) at the end")
	storeDir := flag.String("store", "", "durable result store directory: makes figure regeneration incremental across invocations")
	flag.Parse()

	opts := scalesim.DefaultOptions()
	if *fast {
		opts = scalesim.FastOptions()
	}

	ex, err := scalesim.NewExperiments(opts)
	if err != nil {
		log.Fatal(err)
	}
	want, err := selection(*figs, ex.Figures())
	if err != nil {
		log.Fatal(err)
	}
	selected := func(id string) bool { return want == nil || want[id] }
	ex.SetWorkers(*workers)
	if *storeDir != "" {
		if err := ex.SetStore(*storeDir); err != nil {
			log.Fatal(err)
		}
		defer ex.Close()
	}

	fmt.Printf("scale-model simulation experiment suite (fidelity: %s)\n",
		map[bool]string{true: "fast", false: "full"}[*fast])
	fmt.Printf("host: single-threaded Go simulator; all runs deterministic (seed %d)\n\n", opts.Seed)

	start := time.Now()
	if selected("1") {
		rows, err := scalesim.TableI(scalesim.BandwidthMCFirst)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("Table I — scale-model construction (Proportional Resource Scaling, MC-first)")
		for _, r := range rows {
			fmt.Printf("  %2d cores | %-18s | %-32s | %s\n", r.Cores, r.LLC, r.NoC, r.DRAM)
		}
		fmt.Println()
	}

	for _, f := range ex.Figures() {
		if !selected(f.ID) || *skipHetero && (f.ID == "5" || f.ID == "6") {
			continue
		}
		t0 := time.Now()
		res, err := f.Run()
		if err != nil {
			log.Fatalf("%s: %v", f.Name, err)
		}
		fmt.Println(res.String())
		// The time study regenerates nothing: it reads recorded durations.
		if f.ID != "speedup" {
			fmt.Printf("  [%s regenerated in %.1fs, %d simulations so far]\n\n",
				f.Name, time.Since(t0).Seconds(), ex.Runs())
		}
	}

	fmt.Printf("total: %.1fs wall-clock, %d distinct simulations", time.Since(start).Seconds(), ex.Runs())
	if *storeDir != "" {
		fmt.Printf(", %d served from store", ex.DiskHits())
	}
	fmt.Println()
	if *stats {
		fmt.Println(ex.CampaignReport())
	}
	_ = os.Stdout.Sync()
}

// selection parses -figs into the set of ids to run, nil for all of them. An
// id that is neither "1" (Table I) nor a figure's is refused with the list of
// valid ids.
func selection(spec string, figures []scalesim.Figure) (map[string]bool, error) {
	if spec == "" {
		return nil, nil
	}
	valid := []string{"1"}
	for _, f := range figures {
		valid = append(valid, f.ID)
	}
	want := map[string]bool{}
	for _, id := range strings.Split(spec, ",") {
		id = strings.TrimSpace(id)
		if !slices.Contains(valid, id) {
			return nil, fmt.Errorf("-figs: unknown id %q; valid ids: %s", id, strings.Join(valid, ","))
		}
		want[id] = true
	}
	return want, nil
}
