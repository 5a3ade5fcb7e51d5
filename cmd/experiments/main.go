// Command experiments regenerates every table and figure of the paper's
// evaluation (§V) and prints a consolidated report. This is the program
// behind EXPERIMENTS.md.
//
// Usage:
//
//	experiments [-fast] [-figs 3,4,7] [-workers N] [-stats] [-store DIR] [-seeds]
//
// After the figures it prints one "verdict:" line per claim of
// scalesim.Verdicts whose figures all ran: "holds", or "fails:" and the row
// that breaks it; -seeds adds on which of seeds 1–5 each claim holds
// (scalesim's Experiments.SeedVerdicts; one -store serves all five seeds).
//
// -fast runs at reduced simulation fidelity, about 5x cheaper, and loses two
// of the full run's verdicts on some seeds: Fig. 5's "SVM is best in each
// family" and Fig. 10's "adding bandwidth worsens no method". The full run
// regenerates the numbers recorded in EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"scalesim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	fast := flag.Bool("fast", false, "reduced simulation fidelity (~5x faster; on some seeds loses the full run's Fig. 5 \"SVM is best\" and Fig. 10 verdicts)")
	figs := flag.String("figs", "", "comma-separated ids to run (default: all): 1,3..12, mt, ablations, prefetch, speedup")
	workers := flag.Int("workers", 1, "campaign worker-pool size: bounds batch collections and leave-one-out evaluation fan-out (0 = GOMAXPROCS)")
	stats := flag.Bool("stats", false, "print the campaign execution report (per-configuration simulation time) at the end")
	storeDir := flag.String("store", "", "durable result store directory: makes figure regeneration incremental across invocations")
	seeds := flag.Bool("seeds", false, "after the verdict lines, judge every claim on seeds 1–5 and print on which seeds it holds")
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
	fmt.Printf("host: %d CPUs for the Go runtime; all runs deterministic (seed %d)\n\n", runtime.GOMAXPROCS(0), opts.Seed)

	start := time.Now()
	tables := map[string]*scalesim.Table{}
	for _, f := range ex.Figures() {
		if !selected(f.ID) {
			continue
		}
		t0 := time.Now()
		res, err := f.Run()
		if err != nil {
			log.Fatalf("%s: %v", f.Name, err)
		}
		tables[f.ID] = res
		fmt.Println(res.String())
		fmt.Printf("  [%s regenerated in %.1fs, %d simulations so far]\n\n",
			f.Name, time.Since(t0).Seconds(), ex.Runs())
	}

	for _, v := range scalesim.Verdicts(tables) {
		verdict := map[bool]string{true: "holds", false: "fails:"}[v.Holds]
		fmt.Println(strings.TrimSpace(fmt.Sprintf("verdict: %s — %s %s", v.Claim, verdict, v.Detail)))
	}
	if *seeds {
		t, err := ex.SeedVerdicts()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s\n", t)
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
// id that is no figure's is refused with the list of valid ids.
func selection(spec string, figures []scalesim.Figure) (map[string]bool, error) {
	if spec == "" {
		return nil, nil
	}
	var valid []string
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
