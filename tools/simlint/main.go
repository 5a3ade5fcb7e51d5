// Command simlint is the repository's static-analysis gate: determinism,
// unit, error-wrapping and concurrency invariants, enforced over every
// package of the module with go/parser + go/types (standard library only,
// offline).
//
// The simulator's value rests on bit-identical, seed-stable, dimensionally
// sane runs: the scale-model extrapolation (and anything trained on campaign
// outputs) is meaningless if two runs of the same design point diverge, or
// if a cycles-vs-bytes mixup skews a model input. The rules:
//
//	maporder    no `range` over maps in deterministic packages
//	wallclock   no time.Now/time.Since or math/rand in deterministic
//	            packages; internal/xrand is the only randomness source
//	units       no arithmetic mixing distinct internal/units quantity
//	            types, no bare literals across unit boundaries
//	errwrap     sentinel errors are wrapped with %w and matched with
//	            errors.Is, never == or string matching
//	goroleak    every go statement in the pool-owning packages is
//	            WaitGroup-joined and spawned from a context-aware function
//	ctxflow     no context.Background()/TODO() outside package main and
//	            the single-statement X → XContext(context.Background(), …)
//	            wrappers
//	lockscope   a critical section is Lock directly followed by defer
//	            Unlock, or Lock … Unlock as two statements of one block
//	            with no way out between them; nothing in it may block
//
// Each rule holds an invariant no test can: a lock held across a send, a
// map range that happens to iterate in order today. Invariants a test
// already holds (every design-point field moves the cache key, the hot loop
// allocates nothing, epoch workers do not write shared state, model
// predictions never reach a ground-truth tier) are left to that test;
// DESIGN.md, "Static analysis invariants", names it for each.
//
// Findings print as "file:line: [rule] message", sorted, and exit status 1.
// A finding is suppressed by a trailing or preceding comment
//
//	//simlint:ignore <rule> <justification>
//
// where the rule name must be registered and the justification is
// mandatory; that is the one escape valve.
//
// Usage:
//
//	simlint [flags] [module-root]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"scalesim/tools/simlint/internal/analysis"
	"scalesim/tools/simlint/internal/rules"
)

func main() {
	ruleList := flag.String("rules", "", "comma-separated subset of rules to run (default: all)")
	reportPath := flag.String("report", "", "write a JSON report (scalesim/simlint-report/v1) to this path")
	flag.Parse()

	root := "."
	if args := flag.Args(); len(args) > 0 && args[0] != "./..." {
		root = args[0]
	}
	cfg := rules.RepoConfig(root)
	active := rules.All(cfg)
	if *ruleList != "" {
		want := map[string]bool{}
		for _, name := range strings.Split(*ruleList, ",") {
			want[strings.TrimSpace(name)] = true
		}
		for _, known := range rules.Names(cfg) {
			delete(want, known)
		}
		if len(want) > 0 {
			fatal(fmt.Errorf("simlint: unknown rule(s) in -rules: %s (known: %s)",
				strings.Join(sortedKeys(want), ", "), strings.Join(rules.Names(cfg), ", ")))
		}
		selected := map[string]bool{}
		for _, name := range strings.Split(*ruleList, ",") {
			selected[strings.TrimSpace(name)] = true
		}
		active = rules.Select(cfg, selected)
	}

	findings, mod, err := analysis.Run(cfg, active)
	if err != nil {
		fatal(err)
	}

	if *reportPath != "" {
		var names []string
		for _, a := range active {
			names = append(names, a.Name())
		}
		if err := analysis.WriteReport(*reportPath, mod.Path, names, findings); err != nil {
			fatal(err)
		}
	}

	if len(findings) > 0 {
		fmt.Print(analysis.Render(findings))
		fmt.Fprintf(os.Stderr, "simlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

func sortedKeys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	// Tiny n; insertion sort keeps imports lean.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
