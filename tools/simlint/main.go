// Command simlint is the repository's static-analysis gate: determinism,
// key-drift, unit, error-wrapping and concurrency invariants, enforced over
// every package of the module with go/parser + go/types (standard library
// only, offline).
//
// The simulator's value rests on bit-identical, seed-stable, dimensionally
// sane runs: the scale-model extrapolation (and anything trained on campaign
// outputs) is meaningless if two runs of the same design point diverge, or
// if a cycles-vs-bytes mixup skews a model input. The rules:
//
//	maporder    no `range` over maps in deterministic packages
//	wallclock   no time.Now/time.Since or math/rand in deterministic
//	            packages; internal/xrand is the only randomness source
//	reflectfmt  no %v/%+v of pointer-carrying values feeding a hash or key
//	keydrift    every semantic field of the design-point structs must be
//	            encoded by internal/runner/key.go
//	units       no arithmetic mixing distinct internal/units quantity
//	            types, no bare literals across unit boundaries
//	errwrap     sentinel errors are wrapped with %w and matched with
//	            errors.Is, never == or string matching
//	apipair     every exported *Context entry point has a single-statement
//	            delegating context-free wrapper
//	goroleak    every go statement in internal/runner and internal/store
//	            is WaitGroup-joined and spawned from a context-aware
//	            function
//	approxflow  flow-sensitive taint: model predictions (approximate
//	            values) never reach the store, the memory cache, or the
//	            training set
//	ctxflow     flow-sensitive: fresh context.Background()/TODO() outside
//	            main and the sanctioned X/XContext wrappers never flows
//	            into the module's context-taking calls
//	lockscope   flow-sensitive: no mutex held across a blocking operation,
//	            no return path that leaks a lock
//	hotpath     interprocedural: functions reachable from the hot-loop
//	            roots (the per-cycle core stepper, the memory-system
//	            resolve path, the cache access paths) must not allocate,
//	            lock, defer, range a map, or call fmt; escapes use
//	            //simlint:hotpath-exempt <justification>
//	sharestrict interprocedural: the epoch fork/join workers must not
//	            write shared simulator state (noc.Mesh, dram.Memory, the
//	            shared-LLC cache.NUCA) except through the sanctioned
//	            read-only and *Into accumulator surfaces
//
// The two interprocedural rules run over a CHA-based call graph
// (tools/simlint/internal/callgraph): interface calls resolve to every
// module type implementing the interface, closures and method values are
// edges, and each finding carries its witness — the shortest call chain
// from a configured root — in the message and as a SARIF codeFlow.
//
// Findings print as "file:line: [rule] message", sorted, and exit status 1.
// A finding is suppressed by a trailing or preceding comment
//
//	//simlint:ignore <rule> <justification>
//
// where the rule name must be registered and the justification is
// mandatory. Findings listed in the committed baseline file
// (tools/simlint/baseline.json) are reported in the JSON report but do not
// fail the run; `make lint-baseline` regenerates the baseline. See
// DESIGN.md, "Static analysis invariants".
//
// Some findings carry a suggested fix; -fix applies them (atomically per
// file, idempotently) and re-lints so only what remains is reported.
// -sarif writes the run as SARIF 2.1.0 for GitHub code scanning.
//
// Usage:
//
//	simlint [flags] [module-root]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"scalesim/tools/simlint/internal/analysis"
	"scalesim/tools/simlint/internal/rules"
)

func main() {
	ruleList := flag.String("rules", "", "comma-separated subset of rules to run (default: all)")
	reportPath := flag.String("report", "", "write a JSON report (scalesim/simlint-report/v1) to this path")
	sarifPath := flag.String("sarif", "", "write a SARIF 2.1.0 report to this path")
	applyFix := flag.Bool("fix", false, "apply suggested fixes, then re-lint and report what remains")
	baselinePath := flag.String("baseline", "", "baseline file of accepted findings (default: <root>/tools/simlint/baseline.json; missing file = empty baseline)")
	writeBaseline := flag.Bool("write-baseline", false, "accept every current finding: rewrite the baseline file and exit 0")
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

	blPath := *baselinePath
	if blPath == "" {
		blPath = filepath.Join(root, "tools", "simlint", "baseline.json")
	}
	if *writeBaseline {
		if err := analysis.WriteBaseline(blPath, findings); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "simlint: baseline %s rewritten with %d finding(s)\n", blPath, len(findings))
	}
	baseline, err := analysis.LoadBaseline(blPath)
	if err != nil {
		fatal(err)
	}
	newFindings, baselined := baseline.Split(findings)

	if *applyFix {
		res, err := analysis.ApplyFixes(mod, newFindings)
		if err != nil {
			fatal(err)
		}
		if res.Skipped > 0 {
			fmt.Fprintf(os.Stderr, "simlint: %d overlapping fix(es) skipped; re-run -fix after this pass\n", res.Skipped)
		}
		if res.Applied > 0 {
			fmt.Fprintf(os.Stderr, "simlint: applied %d fix(es) to %s\n", res.Applied, strings.Join(res.Files, ", "))
			// Re-lint from the rewritten sources so the report and the exit
			// status describe what is actually left.
			findings, mod, err = analysis.Run(cfg, active)
			if err != nil {
				fatal(err)
			}
			newFindings, baselined = baseline.Split(findings)
		}
	}

	if *sarifPath != "" {
		if err := analysis.WriteSARIF(*sarifPath, analysis.BuildSARIF(active, newFindings, baselined)); err != nil {
			fatal(err)
		}
	}

	if *reportPath != "" {
		var names []string
		for _, a := range active {
			names = append(names, a.Name())
		}
		report := analysis.BuildReport(mod.Path, names, newFindings, baselined)
		if err := analysis.WriteReport(*reportPath, report); err != nil {
			fatal(err)
		}
	}

	if len(baselined) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d baselined finding(s) suppressed\n", len(baselined))
	}
	if len(newFindings) > 0 {
		fmt.Print(analysis.Render(newFindings))
		fmt.Fprintf(os.Stderr, "simlint: %d finding(s)\n", len(newFindings))
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
