package rules

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/fixture.golden from the current output")

// fixtureConfig lints the self-contained module under testdata/fixture,
// with its own deterministic set, units package, goroutine policy and lock
// policy.
func fixtureConfig() config {
	return config{
		root:       filepath.Join("testdata", "fixture"),
		det:        []string{"det"},
		unitsDir:   "uu",
		goroutines: []string{"leak"},
		locks:      []string{"lk"},
	}
}

var (
	fixtureOnce     sync.Once
	fixtureFindings []finding
	fixtureErr      error
)

func fixtureLint(t *testing.T) []finding {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureFindings, _, fixtureErr = lint(fixtureConfig())
	})
	if fixtureErr != nil {
		t.Fatalf("lint: %v", fixtureErr)
	}
	return fixtureFindings
}

// TestAnalyzerFindings pins, per rule, exactly which fixture sites are
// flagged — and, by omission, that the justified suppressions, the
// non-deterministic package, and the sanctioned spellings stay silent.
func TestAnalyzerFindings(t *testing.T) {
	findings := fixtureLint(t)
	got := map[string][]string{}
	for _, f := range findings {
		got[f.rule] = append(got[f.rule], fmt.Sprintf("%s:%d", f.pos.Filename, f.pos.Line))
	}
	want := map[string][]string{
		"maporder": {
			"det/det.go:13", // Sum: unsuppressed range over map
			"det/det.go:34", // SumBadSuppress: justification-less suppression does not suppress
			"det/det.go:67", // SumUnknownSuppress: unknown rule name does not suppress
		},
		"wallclock": {
			"det/det.go:42", // Stamp: time.Now
			"det/det.go:43", // Stamp: time.Since
			"det/det.go:59", // Draw: global math/rand
		},
		"ignore": {
			"det/det.go:33", // suppression without a justification
			"det/det.go:66", // suppression naming an unknown rule
		},
		"units": {
			"mix/mix.go:10", // Mixed: float64(Cycles) + float64(Bytes)
			"mix/mix.go:15", // Compared: float64(Cycles) > float64(Bytes)
			"mix/mix.go:20", // Reinterpret: Cycles(Bytes)
			"mix/mix.go:28", // Literal: bare 250 at a Cycles parameter
		},
		"errwrap": {
			"ew/ew.go:14",  // Compared: == sentinel
			"ew/ew.go:20",  // TextMatched: Error() == "boom"
			"ew/ew.go:23",  // ContainsMatched: strings.Contains(Error(), ...)
			"ew2/ew2.go:8", // CrossCompared: != imported sentinel
		},
		"goroleak": {
			"leak/leak.go:11", // Fire: no context parameter
			"leak/leak.go:11", // Fire: not WaitGroup-joined
			"leak/leak.go:16", // Unjoined: not WaitGroup-joined
			"leak/leak.go:38", // Opaque: unresolvable goroutine body
		},
		"ctxflow": {
			"cf/cf.go:14", // Run: a context-free wrapper mints a root too
			"cf/cf.go:18", // Fresh: Background despite a ctx parameter
			"cf/cf.go:23", // Derived: WithCancel does not launder a root
			"cf/cf.go:37", // Spawn: goroutine drops the caller's context
			"cf/cf.go:50", // NewHolder: root context parked in a struct field
		},
		"lockscope": {
			"lk/lk.go:23",  // HeldAcrossSend: channel send under the mutex
			"lk/lk.go:32",  // HeldAcrossIO: file write under a deferred unlock
			"lk/lk.go:39",  // LeakyReturn: early return leaks the lock
			"lk/lk.go:62",  // Blocks: default-less select under the mutex
			"lk/lk.go:84",  // ViaHelper: callee blocking summary
			"lk/lk.go:110", // BranchUnlock: unlock inside a branch
			"lk/lk.go:111", // BranchUnlock: return between Lock and Unlock
			"lk/lk.go:124", // LoopBreak: break out of the enclosing loop
			"lk/lk.go:139", // NestedDefer: write after the block, before the deferred unlock runs
			"lk/lk.go:146", // BranchOnlyLock: lock with no unlock in its block
			"lk/lk.go:149", // BranchOnlyLock: unlock with no lock in its block
			"lk/lk.go:160", // SwitchInside: a break inside a paired section, even one that stays in it
			"lk/lk.go:166", // SwitchInside: a continue inside a paired section, likewise
		},
	}
	for rule, sites := range want {
		if !reflect.DeepEqual(got[rule], sites) {
			t.Errorf("rule %s: got %v, want %v", rule, got[rule], sites)
		}
	}
	for rule := range got {
		if _, ok := want[rule]; !ok {
			t.Errorf("unexpected findings for rule %s: %v", rule, got[rule])
		}
	}
}

// TestGoldenOutput pins the full rendered report. This is simlint's own
// determinism regression test: the golden can only stay stable if findings
// are emitted in sorted (file, line, column, rule, message) order. Run with
// -update to regenerate after deliberate fixture or message changes.
func TestGoldenOutput(t *testing.T) {
	goldenPath := filepath.Join("testdata", "fixture.golden")
	got := render(fixtureLint(t))
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
	}
}

// TestOutputDeterministic lints the fixture twice from scratch and
// requires byte-identical reports.
func TestOutputDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("second full load is slow")
	}
	again, _, err := lint(fixtureConfig())
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	if a, b := render(fixtureLint(t)), render(again); a != b {
		t.Errorf("two runs rendered differently:\n--- first ---\n%s--- second ---\n%s", a, b)
	}
}

// TestRepoClean is simlint: it loads the repository once, runs every rule
// over it and fails, printing each finding as "file:line: [rule] message",
// unless none survives its suppressions. `make lint` and `make check` run
// it; every rule has a mutant under tools/mutants that only this test
// kills.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	findings, m, err := lint(repoConfig(filepath.Join("..", "..", "..", "..")))
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	if len(findings) != 0 {
		t.Errorf("repository is not lint-clean:\n%s", render(findings))
	}
	t.Run("surface", func(t *testing.T) { checkSurface(t, m) })
}
