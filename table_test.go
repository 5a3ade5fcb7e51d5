package scalesim

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// labels joins the rows' labels with commas.
func labels(rows []Row) string {
	var out []string
	for _, r := range rows {
		out = append(out, r.Label)
	}
	return strings.Join(out, ",")
}

// hostTimed names the columns measured in host wall-clock: Fig. 7's speedup
// and the simulation-time study's three.
var hostTimed = map[string]bool{"speedup": true, "total": true, "per benchmark": true}

// TestFigureTablesGolden runs every entry of Figures() on the tiny subset at
// two workers and pins the rendered report, host-timed columns zeroed, to
// testdata/figures.golden. Every table also round-trips through its JSON
// form. Regenerate the golden deliberately with SCALESIM_UPDATE_GOLDEN=1.
//
// It also judges the verdict table (verdicts.go) on seeds 1–5, regenerating
// for the seeds other than the golden's only the figures a claim reads, and
// pins on how many seeds each claim holds, so a change that moves any count
// fails naming the claim. A claim that reads a host-timed column is not
// pinned.
func TestFigureTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every figure on the tiny subset")
	}
	// Seeds (of 1–5) on which each claim holds at tinyOptions. A count of 0
	// is a claim this fidelity does not show, not a check to loosen.
	want := map[string]int{
		"Fig. 3: PRS is best and NRS is worst":                                                             5,
		"Fig. 4: every ML method beats No Extrapolation":                                                   3,
		"Fig. 4: the best method beats No Extrapolation by ≥ 2× (paper: 2.3×)":                             1,
		"Fig. 4: the best regression method's error is ≤ 1.5× the best prediction method's (paper: 1.25×)": 5,
		"Fig. 5: every method's error is higher than on homogeneous mixes (Fig. 4)":                        5,
		"Fig. 5: SVM is best in each family":                                                               2,
		"Fig. 6: each method's STP error is below its per-application error (Fig. 5)":                      1,
		"Fig. 8: MC-first's DT-log and SVM-log errors are each ≤ MB-first's":                               0,
		"Fig. 9: linear is the worst form":                                                                 5,
		"Fig. 10: adding bandwidth worsens no method":                                                      1,
		"Fig. 11: error does not increase as scale models are added":                                       4,
		"Fig. 12: the best prediction method beats the best regression method":                             5,
		"Ablations: without bandwidth feedback the NRS error is < 0.8× the full model's":                   5,
		"Ablations: with a partitioned LLC the PRS error is < 0.8× the full model's":                       5,
	}
	golden := tinyOptions().Seed
	held := map[string]int{}
	timed := map[string]bool{}
	var report strings.Builder
	for seed := uint64(1); seed <= 5; seed++ {
		opts := tinyOptions()
		opts.Seed = seed
		ex, err := NewExperimentsSubset(opts, subsetNames()...)
		if err != nil {
			t.Fatal(err)
		}
		ex.SetWorkers(2)
		tables := map[string]*Table{}
		for _, f := range ex.Figures() {
			if seed != golden && !slices.ContainsFunc(predicates, func(p predicate) bool { return slices.Contains(p.figs, f.ID) }) {
				continue
			}
			if tables[f.ID], err = f.Run(); err != nil {
				t.Fatalf("seed %d %s: %v", seed, f.Name, err)
			}
		}
		for _, v := range Verdicts(tables) {
			if v.Holds {
				held[v.Claim]++
			}
		}
		if seed != golden {
			continue
		}
		for _, p := range predicates {
			p.check(func(fig, label, column string) float64 {
				timed[p.claim] = timed[p.claim] || hostTimed[column]
				return tables[fig].Cell(label, column)
			})
		}
		for _, f := range ex.Figures() {
			tab := tables[f.ID]
			checkJSONRoundTrip(t, tab)
			for _, blk := range tab.Blocks {
				for c, col := range blk.Columns {
					for _, r := range blk.Rows {
						if hostTimed[col.Name] && c < len(r.Values) {
							r.Values[c] = 0
						}
					}
				}
			}
			report.WriteString(tab.String() + "\n")
		}
	}
	for _, p := range predicates {
		n, pinned := want[p.claim]
		switch {
		case timed[p.claim] && pinned:
			t.Errorf("%q reads a host-timed column: it cannot be pinned", p.claim)
		case !timed[p.claim] && !pinned:
			t.Errorf("%q holds on %d of seeds 1–5 and is not pinned", p.claim, held[p.claim])
		case !timed[p.claim] && held[p.claim] != n:
			t.Errorf("%q holds on %d of seeds 1–5, pinned at %d", p.claim, held[p.claim], n)
		}
		delete(want, p.claim)
	}
	for claim := range want {
		t.Errorf("pinned claim %q is not in the verdict table", claim)
	}

	path := filepath.Join("testdata", "figures.golden")
	if os.Getenv("SCALESIM_UPDATE_GOLDEN") == "1" {
		if err := os.WriteFile(path, []byte(report.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pinned, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := report.String(); got != string(pinned) {
		t.Errorf("rendered figures differ from %s:\n%s", path, got)
	}
}

// checkJSONRoundTrip encodes tab and decodes it back: ids, titles, column
// names and units, labels and values (NaN equal to NaN) must survive, and the
// decoded table must render the same text.
func checkJSONRoundTrip(t *testing.T, tab *Table) {
	t.Helper()
	b, err := json.Marshal(tab)
	if err != nil {
		t.Fatalf("%s: %v", tab.ID, err)
	}
	var back Table
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("%s: %v", tab.ID, err)
	}
	same := func(x, y Cell) bool { return x == y || math.IsNaN(float64(x)) && math.IsNaN(float64(y)) }
	if back.ID != tab.ID || back.Title != tab.Title || len(back.Blocks) != len(tab.Blocks) {
		t.Fatalf("%s: decoded as %q — %q with %d blocks", tab.ID, back.ID, back.Title, len(back.Blocks))
	}
	for i, blk := range tab.Blocks {
		got := back.Blocks[i]
		if got.Heading != blk.Heading || got.Label != blk.Label || !slices.Equal(got.Columns, blk.Columns) ||
			!slices.EqualFunc(got.Rows, blk.Rows, func(x, y Row) bool {
				return x.Label == y.Label && slices.EqualFunc(x.Values, y.Values, same)
			}) {
			t.Errorf("%s block %d: decoded as %+v, want %+v", tab.ID, i, got, blk)
		}
	}
	if back.String() != tab.String() {
		t.Errorf("%s: the decoded table renders\n%s\nwant\n%s", tab.ID, back.String(), tab.String())
	}
}

// TestTableNonFiniteCells: a NaN or ±Inf cell (metrics.PredictionError of a
// zero actual) encodes as null, decodes as NaN and renders as fmt prints it.
func TestTableNonFiniteCells(t *testing.T) {
	tab := &Table{ID: "T", Title: "non-finite", Blocks: []Block{{
		Label: "case", LabelFormat: "  %-6s",
		Columns: []Column{{Name: "err", Unit: "%", Format: " %6.1f%%"}, {Name: "x", Unit: "x", Format: " %5.1fx"}},
		Rows: []Row{
			{Label: "nan", Values: []Cell{Cell(math.NaN()), 2}},
			{Label: "inf", Values: []Cell{Cell(math.Inf(1)), Cell(math.Inf(-1))}},
		},
	}}}
	b, err := json.Marshal(tab)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"values":[null,2]`, `"values":[null,null]`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("JSON lacks %s:\n%s", want, b)
		}
	}
	nan := tab.Blocks[0]
	nan.Rows = nan.Rows[:1]
	checkJSONRoundTrip(t, &Table{ID: "T", Title: "nan", Blocks: []Block{nan}})
	want := "T — non-finite\n" +
		"  case       err      x\n" +
		"  nan       NaN%   2.0x\n" +
		"  inf      +Inf%  -Infx\n"
	if got := tab.String(); got != want {
		t.Errorf("renders\n%s\nwant\n%s", got, want)
	}
}
