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

// cell returns the number at row label and column name in the first block of
// t that has both.
func cell(tb testing.TB, t *Table, label, column string) float64 {
	tb.Helper()
	for _, blk := range t.Blocks {
		c := slices.IndexFunc(blk.Columns, func(c Column) bool { return c.Name == column })
		r := slices.IndexFunc(blk.Rows, func(r Row) bool { return r.Label == label })
		if c >= 0 && r >= 0 && c < len(blk.Rows[r].Values) {
			return float64(blk.Rows[r].Values[c])
		}
	}
	tb.Fatalf("%s: no cell (%q, %q)", t.ID, label, column)
	return 0
}

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
func TestFigureTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every figure on the tiny subset")
	}
	ex, err := NewExperimentsSubset(tinyOptions(), subsetNames()...)
	if err != nil {
		t.Fatal(err)
	}
	ex.SetWorkers(2)
	var report strings.Builder
	for _, f := range ex.Figures() {
		tab, err := f.Run()
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
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
	path := filepath.Join("testdata", "figures.golden")
	if os.Getenv("SCALESIM_UPDATE_GOLDEN") == "1" {
		if err := os.WriteFile(path, []byte(report.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := report.String(); got != string(want) {
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
