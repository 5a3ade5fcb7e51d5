package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs             []float64
		median, q1, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{4, 2}, 3, 2.5, 3.5},
		{[]float64{5, 1, 4, 2, 3}, 3, 2, 4},
		{[]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 5.5, 3.25, 7.75},
	} {
		in := append([]float64(nil), tc.xs...)
		median, q1, q3 := quartiles(tc.xs)
		if median != tc.median || q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v, want %v, %v, %v", in, median, q1, q3, tc.median, tc.q1, tc.q3)
		}
		for i := range in {
			if tc.xs[i] != in[i] {
				t.Fatalf("quartiles reordered its argument: %v, was %v", tc.xs, in)
			}
		}
	}
}

// workload builds one side's record of a metric the way main does: runs
// appended in pair order, then summarised.
func workload(digest string, runs ...float64) *workloadRecord {
	s := &summary{Runs: runs}
	s.Median, s.Q1, s.Q3 = quartiles(runs)
	return &workloadRecord{
		ResultDigests: []string{digest},
		ScriptDigests: []string{"script"},
		Metrics:       map[string]*summary{"m": s},
	}
}

func TestCompare(t *testing.T) {
	parent := workload("d", 10, 10, 10, 12, 10)
	change := workload("d", 12, 10, 9, 15, 13) // pairwise: up, tie, down, up, up

	hi := compare("higher", parent, change, "m")
	if hi.Pairs != 5 || hi.ChangeWins != 3 || hi.ParentWins != 1 {
		t.Errorf("higher: %d pairs, change %d, parent %d, want 5, 3, 1 (a tie counts for neither)", hi.Pairs, hi.ChangeWins, hi.ParentWins)
	}
	// Medians 10 → 12: +20 %, and 2 apart against a parent quartile spread of 0.
	if hi.MedianChangePct != 20 || !hi.BeyondSpread || !hi.DigestsEqual {
		t.Errorf("higher: median change %v %%, beyond spread %v, digests equal %v, want 20, true, true", hi.MedianChangePct, hi.BeyondSpread, hi.DigestsEqual)
	}

	lo := compare("lower", parent, change, "m")
	if lo.ChangeWins != 1 || lo.ParentWins != 3 {
		t.Errorf("lower: change %d, parent %d, want 1, 3 (the same runs, judged the other way)", lo.ChangeWins, lo.ParentWins)
	}
	if lo.MedianChangePct != 20 {
		t.Errorf("lower: median change %v %%, want 20 (signed as measured, not as judged)", lo.MedianChangePct)
	}

	// A parent as wide as the difference between the medians: not beyond.
	wide := compare("higher", workload("d", 8, 9, 10, 11, 12), workload("d", 10, 11, 12, 13, 14), "m")
	if wide.ChangeWins != 5 || wide.BeyondSpread {
		t.Errorf("wide parent: change wins %d, beyond spread %v, want 5, false (medians 2 apart, quartiles 2 apart)", wide.ChangeWins, wide.BeyondSpread)
	}

	if compare("higher", parent, workload("other", 12, 10, 9, 15, 13), "m").DigestsEqual {
		t.Error("differing result digests reported equal")
	}
	twice := workload("d", 12, 10, 9, 15, 13)
	twice.ScriptDigests = append(twice.ScriptDigests, "script2")
	if compare("higher", parent, twice, "m").DigestsEqual {
		t.Error("a side whose runs disagreed on the script digest reported equal")
	}
}

func TestOutputPathNeverReplacesTheDatedDefault(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	day := time.Date(2026, 10, 2, 15, 4, 5, 0, time.UTC)
	const dated = "BENCH_20261002.json"
	if got, err := outputPath("", day); err != nil || got != dated {
		t.Fatalf("empty directory: %q, %v, want %q", got, err, dated)
	}
	if err := os.WriteFile(filepath.Join(dir, dated), []byte("committed\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := outputPath("", day)
	if err == nil {
		t.Fatalf("default name chosen although %s exists: %q", dated, got)
	}
	if !strings.Contains(err.Error(), "-out") || !strings.Contains(err.Error(), dated) {
		t.Errorf("error %q names neither the file nor -out", err)
	}
	// Named explicitly, the same file — or any other — is the caller's call.
	for _, out := range []string{dated, "BENCH_20261002_pr20.json"} {
		if got, err := outputPath(out, day); err != nil || got != out {
			t.Errorf("-out %s: %q, %v", out, got, err)
		}
	}
}

// trendRecord is a hand-written record: one workload, ops_per_s only.
func trendRecord(date string, parent, change string) string {
	sides := `"change":{"workloads":{"w":{"metrics":{"ops_per_s":` + change + `}}}}`
	comparison := ""
	if parent != "" {
		sides += `,"parent":{"workloads":{"w":{"metrics":{"ops_per_s":` + parent + `}}}}`
		comparison = `,"comparison":{"w":{"ops_per_s":{"pairs":10,"change_wins":9}}}`
	}
	return `{"schema":"benchrecord/v1","date":"` + date + `","sides":{` + sides + `}` + comparison + `}`
}

func TestTrend(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		// Read in date order, then name order — not directory order.
		"BENCH_20261002_b.json": trendRecord("2026-10-02", `{"median":2.3,"q1":2.2,"q3":2.4}`, `{"median":3}`),   // 0.3 off, spread 0.2
		"BENCH_20261002.json":   trendRecord("2026-10-02", `{"median":1.9,"q1":1.7,"q3":2.1}`, `{"median":2}`),   // 0.1 off, spread 0.4
		"BENCH_20261001.json":   trendRecord("2026-10-01", "", `{"median":1.8}`),                                 // unpaired
		"BENCH_20261003.json":   trendRecord("2026-10-03", `{"median":2.75,"q1":2.5,"q3":2.75}`, `{"median":4}`), // 0.25 off, spread 0.25: not beyond
		"notes.json":            "not a record",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	if err := trend(&out, dir); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")[1:] // drop the header
	want := []struct {
		fields string
		drift  bool
	}{
		{"BENCH_20261001.json w - 1.8 -", false},
		{"BENCH_20261002.json w 1.9 2 9/10", false},
		{"BENCH_20261002_b.json w 2.3 3 9/10", true},
		{"BENCH_20261003.json w 2.75 4 9/10", false},
	}
	if len(lines) != len(want) {
		t.Fatalf("%d rows, want %d:\n%s", len(lines), len(want), out.String())
	}
	for i, w := range want {
		if got := strings.Join(strings.Fields(lines[i])[:5], " "); got != w.fields {
			t.Errorf("row %d: %q, want %q", i, got, w.fields)
		}
		if got := strings.Contains(lines[i], "host drift"); got != w.drift {
			t.Errorf("row %d: drift flagged %v, want %v: %s", i, got, w.drift, lines[i])
		}
	}

	// A calibrated record: the change side met a host twice as fast (half the
	// loop time) and read twice the ops/s — the same work per host speed.
	calibrated := `{"date":"2026-10-04","sides":{` +
		`"parent":{"calibration_ms":{"median":200},"workloads":{"w":{"metrics":{"ops_per_s":{"median":2}}}}},` +
		`"change":{"calibration_ms":{"median":100},"workloads":{"w":{"metrics":{"ops_per_s":{"median":4}}}}}}}`
	if err := os.WriteFile(filepath.Join(dir, "BENCH_20261004.json"), []byte(calibrated), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := trend(&out, dir); err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimSpace(out.String()), "\n")
	if got := strings.Join(strings.Fields(lines[len(lines)-1])[:7], " "); got != "BENCH_20261004.json w 2 4 - 0.4 0.4" {
		t.Errorf("calibrated row: %q, want each side's ops/s times its calibration seconds", got)
	}
	if got := strings.Fields(lines[1])[5:7]; got[0] != "-" || got[1] != "-" {
		t.Errorf("uncalibrated row normalised: %v", got)
	}
	if ms := calibrate(); ms <= 0 {
		t.Errorf("calibrate() = %v ms", ms)
	}

	if err := os.WriteFile(filepath.Join(dir, "BENCH_torn.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := trend(&out, dir); err == nil || !strings.Contains(err.Error(), "BENCH_torn.json") {
		t.Errorf("a record that does not parse: %v, want an error naming the file", err)
	}
}
