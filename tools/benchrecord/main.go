// Command benchrecord gives the repository's benchmark a trajectory: it
// runs scalebench (go run ./bench/cmd/scalebench) on every workload of
// BENCHMARK.json N times and writes BENCH_<yyyymmdd>.json with, per
// workload and end-to-end metric, the median and quartiles of the runs,
// plus the digests and tier counts of scalebench's detail line and the
// host facts a reader needs to judge the numbers.
//
// With -parent DIR (a checkout of the commit being compared against) every
// workload is run as N alternating parent/change pairs, and the record adds
// the comparison bench/README.md prescribes for a claimed gain: how many
// pairs the change won, and whether the medians differ by more than the
// distance between the parent's quartiles.
//
//	go run ./tools/benchrecord -n 10 -parent ../parent-checkout
//
// With -trend it runs nothing: it reads every BENCH_*.json of the working
// directory and prints the line through them (see trend).
//
// It edits nothing under bench/ and uses only the standard library.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"text/tabwriter"
	"time"
)

// detail is the part of scalebench's detail line (the JSON line before the
// result line) the record keeps.
type detail struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Workloads  []struct {
		Name      string                    `json:"name"`
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Digest    string                    `json:"result_digest"`
		Script    string                    `json:"script_digest"`
		Classes   map[string]map[string]int `json:"classes,omitempty"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	} `json:"workloads"`
}

// summary is one metric over a side's runs.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Runs   []float64 `json:"runs"`
}

// workloadRecord is one workload on one side. Digests and tier counts are
// lists of the distinct values seen: more than one entry means the runs
// disagreed.
type workloadRecord struct {
	Attempted     int                         `json:"attempted"`
	Failed        int                         `json:"failed"`
	Incorrect     int                         `json:"incorrect_runs"`
	ResultDigests []string                    `json:"result_digests"`
	ScriptDigests []string                    `json:"script_digests"`
	Classes       []map[string]map[string]int `json:"classes,omitempty"`
	Metrics       map[string]*summary         `json:"metrics"`
}

type side struct {
	Commit      string                     `json:"commit"`
	Calibration *summary                   `json:"calibration_ms,omitempty"` // calibrate before each run
	Workloads   map[string]*workloadRecord `json:"workloads"`
}

// comparison is the paired verdict for one metric of one workload.
type comparison struct {
	Better          string  `json:"better"`
	Pairs           int     `json:"pairs"`
	ChangeWins      int     `json:"change_wins"`
	ParentWins      int     `json:"parent_wins"`
	MedianChangePct float64 `json:"median_change_pct"` // (change-parent)/parent
	BeyondSpread    bool    `json:"beyond_parent_iqr"`
	DigestsEqual    bool    `json:"digests_equal"`
}

type record struct {
	Schema  string `json:"schema"`
	Date    string `json:"date"`
	Command string `json:"command"`
	Pairs   int    `json:"runs_per_side"`
	Host    struct {
		NProc      int     `json:"nproc"`
		GOMAXPROCS int     `json:"gomaxprocs"`
		GoVersion  string  `json:"go"`
		OSArch     string  `json:"os_arch"`
		Seed       uint64  `json:"seed"`
		Seconds    float64 `json:"seconds"`
	} `json:"host"`
	Sides      map[string]*side                  `json:"sides"`
	Comparison map[string]map[string]*comparison `json:"comparison,omitempty"`
}

// benchmarkSpec is what the recorder reads from BENCHMARK.json.
type benchmarkSpec struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"end_to_end"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchrecord: ")
	n := flag.Int("n", 10, "runs per workload and side (pairs, with -parent)")
	parent := flag.String("parent", "", "checkout of the parent commit; when set, runs alternate parent/change and the record carries the comparison")
	only := flag.String("workload", "", "comma-separated workload names (default: every workload of BENCHMARK.json)")
	out := flag.String("out", "", "output file (default BENCH_<yyyymmdd>.json, which must not exist yet)")
	trendOnly := flag.Bool("trend", false, "run nothing: print ops_per_s per record and workload over every BENCH_*.json here, flagging host drift between records")
	flag.Parse()
	if *n < 1 || flag.NArg() > 0 {
		log.Fatal("usage: benchrecord [-n runs] [-parent dir] [-workload a,b] [-out file] | benchrecord -trend")
	}
	if *trendOnly {
		if err := trend(os.Stdout, "."); err != nil {
			log.Fatal(err)
		}
		return
	}
	now := time.Now()
	path, err := outputPath(*out, now)
	if err != nil {
		log.Fatal(err) // before the runs, not after an hour of them
	}

	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		log.Fatalf("run from the repository root: %v", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		log.Fatalf("BENCHMARK.json: %v", err)
	}
	var workloads []string
	for _, w := range spec.Workloads {
		if *only == "" || strings.Contains(","+*only+",", ","+w.Name+",") {
			workloads = append(workloads, w.Name)
		}
	}
	if len(workloads) == 0 {
		log.Fatalf("no workload of BENCHMARK.json matches %q", *only)
	}

	rec := &record{Schema: "benchrecord/v1", Date: now.Format("2006-01-02"), Command: strings.Join(spec.Command, " "), Pairs: *n}
	rec.Host.OSArch = runtime.GOOS + "/" + runtime.GOARCH
	dirs := map[string]string{"change": "."}
	order := []string{"change"}
	if *parent != "" {
		dirs["parent"] = *parent
		order = []string{"parent", "change"}
	}
	rec.Sides = map[string]*side{}
	for _, name := range order {
		rec.Sides[name] = &side{Commit: commitOf(dirs[name]), Calibration: &summary{Unit: "ms"}, Workloads: map[string]*workloadRecord{}}
	}

	for i := 0; i < *n; i++ {
		for _, w := range workloads {
			// Alternate which side runs first, so slow drift of the shared
			// host does not favour one side.
			for k := range order {
				name := order[(k+i)%len(order)]
				rec.Sides[name].Calibration.Runs = append(rec.Sides[name].Calibration.Runs, calibrate())
				d, err := runScalebench(spec.Command, dirs[name], w)
				if err != nil {
					log.Fatalf("run %d, %s on %s: %v", i+1, w, name, err)
				}
				rec.Host.NProc, rec.Host.GOMAXPROCS, rec.Host.GoVersion = d.NProc, d.GOMAXPROCS, d.GoVersion
				rec.Host.Seed, rec.Host.Seconds = d.Seed, d.Seconds
				rec.Sides[name].add(w, d)
				log.Printf("run %d/%d %-17s %-6s op_p50_ms=%.4g", i+1, *n, w, name, d.Workloads[0].Metrics["op_p50_ms"].Value)
			}
		}
	}
	for _, s := range rec.Sides {
		s.Calibration.Median, s.Calibration.Q1, s.Calibration.Q3 = quartiles(s.Calibration.Runs)
		for _, w := range s.Workloads {
			for _, m := range w.Metrics {
				m.Median, m.Q1, m.Q3 = quartiles(m.Runs)
			}
		}
	}
	if *parent != "" {
		rec.Comparison = map[string]map[string]*comparison{}
		for _, w := range workloads {
			rec.Comparison[w] = map[string]*comparison{}
			p, c := rec.Sides["parent"].Workloads[w], rec.Sides["change"].Workloads[w]
			for _, m := range spec.EndToEnd {
				rec.Comparison[w][m.Name] = compare(m.Better, p, c, m.Name)
			}
		}
	}

	enc, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(path, append(enc, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", path)
}

// outputPath returns the file the record is written to. The dated default
// never replaces an existing file — a second record taken on one day would
// silently overwrite a committed one — so that record must be named by -out.
func outputPath(out string, now time.Time) (string, error) {
	if out != "" {
		return out, nil
	}
	path := "BENCH_" + now.Format("20060102") + ".json"
	if _, err := os.Stat(path); err == nil {
		return "", fmt.Errorf("%s exists: pass -out to name this record (or -out %s to replace that one)", path, path)
	}
	return path, nil
}

// runScalebench runs one workload in dir and decodes the detail line, the
// second to last line of standard output.
func runScalebench(command []string, dir, workload string) (*detail, error) {
	cmd := exec.Command(command[0], append(command[1:], "--workload", workload)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%w\n%s", err, stderr.Bytes())
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if len(lines) < 2 {
		return nil, fmt.Errorf("expected a detail line and a result line, got %d lines", len(lines))
	}
	var d detail
	if err := json.Unmarshal(lines[len(lines)-2], &d); err != nil {
		return nil, fmt.Errorf("detail line: %w", err)
	}
	if len(d.Workloads) != 1 || d.Workloads[0].Name != workload {
		return nil, fmt.Errorf("detail line does not describe %s alone", workload)
	}
	return &d, nil
}

// calibrate times a fixed integer loop, in milliseconds: the host's speed
// at the moment, which trend divides out.
func calibrate() float64 {
	start, x := time.Now(), uint64(1)
	for i := 0; i < 1<<26; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibrationSink = x
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

var calibrationSink uint64

// add folds one run of workload w into the side.
func (s *side) add(w string, d *detail) {
	r := s.Workloads[w]
	if r == nil {
		r = &workloadRecord{Metrics: map[string]*summary{}}
		s.Workloads[w] = r
	}
	run := d.Workloads[0]
	r.Attempted += run.Attempted
	r.Failed += run.Failed
	if !run.Correct {
		r.Incorrect++
	}
	if !slices.Contains(r.ResultDigests, run.Digest) {
		r.ResultDigests = append(r.ResultDigests, run.Digest)
	}
	if !slices.Contains(r.ScriptDigests, run.Script) {
		r.ScriptDigests = append(r.ScriptDigests, run.Script)
	}
	sameClasses := func(c map[string]map[string]int) bool { return reflect.DeepEqual(c, run.Classes) }
	if run.Classes != nil && !slices.ContainsFunc(r.Classes, sameClasses) {
		r.Classes = append(r.Classes, run.Classes)
	}
	for name, m := range run.Metrics {
		if r.Metrics[name] == nil {
			r.Metrics[name] = &summary{Unit: m.Unit}
		}
		r.Metrics[name].Runs = append(r.Metrics[name].Runs, m.Value)
	}
}

// quartiles returns the median and the first and third quartiles of xs by
// linear interpolation between order statistics.
func quartiles(xs []float64) (median, q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.5), at(0.25), at(0.75)
}

// compare pairs the i-th parent run with the i-th change run of one metric.
func compare(better string, p, c *workloadRecord, metric string) *comparison {
	pm, cm := p.Metrics[metric], c.Metrics[metric]
	out := &comparison{Better: better, Pairs: len(pm.Runs)}
	for i := range pm.Runs {
		d := cm.Runs[i] - pm.Runs[i]
		if better == "lower" {
			d = -d
		}
		switch {
		case d > 0:
			out.ChangeWins++
		case d < 0:
			out.ParentWins++
		}
	}
	if pm.Median != 0 {
		out.MedianChangePct = 100 * (cm.Median - pm.Median) / pm.Median
	}
	out.BeyondSpread = math.Abs(cm.Median-pm.Median) > pm.Q3-pm.Q1
	out.DigestsEqual = strings.Join(p.ResultDigests, ",") == strings.Join(c.ResultDigests, ",") &&
		strings.Join(p.ScriptDigests, ",") == strings.Join(c.ScriptDigests, ",")
	return out
}

// trend prints the trajectory of ops_per_s through the records in dir, in
// date then name order: one row per record and workload with the parent's
// median, the change's, and the pairs the change won. A record's parent is
// the previous record's change measured again, so the two medians should
// agree; where they differ by more than the later record's parent quartile
// spread the host drifted between the records, the row says so, and figures
// are comparable within a record but not across that boundary — unless the
// records carry calibrations: the last two columns are each side's median
// times its calibration median in seconds, operations per calibration loop.
func trend(w io.Writer, dir string) error {
	files, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return err
	}
	type named struct {
		file string
		*record
	}
	recs := make([]named, len(files))
	for i, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		recs[i] = named{filepath.Base(f), new(record)}
		if err := json.Unmarshal(raw, recs[i].record); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
	}
	slices.SortFunc(recs, func(a, b named) int { return strings.Compare(a.Date+a.file, b.Date+b.file) })

	opsPerS := func(s *side, workload string) *summary {
		if s == nil || s.Workloads[workload] == nil {
			return nil
		}
		return s.Workloads[workload].Metrics["ops_per_s"]
	}
	scaled := func(s *side, m *summary) string { // operations per calibration loop
		if s == nil || s.Calibration == nil || m == nil {
			return "-"
		}
		return fmt.Sprintf("%.4g", m.Median*s.Calibration.Median/1e3)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "record\tworkload\tparent\tchange\twins\tparent/host\tchange/host\t")
	last := map[string]float64{} // workload → the previous record's change median
	for _, r := range recs {
		change := r.Sides["change"]
		if change == nil {
			continue
		}
		names := make([]string, 0, len(change.Workloads))
		for name := range change.Workloads {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			c := opsPerS(change, name)
			if c == nil {
				continue
			}
			parent, wins, note := "-", "-", ""
			if pm := opsPerS(r.Sides["parent"], name); pm != nil {
				parent = fmt.Sprintf("%.4g", pm.Median)
				if cmp := r.Comparison[name]["ops_per_s"]; cmp != nil {
					wins = fmt.Sprintf("%d/%d", cmp.ChangeWins, cmp.Pairs)
				}
				if prev, ok := last[name]; ok && math.Abs(pm.Median-prev) > pm.Q3-pm.Q1 {
					note = fmt.Sprintf("host drift: the previous record's change read %.4g, parent spread %.2g", prev, pm.Q3-pm.Q1)
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%s\t%s\t%s\t%s\n", r.file, name, parent, c.Median, wins,
				scaled(r.Sides["parent"], opsPerS(r.Sides["parent"], name)), scaled(change, c), note)
			last[name] = c.Median
		}
	}
	return tw.Flush()
}

// commitOf names the commit checked out in dir, marked when the tree has
// uncommitted changes (the change under measurement usually does).
func commitOf(dir string) string {
	git := func(args ...string) string {
		cmd := exec.Command("git", args...)
		cmd.Dir = dir
		out, err := cmd.Output()
		if err != nil {
			return ""
		}
		return strings.TrimSpace(string(out))
	}
	commit := git("rev-parse", "HEAD")
	if commit == "" {
		return "unknown"
	}
	if git("status", "--porcelain", "--untracked-files=no") != "" {
		commit += "+uncommitted"
	}
	return commit
}
