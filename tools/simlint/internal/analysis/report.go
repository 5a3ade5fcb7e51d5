package analysis

import (
	"encoding/json"
	"os"
	"sort"
)

// ReportSchema versions the machine-readable lint report.
const ReportSchema = "scalesim/simlint-report/v1"

// ReportFinding is one diagnostic in the JSON report.
type ReportFinding struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
}

// Report is the machine-readable result of a lint run, written by
// `make lint` as simlint-report.json and uploaded by CI.
type Report struct {
	Schema string   `json:"schema"`
	Module string   `json:"module"`
	Rules  []string `json:"rules"`
	// Findings are the unsuppressed diagnostics — the set that fails the run.
	Findings []ReportFinding `json:"findings"`
}

// WriteReport writes the JSON report of a lint run: indented,
// newline-terminated, rules sorted.
func WriteReport(path, module string, ruleNames []string, findings []Finding) error {
	rules := append([]string(nil), ruleNames...)
	sort.Strings(rules)
	r := Report{Schema: ReportSchema, Module: module, Rules: rules, Findings: []ReportFinding{}}
	for _, f := range findings {
		r.Findings = append(r.Findings, ReportFinding{File: f.Pos.Filename, Line: f.Pos.Line, Rule: f.Rule, Msg: f.Msg})
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
