package scalesim

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Verdict is one of the paper's conclusions judged on regenerated figures.
type Verdict struct {
	Claim  string // the paper's claim, at its ratio where it gives one
	Holds  bool
	Detail string // the row that breaks the claim, or what it reports unasserted
}

// Verdicts judges, in order, each claim of the verdict table whose figures are
// all in tables (a Figure's ID to its Table): the one statement of the paper's
// conclusions, whose per-seed counts TestFigureTablesGolden pins.
func Verdicts(tables map[string]*Table) []Verdict {
	var out []Verdict
	for _, p := range predicates {
		if !slices.ContainsFunc(p.figs, func(id string) bool { return tables[id] == nil }) {
			holds, detail := p.check(func(fig, label, column string) float64 { return tables[fig].Cell(label, column) })
			out = append(out, Verdict{p.claim, holds, detail})
		}
	}
	return out
}

// predicate is one row of the verdict table: the paper's claim, the figures
// (by ID) it reads and its check over their cells.
type predicate struct {
	claim string
	figs  []string
	check func(at cells) (bool, string)
}

// cells reads a figure's cell by row label and column name. A missing cell
// reads NaN, and every comparison here is written so that NaN breaks it.
type cells func(fig, label, column string) float64

// best returns the label among labels with the lowest mean error in fig.
func (at cells) best(fig string, labels ...string) string {
	return slices.MinFunc(labels, func(a, b string) int { return cmp.Compare(at(fig, a, "avg"), at(fig, b, "avg")) })
}

// below holds if, pair by pair, xs[i]'s mean error in figure xf is under k
// times ys[i]'s in yf (at most, if orEqual); else it names the first pair that
// breaks. A single y stands against every x.
func (at cells) below(xf string, xs []string, k float64, yf string, ys []string, orEqual bool) (bool, string) {
	for i, x := range xs {
		y := ys[min(i, len(ys)-1)]
		xv, yv := at(xf, x, "avg"), at(yf, y, "avg")
		if xv < k*yv || orEqual && xv <= k*yv {
			continue
		}
		if xf != yf {
			x, y = "Fig. "+xf+" "+x, "Fig. "+yf+" "+y
		}
		rel := map[bool]string{false: "≥", true: ">"}[orEqual]
		if k != 1 {
			y = fmt.Sprintf("%g × %s", k, y)
		}
		return false, fmt.Sprintf("%s %.1f%% %s %s %.1f%%", x, 100*xv, rel, y, 100*yv)
	}
	return true, ""
}

// belowClaim is the claim that at.below(xf, xs, k, yf, ys, orEqual) holds.
func belowClaim(claim, xf string, xs []string, k float64, yf string, ys []string, orEqual bool) predicate {
	return predicate{claim, []string{xf, yf}, func(at cells) (bool, string) { return at.below(xf, xs, k, yf, ys, orEqual) }}
}

var (
	predictors = []string{"DT", "RF", "SVM"}
	regressors = []string{"DT-log", "RF-log", "SVM-log"}
	mlMethods  = append(slices.Clone(predictors), regressors...)
	allMethods = append([]string{"No Extrapolation"}, mlMethods...)
)

// predicates is the verdict table.
var predicates = []predicate{
	{"Fig. 3: PRS is best and NRS is worst", []string{"3"}, func(at cells) (bool, string) {
		holds, detail := at.below("3", []string{"PRS", "PRS", "PRS-LLC", "PRS-DRAM"}, 1, "3", []string{"PRS-LLC", "PRS-DRAM", "NRS", "NRS"}, false)
		return holds, strings.TrimSpace(fmt.Sprintf("%s (partial PRS, not asserted: PRS-LLC %.1f%%, PRS-DRAM %.1f%%)", detail, 100*at("3", "PRS-LLC", "avg"), 100*at("3", "PRS-DRAM", "avg")))
	}},
	belowClaim("Fig. 4: every ML method beats No Extrapolation", "4", mlMethods, 1, "4", []string{"No Extrapolation"}, false),
	{"Fig. 4: the best method beats No Extrapolation by ≥ 2× (paper: 2.3×)", []string{"4"}, func(at cells) (bool, string) {
		return at.below("4", []string{at.best("4", mlMethods...)}, 0.5, "4", []string{"No Extrapolation"}, true)
	}},
	{"Fig. 4: the best regression method's error is ≤ 1.5× the best prediction method's (paper: 1.25×)", []string{"4"}, func(at cells) (bool, string) {
		return at.below("4", []string{at.best("4", regressors...)}, 1.5, "4", []string{at.best("4", predictors...)}, true)
	}},
	belowClaim("Fig. 5: every method's error is higher than on homogeneous mixes (Fig. 4)", "4", allMethods, 1, "5", allMethods, false),
	belowClaim("Fig. 5: SVM is best in each family", "5", []string{"SVM", "SVM", "SVM-log", "SVM-log"}, 1, "5", []string{"DT", "RF", "DT-log", "RF-log"}, false),
	belowClaim("Fig. 6: each method's STP error is below its per-application error (Fig. 5)", "6", regressors, 1, "5", regressors, false),
	{"Fig. 7: the 1-core model is ≥ 20× cheaper than the target (host-timed)", []string{"7"}, func(at cells) (bool, string) {
		speedup := at("7", "No Extrapolation 1-core", "speedup")
		return speedup >= 20, fmt.Sprintf("(speedup %.1f×)", speedup)
	}},
	belowClaim("Fig. 8: MC-first's DT-log and SVM-log errors are each ≤ MB-first's", "8", []string{"MC-first DT-log", "MC-first SVM-log"}, 1, "8", []string{"MB-first DT-log", "MB-first SVM-log"}, true),
	belowClaim("Fig. 9: linear is the worst form", "9", []string{"SVM-power", "SVM-log"}, 1, "9", []string{"SVM-linear"}, false),
	belowClaim("Fig. 10: adding bandwidth worsens no method",
		"10", []string{"DT (IPC+BW)", "RF (IPC+BW)", "SVM (IPC+BW)", "DT-log (IPC+BW)", "RF-log (IPC+BW)", "SVM-log (IPC+BW)"}, 1,
		"10", []string{"DT (IPC-only)", "RF (IPC-only)", "SVM (IPC-only)", "DT-log (IPC-only)", "RF-log (IPC-only)", "SVM-log (IPC-only)"}, true),
	belowClaim("Fig. 11: error does not increase as scale models are added", "11", []string{"3 scale models [2 4 8]", "4 scale models [2 4 8 16]"}, 1, "11", []string{"2 scale models [2 4]", "3 scale models [2 4 8]"}, true),
	{"Fig. 12: the best prediction method beats the best regression method", []string{"12"}, func(at cells) (bool, string) {
		return at.below("12", []string{at.best("12", predictors...)}, 1, "12", []string{at.best("12", regressors...)}, false)
	}},
	{"Ablations: without bandwidth feedback the NRS error is < 0.8× the full model's", []string{"ablations"}, func(at cells) (bool, string) {
		return at.column("NRS err").below("ablations", []string{"no bandwidth feedback"}, 0.8, "ablations", []string{"full model"}, false)
	}},
	{"Ablations: with a partitioned LLC the PRS error is < 0.8× the full model's", []string{"ablations"}, func(at cells) (bool, string) {
		return at.column("PRS err").below("ablations", []string{"partitioned LLC"}, 0.8, "ablations", []string{"full model"}, false)
	}},
}

// column reads column in place of the mean error (an ablation's per policy).
func (at cells) column(column string) cells {
	return func(fig, label, _ string) float64 { return at(fig, label, column) }
}
