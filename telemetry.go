// Public observability surface: trace types, JSONL (de)serialisation, and
// the per-component trace summary printed by `scalesim stats`.
//
// A trace is the sequence of per-epoch snapshots a simulation records when
// SimOptions.Trace is set (see DESIGN.md, "Observability"). The snapshot
// types are aliases of the simulator's own — the trace a SimResult carries
// is exactly what the epoch loop observed, with no translation layer.
package scalesim

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"scalesim/internal/sim"
)

// EpochSnapshot is one epoch's observability record; CoreEpoch is one core's
// activity within it. Both serialise to stable JSON (see DESIGN.md for the
// schema).
type (
	EpochSnapshot = sim.EpochSnapshot
	CoreEpoch     = sim.CoreEpoch
)

// Phase labels for EpochSnapshot.Phase.
const (
	PhaseWarmup  = sim.PhaseWarmup
	PhaseMeasure = sim.PhaseMeasure
)

// TraceSchema is the version tag heading JSONL traces written by
// WriteTraceJSONL. ReadTraceJSONL skips a matching header and rejects a
// missing or unknown one (ErrUnknownSchema).
const TraceSchema = "scalesim/trace/v1"

// WriteTraceJSONL writes the trace to w as JSON Lines: a schema header
// record, then one snapshot per line. The output is deterministic: the same
// trace always yields the same bytes.
func WriteTraceJSONL(w io.Writer, trace []EpochSnapshot) error {
	if _, err := io.WriteString(w, `{"schema":"`+TraceSchema+"\"}\n"); err != nil {
		return fmt.Errorf("scalesim: writing trace header: %w", err)
	}
	enc := json.NewEncoder(w)
	for i := range trace {
		if err := enc.Encode(&trace[i]); err != nil {
			return fmt.Errorf("scalesim: writing trace epoch %d: %w", i, err)
		}
	}
	return nil
}

// ReadTraceJSONL reads a JSON Lines trace written by WriteTraceJSONL back
// into snapshots. The leading schema record is verified and skipped; a
// first record without the TraceSchema tag — no header, or one this build
// does not recognise — is rejected with an error wrapping ErrUnknownSchema.
func ReadTraceJSONL(r io.Reader) ([]EpochSnapshot, error) {
	dec := json.NewDecoder(r)
	var hdr struct {
		Schema string `json:"schema"`
	}
	if err := dec.Decode(&hdr); err == io.EOF {
		return nil, nil
	} else if err != nil {
		return nil, fmt.Errorf("scalesim: reading trace header: %w", err)
	}
	if hdr.Schema != TraceSchema {
		return nil, fmt.Errorf("scalesim: trace header: %w %q (this build reads %s)",
			ErrUnknownSchema, hdr.Schema, TraceSchema)
	}
	var trace []EpochSnapshot
	for {
		var s EpochSnapshot
		if err := dec.Decode(&s); err == io.EOF {
			return trace, nil
		} else if err != nil {
			return trace, fmt.Errorf("scalesim: reading trace epoch %d: %w", len(trace), err)
		}
		trace = append(trace, s)
	}
}

// SummarizeTrace condenses a trace's measured epochs into the table `scalesim
// stats` prints, its ID the machine's name. Warmup epochs (present when
// SimOptions.TraceWarmup was set) are counted but not aggregated. Row
// "epochs" has the "measured" and "warmup" counts and the measured "cycles".
// A row per core, labelled "<core> <benchmark>" (e.g. "0 mcf"), has "ipc"
// (total instructions over total cycles); the CPI-stack shares "base",
// "branch", "memory" and "frontend", each component's fraction of the core's
// cycles (summed over epochs, not an epoch mean of ratios; they sum to 1 when
// the core retired instructions); the hit rates "l1d hit", "l2 hit" and "llc
// hit", instruction-weighted means of the recorded per-epoch rates; and "dram
// bytes". Rows "noc" and "dram" are epoch means of the shared state:
// "utilization" and "queue delay" (cycles), and DRAM's "row efficiency" and
// "bytes/cycle".
func SummarizeTrace(trace []EpochSnapshot) *Table {
	type coreAcc struct {
		benchmark string
		instr     uint64
		cycles    float64
		cpi       [4]float64 // base, branch, memory, frontend cycles
		hit       [3]float64 // L1D, L2, LLC rate × instructions
		dramBytes float64
	}
	var (
		machine          string
		measured, warmup int
		cycles           float64
		shared           [6]float64 // NoC utilization and delay; DRAM utilization, delay, row efficiency, bytes/cycle
		acc              []coreAcc
	)
	for _, e := range trace {
		if e.Phase == PhaseWarmup {
			warmup++
			continue
		}
		if machine == "" {
			machine = e.Config
		}
		measured++
		cycles += e.EpochCycles
		for i, v := range [...]float64{e.NoCUtilization, e.NoCQueueDelay, e.DRAMUtilization, e.DRAMQueueDelay, e.DRAMRowEfficiency, e.DRAMBytesPerCycle} {
			shared[i] += v
		}
		for _, c := range e.Cores {
			for len(acc) <= c.Core {
				acc = append(acc, coreAcc{})
			}
			a := &acc[c.Core]
			a.benchmark = c.Benchmark
			a.instr += c.Instructions
			a.cycles += c.Cycles
			// CoreEpoch records per-instruction CPI components and per-access
			// hit rates; weighting each by the epoch's instructions scales
			// the CPI back to cycles, and stands in for the level's accesses
			// (proportional to instructions for a fixed profile).
			ki := float64(c.Instructions)
			for i, v := range [...]float64{c.BaseCPI, c.BranchCPI, c.MemoryCPI, c.FrontendCPI} {
				a.cpi[i] += float64(v * ki)
			}
			for i, v := range [...]float64{c.L1DHitRate, c.L2HitRate, c.LLCHitRate} {
				a.hit[i] += float64(v * ki)
			}
			a.dramBytes += c.DRAMBytes
		}
	}
	div := func(num, den float64) Cell {
		if den == 0 {
			return 0
		}
		return Cell(num / den)
	}
	n := float64(max(measured, 1))
	dram := Block{LabelFormat: "  %s:", Columns: []Column{
		{Name: "utilization", Unit: "%", Format: " %.1f%% utilized"},
		{Name: "queue delay", Unit: "cycles", Format: ", %.2f cycles mean queue delay"},
		{Name: "row efficiency", Unit: "%", Format: ", %.0f%% row efficiency"},
		{Name: "bytes/cycle", Unit: "bytes/cycle", Format: ", %.3f bytes/cycle"},
	}}
	noc := Block{LabelFormat: dram.LabelFormat, Columns: dram.Columns[:2:2]}
	noc.Rows = []Row{{Label: "noc", Values: []Cell{Cell(shared[0] / n), Cell(shared[1] / n)}}}
	dram.Rows = []Row{{Label: "dram", Values: []Cell{Cell(shared[2] / n), Cell(shared[3] / n), Cell(shared[4] / n), Cell(shared[5] / n)}}}
	cores := Block{Label: "core", LabelFormat: "  %-16s", Columns: slices.Concat(
		[]Column{{Name: "ipc", Unit: "IPC", Format: " %6.3f"}},
		columns("%", " %7.0f%%", "base", "branch", "memory", "frontend"),
		columns("%", " %7.0f%%", "l1d hit", "l2 hit", "llc hit"),
		[]Column{{Name: "dram bytes", Unit: "bytes", Format: " %11.3g"}},
	)}
	for core, a := range acc {
		total := a.cpi[0] + a.cpi[1] + a.cpi[2] + a.cpi[3]
		row := Row{Label: fmt.Sprintf("%d %s", core, a.benchmark), Values: []Cell{div(float64(a.instr), a.cycles)}}
		for _, c := range a.cpi {
			row.Values = append(row.Values, div(c, total))
		}
		for _, h := range a.hit {
			row.Values = append(row.Values, div(h, float64(a.instr)))
		}
		row.Values = append(row.Values, Cell(a.dramBytes))
		cores.Rows = append(cores.Rows, row)
	}
	epochs := Block{LabelFormat: "  %s:", Columns: []Column{
		{Name: "measured", Unit: "epochs", Format: " %.0f measured"},
		{Name: "warmup", Unit: "epochs", Format: ", %.0f warmup skipped"},
		{Name: "cycles", Unit: "cycles", Format: " (%.0f measured cycles)"},
	}, Rows: []Row{{Label: "epochs", Values: []Cell{Cell(measured), Cell(warmup), Cell(cycles)}}}}
	return &Table{ID: machine, Title: "trace summary", Blocks: []Block{epochs, cores, noc, dram}}
}
