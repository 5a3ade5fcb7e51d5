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
	"strings"

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

// TraceCoreSummary aggregates one core's measured epochs of a trace.
type TraceCoreSummary struct {
	Core      int
	Benchmark string

	Instructions uint64
	Cycles       float64
	IPC          float64 // total instructions / total cycles

	// CPI stack shares: each component's fraction of the core's total
	// cycles (they sum to 1 when the core retired instructions).
	BaseShare     float64
	BranchShare   float64
	MemoryShare   float64
	FrontendShare float64

	// Access-weighted cache hit rates across the summarised epochs.
	L1DHitRate float64
	L2HitRate  float64
	LLCHitRate float64

	DRAMBytes float64
}

// TraceSummary condenses a trace into per-component aggregates — the
// program-level view `scalesim stats` prints. Only measured epochs
// contribute; warmup epochs (present when SimOptions.TraceWarmup was set)
// are counted but not aggregated.
type TraceSummary struct {
	Config       string
	Epochs       int // measured epochs summarised
	WarmupEpochs int // warmup epochs skipped
	Cycles       float64

	Cores []TraceCoreSummary

	// Epoch-mean shared-resource state.
	NoCUtilization    float64
	NoCQueueDelay     float64
	DRAMUtilization   float64
	DRAMQueueDelay    float64
	DRAMRowEfficiency float64
	DRAMBytesPerCycle float64
}

// SummarizeTrace aggregates a trace's measured epochs. Per-core CPI-stack
// shares weight each epoch by its cycle deltas (not an epoch mean of
// ratios), hit rates weight by accesses via the recorded per-epoch rates and
// instruction counts, and shared-resource figures are epoch means.
func SummarizeTrace(trace []EpochSnapshot) TraceSummary {
	var s TraceSummary
	type coreAcc struct {
		instr                          uint64
		cycles                         float64
		base, branch, memory, frontend float64
		l1dHit, l2Hit, llcHit, hitN    float64
		dramBytes                      float64
		benchmark                      string
	}
	var acc []coreAcc
	for _, e := range trace {
		if e.Phase == PhaseWarmup {
			s.WarmupEpochs++
			continue
		}
		if s.Config == "" {
			s.Config = e.Config
		}
		s.Epochs++
		s.Cycles += e.EpochCycles
		s.NoCUtilization += e.NoCUtilization
		s.NoCQueueDelay += e.NoCQueueDelay
		s.DRAMUtilization += e.DRAMUtilization
		s.DRAMQueueDelay += e.DRAMQueueDelay
		s.DRAMRowEfficiency += e.DRAMRowEfficiency
		s.DRAMBytesPerCycle += e.DRAMBytesPerCycle
		for _, c := range e.Cores {
			for len(acc) <= c.Core {
				acc = append(acc, coreAcc{})
			}
			a := &acc[c.Core]
			a.benchmark = c.Benchmark
			a.instr += c.Instructions
			a.cycles += c.Cycles
			// CoreEpoch records per-instruction CPI components; scale back
			// to cycles so epochs weight by their actual activity.
			ki := float64(c.Instructions)
			a.base += float64(c.BaseCPI * ki)
			a.branch += float64(c.BranchCPI * ki)
			a.memory += float64(c.MemoryCPI * ki)
			a.frontend += float64(c.FrontendCPI * ki)
			// Hit rates weight by the level's traffic proxy: instructions
			// for L1D (the recorded rate is per-access, access counts are
			// proportional to instructions for a fixed profile), and the
			// same instruction weight for L2/LLC.
			a.l1dHit += float64(c.L1DHitRate * ki)
			a.l2Hit += float64(c.L2HitRate * ki)
			a.llcHit += float64(c.LLCHitRate * ki)
			a.hitN += ki
			a.dramBytes += c.DRAMBytes
		}
	}
	if s.Epochs > 0 {
		n := float64(s.Epochs)
		s.NoCUtilization /= n
		s.NoCQueueDelay /= n
		s.DRAMUtilization /= n
		s.DRAMQueueDelay /= n
		s.DRAMRowEfficiency /= n
		s.DRAMBytesPerCycle /= n
	}
	div := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	for core, a := range acc {
		cs := TraceCoreSummary{
			Core:         core,
			Benchmark:    a.benchmark,
			Instructions: a.instr,
			Cycles:       a.cycles,
			IPC:          div(float64(a.instr), a.cycles),
			DRAMBytes:    a.dramBytes,
		}
		total := a.base + a.branch + a.memory + a.frontend
		cs.BaseShare = div(a.base, total)
		cs.BranchShare = div(a.branch, total)
		cs.MemoryShare = div(a.memory, total)
		cs.FrontendShare = div(a.frontend, total)
		cs.L1DHitRate = div(a.l1dHit, a.hitN)
		cs.L2HitRate = div(a.l2Hit, a.hitN)
		cs.LLCHitRate = div(a.llcHit, a.hitN)
		s.Cores = append(s.Cores, cs)
	}
	return s
}

// String renders the summary as a per-component table in the spirit of the
// paper's Table I: one row per core with its CPI stack and hit rates,
// followed by the shared NoC and DRAM lines.
func (s TraceSummary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d measured epochs (%.0f cycles)", s.Config, s.Epochs, s.Cycles)
	if s.WarmupEpochs > 0 {
		fmt.Fprintf(&b, ", %d warmup epochs skipped", s.WarmupEpochs)
	}
	b.WriteString("\n")
	b.WriteString("  core benchmark          ipc   | cpi stack: base  branch  memory  front | hit: l1d    l2   llc |  dram bytes\n")
	for _, c := range s.Cores {
		fmt.Fprintf(&b, "  %4d %-16s %6.3f |           %4.0f%%   %4.0f%%   %4.0f%%   %4.0f%% |    %4.0f%% %4.0f%% %4.0f%% | %11.3g\n",
			c.Core, c.Benchmark, c.IPC,
			100*c.BaseShare, 100*c.BranchShare, 100*c.MemoryShare, 100*c.FrontendShare,
			100*c.L1DHitRate, 100*c.L2HitRate, 100*c.LLCHitRate,
			c.DRAMBytes)
	}
	fmt.Fprintf(&b, "  noc:  %.1f%% utilized, %.2f cycles mean queue delay\n",
		100*s.NoCUtilization, s.NoCQueueDelay)
	fmt.Fprintf(&b, "  dram: %.1f%% utilized, %.2f cycles mean queue delay, %.0f%% row efficiency, %.3f bytes/cycle",
		100*s.DRAMUtilization, s.DRAMQueueDelay, 100*s.DRAMRowEfficiency, s.DRAMBytesPerCycle)
	return b.String()
}
