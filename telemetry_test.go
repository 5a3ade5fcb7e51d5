package scalesim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func tracedRun(t *testing.T, warmup bool) *SimResult {
	t.Helper()
	opts := tinyOptions()
	opts.Trace = true
	opts.TraceWarmup = warmup
	res, err := Simulate(MachineSpec{Cores: 2}, []string{"mcf", "gcc"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("Trace: true produced an empty trace")
	}
	return res
}

func TestSimulateTrace(t *testing.T) {
	res := tracedRun(t, false)
	for i, e := range res.Trace {
		if e.Phase != PhaseMeasure {
			t.Fatalf("epoch %d: phase %q without TraceWarmup", i, e.Phase)
		}
		if len(e.Cores) != 2 {
			t.Fatalf("epoch %d: %d core records", i, len(e.Cores))
		}
	}
	if b := res.Trace[0].Cores[1].Benchmark; b != "gcc" {
		t.Fatalf("core 1 benchmark %q, want gcc", b)
	}
	// Untraced runs carry no trace.
	plain, err := Simulate(MachineSpec{Cores: 2}, []string{"mcf", "gcc"}, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Fatal("untraced run has a trace")
	}
}

func TestTraceJSONLRoundTrip(t *testing.T) {
	res := tracedRun(t, true)
	var buf bytes.Buffer
	if err := WriteTraceJSONL(&buf, res.Trace); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTraceJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Trace, back) {
		t.Fatalf("round trip lost data: %d epochs in, %d out", len(res.Trace), len(back))
	}
	// Serialisation is deterministic: two writes of the same trace are
	// byte-identical.
	var a, b bytes.Buffer
	if err := WriteTraceJSONL(&a, res.Trace); err != nil {
		t.Fatal(err)
	}
	if err := WriteTraceJSONL(&b, res.Trace); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("serialisation not deterministic")
	}
	if _, err := ReadTraceJSONL(strings.NewReader("{not json")); err == nil {
		t.Fatal("malformed trace accepted")
	}
}

func TestTraceSchemaHeader(t *testing.T) {
	res := tracedRun(t, false)
	var buf bytes.Buffer
	if err := WriteTraceJSONL(&buf, res.Trace); err != nil {
		t.Fatal(err)
	}
	first, _, ok := strings.Cut(buf.String(), "\n")
	if !ok || first != `{"schema":"`+TraceSchema+`"}` {
		t.Fatalf("first trace line = %q, want schema header for %s", first, TraceSchema)
	}

	// A headerless file is rejected, never silently parsed as snapshots:
	// nothing writes one any more.
	_, body, _ := strings.Cut(buf.String(), "\n")
	if v0, err := ReadTraceJSONL(strings.NewReader(body)); !errors.Is(err, ErrUnknownSchema) || len(v0) != 0 {
		t.Fatalf("headerless trace = (%d epochs, %v), want none and an error wrapping ErrUnknownSchema", len(v0), err)
	}

	// An unknown schema tag fails loudly instead of misreading.
	future := `{"schema":"scalesim/trace/v99"}` + "\n" + body
	if _, err := ReadTraceJSONL(strings.NewReader(future)); !errors.Is(err, ErrUnknownSchema) {
		t.Fatalf("future trace schema: err = %v, want wrapping ErrUnknownSchema", err)
	}

	// A header-only trace is empty, not an error.
	empty, err := ReadTraceJSONL(strings.NewReader(`{"schema":"` + TraceSchema + `"}` + "\n"))
	if err != nil || len(empty) != 0 {
		t.Fatalf("header-only trace = (%d epochs, %v)", len(empty), err)
	}
}

// FuzzReadTraceJSONL holds the trace reader to three properties on arbitrary
// bytes: it never panics; it returns no snapshot for a document whose first
// record is not the TraceSchema header; and what it reads without error, once
// written back by WriteTraceJSONL, reads back equal and writes the same bytes
// again. The seeds — a two-epoch trace, the same body headerless, under a
// foreign tag and truncated, a header alone — are committed under
// testdata/fuzz.
func FuzzReadTraceJSONL(f *testing.F) {
	var sample bytes.Buffer
	if err := WriteTraceJSONL(&sample, []EpochSnapshot{{
		Epoch: 0, Phase: PhaseMeasure, Config: "m", EndCycle: 1e4, EpochCycles: 1e4, NoCUtilization: 0.25,
		Cores: []CoreEpoch{{Core: 0, Benchmark: "mcf", Instructions: 5000, Cycles: 1e4, IPC: 0.5, LLCMisses: 7, DRAMBytes: 448}},
	}}); err != nil {
		f.Fatal(err)
	}
	f.Add(sample.Bytes())
	f.Fuzz(func(t *testing.T, doc []byte) {
		trace, err := ReadTraceJSONL(bytes.NewReader(doc))
		if len(trace) > 0 && !startsWithTraceHeader(doc) {
			t.Fatalf("%d snapshots read from a document without the %s header (err %v)", len(trace), TraceSchema, err)
		}
		if err != nil {
			return
		}
		var wire bytes.Buffer
		if err := WriteTraceJSONL(&wire, trace); err != nil {
			t.Fatalf("a trace read back does not write: %v", err)
		}
		again, err := ReadTraceJSONL(bytes.NewReader(wire.Bytes()))
		if err != nil || !reflect.DeepEqual(again, trace) {
			t.Fatalf("written trace reads back as (%d snapshots, %v), want the %d written:\n%s", len(again), err, len(trace), wire.Bytes())
		}
		var rewire bytes.Buffer
		if err := WriteTraceJSONL(&rewire, again); err != nil || !bytes.Equal(rewire.Bytes(), wire.Bytes()) {
			t.Fatalf("trace changed over a second trip (%v):\n first %s\nsecond %s", err, wire.Bytes(), rewire.Bytes())
		}
	})
}

// startsWithTraceHeader reports whether doc's first JSON value is an object
// with a "schema" member, its name matched as encoding/json matches a field
// name, holding TraceSchema — read independently of ReadTraceJSONL.
func startsWithTraceHeader(doc []byte) bool {
	var first map[string]any
	if json.NewDecoder(bytes.NewReader(doc)).Decode(&first) != nil {
		return false
	}
	for name, v := range first {
		if strings.EqualFold(name, "schema") && v == TraceSchema {
			return true
		}
	}
	return false
}

func TestSummarizeTrace(t *testing.T) {
	res := tracedRun(t, true)
	s := SummarizeTrace(res.Trace)
	measured, warmup := s.Cell("epochs", "measured"), s.Cell("epochs", "warmup")
	if measured == 0 || warmup == 0 {
		t.Fatalf("summary epochs %v/%v, want both measured and warmup", measured, warmup)
	}
	if int(measured+warmup) != len(res.Trace) {
		t.Fatalf("summary covers %v epochs, trace has %d", measured+warmup, len(res.Trace))
	}
	if rows := len(s.Blocks[1].Rows); rows != 2 {
		t.Fatalf("%d core rows", rows)
	}
	for i, c := range res.Cores {
		core := fmt.Sprintf("%d %s", i, c.Benchmark)
		ipc := s.Cell(core, "ipc")
		if ipc <= 0 || ipc > 4 {
			t.Fatalf("core %s IPC %v out of range", core, ipc)
		}
		shares := s.Cell(core, "base") + s.Cell(core, "branch") + s.Cell(core, "memory") + s.Cell(core, "frontend")
		if shares < 0.999 || shares > 1.001 {
			t.Fatalf("core %s CPI-stack shares sum to %v", core, shares)
		}
		// Summary IPC must agree with the simulator's own result (the trace
		// accounts for every measured instruction and cycle).
		if rel := (ipc - c.IPC) / c.IPC; rel > 0.01 || rel < -0.01 {
			t.Fatalf("core %s summary IPC %v, simulator reports %v", core, ipc, c.IPC)
		}
	}
	checkJSONRoundTrip(t, s)
	out := s.String()
	for _, want := range []string{"mcf", "gcc", "noc:", "dram:", "warmup skipped"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary rendering lacks %q:\n%s", want, out)
		}
	}
}
