package apiv1

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"scalesim"
)

// TestEncodeMatchesReference holds the canonical encoder to
// json.NewEncoder(w).Encode (marshalReference), byte for byte, on the floats
// either side of the reference's 'e' thresholds and the shapes a response
// takes, and requires every value outside the subset to go to the
// reference, through Marshal, with the reference's bytes or error.
func TestEncodeMatchesReference(t *testing.T) {
	withFloat := func(f float64) *JobResponse {
		r := sampleResponse(1)
		r.Outcomes[0].Result.Cores[0].IPC = f
		r.Outcomes[0].Result.DRAMUtilization = -f
		return r
	}
	withOutcome := func(o JobOutcome) *JobResponse {
		r := sampleResponse(0)
		r.Outcomes = []JobOutcome{o}
		return r
	}
	withTrace := sampleResponse(1)
	withTrace.Outcomes[0].Result.Trace = []scalesim.EpochSnapshot{}
	emptyCores := sampleResponse(1)
	emptyCores.Outcomes[0].Result.Cores = []scalesim.CoreResult{}
	nilCores := sampleResponse(1)
	nilCores.Outcomes[0].Result.Cores = nil

	inSubset := map[string]*JobResponse{
		"zero outcomes":           sampleResponse(0),
		"empty outcomes":          {Schema: Schema, Outcomes: []JobOutcome{}},
		"one outcome":             sampleResponse(1),
		"eight outcomes":          sampleResponse(8),
		"error and no result":     withOutcome(JobOutcome{Job: 3, Error: "runner: job failed: simulation panicked: boom"}),
		"model approximate":       withOutcome(JobOutcome{Job: 1, Source: "model", CacheHit: true, Approximate: true, Result: &scalesim.SimResult{Machine: "m"}}),
		"zero outcome":            withOutcome(JobOutcome{}),
		"empty cores":             emptyCores,
		"nil cores":               nilCores,
		"zero value":              {},
		"float 1e-6":              withFloat(1e-6),
		"float below 1e-6":        withFloat(math.Nextafter(1e-6, 0)),
		"float 1e21":              withFloat(1e21),
		"float below 1e21":        withFloat(math.Nextafter(1e21, 0)),
		"float 1e-9":              withFloat(1e-9),
		"float 1e-10":             withFloat(1e-10),
		"float 1e100":             withFloat(1e100),
		"float -0":                withFloat(math.Copysign(0, -1)),
		"float 0":                 withFloat(0),
		"float smallest subnorm":  withFloat(math.SmallestNonzeroFloat64),
		"float largest subnormal": withFloat(math.Float64frombits(0x000fffffffffffff)),
		"float max":               withFloat(math.MaxFloat64),
		"float integral":          withFloat(123456789),
		"float third":             withFloat(1.0 / 3),
	}
	for name, r := range inSubset {
		want, err := marshalReference(r)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		got, ok := encodeCanonical(r)
		if !ok {
			t.Errorf("%s: canonical encoder declined a response in the subset", name)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: canonical bytes differ from the reference:\n got %s\nwant %s", name, got, want)
		}
	}

	outside := map[string]*JobResponse{
		"trace":             withTrace,
		"quote":             withOutcome(JobOutcome{Error: `bad "spec"`}),
		"backslash":         withOutcome(JobOutcome{Error: `C:\store`}),
		"html":              withOutcome(JobOutcome{Error: "a < b && c > d"}),
		"control":           withOutcome(JobOutcome{Error: "line\nbreak"}),
		"delete":            withOutcome(JobOutcome{Error: "\x7f"}),
		"non-ascii":         withOutcome(JobOutcome{Source: "mémoire"}),
		"invalid utf-8":     withOutcome(JobOutcome{Source: "\xff"}),
		"schema escape":     {Schema: "scalesim/api/v1\t"},
		"machine escape":    withOutcome(JobOutcome{Result: &scalesim.SimResult{Machine: "<m>"}}),
		"benchmark escape":  withOutcome(JobOutcome{Result: &scalesim.SimResult{Cores: []scalesim.CoreResult{{Benchmark: "a&b"}}}}),
		"NaN":               withFloat(math.NaN()),
		"+Inf":              withFloat(math.Inf(1)),
		"-Inf in a core":    withOutcome(JobOutcome{Result: &scalesim.SimResult{Cores: []scalesim.CoreResult{{LLCMPKI: math.Inf(-1)}}}}),
		"NaN simulated sec": withOutcome(JobOutcome{Result: &scalesim.SimResult{SimulatedSec: math.NaN()}}),
	}
	for name, r := range outside {
		if b, ok := encodeCanonical(r); ok {
			t.Errorf("%s: canonical encoder accepted a response outside the subset:\n%s", name, b)
		}
		want, wantErr := marshalReference(r)
		got, err := Marshal(r)
		if (err != nil) != (wantErr != nil) || (err == nil && !bytes.Equal(got, want)) {
			t.Errorf("%s: Marshal = %q, %v; want the reference's %q, %v", name, got, err, want, wantErr)
		}
	}
}

// FuzzEncodeJobResponse holds the canonical encoder to the reference on
// every response a document decodes to: Marshal writes encoding/json's
// bytes, and whatever the canonical encoder accepts it writes the same way.
// It starts from FuzzDecodeJobResponse's corpus and its own (testdata/fuzz):
// floats at the reference's 'e' thresholds, subnormals and -0, and strings
// the reference escapes.
func FuzzEncodeJobResponse(f *testing.F) {
	addCorpus(f, "FuzzDecodeJobResponse")
	f.Fuzz(func(t *testing.T, doc []byte) {
		var r JobResponse
		if err := json.Unmarshal(doc, &r); err != nil {
			return
		}
		want, err := marshalReference(&r)
		if err != nil {
			t.Fatalf("a decoded response does not encode: %v", err)
		}
		if got, ok := encodeCanonical(&r); ok && !bytes.Equal(got, want) {
			t.Fatalf("canonical bytes differ from the reference:\n got %s\nwant %s", got, want)
		}
		if got, err := Marshal(&r); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Marshal = %s, %v; want the reference's\n%s", got, err, want)
		}
	})
}
