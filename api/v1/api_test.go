package apiv1

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"scalesim"
)

// sampleRequest builds a two-job batch exercising every JobSpec field,
// custom profile included.
func sampleRequest() *JobRequest {
	opts := scalesim.FastOptions()
	opts.Seed = 42
	custom := scalesim.Profile{
		Name:          "mine",
		BaseCPI:       0.7,
		LoadsPerKI:    220,
		StoresPerKI:   90,
		BranchesPerKI: 110,
		MLP:           2.5,
		CodeBytes:     1 << 16,
		Regions: []scalesim.Region{
			{SizeBytes: 1 << 24, Frac: 1.0, Pattern: scalesim.PatternZipf, ZipfS: 0.9},
		},
	}
	return NewJobRequest("tenant-a", []scalesim.CampaignJob{
		{
			Machine:    scalesim.MachineSpec{Cores: 2, Policy: scalesim.PolicyPRS},
			Benchmarks: []string{"mcf", "lbm"},
			Options:    opts,
		},
		{
			Machine:    scalesim.MachineSpec{Cores: 1, LLCPerCoreKB: 512},
			Benchmarks: []string{"mine"},
			Options:    opts,
			Extra:      []scalesim.Profile{custom},
		},
	})
}

func TestJobRequestRoundTrip(t *testing.T) {
	req := sampleRequest()
	var buf bytes.Buffer
	if err := Encode(&buf, req); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJobRequest(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("round trip changed the request:\n got %+v\nwant %+v", got, req)
	}
	// A JobSpec is a CampaignJob; its tags keep the wire names, byte for
	// byte, that the separate wire struct it replaced encoded.
	const wire = `{"schema":"scalesim/api/v1","client":"tenant-a","jobs":[` +
		`{"machine":{"Cores":2,"Policy":"PRS","Bandwidth":"","LLCPerCoreKB":0,"DRAMPerCoreGBps":0,"NoCPerCoreGBps":0},"benchmarks":["mcf","lbm"],` +
		`"options":{"Instructions":200000,"Warmup":60000,"EpochCycles":10000,"CapacityScale":16,"Seed":42,"EnablePrefetch":false,"NoFeedback":false,"PartitionedLLC":false,"Trace":false,"TraceWarmup":false}},` +
		`{"machine":{"Cores":1,"Policy":"","Bandwidth":"","LLCPerCoreKB":512,"DRAMPerCoreGBps":0,"NoCPerCoreGBps":0},"benchmarks":["mine"],` +
		`"options":{"Instructions":200000,"Warmup":60000,"EpochCycles":10000,"CapacityScale":16,"Seed":42,"EnablePrefetch":false,"NoFeedback":false,"PartitionedLLC":false,"Trace":false,"TraceWarmup":false},` +
		`"profiles":[{"Name":"mine","BaseCPI":0.7,"LoadsPerKI":220,"StoresPerKI":90,"BranchesPerKI":110,"MLP":2.5,"StaticBranches":0,"HardBranchFrac":0,"CodeBytes":65536,` +
		`"Regions":[{"SizeBytes":16777216,"Frac":1,"Pattern":"zipf","ElemSize":0,"ZipfS":0.9}]}]}]}` + "\n"
	if buf.String() != wire {
		t.Fatalf("the request's wire bytes moved:\n got %s\nwant %s", buf.String(), wire)
	}
}

func TestJobResponseRoundTrip(t *testing.T) {
	resp := &JobResponse{
		Schema: Schema,
		Outcomes: []JobOutcome{
			{Job: 0, Source: "compute", Result: &scalesim.SimResult{Machine: "m", WallClockSec: 1.5}},
			{Job: 1, Source: "coalesced", CacheHit: true},
			{Job: 2, Error: "unknown benchmark \"nope\""},
		},
		Stats: scalesim.CampaignStats{Jobs: 3, UniqueRuns: 1, CoalescedHits: 1, Failures: 1},
	}
	var buf bytes.Buffer
	if err := Encode(&buf, resp); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJobResponse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, resp) {
		t.Fatalf("round trip changed the response:\n got %+v\nwant %+v", got, resp)
	}
}

// TestApproximateMarkerOnWire pins the surrogate tier's wire contract: a
// model-served outcome carries an explicit "approximate" marker, a
// ground-truth outcome omits the field entirely, and ModelHits is visible
// in the stats snapshot.
func TestApproximateMarkerOnWire(t *testing.T) {
	resp := &JobResponse{
		Schema: Schema,
		Outcomes: []JobOutcome{
			{Job: 0, Source: "model", CacheHit: true, Approximate: true, Result: &scalesim.SimResult{Machine: "m"}},
			{Job: 1, Source: "compute", Result: &scalesim.SimResult{Machine: "m"}},
		},
		Stats: scalesim.CampaignStats{Jobs: 2, UniqueRuns: 1, ModelHits: 1},
	}
	var buf bytes.Buffer
	if err := Encode(&buf, resp); err != nil {
		t.Fatal(err)
	}
	wire := buf.String()
	if !strings.Contains(wire, `"approximate":true`) {
		t.Fatalf("model outcome lacks the approximate marker: %s", wire)
	}
	if strings.Count(wire, `"approximate"`) != 1 {
		t.Fatalf("approximate must be omitted from exact outcomes: %s", wire)
	}
	if !strings.Contains(wire, `"ModelHits":1`) {
		t.Fatalf("ModelHits missing from the stats snapshot: %s", wire)
	}
	got, err := DecodeJobResponse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, resp) {
		t.Fatalf("round trip changed the response:\n got %+v\nwant %+v", got, resp)
	}
}

// TestTuningOnWire pins the tuning wire contract: SimOptions.Tuning rides
// as an optional "tuning" object, is omitted entirely when nil, and
// payloads from clients predating the field decode unchanged under the
// strict decoder.
func TestTuningOnWire(t *testing.T) {
	opts := scalesim.FastOptions()
	opts.Tuning = &scalesim.Tuning{CoreWorkers: 4, CampaignWorkers: 2}
	req := NewJobRequest("", []scalesim.CampaignJob{{
		Machine:    scalesim.MachineSpec{Cores: 2, Policy: scalesim.PolicyPRS},
		Benchmarks: []string{"mcf", "lbm"},
		Options:    opts,
	}})
	var buf bytes.Buffer
	if err := Encode(&buf, req); err != nil {
		t.Fatal(err)
	}
	wire := buf.String()
	if !strings.Contains(wire, `"tuning":{"core_workers":4,"campaign_workers":2}`) {
		t.Fatalf("tuning missing from the wire form: %s", wire)
	}
	got, err := DecodeJobRequest(strings.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("round trip changed the tuned request:\n got %+v\nwant %+v", got, req)
	}

	// Nil tuning never appears on the wire — old readers see old payloads.
	buf.Reset()
	if err := Encode(&buf, sampleRequest()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"tuning"`) {
		t.Fatalf("nil tuning must be omitted from the wire form: %s", buf.String())
	}

	// A payload written before the field existed decodes under the strict
	// decoder, with tuning staying nil (auto).
	old := `{"schema":"` + Schema + `","jobs":[{"machine":{"Cores":1,"Policy":"","Bandwidth":"","LLCPerCoreKB":0,"DRAMPerCoreGBps":0,"NoCPerCoreGBps":0},"benchmarks":["mcf"],"options":{"Seed":42}}]}`
	oldReq, err := DecodeJobRequest(strings.NewReader(old))
	if err != nil {
		t.Fatalf("pre-tuning payload must decode: %v", err)
	}
	if oldReq.Jobs[0].Options.Tuning != nil {
		t.Fatalf("pre-tuning payload decoded a tuning: %+v", oldReq.Jobs[0].Options.Tuning)
	}

	// A hand-written payload carrying the surviving knob still decodes; one
	// carrying the removed epoch_log_ops is now an unknown field.
	withTuning := func(tuning string) string {
		return strings.Replace(old, `"options":{"Seed":42}`, `"options":{"Seed":42,"tuning":`+tuning+`}`, 1)
	}
	kept, err := DecodeJobRequest(strings.NewReader(withTuning(`{"core_workers":2}`)))
	if err != nil {
		t.Fatalf("payload with tuning.core_workers must decode: %v", err)
	}
	if tun := kept.Jobs[0].Options.Tuning; tun == nil || tun.CoreWorkers != 2 {
		t.Fatalf("tuning.core_workers decoded as %+v", tun)
	}
	if _, err := DecodeJobRequest(strings.NewReader(withTuning(`{"epoch_log_ops":1024}`))); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("payload with the removed epoch_log_ops: err = %v, want ErrBadRequest", err)
	}
}

func TestStatsAndHealthRoundTrip(t *testing.T) {
	stats := &StatsResponse{
		Schema:        Schema,
		Stats:         scalesim.CampaignStats{Jobs: 9, UniqueRuns: 4, CoalescedHits: 3, DiskHits: 2},
		QueueDepth:    1,
		QueueCapacity: 64,
		Shed:          5,
		Clients:       2,
		Draining:      true,
	}
	var buf bytes.Buffer
	if err := Encode(&buf, stats); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeStatsResponse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, stats) {
		t.Fatalf("round trip changed the stats:\n got %+v\nwant %+v", got, stats)
	}

	buf.Reset()
	errResp := &ErrorResponse{Schema: Schema, Error: "queue full", RetryAfterSec: 2}
	if err := Encode(&buf, errResp); err != nil {
		t.Fatal(err)
	}
	gotErr, err := DecodeErrorResponse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotErr, errResp) {
		t.Fatalf("round trip changed the error response:\n got %+v\nwant %+v", gotErr, errResp)
	}
}

func TestDecodeRejectsUnknownSchema(t *testing.T) {
	body := `{"schema":"scalesim/api/v99","jobs":[{"machine":{"Cores":1,"Policy":"","Bandwidth":"","LLCPerCoreKB":0,"DRAMPerCoreGBps":0,"NoCPerCoreGBps":0},"benchmarks":["mcf"],"options":{}}]}`
	_, err := DecodeJobRequest(strings.NewReader(body))
	if !errors.Is(err, scalesim.ErrUnknownSchema) {
		t.Fatalf("unknown schema error = %v, want ErrUnknownSchema", err)
	}
	_, err = DecodeJobResponse(strings.NewReader(`{"schema":"scalesim/api/v99","outcomes":null,"stats":{}}`))
	if !errors.Is(err, scalesim.ErrUnknownSchema) {
		t.Fatalf("unknown response schema error = %v, want ErrUnknownSchema", err)
	}
}

func TestDecodeRejectsMissingSchemaAndEmptyBatch(t *testing.T) {
	_, err := DecodeJobRequest(strings.NewReader(`{"jobs":[]}`))
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("missing schema error = %v, want ErrBadRequest", err)
	}
	_, err = DecodeJobRequest(strings.NewReader(`{"schema":"` + Schema + `","jobs":[]}`))
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("empty batch error = %v, want ErrBadRequest", err)
	}
	_, err = DecodeJobRequest(strings.NewReader(`{"schema":"` + Schema + `","jobs":[{"machine":{"Cores":1},"options":{}}]}`))
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("benchmark-less job error = %v, want ErrBadRequest", err)
	}
}

func TestDecodeIsStrict(t *testing.T) {
	// A typo'd field must fail, not silently simulate the wrong point.
	body := `{"schema":"` + Schema + `","jobs":[{"machine":{"Cores":1},"benchmark":["mcf"],"options":{}}]}`
	if _, err := DecodeJobRequest(strings.NewReader(body)); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown field error = %v, want ErrBadRequest", err)
	}
	// Trailing data after the payload is malformed input.
	var buf bytes.Buffer
	if err := Encode(&buf, sampleRequest()); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(`{"second":"document"}`)
	if _, err := DecodeJobRequest(&buf); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("trailing data error = %v, want ErrBadRequest", err)
	}
}

// TestDecodeResponseWrapsReadError: a client can tell a failed body read,
// here a cancelled request, from a malformed body.
func TestDecodeResponseWrapsReadError(t *testing.T) {
	_, err := DecodeJobResponse(iotest.ErrReader(context.Canceled))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want one wrapping context.Canceled", err)
	}
}
