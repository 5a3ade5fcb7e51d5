// Package apiv1 is the versioned external wire schema of the scalesim
// campaign service: the request/response types exchanged between
// `scalesim serve` and its clients (including the `scalesim request`
// subcommand), as JSON.
//
// There is exactly one external schema. The HTTP server and the CLI both
// speak these types — a tool that can read a JobResponse can read every
// response the service will ever send under this version.
//
// # Versioning
//
// Every payload carries an explicit "schema" field tagged
// "scalesim/api/v1" (the same pattern as scalesim/store/v1 artifacts and
// scalesim/trace/v1 traces). Decoders reject a payload whose tag they do
// not understand — wrapping scalesim.ErrUnknownSchema — rather than
// silently misreading it, and decode strictly (unknown fields are errors),
// so client/server drift fails loudly at the boundary instead of
// corrupting a campaign.
//
// # Shape
//
// A JobRequest is a campaign batch: one or more JobSpecs (machine spec,
// benchmark mix, simulation options, optional custom profiles — a JobSpec is
// the public scalesim.CampaignJob). A JobResponse returns one
// JobOutcome per job in submission order, each reporting where its result
// came from ("compute", "memory", "coalesced", "disk", "model") plus the
// serving engine's CampaignStats snapshot. Results served by the surrogate
// model carry an explicit "approximate" marker. A job the simulator cannot
// run is refused, unkeyed, in its own outcome's "error", which wraps
// scalesim.ErrBadSpec; the batch's other jobs are served.
//
// # Fields that left
//
// A job runs once, so three response fields no longer exist: an outcome's
// "retries", and the stats object's "Retries" and "PanicRetries". Request
// documents and response bytes are otherwise unchanged. Responses are
// decoded strictly too: `scalesim request` must be the build of the daemon
// it talks to.
package apiv1

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"scalesim"
)

// Schema is the version tag every apiv1 payload carries. Decoders reject
// payloads tagged with a schema they do not understand (ErrUnknownSchema)
// rather than silently misreading them.
const Schema = "scalesim/api/v1"

// ErrBadRequest marks a request that failed validation (missing schema,
// empty batch, unknown fields). Test with errors.Is; the detail is in the
// wrapping message.
var ErrBadRequest = errors.New("invalid api request")

// JobSpec is one design point of a request batch: the public campaign job,
// whose JSON tags are the wire names.
type JobSpec = scalesim.CampaignJob

// JobRequest is a campaign batch submitted to the service.
type JobRequest struct {
	// Schema must be the package Schema constant.
	Schema string `json:"schema"`
	// Client identifies the submitter for fair admission: the serving
	// queue round-robins across client identities, so one chatty client
	// cannot starve the others. Empty selects the anonymous bucket.
	Client string `json:"client,omitempty"`
	// Jobs are the design points, in the order outcomes are returned.
	Jobs []JobSpec `json:"jobs"`
}

// JobOutcome is one job's result on the wire: either a simulation result
// or an error string, plus where the result came from.
type JobOutcome struct {
	// Job is the submission-order index into JobRequest.Jobs.
	Job int `json:"job"`
	// Source is the ResultSource vocabulary: "compute", "memory",
	// "coalesced" (deduplicated against an identical in-flight request),
	// "disk", or "model" (predicted by the surrogate tier). Empty for jobs
	// that never ran.
	Source string `json:"source,omitempty"`
	// CacheHit reports whether the job was served without simulating.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Approximate marks a result predicted by the surrogate model rather
	// than simulated (source "model", or "coalesced" onto a model-served
	// flight). Clients needing ground truth must treat such results as
	// estimates; resubmitting against a service without the surrogate tier
	// (or after the gate tightens) yields the exact result.
	Approximate bool `json:"approximate,omitempty"`
	// Error is the job's failure, if any (empty on success).
	Error string `json:"error,omitempty"`
	// Result is the simulation outcome (nil when Error is set).
	Result *scalesim.SimResult `json:"result,omitempty"`
}

// JobResponse is a completed batch: outcomes in submission order plus a
// snapshot of the serving engine's counters.
type JobResponse struct {
	Schema   string                 `json:"schema"`
	Outcomes []JobOutcome           `json:"outcomes"`
	Stats    scalesim.CampaignStats `json:"stats"`
}

// ErrorResponse is the body of every non-200 service answer.
type ErrorResponse struct {
	Schema string `json:"schema"`
	Error  string `json:"error"`
	// RetryAfterSec accompanies backpressure rejections (HTTP 429): the
	// client should wait this many seconds before retrying. Zero on
	// non-retryable errors.
	RetryAfterSec int `json:"retry_after_sec,omitempty"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Schema string `json:"schema"`
	// Status is "ok" while serving and "draining" once shutdown began.
	Status string `json:"status"`
}

// StatsResponse is the body of GET /statsz: the engine's campaign counters
// plus the admission queue's state.
type StatsResponse struct {
	Schema string `json:"schema"`
	// Stats aggregates every job the service has seen, requests coalesced
	// at admission included (CoalescedHits).
	Stats scalesim.CampaignStats `json:"stats"`
	// QueueDepth and QueueCapacity describe the admission queue; Shed
	// counts requests rejected with 429 because the queue was full.
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	Shed          int `json:"shed"`
	// Clients is the number of distinct client identities currently
	// holding queued jobs.
	Clients int `json:"clients"`
	// Draining reports whether shutdown has begun.
	Draining bool `json:"draining"`
}

// Validate checks a decoded request: known schema, non-empty batch.
// Errors wrap ErrBadRequest (and scalesim.ErrUnknownSchema for a schema
// mismatch).
func (r *JobRequest) Validate() error {
	if err := checkSchema(r.Schema); err != nil {
		return err
	}
	if len(r.Jobs) == 0 {
		return fmt.Errorf("apiv1: %w: empty job batch", ErrBadRequest)
	}
	for i, j := range r.Jobs {
		if len(j.Benchmarks) == 0 {
			return fmt.Errorf("apiv1: %w: job %d has no benchmarks", ErrBadRequest, i)
		}
	}
	return nil
}

// checkSchema rejects a missing or unknown schema tag.
func checkSchema(schema string) error {
	switch schema {
	case Schema:
		return nil
	case "":
		return fmt.Errorf("apiv1: %w: missing schema tag (this build speaks %s)", ErrBadRequest, Schema)
	default:
		return fmt.Errorf("apiv1: %w %q (this build speaks %s)", scalesim.ErrUnknownSchema, schema, Schema)
	}
}

// DecodeJobRequest reads and validates one JobRequest. Decoding is strict:
// unknown fields are an error (wrapping ErrBadRequest), so a client typo
// ("benchmark" for "benchmarks") fails loudly instead of simulating the
// wrong design point.
func DecodeJobRequest(r io.Reader) (*JobRequest, error) {
	var req JobRequest
	if err := decodeStrict(r, &req); err != nil {
		return nil, fmt.Errorf("apiv1: %w: %w", ErrBadRequest, err)
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// DecodeJobResponse reads one JobResponse, verifying its schema tag.
func DecodeJobResponse(r io.Reader) (*JobResponse, error) {
	return decodeResponse(r, "response", func(v *JobResponse) string { return v.Schema })
}

// DecodeStatsResponse reads one StatsResponse, verifying its schema tag.
func DecodeStatsResponse(r io.Reader) (*StatsResponse, error) {
	return decodeResponse(r, "stats", func(v *StatsResponse) string { return v.Schema })
}

// DecodeHealthResponse reads one HealthResponse, verifying its schema tag.
func DecodeHealthResponse(r io.Reader) (*HealthResponse, error) {
	return decodeResponse(r, "health", func(v *HealthResponse) string { return v.Schema })
}

// DecodeErrorResponse reads one ErrorResponse. The schema is verified so a
// client never mistakes an unrelated payload for a service error.
func DecodeErrorResponse(r io.Reader) (*ErrorResponse, error) {
	return decodeResponse(r, "error response", func(v *ErrorResponse) string { return v.Schema })
}

// decodeResponse strictly decodes one response document of type T, named
// what in the error, and verifies the schema tag that schema reads from it.
func decodeResponse[T any](r io.Reader, what string, schema func(*T) string) (*T, error) {
	var resp T
	if err := decodeStrict(r, &resp); err != nil {
		return nil, fmt.Errorf("apiv1: decoding %s: %w", what, err)
	}
	if err := checkSchema(schema(&resp)); err != nil {
		return nil, err
	}
	return &resp, nil
}

// decodeStrict reads the body once, through r, and decodes exactly one JSON
// value from it with unknown fields rejected and nothing but whitespace
// allowed after it. A JobRequest or JobResponse in the canonical subset
// that Encode writes is decoded without reflection (decodeCanonical); every
// other document goes to encoding/json, the reference.
func decodeStrict(r io.Reader, v any) error {
	var body bytes.Buffer
	if _, err := body.ReadFrom(r); err != nil {
		return err
	}
	if decodeCanonical(body.Bytes(), v) {
		return nil
	}
	return decodeReference(body.Bytes(), v)
}

// decodeReference is the strict decode through encoding/json.
func decodeReference(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// A second document in the stream is malformed input, not a request.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return errors.New("trailing data after payload")
	}
	return nil
}

// Encode writes v to w as one JSON document, the bytes Marshal returns. It
// exists so callers on both sides of the wire share one encoding (and one
// place to change it).
func Encode(w io.Writer, v any) error {
	b, err := Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// Marshal returns v as one newline-terminated JSON document: the bytes
// encoding/json's Encoder writes for it. A *JobResponse in the canonical
// subset is written by hand (encodeCanonical); every other value goes to
// encoding/json, the reference.
func Marshal(v any) ([]byte, error) {
	if r, ok := v.(*JobResponse); ok {
		if b, ok := encodeCanonical(r); ok {
			return b, nil
		}
	}
	return marshalReference(v)
}

// marshalReference is Marshal through encoding/json.
func marshalReference(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// NewJobRequest tags public campaign jobs as a request: a JobSpec is a
// CampaignJob, so the wire form and the batch form cannot drift.
func NewJobRequest(client string, jobs []scalesim.CampaignJob) *JobRequest {
	return &JobRequest{Schema: Schema, Client: client, Jobs: jobs}
}
