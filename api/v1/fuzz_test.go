package apiv1

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"scalesim"
)

// FuzzDecodeJobRequest holds the request decoder — the one parser a client
// reaches before admission control — to four properties on arbitrary bytes:
// it never panics; a rejected document is reported as ErrBadRequest (or, for
// a well-formed one tagged with a schema this build does not speak, as
// ErrUnknownSchema); an accepted one survives the wire, re-encoding and
// re-decoding to a request that encodes to the same bytes; and a document
// the canonical decoder accepts, the encoding/json reference accepts as the
// same request. The hand-written seeds (truncated, trailing data, unknown
// field, the pre-tuning payload) are committed under testdata/fuzz.
func FuzzDecodeJobRequest(f *testing.F) {
	var sample bytes.Buffer
	if err := Encode(&sample, sampleRequest()); err != nil {
		f.Fatal(err)
	}
	f.Add(sample.Bytes())
	f.Fuzz(func(t *testing.T, doc []byte) {
		canonicalIsReference[JobRequest](t, doc)
		req, err := DecodeJobRequest(bytes.NewReader(doc))
		if err != nil {
			if !errors.Is(err, ErrBadRequest) && !errors.Is(err, scalesim.ErrUnknownSchema) {
				t.Fatalf("rejected with an unclassified error: %v", err)
			}
			return
		}
		var wire bytes.Buffer
		if err := Encode(&wire, req); err != nil {
			t.Fatalf("accepted request does not encode: %v", err)
		}
		again, err := DecodeJobRequest(bytes.NewReader(wire.Bytes()))
		if err != nil {
			t.Fatalf("accepted request is rejected after one trip over the wire: %v\n%s", err, wire.Bytes())
		}
		var rewire bytes.Buffer
		if err := Encode(&rewire, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wire.Bytes(), rewire.Bytes()) {
			t.Fatalf("request changed over the wire:\n first %s\nsecond %s", wire.Bytes(), rewire.Bytes())
		}
	})
}

// FuzzDecodeJobResponse holds the response decoder, which every client of
// the daemon runs on every answer, to the same two properties on arbitrary
// bytes: it never panics, and a document the canonical decoder accepts, the
// encoding/json reference accepts as the same response. The seeds under
// testdata/fuzz are the answers the daemon writes (1 and 8 outcomes, a
// model-served one, a traced one) and the near misses the canonical decoder
// must leave to the reference: a duplicate key, a case-folded one, 1.0 for
// an integer and an escaped string.
func FuzzDecodeJobResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc []byte) {
		canonicalIsReference[JobResponse](t, doc)
		_, _ = DecodeJobResponse(bytes.NewReader(doc))
	})
}

// canonicalIsReference fails t if the canonical decoder accepts doc as a T
// that the reference does not decode to the same value.
func canonicalIsReference[T any](t *testing.T, doc []byte) {
	t.Helper()
	var got, want T
	if !decodeCanonical(doc, &got) {
		return
	}
	if err := decodeReference(doc, &want); err != nil {
		t.Fatalf("canonical decoder accepted what the reference rejects (%v):\n%s", err, doc)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("canonical decoder and reference disagree on\n%s\ncanonical %+v\nreference %+v", doc, got, want)
	}
}

// FuzzPrepareJobRequest holds the door behind the decoder: every job of every
// document the decoder accepts is prepared, on a fresh Service, without
// panicking, and a job the Service refuses is refused with an error wrapping
// one of the root package's sentinels. It starts from FuzzDecodeJobRequest's
// corpus and its own (testdata/fuzz): the five documents that once panicked
// the daemon (a custom machine of three cores), held a worker forever (a
// negative epoch), ran the default scale under a second key (a negative
// capacity scale), drew a model answer for a job the simulator refuses
// (two programs on one core) and panicked the worker that ran it (a custom
// profile's Zipf skew of −1).
func FuzzPrepareJobRequest(f *testing.F) {
	addCorpus(f, "FuzzDecodeJobRequest")
	sentinels := []error{
		scalesim.ErrBadSpec, scalesim.ErrBadTuning, scalesim.ErrUnknownPolicy,
		scalesim.ErrUnknownBandwidth, scalesim.ErrUnknownPattern, scalesim.ErrUnknownBenchmark,
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		req, err := DecodeJobRequest(bytes.NewReader(doc))
		if err != nil {
			return
		}
		svc, err := scalesim.NewService(scalesim.ServiceConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		for i, job := range req.Jobs {
			_, err := svc.Prepare(job)
			if err != nil && !slices.ContainsFunc(sentinels, func(s error) bool { return errors.Is(err, s) }) {
				t.Fatalf("job %d refused with an unclassified error: %v", i, err)
			}
		}
	})
}

// addCorpus seeds f with the inputs committed for another target under
// testdata/fuzz/<target>.
func addCorpus(f *testing.F, target string) {
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no corpus for %s: %v", target, err)
	}
	for _, path := range paths {
		doc, err := corpusDoc(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
}

// corpusDoc reads one committed fuzz input, the `go test fuzz v1` encoding
// of one []byte.
func corpusDoc(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	header, lit, _ := strings.Cut(string(data), "\n")
	lit, okPrefix := strings.CutPrefix(strings.TrimSpace(lit), "[]byte(")
	lit, okSuffix := strings.CutSuffix(lit, ")")
	doc, err := strconv.Unquote(lit)
	if header != "go test fuzz v1" || !okPrefix || !okSuffix || err != nil {
		return nil, fmt.Errorf("%s: not one []byte in the go test fuzz v1 encoding", path)
	}
	return []byte(doc), nil
}
