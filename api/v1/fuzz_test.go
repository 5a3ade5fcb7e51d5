package apiv1

import (
	"bytes"
	"errors"
	"testing"

	"scalesim"
)

// FuzzDecodeJobRequest holds the request decoder — the one parser a client
// reaches before admission control — to three properties on arbitrary bytes:
// it never panics; a rejected document is reported as ErrBadRequest (or, for
// a well-formed one tagged with a schema this build does not speak, as
// ErrUnknownSchema); an accepted one survives the wire, re-encoding and
// re-decoding to a request that encodes to the same bytes. The hand-written
// seeds (truncated, trailing data, unknown field, the pre-tuning payload)
// are committed under testdata/fuzz.
func FuzzDecodeJobRequest(f *testing.F) {
	var sample bytes.Buffer
	if err := Encode(&sample, sampleRequest()); err != nil {
		f.Fatal(err)
	}
	f.Add(sample.Bytes())
	f.Fuzz(func(t *testing.T, doc []byte) {
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
