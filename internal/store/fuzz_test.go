package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"scalesim/internal/sim"
)

// fuzzKey is the key every fuzzed document is read as an artifact of.
const fuzzKey = "aabbccdd00112233"

// envelope is the oracle's reading of an artifact: any JSON document with
// these four fields, in any order and any spacing.
type envelope struct {
	Schema string          `json:"schema"`
	Key    string          `json:"key"`
	SHA256 string          `json:"sha256"`
	Result json.RawMessage `json:"result"`
}

// FuzzDecodeArtifact holds the artifact decoder — what stands between a
// store directory and a served result — to three properties on arbitrary
// bytes: it never panics; it returns no result for bytes whose schema, key or
// checksum is wrong, and classifies every rejection as ErrCorrupt or
// ErrUnknownSchema; and a result it accepts round-trips through Save and
// Load unchanged. The hand-written seeds (valid, truncated, flipped checksum,
// foreign key, unknown schema, trailing data, and the envelope reordered,
// pretty-printed or in a future layout — see TestArtifactHasOneLayout) are
// committed under testdata/fuzz.
func FuzzDecodeArtifact(f *testing.F) {
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	if err := s.Save(fuzzKey, sampleResult()); err != nil {
		f.Fatal(err)
	}
	saved, err := os.ReadFile(s.objectPath(fuzzKey))
	if err != nil {
		f.Fatal(err)
	}
	if res, _, err := decodeArtifact(saved, fuzzKey); err != nil || !reflect.DeepEqual(res, sampleResult()) {
		f.Fatalf("what Save wrote decodes to (%+v, %v)", res, err)
	}
	f.Add(saved)
	f.Fuzz(func(t *testing.T, doc []byte) {
		res, key, err := decodeArtifact(doc, fuzzKey)
		if err != nil {
			if res != nil {
				t.Fatalf("a result came back with the error %v", err)
			}
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrUnknownSchema) {
				t.Fatalf("rejected with an unclassified error: %v", err)
			}
			return
		}
		// The oracle: the three checks, restated on the raw envelope.
		var env envelope
		if err := json.Unmarshal(doc, &env); err != nil {
			t.Fatalf("accepted bytes that are not one JSON document: %v", err)
		}
		sum := sha256.Sum256(env.Result)
		if env.Schema != ArtifactSchema || env.Key != fuzzKey || key != fuzzKey || hex.EncodeToString(sum[:]) != env.SHA256 {
			t.Fatalf("accepted schema %q, key %q (returned %q), checksum %s over a payload hashing to %x", env.Schema, env.Key, key, env.SHA256, sum)
		}
		if err := s.Save(fuzzKey, res); err != nil {
			t.Fatalf("accepted result does not save: %v", err)
		}
		again, ok, err := s.Load(fuzzKey)
		if err != nil || !ok || !reflect.DeepEqual(again, res) {
			t.Fatalf("accepted result changed through Save and Load: (%+v, %v, %v), want %+v", again, ok, err, res)
		}
	})
}

// FuzzDecodeResult holds the result decoder to its reference on raw result
// payloads, outside the checksum envelope: decodeResult never panics, fails
// exactly when json.Unmarshal does, and decodes what it accepts — on the
// canonical path or the reference's — to the same sim.Result. The seeds are
// what Save writes for sampleResult() and, under testdata/fuzz, the same
// result untraced (the canonical path) and traced, and the near misses the
// canonical reader must leave to the reference: a case-folded key, a
// duplicate key, an escaped string and a fraction in an integer field
// (TestCanonicalResultSeeds).
func FuzzDecodeResult(f *testing.F) {
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	if err := s.Save(fuzzKey, sampleResult()); err != nil {
		f.Fatal(err)
	}
	saved, err := os.ReadFile(s.objectPath(fuzzKey))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(resultPayload(f, saved))
	f.Fuzz(func(t *testing.T, payload []byte) {
		got, err := decodeResult(payload)
		var want sim.Result
		werr := json.Unmarshal(payload, &want)
		if (err == nil) != (werr == nil) {
			t.Fatalf("decodeResult error %v, json.Unmarshal error %v, on\n%s", err, werr, payload)
		}
		if err == nil && !reflect.DeepEqual(*got, want) {
			t.Fatalf("decodeResult and json.Unmarshal disagree on\n%s\ndecodeResult %+v\n   reference %+v", payload, *got, want)
		}
	})
}

// resultPayload cuts the result payload out of an artifact.
func resultPayload(tb testing.TB, artifact []byte) []byte {
	tb.Helper()
	_, payload, ok := bytes.Cut(artifact, []byte(layoutResult))
	if payload, ok = bytes.CutSuffix(payload, []byte(layoutEnd)); !ok {
		tb.Fatalf("not an artifact:\n%s", artifact)
	}
	return payload
}

// FuzzJournal holds the two readers of an existing journal.log — Open, which
// reads its header and last byte, and Check, which reads all of it — on
// arbitrary bytes: neither panics; a foreign header is refused by both alike;
// a journal Open accepts still opens once written to and closed (a torn
// header must not become a foreign one); and the records written after Open
// read back exactly, each on a line of its own. The seeds (a torn tail, a torn
// header, a foreign header, an empty file) are committed under testdata/fuzz.
func FuzzJournal(f *testing.F) {
	const started, failed, saved = "fuzz-started", "fuzz-failed", "fuzz-saved"
	f.Fuzz(func(t *testing.T, doc []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(journalPath(dir), doc, 0o644); err != nil {
			t.Fatal(err)
		}
		_, cerr := Check(dir)
		s, err := Open(dir)
		if errors.Is(err, ErrUnknownSchema) != errors.Is(cerr, ErrUnknownSchema) {
			t.Fatalf("Open and Check disagree on the header: %v, %v", err, cerr)
		}
		if err != nil {
			if !errors.Is(err, ErrUnknownSchema) {
				t.Fatalf("Open failed with an unclassified error: %v", err)
			}
			return
		}
		for _, err := range []error{s.Begin(started), s.Begin(failed), s.Fail(failed), s.Begin(saved), s.Save(saved, sampleResult()), s.Close()} {
			if err != nil {
				t.Fatal(err)
			}
		}
		s, err = Open(dir)
		if err != nil {
			t.Fatalf("a journal Open accepted no longer opens: %v", err)
		}
		defer s.Close()
		if res, ok, err := s.Load(saved); !ok || err != nil || !reflect.DeepEqual(res, sampleResult()) {
			t.Fatalf("Load(%s) = (%+v, %v, %v), want what was saved", saved, res, ok, err)
		}
		data, err := os.ReadFile(journalPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		want := "\nstart " + started + "\nstart " + failed + "\nfail " + failed + "\nstart " + saved + "\ndone " + saved + "\n"
		if !strings.HasSuffix(string(data), want) {
			t.Fatalf("the records written do not end the journal on lines of their own:\n%q", data)
		}
		info, err := Check(dir)
		if err != nil {
			t.Fatalf("Check after reopening: %v", err)
		}
		keys, err := replayJournal(journalPath(dir))
		if err != nil || !keys[started] || keys[failed] || keys[saved] || info.Interrupted != len(keys) {
			t.Fatalf("interrupted = (%v, %v), Check counts %d; want %s and neither %s nor %s", keys, err, info.Interrupted, started, failed, saved)
		}
	})
}
