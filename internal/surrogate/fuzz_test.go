package surrogate

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzDataset holds New's replay of dataset.jsonl on arbitrary bytes: it never
// panics, it admits no row that fails usable, and a row persisted after it is
// there on the next New — a torn last row must not swallow it. The seeds (a
// torn tail, a torn first row, a foreign schema, an empty file) are committed
// under testdata/fuzz.
func FuzzDataset(f *testing.F) {
	fresh := record{
		Schema:   datasetSchema,
		Key:      "fuzz-fresh",
		Features: jobFeatures(synthJob(0)),
		Targets:  resultTargets(synthResult(0)),
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		// A training threshold no document reaches: the subject is the
		// replay, not the fit.
		cfg := Config{Dir: t.TempDir(), MinTrain: math.MaxInt}
		if err := os.WriteFile(filepath.Join(cfg.Dir, datasetFile), doc, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		requireUsable(t, s)
		if _, ok := s.rows[fresh.Key]; ok {
			s.Close()
			return // the document holds the row already: nothing is fresh
		}
		s.persist(fresh)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, err = New(cfg)
		if err != nil {
			t.Fatalf("New after persisting: %v", err)
		}
		defer s.Close()
		requireUsable(t, s)
		if got := s.rows[fresh.Key]; !reflect.DeepEqual(got, fresh) {
			t.Fatalf("the persisted row reads back as %+v, want %+v", got, fresh)
		}
	})
}

// requireUsable fails t on any admitted row that the training set must not
// hold: a foreign schema, a key other than its own, or a row usable rejects.
func requireUsable(t *testing.T, s *Surrogate) {
	t.Helper()
	for key, rec := range s.rows {
		if rec.Schema != datasetSchema || rec.Key != key || !usable(rec) {
			t.Fatalf("admitted row %q: %+v", key, rec)
		}
	}
}
