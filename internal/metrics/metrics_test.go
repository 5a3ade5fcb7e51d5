package metrics

import (
	"math"
	"testing"
)

func TestPredictionError(t *testing.T) {
	if e := PredictionError(1.2, 1.0); math.Abs(e-0.2) > 1e-12 {
		t.Fatalf("error = %v, want 0.2", e)
	}
	if e := PredictionError(0.8, 1.0); math.Abs(e-0.2) > 1e-12 {
		t.Fatalf("under-prediction error = %v, want 0.2", e)
	}
	if e := PredictionError(-0.5, -1.0); math.Abs(e-0.5) > 1e-12 {
		t.Fatalf("negative actual error = %v, want 0.5", e)
	}
	if !math.IsNaN(PredictionError(1, 0)) {
		t.Fatal("zero actual should give NaN")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{0.1, 0.3, math.NaN(), 0.2})
	if s.N != 3 {
		t.Fatalf("N = %d, want 3 (NaN skipped)", s.N)
	}
	if math.Abs(s.Mean-0.2) > 1e-12 || s.Max != 0.3 {
		t.Fatalf("summary %+v, want mean 0.2 max 0.3", s)
	}
	empty := Summarize(nil)
	if empty.N != 0 || empty.Mean != 0 || empty.Max != 0 {
		t.Fatalf("empty summary %+v", empty)
	}
}

func TestSummarizeSkipsInfinities(t *testing.T) {
	// ±Inf arises from a zero or denormal baseline: like NaN, one sample
	// must not poison the whole set.
	s := Summarize([]float64{0.1, math.Inf(1), 0.3, math.Inf(-1)})
	if s.N != 2 {
		t.Fatalf("N = %d, want 2 (infinities skipped)", s.N)
	}
	if math.Abs(s.Mean-0.2) > 1e-12 || s.Max != 0.3 {
		t.Fatalf("summary %+v, want mean 0.2 max 0.3", s)
	}
	if s := Summarize([]float64{math.Inf(1)}); s.N != 0 {
		t.Fatalf("all-Inf summary %+v", s)
	}
}

func TestSortByKey(t *testing.T) {
	es := []NamedError{
		{Name: "b", Key: 2, Error: 0.2},
		{Name: "a", Key: 2, Error: 0.1},
		{Name: "c", Key: 1, Error: 0.3},
	}
	SortByKey(es)
	if es[0].Name != "c" || es[1].Name != "a" || es[2].Name != "b" {
		t.Fatalf("sorted order %v", es)
	}
}
