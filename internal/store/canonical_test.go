package store

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"scalesim/internal/canon"
	"scalesim/internal/sim"
)

// TestCanonicalResultCoversEveryField sets every field of a result non-zero
// by reflection, each to its own value, and requires the canonical reader to
// read what json.Marshal writes for it back unchanged. A field added to
// sim.Result or sim.CoreResult without a line in canonical.go fails here
// instead of quietly sending every artifact to the reference.
func TestCanonicalResultCoversEveryField(t *testing.T) {
	var want sim.Result
	n, traced := 0, false
	fillDistinct(t, reflect.ValueOf(&want).Elem(), &n, &traced)
	if !traced {
		t.Fatal("Result.Trace, the subtree the canonical reader reads only as null, is no field of sim.Result")
	}
	payload, err := json.Marshal(&want)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := canonicalResult(payload)
	if !ok {
		t.Fatalf("canonical reader declined a result with every field set:\n%s", payload)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("canonical reader changed a result:\n got %+v\nwant %+v", got, want)
	}
}

// fillDistinct sets every leaf under v to a value no other leaf has, and
// every slice to two elements, skipping (and reporting) Result.Trace.
func fillDistinct(t *testing.T, v reflect.Value, n *int, traced *bool) {
	*n++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type() == reflect.TypeOf(sim.Result{}) && v.Type().Field(i).Name == "Trace" {
				*traced = true
				continue
			}
			fillDistinct(t, v.Field(i), n, traced)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillDistinct(t, v.Index(i), n, traced)
		}
	case reflect.String:
		v.SetString("s" + strconv.Itoa(*n))
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n) << 33)
	case reflect.Uint64:
		v.SetUint(uint64(*n) << 40)
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.1)
	default:
		t.Fatalf("%s: no filler for kind %s; teach fillDistinct and the canonical reader", v.Type(), v.Kind())
	}
}

// TestCanonicalResultSeeds pins which committed FuzzDecodeResult seeds are
// in the canonical subset: the untraced result Save writes is, and the
// traced one and the hand-made near misses are not. Without it a reader that
// declined everything would pass FuzzDecodeResult. Of the near misses only
// the fraction in an integer field is an error to the reference too.
func TestCanonicalResultSeeds(t *testing.T) {
	for _, c := range []struct {
		seed               string
		canonical, decodes bool
	}{
		{"untraced", true, true}, {"traced", false, true},
		{"case-folded-key", false, true}, {"duplicate-key", false, true},
		{"escaped-string", false, true}, {"float-in-int", false, false},
	} {
		payload := fuzzSeed(t, "FuzzDecodeResult", c.seed)
		if _, ok := canonicalResult(payload); ok != c.canonical {
			t.Errorf("%s: canonical reader accepted = %v, want %v", c.seed, ok, c.canonical)
		}
		if _, err := decodeResult(payload); (err == nil) != c.decodes {
			t.Errorf("%s: decodeResult error = %v", c.seed, err)
		}
	}
}

// TestCanonicalNameTables holds every field table to canon.MaxNames
// entries: past the width of the mask Object tracks seen keys in, a repeated
// key would go unseen.
func TestCanonicalNameTables(t *testing.T) {
	for i, table := range [][]string{resultNames, coreNames} {
		if len(table) > canon.MaxNames {
			t.Errorf("table %d (%s, ...) has %d names, more than %d", i, table[0], len(table), canon.MaxNames)
		}
	}
}

// BenchmarkDecodeResult prices the decode of one stored result, untraced
// as a regeneration's artifacts are, for 1 and 8 cores, on the canonical
// path and on the encoding/json reference, from the same bytes.
func BenchmarkDecodeResult(b *testing.B) {
	for _, cores := range []int{1, 8} {
		r := sampleResult()
		r.Trace = nil
		for len(r.Cores) < cores {
			c := r.Cores[0]
			c.Core, c.IPC = len(r.Cores), 0.5961832061068702+float64(len(r.Cores))/1e3
			r.Cores = append(r.Cores, c)
		}
		r.Cores = r.Cores[:cores]
		payload, err := json.Marshal(r)
		if err != nil {
			b.Fatal(err)
		}
		for _, path := range []struct {
			name   string
			decode func([]byte) error
		}{
			{"canonical", func(p []byte) error {
				if _, ok := canonicalResult(p); !ok {
					return fmt.Errorf("declined %s", p)
				}
				return nil
			}},
			{"reference", func(p []byte) error { return json.Unmarshal(p, new(sim.Result)) }},
		} {
			b.Run(fmt.Sprintf("%d/%s", cores, path.name), func(b *testing.B) {
				b.SetBytes(int64(len(payload)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := path.decode(payload); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
