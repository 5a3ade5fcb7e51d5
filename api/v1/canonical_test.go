package apiv1

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"scalesim/internal/canon"
)

// declinedSubtrees are the fields the canonical decoder reads only as null:
// serve traffic never carries them, and a document that does goes to the
// reference.
var declinedSubtrees = []string{"SimOptions.Tuning", "CampaignJob.Extra", "SimResult.Trace"}

// TestCanonicalCoversEveryField sets every field of a request and a
// response non-zero by reflection, each to its own value, and requires the
// canonical decoder to read the reference's document back unchanged, and
// Marshal to write that document byte for byte (by hand, for the response).
// A field added to a wire type without a line in canonical.go or encode.go
// fails here instead of quietly sending every document to the reference.
func TestCanonicalCoversEveryField(t *testing.T) {
	declined := map[string]bool{}
	for _, path := range declinedSubtrees {
		declined[path] = false
	}
	for _, v := range []any{new(JobRequest), new(JobResponse)} {
		n := 0
		fillDistinct(t, reflect.ValueOf(v).Elem(), &n, declined)
		doc, err := marshalReference(v)
		if err != nil {
			t.Fatal(err)
		}
		if b, err := Marshal(v); err != nil || !bytes.Equal(b, doc) {
			t.Fatalf("Marshal of a %T with every field set = %v\n got %s\nwant %s", v, err, b, doc)
		}
		if r, ok := v.(*JobResponse); ok {
			if _, ok := encodeCanonical(r); !ok {
				t.Fatalf("canonical encoder declined a response with every field set:\n%s", doc)
			}
		}
		got := reflect.New(reflect.TypeOf(v).Elem()).Interface()
		if !decodeCanonical(doc, got) {
			t.Fatalf("canonical decoder declined a %T with every field set:\n%s", v, doc)
		}
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("canonical decoder changed a %T:\n got %+v\nwant %+v", v, got, v)
		}
	}
	for path, seen := range declined {
		if !seen {
			t.Errorf("declined subtree %s is no field of a wire type", path)
		}
	}
}

// fillDistinct sets every leaf under v to a value no other leaf has, and
// every slice to two elements, skipping (and marking) the declined subtrees.
func fillDistinct(t *testing.T, v reflect.Value, n *int, declined map[string]bool) {
	*n++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			path := v.Type().Name() + "." + v.Type().Field(i).Name
			if _, skip := declined[path]; skip {
				declined[path] = true
				continue
			}
			fillDistinct(t, v.Field(i), n, declined)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillDistinct(t, v.Elem(), n, declined)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillDistinct(t, v.Index(i), n, declined)
		}
	case reflect.String:
		v.SetString("s" + strconv.Itoa(*n))
	case reflect.Int:
		v.SetInt(int64(*n))
	case reflect.Uint64:
		v.SetUint(uint64(*n) << 40)
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.1)
	case reflect.Bool:
		v.SetBool(true)
	default:
		t.Fatalf("%s: no filler for kind %s; teach fillDistinct and the canonical decoder", v.Type(), v.Kind())
	}
}

// TestCanonicalNameTables holds every field table to canon.MaxNames
// entries: past the width of the mask Object tracks seen keys in, a repeated
// key would go unseen.
func TestCanonicalNameTables(t *testing.T) {
	for i, table := range [][]string{requestNames, jobNames, machineNames, optionNames, responseNames,
		outcomeNames, resultNames, coreNames, statsNames, frontNames} {
		if len(table) > canon.MaxNames {
			t.Errorf("table %d (%s, ...) has %d names, more than %d", i, table[0], len(table), canon.MaxNames)
		}
	}
}

// TestCanonicalSeeds pins which committed response seeds are in the
// canonical subset: the daemon's own answers are, except a traced one, and
// the hand-made near misses are not. Without it a decoder that declined
// everything would pass FuzzDecodeJobResponse.
func TestCanonicalSeeds(t *testing.T) {
	want := map[string]bool{
		"one-outcome": true, "eight-outcomes": true, "model-approximate": true,
		"traced": false, "duplicate-key": false, "case-folded-key": false,
		"float-job": false, "escaped-string": false,
	}
	for name, accepted := range want {
		doc, err := corpusDoc(filepath.Join("testdata", "fuzz", "FuzzDecodeJobResponse", name))
		if err != nil {
			t.Fatal(err)
		}
		var got JobResponse
		if decodeCanonical(doc, &got) != accepted {
			t.Errorf("%s: canonical decoder accepted = %v, want %v", name, !accepted, accepted)
		}
		if _, err := DecodeJobResponse(bytes.NewReader(doc)); (err == nil) != (name != "float-job") {
			t.Errorf("%s: DecodeJobResponse error = %v", name, err)
		}
	}
}

// TestCanonicalDeclines lists single-token departures from the canonical
// form of a request; each one must go to the reference.
func TestCanonicalDeclines(t *testing.T) {
	var doc bytes.Buffer
	if err := Encode(&doc, sampleBatch(1)); err != nil {
		t.Fatal(err)
	}
	canonical := doc.String()
	if !decodeCanonical([]byte(canonical), new(JobRequest)) {
		t.Fatalf("canonical decoder declined its own form:\n%s", canonical)
	}
	for _, edit := range [][2]string{
		{`"Cores":1`, `"cores":1`},
		{`"Cores":1`, `"Cores":1,"Cores":1`},
		{`"Cores":1`, `"Cores":1.0`},
		{`"Cores":1`, `"Cores":1e0`},
		{`"Cores":1`, `"Cores":01`},
		{`"Cores":1`, `"Cores":null`},
		{`"Seed":0`, `"Seed":-0`},
		{`"EpochCycles":10000`, `"EpochCycles":1e999`},
		{`"EpochCycles":10000`, `"EpochCycles":.5`},
		{`"Trace":false`, `"Trace":0`},
		{`"benchmarks":["gcc"]`, `"benchmarks":["g\u0063c"]`},
		{`"benchmarks":["gcc"]`, `"benchmarks":[null]`},
		{`"benchmarks":["gcc"]`, `"benchmarks":["gcc",]`},
		{`"client":"scalebench"`, `"client":"scalebench","extra":1`},
		{`"TraceWarmup":false}`, `"TraceWarmup":false,"tuning":{}}`},
		{"}]}\n", "}]} {}"},
	} {
		doc := strings.Replace(canonical, edit[0], edit[1], 1)
		if doc == canonical {
			t.Fatalf("edit %q does not apply to\n%s", edit[0], canonical)
		}
		if decodeCanonical([]byte(doc), new(JobRequest)) {
			t.Errorf("canonical decoder accepted %q for %q", edit[1], edit[0])
		}
	}
}
