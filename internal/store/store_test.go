package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"scalesim/internal/sim"
)

// sampleResult builds a representative result with every field class the
// artifact must round-trip: strings, ints, floats, durations, and a trace.
func sampleResult() *sim.Result {
	return &sim.Result{
		ConfigName:      "2:PRS",
		ElapsedCycles:   123456,
		DRAMUtilization: 0.375,
		NoCUtilization:  0.0625,
		WallClock:       17 * time.Millisecond,
		Cores: []sim.CoreResult{
			{
				Core: 0, Benchmark: "mcf", Instructions: 60000, Cycles: 120000,
				IPC: 0.5, BWBytesPerCycle: 1.25, BWShare: 0.625,
				L1DMPKI: 12.5, L2MPKI: 6.25, LLCMPKI: 3.125, LLCMisses: 187,
				BranchMispredictRate: 0.03125,
				BaseCycles:           60000, BranchCycles: 10000, MemoryCycles: 40000, FrontendCycles: 10000,
			},
			{Core: 1, Benchmark: "lbm", Instructions: 60000, Cycles: 90000, IPC: 0.6666666666666666},
		},
		Trace: []sim.EpochSnapshot{
			{Epoch: 0, EndCycle: 10000, DRAMUtilization: 0.25},
			{Epoch: 1, EndCycle: 20000, DRAMUtilization: 0.5},
		},
	}
}

func open(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := open(t, t.TempDir())
	const key = "aabbccdd00112233"
	want := sampleResult()

	if res, ok, err := s.Load(key); res != nil || ok || err != nil {
		t.Fatalf("Load before Save = (%v, %v, %v), want (nil, false, nil)", res, ok, err)
	}
	if err := s.Begin(key); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if err := s.Save(key, want); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, ok, err := s.Load(key)
	if err != nil || !ok {
		t.Fatalf("Load after Save = (_, %v, %v), want (_, true, nil)", ok, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if info, err := Check(s.dir); err != nil || info.Artifacts != 1 || info.Quarantined != 0 {
		t.Errorf("Check = (%+v, %v), want one artifact, none quarantined", info, err)
	}
}

// TestBarrierFieldsOnlyInThreadedArtifacts: a threaded run's barrier counts
// round-trip, and a mix's artifact does not mention them — what the store
// held before CoreResult had the pair reads, and hashes, as it did.
func TestBarrierFieldsOnlyInThreadedArtifacts(t *testing.T) {
	s := open(t, t.TempDir())
	mix, threaded := sampleResult(), sampleResult()
	threaded.Cores[0].Barriers, threaded.Cores[0].BarrierCycles = 3, 1500
	for key, res := range map[string]*sim.Result{"mix": mix, "threaded": threaded} {
		if err := s.Save(key, res); err != nil {
			t.Fatalf("Save: %v", err)
		}
		got, ok, err := s.Load(key)
		if err != nil || !ok || !reflect.DeepEqual(got, res) {
			t.Fatalf("%s: Load = (%+v, %v, %v), want what was saved", key, got, ok, err)
		}
		data, err := os.ReadFile(s.objectPath(key))
		if err != nil {
			t.Fatal(err)
		}
		if has := strings.Contains(string(data), "Barrier"); has != (key == "threaded") {
			t.Errorf("%s artifact mentions barriers: %v\n%s", key, has, data)
		}
	}
}

// TestReopenServesArtifacts pins cross-handle durability: a second handle on
// the same directory serves artifacts the first wrote.
func TestReopenServesArtifacts(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir)
	want := sampleResult()
	if err := s1.Save("k1", want); err != nil {
		t.Fatalf("Save: %v", err)
	}
	s1.Close()

	s2 := open(t, dir)
	got, ok, err := s2.Load("k1")
	if err != nil || !ok {
		t.Fatalf("Load from reopened store = (_, %v, %v)", ok, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reopened round-trip mismatch")
	}
	if got := interrupted(t, dir); len(got) != 0 {
		t.Errorf("completed job reported as interrupted: %v", got)
	}
}

// TestSaveIsByteStable pins bit-transparency at the artifact layer: saving
// the same result twice produces byte-identical files.
func TestSaveIsByteStable(t *testing.T) {
	s := open(t, t.TempDir())
	res := sampleResult()
	if err := s.Save("k1", res); err != nil {
		t.Fatalf("Save k1: %v", err)
	}
	if err := s.Save("k2", res); err != nil {
		t.Fatalf("Save k2: %v", err)
	}
	a, err := os.ReadFile(s.objectPath("k1"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(s.objectPath("k2"))
	if err != nil {
		t.Fatal(err)
	}
	// The embedded key differs; the result payload and checksum must not.
	stripKey := func(data []byte) string {
		return strings.Replace(string(data), `"key":"k1"`, `"key":"KEY"`, 1)
	}
	if sa, sb := stripKey(a), strings.Replace(string(b), `"key":"k2"`, `"key":"KEY"`, 1); sa != sb {
		t.Errorf("same result produced different artifact bytes:\n%s\n%s", sa, stripKey([]byte(sb)))
	}
}

func TestTruncatedArtifactQuarantined(t *testing.T) {
	s := open(t, t.TempDir())
	const key = "deadbeef"
	if err := s.Save(key, sampleResult()); err != nil {
		t.Fatalf("Save: %v", err)
	}
	path := s.objectPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	res, ok, lerr := s.Load(key)
	if res != nil || ok {
		t.Fatalf("Load of truncated artifact = (%v, %v), want miss", res, ok)
	}
	if !errors.Is(lerr, ErrCorrupt) {
		t.Errorf("Load error = %v, want wrapping ErrCorrupt", lerr)
	}
	if _, err := os.Lstat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("corrupt artifact still at object path (err=%v), want quarantined", err)
	}
	q := filepath.Join(s.dir, "quarantine", key+".json")
	if _, err := os.Lstat(q); err != nil {
		t.Errorf("quarantined artifact missing at %s: %v", q, err)
	}
	if info, err := Check(s.dir); err != nil || info.Quarantined != 1 {
		t.Errorf("Check = (%+v, %v), want Quarantined=1", info, err)
	}
	// The slot is reusable: a fresh Save then Load succeeds.
	if err := s.Save(key, sampleResult()); err != nil {
		t.Fatalf("re-Save after quarantine: %v", err)
	}
	if _, ok, err := s.Load(key); !ok || err != nil {
		t.Fatalf("Load after re-Save = (_, %v, %v)", ok, err)
	}
}

func TestChecksumMismatchQuarantined(t *testing.T) {
	s := open(t, t.TempDir())
	const key = "cafe0123"
	if err := s.Save(key, sampleResult()); err != nil {
		t.Fatalf("Save: %v", err)
	}
	path := s.objectPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one digit inside the serialised result without breaking JSON.
	tampered := strings.Replace(string(data), `"ElapsedCycles":123456`, `"ElapsedCycles":123457`, 1)
	if tampered == string(data) {
		t.Fatalf("tamper target not found in artifact: %s", data)
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ok, lerr := s.Load(key)
	if ok || !errors.Is(lerr, ErrCorrupt) {
		t.Errorf("Load of tampered artifact = (ok=%v, err=%v), want miss wrapping ErrCorrupt", ok, lerr)
	}
}

// TestUndecodableResultQuarantined: an artifact in the one layout whose
// checksum matches its result, but whose result is not a sim.Result, is
// corrupt, the same as one whose checksum does not match.
func TestUndecodableResultQuarantined(t *testing.T) {
	s := open(t, t.TempDir())
	const key = "beef4567"
	if err := s.Save(key, sampleResult()); err != nil {
		t.Fatalf("Save: %v", err)
	}
	payload := `{"ElapsedCycles":"many"}`
	sum := sha256.Sum256([]byte(payload))
	doc := layoutSchema + ArtifactSchema + layoutKey + key + layoutSHA256 + hex.EncodeToString(sum[:]) + layoutResult + payload + layoutEnd
	if err := os.WriteFile(s.objectPath(key), []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ok, lerr := s.Load(key)
	if ok || !errors.Is(lerr, ErrCorrupt) {
		t.Errorf("Load of an undecodable result = (ok=%v, err=%v), want miss wrapping ErrCorrupt", ok, lerr)
	}
}

func TestUnknownArtifactSchemaRejected(t *testing.T) {
	s := open(t, t.TempDir())
	const key = "f00dfeed"
	if err := s.Save(key, sampleResult()); err != nil {
		t.Fatalf("Save: %v", err)
	}
	path := s.objectPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	future := strings.Replace(string(data), ArtifactSchema, "scalesim/store/v99", 1)
	if err := os.WriteFile(path, []byte(future), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ok, lerr := s.Load(key)
	if ok || !errors.Is(lerr, ErrUnknownSchema) {
		t.Errorf("Load of future-schema artifact = (ok=%v, err=%v), want miss wrapping ErrUnknownSchema", ok, lerr)
	}
	if info, err := Check(s.dir); err != nil || info.Quarantined != 1 {
		t.Errorf("Check = (%+v, %v), want Quarantined=1 (unknown schema quarantines too)", info, err)
	}
}

// TestArtifactHasOneLayout pins the artifact's bytes. testdata/artifact.golden
// is what Save wrote for sampleResult when it json.Marshal'ed an envelope:
// Save, which now concatenates the layout, writes those bytes exactly, and
// they decode to sampleResult. The same artifact reordered or pretty-printed
// (each of which the oracle's envelope reads as the golden one) is corrupt,
// and a future tag is an unknown schema whatever layout follows it; the three
// documents are FuzzDecodeArtifact seeds.
func TestArtifactHasOneLayout(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "artifact.golden"))
	if err != nil {
		t.Fatal(err)
	}
	s := open(t, t.TempDir())
	if err := s.Save(fuzzKey, sampleResult()); err != nil {
		t.Fatal(err)
	}
	if saved, err := os.ReadFile(s.objectPath(fuzzKey)); err != nil || !bytes.Equal(saved, golden) {
		t.Fatalf("Save wrote (%v):\n%s\nwant the golden artifact:\n%s", err, saved, golden)
	}
	if res, key, err := decodeArtifact(golden, fuzzKey); err != nil || key != fuzzKey || !reflect.DeepEqual(res, sampleResult()) {
		t.Fatalf("the golden artifact decodes to (%+v, %q, %v), want sampleResult", res, key, err)
	}
	var want envelope
	if err := json.Unmarshal(golden, &want); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		seed string
		want error
	}{{"reordered-fields", ErrCorrupt}, {"pretty-printed", ErrCorrupt}, {"future-layout", ErrUnknownSchema}} {
		doc := fuzzSeed(t, "FuzzDecodeArtifact", c.seed)
		var env envelope
		if err := json.Unmarshal(doc, &env); err != nil {
			t.Fatalf("%s: %v", c.seed, err)
		}
		if same := reflect.DeepEqual(env, want); same != (c.want == ErrCorrupt) {
			t.Fatalf("%s reads as the golden envelope: %v", c.seed, same)
		}
		if res, _, err := decodeArtifact(doc, fuzzKey); res != nil || !errors.Is(err, c.want) {
			t.Errorf("%s: decodes to (%v, %v), want an error wrapping %v", c.seed, res, err, c.want)
		}
	}
	if err := s.Save(`a"b`, sampleResult()); err == nil {
		t.Error(`Save accepted the key a"b, which json.Marshal would have escaped`)
	}
}

// fuzzSeed reads the input of one committed fuzz seed, a "go test fuzz v1"
// file holding one []byte literal.
func fuzzSeed(t *testing.T, fuzzer, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "fuzz", fuzzer, name))
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(strings.TrimSpace(string(data)), "go test fuzz v1\n[]byte(")
	if lit, ok = strings.CutSuffix(lit, ")"); !ok {
		t.Fatalf("%s: not one []byte seed:\n%s", name, data)
	}
	doc, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return []byte(doc)
}

func TestKeyMismatchQuarantined(t *testing.T) {
	s := open(t, t.TempDir())
	if err := s.Save("rightkey", sampleResult()); err != nil {
		t.Fatalf("Save: %v", err)
	}
	// Copy the artifact under a different key's object path.
	data, err := os.ReadFile(s.objectPath("rightkey"))
	if err != nil {
		t.Fatal(err)
	}
	wrong := s.objectPath("wrongkey")
	if err := os.MkdirAll(filepath.Dir(wrong), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wrong, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, ok, lerr := s.Load("wrongkey")
	if ok || !errors.Is(lerr, ErrCorrupt) {
		t.Errorf("Load of mis-keyed artifact = (ok=%v, err=%v), want miss wrapping ErrCorrupt", ok, lerr)
	}
}

// interrupted is Check's reading of the journal in dir: the keys started and
// never finished.
func interrupted(t *testing.T, dir string) map[string]bool {
	t.Helper()
	keys, err := replayJournal(journalPath(dir))
	if err != nil {
		t.Fatalf("replaying the journal: %v", err)
	}
	return keys
}

// TestJournalResume pins the resume contract: keys started but never
// finished read back as interrupted after the next Open; completed and
// failed keys do not.
func TestJournalResume(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir)
	if err := s1.Begin("finished"); err != nil {
		t.Fatal(err)
	}
	if err := s1.Save("finished", sampleResult()); err != nil {
		t.Fatal(err)
	}
	if err := s1.Begin("failed"); err != nil {
		t.Fatal(err)
	}
	if err := s1.Fail("failed"); err != nil {
		t.Fatal(err)
	}
	if err := s1.Begin("killed-b"); err != nil {
		t.Fatal(err)
	}
	if err := s1.Begin("killed-a"); err != nil {
		t.Fatal(err)
	}
	s1.Close() // simulate the process dying with two jobs in flight

	open(t, dir)
	want := map[string]bool{"killed-a": true, "killed-b": true}
	if got := interrupted(t, dir); !reflect.DeepEqual(got, want) {
		t.Errorf("interrupted = %v, want %v", got, want)
	}
	if info, err := Check(dir); err != nil || info.Interrupted != 2 {
		t.Errorf("Check = (%+v, %v), want Interrupted=2", info, err)
	}
}

// TestJournalPartialLineTolerated simulates a crash mid-append: the partial
// trailing line is ignored, everything before it replays normally.
func TestJournalPartialLineTolerated(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir)
	if err := s1.Begin("whole"); err != nil {
		t.Fatal(err)
	}
	s1.Close()
	f, err := os.OpenFile(journalPath(dir), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("done wh"); err != nil { // no newline: torn write
		t.Fatal(err)
	}
	f.Close()

	open(t, dir)
	if got := interrupted(t, dir); !reflect.DeepEqual(got, map[string]bool{"whole": true}) {
		t.Errorf("interrupted = %v, want [whole] (torn done line must not count)", got)
	}
}

// TestJournalTornTailKeepsNextRecord: Open ends a torn tail, so the first
// record after it starts on its own line — appended to the torn "done a" it
// would read "done astart b", and b would never be reported interrupted.
func TestJournalTornTailKeepsNextRecord(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(journalPath(dir), []byte(journalSchema+"\nstart a\ndone a"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := open(t, dir)
	if err := s.Begin("b"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if got := interrupted(t, dir); !reflect.DeepEqual(got, map[string]bool{"b": true}) {
		t.Errorf("interrupted = %v, want [b]", got)
	}
	if info, err := Check(dir); err != nil || info.Interrupted != 1 {
		t.Errorf("Check = (%+v, %v), want Interrupted=1", info, err)
	}
}

// TestOpenReadsNoHistory: Open reads the journal's header and last byte, so
// what it allocates does not grow with the history behind them.
func TestOpenReadsNoHistory(t *testing.T) {
	dir := t.TempDir()
	var journal strings.Builder
	journal.WriteString(journalSchema + "\n")
	for i := 0; i < 100_000; i++ {
		fmt.Fprintf(&journal, "start %064x\n", i)
	}
	if err := os.WriteFile(journalPath(dir), []byte(journal.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := Open(dir)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("Open allocated %d bytes over a %d-byte journal, want under 1 MiB", alloc, journal.Len())
	}
}

func TestJournalUnknownVersionRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(journalPath(dir), []byte("scalesim/journal/v99\nstart k\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir)
	if !errors.Is(err, ErrUnknownSchema) {
		t.Errorf("Open with future journal = %v, want wrapping ErrUnknownSchema", err)
	}
	if _, err := Check(dir); !errors.Is(err, ErrUnknownSchema) {
		t.Errorf("Check with future journal = %v, want wrapping ErrUnknownSchema", err)
	}
}

func TestReadArtifact(t *testing.T) {
	s := open(t, t.TempDir())
	want := sampleResult()
	if err := s.Save("abcd", want); err != nil {
		t.Fatal(err)
	}
	got, key, err := ReadArtifact(s.objectPath("abcd"))
	if err != nil {
		t.Fatalf("ReadArtifact: %v", err)
	}
	if key != "abcd" {
		t.Errorf("key = %q, want abcd", key)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ReadArtifact result mismatch")
	}
	if _, _, err := ReadArtifact(filepath.Join(s.dir, "nope.json")); err == nil {
		t.Error("ReadArtifact of missing file succeeded")
	}
}

func TestCheck(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	if err := s.Save("good1", sampleResult()); err != nil {
		t.Fatal(err)
	}
	if err := s.Save("good2", sampleResult()); err != nil {
		t.Fatal(err)
	}
	if err := s.Save("bad111", sampleResult()); err != nil {
		t.Fatal(err)
	}
	path := s.objectPath("bad111")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-20], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin("inflight"); err != nil {
		t.Fatal(err)
	}
	s.Close()

	info, err := Check(dir)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if info.Artifacts != 2 || info.Corrupt != 1 || info.Interrupted != 1 {
		t.Errorf("Check = %+v, want Artifacts=2 Corrupt=1 Interrupted=1", info)
	}
	if !reflect.DeepEqual(info.CorruptKeys, []string{"bad111"}) {
		t.Errorf("CorruptKeys = %v, want [bad111]", info.CorruptKeys)
	}
	if info.Bytes <= 0 {
		t.Errorf("Bytes = %d, want > 0", info.Bytes)
	}
	// Check is read-only: the corrupt artifact stays in place.
	if _, err := os.Lstat(path); err != nil {
		t.Errorf("Check moved the corrupt artifact: %v", err)
	}

	// An empty directory checks clean.
	empty, err := Check(t.TempDir())
	if err != nil {
		t.Fatalf("Check(empty): %v", err)
	}
	if empty.Artifacts != 0 || empty.Corrupt != 0 {
		t.Errorf("Check(empty) = %+v", empty)
	}
}

// TestNoTempFilesLeft pins that Save leaves no .tmp- droppings behind.
func TestNoTempFilesLeft(t *testing.T) {
	s := open(t, t.TempDir())
	for _, k := range []string{"k1", "k2", "k3"} {
		if err := s.Save(k, sampleResult()); err != nil {
			t.Fatal(err)
		}
	}
	err := filepath.WalkDir(s.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if strings.HasPrefix(d.Name(), ".tmp-") {
			t.Errorf("leftover temp file %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestShortKeySharding(t *testing.T) {
	s := open(t, t.TempDir())
	if err := s.Save("k", sampleResult()); err != nil {
		t.Fatalf("Save with 1-char key: %v", err)
	}
	if _, ok, err := s.Load("k"); !ok || err != nil {
		t.Fatalf("Load with 1-char key = (_, %v, %v)", ok, err)
	}
}
