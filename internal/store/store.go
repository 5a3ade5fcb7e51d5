// Package store is the campaign engine's durable memoization tier: a
// crash-safe, content-addressed on-disk result store keyed by the canonical
// runner job key (internal/runner/key.go).
//
// # Layout
//
// A store directory holds three things:
//
//	objects/<k[:2]>/<key>.json   one artifact per completed design point
//	quarantine/                  artifacts that failed verification
//	journal.log                  append-only record of job lifecycles
//
// # Crash safety
//
// Artifacts are written to a temporary file in the destination directory,
// fsynced, and renamed into place, so a reader never observes a partial
// artifact under its final name. The journal is append-only and read only by
// Check; Open reads its header and last byte, and ends a partial trailing
// line (the signature of a crash mid-append) so the next record starts on a
// line of its own. A campaign killed between journal "start" and "done"
// leaves the key interrupted: its artifact does not exist, so a resumed
// campaign recomputes it, as it recomputes whatever has no artifact.
//
// # Corruption
//
// Every artifact carries a schema tag and a SHA-256 checksum over the
// serialised result. Load verifies both plus the embedded key; any mismatch
// moves the artifact into quarantine/ and reports a miss (with an error
// wrapping ErrCorrupt or ErrUnknownSchema for observability) — corruption is
// never fatal and never silently misread, the job is simply recomputed.
//
// # Determinism
//
// Simulation results are bit-identical for a fixed design point, so
// concurrent processes sharing one store directory may duplicate work but
// can never disagree: whichever artifact wins the rename carries the same
// bytes. The package itself uses no wall clock and no ambient randomness
// (it is part of the simlint deterministic set).
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"scalesim/internal/sim"
)

// ArtifactSchema is the version tag every artifact carries. Readers reject
// (and quarantine) artifacts tagged with a schema they do not understand, so
// a future format change fails loudly instead of silently misreading.
const ArtifactSchema = "scalesim/store/v1"

// journalSchema is the version tag heading the journal file.
const journalSchema = "scalesim/journal/v1"

// Sentinel errors, wrapped with context by the functions that return them;
// test with errors.Is. They are re-exported by the public scalesim package
// as ErrStoreCorrupt and ErrUnknownSchema.
var (
	// ErrCorrupt reports an artifact that failed verification: unparseable
	// bytes, a checksum mismatch, or a key mismatch.
	ErrCorrupt = errors.New("store artifact corrupt")
	// ErrUnknownSchema reports a versioned payload (artifact or journal)
	// whose schema tag this build does not understand.
	ErrUnknownSchema = errors.New("unknown schema")
)

// An artifact has one layout, the bytes json.Marshal has written for its
// envelope since the store was created: {"schema":S,"key":K,"sha256":H,
// "result":R} and a newline, with S the schema tag, K the job key (plain),
// H the hex SHA-256 of R and R the result's encoding/json bytes. Save
// concatenates it, decodeArtifact splits it; any other layout carrying this
// build's tag is corrupt.
const (
	layoutSchema = `{"schema":"`
	layoutKey    = `","key":"`
	layoutSHA256 = `","sha256":"`
	layoutResult = `","result":`
	layoutEnd    = "}\n"
)

// Store is a handle on one store directory. It is safe for concurrent use
// within a process; distinct processes may share a directory (artifact
// writes are atomic and journal appends use O_APPEND). A handle keeps no
// books: the engine counts hits and corruption, quarantine/ holds what
// failed verification, and Check reads the journal.
type Store struct {
	dir string

	mu      sync.Mutex // keeps Close from releasing journal under an append
	journal *os.File
}

// Open opens (creating if necessary) the store rooted at dir. It reads two
// things of the journal however long its history: the header, refusing
// another build's tag with ErrUnknownSchema, and the last byte — a torn tail
// is ended so the next record starts on its own line.
func Open(dir string) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, "objects"), filepath.Join(dir, "quarantine")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: creating %s: %w", d, err)
		}
	}
	j, err := os.OpenFile(journalPath(dir), os.O_APPEND|os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening journal: %w", err)
	}
	if err := sealJournal(j); err != nil {
		j.Close()
		return nil, err
	}
	return &Store{dir: dir, journal: j}, nil
}

// sealJournal readies a journal for appends: an empty one gets the header,
// any other has its header checked and a newline if its last byte is not one.
func sealJournal(j *os.File) error {
	fi, err := j.Stat()
	if err != nil {
		return fmt.Errorf("store: journal: %w", err)
	}
	seal := journalSchema + "\n"
	if size := fi.Size(); size > 0 {
		head, last := make([]byte, min(size, headerBytes)), make([]byte, 1)
		if _, err := j.ReadAt(head, 0); err != nil {
			return fmt.Errorf("store: reading journal: %w", err)
		}
		if _, err := j.ReadAt(last, size-1); err != nil {
			return fmt.Errorf("store: reading journal: %w", err)
		}
		if err := checkHeader(j.Name(), head); err != nil || last[0] == '\n' {
			return err
		}
		seal = "\n"
	}
	if _, err := j.WriteString(seal); err != nil {
		return fmt.Errorf("store: sealing journal: %w", err)
	}
	return nil
}

// Close releases the journal handle. The store's artifacts remain valid.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return nil
	}
	err := s.journal.Close()
	s.journal = nil
	return err
}

// Begin journals that a job is about to compute. If the process dies before
// Save or Fail, Check reports the key as interrupted.
func (s *Store) Begin(key string) error {
	return s.appendJournal("start", key)
}

// Fail journals that a job ended in an error without producing an artifact,
// so it is not mistaken for an interrupted (killed mid-flight) job.
func (s *Store) Fail(key string) error {
	return s.appendJournal("fail", key)
}

// Save writes the result as the artifact for key — temp file, fsync, atomic
// rename — and journals completion. Concurrent savers of the same key are
// harmless: results are deterministic, so both writers carry the same bytes.
func (s *Store) Save(key string, res *sim.Result) error {
	if !plain([]byte(key)) {
		return fmt.Errorf("store: key %q is not printable ASCII free of JSON escapes", key)
	}
	payload, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("store: encoding result for %s: %w", key, err)
	}
	sum := sha256.Sum256(payload)
	head := layoutSchema + ArtifactSchema + layoutKey + key + layoutSHA256 + hex.EncodeToString(sum[:]) + layoutResult
	data := append(append([]byte(head), payload...), layoutEnd...)

	path := s.objectPath(key)
	shard := filepath.Dir(path)
	if err := os.MkdirAll(shard, 0o755); err != nil {
		return fmt.Errorf("store: creating shard %s: %w", shard, err)
	}
	tmp, err := os.CreateTemp(shard, ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: creating temp artifact: %w", err)
	}
	_, err = tmp.Write(data) // a failed write or sync is never renamed into place
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: writing artifact %s: %w", path, err)
	}
	if d, err := os.Open(shard); err == nil { // best-effort: make the rename itself durable
		_ = d.Sync()
		_ = d.Close()
	}
	return s.appendJournal("done", key)
}

// Load returns the stored result for key. ok reports whether a verified
// artifact was found. A corrupt or unrecognised artifact is moved to
// quarantine/ and reported as a miss, with a non-nil error (wrapping
// ErrCorrupt or ErrUnknownSchema) describing why — callers recompute either
// way and may surface the classification in their own stats.
func (s *Store) Load(key string) (res *sim.Result, ok bool, err error) {
	path := s.objectPath(key)
	data, rerr := os.ReadFile(path)
	if rerr != nil {
		if errors.Is(rerr, fs.ErrNotExist) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("store: reading artifact %s: %w", path, rerr)
	}
	res, _, verr := decodeArtifact(data, key)
	if verr != nil {
		s.quarantine(key, path)
		return nil, false, fmt.Errorf("store: artifact %s quarantined: %w", filepath.Base(path), verr)
	}
	return res, true, nil
}

// quarantine moves a failed artifact aside so it is preserved for inspection
// and never re-read; the next Save recreates the object path. Best-effort: a
// concurrent process may have already moved or replaced it.
func (s *Store) quarantine(key, path string) {
	base := filepath.Join(s.dir, "quarantine", key)
	dest := base + ".json"
	for n := 1; ; n++ {
		if _, err := os.Lstat(dest); errors.Is(err, fs.ErrNotExist) {
			break
		}
		dest = fmt.Sprintf("%s-%d.json", base, n)
	}
	_ = os.Rename(path, dest)
}

// objectPath returns the sharded artifact path for key.
func (s *Store) objectPath(key string) string {
	shard := "00"
	if len(key) >= 2 {
		shard = key[:2]
	}
	return filepath.Join(s.dir, "objects", shard, key+".json")
}

func journalPath(dir string) string { return filepath.Join(dir, "journal.log") }

// decodeArtifact verifies and decodes one artifact, returning the result and
// the key the artifact embeds (set, once the layout splits, even when
// verification fails). The schema tag is read first: another tag is
// ErrUnknownSchema whatever follows it. wantKey, when non-empty, must match
// the embedded key (a mismatch means the file was stored under the wrong
// name — corrupt). The result is hashed once and parsed once.
func decodeArtifact(data []byte, wantKey string) (*sim.Result, string, error) {
	rest, ok := bytes.CutPrefix(data, []byte(layoutSchema))
	end := bytes.IndexByte(rest, '"')
	if !ok || end <= 0 {
		return nil, "", fmt.Errorf("%w: missing schema tag", ErrCorrupt)
	}
	if tag := rest[:end]; string(tag) != ArtifactSchema {
		return nil, "", fmt.Errorf("%w %q (this build reads %s)", ErrUnknownSchema, tag, ArtifactSchema)
	}
	rest, okKey := bytes.CutPrefix(rest[end:], []byte(layoutKey))
	k, rest, okSum := bytes.Cut(rest, []byte(layoutSHA256))
	sum, payload, okResult := bytes.Cut(rest, []byte(layoutResult))
	payload, okEnd := bytes.CutSuffix(payload, []byte(layoutEnd))
	if !okKey || !okSum || !okResult || !okEnd || !plain(k) || !plain(sum) ||
		len(payload) == 0 || payload[0] != '{' || payload[len(payload)-1] != '}' {
		return nil, "", fmt.Errorf("%w: not the %s layout", ErrCorrupt, ArtifactSchema)
	}
	key := string(k)
	if wantKey != "" && key != wantKey {
		return nil, key, fmt.Errorf("%w: artifact keyed %s stored under %s", ErrCorrupt, key, wantKey)
	}
	if got := sha256.Sum256(payload); hex.EncodeToString(got[:]) != string(sum) {
		return nil, key, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	res, err := decodeResult(payload)
	if err != nil {
		return nil, key, fmt.Errorf("%w: decoding result: %v", ErrCorrupt, err)
	}
	return res, key, nil
}

// plain reports whether s is printable ASCII that json.Marshal writes
// verbatim: no quote, backslash (an escape), <, > or &.
func plain(s []byte) bool {
	for _, c := range s {
		if c < ' ' || c > '~' || strings.IndexByte(`"\<>&`, c) >= 0 {
			return false
		}
	}
	return true
}

// ReadArtifact verifies and decodes the artifact file at path, returning the
// result and the job key it was stored for. Errors wrap ErrCorrupt or
// ErrUnknownSchema.
func ReadArtifact(path string) (*sim.Result, string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", fmt.Errorf("store: reading artifact %s: %w", path, err)
	}
	res, key, verr := decodeArtifact(data, "")
	if verr != nil {
		return nil, key, fmt.Errorf("store: artifact %s: %w", path, verr)
	}
	return res, key, nil
}

// appendJournal writes one journal line. Appends are a single small write on
// an O_APPEND descriptor, so concurrent writers never interleave bytes.
func (s *Store) appendJournal(op, key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return fmt.Errorf("store: journal closed")
	}
	//simlint:ignore lockscope the lock keeps Close from releasing the descriptor mid-append; the write is one small append on an O_APPEND fd, bounded, not network IO
	if _, err := s.journal.Write([]byte(op + " " + key + "\n")); err != nil {
		return fmt.Errorf("store: journal append: %w", err)
	}
	return nil
}

// headerBytes is as much of the journal's first line as the header check
// reads: the tag with room to spare, however long the line.
const headerBytes = 64

// checkHeader refuses a journal whose first line carries another build's tag;
// head is the file's first bytes, at most headerBytes of them. A first line
// that is a prefix of journalSchema is this build's header, torn: sealed, it
// stays a header, never a foreign one.
func checkHeader(path string, head []byte) error {
	tag, _, _ := strings.Cut(string(head), "\n")
	if strings.HasPrefix(tag, "scalesim/journal/") && !strings.HasPrefix(journalSchema, tag) {
		return fmt.Errorf("store: journal %s: %w %q (this build reads %s)", path, ErrUnknownSchema, tag, journalSchema)
	}
	return nil
}

// replayJournal is Check's reading of the journal: the keys started but
// never finished (interrupted). A partial trailing line — a crash mid-append
// no Open has sealed yet — is ignored, and lines that are not records (the
// header, damage) are skipped. A journal checkHeader refuses is an error:
// replaying it could misclassify every job.
func replayJournal(path string) (map[string]bool, error) {
	started := map[string]bool{}
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return started, nil
		}
		return nil, fmt.Errorf("store: reading journal: %w", err)
	}
	if err := checkHeader(path, data[:min(len(data), headerBytes)]); err != nil {
		return nil, err
	}
	lines := strings.Split(string(data), "\n")
	// A line is complete only if a newline terminated it: after Split, the
	// final element is either "" (clean tail) or a partial line to ignore.
	for _, line := range lines[:len(lines)-1] {
		op, key, ok := strings.Cut(line, " ")
		if !ok || key == "" {
			continue // the header, or damage: tolerate
		}
		switch op {
		case "start":
			started[key] = true
		case "done", "fail":
			delete(started, key)
		}
	}
	return started, nil
}

// CheckInfo is an offline store inspection report (see Check).
type CheckInfo struct {
	Artifacts   int      // artifacts that verified cleanly
	Corrupt     int      // artifacts failing verification (left in place)
	CorruptKeys []string // their keys (from the file name), sorted
	Quarantined int      // artifacts previously moved to quarantine/
	Interrupted int      // journal entries started but never finished
	Bytes       int64    // total artifact bytes (clean + corrupt)
}

// Check verifies every artifact in the store at dir without modifying
// anything: no quarantining, no journal writes. It reports per-artifact
// verification failures in the counts rather than as errors; the returned
// error is non-nil only when the store itself cannot be read. It is the
// journal's one reader.
func Check(dir string) (CheckInfo, error) {
	var info CheckInfo
	objects := filepath.Join(dir, "objects")
	err := filepath.WalkDir(objects, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if d.IsDir() || !strings.HasSuffix(d.Name(), ".json") || strings.HasPrefix(d.Name(), ".tmp-") {
			return nil
		}
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		info.Bytes += int64(len(data))
		key := strings.TrimSuffix(d.Name(), ".json")
		if _, _, verr := decodeArtifact(data, key); verr != nil {
			info.Corrupt++
			info.CorruptKeys = append(info.CorruptKeys, key)
			return nil
		}
		info.Artifacts++
		return nil
	})
	if err != nil {
		return info, fmt.Errorf("store: checking %s: %w", dir, err)
	}
	sort.Strings(info.CorruptKeys) // WalkDir is lexical already; keep the contract explicit
	if entries, derr := os.ReadDir(filepath.Join(dir, "quarantine")); derr == nil {
		info.Quarantined = len(entries)
	}
	interrupted, err := replayJournal(journalPath(dir))
	info.Interrupted = len(interrupted)
	return info, err
}
