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
// artifact under its final name. The journal is append-only; a partial
// trailing line (the signature of a crash mid-append) is tolerated and
// ignored on replay. A campaign killed between journal "start" and "done"
// leaves the key in the interrupted set: its artifact does not exist, so a
// resumed campaign recomputes exactly that job and nothing else.
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

// envelope is the on-disk artifact format: the schema tag, the job key the
// artifact was stored under, a SHA-256 over the serialised result bytes, and
// the result itself.
type envelope struct {
	Schema string          `json:"schema"`
	Key    string          `json:"key"`
	SHA256 string          `json:"sha256"`
	Result json.RawMessage `json:"result"`
}

// Stats counts a store handle's activity since Open.
type Stats struct {
	Hits        int // artifacts served
	Misses      int // lookups with no (usable) artifact
	Writes      int // artifacts written
	Corrupt     int // artifacts quarantined after failed verification
	Interrupted int // jobs the journal shows started but never finished (at Open)
}

// Store is a handle on one store directory. It is safe for concurrent use
// within a process; distinct processes may share a directory (artifact
// writes are atomic and journal appends use O_APPEND).
type Store struct {
	dir string

	mu          sync.Mutex
	journal     *os.File
	interrupted map[string]bool // keys started but never finished before Open
	stats       Stats
}

// Open opens (creating if necessary) the store rooted at dir and replays its
// journal. Keys recorded as started but never finished — an earlier campaign
// killed mid-flight — are reported by Interrupted and in Stats.Interrupted.
func Open(dir string) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, "objects"), filepath.Join(dir, "quarantine")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: creating %s: %w", d, err)
		}
	}
	interrupted, err := replayJournal(journalPath(dir))
	if err != nil {
		return nil, err
	}
	j, err := os.OpenFile(journalPath(dir), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening journal: %w", err)
	}
	if fi, err := j.Stat(); err == nil && fi.Size() == 0 {
		if _, err := j.Write([]byte(journalSchema + "\n")); err != nil {
			j.Close()
			return nil, fmt.Errorf("store: writing journal header: %w", err)
		}
	}
	return &Store{
		dir:         dir,
		journal:     j,
		interrupted: interrupted,
		stats:       Stats{Interrupted: len(interrupted)},
	}, nil
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

// Stats returns a snapshot of the handle's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Interrupted returns the sorted keys an earlier campaign started but never
// finished (per the journal at Open time). Their artifacts do not exist, so
// a resumed campaign recomputes exactly these jobs.
func (s *Store) Interrupted() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.interrupted))
	//simlint:ignore maporder keys are sorted immediately below
	for k := range s.interrupted {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Begin journals that a job is about to compute. If the process dies before
// Save or Fail, replay reports the key as interrupted.
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
	payload, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("store: encoding result for %s: %w", key, err)
	}
	sum := sha256.Sum256(payload)
	data, err := json.Marshal(envelope{
		Schema: ArtifactSchema,
		Key:    key,
		SHA256: hex.EncodeToString(sum[:]),
		Result: payload,
	})
	if err != nil {
		return fmt.Errorf("store: encoding artifact for %s: %w", key, err)
	}
	data = append(data, '\n')

	path := s.objectPath(key)
	shard := filepath.Dir(path)
	if err := os.MkdirAll(shard, 0o755); err != nil {
		return fmt.Errorf("store: creating shard %s: %w", shard, err)
	}
	tmp, err := os.CreateTemp(shard, ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: creating temp artifact: %w", err)
	}
	if _, err := tmp.Write(data); err == nil {
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
	syncDir(shard) // best-effort: make the rename itself durable

	s.count(func(st *Stats) { st.Writes++ })
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
		s.count(func(st *Stats) { st.Misses++ })
		if errors.Is(rerr, fs.ErrNotExist) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("store: reading artifact %s: %w", path, rerr)
	}
	res, _, verr := decodeArtifact(data, key)
	if verr != nil {
		s.quarantine(key, path)
		s.count(func(st *Stats) { st.Misses++; st.Corrupt++ })
		return nil, false, fmt.Errorf("store: artifact %s quarantined: %w", filepath.Base(path), verr)
	}
	s.count(func(st *Stats) { st.Hits++ })
	return res, true, nil
}

// count mutates the stats under the lock.
func (s *Store) count(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
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
	return objectPath(s.dir, key)
}

func objectPath(dir, key string) string {
	shard := "00"
	if len(key) >= 2 {
		shard = key[:2]
	}
	return filepath.Join(dir, "objects", shard, key+".json")
}

func journalPath(dir string) string { return filepath.Join(dir, "journal.log") }

// decodeArtifact verifies and decodes one artifact, returning the result and
// the key the envelope embeds (set, once the envelope parses, even when
// verification fails). wantKey, when non-empty, must match the embedded key
// (a mismatch means the file was stored under the wrong name — corrupt).
func decodeArtifact(data []byte, wantKey string) (*sim.Result, string, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, "", fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if env.Schema != ArtifactSchema {
		if env.Schema == "" {
			return nil, env.Key, fmt.Errorf("%w: missing schema tag", ErrCorrupt)
		}
		return nil, env.Key, fmt.Errorf("%w %q (this build reads %s)", ErrUnknownSchema, env.Schema, ArtifactSchema)
	}
	if wantKey != "" && env.Key != wantKey {
		return nil, env.Key, fmt.Errorf("%w: artifact keyed %s stored under %s", ErrCorrupt, env.Key, wantKey)
	}
	sum := sha256.Sum256(env.Result)
	if hex.EncodeToString(sum[:]) != env.SHA256 {
		return nil, env.Key, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	var res sim.Result
	if err := json.Unmarshal(env.Result, &res); err != nil {
		return nil, env.Key, fmt.Errorf("%w: decoding result: %v", ErrCorrupt, err)
	}
	return &res, env.Key, nil
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

// syncDir fsyncs a directory so a completed rename survives power loss.
// Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// appendJournal writes one journal line. Appends are a single small write on
// an O_APPEND descriptor, so concurrent writers never interleave bytes.
func (s *Store) appendJournal(op, key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return fmt.Errorf("store: journal closed")
	}
	//simlint:ignore lockscope journal lines must be ordered exactly like the map mutations they record; the write is one small append on an O_APPEND fd, bounded, not network IO
	if _, err := s.journal.Write([]byte(op + " " + key + "\n")); err != nil {
		return fmt.Errorf("store: journal append: %w", err)
	}
	return nil
}

// replayJournal reads the journal and returns the keys started but never
// finished (interrupted). A
// partial trailing line — a crash mid-append — is ignored; unknown complete
// lines are skipped (crash tolerance). A journal headed by a schema tag this
// build does not understand is an error: replaying it could misclassify
// every job.
func replayJournal(path string) (interrupted map[string]bool, err error) {
	started := map[string]bool{}
	data, rerr := os.ReadFile(path)
	if rerr != nil {
		if errors.Is(rerr, fs.ErrNotExist) {
			return started, nil
		}
		return nil, fmt.Errorf("store: reading journal: %w", rerr)
	}
	lines := strings.Split(string(data), "\n")
	// A line is complete only if a newline terminated it: after Split, the
	// final element is either "" (clean tail) or a partial line to ignore.
	complete := lines[:len(lines)-1]
	for i, line := range complete {
		if line == "" || line == journalSchema {
			continue
		}
		if i == 0 && strings.HasPrefix(line, "scalesim/journal/") {
			return nil, fmt.Errorf("store: journal %s: %w %q (this build reads %s)",
				path, ErrUnknownSchema, line, journalSchema)
		}
		op, key, ok := strings.Cut(line, " ")
		if !ok || key == "" {
			continue // damaged line: tolerate
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
// error is non-nil only when the store itself cannot be read.
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
	interrupted, jerr := replayJournal(journalPath(dir))
	if jerr != nil {
		return info, jerr
	}
	info.Interrupted = len(interrupted)
	return info, nil
}
