package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"scalesim/internal/sim"
	"scalesim/internal/store"
)

// TestMain lets a test re-exec this binary as the CLI: when
// SCALESIM_CLI_ARGS is set the process runs main() with those arguments
// instead of the test suite, so exit codes and output are observed exactly
// as a shell would see them.
func TestMain(m *testing.M) {
	if args := os.Getenv("SCALESIM_CLI_ARGS"); args != "" {
		os.Args = append([]string{"scalesim"}, strings.Split(args, " ")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI re-executes the test binary as `scalesim <args...>` and returns its
// combined output and exit code.
func runCLI(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "SCALESIM_CLI_ARGS="+strings.Join(args, " "))
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("re-exec %v: %v\n%s", args, err, out)
	}
	return string(out), ee.ExitCode()
}

// seedStore creates a store at dir holding one verified artifact under key.
func seedStore(t *testing.T, dir, key string) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Begin(key); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(key, &sim.Result{ConfigName: "test"}); err != nil {
		t.Fatal(err)
	}
}

// artifactPath mirrors the store's sharded object layout.
func artifactPath(dir, key string) string {
	return filepath.Join(dir, "objects", key[:2], key+".json")
}

func TestStoreVerifyClean(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, "abcd1234")
	out, code := runCLI(t, "store", "-dir", dir)
	if code != 0 {
		t.Fatalf("clean store exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "1 verified artifacts") {
		t.Errorf("output lacks verified-artifact count:\n%s", out)
	}
	if !strings.Contains(out, "0 corrupt, 0 quarantined, 0 interrupted") {
		t.Errorf("output lacks clean counts:\n%s", out)
	}
}

func TestStoreQuarantinedArtifactStillExitsZero(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, "abcd1234")
	qdir := filepath.Join(dir, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(qdir, "old.json"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := runCLI(t, "store", "-dir", dir)
	if code != 0 {
		t.Fatalf("quarantined-only store exited %d; quarantine holds already-handled damage:\n%s", code, out)
	}
	if !strings.Contains(out, "1 quarantined") {
		t.Errorf("output lacks quarantine count:\n%s", out)
	}
}

func TestStoreCorruptArtifactExitsOne(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, "abcd1234")
	if err := os.WriteFile(artifactPath(dir, "abcd1234"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := runCLI(t, "store", "-dir", dir)
	if code != 1 {
		t.Fatalf("corrupt store exited %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "corrupt: abcd1234") {
		t.Errorf("output does not name the corrupt key:\n%s", out)
	}
}

func TestStoreUnknownArtifactSchemaExitsOne(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, "abcd1234")
	env, err := json.Marshal(map[string]any{"schema": "scalesim/store/v99", "key": "abcd1234"})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(artifactPath(dir, "abcd1234"), env, 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := runCLI(t, "store", "-dir", dir)
	if code != 1 {
		t.Fatalf("unknown-schema artifact exited %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "1 corrupt") {
		t.Errorf("unknown-schema artifact not counted corrupt:\n%s", out)
	}
}

func TestStoreUnknownJournalSchemaExitsOne(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, "abcd1234")
	if err := os.WriteFile(filepath.Join(dir, "journal.log"), []byte("scalesim/journal/v99\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := runCLI(t, "store", "-dir", dir)
	if code != 1 {
		t.Fatalf("unknown journal schema exited %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "unknown schema") {
		t.Errorf("output does not report the schema failure:\n%s", out)
	}
}

func TestStoreMissingDirFlagExitsNonzero(t *testing.T) {
	out, code := runCLI(t, "store")
	if code == 0 {
		t.Fatalf("store without -dir exited 0:\n%s", out)
	}
	if !strings.Contains(out, "-dir is required") {
		t.Errorf("output lacks the usage hint:\n%s", out)
	}
}

// TestTraceFileRoundTrip drives the trace path end to end: simulate writes a
// JSONL trace and prints its summary, stats reads the file back and prints
// every core and the shared NoC and DRAM rows, and a file without the schema
// header is refused naming the schema.
func TestTraceFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "trace.jsonl")
	out, code := runCLI(t, "simulate", "-fast", "-machine", "2:PRS", "-bench", "mcf,gcc", "-trace", file, "-stats")
	if code != 0 || !strings.Contains(out, "trace summary") {
		t.Fatalf("simulate -trace -stats exited %d:\n%s", code, out)
	}
	out, code = runCLI(t, "stats", "-trace", file)
	if code != 0 {
		t.Fatalf("stats exited %d:\n%s", code, out)
	}
	for _, want := range []string{"0 mcf", "1 gcc", "noc:", "dram:"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output lacks %q:\n%s", want, out)
		}
	}

	body, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	_, snapshots, _ := strings.Cut(string(body), "\n")
	headerless := filepath.Join(dir, "headerless.jsonl")
	if err := os.WriteFile(headerless, []byte(snapshots), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code = runCLI(t, "stats", "-trace", headerless)
	if code == 0 || !strings.Contains(out, "scalesim/trace/v1") {
		t.Errorf("headerless trace: stats exited %d:\n%s", code, out)
	}
}
