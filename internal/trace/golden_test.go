package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// streamDigest hashes the first instrs instructions of g exactly as
// cpu.Core.step consumes them: one NextIFetch ahead of every 16th Next.
// Every field of every result enters the hash, so any drift in the kind
// schedule, an address, a dependence flag or a branch outcome changes it.
func streamDigest(g *Generator, instrs int) string {
	h := sha256.New()
	buf := make([]byte, 0, 1<<16)
	flag := func(b bool) byte {
		if b {
			return 1
		}
		return 0
	}
	sinceIFetch := 0
	for i := 0; i < instrs; i++ {
		sinceIFetch++
		if sinceIFetch >= 16 {
			sinceIFetch = 0
			addr, jump := g.NextIFetch()
			buf = binary.LittleEndian.AppendUint64(buf, addr)
			buf = append(buf, flag(jump))
		}
		op := g.Next()
		buf = append(buf, byte(op.Kind), flag(op.Dependent), flag(op.Taken))
		buf = binary.LittleEndian.AppendUint64(buf, op.Addr)
		buf = binary.LittleEndian.AppendUint64(buf, op.BranchPC)
		if len(buf) > cap(buf)-64 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGoldenOpStreams pins the instruction streams the simulator executes:
// SHA-256 over the first 200 000 instructions (with their interleaved
// I-fetches) of every suite profile, for the first and last core of the
// 32-core target and both capacity scales the experiments use. The fixture
// was recorded before the generator's hot path was optimised; a change that
// makes Next or NextIFetch faster must leave it untouched. Like
// internal/xrand's, it is regenerated only deliberately, with
// SCALESIM_UPDATE_GOLDEN=1 go test ./internal/trace — which invalidates
// every archived experiment. Under -short (the race-detector gate) only
// the instance-0, scale-16 quarter of the fixture is recomputed.
func TestGoldenOpStreams(t *testing.T) {
	const instrs = 200_000
	update := os.Getenv("SCALESIM_UPDATE_GOLDEN") == "1"
	var lines []string
	for _, p := range Suite() {
		for _, instance := range []int{0, 31} {
			for _, scale := range []int{8, 16} {
				if testing.Short() && !update && (instance != 0 || scale != 16) {
					lines = append(lines, "")
					continue
				}
				g, err := NewGenerator(p, GenOptions{Instance: instance, CapacityScale: scale, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				lines = append(lines, fmt.Sprintf("%s instance=%d scale=%d %s", p.Name, instance, scale, streamDigest(g, instrs)))
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "streams.golden")
	if update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read fixture (regenerate with SCALESIM_UPDATE_GOLDEN=1): %v", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("fixture has %d streams, generator produced %d", len(wantLines), len(lines))
	}
	for i := range lines {
		if lines[i] != "" && lines[i] != wantLines[i] {
			t.Errorf("stream drifted:\n got  %s\n want %s", lines[i], wantLines[i])
		}
	}
}
