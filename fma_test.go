package scalesim

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// TestNoFusedMultiplyAdd holds the first half of cross-architecture
// determinism. Go may fuse x*y + z into one instruction that rounds once, and
// does on arm64, ppc64le, s390x and riscv64 (never on amd64), so a product
// left bare can give another digest there. An explicit float64(...)
// conversion on the product forbids the fusion. The test cross-compiles every
// non-test package for those four architectures with -gcflags=-S and fails
// on any fused mnemonic, naming its function and line. bench/ and tools/ are
// left out: their products are statistics of host timings, never a result.
// It needs only the Go toolchain, and a cached build replays its -S output.
func TestNoFusedMultiplyAdd(t *testing.T) {
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	list, err := exec.Command(goTool, "list", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var pkgs []string
	for _, p := range strings.Fields(string(list)) {
		if !strings.HasPrefix(p, "scalesim/bench/") && !strings.HasPrefix(p, "scalesim/tools/") {
			pkgs = append(pkgs, p)
		}
	}
	fused := regexp.MustCompile(`\((\S+\.go:\d+)\)\t(FN?M(?:ADD|SUB)[DS]?)\t`)
	for _, arch := range []string{"arm64", "ppc64le", "s390x", "riscv64"} {
		cmd := exec.Command(goTool, append([]string{"build", "-gcflags=-S"}, pkgs...)...)
		cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch, "CGO_ENABLED=0")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s: go build: %v\n%s", arch, err, out)
		}
		fn, n := "", 0
		for _, line := range strings.Split(string(out), "\n") {
			if strings.Contains(line, " STEXT ") {
				fn = strings.Fields(line)[0]
			}
			if m := fused.FindStringSubmatch(line); m != nil {
				t.Errorf("%s: %s in %s at %s: convert the product explicitly", arch, m[2], fn, m[1])
			}
			n += strings.Count(line, " STEXT ")
		}
		if n == 0 {
			t.Fatalf("%s: the build printed no assembly; -gcflags=-S did not reach the packages", arch)
		}
	}
}
