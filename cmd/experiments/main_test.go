package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-exec this binary as the CLI: when
// EXPERIMENTS_CLI_ARGS is set the process runs main() with those arguments
// instead of the test suite.
func TestMain(m *testing.M) {
	if args := os.Getenv("EXPERIMENTS_CLI_ARGS"); args != "" {
		os.Args = append([]string{"experiments"}, strings.Split(args, " ")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFigsRefusesUnknownIDs: -figs with an id that names nothing exits
// non-zero and lists the valid ids; Table I's id "1" runs.
func TestFigsRefusesUnknownIDs(t *testing.T) {
	run := func(figs string) (string, int) {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), "EXPERIMENTS_CLI_ARGS=-fast -figs "+figs)
		out, err := cmd.CombinedOutput()
		if ee, ok := err.(*exec.ExitError); ok {
			return string(out), ee.ExitCode()
		} else if err != nil {
			t.Fatalf("re-exec -figs %s: %v", figs, err)
		}
		return string(out), 0
	}
	for _, figs := range []string{"13", "abl", "3,13"} {
		out, code := run(figs)
		if code == 0 || !strings.Contains(out, "valid ids: 1,3,4,5,6,7,8,9,10,11,12,mt,ablations,prefetch,speedup") {
			t.Errorf("-figs %s: exit %d, output\n%s", figs, code, out)
		}
	}
	if out, code := run("1"); code != 0 || !strings.Contains(out, "Table I") {
		t.Errorf("-figs 1: exit %d, output\n%s", code, out)
	}
}
