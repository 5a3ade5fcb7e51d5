package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// daemon is a `scalesim serve` child process under test.
type daemon struct {
	cmd  *exec.Cmd
	out  *bytes.Buffer
	addr string
}

// startDaemon re-execs the test binary as `scalesim serve` on an
// ephemeral port and waits until the bound address is published.
func startDaemon(t *testing.T, extra ...string) *daemon {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	args := append([]string{"serve", "-addr", "127.0.0.1:0", "-addrfile", addrFile, "-campaign-workers", "2"}, extra...)
	d := &daemon{cmd: exec.Command(os.Args[0], "-test.run=^$"), out: &bytes.Buffer{}}
	d.cmd.Env = append(os.Environ(), "SCALESIM_CLI_ARGS="+strings.Join(args, " "))
	d.cmd.Stdout = d.out
	d.cmd.Stderr = d.out
	if err := d.cmd.Start(); err != nil {
		t.Fatalf("start serve: %v", err)
	}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			d.cmd.Process.Kill()
			d.cmd.Wait()
		}
	})
	for i := 0; i < 5000; i++ {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			d.addr = string(b)
			return d
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("serve never published its address; output:\n%s", d.out)
	return nil
}

// stop sends SIGINT and waits for a clean drain.
func (d *daemon) stop(t *testing.T) string {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatalf("signal serve: %v", err)
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("serve exited uncleanly after SIGINT: %v\n%s", err, d.out)
	}
	return d.out.String()
}

// TestServeAndRequestEndToEnd drives the daemon exactly as a shell user
// would: start `scalesim serve` against a store, submit requests with
// `scalesim request`, drain it with SIGINT, then restart a fresh replica
// on the same store and watch the design point come back from disk.
func TestServeAndRequestEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("re-executes the test binary")
	}
	storeDir := filepath.Join(t.TempDir(), "store")
	d := startDaemon(t, "-store", storeDir)

	request := func(client string) string {
		out, code := runCLI(t, "request", "-server", "http://"+d.addr,
			"-machine", "1:PRS", "-bench", "mcf", "-fast", "-client", client)
		if code != 0 {
			t.Fatalf("request exited %d:\n%s", code, out)
		}
		if !strings.Contains(out, "average IPC:") {
			t.Fatalf("request output lacks the result table:\n%s", out)
		}
		return out
	}

	if out := request("a"); !strings.Contains(out, "server: compute") {
		t.Errorf("first request not computed:\n%s", out)
	}
	if out := request("b"); !strings.Contains(out, "server: memory") {
		t.Errorf("repeat request not served from memory:\n%s", out)
	}

	logs := d.stop(t)
	if !strings.Contains(logs, "drained; final stats:") {
		t.Errorf("serve did not report a drained shutdown:\n%s", logs)
	}

	// A fresh replica on the same store serves the point from disk.
	d2 := startDaemon(t, "-store", storeDir)
	out, code := runCLI(t, "request", "-server", "http://"+d2.addr,
		"-machine", "1:PRS", "-bench", "mcf", "-fast")
	if code != 0 {
		t.Fatalf("request to replica exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "server: disk") {
		t.Errorf("replica request not served from the shared store:\n%s", out)
	}
	d2.stop(t)
}

// TestRequestWithoutServerFails: the client reports a clean error when no
// daemon is listening.
func TestRequestWithoutServerFails(t *testing.T) {
	if testing.Short() {
		t.Skip("re-executes the test binary")
	}
	out, code := runCLI(t, "request", "-server", "http://127.0.0.1:1", "-bench", "mcf", "-fast")
	if code == 0 {
		t.Fatalf("request with no server exited 0:\n%s", out)
	}
}

// TestRequestRefusesMalformedResponse: a 200 answer with no outcome, or
// with an outcome that carries neither a result nor an error, fails the
// client with a message naming what is missing instead of a panic.
func TestRequestRefusesMalformedResponse(t *testing.T) {
	for name, body := range map[string]string{
		"no outcome":               `{"schema":"scalesim/api/v1","outcomes":[],"stats":{}}`,
		"neither result nor error": `{"schema":"scalesim/api/v1","outcomes":[{"job":0}],"stats":{}}`,
	} {
		t.Run(name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				io.WriteString(w, body)
			}))
			defer srv.Close()
			out, code := runCLI(t, "request", "-server", srv.URL, "-bench", "mcf", "-fast")
			if code != 1 || strings.Contains(out, "panic:") {
				t.Fatalf("exit %d, want a clean refusal (exit 1):\n%s", code, out)
			}
		})
	}
}
