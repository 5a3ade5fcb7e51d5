// Command scalebench is the repository's benchmark: five workloads that
// each stress a different part of the stack (wire API, admission queue,
// memory/disk/model/compute lookup, epoch simulator and its substrates),
// end-to-end metrics with tracing off, and a per-layer ledger from a
// separate traced run. BENCHMARK.json at the repository root declares the
// workloads and metrics; bench/README.md explains them.
//
// Everything runs in this one foreground process. Servers are in-process
// and loopback-only, every temp dir lives below -trace-out and is removed
// on every exit path, and the process refuses to outlive its budget or its
// parent.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"scalesim"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		names    = flag.String("workload", "", "comma-separated workload names (default: all five)")
		seed     = flag.Uint64("seed", 1, "drives mix selection, key order and request scripts")
		seconds  = flag.Float64("seconds", 10, "nominal length of one timed phase on the 2-CPU reference box; every operation count scales with it")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		traceOut = flag.String("trace-out", "", "directory for span JSONL and temp dirs (default bench/out at the repository root)")
		budget   = flag.Duration("budget", 170*time.Second, "watchdog: cancel the run and exit non-zero after this long")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: scalebench [-workload a,b] [-seed n] [-seconds s] [-trace 0|1] [-trace-out dir] [-budget d]")
		return 2
	}
	cfg := runConfig{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, OutDir: *traceOut, Setups: 3, Sim: scalesim.FastOptions()}
	if *names != "" {
		cfg.Workloads = strings.Split(*names, ",")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, *budget)
	defer cancel()
	go watchParent(ctx, cancel)
	// Cancellation is cooperative; if the clean-up it triggers hangs too,
	// leave anyway rather than linger.
	hard := time.AfterFunc(*budget+10*time.Second, func() {
		fmt.Fprintln(os.Stderr, "scalebench: watchdog: clean-up did not finish, exiting")
		os.Exit(3)
	})
	defer hard.Stop()

	rep, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scalebench:", err)
		return 1
	}
	printTable(os.Stderr, rep)
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "scalebench:", err)
		return 1
	}
	res := rep.result()
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "scalebench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// watchParent cancels the run when the process that started it goes away:
// `go run` does not forward SIGTERM, so a killed parent would otherwise
// leave this process running unattended.
func watchParent(ctx context.Context, cancel context.CancelFunc) {
	parent := os.Getppid()
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			if os.Getppid() != parent {
				fmt.Fprintln(os.Stderr, "scalebench: parent process exited, stopping")
				cancel()
				return
			}
		}
	}
}
