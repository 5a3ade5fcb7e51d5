package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"scalesim"
	apiv1 "scalesim/api/v1"
	"scalesim/internal/server"
)

// cmdServe runs the campaign service: an HTTP daemon that executes
// simulate requests through the shared memoization hierarchy, coalescing
// identical concurrent requests and shedding load past the queue bound.
// SIGINT/SIGTERM drains gracefully: in-flight jobs finish (and persist to
// the store) before the process exits.
func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8023", "listen address (port 0 picks an ephemeral port)")
	addrFile := fs.String("addrfile", "", "write the bound address to FILE once listening (for scripts using port 0)")
	queue := fs.Int("queue", server.DefaultQueueDepth, "admission queue depth; beyond it requests are shed with 429")
	storeDir := fs.String("store", "", "durable result store directory, shareable between replicas")
	drainTimeout := fs.Duration("drain-timeout", 0, "bound on the graceful drain (0 waits for in-flight jobs)")
	surrogate := surrogateFlags(fs)
	tuning := tuningFlags(fs, true)
	_ = fs.Parse(args)

	tun := tuning()
	// The server's simulation bound is the job-level knob, resolved here the
	// way the server and the engine resolve auto so the listen line states
	// the effective count; the rest of the tuning (the CoreWorkers default
	// for served jobs) rides into the service.
	workers := runtime.GOMAXPROCS(0)
	if tun != nil && tun.CampaignWorkers > 0 {
		workers = tun.CampaignWorkers
	}
	svc, err := scalesim.NewService(scalesim.ServiceConfig{Store: *storeDir, Surrogate: surrogate(), Tuning: tun})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()

	cfg := server.Config{
		Workers:      workers,
		QueueDepth:   *queue,
		DrainTimeout: *drainTimeout,
		OnListen: func(a net.Addr) {
			log.Printf("serving on %s (workers %d, queue %d)", a, workers, *queue)
			if *addrFile != "" {
				if err := os.WriteFile(*addrFile, []byte(a.String()), 0o644); err != nil {
					log.Fatalf("writing -addrfile: %v", err)
				}
			}
		},
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := server.ListenAndServeContext(ctx, *addr, server.NewServiceBackend(svc), cfg); err != nil {
		log.Fatal(err)
	}
	log.Printf("drained; final stats: %s", svc.Stats())
}

// cmdRequest is the wire client: submit one design point to a running
// `scalesim serve` daemon and print the outcome like `simulate` does.
func cmdRequest(args []string) {
	fs := flag.NewFlagSet("request", flag.ExitOnError)
	serverURL := fs.String("server", "http://127.0.0.1:8023", "base URL of the scalesim serve daemon")
	machine := fs.String("machine", "1:PRS", "machine spec: <cores>[:<policy>]")
	bench := fs.String("bench", "", "workload: comma-separated benchmarks, 'name xN' repeats")
	bwOrder := fs.String("bw", string(scalesim.BandwidthMCFirst), "DRAM bandwidth scaling order")
	fast := fs.Bool("fast", false, "reduced fidelity")
	client := fs.String("client", "", "client identity for fair admission (empty = anonymous)")
	_ = fs.Parse(args)

	wl, err := parseWorkload(*bench)
	if err != nil {
		log.Fatal(err)
	}
	m, err := parseMachine(*machine)
	if err != nil {
		log.Fatal(err)
	}
	m.Bandwidth = scalesim.Bandwidth(*bwOrder)

	job := scalesim.CampaignJob{Machine: m, Benchmarks: wl, Options: options(*fast)}
	var buf bytes.Buffer
	if err := apiv1.Encode(&buf, apiv1.NewJobRequest(*client, []scalesim.CampaignJob{job})); err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(*serverURL+"/v1/jobs", "application/json", &buf)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()

	if resp.StatusCode != http.StatusOK {
		apiErr, derr := apiv1.DecodeErrorResponse(resp.Body)
		if derr != nil {
			log.Fatalf("server returned %s (and an undecodable body: %v)", resp.Status, derr)
		}
		if apiErr.RetryAfterSec > 0 {
			log.Fatalf("server returned %s: %s (retry after %ds)", resp.Status, apiErr.Error, apiErr.RetryAfterSec)
		}
		log.Fatalf("server returned %s: %s", resp.Status, apiErr.Error)
	}
	out, err := apiv1.DecodeJobResponse(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if len(out.Outcomes) != 1 {
		log.Fatalf("server answered one job with %d outcomes", len(out.Outcomes))
	}
	oc := out.Outcomes[0]
	if oc.Error != "" {
		log.Fatalf("job failed: %s", oc.Error)
	}
	if oc.Result == nil {
		log.Fatalf("server answered the job with neither a result nor an error")
	}
	marker := ""
	if oc.Approximate {
		marker = ", approximate"
	}
	fmt.Printf("server: %s%s (%s)\n", oc.Source, marker, out.Stats)
	printResult(oc.Result)
}

// printResult renders a simulation result the way `simulate` does, so the
// two entry points stay comparable on a terminal.
func printResult(res *scalesim.SimResult) {
	fmt.Printf("machine %s  (DRAM util %.2f, NoC util %.2f, %.2fs wall-clock)\n",
		res.Machine, res.DRAMUtilization, res.NoCUtilization, res.WallClockSec)
	fmt.Printf("  %-4s %-11s %8s %10s %9s %9s\n", "core", "benchmark", "IPC", "LLC MPKI", "BW B/cyc", "mispred")
	for _, c := range res.Cores {
		fmt.Printf("  %-4d %-11s %8.3f %10.2f %9.3f %8.1f%%\n",
			c.Core, c.Benchmark, c.IPC, c.LLCMPKI, c.BWBytesPerCycle, 100*c.BranchMispredictRate)
	}
	fmt.Printf("  average IPC: %.3f\n", res.AverageIPC())
}
