package main

import (
	"flag"
	"log"
	"os"
	"runtime"
	"runtime/pprof"

	"scalesim"
)

// tuningFlags registers the shared performance-tuning flags, following the
// -<subsystem>-<knob> naming convention, and returns a closure producing
// the resulting *scalesim.Tuning after parsing (nil when every knob is
// auto). When campaign is true the job-level knob is registered too, as
// -campaign-workers.
func tuningFlags(fs *flag.FlagSet, campaign bool) func() *scalesim.Tuning {
	core := fs.Int("core-workers", 0, "per-simulation epoch workers (0 = auto; any value yields identical results)")
	var jobs *int
	if campaign {
		jobs = fs.Int("campaign-workers", 0, "concurrent campaign jobs (0 = GOMAXPROCS)")
	}
	return func() *scalesim.Tuning {
		t := &scalesim.Tuning{CoreWorkers: *core}
		if jobs != nil {
			t.CampaignWorkers = *jobs
		}
		if *t == (scalesim.Tuning{}) {
			return nil
		}
		return t
	}
}

// profileFlags registers -cpuprofile and -memprofile on fs. The returned
// start function begins CPU profiling (when requested) and returns a stop
// function to defer: it stops the CPU profile and writes the heap profile
// on the way out.
func profileFlags(fs *flag.FlagSet) func() func() {
	cpu := fs.String("cpuprofile", "", "write a pprof CPU profile to FILE")
	mem := fs.String("memprofile", "", "write a pprof heap profile to FILE at exit")
	return func() func() {
		var f *os.File
		if *cpu != "" {
			var err error
			f, err = os.Create(*cpu)
			if err != nil {
				log.Fatal(err)
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				log.Fatal(err)
			}
		}
		return func() {
			if f != nil {
				pprof.StopCPUProfile()
				if err := f.Close(); err != nil {
					log.Fatal(err)
				}
			}
			if *mem != "" {
				mf, err := os.Create(*mem)
				if err != nil {
					log.Fatal(err)
				}
				runtime.GC() // settle the heap so the profile reflects live data
				if err := pprof.WriteHeapProfile(mf); err != nil {
					log.Fatal(err)
				}
				if err := mf.Close(); err != nil {
					log.Fatal(err)
				}
			}
		}
	}
}
