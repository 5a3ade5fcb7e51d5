package main

import (
	"flag"
	"io"
	"testing"
)

// TestCampaignWorkersFlagDoesNotWarn pins the job-level knob's one
// spelling: -campaign-workers lands in Tuning.CampaignWorkers, and the
// retired -workers alias is an unknown flag, not a silent synonym.
func TestCampaignWorkersFlagDoesNotWarn(t *testing.T) {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	tuning := tuningFlags(fs, true)
	if err := fs.Parse([]string{"-campaign-workers", "4"}); err != nil {
		t.Fatalf("parse: %v", err)
	}
	if tun := tuning(); tun == nil || tun.CampaignWorkers != 4 {
		t.Fatalf("tuning after -campaign-workers 4: %+v", tun)
	}

	old := flag.NewFlagSet("serve", flag.ContinueOnError)
	old.SetOutput(io.Discard)
	tuningFlags(old, true)
	if err := old.Parse([]string{"-workers", "3"}); err == nil {
		t.Error("-workers still parses; the alias was removed in favour of -campaign-workers")
	}
}
