//go:build !unix

package scalesim

import (
	"testing"
	"time"
)

// processCPU reads no CPU time where getrusage is missing, so a benchmark's
// cpu-ms/op and util read 0 there.
func processCPU(*testing.B) time.Duration { return 0 }
