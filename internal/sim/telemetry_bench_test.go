package sim

import (
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/trace"
)

// The telemetry benchmarks pin the observability layer's cost contract:
// compare Off against On to see the enabled cost (a few percent), and Off
// across commits to confirm the disabled path stays free (one nil check
// per epoch).
func benchRun(b *testing.B, opts Options) {
	sm, err := config.ScaleModel(config.Target(), 4, config.ScaleModelOptions{Policy: config.PRSFull})
	if err != nil {
		b.Fatal(err)
	}
	wl := Homogeneous(trace.ByName("mcf"), 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(sm, wl, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTelemetryOff(b *testing.B) { benchRun(b, fastOpts()) }
func BenchmarkTelemetryOn(b *testing.B)  { benchRun(b, tracedOpts(false)) }
