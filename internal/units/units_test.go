package units

import (
	"encoding/json"
	"fmt"
	"testing"
)

func TestConversions(t *testing.T) {
	// 16 GB/s at 2 GHz is 8 bytes/cycle.
	bw := FromGBps(16, 2)
	if bw != 8 {
		t.Fatalf("FromGBps(16, 2) = %v, want 8", float64(bw))
	}
	// Moving 64 bytes at 8 B/cyc takes 8 cycles.
	if got := bw.Transfer(64); got != 8 {
		t.Fatalf("Transfer(64) = %v, want 8", float64(got))
	}
	// 8 B/cyc over 1000 cycles moves 8000 bytes.
	if got := bw.Capacity(1000); got != 8000 {
		t.Fatalf("Capacity(1000) = %v, want 8000", float64(got))
	}
	// 8000 bytes over 1000 cycles is 8 B/cyc again.
	if got := Bytes(8000).Per(1000); got != bw {
		t.Fatalf("Per round-trip = %v, want %v", float64(got), float64(bw))
	}
	// One cycle at 2 GHz lasts 500 ps.
	if got := Cycles(1).AtGHz(2); got != 500 {
		t.Fatalf("AtGHz(2) = %v, want 500", float64(got))
	}
	if got := Picoseconds(1e12).Seconds(); got != 1 {
		t.Fatalf("Seconds() = %v, want 1", got)
	}
	if got := Cycles(10).Scale(2.5); got != 25 {
		t.Fatalf("Cycles.Scale = %v, want 25", float64(got))
	}
	if got := Bytes(10).Scale(0.5); got != 5 {
		t.Fatalf("Bytes.Scale = %v, want 5", float64(got))
	}
	if got := BytesPerCycle(4).Scale(3); got != 12 {
		t.Fatalf("BytesPerCycle.Scale = %v, want 12", float64(got))
	}
}

// TestFormatTransparency pins the property the durable-store cache keys and
// on-disk artifacts depend on: a unit type must format with %v and marshal to
// JSON byte-identically to the plain float64 it wraps. Adding a String or
// MarshalJSON method to any unit type breaks this test — and silently
// invalidates every key ever written by internal/runner/key.go.
func TestFormatTransparency(t *testing.T) {
	values := []float64{0, 1, 0.5, 20000, 1e6, 123456.789, 1.0 / 3.0}
	for _, v := range values {
		if got, want := fmt.Sprintf("%v", Cycles(v)), fmt.Sprintf("%v", v); got != want {
			t.Errorf("%%v of Cycles(%v) = %q, want %q", v, got, want)
		}
		jc, err := json.Marshal(Cycles(v))
		if err != nil {
			t.Fatal(err)
		}
		jf, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if string(jc) != string(jf) {
			t.Errorf("json of Cycles(%v) = %s, want %s", v, jc, jf)
		}
	}
	if got, want := fmt.Sprintf("%v", Bytes(72)), "72"; got != want {
		t.Errorf("%%v of Bytes(72) = %q, want %q", got, want)
	}
	if got, want := fmt.Sprintf("%v", BytesPerCycle(2.5)), "2.5"; got != want {
		t.Errorf("%%v of BytesPerCycle(2.5) = %q, want %q", got, want)
	}
}
