// Package units defines the named quantity types that flow through the
// simulator core: Cycles, Bytes, BytesPerCycle, and Picoseconds. The interval
// core model, NUCA LLC, mesh NoC, and DRAM queuing model all exchange these
// quantities; making them distinct named types lets the compiler (and the
// simlint "units" analyzer) reject a silent cycles-vs-bytes or
// bandwidth-vs-latency mixup that would skew every extrapolated prediction.
//
// All four types are float64 underneath. Untyped constants still convert
// implicitly (m.EndEpoch(1000) keeps compiling), but two distinct unit types
// never mix in arithmetic without an explicit float64 escape, and the simlint
// "units" analyzer flags those escapes when they recombine across dimensions.
//
// None of these types define a String method, deliberately: the canonical key
// encoder (internal/runner/key.go) prints Options.EpochCycles with %v, and
// store artifacts embed these quantities in JSON. A named float64 without a
// String method formats and marshals byte-identically to a plain float64, so
// cache keys and on-disk artifacts written before this package existed remain
// valid. Do not add String methods.
package units

// Cycles is a duration or timestamp measured in core clock cycles at the
// simulated frequency. It is the simulator's native time axis.
type Cycles float64

// Bytes is a data volume.
type Bytes float64

// BytesPerCycle is a bandwidth expressed in the simulator's native axes:
// bytes moved per core clock cycle. Convert from datasheet GB/s with
// FromGBps.
type BytesPerCycle float64

// Picoseconds is wall-clock simulated time, obtained from Cycles at a known
// core frequency. It only appears at reporting boundaries; the core models
// never compute in real-time units.
type Picoseconds float64

// FromGBps converts a datasheet bandwidth in GB/s to bytes per core cycle at
// the given core frequency. 1 GB/s at 1 GHz is exactly 1 byte/cycle, so the
// conversion is a plain ratio.
func FromGBps(gbps, freqGHz float64) BytesPerCycle {
	return BytesPerCycle(gbps / freqGHz)
}

// Scale multiplies the duration by a dimensionless factor.
func (c Cycles) Scale(f float64) Cycles { return Cycles(float64(c) * f) }

// AtGHz converts a cycle count to simulated wall-clock time at the given
// core frequency: one cycle at f GHz lasts 1000/f picoseconds.
func (c Cycles) AtGHz(freqGHz float64) Picoseconds {
	return Picoseconds(float64(c) * 1000 / freqGHz)
}

// Scale multiplies the volume by a dimensionless factor.
func (b Bytes) Scale(f float64) Bytes { return Bytes(float64(b) * f) }

// Per divides a volume by a duration, yielding a bandwidth.
func (b Bytes) Per(c Cycles) BytesPerCycle {
	return BytesPerCycle(float64(b) / float64(c))
}

// Scale multiplies the bandwidth by a dimensionless factor (an efficiency or
// a link count).
func (r BytesPerCycle) Scale(f float64) BytesPerCycle {
	return BytesPerCycle(float64(r) * f)
}

// Transfer returns the time to move b bytes at bandwidth r.
func (r BytesPerCycle) Transfer(b Bytes) Cycles {
	return Cycles(float64(b) / float64(r))
}

// Capacity returns the volume the bandwidth can move in the given duration.
func (r BytesPerCycle) Capacity(c Cycles) Bytes {
	return Bytes(float64(r) * float64(c))
}

// Seconds converts simulated time to SI seconds for reporting.
func (p Picoseconds) Seconds() float64 { return float64(p) * 1e-12 }
