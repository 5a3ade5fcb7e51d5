package apiv1

import (
	"math"
	"strconv"

	"scalesim"
)

// The canonical encoder writes a *JobResponse without reflection, byte for
// byte as encoding/json's Encoder writes it, when the response is in the
// subset the canonical decoder reads: every string printable ASCII that
// needs no escape (no quote, backslash, or the <, > and & the reference
// escapes for HTML), every float finite, and no result Trace. Keys come from
// the decoder's name tables, in their order, which is the fields' order. On
// anything outside the subset it declines and Marshal hands the value to
// encoding/json, which stays the reference (TestEncodeMatchesReference,
// FuzzEncodeJobResponse).

// encodeCanonical returns r's document, newline-terminated, and whether r
// was in the subset.
func encodeCanonical(r *JobResponse) ([]byte, bool) {
	// A one-core memory hit's outcome is ≈ 400 bytes and the envelope with
	// its stats ≈ 300: one allocation for the responses serve-hot sends.
	e := encoder{b: make([]byte, 0, 320+448*len(r.Outcomes))}
	e.response(r)
	if e.bad {
		return nil, false
	}
	return append(e.b, '\n'), true
}

// encoder appends one document; bad records a value outside the subset.
type encoder struct {
	b   []byte
	bad bool
}

// object appends an object with names' keys in order. field appends the
// value of each and reports false to leave the key out (omitempty on a zero
// value), which takes back the key and its comma.
func (e *encoder) object(names []string, field func(name string) bool) {
	e.b = append(e.b, '{')
	for _, name := range names {
		mark := len(e.b)
		if e.b[mark-1] != '{' {
			e.b = append(e.b, ',')
		}
		e.b = append(e.b, '"')
		e.b = append(e.b, name...)
		e.b = append(e.b, '"', ':')
		if !field(name) {
			e.b = e.b[:mark]
		}
	}
	e.b = append(e.b, '}')
}

// array appends a nil slice as null and any other as an array of elem's.
func array[T any](e *encoder, s []T, elem func(*T)) {
	if s == nil {
		e.null()
		return
	}
	e.b = append(e.b, '[')
	for i := range s {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		elem(&s[i])
	}
	e.b = append(e.b, ']')
}

func (e *encoder) null() { e.b = append(e.b, "null"...) }

// str appends s quoted; a string the reference would escape is outside the
// subset.
func (e *encoder) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			e.bad = true
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

func (e *encoder) int(v int)     { e.b = strconv.AppendInt(e.b, int64(v), 10) }
func (e *encoder) uint(v uint64) { e.b = strconv.AppendUint(e.b, v, 10) }
func (e *encoder) bool(v bool)   { e.b = strconv.AppendBool(e.b, v) }

// float appends v as encoding/json writes a float64: the shortest decimal
// that reads back as v, in 'f' form unless |v| is below 1e-6 or at least
// 1e21, with a one-digit exponent left unpadded. A non-finite v, which the
// reference refuses, is outside the subset.
func (e *encoder) float(v float64) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		e.bad = true
		return
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(e.b, v, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-09 → e-9
		b = b[:n-1]
	}
	e.b = b
}

func (e *encoder) response(r *JobResponse) {
	e.object(responseNames, func(name string) bool {
		switch name {
		case "schema":
			e.str(r.Schema)
		case "outcomes":
			array(e, r.Outcomes, e.outcome)
		case "stats":
			e.stats(&r.Stats)
		}
		return true
	})
}

func (e *encoder) outcome(o *JobOutcome) {
	e.object(outcomeNames, func(name string) bool {
		switch name {
		case "job":
			e.int(o.Job)
		case "source":
			if o.Source == "" {
				return false
			}
			e.str(o.Source)
		case "cache_hit":
			if !o.CacheHit {
				return false
			}
			e.bool(true)
		case "approximate":
			if !o.Approximate {
				return false
			}
			e.bool(true)
		case "error":
			if o.Error == "" {
				return false
			}
			e.str(o.Error)
		case "result":
			if o.Result == nil {
				return false
			}
			e.result(o.Result)
		}
		return true
	})
}

func (e *encoder) result(r *scalesim.SimResult) {
	e.object(resultNames, func(name string) bool {
		switch name {
		case "Machine":
			e.str(r.Machine)
		case "Cores":
			array(e, r.Cores, e.core)
		case "DRAMUtilization":
			e.float(r.DRAMUtilization)
		case "NoCUtilization":
			e.float(r.NoCUtilization)
		case "WallClockSec":
			e.float(r.WallClockSec)
		case "SimulatedSec":
			e.float(r.SimulatedSec)
		case "Trace":
			if r.Trace != nil {
				e.bad = true
			}
			e.null()
		}
		return true
	})
}

func (e *encoder) core(c *scalesim.CoreResult) {
	e.object(coreNames, func(name string) bool {
		switch name {
		case "Core":
			e.int(c.Core)
		case "Benchmark":
			e.str(c.Benchmark)
		case "Instructions":
			e.uint(c.Instructions)
		case "IPC":
			e.float(c.IPC)
		case "BWBytesPerCycle":
			e.float(c.BWBytesPerCycle)
		case "LLCMPKI":
			e.float(c.LLCMPKI)
		case "BranchMispredictRate":
			e.float(c.BranchMispredictRate)
		}
		return true
	})
}

func (e *encoder) stats(s *scalesim.CampaignStats) {
	e.object(statsNames, func(name string) bool {
		switch name {
		case "Jobs":
			e.int(s.Jobs)
		case "UniqueRuns":
			e.int(s.UniqueRuns)
		case "CacheHits":
			e.int(s.CacheHits)
		case "CoalescedHits":
			e.int(s.CoalescedHits)
		case "DiskHits":
			e.int(s.DiskHits)
		case "ModelHits":
			e.int(s.ModelHits)
		case "Failures":
			e.int(s.Failures)
		case "StoreCorrupt":
			e.int(s.StoreCorrupt)
		case "Fronts":
			e.object(frontNames, func(name string) bool {
				switch name {
				case "ChunksProduced":
					e.uint(s.Fronts.ChunksProduced)
				case "ChunksConsumed":
					e.uint(s.Fronts.ChunksConsumed)
				case "StreamsBuilt":
					e.int(s.Fronts.StreamsBuilt)
				case "StreamsEvicted":
					e.int(s.Fronts.StreamsEvicted)
				case "BytesRetained":
					e.int(s.Fronts.BytesRetained)
				}
				return true
			})
		}
		return true
	})
}
