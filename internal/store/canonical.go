package store

import (
	"encoding/json"

	"scalesim/internal/canon"
	"scalesim/internal/sim"
)

// decodeResult decodes an artifact's result payload. What Save writes for
// an untraced result is in the subset internal/canon reads (exact keys,
// each at most once; plain ASCII strings; each number parsed with the
// strconv call encoding/json makes for its field's kind), and is read
// without reflection. Anything else, a non-null Trace included, goes to
// json.Unmarshal, which stays the reference: whatever the canonical reader
// accepts, the reference decodes to the same result (FuzzDecodeResult).
func decodeResult(payload []byte) (*sim.Result, error) {
	if res, ok := canonicalResult(payload); ok {
		return &res, nil
	}
	var res sim.Result
	if err := json.Unmarshal(payload, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// canonicalResult reads payload on the canonical path alone and reports
// whether it was in the subset.
func canonicalResult(payload []byte) (sim.Result, bool) {
	var r sim.Result
	c := canon.New(payload)
	ok := result(&c, &r) && c.End()
	return r, ok
}

// Field names per object, in encoding order; each at most canon.MaxNames
// long (TestCanonicalNameTables).
var (
	resultNames = []string{"ConfigName", "Cores", "ElapsedCycles", "SimulatedPicos", "DRAMUtilization", "NoCUtilization", "WallClock", "Trace"}
	coreNames   = []string{"Core", "Benchmark", "Instructions", "Cycles", "IPC", "Barriers", "BarrierCycles", "BWBytesPerCycle", "BWShare",
		"L1DMPKI", "L2MPKI", "LLCMPKI", "LLCMisses", "BranchMispredictRate", "BaseCycles", "BranchCycles", "MemoryCycles", "FrontendCycles"}
)

func result(c *canon.Cursor, r *sim.Result) bool {
	return c.Object(resultNames, func(name string) bool {
		switch name {
		case "ConfigName":
			return c.Str(&r.ConfigName)
		case "Cores":
			return canon.Array(c, &r.Cores, core)
		case "ElapsedCycles":
			return c.Float((*float64)(&r.ElapsedCycles))
		case "SimulatedPicos":
			return c.Float((*float64)(&r.SimulatedPicos))
		case "DRAMUtilization":
			return c.Float(&r.DRAMUtilization)
		case "NoCUtilization":
			return c.Float(&r.NoCUtilization)
		case "WallClock":
			return c.Int64((*int64)(&r.WallClock))
		case "Trace":
			return c.Null()
		}
		return false
	})
}

func core(c *canon.Cursor, r *sim.CoreResult) bool {
	return c.Object(coreNames, func(name string) bool {
		switch name {
		case "Core":
			return c.Int(&r.Core)
		case "Benchmark":
			return c.Str(&r.Benchmark)
		case "Instructions":
			return c.Uint(&r.Instructions)
		case "Cycles":
			return c.Float((*float64)(&r.Cycles))
		case "IPC":
			return c.Float(&r.IPC)
		case "Barriers":
			return c.Int(&r.Barriers)
		case "BarrierCycles":
			return c.Float((*float64)(&r.BarrierCycles))
		case "BWBytesPerCycle":
			return c.Float((*float64)(&r.BWBytesPerCycle))
		case "BWShare":
			return c.Float(&r.BWShare)
		case "L1DMPKI":
			return c.Float(&r.L1DMPKI)
		case "L2MPKI":
			return c.Float(&r.L2MPKI)
		case "LLCMPKI":
			return c.Float(&r.LLCMPKI)
		case "LLCMisses":
			return c.Uint(&r.LLCMisses)
		case "BranchMispredictRate":
			return c.Float(&r.BranchMispredictRate)
		case "BaseCycles":
			return c.Float((*float64)(&r.BaseCycles))
		case "BranchCycles":
			return c.Float((*float64)(&r.BranchCycles))
		case "MemoryCycles":
			return c.Float((*float64)(&r.MemoryCycles))
		case "FrontendCycles":
			return c.Float((*float64)(&r.FrontendCycles))
		}
		return false
	})
}
