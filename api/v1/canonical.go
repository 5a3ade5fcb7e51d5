package apiv1

import (
	"scalesim"
	"scalesim/internal/canon"
)

// The canonical decoders read JobRequest and JobResponse without
// reflection, for the subset of JSON that Encode writes for them and
// internal/canon reads (exact keys, each at most once; plain ASCII strings;
// numbers parsed as encoding/json parses them for the field's kind). A
// non-null "tuning", "profiles" or result "Trace" is not part of the subset
// here. On anything outside it a decoder declines, and decodeStrict hands
// the same bytes to encoding/json, which stays the reference: whatever the
// subset accepts, the reference accepts as the same value
// (FuzzDecodeJobRequest, FuzzDecodeJobResponse), so every error and every
// case-folded key is still the reference's to handle.

// decodeCanonical decodes b into v, a *JobRequest or *JobResponse, and
// reports whether b was in the subset. v is left untouched when it was not.
func decodeCanonical(b []byte, v any) bool {
	c := canon.New(b)
	switch v := v.(type) {
	case *JobRequest:
		var r JobRequest
		if request(&c, &r) && c.End() {
			*v = r
			return true
		}
	case *JobResponse:
		var r JobResponse
		if response(&c, &r) && c.End() {
			*v = r
			return true
		}
	}
	return false
}

// Wire names per object, in encoding order; each at most canon.MaxNames
// long (TestCanonicalNameTables).
var (
	requestNames  = []string{"schema", "client", "jobs"}
	jobNames      = []string{"machine", "benchmarks", "options", "profiles"}
	machineNames  = []string{"Cores", "Policy", "Bandwidth", "LLCPerCoreKB", "DRAMPerCoreGBps", "NoCPerCoreGBps"}
	optionNames   = []string{"Instructions", "Warmup", "EpochCycles", "CapacityScale", "Seed", "EnablePrefetch", "NoFeedback", "PartitionedLLC", "Trace", "TraceWarmup", "tuning"}
	responseNames = []string{"schema", "outcomes", "stats"}
	outcomeNames  = []string{"job", "source", "cache_hit", "approximate", "error", "result"}
	resultNames   = []string{"Machine", "Cores", "DRAMUtilization", "NoCUtilization", "WallClockSec", "SimulatedSec", "Trace"}
	coreNames     = []string{"Core", "Benchmark", "Instructions", "IPC", "BWBytesPerCycle", "LLCMPKI", "BranchMispredictRate"}
	statsNames    = []string{"Jobs", "UniqueRuns", "CacheHits", "CoalescedHits", "DiskHits", "ModelHits", "Failures", "StoreCorrupt", "Fronts"}
	frontNames    = []string{"ChunksProduced", "ChunksConsumed", "StreamsBuilt", "StreamsEvicted", "BytesRetained"}
)

// schema reads a document's schema tag, keeping the one string every
// document carries unallocated.
func schema(c *canon.Cursor, v *string) bool {
	raw, ok := c.Raw()
	switch {
	case !ok:
		return false
	case string(raw) == Schema:
		*v = Schema
	default:
		*v = string(raw)
	}
	return true
}

func request(c *canon.Cursor, r *JobRequest) bool {
	return c.Object(requestNames, func(name string) bool {
		switch name {
		case "schema":
			return schema(c, &r.Schema)
		case "client":
			return c.Str(&r.Client)
		case "jobs":
			return canon.Array(c, &r.Jobs, job)
		}
		return false
	})
}

func job(c *canon.Cursor, j *JobSpec) bool {
	return c.Object(jobNames, func(name string) bool {
		switch name {
		case "machine":
			return machine(c, &j.Machine)
		case "benchmarks":
			return canon.Array(c, &j.Benchmarks, (*canon.Cursor).Str)
		case "options":
			return options(c, &j.Options)
		case "profiles":
			return c.Null()
		}
		return false
	})
}

func machine(c *canon.Cursor, m *scalesim.MachineSpec) bool {
	return c.Object(machineNames, func(name string) bool {
		switch name {
		case "Cores":
			return c.Int(&m.Cores)
		case "Policy":
			return c.Str((*string)(&m.Policy))
		case "Bandwidth":
			return c.Str((*string)(&m.Bandwidth))
		case "LLCPerCoreKB":
			return c.Int(&m.LLCPerCoreKB)
		case "DRAMPerCoreGBps":
			return c.Float(&m.DRAMPerCoreGBps)
		case "NoCPerCoreGBps":
			return c.Float(&m.NoCPerCoreGBps)
		}
		return false
	})
}

func options(c *canon.Cursor, o *scalesim.SimOptions) bool {
	return c.Object(optionNames, func(name string) bool {
		switch name {
		case "Instructions":
			return c.Uint(&o.Instructions)
		case "Warmup":
			return c.Uint(&o.Warmup)
		case "EpochCycles":
			return c.Float(&o.EpochCycles)
		case "CapacityScale":
			return c.Int(&o.CapacityScale)
		case "Seed":
			return c.Uint(&o.Seed)
		case "EnablePrefetch":
			return c.Bool(&o.EnablePrefetch)
		case "NoFeedback":
			return c.Bool(&o.NoFeedback)
		case "PartitionedLLC":
			return c.Bool(&o.PartitionedLLC)
		case "Trace":
			return c.Bool(&o.Trace)
		case "TraceWarmup":
			return c.Bool(&o.TraceWarmup)
		case "tuning":
			return c.Null()
		}
		return false
	})
}

func response(c *canon.Cursor, r *JobResponse) bool {
	return c.Object(responseNames, func(name string) bool {
		switch name {
		case "schema":
			return schema(c, &r.Schema)
		case "outcomes":
			return canon.Array(c, &r.Outcomes, outcome)
		case "stats":
			return stats(c, &r.Stats)
		}
		return false
	})
}

func outcome(c *canon.Cursor, o *JobOutcome) bool {
	return c.Object(outcomeNames, func(name string) bool {
		switch name {
		case "job":
			return c.Int(&o.Job)
		case "source":
			return c.Str(&o.Source)
		case "cache_hit":
			return c.Bool(&o.CacheHit)
		case "approximate":
			return c.Bool(&o.Approximate)
		case "error":
			return c.Str(&o.Error)
		case "result":
			if c.Null() {
				o.Result = nil
				return true
			}
			o.Result = new(scalesim.SimResult)
			return result(c, o.Result)
		}
		return false
	})
}

func result(c *canon.Cursor, r *scalesim.SimResult) bool {
	return c.Object(resultNames, func(name string) bool {
		switch name {
		case "Machine":
			return c.Str(&r.Machine)
		case "Cores":
			return canon.Array(c, &r.Cores, core)
		case "DRAMUtilization":
			return c.Float(&r.DRAMUtilization)
		case "NoCUtilization":
			return c.Float(&r.NoCUtilization)
		case "WallClockSec":
			return c.Float(&r.WallClockSec)
		case "SimulatedSec":
			return c.Float(&r.SimulatedSec)
		case "Trace":
			return c.Null()
		}
		return false
	})
}

func core(c *canon.Cursor, r *scalesim.CoreResult) bool {
	return c.Object(coreNames, func(name string) bool {
		switch name {
		case "Core":
			return c.Int(&r.Core)
		case "Benchmark":
			return c.Str(&r.Benchmark)
		case "Instructions":
			return c.Uint(&r.Instructions)
		case "IPC":
			return c.Float(&r.IPC)
		case "BWBytesPerCycle":
			return c.Float(&r.BWBytesPerCycle)
		case "LLCMPKI":
			return c.Float(&r.LLCMPKI)
		case "BranchMispredictRate":
			return c.Float(&r.BranchMispredictRate)
		}
		return false
	})
}

func stats(c *canon.Cursor, s *scalesim.CampaignStats) bool {
	return c.Object(statsNames, func(name string) bool {
		switch name {
		case "Jobs":
			return c.Int(&s.Jobs)
		case "UniqueRuns":
			return c.Int(&s.UniqueRuns)
		case "CacheHits":
			return c.Int(&s.CacheHits)
		case "CoalescedHits":
			return c.Int(&s.CoalescedHits)
		case "DiskHits":
			return c.Int(&s.DiskHits)
		case "ModelHits":
			return c.Int(&s.ModelHits)
		case "Failures":
			return c.Int(&s.Failures)
		case "StoreCorrupt":
			return c.Int(&s.StoreCorrupt)
		case "Fronts":
			return c.Object(frontNames, func(name string) bool {
				switch name {
				case "ChunksProduced":
					return c.Uint(&s.Fronts.ChunksProduced)
				case "ChunksConsumed":
					return c.Uint(&s.Fronts.ChunksConsumed)
				case "StreamsBuilt":
					return c.Int(&s.Fronts.StreamsBuilt)
				case "StreamsEvicted":
					return c.Int(&s.Fronts.StreamsEvicted)
				case "BytesRetained":
					return c.Int(&s.Fronts.BytesRetained)
				}
				return false
			})
		}
		return false
	})
}
