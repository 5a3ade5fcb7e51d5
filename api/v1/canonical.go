package apiv1

import (
	"strconv"

	"scalesim"
)

// The canonical decoders read JobRequest and JobResponse without
// reflection, for the strict subset of JSON that Encode writes for them:
//
//   - every key spelled exactly as its wire name, at most once per object;
//   - strings of printable ASCII with no backslash;
//   - numbers in the JSON grammar, parsed with the strconv call that
//     encoding/json makes for the field's kind (an integer field takes only
//     an integer literal);
//   - null only where it means nil (a slice or a pointer), and [] as an
//     empty non-nil slice;
//   - JSON whitespace between tokens and after the value, nothing else.
//
// A non-null "tuning", "profiles" or result "Trace" is not part of the
// subset. On anything outside it a decoder declines, and decodeStrict hands
// the same bytes to encoding/json, which stays the reference: whatever the
// subset accepts, the reference accepts as the same value
// (FuzzDecodeJobRequest, FuzzDecodeJobResponse), so every error and every
// case-folded key is still the reference's to handle.

// decodeCanonical decodes b into v, a *JobRequest or *JobResponse, and
// reports whether b was in the subset. v is left untouched when it was not.
func decodeCanonical(b []byte, v any) bool {
	c := canon{b: b}
	switch v := v.(type) {
	case *JobRequest:
		var r JobRequest
		if c.request(&r) && c.end() {
			*v = r
			return true
		}
	case *JobResponse:
		var r JobResponse
		if c.response(&r) && c.end() {
			*v = r
			return true
		}
	}
	return false
}

// Wire names per object, in encoding order.
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

func (c *canon) request(r *JobRequest) bool {
	return c.object(requestNames, func(name string) bool {
		switch name {
		case "schema":
			return c.str(&r.Schema)
		case "client":
			return c.str(&r.Client)
		case "jobs":
			return array(c, &r.Jobs, (*canon).job)
		}
		return false
	})
}

func (c *canon) job(j *JobSpec) bool {
	return c.object(jobNames, func(name string) bool {
		switch name {
		case "machine":
			return c.machine(&j.Machine)
		case "benchmarks":
			return array(c, &j.Benchmarks, (*canon).str)
		case "options":
			return c.options(&j.Options)
		case "profiles":
			return c.null()
		}
		return false
	})
}

func (c *canon) machine(m *scalesim.MachineSpec) bool {
	return c.object(machineNames, func(name string) bool {
		switch name {
		case "Cores":
			return c.int(&m.Cores)
		case "Policy":
			return c.str((*string)(&m.Policy))
		case "Bandwidth":
			return c.str((*string)(&m.Bandwidth))
		case "LLCPerCoreKB":
			return c.int(&m.LLCPerCoreKB)
		case "DRAMPerCoreGBps":
			return c.float(&m.DRAMPerCoreGBps)
		case "NoCPerCoreGBps":
			return c.float(&m.NoCPerCoreGBps)
		}
		return false
	})
}

func (c *canon) options(o *scalesim.SimOptions) bool {
	return c.object(optionNames, func(name string) bool {
		switch name {
		case "Instructions":
			return c.uint(&o.Instructions)
		case "Warmup":
			return c.uint(&o.Warmup)
		case "EpochCycles":
			return c.float(&o.EpochCycles)
		case "CapacityScale":
			return c.int(&o.CapacityScale)
		case "Seed":
			return c.uint(&o.Seed)
		case "EnablePrefetch":
			return c.bool(&o.EnablePrefetch)
		case "NoFeedback":
			return c.bool(&o.NoFeedback)
		case "PartitionedLLC":
			return c.bool(&o.PartitionedLLC)
		case "Trace":
			return c.bool(&o.Trace)
		case "TraceWarmup":
			return c.bool(&o.TraceWarmup)
		case "tuning":
			return c.null()
		}
		return false
	})
}

func (c *canon) response(r *JobResponse) bool {
	return c.object(responseNames, func(name string) bool {
		switch name {
		case "schema":
			return c.str(&r.Schema)
		case "outcomes":
			return array(c, &r.Outcomes, (*canon).outcome)
		case "stats":
			return c.stats(&r.Stats)
		}
		return false
	})
}

func (c *canon) outcome(o *JobOutcome) bool {
	return c.object(outcomeNames, func(name string) bool {
		switch name {
		case "job":
			return c.int(&o.Job)
		case "source":
			return c.str(&o.Source)
		case "cache_hit":
			return c.bool(&o.CacheHit)
		case "approximate":
			return c.bool(&o.Approximate)
		case "error":
			return c.str(&o.Error)
		case "result":
			if c.null() {
				o.Result = nil
				return true
			}
			o.Result = new(scalesim.SimResult)
			return c.result(o.Result)
		}
		return false
	})
}

func (c *canon) result(r *scalesim.SimResult) bool {
	return c.object(resultNames, func(name string) bool {
		switch name {
		case "Machine":
			return c.str(&r.Machine)
		case "Cores":
			return array(c, &r.Cores, (*canon).core)
		case "DRAMUtilization":
			return c.float(&r.DRAMUtilization)
		case "NoCUtilization":
			return c.float(&r.NoCUtilization)
		case "WallClockSec":
			return c.float(&r.WallClockSec)
		case "SimulatedSec":
			return c.float(&r.SimulatedSec)
		case "Trace":
			return c.null()
		}
		return false
	})
}

func (c *canon) core(r *scalesim.CoreResult) bool {
	return c.object(coreNames, func(name string) bool {
		switch name {
		case "Core":
			return c.int(&r.Core)
		case "Benchmark":
			return c.str(&r.Benchmark)
		case "Instructions":
			return c.uint(&r.Instructions)
		case "IPC":
			return c.float(&r.IPC)
		case "BWBytesPerCycle":
			return c.float(&r.BWBytesPerCycle)
		case "LLCMPKI":
			return c.float(&r.LLCMPKI)
		case "BranchMispredictRate":
			return c.float(&r.BranchMispredictRate)
		}
		return false
	})
}

func (c *canon) stats(s *scalesim.CampaignStats) bool {
	return c.object(statsNames, func(name string) bool {
		switch name {
		case "Jobs":
			return c.int(&s.Jobs)
		case "UniqueRuns":
			return c.int(&s.UniqueRuns)
		case "CacheHits":
			return c.int(&s.CacheHits)
		case "CoalescedHits":
			return c.int(&s.CoalescedHits)
		case "DiskHits":
			return c.int(&s.DiskHits)
		case "ModelHits":
			return c.int(&s.ModelHits)
		case "Failures":
			return c.int(&s.Failures)
		case "StoreCorrupt":
			return c.int(&s.StoreCorrupt)
		case "Fronts":
			return c.object(frontNames, func(name string) bool {
				switch name {
				case "ChunksProduced":
					return c.uint(&s.Fronts.ChunksProduced)
				case "ChunksConsumed":
					return c.uint(&s.Fronts.ChunksConsumed)
				case "StreamsBuilt":
					return c.int(&s.Fronts.StreamsBuilt)
				case "StreamsEvicted":
					return c.int(&s.Fronts.StreamsEvicted)
				case "BytesRetained":
					return c.int(&s.Fronts.BytesRetained)
				}
				return false
			})
		}
		return false
	})
}

// canon is a cursor over one document of the canonical subset. Every
// reader skips the whitespace before its token and reports false, having
// consumed an unspecified prefix, on input outside the subset.
type canon struct {
	b []byte
	i int
}

// space skips JSON whitespace, all of which sorts at or below ' '.
func (c *canon) space() {
	b, i := c.b, c.i
	for i < len(b) && b[i] <= ' ' && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	c.i = i
}

// next consumes the byte ch if it is the next token.
func (c *canon) next(ch byte) bool {
	c.space()
	if c.i < len(c.b) && c.b[c.i] == ch {
		c.i++
		return true
	}
	return false
}

// literal consumes the keyword word (null, true or false) if it is next.
func (c *canon) literal(word string) bool {
	c.space()
	if len(c.b)-c.i >= len(word) && string(c.b[c.i:c.i+len(word)]) == word {
		c.i += len(word)
		return true
	}
	return false
}

func (c *canon) null() bool { return c.literal("null") }

// end reports whether nothing but whitespace is left.
func (c *canon) end() bool {
	c.space()
	return c.i == len(c.b)
}

// object reads one object whose keys are among names, each spelled exactly
// and present at most once, and hands each key's value to field by its
// entry in names.
func (c *canon) object(names []string, field func(name string) bool) bool {
	if !c.next('{') {
		return false
	}
	if c.next('}') {
		return true
	}
	var seen uint64
	for {
		key, ok := c.raw()
		if !ok || !c.next(':') {
			return false
		}
		f := 0
		for f < len(names) && names[f] != string(key) {
			f++
		}
		if f == len(names) || seen&(1<<f) != 0 || !field(names[f]) {
			return false
		}
		seen |= 1 << f
		if !c.next(',') {
			return c.next('}')
		}
	}
}

// array reads null as a nil slice and an array as a non-nil slice whose
// elements elem reads.
func array[T any](c *canon, v *[]T, elem func(*canon, *T) bool) bool {
	if c.null() {
		*v = nil
		return true
	}
	if !c.next('[') {
		return false
	}
	s := []T{}
	for !c.next(']') {
		if len(s) > 0 && !c.next(',') {
			return false
		}
		var zero T
		s = append(s, zero)
		if !elem(c, &s[len(s)-1]) {
			return false
		}
	}
	*v = s
	return true
}

// raw reads one string's bytes: printable ASCII, no escapes.
func (c *canon) raw() ([]byte, bool) {
	if !c.next('"') {
		return nil, false
	}
	b, start, i := c.b, c.i, c.i
	for i < len(b) && plain[b[i]] {
		i++
	}
	if i == len(b) || b[i] != '"' {
		return nil, false
	}
	c.i = i + 1
	return b[start:i], true
}

// plain marks the bytes a canonical string holds: printable ASCII but the
// quote and the backslash.
var plain = func() (t [256]bool) {
	for ch := ' '; ch <= '~'; ch++ {
		t[ch] = ch != '"' && ch != '\\'
	}
	return t
}()

func (c *canon) str(v *string) bool {
	raw, ok := c.raw()
	if !ok {
		return false
	}
	if string(raw) == Schema {
		*v = Schema // the one string every document carries, kept unallocated
	} else {
		*v = string(raw)
	}
	return true
}

func (c *canon) bool(v *bool) bool {
	switch {
	case c.literal("true"):
		*v = true
	case c.literal("false"):
		*v = false
	default:
		return false
	}
	return true
}

// number reads one number in the JSON grammar and reports whether it is an
// integer literal: no fraction and no exponent.
func (c *canon) number() (lit []byte, integer, ok bool) {
	c.space()
	start := c.i
	if c.i < len(c.b) && c.b[c.i] == '-' {
		c.i++
	}
	switch {
	case c.i < len(c.b) && c.b[c.i] == '0':
		c.i++
	case c.digits() == 0:
		return nil, false, false
	}
	integer = true
	if c.i < len(c.b) && c.b[c.i] == '.' {
		c.i++
		if c.digits() == 0 {
			return nil, false, false
		}
		integer = false
	}
	if c.i < len(c.b) && (c.b[c.i] == 'e' || c.b[c.i] == 'E') {
		c.i++
		if c.i < len(c.b) && (c.b[c.i] == '+' || c.b[c.i] == '-') {
			c.i++
		}
		if c.digits() == 0 {
			return nil, false, false
		}
		integer = false
	}
	return c.b[start:c.i], integer, true
}

// digits consumes a run of decimal digits and returns its length.
func (c *canon) digits() int {
	b, start, i := c.b, c.i, c.i
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	c.i = i
	return i - start
}

func (c *canon) int(v *int) bool {
	lit, integer, ok := c.number()
	if !ok || !integer {
		return false
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	*v = int(n)
	return err == nil
}

func (c *canon) uint(v *uint64) bool {
	lit, integer, ok := c.number()
	if !ok || !integer {
		return false
	}
	n, err := strconv.ParseUint(string(lit), 10, 64)
	*v = n
	return err == nil
}

func (c *canon) float(v *float64) bool {
	lit, _, ok := c.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	*v = f
	return err == nil
}
