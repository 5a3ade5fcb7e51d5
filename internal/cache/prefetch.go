package cache

import "scalesim/internal/pad"

// StridePrefetcher is a stream/stride prefetcher of the kind that sits
// beside an L2: it watches the demand-miss address stream, detects constant
// strides across a small table of tracked streams, and once confident emits
// prefetch candidates ahead of the stream.
//
// The simulator uses it as an opt-in fidelity feature (sim.Options
// .EnablePrefetch): prefetches consume real bandwidth and fill real cache
// state, so turning the prefetcher on changes both isolated performance and
// contention — a robustness test for the scale-model methodology rather
// than part of the paper's baseline configuration.
type StridePrefetcher struct {
	table []streamEntry

	// Statistics.
	Trained  uint64 // misses that matched/allocated a stream entry
	Issued   uint64 // prefetch candidates emitted
	lineSize uint64
}

type streamEntry struct {
	lastLine   uint64
	stride     int64
	confidence int
	valid      bool
}

// NewStridePrefetcher returns a prefetcher for caches with the given line
// size.
func NewStridePrefetcher(lineSize int) *StridePrefetcher {
	return pad.New(StridePrefetcher{table: pad.Slice[streamEntry](prefetchStreams), lineSize: uint64(lineSize)})
}

const (
	// PrefetchDegree is how many lines ahead of a confirmed stream OnMiss
	// reaches; prefetchStreams is the tracking-table size.
	PrefetchDegree  = 2
	prefetchStreams = 8
)

// OnMiss observes a demand miss at addr and returns the addresses to
// prefetch, cands[:n] (possibly none). Confidence builds over two
// consecutive same-stride misses before any prefetch is issued, the standard
// two-delta-confirmation policy. The candidates come back by value, so the
// miss path allocates nothing.
func (p *StridePrefetcher) OnMiss(addr uint64) (cands [PrefetchDegree]uint64, n int) {
	line := addr / p.lineSize

	// Find the entry whose last line is closest to this miss.
	best := -1
	var bestDist uint64 = 1 << 20 // streams further than ~64 MB apart never match
	for i := range p.table {
		e := &p.table[i]
		if !e.valid {
			continue
		}
		d := line - e.lastLine
		if int64(d) < 0 {
			d = -d
		}
		if d < bestDist {
			bestDist = d
			best = i
		}
	}
	// A stream match must be a plausible stride (within 16 lines).
	if best >= 0 && bestDist > 0 && bestDist <= 16 {
		e := &p.table[best]
		stride := int64(line) - int64(e.lastLine)
		if stride == e.stride {
			if e.confidence < 3 {
				e.confidence++
			}
		} else {
			e.stride = stride
			e.confidence = 1
		}
		e.lastLine = line
		p.Trained++
		if e.confidence >= 2 {
			for k := 1; k <= PrefetchDegree; k++ {
				next := int64(line) + int64(k)*e.stride
				if next > 0 {
					cands[n] = uint64(next) * p.lineSize
					n++
				}
			}
			p.Issued += uint64(n)
		}
		return cands, n
	}

	// Allocate: replace the least-confident entry.
	victim := 0
	for i := range p.table {
		if !p.table[i].valid {
			victim = i
			break
		}
		if p.table[i].confidence < p.table[victim].confidence {
			victim = i
		}
	}
	p.table[victim] = streamEntry{lastLine: line, stride: 0, confidence: 0, valid: true}
	p.Trained++
	return cands, 0
}
