package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the harness
// around its own calls into the library. Spans of one request share Req;
// Parent is the span that caused this one (0 for a root).
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Tag    string `json:"tag,omitempty"` // e.g. the answering tier
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// tracing-off state: begin and end do nothing, so call sites need no branch.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Req: req, Start: now})
	return len(t.spans)
}

// link attaches an open span to the request and the span that caused it,
// for callers that learn both only after the span began.
func (t *tracer) link(id, parent, req int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Parent, t.spans[id-1].Req = parent, req
}

// end closes the span begin returned.
func (t *tracer) end(id int, tag string) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Tag = tag
}

// snapshot returns the closed spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// selfTime is a span's duration minus the part of it its children cover
// (children may overlap one another, as the jobs of one batch do).
func selfTime(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered, end := int64(0), parent.Start
	for _, x := range iv {
		if x[1] <= end {
			continue
		}
		covered += x[1] - max(x[0], end)
		end = x[1]
	}
	return parent.dur() - covered
}

// durations collects, in the given unit, the duration of every span that
// keep accepts.
func durations(spans []span, unit time.Duration, keep func(span) bool) []float64 {
	var out []float64
	for _, s := range spans {
		if keep(s) {
			out = append(out, float64(s.dur())/float64(unit))
		}
	}
	return out
}

func named(name string) func(span) bool {
	return func(s span) bool { return s.Name == name }
}

func tagged(name, tag string) func(span) bool {
	return func(s span) bool { return s.Name == name && s.Tag == tag }
}
