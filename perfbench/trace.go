package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer's public API,
// or a server-side stage joined from /debug/traces. Name is
// "<layer>.<call>"; the layer prefix attributes self time.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Req    string `json:"req,omitempty"` // request id shared by one request's spans
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record stores a finished span and returns its id (0 on a nil tracer).
func (t *tracer) record(parent int64, name, req string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	id := t.next.Add(1)
	t.finish(id, parent, name, req, start, end)
	return id
}

// reserve hands out a span id before the span ends, so children can name
// their parent while it is still open; finish records it.
func (t *tracer) reserve() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

func (t *tracer) finish(id, parent int64, name, req string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Req: req}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs f inside a span named name.
func (t *tracer) timed(parent int64, name string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.record(parent, name, "", start, end)
	return end.Sub(start)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes every span as one JSON object per line.
func (t *tracer) writeFile(path string) error {
	spans := t.snapshot()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rootRequestSpan names the root of every request tree.
const rootRequestSpan = "bench.request"

// selfTimeByLayer sums, over every request tree, each span's self time —
// its duration minus the part of it its children cover — by the layer
// prefix of its name, and divides by the number of request trees. The
// result is microseconds per request.
func selfTimeByLayer(spans []span) (perLayer map[string]float64, requests int) {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	perLayer = map[string]float64{}
	var walk func(s span)
	walk = func(s span) {
		kids := children[s.ID]
		self := s.End - s.Start - covered(s, kids)
		if self < 0 {
			self = 0
		}
		perLayer[layerOf(s.Name)] += float64(self) / 1e3
		for _, k := range kids {
			walk(k)
		}
	}
	for _, s := range spans {
		if s.Name == rootRequestSpan && s.Parent == 0 {
			requests++
			walk(s)
		}
	}
	if requests > 0 {
		for k := range perLayer {
			perLayer[k] /= float64(requests)
		}
	}
	return perLayer, requests
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			if v.b > curB {
				curB = v.b
			}
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// reqID renders the benchmark's own id for request i of a phase.
func reqID(phase string, i int) string { return fmt.Sprintf("%s-%d", phase, i) }
