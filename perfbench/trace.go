package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public API, recorded on the
// benchmark's side of the boundary: the program itself is not instrumented.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	// Req is the campaign id every span of one request shares; Cell is the
	// matrix index of the cell a span works on, or -1.
	Req  string `json:"req"`
	Cell int    `json:"cell"`
	// Fabric is the registry name of the cell's interconnect, where one applies.
	Fabric string `json:"fabric,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so traced and untraced runs share one code path.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, req string, cell int, fabric string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		Cell: cell, Fabric: fabric, Start: now, End: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds an already-timed span, for intervals (such as submit to first
// cell) that no single call covers.
func (t *tracer) record(name string, parent int, req string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req,
		Cell: -1, Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time, indexed like spans: its duration
// minus the part of its interval covered by the union of its children's
// intervals. Children may overlap each other (concurrent calls) or stick out
// of the parent; only the covered part of the parent's own interval counts.
func selfTimes(spans []span) []int64 {
	pos := make(map[int]int, len(spans))
	for i, s := range spans {
		pos[s.ID] = i
	}
	children := make([][]span, len(spans))
	for _, s := range spans {
		if p, ok := pos[s.Parent]; ok && s.Parent != 0 {
			children[p] = append(children[p], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s.Start, s.End, children[i])
	}
	return self
}

// covered is the length of [lo, hi) that the union of kids' intervals covers.
func covered(lo, hi int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
	var total int64
	cur := lo // everything before cur is already counted or outside
	for _, k := range kids {
		s, e := max(k.Start, cur), min(k.End, hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// writeSpans writes the spans as NDJSON under dir, for diffing two commits'
// traced runs span by span.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close %s: %w", path, err)
	}
	return path, nil
}
