package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the public function it calls. Spans of one job share its
// id; probes use job -1.
type span struct {
	Name   string        `json:"name"`
	Job    int           `json:"job"`
	Parent int           `json:"parent"` // index into the trace, -1 for roots
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// Scheme and Failed classify run.Execute spans; Refs is the
	// simulated memory references the call performed.
	Scheme string `json:"scheme,omitempty"`
	Failed bool   `json:"failed,omitempty"`
	Refs   uint64 `json:"refs,omitempty"`
	// Bytes is the encoded size of a stats.Report span's output.
	Bytes int `json:"bytes,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 when tracing is off).
func (t *tracer) begin(name string, job, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent, Start: now})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// annotate attaches run.Execute details to span i.
func (t *tracer) annotate(i int, scheme string, failed bool, refs uint64) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	s := &t.spans[i]
	s.Scheme, s.Failed, s.Refs = scheme, failed, refs
	t.mu.Unlock()
}

// setBytes attaches an output size to span i.
func (t *tracer) setBytes(i, n int) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].Bytes = n
	t.mu.Unlock()
}

// record adds an already-measured span (used where the start and end
// were observed on different goroutines or derived from a replay).
func (t *tracer) record(name string, job, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent,
		Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	return len(t.spans) - 1
}

// write emits the spans as JSON lines.
func (t *tracer) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children (overlapping children count
// once; parts of a child outside the parent do not count).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB time.Duration
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curA, curB, open = v.a, v.b, true
			case v.a <= curB:
				curB = max(curB, v.b)
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if open {
			covered += curB - curA
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}
