package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer's public function: the layer's
// span name, the op it belongs to, and the span that caused it.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = a root span
	Op     int    `json:"op"`     // op index within the pass; -1 = set-up
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans and layer counters in memory until the run ends. A
// nil *Tracer is the untraced run: every method is a no-op, so the
// workloads call it unconditionally.
type Tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []Span
	counts  map[string]float64
	samples map[string][]float64
}

func newTracer() *Tracer {
	return &Tracer{t0: time.Now(), counts: map[string]float64{}, samples: map[string][]float64{}}
}

// Start opens a span and returns its id (0 when untraced).
func (t *Tracer) Start(name string, op, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

// End closes the span id.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Add accumulates a layer counter measured at a span boundary.
func (t *Tracer) Add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// Max raises a layer gauge to v if v is larger.
func (t *Tracer) Max(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if v > t.counts[name] {
		t.counts[name] = v
	}
	t.mu.Unlock()
}

// Observe adds one sample of a per-op layer quantity (a percentile is
// taken over them).
func (t *Tracer) Observe(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// Samples returns the observed samples of name.
func (t *Tracer) Samples(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.samples[name]...)
}

// Count returns a counter's value.
func (t *Tracer) Count(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// Durations returns the duration of every closed span with the name.
func (t *Tracer) Durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// Total is the summed duration of the name's spans.
func (t *Tracer) Total(name string) time.Duration {
	var sum time.Duration
	for _, d := range t.Durations(name) {
		sum += d
	}
	return sum
}

// Write saves the spans, ordered by start, and the counters as one JSON
// document.
func (t *Tracer) Write(path string) error {
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	doc := struct {
		Spans  []Span             `json:"spans"`
		Counts map[string]float64 `json:"counts"`
	}{spans, t.counts}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
