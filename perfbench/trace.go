package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"junicon/internal/telemetry"
)

// Spans are recorded by the benchmark around its own calls into each
// layer's public functions (the program itself is not instrumented
// here). A nil *tracer records nothing, so the untraced run pays one nil
// test per call site.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Phase  string `json:"phase"`
	Key    int64  `json:"key"` // job or stream id within the phase
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(parent int32, phase, name, layer string, key int64, start, end time.Time) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Layer: layer, Phase: phase, Key: key,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// reserve allocates the id of a root span whose children finish before
// it does; fill completes it.
func (t *tracer) reserve() int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{})
	return int32(len(t.spans))
}

func (t *tracer) fill(id int32, phase, name, layer string, key int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1] = span{
		ID: id, Name: name, Layer: layer, Phase: phase, Key: key,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	}
}

// selfTimes returns, per layer, the time spans of phase spent outside
// their child spans, and the total duration of the phase's root spans.
func (t *tracer) selfTimes(phase string) (self map[string]float64, rootNs float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int32][]span)
	for _, s := range t.spans {
		if s.Phase == phase && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self = make(map[string]float64)
	for _, s := range t.spans {
		if s.Phase != phase {
			continue
		}
		if s.Parent == 0 {
			rootNs += float64(s.End - s.Start)
		}
		self[s.Layer] += float64(s.End-s.Start) - covered(s, children[s.ID])
	}
	return self, rootNs
}

// covered is the part of parent's interval that the union of kids covers.
func covered(parent span, kids []span) float64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, end int64
	end = parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, end), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			end = hi
		}
	}
	return float64(total)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counters reads the program's exported telemetry by name. A name the
// program does not export reads as not ok, and the metric built from it
// is reported absent rather than failing the run.
type counters map[string]any

func readCounters() counters { return telemetry.Snapshot() }

func (c counters) int(name string) (float64, bool) {
	v, ok := c[name].(int64)
	return float64(v), ok
}

// quantile reads a quantile of a histogram; a missing or empty histogram
// reads as not ok.
func (c counters) quantile(name string, q float64) (float64, bool) {
	if h, ok := c[name].(telemetry.HistogramSnapshot); ok && h.Count > 0 {
		return h.Quantile(q), true
	}
	return 0, false
}

// spansOf copies the spans recorded in phase.
func (t *tracer) spansOf(phase string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Phase == phase {
			out = append(out, s)
		}
	}
	return out
}
