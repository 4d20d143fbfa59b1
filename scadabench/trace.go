package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into the program's
// public functions and HTTP routes. It keeps every span in memory and
// writes them out once the run ends. A nil *tracer records nothing, so
// untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []*span
}

// span is one timed call: its layer-qualified name, the operation it
// belongs to, the span that caused it, and the phase and counter
// numbers the call returned.
type span struct {
	ID     int64              `json:"id"`
	Parent int64              `json:"parent,omitempty"`
	Op     int64              `json:"op"`
	Name   string             `json:"name"`
	Start  time.Duration      `json:"startNanos"`
	End    time.Duration      `json:"endNanos"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
	Self   time.Duration      `json:"selfNanos"`
	tracer *tracer
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span. parent is nil for an operation's root span, whose
// ID then becomes the operation ID of its descendants.
func (t *tracer) begin(parent *span, name string) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	s := &span{ID: t.next, Name: name, Start: time.Since(t.t0), tracer: t}
	if parent != nil {
		s.Parent, s.Op = parent.ID, parent.Op
	} else {
		s.Op = s.ID
	}
	t.mu.Unlock()
	return s
}

// end closes the span; attrs, when non-nil, is called only on traced
// runs, so building the attribute map costs nothing untraced.
func (s *span) end(attrs func() map[string]float64) {
	if s == nil {
		return
	}
	end := time.Since(s.tracer.t0)
	var a map[string]float64
	if attrs != nil {
		a = attrs()
	}
	t := s.tracer
	t.mu.Lock()
	s.End, s.Attrs = end, a
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// finish computes every span's self time: its duration minus the part
// of its interval that its children cover.
func (t *tracer) finish() {
	children := map[int64][]*span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := time.Duration(0)
		curStart, curEnd := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			ks, ke := max(k.Start, s.Start), min(k.End, s.End)
			if ke <= ks {
				continue
			}
			if ks > curEnd {
				if curEnd > curStart {
					covered += curEnd - curStart
				}
				curStart, curEnd = ks, ke
			} else if ke > curEnd {
				curEnd = ke
			}
		}
		if curEnd > curStart {
			covered += curEnd - curStart
		}
		s.Self = s.End - s.Start - covered
	}
}

// layerOf is the layer a span name belongs to: the text before its
// first dot ("core.Verify" -> "core").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfByLayer sums self time per layer, in milliseconds.
func (t *tracer) selfByLayer() map[string]float64 {
	out := map[string]float64{}
	for _, s := range t.spans {
		out[layerOf(s.Name)] += float64(s.Self) / 1e6
	}
	return out
}

// attrSamples collects, per attribute name, the values every span
// carried.
func (t *tracer) attrSamples() map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range t.spans {
		for k, v := range s.Attrs {
			out[k] = append(out[k], v)
		}
	}
	return out
}

// write dumps the spans as JSONL, one span per line, in start order.
func (t *tracer) write(path string) error {
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}
