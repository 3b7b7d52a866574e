package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed layer call. Spans of one query share Query; Parent is
// the ID of the enclosing span, or -1 for a query's root.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	Query  int       `json:"query"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// open starts a span now and returns its ID (-1 when t is nil).
func (t *tracer) open(query, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Query: query, Name: name, Start: now})
	return id
}

// close ends the span opened as id.
func (t *tracer) close(id int) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a span whose bounds were measured elsewhere: a stamp the
// program exports, or an interval timed outside the tracer.
func (t *tracer) record(query, parent int, name string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Query: query, Name: name, Start: start, End: end})
	return id
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover, indexed by span ID.
func selfTimes(spans []span) []time.Duration {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, children[i])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// layerSelf sums self time by span name, in milliseconds.
func layerSelf(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for i, s := range spans {
		out[s.Name] += ms(self[i])
	}
	return out
}

// meanSelf is the mean self time, in milliseconds, of spans named name.
func meanSelf(spans []span, name string) float64 {
	self := selfTimes(spans)
	var xs []float64
	for i, s := range spans {
		if s.Name == name {
			xs = append(xs, ms(self[i]))
		}
	}
	return mean(xs)
}

// writeSpans writes the spans and the per-layer self times as JSON.
func writeSpans(path, workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		SelfMS   map[string]float64 `json:"self_ms"`
		Spans    []span             `json:"spans"`
	}{workload, seed, layerSelf(spans), spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
