package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Spans of the traced run. A span is one call into a layer's public
// function, recorded from the benchmark's side of the call: name, start,
// end, the span that caused it, and a trace id shared by every span of
// one request or phase. Spans stay in memory and are written out once,
// when the traced run ends.

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// openSpan is a span that has begun and not yet ended.
type openSpan struct {
	r  *recorder
	s  span
	t0 time.Time // start, for a span a nil recorder does not keep
}

// begin opens a span under parent (nil for a root, which starts a new
// trace). A nil recorder keeps nothing: its spans only time their call.
func (r *recorder) begin(name string, parent *openSpan) *openSpan {
	if r == nil {
		return &openSpan{t0: time.Now()}
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	s := span{ID: id, Trace: id, Name: name}
	if parent != nil {
		s.Parent, s.Trace = parent.s.ID, parent.s.Trace
	}
	s.Start = int64(time.Since(r.epoch))
	return &openSpan{r: r, s: s}
}

// end closes the span and returns its duration.
func (o *openSpan) end() time.Duration {
	if o.r == nil {
		return time.Since(o.t0)
	}
	o.s.End = int64(time.Since(o.r.epoch))
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, o.s)
	o.r.mu.Unlock()
	return time.Duration(o.s.End - o.s.Start)
}

// write saves every recorded span as one JSON array.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes maps each span id to its self time: the span's duration
// minus the part of its interval that its child spans cover. Children
// may overlap each other and may overrun the parent; only their union
// inside the parent's interval is subtracted.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, p := range spans {
		kids := children[p.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		cur, curEnd := int64(-1), int64(-1) // current merged interval
		for _, c := range kids {
			lo, hi := max(c.Start, p.Start), min(c.End, p.End)
			if hi <= lo {
				continue
			}
			if cur < 0 || lo > curEnd {
				covered += curEnd - cur
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		covered += curEnd - cur
		self[p.ID] = p.End - p.Start - covered
	}
	return self
}

// spanTotal is the per-name roll-up printed after a traced run.
type spanTotal struct {
	Name          string
	Count         int
	Total, Self   time.Duration
	Longest       time.Duration
	firstStartsAt int64
}

func rollup(spans []span) []spanTotal {
	self := selfTimes(spans)
	by := make(map[string]*spanTotal)
	var order []*spanTotal
	for _, s := range spans {
		t := by[s.Name]
		if t == nil {
			t = &spanTotal{Name: s.Name, firstStartsAt: s.Start}
			by[s.Name] = t
			order = append(order, t)
		}
		d := time.Duration(s.End - s.Start)
		t.Count++
		t.Total += d
		t.Self += time.Duration(self[s.ID])
		t.Longest = max(t.Longest, d)
		t.firstStartsAt = min(t.firstStartsAt, s.Start)
	}
	sort.Slice(order, func(i, j int) bool { return order[i].firstStartsAt < order[j].firstStartsAt })
	out := make([]spanTotal, len(order))
	for i, t := range order {
		out[i] = *t
	}
	return out
}
