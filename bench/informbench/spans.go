package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the traced run.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0 = root
	Req    int64  `json:"req,omitempty"`    // shared by the spans of one request
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run calls the same code with no spans.
type tracer struct {
	t0    time.Time
	reqs  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// timer is an open span. Its stop method returns the elapsed time whether
// or not a tracer records it.
type timer struct {
	t     *tracer
	id    int
	start time.Time
}

// begin opens a span under parent (0 = root) for request req (0 = none).
func (t *tracer) begin(name string, parent int, req int64) timer {
	now := time.Now()
	if t == nil {
		return timer{start: now}
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: int64(now.Sub(t.t0)), End: -1})
	id := len(t.spans)
	t.mu.Unlock()
	return timer{t: t, id: id, start: now}
}

func (tm timer) stop() time.Duration {
	now := time.Now()
	if tm.t != nil {
		tm.t.mu.Lock()
		tm.t.spans[tm.id-1].End = int64(now.Sub(tm.t.t0))
		tm.t.mu.Unlock()
	}
	return now.Sub(tm.start)
}

// newReq returns a fresh request id (0 without a tracer).
func (t *tracer) newReq() int64 {
	if t == nil {
		return 0
	}
	return t.reqs.Add(1)
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
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

// checkSpans verifies that every span is closed and lies inside its
// parent's interval.
func checkSpans(spans []span) error {
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %s: not closed", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent < 1 || s.Parent > len(spans) {
			return fmt.Errorf("span %d %s: unknown parent %d", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent-1]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %s [%d,%d] outside parent %d %s [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover; children that overlap each other (parallel jobs
// under one pass) count once. Indexed like spans.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		var covered, curStart, curEnd int64
		open := false
		for _, c := range cs {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi <= lo {
				continue
			}
			switch {
			case !open:
				curStart, curEnd, open = lo, hi, true
			case lo > curEnd:
				covered += curEnd - curStart
				curStart, curEnd = lo, hi
			case hi > curEnd:
				curEnd = hi
			}
		}
		if open {
			covered += curEnd - curStart
		}
		out[i] = s.dur() - time.Duration(covered)
	}
	return out
}

// layerTime totals the spans of one name.
type layerTime struct {
	n           int
	total, self time.Duration
}

func byName(spans []span) map[string]*layerTime {
	self := selfTimes(spans)
	out := map[string]*layerTime{}
	for i, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.n++
		lt.total += s.dur()
		lt.self += self[i]
	}
	return out
}
