package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one replayed job share
// Job; Parent 0 marks a root (a job, or a probe run outside any job).
// Calls counts the operations a probe span loops over, so per-call costs
// can be read from one span without timing each call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int    `json:"calls,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out once, when the
// traced run ends. Safe for concurrent use: fanned-out calls (mapping
// designs on the worker pool) record from several goroutines.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id.
func (t *tracer) begin(parent int, name, job string) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Job: job, Start: start})
	return id
}

// end closes span id, recording calls operations when it is a probe loop.
func (t *tracer) end(id, calls int) {
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.spans[id-1].Calls = calls
	t.mu.Unlock()
}

// do runs fn inside a span named name under parent.
func (t *tracer) do(parent int, name, job string, fn func()) {
	id := t.begin(parent, name, job)
	fn()
	t.end(id, 0)
}

// setJob tags spans opened before their job id was known (the job span
// and its warm-start resolution, which computes the id).
func (t *tracer) setJob(job string, ids ...int) {
	t.mu.Lock()
	for _, id := range ids {
		t.spans[id-1].Job = job
	}
	t.mu.Unlock()
}

// snapshot returns a copy of every span recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string, meta map[string]any) error {
	doc := map[string]any{"spans": t.snapshot()}
	for k, v := range meta {
		doc[k] = v
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// covered returns how many nanoseconds of [lo, hi) the intervals cover.
// Intervals may overlap (children fanned out over the worker pool), so
// this is the length of their union clipped to the window, not a sum.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := iv[0], iv[1]
		if s < cur {
			s = cur
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// selfTimes returns each span's duration minus the part of its interval
// its direct children cover. For a job span, that remainder is the job's
// wall time no layer span accounts for.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return self
}
