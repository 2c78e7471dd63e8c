package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// The benchmark's own span recorder. Spans are recorded only from
// this package, around the calls it makes into each layer; nothing is
// instrumented inside the program. They are kept in memory and
// written when the traced pass ends. The harness is single-threaded,
// so the recorder needs no locking.

// recorder collects the spans of one workload's traced pass.
type recorder struct {
	workload string
	origin   time.Time
	spans    []*span
}

// span is one timed interval: name, start, end, and the span that
// caused it (parent, -1 for the root). A nil *span is the untraced
// pass: child and end are no-ops on it.
type span struct {
	rec        *recorder
	id, parent int
	name       string
	start, fin time.Duration // since the recorder's origin
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, origin: time.Now()}
}

func (r *recorder) begin(name string, parent int) *span {
	s := &span{rec: r, id: len(r.spans), parent: parent, name: name, start: time.Since(r.origin)}
	r.spans = append(r.spans, s)
	return s
}

// root opens the top-level span of the pass.
func (r *recorder) root(name string) *span { return r.begin(name, -1) }

// child opens a span caused by s.
func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	return s.rec.begin(name, s.id)
}

func (s *span) end() {
	if s != nil {
		s.fin = time.Since(s.rec.origin)
	}
}

func (s *span) duration() time.Duration { return s.fin - s.start }

// selfTimes returns, per span id, the span's duration minus the part
// of it its children cover. Children of one parent never overlap
// (single-threaded harness), so the covered part is their sum.
func (r *recorder) selfTimes() []time.Duration {
	self := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		self[s.id] += s.duration()
		if s.parent >= 0 {
			self[s.parent] -= s.duration()
		}
	}
	return self
}

// under sums the durations of the spans with the given name that are
// direct children of parent.
func (r *recorder) under(parent *span, name string) (total time.Duration) {
	for _, s := range r.spans {
		if s.parent == parent.id && s.name == name {
			total += s.duration()
		}
	}
	return total
}

// traceEvent is one Chrome trace-event ("X" = complete slice); the
// file opens in Perfetto or chrome://tracing.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write stores the spans as Chrome trace events in dir/<workload>.trace.json.
func (r *recorder) write(dir string) (string, error) {
	self := r.selfTimes()
	events := make([]traceEvent, len(r.spans))
	for i, s := range r.spans {
		events[i] = traceEvent{
			Name: s.name, Ph: "X", PID: 1, TID: 1,
			TS:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64(s.duration().Nanoseconds()) / 1e3,
			Args: map[string]any{
				"id": s.id, "parent": s.parent, "workload": r.workload,
				"self_us": float64(self[i].Nanoseconds()) / 1e3,
			},
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, r.workload+".trace.json")
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
