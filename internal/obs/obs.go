// Package obs is the runtime observability layer: low-overhead phase
// timing switches, a lock-free ring-buffered event recorder with a
// Chrome trace-event exporter (open the JSON in Perfetto or
// chrome://tracing), and a pull-based metrics registry serving the
// Prometheus text exposition format over HTTP.
//
// The package is deliberately dependency-free (standard library only)
// so every layer of the runtime — machine, spmd, transport, elastic,
// ckpt — can emit into it without import cycles. Everything is off by
// default and costs a single atomic load per instrumentation site
// when disabled, which is what keeps the equivalence and benchmark
// gates honest: instrumentation must never change what a job computes
// and must cost ~nothing when nobody is looking.
//
// Two independent switches exist:
//
//   - EnableTiming turns on the spmd engine's per-worker phase timers
//     (compute / ghost-wait / barrier-wait / reduce / checkpoint wall
//     time, aggregated into machine.Report.Phase).
//   - StartTrace installs the global event recorder; spans and instant
//     events (epochs, remaps, checkpoints, generation bumps,
//     rollbacks, member losses) are then captured into a fixed-size
//     ring and exportable as a Chrome trace.
//
// Both are flipped by the observability flags of cmd/hpfrun
// (-http/-trace/-verbose) and cmd/hpfbench (-trace).
package obs

import (
	"sync/atomic"
	"time"
)

// timing is the global phase-timer switch (see EnableTiming).
var timing atomic.Bool

// EnableTiming switches the per-worker phase timers on or off
// process-wide. Off (the default) the instrumentation sites cost one
// atomic load and take no clock readings.
func EnableTiming(on bool) { timing.Store(on) }

// TimingEnabled reports whether phase timers are on.
func TimingEnabled() bool { return timing.Load() }

// Event is one recorded observation: a span (Dur > 0) or an instant
// (Dur == 0), attributed to a process and optionally a worker rank.
type Event struct {
	// Kind groups events for the exporter ("epoch", "remap",
	// "checkpoint", "restore", "reduce", "recovery", "member-lost").
	Kind string
	// Name is the human-readable label shown on the trace slice.
	Name string
	// Proc is the OS-process index of the emitter (0 in a
	// single-process job).
	Proc int
	// Rank is the worker rank the event belongs to, or 0 for
	// process-level events (the exporter lanes rank 0 as "ctrl").
	Rank int
	// Start is the event's wall-clock start in nanoseconds since the
	// Unix epoch; Dur its duration in nanoseconds (0 for instants).
	Start int64
	Dur   int64
	// Epoch is the execution epoch the event belongs to (0 when the
	// emitter is outside any epoch). Senders stamp it from the global
	// epoch counter; receivers stamp it from the message's correlation
	// ID, so a cross-process pair always agrees on the epoch even when
	// the processes' own counters are momentarily out of step.
	Epoch int64
	// Flow is a nonzero correlation ID shared by a matched send/recv
	// pair; the trace exporter turns it into Perfetto flow arrows that
	// make cross-process causality visible. 0 for non-message events.
	Flow uint64
}

// Recorder is a fixed-capacity lock-free ring of events: emitters
// claim slots with a per-slot sequence CAS (no shared lock, no
// allocation), and once the ring wraps the oldest events are
// overwritten — a long job keeps its most recent window, which is the
// window that explains why it is slow or stuck right now.
type Recorder struct {
	proc  int
	next  atomic.Uint64
	slots []slot
}

// slot is one ring entry. seq is even when the slot is stable and odd
// while a writer (or the snapshotter) holds it; the CAS claim makes
// the plain Event accesses race-free (Go atomics establish
// happens-before on the claimed address).
type slot struct {
	seq atomic.Uint64
	ev  Event
}

// NewRecorder creates a recorder attributing events to the given
// process index. Capacity is rounded up to a power of two (minimum
// 1024).
func NewRecorder(proc, capacity int) *Recorder {
	n := 1024
	for n < capacity {
		n <<= 1
	}
	return &Recorder{proc: proc, slots: make([]slot, n)}
}

// Emit records one event (its Proc is stamped by the recorder, and an
// unset Epoch is stamped from the process-wide epoch counter).
func (r *Recorder) Emit(ev Event) {
	ev.Proc = r.proc
	if ev.Epoch == 0 {
		ev.Epoch = epoch.Load()
	}
	i := r.next.Add(1) - 1
	s := &r.slots[i&uint64(len(r.slots)-1)]
	for {
		seq := s.seq.Load()
		if seq&1 == 0 && s.seq.CompareAndSwap(seq, seq+1) {
			s.ev = ev
			s.seq.Store(seq + 2)
			return
		}
		// Another writer (a wrapped emitter or the snapshotter) holds
		// the slot; on a ring sized for the job this is vanishingly
		// rare, so spinning is cheaper than any queueing.
	}
}

// Snapshot copies the currently-stable events out of the ring in
// approximate emission order. Safe to call concurrently with Emit.
func (r *Recorder) Snapshot() []Event {
	n := uint64(len(r.slots))
	head := r.next.Load()
	lo := uint64(0)
	if head > n {
		lo = head - n
	}
	out := make([]Event, 0, head-lo)
	for i := lo; i < head; i++ {
		s := &r.slots[i&(n-1)]
		for {
			seq := s.seq.Load()
			if seq&1 == 0 && s.seq.CompareAndSwap(seq, seq+1) {
				ev := s.ev
				s.seq.Store(seq + 2)
				if ev.Kind != "" {
					out = append(out, ev)
				}
				break
			}
		}
	}
	return out
}

// global is the installed recorder, nil when tracing is off.
var global atomic.Pointer[Recorder]

// StartTrace installs a fresh global recorder (and implies nothing
// about timing — flip EnableTiming separately). Returns the recorder
// so the caller can snapshot or export it at shutdown.
func StartTrace(proc, capacity int) *Recorder {
	r := NewRecorder(proc, capacity)
	global.Store(r)
	return r
}

// StopTrace uninstalls the global recorder and returns it (nil when
// none was installed).
func StopTrace() *Recorder {
	r := global.Load()
	global.Store(nil)
	return r
}

// TraceEnabled reports whether a global recorder is installed. Use it
// to skip building event payloads entirely on hot paths.
func TraceEnabled() bool { return global.Load() != nil }

// Emit records ev on the global recorder, if one is installed.
func Emit(ev Event) {
	if r := global.Load(); r != nil {
		r.Emit(ev)
	}
}

// Span records a completed span [start, now) on the global recorder.
// Call with the start captured via Now at the beginning of the
// region; a nil recorder makes it a no-op.
func Span(kind, name string, rank int, start time.Time) {
	if r := global.Load(); r != nil {
		r.Emit(Event{Kind: kind, Name: name, Rank: rank, Start: start.UnixNano(), Dur: int64(time.Since(start))})
	}
}

// BeginSpan opens a span on the global recorder and returns the
// closure that completes it. Returns nil when tracing is off, so
// callers gate with one nil check:
//
//	span := obs.BeginSpan("epoch", "execute", 0)
//	... region ...
//	if span != nil { span() }
func BeginSpan(kind, name string, rank int) func() {
	r := global.Load()
	if r == nil {
		return nil
	}
	start := time.Now()
	return func() {
		r.Emit(Event{Kind: kind, Name: name, Rank: rank, Start: start.UnixNano(), Dur: int64(time.Since(start))})
	}
}

// Instant records an instantaneous event on the global recorder.
func Instant(kind, name string, rank int) {
	if r := global.Load(); r != nil {
		r.Emit(Event{Kind: kind, Name: name, Rank: rank, Start: time.Now().UnixNano()})
	}
}

// Now returns the current time when tracing or timing needs it; it is
// a plain time.Now wrapper kept here so instrumentation sites read as
// observability code.
func Now() time.Time { return time.Now() }

// epoch is the process-wide execution-epoch counter. The spmd engine
// advances it once per collective dispatch; because every process of a
// job replays the identical replicated control flow, the counters
// agree across processes without any wire traffic, which is what lets
// a merged trace group events (and message correlation IDs) by epoch.
var epoch atomic.Int64

// AdvanceEpoch bumps the process-wide epoch counter and returns the
// new value. One atomic add — safe to call unconditionally.
func AdvanceEpoch() int64 { return epoch.Add(1) }

// CurrentEpoch returns the process-wide epoch counter (0 before the
// first dispatch).
func CurrentEpoch() int64 { return epoch.Load() }

// SetEpoch forces the epoch counter, used when a process rejoins a job
// mid-flight and must adopt the job's epoch instead of its own.
func SetEpoch(e int64) { epoch.Store(e) }

// iterations counts the statement iterations this process computed:
// the elastic watchdog's progress within one dispatch that replays.
var iterations atomic.Int64

// AdvanceIteration records one computed statement iteration.
func AdvanceIteration() { iterations.Add(1) }

// Iterations returns the process-wide iteration count.
func Iterations() int64 { return iterations.Load() }
