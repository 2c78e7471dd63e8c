// Package transport is the wire abstraction under the spmd engine:
// per-pair ordered message streams between the abstract processors
// (ranks 1..NP), plus the small set of process-level collectives the
// engine's replicated control flow needs (broadcast, barrier). There
// is one implementation of Transport — the core (core.go), which owns
// sticky failure, correlation stamping, tracing, the wire counters, the
// membership view, the liveness monitor and the collectives — over
// three byte-movers, each a small unexported link: inproc (capacity-1
// buffered channels, the zero-copy default, all ranks in one address
// space), shm (lock-free SPSC ring buffers over one mmap'd file — the
// fast multi-process wire, no syscall on the fast path) and tcp
// (length-prefixed frames over localhost sockets with a handshake
// carrying process index and job generation). One Config describes a
// process's membership in a job on any of them and Join(kind, cfg)
// makes it a member; the latter two let the identical compiled
// schedules, remaps, reductions and inspector plans execute across
// real OS processes (see cmd/hpfrun).
//
// Contract: messages between one ordered rank pair (src,dst) are
// delivered FIFO; streams of distinct pairs are independent. Send
// hands its slice over and Recv lends one until the next Recv on the
// stream; the core recycles both per stream for Buffer. Send never
// blocks indefinitely against a live receiver (the inproc transport
// blocks only on its per-pair capacity-1 backpressure; the tcp
// transport buffers in per-pair mailboxes, shm spills to a pending
// queue). Collectives (Bcast, Barrier) must be invoked by every
// participating process in the same order — the engine guarantees this
// by construction, since every process executes the same deterministic
// control flow. A failed transport (Fail, or an I/O error on a
// connection) aborts blocked Send/Recv calls instead of deadlocking:
// Recv returns nil and Send drops the message, with the sticky error
// readable via Err.
//
// Failure detection: in a multi-process job the core's monitor watches
// each wire's liveness evidence — tcp exchanges heartbeat frames on
// every connection, shm stamps per-process liveness slots in the
// mapped header — and a member that stops responding (SIGKILL, a
// wedged host) is reported as a *MemberLostError naming the lost
// process, which is what the recovery layer (package elastic) keys its
// generation-bumped rejoin on. Status returns the current membership
// view. The chaos transport (NewChaos) injects these failures
// deterministically for tests.
package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"hpfnt/internal/obs"
)

// Kinds of transport.
const (
	Inproc = "inproc"
	Shm    = "shm"
	TCP    = "tcp"
)

// Kinds lists the available transport kinds.
func Kinds() []string { return []string{Inproc, Shm, TCP} }

// Transport carries the spmd engine's communication: per-pair ordered
// rank-to-rank message streams plus process-level collectives.
type Transport interface {
	// Kind reports the transport kind ("inproc", "shm" or "tcp").
	Kind() string
	// NP reports the abstract processor (rank) count.
	NP() int
	// Procs reports the number of participating OS processes.
	Procs() int
	// Self reports this process's index in 0..Procs-1.
	Self() int
	// HostOf reports the process index hosting the given rank.
	HostOf(rank int) int
	// Buffer returns an n-value slice, of undefined contents, to fill
	// and Send on the (src,dst) stream: in steady state a recycled one.
	Buffer(src, dst, n int) []float64
	// Send delivers one message on the ordered (src,dst) rank stream
	// and takes ownership of msg: the caller must not touch it again.
	// src must be hosted by this process. On a failed transport the
	// message is dropped.
	Send(src, dst int, msg []float64)
	// Recv returns the next message of the ordered (src,dst) stream.
	// dst must be hosted by this process. The slice is lent: it stays
	// valid until the next Recv on the same stream, which takes it
	// back. Returns nil once the transport has failed.
	Recv(src, dst int) []float64
	// Bcast publishes vals from process `from` to every process and
	// returns them everywhere; callers on other processes pass nil.
	// Returns nil on a failed transport.
	Bcast(from int, vals []float64) []float64
	// Barrier blocks until every process has arrived (an epoch fence
	// for job-level phases; the engine's per-epoch worker barrier is
	// process-local and does not use it).
	Barrier() error
	// Fail puts the transport into the sticky failed state, aborting
	// all blocked Send/Recv calls engine-wide.
	Fail(err error)
	// Err returns the sticky failure, if any.
	Err() error
	// Status returns the current membership view: which processes
	// this transport believes are alive. Cheap and safe to call at
	// any time from any goroutine.
	Status() Health
	// Close releases the transport's resources. Idempotent.
	Close() error
}

// Health is a point-in-time membership view of a job's processes.
type Health struct {
	// Procs and Self mirror the transport's shape.
	Procs, Self int
	// Generation is the job generation this transport joined at
	// (0 for the generation-less inproc wire).
	Generation int
	// Alive[i] reports whether process i is believed alive:
	// heartbeats current (tcp), liveness stamp fresh (shm). A
	// process's own entry is always true.
	Alive []bool
	// Err is the transport's sticky failure, if any.
	Err error
}

// Lost lists the process indexes currently believed dead.
func (h Health) Lost() []int {
	var out []int
	for i, a := range h.Alive {
		if !a {
			out = append(out, i)
		}
	}
	return out
}

// WireStats is a point-in-time snapshot of a transport's physical
// wire activity: frames and payload bytes actually moved (after any
// schedule-level coalescing), plus fast-path stall events — ring-full
// spins on the shm wire, capacity backpressure blocks on inproc.
// These are physical-layer counters, deliberately outside the
// machine's logical cost model: two wires running the same job report
// identical machine.Reports but different WireStats.
type WireStats struct {
	FramesSent, FramesRecv int64
	BytesSent, BytesRecv   int64
	Stalls                 int64
}

// WireCounter is implemented by transports that meter their wire;
// the live /metrics endpoint surfaces the counters when present.
type WireCounter interface {
	Wire() WireStats
}

// HeartbeatStats is implemented by every transport the core backs
// (trivially so for a single process): Staleness reports, per process,
// the time since that member's last sign of life — a heartbeat frame
// or data on the tcp wire, a fresh liveness stamp on shm. Self entries
// are zero. Staleness approaching the wire's failure threshold is the
// early-warning metric the /metrics endpoint exposes.
type HeartbeatStats interface {
	Staleness() []time.Duration
}

// wireTally is the lock-free WireStats implementation the core
// embeds.
type wireTally struct {
	framesSent, framesRecv atomic.Int64
	bytesSent, bytesRecv   atomic.Int64
	stalls                 atomic.Int64
}

func (w *wireTally) countSend(bytes int64) {
	w.framesSent.Add(1)
	w.bytesSent.Add(bytes)
}

func (w *wireTally) countRecv(bytes int64) {
	w.framesRecv.Add(1)
	w.bytesRecv.Add(bytes)
}

func (w *wireTally) countStall() { w.stalls.Add(1) }

// Wire snapshots the counters (WireCounter).
func (w *wireTally) Wire() WireStats {
	return WireStats{
		FramesSent: w.framesSent.Load(),
		FramesRecv: w.framesRecv.Load(),
		BytesSent:  w.bytesSent.Load(),
		BytesRecv:  w.bytesRecv.Load(),
		Stalls:     w.stalls.Load(),
	}
}

// MemberLostError is the sticky failure reported when a member
// process of a multi-process job is detected dead (connection lost,
// heartbeats stale, liveness stamp frozen) or when the chaos wire
// scripts such a loss. The recovery layer treats it as retryable: the
// job can rebuild at a bumped generation, restore the last checkpoint
// and replay.
type MemberLostError struct {
	// Proc is the lost process's index in 0..Procs-1.
	Proc int
	// Cause describes how the loss was detected.
	Cause string
	// Err is the underlying I/O error, if any.
	Err error
}

func (e *MemberLostError) Error() string {
	s := fmt.Sprintf("transport: member process %d lost (%s)", e.Proc, e.Cause)
	if e.Err != nil {
		s += ": " + e.Err.Error()
	}
	return s
}

func (e *MemberLostError) Unwrap() error { return e.Err }

// AsMemberLost extracts the lost process index from an error chain.
func AsMemberLost(err error) (proc int, ok bool) {
	var mle *MemberLostError
	if errors.As(err, &mle) {
		return mle.Proc, true
	}
	return 0, false
}

// ErrChaosKilled is the local sticky error of a member the chaos
// transport abruptly killed: the process's own operations fail with
// it, while its peers observe a *MemberLostError through their
// detectors, exactly as if the process had been SIGKILLed.
var ErrChaosKilled = errors.New("transport: member abruptly killed by chaos plan")

// Backoff returns the jittered exponential backoff delay for the
// given 0-based retry attempt: base·2^attempt capped at max, with a
// uniform ±25% jitter so a fleet of rejoining workers does not hammer
// the rendezvous in lockstep. Shared by the tcp dial-retry loop and
// the recovery layer's rejoin path.
func Backoff(attempt int, base, max time.Duration) time.Duration {
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if max > 0 && d > max {
		d = max
	}
	// ±25% jitter.
	j := time.Duration(rand.Int63n(int64(d)/2 + 1))
	return d - d/4 + j
}

// HostOfRank computes the deterministic block partition of ranks
// 1..np over procs ≤ np processes: with q = np/procs and r = np%procs,
// the first r processes host q+1 ranks each and the rest q, so no
// process is empty. Every process derives the same partition.
func HostOfRank(np, procs, rank int) int {
	q, r := np/procs, np%procs
	k := rank - 1
	if k < r*(q+1) {
		return k / (q + 1)
	}
	return r + (k-r*(q+1))/q
}

// RanksOf returns the inclusive rank interval [lo,hi] hosted by
// process self under the block partition of HostOfRank.
func RanksOf(np, procs, self int) (lo, hi int) {
	q, r := np/procs, np%procs
	lo = self*q + min(self, r) + 1
	hi = lo + q - 1
	if self < r {
		hi++
	}
	return lo, hi
}

// failBox is the sticky failure state the core and its link share: the
// core reads and raises it, a link raises it on an I/O error or a
// peer's shared failure flag, and the first failure runs the link's
// abort hook so every blocked byte-mover wakes.
type failBox struct {
	mu   sync.Mutex
	err  error
	stop chan struct{}
	// onFail is link.abort, registered by the link's constructor before
	// it starts any goroutine.
	onFail func(error)
}

func newFailBox() *failBox { return &failBox{stop: make(chan struct{})} }

// fail records err (first one wins), closes the stop channel and runs
// the abort hook. The first failure is also the one observability
// event worth recording: every wire's detection path funnels through
// here, so a trace shows exactly one member-lost (or fail) instant per
// transport incarnation.
func (f *failBox) fail(err error) {
	f.mu.Lock()
	if f.err != nil {
		f.mu.Unlock()
		return
	}
	f.err = err
	close(f.stop)
	if obs.TraceEnabled() {
		if proc, ok := AsMemberLost(err); ok {
			obs.Instant("member-lost", fmt.Sprintf("member %d lost: %v", proc, err), 0)
		} else {
			obs.Instant("fail", fmt.Sprintf("transport failed: %v", err), 0)
		}
	}
	f.mu.Unlock()
	if f.onFail != nil {
		f.onFail(err)
	}
}

func (f *failBox) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// failed is the lock-free form of get() != nil for the message path.
func (f *failBox) failed() bool {
	select {
	case <-f.stop:
		return true
	default:
		return false
	}
}

// Config describes one process's membership in a named job on any
// wire.
type Config struct {
	// Job names the job; all members must agree.
	Job string
	// NP is the abstract processor (rank) count.
	NP int
	// Procs is the number of participating OS processes; every process
	// must host at least one rank under the block partition.
	Procs int
	// Self is this process's index in 0..Procs-1. Process 0 is the
	// leader: it binds Addr (tcp) or creates the mapped file (shm).
	Self int
	// Generation distinguishes successive runs of the same job name; a
	// member from a stale generation is refused (tcp: at the handshake;
	// shm: it computes a different file name, or finds its slot taken).
	Generation int
	// Addr is the tcp leader's rendezvous address (host:port). The
	// leader binds it; everyone else dials it.
	Addr string
	// Dir holds the shm rendezvous file, whose name is derived from
	// Job, Generation and Procs (default /dev/shm when present, else
	// the system temp dir).
	Dir string
	// Timeout bounds the whole bootstrap. Zero means 30s.
	Timeout time.Duration
	// Heartbeat is the liveness interval: a heart frame on every tcp
	// connection, a refreshed header stamp on shm. Zero means 250ms.
	Heartbeat time.Duration
	// FailAfter is how long a peer may show no sign of life before it
	// is declared lost with a *MemberLostError. Zero means 8×Heartbeat.
	FailAfter time.Duration
}

func (cfg *Config) heartbeat() time.Duration {
	if cfg.Heartbeat > 0 {
		return cfg.Heartbeat
	}
	return 250 * time.Millisecond
}

func (cfg *Config) failAfter() time.Duration {
	if cfg.FailAfter > 0 {
		return cfg.FailAfter
	}
	return 8 * cfg.heartbeat()
}

// validate refuses a shape no wire can run, before anything touches
// the network or the file system, and fills in the Timeout default.
func (cfg *Config) validate(kind string) error {
	switch {
	case cfg.NP < 1:
		return fmt.Errorf("transport: rank count must be positive, got %d", cfg.NP)
	case cfg.Procs < 1 || cfg.Procs > cfg.NP:
		return fmt.Errorf("transport: process count %d out of range 1..%d", cfg.Procs, cfg.NP)
	case cfg.Self < 0 || cfg.Self >= cfg.Procs:
		return fmt.Errorf("transport: process index %d out of range 0..%d", cfg.Self, cfg.Procs-1)
	case kind == Inproc && cfg.Procs > 1:
		return fmt.Errorf("transport: the inproc wire is single-process, got %d processes (use shm or tcp)", cfg.Procs)
	case kind == TCP && cfg.Procs > 1 && cfg.Addr == "":
		return fmt.Errorf("transport: a multi-process tcp job needs a rendezvous address")
	case kind == Shm && cfg.Procs > shmMaxProcs:
		return fmt.Errorf("transport: shm supports at most %d processes, got %d", shmMaxProcs, cfg.Procs)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	return nil
}

// Join makes this process a member of the job cfg describes on the
// wire of the given kind and returns once every member has joined and
// the initial job barrier has completed. With Procs == 1 it is the
// loopback form of the wire: the shm rings over a real (unlinked)
// mapping, or a self-dialled tcp connection, so every message still
// crosses the real framing and demux path.
func Join(kind string, cfg Config) (Transport, error) {
	if err := cfg.validate(kind); err != nil {
		return nil, err
	}
	fb, bufs := newFailBox(), newBufPool(cfg.NP)
	var l link
	var err error
	switch kind {
	case Inproc:
		l = newInprocLink(cfg.NP, fb)
	case Shm:
		l, err = openShm(cfg, fb, bufs)
	case TCP:
		l, err = dialTCP(cfg, fb, bufs)
	default:
		err = fmt.Errorf("transport: unknown kind %q (have %v)", kind, Kinds())
	}
	if err != nil {
		return nil, err
	}
	c := newCore(kind, cfg, fb, l, bufs)
	if cfg.Procs > 1 {
		c.startMonitor()
		if err := c.Barrier(); err != nil { // the job starts aligned
			c.Close()
			return nil, fmt.Errorf("transport: job %q initial barrier: %w", cfg.Job, err)
		}
	}
	return c, nil
}

// New creates a single-process transport of the given kind over np
// ranks (Join with Procs 1).
func New(kind string, np int) (Transport, error) {
	return Join(kind, Config{Job: "loop", NP: np, Procs: 1})
}

// NewInproc creates the in-process transport over np ranks.
func NewInproc(np int) Transport {
	fb := newFailBox()
	return newCore(Inproc, Config{NP: np, Procs: 1}, fb, newInprocLink(np, fb), newBufPool(np))
}
