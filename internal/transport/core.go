package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"hpfnt/internal/obs"
)

// link is all a wire implements: moving bytes on two kinds of ordered
// stream and showing signs of life. Everything else about being a
// Transport — identity, sticky failure, correlation stamping, tracing,
// the wire tally, the membership view, the liveness monitor and the
// collectives — is written once, in core, over this interface; a test
// plugs a fake link in to drive those without sockets or /dev/shm.
//
// A link shares the core's failBox: it raises it (fb.fail) on an I/O
// error or a failure a peer published, and its constructor registers
// abort as the box's first-failure hook before starting any goroutine.
type link interface {
	// push sends one message on the ordered (src,dst) rank stream and
	// owns m.msg: it either delivers that slice (inproc, tcp's
	// same-process inbox) or copies it and puts it back in the pool.
	// It reports the physical frame's size in bytes — unmetered when
	// the message was dropped or never touched the wire — and whether
	// the fast path stalled (channel, ring or socket full). It must not
	// block indefinitely against a live receiver.
	push(src, dst int, m inMsg) (bytes int, stalled bool)
	// pop blocks for the next message of the (src,dst) stream; what
	// already arrived is still delivered after an abort, then ok is
	// false (on tcp, what a data socket held counts as arrived on
	// Linux; a BSD kernel discards it when the abort shuts the read
	// side).
	pop(src, dst int) (m inMsg, bytes int, ok bool)
	// sendCtl and recvCtl move one control frame (a ctl* kind plus a
	// float vector) on the ordered stream between this process and a
	// peer process. Never called on a single-process link.
	sendCtl(to int, kind byte, vals []float64) (bytes int, ok bool)
	recvCtl(from int) (kind byte, vals []float64, bytes int, ok bool)
	// lastSeen is the UnixNano time of process proc's last sign of
	// life (tcp: any frame read from it; shm: its header stamp), 0 when
	// there is none; beat emits this process's own (tcp: a heart frame
	// on every control connection; shm: a fresh stamp).
	lastSeen(proc int) int64
	beat(now int64)
	// abort runs once, on the first failure: wake every blocked pop and
	// recvCtl, and tell the peer processes where the wire can — unless
	// err is ErrChaosKilled, whose point is that nobody is told.
	abort(err error)
	// sever cuts the raw connection to peer (every connection when
	// peer < 0) with no goodbye; a no-op on connectionless wires.
	sever(peer int)
	close() error
}

// unmetered is the frame size a link reports for a message that is not
// a frame on its wire: dropped on failure, or short-circuited between
// two ranks of one process (tcp).
const unmetered = -1

// Control frame kinds of the process collectives. The replicated
// control flow means both ends of a process pair always agree on the
// next kind; a mismatch is a protocol bug and fails the job.
const (
	ctlBcast   byte = iota + 1 // root → everyone: the broadcast vector
	ctlArrive                  // peer → leader: barrier arrival
	ctlRelease                 // leader → peers: barrier release
)

// causeSilent is the Cause of the *MemberLostError the monitor raises
// (and the shm wire's survivors repeat for the member it published).
const causeSilent = "no sign of life within the failure threshold"

// inMsg is one in-flight message with its correlation word — the
// in-memory equivalent of a wire frame's [corr][payload] layout.
type inMsg struct {
	corr uint64
	msg  []float64
}

// poolDepth bounds a stream's free list: inproc has three buffers of a
// stream in flight, one filling, one in the channel, one lent.
const poolDepth = 3

// bufPool recycles message buffers per ordered rank stream. Recv takes
// back the slice it lent before and a link whose push copies hands the
// message back; Buffer and the decoding links (the tcp reader, shm's
// pop) draw from the stream's free list, under its lock.
type bufPool struct {
	np      int
	streams []streamBufs
}

type streamBufs struct {
	sync.Mutex
	free [][]float64
	lent []float64 // the receiver's, outside the lock
}

func newBufPool(np int) *bufPool { return &bufPool{np: np, streams: make([]streamBufs, np*np)} }

func (p *bufPool) stream(src, dst int) *streamBufs { return &p.streams[(src-1)*p.np+dst-1] }

// get returns an n-value slice: the stream's latest free buffer, or a
// new one when that is too small.
func (p *bufPool) get(src, dst, n int) []float64 {
	s := p.stream(src, dst)
	s.Lock()
	defer s.Unlock()
	if k := len(s.free) - 1; k >= 0 {
		b := s.free[k]
		if s.free = s.free[:k]; cap(b) >= n {
			return b[:n]
		}
	}
	return make([]float64, n)
}

// put hands back a buffer nobody holds; a full list drops it.
func (p *bufPool) put(src, dst int, b []float64) {
	s := p.stream(src, dst)
	s.Lock()
	if len(s.free) < poolDepth && cap(b) > 0 {
		s.free = append(s.free, b)
	}
	s.Unlock()
}

// core implements Transport, WireCounter and HeartbeatStats over a
// link.
type core struct {
	kind string
	cfg  Config
	link link
	fb   *failBox
	ps   *pairSeq
	bufs *bufPool

	// The liveness monitor exists only in multi-process jobs.
	monStop, monDone chan struct{}
	closeOnce        sync.Once
	closeErr         error

	// The counters are written on every message by whichever worker
	// moved it; a cache line of their own keeps those writes from
	// evicting the fields above, which every message on every worker
	// reads.
	_ [64]byte
	wireTally
}

func newCore(kind string, cfg Config, fb *failBox, l link, bufs *bufPool) *core {
	return &core{kind: kind, cfg: cfg, link: l, fb: fb, ps: newPairSeq(cfg.NP), bufs: bufs}
}

func (c *core) Kind() string        { return c.kind }
func (c *core) NP() int             { return c.cfg.NP }
func (c *core) Procs() int          { return c.cfg.Procs }
func (c *core) Self() int           { return c.cfg.Self }
func (c *core) HostOf(rank int) int { return HostOfRank(c.cfg.NP, c.cfg.Procs, rank) }

func (c *core) Fail(err error) { c.fb.fail(err) }
func (c *core) Err() error     { return c.fb.get() }

func (c *core) Send(src, dst int, msg []float64) {
	if c.fb.failed() {
		return // failed transport: drop
	}
	m := inMsg{corr: c.ps.nextCorr(src, dst), msg: msg}
	tracing := obs.TraceEnabled()
	var start time.Time
	if tracing {
		start = time.Now()
	}
	bytes, stalled := c.link.push(src, dst, m)
	if stalled {
		c.countStall()
	}
	if bytes != unmetered {
		c.countSend(int64(bytes))
	}
	if tracing {
		traceMsg("send", c.cfg.Generation, src, dst, len(msg), m.corr, start)
	}
}

func (c *core) Buffer(src, dst, n int) []float64 { return c.bufs.get(src, dst, n) }

func (c *core) Recv(src, dst int) []float64 {
	tracing := obs.TraceEnabled()
	var start time.Time
	if tracing {
		start = time.Now()
	}
	m, bytes, ok := c.link.pop(src, dst)
	if !ok {
		return nil
	}
	// Take back the slice the stream's last Recv lent.
	s := c.bufs.stream(src, dst)
	c.bufs.put(src, dst, s.lent)
	s.lent = m.msg
	if bytes != unmetered {
		c.countRecv(int64(bytes))
	}
	if tracing {
		traceMsg("recv", c.cfg.Generation, src, dst, len(m.msg), m.corr, start)
	}
	return m.msg
}

// sendCtl emits one metered control frame; false once the transport
// has failed.
func (c *core) sendCtl(to int, kind byte, vals []float64) bool {
	if c.fb.failed() {
		return false
	}
	bytes, ok := c.link.sendCtl(to, kind, vals)
	if ok {
		c.countSend(int64(bytes))
	}
	return ok
}

// recvCtl consumes the next control frame from a peer, which must be
// of the expected kind.
func (c *core) recvCtl(from int, want byte) ([]float64, bool) {
	kind, vals, bytes, ok := c.link.recvCtl(from)
	if !ok {
		return nil, false
	}
	if kind != want {
		c.Fail(fmt.Errorf("transport: collective protocol error: control frame kind %d from process %d, want %d", kind, from, want))
		return nil, false
	}
	c.countRecv(int64(bytes))
	return vals, true
}

func (c *core) Bcast(from int, vals []float64) []float64 {
	if c.cfg.Procs == 1 {
		return vals
	}
	if from != c.cfg.Self {
		out, _ := c.recvCtl(from, ctlBcast)
		return out
	}
	for p := 0; p < c.cfg.Procs; p++ {
		if p != c.cfg.Self && !c.sendCtl(p, ctlBcast, vals) {
			return nil
		}
	}
	return vals
}

// Barrier gathers an arrive frame from every peer on the leader, then
// the leader releases them — two hops.
func (c *core) Barrier() error {
	if c.cfg.Procs == 1 {
		return c.fb.get()
	}
	ok := true
	if c.cfg.Self == 0 {
		for p := 1; ok && p < c.cfg.Procs; p++ {
			_, ok = c.recvCtl(p, ctlArrive)
		}
		for p := 1; ok && p < c.cfg.Procs; p++ {
			ok = c.sendCtl(p, ctlRelease, nil)
		}
	} else if ok = c.sendCtl(0, ctlArrive, nil); ok {
		_, ok = c.recvCtl(0, ctlRelease)
	}
	if err := c.fb.get(); err != nil || ok {
		return err
	}
	return errors.New("transport: barrier aborted by Close")
}

// startMonitor launches the liveness goroutine: every Heartbeat
// interval it emits this process's sign of life and checks its peers'.
// A peer silent for longer than FailAfter is declared lost via a
// sticky *MemberLostError — what turns a SIGKILLed member into a
// detected failure the recovery layer can act on instead of a hang.
func (c *core) startMonitor() {
	c.monStop = make(chan struct{})
	c.monDone = make(chan struct{})
	go func() {
		defer close(c.monDone)
		tick := time.NewTicker(c.cfg.heartbeat())
		defer tick.Stop()
		limit := c.cfg.failAfter()
		for {
			select {
			case <-c.monStop:
				return
			case <-c.fb.stop:
				return
			case <-tick.C:
			}
			c.link.beat(time.Now().UnixNano())
			for p, silent := range c.Staleness() {
				if silent > limit {
					c.Fail(&MemberLostError{Proc: p, Cause: causeSilent})
					return
				}
			}
		}
	}()
}

func (c *core) Status() Health {
	h := Health{
		Procs:      c.cfg.Procs,
		Self:       c.cfg.Self,
		Generation: c.cfg.Generation,
		Alive:      make([]bool, c.cfg.Procs),
		Err:        c.fb.get(),
	}
	for p, d := range c.Staleness() {
		h.Alive[p] = p == c.cfg.Self || (d > 0 && d <= c.cfg.failAfter())
	}
	if p, ok := AsMemberLost(h.Err); ok && p >= 0 && p < len(h.Alive) {
		h.Alive[p] = false
	}
	return h
}

// Staleness reports the time since each peer's last sign of life
// (HeartbeatStats); zero for this process and for a peer never seen.
func (c *core) Staleness() []time.Duration {
	out := make([]time.Duration, c.cfg.Procs)
	now := time.Now().UnixNano()
	for p := range out {
		if p == c.cfg.Self {
			continue
		}
		if seen := c.link.lastSeen(p); seen != 0 {
			out[p] = time.Duration(max(now-seen, 1))
		}
	}
	return out
}

// killAbrupt emulates a SIGKILL for the chaos wire: the local
// transport fails sticky with ErrChaosKilled, which stops the monitor
// (so this process's sign of life freezes) and aborts the link without
// telling anyone, and every raw connection is cut — peers learn of the
// death only the way they would for a real kill, through their own
// detectors.
func (c *core) killAbrupt() {
	c.Fail(ErrChaosKilled)
	c.link.sever(-1)
}

// dropConn severs the raw connection to peer (chaos wire): both ends
// observe the dead socket and attribute the loss to each other, the
// same symptom as a network partition of that link.
func (c *core) dropConn(peer int) { c.link.sever(peer) }

// Close stops the monitor and releases the link. Callers close with
// the engine idle. Idempotent.
func (c *core) Close() error {
	c.closeOnce.Do(func() {
		if c.monStop != nil {
			close(c.monStop)
		}
		// The link goes first: closing its sockets is what unblocks a
		// monitor stuck writing a heart frame to a wedged peer.
		c.closeErr = c.link.close()
		if c.monDone != nil {
			<-c.monDone
		}
	})
	return c.closeErr
}
