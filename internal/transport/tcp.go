package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// The tcp wire's frame kinds. Every frame is length-prefixed: a uint32
// byte length covering the kind byte and the body, then the kind, then
// the body (all integers little-endian, floats as IEEE-754 bit
// patterns). The three control kinds are frameData + the core's ctl*
// kind.
const (
	frameHello   = byte(1) // handshake: proto, generation, np, procs, sender proc, job, listen addr
	frameRoster  = byte(2) // leader → peers: the peer listener addresses
	frameData    = byte(3) // rank pair stream: src, dst, corr, payload floats
	frameBcast   = byte(4) // process collective: from proc, payload floats
	frameBarrier = byte(5) // peer → leader: barrier arrival (from proc)
	frameRelease = byte(6) // leader → peers: barrier release
	frameHeart   = byte(7) // keepalive; any frame refreshes the peer's liveness stamp
)

// tcpProto is the handshake protocol version; mismatches are rejected
// at join time. Version 2 added the 8-byte correlation word to data
// frames.
const tcpProto = 2

// Frame length caps. Until a connection has completed the handshake
// its bytes come from anyone who can reach the port, so the frames read
// then (hello, roster) are capped small: a stray dialer costs 64 KiB,
// not the 1 GiB a member's data frame may claim.
const (
	maxHandshakeFrame = 64 << 10
	maxFrame          = 1 << 30
)

// hello subkinds: a join (process → leader rendezvous) or a peer data
// connection (mesh fill-in between non-leader processes).
const (
	helloJoin = byte(1)
	helloPeer = byte(2)
)

// tconn is one connection. Each frame goes out in one Write under wmu,
// so all frames from this process to the peer process stay whole and
// per-rank-pair FIFO order is preserved (a pair's sender rank is
// hosted by exactly one process).
type tconn struct {
	c   net.Conn
	br  *bufio.Reader // single reader, shared by handshake and readLoop
	in  []byte        // the reader's scratch
	wmu sync.Mutex
	out []byte // writeFrame's, under wmu
}

// newTconn wraps a connection. The buffered reader is created once
// and reused from handshake through readLoop: a fresh reader after
// the handshake would silently drop any frames the kernel delivered
// in the same segment as the handshake reply. It holds 64 KiB, so a
// frame the size of a ghost row arrives in one read.
func newTconn(c net.Conn) *tconn {
	return &tconn{c: c, br: bufio.NewReaderSize(c, 64<<10)}
}

// appendFrame builds a frame in buf's memory, grown once to fit: the
// header, then head, then vals in the wire encoding.
func appendFrame(buf []byte, kind byte, head []byte, vals []float64) []byte {
	f := append(slices.Grow(buf[:0], 5+len(head)+8*len(vals)), 0, 0, 0, 0, kind)
	f = appendFloats(append(f, head...), vals)
	binary.LittleEndian.PutUint32(f, uint32(len(f)-4))
	return f
}

// writeFrame builds a frame in the connection's buffer and writes it;
// it returns the frame's size.
func (c *tconn) writeFrame(kind byte, head []byte, vals []float64) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.out = appendFrame(c.out, kind, head, vals)
	return c.c.Write(c.out)
}

// readFrame reads one length-prefixed frame of at most max bytes into
// the connection's scratch, which the returned body aliases until the
// next readFrame. The length is checked before the scratch grows.
func (c *tconn) readFrame(max uint32) (kind byte, body []byte, err error) {
	hdr, err := c.br.Peek(4)
	if err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	c.br.Discard(4)
	if n < 1 || n > max {
		return 0, nil, fmt.Errorf("transport: bad frame length %d (limit %d)", n, max)
	}
	if uint32(cap(c.in)) < n {
		c.in = make([]byte, n)
	}
	buf := c.in[:n]
	if _, err = io.ReadFull(c.br, buf); err != nil {
		return 0, nil, err
	}
	return buf[0], buf[1:], nil
}

// appendStr appends a uint16-length-prefixed string; cutStr is its
// inverse.
func appendStr(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

func cutStr(b []byte) (s string, rest []byte, ok bool) {
	if len(b) < 2 {
		return "", nil, false
	}
	n := int(binary.LittleEndian.Uint16(b))
	if len(b) < 2+n {
		return "", nil, false
	}
	return string(b[2 : 2+n]), b[2+n:], true
}

// hello is the decoded handshake frame.
type hello struct {
	sub        byte
	generation int
	np, procs  int
	from       int
	job        string
	addr       string
}

func encodeHello(h hello) []byte {
	body := []byte{h.sub}
	for _, v := range []int{tcpProto, h.generation, h.np, h.procs, h.from} {
		body = binary.LittleEndian.AppendUint32(body, uint32(v))
	}
	return appendStr(appendStr(body, h.job), h.addr)
}

func decodeHello(body []byte) (hello, error) {
	var h hello
	if len(body) < 21 {
		return h, fmt.Errorf("transport: short hello (%d bytes)", len(body))
	}
	h.sub = body[0]
	get := func(off int) int { return int(binary.LittleEndian.Uint32(body[off:])) }
	if proto := get(1); proto != tcpProto {
		return h, fmt.Errorf("transport: protocol version %d, want %d", proto, tcpProto)
	}
	h.generation = get(5)
	h.np = get(9)
	h.procs = get(13)
	h.from = get(17)
	var ok bool
	rest := body[21:]
	if h.job, rest, ok = cutStr(rest); ok {
		h.addr, _, ok = cutStr(rest)
	}
	if !ok {
		return h, fmt.Errorf("transport: truncated hello string")
	}
	return h, nil
}

// encodeRoster lists the peer listener addresses, by process index, so
// the peers can mesh.
func encodeRoster(addrs []string) []byte {
	body := binary.LittleEndian.AppendUint32(nil, uint32(len(addrs)))
	for _, a := range addrs {
		body = appendStr(body, a)
	}
	return body
}

// decodeRoster parses a roster that must list exactly procs addresses.
func decodeRoster(body []byte, procs int) ([]string, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("transport: short roster (%d bytes)", len(body))
	}
	if n := int(binary.LittleEndian.Uint32(body)); n != procs {
		return nil, fmt.Errorf("transport: roster for %d processes, want %d", n, procs)
	}
	addrs := make([]string, procs)
	rest, ok := body[4:], true
	for i := range addrs {
		if addrs[i], rest, ok = cutStr(rest); !ok {
			return nil, fmt.Errorf("transport: roster truncated at process %d", i)
		}
	}
	return addrs, nil
}

// decodeData parses a data frame body: src, dst, corr, payload, the
// payload decoded into a buffer of the pair's stream.
func decodeData(body []byte, np int, bufs *bufPool) (src, dst int, m inMsg, err error) {
	if len(body) < 16 {
		return 0, 0, m, fmt.Errorf("transport: short data frame (%d bytes)", len(body))
	}
	src = int(binary.LittleEndian.Uint32(body))
	dst = int(binary.LittleEndian.Uint32(body[4:]))
	if src < 1 || src > np || dst < 1 || dst > np {
		return 0, 0, m, fmt.Errorf("transport: data frame for pair (%d,%d) out of range 1..%d", src, dst, np)
	}
	m.corr = binary.LittleEndian.Uint64(body[8:])
	if m.msg, err = decodeFloats(body[16:], func(n int) []float64 { return bufs.get(src, dst, n) }); err != nil {
		return 0, 0, m, fmt.Errorf("transport: data frame for pair (%d,%d): %w", src, dst, err)
	}
	return src, dst, m, nil
}

// mailbox is an unbounded FIFO queue of messages for one stream, with
// abort support: messages queued before the abort still drain in
// order (a peer's orderly shutdown must not eat data already on the
// wire); pop reports false once the queue is empty and aborted. The
// queue is q[next:], and a drained one restarts at the front of q.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	q      []inMsg
	next   int
	closed bool
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) push(msg inMsg) {
	m.mu.Lock()
	m.q = append(m.q, msg)
	m.cond.Signal()
	m.mu.Unlock()
}

func (m *mailbox) pop() (inMsg, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.next == len(m.q) && !m.closed {
		m.cond.Wait()
	}
	if m.next == len(m.q) {
		return inMsg{}, false
	}
	msg := m.q[m.next]
	if m.next++; m.next == len(m.q) {
		m.q, m.next = m.q[:0], 0
	}
	return msg, true
}

func (m *mailbox) abort() {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
}

// tcpLink carries rank streams over localhost sockets. In
// multi-process jobs each process pair shares one connection and
// same-process traffic short-circuits through mailboxes; in loopback
// mode (Procs 1) the single process dials itself so every message
// still crosses a real socket, exercising the framing, encoding and
// demux paths end to end.
type tcpLink struct {
	cfg    Config
	fb     *failBox
	bufs   *bufPool
	wbuf   [][]byte // per sending stream: its last data frame
	ln     net.Listener
	conns  []*tconn // by peer process index; conns[Self] is nil
	loop   *tconn   // loopback write side (single-process mode only)
	loopIn *tconn   // loopback read side

	boxes [][]*mailbox // [src-1][dst-1] for streams received here
	ctl   []*mailbox   // control frames by source process; the kind rides inMsg.corr

	// lastHeard[i] is the UnixNano of the last frame (of any kind)
	// read from process i; refreshed by readLoop.
	lastHeard []atomic.Int64

	closed atomic.Bool
	wg     sync.WaitGroup
}

// dialTCP builds this process's end of the wire: in a multi-process
// job, process 0 binds the rendezvous address and collects one join
// handshake per peer, sends everyone the peer-listener roster, and the
// peers fill in the connection mesh among themselves (higher process
// index dials lower). Returns once this process is fully meshed.
func dialTCP(cfg Config, fb *failBox, bufs *bufPool) (*tcpLink, error) {
	l := &tcpLink{cfg: cfg, fb: fb, bufs: bufs, wbuf: make([][]byte, cfg.NP*cfg.NP)}
	fb.onFail = l.abort
	l.boxes = make([][]*mailbox, cfg.NP)
	for s := range l.boxes {
		l.boxes[s] = make([]*mailbox, cfg.NP)
		for d := range l.boxes[s] {
			l.boxes[s][d] = newMailbox()
		}
	}
	var err error
	if cfg.Procs == 1 {
		err = l.dialLoop()
	} else {
		l.conns = make([]*tconn, cfg.Procs)
		l.lastHeard = make([]atomic.Int64, cfg.Procs)
		l.ctl = make([]*mailbox, cfg.Procs)
		for i := range l.ctl {
			l.ctl[i] = newMailbox()
		}
		deadline := time.Now().Add(cfg.Timeout)
		if cfg.Self == 0 {
			err = l.bootstrapLeader(deadline)
		} else {
			err = l.bootstrapPeer(deadline)
		}
	}
	if err != nil {
		l.close()
		return nil, err
	}
	now := time.Now().UnixNano()
	for i, c := range l.conns {
		if c != nil {
			l.lastHeard[i].Store(now)
			l.wg.Add(1)
			go l.readLoop(i, c)
		}
	}
	return l, nil
}

// dialLoop connects the single process to itself: all rank streams run
// through one self-dialled localhost connection, so the wire format is
// exercised without a second process.
func (l *tcpLink) dialLoop() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	l.ln = ln
	type accepted struct {
		c   net.Conn
		err error
	}
	acceptc := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		acceptc <- accepted{c, err}
	}()
	out, err := net.DialTimeout("tcp", ln.Addr().String(), l.cfg.Timeout)
	if err != nil {
		return err // close() shuts the listener, which ends the accept
	}
	l.loop = newTconn(out)
	in := <-acceptc
	if in.err != nil {
		return in.err
	}
	l.loopIn = newTconn(in.c)
	// Handshake across the loop, so the hello path is covered too.
	h := hello{sub: helloJoin, np: l.cfg.NP, procs: 1, job: l.cfg.Job}
	if _, err := l.loop.writeFrame(frameHello, encodeHello(h), nil); err != nil {
		return err
	}
	if _, err := l.readHello(l.loopIn, helloJoin); err != nil {
		return err
	}
	l.wg.Add(1)
	go l.readLoop(-1, l.loopIn)
	return nil
}

// readHello reads one handshake frame and checks that it belongs to
// this job: subkind, job name, generation and shape.
func (l *tcpLink) readHello(c *tconn, sub byte) (hello, error) {
	kind, body, err := c.readFrame(maxHandshakeFrame)
	if err != nil {
		return hello{}, fmt.Errorf("transport: reading hello: %w", err)
	}
	if kind != frameHello {
		return hello{}, fmt.Errorf("transport: expected hello frame, got kind %d", kind)
	}
	h, err := decodeHello(body)
	if err != nil {
		return h, err
	}
	cfg := &l.cfg
	switch {
	case h.sub != sub:
		return h, fmt.Errorf("transport: hello subkind %d, want %d", h.sub, sub)
	case h.job != cfg.Job:
		return h, fmt.Errorf("transport: hello for job %q, want %q", h.job, cfg.Job)
	case h.generation != cfg.Generation:
		return h, fmt.Errorf("transport: job %q generation %d, want %d (stale worker?)", h.job, h.generation, cfg.Generation)
	case h.np != cfg.NP || h.procs != cfg.Procs:
		return h, fmt.Errorf("transport: job %q shape %d ranks/%d procs, want %d/%d", h.job, h.np, h.procs, cfg.NP, cfg.Procs)
	case h.from < 0 || h.from >= cfg.Procs:
		return h, fmt.Errorf("transport: hello from out-of-range process %d", h.from)
	}
	return h, nil
}

func (l *tcpLink) bootstrapLeader(deadline time.Time) error {
	ln, err := net.Listen("tcp", l.cfg.Addr)
	if err != nil {
		return fmt.Errorf("transport: leader bind %s: %w", l.cfg.Addr, err)
	}
	l.ln = ln
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(deadline) // never lifted: nothing accepts after the bootstrap
	}
	addrs := make([]string, l.cfg.Procs)
	for joined := 1; joined < l.cfg.Procs; {
		c, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("transport: job %q waiting for %d more worker(s): %w", l.cfg.Job, l.cfg.Procs-joined, err)
		}
		c.SetDeadline(deadline)
		tc := newTconn(c)
		h, err := l.readHello(tc, helloJoin)
		if err == nil && h.from == 0 {
			err = fmt.Errorf("transport: join from process 0, which is the leader")
		}
		if err != nil {
			// Refuse just this connection — a stale-generation worker
			// left over from a previous run (or a stray dialer) must
			// not abort the new job's bootstrap.
			c.Close()
			fmt.Fprintf(os.Stderr, "transport: job %q refused a join: %v\n", l.cfg.Job, err)
			continue
		}
		if l.conns[h.from] != nil {
			c.Close()
			return fmt.Errorf("transport: job %q duplicate join from process %d", l.cfg.Job, h.from)
		}
		l.conns[h.from] = tc
		addrs[h.from] = h.addr
		joined++
	}
	roster := encodeRoster(addrs)
	for i := 1; i < l.cfg.Procs; i++ {
		if _, err := l.conns[i].writeFrame(frameRoster, roster, nil); err != nil {
			return fmt.Errorf("transport: sending roster to process %d: %w", i, err)
		}
		l.conns[i].c.SetDeadline(time.Time{})
	}
	return nil
}

func (l *tcpLink) bootstrapPeer(deadline time.Time) error {
	// My own listener, for mesh connections from higher-index peers.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	l.ln = ln
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(deadline)
	}
	// Join the leader and fetch the roster, retrying the whole
	// connect+handshake with jittered exponential backoff: while the
	// leader comes up (or, on a rejoin, rebinds at the new
	// generation) the dial fails or the hello connection is reset —
	// both are transient until the deadline says otherwise.
	var addrs []string
	for attempt := 0; ; attempt++ {
		var jerr error
		addrs, jerr = l.joinLeader(deadline)
		if jerr == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("transport: job %q joining leader %s: %w", l.cfg.Job, l.cfg.Addr, jerr)
		}
		time.Sleep(Backoff(attempt, 10*time.Millisecond, 500*time.Millisecond))
	}
	// Mesh: dial every lower-index peer, accept every higher one.
	ph := hello{sub: helloPeer, generation: l.cfg.Generation, np: l.cfg.NP, procs: l.cfg.Procs, from: l.cfg.Self, job: l.cfg.Job}
	for j := 1; j < l.cfg.Self; j++ {
		c, err := net.DialTimeout("tcp", addrs[j], time.Until(deadline))
		if err != nil {
			return fmt.Errorf("transport: dialing peer %d at %s: %w", j, addrs[j], err)
		}
		l.conns[j] = newTconn(c)
		if _, err := l.conns[j].writeFrame(frameHello, encodeHello(ph), nil); err != nil {
			return fmt.Errorf("transport: peer hello to %d: %w", j, err)
		}
	}
	for k := l.cfg.Self + 1; k < l.cfg.Procs; k++ {
		c, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("transport: job %q waiting for peer connections: %w", l.cfg.Job, err)
		}
		c.SetDeadline(deadline)
		tc := newTconn(c)
		h, err := l.readHello(tc, helloPeer)
		if err != nil {
			c.Close()
			return err
		}
		if h.from <= l.cfg.Self || l.conns[h.from] != nil {
			c.Close()
			return fmt.Errorf("transport: unexpected peer connection from process %d", h.from)
		}
		c.SetDeadline(time.Time{})
		l.conns[h.from] = tc
	}
	return nil
}

// joinLeader performs one connect+handshake round with the leader:
// dial, send the join hello, receive the roster of peer listener
// addresses. On success the leader connection is installed as
// l.conns[0]; on any error the connection is closed and the caller
// may retry.
func (l *tcpLink) joinLeader(deadline time.Time) ([]string, error) {
	c0, err := net.DialTimeout("tcp", l.cfg.Addr, time.Until(deadline))
	if err != nil {
		return nil, err
	}
	c0.SetDeadline(deadline)
	tc := newTconn(c0)
	h := hello{sub: helloJoin, generation: l.cfg.Generation, np: l.cfg.NP, procs: l.cfg.Procs, from: l.cfg.Self, job: l.cfg.Job, addr: l.ln.Addr().String()}
	if _, err := tc.writeFrame(frameHello, encodeHello(h), nil); err != nil {
		c0.Close()
		return nil, fmt.Errorf("joining: %w", err)
	}
	kind, body, err := tc.readFrame(maxHandshakeFrame)
	if err != nil {
		// EOF or reset here is also how a refused (e.g. stale-
		// generation) hello looks; the retry loop re-sends the
		// current-generation hello, which converges once the caller
		// has caught up with the job's generation.
		c0.Close()
		return nil, fmt.Errorf("waiting for roster: %w", err)
	}
	if kind != frameRoster {
		c0.Close()
		return nil, fmt.Errorf("expected roster frame, got kind %d", kind)
	}
	addrs, err := decodeRoster(body, l.cfg.Procs)
	if err != nil {
		c0.Close()
		return nil, err
	}
	c0.SetDeadline(time.Time{})
	l.conns[0] = tc
	return addrs, nil
}

// lost raises the failure for an I/O error on the connection to peer
// (-1: the loopback connection). A dead peer connection — read-side
// EOF or write-side broken pipe, whichever end of the socket errors
// first — means that peer is gone, and is attributed to it as a
// *MemberLostError so recovery treats both alike. A deliberate close
// raises nothing.
func (l *tcpLink) lost(peer int, op string, err error) {
	switch {
	case l.closed.Load():
	case peer >= 0:
		l.fb.fail(&MemberLostError{Proc: peer, Cause: "connection lost", Err: err})
	default:
		l.fb.fail(fmt.Errorf("transport: job %q %s: %w", l.cfg.Job, op, err))
	}
}

// readLoop demultiplexes one connection's frames into the per-pair
// mailboxes and the per-process control queues. peer is the remote
// process index (-1 for the loopback connection). A frame that does
// not parse fails the transport with the reason.
func (l *tcpLink) readLoop(peer int, c *tconn) {
	defer l.wg.Done()
	for {
		kind, body, err := c.readFrame(maxFrame)
		if err != nil {
			l.lost(peer, "connection lost", err)
			return
		}
		if peer >= 0 {
			l.lastHeard[peer].Store(time.Now().UnixNano())
		}
		switch kind {
		case frameHeart:
			// Liveness only; the stamp above is the payload.
		case frameData:
			src, dst, m, err := decodeData(body, l.cfg.NP, l.bufs)
			if err != nil {
				l.fb.fail(err)
				return
			}
			l.boxes[src-1][dst-1].push(m)
		case frameBcast, frameBarrier, frameRelease:
			if peer < 0 {
				l.fb.fail(fmt.Errorf("transport: control frame kind %d on the loopback connection", kind))
				return
			}
			if kind != frameRelease { // bcast and barrier name their sender
				if len(body) < 4 || int(binary.LittleEndian.Uint32(body)) != peer {
					l.fb.fail(fmt.Errorf("transport: control frame kind %d from process %d does not name its sender", kind, peer))
					return
				}
				body = body[4:]
			}
			vals, err := decodeFloats(body, func(n int) []float64 { return make([]float64, n) })
			if err != nil {
				l.fb.fail(fmt.Errorf("transport: control frame kind %d from process %d: %w", kind, peer, err))
				return
			}
			l.ctl[peer].push(inMsg{corr: uint64(kind - frameData), msg: vals})
		default:
			l.fb.fail(fmt.Errorf("transport: unknown frame kind %d", kind))
			return
		}
	}
}

// lostOnErr returns a written frame's size, or unmetered when the
// write failed (the message is dropped; workers surface the sticky
// error at the end of the epoch).
func (l *tcpLink) lostOnErr(peer, n int, err error) int {
	if err != nil {
		l.lost(peer, "write", err)
		return unmetered
	}
	return n
}

// push encodes a data frame into the stream's own buffer, outside the
// connection's lock, and hands the message back to the pool.
func (l *tcpLink) push(src, dst int, m inMsg) (int, bool) {
	h := HostOfRank(l.cfg.NP, l.cfg.Procs, dst)
	if h == l.cfg.Self && l.loop == nil {
		// Same-process pair: short-circuit through the mailbox.
		l.boxes[src-1][dst-1].push(m)
		return unmetered, false
	}
	var head [16]byte
	binary.LittleEndian.PutUint32(head[:], uint32(src))
	binary.LittleEndian.PutUint32(head[4:], uint32(dst))
	binary.LittleEndian.PutUint64(head[8:], m.corr)
	i := (src-1)*l.cfg.NP + dst - 1
	l.wbuf[i] = appendFrame(l.wbuf[i], frameData, head[:], m.msg)
	l.bufs.put(src, dst, m.msg)
	c, peer := l.loop, -1
	if c == nil {
		c, peer = l.conns[h], h
	}
	c.wmu.Lock()
	n, err := c.c.Write(l.wbuf[i])
	c.wmu.Unlock()
	return l.lostOnErr(peer, n, err), false
}

func (l *tcpLink) pop(src, dst int) (inMsg, int, bool) {
	m, ok := l.boxes[src-1][dst-1].pop()
	if !ok || (l.loop == nil && HostOfRank(l.cfg.NP, l.cfg.Procs, src) == l.cfg.Self) {
		return m, unmetered, ok // nothing, or a same-process short-circuit
	}
	return m, 5 + 16 + 8*len(m.msg), true
}

// ctlHeader is the sender-index prefix of a control frame body: bcast
// and barrier frames carry it, a release is empty.
func ctlHeader(kind byte) int {
	if kind == ctlRelease {
		return 0
	}
	return 4
}

func (l *tcpLink) sendCtl(to int, kind byte, vals []float64) (int, bool) {
	var from [4]byte
	binary.LittleEndian.PutUint32(from[:], uint32(l.cfg.Self))
	n, err := l.conns[to].writeFrame(frameData+kind, from[:ctlHeader(kind)], vals)
	n = l.lostOnErr(to, n, err)
	return n, n != unmetered
}

func (l *tcpLink) recvCtl(from int) (byte, []float64, int, bool) {
	m, ok := l.ctl[from].pop()
	kind := byte(m.corr)
	return kind, m.msg, 5 + ctlHeader(kind) + 8*len(m.msg), ok
}

func (l *tcpLink) lastSeen(proc int) int64 { return l.lastHeard[proc].Load() }

// beat writes a heart frame on every mesh connection. Write errors are
// ignored here: the connection's readLoop attributes the loss to the
// right peer. Heart frames are liveness evidence, not traffic, and are
// metered on neither side.
func (l *tcpLink) beat(int64) {
	for _, c := range l.conns {
		if c != nil {
			c.writeFrame(frameHeart, nil, nil)
		}
	}
}

// abort wakes every blocked pop and recvCtl. There is nobody to tell:
// peers learn of a failure here when the sockets close.
func (l *tcpLink) abort(error) {
	for _, row := range l.boxes {
		for _, b := range row {
			b.abort()
		}
	}
	for _, b := range l.ctl {
		b.abort()
	}
}

// sever closes the raw socket to peer, or every socket and the
// listener when peer < 0. In loopback mode the self-dialled connection
// stands in for any peer.
func (l *tcpLink) sever(peer int) {
	switch {
	case peer < 0:
		for _, c := range append([]*tconn{l.loop, l.loopIn}, l.conns...) {
			if c != nil {
				c.c.Close()
			}
		}
		if l.ln != nil {
			l.ln.Close()
		}
	case l.loop != nil:
		l.loop.c.Close()
	case peer < len(l.conns) && l.conns[peer] != nil:
		l.conns[peer].c.Close()
	}
}

// close shuts the sockets and aborts waiters without marking the
// transport failed (deliberate shutdown).
func (l *tcpLink) close() error {
	l.closed.Store(true)
	l.sever(-1)
	l.abort(nil)
	l.wg.Wait()
	return nil
}
