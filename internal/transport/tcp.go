package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
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

// hello subkinds: a join (process → leader rendezvous) or a mesh
// connection between two processes, whose hello names, in place of a
// listener address, its index: -1 for a control connection, k for the
// pair's k-th data socket.
const (
	helloJoin = byte(1)
	helloPeer = byte(2)
)

// tconn is one connection. Every frame goes out whole under the spill's
// lock, so frames from this process to the peer stay whole and each
// rank pair's stay in order (a pair's sender is hosted by one process
// and its frames take one socket): a control frame in one blocking
// Write, a data frame through the spill, which never blocks.
type tconn struct {
	spill
	c    net.Conn
	peer int             // a data end's peer process
	raw  syscall.RawConn // nil when c is not a socket (a test's)
	br   *bufio.Reader   // the one reader, from the handshake on
	in   []byte          // the reader's scratch
	out  []byte          // writeFrame's, under mu
	// writeNow's argument, result and callback, under mu.
	wb   []byte
	wn   int
	werr error
	wfn  func(fd uintptr) bool
}

// newTconn wraps a connection. The buffered reader is created once
// and reused from the handshake on: a fresh reader after the handshake
// would silently drop any frames the kernel delivered in the same
// segment as the handshake reply. It holds 64 KiB, so a frame the size
// of a ghost row arrives in one read.
func newTconn(c net.Conn) *tconn {
	t := &tconn{c: c}
	t.br, t.fit = bufio.NewReaderSize(c, 64<<10), t.writeNow
	if sc, ok := c.(syscall.Conn); ok {
		t.raw, _ = sc.SyscallConn() // on error raw stays nil: writeNow falls back to Write
	}
	return t
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
	c.mu.Lock()
	defer c.mu.Unlock()
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

// inbox is where one rank's receivers take the messages of the
// sources it serves, each source's in order. On a data socket end it is
// the end's one reader: a receiver whose source has nothing stashed
// reads the next frame itself unless another receiver is reading, and
// stashes a frame from another source for that source's receiver.
// Without a socket it is a queue that senders push into: the messages
// between ranks of one process, and a peer's control frames (the kind
// riding inMsg.corr). Messages that arrived before a failure still
// drain in order (a peer's orderly shutdown must not eat data already
// on the wire); then receivers get nothing.
type inbox struct {
	mu      sync.Mutex
	cond    sync.Cond
	c       *tconn // nil: pushed into
	dst, lo int    // the receiving rank; the source of stash[0]
	reading bool
	failed  bool
	stash   [][]inMsg
}

func newInbox(c *tconn, dst, lo, n int) *inbox {
	b := &inbox{c: c, dst: dst, lo: lo, stash: make([][]inMsg, n)}
	b.cond.L = &b.mu
	return b
}

func (b *inbox) push(src int, m inMsg) {
	b.mu.Lock()
	b.stash[src-b.lo] = append(b.stash[src-b.lo], m)
	b.cond.Broadcast()
	b.mu.Unlock()
}

// fail ends a pushed-into inbox: its receivers get what is stashed,
// then nothing.
func (b *inbox) fail() {
	b.mu.Lock()
	b.failed = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// tcpLink carries rank streams over localhost sockets, data and
// control frames on separate ones. Each data socket end is read by one
// rank's receivers only (its inbox), and every send to that rank is
// written on the socket's other end, so no goroutine stands between a
// frame and its receiver. In a multi-process job a process pair has one
// data socket per rank of the process hosting more, the k-th read on
// each side by that side's k-th rank, and a control connection that
// readLoop reads; two ranks of one process short-circuit through an
// inbox without a socket. In loopback mode (Procs 1) the process dials itself, one
// connection per two ranks: rank 2k+1 reads the accepted end and rank
// 2k+2 the dialled one, so every message still crosses a real socket.
type tcpLink struct {
	cfg   Config
	fb    *failBox
	bufs  *bufPool
	pump  *pump
	wbuf  [][]byte // per sending stream: its last data frame
	ln    net.Listener
	conns []*tconn // control connections by peer process; conns[Self] is nil
	socks []*tconn // data socket ends
	out   []*tconn // by rank: the end sends to it are written on; nil on this process
	ins   []*inbox // by (rank, sending process): where the rank receives
	ctl   []*inbox // control frames by source process

	// lastHeard[i] is the UnixNano of the last frame (of any kind)
	// read from process i.
	lastHeard []atomic.Int64

	closed atomic.Bool
	wg     sync.WaitGroup
}

// dialTCP builds this process's end of the wire: in a multi-process
// job, process 0 binds the rendezvous address and collects one join
// handshake per peer, sends everyone the peer-listener roster, and the
// peers fill in the connection mesh (higher process index dials
// lower). Returns once this process is fully meshed.
func dialTCP(cfg Config, fb *failBox, bufs *bufPool) (*tcpLink, error) {
	np := cfg.NP
	l := &tcpLink{cfg: cfg, fb: fb, bufs: bufs, wbuf: make([][]byte, np*np),
		out: make([]*tconn, np), ins: make([]*inbox, np*cfg.Procs), lastHeard: make([]atomic.Int64, cfg.Procs)}
	fb.onFail = l.abort
	l.pump = startPump(fb.failed)
	deadline := time.Now().Add(cfg.Timeout)
	var err error
	if cfg.Procs == 1 {
		err = l.dialLoop(deadline)
	} else {
		lo, hi := RanksOf(np, cfg.Procs, cfg.Self)
		for d := lo; d <= hi; d++ {
			l.ins[(d-1)*cfg.Procs+cfg.Self] = newInbox(nil, d, lo, hi-lo+1)
		}
		l.conns = make([]*tconn, cfg.Procs)
		l.ctl = make([]*inbox, cfg.Procs)
		for i := range l.ctl {
			l.ctl[i] = newInbox(nil, 0, i, 1)
		}
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

// listen binds this process's listener for the bootstrap's connections.
func (l *tcpLink) listen(addr string, deadline time.Time) (err error) {
	if l.ln, err = net.Listen("tcp", addr); err == nil {
		l.ln.(*net.TCPListener).SetDeadline(deadline) // never lifted: nothing accepts after the bootstrap
	}
	return err
}

// addEnd files c as this process's end of a connection to process p:
// the control connection (rk -1), or a data socket this process's rk-th
// rank reads and sends to p's wk-th rank are written on (counted from
// 0; past the last rank: none). It refuses one out of range or taken.
func (l *tcpLink) addEnd(c *tconn, p, rk, wk int) error {
	lo, hi := RanksOf(l.cfg.NP, l.cfg.Procs, l.cfg.Self)
	plo, phi := RanksOf(l.cfg.NP, l.cfg.Procs, p)
	rd, wd := lo+rk, plo+wk
	if rd > hi {
		rd = 0
	}
	if wd > phi {
		wd = 0
	}
	switch {
	case rk == -1 && l.conns[p] == nil:
		l.conns[p] = c
		return nil
	case rk < 0 || wk < 0 || rd+wd == 0 || rd > 0 && l.ins[(rd-1)*l.cfg.Procs+p] != nil || wd > 0 && l.out[wd-1] != nil:
		return fmt.Errorf("transport: connection %d from process %d is out of range or a duplicate", rk, p)
	}
	c.peer = p
	l.socks = append(l.socks, c)
	if rd > 0 {
		l.ins[(rd-1)*l.cfg.Procs+p] = newInbox(c, rd, plo, phi-plo+1)
	}
	if wd > 0 {
		l.out[wd-1] = c
	}
	return nil
}

// dialLoop connects the single process to itself. The kernel completes
// a connection on the listen queue, so it is dialled, then accepted,
// and the accepted end must be the dialled one's peer, not a stray
// dialer's.
func (l *tcpLink) dialLoop(deadline time.Time) error {
	if err := l.listen("127.0.0.1:0", deadline); err != nil {
		return err
	}
	for k := 0; 2*k < l.cfg.NP; k++ {
		out, err := net.DialTimeout("tcp", l.ln.Addr().String(), time.Until(deadline))
		if err != nil {
			return err
		}
		l.addEnd(newTconn(out), 0, 2*k+1, 2*k)
		in, err := l.ln.Accept()
		if err != nil {
			return err
		}
		l.addEnd(newTconn(in), 0, 2*k, 2*k+1)
		if in.RemoteAddr().String() != out.LocalAddr().String() {
			return fmt.Errorf("transport: loopback accepted %s, not %s", in.RemoteAddr(), out.LocalAddr())
		}
	}
	return nil
}

// dialMesh dials this process's connections to the lower-index process
// p at addr, each with a hello naming its index: -1 the control
// connection (the leader's is the join), then a data socket per rank
// of p, which hosts at least as many ranks as this process (RanksOf).
func (l *tcpLink) dialMesh(p int, addr string, deadline time.Time) error {
	plo, phi := RanksOf(l.cfg.NP, l.cfg.Procs, p)
	for k := -min(p, 1); k <= phi-plo; k++ {
		c, err := net.DialTimeout("tcp", addr, time.Until(deadline))
		if err != nil {
			return fmt.Errorf("transport: dialing process %d at %s: %w", p, addr, err)
		}
		tc := newTconn(c)
		l.addEnd(tc, p, k, k)
		h := hello{sub: helloPeer, generation: l.cfg.Generation, np: l.cfg.NP, procs: l.cfg.Procs, from: l.cfg.Self, job: l.cfg.Job, addr: strconv.Itoa(k)}
		if _, err := tc.writeFrame(frameHello, encodeHello(h), nil); err != nil {
			return fmt.Errorf("transport: hello to process %d: %w", p, err)
		}
	}
	return nil
}

// accept takes n connections from higher-index processes, each filed by
// add from its hello. One whose hello does not belong — a stale-
// generation worker left over from a previous run, a stray dialer — is
// refused on its own: it must not abort the new job's bootstrap.
func (l *tcpLink) accept(n int, sub byte, deadline time.Time, add func(*tconn, hello) error) error {
	for n > 0 {
		c, err := l.ln.Accept()
		if err != nil {
			return fmt.Errorf("transport: job %q waiting for %d more connection(s): %w", l.cfg.Job, n, err)
		}
		c.SetDeadline(deadline)
		tc := newTconn(c)
		h, err := l.readHello(tc, sub)
		if err == nil && h.from <= l.cfg.Self {
			err = fmt.Errorf("transport: connection from process %d, not above %d", h.from, l.cfg.Self)
		}
		if err == nil {
			err = add(tc, h)
		}
		if err != nil {
			c.Close()
			fmt.Fprintf(os.Stderr, "transport: job %q refused a connection: %v\n", l.cfg.Job, err)
			continue
		}
		c.SetDeadline(time.Time{})
		n--
	}
	return nil
}

// acceptMesh accepts the connections each higher-index process dials
// to this one with dialMesh.
func (l *tcpLink) acceptMesh(deadline time.Time) error {
	lo, hi := RanksOf(l.cfg.NP, l.cfg.Procs, l.cfg.Self)
	n := (l.cfg.Procs - 1 - l.cfg.Self) * (hi - lo + 1 + min(l.cfg.Self, 1))
	return l.accept(n, helloPeer, deadline, func(c *tconn, h hello) error {
		k, err := strconv.Atoi(h.addr)
		if err != nil {
			return err
		}
		return l.addEnd(c, h.from, k, k)
	})
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
	if err := l.listen(l.cfg.Addr, deadline); err != nil {
		return fmt.Errorf("transport: leader bind %s: %w", l.cfg.Addr, err)
	}
	addrs := make([]string, l.cfg.Procs)
	err := l.accept(l.cfg.Procs-1, helloJoin, deadline, func(c *tconn, h hello) error {
		err := l.addEnd(c, h.from, -1, -1)
		if err == nil {
			addrs[h.from] = h.addr
		}
		return err
	})
	if err != nil {
		return err
	}
	roster := encodeRoster(addrs)
	for i := 1; i < l.cfg.Procs; i++ {
		if _, err := l.conns[i].writeFrame(frameRoster, roster, nil); err != nil {
			return fmt.Errorf("transport: sending roster to process %d: %w", i, err)
		}
	}
	return l.acceptMesh(deadline)
}

func (l *tcpLink) bootstrapPeer(deadline time.Time) error {
	// My own listener, for mesh connections from higher-index peers.
	if err := l.listen("127.0.0.1:0", deadline); err != nil {
		return err
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
	// Mesh: dial every lower-index process, accept every higher one.
	addrs[0] = l.cfg.Addr // the leader listens on the rendezvous address
	for j := 0; j < l.cfg.Self; j++ {
		if err := l.dialMesh(j, addrs[j], deadline); err != nil {
			return err
		}
	}
	return l.acceptMesh(deadline)
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
	return addrs, l.addEnd(tc, 0, -1, -1)
}

// lost raises the failure for an I/O error on a connection to peer
// (Self: a loopback connection). A dead peer connection — read-side EOF
// or write-side broken pipe, whichever end of the socket errors first —
// means that peer is gone, and is attributed to it as a
// *MemberLostError so recovery treats both alike. A deliberate close
// raises nothing.
func (l *tcpLink) lost(peer int, op string, err error) {
	switch {
	case l.closed.Load():
	case peer != l.cfg.Self:
		l.fb.fail(&MemberLostError{Proc: peer, Cause: "connection lost", Err: err})
	default:
		l.fb.fail(fmt.Errorf("transport: job %q %s: %w", l.cfg.Job, op, err))
	}
}

// readLoop reads the control connection to process peer into its
// control queue and stamps the peer's liveness on every frame, heart
// frames included. A frame that does not parse fails the transport
// with the reason.
func (l *tcpLink) readLoop(peer int, c *tconn) {
	defer l.wg.Done()
	for {
		kind, body, err := c.readFrame(maxFrame)
		if err != nil {
			l.lost(peer, "connection lost", err)
			return
		}
		l.lastHeard[peer].Store(time.Now().UnixNano())
		switch kind {
		case frameHeart:
			// Liveness only; the stamp above is the payload.
		case frameBcast, frameBarrier, frameRelease:
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
			l.ctl[peer].push(peer, inMsg{corr: uint64(kind - frameData), msg: vals})
		default:
			l.fb.fail(fmt.Errorf("transport: frame kind %d on the control connection from process %d", kind, peer))
			return
		}
	}
}

// recv is a receiver of b's rank taking the next message from src: out
// of the stash, or off b's socket once no other receiver reads it.
func (l *tcpLink) recv(b *inbox, src int) (inMsg, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for q := &b.stash[src-b.lo]; ; {
		if len(*q) > 0 {
			m := (*q)[0]
			*q = (*q)[:copy(*q, (*q)[1:])]
			return m, true
		}
		if b.failed {
			return inMsg{}, false
		}
		if b.reading || b.c == nil {
			b.cond.Wait()
			continue
		}
		b.reading = true
		b.mu.Unlock()
		s, m, err := l.readData(b)
		b.mu.Lock()
		b.reading = false
		b.cond.Broadcast()
		switch {
		case err != nil:
			b.failed = true
		case s == src:
			return m, true
		default:
			b.stash[s-b.lo] = append(b.stash[s-b.lo], m)
		}
	}
}

// readData reads the next frame off b's socket end, which must be a
// data frame to b's rank from a rank of b's peer, and stamps the peer's
// liveness: any frame read from a process is its sign of life.
func (l *tcpLink) readData(b *inbox) (src int, m inMsg, err error) {
	kind, body, err := b.c.readFrame(maxFrame)
	if err != nil {
		l.lost(b.c.peer, "connection lost", err)
		return 0, m, err
	}
	l.lastHeard[b.c.peer].Store(time.Now().UnixNano())
	var dst int
	if kind != frameData {
		err = fmt.Errorf("transport: frame kind %d on the data connection of rank %d", kind, b.dst)
	} else if src, dst, m, err = decodeData(body, l.cfg.NP, l.bufs); err == nil && (dst != b.dst || src < b.lo || src-b.lo >= len(b.stash)) {
		err = fmt.Errorf("transport: data frame for pair (%d,%d) on the data connection of rank %d", src, dst, b.dst)
	}
	if err != nil {
		l.fb.fail(err)
	}
	return src, m, err
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
// socket's lock, hands the message back to the pool and writes the
// frame on the destination's data end through its spill.
func (l *tcpLink) push(src, dst int, m inMsg) (int, bool) {
	c := l.out[dst-1]
	if c == nil { // same-process pair: short-circuit through the inbox
		l.ins[(dst-1)*l.cfg.Procs+l.cfg.Self].push(src, m)
		return unmetered, false
	}
	var head [16]byte
	binary.LittleEndian.PutUint32(head[:], uint32(src))
	binary.LittleEndian.PutUint32(head[4:], uint32(dst))
	binary.LittleEndian.PutUint64(head[8:], m.corr)
	i := (src-1)*l.cfg.NP + dst - 1
	l.wbuf[i] = appendFrame(l.wbuf[i], frameData, head[:], m.msg)
	l.bufs.put(src, dst, m.msg)
	c.mu.Lock()
	stalled, err := c.put(l.pump, l.wbuf[i])
	c.mu.Unlock()
	return l.lostOnErr(c.peer, len(l.wbuf[i]), err), stalled
}

func (l *tcpLink) pop(src, dst int) (inMsg, int, bool) {
	b := l.ins[(dst-1)*l.cfg.Procs+HostOfRank(l.cfg.NP, l.cfg.Procs, src)]
	m, ok := l.recv(b, src)
	if b.c == nil {
		return m, unmetered, ok // a same-process short-circuit
	}
	return m, 5 + 16 + 8*len(m.msg), ok
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
	m, ok := l.recv(l.ctl[from], from)
	kind := byte(m.corr)
	return kind, m.msg, 5 + ctlHeader(kind) + 8*len(m.msg), ok
}

func (l *tcpLink) lastSeen(proc int) int64 { return l.lastHeard[proc].Load() }

// beat writes a heart frame on every control connection. Write errors
// are ignored here: the connection's readLoop attributes the loss to
// the right peer. Heart frames are liveness evidence, not traffic, and
// are metered on neither side.
func (l *tcpLink) beat(int64) {
	for _, c := range l.conns {
		if c != nil {
			c.writeFrame(frameHeart, nil, nil)
		}
	}
}

// abort wakes every blocked pop and recvCtl: the waiters of an inbox
// without a socket directly, a receiver reading a data end by shutting
// the end's read side, after which a read returns what the socket
// holds, then EOF — so the frames a peer sent before an orderly close
// are delivered (on Linux; BSD kernels discard them). There is nobody
// to tell: peers learn of a failure here when the sockets close.
func (l *tcpLink) abort(error) {
	for _, b := range slices.Concat(l.ins, l.ctl) {
		if b != nil && b.c == nil {
			b.fail()
		}
	}
	for _, c := range l.socks {
		if tc, ok := c.c.(*net.TCPConn); ok {
			tc.CloseRead()
		}
	}
}

// sever closes the raw sockets to peer, or every socket and the
// listener when peer < 0. In loopback mode the self-dialled sockets
// stand in for any peer.
func (l *tcpLink) sever(peer int) {
	for _, c := range l.socks {
		if peer < 0 || c.peer == peer || l.cfg.Procs == 1 {
			c.c.Close()
		}
	}
	for p, c := range l.conns {
		if c != nil && (peer < 0 || p == peer) {
			c.c.Close()
		}
	}
	if l.ln != nil && peer < 0 {
		l.ln.Close()
	}
}

// close shuts the sockets and aborts waiters without marking the
// transport failed (deliberate shutdown).
func (l *tcpLink) close() error {
	l.closed.Store(true)
	l.sever(-1)
	l.abort(nil)
	l.wg.Wait()
	l.pump.close()
	return nil
}
