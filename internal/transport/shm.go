package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// The shm wire: one mmap'd file shared by every process of the job,
// carved into lock-free single-producer/single-consumer byte-stream
// rings — one data ring per ordered rank pair plus one collective
// ring per ordered process pair. The fast path is two atomic loads,
// two memcpys and one atomic store with no syscall; waiting sides
// spin, yield, then sleep in escalating steps (poor man's futex —
// portable, and the sleep bounds idle burn at ~100µs wakeup latency).
//
// Frames are byte streams, not slots: a frame is a 4-byte little-
// endian payload length followed by the raw float64 bytes (native
// byte order — both ends share one machine by construction). A frame
// larger than the ring streams through it in chunks, so there is no
// message size limit. Send never blocks: what of a frame does not fit
// spills to the ring's unbounded process-local queue, which the link's
// pump goroutine drains (spill.go, shared with the tcp wire),
// preserving FIFO order per ring and keeping the engine's
// send-all-then-receive pattern deadlock-free even when two processes
// flood each other.
//
// Failure is sticky and cross-process: Fail sets a shared flag in the
// file header; every blocked wait polls it, aborts, and latches the
// local failBox, so a panic on one process unblocks all of them (the
// shm analogue of tcp's connection teardown). A process killed hard
// (SIGKILL) cannot set the flag itself, so each process additionally
// stamps a per-process liveness slot in the header (beat) for the
// core's monitor to watch (lastSeen): when a survivor declares a
// frozen stamp's owner lost, abort publishes the dead process index in
// the header's lost slot before raising the shared flag, so every
// survivor surfaces the same *MemberLostError — a kill means a
// detected failure the recovery layer can act on, not a hang.

// Shm ring geometry. Capacities are powers of two so positions wrap
// with a mask; head/tail live on separate cache lines. One 8-rank
// job maps 64 data rings ≈ 4.2 MB of tmpfs, committed only as pages
// are touched.
const (
	shmMagic    = 0x48504653484d3136 // "HPFSHM16"
	shmVersion  = 3                  // v3: data frames carry an 8-byte correlation word
	shmHdrSize  = 4096
	shmRingCtrl = 128
	shmDataCap  = 1 << 16
	shmCollCap  = 1 << 14
)

// Header field offsets (all 8-byte slots; magic is stored last with
// release semantics, so a peer that observes it sees a fully
// initialised header). The liveness block at shmOffLive holds one
// UnixNano stamp per process, refreshed by that process's beat;
// shmOffLost is CAS'd to 1+proc by the first survivor to detect a
// frozen stamp, before it raises the failed flag, so every process
// promotes the shared failure to the same *MemberLostError.
const (
	shmOffMagic    = 0
	shmOffVersion  = 8
	shmOffNP       = 16
	shmOffProcs    = 24
	shmOffGen      = 32
	shmOffJobHash  = 40
	shmOffFailed   = 48
	shmOffAttached = 56
	shmOffLost     = 64
	shmOffLive     = 128 // + 8·proc, bounded by the header page
)

// shmMaxProcs bounds Procs so the liveness block fits in the header.
const shmMaxProcs = (shmHdrSize - shmOffLive) / 8

// shmRing is one SPSC byte-stream ring in the mapping. head and tail
// are free-running byte counts: the producer owns head, the consumer
// owns tail, and occupancy is head-tail. The spill is the producer
// side: its lock, and the bytes awaiting ring space.
type shmRing struct {
	spill
	head *uint64
	tail *uint64
	buf  []byte
	mask uint64

	cmu sync.Mutex // consumer side
}

func (r *shmRing) capacity() uint64 { return r.mask + 1 }

func (r *shmRing) copyIn(pos uint64, src []byte) {
	i := int(pos & r.mask)
	n := copy(r.buf[i:], src)
	if n < len(src) {
		copy(r.buf, src[n:])
	}
}

func (r *shmRing) copyOut(pos uint64, dst []byte) {
	i := int(pos & r.mask)
	n := copy(dst, r.buf[i:])
	if n < len(dst) {
		copy(dst[n:], r.buf)
	}
}

// writeNow is the ring's spill.fit: it copies in what the ring has
// room for of b, for its one producer (holding mu).
func (r *shmRing) writeNow(b []byte) (int, error) {
	head := atomic.LoadUint64(r.head)
	n := min(uint64(len(b)), r.capacity()-(head-atomic.LoadUint64(r.tail)))
	r.copyIn(head, b[:n])
	atomic.StoreUint64(r.head, head+n)
	return int(n), nil
}

// shmLink carries the streams over the mapped rings. The rendezvous
// is a file whose name is derived from the job name, generation and
// process count in Config.Dir: the leader (Self 0) creates and
// initialises it, workers open it, validate the header and register
// themselves. Control frames are [4]len [1]kind [len-1]payload on the
// process-pair rings, the kind being the core's ctl* value.
type shmLink struct {
	np, procs, self int
	fb              *failBox
	bufs            *bufPool
	closed          atomic.Bool

	path   string
	unlink bool
	// mapMu orders the liveness and failure-flag accesses, which the
	// core's monitor and any Status caller make from their own
	// goroutines, against close unmapping the file under them.
	mapMu  sync.RWMutex
	mem    []byte
	failed *uint64   // shared cross-process failure flag in the header
	lost   *uint64   // 1+proc of the first detected-dead member
	live   []*uint64 // per-process liveness stamps (UnixNano)

	data []*shmRing // np*np, ordered (src-1)*np+(dst-1)
	coll []*shmRing // procs*procs when procs > 1, else nil
	pump *pump
}

func shmDir(override string) string {
	if override != "" {
		return override
	}
	if fi, err := os.Stat("/dev/shm"); err == nil && fi.IsDir() {
		return "/dev/shm"
	}
	return os.TempDir()
}

func shmSize(np, procs int) int {
	size := shmHdrSize + np*np*(shmRingCtrl+shmDataCap)
	if procs > 1 {
		size += procs * procs * (shmRingCtrl + shmCollCap)
	}
	return size
}

func shmJobHash(job string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(job))
	return h.Sum64()
}

func shmSanitize(job string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, job)
}

func shmPath(cfg Config) string {
	name := fmt.Sprintf("hpfnt-%s-g%d-p%d.shm", shmSanitize(cfg.Job), cfg.Generation, cfg.Procs)
	return filepath.Join(shmDir(cfg.Dir), name)
}

func shmHdrU64(b []byte, off int) *uint64 {
	return (*uint64)(unsafe.Pointer(&b[off]))
}

func (t *shmLink) u64at(off int) *uint64 { return shmHdrU64(t.mem, off) }

func (t *shmLink) ringAt(off, cap int) *shmRing {
	r := &shmRing{
		head: t.u64at(off),
		tail: t.u64at(off + 64),
		buf:  t.mem[off+shmRingCtrl : off+shmRingCtrl+cap],
		mask: uint64(cap) - 1,
	}
	r.fit = r.writeNow
	return r
}

// carve builds the process-local ring views over the mapping.
func (t *shmLink) carve() {
	t.failed = t.u64at(shmOffFailed)
	t.lost = t.u64at(shmOffLost)
	t.live = make([]*uint64, t.procs)
	for p := range t.live {
		t.live[p] = t.u64at(shmOffLive + 8*p)
	}
	t.data = make([]*shmRing, t.np*t.np)
	off := shmHdrSize
	for i := range t.data {
		t.data[i] = t.ringAt(off, shmDataCap)
		off += shmRingCtrl + shmDataCap
	}
	if t.procs > 1 {
		t.coll = make([]*shmRing, t.procs*t.procs)
		for i := range t.coll {
			t.coll[i] = t.ringAt(off, shmCollCap)
			off += shmRingCtrl + shmCollCap
		}
	}
}

// mapNew sizes f for the job's rings and maps it; f is closed either
// way (the mapping outlives the descriptor).
func (t *shmLink) mapNew(f *os.File) error {
	size := shmSize(t.np, t.procs)
	err := f.Truncate(int64(size))
	if err == nil {
		t.mem, err = mmapFile(f, size)
	}
	f.Close()
	if err != nil {
		return fmt.Errorf("transport: shm mapping %s: %w", f.Name(), err)
	}
	t.carve()
	return nil
}

// openShm builds this process's end of the wire. With one process
// every message crosses a real shared mapping (an anonymous tmpfs
// file, unlinked immediately), exercising the ring protocol without
// spawning processes. In a multi-process job the leader creates the
// rendezvous file and blocks until every worker has attached; like the
// tcp rendezvous it rejects nothing by generation — a stale worker
// simply computes a different file name and times out — but header
// validation catches shape mismatches.
func openShm(cfg Config, fb *failBox, bufs *bufPool) (*shmLink, error) {
	t := &shmLink{np: cfg.NP, procs: cfg.Procs, self: cfg.Self, fb: fb, bufs: bufs}
	fb.onFail = t.abort
	var err error
	switch {
	case cfg.Procs == 1:
		var f *os.File
		if f, err = os.CreateTemp(shmDir(cfg.Dir), "hpfnt-shm-*"); err == nil {
			os.Remove(f.Name()) // mapping survives the unlink; nothing to clean up on exit
			err = t.mapNew(f)
		}
	case cfg.Self == 0:
		err = t.create(cfg)
	default:
		err = t.attach(cfg)
	}
	if err != nil {
		t.unmap()
		return nil, err
	}
	t.pump = startPump(t.failedNow)
	return t, nil
}

// create is the leader's rendezvous: make the file, publish the
// header, wait for every worker to attach.
func (t *shmLink) create(cfg Config) error {
	t.path = shmPath(cfg)
	deadline := time.Now().Add(cfg.Timeout)
	os.Remove(t.path) // clear a stale mapping from a crashed job
	f, err := os.OpenFile(t.path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0600)
	if err != nil {
		return fmt.Errorf("transport: shm create %s: %w", t.path, err)
	}
	t.unlink = true
	if err := t.mapNew(f); err != nil {
		return err
	}
	atomic.StoreUint64(t.live[0], uint64(time.Now().UnixNano()))
	atomic.StoreUint64(t.u64at(shmOffVersion), shmVersion)
	atomic.StoreUint64(t.u64at(shmOffNP), uint64(cfg.NP))
	atomic.StoreUint64(t.u64at(shmOffProcs), uint64(cfg.Procs))
	atomic.StoreUint64(t.u64at(shmOffGen), uint64(cfg.Generation))
	atomic.StoreUint64(t.u64at(shmOffJobHash), shmJobHash(cfg.Job))
	atomic.StoreUint64(t.u64at(shmOffMagic), shmMagic) // publish: header complete
	attached := t.u64at(shmOffAttached)
	for atomic.LoadUint64(attached) != uint64(cfg.Procs-1) {
		if time.Now().After(deadline) {
			return fmt.Errorf("transport: shm job %q generation %d: %d/%d workers attached before timeout",
				cfg.Job, cfg.Generation, atomic.LoadUint64(attached), cfg.Procs-1)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// attach is a worker's rendezvous: open the leader's file, validate
// its header, map it and claim an attach slot.
func (t *shmLink) attach(cfg Config) error {
	t.path = shmPath(cfg)
	deadline := time.Now().Add(cfg.Timeout)
	// Open and wait for a sized file, then map ONLY the header page
	// and validate it before trusting the full size: a mis-shaped
	// worker computing a larger mapping than the real file would
	// fault on first touch, so the shape check must come first.
	var f *os.File
	for {
		var err error
		f, err = os.OpenFile(t.path, os.O_RDWR, 0600)
		if err == nil {
			if fi, serr := f.Stat(); serr == nil && fi.Size() >= shmHdrSize {
				break
			}
			f.Close()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("transport: shm rendezvous %s not available before timeout (job %q generation %d)", t.path, cfg.Job, cfg.Generation)
		}
		time.Sleep(2 * time.Millisecond)
	}
	defer f.Close()
	hdr, err := mmapFile(f, shmHdrSize)
	if err != nil {
		return fmt.Errorf("transport: shm mmap header: %w", err)
	}
	for atomic.LoadUint64(shmHdrU64(hdr, shmOffMagic)) != shmMagic {
		if time.Now().After(deadline) {
			munmapFile(hdr)
			return fmt.Errorf("transport: shm header never initialised (job %q)", cfg.Job)
		}
		time.Sleep(time.Millisecond)
	}
	verr := validateShmHeader(hdr, cfg)
	munmapFile(hdr)
	if verr != nil {
		return verr
	}
	if t.mem, err = mmapFile(f, shmSize(cfg.NP, cfg.Procs)); err != nil {
		return fmt.Errorf("transport: shm mmap: %w", err)
	}
	t.carve()
	// Claim an attach slot before touching any shared state. A
	// nonzero liveness stamp in our own slot or an already-full
	// roster means this generation is already running: we are a
	// late replacement looking at the PREVIOUS generation's file,
	// and blindly attaching would corrupt the survivors' rings.
	// Refuse instead — the caller rejoins at the current
	// generation once the leader publishes it.
	if atomic.LoadUint64(t.live[cfg.Self]) != 0 {
		return fmt.Errorf("transport: shm job %q generation %d already has a process %d (stale generation?)",
			cfg.Job, cfg.Generation, cfg.Self)
	}
	attached := t.u64at(shmOffAttached)
	for {
		a := atomic.LoadUint64(attached)
		if a >= uint64(cfg.Procs-1) {
			return fmt.Errorf("transport: shm job %q generation %d is already fully attached (stale generation?)",
				cfg.Job, cfg.Generation)
		}
		if atomic.CompareAndSwapUint64(attached, a, a+1) {
			break
		}
	}
	atomic.StoreUint64(t.live[cfg.Self], uint64(time.Now().UnixNano()))
	return nil
}

func validateShmHeader(hdr []byte, cfg Config) error {
	ver := atomic.LoadUint64(shmHdrU64(hdr, shmOffVersion))
	np := atomic.LoadUint64(shmHdrU64(hdr, shmOffNP))
	procs := atomic.LoadUint64(shmHdrU64(hdr, shmOffProcs))
	gen := atomic.LoadUint64(shmHdrU64(hdr, shmOffGen))
	job := atomic.LoadUint64(shmHdrU64(hdr, shmOffJobHash))
	if ver != shmVersion || np != uint64(cfg.NP) || procs != uint64(cfg.Procs) ||
		gen != uint64(cfg.Generation) || job != shmJobHash(cfg.Job) {
		return fmt.Errorf("transport: shm header mismatch (job %q np=%d procs=%d generation=%d vs mapped np=%d procs=%d generation=%d)",
			cfg.Job, cfg.NP, cfg.Procs, cfg.Generation, np, procs, gen)
	}
	return nil
}

// unmap drops the mapping and, on the leader, the rendezvous file.
func (t *shmLink) unmap() {
	t.mapMu.Lock()
	if t.mem != nil {
		munmapFile(t.mem)
		t.mem = nil
	}
	t.mapMu.Unlock()
	if t.unlink {
		os.Remove(t.path)
	}
}

func (t *shmLink) dataRing(src, dst int) *shmRing { return t.data[(src-1)*t.np+(dst-1)] }
func (t *shmLink) collRing(from, to int) *shmRing { return t.coll[from*t.procs+to] }

// failedNow reports whether the transport is failed or closed,
// promoting the shared cross-process flag into the failBox so Err
// observes it — as the same *MemberLostError the detecting survivor
// raised, when it published whom it lost.
func (t *shmLink) failedNow() bool {
	return t.fb.failed() || t.peerFailed()
}

// peerFailed is failedNow without the local check the core's Send has
// already made.
func (t *shmLink) peerFailed() bool {
	if t.closed.Load() {
		return true
	}
	if atomic.LoadUint64(t.failed) == 0 {
		return false
	}
	if v := atomic.LoadUint64(t.lost); v != 0 {
		t.fb.fail(&MemberLostError{Proc: int(v - 1), Cause: causeSilent})
	} else {
		t.fb.fail(errors.New("transport: shm job failed on a peer process"))
	}
	return true
}

// relax is the waiting side's escalation: spin hot briefly (the
// common case is a peer already mid-copy), yield the P for a while,
// then sleep in steps capped at 100µs so an idle wait costs ~zero CPU
// while wakeup latency stays far below a scheduler quantum.
func relax(spins int) {
	switch {
	case spins < 64:
	case spins < 1024:
		runtime.Gosched()
	default:
		d := time.Duration(spins-1023) * time.Microsecond
		if d > 100*time.Microsecond {
			d = 100 * time.Microsecond
		}
		time.Sleep(d)
	}
}

// readFull drains len(dst) bytes from r, blocking as needed; false
// when the transport fails first. Bytes already in the ring are
// delivered even after a failure (drain-then-nil, like the tcp
// wire).
func (t *shmLink) readFull(r *shmRing, dst []byte) bool {
	got, spins := 0, 0
	for got < len(dst) {
		head := atomic.LoadUint64(r.head)
		tail := atomic.LoadUint64(r.tail)
		if avail := head - tail; avail > 0 {
			n := uint64(len(dst) - got)
			if n > avail {
				n = avail
			}
			r.copyOut(tail, dst[got:got+int(n)])
			atomic.StoreUint64(r.tail, tail+n)
			got += int(n)
			spins = 0
			continue
		}
		if t.failedNow() {
			return false
		}
		spins++
		relax(spins)
	}
	return true
}

// shmDataHdr is a data frame's header: [4]payload-byte-len [8]corr.
const shmDataHdr = 12

func (t *shmLink) push(src, dst int, m inMsg) (int, bool) {
	if t.peerFailed() {
		return unmetered, false // failed transport: drop
	}
	var hdr [shmDataHdr]byte
	payload := floatBytes(m.msg)
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[4:], m.corr)
	defer t.bufs.put(src, dst, m.msg) // copied into the ring or the spill
	return len(hdr) + len(payload), t.send(t.dataRing(src, dst), hdr[:], payload)
}

// send writes the frame hdr+payload into r whole, or, when the ring
// has no room for it (the receiver is behind, or a huge frame), spills
// it for the pump to stream in, so a send never blocks. A spill is the
// shm wire's stall signal: the ring was full.
func (t *shmLink) send(r *shmRing, hdr, payload []byte) (spilled bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.pending) == 0 && r.capacity()-(atomic.LoadUint64(r.head)-atomic.LoadUint64(r.tail)) >= uint64(len(hdr)+len(payload)) {
		r.writeNow(hdr)
		r.writeNow(payload)
		return false
	}
	r.pending = append(append(r.pending, hdr...), payload...)
	t.pump.mark(&r.spill)
	return true
}

func (t *shmLink) pop(src, dst int) (inMsg, int, bool) {
	r := t.dataRing(src, dst)
	r.cmu.Lock()
	defer r.cmu.Unlock()
	var hdr [shmDataHdr]byte
	if !t.readFull(r, hdr[:]) {
		return inMsg{}, unmetered, false
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n%8 != 0 {
		// The length was written by a peer process: a torn or foreign
		// header must stop the job, not shift the stream by a fraction
		// of a float.
		t.fb.fail(fmt.Errorf("transport: shm data frame on pair (%d,%d) has a %d-byte payload, not a multiple of 8", src, dst, n))
		return inMsg{}, unmetered, false
	}
	m := inMsg{corr: binary.LittleEndian.Uint64(hdr[4:]), msg: t.bufs.get(src, dst, n/8)}
	if n > 0 && !t.readFull(r, floatBytes(m.msg)) {
		return inMsg{}, unmetered, false
	}
	return m, shmDataHdr + n, true
}

// sendCtl emits one control frame on the ring to a peer process, sent
// like a data frame.
func (t *shmLink) sendCtl(to int, kind byte, vals []float64) (int, bool) {
	payload := floatBytes(vals)
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(1+len(payload)))
	hdr[4] = kind
	t.send(t.collRing(t.self, to), hdr[:], payload)
	return len(hdr) + len(payload), true
}

func (t *shmLink) recvCtl(from int) (byte, []float64, int, bool) {
	r := t.collRing(from, t.self)
	r.cmu.Lock()
	defer r.cmu.Unlock()
	var hdr [5]byte
	if !t.readFull(r, hdr[:]) {
		return 0, nil, unmetered, false
	}
	n := int(binary.LittleEndian.Uint32(hdr[:4])) - 1
	if n < 0 || n%8 != 0 {
		t.fb.fail(fmt.Errorf("transport: shm control frame from process %d has a %d-byte payload, not a multiple of 8", from, n))
		return 0, nil, unmetered, false
	}
	out := make([]float64, n/8)
	if n > 0 && !t.readFull(r, floatBytes(out)) {
		return 0, nil, unmetered, false
	}
	return hdr[4], out, len(hdr) + n, true
}

// lastSeen and beat read and write the header's liveness stamps; a
// closed link has seen nobody.
func (t *shmLink) lastSeen(proc int) int64 {
	t.mapMu.RLock()
	defer t.mapMu.RUnlock()
	if t.mem == nil {
		return 0
	}
	return int64(atomic.LoadUint64(t.live[proc]))
}

func (t *shmLink) beat(now int64) {
	t.mapMu.RLock()
	defer t.mapMu.RUnlock()
	if t.mem != nil {
		atomic.StoreUint64(t.live[t.self], uint64(now))
	}
}

// abort publishes the failure to the other processes — the lost member
// first (first detector wins), then the shared flag every blocked wait
// and the pump poll. A member the chaos plan killed tells nobody, like
// a SIGKILLed process: its peers must find the frozen stamp themselves.
func (t *shmLink) abort(err error) {
	t.mapMu.RLock()
	if t.mem != nil && !errors.Is(err, ErrChaosKilled) {
		if p, ok := AsMemberLost(err); ok && p >= 0 {
			atomic.CompareAndSwapUint64(t.lost, 0, uint64(p+1))
		}
		atomic.StoreUint64(t.failed, 1)
	}
	t.mapMu.RUnlock()
}

func (t *shmLink) sever(int) {} // no connections to cut

// close stops the pump, unmaps and (on the leader) unlinks. Callers
// close with the engine idle — same contract as the tcp teardown —
// so no Send or Recv still touches the mapping when it goes away.
func (t *shmLink) close() error {
	if !t.closed.CompareAndSwap(false, true) {
		return nil
	}
	t.pump.close()
	t.unmap()
	return nil
}
