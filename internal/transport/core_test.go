package transport

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// fakeLink is a link with no wire under it: streams are channels the
// test feeds, liveness evidence is whatever the test says it is. It
// lets the core's own behaviour — failure promotion, the monitor, the
// collectives — be driven without sockets or /dev/shm.
type fakeLink struct {
	stop    chan struct{} // closed by abort
	aborts  atomic.Int32
	data    chan inMsg     // the one rank stream the tests use
	ctlIn   []chan byte    // control kinds arriving from each peer
	ctlOut  chan byte      // control kinds sent, to any peer
	frozen  []atomic.Int64 // lastSeen per process; 0 means "now"
	beats   atomic.Int32
	severed atomic.Int32
}

func newFakeLink(procs int, fb *failBox) *fakeLink {
	l := &fakeLink{
		stop:   make(chan struct{}),
		data:   make(chan inMsg, 16),
		ctlIn:  make([]chan byte, procs),
		ctlOut: make(chan byte, 16),
		frozen: make([]atomic.Int64, procs),
	}
	for i := range l.ctlIn {
		l.ctlIn[i] = make(chan byte, 16)
	}
	fb.onFail = l.abort
	return l
}

func (l *fakeLink) push(_, _ int, m inMsg) (int, bool) {
	l.data <- m
	return 8 * len(m.msg), false
}

func (l *fakeLink) pop(_, _ int) (inMsg, int, bool) {
	select {
	case m := <-l.data:
		return m, 8 * len(m.msg), true
	case <-l.stop:
		return inMsg{}, unmetered, false
	}
}

func (l *fakeLink) sendCtl(_ int, kind byte, vals []float64) (int, bool) {
	l.ctlOut <- kind
	return 5 + 8*len(vals), true
}

func (l *fakeLink) recvCtl(from int) (byte, []float64, int, bool) {
	select {
	case k := <-l.ctlIn[from]:
		return k, []float64{}, 5, true
	case <-l.stop:
		return 0, nil, unmetered, false
	}
}

func (l *fakeLink) lastSeen(proc int) int64 {
	if at := l.frozen[proc].Load(); at != 0 {
		return at
	}
	return time.Now().UnixNano()
}

func (l *fakeLink) beat(int64)  { l.beats.Add(1) }
func (l *fakeLink) abort(error) { l.aborts.Add(1); close(l.stop) }
func (l *fakeLink) sever(int)   { l.severed.Add(1) }
func (l *fakeLink) close() error {
	return nil
}

// fakeCore builds a core over a fake link for process self of procs.
func fakeCore(self, procs int, cfg Config) (*core, *fakeLink) {
	cfg.NP, cfg.Procs, cfg.Self = 2*procs, procs, self
	fb := newFailBox()
	l := newFakeLink(procs, fb)
	return newCore("fake", cfg, fb, l, newBufPool(cfg.NP)), l
}

// within fails the test unless f returns in time.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { f(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s still blocked", what)
	}
}

// TestCoreStaleMemberIsLost: a peer whose sign of life stops is
// declared lost by the monitor, and every way of asking — Err, Status,
// a Recv blocked on data, a Barrier blocked on an arrival — gives the
// same *MemberLostError naming that process.
func TestCoreStaleMemberIsLost(t *testing.T) {
	c, l := fakeCore(0, 3, Config{Heartbeat: 2 * time.Millisecond, FailAfter: 20 * time.Millisecond})
	c.startMonitor()
	defer c.Close()
	recvd := make(chan []float64, 1)
	go func() { recvd <- c.Recv(3, 1) }()
	barrier := make(chan error, 1)
	go func() { barrier <- c.Barrier() }()
	if lost := lostOf(c.Status()); len(lost) != 0 {
		t.Fatalf("healthy job reports lost members %v", lost)
	}
	l.frozen[2].Store(time.Now().UnixNano()) // process 2 falls silent now
	var berr error
	within(t, "Barrier on a job that lost a member", func() { berr = <-barrier })
	within(t, "Recv on a job that lost a member", func() {
		if msg := <-recvd; msg != nil {
			t.Errorf("aborted Recv returned %v, want nil", msg)
		}
	})
	var mle *MemberLostError
	if !errors.As(c.Err(), &mle) || mle.Proc != 2 {
		t.Fatalf("Err() = %v, want member 2 lost", c.Err())
	}
	if berr != c.Err() {
		t.Errorf("Barrier returned %v, want the sticky error %v", berr, c.Err())
	}
	h := c.Status()
	if lost := lostOf(h); len(lost) != 1 || lost[0] != 2 || h.Err != c.Err() {
		t.Errorf("Status() = %+v, want exactly member 2 lost with the sticky error", h)
	}
	if st := c.Staleness(); st[0] != 0 || st[2] < 20*time.Millisecond {
		t.Errorf("Staleness() = %v, want self 0 and member 2 past the threshold", st)
	}
	if l.beats.Load() == 0 || l.aborts.Load() != 1 {
		t.Errorf("link saw %d beats and %d aborts, want some and exactly 1", l.beats.Load(), l.aborts.Load())
	}
	// A later failure must not displace the first.
	c.Fail(errors.New("late"))
	if got := c.Err(); got != error(mle) || l.aborts.Load() != 1 {
		t.Errorf("second failure changed Err to %v (aborts %d)", got, l.aborts.Load())
	}
}

// TestCoreCollectivesAbortOnFail: a worker blocked in Bcast or in a
// Barrier's release wait returns when the transport fails.
func TestCoreCollectivesAbortOnFail(t *testing.T) {
	boom := errors.New("boom")
	c, l := fakeCore(1, 2, Config{})
	got := make(chan []float64, 1)
	go func() { got <- c.Bcast(0, nil) }()
	c.Fail(boom)
	within(t, "Bcast on a failed transport", func() {
		if vals := <-got; vals != nil {
			t.Errorf("aborted Bcast returned %v, want nil", vals)
		}
	})

	c, l = fakeCore(1, 2, Config{})
	berr := make(chan error, 1)
	go func() { berr <- c.Barrier() }()
	if k := <-l.ctlOut; k != ctlArrive {
		t.Fatalf("worker's barrier sent control kind %d, want an arrival", k)
	}
	c.Fail(boom)
	within(t, "Barrier on a failed transport", func() {
		if err := <-berr; err != boom {
			t.Errorf("aborted Barrier returned %v, want the failure", err)
		}
	})
	if vals := c.Bcast(1, []float64{1}); vals != nil {
		t.Errorf("Bcast from the root of a failed transport returned %v, want nil", vals)
	}
}

// TestCoreCollectiveKindMismatch: the two ends of a process pair
// disagreeing on the next collective is a protocol bug that fails the
// job rather than mis-delivering.
func TestCoreCollectiveKindMismatch(t *testing.T) {
	c, l := fakeCore(1, 2, Config{})
	l.ctlIn[0] <- ctlRelease
	if vals := c.Bcast(0, nil); vals != nil {
		t.Fatalf("Bcast accepted a release frame: %v", vals)
	}
	if c.Err() == nil {
		t.Fatal("a mismatched control frame did not fail the transport")
	}
}

// TestCoreKillAbrupt: the chaos wire's SIGKILL emulation fails locally
// with ErrChaosKilled and cuts the link's connections.
func TestCoreKillAbrupt(t *testing.T) {
	c, l := fakeCore(1, 2, Config{Heartbeat: time.Millisecond})
	c.startMonitor()
	c.killAbrupt()
	if !errors.Is(c.Err(), ErrChaosKilled) || l.severed.Load() != 1 {
		t.Fatalf("after killAbrupt: Err %v, %d severs", c.Err(), l.severed.Load())
	}
	within(t, "monitor of a killed member", func() { <-c.monDone })
	c.Close()
}

// TestSingleProcessStartsNoMonitor: the loopback constructors must not
// pay for liveness machinery nobody needs.
func TestSingleProcessStartsNoMonitor(t *testing.T) {
	for _, kind := range Kinds() {
		tr, err := New(kind, 2)
		if err != nil {
			t.Fatal(err)
		}
		if c := tr.(*core); c.monStop != nil || c.monDone != nil {
			t.Errorf("%s: single-process transport started a liveness monitor", kind)
		}
		if st := tr.(HeartbeatStats).Staleness(); len(st) != 1 || st[0] != 0 {
			t.Errorf("%s: Staleness() = %v, want [0]", kind, st)
		}
		tr.Close()
	}
}
