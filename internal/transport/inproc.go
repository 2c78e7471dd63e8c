package transport

// inprocLink is the in-process wire: a capacity-1 buffered channel per
// ordered rank pair. Within one engine epoch each pair has at most one
// in-flight message per iteration, and every worker sends all its
// outgoing messages before receiving, so sends never deadlock; the
// capacity-1 backpressure also bounds how far a fast sender can
// pipeline ahead of a slow receiver across iterations.
type inprocLink struct {
	chans [][]chan inMsg
	stop  <-chan struct{} // the failBox's: closed on the first failure
}

func newInprocLink(np int, fb *failBox) *inprocLink {
	l := &inprocLink{chans: make([][]chan inMsg, np), stop: fb.stop}
	for s := range l.chans {
		l.chans[s] = make([]chan inMsg, np)
		for d := range l.chans[s] {
			l.chans[s][d] = make(chan inMsg, 1)
		}
	}
	return l
}

func (l *inprocLink) push(src, dst int, m inMsg) (int, bool) {
	ch := l.chans[src-1][dst-1]
	// Try the uncontended path first so the backpressure block is
	// visible as a stall in the wire counters.
	select {
	case ch <- m:
		return 8 * len(m.msg), false
	default:
	}
	select {
	case ch <- m:
		return 8 * len(m.msg), true
	case <-l.stop:
		return unmetered, true
	}
}

func (l *inprocLink) pop(src, dst int) (inMsg, int, bool) {
	ch := l.chans[src-1][dst-1]
	select {
	case m := <-ch:
		return m, 8 * len(m.msg), true
	default:
	}
	select {
	case m := <-ch:
		return m, 8 * len(m.msg), true
	case <-l.stop:
		// Drain-then-nil on failure, like the other wires: a message
		// already in the stream is delivered even after Fail.
		select {
		case m := <-ch:
			return m, 8 * len(m.msg), true
		default:
			return inMsg{}, unmetered, false
		}
	}
}

// One process: no control stream, no peers to watch, nothing to cut.
func (l *inprocLink) sendCtl(int, byte, []float64) (int, bool) { return unmetered, false }
func (l *inprocLink) recvCtl(int) (byte, []float64, int, bool) { return 0, nil, unmetered, false }
func (l *inprocLink) lastSeen(int) int64                       { return 0 }
func (l *inprocLink) beat(int64)                               {}
func (l *inprocLink) abort(error)                              {}
func (l *inprocLink) sever(int)                                {}
func (l *inprocLink) close() error                             { return nil }
