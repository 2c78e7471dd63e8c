package transport

import (
	"sync"
	"sync/atomic"
	"time"
)

// spill is one producer's ordered byte stream into a wire that may not
// take a frame whole right now — an shm ring, a tcp socket — and what
// keeps a send from ever blocking on it: the bytes the wire does not
// take wait in pending, and the link's pump writes them on in order.
// Both wires queue without bound for one reason: blocking would
// deadlock two processes that flood each other.
type spill struct {
	mu      sync.Mutex // the producer side: senders vs the pump
	pending []byte
	queued  atomic.Bool // on the pump's dirty list
	// fit writes what the wire takes of b now, without waiting.
	fit func(b []byte) (int, error)
}

// put sends b, with mu held: through fit while nothing waits, the rest
// into pending for p. It reports whether anything waits — the wire's
// stall signal.
func (s *spill) put(p *pump, b []byte) (bool, error) {
	if len(s.pending) == 0 {
		n, err := s.fit(b)
		if err != nil || n == len(b) {
			return false, err
		}
		b = b[n:]
	}
	s.pending = append(s.pending, b...)
	p.mark(s)
	return true, nil
}

// drain writes what the wire takes of the pending bytes and reports
// whether any went out and whether some remain. On a failed transport
// or a write error (which the reading side of the dead connection
// reports) they are dropped, like the sends of a failed transport.
func (s *spill) drain(failed bool) (progressed, remaining bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if failed {
		s.pending = nil
		return false, false
	}
	n, err := s.fit(s.pending)
	if s.pending = s.pending[n:]; err != nil || len(s.pending) == 0 {
		s.pending = nil
	}
	return n > 0, len(s.pending) > 0
}

// pump is a link's drainer of spilled sends: it retries the dirty
// spills until they are empty, sleeping in steps up to 100µs while
// none makes progress (the receivers are busy computing).
type pump struct {
	mu     sync.Mutex
	cond   sync.Cond
	stop   bool
	dirty  []*spill
	done   chan struct{}
	failed func() bool
}

func startPump(failed func() bool) *pump {
	p := &pump{done: make(chan struct{}), failed: failed}
	p.cond.L = &p.mu
	go p.run()
	return p
}

func (p *pump) mark(s *spill) {
	if s.queued.CompareAndSwap(false, true) {
		p.mu.Lock()
		p.dirty = append(p.dirty, s)
		p.cond.Signal()
		p.mu.Unlock()
	}
}

func (p *pump) run() {
	defer close(p.done)
	for backoff := time.Duration(0); ; {
		p.mu.Lock()
		for len(p.dirty) == 0 && !p.stop {
			p.cond.Wait()
		}
		work, stop := p.dirty, p.stop
		p.dirty = nil
		p.mu.Unlock()
		if stop {
			return
		}
		failed, progressed := p.failed(), false
		for _, s := range work {
			s.queued.Store(false)
			pr, rem := s.drain(failed)
			if progressed = progressed || pr; rem {
				p.mark(s)
			}
		}
		if progressed {
			backoff = 0
		} else {
			backoff = min(backoff+time.Microsecond, 100*time.Microsecond)
			time.Sleep(backoff)
		}
	}
}

// close stops the pump and returns once it has exited.
func (p *pump) close() {
	p.mu.Lock()
	p.stop = true
	p.cond.Broadcast()
	p.mu.Unlock()
	<-p.done
}
