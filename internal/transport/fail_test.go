package transport

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestStickyFailureAllOpsAllKinds pins the sticky-failure contract on
// every wire: after Fail, the first error wins and stays, and every
// Send/Recv/Bcast/Barrier on every rank — issued concurrently from
// many goroutines — returns promptly instead of blocking, with
// Barrier and Err reporting that same first error.
func TestStickyFailureAllOpsAllKinds(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind, func(t *testing.T) {
			const np = 4
			tr, err := New(kind, np)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			boom := errors.New("boom")
			tr.Fail(boom)
			tr.Fail(errors.New("second failure must not overwrite the first"))
			if got := tr.Err(); !errors.Is(got, boom) {
				t.Fatalf("Err() = %v, want the first failure", got)
			}
			done := make(chan struct{})
			var wg sync.WaitGroup
			errc := make(chan error, 4*np*np)
			for s := 1; s <= np; s++ {
				for d := 1; d <= np; d++ {
					wg.Add(4)
					go func(s, d int) {
						defer wg.Done()
						tr.Send(s, d, []float64{float64(s), float64(d)})
					}(s, d)
					go func(s, d int) {
						defer wg.Done()
						if msg := tr.Recv(s, d); msg != nil {
							errc <- fmt.Errorf("Recv(%d,%d) on failed transport returned %v, want nil", s, d, msg)
						}
					}(s, d)
					go func(s, d int) {
						defer wg.Done()
						tr.Bcast(0, []float64{float64(s * d)})
					}(s, d)
					go func(s, d int) {
						defer wg.Done()
						if err := tr.Barrier(); !errors.Is(err, boom) {
							errc <- fmt.Errorf("Barrier on failed transport = %v, want the first failure", err)
						}
					}(s, d)
				}
			}
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("operations still blocked on a failed transport")
			}
			close(errc)
			for err := range errc {
				t.Error(err)
			}
			if got := tr.Err(); !errors.Is(got, boom) {
				t.Fatalf("Err() after concurrent ops = %v, want the first failure", got)
			}
			if h := tr.Status(); h.Err == nil {
				t.Fatal("Status().Err nil on a failed transport")
			}
		})
	}
}

// lostOf lists the process indexes h believes dead.
func lostOf(h Health) []int {
	var out []int
	for i, a := range h.Alive {
		if !a {
			out = append(out, i)
		}
	}
	return out
}

// TestStatusHealthy checks the membership view on a healthy transport
// of every kind.
func TestStatusHealthy(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind, func(t *testing.T) {
			tr, err := New(kind, 3)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			h := tr.Status()
			if h.Procs != 1 || h.Self != 0 {
				t.Fatalf("Status() = %+v, want a single-process view", h)
			}
			if len(h.Alive) != h.Procs || !h.Alive[0] {
				t.Fatalf("Alive = %v, want self alive", h.Alive)
			}
			if h.Err != nil {
				t.Fatalf("healthy transport reports Err %v", h.Err)
			}
			if lost := lostOf(h); len(lost) != 0 {
				t.Fatalf("healthy transport reports lost members %v", lost)
			}
		})
	}
}

// TestMemberLostError checks the loss-signal plumbing: wrapping,
// unwrapping and the AsMemberLost helper.
func TestMemberLostError(t *testing.T) {
	cause := errors.New("read: connection reset")
	err := fmt.Errorf("epoch 7: %w", &MemberLostError{Proc: 2, Cause: "connection lost", Err: cause})
	proc, ok := AsMemberLost(err)
	if !ok || proc != 2 {
		t.Fatalf("AsMemberLost = (%d, %v), want (2, true)", proc, ok)
	}
	if !errors.Is(err, cause) {
		t.Fatal("MemberLostError does not unwrap to its cause")
	}
	if _, ok := AsMemberLost(errors.New("plain")); ok {
		t.Fatal("AsMemberLost matched a plain error")
	}
	if _, ok := AsMemberLost(nil); ok {
		t.Fatal("AsMemberLost matched nil")
	}
}

// TestBackoff checks the jittered-exponential-backoff envelope: each
// attempt's delay stays within ±25% of base·2^attempt, capped at max.
func TestBackoff(t *testing.T) {
	const base, max = 10 * time.Millisecond, 200 * time.Millisecond
	for attempt := 0; attempt < 12; attempt++ {
		want := base << attempt
		if want > max || want <= 0 {
			want = max
		}
		for trial := 0; trial < 50; trial++ {
			d := Backoff(attempt, base, max)
			if d < want-want/4 || d > want+want/4 {
				t.Fatalf("Backoff(%d) = %v, outside [%v, %v]", attempt, d, want-want/4, want+want/4)
			}
		}
	}
}
