package transport

import (
	"sync"
	"sync/atomic"
	"time"
)

// EpochMarker is implemented by transports that accept epoch
// boundaries from the execution layer. The elastic driver calls
// MarkEpoch at the start of every epoch chunk; the chaos wire keys
// its scripted faults on it, which is what makes fault injection
// deterministic: "kill process 2 at epoch 5" fires at exactly the
// same point of the computation on every run and every wire.
type EpochMarker interface {
	MarkEpoch(epoch int)
}

// ChaosPlan scripts the faults a chaos transport injects. Faults are
// gated on Generation: they fire only while the wrapped transport is
// at that job generation, so after a recovery (generation bump) the
// replayed epochs pass the scripted point without re-firing — no
// shared cross-process state needed for exactly-once injection.
type ChaosPlan struct {
	// Generation gates every scripted fault (zero matches the first
	// generation of a job).
	Generation int

	// DelayEvery > 0 delays every Nth Send by Delay, simulating a
	// slow or congested wire without changing delivery order.
	DelayEvery int
	Delay      time.Duration

	// KillAtEpoch > 0 reports member KillProc as lost (a sticky
	// *MemberLostError) at the start of that epoch — a detected
	// loss, as if the local failure detector had fired.
	KillAtEpoch int
	KillProc    int

	// DieAtEpoch > 0 makes the process whose index is DieProc die
	// abruptly at the start of that epoch: the inner transport is
	// torn down with no goodbye (sockets closed raw, liveness stamp
	// frozen) so every OTHER member discovers the death through its
	// own failure detector, exactly as for a SIGKILL. On a transport
	// with no abrupt-kill hook (a wrapper) it degrades to a local
	// sticky ErrChaosKilled failure.
	DieAtEpoch int
	DieProc    int

	// DropConnAtEpoch > 0 severs the raw connection to DropPeer at
	// the start of that epoch (tcp only; a no-op on connectionless
	// wires). Both ends of the dead socket attribute the loss.
	DropConnAtEpoch int
	DropPeer        int
}

// chaosHooks is how the chaos wire reaches the link under a transport:
// the core's SIGKILL emulation and its connection-severing hook.
type chaosHooks interface {
	killAbrupt()
	dropConn(peer int)
}

// chaos wraps an inner transport with deterministic fault injection;
// every method it does not override is the inner transport's.
type chaos struct {
	Transport
	plan *ChaosPlan

	sends    atomic.Int64
	killOnce sync.Once
	dieOnce  sync.Once
	dropOnce sync.Once
}

// NewChaos wraps inner with the scripted fault plan. The wrapper is a
// full Transport plus an EpochMarker; drive it under the elastic
// layer (which marks epochs) or call MarkEpoch directly from a test
// harness. Wrap each generation's transport with the same *ChaosPlan:
// the plan's Generation gate keeps faults from re-firing on replay.
func NewChaos(inner Transport, plan *ChaosPlan) Transport {
	return &chaos{Transport: inner, plan: plan}
}

func (t *chaos) Send(src, dst int, msg []float64) {
	if n := t.plan.DelayEvery; n > 0 && t.plan.Delay > 0 {
		if t.sends.Add(1)%int64(n) == 0 {
			time.Sleep(t.plan.Delay)
		}
	}
	t.Transport.Send(src, dst, msg)
}

// Wire passes through the inner wire's counters (zero when the inner
// transport does not meter itself).
func (t *chaos) Wire() WireStats {
	if wc, ok := t.Transport.(WireCounter); ok {
		return wc.Wire()
	}
	return WireStats{}
}

// Staleness passes through the inner wire's heartbeat view.
func (t *chaos) Staleness() []time.Duration {
	if hs, ok := t.Transport.(HeartbeatStats); ok {
		return hs.Staleness()
	}
	return make([]time.Duration, t.Transport.Procs())
}

// armed reports whether scripted faults apply at the inner
// transport's current generation.
func (t *chaos) armed() bool {
	return t.Transport.Status().Generation == t.plan.Generation
}

// MarkEpoch fires any fault scripted at or before the given epoch
// (at most once per wrapper; the generation gate stops replays).
func (t *chaos) MarkEpoch(epoch int) {
	p := t.plan
	if p.DropConnAtEpoch > 0 && epoch >= p.DropConnAtEpoch && t.armed() {
		t.dropOnce.Do(func() {
			if d, ok := t.Transport.(chaosHooks); ok {
				d.dropConn(p.DropPeer)
			}
		})
	}
	if p.DieAtEpoch > 0 && epoch >= p.DieAtEpoch && t.Transport.Self() == p.DieProc && t.armed() {
		t.dieOnce.Do(func() {
			if k, ok := t.Transport.(chaosHooks); ok {
				k.killAbrupt()
			} else {
				t.Transport.Fail(ErrChaosKilled)
			}
		})
	}
	if p.KillAtEpoch > 0 && epoch >= p.KillAtEpoch && t.armed() {
		t.killOnce.Do(func() {
			t.Transport.Fail(&MemberLostError{Proc: p.KillProc, Cause: "chaos scripted loss"})
		})
	}
}
