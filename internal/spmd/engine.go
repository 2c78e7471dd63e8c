// Package spmd is the SPMD execution engine: the abstract processors
// of the mapping model become workers, each owning only the local
// segments of every distributed array (no dense global backing on hot
// paths). Array statements execute as compiled schedules — each worker
// sweeps its owned tiles and exchanges ghost regions with its
// neighbours as actual per-pair messages — while remaps ship whole
// ownership changes the same way. Communication and load are counted
// per worker and aggregated into one machine.Report.
//
// One plan has two dispatchers (Engine.run): the parallel one runs a
// goroutine per hosted worker; the sequential one (NewSequential, the
// "sim" engine) runs each epoch on the caller's goroutine, phase by
// phase. Everything else is shared, so both agree by construction;
// the element-wise executor of package runtime is the independent
// oracle they are tested against.
//
// The wire under the workers is pluggable (package transport): the
// inproc transport keeps today's capacity-1 buffered channel per
// ordered worker pair, and the tcp transport carries the same streams
// as length-prefixed frames over localhost sockets, so an engine can
// span several OS processes (cmd/hpfrun). In a multi-process job
// every process runs the same deterministic control flow — mappings,
// layouts and compiled plans are replicated metadata — but each
// process allocates array values and executes worker epochs only for
// the ranks it hosts; element access (At, Data), reductions and Stats
// become small collectives over the transport. With one process the
// behavior and statistics are identical to the historical in-process
// engine, byte for byte.
//
// Local storage is laid out from the run-length ownership kernel
// (core.AppendOwnerTilesOf): a worker's segment of an array is the
// concatenation of its owner tiles in tile order, column-major within
// each tile. Ghost exchange, load accounting and message
// vectorization are compiled once per schedule and replayed on every
// execution; the values a replay needs beyond the stores — ghosts,
// staged sums, the irregular accumulator — are the worker's, one
// buffer per hosted worker shared by every schedule and valid for one
// epoch, and the compiler's lists are the engine's, reused from build
// to build, so a rebuild allocates only what its plan keeps. There is one per-worker plan shape and one executor
// (Schedule.ExecuteN) with two producers: the regular compiler emits
// strided runs and slot intervals from the intersection of the
// statement's owner tiles (element by element only where no closed
// form exists), and irregular (indirection-array) statements are
// lowered from the inspector's schedule (package inspector). A remap
// is a statement of the regular compiler: the copy new(:) = old(:).
//
// A worker that panics (a user Fill function, a broken wire) does not
// leave its peers deadlocked on the streams: the panic is recovered,
// the transport fails over into its sticky aborted state (unblocking
// every peer), and the failure surfaces as an error from the
// dispatching operation (Execute/ExecuteN/Remap/Reduce). A failed
// engine stays failed — its stores may be inconsistent — and every
// subsequent operation returns the same error.
package spmd

import (
	"fmt"
	gort "runtime"
	"sync"
	"time"

	"hpfnt/internal/machine"
	"hpfnt/internal/obs"
	"hpfnt/internal/transport"
)

// Barrier is a reusable epoch barrier for a fixed number of parties.
// Await blocks until every party has arrived, then releases them all
// and resets for the next epoch. The engine uses one barrier of
// local-workers+1 parties (the hosted workers plus the dispatcher) to
// delimit epochs: one dispatched operation per epoch, with all worker
// stores quiescent between epochs.
type Barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	arrived int
	epoch   uint64
}

// NewBarrier creates a barrier for the given number of parties.
func NewBarrier(parties int) *Barrier {
	if parties < 1 {
		panic(fmt.Sprintf("spmd: barrier needs at least one party, got %d", parties))
	}
	b := &Barrier{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Await blocks until all parties have arrived and returns the epoch
// number that completed.
func (b *Barrier) Await() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.epoch
	b.arrived++
	if b.arrived == b.parties {
		b.arrived = 0
		b.epoch++
		b.cond.Broadcast()
		return e
	}
	for b.epoch == e {
		b.cond.Wait()
	}
	return e
}

// Epoch reports the number of completed epochs.
func (b *Barrier) Epoch() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.epoch
}

// Engine executes distributed-array operations on np concurrent
// workers (abstract processors 1..np), or on this process's share of
// them when the transport spans several processes. Parallel workers
// are spawned lazily on the first dispatched operation and run until
// Close. All methods must be called from a single client goroutine.
type Engine struct {
	np int
	tr transport.Transport
	// mach holds this process's share of the counters; on a
	// single-process transport that is the whole machine.
	mach *machine.Machine
	// statsMu guards mach: workers flush their per-operation counters
	// into it, once per worker per epoch.
	statsMu sync.Mutex

	bar *Barrier
	// bank accumulates per-worker phase wall time (barrier waits are
	// recorded by the worker goroutines themselves); drained into mach
	// under statsMu before every counter snapshot.
	bank *phaseBank
	// local lists the ranks hosted by this process, ascending;
	// localSet is its membership grid (index 1..np).
	local    []int
	localSet []bool
	// seq selects the sequential dispatcher (see run).
	seq bool
	// workers[p-1] is rank p's command channel (nil for remote ranks).
	workers []chan job
	// bufs[p] is hosted worker p's ghost buffer and staging values,
	// shared by every schedule and grown to the largest need seen: an
	// epoch exchanges before it computes, so no ghost outlives it.
	bufs [][]float64
	// work, segs and cuts are the builder's lists, reset by each build.
	work []workBuild
	segs []*segBuild
	cuts [][]int

	startOnce sync.Once
	closeOnce sync.Once
}

// job is one dispatched epoch: worker p's phase k is fn(p, k), for k
// in [0, phases).
type job struct {
	phases int
	fn     func(p, k int)
}

// New creates an engine with np workers on the in-process transport
// and a machine with the given cost model for the aggregated
// counters.
func New(np int, cost machine.CostModel) (*Engine, error) {
	return NewOn(transport.NewInproc(np), cost)
}

// NewOn creates an engine over an existing transport, which defines
// the worker count and (for multi-process transports) which ranks
// this process hosts. The engine owns the transport: Close closes it.
func NewOn(tr transport.Transport, cost machine.CostModel) (*Engine, error) {
	np := tr.NP()
	m, err := machine.New(np, cost)
	if err != nil {
		return nil, err
	}
	e := &Engine{np: np, tr: tr, mach: m, bank: newPhaseBank(np),
		bufs: make([][]float64, np+1), work: make([]workBuild, np+1), segs: make([]*segBuild, np+1)}
	e.localSet = make([]bool, np+1)
	for p := 1; p <= np; p++ {
		if tr.HostOf(p) == tr.Self() {
			e.local = append(e.local, p)
			e.localSet[p] = true
		}
	}
	if len(e.local) == 0 {
		return nil, fmt.Errorf("spmd: process %d hosts no ranks (np=%d, procs=%d)", tr.Self(), np, tr.Procs())
	}
	e.bar = NewBarrier(len(e.local) + 1)
	// Backstop for engines dropped without Close: the worker
	// goroutines reference only their command channels, the barrier
	// and the transport, never the Engine itself, so an unreachable
	// engine is collectable and its finalizer shuts the workers down.
	// Multi-process engines are excluded — their Close performs a
	// collective shutdown barrier, which must never run on (and
	// potentially wedge) the runtime's finalizer goroutine; a
	// distributed job closes explicitly (cmd/hpfrun does).
	if tr.Procs() == 1 {
		gort.SetFinalizer(e, func(e *Engine) { e.Close() })
	}
	return e, nil
}

// NewSequential creates New's engine with the sequential dispatcher:
// no worker goroutines, every epoch run on the caller's goroutine.
func NewSequential(np int, cost machine.CostModel) (*Engine, error) {
	e, err := New(np, cost)
	if err == nil {
		e.seq = true
	}
	return e, err
}

// NP reports the number of workers (across all processes).
func (e *Engine) NP() int { return e.np }

// Transport exposes the engine's transport.
func (e *Engine) Transport() transport.Transport { return e.tr }

// Machine exposes this process's counter machine. Safe to read
// between operations; on a multi-process transport it holds only the
// locally-charged share (Stats aggregates across the job).
func (e *Engine) Machine() *machine.Machine { return e.mach }

// Stats snapshots the job-wide counters. On a multi-process
// transport this is a collective: every process must call it at the
// same point of the replicated control flow, and every process
// returns the identical aggregated report.
func (e *Engine) Stats() machine.Report { return snapshot(e, (*machine.Machine).Stats) }

// DetailStats snapshots the job-wide per-worker detail (load vector,
// traffic matrix, phase times). The same collective contract as
// Stats: on a multi-process transport every process must call it at
// the same point of the replicated control flow.
func (e *Engine) DetailStats() machine.Detail { return snapshot(e, (*machine.Machine).Detail) }

// LocalDetail snapshots this process's share of the counters without
// any collective. Unlike every other counter accessor it is safe to
// call from any goroutine at any time — it is the feed for the live
// /metrics endpoint, which scrapes while epochs are running.
func (e *Engine) LocalDetail() machine.Detail {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	e.bank.drainInto(e.mach)
	return e.mach.Detail()
}

// snapshot reads of the job-wide counters: this process's, or on a
// multi-process transport the aggregate.
func snapshot[T any](e *Engine, of func(*machine.Machine) T) T {
	if e.tr.Procs() > 1 {
		return of(e.aggregate())
	}
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	e.bank.drainInto(e.mach)
	return of(e.mach)
}

// aggregate merges every process's counter share into one job-wide
// machine (the Bcast collective behind Stats and DetailStats).
func (e *Engine) aggregate() *machine.Machine {
	e.statsMu.Lock()
	e.bank.drainInto(e.mach)
	enc := e.mach.EncodeCounters()
	cost := e.mach.Cost
	e.statsMu.Unlock()
	agg, err := machine.New(e.np, cost)
	if err != nil {
		panic(err)
	}
	for i := 0; i < e.tr.Procs(); i++ {
		var mine []float64
		if i == e.tr.Self() {
			mine = enc
		}
		part := e.tr.Bcast(i, mine)
		if part == nil {
			continue // failed job: partial counters
		}
		if err := agg.MergeCounters(part); err != nil {
			panic(fmt.Sprintf("spmd: merging remote counters: %v", err))
		}
	}
	return agg
}

// Reset clears this process's counters (every process of a job calls
// it at the same point, clearing the job-wide aggregate).
func (e *Engine) Reset() {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	e.mach.Reset()
}

// Close shuts the workers down and closes the transport. Idempotent;
// the engine must be idle.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		for _, cmd := range e.workers {
			if cmd != nil {
				close(cmd)
			}
		}
		// Synchronize multi-process shutdown: without the fence a
		// fast process's teardown would race a slow peer's last
		// collective and read as a lost connection.
		if e.tr.Procs() > 1 {
			e.tr.Barrier()
		}
		e.tr.Close()
	})
	return nil
}

// start spawns the hosted worker goroutines on first use.
func (e *Engine) start() {
	e.startOnce.Do(func() {
		e.workers = make([]chan job, e.np)
		bar, tr, bank := e.bar, e.tr, e.bank
		for _, p := range e.local {
			cmd := make(chan job)
			e.workers[p-1] = cmd
			go func(p int) {
				for j := range cmd {
					runPhases(j.fn, p, 0, j.phases, tr)
					// Drop the closure before parking: a retained job
					// would pin its arrays (and through them the
					// Engine), preventing the finalizer backstop from
					// ever collecting an unclosed engine.
					j = job{}
					if obs.TimingEnabled() {
						t0 := time.Now()
						bar.Await()
						bank.add(p, machine.PhaseBarrierWait, int64(time.Since(t0)))
					} else {
						bar.Await()
					}
				}
			}(p)
		}
	})
}

// runPhases executes worker p's phases [from, to) of an epoch,
// converting a panic (user Fill function, broken wire) into the
// transport's sticky failure so peers blocked on the streams unblock
// instead of deadlocking; the dispatcher surfaces the error after the
// epoch.
func runPhases(fn func(p, k int), p, from, to int, tr transport.Transport) {
	defer func() {
		if r := recover(); r != nil {
			tr.Fail(fmt.Errorf("spmd: worker %d panicked: %v", p, r))
		}
	}()
	for k := from; k < to; k++ {
		fn(p, k)
	}
}

// run dispatches one epoch of phases to every hosted worker — fn(p, k)
// is worker p's phase k — and returns once all are done, with the
// transport's sticky error, if any (a failed engine refuses further
// epochs). The parallel dispatcher hands each worker goroutine all its
// phases and waits on the barrier; the sequential one runs phase k of
// every worker before phase k+1 of any. An epoch sends in one phase
// and receives in the next, at most one message per pair per phase, so
// every message sits in its capacity-1 inproc stream before its
// receiver looks.
func (e *Engine) run(phases int, fn func(p, k int)) error {
	if err := e.tr.Err(); err != nil {
		return err
	}
	// Advance the process-wide execution epoch: every process of a job
	// replays the identical replicated control flow, so the counters
	// agree everywhere without wire traffic — this is what stamps the
	// correlation IDs on every frame sent during the dispatch.
	obs.AdvanceEpoch()
	if e.seq {
		for k := 0; k < phases && e.tr.Err() == nil; k++ {
			for _, p := range e.local {
				runPhases(fn, p, k, k+1, e.tr)
			}
		}
		return e.tr.Err()
	}
	e.start()
	for _, p := range e.local {
		e.workers[p-1] <- job{phases, fn}
	}
	e.bar.Await()
	return e.tr.Err()
}

// send delivers one aggregated message from worker src to worker dst.
func (e *Engine) send(src, dst int, msg []float64) {
	e.tr.Send(src, dst, msg)
}

// recv receives the next message sent from src to dst. Returns nil
// once the engine has failed.
func (e *Engine) recv(src, dst int) []float64 {
	return e.tr.Recv(src, dst)
}

// hosted reports whether this process hosts rank p's values.
func (e *Engine) hosted(p int) bool { return e.localSet[p] }

// reserve grows worker p's buffer to n values if this process hosts p.
func (e *Engine) reserve(p, n int) {
	if e.hosted(p) && len(e.bufs[p]) < n {
		e.bufs[p] = make([]float64, n)
	}
}

// counters is a worker's per-operation tally, flushed into the shared
// machine once per epoch.
type counters struct {
	load       int
	localRefs  int
	remoteRefs int
	// sends: one entry per destination pair, each charged msgs times
	// as a message of its elems values (schedule replays call Send per
	// iteration, matching the element-wise oracle's accounting) and
	// put on the wire frames times: msgs when every iteration
	// exchanged, 1 when the schedule coalesced (constGhost).
	sends        []pairSend
	msgs, frames int
	// phase holds the worker's wall time per phase for this epoch, in
	// nanoseconds; nil when phase timing is disabled so the hot paths
	// never touch the clock.
	phase *phaseTally
}

// flush applies a worker's counters to the shared machine.
func (e *Engine) flush(p int, c *counters) {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	if c.load > 0 {
		e.mach.AddLoad(p, c.load)
	}
	e.mach.RecordLocal(c.localRefs)
	e.mach.RecordRemote(c.remoteRefs)
	for _, s := range c.sends {
		e.mach.SendN(p, s.dst, s.elems, c.msgs)
		e.mach.AddWireFrames(c.frames)
	}
	if c.phase != nil {
		for ph, ns := range c.phase {
			if ns > 0 {
				e.mach.AddPhaseNS(p, machine.Phase(ph), ns)
			}
		}
	}
}
