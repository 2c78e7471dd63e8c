// Package spmd is the SPMD execution engine: the abstract processors
// of the mapping model become workers, each owning only the local
// segments of every distributed array. Array statements execute as
// compiled schedules — each worker sweeps its owned tiles and
// exchanges ghost regions with its neighbours as per-pair messages —
// while remaps ship whole ownership changes the same way.
//
// Every operation is an epoch, and one function runs epochs
// (Engine.run). An operation only says what each worker's phases do,
// which machine phase each counts as and what the epoch costs; run
// dispatches, synchronizes, times, traces and charges it. It has two
// dispatchers: the parallel one runs a goroutine per hosted worker
// and waits for all of them, and the sequential one (NewSequential,
// the "sim" engine) runs each epoch on the caller's goroutine, phase
// by phase. Only an epoch that succeeded charges its counters, once
// per worker, from the dispatching goroutine, so both agree by
// construction; the element-wise executor of package runtime is the
// independent oracle they are tested against.
//
// The wire under the workers is pluggable (package transport): inproc
// keeps a capacity-1 channel per ordered worker pair, and shm and tcp
// carry the same streams between OS processes (cmd/hpfrun). In a
// multi-process job every process runs the same deterministic control
// flow — mappings, layouts and compiled plans are replicated metadata
// — but each allocates values and runs worker phases only for the
// ranks it hosts; element access (At, Data), reductions and Stats
// become small collectives over the transport.
//
// A worker's segment of an array is the concatenation of its owner
// tiles (core.AppendOwnerTilesOf) in tile order, column-major within
// each tile. Ghost exchange, load accounting and message
// vectorization are compiled once per schedule and replayed on every
// execution; ghosts, staged sums and the irregular accumulator live
// in one buffer per hosted worker, valid for one epoch, and the
// compiler's lists are the engine's, so a rebuild allocates only what
// its plan keeps. There is one per-worker plan shape and one executor
// (Schedule.ExecuteN) with two producers: the regular compiler, from
// the intersection of the statement's owner tiles, and the lowering
// of the inspector's schedule for indirection-array statements
// (package inspector). A remap is the regular statement new(:) =
// old(:).
//
// A worker that panics (a user Fill function, a broken wire) does not
// leave its peers deadlocked: the panic fails the transport into its
// sticky aborted state, which unblocks every peer, and the dispatching
// operation returns the error. A failed engine stays failed — its
// stores may be inconsistent — and every later operation returns the
// same error.
package spmd

import (
	"fmt"
	gort "runtime"
	"sync"
	"sync/atomic"
	"time"

	"hpfnt/internal/machine"
	"hpfnt/internal/obs"
	"hpfnt/internal/transport"
)

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
	// statsMu guards mach: the dispatcher charges it after every
	// epoch, and LocalDetail may read it from any goroutine.
	statsMu sync.Mutex

	// bank is the route phase wall time takes into mach: workers add to
	// it, and it drains under statsMu before every counter snapshot.
	bank *phaseBank
	// busy counts the hosted workers still running the parallel
	// dispatcher's epoch. A pointer, as the workers hold it and must
	// not hold the Engine.
	busy *sync.WaitGroup
	// local lists the ranks hosted by this process, ascending;
	// localSet is its membership grid (index 1..np).
	local    []int
	localSet []bool
	// seq selects the sequential dispatcher (see run).
	seq bool
	// workers[p-1] is rank p's command channel (nil for remote ranks).
	workers []chan task
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

// An epoch is one dispatched operation as the operation describes it:
// what each phase does, which machine phase it counts as, its spans
// and what it costs. Engine.run dispatches, synchronizes, times,
// traces and charges it.
type epoch interface {
	// phases is every worker's phase count n; phase k counts as
	// as[k%len(as)], and an epoch without as is untimed.
	phases() (n int, as []machine.Phase)
	// do runs worker p's phase k.
	do(p, k int)
	// span labels, while tracing, the epoch's own span (p = 0, of the
	// given kind) and worker p's "worker" span; "" traces none.
	span(p int) (kind, name string)
	// cost is worker p's charge, made once the epoch has succeeded.
	cost(p int) counters
}

// task is an epoch as run hands it to a worker goroutine: timed
// banks its phase times, and stamp records when the worker finished.
type task struct {
	epoch
	timed, stamp bool
}

// fill is a one-phase untimed epoch that neither traces nor charges.
type fill func(p int)

func (fill) phases() (int, []machine.Phase) { return 1, nil }
func (f fill) do(p, _ int)                  { f(p) }
func (fill) span(int) (string, string)      { return "", "" }
func (fill) cost(int) counters              { return counters{} }

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
	e := &Engine{np: np, tr: tr, mach: m, bank: newPhaseBank(np), busy: new(sync.WaitGroup),
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
	// Backstop for engines dropped without Close: the worker
	// goroutines hold their command channels, the wait group, the phase
	// bank and the transport, never the Engine, so an unreachable engine
	// is collected and its finalizer stops them. Not for multi-process
	// engines: their Close is a collective barrier, which must never run
	// on (and could wedge) the finalizer goroutine; cmd/hpfrun closes.
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
func (e *Engine) LocalDetail() machine.Detail { return drained(e, (*machine.Machine).Detail) }

// snapshot reads the job-wide counters: this process's, or on a
// multi-process transport the aggregate.
func snapshot[T any](e *Engine, of func(*machine.Machine) T) T {
	if e.tr.Procs() > 1 {
		return of(e.aggregate())
	}
	return drained(e, of)
}

// drained reads this process's counters, the phase bank drained into
// them.
func drained[T any](e *Engine, of func(*machine.Machine) T) T {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	e.bank.drainInto(e.mach)
	return of(e.mach)
}

// aggregate merges every process's counter share into one job-wide
// machine (the collective behind Stats, DetailStats and Checkpoint). A
// share that does not merge — bytes from another process — fails the
// transport and is skipped, like a failed Bcast: the result is then
// partial, and Err says why.
func (e *Engine) aggregate() *machine.Machine {
	// The cost model was validated when the engine was made.
	agg, _ := machine.New(e.np, e.mach.Cost)
	e.allgather(drained(e, (*machine.Machine).EncodeCounters), func(i int, part []float64) {
		if part == nil {
			return // failed job: partial counters
		}
		if err := agg.MergeCounters(part); err != nil {
			e.tr.Fail(fmt.Errorf("spmd: merging the counters of process %d: %w", i, err))
		}
	})
	return agg
}

// allgather is the Bcast collective: every process publishes mine in
// turn, and fn receives process i's vector (nil once the transport has
// failed).
func (e *Engine) allgather(mine []float64, fn func(i int, part []float64)) {
	for i := 0; i < e.tr.Procs(); i++ {
		var v []float64
		if i == e.tr.Self() {
			v = mine
		}
		fn(i, e.tr.Bcast(i, v))
	}
}

// Reset clears this process's counters (every process of a job calls
// it at the same point, clearing the job-wide aggregate).
func (e *Engine) Reset() {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	e.bank.drainInto(e.mach)
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
		e.workers = make([]chan task, e.np)
		busy, tr, bank := e.busy, e.tr, e.bank
		for _, p := range e.local {
			cmd := make(chan task)
			e.workers[p-1] = cmd
			go func(p int) {
				for t := range cmd {
					n, _ := t.phases()
					t.work(p, 0, n, bank, tr)
					if t.stamp {
						bank.fin[p] = time.Now()
					}
					// Drop the epoch before parking: a retained one would
					// pin its arrays (and through them the Engine),
					// preventing the finalizer backstop from ever
					// collecting an unclosed engine.
					t = task{}
					busy.Done()
				}
			}(p)
		}
	})
}

// work executes worker p's phases [from, to) of the epoch, banking the
// wall time of each as the machine phase it counts as, and converts a
// panic (user Fill function, broken wire) into the transport's sticky
// failure so peers blocked on the streams unblock instead of
// deadlocking; the dispatcher surfaces the error after the epoch.
func (t task) work(p, from, to int, bank *phaseBank, tr transport.Transport) {
	defer func() {
		if r := recover(); r != nil {
			tr.Fail(fmt.Errorf("spmd: worker %d panicked: %v", p, r))
		}
	}()
	if !t.timed {
		for k := from; k < to; k++ {
			t.do(p, k)
		}
		return
	}
	_, as := t.phases()
	var ns [machine.NumPhases]int64
	t0 := time.Now()
	for k := from; k < to; k++ {
		t.do(p, k)
		now := time.Now()
		ns[as[k%len(as)]] += int64(now.Sub(t0))
		t0 = now
	}
	for ph, v := range ns {
		bank.add(p, machine.Phase(ph), v)
	}
}

// run dispatches one epoch to every hosted worker and returns once all
// are done, with the transport's sticky error, if any (a failed engine
// refuses further epochs). The parallel dispatcher hands each worker
// goroutine all its phases and waits for them; a worker's barrier wait
// is the time from its last phase to the epoch's end. The sequential
// one runs phase k of every worker before phase k+1 of any, so its
// workers all finish at the end. An epoch sends in one phase and
// receives in the next, at most one message per pair per phase, so
// every message sits in its capacity-1 inproc stream before its
// receiver looks. Only an epoch that succeeded records its barrier
// waits and worker spans and charges its cost, once per hosted worker,
// from this goroutine: a failed epoch charges nothing.
func (e *Engine) run(ep epoch) error {
	if err := e.tr.Err(); err != nil {
		return err
	}
	// Advance the process-wide execution epoch: every process of a job
	// replays the identical replicated control flow, so the counters
	// agree everywhere without wire traffic — this is what stamps the
	// correlation IDs on every frame sent during the dispatch.
	obs.AdvanceEpoch()
	var start time.Time
	tracing := obs.TraceEnabled()
	if tracing {
		if kind, name := ep.span(0); name != "" {
			if end := obs.BeginSpan(kind, name, 0); end != nil {
				defer end()
			}
		}
		start = time.Now()
	}
	n, as := ep.phases()
	timed := as != nil && obs.TimingEnabled()
	t := task{ep, timed, timed || tracing}
	if e.seq {
		for k := 0; k < n && e.tr.Err() == nil; k++ {
			for _, p := range e.local {
				t.work(p, k, k+1, e.bank, e.tr)
			}
		}
	} else {
		e.start()
		e.busy.Add(len(e.local))
		for _, p := range e.local {
			e.workers[p-1] <- t
		}
		e.busy.Wait()
	}
	if err := e.tr.Err(); err != nil {
		return err
	}
	if t.stamp {
		end := time.Now()
		for _, p := range e.local {
			fin := end
			if !e.seq {
				fin = e.bank.fin[p]
			}
			if timed {
				e.bank.add(p, machine.PhaseBarrierWait, int64(end.Sub(fin)))
			}
			if !tracing {
				continue
			}
			if _, name := ep.span(p); name != "" {
				obs.Emit(obs.Event{Kind: "worker", Name: name, Rank: p, Start: start.UnixNano(), Dur: int64(fin.Sub(start))})
			}
		}
	}
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	for _, p := range e.local {
		e.charge(p, ep.cost(p))
	}
	return nil
}

// hosted reports whether this process hosts rank p's values.
func (e *Engine) hosted(p int) bool { return e.localSet[p] }

// reserve grows worker p's buffer to n values if this process hosts p.
func (e *Engine) reserve(p, n int) {
	if e.hosted(p) && len(e.bufs[p]) < n {
		e.bufs[p] = make([]float64, n)
	}
}

// counters is what one epoch charges a worker.
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
}

// charge applies worker p's counters to the machine (caller holds
// statsMu).
func (e *Engine) charge(p int, c counters) {
	e.mach.AddLoad(p, c.load)
	e.mach.RecordLocal(c.localRefs)
	e.mach.RecordRemote(c.remoteRefs)
	for _, s := range c.sends {
		e.mach.SendN(p, s.dst, s.elems, c.msgs)
		e.mach.AddWireFrames(c.frames)
	}
}

// phaseBank is the one route phase wall time takes into the machine:
// a flat slice of atomics indexed phase-major like machine's phase
// block. Engine.run's workers add their phase times to it lock-free
// and the dispatcher adds barrier waits; it drains into the machine
// under statsMu before every counter snapshot. The bank holds no
// reference to the Engine, so the worker goroutines capturing it keep
// the finalizer backstop intact.
type phaseBank struct {
	stride int
	ns     []int64
	// fin[p] is when worker p finished its phases of the running
	// parallel epoch: written by the worker before it reports done,
	// read by the dispatcher after every worker has.
	fin []time.Time
}

func newPhaseBank(np int) *phaseBank {
	return &phaseBank{stride: np + 1, ns: make([]int64, machine.NumPhases*(np+1)), fin: make([]time.Time, np+1)}
}

// add charges ns nanoseconds of phase ph to worker p.
func (b *phaseBank) add(p int, ph machine.Phase, ns int64) {
	if ns <= 0 {
		return
	}
	atomic.AddInt64(&b.ns[int(ph)*b.stride+p], ns)
}

// drainInto moves the accumulated times into m (caller holds the
// machine's lock). Swap-to-zero keeps late worker adds: a phase
// banked after this drain simply lands in the next snapshot.
func (b *phaseBank) drainInto(m *machine.Machine) {
	for ph := 0; ph < machine.NumPhases; ph++ {
		for p := 1; p < b.stride; p++ {
			if v := atomic.SwapInt64(&b.ns[ph*b.stride+p], 0); v != 0 {
				m.AddPhaseNS(p, machine.Phase(ph), v)
			}
		}
	}
}
