// Package engine selects between the two dispatchers of the SPMD
// engine (package spmd): kind "spmd" runs one goroutine per abstract
// processor, kind "sim" runs the same compiled plans on the caller's
// goroutine, phase by phase. Both implement the Engine/Array/Schedule
// interfaces, compute identical array values and report identical
// machine statistics. NewOracle builds a third implementation that is
// not a selectable kind: package runtime's element-wise executor, the
// independent derivation the fuzz targets in this package test both
// kinds against.
//
// A statement has one form on every backend: Array.NewSchedule (or
// NewIrregular, for indirection arrays) builds its terms into a
// Schedule, and a one-shot statement is a schedule executed once.
//
// The process-wide default backend is "sim"; it can be switched with
// the HPFNT_ENGINE environment variable or by assigning Default
// before programs are built (cmd/hpfbench does so for its -engine
// flag). The spmd backend's wire is pluggable in the same way
// (package transport): HPFNT_TRANSPORT or SetDefaultTransport selects
// between "inproc" (buffered channels, the default), "shm" (lock-free
// shared-memory rings) and "tcp" (length-prefixed frames over
// localhost sockets); sim always runs on the in-process wire and only
// validates the name. Multi-process spmd engines are built directly
// over a joined transport with NewSPMDOn (see cmd/hpfrun).
package engine

import (
	"fmt"
	"os"

	"hpfnt/internal/ckpt"
	"hpfnt/internal/core"
	"hpfnt/internal/index"
	"hpfnt/internal/inspector"
	"hpfnt/internal/machine"
	"hpfnt/internal/runtime"
	"hpfnt/internal/spmd"
	"hpfnt/internal/transport"
)

// The backend kinds.
const (
	// Sim is the sequential dispatcher: the spmd engine's plans and
	// stores, run on the caller's goroutine over the in-process wire.
	Sim = "sim"
	// SPMD is the parallel dispatcher: one worker goroutine per
	// abstract processor, local-only storage, per-pair ghost exchange.
	SPMD = "spmd"
)

// The transport kinds of the spmd backend (re-exported from package
// transport).
const (
	// InprocTransport is the in-process channel wire (the default).
	InprocTransport = transport.Inproc
	// ShmTransport carries the streams over lock-free ring buffers in
	// one shared mmap'd file — the fast multi-process wire (single-
	// process loopback here; joined multi-process jobs are built via
	// NewSPMDOn).
	ShmTransport = transport.Shm
	// TCPTransport carries the same streams as length-prefixed frames
	// over localhost sockets (single-process loopback here; joined
	// multi-process jobs are built via NewSPMDOn).
	TCPTransport = transport.TCP
)

// EnvVar names the environment variable consulted for the default
// backend at process start.
const EnvVar = "HPFNT_ENGINE"

// TransportEnvVar names the environment variable consulted for the
// spmd backend's default transport at process start.
const TransportEnvVar = "HPFNT_TRANSPORT"

// Default is the backend kind used by NewDefault (and therefore by
// hpf.NewProgram and the workload sweeps). It initializes from
// HPFNT_ENGINE, falling back to "sim".
var Default = defaultKind()

// DefaultTransport is the transport used by spmd engines created
// through New/NewDefault. It initializes from HPFNT_TRANSPORT,
// falling back to "inproc".
var DefaultTransport = defaultTransport()

func defaultKind() string {
	if v := os.Getenv(EnvVar); v != "" {
		return v
	}
	return Sim
}

func defaultTransport() string {
	if v := os.Getenv(TransportEnvVar); v != "" {
		return v
	}
	return transport.Inproc
}

// Kinds lists the available backend kinds.
func Kinds() []string { return []string{Sim, SPMD} }

// Transports lists the available transport kinds.
func Transports() []string { return transport.Kinds() }

// SetDefault validates kind and installs it as the process-wide
// default backend.
func SetDefault(kind string) error {
	for _, k := range Kinds() {
		if k == kind {
			Default = kind
			return nil
		}
	}
	return fmt.Errorf("engine: unknown backend %q (have %v)", kind, Kinds())
}

// SetDefaultTransport validates kind and installs it as the
// process-wide default transport for spmd engines.
func SetDefaultTransport(kind string) error {
	for _, k := range transport.Kinds() {
		if k == kind {
			DefaultTransport = kind
			return nil
		}
	}
	return fmt.Errorf("engine: unknown transport %q (have %v)", kind, transport.Kinds())
}

// ReduceOp selects a reduction operator (shared with the runtime).
type ReduceOp = runtime.ReduceOp

// Term is one right-hand-side reference Coeff · Src(Access(t)): a
// shift, a permutation or a rank-reducing read such as the A(i) in
// E(i,j) = D(i,j) + A(i).
type Term struct {
	Src    Array
	Coeff  float64
	Access index.Access
}

// Read builds a shifted reference term, Coeff · Src(t + shift).
func Read(src Array, coeff float64, shift ...int) Term {
	return Term{Src: src, Coeff: coeff, Access: index.Shift(shift...)}
}

// Engine is an execution backend: it materializes distributed arrays
// and owns the machine counters their operations charge.
type Engine interface {
	// Kind reports the backend kind ("sim" or "spmd"; "oracle" for
	// NewOracle).
	Kind() string
	// NP reports the abstract processor count.
	NP() int
	// Machine exposes the backend's counter machine.
	Machine() *machine.Machine
	// NewArray materializes a zeroed distributed array.
	NewArray(name string, m core.ElementMapping) (Array, error)
	// Stats snapshots the counters.
	Stats() machine.Report
	// Detail snapshots the full per-worker counter view (load vector,
	// traffic matrix, phase times). Same collective contract as Stats
	// on a multi-process spmd engine.
	Detail() machine.Detail
	// LocalDetail snapshots this process's share of the counters
	// without any collective; unlike every other accessor it is safe
	// from any goroutine at any time (the /metrics scrape path). On
	// sim and single-process spmd it equals Detail.
	LocalDetail() machine.Detail
	// Reset clears the counters.
	Reset()
	// Checkpoint snapshots the arrays' values and the job-wide
	// aggregated counters into the spill directory dir at the given
	// epoch (package ckpt format). On a multi-process spmd engine it
	// is a collective; the checkpoint becomes visible atomically or
	// not at all.
	Checkpoint(dir string, epoch int, arrays []Array) error
	// Restore loads the latest checkpoint in dir back into the
	// arrays, which must match the checkpointed ones in order, name
	// and shape (rebuild them by re-running the job's deterministic
	// prologue). Returns the restored epoch, or ErrNoCheckpoint when
	// dir holds none.
	Restore(dir string, arrays []Array) (int, error)
	// Close releases backend resources (worker goroutines).
	Close() error
}

// ErrNoCheckpoint reports that a spill directory holds no published
// checkpoint (re-exported from package ckpt).
var ErrNoCheckpoint = ckpt.ErrNoCheckpoint

// Array is a distributed array on some backend. All arrays in one
// statement must come from the same engine.
type Array interface {
	Name() string
	Domain() index.Domain
	Mapping() core.ElementMapping
	Replicated() bool
	// Fill initializes every element from fn (which must be pure: the
	// spmd backend evaluates it concurrently, once per replica). The
	// tuple is reused from call to call: fn must not modify it, and
	// must clone it to retain it. A panic in fn fails the engine, as a
	// sticky error from the next operation.
	Fill(fn func(index.Tuple) float64)
	At(t index.Tuple) float64
	Set(t index.Tuple, v float64)
	// Data materializes the dense column-major global values, for
	// verification.
	Data() []float64
	// NewSchedule compiles lhs(region) = Σ terms under the
	// owner-computes rule into a replayable schedule: the one form of
	// a regular statement, a one-shot one included (build, then
	// Execute once).
	NewSchedule(region index.Domain, terms []Term) (Schedule, error)
	// NewIrregular runs the inspector over an irregular gather/scatter
	// access pattern (subscripts from indirection arrays, no closed
	// form) and precompiles its reusable halo-exchange schedule:
	// lhs(pat.Writes[k]) = Σ_k pat.Coeffs[k]·src(pat.Reads[k]), with
	// element positions as column-major offsets. Replicated arrays are
	// refused; remapping either array invalidates the schedule.
	NewIrregular(src Array, pat inspector.Pattern) (Schedule, error)
	// Remap moves the array to a new element mapping, returning the
	// number of elements moved.
	Remap(newMap core.ElementMapping) (int, error)
	// Reduce computes a global reduction.
	Reduce(op ReduceOp) (float64, error)
}

// Schedule is a precompiled, replayable communication schedule.
type Schedule interface {
	Execute() error
	// ExecuteN replays the schedule iters times in one engine epoch.
	ExecuteN(iters int) error
	GhostElements() int
	Messages() int
}

// New creates a backend of the given kind with np abstract processors
// and the given cost model, on the DefaultTransport (spmd only; sim
// always runs on the in-process wire).
func New(kind string, np int, cost machine.CostModel) (Engine, error) {
	return NewOn(kind, DefaultTransport, np, cost)
}

// NewOn creates a backend of the given kind on an explicit transport
// kind. For spmd, "inproc" is the channel wire, "shm" the shared-
// memory ring loopback and "tcp" the single-process socket loopback;
// the sim backend ignores the transport (it still validates the
// name).
func NewOn(kind, transportKind string, np int, cost machine.CostModel) (Engine, error) {
	switch kind {
	case Sim:
		// Validate the name anyway, to keep selection errors uniform
		// across backends.
		if err := validTransport(transportKind); err != nil {
			return nil, err
		}
		e, err := spmd.NewSequential(np, cost)
		if err != nil {
			return nil, err
		}
		return &spmdEngine{e: e, kind: Sim}, nil
	case SPMD:
		tr, err := transport.New(transportKind, np)
		if err != nil {
			return nil, err
		}
		return newSPMDOn(tr, cost)
	default:
		return nil, fmt.Errorf("engine: unknown backend %q (have %v)", kind, Kinds())
	}
}

func validTransport(kind string) error {
	for _, k := range transport.Kinds() {
		if k == kind {
			return nil
		}
	}
	return fmt.Errorf("engine: unknown transport %q (have %v)", kind, transport.Kinds())
}

// NewSPMDOn creates a spmd backend over an existing (possibly
// multi-process, already joined) transport. The engine owns the
// transport: Close closes it. This is how cmd/hpfrun builds the
// engine of a distributed job.
func NewSPMDOn(tr transport.Transport, cost machine.CostModel) (Engine, error) {
	return newSPMDOn(tr, cost)
}

// NewDefault creates a backend of the Default kind.
func NewDefault(np int, cost machine.CostModel) (Engine, error) {
	return New(Default, np, cost)
}
