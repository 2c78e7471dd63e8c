package engine

import (
	"errors"
	"fmt"

	"hpfnt/internal/core"
	"hpfnt/internal/index"
	"hpfnt/internal/inspector"
	"hpfnt/internal/machine"
	"hpfnt/internal/runtime"
)

// oracleEngine is package runtime's element-wise reference executor
// behind the backend interface: dense global values, per-element
// ownership analysis, counters charged straight to a machine. It shares
// no layout, tiling or plan code with the spmd engine, which is what
// makes it the oracle the differential tests compare sim and spmd
// against.
type oracleEngine struct {
	np int
	m  *machine.Machine
}

// oracleKind is what the oracle's Kind reports.
const oracleKind = "oracle"

// errOracleCheckpoint is what the oracle's Checkpoint and Restore
// return: checkpoints are an engine feature, not a reference semantics.
var errOracleCheckpoint = errors.New("engine: the oracle does not checkpoint")

// NewOracle creates the element-wise reference executor with np
// abstract processors. It is not an engine kind (New and Kinds do not
// know it) and it does not checkpoint.
func NewOracle(np int, cost machine.CostModel) (Engine, error) {
	m, err := machine.New(np, cost)
	if err != nil {
		return nil, err
	}
	return &oracleEngine{np: np, m: m}, nil
}

func (e *oracleEngine) Kind() string                { return oracleKind }
func (e *oracleEngine) NP() int                     { return e.np }
func (e *oracleEngine) Machine() *machine.Machine   { return e.m }
func (e *oracleEngine) Stats() machine.Report       { return e.m.Stats() }
func (e *oracleEngine) Detail() machine.Detail      { return e.m.Detail() }
func (e *oracleEngine) LocalDetail() machine.Detail { return e.m.Detail() }
func (e *oracleEngine) Reset()                      { e.m.Reset() }
func (e *oracleEngine) Close() error                { return nil }

func (e *oracleEngine) Checkpoint(string, int, []Array) error { return errOracleCheckpoint }

func (e *oracleEngine) Restore(string, []Array) (int, error) { return 0, errOracleCheckpoint }

func (e *oracleEngine) NewArray(name string, m core.ElementMapping) (Array, error) {
	a, err := runtime.NewArray(name, m)
	if err != nil {
		return nil, err
	}
	return &oracleArray{eng: e, a: a}, nil
}

type oracleArray struct {
	eng *oracleEngine
	a   *runtime.Array
}

func (x *oracleArray) Name() string                      { return x.a.Name }
func (x *oracleArray) Domain() index.Domain              { return x.a.Dom }
func (x *oracleArray) Mapping() core.ElementMapping      { return x.a.Mapping() }
func (x *oracleArray) Replicated() bool                  { return x.a.Replicated() }
func (x *oracleArray) Fill(fn func(index.Tuple) float64) { x.a.Fill(fn) }
func (x *oracleArray) At(t index.Tuple) float64          { return x.a.At(t) }
func (x *oracleArray) Set(t index.Tuple, v float64)      { x.a.Set(t, v) }
func (x *oracleArray) Data() []float64                   { return x.a.Data() }

// src unwraps an array of the same oracle engine.
func (x *oracleArray) src(a Array) (*runtime.Array, error) {
	sa, ok := a.(*oracleArray)
	if !ok || sa.eng != x.eng {
		return nil, fmt.Errorf("engine: array %s is not on this oracle engine", a.Name())
	}
	return sa.a, nil
}

// terms converts interface terms, checking backend membership.
func (x *oracleArray) terms(ts []Term) ([]runtime.Term, error) {
	out := make([]runtime.Term, len(ts))
	for i, t := range ts {
		src, err := x.src(t.Src)
		if err != nil {
			return nil, err
		}
		out[i] = runtime.Term{Src: src, Coeff: t.Coeff, Access: t.Access}
	}
	return out, nil
}

func (x *oracleArray) NewSchedule(region index.Domain, ts []Term) (Schedule, error) {
	rts, err := x.terms(ts)
	if err != nil {
		return nil, err
	}
	s, err := runtime.BuildSchedule(x.a, region, rts)
	if err != nil {
		return nil, err
	}
	return &oracleSchedule{eng: x.eng, s: s}, nil
}

func (x *oracleArray) NewIrregular(src Array, pat inspector.Pattern) (Schedule, error) {
	sa, err := x.src(src)
	if err != nil {
		return nil, err
	}
	s, err := runtime.BuildIrregular(x.eng.np, x.a, sa, pat)
	if err != nil {
		return nil, err
	}
	return &oracleSchedule{eng: x.eng, s: s}, nil
}

func (x *oracleArray) Remap(newMap core.ElementMapping) (int, error) {
	return runtime.Remap(x.eng.m, x.a, newMap)
}

func (x *oracleArray) Reduce(op ReduceOp) (float64, error) {
	return runtime.Reduce(x.eng.m, x.a, op)
}

// oracleSchedule adapts a sequential schedule — the regular and the
// irregular one execute the same way — to the backend interface.
type oracleSchedule struct {
	eng *oracleEngine
	s   interface {
		Execute(m *machine.Machine) error
		GhostElements() int
		Messages() int
	}
}

func (s *oracleSchedule) Execute() error { return s.ExecuteN(1) }

func (s *oracleSchedule) ExecuteN(iters int) error {
	if iters < 1 {
		return fmt.Errorf("engine: ExecuteN needs a positive iteration count, got %d", iters)
	}
	for i := 0; i < iters; i++ {
		if err := s.s.Execute(s.eng.m); err != nil {
			return err
		}
	}
	return nil
}

func (s *oracleSchedule) GhostElements() int { return s.s.GhostElements() }
func (s *oracleSchedule) Messages() int      { return s.s.Messages() }
