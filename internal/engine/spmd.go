package engine

import (
	"fmt"

	"hpfnt/internal/core"
	"hpfnt/internal/index"
	"hpfnt/internal/inspector"
	"hpfnt/internal/machine"
	"hpfnt/internal/spmd"
	"hpfnt/internal/transport"
)

// spmdEngine adapts the SPMD engine, under either dispatcher, to the
// backend interface.
type spmdEngine struct {
	e    *spmd.Engine
	kind string
}

func newSPMDOn(tr transport.Transport, cost machine.CostModel) (Engine, error) {
	e, err := spmd.NewOn(tr, cost)
	if err != nil {
		tr.Close()
		return nil, err
	}
	return &spmdEngine{e: e, kind: SPMD}, nil
}

func (e *spmdEngine) Kind() string                { return e.kind }
func (e *spmdEngine) NP() int                     { return e.e.NP() }
func (e *spmdEngine) Machine() *machine.Machine   { return e.e.Machine() }
func (e *spmdEngine) Stats() machine.Report       { return e.e.Stats() }
func (e *spmdEngine) Detail() machine.Detail      { return e.e.DetailStats() }
func (e *spmdEngine) LocalDetail() machine.Detail { return e.e.LocalDetail() }
func (e *spmdEngine) Reset()                      { e.e.Reset() }
func (e *spmdEngine) Close() error                { return e.e.Close() }

// unwrapArrays checks backend membership and unwraps to spmd arrays.
func (e *spmdEngine) unwrapArrays(arrays []Array) ([]*spmd.Array, error) {
	out := make([]*spmd.Array, len(arrays))
	for i, a := range arrays {
		sa, ok := a.(*spmdArray)
		if !ok || sa.eng != e {
			return nil, fmt.Errorf("engine: array %s is not on this %s engine", a.Name(), e.kind)
		}
		out[i] = sa.a
	}
	return out, nil
}

func (e *spmdEngine) Checkpoint(dir string, epoch int, arrays []Array) error {
	as, err := e.unwrapArrays(arrays)
	if err != nil {
		return err
	}
	return e.e.Checkpoint(dir, epoch, as)
}

func (e *spmdEngine) Restore(dir string, arrays []Array) (int, error) {
	as, err := e.unwrapArrays(arrays)
	if err != nil {
		return 0, err
	}
	return e.e.Restore(dir, as)
}

func (e *spmdEngine) NewArray(name string, m core.ElementMapping) (Array, error) {
	a, err := e.e.NewArray(name, m)
	if err != nil {
		return nil, err
	}
	return &spmdArray{eng: e, a: a}, nil
}

type spmdArray struct {
	eng *spmdEngine
	a   *spmd.Array
}

func (x *spmdArray) Name() string                      { return x.a.Name() }
func (x *spmdArray) Domain() index.Domain              { return x.a.Domain() }
func (x *spmdArray) Mapping() core.ElementMapping      { return x.a.Mapping() }
func (x *spmdArray) Replicated() bool                  { return x.a.Replicated() }
func (x *spmdArray) Fill(fn func(index.Tuple) float64) { x.a.Fill(fn) }
func (x *spmdArray) At(t index.Tuple) float64          { return x.a.At(t) }
func (x *spmdArray) Set(t index.Tuple, v float64)      { x.a.Set(t, v) }
func (x *spmdArray) Data() []float64                   { return x.a.Data() }

func (x *spmdArray) terms(ts []Term) ([]spmd.Term, error) {
	out := make([]spmd.Term, len(ts))
	for i, t := range ts {
		sa, ok := t.Src.(*spmdArray)
		if !ok || sa.eng != x.eng {
			return nil, fmt.Errorf("engine: term source %s is not on this %s engine", t.Src.Name(), x.eng.kind)
		}
		out[i] = spmd.Term{Src: sa.a, Coeff: t.Coeff, Access: t.Access}
	}
	return out, nil
}

func (x *spmdArray) NewSchedule(region index.Domain, ts []Term) (Schedule, error) {
	sts, err := x.terms(ts)
	if err != nil {
		return nil, err
	}
	s, err := x.eng.e.BuildSchedule(x.a, region, sts)
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (x *spmdArray) NewIrregular(src Array, pat inspector.Pattern) (Schedule, error) {
	sa, ok := src.(*spmdArray)
	if !ok || sa.eng != x.eng {
		return nil, fmt.Errorf("engine: irregular source %s is not on this %s engine", src.Name(), x.eng.kind)
	}
	s, err := x.eng.e.BuildIrregular(x.a, sa.a, pat)
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (x *spmdArray) Remap(newMap core.ElementMapping) (int, error) {
	return x.eng.e.Remap(x.a, newMap)
}

func (x *spmdArray) Reduce(op ReduceOp) (float64, error) {
	return x.eng.e.Reduce(x.a, op)
}
