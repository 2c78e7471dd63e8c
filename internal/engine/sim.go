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
)

// simEngine is the sequential backend: runtime executors charging a
// simulated machine. It is the oracle the spmd backend is verified
// against.
type simEngine struct {
	np int
	m  *machine.Machine
}

func newSim(np int, cost machine.CostModel) (Engine, error) {
	m, err := machine.New(np, cost)
	if err != nil {
		return nil, err
	}
	return &simEngine{np: np, m: m}, nil
}

func (e *simEngine) Kind() string                { return Sim }
func (e *simEngine) NP() int                     { return e.np }
func (e *simEngine) Machine() *machine.Machine   { return e.m }
func (e *simEngine) Stats() machine.Report       { return e.m.Stats() }
func (e *simEngine) Detail() machine.Detail      { return e.m.Detail() }
func (e *simEngine) LocalDetail() machine.Detail { return e.m.Detail() }
func (e *simEngine) Reset()                      { e.m.Reset() }
func (e *simEngine) Close() error                { return nil }

// Checkpoint writes each array's dense values as a single rank-0
// shard plus the counter vector — the same ckpt format the spmd
// backend uses, with one process and one logical shard per array.
func (e *simEngine) Checkpoint(dir string, epoch int, arrays []Array) error {
	ed := ckpt.EpochDir(dir, epoch)
	if err := os.MkdirAll(ed, 0o755); err != nil {
		return err
	}
	infos := make([]ckpt.ArrayInfo, len(arrays))
	for i, a := range arrays {
		sa, ok := a.(*simArray)
		if !ok || sa.eng != e {
			return fmt.Errorf("engine: checkpoint array %s is not on this sim engine", a.Name())
		}
		infos[i] = ckpt.ArrayInfo{Name: sa.a.Name, Size: sa.a.Dom.Size()}
		if err := ckpt.WriteShard(ed, ckpt.ShardName(i, 0), sa.a.Data()); err != nil {
			return err
		}
	}
	if err := ckpt.Publish(dir, ckpt.Manifest{Epoch: epoch, NP: e.np, Arrays: infos, Counters: e.m.EncodeCounters()}); err != nil {
		return err
	}
	_ = ckpt.Prune(dir, epoch)
	return nil
}

// Restore loads the latest checkpoint back into the arrays and
// resets the machine to the snapshotted counter aggregate.
func (e *simEngine) Restore(dir string, arrays []Array) (int, error) {
	man, ed, err := ckpt.Latest(dir)
	if err != nil {
		return 0, err
	}
	if man.NP != e.np {
		return 0, fmt.Errorf("engine: checkpoint is for np=%d, engine has np=%d", man.NP, e.np)
	}
	if len(man.Arrays) != len(arrays) {
		return 0, fmt.Errorf("engine: checkpoint holds %d arrays, restore got %d", len(man.Arrays), len(arrays))
	}
	for i, a := range arrays {
		sa, ok := a.(*simArray)
		if !ok || sa.eng != e {
			return 0, fmt.Errorf("engine: restore array %s is not on this sim engine", a.Name())
		}
		dom := sa.a.Dom
		if inf := man.Arrays[i]; inf.Name != sa.a.Name || inf.Size != dom.Size() {
			return 0, fmt.Errorf("engine: checkpoint array %d is %s[%d], restore got %s[%d]",
				i, inf.Name, inf.Size, sa.a.Name, dom.Size())
		}
		buf := make([]float64, dom.Size())
		if err := ckpt.ReadShard(ed, ckpt.ShardName(i, 0), buf); err != nil {
			return 0, err
		}
		for off, v := range buf {
			sa.a.Set(dom.TupleAt(off), v)
		}
	}
	e.m.Reset()
	if err := e.m.MergeCounters(man.Counters); err != nil {
		return 0, fmt.Errorf("engine: restoring checkpoint counters: %w", err)
	}
	return man.Epoch, nil
}

func (e *simEngine) NewArray(name string, m core.ElementMapping) (Array, error) {
	a, err := runtime.NewArray(name, m)
	if err != nil {
		return nil, err
	}
	return &simArray{eng: e, a: a}, nil
}

type simArray struct {
	eng *simEngine
	a   *runtime.Array
}

func (x *simArray) Name() string                      { return x.a.Name }
func (x *simArray) Domain() index.Domain              { return x.a.Dom }
func (x *simArray) Mapping() core.ElementMapping      { return x.a.Mapping() }
func (x *simArray) Replicated() bool                  { return x.a.Replicated() }
func (x *simArray) Fill(fn func(index.Tuple) float64) { x.a.Fill(fn) }
func (x *simArray) At(t index.Tuple) float64          { return x.a.At(t) }
func (x *simArray) Set(t index.Tuple, v float64)      { x.a.Set(t, v) }
func (x *simArray) Data() []float64                   { return x.a.Data() }

// terms converts interface terms, checking backend membership.
func (x *simArray) terms(ts []Term) ([]runtime.Term, error) {
	out := make([]runtime.Term, len(ts))
	for i, t := range ts {
		sa, ok := t.Src.(*simArray)
		if !ok || sa.eng != x.eng {
			return nil, fmt.Errorf("engine: term source %s is not on this sim engine", t.Src.Name())
		}
		out[i] = runtime.Term{Src: sa.a, Shift: t.Shift, Coeff: t.Coeff}
	}
	return out, nil
}

func (x *simArray) Assign(region index.Domain, ts []Term) error {
	rts, err := x.terms(ts)
	if err != nil {
		return err
	}
	return runtime.ShiftAssign(x.eng.m, x.a, region, rts)
}

func (x *simArray) AssignGeneral(region index.Domain, ts []GeneralTerm) error {
	out := make([]runtime.GeneralTerm, len(ts))
	for i, t := range ts {
		sa, ok := t.Src.(*simArray)
		if !ok || sa.eng != x.eng {
			return fmt.Errorf("engine: term source %s is not on this sim engine", t.Src.Name())
		}
		out[i] = runtime.GeneralTerm{Src: sa.a, Coeff: t.Coeff, Map: t.Map}
	}
	return runtime.GeneralAssign(x.eng.m, x.a, region, out)
}

func (x *simArray) NewSchedule(region index.Domain, ts []Term) (Schedule, error) {
	rts, err := x.terms(ts)
	if err != nil {
		return nil, err
	}
	s, err := runtime.BuildSchedule(x.a, region, rts)
	if err != nil {
		return nil, err
	}
	return &simSchedule{eng: x.eng, s: s}, nil
}

func (x *simArray) NewIrregular(src Array, pat inspector.Pattern) (Schedule, error) {
	sa, ok := src.(*simArray)
	if !ok || sa.eng != x.eng {
		return nil, fmt.Errorf("engine: irregular source %s is not on this sim engine", src.Name())
	}
	s, err := runtime.BuildIrregular(x.eng.np, x.a, sa.a, pat)
	if err != nil {
		return nil, err
	}
	return &simSchedule{eng: x.eng, s: s}, nil
}

func (x *simArray) Remap(newMap core.ElementMapping) (int, error) {
	return runtime.Remap(x.eng.m, x.a, newMap)
}

func (x *simArray) Reduce(op ReduceOp) (float64, error) {
	return runtime.Reduce(x.eng.m, x.a, op)
}

// simSchedule adapts a sequential schedule — the regular and the
// irregular one execute the same way — to the backend interface.
type simSchedule struct {
	eng *simEngine
	s   interface {
		Execute(m *machine.Machine) error
		GhostElements() int
		Messages() int
	}
}

func (s *simSchedule) Execute() error { return s.ExecuteN(1) }

func (s *simSchedule) ExecuteN(iters int) error {
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

func (s *simSchedule) GhostElements() int { return s.s.GhostElements() }
func (s *simSchedule) Messages() int      { return s.s.Messages() }
