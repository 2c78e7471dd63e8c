package core

import (
	"fmt"
	"slices"

	"hpfnt/internal/dist"
	"hpfnt/internal/index"
	"hpfnt/internal/proc"
)

// DummyMode enumerates the four ways the distribution of a dummy
// argument can be specified (§7).
type DummyMode int

// The §7 dummy argument distribution modes.
const (
	// DummyExplicit: "DISTRIBUTE A d [TO r]" — the actual argument is
	// remapped to the specified distribution on entry and restored on
	// exit.
	DummyExplicit DummyMode = iota
	// DummyInherit: "DISTRIBUTE A *" — the distribution of the actual
	// argument is transferred into the procedure and inherited.
	DummyInherit
	// DummyInheritMatch: "DISTRIBUTE A * d [TO r]" — the distribution
	// is inherited, but if it does not match the specification the
	// program is not HPF-conforming.
	DummyInheritMatch
	// DummyImplicit: no explicit specification; this implementation's
	// implicit rule for dummies is inheritance (the zero-movement
	// choice §8.1.2 describes as the usual case).
	DummyImplicit
)

func (m DummyMode) String() string {
	switch m {
	case DummyExplicit:
		return "explicit"
	case DummyInherit:
		return "inherit"
	case DummyInheritMatch:
		return "inherit-matching"
	case DummyImplicit:
		return "implicit"
	}
	return "?"
}

// DummySpec describes one dummy argument of a procedure.
type DummySpec struct {
	Name string
	Mode DummyMode
	// Formats/Target are used by DummyExplicit and DummyInheritMatch.
	Formats []dist.Format
	Target  proc.Target
	// Dynamic gives the dummy the DYNAMIC attribute inside the
	// procedure (permitting REDISTRIBUTE/REALIGN of the dummy, with
	// mandatory restore on exit).
	Dynamic bool
}

// Actual designates an actual argument at a call site: a whole array
// or a section of one (e.g. A(2:996:2) in §8.1.2).
type Actual struct {
	Name string
	// Section selects a sub-domain of the array; nil means the whole
	// array.
	Section []index.Triplet
}

// Binding records the mapping decisions for one dummy argument.
type Binding struct {
	Dummy  string
	Actual Actual
	Mode   DummyMode
	// Inherited is the mapping transferred from the actual.
	Inherited ElementMapping
	// Effective is the mapping the dummy has inside the procedure
	// (equals Inherited except in explicit mode).
	Effective ElementMapping
	// RemapIn is the number of elements whose owner changes on entry
	// (nonzero only for explicit remaps).
	RemapIn int
	// RemapOut is the number of elements moved back on exit, set by
	// Return (covers both explicit remaps and dummy redistribution
	// during the call, per §7: "If a dummy argument is redistributed
	// or realigned during execution of the procedure, then the
	// original distribution must be restored on procedure exit").
	RemapOut int
}

// Frame is an active procedure call: a callee unit with a local
// alignment forest (§7: "The alignment tree ... is local to a
// procedure"), plus the bookkeeping needed to restore mappings on
// exit.
type Frame struct {
	Caller *Unit
	Callee *Unit
	// Bindings, one per dummy argument, in argument order.
	Bindings []Binding

	returned bool
}

// Call enters a procedure: it builds the callee's local unit, binds
// each actual to its dummy per the dummy's distribution mode, and
// accounts for any entry remapping. The callee unit shares the
// caller's processor system.
func (u *Unit) Call(procName string, dummies []DummySpec, actuals []Actual) (*Frame, error) {
	if len(dummies) != len(actuals) {
		return nil, fmt.Errorf("core: call %s: %d dummies but %d actuals", procName, len(dummies), len(actuals))
	}
	callee := NewUnit(procName, u.Sys)
	fr := &Frame{Caller: u, Callee: callee}
	for k, ds := range dummies {
		act := actuals[k]
		b, err := u.bindArgument(callee, ds, act)
		if err != nil {
			return nil, fmt.Errorf("core: call %s, argument %d (%s): %w", procName, k+1, ds.Name, err)
		}
		fr.Bindings = append(fr.Bindings, b)
	}
	return fr, nil
}

func (u *Unit) bindArgument(callee *Unit, ds DummySpec, act Actual) (Binding, error) {
	actualMap, err := u.MappingOf(act.Name)
	if err != nil {
		return Binding{}, err
	}
	an := u.nodes[act.Name]

	// The inherited mapping: the actual's mapping, restricted to the
	// section if one is passed, rebased to the dummy's normalized
	// domain.
	var secDom index.Domain
	if act.Section != nil {
		secDom, err = an.arr.Dom.Section(act.Section...)
		if err != nil {
			return Binding{}, err
		}
		if secDom.Empty() {
			return Binding{}, fmt.Errorf("core: empty section %s of %s", secDom, act.Name)
		}
	} else {
		secDom = an.arr.Dom
	}
	inherited, err := NewSectionMapping(secDom, actualMap)
	if err != nil {
		return Binding{}, err
	}
	dummyDom := inherited.Domain()

	a, err := callee.DeclareArray(ds.Name, dummyDom)
	if err != nil {
		return Binding{}, err
	}
	a.IsDummy = true
	a.Dynamic = ds.Dynamic
	dn := callee.nodes[ds.Name]

	b := Binding{Dummy: ds.Name, Actual: act, Mode: ds.Mode, Inherited: inherited}
	switch ds.Mode {
	case DummyInherit, DummyImplicit:
		dn.primaryMap = inherited
		b.Effective = inherited
	case DummyExplicit:
		if err := callee.setDistribution(dn, ds.Formats, ds.Target); err != nil {
			return Binding{}, err
		}
		b.Effective = dn.primaryMap
		vol, err := RemapVolume(inherited, b.Effective)
		if err != nil {
			return Binding{}, err
		}
		b.RemapIn = vol
	case DummyInheritMatch:
		// Build the specified distribution over the dummy's domain
		// and verify the inherited mapping matches it; a mismatch
		// makes the program non-conforming (§7 mode 3).
		spec, err := buildSpec(callee, dummyDom, ds)
		if err != nil {
			return Binding{}, err
		}
		ok, err := matches(inherited, spec)
		if err != nil {
			return Binding{}, err
		}
		if !ok {
			return Binding{}, fmt.Errorf("core: inherited distribution of %s does not match specification %s: program is not HPF-conforming", ds.Name, spec.Describe())
		}
		dn.primaryMap = inherited
		b.Effective = inherited
	default:
		return Binding{}, fmt.Errorf("core: unknown dummy mode %d", int(ds.Mode))
	}
	return b, nil
}

func buildSpec(callee *Unit, dom index.Domain, ds DummySpec) (ElementMapping, error) {
	target := ds.Target
	if target.Arr == nil {
		nonColon := 0
		for _, f := range ds.Formats {
			if f.Kind() != dist.KindCollapsed {
				nonColon++
			}
		}
		t, err := callee.implicitTarget(nonColon)
		if err != nil {
			return nil, err
		}
		target = t
	}
	d, err := dist.New(dom, ds.Formats, target)
	if err != nil {
		return nil, err
	}
	return DistMapping{D: d}, nil
}

// matches compares an inherited mapping against a specified
// distribution, structurally when possible, semantically otherwise.
func matches(inherited ElementMapping, spec ElementMapping) (bool, error) {
	if sm, ok := inherited.(*SectionMapping); ok {
		if dm, ok := sm.Actual.(DistMapping); ok && sm.Section.Equal(dm.D.Array) {
			if sd, ok := spec.(DistMapping); ok {
				if dm.D.Equal(sd.D) {
					return true, nil
				}
			}
		}
	}
	vol, err := RemapVolume(inherited, spec)
	return vol == 0, err
}

// RedistributeDummy redistributes a dummy argument during the call;
// the dummy must be DYNAMIC. The restore volume is accounted on
// Return.
func (f *Frame) RedistributeDummy(name string, formats []dist.Format, target proc.Target) error {
	if f.returned {
		return fmt.Errorf("core: frame for %s already returned", f.Callee.Name)
	}
	return f.Callee.Redistribute(name, formats, target)
}

// Return exits the procedure: for every dummy whose effective mapping
// changed relative to the inherited one (explicit mode, or dynamic
// redistribution during the call), the original distribution of the
// actual is restored and the movement volume recorded (§7). The
// callee's local forest is discarded; the caller's forest is
// untouched throughout, implementing "an array which is the actual
// argument of a procedure call is not connected with its alignment
// tree in the calling unit during execution of the called procedure".
func (f *Frame) Return() error {
	if f.returned {
		return fmt.Errorf("core: frame for %s already returned", f.Callee.Name)
	}
	f.returned = true
	for k := range f.Bindings {
		b := &f.Bindings[k]
		current, err := f.Callee.MappingOf(b.Dummy)
		if err != nil {
			return err
		}
		vol, err := RemapVolume(current, b.Inherited)
		if err != nil {
			return err
		}
		b.RemapOut = vol
	}
	return nil
}

// RemapVolume counts the elements whose owner set changes between two
// mappings over the same (normalized) domain — the data volume a
// remapping must move. It walks the offsets once, comparing each
// element's two owner sets sorted.
func RemapVolume(from, to ElementMapping) (int, error) {
	df, dt := from.Domain(), to.Domain()
	if !df.Normalize().Equal(dt.Normalize()) {
		return 0, fmt.Errorf("core: remap between different shapes %s and %s", df, dt)
	}
	var of, ot []int
	var err error
	moved := 0
	for off := range df.Size() {
		if of, err = from.AppendOwners(of[:0], df.TupleAt(off)); err != nil {
			return 0, err
		}
		if ot, err = to.AppendOwners(ot[:0], dt.TupleAt(off)); err != nil {
			return 0, err
		}
		slices.Sort(of)
		slices.Sort(ot)
		if !slices.Equal(of, ot) {
			moved++
		}
	}
	return moved, nil
}
