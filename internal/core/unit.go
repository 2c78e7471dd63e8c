package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"hpfnt/internal/align"
	"hpfnt/internal/dist"
	"hpfnt/internal/index"
	"hpfnt/internal/proc"
)

// Array is a declared data array of a program unit.
type Array struct {
	Name string
	// Rank of the array (fixed at declaration, also for allocatables).
	Rank int
	// Dom is the index domain; valid only when Created.
	Dom index.Domain
	// Allocatable marks arrays with the ALLOCATABLE attribute (§6).
	Allocatable bool
	// Dynamic marks arrays declared DYNAMIC, a prerequisite for
	// REDISTRIBUTE and REALIGN (§4.2, §5.2).
	Dynamic bool
	// Created reports whether the array currently exists (static
	// arrays always; allocatables between ALLOCATE and DEALLOCATE).
	Created bool
	// IsDummy marks dummy arguments inside a procedure frame (§7).
	IsDummy bool
}

// node is a vertex of the alignment forest (§2.4): there is a
// directed edge from B to A iff A is aligned to B; tree height is at
// most 1.
type node struct {
	arr *Array
	// base is non-nil iff this array is secondary.
	base *node
	// alpha is the alignment function to base (secondary only).
	alpha *align.Function
	// primaryMap is the mapping of a primary array. Usually a
	// DistMapping; after REALIGN/DEALLOCATE forest surgery it may be
	// a frozen Constructed or SectionMapping carrying "the current
	// distribution" of a promoted secondary (§5.2 step 1).
	primaryMap ElementMapping
	// d is the format-based distribution when primaryMap is one.
	d *dist.Distribution
	// children indexes the secondaries aligned to this array.
	children map[string]*node
}

func (n *node) isPrimary() bool { return n.base == nil }

// deferredDist records a specification-part DISTRIBUTE for an
// allocatable, applied at each ALLOCATE (§6).
type deferredDist struct {
	formats []dist.Format
	target  proc.Target
	hasTo   bool
}

// Unit is a program unit execution context: the data space of all
// arrays accessible and created at a given time (§2.4), their
// alignment forest, and the processor system.
type Unit struct {
	// Name identifies the unit (program or procedure name).
	Name string
	// Sys is the processor system shared by all units of the program.
	Sys *proc.System

	nodes map[string]*node
	order []string

	defDist  map[string]deferredDist
	defAlign map[string]align.Spec
}

// NewUnit creates an empty program unit over the given processor
// system.
func NewUnit(name string, sys *proc.System) *Unit {
	return &Unit{
		Name:     name,
		Sys:      sys,
		nodes:    map[string]*node{},
		defDist:  map[string]deferredDist{},
		defAlign: map[string]align.Spec{},
	}
}

// bounds resolves LBOUND/UBOUND/SIZE over the unit's arrays for
// alignment expressions (an expr.Bounds).
func (u *Unit) bounds(array string, dim int) (index.Triplet, error) {
	n, ok := u.nodes[array]
	if !ok || !n.arr.Created {
		return index.Triplet{}, fmt.Errorf("core: bounds of unknown or uncreated array %s", array)
	}
	if dim < 1 || dim > n.arr.Dom.Rank() {
		return index.Triplet{}, fmt.Errorf("core: dimension %d out of range for %s", dim, array)
	}
	return n.arr.Dom.Dims[dim-1], nil
}

// DeclareArray declares a static array with the given index domain.
func (u *Unit) DeclareArray(name string, dom index.Domain) (*Array, error) {
	if err := u.checkFresh(name); err != nil {
		return nil, err
	}
	if !dom.IsStandard() {
		return nil, fmt.Errorf("core: array %s must have a standard index domain, got %s", name, dom)
	}
	if dom.Empty() && dom.Rank() > 0 {
		return nil, fmt.Errorf("core: array %s has an empty index domain %s", name, dom)
	}
	a := &Array{Name: name, Rank: dom.Rank(), Dom: dom, Created: true}
	u.insert(a)
	return a, nil
}

// DeclareAllocatable declares an allocatable array of the given rank;
// it is created only by ALLOCATE (§6).
func (u *Unit) DeclareAllocatable(name string, rank int) (*Array, error) {
	if err := u.checkFresh(name); err != nil {
		return nil, err
	}
	if rank < 1 {
		return nil, fmt.Errorf("core: allocatable %s must have positive rank, got %d", name, rank)
	}
	a := &Array{Name: name, Rank: rank, Allocatable: true}
	u.insert(a)
	return a, nil
}

func (u *Unit) checkFresh(name string) error {
	if name == "" {
		return errors.New("core: array name must be non-empty")
	}
	if _, dup := u.nodes[name]; dup {
		return fmt.Errorf("core: array %s already declared", name)
	}
	return nil
}

func (u *Unit) insert(a *Array) {
	u.nodes[a.Name] = &node{arr: a, children: map[string]*node{}}
	u.order = append(u.order, a.Name)
}

// SetDynamic gives an array the DYNAMIC attribute.
func (u *Unit) SetDynamic(name string) error {
	n, ok := u.nodes[name]
	if !ok {
		return fmt.Errorf("core: DYNAMIC: unknown array %s", name)
	}
	n.arr.Dynamic = true
	return nil
}

// Array looks up a declared array.
func (u *Unit) Array(name string) (*Array, bool) {
	n, ok := u.nodes[name]
	if !ok {
		return nil, false
	}
	return n.arr, true
}

// Names lists declared arrays in declaration order.
func (u *Unit) Names() []string {
	out := make([]string, len(u.order))
	copy(out, u.order)
	return out
}

// implicitTarget returns (declaring if necessary) an internal
// processor arrangement of the given rank covering all abstract
// processors, used when no TO-clause is given. The factorization is
// as near-square as possible, mirroring typical compiler defaults.
func (u *Unit) implicitTarget(rank int) (proc.Target, error) {
	if rank == 0 {
		name := "%APSCALAR"
		if a, ok := u.Sys.Lookup(name); ok {
			return proc.Whole(a), nil
		}
		a, err := u.Sys.DeclareScalar(name, proc.ScalarControl)
		if err != nil {
			return proc.Target{}, err
		}
		return proc.Whole(a), nil
	}
	name := fmt.Sprintf("%%AP%d", rank)
	if a, ok := u.Sys.Lookup(name); ok {
		return proc.Whole(a), nil
	}
	factors := factorize(u.Sys.AP.N(), rank)
	bounds := make([]int, 0, 2*rank)
	for _, f := range factors {
		bounds = append(bounds, 1, f)
	}
	a, err := u.Sys.DeclareArray(name, index.Standard(bounds...))
	if err != nil {
		return proc.Target{}, err
	}
	return proc.Whole(a), nil
}

// factorize splits n into rank factors, as balanced as possible,
// largest factor first.
func factorize(n, rank int) []int {
	out := make([]int, rank)
	for i := range out {
		out[i] = 1
	}
	rem := n
	for i := 0; i < rank; i++ {
		// Choose the largest divisor of rem not exceeding
		// rem^(1/(rank-i)), greedily.
		want := intRoot(rem, rank-i)
		best := 1
		for d := 1; d <= want; d++ {
			if rem%d == 0 {
				best = d
			}
		}
		if i == rank-1 {
			best = rem
		}
		out[i] = best
		rem /= best
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

func intRoot(n, k int) int {
	if k <= 1 {
		return n
	}
	r := 1
	for pow(r+1, k) <= n {
		r++
	}
	return r
}

func pow(b, e int) int {
	p := 1
	for i := 0; i < e; i++ {
		p *= b
		if p > 1<<40 {
			return p
		}
	}
	return p
}

// Distribute applies a DISTRIBUTE directive to an array (§4). With a
// zero-valued target, an implicit target of appropriate rank is used.
// For an allocatable that is not yet created, the attributes are
// recorded and propagated to each ALLOCATE (§6).
func (u *Unit) Distribute(name string, formats []dist.Format, target proc.Target) error {
	n, ok := u.nodes[name]
	if !ok {
		return fmt.Errorf("core: DISTRIBUTE: unknown array %s", name)
	}
	if !n.isPrimary() {
		return fmt.Errorf("core: DISTRIBUTE: %s is aligned to %s; aligned arrays may not be distributed directly", name, n.base.arr.Name)
	}
	if n.arr.Allocatable && !n.arr.Created {
		if _, dup := u.defDist[name]; dup {
			return fmt.Errorf("core: DISTRIBUTE: duplicate distribution for allocatable %s", name)
		}
		if len(formats) != n.arr.Rank {
			return fmt.Errorf("core: DISTRIBUTE: %d formats for rank-%d allocatable %s", len(formats), n.arr.Rank, name)
		}
		u.defDist[name] = deferredDist{formats: formats, target: target, hasTo: target.Arr != nil}
		return nil
	}
	if n.d != nil || n.primaryMap != nil {
		return fmt.Errorf("core: DISTRIBUTE: %s already has a distribution; use REDISTRIBUTE", name)
	}
	return u.setDistribution(n, formats, target)
}

func (u *Unit) setDistribution(n *node, formats []dist.Format, target proc.Target) error {
	if target.Arr == nil {
		nonColon := 0
		for _, f := range formats {
			if f.Kind() != dist.KindCollapsed {
				nonColon++
			}
		}
		t, err := u.implicitTarget(nonColon)
		if err != nil {
			return err
		}
		target = t
	}
	d, err := dist.New(n.arr.Dom, formats, target)
	if err != nil {
		return fmt.Errorf("core: DISTRIBUTE %s: %w", n.arr.Name, err)
	}
	n.d = d
	n.primaryMap = DistMapping{D: d}
	return nil
}

// Align applies a specification-part ALIGN directive (§5): the
// alignee becomes a secondary array of the base. The §2.4 constraints
// are enforced: the base must not itself be aligned, and the alignee
// may have only one base and no direct distribution. Alignments
// naming an uncreated allocatable alignee are deferred to ALLOCATE;
// per §6, a non-allocatable local cannot be aligned to an allocatable
// in the specification part.
func (u *Unit) Align(s align.Spec) error {
	an, ok := u.nodes[s.Alignee]
	if !ok {
		return fmt.Errorf("core: ALIGN: unknown alignee %s", s.Alignee)
	}
	bn, ok := u.nodes[s.Base]
	if !ok {
		return fmt.Errorf("core: ALIGN: unknown base %s", s.Base)
	}
	if s.Alignee == s.Base {
		return fmt.Errorf("core: ALIGN: %s cannot be aligned to itself", s.Alignee)
	}
	if !bn.isPrimary() {
		return fmt.Errorf("core: ALIGN: base %s is itself aligned (to %s); alignment bases must not be aligned (§2.4)", s.Base, bn.base.arr.Name)
	}
	if !an.isPrimary() {
		return fmt.Errorf("core: ALIGN: %s is already aligned to %s; an alignee has exactly one base (§2.4)", s.Alignee, an.base.arr.Name)
	}
	if len(an.children) > 0 {
		return fmt.Errorf("core: ALIGN: %s is an alignment base for %s; trees of height > 1 are not permitted", s.Alignee, firstKey(an.children))
	}
	if an.d != nil || an.primaryMap != nil {
		return fmt.Errorf("core: ALIGN: %s already has a direct distribution", s.Alignee)
	}
	if bn.arr.Allocatable && !an.arr.Allocatable {
		return fmt.Errorf("core: ALIGN: local array %s is not ALLOCATABLE and cannot be aligned to allocatable %s in the specification part (§6)", s.Alignee, s.Base)
	}
	if an.arr.Allocatable && !an.arr.Created {
		if _, dup := u.defAlign[s.Alignee]; dup {
			return fmt.Errorf("core: ALIGN: duplicate alignment for allocatable %s", s.Alignee)
		}
		if _, dup := u.defDist[s.Alignee]; dup {
			return fmt.Errorf("core: ALIGN: allocatable %s already has a deferred distribution", s.Alignee)
		}
		u.defAlign[s.Alignee] = s
		return nil
	}
	if !bn.arr.Created {
		return fmt.Errorf("core: ALIGN: base %s is not created", s.Base)
	}
	return u.attach(an, bn, s)
}

func (u *Unit) attach(an, bn *node, s align.Spec) error {
	alpha, err := align.Normalize(s, an.arr.Dom, bn.arr.Dom, u.bounds)
	if err != nil {
		return err
	}
	an.base = bn
	an.alpha = alpha
	an.d = nil
	an.primaryMap = nil
	bn.children[an.arr.Name] = an
	return nil
}

func firstKey(m map[string]*node) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		return ""
	}
	return keys[0]
}

// Redistribute applies an executable REDISTRIBUTE directive (§4.2).
// The distributee must be DYNAMIC. Every array aligned to it follows
// invariantly (its constructed distribution is recomputed from the
// new base distribution). A secondary distributee is disconnected and
// becomes a degenerate tree with the new distribution.
func (u *Unit) Redistribute(name string, formats []dist.Format, target proc.Target) error {
	n, ok := u.nodes[name]
	if !ok {
		return fmt.Errorf("core: REDISTRIBUTE: unknown array %s", name)
	}
	if !n.arr.Dynamic {
		return fmt.Errorf("core: REDISTRIBUTE: %s is not DYNAMIC", name)
	}
	if !n.arr.Created {
		return fmt.Errorf("core: REDISTRIBUTE: %s is not created", name)
	}
	if !n.isPrimary() {
		b := n.base
		delete(b.children, name)
		n.base = nil
		n.alpha = nil
	}
	n.d = nil
	n.primaryMap = nil
	return u.setDistribution(n, formats, target)
}

// Realign applies an executable REALIGN directive (§5.2). The alignee
// must be DYNAMIC. The forest changes per the three steps of §5.2:
// (1) if the alignee is a primary with secondaries, those secondaries
// are promoted to degenerate trees frozen at their current
// distribution; if it is secondary, it is disconnected from its base;
// (2) the alignee becomes a secondary of the new base; (3) its
// distribution is CONSTRUCT(α, δ_base).
func (u *Unit) Realign(s align.Spec) error {
	an, ok := u.nodes[s.Alignee]
	if !ok {
		return fmt.Errorf("core: REALIGN: unknown alignee %s", s.Alignee)
	}
	bn, ok := u.nodes[s.Base]
	if !ok {
		return fmt.Errorf("core: REALIGN: unknown base %s", s.Base)
	}
	if !an.arr.Dynamic {
		return fmt.Errorf("core: REALIGN: %s is not DYNAMIC", s.Alignee)
	}
	if !an.arr.Created || !bn.arr.Created {
		return fmt.Errorf("core: REALIGN: both %s and %s must be created", s.Alignee, s.Base)
	}
	if s.Alignee == s.Base {
		return fmt.Errorf("core: REALIGN: %s cannot be aligned to itself", s.Alignee)
	}
	if !bn.isPrimary() {
		return fmt.Errorf("core: REALIGN: base %s is itself aligned; alignment bases must not be aligned (§2.4)", s.Base)
	}
	// Validate the new alignment before mutating the forest.
	alpha, err := align.Normalize(s, an.arr.Dom, bn.arr.Dom, u.bounds)
	if err != nil {
		return err
	}
	// Step 1.
	if an.isPrimary() {
		u.promoteChildren(an)
	} else {
		delete(an.base.children, s.Alignee)
		an.base = nil
		an.alpha = nil
	}
	// Steps 2 and 3.
	an.base = bn
	an.alpha = alpha
	an.d = nil
	an.primaryMap = nil
	bn.children[s.Alignee] = an
	return nil
}

// promoteChildren disconnects all secondaries of a primary node and
// makes each a degenerate tree frozen at its current distribution
// (§5.2 step 1).
func (u *Unit) promoteChildren(n *node) {
	baseMap := n.primaryMap
	for name, c := range n.children {
		if baseMap == nil {
			baseMap = u.ensurePrimaryMap(n)
		}
		c.primaryMap = Construct(c.alpha, baseMap)
		c.d = nil
		c.base = nil
		c.alpha = nil
		delete(n.children, name)
	}
}

// Allocate creates an allocatable array with the given index domain,
// applying any deferred specification-part DISTRIBUTE or ALIGN (§6).
func (u *Unit) Allocate(name string, dom index.Domain) error {
	n, ok := u.nodes[name]
	if !ok {
		return fmt.Errorf("core: ALLOCATE: unknown array %s", name)
	}
	if !n.arr.Allocatable {
		return fmt.Errorf("core: ALLOCATE: %s is not ALLOCATABLE", name)
	}
	if n.arr.Created {
		return fmt.Errorf("core: ALLOCATE: %s is already allocated", name)
	}
	if dom.Rank() != n.arr.Rank {
		return fmt.Errorf("core: ALLOCATE: rank-%d bounds for rank-%d allocatable %s", dom.Rank(), n.arr.Rank, name)
	}
	if !dom.IsStandard() || dom.Empty() {
		return fmt.Errorf("core: ALLOCATE: invalid bounds %s for %s", dom, name)
	}
	n.arr.Dom = dom
	n.arr.Created = true
	if dd, ok := u.defDist[name]; ok {
		t := dd.target
		if !dd.hasTo {
			t = proc.Target{}
		}
		return u.setDistribution(n, dd.formats, t)
	}
	if s, ok := u.defAlign[name]; ok {
		bn := u.nodes[s.Base]
		if bn == nil || !bn.arr.Created {
			n.arr.Created = false
			return fmt.Errorf("core: ALLOCATE: deferred alignment base %s of %s is not created", s.Base, name)
		}
		if !bn.isPrimary() {
			n.arr.Created = false
			return fmt.Errorf("core: ALLOCATE: deferred alignment base %s of %s is itself aligned", s.Base, name)
		}
		return u.attach(n, bn, s)
	}
	return nil
}

// Deallocate destroys an allocatable array, removing it from the
// alignment forest; every array directly aligned to it is promoted to
// a degenerate tree frozen at its current distribution (§6).
func (u *Unit) Deallocate(name string) error {
	n, ok := u.nodes[name]
	if !ok {
		return fmt.Errorf("core: DEALLOCATE: unknown array %s", name)
	}
	if !n.arr.Allocatable || !n.arr.Created {
		return fmt.Errorf("core: DEALLOCATE: %s is not an allocated allocatable", name)
	}
	u.promoteChildren(n)
	if !n.isPrimary() {
		delete(n.base.children, name)
		n.base = nil
		n.alpha = nil
	}
	n.d = nil
	n.primaryMap = nil
	n.arr.Created = false
	n.arr.Dom = index.Domain{}
	return nil
}

// ensurePrimaryMap lazily assigns the compiler's implicit
// distribution to a primary array without one (§2.4: "B is implicitly
// distributed by the compiler"): BLOCK in the first dimension,
// collapsed elsewhere, onto the full linear abstract processor
// arrangement.
func (u *Unit) ensurePrimaryMap(n *node) ElementMapping {
	if n.primaryMap != nil {
		return n.primaryMap
	}
	formats := make([]dist.Format, n.arr.Rank)
	for i := range formats {
		if i == 0 {
			formats[i] = dist.Block{}
		} else {
			formats[i] = dist.Collapsed{}
		}
	}
	if err := u.setDistribution(n, formats, proc.Target{}); err != nil {
		panic("core: implicit distribution failed: " + err.Error())
	}
	return n.primaryMap
}

// MappingOf returns the element mapping of an array: its own
// distribution for primaries (implicitly distributed if none was
// specified), or CONSTRUCT(α, δ_base) for secondaries.
func (u *Unit) MappingOf(name string) (ElementMapping, error) {
	n, ok := u.nodes[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown array %s", name)
	}
	if !n.arr.Created {
		return nil, fmt.Errorf("core: array %s is not created", name)
	}
	if n.isPrimary() {
		return u.ensurePrimaryMap(n), nil
	}
	return Construct(n.alpha, u.ensurePrimaryMap(n.base)), nil
}

// DistributionOf returns the format-based distribution of a primary
// array, if it has one.
func (u *Unit) DistributionOf(name string) (*dist.Distribution, bool) {
	n, ok := u.nodes[name]
	if !ok || n.d == nil {
		return nil, false
	}
	return n.d, true
}

// AlignmentOf returns the alignment function of a secondary array.
func (u *Unit) AlignmentOf(name string) (*align.Function, bool) {
	n, ok := u.nodes[name]
	if !ok || n.alpha == nil {
		return nil, false
	}
	return n.alpha, true
}

// Owners returns the owner set of one element of an array.
func (u *Unit) Owners(name string, i index.Tuple) ([]int, error) {
	m, err := u.MappingOf(name)
	if err != nil {
		return nil, err
	}
	return m.Owners(i)
}

// IsPrimary reports whether the named array is the root of its tree.
func (u *Unit) IsPrimary(name string) bool {
	n, ok := u.nodes[name]
	return ok && n.isPrimary()
}

// BaseOf returns the alignment base of a secondary array ("" for
// primaries).
func (u *Unit) BaseOf(name string) string {
	n, ok := u.nodes[name]
	if !ok || n.base == nil {
		return ""
	}
	return n.base.arr.Name
}

// SecondariesOf lists the arrays aligned to the named array, sorted.
func (u *Unit) SecondariesOf(name string) []string {
	n, ok := u.nodes[name]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(n.children))
	for c := range n.children {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Edge is one alignment edge of the forest.
type Edge struct{ Alignee, Base string }

// Forest lists all alignment edges, sorted by alignee.
func (u *Unit) Forest() []Edge {
	var out []Edge
	for name, n := range u.nodes {
		if n.base != nil {
			out = append(out, Edge{Alignee: name, Base: n.base.arr.Name})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Alignee < out[j].Alignee })
	return out
}

// CheckInvariants verifies the §2.4 forest constraints: every base is
// primary (height ≤ 1) and every secondary has exactly one base edge.
func (u *Unit) CheckInvariants() error {
	for name, n := range u.nodes {
		if n.base != nil {
			if n.base.base != nil {
				return fmt.Errorf("core: invariant violated: %s is aligned to %s which is itself aligned to %s", name, n.base.arr.Name, n.base.base.arr.Name)
			}
			if len(n.children) > 0 {
				return fmt.Errorf("core: invariant violated: secondary %s has children", name)
			}
			if _, ok := n.base.children[name]; !ok {
				return fmt.Errorf("core: invariant violated: %s missing from children of %s", name, n.base.arr.Name)
			}
		}
		for cname, c := range n.children {
			if c.base != n {
				return fmt.Errorf("core: invariant violated: child link %s -> %s without back edge", name, cname)
			}
		}
	}
	return nil
}

// Describe renders the unit's forest for diagnostics.
func (u *Unit) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "unit %s:\n", u.Name)
	for _, name := range u.order {
		n := u.nodes[name]
		switch {
		case !n.arr.Created:
			fmt.Fprintf(&b, "  %s: (not created)\n", name)
		case n.isPrimary():
			desc := "(implicit, not yet assigned)"
			if n.primaryMap != nil {
				desc = n.primaryMap.Describe()
			}
			fmt.Fprintf(&b, "  %s: PRIMARY %s\n", name, desc)
		default:
			fmt.Fprintf(&b, "  %s: ALIGNED %s\n", name, n.alpha.Spec())
		}
	}
	return b.String()
}
