// Package template implements the HPF draft-0.2 TEMPLATE model that
// the paper argues against (§8), as the executable comparison
// baseline. A template is "like an array whose elements have no
// content ... merely an abstract index space that can be distributed
// and with which arrays may be aligned"; the draft semantics force
// each template to be a *tagged* index domain (distinct definitions
// are distinct even with equal domains). Templates are not first
// class: they cannot be ALLOCATABLE and cannot be passed across
// procedure boundaries — both restrictions are enforced here so the
// paper's §8.2 criticisms are demonstrable (experiment E12). In the
// pipeline it is an optional side entrance: TEMPLATE-aligned arrays
// resolve to the same ElementMapping interface (package core) the
// template-free path produces, so everything downstream — owner
// tiles, schedules, both engines — runs unchanged over either model.
//
// Unlike the paper's model (package core), the template model allows
// alignment chains: an array may be aligned to another array that is
// itself aligned to a template, so alignment trees can have height
// greater than one. Mapping resolution composes the chain.
package template

import (
	"errors"
	"fmt"

	"hpfnt/internal/align"
	"hpfnt/internal/core"
	"hpfnt/internal/dist"
	"hpfnt/internal/index"
	"hpfnt/internal/proc"
)

// Template is a tagged abstract index space.
type Template struct {
	Name string
	Dom  index.Domain
	// Tag distinguishes distinct template definitions with equal
	// domains (§8: "each template created in a program execution must
	// be interpreted as a tagged index domain").
	Tag int

	d *dist.Distribution
}

// Model is a program unit's data space under the HPF template model.
type Model struct {
	Sys *proc.System

	templates map[string]*Template
	arrays    map[string]*tnode
	nextTag   int
	// composed memoizes composedMapping per array; any mutation of
	// the alignment/distribution state drops the whole cache (chains
	// may share suffixes, so per-array invalidation is not worth it).
	composed map[string]core.ElementMapping
}

type tnode struct {
	name string
	dom  index.Domain
	// Exactly one of toTemplate/toArray is set for aligned arrays;
	// both empty for directly distributed arrays.
	toTemplate string
	toArray    string
	alpha      *align.Function
	d          *dist.Distribution
}

// NewModel creates an empty template-model data space.
func NewModel(sys *proc.System) *Model {
	return &Model{Sys: sys, templates: map[string]*Template{}, arrays: map[string]*tnode{}}
}

// DeclareTemplate creates a template. The HPF draft requires the
// shape to be a specification expression; deferred (allocatable)
// shapes are rejected — see AllocatableTemplate.
func (m *Model) DeclareTemplate(name string, dom index.Domain) (*Template, error) {
	if _, dup := m.templates[name]; dup {
		return nil, fmt.Errorf("template: template %s already declared", name)
	}
	if dom.Rank() == 0 || dom.Empty() {
		return nil, fmt.Errorf("template: template %s requires a non-empty index domain", name)
	}
	m.nextTag++
	t := &Template{Name: name, Dom: dom, Tag: m.nextTag}
	m.templates[name] = t
	return t, nil
}

// AllocatableTemplate always fails: "templates cannot be defined as
// being ALLOCATABLE" (§8.2 problem 1). It exists so the limitation is
// executable and testable.
func (m *Model) AllocatableTemplate(name string, rank int) error {
	return fmt.Errorf("template: template %s cannot be ALLOCATABLE: the shape of a template is fixed at entry to the program unit (HPF draft restriction, paper §8.2)", name)
}

// PassTemplate always fails: templates cannot be passed across
// procedure boundaries (§8.2 problem 2).
func (m *Model) PassTemplate(name, procedure string) error {
	return fmt.Errorf("template: template %s cannot be passed to procedure %s: templates are not first-class objects (HPF draft restriction, paper §8.2)", name, procedure)
}

// HasTemplate reports whether a template of the given name exists.
func (m *Model) HasTemplate(name string) bool {
	_, ok := m.templates[name]
	return ok
}

// TemplateDomain returns the index domain of a declared template.
func (m *Model) TemplateDomain(name string) (index.Domain, error) {
	t, ok := m.templates[name]
	if !ok {
		return index.Domain{}, fmt.Errorf("template: unknown template %s", name)
	}
	return t.Dom, nil
}

// DeclareArray declares a data array in the template model.
func (m *Model) DeclareArray(name string, dom index.Domain) error {
	if _, dup := m.arrays[name]; dup {
		return fmt.Errorf("template: array %s already declared", name)
	}
	m.arrays[name] = &tnode{name: name, dom: dom}
	return nil
}

// DistributeTemplate distributes a template onto a processor target.
func (m *Model) DistributeTemplate(name string, formats []dist.Format, target proc.Target) error {
	t, ok := m.templates[name]
	if !ok {
		return fmt.Errorf("template: unknown template %s", name)
	}
	d, err := dist.New(t.Dom, formats, target)
	if err != nil {
		return err
	}
	t.d = d
	m.composed = nil
	return nil
}

// DistributeArray distributes an array directly (permitted in HPF as
// well).
func (m *Model) DistributeArray(name string, formats []dist.Format, target proc.Target) error {
	n, ok := m.arrays[name]
	if !ok {
		return fmt.Errorf("template: unknown array %s", name)
	}
	if n.toTemplate != "" || n.toArray != "" {
		return fmt.Errorf("template: array %s is aligned and cannot be distributed directly", name)
	}
	d, err := dist.New(n.dom, formats, target)
	if err != nil {
		return err
	}
	n.d = d
	m.composed = nil
	return nil
}

// bounds resolves LBOUND/UBOUND/SIZE over the model's arrays and
// templates (an expr.Bounds).
func (m *Model) bounds(array string, dim int) (index.Triplet, error) {
	if n, ok := m.arrays[array]; ok {
		if dim < 1 || dim > n.dom.Rank() {
			return index.Triplet{}, fmt.Errorf("template: dimension %d out of range for %s", dim, array)
		}
		return n.dom.Dims[dim-1], nil
	}
	if t, ok := m.templates[array]; ok {
		if dim < 1 || dim > t.Dom.Rank() {
			return index.Triplet{}, fmt.Errorf("template: dimension %d out of range for %s", dim, array)
		}
		return t.Dom.Dims[dim-1], nil
	}
	return index.Triplet{}, fmt.Errorf("template: unknown object %s", array)
}

// AlignWithTemplate aligns an array with a template.
func (m *Model) AlignWithTemplate(s align.Spec) error {
	n, ok := m.arrays[s.Alignee]
	if !ok {
		return fmt.Errorf("template: unknown alignee %s", s.Alignee)
	}
	t, ok := m.templates[s.Base]
	if !ok {
		return fmt.Errorf("template: unknown template %s", s.Base)
	}
	if n.d != nil {
		return fmt.Errorf("template: array %s already has a direct distribution", s.Alignee)
	}
	alpha, err := align.Normalize(s, n.dom, t.Dom, m.bounds)
	if err != nil {
		return err
	}
	n.toTemplate = s.Base
	n.toArray = ""
	n.alpha = alpha
	m.composed = nil
	return nil
}

// AlignWithArray aligns an array with another array (chains are
// permitted in the HPF model; cycles are rejected at resolution
// time).
func (m *Model) AlignWithArray(s align.Spec) error {
	n, ok := m.arrays[s.Alignee]
	if !ok {
		return fmt.Errorf("template: unknown alignee %s", s.Alignee)
	}
	b, ok := m.arrays[s.Base]
	if !ok {
		return fmt.Errorf("template: unknown base array %s", s.Base)
	}
	if n.d != nil {
		return fmt.Errorf("template: array %s already has a direct distribution", s.Alignee)
	}
	alpha, err := align.Normalize(s, n.dom, b.dom, m.bounds)
	if err != nil {
		return err
	}
	n.toArray = s.Base
	n.toTemplate = ""
	n.alpha = alpha
	m.composed = nil
	return nil
}

// ChainDepth reports the alignment chain length from an array to its
// ultimate distribution (template or direct), demonstrating that the
// HPF model permits trees of height > 1.
func (m *Model) ChainDepth(name string) (int, error) {
	depth := 0
	seen := map[string]bool{}
	cur := name
	for {
		n, ok := m.arrays[cur]
		if !ok {
			return 0, fmt.Errorf("template: unknown array %s", cur)
		}
		if seen[cur] {
			return 0, fmt.Errorf("template: alignment cycle through %s", cur)
		}
		seen[cur] = true
		switch {
		case n.toTemplate != "":
			return depth + 1, nil
		case n.toArray != "":
			depth++
			cur = n.toArray
		default:
			return depth, nil
		}
	}
}

// Owners resolves the owner set of an array element by composing the
// alignment chain down to the distributed template (or direct
// distribution).
func (m *Model) Owners(name string, i index.Tuple) ([]int, error) {
	n, ok := m.arrays[name]
	if !ok {
		return nil, fmt.Errorf("template: unknown array %s", name)
	}
	return m.owners(n, i, map[string]bool{})
}

func (m *Model) owners(n *tnode, i index.Tuple, seen map[string]bool) ([]int, error) {
	if seen[n.name] {
		return nil, fmt.Errorf("template: alignment cycle through %s", n.name)
	}
	seen[n.name] = true
	switch {
	case n.d != nil:
		return n.d.Owners(i)
	case n.toTemplate != "":
		t := m.templates[n.toTemplate]
		if t.d == nil {
			return nil, fmt.Errorf("template: template %s has no distribution", t.Name)
		}
		return unionThroughAlpha(n.alpha, i, t.d.Owners)
	case n.toArray != "":
		next := m.arrays[n.toArray]
		return unionThroughAlpha(n.alpha, i, func(j index.Tuple) ([]int, error) {
			return m.owners(next, j, seen)
		})
	default:
		return nil, fmt.Errorf("template: array %s has neither distribution nor alignment", n.name)
	}
}

func unionThroughAlpha(alpha *align.Function, i index.Tuple, down func(index.Tuple) ([]int, error)) ([]int, error) {
	img, err := alpha.Image(i)
	if err != nil {
		return nil, err
	}
	seen := map[int]bool{}
	var out []int
	for _, j := range img {
		os, err := down(j)
		if err != nil {
			return nil, err
		}
		for _, p := range os {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	if len(out) == 0 {
		return nil, errors.New("template: empty owner set")
	}
	return out, nil
}

// Mapping adapts an array of the model to core's ElementMapping
// shape: a Domain plus Owners function.
type Mapping struct {
	M    *Model
	Name string
}

// Domain returns the array's index domain.
func (tm Mapping) Domain() index.Domain { return tm.M.arrays[tm.Name].dom }

// Owners resolves ownership through the model.
func (tm Mapping) Owners(i index.Tuple) ([]int, error) { return tm.M.Owners(tm.Name, i) }

// Describe names the mapping.
func (tm Mapping) Describe() string { return "HPF-template mapping of " + tm.Name }

// AppendOwnerTiles resolves the alignment chain into the equivalent
// composed core mapping (nested CONSTRUCTs over the distributed root)
// and delegates to the run-based tile decomposition, so template-model
// arrays ride the same bulk ownership path as the paper's model.
// Chains outside the affine subset decline with core.ErrNoBulk.
func (tm Mapping) AppendOwnerTiles(dst []core.Tile, region index.Domain) ([]core.Tile, error) {
	cm, err := tm.M.composedMapping(tm.Name, nil)
	if err != nil {
		return nil, err
	}
	return core.AppendBulkOwnerTiles(dst, cm, region)
}

// composedMapping builds the core mapping equivalent of an array's
// alignment chain: its own distribution, or CONSTRUCT(α, ...) down to
// the distributed template or array at the chain's root. Results are
// memoized until the next model mutation, so repeated bulk-tile
// queries (a layout, a statement's cells, a remap) do not re-walk the
// chain.
func (m *Model) composedMapping(name string, seen map[string]bool) (core.ElementMapping, error) {
	if cm, ok := m.composed[name]; ok {
		return cm, nil
	}
	cm, err := m.composeMapping(name, seen)
	if err != nil {
		return nil, err
	}
	if m.composed == nil {
		m.composed = map[string]core.ElementMapping{}
	}
	m.composed[name] = cm
	return cm, nil
}

func (m *Model) composeMapping(name string, seen map[string]bool) (core.ElementMapping, error) {
	if seen == nil {
		// Allocated only on memo misses; cached lookups never pay for
		// the cycle-detection set.
		seen = map[string]bool{}
	}
	n, ok := m.arrays[name]
	if !ok {
		return nil, fmt.Errorf("template: unknown array %s", name)
	}
	if seen[name] {
		return nil, fmt.Errorf("template: alignment cycle through %s", name)
	}
	seen[name] = true
	switch {
	case n.d != nil:
		return core.DistMapping{D: n.d}, nil
	case n.toTemplate != "":
		t := m.templates[n.toTemplate]
		if t.d == nil {
			return nil, fmt.Errorf("template: template %s has no distribution", t.Name)
		}
		return core.Construct(n.alpha, core.DistMapping{D: t.d}), nil
	case n.toArray != "":
		inner, err := m.composedMapping(n.toArray, seen)
		if err != nil {
			return nil, err
		}
		return core.Construct(n.alpha, inner), nil
	default:
		return nil, fmt.Errorf("template: array %s has neither distribution nor alignment", name)
	}
}
