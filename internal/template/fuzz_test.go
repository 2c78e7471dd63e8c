package template_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"hpfnt/hpf"
	"hpfnt/internal/dist"
	"hpfnt/internal/index"
	"hpfnt/internal/interp"
	"hpfnt/internal/template"
)

// The paper's thesis (§8) as a differential test: every mapping the
// HPF TEMPLATE model expresses, DISTRIBUTE and ALIGN on arrays express
// too. A drawn template program is rewritten into its template-free
// twin, and the two must agree on every element's owner set — with the
// front end's MappingOf, with the chain-walk oracle and with each
// other — and on the values and logical machine report of a shift
// statement run on sim and spmd.

// draw reads small integers from fuzz bytes; an exhausted input reads
// zeros, so every byte string is a valid program.
type draw struct {
	b []byte
	i int
}

func (d *draw) n(k int) int {
	if k <= 1 || d.i >= len(d.b) {
		d.i++
		return 0
	}
	v := int(d.b[d.i]) % k
	d.i++
	return v
}

// sub is one base subscript of a drawn alignment, and also one
// template dimension of an array's alignment composed down to the
// template: the affine a*I_k+b of alignee dimension k, the constant c,
// or "*" (replication over the whole dimension).
type sub struct {
	kind    byte // 'a', 'c' or '*'
	k, a, b int
	c       int
}

// tmplDim is one template dimension and its distribution.
type tmplDim struct {
	lo, n  int
	format dist.Format // dist.Collapsed for ":"
	procs  int         // processors along it; 0 when collapsed
}

// array is one drawn data array: its bounds, its alignment as written
// and that alignment composed down to the template.
type array struct {
	name     string
	lo, hi   []int
	base     string
	subs     []sub // one per base dimension
	composed []sub // one per template dimension
}

type tprogram struct {
	dims   []tmplDim
	grid   []int // processor extents of the distributed template dims
	arrays []*array
}

func (p *tprogram) np() int {
	np := 1
	for _, g := range p.grid {
		np *= g
	}
	return np
}

// genTemplateProgram draws a template of rank 1 or 2 with BLOCK,
// CYCLIC(k), GENERAL_BLOCK or ":" per dimension, and an alignment
// chain of height at most 3 with affine and constant subscripts,
// replication ("*" base subscripts, drawn where the base is the
// template) and collapse ("*" alignee axes).
func genTemplateProgram(d *draw) *tprogram {
	p := &tprogram{}
	rank := 1 + d.n(2)
	for t := 0; t < rank; t++ {
		td := tmplDim{lo: d.n(2), n: 2 + d.n(11)}
		switch d.n(5) {
		case 0, 1:
			td.format = dist.Block{}
		case 2:
			td.format = dist.NewCyclic(1 + d.n(3))
		case 3:
			td.format = dist.GeneralBlock{}
		default:
			td.format = dist.Collapsed{}
		}
		if t == rank-1 && len(p.grid) == 0 && td.format.Kind() == dist.KindCollapsed {
			td.format = dist.Block{} // distribute at least one dimension
		}
		if td.format.Kind() != dist.KindCollapsed {
			td.procs = 1 + d.n(4-rank)
			if _, ok := td.format.(dist.GeneralBlock); ok && td.procs == 1 {
				td.format = dist.Block{}
			} else if ok {
				bounds := make([]int, td.procs-1)
				for q := range bounds {
					bounds[q] = d.n(td.n + 1)
				}
				slices.Sort(bounds)
				td.format = dist.GeneralBlock{Bounds: bounds}
			}
			p.grid = append(p.grid, td.procs)
		}
		p.dims = append(p.dims, td)
	}
	tlo, thi := make([]int, rank), make([]int, rank)
	for t, td := range p.dims {
		tlo[t], thi[t] = td.lo, td.lo+td.n-1
	}
	for count := 1 + d.n(3); len(p.arrays) < count; {
		x := &array{name: fmt.Sprintf("A%d", len(p.arrays)+1), base: "T"}
		var base *array
		blo, bhi := tlo, thi
		if k := d.n(len(p.arrays) + 1); k > 0 {
			base = p.arrays[k-1]
			x.base, blo, bhi = base.name, base.lo, base.hi
		}
		drawAlignment(d, x, blo, bhi)
		x.composed = x.subs
		if base != nil {
			x.composed = compose(x, base)
		}
		p.arrays = append(p.arrays, x)
	}
	return p
}

// drawAlignment draws x's rank, bounds and subscripts into a base with
// bounds blo..bhi, keeping every image inside the base so that no
// subscript clamps.
func drawAlignment(d *draw, x *array, blo, bhi []int) {
	rank := 1 + d.n(2)
	x.lo, x.hi = make([]int, rank), make([]int, rank)
	used := make([]bool, rank)
	for j := range blo {
		free := slices.Index(used, false)
		switch kind := d.n(6); {
		case kind < 4 && free >= 0:
			k := free
			if rank == 2 && !used[1] && d.n(2) == 1 {
				k = 1
			}
			used[k] = true
			a := []int{1, 2, -1}[d.n(3)]
			abs := max(a, -a)
			m := 1 + d.n((bhi[j]-blo[j])/abs+1)
			lx := d.n(2)
			s := blo[j] + d.n(bhi[j]-abs*(m-1)-blo[j]+1)
			b := s - a*lx
			if a < 0 {
				b = s + abs*(m-1) - a*lx
			}
			x.lo[k], x.hi[k] = lx, lx+m-1
			x.subs = append(x.subs, sub{kind: 'a', k: k, a: a, b: b})
		case kind == 5 && x.base == "T":
			x.subs = append(x.subs, sub{kind: '*'})
		default:
			x.subs = append(x.subs, sub{kind: 'c', c: blo[j] + d.n(bhi[j]-blo[j]+1)})
		}
	}
	for k := range used {
		if !used[k] {
			x.lo[k] = d.n(2)
			x.hi[k] = x.lo[k] + d.n(3)
		}
	}
}

// compose folds x's subscripts into its base's composed alignment:
// per template dimension, the map from x's indices to the template.
func compose(x, base *array) []sub {
	out := make([]sub, len(base.composed))
	for t, e := range base.composed {
		out[t] = e
		if e.kind != 'a' {
			continue
		}
		switch s := x.subs[e.k]; s.kind {
		case 'a':
			out[t] = sub{kind: 'a', k: s.k, a: e.a * s.a, b: e.a*s.b + e.b}
		case 'c':
			out[t] = sub{kind: 'c', c: e.a*s.c + e.b}
		}
	}
	return out
}

func affText(dummy string, a, b int) string {
	switch {
	case a == -1:
		return fmt.Sprintf("%d-%s", b, dummy)
	case a == 1 && b == 0:
		return dummy
	case a == 1:
		return fmt.Sprintf("%s%+d", dummy, b)
	}
	return fmt.Sprintf("%d*%s%+d", a, dummy, b)
}

var dummies = []string{"I", "J"}

func boundsText(lo, hi []int) string {
	parts := make([]string, len(lo))
	for k := range lo {
		parts[k] = fmt.Sprintf("%d:%d", lo[k], hi[k])
	}
	return strings.Join(parts, ",")
}

func intsText(v []int) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprint(x)
	}
	return "(/" + strings.Join(parts, ",") + "/)"
}

func formatText(f dist.Format) string {
	switch f := f.(type) {
	case dist.GeneralBlock:
		return "GENERAL_BLOCK(" + intsText(f.Bounds) + ")"
	case dist.Cyclic:
		return fmt.Sprintf("CYCLIC(%d)", f.K)
	}
	return f.String()
}

// alignText writes "ALIGN X(axes) WITH base(subs)".
func alignText(name string, rank int, base string, subs []string) string {
	axes := make([]string, rank)
	for k := range axes {
		axes[k] = "*"
		for _, s := range subs {
			if strings.Contains(s, dummies[k]) {
				axes[k] = dummies[k]
			}
		}
	}
	return fmt.Sprintf("!HPF$ ALIGN %s(%s) WITH %s(%s)\n", name, strings.Join(axes, ","), base, strings.Join(subs, ","))
}

// header declares the processors and arrays; extra declares more.
func (p *tprogram) header(extra ...string) string {
	var b strings.Builder
	grid := make([]string, len(p.grid))
	for q, g := range p.grid {
		grid[q] = fmt.Sprint(g)
	}
	fmt.Fprintf(&b, "PROCESSORS G(%s)\n", strings.Join(grid, ","))
	for _, x := range p.arrays {
		fmt.Fprintf(&b, "REAL %s(%s)\n", x.name, boundsText(x.lo, x.hi))
	}
	for _, e := range extra {
		b.WriteString(e)
	}
	return b.String()
}

// templateSource writes the drawn program in HPF's template directives.
func (p *tprogram) templateSource() string {
	lo, hi := make([]int, len(p.dims)), make([]int, len(p.dims))
	formats := make([]string, len(p.dims))
	for t, td := range p.dims {
		lo[t], hi[t], formats[t] = td.lo, td.lo+td.n-1, formatText(td.format)
	}
	var b strings.Builder
	b.WriteString(p.header())
	fmt.Fprintf(&b, "!HPF$ TEMPLATE T(%s)\n", boundsText(lo, hi))
	fmt.Fprintf(&b, "!HPF$ DISTRIBUTE T(%s) TO G\n", strings.Join(formats, ","))
	for _, x := range p.arrays {
		subs := make([]string, len(x.subs))
		for j, s := range x.subs {
			subs[j] = subText(s)
		}
		b.WriteString(alignText(x.name, len(x.lo), x.base, subs))
	}
	return b.String()
}

func subText(s sub) string {
	switch s.kind {
	case 'a':
		return affText(dummies[s.k], s.a, s.b)
	case 'c':
		return fmt.Sprint(s.c)
	}
	return "*"
}

// twinFormat writes the direct format that puts normalized index i
// of a dimension on coordinate owner[i-1] of procs processors: BLOCK
// or CYCLIC(k) when one carries over, else GENERAL_BLOCK when the
// owners never decrease, else INDIRECT (reported by the flag).
func twinFormat(owner []int, procs int) (string, bool) {
	m := len(owner)
	matches := func(f dist.Format) bool {
		for i, o := range owner {
			if f.Map(i+1, m, procs) != o {
				return false
			}
		}
		return true
	}
	if matches(dist.Block{}) {
		return "BLOCK", false
	}
	for k := 1; k <= m; k++ {
		if matches(dist.NewCyclic(k)) {
			return fmt.Sprintf("CYCLIC(%d)", k), false
		}
	}
	if !slices.IsSorted(owner) {
		return "INDIRECT(" + intsText(owner) + ")", true
	}
	bounds := make([]int, procs-1)
	for _, o := range owner {
		for q := o; q < procs; q++ {
			bounds[q-1]++
		}
	}
	return "GENERAL_BLOCK(" + intsText(bounds) + ")", false
}

// twinSource rewrites the drawn program in the paper's directives,
// with no template: each array is distributed directly when its
// composed alignment sends distinct, increasing array dimensions to
// the distributed template dimensions, and is otherwise aligned to a
// helper array Hn, distributed directly, whose dimensions are its own
// (for affine images) or one position per owning processor coordinate
// (for constant and replicated ones). It reports whether any
// dimension needed INDIRECT.
func (p *tprogram) twinSource() (string, bool) {
	var decls, dirs strings.Builder
	indirect := false
	for n, x := range p.arrays {
		direct := true
		prev := -1
		var hlo, hhi []int
		var hformats, subs []string
		xformats := slices.Repeat([]string{":"}, len(x.lo))
		for t, e := range x.composed {
			td := p.dims[t]
			if td.procs == 0 {
				continue
			}
			coord := func(ti int) int { return td.format.Map(ti-td.lo+1, td.n, td.procs) }
			switch e.kind {
			case 'a':
				owner := make([]int, x.hi[e.k]-x.lo[e.k]+1)
				for i := range owner {
					owner[i] = coord(e.a*(x.lo[e.k]+i) + e.b)
				}
				f, ind := twinFormat(owner, td.procs)
				indirect = indirect || ind
				direct = direct && e.k > prev
				prev = e.k
				xformats[e.k] = f
				hlo, hhi = append(hlo, x.lo[e.k]), append(hhi, x.hi[e.k])
				hformats, subs = append(hformats, f), append(subs, dummies[e.k])
			default:
				// A helper dimension with one position per owning
				// coordinate: the constant's, or every coordinate
				// some template position of a replicated dimension
				// lands on (not always all of them).
				direct = false
				owner := []int{coord(e.c)}
				sub := "1"
				if e.kind == '*' {
					owner, sub = nil, "*"
					for ti := td.lo; ti < td.lo+td.n; ti++ {
						owner = append(owner, coord(ti))
					}
					owner = slices.Compact(slices.Sorted(slices.Values(owner)))
				}
				f, _ := twinFormat(owner, td.procs)
				hlo, hhi = append(hlo, 1), append(hhi, len(owner))
				hformats, subs = append(hformats, f), append(subs, sub)
			}
		}
		if direct {
			fmt.Fprintf(&dirs, "!HPF$ DISTRIBUTE %s(%s) TO G\n", x.name, strings.Join(xformats, ","))
			continue
		}
		h := fmt.Sprintf("H%d", n+1)
		fmt.Fprintf(&decls, "REAL %s(%s)\n", h, boundsText(hlo, hhi))
		fmt.Fprintf(&dirs, "!HPF$ DISTRIBUTE %s(%s) TO G\n", h, strings.Join(hformats, ","))
		dirs.WriteString(alignText(x.name, len(x.lo), h, subs))
	}
	return p.header(decls.String()) + dirs.String(), indirect
}

// statements fills every array and adds one shift statement between
// two drawn arrays of equal rank.
func (p *tprogram) statements(d *draw) string {
	var b strings.Builder
	for _, x := range p.arrays {
		ranges := make([]string, len(x.lo))
		terms := make([]string, len(x.lo))
		for k := range x.lo {
			ranges[k] = fmt.Sprintf("%s = %d:%d", dummies[k], x.lo[k], x.hi[k])
			terms[k] = fmt.Sprintf("%d*%s", 3+2*k, dummies[k])
		}
		fmt.Fprintf(&b, "FORALL (%s) %s(%s) = MOD(%s + %d, 11)\n", strings.Join(ranges, ", "), x.name, strings.Join(dummies[:len(x.lo)], ","), strings.Join(terms, " + "), len(x.name))
	}
	lhs, rhs := p.arrays[d.n(len(p.arrays))], p.arrays[d.n(len(p.arrays))]
	if len(lhs.lo) != len(rhs.lo) {
		rhs = lhs
	}
	shift := d.n(2)
	ls, rs := make([]string, len(lhs.lo)), make([]string, len(lhs.lo))
	for k := range lhs.lo {
		m := min(lhs.hi[k]-lhs.lo[k], rhs.hi[k]-rhs.lo[k]) + 1 - shift
		if m < 1 {
			return b.String()
		}
		ls[k] = fmt.Sprintf("%d:%d", lhs.lo[k], lhs.lo[k]+m-1)
		rs[k] = fmt.Sprintf("%d:%d", rhs.lo[k]+shift, rhs.lo[k]+shift+m-1)
	}
	fmt.Fprintf(&b, "%s(%s) = 2*%s(%s)\n", lhs.name, strings.Join(ls, ","), rhs.name, strings.Join(rs, ","))
	return b.String()
}

// ownerSet resolves and sorts one element's owners.
func ownerSet(t *testing.T, what string, m hpf.Mapping, i index.Tuple) []int {
	t.Helper()
	os, err := m.AppendOwners(nil, i)
	if err != nil {
		t.Fatalf("%s owners of %v: %v", what, i, err)
	}
	return slices.Sorted(slices.Values(os))
}

// checkTemplateFree runs one drawn program and its twin through every
// comparison; it reports whether the twin needed INDIRECT.
func checkTemplateFree(t *testing.T, data []byte) bool {
	t.Helper()
	d := &draw{b: data}
	p := genTemplateProgram(d)
	src := p.templateSource()
	twin, indirect := p.twinSource()
	np := p.np()

	tp, err := hpf.NewProgram("template", np)
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	model := tp.EnableTemplates()
	if err := tp.Exec(src); err != nil {
		t.Fatalf("template program rejected: %v\n%s", err, src)
	}
	fp, err := hpf.NewProgram("twin", np)
	if err != nil {
		t.Fatal(err)
	}
	defer fp.Close()
	if err := fp.Exec(twin); err != nil {
		t.Fatalf("twin rejected: %v\n%s\ntwin of:\n%s", err, twin, src)
	}
	for _, x := range p.arrays {
		tm, err := tp.MappingOf(x.name)
		if err != nil {
			t.Fatal(err)
		}
		fm, err := fp.MappingOf(x.name)
		if err != nil {
			t.Fatal(err)
		}
		tm.Domain().ForEach(func(i index.Tuple) bool {
			front := ownerSet(t, "front-end", tm, i)
			oracle, err := template.ChainOwners(model, x.name, i)
			if err != nil {
				t.Fatalf("oracle owners of %s%v: %v", x.name, i, err)
			}
			free := ownerSet(t, "twin", fm, i)
			if slices.Sort(oracle); !slices.Equal(front, oracle) || !slices.Equal(front, free) {
				t.Fatalf("%s%v: front end %v, oracle %v, twin %v\ntemplate program:\n%s\ntwin:\n%s", x.name, i, front, oracle, free, src, twin)
			}
			return true
		})
	}

	stmts := p.statements(d)
	wires := hpf.Transports()
	runs := []struct{ kind, wire string }{{"sim", "inproc"}, {"spmd", wires[d.n(len(wires))]}}
	var want *interp.Result
	for _, prog := range []struct {
		label, src string
		templates  bool
	}{{"template", src, true}, {"twin", twin, false}} {
		for _, run := range runs {
			cfg := interp.Config{NP: np, Engine: run.kind, Transport: run.wire, Templates: prog.templates}
			got, err := cfg.Run(prog.src + stmts)
			on := prog.label + " on " + run.kind + "/" + run.wire
			if err != nil {
				t.Fatalf("%s: %v\n%s", on, err, prog.src+stmts)
			}
			if want == nil {
				want = got
				continue
			}
			for _, x := range p.arrays {
				if !slices.Equal(want.Values[x.name], got.Values[x.name]) {
					t.Fatalf("%s: %s values %v, template on sim %v\ntemplate program:\n%s\ntwin:\n%s", on, x.name, got.Values[x.name], want.Values[x.name], src+stmts, twin)
				}
			}
			if wl, gl := want.Report.Logical(), got.Report.Logical(); wl != gl {
				t.Fatalf("%s: logical report %+v, template on sim %+v\ntemplate program:\n%s\ntwin:\n%s", on, gl, wl, src+stmts, twin)
			}
		}
	}
	return indirect
}

// FuzzTemplateFree draws template programs and asserts that their
// template-free twins map, compute and communicate identically.
func FuzzTemplateFree(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 9, 2, 0, 3, 2, 6, 1, 0, 5, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{1, 0, 7, 3, 2, 1, 4, 0, 1, 11, 0, 1, 0, 0, 5, 1, 0, 2, 1, 3})
	f.Add([]byte{0, 1, 5, 2, 1, 2, 2, 0, 2, 4, 7, 0, 3, 1, 1, 2, 9, 2, 0, 1})
	// A1(*) WITH T(*) on T(1:3) CYCLIC(2) over three processors:
	// replication reaches only the two that own template positions,
	// which a twin writing "*" over all processors got wrong.
	f.Add([]byte{0, 1, 1, 2, 1, 2, 1, 0, 0, 5, 0, 0, 0, 0, 0, 2, 2, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			t.Skip("oversized input")
		}
		checkTemplateFree(t, data)
	})
}

// TestTemplateFreeTwins runs the fuzz check over a fixed sample of
// drawn programs and logs the share of twins that needed INDIRECT:
// the mappings a template expresses that no direct format carries.
func TestTemplateFreeTwins(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	const programs = 300
	indirect := 0
	for range programs {
		data := make([]byte, 48)
		rng.Read(data)
		if checkTemplateFree(t, data) {
			indirect++
		}
	}
	t.Logf("%d of %d template-free twins needed INDIRECT (%.1f%%)", indirect, programs, 100*float64(indirect)/programs)
}
