package main

import (
	"fmt"
	"runtime"
	"time"

	"hpfnt/hpf"
	"hpfnt/internal/core"
	"hpfnt/internal/dist"
	"hpfnt/internal/engine"
	"hpfnt/internal/index"
	"hpfnt/internal/inspector"
	"hpfnt/internal/interp"
	"hpfnt/internal/machine"
	"hpfnt/internal/transport"
)

// The layer probes: each layer of the pipeline (dist owner lookup and
// runs → core owner tiles → schedule build, regular and inspector →
// replay → wire message → remap) timed from outside through its
// public functions, on the mappings and the statement of the workload
// being measured. A probe gives the layer's unit cost; the twins in
// hand.go give its share of the body.

// probeShape names what a program's probes run on: the statement
// lhs(region) = Σ coeff·src(t+shift), the array whose mapping the
// dist, core and remap probes use, and the formats that array is
// remapped to and back.
type probeShape struct {
	lhs     string
	region  func(p map[string]int) index.Domain
	terms   []probeTerm
	primary string
	alt     []dist.Format
}

type probeTerm struct {
	src   string
	coeff float64
	shift []int
}

// shapes gives each program its dominant regular statement (lu: the
// sweep at K=N/2). The gather and remap programs have none, so their
// probes use a nearest-neighbour shift along the distributed dimension.
var shapes = map[string]probeShape{
	"stencil": {
		lhs:    "V",
		region: func(p map[string]int) index.Domain { return index.Standard(2, p["N"]-1, 2, p["N"]-1) },
		terms: []probeTerm{{"U", 0.25, []int{-1, 0}}, {"U", 0.25, []int{1, 0}},
			{"U", 0.25, []int{0, -1}}, {"U", 0.25, []int{0, 1}}},
		primary: "U", alt: []dist.Format{dist.NewCyclic(1), dist.Collapsed{}},
	},
	"halo": {
		lhs:     "A",
		region:  func(p map[string]int) index.Domain { return index.Standard(2, p["N"]-1) },
		terms:   []probeTerm{{"A", 0.5, []int{0}}, {"A", 0.25, []int{-1}}, {"A", 0.25, []int{1}}},
		primary: "A", alt: []dist.Format{dist.Block{}},
	},
	"lu": {
		lhs: "R",
		region: func(p map[string]int) index.Domain {
			return index.Standard(p["N"]/2+1, p["N"], p["N"]/2+1, p["N"])
		},
		terms:   []probeTerm{{"R", 1, []int{0, 0}}, {"A", 1.0 / 16, []int{-1, -1}}},
		primary: "A", alt: []dist.Format{dist.Block{}, dist.Collapsed{}},
	},
	"gather": {
		lhs:     "Y",
		region:  func(p map[string]int) index.Domain { return index.Standard(2, p["M"]) },
		terms:   []probeTerm{{"Y", 1, []int{-1}}},
		primary: "X", alt: []dist.Format{dist.Block{}},
	},
	"remap": {
		lhs:     "A",
		region:  func(p map[string]int) index.Domain { return index.Standard(2, p["N"], 1, p["N"]) },
		terms:   []probeTerm{{"A", 1, []int{-1, 0}}},
		primary: "A", alt: []dist.Format{dist.NewCyclic(8), dist.Collapsed{}},
	},
}

// irregularProbeSize is the extent of the gather the inspector probe
// runs on workloads that have no irregular statement of their own.
const irregularProbeSize = 1 << 16

// metrics collects named values with their units.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// prober runs the layer probes of one traced pass.
type prober struct {
	h  *harness
	w  *workload
	in *inputs
	m  metrics
}

// budget is how long a probe repeats for: d, or a twentieth of it at
// the smoke scale, whose numbers only have to exist.
func (p *prober) budget(d time.Duration) time.Duration {
	if p.in.scale == scaleSmoke {
		return d / 20
	}
	return d
}

// repeat calls f until budget(min) has elapsed (at least once) and
// returns the mean wall of one call.
func (p *prober) repeat(min time.Duration, f func() error) (time.Duration, error) {
	min = p.budget(min)
	t0 := time.Now()
	n := 0
	for {
		if err := f(); err != nil {
			return 0, err
		}
		n++
		if d := time.Since(t0); d >= min {
			return d / time.Duration(n), nil
		}
	}
}

// mappingsOf executes the program's declaration and mapping lines on
// a scratch program and returns the mapping of each named array.
func mappingsOf(w *workload, in *inputs, names ...string) (map[string]core.ElementMapping, error) {
	prologue, _, err := w.source()
	if err != nil {
		return nil, err
	}
	prog, err := hpf.NewProgramEngine("probe", engine.Sim, in.params["NP"], machine.DefaultCost())
	if err != nil {
		return nil, err
	}
	defer prog.Close()
	interp.Config{Params: in.params, ParamArrays: in.arrays}.Apply(prog)
	if err := prog.Exec(directiveLines(prologue)); err != nil {
		return nil, err
	}
	out := map[string]core.ElementMapping{}
	for _, name := range names {
		if out[name], err = prog.MappingOf(name); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// all runs every layer probe for the workload and records the
// unit costs in m. Each probe is one span under parent.
func (p *prober) all(frameElems int, parent *span) error {
	w, in := p.w, p.in
	shape := shapes[w.program]
	names := []string{shape.lhs, shape.primary}
	for _, t := range shape.terms {
		names = append(names, t.src)
	}
	maps, err := mappingsOf(w, in, names...)
	if err != nil {
		return err
	}
	region := shape.region(in.params)
	primary, ok := maps[shape.primary].(core.DistMapping)
	if !ok {
		return fmt.Errorf("%s: mapping of %s is %T, not a direct distribution", w.name, shape.primary, maps[shape.primary])
	}
	probes := []struct {
		name string
		run  func() error
	}{
		{"probe.interp", p.parse},
		{"probe.dist", func() error { return p.dist(primary.D) }},
		{"probe.core", func() error { return p.tiles(maps[shape.lhs], region) }},
		{"probe.sched.sim", func() error { return p.schedule(engine.Sim, shape, maps, region) }},
		{"probe.sched.spmd", func() error { return p.schedule(engine.SPMD, shape, maps, region) }},
		{"probe.inspector", p.inspector},
		{"probe.remap", func() error { return p.remap(shape, primary) }},
		{"probe.wire", func() error { return p.wires(frameElems) }},
		{"probe.job", p.spawn},
	}
	for _, pr := range probes {
		sp := parent.child(pr.name)
		err := pr.run()
		sp.end()
		if err != nil {
			return fmt.Errorf("%s: %w", pr.name, err)
		}
	}
	return nil
}

// parse times interp.Check on the whole program text.
func (p *prober) parse() error {
	prologue, body, err := p.w.source()
	if err != nil {
		return err
	}
	src := prologue + body
	d, err := p.repeat(20*time.Millisecond, func() error { return interp.Check(src) })
	p.m.set("interp.parse_us", float64(d.Nanoseconds())/1e3, "us")
	return err
}

// dist times the dist layer on the workload's primary
// distribution: single-element owner lookup, and the owner runs of
// the whole domain.
func (p *prober) dist(d *dist.Distribution) error {
	m := p.m
	dom := d.Array
	size := dom.Size()
	const lookups = 1 << 16
	stride := size/lookups + 1
	t0 := time.Now()
	n := 0
	for off := 0; off < size; off += stride {
		if _, err := d.Owners(dom.TupleAt(off)); err != nil {
			return err
		}
		n++
	}
	m.set("dist.map_ns", float64(time.Since(t0).Nanoseconds())/float64(n), "ns")

	var tiles []dist.Tile
	per, err := p.repeat(20*time.Millisecond, func() (err error) {
		tiles, err = d.OwnerRuns(dom)
		return err
	})
	m.set("dist.runs_ns", float64(per.Nanoseconds()), "ns")
	m.set("dist.runs_n", float64(len(tiles)), "count")
	return err
}

// tiles times core.OwnerTiles over the probe statement's region.
func (p *prober) tiles(mapping core.ElementMapping, region index.Domain) error {
	m := p.m
	var tiles []core.Tile
	per, err := p.repeat(20*time.Millisecond, func() (err error) {
		tiles, err = core.OwnerTiles(mapping, region)
		return err
	})
	m.set("core.tiles_us", float64(per.Nanoseconds())/1e3, "us")
	m.set("core.tiles_n", float64(len(tiles)), "count")
	return err
}

// probeArrays materialises the named arrays on an engine.
func probeArrays(eng engine.Engine, maps map[string]core.ElementMapping) (map[string]engine.Array, error) {
	arrays := map[string]engine.Array{}
	for name, mp := range maps {
		a, err := eng.NewArray(name, mp)
		if err != nil {
			return nil, err
		}
		a.Fill(func(t index.Tuple) float64 { return float64(t[0] % 7) })
		arrays[name] = a
	}
	return arrays, nil
}

// schedule times engine.Array.NewSchedule for the probe statement
// on one engine; on spmd it also times the replay of the built
// schedule and records its exact ghost and message counts.
func (p *prober) schedule(kind string, shape probeShape, maps map[string]core.ElementMapping, region index.Domain) error {
	in, m := p.in, p.m
	eng, err := engine.NewOn(kind, transport.Inproc, in.params["NP"], machine.DefaultCost())
	if err != nil {
		return err
	}
	defer eng.Close()
	arrays, err := probeArrays(eng, maps)
	if err != nil {
		return err
	}
	terms := make([]engine.Term, len(shape.terms))
	for i, t := range shape.terms {
		terms[i] = engine.Read(arrays[t.src], t.coeff, t.shift...)
	}
	lhs := arrays[shape.lhs]

	var sched engine.Schedule
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	builds := 0
	per, err := p.repeat(50*time.Millisecond, func() (err error) {
		sched, err = lhs.NewSchedule(region, terms)
		builds++
		return err
	})
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	m.set("sched.build_us."+kind, float64(per.Nanoseconds())/1e3, "us")
	if kind != engine.SPMD {
		return nil
	}
	m.set("sched.build_allocs", float64(m1.Mallocs-m0.Mallocs)/float64(builds), "count")
	m.set("sched.ghost_elems", float64(sched.GhostElements()), "count")
	m.set("sched.messages", float64(sched.Messages()), "count")

	ns, err := p.replayCost(sched, region.Size())
	m.set("replay.ns_per_update", ns, "ns")
	return err
}

// replayCost times Schedule.ExecuteN(k), with k sized from one
// execution so the timed epoch lasts about budget(0.2 s), and returns
// the nanoseconds per updated element.
func (p *prober) replayCost(s engine.Schedule, updates int) (float64, error) {
	t0 := time.Now()
	if err := s.Execute(); err != nil {
		return 0, err
	}
	one := time.Since(t0)
	k := int(p.budget(200*time.Millisecond) / (one + 1))
	if k < 1 {
		k = 1
	}
	t0 = time.Now()
	if err := s.ExecuteN(k); err != nil {
		return 0, err
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(k) / float64(updates), nil
}

// inspector times engine.Array.NewIrregular and the first and
// steady executions of its plan: on the gather program with the
// workload's own vectors, elsewhere on the same program at
// irregularProbeSize with vectors from the same seed.
func (p *prober) inspector() error {
	w, in, m := p.w, p.in, p.m
	gw, err := findWorkload("irregular.cg")
	if err != nil {
		return err
	}
	if w.program != gw.program {
		in = makeInputs(gw.program, in.scale, in.seed, in.params["NP"],
			map[string]int{"N": irregularProbeSize, "M": irregularProbeSize, "ITERS": 1})
	}
	maps, err := mappingsOf(gw, in, "X", "Y")
	if err != nil {
		return err
	}
	eng, err := engine.NewOn(engine.SPMD, transport.Inproc, in.params["NP"], machine.DefaultCost())
	if err != nil {
		return err
	}
	defer eng.Close()
	arrays, err := probeArrays(eng, maps)
	if err != nil {
		return err
	}
	col := in.arrays["COL"]
	pat := inspector.Pattern{Writes: make([]int32, len(col)), Reads: make([]int32, len(col))}
	for k, c := range col {
		pat.Writes[k], pat.Reads[k] = int32(k), int32(c-1)
	}
	t0 := time.Now()
	sched, err := arrays["Y"].NewIrregular(arrays["X"], pat)
	if err != nil {
		return err
	}
	build := time.Since(t0)
	if err := sched.Execute(); err != nil {
		return err
	}
	first := time.Since(t0)
	ns, err := p.replayCost(sched, len(col))
	if err != nil {
		return err
	}
	steady := ns * float64(len(col))
	m.set("inspector.build_ms", float64(build.Nanoseconds())/1e6, "ms")
	m.set("inspector.first_over_steady", float64(first.Nanoseconds())/steady, "ratio")
	if w.program == gw.program {
		// The workload's own statement is the irregular one.
		m.set("replay.ns_per_update", ns, "ns")
	}
	return nil
}

// remap times Array.Remap of the primary array to its alternate
// formats and back on the spmd engine.
func (p *prober) remap(shape probeShape, primary core.DistMapping) error {
	in, m := p.in, p.m
	altDist, err := dist.New(primary.D.Array, shape.alt, primary.D.Target)
	if err != nil {
		return err
	}
	eng, err := engine.NewOn(engine.SPMD, transport.Inproc, in.params["NP"], machine.DefaultCost())
	if err != nil {
		return err
	}
	defer eng.Close()
	arrays, err := probeArrays(eng, map[string]core.ElementMapping{shape.primary: primary})
	if err != nil {
		return err
	}
	a := arrays[shape.primary]
	moved, remaps := 0, 0
	per, err := p.repeat(100*time.Millisecond, func() error {
		for _, to := range []core.ElementMapping{core.DistMapping{D: altDist}, primary} {
			n, err := a.Remap(to)
			if err != nil {
				return err
			}
			moved += n
			remaps++
		}
		return nil
	})
	if err != nil {
		return err
	}
	perRemap := float64(per.Nanoseconds()) / 2 // one round trip is two remaps
	elems := float64(moved) / float64(remaps)
	m.set("remap.ms_per_remap", perRemap/1e6, "ms")
	m.set("remap.elems_moved", elems, "count")
	perElem := 0.0
	if moved > 0 {
		perElem = perRemap / elems
	}
	m.set("remap.ns_per_elem", perElem, "ns")
	return nil
}

// wires times a Send/Recv pair on each wire, for an 8-byte
// message and for a message of the workload's mean frame size.
func (p *prober) wires(frameElems int) error {
	m := p.m
	for _, kind := range transport.Kinds() {
		tr, err := transport.New(kind, 2)
		if err != nil {
			return err
		}
		for _, size := range []struct {
			metric string
			elems  int
		}{{"wire.msg8_ns.", 1}, {"wire.frame_ns.", frameElems}} {
			msg := make([]float64, size.elems)
			per, err := p.repeat(30*time.Millisecond, func() error {
				tr.Send(1, 2, msg)
				if got := tr.Recv(1, 2); len(got) != len(msg) {
					return fmt.Errorf("%s wire: message of %d elements arrived with %d", kind, len(msg), len(got))
				}
				return nil
			})
			if err != nil {
				tr.Close()
				return err
			}
			m.set(size.metric+kind, float64(per.Nanoseconds()), "ns")
		}
		if err := tr.Close(); err != nil {
			return err
		}
	}
	return nil
}

// spawn times a 2-process tcp job on the smallest stencil with no
// iterations: what cmd/hpfrun's spawn, rendezvous and teardown cost.
func (p *prober) spawn() error {
	h, m := p.h, p.m
	if err := h.buildHpfrun(); err != nil {
		return err
	}
	jw, err := findWorkload("job.tcp")
	if err != nil {
		return err
	}
	in, err := jw.newInputs(scaleSmoke, 1, np)
	if err != nil {
		return err
	}
	_, wall, err := launchJob(jw, in.with("ITERS", 0), h.hpfrun)
	m.set("job.spawn_s", wall.Seconds(), "s")
	return err
}
