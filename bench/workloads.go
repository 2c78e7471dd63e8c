package main

import (
	"embed"
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

//go:embed programs/*.hpf
var programFS embed.FS

// bodyMarker splits a program file into its prologue (declarations,
// mapping directives and FORALL fills: setup_s) and its body (the DO
// loop and the PRINTs: run_s). It is an ordinary comment to hpfrun.
const bodyMarker = "!bench: body"

// np is the processor count of every workload: the PROCESSORS line of
// each program takes it as the NP parameter, so the scaling probe
// runs the same text at NP=1.
const np = 2

// workload is one named benchmark workload: a program, the wire it
// runs on, its sizes, and the oracle its outputs are checked against.
type workload struct {
	name    string
	program string // programs/<program>.hpf
	wire    string // spmd transport
	job     bool   // run as a real 2-process hpfrun job
	sizes   map[string]map[string]int
	// pinned are the Report.Logical() counts of one whole run at np=2,
	// per scale; nil when they depend on the seed (see counts).
	pinned map[string]counts
	kernel *kernel
}

// counts are the logical machine counters the equivalence contract
// pins: they repeat exactly on every run, engine and wire.
type counts struct {
	Msgs, Elems, LocalRefs, RemoteRefs int64
}

// The scales: full is what BENCHMARK.json measures, smoke is the
// go-test preset (whole suite in a few seconds).
const (
	scaleFull  = "full"
	scaleSmoke = "smoke"
)

var (
	// halo.tcp and halo.shm are one program at one size on two wires.
	haloSizes = map[string]map[string]int{
		scaleFull:  {"N": 1024, "ITERS": 20000},
		scaleSmoke: {"N": 64, "ITERS": 50},
	}
	haloCounts = map[string]counts{
		scaleFull:  {40002, 20480002, 20440000, 40880000},
		scaleSmoke: {102, 3202, 3100, 6200},
	}
)

// Sizes were calibrated on a 2-core box so one operation (prologue +
// body) takes 1–2 s at full scale and five to ten fit in a run.
// stencil.block needs its 240 sweeps for replay to reach 0.85 of the
// body; lu.rebuild stays at N=192 because its wall grows 2.7x for 1.8x
// the elements (see README, Findings).
var workloads = []*workload{
	{
		name: "stencil.block", program: "stencil", wire: "inproc",
		sizes: map[string]map[string]int{
			scaleFull:  {"N": 768, "ITERS": 240},
			scaleSmoke: {"N": 64, "ITERS": 6},
		},
		pinned: map[string]counts{
			scaleFull:  {482, 367682, 703739520, 367680},
			scaleSmoke: {14, 746, 114576, 744},
		},
		kernel: &stencilKernel,
	},
	{name: "halo.tcp", program: "halo", wire: "tcp", sizes: haloSizes, pinned: haloCounts, kernel: &haloKernel},
	{name: "halo.shm", program: "halo", wire: "shm", sizes: haloSizes, pinned: haloCounts, kernel: &haloKernel},
	{
		name: "lu.rebuild", program: "lu", wire: "inproc",
		sizes: map[string]map[string]int{
			scaleFull:  {"N": 192},
			scaleSmoke: {"N": 24},
		},
		pinned: map[string]counts{
			scaleFull:  {382, 2340897, 2340896, 2340896},
			scaleSmoke: {46, 4325, 4324, 4324},
		},
		kernel: &luKernel,
	},
	{
		name: "irregular.cg", program: "gather", wire: "inproc",
		sizes: map[string]map[string]int{
			scaleFull:  {"N": 1000000, "M": 1000000, "ITERS": 100},
			scaleSmoke: {"N": 4096, "M": 4096, "ITERS": 5},
		},
		kernel: &gatherKernel,
	},
	{
		name: "remap.cycle", program: "remap", wire: "inproc",
		sizes: map[string]map[string]int{
			scaleFull:  {"N": 1024, "ITERS": 5},
			scaleSmoke: {"N": 64, "ITERS": 2},
		},
		pinned: map[string]counts{
			scaleFull:  {22, 5242882, 0, 0},
			scaleSmoke: {10, 8194, 0, 0},
		},
		kernel: &remapKernel,
	},
	{
		name: "job.tcp", program: "stencil", wire: "tcp", job: true,
		sizes: map[string]map[string]int{
			scaleFull:  {"N": 768, "ITERS": 100},
			scaleSmoke: {"N": 64, "ITERS": 6},
		},
		kernel: &stencilKernel,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// source returns the workload's program text split at the body marker.
func (w *workload) source() (prologue, body string, err error) {
	b, err := programFS.ReadFile(w.path())
	if err != nil {
		return "", "", err
	}
	src := string(b)
	k := strings.Index(src, bodyMarker)
	if k < 0 {
		return "", "", fmt.Errorf("%s: no %q line", w.path(), bodyMarker)
	}
	return src[:k], src[k:], nil
}

// path is the program file relative to the benchmark directory, which
// is the working directory of every benchmark process.
func (w *workload) path() string { return "programs/" + w.program + ".hpf" }

// inputs are what a program receives: integer parameters and, for the
// gather program, the generated indirection vectors. The seed reaches
// the program only through them.
type inputs struct {
	scale  string
	seed   int64
	params map[string]int
	arrays map[string][]int
}

// newInputs generates the workload's inputs from the seed: the fill
// phase S of every program, and the OWN/COL vectors of the gather.
// The sizes, and so the work done, do not depend on the seed.
func (w *workload) newInputs(scale string, seed int64, nproc int) (*inputs, error) {
	sz, ok := w.sizes[scale]
	if !ok {
		return nil, fmt.Errorf("unknown scale %q", scale)
	}
	return makeInputs(w.program, scale, seed, nproc, sz), nil
}

// makeInputs generates the inputs of one program at the given sizes.
func makeInputs(program, scale string, seed int64, nproc int, sizes map[string]int) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{scale: scale, seed: seed, params: map[string]int{"NP": nproc, "S": rng.Intn(1000)}}
	for k, v := range sizes {
		in.params[k] = v
	}
	if program == "gather" {
		own := make([]int, in.params["N"])
		for i := range own {
			own[i] = 1 + rng.Intn(nproc)
		}
		col := make([]int, in.params["M"])
		for i := range col {
			col[i] = 1 + rng.Intn(len(own))
		}
		in.arrays = map[string][]int{"OWN": own, "COL": col}
	}
	return in
}

// with returns a copy of the inputs with one parameter replaced.
func (in *inputs) with(name string, v int) *inputs {
	out := *in
	out.params = make(map[string]int, len(in.params))
	for k, pv := range in.params {
		out.params[k] = pv
	}
	out.params[name] = v
	return &out
}

// paramFlag renders the parameters as hpfrun's -param value.
func (in *inputs) paramFlag() string {
	keys := make([]string, 0, len(in.params))
	for k := range in.params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, in.params[k])
	}
	return strings.Join(parts, ",")
}

// expected returns the logical counts one whole run must report at
// np=2, and whether the workload pins any.
func (w *workload) expected(in *inputs) (counts, bool) {
	if w.kernel.counts != nil {
		return w.kernel.counts(in), true
	}
	c, ok := w.pinned[in.scale]
	return c, ok
}
