package main

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hpfnt/hpf"
	"hpfnt/internal/interp"
)

// The handwritten twins: each program's body written by hand on the
// public hpf API (NewSchedule/NewIrregular + Run/RunN, Reduce, Remap)
// with a span around every call into a layer. A twin does exactly
// what the interpreter does for the body — same statements, same
// order, same final value gather — minus parsing, resolution and the
// schedule cache, so
//
//   - interp.overhead_frac = 1 − twin wall ÷ interpreted body wall, and
//   - the twin's spans split the body wall by layer (share.*), which
//     is the closure check: closure.ratio = Σ layer spans ÷ body wall.
//
// The twin's output must equal the interpreter's byte for byte.

// The layer span names of a twin.
const (
	spanBuild   = "sched.build"
	spanInspect = "inspector.build"
	spanReplay  = "replay"
	spanRemap   = "remap"
	spanCollect = "collect" // reductions, element reads, final value gather
)

// hand is the state of one twin run.
type hand struct {
	prog   *hpf.Program
	in     *inputs
	sp     *span // the twin's body span; layer spans are its children
	out    strings.Builder
	arrays []*hpf.DistArray
}

// array materialises a declared array and fills it from fn, as the
// program's FORALL does.
func (h *hand) array(name string, fn func(hpf.Tuple) float64) (*hpf.DistArray, error) {
	a, err := h.prog.NewArray(name)
	if err != nil {
		return nil, err
	}
	a.Fill(fn)
	h.arrays = append(h.arrays, a)
	return a, nil
}

func (h *hand) build(lhs *hpf.DistArray, region hpf.Domain, terms ...hpf.AssignTerm) (*hpf.Schedule, error) {
	sp := h.sp.child(spanBuild)
	defer sp.end()
	return lhs.NewSchedule(region, terms...)
}

func (h *hand) replay(s *hpf.Schedule, iters int) error {
	sp := h.sp.child(spanReplay)
	defer sp.end()
	if iters == 1 {
		return s.Run()
	}
	return s.RunN(iters)
}

// printReduce is PRINT SUM(A) | MAXVAL(A).
func (h *hand) printReduce(label string, a *hpf.DistArray, op hpf.ReduceOp) error {
	sp := h.sp.child(spanCollect)
	defer sp.end()
	v, err := a.Reduce(op)
	if err != nil {
		return err
	}
	fmt.Fprintf(&h.out, "%s(%s) = %s\n", label, a.Name(), strconv.FormatFloat(v, 'g', -1, 64))
	return nil
}

// printElement is PRINT A(i, ...).
func (h *hand) printElement(a *hpf.DistArray, idx ...int) {
	sp := h.sp.child(spanCollect)
	defer sp.end()
	strs := make([]string, len(idx))
	for i, v := range idx {
		strs[i] = strconv.Itoa(v)
	}
	fmt.Fprintf(&h.out, "%s(%s) = %s\n", a.Name(), strings.Join(strs, ","), strconv.FormatFloat(a.At(hpf.Tuple(idx)), 'g', -1, 64))
}

// gatherValues is the dense value gather Interp.Run ends with.
func (h *hand) gatherValues() {
	sp := h.sp.child(spanCollect)
	defer sp.end()
	for _, a := range h.arrays {
		_ = a.Data()
	}
}

// twins maps a program to its handwritten prologue (arrays and fills)
// and body.
var twins = map[string]struct {
	prologue func(h *hand) error
	body     func(h *hand) error
}{
	"stencil": {
		prologue: func(h *hand) error {
			s := h.in.params["S"]
			if _, err := h.array("U", func(t hpf.Tuple) float64 { return float64((t[0]*7 + t[1]*3 + s) % 11) }); err != nil {
				return err
			}
			_, err := h.array("V", func(hpf.Tuple) float64 { return 0 })
			return err
		},
		body: func(h *hand) error {
			n, iters := h.in.params["N"], h.in.params["ITERS"]
			u, v := h.arrays[0], h.arrays[1]
			interior := hpf.Shape(2, n-1, 2, n-1)
			var relax, copyBack *hpf.Schedule
			for k := 0; k < iters; k++ {
				if k == 0 {
					var err error
					if relax, err = h.build(v, interior, hpf.Read(u, 0.25, -1, 0), hpf.Read(u, 0.25, 1, 0),
						hpf.Read(u, 0.25, 0, -1), hpf.Read(u, 0.25, 0, 1)); err != nil {
						return err
					}
					if copyBack, err = h.build(u, interior, hpf.Read(v, 1, 0, 0)); err != nil {
						return err
					}
				}
				if err := h.replay(relax, 1); err != nil {
					return err
				}
				if err := h.replay(copyBack, 1); err != nil {
					return err
				}
			}
			if err := h.printReduce("SUM", u, hpf.Sum); err != nil {
				return err
			}
			if err := h.printReduce("MAXVAL", u, hpf.Max); err != nil {
				return err
			}
			h.printElement(u, n/2, n/2)
			return nil
		},
	},
	"halo": {
		prologue: func(h *hand) error {
			s := h.in.params["S"]
			_, err := h.array("A", func(t hpf.Tuple) float64 { return float64((t[0]*t[0] + s) % 17) })
			return err
		},
		body: func(h *hand) error {
			n, iters := h.in.params["N"], h.in.params["ITERS"]
			a := h.arrays[0]
			var smooth *hpf.Schedule
			if iters > 0 {
				var err error
				if smooth, err = h.build(a, hpf.Shape(2, n-1), hpf.Read(a, 0.5, 0), hpf.Read(a, 0.25, -1), hpf.Read(a, 0.25, 1)); err != nil {
					return err
				}
				if err := h.replay(smooth, iters); err != nil {
					return err
				}
			}
			if err := h.printReduce("SUM", a, hpf.Sum); err != nil {
				return err
			}
			if err := h.printReduce("MAXVAL", a, hpf.Max); err != nil {
				return err
			}
			h.printElement(a, n/2)
			return nil
		},
	},
	"lu": {
		prologue: func(h *hand) error {
			s := h.in.params["S"]
			if _, err := h.array("A", func(t hpf.Tuple) float64 { return float64((t[0]*5+t[1]*t[1]+s)%13 + 1) }); err != nil {
				return err
			}
			_, err := h.array("R", func(hpf.Tuple) float64 { return 0 })
			return err
		},
		body: func(h *hand) error {
			n := h.in.params["N"]
			a, r := h.arrays[0], h.arrays[1]
			for k := 1; k < n; k++ {
				sweep, err := h.build(r, hpf.Shape(k+1, n, k+1, n), hpf.Read(r, 1, 0, 0), hpf.Read(a, 1.0/16, -1, -1))
				if err != nil {
					return err
				}
				if err := h.replay(sweep, 1); err != nil {
					return err
				}
			}
			if err := h.printReduce("SUM", r, hpf.Sum); err != nil {
				return err
			}
			h.printElement(r, n, n)
			h.printElement(r, 2, 2)
			return nil
		},
	},
	"gather": {
		prologue: func(h *hand) error {
			s := h.in.params["S"]
			if _, err := h.array("X", func(t hpf.Tuple) float64 { return float64((t[0]*7 + s) % 101) }); err != nil {
				return err
			}
			_, err := h.array("Y", func(hpf.Tuple) float64 { return 0 })
			return err
		},
		body: func(h *hand) error {
			m, iters := h.in.params["M"], h.in.params["ITERS"]
			x, y := h.arrays[0], h.arrays[1]
			if iters > 0 {
				sp := h.sp.child(spanInspect)
				writes := make([]int, m)
				coeffs := make([]float64, m)
				for k := range writes {
					writes[k], coeffs[k] = k+1, 2
				}
				spmv, err := y.NewIrregular(x, writes, h.in.arrays["COL"], coeffs)
				sp.end()
				if err != nil {
					return err
				}
				if err := h.replay(spmv, iters); err != nil {
					return err
				}
			}
			if err := h.printReduce("SUM", y, hpf.Sum); err != nil {
				return err
			}
			if err := h.printReduce("MAXVAL", y, hpf.Max); err != nil {
				return err
			}
			h.printElement(y, m/2)
			return nil
		},
	},
	"remap": {
		prologue: func(h *hand) error {
			s := h.in.params["S"]
			_, err := h.array("A", func(t hpf.Tuple) float64 { return float64((t[0]*3 + t[1]*5 + s) % 23) })
			return err
		},
		body: func(h *hand) error {
			n, iters := h.in.params["N"], h.in.params["ITERS"]
			a := h.arrays[0]
			for k := 0; k < iters; k++ {
				for _, to := range []string{"CYCLIC(8)", "BLOCK"} {
					sp := h.sp.child(spanRemap)
					err := h.prog.Exec("!HPF$ REDISTRIBUTE A(" + to + ",:) TO P")
					if err == nil {
						_, err = a.Remap()
					}
					sp.end()
					if err != nil {
						return err
					}
				}
			}
			if err := h.printReduce("SUM", a, hpf.Sum); err != nil {
				return err
			}
			if err := h.printReduce("MAXVAL", a, hpf.Max); err != nil {
				return err
			}
			h.printElement(a, n/2, n/3)
			return nil
		},
	},
}

// directiveLines keeps the declaration and mapping lines of a program
// text: what package directive executes, without the FORALL fills.
func directiveLines(src string) string {
	var keep []string
	for _, line := range strings.Split(src, "\n") {
		if interp.IsDirectiveLine(line) {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// twinRun is what one run of a handwritten twin yields.
type twinRun struct {
	wall   time.Duration // the body's wall
	body   *span         // the "handwritten" span; the layer spans are its children
	output string
}

// runTwin executes the workload's handwritten twin on the given wire,
// recording its spans under parent.
func runTwin(w *workload, in *inputs, wire string, parent *span) (twinRun, error) {
	var run twinRun
	prologue, _, err := w.source()
	if err != nil {
		return run, err
	}
	tw, ok := twins[w.program]
	if !ok {
		return run, fmt.Errorf("program %s has no handwritten twin", w.program)
	}
	runtime.GC()
	prog, _, err := newProgram(in, wire)
	if err != nil {
		return run, err
	}
	defer prog.Close()
	if err := prog.Exec(directiveLines(prologue)); err != nil {
		return run, err
	}
	h := &hand{prog: prog, in: in}
	if err := tw.prologue(h); err != nil {
		return run, err
	}
	h.sp = parent.child("handwritten")
	t0 := time.Now()
	err = tw.body(h)
	if err == nil {
		h.gatherValues()
	}
	run.wall = time.Since(t0)
	h.sp.end()
	run.body, run.output = h.sp, h.out.String()
	return run, err
}
