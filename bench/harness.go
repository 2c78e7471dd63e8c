package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"
)

// harness carries what the passes of one process share.
type harness struct {
	scale    string
	buildDir string // where cmd/hpfrun is built
	traceDir string // where the traced pass writes its Chrome trace files
	hpfrun   string // built on first use
}

// stat summarises the samples of one timing — the operations of one
// run, or the runs of one result set. The median is the reported
// value; the quartiles give its spread.
type stat struct {
	Median  float64 `json:"median"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Samples int     `json:"samples"`
}

// spread is the distance between the quartiles as a share of the median.
func (s stat) spread() float64 { return (s.Q3 - s.Q1) / s.Median }

// quantile interpolates the p-quantile of sorted v at position
// p·(n+1), as Python's statistics.quantiles does by default.
func quantile(v []float64, p float64) float64 {
	pos := p*float64(len(v)+1) - 1
	i := int(math.Floor(pos))
	switch {
	case i < 0:
		return v[0]
	case i >= len(v)-1:
		return v[len(v)-1]
	}
	return v[i] + (pos-float64(i))*(v[i+1]-v[i])
}

func newStat(samples []float64) stat {
	v := append([]float64(nil), samples...)
	sort.Float64s(v)
	return stat{
		Median: quantile(v, 0.5), Q1: quantile(v, 0.25), Q3: quantile(v, 0.75),
		Min: v[0], Max: v[len(v)-1], Samples: len(v),
	}
}

// endToEnd is the result of one workload's untraced pass.
type endToEnd struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Setup     stat     `json:"setup_s"`
	Run       stat     `json:"run_s"`
	Errors    []string `json:"errors,omitempty"`
}

// minOps is the fewest timed operations a pass reports a median of.
const minOps = 3

// operate runs one operation of the workload on its own wire.
func (h *harness) operate(w *workload, in *inputs, parent *span) (sample, error) {
	if !w.job {
		return runProgram(w, in, w.wire, parent)
	}
	if err := h.buildHpfrun(); err != nil {
		return sample{}, err
	}
	return runJob(w, in, h.hpfrun)
}

// measure is the untraced pass: closed loop, one client, one program
// at a time. One discarded warm-up operation, then timed operations
// until the time is up; every operation, warm-up included, is
// verified and counted in attempted.
func (h *harness) measure(w *workload, seed int64, seconds float64) (*endToEnd, error) {
	in, err := w.newInputs(h.scale, seed, np)
	if err != nil {
		return nil, err
	}
	or, err := newOracle(w, in)
	if err != nil {
		return nil, err
	}
	res := &endToEnd{}
	var setups, runs []float64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for op := 0; len(runs) < minOps || time.Now().Before(deadline); op++ {
		s, err := h.operate(w, in, nil)
		if err == nil {
			err = or.check(s)
		}
		res.Attempted++
		if err != nil {
			res.Failed++
			res.Errors = append(res.Errors, err.Error())
			if res.Failed >= minOps {
				return res, fmt.Errorf("%s: %d of %d operations failed, last: %v", w.name, res.Failed, res.Attempted, err)
			}
			continue
		}
		if op == 0 {
			continue // warm-up
		}
		setups = append(setups, s.setup.Seconds())
		runs = append(runs, s.run.Seconds())
	}
	res.Setup, res.Run = newStat(setups), newStat(runs)
	return res, nil
}

// buildHpfrun builds cmd/hpfrun once into the build directory; the
// build is outside every timed interval.
func (h *harness) buildHpfrun() error {
	if h.hpfrun != "" {
		return nil
	}
	dir, err := filepath.Abs(h.buildDir)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	bin := filepath.Join(dir, "hpfrun")
	cmd := exec.Command("go", "build", "-o", bin, "hpfnt/cmd/hpfrun")
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building hpfrun: %v: %s", err, out)
	}
	h.hpfrun = bin
	return nil
}
