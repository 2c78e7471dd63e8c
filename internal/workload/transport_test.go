package workload

import (
	"testing"

	"hpfnt/internal/engine"
	"hpfnt/internal/machine"
)

// TestTransportEquivalence is the transport differential: every node
// workload — dense Jacobi, the irregular sparse-CG gather (with its
// reduction) and the irregular edge sweep — must produce identical
// values, reduction results and machine.Report on the spmd engine
// whether the wire is the inproc channels or real tcp sockets, and
// both must match sim.
func TestTransportEquivalence(t *testing.T) {
	const n, np, iters = 48, 6, 3
	for _, name := range NodeWorkloads() {
		t.Run(name, func(t *testing.T) {
			runOn := func(kind, tkind string) NodeResult {
				t.Helper()
				eng, err := engine.NewOn(kind, tkind, np, machine.DefaultCost())
				if err != nil {
					t.Fatal(err)
				}
				defer eng.Close()
				res, err := RunNode(eng, name, n, iters)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			want := runOn(engine.Sim, engine.InprocTransport)
			for _, tkind := range engine.Transports() {
				got := runOn(engine.SPMD, tkind)
				if got.Report != want.Report {
					t.Errorf("%s report:\n got  %+v\n want %+v", tkind, got.Report, want.Report)
				}
				if got.Sum != want.Sum {
					t.Errorf("%s reduction: got %g, want %g", tkind, got.Sum, want.Sum)
				}
				if len(got.Data) != len(want.Data) {
					t.Fatalf("%s data length: got %d, want %d", tkind, len(got.Data), len(want.Data))
				}
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						t.Errorf("%s value mismatch at %d: got %g, want %g", tkind, i, got.Data[i], want.Data[i])
						break
					}
				}
			}
		})
	}
}
