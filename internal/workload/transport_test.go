package workload

import (
	"testing"

	"hpfnt/internal/engine"
)

// TestTransportEquivalence is the transport differential over the job
// programs: each must produce identical output, values and machine
// report on the spmd engine whether the wire is the inproc channels,
// the shm rings or real tcp sockets, and all must match sim.
func TestTransportEquivalence(t *testing.T) {
	for _, name := range jobPrograms {
		t.Run(name, func(t *testing.T) {
			cfg, src := corpusProgram(t, name, 3)
			cfg.Engine, cfg.Transport = engine.Sim, engine.InprocTransport
			want, err := cfg.Run(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, tkind := range engine.Transports() {
				cfg.Engine, cfg.Transport = engine.SPMD, tkind
				got, err := cfg.Run(src)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, tkind, got, want)
			}
		})
	}
}
