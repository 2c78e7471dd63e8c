package spmd

import (
	"fmt"
	"os"
	"time"

	"hpfnt/internal/ckpt"
	"hpfnt/internal/machine"
	"hpfnt/internal/obs"
)

// Checkpoint snapshots the arrays and the job-wide counters into the
// spill directory dir at the given epoch. On a multi-process
// transport this is a collective: every process calls it at the same
// point of the replicated control flow, each writes the shards of the
// ranks it hosts, and after a barrier the leader publishes the
// manifest — so a checkpoint either becomes visible complete or not
// at all. The snapshotted counter vector is the job-wide aggregate,
// which is what lets a restored-and-replayed job report the same
// machine.Report an uninterrupted run would.
//
// The engine must be idle (between dispatched operations), which the
// single-client-goroutine contract already guarantees.
func (e *Engine) Checkpoint(dir string, epoch int, arrays []*Array) error {
	if err := e.tr.Err(); err != nil {
		return err
	}
	defer e.chargeCheckpoint(obs.Now())()
	span := obs.BeginSpan("checkpoint", fmt.Sprintf("checkpoint@%d", epoch), 0)
	if span != nil {
		defer span()
	}
	ed := ckpt.EpochDir(dir, epoch)
	var localErr error
	if err := os.MkdirAll(ed, 0o755); err != nil {
		localErr = err
	}
	infos := make([]ckpt.ArrayInfo, len(arrays))
	for i, a := range arrays {
		if a.eng != e {
			return fmt.Errorf("spmd: checkpoint array %s is not on this engine", a.name)
		}
		infos[i] = ckpt.ArrayInfo{Name: a.name, Size: a.dom.Size()}
		if localErr != nil {
			continue
		}
		for _, p := range e.local {
			if err := ckpt.WriteShard(ed, ckpt.ShardName(i, p), a.lay.stores[p].data); err != nil {
				localErr = err
				break
			}
		}
	}
	// Job-wide counter aggregate, the collective behind Stats: the
	// phase bank drains first, so phase times ride the manifest and
	// survive a restore like every other counter.
	agg := e.aggregate().EncodeCounters()
	if err := e.tr.Err(); err != nil {
		return err
	}
	// Every process must agree the shards are durable before the
	// leader publishes; a local write error is vetoed job-wide so no
	// process trusts a checkpoint that is missing shards.
	ok := 1.0
	if localErr != nil {
		ok = 0
	}
	allOK := true
	e.allgather([]float64{ok}, func(_ int, v []float64) { allOK = allOK && len(v) == 1 && v[0] == 1 })
	if err := e.tr.Err(); err != nil {
		return err
	}
	if !allOK {
		if localErr != nil {
			return fmt.Errorf("spmd: checkpoint at epoch %d: %w", epoch, localErr)
		}
		return fmt.Errorf("spmd: checkpoint at epoch %d failed on a peer process", epoch)
	}
	if e.tr.Self() == 0 {
		if err := ckpt.Publish(dir, ckpt.Manifest{Epoch: epoch, NP: e.np, Arrays: infos, Counters: agg}); err != nil {
			e.tr.Fail(err) // peers must not proceed trusting a phantom checkpoint
			return err
		}
		// Old epochs are dead weight once CURRENT moved on; pruning
		// failures are cosmetic.
		_ = ckpt.Prune(dir, epoch)
	}
	if err := e.tr.Barrier(); err != nil { // published before anyone proceeds
		return err
	}
	return e.tr.Err()
}

// Restore loads the latest published checkpoint in dir back into the
// arrays, which must be the checkpointed arrays in checkpoint order
// (same names, domains and count — typically rebuilt by re-running
// the job's deterministic prologue on a fresh engine). Each process
// reads the shards of the ranks it now hosts, so the restore remaps
// the snapshot onto the current membership for free: shards are
// rank-keyed, not process-keyed. Counters are reset everywhere and
// the aggregate is folded into the leader's machine, restoring the
// job-wide Stats sum exactly. Returns the restored epoch.
//
// Values are copied into the existing per-rank stores in place, so
// schedules compiled against the arrays stay valid.
func (e *Engine) Restore(dir string, arrays []*Array) (int, error) {
	if err := e.tr.Err(); err != nil {
		return 0, err
	}
	defer e.chargeCheckpoint(obs.Now())()
	span := obs.BeginSpan("restore", "restore", 0)
	if span != nil {
		defer span()
	}
	man, ed, err := ckpt.Latest(dir)
	if err != nil {
		return 0, err
	}
	if man.NP != e.np {
		return 0, fmt.Errorf("spmd: checkpoint is for np=%d, engine has np=%d", man.NP, e.np)
	}
	if len(man.Arrays) != len(arrays) {
		return 0, fmt.Errorf("spmd: checkpoint holds %d arrays, restore got %d", len(man.Arrays), len(arrays))
	}
	for i, a := range arrays {
		if a.eng != e {
			return 0, fmt.Errorf("spmd: restore array %s is not on this engine", a.name)
		}
		if inf := man.Arrays[i]; inf.Name != a.name || inf.Size != a.dom.Size() {
			return 0, fmt.Errorf("spmd: checkpoint array %d is %s[%d], restore got %s[%d]",
				i, inf.Name, inf.Size, a.name, a.dom.Size())
		}
		for _, p := range e.local {
			if err := ckpt.ReadShard(ed, ckpt.ShardName(i, p), a.lay.stores[p].data); err != nil {
				return 0, err
			}
		}
	}
	e.Reset()
	if e.tr.Self() == 0 {
		if err := drained(e, func(m *machine.Machine) error { return m.MergeCounters(man.Counters) }); err != nil {
			return 0, fmt.Errorf("spmd: restoring checkpoint counters: %w", err)
		}
	}
	return man.Epoch, nil
}

// chargeCheckpoint returns a closure charging the wall time since t0
// as checkpoint phase. The dispatcher performs shard I/O on behalf of
// every hosted rank, so the elapsed time splits evenly across them:
// the job-wide checkpoint total then sums to roughly one collective
// wall time per process, not per rank.
func (e *Engine) chargeCheckpoint(t0 time.Time) func() {
	if !obs.TimingEnabled() {
		return func() {}
	}
	return func() {
		per := int64(time.Since(t0)) / int64(len(e.local))
		for _, p := range e.local {
			e.bank.add(p, machine.PhaseCheckpoint, per)
		}
	}
}
