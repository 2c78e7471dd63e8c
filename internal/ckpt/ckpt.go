// Package ckpt is the on-disk checkpoint format of fault-tolerant
// jobs: per-rank array shards plus a JSON manifest carrying the
// epoch and the job-wide aggregated machine counters, grouped in one
// directory per checkpointed epoch under a job's spill directory. A
// checkpoint becomes visible only when the manifest is written and
// the CURRENT pointer file is atomically renamed over — a crash mid-
// checkpoint leaves CURRENT on the previous complete epoch, so
// Latest never observes a torn snapshot. Shards are keyed by
// (array index, rank), not by process, which is what lets a restore
// remap the data onto a different membership: each surviving or
// replacement process simply reads the shards of the ranks it now
// hosts (see the engine Checkpoint/Restore implementations and
// package elastic).
package ckpt

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// currentFile is the pointer file naming the latest complete
// checkpoint's directory (relative to the spill dir).
const currentFile = "CURRENT"

// ErrNoCheckpoint reports that the spill directory holds no published
// checkpoint.
var ErrNoCheckpoint = errors.New("ckpt: no checkpoint published")

// Manifest describes one complete checkpoint.
type Manifest struct {
	// Epoch is the epoch the snapshot was taken at: every array holds
	// its values after exactly Epoch executed epochs.
	Epoch int `json:"epoch"`
	// NP is the abstract processor (rank) count of the job.
	NP int `json:"np"`
	// Arrays lists the checkpointed arrays in checkpoint order; a
	// restore must present the same arrays in the same order.
	Arrays []ArrayInfo `json:"arrays"`
	// Counters is the job-wide aggregated counter vector
	// (machine.EncodeCounters) at the checkpoint, so a restored job
	// reports the same machine.Report an uninterrupted run would.
	Counters []float64 `json:"counters"`
}

// ArrayInfo identifies one checkpointed array.
type ArrayInfo struct {
	Name string `json:"name"`
	Size int    `json:"size"` // total elements, a shape check on restore
}

// EpochDir returns the directory of the given epoch's checkpoint.
func EpochDir(dir string, epoch int) string {
	return filepath.Join(dir, fmt.Sprintf("ck-%d", epoch))
}

// ShardName returns the file name of one array's per-rank shard.
func ShardName(array, rank int) string {
	return fmt.Sprintf("a%d-r%d.f64", array, rank)
}

// WriteShard durably writes one shard (write-to-temp then rename, so
// a concurrently crashing process never leaves a short file under the
// final name).
func WriteShard(epochDir, name string, vals []float64) error {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	tmp := filepath.Join(epochDir, name+".tmp")
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return fmt.Errorf("ckpt: writing shard %s: %w", name, err)
	}
	if err := os.Rename(tmp, filepath.Join(epochDir, name)); err != nil {
		return fmt.Errorf("ckpt: publishing shard %s: %w", name, err)
	}
	return nil
}

// ReadShard reads one shard into dst, which must match its length
// exactly (a shape mismatch means the checkpoint belongs to a
// different job configuration).
func ReadShard(epochDir, name string, dst []float64) error {
	b, err := os.ReadFile(filepath.Join(epochDir, name))
	if err != nil {
		return fmt.Errorf("ckpt: reading shard %s: %w", name, err)
	}
	if len(b) != 8*len(dst) {
		return fmt.Errorf("ckpt: shard %s holds %d elements, want %d", name, len(b)/8, len(dst))
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return nil
}

// Publish writes the manifest into its epoch directory and atomically
// repoints CURRENT at it, making the checkpoint the one Latest
// returns. Call it once per checkpoint, after every shard is written
// (the leader does, after a barrier).
func Publish(dir string, m Manifest) error {
	ed := EpochDir(dir, m.Epoch)
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return fmt.Errorf("ckpt: encoding manifest: %w", err)
	}
	tmp := filepath.Join(ed, "manifest.json.tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("ckpt: writing manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(ed, "manifest.json")); err != nil {
		return fmt.Errorf("ckpt: publishing manifest: %w", err)
	}
	cur := filepath.Join(dir, currentFile)
	if err := os.WriteFile(cur+".tmp", []byte(filepath.Base(ed)+"\n"), 0o644); err != nil {
		return fmt.Errorf("ckpt: writing %s: %w", currentFile, err)
	}
	if err := os.Rename(cur+".tmp", cur); err != nil {
		return fmt.Errorf("ckpt: publishing %s: %w", currentFile, err)
	}
	return nil
}

// Latest returns the latest published checkpoint's manifest and its
// epoch directory, or ErrNoCheckpoint when none has been published.
// CURRENT is input read back from disk: it must name a ck-<n>
// directory directly under dir (no path, no other spelling of n), and
// the manifest there must be epoch n's, for at least one rank, with no
// negative array size. Anything else is an error, never a manifest
// read from outside dir.
func Latest(dir string) (Manifest, string, error) {
	b, err := os.ReadFile(filepath.Join(dir, currentFile))
	if err != nil {
		if os.IsNotExist(err) {
			return Manifest{}, "", ErrNoCheckpoint
		}
		return Manifest{}, "", fmt.Errorf("ckpt: reading %s: %w", currentFile, err)
	}
	name := strings.TrimSpace(string(b))
	epoch, err := strconv.Atoi(strings.TrimPrefix(name, "ck-"))
	if err != nil || epoch < 0 || name != filepath.Base(EpochDir(dir, epoch)) {
		return Manifest{}, "", fmt.Errorf("ckpt: %s names %q, not a checkpoint directory", currentFile, name)
	}
	ed := EpochDir(dir, epoch)
	mb, err := os.ReadFile(filepath.Join(ed, "manifest.json"))
	if err != nil {
		return Manifest{}, "", fmt.Errorf("ckpt: reading manifest of %s: %w", ed, err)
	}
	var m Manifest
	if err := json.Unmarshal(mb, &m); err != nil {
		return Manifest{}, "", fmt.Errorf("ckpt: decoding manifest of %s: %w", ed, err)
	}
	if m.Epoch != epoch || m.NP < 1 || slices.ContainsFunc(m.Arrays, func(a ArrayInfo) bool { return a.Size < 0 }) {
		return Manifest{}, "", fmt.Errorf("ckpt: manifest of %s is not a checkpoint of epoch %d (epoch %d, np %d)", ed, epoch, m.Epoch, m.NP)
	}
	return m, ed, nil
}

// Prune removes every checkpoint directory except the given epoch's
// (the leader calls it after publishing, bounding the spill
// directory to one complete checkpoint plus the one being written).
func Prune(dir string, keep int) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	keepName := filepath.Base(EpochDir(dir, keep))
	var firstErr error
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "ck-") || e.Name() == keepName {
			continue
		}
		if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
