package ckpt

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestShardRoundtrip(t *testing.T) {
	dir := t.TempDir()
	vals := []float64{0, 1.5, -2.25, 3e100, -0}
	if err := WriteShard(dir, ShardName(0, 3), vals); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, len(vals))
	if err := ReadShard(dir, ShardName(0, 3), got); err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("shard element %d: got %g, want %g", i, got[i], vals[i])
		}
	}
	// Length mismatch is a hard error, not a silent truncation.
	short := make([]float64, len(vals)-1)
	if err := ReadShard(dir, ShardName(0, 3), short); err == nil {
		t.Fatal("short destination accepted")
	}
}

func TestLatestEmptyDir(t *testing.T) {
	if _, _, err := Latest(t.TempDir()); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Latest on empty dir = %v, want ErrNoCheckpoint", err)
	}
	if _, _, err := Latest(filepath.Join(t.TempDir(), "missing")); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Latest on missing dir = %v, want ErrNoCheckpoint", err)
	}
}

func TestPublishLatestPrune(t *testing.T) {
	dir := t.TempDir()
	for _, epoch := range []int{2, 4} {
		ed := EpochDir(dir, epoch)
		if err := os.MkdirAll(ed, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := WriteShard(ed, ShardName(0, 0), []float64{float64(epoch)}); err != nil {
			t.Fatal(err)
		}
		m := Manifest{Epoch: epoch, NP: 4,
			Arrays:   []ArrayInfo{{Name: "A", Size: 1}},
			Counters: []float64{1, 2, 3}}
		if err := Publish(dir, m); err != nil {
			t.Fatal(err)
		}
	}
	man, ed, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Epoch != 4 || man.NP != 4 || len(man.Arrays) != 1 || man.Arrays[0].Name != "A" {
		t.Fatalf("Latest manifest = %+v", man)
	}
	buf := make([]float64, 1)
	if err := ReadShard(ed, ShardName(0, 0), buf); err != nil || buf[0] != 4 {
		t.Fatalf("latest shard = %v, %v", buf, err)
	}
	if err := Prune(dir, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(EpochDir(dir, 2)); !os.IsNotExist(err) {
		t.Fatal("Prune left the stale epoch directory")
	}
	if _, _, err := Latest(dir); err != nil {
		t.Fatalf("Latest after Prune: %v", err)
	}
}

// TestTornCheckpointInvisible checks crash atomicity: an epoch
// directory written without a Publish must not become the latest
// checkpoint — the previous complete one stays current.
func TestTornCheckpointInvisible(t *testing.T) {
	dir := t.TempDir()
	ed := EpochDir(dir, 1)
	if err := os.MkdirAll(ed, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteShard(ed, ShardName(0, 0), []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := Publish(dir, Manifest{Epoch: 1, NP: 1, Arrays: []ArrayInfo{{Name: "A", Size: 1}}}); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-checkpoint at epoch 2: shards on disk, no
	// manifest publish, CURRENT untouched.
	torn := EpochDir(dir, 2)
	if err := os.MkdirAll(torn, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteShard(torn, ShardName(0, 0), []float64{2}); err != nil {
		t.Fatal(err)
	}
	man, _, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Epoch != 1 {
		t.Fatalf("torn checkpoint became current: epoch %d", man.Epoch)
	}
}

// writeLatest lays out a spill directory holding CURRENT and, in the
// ck-3 directory, manifest.json with the given bytes.
func writeLatest(t testing.TB, current, manifest []byte) string {
	dir := t.TempDir()
	if err := os.MkdirAll(EpochDir(dir, 3), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(EpochDir(dir, 3), "manifest.json"), manifest, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, currentFile), current, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestLatestRefusesForeignPointer: CURRENT must name a ck-<n>
// directory of dir whose manifest is epoch n's. A relative or absolute
// path out of dir, another spelling of the epoch, or a manifest of
// another epoch, without ranks or with a negative size is an error,
// whatever the file it points at holds.
func TestLatestRefusesForeignPointer(t *testing.T) {
	good := `{"epoch":3,"np":2,"arrays":[{"name":"A","size":4}]}`
	outside := t.TempDir()
	if err := os.WriteFile(filepath.Join(outside, "manifest.json"), []byte(good), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ current, manifest string }{
		{"../x", good},
		{outside, good},
		{"ck-3/../ck-3", good},
		{"ck-03", good},
		{"ck-+3", good},
		{"3", good},
		{"ck--3", good},
		{"ck-3", `{"epoch":4,"np":2}`},
		{"ck-3", `{"epoch":3,"np":0}`},
		{"ck-3", `{"epoch":3,"np":2,"arrays":[{"name":"A","size":-1}]}`},
	} {
		dir := writeLatest(t, []byte(tc.current), []byte(tc.manifest))
		if m, ed, err := Latest(dir); err == nil {
			t.Errorf("CURRENT %q, manifest %s: accepted %+v at %s", tc.current, tc.manifest, m, ed)
		}
	}
	dir := writeLatest(t, []byte("ck-3\n"), []byte(good))
	if m, ed, err := Latest(dir); err != nil || m.Epoch != 3 || ed != EpochDir(dir, 3) {
		t.Fatalf("Latest = %+v, %s, %v", m, ed, err)
	}
}

// FuzzLatest: whatever CURRENT and manifest.json hold, Latest never
// panics, and what it accepts is a manifest it validated, read from
// directly under the spill directory.
func FuzzLatest(f *testing.F) {
	f.Add([]byte("ck-3\n"), []byte(`{"epoch":3,"np":2,"arrays":[{"name":"A","size":4}],"counters":[1]}`))
	f.Add([]byte("../ck-3"), []byte(`{"epoch":3,"np":1}`))
	f.Add([]byte("/etc"), []byte(`{"epoch":-1}`))
	f.Add([]byte("ck-3"), []byte(`{"epoch":3,"np":1,"arrays":[{"size":-5}]}`))
	f.Fuzz(func(t *testing.T, current, manifest []byte) {
		dir := writeLatest(t, current, manifest)
		m, ed, err := Latest(dir)
		if err != nil {
			return
		}
		if ed != EpochDir(dir, m.Epoch) || m.Epoch < 0 || m.NP < 1 {
			t.Fatalf("accepted epoch %d np %d at %s", m.Epoch, m.NP, ed)
		}
		for _, a := range m.Arrays {
			if a.Size < 0 {
				t.Fatalf("accepted array %+v", a)
			}
		}
	})
}
