package main

import (
	"flag"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"hpfnt/internal/job"
)

// TestEverySetFlagReachesThePeers: whatever the user set on the leader
// — a statement budget above the default, say — must be on the argv of
// the peers it spawns, or they run a different job. Only the
// supervisor's own flags stay behind.
func TestEverySetFlagReachesThePeers(t *testing.T) {
	set := map[string]string{"self": "1", "addr": "127.0.0.1:9137"}
	own := func(visit func(*flag.Flag)) { // the command's flags, not the test binary's
		flag.VisitAll(func(f *flag.Flag) {
			if !strings.HasPrefix(f.Name, "test.") {
				visit(f)
			}
		})
	}
	own(func(f *flag.Flag) {
		var v string
		switch f.Value.(flag.Getter).Get().(type) {
		case int:
			v = "67108864"
		case bool:
			v = "true"
		case time.Duration:
			v = "90s"
		default:
			v = "x-" + f.Name
		}
		if err := flag.Set(f.Name, v); err != nil {
			t.Fatalf("-%s=%s: %v", f.Name, v, err)
		}
	})
	args := job.ChildArgs(flag.CommandLine, set, supervisorFlags...)
	own(func(f *flag.Flag) {
		want := "-" + f.Name + "=" + f.Value.String()
		if v, ok := set[f.Name]; ok {
			want = "-" + f.Name + "=" + v
		}
		if has := slices.Contains(args, want); has == slices.Contains(supervisorFlags, f.Name) {
			t.Errorf("flag -%s: forwarded=%v in %q", f.Name, has, args)
		}
	})
}

// TestSpawnedJobVerifies builds the command and runs the corpus gather
// program as a real 2-process shm job; the leader must print the
// program's output first and verify against the in-process engine.
func TestSpawnedJobVerifies(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "hpfrun")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	prog := filepath.Join("..", "..", "internal", "interp", "testdata", "programs", "gather.hpf")
	out, err := exec.Command(bin, "-spawn", "-procs", "2", "-transport", "shm", "-job", "hpfrun-test", "-max-statements", "2000000", prog).CombinedOutput()
	if err != nil {
		t.Fatalf("hpfrun -spawn: %v\n%s", err, out)
	}
	if !strings.HasPrefix(string(out), "hpfrun[0]:") {
		t.Errorf("first output line is not the leader's:\n%s", out)
	}
	if !strings.Contains(string(out), "verified on the shm wire") {
		t.Errorf("job did not verify:\n%s", out)
	}
}
