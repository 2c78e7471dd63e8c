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

// buildHpfrun builds the command into a temp dir.
func buildHpfrun(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "hpfrun")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestSpawnedJobRecovers runs the corpus heat2d program as a real
// 3-process shm job whose process 2 the supervisor SIGKILLs after the
// first checkpoint: the job must roll back, take the replacement in,
// and still verify against the in-process engine.
func TestSpawnedJobRecovers(t *testing.T) {
	bin := buildHpfrun(t)
	prog := filepath.Join("..", "..", "internal", "interp", "testdata", "programs", "heat2d.hpf")
	out, err := exec.Command(bin, "-spawn", "-procs", "3", "-transport", "shm", "-job", "hpfrun-recovery-test",
		"-checkpoint-every", "2", "-retries", "2", "-heartbeat", "25ms", "-kill-proc", "2", prog).CombinedOutput()
	if err != nil {
		t.Fatalf("hpfrun -kill-proc: %v\n%s", err, out)
	}
	for _, line := range []string{"hpfrun[0]: survived 1 member loss", "verified on the shm wire"} {
		if !strings.Contains(string(out), line) {
			t.Errorf("no %q line:\n%s", line, out)
		}
	}
}

// TestCheckpointNeedsJobName: the checkpoint directory is named after
// the job and cleared by its leader, so a checkpointing job left at the
// default name is refused rather than sharing that directory with
// another job.
func TestCheckpointNeedsJobName(t *testing.T) {
	bin := buildHpfrun(t)
	prog := filepath.Join("..", "..", "internal", "interp", "testdata", "programs", "heat2d.hpf")
	for _, flags := range [][]string{{"-checkpoint-every", "2"}, {"-retries", "1"}} {
		args := append([]string{"-spawn", "-procs", "2", "-transport", "shm"}, append(flags, prog)...)
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err == nil {
			t.Fatalf("%v without -job succeeded:\n%s", flags, out)
		}
		if !strings.Contains(string(out), "need a -job name of their own") {
			t.Errorf("%v without -job: error does not ask for a job name:\n%s", flags, out)
		}
	}
}

// TestCheckpointNeedsEpochLoop: asking to checkpoint a program that
// has no epoch loop is an error naming the line, not a job that
// silently never checkpoints.
func TestCheckpointNeedsEpochLoop(t *testing.T) {
	bin := buildHpfrun(t)
	prog := filepath.Join("..", "..", "internal", "interp", "testdata", "programs", "gather.hpf")
	out, err := exec.Command(bin, "-spawn", "-procs", "2", "-transport", "shm", "-checkpoint-every", "1", prog).CombinedOutput()
	if err == nil {
		t.Fatalf("checkpointing a program without an epoch loop succeeded:\n%s", out)
	}
	if !strings.Contains(string(out), "-checkpoint-every needs an epoch loop") || !strings.Contains(string(out), "line ") {
		t.Errorf("error does not name the missing epoch loop and its line:\n%s", out)
	}
}
