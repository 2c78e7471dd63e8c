package job

import (
	"flag"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for a job member: re-executed
// as "<binary> member <mode>" it exits 0, exits 3 or hangs, which is
// all a supervisor can observe of a child.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "member" {
		switch os.Args[2] {
		case "ok":
			os.Exit(0)
		case "fail":
			os.Exit(3)
		case "hang":
			time.Sleep(2 * time.Minute) // bounded, should a dying test orphan it
		}
		os.Exit(64)
	}
	os.Exit(m.Run())
}

// members returns a member function running the given mode per process
// index, and the commands it handed out, in order.
func members(modes map[int]string) (func(int) *exec.Cmd, *[]*exec.Cmd) {
	var made []*exec.Cmd
	return func(idx int) *exec.Cmd {
		c := exec.Command(os.Args[0], "member", modes[idx])
		made = append(made, c)
		return c
	}, &made
}

func reaped(c *exec.Cmd) bool { return c.ProcessState != nil }

func TestWaitAllExitZero(t *testing.T) {
	member, made := members(map[int]string{1: "ok", 2: "ok", 3: "ok"})
	s, err := Start(4, member)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(10 * time.Second); err != nil {
		t.Fatalf("Wait on a clean job: %v", err)
	}
	if len(*made) != 3 {
		t.Fatalf("a 4-process job spawned %d members, want 3 (the caller is process 0)", len(*made))
	}
	for i, c := range *made {
		if !reaped(c) {
			t.Errorf("member %d not reaped", i+1)
		}
	}
}

func TestWaitNamesFailedAndHungMembers(t *testing.T) {
	member, made := members(map[int]string{1: "ok", 2: "hang", 3: "fail"})
	s, err := Start(4, member)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = s.Wait(2 * time.Second) // generous: a -race test binary starts slowly
	if err == nil {
		t.Fatal("Wait reported a job with a hung and a failed member as clean")
	}
	msg := err.Error()
	if !strings.Contains(msg, "worker process 2 did not exit within 2s; killed") ||
		!strings.Contains(msg, "worker process 3: exit status 3") || strings.Contains(msg, "process 1") {
		t.Fatalf("Wait error does not name the right members:\n%s", msg)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("Wait took %v with a 2s bound", d)
	}
	for i, c := range *made {
		if !reaped(c) {
			t.Errorf("member %d outlived Wait", i+1)
		}
	}
}

func TestRespawnReplacesExactlyOne(t *testing.T) {
	member, made := members(map[int]string{1: "hang", 2: "hang"})
	s, err := Start(3, member)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.KillAll(); s.Wait(10 * time.Second) }()
	first, second := (*made)[0], (*made)[1]
	if err := s.Respawn(2); err != nil {
		t.Fatal(err)
	}
	if len(*made) != 3 {
		t.Fatalf("Respawn built %d new commands, want 1", len(*made)-2)
	}
	if !reaped(second) || !strings.Contains(second.ProcessState.String(), "killed") {
		t.Errorf("replaced member: state %v, want killed and reaped", second.ProcessState)
	}
	if reaped(first) || s.kids[1] != first {
		t.Error("Respawn(2) touched member 1")
	}
	if s.kids[2] != (*made)[2] || s.kids[2].Process.Pid == second.Process.Pid {
		t.Error("member 2 was not replaced by the new process")
	}
	if err := s.Respawn(7); err == nil {
		t.Error("Respawn of an index the job does not have succeeded")
	}
}

func TestFailedSpawnReapsTheStarted(t *testing.T) {
	var made []*exec.Cmd
	s, err := Start(4, func(idx int) *exec.Cmd {
		c := exec.Command(os.Args[0], "member", "hang")
		if idx == 3 {
			c = exec.Command("/nonexistent/hpfnt-member")
		}
		made = append(made, c)
		return c
	})
	if err == nil || s != nil || !strings.Contains(err.Error(), "worker process 3") {
		t.Fatalf("Start = (%v, %v), want an error naming process 3", s, err)
	}
	for i, c := range made[:2] {
		if !reaped(c) {
			t.Errorf("member %d left running after a failed spawn", i+1)
		}
	}
}

func TestNoChildOutlivesKillAllAndWait(t *testing.T) {
	member, made := members(map[int]string{1: "hang", 2: "hang", 3: "hang"})
	s, err := Start(4, member)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	s.KillAll()
	if err := s.Wait(time.Minute); err == nil {
		t.Error("Wait reported killed members as a clean exit")
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("KillAll+Wait took %v: members were waited out, not killed", d)
	}
	for i, c := range *made {
		if !reaped(c) {
			t.Errorf("member %d outlived KillAll+Wait", i+1)
		}
	}
	if err := s.Wait(time.Second); err != nil {
		t.Errorf("second Wait, owning nothing: %v", err)
	}
}

func TestChildArgs(t *testing.T) {
	fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
	fs.Int("np", 8, "")
	fs.Int("budget", 0, "")
	fs.String("addr", "127.0.0.1:0", "")
	fs.String("http", "", "")
	fs.Bool("verbose", false, "")
	fs.Bool("spawn", false, "")
	fs.Int("self", 0, "")
	fs.Duration("timeout", time.Second, "")
	if err := fs.Parse([]string{"-budget", "67108864", "-verbose", "-spawn", "-addr", ":0", "-timeout", "90s", "prog.hpf"}); err != nil {
		t.Fatal(err)
	}
	got := ChildArgs(fs, map[string]string{"self": strconv.Itoa(2), "addr": "127.0.0.1:9137"}, "spawn")
	want := []string{"-addr=127.0.0.1:9137", "-budget=67108864", "-self=2", "-timeout=1m30s", "-verbose=true"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ChildArgs = %q\nwant        %q", got, want)
	}
	// What it builds must parse back to the same settings.
	child := flag.NewFlagSet("child", flag.ContinueOnError)
	np, budget := child.Int("np", 8, ""), child.Int("budget", 0, "")
	self, verbose := child.Int("self", 0, ""), child.Bool("verbose", false, "")
	child.String("addr", "", "")
	child.Duration("timeout", 0, "")
	if err := child.Parse(append(got, "prog.hpf")); err != nil {
		t.Fatal(err)
	}
	if *np != 8 || *budget != 67108864 || *self != 2 || !*verbose || child.Arg(0) != "prog.hpf" {
		t.Fatalf("child parsed np=%d budget=%d self=%d verbose=%v args=%q", *np, *budget, *self, *verbose, child.Args())
	}
}

func TestResolveAddr(t *testing.T) {
	a, err := ResolveAddr("127.0.0.1:0")
	if err != nil || strings.HasSuffix(a, ":0") {
		t.Fatalf("ResolveAddr = %q, %v; want a concrete port", a, err)
	}
	if _, err := ResolveAddr("256.0.0.1:bad"); err == nil {
		t.Fatal("ResolveAddr accepted a malformed address")
	}
}
