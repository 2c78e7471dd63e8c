// Package job is the localhost job supervisor of cmd/hpfrun's
// multi-process jobs: the leader resolves a rendezvous address, re-executes its own binary once per peer process with the
// flags the user set, and then owns those children — it can SIGKILL and
// replace one (the fault injector's respawn), kill them all when the
// leader has already failed the job, and reap them under a bound so a
// wedged member can never hang the command.
package job

import (
	"errors"
	"flag"
	"fmt"
	"maps"
	"net"
	"os"
	"os/exec"
	"slices"
	"sync"
	"time"
)

// ResolveAddr replaces a ":0" rendezvous port with a concrete free one,
// so the spawned peers can be told where to dial. The port is found by
// binding and closing it; the leader's transport re-binds it a moment
// later, and another process could take it in between — a window kept
// because closing it means handing the open listener to the transport.
func ResolveAddr(a string) (string, error) {
	ln, err := net.Listen("tcp", a)
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// ChildArgs builds the flag part of a re-executed member's argv from
// the leader's own command line: every flag the user set on fs is
// forwarded as -name=value — so a flag added to a command reaches its
// children without anyone maintaining a list — except the names in
// drop (flags that only mean something to the supervisor), and with the
// values in set replacing or adding to what the user gave (the member's
// own index, the resolved rendezvous address).
func ChildArgs(fs *flag.FlagSet, set map[string]string, drop ...string) []string {
	vals := map[string]string{}
	fs.Visit(func(f *flag.Flag) {
		if !slices.Contains(drop, f.Name) {
			vals[f.Name] = f.Value.String()
		}
	})
	for name, v := range set {
		vals[name] = v
	}
	var args []string
	for _, name := range slices.Sorted(maps.Keys(vals)) {
		args = append(args, "-"+name+"="+vals[name])
	}
	return args
}

// Command is the command for one member process: bin with args, its
// output joined to the leader's.
func Command(bin string, args ...string) *exec.Cmd {
	c := exec.Command(bin, args...)
	c.Stdout = os.Stdout
	c.Stderr = os.Stderr
	return c
}

// Supervisor owns the member processes a leader spawned, by process
// index.
type Supervisor struct {
	member func(idx int) *exec.Cmd
	mu     sync.Mutex
	kids   map[int]*exec.Cmd
}

// Start launches member processes 1..procs-1 (process 0 is the caller),
// building each one's command with member (only ever called by one
// goroutine at a time: here, then under Respawn's lock). If one fails to
// start, the ones already running are killed and reaped before the
// error returns.
func Start(procs int, member func(idx int) *exec.Cmd) (*Supervisor, error) {
	s := &Supervisor{member: member, kids: map[int]*exec.Cmd{}}
	for idx := 1; idx < procs; idx++ {
		c := member(idx)
		if err := c.Start(); err != nil {
			s.KillAll()
			s.Wait(0) // already killed: nothing to wait out
			return nil, fmt.Errorf("spawning worker process %d: %w", idx, err)
		}
		s.kids[idx] = c
	}
	return s, nil
}

// Respawn SIGKILLs member idx — no shutdown handshake, the real thing —
// reaps it and starts a replacement in its place.
func (s *Supervisor) Respawn(idx int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.kids[idx]
	if old == nil {
		return fmt.Errorf("no worker process %d to replace", idx)
	}
	old.Process.Kill()
	old.Wait()
	delete(s.kids, idx)
	c := s.member(idx)
	if err := c.Start(); err != nil {
		return fmt.Errorf("respawning worker process %d: %w", idx, err)
	}
	s.kids[idx] = c
	return nil
}

// KillAll forcibly terminates every member still owned.
func (s *Supervisor) KillAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.kids {
		c.Process.Kill()
	}
}

// Wait reaps every member and gives up ownership of them. Each wait is
// bounded so a wedged member cannot hang the supervisor: one that has
// not exited within bound is killed. The error names every member that
// exited non-zero or had to be killed.
func (s *Supervisor) Wait(bound time.Duration) error {
	s.mu.Lock()
	kids := s.kids
	s.kids = map[int]*exec.Cmd{}
	s.mu.Unlock()
	var errs []error
	for _, idx := range slices.Sorted(maps.Keys(kids)) {
		c := kids[idx]
		done := make(chan error, 1)
		go func() { done <- c.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				errs = append(errs, fmt.Errorf("worker process %d: %w", idx, err))
			}
		case <-time.After(bound):
			c.Process.Kill()
			<-done
			errs = append(errs, fmt.Errorf("worker process %d did not exit within %v; killed", idx, bound))
		}
	}
	return errors.Join(errs...)
}
