package main

import (
	"flag"
	"slices"
	"strings"
	"testing"
	"time"

	"hpfnt/internal/job"
)

// TestEverySetFlagReachesTheWorkers: whatever the user set on the leader
// — a heartbeat interval, a checkpoint cadence — must be on the argv of
// the workers it spawns, or they run a different job. Only the
// supervisor's own flags stay behind.
func TestEverySetFlagReachesTheWorkers(t *testing.T) {
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
