package obs

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestRegistryWithLabels(t *testing.T) {
	root := NewRegistry()
	jobA, err := root.WithLabels("job", "heat", "generation", "0")
	if err != nil {
		t.Fatal(err)
	}
	jobB, err := root.WithLabels("job", "wave", "generation", "2")
	if err != nil {
		t.Fatal(err)
	}
	// The same family registered from two scoped views plus extra
	// per-sample labels: samples must merge under one TYPE block, each
	// carrying its view's scope labels first.
	reg := func(r *Registry, v float64) error {
		return r.Counter("scoped_total", "Scoped counter.", []string{"rank"}, func() []Sample {
			return []Sample{{Labels: []string{"1"}, Value: v}}
		})
	}
	if err := reg(jobA, 10); err != nil {
		t.Fatal(err)
	}
	if err := reg(jobB, 20); err != nil {
		t.Fatal(err)
	}
	// An unscoped family on the root must stay label-free.
	if err := root.Gauge("plain_gauge", "Unscoped.", nil, func() []Sample { return one(7) }); err != nil {
		t.Fatal(err)
	}
	text := string(root.Expose())
	for _, want := range []string{
		`scoped_total{job="heat",generation="0",rank="1"} 10`,
		`scoped_total{job="wave",generation="2",rank="1"} 20`,
		"plain_gauge 7",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	if n := strings.Count(text, "# TYPE scoped_total counter"); n != 1 {
		t.Errorf("family scoped_total has %d TYPE blocks, want 1:\n%s", n, text)
	}
	if n, err := ValidateExposition([]byte(text)); err != nil || n != 3 {
		t.Errorf("merged exposition invalid (n=%d): %v\n%s", n, err, text)
	}
	// Exposing through a scoped view reads the same shared core.
	if got := string(jobA.Expose()); got != text {
		t.Error("scoped view exposes a different document than the root")
	}
}

// one wraps a single unlabeled sample (test helper mirroring hpfrun's).
func one(v float64) []Sample { return []Sample{{Value: v}} }

func TestRegistryWithLabelsConflicts(t *testing.T) {
	root := NewRegistry()
	if _, err := root.WithLabels("job"); err == nil {
		t.Error("odd pair count must be rejected")
	}
	if _, err := root.WithLabels("bad-label", "x"); err == nil {
		t.Error("invalid scope label name must be rejected")
	}
	jobA, _ := root.WithLabels("job", "a")
	jobB, _ := root.WithLabels("job", "b")
	if err := jobA.Counter("fam_total", "h", nil, func() []Sample { return nil }); err != nil {
		t.Fatal(err)
	}
	// Same family, different kind: rejected even across views.
	if err := jobB.Gauge("fam_total", "h", nil, func() []Sample { return nil }); err == nil {
		t.Error("kind conflict across scoped views must be rejected")
	}
	// Same family, different label names: rejected.
	if err := jobB.Counter("fam_total", "h", []string{"rank"}, func() []Sample { return nil }); err == nil {
		t.Error("label-set conflict across scoped views must be rejected")
	}
	// Same family, same shape, other scope value: fine.
	if err := jobB.Counter("fam_total", "h", nil, func() []Sample { return nil }); err != nil {
		t.Errorf("matching re-registration from a second view rejected: %v", err)
	}
}

func TestExposeEscapesLabelValues(t *testing.T) {
	reg := NewRegistry()
	err := reg.Gauge("escape_gauge", "Escaping.", []string{"v"}, func() []Sample {
		return []Sample{{Labels: []string{"line\nbreak \"quoted\" back\\slash"}, Value: 1}}
	})
	if err != nil {
		t.Fatal(err)
	}
	text := reg.Expose()
	want := `escape_gauge{v="line\nbreak \"quoted\" back\\slash"} 1`
	if !strings.Contains(string(text), want) {
		t.Fatalf("label value not escaped per exposition rules:\n%s", text)
	}
	if _, err := ValidateExposition(text); err != nil {
		t.Fatalf("escaped exposition does not validate: %v\n%s", err, text)
	}
}

func TestValidateExpositionEdgeCases(t *testing.T) {
	// NaN and ±Inf are legal sample values in the text format, and
	// escaped label values must parse.
	valid := []byte(`# TYPE edge_gauge gauge
edge_gauge{q="NaN case"} NaN
edge_gauge{q="plus"} +Inf
edge_gauge{q="minus"} -Inf
edge_gauge{q="esc\n\"\\"} 1
`)
	n, err := ValidateExposition(valid)
	if err != nil {
		t.Fatalf("edge-case exposition rejected: %v", err)
	}
	if n != 4 {
		t.Errorf("validated %d samples, want 4", n)
	}
	// A family whose # TYPE appears twice is torn metadata — exactly
	// what a buggy merge of two registries would produce.
	dup := []byte("# TYPE m gauge\nm 1\n# TYPE m gauge\nm 2\n")
	if _, err := ValidateExposition(dup); err == nil {
		t.Error("duplicate # TYPE for one family accepted")
	}
	if _, err := ValidateExposition([]byte("# TYPE m gauge\n# TYPE m counter\nm 1\n")); err == nil {
		t.Error("conflicting duplicate # TYPE accepted")
	}
}

func TestServeHealthzAndShutdown(t *testing.T) {
	reg := testRegistry(t)
	addr, shutdown, err := reg.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("/healthz returned %d %q, want 200 ok", resp.StatusCode, body)
	}
	// Graceful shutdown must leave the port closed: a follow-up scrape
	// fails to connect instead of hanging.
	shutdown()
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("endpoint still serving after shutdown")
	}
	// Shutting down twice must be harmless.
	shutdown()
}
