package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// Every experiment name is unique, documented, and runnable, and the
// zipf entry added with the metadata path is registered.
func TestRunnersWellFormed(t *testing.T) {
	rs := runners()
	seen := map[string]bool{}
	for _, r := range rs {
		if r.name == "" || r.desc == "" || r.run == nil {
			t.Fatalf("malformed runner %+v", r)
		}
		if seen[r.name] {
			t.Fatalf("duplicate experiment name %q", r.name)
		}
		seen[r.name] = true
	}
	for _, want := range []string{"fig1", "fig7", "loss", "read", "random", "db", "zipf"} {
		if !seen[want] {
			t.Fatalf("experiment %q not registered", want)
		}
	}
}

// The usage text lists every registered experiment, so `nfsbench -h`
// never drifts from the runner table.
func TestUsageListsEveryExperiment(t *testing.T) {
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	usage()
	w.Close()
	os.Stderr = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, rn := range runners() {
		if !strings.Contains(string(out), rn.name) {
			t.Fatalf("usage output missing experiment %q:\n%s", rn.name, out)
		}
	}
	if !strings.Contains(string(out), "all") {
		t.Fatalf("usage output missing the all pseudo-experiment:\n%s", out)
	}
}

// The package comment documents every registered experiment, so
// `go doc` never drifts from the runner table.
func TestDocListsEveryRunner(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "\npackage main")
	for _, r := range runners() {
		if !strings.Contains(doc, "//\tnfsbench "+r.name+" ") {
			t.Errorf("main.go's package comment has no \"nfsbench %s\" line", r.name)
		}
	}
}

// The zipf runner executes end to end and renders the metadata table
// with its headline comparisons — a smoke test of the whole experiment
// path through main's dispatch table.
func TestZipfRunnerProducesReport(t *testing.T) {
	for _, r := range runners() {
		if r.name != "zipf" {
			continue
		}
		out := r.run()
		for _, want := range []string{"Many-file metadata", "attribute cache:", "hot-set skew:"} {
			if !strings.Contains(out, want) {
				t.Fatalf("zipf report missing %q:\n%s", want, out)
			}
		}
		return
	}
	t.Fatal("zipf runner not found")
}
