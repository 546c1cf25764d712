package main

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bonnie"
	"repro/internal/harness"
)

// setFlags applies flag values for one test and restores the previous
// values afterward, since the axis flags are package globals.
func setFlags(t *testing.T, kv map[string]string) {
	t.Helper()
	for name, value := range kv {
		f := flag.Lookup(name)
		if f == nil {
			t.Fatalf("no flag -%s", name)
		}
		prev := f.Value.String()
		if err := flag.Set(name, value); err != nil {
			t.Fatalf("set -%s=%s: %v", name, value, err)
		}
		t.Cleanup(func() { flag.Set(name, prev) })
	}
}

func mustGrid(t *testing.T) harness.Grid {
	t.Helper()
	g, err := buildGrid()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// The default flag values build the classic one-cell write grid, with
// none of the newer axes leaking into the scenario key.
func TestBuildGridDefaults(t *testing.T) {
	scens := mustGrid(t).Expand()
	if len(scens) != 1 {
		t.Fatalf("default grid expanded to %d scenarios, want 1", len(scens))
	}
	sc := scens[0]
	if sc.Workload != bonnie.WorkloadWrite || sc.FileMB != 40 {
		t.Fatalf("default scenario = %+v", sc)
	}
	if key := sc.Key(); strings.Contains(key, "/zipf") || strings.Contains(key, "/ac") {
		t.Fatalf("default key %q mentions zipf axes", key)
	}
}

// The zipf flags thread through to the grid: populations, skews, and
// cache windows are axes; the op mix is a scalar knob.
func TestBuildGridZipfAxes(t *testing.T) {
	setFlags(t, map[string]string{
		"workload":  "zipf",
		"sizes":     "4",
		"files":     "100,1000",
		"zipf-s":    "1.2,uniform",
		"opmix":     "10/30/40/15/5",
		"actimeout": "off,default",
	})
	scens := mustGrid(t).Expand()
	if len(scens) != 8 { // 2 populations x 2 skews x 2 cache windows
		t.Fatalf("zipf grid expanded to %d scenarios, want 8", len(scens))
	}
	wantMix := bonnie.OpMix{Create: 10, Write: 30, Read: 40, Stat: 15, Remove: 5}
	keys := map[string]bool{}
	for _, sc := range scens {
		if sc.Workload != bonnie.WorkloadZipf || sc.Mix != wantMix {
			t.Fatalf("scenario missing zipf knobs: %+v", sc)
		}
		keys[sc.Key()] = true
	}
	if len(keys) != 8 {
		t.Fatalf("zipf axes collapsed into %d keys", len(keys))
	}
}

// The integer-list axes (-cpus here) trim spaces and reject
// non-positive or malformed entries.
func TestParseIntList(t *testing.T) {
	setFlags(t, map[string]string{"cpus": "1, 2,8"})
	if g := mustGrid(t); !reflect.DeepEqual(g.ClientCPUs, []int{1, 2, 8}) {
		t.Fatalf("-cpus 1, 2,8 = %v", g.ClientCPUs)
	}
	setFlags(t, map[string]string{"cpus": ""})
	if g := mustGrid(t); g.ClientCPUs != nil {
		t.Fatalf("empty -cpus = %v", g.ClientCPUs)
	}
	for _, bad := range []string{"0", "-3", "x", "1,,2"} {
		setFlags(t, map[string]string{"cpus": bad})
		if _, err := buildGrid(); err == nil || !strings.HasPrefix(err.Error(), "-cpus:") {
			t.Fatalf("-cpus %q: err %v", bad, err)
		}
	}
}

// Every table flag has a row in docs/experiments.md §1, so the guide
// cannot drift from the command line again.
func TestAxisFlagsDocumented(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "experiments.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, sec1, _ := strings.Cut(string(doc), "## 1. The sweep grid")
	sec1, _, _ = strings.Cut(sec1, "## 2.")
	fs := flag.NewFlagSet("nfssweep", flag.ContinueOnError)
	harness.GridFlags(fs)
	fs.VisitAll(func(f *flag.Flag) {
		if !strings.Contains(sec1, "| `-"+f.Name) {
			t.Errorf("-%s has no row in docs/experiments.md §1", f.Name)
		}
	})
}

func TestRenderersFor(t *testing.T) {
	for format, ext := range map[string]string{"csv": "csv", "json": "json", "table": "txt"} {
		r := renderersFor(format)
		if r.ext != ext || r.results == nil || r.aggregates == nil {
			t.Fatalf("renderersFor(%q) = %+v", format, r)
		}
	}
}

// One tiny scenario through the same path main drives: the default grid
// shrunk to 1 MB runs, produces a result row, and renders on every
// output format.
func TestOneScenarioRuns(t *testing.T) {
	setFlags(t, map[string]string{"sizes": "1"})
	scens := mustGrid(t).Expand()
	if len(scens) != 1 {
		t.Fatalf("expanded %d scenarios", len(scens))
	}
	results := (&harness.Runner{Workers: 1}).Run(scens)
	if len(results) != 1 || results[0].WriteMBps <= 0 {
		t.Fatalf("results = %+v", results)
	}
	for _, render := range []func([]harness.Result) string{
		harness.ResultsCSV, harness.ResultsJSON, harness.ResultsTable,
	} {
		if out := render(results); !strings.Contains(out, "filer") {
			t.Fatalf("render missing scenario row:\n%s", out)
		}
	}
}
