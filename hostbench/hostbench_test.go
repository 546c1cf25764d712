package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
)

func TestChargeToHandBuiltProfile(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.chansend", "runtime.chansend1", "repro/internal/sim.(*Proc).park",
			"repro/internal/sim.(*Proc).Sleep", "repro/internal/core.(*Client).flushd"}, "sim"},
		{[]string{"runtime.memmove", "runtime.mallocgc", "runtime.growslice",
			"repro/internal/xdr.(*Encoder).Grow", "repro/internal/nfsproto.(*WriteArgs).Encode"}, "xdr"},
		{[]string{"runtime.mapaccess2", "repro/internal/core.(*Client).commitPage.func1"}, "core"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.mcall"}, "runtime.sched"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.mallocgc", "repro/internal/streamsim.(*Endpoint).HandleDatagram"}, "other"},
		{[]string{"encoding/json.Marshal", "main.makeFingerprint", "main.runScenario"}, "other"},
		{[]string{"repro.NewTestbed", "repro/internal/harness.RunScenarioOn"}, "other"},
		{nil, "runtime.sched"},
	}
	var samples []sample
	for i, c := range cases {
		if got := chargeTo(c.frames); got != c.want {
			t.Errorf("chargeTo(%v) = %s, want %s", c.frames, got, c.want)
		}
		samples = append(samples, sample{c.frames, float64(i + 1)})
	}

	got := shares(samples)
	sum := 0.0
	for m, s := range got {
		if !slices.Contains(cpuModules, m) {
			t.Errorf("share charged to %q, which is not a printed layer", m)
		}
		sum += s
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	// Weights are 1..9: "other" holds samples 6, 7 and 8 of a total 45.
	if want := 21.0 / 45; math.Abs(got["other"]-want) > 1e-12 {
		t.Errorf("other share = %v, want %v", got["other"], want)
	}
}

var allocSink [][]byte

func TestParseProfileFromRuntime(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	for range 100 {
		allocSink = append(allocSink, make([]byte, 64))
	}
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		if len(s.frames) == 0 {
			t.Fatal("sample without frames")
		}
		found = found || slices.ContainsFunc(s.frames, func(f string) bool { return strings.HasPrefix(f, "testing.") })
	}
	if !found {
		t.Errorf("no sample among %d has a testing frame", len(samples))
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}

// tinyScenario is a sub-second write run on the filer.
func tinyScenario() harness.Scenario {
	sc := harness.Grid{Configs: []harness.ClientConfig{enhanced}, FileSizesMB: []int{1}, Clients: []int{2}}.Expand()[0]
	sc.Seed = scenarioSeed(1, 0)
	return sc
}

func TestPerturbedFingerprintAndShortRunFail(t *testing.T) {
	sc := tinyScenario()
	ok := runScenario(sc)
	if why := check(ok, nil); why != "" {
		t.Fatalf("baseline run fails: %s", why)
	}

	perturbed := maps.Clone(ok.fp)
	perturbed["agg_mbps"] = json.RawMessage("1.5")
	b := &bench{w: workload{name: "tiny"}, seed: 1, scs: []harness.Scenario{sc}, want: []fingerprint{perturbed}}
	b.pass()
	if b.attempted != 1 || b.failed != 1 {
		t.Errorf("perturbed fingerprint: attempted %d failed %d, want 1 and 1", b.attempted, b.failed)
	}

	short := ok
	short.calls--
	if check(short, ok.fp) == "" {
		t.Error("a run one call short passes")
	}
	cut := sc
	cut.TimeLimit = time.Millisecond
	b = &bench{w: workload{name: "tiny"}, seed: 1, scs: []harness.Scenario{cut}}
	b.pass()
	if b.attempted != 1 || b.failed != 1 {
		t.Errorf("run cut at 1 ms: attempted %d failed %d, want 1 and 1", b.attempted, b.failed)
	}

	b = &bench{w: workload{name: "tiny"}, seed: 1, scs: []harness.Scenario{sc}, want: []fingerprint{ok.fp}}
	b.pass()
	if b.failed != 0 {
		t.Errorf("identical rerun counted %d failures", b.failed)
	}
}

func TestFingerprintDiffIgnoresNewKeysOnly(t *testing.T) {
	want := fingerprint{"a": json.RawMessage("1"), "b": json.RawMessage("[1, 2]")}
	got := fingerprint{"a": json.RawMessage("1"), "b": json.RawMessage("[1,2]"), "c": json.RawMessage("3")}
	if d := want.diff(got); d != "" {
		t.Errorf("diff = %q, want none", d)
	}
	delete(got, "a")
	if want.diff(got) == "" {
		t.Error("missing key not reported")
	}
}

// benchmarkFile is BENCHMARK.json as far as these tests read it.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, c := range []struct {
		kind   string
		listed []struct{ Name, Unit string }
		defs   []metricDef
	}{{"end_to_end", bf.EndToEnd, endToEnd}, {"per_layer", bf.PerLayer, perLayer}} {
		listed := map[string]string{}
		for _, m := range c.listed {
			listed[m.Name] = m.Unit
		}
		printed := map[string]string{}
		for _, d := range c.defs {
			printed[d.name] = d.unit
		}
		if !maps.Equal(listed, printed) {
			t.Errorf("%s: BENCHMARK.json lists %v, the benchmark prints %v", c.kind, listed, printed)
		}
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		if !slices.Contains(names, w.name) {
			t.Errorf("workload %s missing from BENCHMARK.json", w.name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark has %d", names, len(workloads))
	}
}

func TestReferencePinsEveryWorkload(t *testing.T) {
	ref, err := loadReference("fingerprints.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, seed := range pinnedSeeds {
			scs := w.scenarios(seed)
			fps := ref.pinned(w.name, seed)
			if len(fps) != len(scs) {
				t.Errorf("%s seed %d: %d fingerprints for %d scenarios", w.name, seed, len(fps), len(scs))
				continue
			}
			for i, sc := range scs {
				if name := strings.Trim(string(fps[i]["name"]), `"`); name != sc.Name() {
					t.Errorf("%s seed %d: fingerprint %d is %s, want %s", w.name, seed, i, name, sc.Name())
				}
			}
		}
	}
}

func TestScenarioSeedsDeriveFromBenchmarkSeed(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(1); seed <= 50; seed++ {
		for i := range 4 {
			s := scenarioSeed(seed, i)
			if s <= 0 || seen[s] {
				t.Fatalf("scenarioSeed(%d, %d) = %d: not positive or repeated", seed, i, s)
			}
			seen[s] = true
		}
	}
}
