package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	nfssim "repro"
	"repro/internal/harness"
)

// outcome is one scenario run as the benchmark saw it.
type outcome struct {
	sc                        harness.Scenario
	start, prepared, returned time.Time // RunScenarioOn entry, prepare hook, return
	calls                     int
	counts                    counts
	fp                        fingerprint
	err                       string // a panic or fingerprint error; "" when the run completed
}

// simulated is the host time inside RunScenarioOn.
func (o outcome) simulated() time.Duration { return o.returned.Sub(o.start) }

// runScenario runs sc through harness.RunScenarioOn, whose prepare hook
// marks the end of test-bed assembly, then reads its counts and builds
// its fingerprint.
func runScenario(sc harness.Scenario) (o outcome) {
	o.sc = sc
	defer func() {
		if r := recover(); r != nil {
			o.err = fmt.Sprint("panic: ", r)
		}
	}()
	var tb *nfssim.Testbed
	o.start = time.Now()
	res := harness.RunScenarioOn(sc, func(t *nfssim.Testbed) {
		tb, o.prepared = t, time.Now()
	})
	o.returned = time.Now()
	o.calls = res.Calls
	o.counts = readCounts(res, tb)
	fp, err := makeFingerprint(res, o.counts)
	if err != nil {
		o.err = "fingerprint: " + err.Error()
	}
	o.fp = fp
	return o
}

// bench runs one workload at one seed.
type bench struct {
	w    workload
	seed int64
	scs  []harness.Scenario
	// want holds each scenario's expected fingerprint: the pinned one
	// for a pinned seed, otherwise the run's own first pass.
	want  []fingerprint
	first counts // summed counts of the first pass
	spans *spans // records spans while non-nil

	attempted, failed int
	setupS            float64
	peakRSSMB         float64
	digests           []string // of the first pass's fingerprints
}

// setup expands the scenarios, loads the reference and runs one untimed
// warm-up pass (one scenario, or paper_write's four cells). It is timed
// from process start, and peak_rss_mb is read at its end: the peak
// resident set of a fresh process that has run the workload once.
func (b *bench) setup(processStart time.Time) error {
	b.scs = b.w.scenarios(b.seed)
	ref, err := loadReference(refPath)
	if err != nil {
		return err
	}
	kind := "unpinned seed: completion and rerun identity checked"
	if want := ref.pinned(b.w.name, b.seed); want != nil {
		if len(want) != len(b.scs) {
			return fmt.Errorf("%s seed %d: %d pinned fingerprints for %d scenarios", b.w.name, b.seed, len(want), len(b.scs))
		}
		b.want, kind = want, "pinned"
	}
	outs := b.pass()
	b.setupS = time.Since(processStart).Seconds()
	if b.peakRSSMB, err = peakRSSMB(); err != nil {
		return err
	}
	for _, o := range outs {
		b.first.add(o.counts)
		d := o.fp.digest()
		b.digests = append(b.digests, d)
		fmt.Fprintf(os.Stderr, "digest %s seed=%d %s %s (%s)\n", b.w.name, b.seed, o.sc.Name(), d, kind)
	}
	return nil
}

// pass runs every scenario once in order and checks each. The first pass
// of an unpinned seed becomes the reference for the later ones.
func (b *bench) pass() []outcome {
	outs := make([]outcome, 0, len(b.scs))
	for i, sc := range b.scs {
		o := runScenario(sc)
		var want fingerprint
		if b.want != nil {
			want = b.want[i]
		}
		b.attempted++
		if why := check(o, want); why != "" {
			b.failed++
			fmt.Fprintf(os.Stderr, "FAIL %s: %s\n", sc.Name(), why)
		}
		if b.spans != nil && o.err == "" {
			end := time.Now()
			id := b.spans.add("scenario", 0, o.start, end)
			b.spans.add("assemble", id, o.start, o.prepared)
			b.spans.add("simulate", id, o.prepared, o.returned)
			b.spans.add("verify", id, o.returned, end)
		}
		outs = append(outs, o)
	}
	if b.want == nil {
		for _, o := range outs {
			b.want = append(b.want, o.fp)
		}
	}
	return outs
}

// timed runs whole passes until seconds have elapsed.
func (b *bench) timed(seconds float64) childReport {
	rep := childReport{SetupS: b.setupS, PeakRSSMB: b.peakRSSMB, Digests: b.digests}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for len(rep.PassRates) == 0 || time.Since(start).Seconds() < seconds {
		var rpcs, host float64
		for _, o := range b.pass() {
			rep.ScenarioMs = append(rep.ScenarioMs, float64(o.simulated())/1e6)
			rpcs += float64(o.counts.rpcs())
			host += o.simulated().Seconds()
		}
		rep.PassRates = append(rep.PassRates, rpcs/host)
	}
	runtime.ReadMemStats(&m1)
	rep.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	rep.Attempted, rep.Failed = b.attempted, b.failed
	fmt.Fprintf(os.Stderr, "%s seed=%d: %d passes, %d scenarios timed in %.1fs\n",
		b.w.name, b.seed, len(rep.PassRates), len(rep.ScenarioMs), time.Since(start).Seconds())
	return rep
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
