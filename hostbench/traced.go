package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"
)

// traced alternates untraced and traced passes until seconds have
// elapsed (at least one of each). Traced passes run under the CPU
// profiler, between allocation-profile snapshots, and record spans. The
// layer drivers run afterwards, each in a span of its own.
func (b *bench) traced(seconds float64, spansDir string) (map[string]float64, error) {
	var cpu, alloc []sample
	var rpcs, host [2]float64 // by pass kind: 0 untraced, 1 traced
	sp := newSpans()
	start := time.Now()
	for i := 0; i < 2 || time.Since(start).Seconds() < seconds; i++ {
		kind := i % 2
		var outs []outcome
		if kind == 0 {
			outs = b.pass()
		} else {
			before := heapSnapshot()
			var prof bytes.Buffer
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, err
			}
			b.spans = sp
			outs = b.pass()
			b.spans = nil
			pprof.StopCPUProfile()
			alloc = append(alloc, allocSamples(before, heapSnapshot())...)
			s, err := parseProfile(prof.Bytes())
			if err != nil {
				return nil, fmt.Errorf("CPU profile: %w", err)
			}
			cpu = append(cpu, s...)
		}
		for _, o := range outs {
			rpcs[kind] += float64(o.counts.rpcs())
			host[kind] += o.simulated().Seconds()
		}
	}

	values := map[string]float64{"trace.rpcs_ratio": ratio(rpcs[1]/host[1], rpcs[0]/host[0])}
	cpuShares, allocShares := shares(cpu), shares(alloc)
	for _, m := range cpuModules {
		values[m+".cpu_share"] = cpuShares[m]
	}
	for _, m := range allocModules {
		values[m+".alloc_share"] = allocShares[m]
	}
	for _, d := range drivers {
		t0 := time.Now()
		values[d.name+"_ns"], values[d.name+"_allocs"] = measure(d)
		sp.add(d.name, 0, t0, time.Now())
	}
	for _, c := range layerCountDefs {
		values[c.name] = c.value(b.first)
	}

	fmt.Fprintf(os.Stderr, "%s seed=%d traced: %d CPU samples, shares%s\n", b.w.name, b.seed, len(cpu), formatShares(cpuShares))
	fmt.Fprintf(os.Stderr, "%s seed=%d traced: allocation shares%s\n", b.w.name, b.seed, formatShares(allocShares))
	fmt.Fprintf(os.Stderr, "%s seed=%d traced: span self time%s\n", b.w.name, b.seed, sp.summary())
	if spansDir != "" {
		if err := writeSpans(sp, filepath.Join(spansDir, fmt.Sprintf("spans-%s-s%d.json", b.w.name, b.seed))); err != nil {
			return nil, err
		}
	}
	return values, nil
}

func formatShares(s map[string]float64) string {
	var out strings.Builder
	for _, m := range cpuModules {
		fmt.Fprintf(&out, " %s=%.3f", m, s[m])
	}
	return out.String()
}

func writeSpans(sp *spans, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sp.write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
