package main

import (
	"fmt"
	"math"
	"slices"
)

// metricDef is one printed metric: its name and unit, exactly as
// BENCHMARK.json lists them.
type metricDef struct {
	name, unit string
}

// endToEnd is what an untraced run prints.
var endToEnd = []metricDef{
	{"rpcs_per_s", "1/s"},
	{"scenario_ms_p50", "ms"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// cpuModules are the layers CPU samples are charged to; their shares sum
// to 1. "other" holds repo frames outside the named modules (the root
// package, streamsim, rangeset, vfs, ext2 and this benchmark's own code).
var cpuModules = []string{
	"sim", "xdr", "nfsproto", "netsim", "rpcsim", "core", "mm", "server",
	"disksim", "bonnie", "stats", "harness", "other", "runtime.sched", "runtime.gc",
}

// allocModules are the layers whose share of allocated bytes is printed.
var allocModules = []string{"xdr", "core"}

// perLayer is what a traced run prints: profile shares, then the driver
// timings, then the simulated counts of one pass.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, m := range cpuModules {
		defs = append(defs, metricDef{m + ".cpu_share", "share"})
	}
	for _, m := range allocModules {
		defs = append(defs, metricDef{m + ".alloc_share", "share"})
	}
	defs = append(defs, metricDef{"trace.rpcs_ratio", "ratio"})
	for _, d := range drivers {
		defs = append(defs, metricDef{d.name + "_ns", "ns"}, metricDef{d.name + "_allocs", "allocs"})
	}
	for _, c := range layerCountDefs {
		defs = append(defs, c.metricDef)
	}
	return defs
}()

// report pairs every metric of defs with its value. A value without a
// definition, or a definition without a value, is a bug in this program.
func report(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			panic("hostbench: no value for metric " + d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		panic(fmt.Sprintf("hostbench: %d values for %d metrics", len(values), len(defs)))
	}
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
