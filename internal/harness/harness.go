// Package harness is the parallel scenario-sweep engine. It treats each
// test bed as an independent, deterministic unit of work: a Scenario
// fully specifies one benchmark run (server kind, client configuration,
// file size, wsize, client CPUs, cache limit, jumbo frames, seed), a
// Grid expands axis lists into the exact cross-product of Scenarios, and
// a Runner executes them across a worker pool, streaming Result records
// in stable scenario order so output is byte-for-byte reproducible
// regardless of worker count.
//
// The paper's own figures are fixed grids (see internal/experiments),
// but the harness accepts arbitrary user-defined grids via cmd/nfssweep.
package harness

import (
	"fmt"
	"strings"
	"time"

	nfssim "repro"
	"repro/internal/bonnie"
	"repro/internal/core"
	"repro/internal/rpcsim"
	"repro/internal/sim"
)

// ClientConfig is a named client configuration, so results carry a
// human-readable label instead of a struct dump.
type ClientConfig struct {
	Name   string
	Config core.Config
}

// NamedConfigs maps the canonical configuration names — the progression
// of the paper's fixes — to their core.Config constructors.
func NamedConfigs() []ClientConfig {
	return []ClientConfig{
		{"stock", core.Stock244Config()},
		{"nolimits", core.NoLimitsConfig()},
		{"hash", core.HashConfig()},
		{"enhanced", core.EnhancedConfig()},
	}
}

// Scenario is one fully-specified benchmark run. Expand fills every
// field, so two Scenarios with equal fields produce identical Results.
type Scenario struct {
	Server     nfssim.ServerKind
	Config     ClientConfig
	FileMB     int   // per-client file size
	WSize      int   // bytes; overrides Config's wsize
	ClientCPUs int   // per-machine client processor count
	Clients    int   // client machines writing concurrently (>= 1)
	CacheLimit int64 // per-machine page-cache budget, bytes
	Jumbo      bool
	// Transport selects the RPC wire protocol (default TransportUDP).
	Transport rpcsim.TransportKind
	// Loss is the per-fragment drop probability (default 0, lossless).
	Loss float64
	// NetJitter is the max extra random delivery delay per datagram.
	NetJitter sim.Time
	// Workload is the I/O pattern each client drives (default
	// bonnie.WorkloadWrite, the paper's benchmark). FileMB sizes the
	// workload's total I/O; read-family workloads open pre-populated
	// cold files of that size, and the random workloads visit chunks in
	// a deterministic per-seed permutation.
	Workload bonnie.Workload
	// FsyncEvery flushes the write stream every N chunks during the I/O
	// phase (group commit). 0 means never, except the db workload, which
	// defaults to bonnie.DefaultDBFsyncEvery.
	FsyncEvery int
	// FileCount is the zipf workload's file population (0 means
	// bonnie.DefaultZipfFiles; ignored by single-file workloads).
	FileCount int
	// ZipfS is the zipf workload's skew exponent (0 means
	// bonnie.DefaultZipfS; bonnie.ZipfUniform selects uniform access).
	ZipfS float64
	// Mix is the zipf workload's op mix (zero means bonnie.DefaultOpMix).
	Mix bonnie.OpMix
	// AcTimeout pins the client attribute cache's window: both acregmin
	// and acregmax are set to this value. 0 keeps the client's adaptive
	// defaults; core.AcOff (or any negative value) disables the cache
	// (mount -o noac).
	AcTimeout sim.Time
	// SharedWriterPct is the shared workload's writer share of the
	// per-run workers (0 means bonnie.DefaultSharedWriterPct; ignored by
	// other workloads).
	SharedWriterPct int
	// SharedReadLag is the shared workload's pause between reader passes
	// (0 means back-to-back; ignored by other workloads).
	SharedReadLag sim.Time
	// Consistency is the client's cache-consistency mode (default
	// core.ConsistencyTTL, the adaptive attribute-cache behavior every
	// pre-existing scenario ran under).
	Consistency core.ConsistencyMode
	Seed        int64
	Repeat      int // repeat index; Seed already includes the offset

	// SkipFlushClose stops each run after the write phase (the Figure
	// 1/7 memory-write comparison). When false the run flushes and
	// closes, as NFS semantics require before last close.
	SkipFlushClose bool
	// TimeLimit bounds one run's virtual time (default 30 minutes).
	TimeLimit sim.Time
}

// Key identifies the scenario's grid cell — every axis except seed and
// repeat — for grouping repeated runs: the concatenated segments of the
// axis table, in table order. Axes added after the paper's grid print
// nothing at their defaults, so sweeps over the pre-existing axes keep
// byte-identical keys (and hence output) — pinned by the golden-CSV
// tests in harness_test.go.
func (sc Scenario) Key() string {
	var b strings.Builder
	for _, a := range axes {
		b.WriteString(a.segment(&sc))
	}
	return b.String()
}

// Name is the scenario's full identity including seed and repeat.
func (sc Scenario) Name() string {
	return fmt.Sprintf("%s/s%d.%d", sc.Key(), sc.Seed, sc.Repeat)
}

// Grid declares the sweep axes. Expand produces the exact cross-product
// of every non-empty axis; empty axes fall back to the listed default
// (the axis table in axes.go is where Expand takes it from).
type Grid struct {
	Servers     []nfssim.ServerKind    // default: filer
	Configs     []ClientConfig         // default: stock
	FileSizesMB []int                  // default: 40 (per client)
	WSizes      []int                  // default: each config's own wsize
	ClientCPUs  []int                  // default: 2 (the paper's dual P-III)
	Clients     []int                  // default: 1 (client machines per run)
	CacheLimits []int64                // default: mm.DefaultDirtyLimit
	Jumbo       []bool                 // default: false
	Transports  []rpcsim.TransportKind // default: udp
	LossRates   []float64              // default: 0 (lossless)
	Workloads   []bonnie.Workload      // default: write
	FileCounts  []int                  // default: 0 (bonnie's DefaultZipfFiles)
	ZipfSs      []float64              // default: 0 (bonnie's DefaultZipfS)
	AcTimeouts  []sim.Time             // default: 0 (client's adaptive defaults)
	// Sharings is the shared workload's writer-percentage axis (default:
	// 0, bonnie's DefaultSharedWriterPct; ignored by other workloads).
	Sharings []int
	// Consistencies is the client cache-consistency mode axis (default:
	// core.ConsistencyTTL).
	Consistencies []core.ConsistencyMode
	Seeds         []int64 // default: 1

	// NetJitter applies the same max delivery jitter to every scenario
	// (a scalar, not an axis).
	NetJitter sim.Time

	// FsyncEvery applies the same group-commit cadence to every scenario
	// (a scalar knob, not an axis; see Scenario.FsyncEvery).
	FsyncEvery int

	// Mix applies the same zipf op mix to every scenario (a scalar knob,
	// not an axis; see Scenario.Mix).
	Mix bonnie.OpMix

	// ReadLag applies the same shared-workload reader lag to every
	// scenario (a scalar knob, not an axis; see Scenario.SharedReadLag).
	ReadLag sim.Time

	// Repeats re-runs every cell Repeats times, offsetting each base
	// seed per repeat by the span of the Seeds list (max-min+1, so a
	// single base seed yields seed, seed+1, ...). Distinct base seeds
	// therefore never collide across repeats: every run in a cell has
	// a unique seed, and Aggregate folds genuinely independent runs
	// into its mean/stddev summaries.
	Repeats int

	SkipFlushClose bool
	TimeLimit      sim.Time
}

// Expand returns the cross-product of all axes, nested in the axis
// table's order with config hoisted outermost, then seed and repeat
// innermost, with every Scenario field resolved to its concrete value.
// The order is deterministic: the same Grid always expands to the same
// slice.
func (g Grid) Expand() []Scenario {
	seeds := g.Seeds
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	// Repeat r shifts every base seed by r*span; span covers the whole
	// base-seed range, so no two (seed, repeat) pairs share a seed.
	minSeed, maxSeed := seeds[0], seeds[0]
	for _, s := range seeds {
		if s < minSeed {
			minSeed = s
		}
		if s > maxSeed {
			maxSeed = s
		}
	}
	span := maxSeed - minSeed + 1
	repeats := g.Repeats
	if repeats < 1 {
		repeats = 1
	}
	timeLimit := g.TimeLimit
	if timeLimit == 0 {
		timeLimit = 30 * time.Minute
	}

	var out []Scenario
	var nest func(depth int, sc Scenario)
	nest = func(depth int, sc Scenario) {
		if depth < len(expandOrder) {
			expandOrder[depth].each(&g, sc, func(sc Scenario) { nest(depth+1, sc) })
			return
		}
		for _, seed := range seeds {
			for rep := 0; rep < repeats; rep++ {
				sc.Seed, sc.Repeat = seed+int64(rep)*span, rep
				out = append(out, sc)
			}
		}
	}
	nest(0, Scenario{SkipFlushClose: g.SkipFlushClose, TimeLimit: timeLimit})
	return out
}

// appearanceOrder deduplicates keys preserving first appearance, so
// aggregation output follows scenario order, not map order.
func appearanceOrder(order []string) []string {
	seen := make(map[string]bool, len(order))
	out := make([]string, 0, len(order))
	for _, k := range order {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}
