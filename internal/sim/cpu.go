package sim

import (
	"fmt"
	"sort"
	"strings"
)

// CPUPool models a machine's processors. Executing code costs virtual time
// while occupying one CPU slot; on a 1-CPU machine the writer thread and
// nfs_flushd serialize, on the paper's 2-CPU client they overlap. This is
// the mechanism behind §3.5's observation that "even a single writer
// thread uses more than one CPU".
type CPUPool struct {
	s    *Sim
	sem  *Semaphore
	prof *Profiler
	Busy Time // aggregate CPU time consumed across all processors

	// Jitter adds a deterministic pseudo-random factor in
	// [1-Jitter, 1+Jitter] to every execution, standing in for the cache,
	// TLB and interrupt noise real kernels exhibit (§2.2 discusses how
	// noisy Linux measurements are; a little modeled noise keeps latency
	// histograms from collapsing to single buckets).
	Jitter float64
}

// NewCPUPool returns a pool of n processors whose execution time is
// attributed to the simulation's profiler.
func (s *Sim) NewCPUPool(name string, n int) *CPUPool {
	return &CPUPool{s: s, sem: s.NewSemaphore(name, n), prof: s.prof}
}

// CPUs returns the number of processors in the pool.
func (c *CPUPool) CPUs() int { return c.sem.Capacity() }

// Use executes d of CPU work on some processor, blocking first if all
// processors are busy. The label attributes the cost in the profiler,
// mirroring the sample-driven kernel profiler the paper uses in §3.4.
func (c *CPUPool) Use(p *Proc, label string, d Time) {
	if d <= 0 {
		return
	}
	if c.Jitter > 0 {
		f := 1 + c.Jitter*(2*c.s.rng.Float64()-1)
		d = Time(float64(d) * f)
	}
	c.sem.Acquire(p)
	p.Sleep(d)
	c.sem.Release()
	c.Busy += d
	c.prof.Add(label, d)
}

// Profiler accumulates virtual CPU time per code-path label. It stands in
// for the sample-driven histogram profiler the paper used to find
// nfs_find_request / nfs_update_request (§3.4) and the lock section
// (§3.5) among the kernel's top CPU consumers.
type Profiler struct {
	byLabel map[string]*profileCount
}

// profileCount is one label's accumulator; the map holds pointers so
// Add costs a single lookup.
type profileCount struct {
	total Time
	calls int
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{byLabel: make(map[string]*profileCount)}
}

// Add records d of CPU time against label.
func (pr *Profiler) Add(label string, d Time) {
	c := pr.byLabel[label]
	if c == nil {
		c = &profileCount{}
		pr.byLabel[label] = c
	}
	c.total += d
	c.calls++
}

// Total returns the accumulated CPU time for label.
func (pr *Profiler) Total(label string) Time {
	if c := pr.byLabel[label]; c != nil {
		return c.total
	}
	return 0
}

// Calls returns how many times label was recorded.
func (pr *Profiler) Calls(label string) int {
	if c := pr.byLabel[label]; c != nil {
		return c.calls
	}
	return 0
}

// Reset clears all accumulated data.
func (pr *Profiler) Reset() {
	pr.byLabel = make(map[string]*profileCount)
}

// ProfileEntry is one row of a profile report.
type ProfileEntry struct {
	Label string
	Total Time
	Calls int
}

// Top returns the n largest CPU consumers, descending; n <= 0 means all.
func (pr *Profiler) Top(n int) []ProfileEntry {
	out := make([]ProfileEntry, 0, len(pr.byLabel))
	for l, c := range pr.byLabel {
		out = append(out, ProfileEntry{Label: l, Total: c.total, Calls: c.calls})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Label < out[j].Label
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// String formats the full profile as a table.
func (pr *Profiler) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-36s %14s %10s\n", "label", "cpu time", "calls")
	for _, e := range pr.Top(0) {
		fmt.Fprintf(&b, "%-36s %14v %10d\n", e.Label, e.Total, e.Calls)
	}
	return b.String()
}
