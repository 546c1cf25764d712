package sim

import (
	"fmt"
	"sort"
	"strings"
	"sync"
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
func (c *CPUPool) Use(p *Proc, l Label, d Time) {
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
	c.prof.Add(l, d)
}

// Label is a profiler code-path label, resolved from its name once —
// callers keep it in a package-level var — so charging CPU to it is a
// slice index rather than a string hash. The zero Label is the empty
// name.
type Label struct{ id int32 }

// labels is the process-wide label registry. Sims on different
// goroutines may register and look up labels concurrently; charging
// never touches it.
var labels = struct {
	sync.Mutex
	names []string
	ids   map[string]Label
}{names: []string{""}, ids: map[string]Label{"": {}}}

// NewLabel returns the label for name, registering it on first use; the
// same name always yields the same Label.
func NewLabel(name string) Label {
	labels.Lock()
	defer labels.Unlock()
	l, ok := labels.ids[name]
	if !ok {
		l = Label{int32(len(labels.names))}
		labels.names = append(labels.names, name)
		labels.ids[name] = l
	}
	return l
}

// Profiler accumulates virtual CPU time per code-path label. It stands in
// for the sample-driven histogram profiler the paper used to find
// nfs_find_request / nfs_update_request (§3.4) and the lock section
// (§3.5) among the kernel's top CPU consumers. A label is in the profile
// once it has been charged.
type Profiler struct {
	counts []profileCount // indexed by Label id
}

type profileCount struct {
	total Time
	calls int
}

// Add records d of CPU time against l.
func (pr *Profiler) Add(l Label, d Time) {
	if int(l.id) >= len(pr.counts) {
		pr.counts = append(pr.counts, make([]profileCount, int(l.id)+1-len(pr.counts))...)
	}
	c := &pr.counts[l.id]
	c.total += d
	c.calls++
}

// count returns name's accumulator, or nil if name was never charged.
func (pr *Profiler) count(name string) *profileCount {
	labels.Lock()
	l, ok := labels.ids[name]
	labels.Unlock()
	if !ok || int(l.id) >= len(pr.counts) {
		return nil
	}
	return &pr.counts[l.id]
}

// Total returns the accumulated CPU time for the label named name.
func (pr *Profiler) Total(name string) Time {
	if c := pr.count(name); c != nil {
		return c.total
	}
	return 0
}

// Calls returns how many times the label named name was charged.
func (pr *Profiler) Calls(name string) int {
	if c := pr.count(name); c != nil {
		return c.calls
	}
	return 0
}

// ProfileEntry is one row of a profile report.
type ProfileEntry struct {
	Label string
	Total Time
	Calls int
}

// Top returns the n largest CPU consumers, descending; n <= 0 means all.
func (pr *Profiler) Top(n int) []ProfileEntry {
	out := make([]ProfileEntry, 0, len(pr.counts))
	labels.Lock()
	for id, c := range pr.counts {
		if c.calls > 0 {
			out = append(out, ProfileEntry{Label: labels.names[id], Total: c.total, Calls: c.calls})
		}
	}
	labels.Unlock()
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
