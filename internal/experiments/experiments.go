// Package experiments regenerates every table and figure in the paper's
// evaluation (§3). Each runner assembles the right test bed + client
// configuration, drives the Bonnie-derived benchmark, and returns the
// series/traces/histograms the corresponding artifact plots, plus a
// textual rendering for the CLI.
//
// Artifact index (see DESIGN.md §4 for the full mapping):
//
//	Fig1    local vs NFS write throughput, stock 2.4.4 client
//	Fig2    per-call latency trace: periodic flush spikes (stock client)
//	Fig3    trace after flush removal: latency grows with the list
//	Fig4    trace with the hash table: flat latency (+ checkpoint gap)
//	Fig5/6  latency histograms, filer vs Linux, BKL held vs released
//	Table1  memory write throughput before/after the lock fix
//	Fig7    local vs NFS write throughput, enhanced client
//	Slow100 §3.5 verification: slower server, faster memory writes
//	Profile §3.4/§3.5 kernel-profile findings
//	Jumbo   §3.5 future work: jumbo frames ablation
//	Concurrency §3.5: two writers to separate files, BKL held vs released
//	Scaling beyond the paper: N client machines against one server
//	Fleet   beyond the paper: 10/100/1000-client fleets against one
//	        filer — fairness and slot-table convoying
//	Loss    beyond the paper: UDP vs TCP under fragment loss
//	Read    beyond the paper: sequential read, rewrite and mixed
//	        workloads with a client readahead ablation
//	Random  beyond the paper: sequential vs random chunk I/O across the
//	        fix progression — fix 2's figure-3/4 divergence under the
//	        access pattern that actually stresses the request lookup
//	DBLoad  §3.6: random page updates with group-commit fsync — the
//	        filer-vs-Linux durability story as a tested table
//	Zipf    beyond the paper: Zipfian many-file metadata workload with
//	        an attribute-cache (noac) and skew (uniform) ablation
//	Coherence beyond the paper: writers and readers sharing one file
//	        under strict/ttl/noac consistency — staleness vs throughput
//	Chaos   beyond the paper: server crash/reboot and dead-server
//	        failure injection through the chaos scenario engine
package experiments

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	nfssim "repro"
	"repro/internal/bonnie"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/rpcsim"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vfs"
)

// Workers is the worker-pool size for every grid-shaped experiment —
// the Fig1/Fig7 sweeps, Table1, Slow100, Jumbo, Scaling, Fleet, Loss,
// Read, Random, DBLoad, Zipf and Coherence — and for the chaos battery;
// 0 means one worker per CPU. cmd/nfsbench's -workers flag sets it.
// Results are identical for every value — only wall-clock time changes.
var Workers int

func runGrid(g harness.Grid) []harness.Result {
	return (&harness.Runner{Workers: Workers}).Run(g.Expand())
}

// column is one column of an experiment's table: its header and how a
// row's cell is formatted.
type column[T any] struct {
	head string
	cell func(T) string
}

// table holds a table-shaped experiment's rows exactly as the harness
// (or the chaos engine) returned them, with the title and columns they
// render under. A new table is a grid plus a column list; every derived
// value lives in one helper that both its column and its readers call.
type table[T any] struct {
	title string
	cols  []column[T]
	Rows  []T
}

// Table renders every row, one cell per column.
func (t *table[T]) Table() *stats.Table {
	heads := make([]string, len(t.cols))
	for i, c := range t.cols {
		heads[i] = c.head
	}
	out := stats.NewTable(t.title, heads...)
	for _, row := range t.Rows {
		cells := make([]string, len(t.cols))
		for i, c := range t.cols {
			cells[i] = c.cell(row)
		}
		out.AddRow(cells...)
	}
	return out
}

// Row returns the first row whose leading cells read key — e.g.
// Row("enhanced", "read") for the read table's config and workload
// columns — or nil if no row does.
func (t *table[T]) Row(key ...string) *T {
	for i, row := range t.Rows {
		if slices.EqualFunc(key, t.cols[:len(key)], func(k string, c column[T]) bool { return c.cell(row) == k }) {
			return &t.Rows[i]
		}
	}
	return nil
}

// PaperSizesMB is the Figure 1/7 x-axis: 25–450 MB in 25 MB steps.
func PaperSizesMB() []int {
	sizes := make([]int, 0, 18)
	for mb := 25; mb <= 450; mb += 25 {
		sizes = append(sizes, mb)
	}
	return sizes
}

// runOne executes a single benchmark run on a fresh test bed.
func runOne(srv nfssim.ServerKind, cfg core.Config, fileMB int, full bool) (*nfssim.Testbed, *bonnie.Result) {
	tb := nfssim.NewTestbed(nfssim.Options{Server: srv, Client: cfg})
	res := bonnie.Run(tb.Sim, fmt.Sprintf("%s/%dMB", srv, fileMB), tb.Open, bonnie.Config{
		FileSize:       int64(fileMB) << 20,
		TimeLimit:      30 * time.Minute,
		SkipFlushClose: !full,
	})
	return tb, res
}

// SweepResult is a Figure 1 or Figure 7 dataset: write-phase throughput
// (KB/s, the paper's y-axis) versus file size (MB) for the three targets.
type SweepResult struct {
	Title string
	Local *stats.Series
	Filer *stats.Series
	Linux *stats.Series
}

// Series returns the three curves in plot order.
func (r *SweepResult) Series() []*stats.Series {
	return []*stats.Series{r.Linux, r.Filer, r.Local}
}

// Render formats the dataset as the paper's plot data.
func (r *SweepResult) Render() string {
	var b strings.Builder
	b.WriteString(r.Title + "\n")
	b.WriteString("write throughput (KB/s) vs file size (MB)\n")
	b.WriteString(stats.CSV(r.Series()...))
	return b.String()
}

// sweep runs the Figure 1/7 grid — three targets x the size axis,
// write-phase throughput only — on the parallel harness. Scenario order
// (and hence series point order) is the grid's deterministic expansion.
func sweep(title, cfgName string, cfg core.Config, sizesMB []int) *SweepResult {
	r := &SweepResult{
		Title: title,
		Local: &stats.Series{Name: "local ext2", XLabel: "MB", YLabel: "KB/s"},
		Filer: &stats.Series{Name: "Netapp filer", XLabel: "MB", YLabel: "KB/s"},
		Linux: &stats.Series{Name: "Linux NFS server", XLabel: "MB", YLabel: "KB/s"},
	}
	results := runGrid(harness.Grid{
		Servers:        []nfssim.ServerKind{nfssim.ServerNone, nfssim.ServerFiler, nfssim.ServerLinux},
		Configs:        []harness.ClientConfig{{Name: cfgName, Config: cfg}},
		FileSizesMB:    sizesMB,
		SkipFlushClose: true,
	})
	for _, res := range results {
		switch res.Server {
		case "local":
			r.Local.Add(float64(res.FileMB), res.WriteKBps)
		case "filer":
			r.Filer.Add(float64(res.FileMB), res.WriteKBps)
		case "linux":
			r.Linux.Add(float64(res.FileMB), res.WriteKBps)
		}
	}
	return r
}

// Fig1 reproduces Figure 1: the stock client's NFS write throughput is
// pinned to network/server speed at every file size, while local ext2
// writes at memory speed until RAM runs out.
func Fig1(sizesMB []int) *SweepResult {
	if sizesMB == nil {
		sizesMB = PaperSizesMB()
	}
	return sweep("Figure 1 - Local v. NFS write throughput (stock 2.4.4 client)",
		"stock", core.Stock244Config(), sizesMB)
}

// Fig7 reproduces Figure 7: with all three fixes, NFS memory write
// throughput rivals local ext2 until client memory is exhausted, and the
// filer sustains high throughput longest.
func Fig7(sizesMB []int) *SweepResult {
	if sizesMB == nil {
		sizesMB = PaperSizesMB()
	}
	return sweep("Figure 7 - Local v. NFS write throughput (enhanced client)",
		"enhanced", core.EnhancedConfig(), sizesMB)
}

// TraceResult is a Figures 2–4 dataset: one run's per-call latency trace
// plus the derived spike/growth statistics.
type TraceResult struct {
	Title  string
	Result *bonnie.Result

	SpikeCutoff time.Duration
	Spikes      int
	SpikePeriod float64
	MeanAll     time.Duration
	MeanBelow   time.Duration // mean excluding spikes (paper's comparison)
	SlopeNsCall float64

	// QuietGap marks the Figure 4 checkpoint signature: a window of
	// strongly reduced jitter while the filer stops responding and the
	// flush daemon stalls.
	QuietGapStart int
	QuietGapEnd   int
	HasQuietGap   bool
}

func newTraceResult(title string, res *bonnie.Result) *TraceResult {
	cutoff := time.Millisecond
	return &TraceResult{
		Title:       title,
		Result:      res,
		SpikeCutoff: cutoff,
		Spikes:      res.Trace.CountAbove(cutoff),
		SpikePeriod: res.Trace.SpikePeriod(cutoff),
		MeanAll:     res.Trace.Summary().Mean,
		MeanBelow:   res.Trace.SummaryExcluding(cutoff).Mean,
		SlopeNsCall: res.Trace.Slope(),
	}
}

// Render formats the trace statistics (the full trace is available via
// Result.Trace.CSV()).
func (r *TraceResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Title)
	fmt.Fprintf(&b, "  calls:                %d\n", r.Result.Calls)
	fmt.Fprintf(&b, "  mean latency:         %v\n", r.MeanAll)
	fmt.Fprintf(&b, "  mean excluding >%v: %v\n", r.SpikeCutoff, r.MeanBelow)
	fmt.Fprintf(&b, "  spikes >%v:          %d (every ~%.0f calls)\n", r.SpikeCutoff, r.Spikes, r.SpikePeriod)
	fmt.Fprintf(&b, "  latency slope:        %.1f ns/call\n", r.SlopeNsCall)
	fmt.Fprintf(&b, "  max latency:          %v\n", r.Result.Trace.Summary().Max)
	fmt.Fprintf(&b, "  write throughput:     %.1f MB/s\n", r.Result.WriteMBps())
	if r.HasQuietGap {
		fmt.Fprintf(&b, "  quiet gap (checkpoint): calls %d-%d\n", r.QuietGapStart, r.QuietGapEnd)
	}
	return b.String()
}

// Fig2 reproduces Figure 2: a 40 MB run against the filer on the stock
// client, showing periodic multi-millisecond spikes roughly every
// MAX_REQUEST_SOFT/2 calls.
func Fig2() *TraceResult {
	_, res := runOne(nfssim.ServerFiler, core.Stock244Config(), 40, true)
	return newTraceResult("Figure 2 - Actual write latency over time (stock 2.4.4, filer)", res)
}

// Fig3 reproduces Figure 3: the same run with limit-flushing removed —
// no spikes, but latency grows as the per-inode list lengthens.
func Fig3() *TraceResult {
	_, res := runOne(nfssim.ServerFiler, core.NoLimitsConfig(), 100, true)
	return newTraceResult("Figure 3 - Actual write latency over time (no flushing, linear list)", res)
}

// Fig4 reproduces Figure 4: with the hash table, latency stays low for
// the whole run. A consistency point from the warm-up file's data lands
// mid-run, reproducing the paper's "gap of greatly reduced jitter".
func Fig4() *TraceResult {
	tb := nfssim.NewTestbed(nfssim.Options{Server: nfssim.ServerFiler, Client: core.HashConfig()})
	// Warm-up: a previous benchmark file, fully flushed to the filer, so
	// NVRAM is partially charged — as on a real, repeatedly-used filer.
	warm := bonnie.Run(tb.Sim, "warmup", tb.Open, bonnie.Config{FileSize: 30 << 20, TimeLimit: 10 * time.Minute})
	_ = warm
	res := bonnie.Run(tb.Sim, "fig4", tb.Open, bonnie.Config{
		FileSize: 100 << 20, TimeLimit: 30 * time.Minute, SkipFlushClose: true,
	})
	tr := newTraceResult("Figure 4 - Actual write latency over time (scalable data structures)", res)
	tr.QuietGapStart, tr.QuietGapEnd, tr.HasQuietGap = res.Trace.QuietGap(200, 0.5)
	return tr
}

// HistResult is the Figures 5/6 dataset: write() latency histograms for
// the same run against the two servers, under one lock policy.
type HistResult struct {
	Title      string
	FilerHist  *stats.Histogram
	LinuxHist  *stats.Histogram
	FilerMean  time.Duration
	LinuxMean  time.Duration
	FilerMin   time.Duration
	LinuxMin   time.Duration
	FilerMax   time.Duration
	LinuxMax   time.Duration
	FilerMBps  float64
	LinuxMBps  float64
	TailCutoff time.Duration
	FilerTail  int
	LinuxTail  int
}

func hist(title string, cfg core.Config) *HistResult {
	_, filer := runOne(nfssim.ServerFiler, cfg, 30, true)
	_, linux := runOne(nfssim.ServerLinux, cfg, 30, true)
	r := &HistResult{
		Title:      title,
		FilerHist:  stats.NewHistogram("Network Appliance F85", 30*time.Microsecond, 9),
		LinuxHist:  stats.NewHistogram("Linux 2.4 NFS server", 30*time.Microsecond, 9),
		TailCutoff: 90 * time.Microsecond,
	}
	r.FilerHist.AddTrace(filer.Trace)
	r.LinuxHist.AddTrace(linux.Trace)
	fs, ls := filer.Trace.Summary(), linux.Trace.Summary()
	r.FilerMean, r.LinuxMean = fs.Mean, ls.Mean
	r.FilerMin, r.LinuxMin = fs.Min, ls.Min
	r.FilerMax, r.LinuxMax = fs.Max, ls.Max
	r.FilerMBps, r.LinuxMBps = filer.WriteMBps(), linux.WriteMBps()
	r.FilerTail = r.FilerHist.TailCount(r.TailCutoff)
	r.LinuxTail = r.LinuxHist.TailCount(r.TailCutoff)
	return r
}

// Render formats both histograms side by side.
func (r *HistResult) Render() string {
	var b strings.Builder
	b.WriteString(r.Title + "\n")
	b.WriteString(r.FilerHist.String())
	b.WriteString(r.LinuxHist.String())
	fmt.Fprintf(&b, "filer: mean %v min %v max %v tail(>=%v) %d\n",
		r.FilerMean, r.FilerMin, r.FilerMax, r.TailCutoff, r.FilerTail)
	fmt.Fprintf(&b, "linux: mean %v min %v max %v tail(>=%v) %d\n",
		r.LinuxMean, r.LinuxMin, r.LinuxMax, r.TailCutoff, r.LinuxTail)
	return b.String()
}

// Fig5 reproduces Figure 5: with the BKL held across sock_sendmsg, the
// faster filer produces more slow write() calls than the Linux server.
// (Bucket width is 30 µs rather than the paper's 60 µs because our 8 KB
// write path is ~2x faster than the paper's measured calls; see
// DESIGN.md §2 on the paper's internal 8 KB/16 KB inconsistency.)
func Fig5() *HistResult {
	return hist("Figure 5 - Latency histogram (BKL across sock_sendmsg)", core.HashConfig())
}

// Fig6 reproduces Figure 6: releasing the BKL around sock_sendmsg shrinks
// the tail on both servers; minimum latency barely moves.
func Fig6() *HistResult {
	return hist("Figure 6 - Latency histogram (BKL released around sock_sendmsg)", core.EnhancedConfig())
}

// Table1Result is the paper's Table 1 plus the network-throughput
// observations of §3.5 that frame it.
type Table1Result struct {
	FilerLockMBps   float64
	FilerNoLockMBps float64
	LinuxLockMBps   float64
	LinuxNoLockMBps float64

	// Sustained server-side ingest during the runs ("the filer sustains
	// about 38 MBps of network throughput ... the Linux NFS server can
	// sustain only 26 MBps").
	FilerNetMBps float64
	LinuxNetMBps float64
}

// Table renders the paper's Table 1.
func (r *Table1Result) Table() *stats.Table {
	t := stats.NewTable("Table 1 - Client memory write throughput, before and after lock modification",
		"", "Normal", "No lock")
	t.AddRow("NetApp filer",
		fmt.Sprintf("%.0f MBps", r.FilerLockMBps), fmt.Sprintf("%.0f MBps", r.FilerNoLockMBps))
	t.AddRow("Linux NFS server",
		fmt.Sprintf("%.0f MBps", r.LinuxLockMBps), fmt.Sprintf("%.0f MBps", r.LinuxNoLockMBps))
	return t
}

// Render formats the table and the framing observations.
func (r *Table1Result) Render() string {
	var b strings.Builder
	b.WriteString(r.Table().String())
	fmt.Fprintf(&b, "sustained network write throughput: filer %.1f MBps, linux %.1f MBps\n",
		r.FilerNetMBps, r.LinuxNetMBps)
	return b.String()
}

// Table1 reproduces Table 1 as a harness grid: 5 MB runs on the
// hash-table client with the BKL held ("hash") versus released
// ("enhanced"), against both servers — a 2x2 cell sweep.
func Table1() *Table1Result {
	results := runGrid(harness.Grid{
		Servers: []nfssim.ServerKind{nfssim.ServerFiler, nfssim.ServerLinux},
		Configs: []harness.ClientConfig{
			{Name: "hash", Config: core.HashConfig()},
			{Name: "enhanced", Config: core.EnhancedConfig()},
		},
		FileSizesMB: []int{5},
	})
	r := &Table1Result{}
	for _, res := range results {
		switch {
		case res.Server == "filer" && res.Config == "hash":
			r.FilerLockMBps, r.FilerNetMBps = res.WriteMBps, res.ServerNetMBps
		case res.Server == "filer" && res.Config == "enhanced":
			r.FilerNoLockMBps = res.WriteMBps
		case res.Server == "linux" && res.Config == "hash":
			r.LinuxLockMBps, r.LinuxNetMBps = res.WriteMBps, res.ServerNetMBps
		case res.Server == "linux" && res.Config == "enhanced":
			r.LinuxNoLockMBps = res.WriteMBps
		}
	}
	return r
}

// Slow100Result is §3.5's verification experiment.
type Slow100Result struct {
	SlowMBps     float64 // client memory write throughput, 100 Mb/s server
	FilerMBps    float64 // same against the gigabit filer
	SlowNetMBps  float64 // slow server's sustained ingest
	FilerNetMBps float64
}

// Render formats the comparison.
func (r *Slow100Result) Render() string {
	return fmt.Sprintf(`Slow-server verification (§3.5)
  memory write throughput: 100Mb server %.1f MBps vs filer %.1f MBps
  network ingest:          100Mb server %.1f MBps vs filer %.1f MBps
  (the slower server leaves the writer less impeded: %v)
`, r.SlowMBps, r.FilerMBps, r.SlowNetMBps, r.FilerNetMBps, r.SlowMBps > r.FilerMBps)
}

// Slow100 reproduces the §3.5 check as a harness grid over the server
// axis: a server on 100 Mb/s Ethernet sustains <10 MB/s on the wire yet
// yields *faster* client memory writes.
func Slow100() *Slow100Result {
	results := runGrid(harness.Grid{
		Servers:     []nfssim.ServerKind{nfssim.ServerSlow100, nfssim.ServerFiler},
		Configs:     []harness.ClientConfig{{Name: "hash", Config: core.HashConfig()}},
		FileSizesMB: []int{5},
	})
	r := &Slow100Result{}
	for _, res := range results {
		if res.Server == "slow100" {
			r.SlowMBps, r.SlowNetMBps = res.WriteMBps, res.ServerNetMBps
		} else {
			r.FilerMBps, r.FilerNetMBps = res.WriteMBps, res.ServerNetMBps
		}
	}
	return r
}

// ProfileResult carries the §3.4/§3.5 kernel-profile findings.
type ProfileResult struct {
	// TopPreFix is the top CPU consumers during a linear-list run; the
	// paper's profiler finds nfs_find_request/nfs_update_request here.
	TopPreFix []sim.ProfileEntry
	// TopPostFix is the same with the hash table.
	TopPostFix []sim.ProfileEntry
	// BKLWaitBySection attributes BKL wait time to the critical section
	// holding it; ~90% should be sock_sendmsg.
	BKLWaitBySection map[string]time.Duration
	// SendFraction is sock_sendmsg's share of total BKL wait.
	SendFraction float64
}

// Render formats the findings.
func (r *ProfileResult) Render() string {
	var b strings.Builder
	b.WriteString("Kernel profile, linear-list run (top CPU consumers):\n")
	for _, e := range r.TopPreFix {
		fmt.Fprintf(&b, "  %-32s %12v (%d calls)\n", e.Label, e.Total, e.Calls)
	}
	b.WriteString("Kernel profile, hash-table run:\n")
	for _, e := range r.TopPostFix {
		fmt.Fprintf(&b, "  %-32s %12v (%d calls)\n", e.Label, e.Total, e.Calls)
	}
	fmt.Fprintf(&b, "BKL wait attribution (hash-table run, lock held across send):\n")
	sections := make([]string, 0, len(r.BKLWaitBySection))
	for sec := range r.BKLWaitBySection {
		sections = append(sections, sec)
	}
	sort.Strings(sections)
	for _, sec := range sections {
		fmt.Fprintf(&b, "  %-32s %12v\n", sec, r.BKLWaitBySection[sec])
	}
	fmt.Fprintf(&b, "sock_sendmsg share of BKL wait: %.0f%%\n", 100*r.SendFraction)
	return b.String()
}

// Profile reproduces the profiler findings of §3.4 and §3.5.
func Profile() *ProfileResult {
	tbList, _ := runOne(nfssim.ServerFiler, core.NoLimitsConfig(), 40, true)
	tbHash, _ := runOne(nfssim.ServerFiler, core.HashConfig(), 40, true)
	r := &ProfileResult{
		TopPreFix:        tbList.Sim.Profiler().Top(6),
		TopPostFix:       tbHash.Sim.Profiler().Top(6),
		BKLWaitBySection: tbHash.BKL.WaitBreakdown(),
	}
	var total, send time.Duration
	for sec, d := range r.BKLWaitBySection {
		total += d
		if sec == "sock_sendmsg" {
			send += d
		}
	}
	if total > 0 {
		r.SendFraction = float64(send) / float64(total)
	}
	return r
}

// ConcurrencyResult is §3.5's forward-looking claim: without the BKL in
// the send path, concurrent writers to separate files on separate CPUs
// make better aggregate progress.
type ConcurrencyResult struct {
	Writers     int
	LockMBps    float64 // aggregate, BKL across sends
	NoLockMBps  float64 // aggregate, lock released
	LockMeanLat time.Duration
	NoLockMean  time.Duration
}

// Render formats the comparison.
func (r *ConcurrencyResult) Render() string {
	return fmt.Sprintf(`Concurrent writers (§3.5), %d writers x 5 MB files, filer
  aggregate write throughput: BKL %.1f MBps -> no lock %.1f MBps
  mean write() latency:       BKL %v -> no lock %v
`, r.Writers, r.LockMBps, r.NoLockMBps, r.LockMeanLat, r.NoLockMean)
}

// Concurrency runs the multi-writer comparison.
func Concurrency() *ConcurrencyResult {
	const writers = 2
	run := func(cfg core.Config) *bonnie.ConcurrentResult {
		tb := nfssim.NewTestbed(nfssim.Options{Server: nfssim.ServerFiler, Client: cfg})
		return bonnie.RunConcurrent(tb.Sim, "conc", func(int) vfs.File { return tb.Open() }, writers, bonnie.Config{
			FileSize: 5 << 20, TimeLimit: 10 * time.Minute, SkipFlushClose: true,
		})
	}
	lock := run(core.HashConfig())
	nolock := run(core.EnhancedConfig())
	mean := func(r *bonnie.ConcurrentResult) time.Duration {
		var sum time.Duration
		var n int
		for _, w := range r.PerWriter {
			s := w.Trace.Summary()
			sum += s.Mean * time.Duration(s.Count)
			n += s.Count
		}
		return sum / time.Duration(n)
	}
	return &ConcurrencyResult{
		Writers:     writers,
		LockMBps:    lock.AggregateMBps(),
		NoLockMBps:  nolock.AggregateMBps(),
		LockMeanLat: mean(lock),
		NoLockMean:  mean(nolock),
	}
}

// ScalingResult is the scale-out experiment the paper's single-client
// test bed could not run: N client machines against one server.
type ScalingResult struct{ table[harness.Result] }

var scalingCols = []column[harness.Result]{
	{"config", func(r harness.Result) string { return r.Config }},
	{"clients", func(r harness.Result) string { return fmt.Sprint(r.Clients) }},
	{"per-client MBps", func(r harness.Result) string { return fmt.Sprintf("%.1f", r.CloseMBps) }},
	{"aggregate MBps", func(r harness.Result) string { return fmt.Sprintf("%.1f", r.AggMBps) }},
	{"fairness", func(r harness.Result) string { return fmt.Sprintf("%.3f", r.Fairness) }},
	{"server MBps", func(r harness.Result) string { return fmt.Sprintf("%.1f", r.ServerNetMBps) }},
}

// Render formats the table plus the headline observation.
func (r *ScalingResult) Render() string {
	var b strings.Builder
	b.WriteString(r.Table().String())
	b.WriteString("aggregate throughput converges on the server's sustained ingest as\n")
	b.WriteString("clients are added; the fairness column shows the server's FIFO request\n")
	b.WriteString("queue splitting that ceiling evenly across client machines\n")
	return b.String()
}

// Scaling runs the scale-out grid: stock vs enhanced clients, 1-8 client
// machines, full write+flush+close runs against the filer, all on the
// parallel harness. Per-client and aggregate throughput plus the Jain
// fairness index come straight from the harness's multi-client columns.
func Scaling() *ScalingResult {
	const fileMB = 5
	results := runGrid(harness.Grid{
		Servers: []nfssim.ServerKind{nfssim.ServerFiler},
		Configs: []harness.ClientConfig{
			{Name: "stock", Config: core.Stock244Config()},
			{Name: "enhanced", Config: core.EnhancedConfig()},
		},
		FileSizesMB: []int{fileMB},
		Clients:     []int{1, 2, 4, 8},
		TimeLimit:   10 * time.Minute,
	})
	return &ScalingResult{table[harness.Result]{
		fmt.Sprintf("Multi-client scale-out - %d MB per client, full runs, %s", fileMB, nfssim.ServerFiler),
		scalingCols, results}}
}

// LossResult is the lossy-network experiment the paper motivates but
// never runs: the same full write+flush+close benchmark over UDP and a
// TCP-style stream while the network drops IP fragments. Under UDP one
// lost 1500-byte fragment discards a whole 8 KB WRITE and the client
// stalls on its retransmit timer; the stream transport retransmits only
// the lost MTU-sized segment after an RTT-adaptive timeout.
type LossResult struct{ table[harness.Result] }

var lossCols = []column[harness.Result]{
	{"config", func(r harness.Result) string { return r.Config }},
	{"transport", func(r harness.Result) string { return r.Transport }},
	{"loss %", func(r harness.Result) string { return fmt.Sprintf("%g", r.Loss*100) }},
	{"write MBps", func(r harness.Result) string { return fmt.Sprintf("%.1f", r.WriteMBps) }},
	{"end-to-end MBps", func(r harness.Result) string { return fmt.Sprintf("%.2f", r.AggMBps) }},
	{"rexmt", func(r harness.Result) string { return fmt.Sprint(r.Retransmits) }},
	{"dup replies", func(r harness.Result) string { return fmt.Sprint(r.DupReplies) }},
}

// degradation returns 1 - (throughput at loss)/(throughput at loss 0)
// for one config/transport pair, or -1 if the baseline is missing.
func (r *LossResult) degradation(config, transport string, loss float64) float64 {
	var base, at float64
	for _, row := range r.Rows {
		if row.Config != config || row.Transport != transport {
			continue
		}
		if row.Loss == 0 {
			base = row.AggMBps
		}
		if row.Loss == loss {
			at = row.AggMBps
		}
	}
	if base <= 0 {
		return -1
	}
	return 1 - at/base
}

// Render formats the table plus the headline comparison: at every loss
// rate of 1% and above, TCP's end-to-end throughput degrades strictly
// less than UDP's.
func (r *LossResult) Render() string {
	var b strings.Builder
	b.WriteString(r.Table().String())
	for _, cfg := range []string{"stock", "enhanced"} {
		for _, loss := range []float64{0.01, 0.05} {
			u, t := r.degradation(cfg, "udp", loss), r.degradation(cfg, "tcp", loss)
			if u < 0 || t < 0 {
				continue
			}
			fmt.Fprintf(&b, "%s @ %g%% fragment loss: UDP loses %.1f%% of its throughput, TCP %.1f%% (TCP strictly better: %v)\n",
				cfg, loss*100, u*100, t*100, t < u)
		}
	}
	b.WriteString("one lost fragment costs UDP the whole 8 KB WRITE plus a backed-off\n")
	b.WriteString("retransmit timeout; TCP resends only the missing segment\n")
	return b.String()
}

// LossSweep runs the lossy-network grid: stock and enhanced clients over
// UDP and TCP at 0/0.1/1/5 % per-fragment loss, full runs against the
// filer, all on the parallel harness.
func LossSweep() *LossResult {
	const fileMB = 5
	results := runGrid(harness.Grid{
		Servers: []nfssim.ServerKind{nfssim.ServerFiler},
		Configs: []harness.ClientConfig{
			{Name: "stock", Config: core.Stock244Config()},
			{Name: "enhanced", Config: core.EnhancedConfig()},
		},
		FileSizesMB: []int{fileMB},
		Transports:  []rpcsim.TransportKind{rpcsim.TransportUDP, rpcsim.TransportTCP},
		LossRates:   []float64{0, 0.001, 0.01, 0.05},
		TimeLimit:   10 * time.Minute,
	})
	return &LossResult{table[harness.Result]{
		fmt.Sprintf("Lossy network - %d MB full runs, %s, UDP vs TCP", fileMB, nfssim.ServerFiler),
		lossCols, results}}
}

// readHitRate is a run's page-cache read hits over lookups (0 when the
// run never read).
func readHitRate(r harness.Result) float64 {
	if lookups := r.ReadHits + r.ReadMisses; lookups > 0 {
		return float64(r.ReadHits) / float64(lookups)
	}
	return 0
}

// ReadSweepResult is the read-path experiment the paper's write-only
// benchmark never ran: sequential read, rewrite, and mixed read/write
// workloads, with the client readahead window as the ablation axis —
// the read-side dual of the paper's write-behind study. A row's
// WriteMBps is its I/O-phase throughput: the read rate for reads.
type ReadSweepResult struct{ table[harness.Result] }

var readCols = []column[harness.Result]{
	{"config", func(r harness.Result) string { return r.Config }},
	{"workload", func(r harness.Result) string { return r.Workload }},
	{"MBps", func(r harness.Result) string { return fmt.Sprintf("%.1f", r.WriteMBps) }},
	{"end-to-end MBps", func(r harness.Result) string { return fmt.Sprintf("%.1f", r.AggMBps) }},
	{"read RPCs", func(r harness.Result) string { return fmt.Sprint(r.ReadRPCs) }},
	{"hit rate", func(r harness.Result) string { return fmt.Sprintf("%.3f", readHitRate(r)) }},
}

// Render formats the table plus the headline observation: on sequential
// reads the enhanced readahead window strictly outperforms readahead
// off, because the window keeps rsize READs in flight ahead of the
// reader instead of stalling a full round trip per chunk.
func (r *ReadSweepResult) Render() string {
	var b strings.Builder
	b.WriteString(r.Table().String())
	on, off := r.Row("enhanced", "read").WriteMBps, r.Row("ra-off", "read").WriteMBps
	if off > 0 {
		fmt.Fprintf(&b, "sequential read: enhanced readahead %.1f MBps vs readahead-off %.1f MBps (%.1fx, strictly better: %v)\n",
			on, off, on/off, on > off)
	}
	b.WriteString("readahead hides the per-chunk round trip the same way write-behind\n")
	b.WriteString("hides the WRITE RPC; the mixed rows show both daemons sharing the mount\n")
	return b.String()
}

// ReadSweep runs the read-path grid on the parallel harness: stock and
// enhanced readahead sizing plus a readahead-off ablation, each driving
// the sequential-read, rewrite, and mixed workloads against the filer.
func ReadSweep() *ReadSweepResult {
	const fileMB = 10
	raOff := core.EnhancedConfig()
	raOff.ReadaheadMaxPages = core.ReadaheadOff
	results := runGrid(harness.Grid{
		Servers: []nfssim.ServerKind{nfssim.ServerFiler},
		Configs: []harness.ClientConfig{
			{Name: "stock", Config: core.Stock244Config()},
			{Name: "enhanced", Config: core.EnhancedConfig()},
			{Name: "ra-off", Config: raOff},
		},
		FileSizesMB: []int{fileMB},
		Workloads: []bonnie.Workload{bonnie.WorkloadRead, bonnie.WorkloadRewrite,
			bonnie.WorkloadMixed},
		TimeLimit: 10 * time.Minute,
	})
	return &ReadSweepResult{table[harness.Result]{
		fmt.Sprintf("Read path - %d MB full runs, %s, readahead ablation", fileMB, nfssim.ServerFiler),
		readCols, results}}
}

// RandomSweepResult is the random-access experiment the paper's
// sequential benchmark never ran: the same total I/O delivered front to
// back versus in a seeded random permutation, for reads and writes,
// across the fix progression. Random writes never coalesce beyond one
// chunk and pile thousands of non-adjacent requests into the pending
// list, so the O(n) scans of the linear list (fix 2's target) dominate —
// the figure-3/4 divergence under a workload that actually stresses it.
type RandomSweepResult struct{ table[harness.Result] }

var randomCols = []column[harness.Result]{
	{"config", func(r harness.Result) string { return r.Config }},
	{"workload", func(r harness.Result) string { return r.Workload }},
	{"MBps", func(r harness.Result) string { return fmt.Sprintf("%.1f", r.WriteMBps) }},
	{"RPCs", func(r harness.Result) string { return fmt.Sprint(r.RPCsSent + r.ReadRPCs) }},
	{"soft flushes", func(r harness.Result) string { return fmt.Sprint(r.SoftFlushes) }},
	{"hit rate", func(r harness.Result) string { return fmt.Sprintf("%.3f", readHitRate(r)) }},
}

// Render formats the table plus the headline observations: the hash
// client pays no random-write penalty (parity with its own sequential
// rate) and beats both the stock client and the linear-list client on
// random writes, where the list scans dominate.
func (r *RandomSweepResult) Render() string {
	var b strings.Builder
	b.WriteString(r.Table().String())
	hashSeq, hashRand := r.Row("hash", "write").WriteMBps, r.Row("hash", "randwrite").WriteMBps
	listRand := r.Row("nolimits", "randwrite").WriteMBps
	stockRand := r.Row("stock", "randwrite").WriteMBps
	if hashSeq > 0 && listRand > 0 && stockRand > 0 {
		fmt.Fprintf(&b, "random writes: hash %.1f MBps vs linear list %.1f (%.2fx) vs stock %.1f (%.2fx)\n",
			hashRand, listRand, hashRand/listRand, stockRand, hashRand/stockRand)
		fmt.Fprintf(&b, "hash client random/sequential parity: %.1f vs %.1f MBps (ratio %.3f)\n",
			hashRand, hashSeq, hashRand/hashSeq)
	}
	if seqRead, randRead := r.Row("enhanced", "read").WriteMBps, r.Row("enhanced", "randread").WriteMBps; randRead > 0 {
		fmt.Fprintf(&b, "random reads defeat readahead: %.1f MBps vs %.1f sequential (enhanced)\n",
			randRead, seqRead)
	}
	b.WriteString("random chunk updates never coalesce past one chunk, so the pending list\n")
	b.WriteString("grows non-adjacent and every lookup rescans it; the hash table makes the\n")
	b.WriteString("same workload indistinguishable from a sequential one\n")
	return b.String()
}

// RandomSweep runs the random-access grid on the parallel harness: the
// fix progression (stock, nolimits = fix 1's unbounded linear list, hash,
// enhanced) x sequential/random x read/write, write-phase throughput
// against the filer. The random workloads visit every chunk exactly once
// in a permutation derived from the scenario seed, so reruns and worker
// counts reproduce the same I/O order.
func RandomSweep() *RandomSweepResult {
	const fileMB = 25
	results := runGrid(harness.Grid{
		Servers: []nfssim.ServerKind{nfssim.ServerFiler},
		Configs: []harness.ClientConfig{
			{Name: "stock", Config: core.Stock244Config()},
			{Name: "nolimits", Config: core.NoLimitsConfig()},
			{Name: "hash", Config: core.HashConfig()},
			{Name: "enhanced", Config: core.EnhancedConfig()},
		},
		FileSizesMB: []int{fileMB},
		Workloads: []bonnie.Workload{bonnie.WorkloadWrite, bonnie.WorkloadRandWrite,
			bonnie.WorkloadRead, bonnie.WorkloadRandRead},
		SkipFlushClose: true,
		TimeLimit:      20 * time.Minute,
	})
	return &RandomSweepResult{table[harness.Result]{
		fmt.Sprintf("Random access - %d MB write-phase runs, %s, seq vs random", fileMB, nfssim.ServerFiler),
		randomCols, results}}
}

// FsyncTime is the total time a run spent inside group-commit fsyncs.
func FsyncTime(r harness.Result) time.Duration {
	return time.Duration(r.FsyncUs * float64(time.Microsecond))
}

// TxPerSec is a run's chunk updates per second, fsync included (0 when
// the run wrote nothing).
func TxPerSec(r harness.Result) float64 {
	if r.WriteMBps <= 0 {
		return 0
	}
	elapsedSec := float64(int64(r.FileMB)<<20) / (r.WriteMBps * 1e6)
	return float64(r.Calls) / elapsedSec
}

// DBLoadResult is the §3.6 durability experiment: random page updates in
// a preallocated table file with a group-commit fsync every FsyncEvery
// chunks — the access pattern of the "complex corporate applications
// such as database and mail services" the paper's introduction
// motivates. The filer acknowledges WRITEs from NVRAM and never needs a
// COMMIT, so its group commits return as soon as the queue drains; the
// Linux server answers UNSTABLE and makes fsync wait on its disk.
type DBLoadResult struct{ table[harness.Result] }

var dbCols = []column[harness.Result]{
	{"server", func(r harness.Result) string { return r.Server }},
	{"config", func(r harness.Result) string { return r.Config }},
	{"MBps", func(r harness.Result) string { return fmt.Sprintf("%.1f", r.WriteMBps) }},
	{"fsyncs", func(r harness.Result) string { return fmt.Sprint(r.FsyncCount) }},
	{"in fsync", func(r harness.Result) string { return FsyncTime(r).Round(time.Millisecond).String() }},
	{"COMMITs", func(r harness.Result) string { return fmt.Sprint(r.CommitRPCs) }},
	{"tx/sec", func(r harness.Result) string { return fmt.Sprintf("%.0f", TxPerSec(r)) }},
}

// Render formats the table plus the §3.6 headline: "where applications
// require data permanence before a write() system call returns, the
// Network Appliance filer ... performs better".
func (r *DBLoadResult) Render() string {
	var b strings.Builder
	b.WriteString(r.Table().String())
	for _, cfg := range []string{"stock", "enhanced"} {
		f, l := r.Row("filer", cfg), r.Row("linux", cfg)
		if f == nil || l == nil {
			continue
		}
		ft, lt := FsyncTime(*f), FsyncTime(*l)
		fmt.Fprintf(&b, "%s: fsync costs %v on the filer vs %v on the Linux server (filer faster: %v)\n",
			cfg, ft.Round(time.Millisecond), lt.Round(time.Millisecond), ft < lt)
	}
	b.WriteString("the filer never needs COMMIT (NVRAM): group commits return once the\n")
	b.WriteString("WRITE queue drains; the Linux server answers UNSTABLE and every fsync\n")
	b.WriteString("pays a COMMIT that waits on the server's disk\n")
	return b.String()
}

// DBLoad runs the database-style durability grid on the parallel
// harness: stock vs enhanced clients against the filer and the Linux
// server, random chunk updates with group commit (bonnie.WorkloadDB).
func DBLoad() *DBLoadResult {
	const fileMB = 20
	const fsyncEvery = 50
	results := runGrid(harness.Grid{
		Servers: []nfssim.ServerKind{nfssim.ServerFiler, nfssim.ServerLinux},
		Configs: []harness.ClientConfig{
			{Name: "stock", Config: core.Stock244Config()},
			{Name: "enhanced", Config: core.EnhancedConfig()},
		},
		FileSizesMB: []int{fileMB},
		Workloads:   []bonnie.Workload{bonnie.WorkloadDB},
		FsyncEvery:  fsyncEvery,
		TimeLimit:   20 * time.Minute,
	})
	return &DBLoadResult{table[harness.Result]{
		fmt.Sprintf("Database load - %d MB random page updates, fsync every %d chunks", fileMB, fsyncEvery),
		dbCols, results}}
}

// ZipfSweepResult is the many-file metadata experiment the paper's
// single-file benchmark never ran: each op opens/writes/reads/stats/
// removes a file drawn from a Zipfian popularity distribution, crossed
// with the client attribute cache on/off and skewed vs uniform file
// choice. The attribute cache converts repeat opens of hot files into
// cache hits, cutting GETATTR/LOOKUP RPCs and raising aggregate
// throughput; skew concentrates ops on a hot set, so zipf beats uniform
// on cache hit rate and total metadata RPCs. (Throughput is not the
// skew comparison's metric: local writes invalidate cached attributes,
// and the hot set's files carry real data whose reads cost wire time,
// so MBps confounds cache savings with bytes moved.) Rows are keyed by
// skew ("zipf" or "uniform") and attribute cache ("on" for the adaptive
// defaults, "off" for mount -o noac).
type ZipfSweepResult struct{ table[harness.Result] }

var zipfCols = []column[harness.Result]{
	{"skew", func(r harness.Result) string {
		if r.Scenario.ZipfS == bonnie.ZipfUniform {
			return "uniform"
		}
		return "zipf"
	}},
	{"attr cache", func(r harness.Result) string {
		if r.Scenario.AcTimeout < 0 {
			return "off"
		}
		return "on"
	}},
	{"agg MBps", func(r harness.Result) string { return fmt.Sprintf("%.2f", r.AggMBps) }},
	{"LOOKUPs", func(r harness.Result) string { return fmt.Sprint(r.LookupRPCs) }},
	{"GETATTRs", func(r harness.Result) string { return fmt.Sprint(r.GetattrRPCs) }},
	{"CREATEs", func(r harness.Result) string { return fmt.Sprint(r.CreateRPCs) }},
	{"REMOVEs", func(r harness.Result) string { return fmt.Sprint(r.RemoveRPCs) }},
	{"hit rate", func(r harness.Result) string { return fmt.Sprintf("%.3f", r.AttrCacheHitRate) }},
}

// Render formats the table plus the headline comparisons: the attribute
// cache strictly cuts GETATTR revalidations and raises throughput vs
// noac, and the Zipfian hot set beats uniform access.
func (r *ZipfSweepResult) Render() string {
	var b strings.Builder
	b.WriteString(r.Table().String())
	if on, off := r.Row("zipf", "on"), r.Row("zipf", "off"); on != nil && off != nil {
		fmt.Fprintf(&b, "attribute cache: %d GETATTRs vs %d with noac (fewer: %v); %.2f vs %.2f MBps (faster: %v)\n",
			on.GetattrRPCs, off.GetattrRPCs, on.GetattrRPCs < off.GetattrRPCs,
			on.AggMBps, off.AggMBps, on.AggMBps > off.AggMBps)
	}
	if z, u := r.Row("zipf", "on"), r.Row("uniform", "on"); z != nil && u != nil {
		zm, um := z.LookupRPCs+z.GetattrRPCs+z.CreateRPCs, u.LookupRPCs+u.GetattrRPCs+u.CreateRPCs
		fmt.Fprintf(&b, "hot-set skew: hit rate %.3f vs uniform %.3f (higher: %v); %d metadata RPCs vs %d (fewer: %v)\n",
			z.AttrCacheHitRate, u.AttrCacheHitRate, z.AttrCacheHitRate > u.AttrCacheHitRate, zm, um, zm < um)
	}
	b.WriteString("every op resolves its name through the attribute cache; hot files stay\n")
	b.WriteString("fresh between opens, so the cache saves the per-open GETATTR the way\n")
	b.WriteString("write-behind saves per-write round trips\n")
	return b.String()
}

// ZipfSweep runs the many-file metadata grid on the parallel harness:
// the enhanced client against the filer, the zipf workload at the
// default skew and at uniform, with the attribute cache at its adaptive
// defaults and disabled (mount -o noac).
func ZipfSweep() *ZipfSweepResult {
	const fileMB = 4
	const fileCount = 100
	results := runGrid(harness.Grid{
		Servers:     []nfssim.ServerKind{nfssim.ServerFiler},
		Configs:     []harness.ClientConfig{{Name: "enhanced", Config: core.EnhancedConfig()}},
		FileSizesMB: []int{fileMB},
		Workloads:   []bonnie.Workload{bonnie.WorkloadZipf},
		FileCounts:  []int{fileCount},
		ZipfSs:      []float64{bonnie.DefaultZipfS, bonnie.ZipfUniform},
		AcTimeouts:  []sim.Time{0, core.AcOff},
		TimeLimit:   10 * time.Minute,
	})
	return &ZipfSweepResult{table[harness.Result]{
		fmt.Sprintf("Many-file metadata - %d MB op budget over %d files, %s, enhanced client",
			fileMB, fileCount, nfssim.ServerFiler),
		zipfCols, results}}
}

// CoherenceSweepResult is the cache-coherence experiment: half the
// clients rewrite one shared file while the other half re-open and
// re-read it, under each consistency mode. Strict mode revalidates
// every open with a GETATTR, so no read is ever served from a stale
// cache — at the cost of per-open round trips and invalidation-driven
// refetches. The ttl mode bounds staleness by the attribute-cache
// window and recovers most of the throughput; noac (in the sense of
// "never revalidate an open") tops the throughput table by trusting
// cached pages unboundedly, and pays in stale reads. Rows are keyed by
// mode: "strict", "ttl" or "noac".
type CoherenceSweepResult struct{ table[harness.Result] }

var coherenceCols = []column[harness.Result]{
	{"mode", func(r harness.Result) string { return r.Consistency }},
	{"agg MBps", func(r harness.Result) string { return fmt.Sprintf("%.2f", r.AggMBps) }},
	{"stale reads", func(r harness.Result) string { return fmt.Sprint(r.StaleReads) }},
	{"invalidations", func(r harness.Result) string { return fmt.Sprint(r.Invalidations) }},
	{"GETATTRs", func(r harness.Result) string { return fmt.Sprint(r.GetattrRPCs) }},
	{"change bumps", func(r harness.Result) string { return fmt.Sprint(r.ChangeBumps) }},
}

// Render formats the table plus the headline trade-off: strict buys
// zero staleness with GETATTR traffic, ttl bounds staleness below noac
// while giving up none of strict's throughput, noac reads fastest and
// stalest.
func (r *CoherenceSweepResult) Render() string {
	var b strings.Builder
	b.WriteString(r.Table().String())
	strict, ttl, noac := r.Row("strict"), r.Row("ttl"), r.Row("noac")
	if strict != nil && ttl != nil {
		fmt.Fprintf(&b, "strict close-to-open: %d stale reads (zero: %v); %d GETATTRs vs ttl's %d (more: %v)\n",
			strict.StaleReads, strict.StaleReads == 0,
			strict.GetattrRPCs, ttl.GetattrRPCs, strict.GetattrRPCs > ttl.GetattrRPCs)
	}
	if strict != nil && ttl != nil && noac != nil {
		fmt.Fprintf(&b, "ttl window: %d stale reads vs noac's %d (bounded: %v); %.2f vs strict's %.2f MBps (no slower: %v)\n",
			ttl.StaleReads, noac.StaleReads, ttl.StaleReads < noac.StaleReads,
			ttl.AggMBps, strict.AggMBps, ttl.AggMBps >= strict.AggMBps)
	}
	b.WriteString("every GETATTR a mode skips is a round trip saved and a chance to serve\n")
	b.WriteString("a page the writers already replaced; the change attribute is what turns\n")
	b.WriteString("the revalidation that is issued into an actual invalidation\n")
	return b.String()
}

// CoherenceWindow is the ttl attribute-cache window the coherence sweep
// pins. It must sit between one reader pass over the shared span
// (shorter and ttl degenerates to strict: every open ages out) and the
// full run (longer and ttl degenerates to noac: no open ever ages out).
const CoherenceWindow = sim.Time(40 * time.Millisecond)

// CoherenceSweep runs the cache-coherence grid on the parallel harness:
// four enhanced clients against the filer, the shared workload (two
// writers, two readers on one file) under strict, ttl and noac
// consistency.
func CoherenceSweep() *CoherenceSweepResult {
	const fileMB = 2
	const clients = 4
	results := runGrid(harness.Grid{
		Servers:     []nfssim.ServerKind{nfssim.ServerFiler},
		Configs:     []harness.ClientConfig{{Name: "enhanced", Config: core.EnhancedConfig()}},
		FileSizesMB: []int{fileMB},
		Clients:     []int{clients},
		Workloads:   []bonnie.Workload{bonnie.WorkloadShared},
		AcTimeouts:  []sim.Time{CoherenceWindow},
		Consistencies: []core.ConsistencyMode{
			core.ConsistencyStrict, core.ConsistencyTTL, core.ConsistencyNoac,
		},
		TimeLimit: 10 * time.Minute,
	})
	return &CoherenceSweepResult{table[harness.Result]{
		fmt.Sprintf("Cache coherence - %d clients sharing one %d MB file, %s, enhanced client, ttl window %v",
			clients, fileMB, nfssim.ServerFiler, time.Duration(CoherenceWindow)),
		coherenceCols, results}}
}

// JumboResult is the §3.5 future-work ablation: jumbo frames cut IP
// fragmentation, reducing per-RPC sock_sendmsg CPU.
type JumboResult struct {
	StandardMBps    float64
	JumboMBps       float64
	StandardSendCPU time.Duration // total sock_sendmsg CPU, standard MTU
	JumboSendCPU    time.Duration
}

// Render formats the ablation.
func (r *JumboResult) Render() string {
	return fmt.Sprintf(`Jumbo-frame ablation (§3.5 future work), filer, enhanced client, 20 MB
  write throughput: MTU 1500 %.1f MBps -> MTU 9000 %.1f MBps
  sock_sendmsg CPU: MTU 1500 %v -> MTU 9000 %v
`, r.StandardMBps, r.JumboMBps, r.StandardSendCPU, r.JumboSendCPU)
}

// Jumbo runs the jumbo-frame ablation as a harness grid over the MTU
// axis: filer, enhanced client, 20 MB, standard versus jumbo frames.
func Jumbo() *JumboResult {
	results := runGrid(harness.Grid{
		Servers:     []nfssim.ServerKind{nfssim.ServerFiler},
		Configs:     []harness.ClientConfig{{Name: "enhanced", Config: core.EnhancedConfig()}},
		FileSizesMB: []int{20},
		Jumbo:       []bool{false, true},
		TimeLimit:   10 * time.Minute,
	})
	r := &JumboResult{}
	for _, res := range results {
		if res.Jumbo {
			r.JumboMBps, r.JumboSendCPU = res.FlushMBps, res.SendCPU
		} else {
			r.StandardMBps, r.StandardSendCPU = res.FlushMBps, res.SendCPU
		}
	}
	return r
}

// SlotWaitShare is the share of a run's RPCs that found their client's
// slot table full. As a fleet grows the server becomes the bottleneck,
// replies slow down, slots stay occupied longer, and new requests
// convoy behind them — the client-visible signature of server
// saturation.
func SlotWaitShare(r harness.Result) float64 {
	if total := r.RPCs(); total > 0 {
		return float64(r.SlotWaits) / float64(total)
	}
	return 0
}

// slotWaitUs is the mean time, in microseconds, a waiting RPC spent
// queued for a slot.
func slotWaitUs(r harness.Result) float64 {
	if r.SlotWaits > 0 {
		return r.SlotWaitUs / float64(r.SlotWaits)
	}
	return 0
}

// FleetResult is the fleet experiment: the Clients axis extended past
// the paper's hardware to 10/100/1000 client machines in one
// deterministic simulation (ROADMAP item 2).
type FleetResult struct{ table[harness.Result] }

var fleetCols = []column[harness.Result]{
	{"clients", func(r harness.Result) string { return fmt.Sprint(r.Clients) }},
	{"per-client MBps", func(r harness.Result) string { return fmt.Sprintf("%.2f", r.CloseMBps) }},
	{"aggregate MBps", func(r harness.Result) string { return fmt.Sprintf("%.1f", r.AggMBps) }},
	{"fairness", func(r harness.Result) string { return fmt.Sprintf("%.3f", r.Fairness) }},
	{"server MBps", func(r harness.Result) string { return fmt.Sprintf("%.1f", r.ServerNetMBps) }},
	{"slot-wait share", func(r harness.Result) string { return fmt.Sprintf("%.3f", SlotWaitShare(r)) }},
	{"slot-wait us", func(r harness.Result) string { return fmt.Sprintf("%.0f", slotWaitUs(r)) }},
}

// Render formats the table plus the headline observation.
func (r *FleetResult) Render() string {
	var b strings.Builder
	b.WriteString(r.Table().String())
	b.WriteString("the server's sustained ingest is a fixed ceiling, so per-client\n")
	b.WriteString("throughput falls as 1/N while fairness holds near 1.0; the slot-wait\n")
	b.WriteString("columns show requests convoying behind occupied slots as replies slow\n")
	return b.String()
}

// Fleet runs the fleet grid: an enhanced client fleet of 10/100/1000
// machines, each writing a small file through close against the filer.
// Kept affordable by the kernel's event-queue and allocation work — a
// thousand-client run is a single simulation with ~3000 live processes.
func Fleet() *FleetResult {
	return FleetAt([]int{10, 100, 1000}, 1)
}

// FleetAt runs the fleet table at explicit client counts and per-client
// file size — the parameterized form behind Fleet, the shape test, and
// BenchmarkFleet1000.
func FleetAt(clients []int, fileMB int) *FleetResult {
	results := runGrid(harness.Grid{
		Servers:     []nfssim.ServerKind{nfssim.ServerFiler},
		Configs:     []harness.ClientConfig{{Name: "enhanced", Config: core.EnhancedConfig()}},
		FileSizesMB: []int{fileMB},
		Clients:     clients,
		TimeLimit:   2 * time.Hour,
	})
	return &FleetResult{table[harness.Result]{
		fmt.Sprintf("Thousand-client fleet - %d MB per client, full runs, %s/enhanced", fileMB, nfssim.ServerFiler),
		fleetCols, results}}
}
