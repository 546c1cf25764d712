package nfssim_test

// One benchmark per table and figure in the paper's evaluation, plus
// ablation benches for the design choices DESIGN.md calls out. Each
// iteration regenerates the artifact on a fresh deterministic test bed
// and reports the headline quantity as a custom metric, so
// `go test -bench=.` prints the same rows/series the paper reports, and
// checks each one exactly against testdata/bench.golden.

import (
	"bufio"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	nfssim "repro"
	"repro/internal/bonnie"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/rpcsim"
)

var update = flag.Bool("update", false, "rewrite testdata/bench.golden from the metrics this run reports")

const goldenPath = "testdata/bench.golden"

// golden holds testdata/bench.golden: benchmark name -> unit -> value,
// each value written by strconv.FormatFloat(v, 'g', -1, 64), which
// round-trips, so equal strings mean equal float64s. Every metric below
// is a simulated quantity, the same on every run, so it is pinned
// exactly. (The golden is captured on amd64; a compiler that fuses
// multiply-adds, as Go does on arm64, may move the last bits.)
var golden = map[string]map[string]string{}

// reported holds the units each running benchmark has reported in its
// current run, so the run's cleanup can name the golden units it omitted.
var reported = map[*testing.B]map[string]bool{}

func TestMain(m *testing.M) {
	flag.Parse()
	if err := loadGolden(); err != nil && !*update {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := m.Run()
	if *update && code == 0 {
		if err := writeGolden(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// loadGolden reads one "name<TAB>unit<TAB>value" line per metric.
func loadGolden() error {
	f, err := os.Open(goldenPath)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, rest, _ := strings.Cut(sc.Text(), "\t")
		unit, value, _ := strings.Cut(rest, "\t")
		if golden[name] == nil {
			golden[name] = map[string]string{}
		}
		golden[name][unit] = value
	}
	return sc.Err()
}

// writeGolden rewrites the golden, sorted by benchmark and unit. A run
// of some benchmarks (-bench Fig2) replaces only their entries.
func writeGolden() error {
	var lines []string
	for name, units := range golden {
		for unit, value := range units {
			lines = append(lines, name+"\t"+unit+"\t"+value+"\n")
		}
	}
	slices.Sort(lines)
	return os.WriteFile(goldenPath, []byte(strings.Join(lines, "")), 0o644)
}

// report publishes a simulated metric and checks it exactly against
// testdata/bench.golden; -update records it instead. A unit the golden
// lacks fails, and so does a golden unit this benchmark's run omits.
func report(b *testing.B, v float64, unit string) {
	b.Helper()
	b.ReportMetric(v, unit)
	name := b.Name()
	units, ok := reported[b]
	if !ok {
		units = map[string]bool{}
		reported[b] = units
		if *update {
			golden[name] = map[string]string{}
		}
		b.Cleanup(func() {
			delete(reported, b)
			if b.Failed() {
				return
			}
			for _, u := range slices.Sorted(maps.Keys(golden[name])) {
				if !units[u] {
					b.Errorf("%s %s: got (none), want %s (%s)", name, u, golden[name][u], goldenPath)
				}
			}
		})
	}
	units[unit] = true
	got := strconv.FormatFloat(v, 'g', -1, 64)
	if *update {
		golden[name][unit] = got
		return
	}
	want, ok := golden[name][unit]
	if !ok {
		want = "(none)"
	}
	if got != want {
		b.Fatalf("%s %s: got %s, want %s (%s)", name, unit, got, want, goldenPath)
	}
}

// row returns the experiment table's row for key and fails the
// benchmark when there is none, so a renamed row cannot silently drop
// its metrics.
func row[T any](b *testing.B, t interface{ Row(...string) *T }, key ...string) *T {
	b.Helper()
	r := t.Row(key...)
	if r == nil {
		b.Fatalf("%s: no row %q", b.Name(), key)
	}
	return r
}

// quickSizes keeps the sweep benches to a practical iteration time while
// preserving the curve's shape (plateau, knee, tail).
var quickSizes = []int{25, 100, 200, 250, 300, 450}

func BenchmarkFig1LocalVsNFSStock(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1(quickSizes)
		report(b, r.Local.MaxY()/1000, "local-peak-MB/s")
		report(b, r.Filer.YAt(100)/1000, "filer-MB/s@100MB")
		report(b, r.Linux.YAt(100)/1000, "linux-MB/s@100MB")
	}
}

func BenchmarkFig2PeriodicSpikes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig2()
		report(b, float64(r.MeanAll.Microseconds()), "mean-us")
		report(b, float64(r.MeanBelow.Microseconds()), "mean-excl-spikes-us")
		report(b, r.SpikePeriod, "spike-period-calls")
		report(b, float64(r.Spikes), "spikes")
	}
}

func BenchmarkFig3LinearListGrowth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig3()
		report(b, float64(r.MeanAll.Microseconds()), "mean-us")
		report(b, r.SlopeNsCall, "slope-ns/call")
		report(b, r.Result.WriteMBps(), "write-MB/s")
	}
}

func BenchmarkFig4HashTableFlat(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig4()
		report(b, float64(r.MeanAll.Microseconds()), "mean-us")
		report(b, r.SlopeNsCall, "slope-ns/call")
		report(b, r.Result.WriteMBps(), "write-MB/s")
	}
}

func BenchmarkFig5HistogramsBKL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig5()
		report(b, float64(r.FilerMean.Microseconds()), "filer-mean-us")
		report(b, float64(r.LinuxMean.Microseconds()), "linux-mean-us")
		report(b, float64(r.FilerTail), "filer-tail-calls")
		report(b, float64(r.LinuxTail), "linux-tail-calls")
	}
}

func BenchmarkFig6HistogramsNoLock(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig6()
		report(b, float64(r.FilerMean.Microseconds()), "filer-mean-us")
		report(b, float64(r.LinuxMean.Microseconds()), "linux-mean-us")
		report(b, float64(r.FilerTail), "filer-tail-calls")
		report(b, float64(r.LinuxTail), "linux-tail-calls")
	}
}

func BenchmarkTable1LockVsNoLock(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table1()
		report(b, r.FilerLockMBps, "filer-lock-MB/s")
		report(b, r.FilerNoLockMBps, "filer-nolock-MB/s")
		report(b, r.LinuxLockMBps, "linux-lock-MB/s")
		report(b, r.LinuxNoLockMBps, "linux-nolock-MB/s")
	}
}

func BenchmarkFig7LocalVsNFSEnhanced(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig7(quickSizes)
		report(b, r.Filer.YAt(100)/1000, "filer-MB/s@100MB")
		report(b, r.Filer.YAt(450)/1000, "filer-MB/s@450MB")
		report(b, r.Linux.YAt(450)/1000, "linux-MB/s@450MB")
		report(b, r.Local.YAt(450)/1000, "local-MB/s@450MB")
	}
}

func BenchmarkSlow100Paradox(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Slow100()
		report(b, r.SlowMBps, "slow-mem-MB/s")
		report(b, r.FilerMBps, "filer-mem-MB/s")
	}
}

func BenchmarkJumboAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Jumbo()
		report(b, r.StandardMBps, "mtu1500-MB/s")
		report(b, r.JumboMBps, "mtu9000-MB/s")
	}
}

// --- Ablation benches (DESIGN.md §4) ---

// benchRun runs a 10 MB write-phase benchmark and returns MB/s.
func benchRun(srv nfssim.ServerKind, cfg core.Config, cpus int) float64 {
	tb := nfssim.NewTestbed(nfssim.Options{Server: srv, Client: cfg, ClientCPUs: cpus})
	res := bonnie.Run(tb.Sim, "bench", tb.Open, bonnie.Config{
		FileSize: 10 << 20, TimeLimit: 10 * time.Minute, SkipFlushClose: true,
	})
	return res.WriteMBps()
}

// BenchmarkAblationSoftLimit sweeps MAX_REQUEST_SOFT to show the paper's
// limit (192) is in the stall-dominated regime.
func BenchmarkAblationSoftLimit(b *testing.B) {
	for _, soft := range []int{64, 192, 1024, 4096} {
		b.Run(strconv.Itoa(soft), func(b *testing.B) {
			cfg := core.Stock244Config()
			cfg.MaxRequestSoft = soft
			cfg.MaxRequestHard = soft + 64
			for i := 0; i < b.N; i++ {
				report(b, benchRun(nfssim.ServerFiler, cfg, 2), "write-MB/s")
			}
		})
	}
}

// BenchmarkAblationIndex compares the two request-index structures at a
// backlog large enough to expose the O(n) scans.
func BenchmarkAblationIndex(b *testing.B) {
	for _, idx := range []core.IndexPolicy{core.IndexLinearList, core.IndexHashTable} {
		b.Run(idx.String(), func(b *testing.B) {
			cfg := core.NoLimitsConfig()
			cfg.IndexPolicy = idx
			for i := 0; i < b.N; i++ {
				report(b, benchRun(nfssim.ServerFiler, cfg, 2), "write-MB/s")
			}
		})
	}
}

// BenchmarkAblationLockPolicy isolates fix 3 on both servers.
func BenchmarkAblationLockPolicy(b *testing.B) {
	for _, srv := range []nfssim.ServerKind{nfssim.ServerFiler, nfssim.ServerLinux} {
		for _, lp := range []rpcsim.LockPolicy{rpcsim.HoldBKLAcrossSend, rpcsim.ReleaseBKLForSend} {
			b.Run(srv.String()+"/"+lp.String(), func(b *testing.B) {
				cfg := core.HashConfig()
				cfg.LockPolicy = lp
				for i := 0; i < b.N; i++ {
					report(b, benchRun(srv, cfg, 2), "write-MB/s")
				}
			})
		}
	}
}

// BenchmarkAblationCPUs compares uniprocessor and SMP clients.
func BenchmarkAblationCPUs(b *testing.B) {
	for _, cpus := range []int{1, 2} {
		b.Run(strconv.Itoa(cpus)+"cpu", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				report(b, benchRun(nfssim.ServerFiler, core.EnhancedConfig(), cpus), "write-MB/s")
			}
		})
	}
}

// BenchmarkAblationWSize sweeps the mount's wsize.
func BenchmarkAblationWSize(b *testing.B) {
	for _, w := range []int{4096, 8192, 16384, 32768} {
		b.Run(strconv.Itoa(w), func(b *testing.B) {
			cfg := core.EnhancedConfig()
			cfg.WSize = w
			for i := 0; i < b.N; i++ {
				report(b, benchRun(nfssim.ServerFiler, cfg, 2), "flush-MB/s")
			}
		})
	}
}

// BenchmarkAblationSlotTable sweeps the RPC slot-table depth.
func BenchmarkAblationSlotTable(b *testing.B) {
	for _, slots := range []int{2, 8, 16, 64} {
		b.Run(strconv.Itoa(slots), func(b *testing.B) {
			rpcCfg := rpcsim.DefaultConfig()
			rpcCfg.MaxSlots = slots
			for i := 0; i < b.N; i++ {
				tb := nfssim.NewTestbed(nfssim.Options{
					Server: nfssim.ServerFiler,
					Client: core.EnhancedConfig(),
					RPC:    &rpcCfg,
				})
				res := bonnie.Run(tb.Sim, "slots", tb.Open, bonnie.Config{
					FileSize: 10 << 20, TimeLimit: 10 * time.Minute,
				})
				report(b, res.FlushMBps(), "flush-MB/s")
			}
		})
	}
}

// BenchmarkLossSweep regenerates the lossy-network table: UDP loss
// amplification versus TCP segment recovery at 1% fragment loss.
func BenchmarkLossSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.LossSweep()
		for _, tr := range []string{"udp", "tcp"} {
			report(b, row(b, r, "enhanced", tr, "1").AggMBps, tr+"-MB/s@1%loss")
		}
	}
}

// BenchmarkAblationTransport compares the two transports on a clean and
// on a mildly lossy network, full 10 MB runs against the filer.
func BenchmarkAblationTransport(b *testing.B) {
	for _, tr := range []rpcsim.TransportKind{rpcsim.TransportUDP, rpcsim.TransportTCP} {
		for _, loss := range []float64{0, 0.01} {
			b.Run(fmt.Sprintf("%s/loss%g", tr, loss), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					tb := nfssim.NewTestbed(nfssim.Options{
						Server:    nfssim.ServerFiler,
						Client:    core.EnhancedConfig(),
						Transport: tr,
						Loss:      loss,
					})
					res := bonnie.Run(tb.Sim, "transport", tb.Open, bonnie.Config{
						FileSize: 10 << 20, TimeLimit: 10 * time.Minute,
					})
					report(b, res.CloseMBps(), "close-MB/s")
				}
			})
		}
	}
}

// BenchmarkReadSweep regenerates the read-path table: sequential read,
// rewrite and mixed workloads with the readahead ablation.
func BenchmarkReadSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.ReadSweep()
		report(b, row(b, r, "enhanced", "read").WriteMBps, "enhanced-read-MB/s")
		report(b, row(b, r, "ra-off", "read").WriteMBps, "ra-off-read-MB/s")
		report(b, row(b, r, "enhanced", "mixed").WriteMBps, "enhanced-mixed-MB/s")
	}
}

// BenchmarkRandomSweep regenerates the random-access table: the fix
// progression under sequential vs random chunk I/O.
func BenchmarkRandomSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RandomSweep()
		report(b, row(b, r, "hash", "randwrite").WriteMBps, "hash-randwrite-MB/s")
		report(b, row(b, r, "nolimits", "randwrite").WriteMBps, "list-randwrite-MB/s")
		report(b, row(b, r, "stock", "randwrite").WriteMBps, "stock-randwrite-MB/s")
		report(b, row(b, r, "enhanced", "randread").WriteMBps, "enhanced-randread-MB/s")
	}
}

// BenchmarkDBLoad regenerates the database-load table: group-commit
// fsync cost on the filer vs the Linux server.
func BenchmarkDBLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.DBLoad()
		for _, srv := range []string{"filer", "linux"} {
			res := row(b, r, srv, "enhanced")
			report(b, experiments.TxPerSec(*res), srv+"-tx/s")
			report(b, float64(experiments.FsyncTime(*res).Milliseconds()), srv+"-fsync-ms")
		}
	}
}

// BenchmarkZipfSweep regenerates the many-file metadata table: the
// Zipfian op mix with the attribute cache on and off.
func BenchmarkZipfSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.ZipfSweep()
		on, off := row(b, r, "zipf", "on"), row(b, r, "zipf", "off")
		report(b, on.AggMBps, "ac-on-MB/s")
		report(b, on.AttrCacheHitRate, "ac-hit-rate")
		report(b, float64(on.GetattrRPCs), "ac-on-getattrs")
		report(b, off.AggMBps, "noac-MB/s")
		report(b, float64(off.GetattrRPCs), "noac-getattrs")
	}
}

func BenchmarkCoherenceSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.CoherenceSweep()
		strict, ttl, noac := row(b, r, "strict"), row(b, r, "ttl"), row(b, r, "noac")
		report(b, strict.AggMBps, "strict-MB/s")
		report(b, float64(strict.GetattrRPCs), "strict-getattrs")
		report(b, ttl.AggMBps, "ttl-MB/s")
		report(b, float64(ttl.StaleReads), "ttl-stale-reads")
		report(b, noac.AggMBps, "noac-MB/s")
		report(b, float64(noac.StaleReads), "noac-stale-reads")
	}
}

// BenchmarkAblationReadahead sweeps the readahead window cap on a
// sequential cold-file read against the filer.
func BenchmarkAblationReadahead(b *testing.B) {
	for _, maxPages := range []int{core.ReadaheadOff, core.StockReadaheadMaxPages, core.EnhancedReadaheadMaxPages, 256} {
		name := strconv.Itoa(maxPages)
		if maxPages == core.ReadaheadOff {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.EnhancedConfig()
			cfg.ReadaheadMaxPages = maxPages
			for i := 0; i < b.N; i++ {
				tb := nfssim.NewTestbed(nfssim.Options{Server: nfssim.ServerFiler, Client: cfg})
				res := bonnie.RunWorkload(tb.Sim, "ra", tb.OpenSet(), bonnie.Config{
					FileSize: 10 << 20, Workload: bonnie.WorkloadRead, TimeLimit: 10 * time.Minute,
				})
				report(b, res.WriteMBps(), "read-MB/s")
			}
		})
	}
}

// BenchmarkFleet1000 runs the thousand-client fleet row end to end: one
// simulation, ~3000 live processes, a thousand 1 MB write+flush+close
// sequences against a single filer. The wall-clock ns/op is the number
// the kernel work is judged by; the reported metrics pin the simulated
// outcome.
func BenchmarkFleet1000(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.FleetAt([]int{1000}, 1)
		row := r.Rows[0]
		report(b, row.AggMBps, "agg-MB/s")
		report(b, row.Fairness, "fairness")
		report(b, experiments.SlotWaitShare(row), "slot-wait-share")
	}
}
