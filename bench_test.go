package nfssim_test

// One benchmark per table and figure in the paper's evaluation, plus
// ablation benches for the design choices DESIGN.md calls out. Each
// iteration regenerates the artifact on a fresh deterministic test bed
// and reports the headline quantity as a custom metric, so
// `go test -bench=.` prints the same rows/series the paper reports.

import (
	"fmt"
	"testing"
	"time"

	nfssim "repro"
	"repro/internal/bonnie"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/rpcsim"
)

// quickSizes keeps the sweep benches to a practical iteration time while
// preserving the curve's shape (plateau, knee, tail).
var quickSizes = []int{25, 100, 200, 250, 300, 450}

func BenchmarkFig1LocalVsNFSStock(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1(quickSizes)
		b.ReportMetric(r.Local.MaxY()/1000, "local-peak-MB/s")
		b.ReportMetric(r.Filer.YAt(100)/1000, "filer-MB/s@100MB")
		b.ReportMetric(r.Linux.YAt(100)/1000, "linux-MB/s@100MB")
	}
}

func BenchmarkFig2PeriodicSpikes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig2()
		b.ReportMetric(float64(r.MeanAll.Microseconds()), "mean-us")
		b.ReportMetric(float64(r.MeanBelow.Microseconds()), "mean-excl-spikes-us")
		b.ReportMetric(r.SpikePeriod, "spike-period-calls")
		b.ReportMetric(float64(r.Spikes), "spikes")
	}
}

func BenchmarkFig3LinearListGrowth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig3()
		b.ReportMetric(float64(r.MeanAll.Microseconds()), "mean-us")
		b.ReportMetric(r.SlopeNsCall, "slope-ns/call")
		b.ReportMetric(r.Result.WriteMBps(), "write-MB/s")
	}
}

func BenchmarkFig4HashTableFlat(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig4()
		b.ReportMetric(float64(r.MeanAll.Microseconds()), "mean-us")
		b.ReportMetric(r.SlopeNsCall, "slope-ns/call")
		b.ReportMetric(r.Result.WriteMBps(), "write-MB/s")
	}
}

func BenchmarkFig5HistogramsBKL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig5()
		b.ReportMetric(float64(r.FilerMean.Microseconds()), "filer-mean-us")
		b.ReportMetric(float64(r.LinuxMean.Microseconds()), "linux-mean-us")
		b.ReportMetric(float64(r.FilerTail), "filer-tail-calls")
		b.ReportMetric(float64(r.LinuxTail), "linux-tail-calls")
	}
}

func BenchmarkFig6HistogramsNoLock(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig6()
		b.ReportMetric(float64(r.FilerMean.Microseconds()), "filer-mean-us")
		b.ReportMetric(float64(r.LinuxMean.Microseconds()), "linux-mean-us")
		b.ReportMetric(float64(r.FilerTail), "filer-tail-calls")
		b.ReportMetric(float64(r.LinuxTail), "linux-tail-calls")
	}
}

func BenchmarkTable1LockVsNoLock(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table1()
		b.ReportMetric(r.FilerLockMBps, "filer-lock-MB/s")
		b.ReportMetric(r.FilerNoLockMBps, "filer-nolock-MB/s")
		b.ReportMetric(r.LinuxLockMBps, "linux-lock-MB/s")
		b.ReportMetric(r.LinuxNoLockMBps, "linux-nolock-MB/s")
	}
}

func BenchmarkFig7LocalVsNFSEnhanced(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig7(quickSizes)
		b.ReportMetric(r.Filer.YAt(100)/1000, "filer-MB/s@100MB")
		b.ReportMetric(r.Filer.YAt(450)/1000, "filer-MB/s@450MB")
		b.ReportMetric(r.Linux.YAt(450)/1000, "linux-MB/s@450MB")
		b.ReportMetric(r.Local.YAt(450)/1000, "local-MB/s@450MB")
	}
}

func BenchmarkSlow100Paradox(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Slow100()
		b.ReportMetric(r.SlowMBps, "slow-mem-MB/s")
		b.ReportMetric(r.FilerMBps, "filer-mem-MB/s")
	}
}

func BenchmarkJumboAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Jumbo()
		b.ReportMetric(r.StandardMBps, "mtu1500-MB/s")
		b.ReportMetric(r.JumboMBps, "mtu9000-MB/s")
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
		b.Run(itoa(soft), func(b *testing.B) {
			cfg := core.Stock244Config()
			cfg.MaxRequestSoft = soft
			cfg.MaxRequestHard = soft + 64
			for i := 0; i < b.N; i++ {
				b.ReportMetric(benchRun(nfssim.ServerFiler, cfg, 2), "write-MB/s")
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
				b.ReportMetric(benchRun(nfssim.ServerFiler, cfg, 2), "write-MB/s")
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
					b.ReportMetric(benchRun(srv, cfg, 2), "write-MB/s")
				}
			})
		}
	}
}

// BenchmarkAblationCPUs compares uniprocessor and SMP clients.
func BenchmarkAblationCPUs(b *testing.B) {
	for _, cpus := range []int{1, 2} {
		b.Run(itoa(cpus)+"cpu", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.ReportMetric(benchRun(nfssim.ServerFiler, core.EnhancedConfig(), cpus), "write-MB/s")
			}
		})
	}
}

// BenchmarkAblationWSize sweeps the mount's wsize.
func BenchmarkAblationWSize(b *testing.B) {
	for _, w := range []int{4096, 8192, 16384, 32768} {
		b.Run(itoa(w), func(b *testing.B) {
			cfg := core.EnhancedConfig()
			cfg.WSize = w
			for i := 0; i < b.N; i++ {
				b.ReportMetric(benchRun(nfssim.ServerFiler, cfg, 2), "flush-MB/s")
			}
		})
	}
}

// BenchmarkAblationSlotTable sweeps the RPC slot-table depth.
func BenchmarkAblationSlotTable(b *testing.B) {
	for _, slots := range []int{2, 8, 16, 64} {
		b.Run(itoa(slots), func(b *testing.B) {
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
				b.ReportMetric(res.FlushMBps(), "flush-MB/s")
			}
		})
	}
}

// BenchmarkSimulatorEventRate measures the DES kernel itself: simulated
// RPC round-trips per wall second (regression guard for the substrate).
func BenchmarkSimulatorEventRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchRun(nfssim.ServerFiler, core.EnhancedConfig(), 2)
	}
}

// BenchmarkLossSweep regenerates the lossy-network table: UDP loss
// amplification versus TCP segment recovery at 1% fragment loss.
func BenchmarkLossSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.LossSweep()
		for _, row := range r.Rows {
			if row.Config == "enhanced" && row.Loss == 0.01 {
				b.ReportMetric(row.AggMBps, row.Transport+"-MB/s@1%loss")
			}
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
					b.ReportMetric(res.CloseMBps(), "close-MB/s")
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
		b.ReportMetric(r.Row("enhanced", "read").WriteMBps, "enhanced-read-MB/s")
		b.ReportMetric(r.Row("ra-off", "read").WriteMBps, "ra-off-read-MB/s")
		b.ReportMetric(r.Row("enhanced", "mixed").WriteMBps, "enhanced-mixed-MB/s")
	}
}

// BenchmarkRandomSweep regenerates the random-access table: the fix
// progression under sequential vs random chunk I/O.
func BenchmarkRandomSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RandomSweep()
		b.ReportMetric(r.Row("hash", "randwrite").WriteMBps, "hash-randwrite-MB/s")
		b.ReportMetric(r.Row("nolimits", "randwrite").WriteMBps, "list-randwrite-MB/s")
		b.ReportMetric(r.Row("stock", "randwrite").WriteMBps, "stock-randwrite-MB/s")
		b.ReportMetric(r.Row("enhanced", "randread").WriteMBps, "enhanced-randread-MB/s")
	}
}

// BenchmarkDBLoad regenerates the database-load table: group-commit
// fsync cost on the filer vs the Linux server.
func BenchmarkDBLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.DBLoad()
		for _, srv := range []string{"filer", "linux"} {
			if row := r.Row(srv, "enhanced"); row != nil {
				b.ReportMetric(experiments.TxPerSec(*row), srv+"-tx/s")
				b.ReportMetric(float64(experiments.FsyncTime(*row).Milliseconds()), srv+"-fsync-ms")
			}
		}
	}
}

// BenchmarkZipfSweep regenerates the many-file metadata table: the
// Zipfian op mix with the attribute cache on and off.
func BenchmarkZipfSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.ZipfSweep()
		if on := r.Row("zipf", "on"); on != nil {
			b.ReportMetric(on.AggMBps, "ac-on-MB/s")
			b.ReportMetric(on.AttrCacheHitRate, "ac-hit-rate")
			b.ReportMetric(float64(on.GetattrRPCs), "ac-on-getattrs")
		}
		if off := r.Row("zipf", "off"); off != nil {
			b.ReportMetric(off.AggMBps, "noac-MB/s")
			b.ReportMetric(float64(off.GetattrRPCs), "noac-getattrs")
		}
	}
}

func BenchmarkCoherenceSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.CoherenceSweep()
		if strict := r.Row("strict"); strict != nil {
			b.ReportMetric(strict.AggMBps, "strict-MB/s")
			b.ReportMetric(float64(strict.GetattrRPCs), "strict-getattrs")
		}
		if ttl := r.Row("ttl"); ttl != nil {
			b.ReportMetric(ttl.AggMBps, "ttl-MB/s")
			b.ReportMetric(float64(ttl.StaleReads), "ttl-stale-reads")
		}
		if noac := r.Row("noac"); noac != nil {
			b.ReportMetric(noac.AggMBps, "noac-MB/s")
			b.ReportMetric(float64(noac.StaleReads), "noac-stale-reads")
		}
	}
}

// BenchmarkAblationReadahead sweeps the readahead window cap on a
// sequential cold-file read against the filer.
func BenchmarkAblationReadahead(b *testing.B) {
	for _, maxPages := range []int{core.ReadaheadOff, core.StockReadaheadMaxPages, core.EnhancedReadaheadMaxPages, 256} {
		name := itoa(maxPages)
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
				b.ReportMetric(res.WriteMBps(), "read-MB/s")
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
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
		b.ReportMetric(row.AggMBps, "agg-MB/s")
		b.ReportMetric(row.Fairness, "fairness")
		b.ReportMetric(experiments.SlotWaitShare(row), "slot-wait-share")
	}
}
