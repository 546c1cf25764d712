// Command nfsbench regenerates the paper's evaluation artifacts. Each
// experiment is named after the table or figure it reproduces:
//
//	nfsbench fig1      local vs NFS throughput sweep, stock client
//	nfsbench fig2      periodic latency spikes (stock client, 40 MB)
//	nfsbench fig3      latency growth after flush removal (linear list)
//	nfsbench fig4      flat latency with the hash table
//	nfsbench fig5      latency histograms, BKL held (filer vs Linux)
//	nfsbench fig6      latency histograms, BKL released
//	nfsbench table1    memory write throughput before/after lock fix
//	nfsbench fig7      local vs NFS throughput sweep, enhanced client
//	nfsbench slow100   §3.5: slower server -> faster memory writes
//	nfsbench profile   §3.4/§3.5 kernel-profile findings
//	nfsbench jumbo     §3.5 future work: jumbo-frame ablation
//	nfsbench concurrent §3.5: two writers to separate files, BKL vs no lock
//	nfsbench scaling   beyond the paper: N client machines, one server
//	nfsbench fleet     beyond the paper: 10/100/1000-client fleets
//	                   (aggregate ingest, fairness, slot convoying)
//	nfsbench loss      beyond the paper: UDP vs TCP under fragment loss
//	nfsbench read      beyond the paper: read/rewrite/mixed workloads
//	                   with a client readahead ablation
//	nfsbench random    beyond the paper: sequential vs random chunk I/O
//	                   across the fix progression (fix 2 under stress)
//	nfsbench db        §3.6: random page updates with group-commit fsync,
//	                   filer vs Linux durability
//	nfsbench zipf      beyond the paper: Zipfian many-file metadata
//	                   workload with attr-cache and skew ablations
//	nfsbench coherence beyond the paper: writers and readers sharing one
//	                   file under strict/ttl/noac consistency modes
//	nfsbench chaos     beyond the paper: crash/reboot and dead-server
//	                   failure injection via the chaos scenario engine
//	nfsbench all       everything above, in order
//
// Sweeps accept -quick to use a reduced file-size grid. -workers N sets
// the worker-pool size for the grid-shaped experiments (0, the default,
// means one per CPU); output is identical for every value.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

var (
	quick   = flag.Bool("quick", false, "use a reduced file-size grid for fig1/fig7 sweeps")
	workers = flag.Int("workers", 0, "worker-pool size for grid-shaped experiments (0 = one per CPU); results are identical for every value")
)

func sizes() []int {
	if *quick {
		return []int{25, 100, 200, 250, 300, 450}
	}
	return experiments.PaperSizesMB()
}

type runner struct {
	name string
	desc string
	run  func() string
}

func runners() []runner {
	return []runner{
		{"fig1", "local vs NFS write throughput, stock 2.4.4 client",
			func() string { return experiments.Fig1(sizes()).Render() }},
		{"fig2", "periodic write latency spikes, stock client",
			func() string { return experiments.Fig2().Render() }},
		{"fig3", "latency growth after flush removal (linear list)",
			func() string { return experiments.Fig3().Render() }},
		{"fig4", "flat latency with scalable data structures",
			func() string { return experiments.Fig4().Render() }},
		{"fig5", "latency histograms with the BKL held across sends",
			func() string { return experiments.Fig5().Render() }},
		{"fig6", "latency histograms with the BKL released",
			func() string { return experiments.Fig6().Render() }},
		{"table1", "client memory write throughput before/after lock fix",
			func() string { return experiments.Table1().Render() }},
		{"fig7", "local vs NFS write throughput, enhanced client",
			func() string { return experiments.Fig7(sizes()).Render() }},
		{"slow100", "slower server yields faster client memory writes",
			func() string { return experiments.Slow100().Render() }},
		{"profile", "kernel profile: hot functions and BKL wait attribution",
			func() string { return experiments.Profile().Render() }},
		{"jumbo", "jumbo-frame ablation",
			func() string { return experiments.Jumbo().Render() }},
		{"concurrent", "two writers to separate files, BKL vs no lock",
			func() string { return experiments.Concurrency().Render() }},
		{"scaling", "multi-client scale-out: per-client vs aggregate throughput + fairness",
			func() string { return experiments.Scaling().Render() }},
		{"fleet", "thousand-client fleet: aggregate ingest, fairness, slot-table convoying",
			func() string { return experiments.Fleet().Render() }},
		{"loss", "lossy network: UDP loss amplification vs TCP segment recovery",
			func() string { return experiments.LossSweep().Render() }},
		{"read", "read path: sequential read/rewrite/mixed with readahead ablation",
			func() string { return experiments.ReadSweep().Render() }},
		{"random", "random access: seq vs random chunk I/O across the fix progression",
			func() string { return experiments.RandomSweep().Render() }},
		{"db", "database load: random page updates with group-commit fsync, filer vs linux",
			func() string { return experiments.DBLoad().Render() }},
		{"zipf", "many-file metadata: Zipfian op mix with attr-cache and skew ablations",
			func() string { return experiments.ZipfSweep().Render() }},
		{"coherence", "cache coherence: staleness vs throughput across consistency modes on one shared file",
			func() string { return experiments.CoherenceSweep().Render() }},
		{"chaos", "failure injection: crash/reboot durability, shared-file crash, dead server",
			func() string { return experiments.ChaosSweep().Render() }},
	}
}

func main() {
	flag.Usage = usage
	flag.Parse()
	experiments.Workers = *workers
	args := flag.Args()
	if len(args) != 1 {
		usage()
		os.Exit(2)
	}
	want := args[0]
	rs := runners()
	if want == "all" {
		for _, r := range rs {
			fmt.Printf("== %s: %s ==\n", r.name, r.desc)
			fmt.Println(r.run())
		}
		return
	}
	for _, r := range rs {
		if r.name == want {
			fmt.Println(r.run())
			return
		}
	}
	fmt.Fprintf(os.Stderr, "nfsbench: unknown experiment %q\n\n", want)
	usage()
	os.Exit(2)
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: nfsbench [-quick] [-workers N] <experiment>\n\nexperiments:\n")
	for _, r := range runners() {
		fmt.Fprintf(os.Stderr, "  %-8s %s\n", r.name, r.desc)
	}
	fmt.Fprintf(os.Stderr, "  %-8s run every experiment\n", "all")
	flag.PrintDefaults()
}
