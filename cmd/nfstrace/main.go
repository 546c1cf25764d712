// Command nfstrace dumps the raw per-call latency traces behind Figures
// 2, 3 and 4 as CSV (call index, latency in µs), suitable for feeding
// straight into a plotting tool:
//
//	nfstrace fig2 > fig2.csv
//	nfstrace fig3 > fig3.csv
//	nfstrace fig4 > fig4.csv
//
// A custom run can be assembled with flags, spelled as nfssweep spells
// the same axes (-servers, -configs, -workload, -sizes), driving any
// workload the benchmark supports:
//
//	nfstrace -server linux -client stock -mb 40 custom
//	nfstrace -client enhanced -workload read -mb 40 custom
//	nfstrace -client stock -workload randwrite -mb 40 custom
//
// The read shorthand traces the sequential-read workload on the
// enhanced client (per-call read() latency, readahead visible as the
// flat stretches between batch-boundary stalls):
//
//	nfstrace read > read.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/stats"
)

var (
	serverFlag   = flag.String("server", "filer", "server: filer, linux, slow100, local")
	clientFlag   = flag.String("client", "stock", "client: stock, nolimits, hash, enhanced")
	mbFlag       = flag.Int("mb", 40, "file size in MB")
	workloadFlag = flag.String("workload", "write", "workload for custom runs: write, rewrite, read, mixed, randread, randwrite, db, zipf, shared")
)

// subcommands lists every trace this command can emit, in display order.
var subcommands = []string{"fig2", "fig3", "fig4", "custom", "read"}

// traceCSV produces the named trace's two-column CSV, or an error for an
// unknown name. Separated from main so tests can drive it directly.
func traceCSV(name string) (string, error) {
	switch name {
	case "fig2":
		return experiments.Fig2().Result.Trace.CSV(), nil
	case "fig3":
		return experiments.Fig3().Result.Trace.CSV(), nil
	case "fig4":
		return experiments.Fig4().Result.Trace.CSV(), nil
	case "custom":
		tr, err := custom(*serverFlag, *clientFlag, *workloadFlag, *mbFlag)
		if err != nil {
			return "", err
		}
		return tr.CSV(), nil
	case "read":
		tr, err := custom("filer", "enhanced", "read", *mbFlag)
		if err != nil {
			return "", err
		}
		return tr.CSV(), nil
	}
	return "", fmt.Errorf("unknown trace %q", name)
}

// usageLine names every subcommand, so -h and bad invocations always
// show the full set.
func usageLine() string {
	return "usage: nfstrace [flags] {" + strings.Join(subcommands, "|") + "}"
}

func usage() {
	fmt.Fprintln(os.Stderr, usageLine())
	flag.PrintDefaults()
}

func main() {
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	out, err := traceCSV(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "nfstrace: %v\n", err)
		os.Exit(2)
	}
	fmt.Print(out)
}

// custom runs one benchmark named by the sweep's axis spellings (the
// write phase only) and returns its per-call latency trace.
func custom(server, client, workload string, mb int) (*stats.Trace, error) {
	sc, err := harness.FleetScenario(map[string]string{
		"server": server, "config": client, "workload": workload, "file_mb": strconv.Itoa(mb),
	})
	if err != nil {
		return nil, err
	}
	sc.SkipFlushClose = true
	sc.TimeLimit = time.Hour
	return harness.RunScenario(sc).Trace, nil
}
