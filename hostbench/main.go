// Command hostbench measures how fast the simulator produces its results:
// host time, throughput and memory per workload, and, in a traced run,
// where that host time goes layer by layer. Every scenario's simulated
// output is checked against pinned fingerprints, so a speed-up that
// changes the model counts as a failure.
//
// Run it from the repository root through the wrapper that builds it:
//
//	bash hostbench/run.sh --workload fleet --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md describes the
// workloads, the metrics and the reference file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

func main() {
	processStart := time.Now()
	workloadName := flag.String("workload", "paper_write", "workload to run: paper_write, fleet, shared_rw or meta_zipf")
	seed := flag.Int64("seed", 1, "benchmark seed; scenario seeds derive from it")
	seconds := flag.Float64("seconds", 10, "host seconds of whole passes to measure")
	trace := flag.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	spansDir := flag.String("spans-dir", "", "directory for a traced run's span file (none when empty)")
	doCapture := flag.Bool("capture", false, "rewrite the pinned fingerprint file instead of measuring")
	child := flag.Bool("child", false, "run one child process's share of an untraced run (used by the benchmark itself)")
	flag.Parse()
	// The kernel runs one simulated proc at a time; one P keeps goroutine
	// handoffs and GC pacing off the host's thread scheduler.
	runtime.GOMAXPROCS(1)

	if *doCapture {
		if err := capture(refPath); err != nil {
			fatal(err)
		}
		return
	}
	w, err := workloadByName(*workloadName)
	if err != nil {
		fatal(err)
	}
	var out any
	switch {
	case *child:
		b := &bench{w: w, seed: *seed}
		if err := b.setup(processStart); err != nil {
			fatal(err)
		}
		out = b.timed(*seconds)
	case *trace == 0:
		if out, err = runChildren(w, *seed, *seconds); err != nil {
			fatal(err)
		}
	default:
		b := &bench{w: w, seed: *seed}
		if err := b.setup(processStart); err != nil {
			fatal(err)
		}
		values, err := b.traced(*seconds, *spansDir)
		if err != nil {
			fatal(err)
		}
		out = result{b.failed == 0, b.attempted, b.failed, report(perLayer, values)}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hostbench:", err)
	os.Exit(1)
}

// result is the line a run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// children is how many fresh processes share an untraced run. Scenarios
// leak their parked proc goroutines, and with them the whole test bed, so
// a long-lived process slows down as its heap grows and its collections
// lengthen; fresh processes bound that growth, and each one's set-up is
// one sample of setup_s.
const children = 4

// runChildren runs the untraced variant as children processes in turn,
// each measuring seconds/children, and merges their reports.
func runChildren(w workload, seed int64, seconds float64) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	var reps []childReport
	for range children {
		cmd := exec.Command(exe, "--child", "--workload", w.name,
			"--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.FormatFloat(seconds/children, 'g', -1, 64))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return result{}, fmt.Errorf("child process: %w", err)
		}
		var rep childReport
		if err := json.Unmarshal(out, &rep); err != nil {
			return result{}, fmt.Errorf("child report: %w", err)
		}
		reps = append(reps, rep)
	}

	res := result{}
	var ms, rates, setups, rss []float64
	var alloc float64
	for _, rep := range reps {
		res.Attempted += rep.Attempted
		res.Failed += rep.Failed
		// Every process must produce the same outputs as the first.
		for i, d := range rep.Digests {
			if d != reps[0].Digests[i] {
				res.Failed++
				fmt.Fprintf(os.Stderr, "FAIL %s seed=%d scenario %d: digest %s, first process %s\n",
					w.name, seed, i, d, reps[0].Digests[i])
			}
		}
		ms = append(ms, rep.ScenarioMs...)
		rates = append(rates, rep.PassRates...)
		setups = append(setups, rep.SetupS)
		rss = append(rss, rep.PeakRSSMB)
		alloc += rep.AllocMB
	}
	res.Correct = res.Failed == 0
	res.Metrics = report(endToEnd, map[string]float64{
		"rpcs_per_s":      median(rates),
		"scenario_ms_p50": median(ms),
		"alloc_mb":        alloc / float64(len(ms)),
		"peak_rss_mb":     median(rss),
		"setup_s":         median(setups),
	})
	return res, nil
}

// childReport is what a child process measured.
type childReport struct {
	Attempted, Failed int
	SetupS            float64   // process start to the first timed scenario
	PeakRSSMB         float64   // VmHWM after the warm-up pass
	AllocMB           float64   // heap MB allocated over the timed scenarios
	ScenarioMs        []float64 // host ms inside RunScenarioOn, per timed scenario
	PassRates         []float64 // RPCs per host second, per timed pass
	Digests           []string  // fingerprint digests of the first pass
}
