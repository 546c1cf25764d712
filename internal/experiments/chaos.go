package experiments

import (
	"fmt"
	"strings"

	"repro/internal/chaos"
	"repro/internal/stats"
)

// chaosScenarios is the canonical failure battery, written in the
// scenario DSL itself so the sweep exercises the same parse/validate
// path as `nfssweep -scenario` (see examples/chaos/ for the on-disk
// copies and docs/experiments.md for the schema).
const chaosScenarios = `
scenarios:
  - name: filer-crash
    description: filer reboots mid-write; NVRAM replay, zero loss
    fleet:
      server: filer
      config: enhanced
      file_mb: 8
      seed: 1
    events:
      - at: 100ms
        action: server_crash
      - at: 400ms
        action: server_restart
      - action: assert_completes
      - action: assert_no_data_loss
      - action: assert_replayed_min
        bytes: 1
      - action: assert_lost_max
        bytes: 0
  - name: knfsd-crash
    description: knfsd reboots mid-write; async bytes lost, client rewrites
    fleet:
      server: linux
      config: enhanced
      file_mb: 8
      seed: 1
    events:
      - at: 100ms
        action: server_crash
      - at: 400ms
        action: server_restart
      - action: assert_completes
      - action: assert_no_data_loss
      - action: assert_lost_min
        bytes: 1
      - action: assert_rewritten_min
        bytes: 1
  - name: shared-crash
    description: filer reboots mid-shared-write; change counters survive, staleness bounded
    fleet:
      server: filer
      config: enhanced
      clients: 4
      file_mb: 2
      workload: shared
      seed: 1
    events:
      - at: 40ms
        action: server_crash
      - at: 120ms
        action: server_restart
      - action: assert_completes
      - action: assert_no_data_loss
      - action: assert_lost_max
        bytes: 0
      - action: assert_stale_max
        max_stale: 1024
  - name: dead-server
    description: permanent crash; bounded retry turns a hang into an error
    fleet:
      server: filer
      config: enhanced
      file_mb: 4
      max_retries: 5
      time_limit: 5m
      seed: 1
    events:
      - at: 50ms
        action: server_crash
      - action: assert_error
`

// ChaosRow is one scenario's outcome in the chaos table.
type ChaosRow struct {
	Name      string
	Server    string
	Status    string // PASS or FAIL across the scenario's assertions
	AggMBps   float64
	Lost      int64
	Replayed  int64
	Rewritten int64
	Verf      int64 // client-observed write-verifier changes
}

// ChaosSweepResult is the failure-injection experiment: the crash/reboot
// and dead-server scenarios run through the chaos engine, contrasting
// the two backends' durability stories — the filer's NVRAM log replays
// acked data after a reboot, while knfsd's page cache loses it and the
// client must detect the verifier change and rewrite (RFC 1813 §3.3.7).
type ChaosSweepResult struct {
	Rows    []ChaosRow
	Reports []*chaos.Report
}

// Table renders the chaos table.
func (r *ChaosSweepResult) Table() *stats.Table {
	t := stats.NewTable(
		"Chaos scenarios - server crash/reboot and dead-server failure injection",
		"scenario", "server", "status", "agg MBps", "lost B", "replayed B", "rewritten B", "verf chg")
	for _, row := range r.Rows {
		t.AddRow(row.Name, row.Server, row.Status,
			fmt.Sprintf("%.2f", row.AggMBps), fmt.Sprint(row.Lost),
			fmt.Sprint(row.Replayed), fmt.Sprint(row.Rewritten), fmt.Sprint(row.Verf))
	}
	return t
}

// Render formats the table, the per-scenario reports, and the headline
// durability contrast.
func (r *ChaosSweepResult) Render() string {
	var b strings.Builder
	b.WriteString(r.Table().String())
	for _, rep := range r.Reports {
		b.WriteString(rep.Render())
	}
	b.WriteString("same crash, two durability stories: the filer replays its NVRAM log\n")
	b.WriteString("(lost=0), knfsd drops its page cache and the client rewrites every\n")
	b.WriteString("unstable byte after seeing the new write verifier\n")
	return b.String()
}

// ChaosSweep runs the canonical chaos battery on the worker pool. Each
// scenario is one deterministic simulation; the table and reports are
// byte-identical at any Workers value.
func ChaosSweep() *ChaosSweepResult {
	scs, err := chaos.Parse([]byte(chaosScenarios))
	if err != nil {
		panic("experiments: bad built-in chaos scenarios: " + err.Error())
	}
	r := &ChaosSweepResult{Reports: chaos.RunAll(scs, Workers)}
	for _, rep := range r.Reports {
		status := "PASS"
		if rep.Failed {
			status = "FAIL"
		}
		r.Rows = append(r.Rows, ChaosRow{
			Name:      rep.Scenario.Name,
			Server:    rep.Scenario.Fleet.Server.String(),
			Status:    status,
			AggMBps:   rep.Result.AggMBps,
			Lost:      rep.LostBytes,
			Replayed:  rep.ReplayedBytes,
			Rewritten: rep.RewrittenBytes,
			Verf:      rep.VerfChanges,
		})
	}
	return r
}
