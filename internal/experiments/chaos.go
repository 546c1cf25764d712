package experiments

import (
	"fmt"
	"strings"

	"repro/internal/chaos"
)

// ChaosScenarios is the canonical failure battery, written in the
// scenario DSL itself so the sweep exercises the same parse/validate
// path as `nfssweep -scenario` (see examples/chaos/ for the on-disk
// copies and docs/experiments.md for the schema). FuzzChaosParse seeds
// from it.
const ChaosScenarios = `
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

// ChaosSweepResult is the failure-injection experiment: the crash/reboot
// and dead-server scenarios run through the chaos engine, contrasting
// the two backends' durability stories — the filer's NVRAM log replays
// acked data after a reboot, while knfsd's page cache loses it and the
// client must detect the verifier change and rewrite (RFC 1813 §3.3.7).
// Its rows are the engine's reports, one per scenario.
type ChaosSweepResult struct{ table[*chaos.Report] }

var chaosCols = []column[*chaos.Report]{
	{"scenario", func(r *chaos.Report) string { return r.Scenario.Name }},
	{"server", func(r *chaos.Report) string { return r.Scenario.Fleet.Server.String() }},
	{"status", func(r *chaos.Report) string {
		if r.Failed {
			return "FAIL"
		}
		return "PASS"
	}},
	{"agg MBps", func(r *chaos.Report) string { return fmt.Sprintf("%.2f", r.Result.AggMBps) }},
	{"lost B", func(r *chaos.Report) string { return fmt.Sprint(r.LostBytes) }},
	{"replayed B", func(r *chaos.Report) string { return fmt.Sprint(r.ReplayedBytes) }},
	{"rewritten B", func(r *chaos.Report) string { return fmt.Sprint(r.RewrittenBytes) }},
	{"verf chg", func(r *chaos.Report) string { return fmt.Sprint(r.VerfChanges) }},
}

// Render formats the table, the per-scenario reports, and the headline
// durability contrast.
func (r *ChaosSweepResult) Render() string {
	var b strings.Builder
	b.WriteString(r.Table().String())
	for _, rep := range r.Rows {
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
	scs, err := chaos.Parse([]byte(ChaosScenarios))
	if err != nil {
		panic("experiments: bad built-in chaos scenarios: " + err.Error())
	}
	return &ChaosSweepResult{table[*chaos.Report]{
		"Chaos scenarios - server crash/reboot and dead-server failure injection",
		chaosCols, chaos.RunAll(scs, Workers)}}
}
