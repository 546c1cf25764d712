package main

import (
	"fmt"
	"reflect"
	"time"

	nfssim "repro"
	"repro/internal/bonnie"
	"repro/internal/core"
	"repro/internal/disksim"
	"repro/internal/harness"
	"repro/internal/sim"
)

// workload is one benchmark input set: a fixed grid of harness scenarios,
// run in order as one pass.
type workload struct {
	name string
	grid harness.Grid
}

var (
	stock    = harness.ClientConfig{Name: "stock", Config: core.Stock244Config()}
	enhanced = harness.ClientConfig{Name: "enhanced", Config: core.EnhancedConfig()}
)

// workloads are listed with the reason for each in BENCHMARK.json and
// README.md.
var workloads = []workload{
	{"paper_write", harness.Grid{
		Servers:     []nfssim.ServerKind{nfssim.ServerFiler, nfssim.ServerLinux},
		Configs:     []harness.ClientConfig{stock, enhanced},
		FileSizesMB: []int{100},
	}},
	{"fleet", harness.Grid{
		Configs:     []harness.ClientConfig{enhanced},
		FileSizesMB: []int{1},
		Clients:     []int{300},
		TimeLimit:   2 * time.Hour,
	}},
	{"shared_rw", harness.Grid{
		Configs:     []harness.ClientConfig{enhanced},
		FileSizesMB: []int{20},
		Clients:     []int{8},
		Workloads:   []bonnie.Workload{bonnie.WorkloadShared},
		AcTimeouts:  []sim.Time{40 * time.Millisecond},
		TimeLimit:   10 * time.Minute,
	}},
	{"meta_zipf", harness.Grid{
		Configs:     []harness.ClientConfig{enhanced},
		FileSizesMB: []int{40},
		Clients:     []int{4},
		Workloads:   []bonnie.Workload{bonnie.WorkloadZipf},
		FileCounts:  []int{1000},
		Mix:         bonnie.OpMix{Create: 20, Write: 10, Read: 20, Stat: 40, Remove: 10},
		TimeLimit:   10 * time.Minute,
	}},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scenarios expands the grid and gives scenario i a seed derived from the
// benchmark seed, so the same seed always yields the same inputs.
func (w workload) scenarios(seed int64) []harness.Scenario {
	scs := w.grid.Expand()
	for i := range scs {
		scs[i].Seed = scenarioSeed(seed, i)
	}
	return scs
}

// scenarioSeed mixes the benchmark seed and the scenario index with the
// splitmix64 finaliser into a positive simulation seed.
func scenarioSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>33) + 1
}

// expectedCalls is the I/O calls a complete run of sc issues: each client
// moves FileMB in bonnie's 8 KiB chunks.
func expectedCalls(sc harness.Scenario) int {
	return sc.Clients * (sc.FileMB << 20) / bonnie.DefaultChunk
}

// counts are the simulated per-layer counters of one scenario, read from
// the test bed's public stats after the run. They are deterministic, so
// they are part of the fingerprint.
type counts struct {
	VirtualNs     int64   `json:"virtual_end_ns"`
	LiveProcs     int64   `json:"live_procs"`
	BKLWaitNs     int64   `json:"bkl_wait_ns"`
	Frames        int64   `json:"net_frames"`
	WireBytes     int64   `json:"net_wire_bytes"`
	FramesDropped int64   `json:"net_frames_dropped"`
	Calls         int64   `json:"rpc_calls"`
	Replies       int64   `json:"rpc_replies"`
	Retransmits   int64   `json:"rpc_retransmits"`
	SlotWaits     int64   `json:"rpc_slot_waits"`
	SlotWaitUs    float64 `json:"rpc_slot_wait_us"`
	RTTNs         int64   `json:"rpc_rtt_ns"`
	RTTSamples    int64   `json:"rpc_rtt_samples"`
	BadReplies    int64   `json:"rpc_bad_replies"`
	WriteRPCs     int64   `json:"core_write_rpcs"`
	ReadRPCs      int64   `json:"core_read_rpcs"`
	CommitRPCs    int64   `json:"core_commit_rpcs"`
	MetaRPCs      int64   `json:"core_meta_rpcs"`
	SoftFlushes   int64   `json:"core_soft_flushes"`
	HardBlocks    int64   `json:"core_hard_blocks"`
	AttrHits      int64   `json:"core_attr_hits"`
	AttrMisses    int64   `json:"core_attr_misses"`
	Invalidations int64   `json:"core_invalidations"`
	StaleReads    int64   `json:"core_stale_reads"`
	ReadHits      int64   `json:"mm_read_hits"`
	ReadMisses    int64   `json:"mm_read_misses"`
	ChangeBumps   int64   `json:"server_change_bumps"`
	DiskRequests  int64   `json:"disk_requests"`
	DiskSeeks     int64   `json:"disk_seeks"`
	DiskBusyNs    int64   `json:"disk_busy_ns"`
}

func readCounts(res harness.Result, tb *nfssim.Testbed) counts {
	c := counts{
		VirtualNs:     int64(tb.Sim.Now()),
		LiveProcs:     int64(tb.Sim.Live()),
		Retransmits:   res.Retransmits,
		SlotWaits:     res.SlotWaits,
		SlotWaitUs:    res.SlotWaitUs,
		WriteRPCs:     res.RPCsSent,
		ReadRPCs:      res.ReadRPCs,
		CommitRPCs:    res.CommitRPCs,
		MetaRPCs:      res.LookupRPCs + res.GetattrRPCs + res.CreateRPCs + res.RemoveRPCs,
		SoftFlushes:   res.SoftFlushes,
		HardBlocks:    res.HardBlocks,
		AttrHits:      res.AttrCacheHits,
		AttrMisses:    res.AttrCacheMisses,
		Invalidations: res.Invalidations,
		StaleReads:    res.StaleReads,
		ReadHits:      res.ReadHits,
		ReadMisses:    res.ReadMisses,
		ChangeBumps:   res.ChangeBumps,
	}
	net := tb.Net.Totals()
	c.Frames, c.WireBytes, c.FramesDropped = net.FramesSent, net.BytesSent, net.FramesDropped
	for _, m := range tb.Machines {
		for _, w := range m.BKL.WaitBreakdown() {
			c.BKLWaitNs += int64(w)
		}
		if m.Transport != nil {
			st := m.Transport.Stats()
			c.Calls += st.Calls
			c.Replies += st.Replies
			c.RTTNs += int64(st.TotalRTT)
			c.RTTSamples += st.RTTSamples
			c.BadReplies += st.BadReplies
		}
	}
	var disk *disksim.Disk
	switch {
	case tb.Filer != nil:
		disk = tb.Filer.Disk().Disk
	case tb.Linux != nil:
		disk = tb.Linux.Disk()
	}
	if disk != nil {
		c.DiskRequests, c.DiskSeeks, c.DiskBusyNs = disk.Requests, disk.Seeks, int64(disk.BusyTime)
	}
	return c
}

// rpcs is the NFS RPCs the clients completed, retransmits excluded.
func (c counts) rpcs() int64 { return c.WriteRPCs + c.ReadRPCs + c.CommitRPCs + c.MetaRPCs }

// add sums o into c field by field.
func (c *counts) add(o counts) {
	a, b := reflect.ValueOf(c).Elem(), reflect.ValueOf(o)
	for i := range a.NumField() {
		switch f := a.Field(i); f.Kind() {
		case reflect.Int64:
			f.SetInt(f.Int() + b.Field(i).Int())
		case reflect.Float64:
			f.SetFloat(f.Float() + b.Field(i).Float())
		}
	}
}

// layerCountDef is a per-layer metric computed from the counts of one
// pass over the workload's scenarios.
type layerCountDef struct {
	metricDef
	value func(c counts) float64
}

var layerCountDefs = []layerCountDef{
	{metricDef{"sim.virtual_s", "s"}, func(c counts) float64 { return float64(c.VirtualNs) / 1e9 }},
	{metricDef{"sim.bkl_wait_ms", "ms"}, func(c counts) float64 { return float64(c.BKLWaitNs) / 1e6 }},
	{metricDef{"sim.leaked_procs", "count"}, func(c counts) float64 { return float64(c.LiveProcs) }},
	{metricDef{"netsim.frames", "count"}, func(c counts) float64 { return float64(c.Frames) }},
	{metricDef{"netsim.wire_mb", "MB"}, func(c counts) float64 { return float64(c.WireBytes) / 1e6 }},
	{metricDef{"netsim.frames_dropped", "count"}, func(c counts) float64 { return float64(c.FramesDropped) }},
	{metricDef{"rpcsim.retransmits", "count"}, func(c counts) float64 { return float64(c.Retransmits) }},
	{metricDef{"rpcsim.useful_ratio", "ratio"}, func(c counts) float64 {
		return ratio(float64(c.Replies), float64(c.Calls+c.Retransmits))
	}},
	{metricDef{"rpcsim.slot_waits", "count"}, func(c counts) float64 { return float64(c.SlotWaits) }},
	{metricDef{"rpcsim.slot_wait_ms", "ms"}, func(c counts) float64 { return c.SlotWaitUs / 1e3 }},
	{metricDef{"rpcsim.mean_rtt_us", "us"}, func(c counts) float64 {
		return ratio(float64(c.RTTNs), float64(c.RTTSamples)) / 1e3
	}},
	{metricDef{"rpcsim.bad_replies", "count"}, func(c counts) float64 { return float64(c.BadReplies) }},
	{metricDef{"core.write_rpcs", "count"}, func(c counts) float64 { return float64(c.WriteRPCs) }},
	{metricDef{"core.read_rpcs", "count"}, func(c counts) float64 { return float64(c.ReadRPCs) }},
	{metricDef{"core.commit_rpcs", "count"}, func(c counts) float64 { return float64(c.CommitRPCs) }},
	{metricDef{"core.meta_rpcs", "count"}, func(c counts) float64 { return float64(c.MetaRPCs) }},
	{metricDef{"core.soft_flushes", "count"}, func(c counts) float64 { return float64(c.SoftFlushes) }},
	{metricDef{"core.hard_blocks", "count"}, func(c counts) float64 { return float64(c.HardBlocks) }},
	{metricDef{"core.attr_hit_rate", "ratio"}, func(c counts) float64 {
		return ratio(float64(c.AttrHits), float64(c.AttrHits+c.AttrMisses))
	}},
	{metricDef{"core.invalidations", "count"}, func(c counts) float64 { return float64(c.Invalidations) }},
	{metricDef{"core.stale_reads", "count"}, func(c counts) float64 { return float64(c.StaleReads) }},
	{metricDef{"mm.read_hit_rate", "ratio"}, func(c counts) float64 {
		return ratio(float64(c.ReadHits), float64(c.ReadHits+c.ReadMisses))
	}},
	{metricDef{"server.change_bumps", "count"}, func(c counts) float64 { return float64(c.ChangeBumps) }},
	{metricDef{"disksim.requests", "count"}, func(c counts) float64 { return float64(c.DiskRequests) }},
	{metricDef{"disksim.seeks", "count"}, func(c counts) float64 { return float64(c.DiskSeeks) }},
	{metricDef{"disksim.busy_ms", "ms"}, func(c counts) float64 { return float64(c.DiskBusyNs) / 1e6 }},
}
