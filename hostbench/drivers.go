package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/disksim"
	"repro/internal/mm"
	"repro/internal/netsim"
	"repro/internal/nfsproto"
	"repro/internal/rpcsim"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/xdr"
)

// driver times one layer's exported API in isolation. run performs about
// n operations on fresh state and returns how many it performed; it
// panics if the layer misbehaves.
type driver struct {
	name string // metric prefix: <name>_ns and <name>_allocs
	run  func(n int) int
}

// sink keeps the compiler from discarding measured results.
var sink int

var (
	payload8k = make([]byte, 8192)
	testFH    = nfsproto.MakeFileHandle(1, nfsproto.ServerFileIDBase)
	attrs     = nfsproto.FileAttrs{Size: 1 << 20, FileID: nfsproto.ServerFileIDBase, MTime: 123456789, Change: 42}
	gigabit   = netsim.LinkConfig{Bandwidth: netsim.BandwidthGigabit, Propagation: 20 * time.Microsecond, MTU: netsim.MTUEthernet}
	names     = func() []string {
		out := make([]string, 1024)
		for i := range out {
			out[i] = fmt.Sprintf("f%04d", i)
		}
		return out
	}()
)

var drivers = []driver{
	// One timer event: schedule, pop, run, schedule the next.
	{"sim.schedule", func(n int) int {
		s := sim.New(1)
		left := n
		var tick func()
		tick = func() {
			if left--; left > 0 {
				s.After(time.Microsecond, tick)
			}
		}
		s.After(time.Microsecond, tick)
		s.Run(0)
		return n
	}},
	// One process wakeup among 64 sleepers: a baton pass between goroutines.
	{"sim.handoff", func(n int) int {
		const procs = 64
		s := sim.New(1)
		each := n/procs + 1
		for i := range procs {
			d := time.Duration(i%7+1) * time.Microsecond
			s.Go("sleeper", func(p *sim.Proc) {
				for range each {
					p.Sleep(d)
				}
			})
		}
		s.Run(0)
		return procs * each
	}},
	// 8 KiB of opaque data into a fresh encoder.
	{"xdr.encode_8k", func(n int) int {
		for range n {
			e := xdr.NewEncoder(xdr.OpaqueLen(len(payload8k)))
			e.Opaque(payload8k)
			sink += e.Len()
		}
		return n
	}},
	// WRITE3args carrying 8 KiB, encoded and decoded.
	{"nfsproto.write_rt", func(n int) int {
		args := nfsproto.WriteArgs{File: testFH, Count: 8192, Stable: nfsproto.Unstable, Data: payload8k}
		for i := range n {
			args.Offset = uint64(i) * 8192
			e := xdr.NewEncoder(0)
			args.Encode(e)
			got, err := nfsproto.DecodeWriteArgs(xdr.NewDecoder(e.Bytes()))
			if err != nil || got.Offset != args.Offset || len(got.Data) != len(payload8k) {
				panic(fmt.Sprintf("WRITE args round trip: %v", err))
			}
		}
		return n
	}},
	// WRITE3res with full wcc_data, encoded and decoded.
	{"nfsproto.wcc_reply_rt", func(n int) int {
		res := nfsproto.WriteRes{
			Status: nfsproto.NFS3OK, Count: 8192, Committed: nfsproto.FileSync, Verf: 7,
			Wcc: nfsproto.WccData{
				HavePre: true, Pre: nfsproto.WccAttr{Size: attrs.Size, MTime: attrs.MTime, Change: attrs.Change},
				HavePost: true, Post: attrs,
			},
		}
		for range n {
			e := xdr.NewEncoder(128)
			res.Encode(e)
			got, err := nfsproto.DecodeWriteRes(xdr.NewDecoder(e.Bytes()))
			if err != nil || got.Wcc != res.Wcc {
				panic(fmt.Sprintf("WRITE reply round trip: %v", err))
			}
		}
		return n
	}},
	// GETATTR3res: the 92-byte fattr3, encoded and decoded.
	{"nfsproto.getattr_rt", func(n int) int {
		res := nfsproto.GetattrRes{Status: nfsproto.NFS3OK, Attrs: attrs}
		for range n {
			e := xdr.NewEncoder(128)
			res.Encode(e)
			got, err := nfsproto.DecodeGetattrRes(xdr.NewDecoder(e.Bytes()))
			if err != nil || got.Attrs != attrs {
				panic(fmt.Sprintf("GETATTR reply round trip: %v", err))
			}
		}
		return n
	}},
	// An 8 KiB WRITE call's datagram sent in 6 fragments at MTU 1500 and
	// delivered.
	{"netsim.send_8k", func(n int) int {
		s := sim.New(1)
		net := netsim.New(s)
		got := 0
		net.AddHost("client0", gigabit, nil)
		net.AddHost("filer", gigabit, func(netsim.Datagram) { got++ })
		dg := netsim.Datagram{From: "client0", To: "filer", Payload: make([]byte, nfsproto.WriteCallSize(8192))}
		for i := range n {
			if r := net.Send(dg); r.Fragments != 6 {
				panic(fmt.Sprintf("8 KiB WRITE sent in %d fragments, want 6", r.Fragments))
			}
			if i%64 == 63 {
				s.Run(0)
			}
		}
		s.Run(0)
		if got != n {
			panic(fmt.Sprintf("delivered %d of %d datagrams", got, n))
		}
		return n
	}},
	// CallSync round trip against a stub host that answers every call
	// with a bare reply header.
	{"rpcsim.call", func(n int) int {
		s := sim.New(1)
		net := netsim.New(s)
		net.AddHost("client0", gigabit, nil)
		net.AddHost("stub", gigabit, func(dg netsim.Datagram) {
			hdr, err := nfsproto.DecodeCall(xdr.NewDecoder(dg.Payload))
			if err != nil {
				panic(err)
			}
			e := xdr.NewEncoder(32)
			nfsproto.ReplyHeader{XID: hdr.XID}.Encode(e)
			net.Send(netsim.Datagram{From: "stub", To: "client0", Payload: e.Bytes()})
		})
		tr := rpcsim.New(s, net, s.NewCPUPool("cpus", 2), s.NewMutex("bkl"), rpcsim.DefaultConfig(), "client0", "stub")
		done := 0
		s.Go("caller", func(p *sim.Proc) {
			for range n {
				tr.CallSync(p, nfsproto.ProcNull, func(*xdr.Encoder) {})
				done++
			}
		})
		s.Run(0)
		if done != n {
			panic(fmt.Sprintf("completed %d of %d calls", done, n))
		}
		return n
	}},
	// One page charged dirty, then written back.
	{"mm.charge", func(n int) int {
		s := sim.New(1)
		pc := mm.New(s, mm.DefaultDirtyLimit)
		s.Go("writer", func(p *sim.Proc) {
			for range n {
				pc.ChargeDirty(p, 4096)
				pc.StartWriteback(4096)
				pc.EndWriteback(4096)
			}
		})
		s.Run(0)
		return n
	}},
	// One 8 KiB WRITE served by the filer backend (NVRAM, consistency
	// points).
	{"server.filer_write", func(n int) int {
		s := sim.New(1)
		f := server.NewFiler(s, server.DefaultFilerConfig(), disksim.NewFilerVolume(s))
		return serveWrites(s, n, f.HandleWrite)
	}},
	// One 8 KiB UNSTABLE WRITE served by the knfsd backend (page cache,
	// writeback to disk).
	{"server.linux_write", func(n int) int {
		s := sim.New(1)
		l := server.NewLinuxServer(s, server.DefaultLinuxConfig(), disksim.NewSeagateSCSI(s, "sd0"))
		return serveWrites(s, n, l.HandleWrite)
	}},
	// Create, Lookup and Remove of one name in the server namespace.
	{"server.namespace_cycle", func(n int) int {
		s := sim.New(1)
		ns := server.NewNamespace(s)
		dir := nfsproto.RootHandle(1)
		for i := range n {
			name := names[i%len(names)]
			ns.Create(dir, name)
			if _, st := ns.Lookup(dir, name); st != nfsproto.NFS3OK {
				panic("lookup after create: " + st.String())
			}
			ns.Remove(dir, name)
		}
		return n
	}},
	// One sequential 8 KiB disk write.
	{"disksim.write", func(n int) int {
		s := sim.New(1)
		d := disksim.NewSeagateSCSI(s, "sd0")
		s.Go("writer", func(p *sim.Proc) {
			for i := range n {
				d.Write(p, int64(i)*8192, 8192)
			}
		})
		s.Run(0)
		if d.Requests != int64(n) {
			panic(fmt.Sprintf("disk served %d of %d writes", d.Requests, n))
		}
		return n
	}},
}

// serveWrites has one server proc handle n sequential 8 KiB WRITEs. The
// backends keep timers and workers alive, so the clock advances in steps
// until the proc is done.
func serveWrites(s *sim.Sim, n int, handle func(*sim.Proc, *nfsproto.WriteArgs) *nfsproto.WriteRes) int {
	done := 0
	s.Go("nfsd", func(p *sim.Proc) {
		args := nfsproto.WriteArgs{File: testFH, Count: 8192, Stable: nfsproto.Unstable, Data: payload8k}
		for i := range n {
			args.Offset = uint64(i) * 8192
			if r := handle(p, &args); r.Status != nfsproto.NFS3OK || r.Count != 8192 {
				panic(fmt.Sprintf("WRITE served with status %v count %d", r.Status, r.Count))
			}
			done++
		}
	})
	for done < n {
		if s.Idle() {
			panic(fmt.Sprintf("server stalled after %d of %d writes", done, n))
		}
		s.Run(s.Now() + time.Second)
	}
	return n
}

// measure calibrates a driver to about 20 ms per round after a warm-up,
// then returns the median ns/op and allocs/op over five rounds.
func measure(d driver) (nsPerOp, allocsPerOp float64) {
	n := 1
	for {
		start := time.Now()
		d.run(n)
		if time.Since(start) > 20*time.Millisecond || n >= 1<<24 {
			break
		}
		n *= 2
	}
	var ns, allocs []float64
	var m0, m1 runtime.MemStats
	for range 5 {
		runtime.ReadMemStats(&m0)
		start := time.Now()
		ops := d.run(n)
		el := time.Since(start)
		runtime.ReadMemStats(&m1)
		ns = append(ns, float64(el.Nanoseconds())/float64(ops))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(ops))
	}
	return median(ns), median(allocs)
}
