package rpcsim

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/nfsproto"
	"repro/internal/sim"
	"repro/internal/streamsim"
	"repro/internal/xdr"
)

// testRig wires a client transport to a scripted responder host.
type testRig struct {
	s   *sim.Sim
	net *netsim.Network
	cpu *sim.CPUPool
	bkl *sim.Mutex
	tr  *Transport
}

// newRig builds a client and a responder that answers every call after
// delay with a bare reply header (valid for ProcNull-style calls).
// dropFirst makes the responder swallow the first n requests (for
// retransmission tests).
func newRig(t *testing.T, cfg Config, delay sim.Time, dropFirst int) *testRig {
	t.Helper()
	s := sim.New(7)
	net := netsim.New(s)
	link := netsim.LinkConfig{Bandwidth: netsim.BandwidthGigabit, Propagation: 10 * time.Microsecond, MTU: netsim.MTUEthernet}
	net.AddHost("c", link, nil)
	dropped := 0
	net.AddHost("srv", link, func(dg netsim.Datagram) {
		if dropped < dropFirst {
			dropped++
			return
		}
		d := xdr.NewDecoder(dg.Payload)
		hdr, err := nfsproto.DecodeCall(d)
		if err != nil {
			t.Fatalf("responder: %v", err)
		}
		s.After(delay, func() {
			e := xdr.NewEncoder(64)
			nfsproto.ReplyHeader{XID: hdr.XID}.Encode(e)
			net.Send(netsim.Datagram{From: "srv", To: "c", Payload: e.Bytes()})
		})
	})
	cpu := s.NewCPUPool("client-cpus", 2)
	bkl := s.NewMutex("bkl")
	tr := New(s, net, cpu, bkl, cfg, "c", "srv")
	return &testRig{s: s, net: net, cpu: cpu, bkl: bkl, tr: tr}
}

func nullArgs(*xdr.Encoder) {}

func TestCallSyncRoundTrip(t *testing.T) {
	rig := newRig(t, DefaultConfig(), 100*time.Microsecond, 0)
	done := false
	rig.s.Go("caller", func(p *sim.Proc) {
		d, _ := rig.tr.CallSync(p, nfsproto.ProcNull, nullArgs)
		if d == nil {
			t.Error("nil reply decoder")
		}
		done = true
	})
	rig.s.Run(time.Second)
	if !done {
		t.Fatal("call never completed")
	}
	st := rig.tr.Stats()
	if st.Calls != 1 || st.Replies != 1 || st.Retransmits != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.TotalRTT < 100*time.Microsecond {
		t.Fatalf("rtt = %v, should include server delay", st.TotalRTT)
	}
}

func TestSlotLimiting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxSlots = 2
	rig := newRig(t, cfg, 500*time.Microsecond, 0)
	maxInFlight := 0
	completed := 0
	rig.s.Go("caller", func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			rig.tr.Call(p, nfsproto.ProcNull, nullArgs, func(*xdr.Decoder) { completed++ })
			if rig.tr.InFlight() > maxInFlight {
				maxInFlight = rig.tr.InFlight()
			}
		}
	})
	rig.s.Run(time.Second)
	if completed != 6 {
		t.Fatalf("completed = %d", completed)
	}
	if maxInFlight > 2 {
		t.Fatalf("in flight reached %d with 2 slots", maxInFlight)
	}
}

func TestSlotsAvailable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxSlots = 1
	rig := newRig(t, cfg, time.Millisecond, 0)
	var during bool
	rig.s.Go("caller", func(p *sim.Proc) {
		rig.tr.Call(p, nfsproto.ProcNull, nullArgs, nil)
		during = rig.tr.SlotsAvailable()
	})
	rig.s.Run(time.Second)
	if during {
		t.Fatal("slots reported available while the only slot was in flight")
	}
	if !rig.tr.SlotsAvailable() {
		t.Fatal("slots not available after completion")
	}
}

func TestRetransmit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetransmitTimeout = 10 * time.Millisecond
	rig := newRig(t, cfg, 100*time.Microsecond, 1) // drop first request
	done := false
	rig.s.Go("caller", func(p *sim.Proc) {
		rig.tr.CallSync(p, nfsproto.ProcNull, nullArgs)
		done = true
	})
	rig.s.Run(time.Second)
	if !done {
		t.Fatal("call never completed despite retransmission")
	}
	st := rig.tr.Stats()
	if st.Retransmits != 1 {
		t.Fatalf("retransmits = %d, want 1", st.Retransmits)
	}
}

func TestDuplicateReplyDropped(t *testing.T) {
	// Server answers twice; the second reply must be ignored.
	s := sim.New(7)
	net := netsim.New(s)
	link := netsim.LinkConfig{Bandwidth: netsim.BandwidthGigabit, Propagation: 10 * time.Microsecond, MTU: netsim.MTUEthernet}
	net.AddHost("c", link, nil)
	net.AddHost("srv", link, func(dg netsim.Datagram) {
		d := xdr.NewDecoder(dg.Payload)
		hdr, _ := nfsproto.DecodeCall(d)
		for i := 0; i < 2; i++ {
			e := xdr.NewEncoder(64)
			nfsproto.ReplyHeader{XID: hdr.XID}.Encode(e)
			net.Send(netsim.Datagram{From: "srv", To: "c", Payload: e.Bytes()})
		}
	})
	tr := New(s, net, s.NewCPUPool("cpus", 2), s.NewMutex("bkl"), DefaultConfig(), "c", "srv")
	replies := 0
	s.Go("caller", func(p *sim.Proc) {
		tr.Call(p, nfsproto.ProcNull, nullArgs, func(*xdr.Decoder) { replies++ })
	})
	s.Run(time.Second)
	if replies != 1 {
		t.Fatalf("callback ran %d times", replies)
	}
	if tr.Stats().Replies != 1 {
		t.Fatalf("stats replies = %d", tr.Stats().Replies)
	}
}

// The heart of §3.5: with HoldBKLAcrossSend another thread wanting the
// BKL waits out the ~50 µs sock_sendmsg; with ReleaseBKLForSend it gets
// the lock almost immediately.
func TestLockPolicyContention(t *testing.T) {
	measure := func(policy LockPolicy) sim.Time {
		cfg := DefaultConfig()
		cfg.LockPolicy = policy
		rig := newRig(t, cfg, 200*time.Microsecond, 0)
		// Build an 8 KB WRITE-sized payload so sock_sendmsg costs ~50 µs.
		body := make([]byte, 8192)
		writeArgs := func(e *xdr.Encoder) {
			a := nfsproto.WriteArgs{File: nfsproto.MakeFileHandle(1, 1), Count: 8192, Data: body}
			a.Encode(e)
		}
		var waited sim.Time
		rig.s.Go("sender", func(p *sim.Proc) {
			for i := 0; i < 20; i++ {
				rig.tr.Call(p, nfsproto.ProcWrite, writeArgs, nil)
			}
		})
		rig.s.Go("writer", func(p *sim.Proc) {
			for i := 0; i < 20; i++ {
				p.Sleep(30 * time.Microsecond)
				t0 := rig.s.Now()
				rig.bkl.Lock(p, "nfs_commit_write")
				waited += rig.s.Now() - t0
				p.Sleep(2 * time.Microsecond)
				rig.bkl.Unlock(p)
			}
		})
		rig.s.Run(time.Second)
		return waited
	}
	held := measure(HoldBKLAcrossSend)
	released := measure(ReleaseBKLForSend)
	if held <= released*2 {
		t.Fatalf("BKL wait with lock held (%v) should far exceed released (%v)", held, released)
	}
}

// With the stock policy, the BKL wait must be dominated by sock_sendmsg —
// the paper attributes ~90% of write-path lock waiting to it.
func TestWaitAttributionDominatedBySend(t *testing.T) {
	cfg := DefaultConfig()
	rig := newRig(t, cfg, 200*time.Microsecond, 0)
	body := make([]byte, 8192)
	writeArgs := func(e *xdr.Encoder) {
		a := nfsproto.WriteArgs{File: nfsproto.MakeFileHandle(1, 1), Count: 8192, Data: body}
		a.Encode(e)
	}
	rig.s.Go("sender", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			rig.tr.Call(p, nfsproto.ProcWrite, writeArgs, nil)
		}
	})
	rig.s.Go("writer", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			p.Sleep(25 * time.Microsecond)
			rig.bkl.Lock(p, "nfs_commit_write")
			rig.bkl.Unlock(p)
		}
	})
	rig.s.Run(time.Second)
	wb := rig.bkl.WaitBreakdown()
	var total sim.Time
	for _, v := range wb {
		total += v
	}
	if total == 0 {
		t.Fatal("no contention observed")
	}
	frac := float64(wb["sock_sendmsg"]) / float64(total)
	if frac < 0.7 {
		t.Fatalf("sock_sendmsg fraction of BKL wait = %.2f, want dominant", frac)
	}
}

func TestSendCPUProfiled(t *testing.T) {
	rig := newRig(t, DefaultConfig(), 50*time.Microsecond, 0)
	rig.s.Go("caller", func(p *sim.Proc) {
		rig.tr.CallSync(p, nfsproto.ProcNull, nullArgs)
	})
	rig.s.Run(time.Second)
	prof := rig.s.Profiler()
	if prof.Total("sock_sendmsg") == 0 {
		t.Fatal("sock_sendmsg not profiled")
	}
	if prof.Total("udp_rcv") == 0 {
		t.Fatal("udp_rcv not profiled")
	}
}

func TestEightKWriteCostsFiftyMicroseconds(t *testing.T) {
	// Validate the calibration: an 8 KB WRITE fragments into 6 packets
	// and costs 8 + 6*7 = 50 µs of sock_sendmsg CPU.
	cfg := DefaultConfig()
	sz := nfsproto.WriteCallSize(8192)
	frags := netsim.FragmentCount(sz, cfg.MTU)
	cost := cfg.SendCPUBase + sim.Time(frags)*cfg.SendCPUPerFragment
	if cost != 50*time.Microsecond {
		t.Fatalf("8 KB WRITE sock_sendmsg cost = %v, want 50µs", cost)
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := sim.New(1)
	net := netsim.New(s)
	net.AddHost("c", netsim.DefaultGigabit(), nil)
	cfg := DefaultConfig()
	cfg.MaxSlots = 0
	New(s, net, s.NewCPUPool("c", 1), s.NewMutex("bkl"), cfg, "c", "c")
}

func TestLockPolicyString(t *testing.T) {
	if HoldBKLAcrossSend.String() != "bkl" || ReleaseBKLForSend.String() != "no-lock" {
		t.Fatal("LockPolicy strings wrong")
	}
}

// The retransmit timer must back off exponentially: a server that
// swallows the first four transmissions answers the fifth, and the gaps
// between retransmissions double.
func TestRetransmitExponentialBackoff(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetransmitTimeout = 10 * time.Millisecond
	s := sim.New(7)
	net := netsim.New(s)
	link := netsim.LinkConfig{Bandwidth: netsim.BandwidthGigabit, Propagation: 10 * time.Microsecond, MTU: netsim.MTUEthernet}
	net.AddHost("c", link, nil)
	var arrivals []sim.Time
	net.AddHost("srv", link, func(dg netsim.Datagram) {
		arrivals = append(arrivals, s.Now())
		if len(arrivals) < 5 {
			return // swallow
		}
		d := xdr.NewDecoder(dg.Payload)
		hdr, _ := nfsproto.DecodeCall(d)
		e := xdr.NewEncoder(64)
		nfsproto.ReplyHeader{XID: hdr.XID}.Encode(e)
		net.Send(netsim.Datagram{From: "srv", To: "c", Payload: e.Bytes()})
	})
	tr := New(s, net, s.NewCPUPool("cpus", 2), s.NewMutex("bkl"), cfg, "c", "srv")
	done := false
	s.Go("caller", func(p *sim.Proc) {
		tr.CallSync(p, nfsproto.ProcNull, nullArgs)
		done = true
	})
	s.Run(time.Minute)
	if !done {
		t.Fatal("call never completed")
	}
	if len(arrivals) != 5 {
		t.Fatalf("server saw %d transmissions, want 5", len(arrivals))
	}
	for i := 2; i < len(arrivals); i++ {
		prev := arrivals[i-1] - arrivals[i-2]
		cur := arrivals[i] - arrivals[i-1]
		// Doubling, modulo sub-millisecond wire-time noise.
		if cur < prev*3/2 {
			t.Fatalf("gap %d = %v after %v; retransmit timer did not back off", i, cur, prev)
		}
	}
	st := tr.Stats()
	if st.Retransmits != 4 {
		t.Fatalf("retransmits = %d, want 4", st.Retransmits)
	}
	// Karn: the retransmitted call contributes no RTT sample.
	if st.RTTSamples != 0 || st.TotalRTT != 0 {
		t.Fatalf("retransmitted call sampled RTT: %+v", st)
	}
}

// Backoff must clamp at MaxRetransmitTimeout.
func TestRetransmitBackoffClamped(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetransmitTimeout = 10 * time.Millisecond
	cfg.MaxRetransmitTimeout = 40 * time.Millisecond
	rig := newRig(t, cfg, 100*time.Microsecond, 1000) // server never answers
	rig.s.Go("caller", func(p *sim.Proc) {
		rig.tr.Call(p, nfsproto.ProcNull, nullArgs, nil)
	})
	rig.s.Run(time.Second)
	// 1 s with timeouts 10+20+40+40+... -> about (1000-70)/40 + 3 ~ 26.
	n := rig.tr.Stats().Retransmits
	if n < 20 || n > 30 {
		t.Fatalf("retransmits = %d, want ~26 with a 40 ms clamp", n)
	}
}

func TestDuplicateReplyCounted(t *testing.T) {
	// Server answers twice; the duplicate must be suppressed AND counted.
	s := sim.New(7)
	net := netsim.New(s)
	link := netsim.LinkConfig{Bandwidth: netsim.BandwidthGigabit, Propagation: 10 * time.Microsecond, MTU: netsim.MTUEthernet}
	net.AddHost("c", link, nil)
	net.AddHost("srv", link, func(dg netsim.Datagram) {
		d := xdr.NewDecoder(dg.Payload)
		hdr, _ := nfsproto.DecodeCall(d)
		for i := 0; i < 2; i++ {
			e := xdr.NewEncoder(64)
			nfsproto.ReplyHeader{XID: hdr.XID}.Encode(e)
			net.Send(netsim.Datagram{From: "srv", To: "c", Payload: e.Bytes()})
		}
	})
	tr := New(s, net, s.NewCPUPool("cpus", 2), s.NewMutex("bkl"), DefaultConfig(), "c", "srv")
	s.Go("caller", func(p *sim.Proc) {
		tr.Call(p, nfsproto.ProcNull, nullArgs, nil)
	})
	s.Run(time.Second)
	st := tr.Stats()
	if st.Replies != 1 || st.DuplicateReplies != 1 {
		t.Fatalf("stats = %+v, want 1 reply + 1 suppressed duplicate", st)
	}
}

func TestTransportKindStringAndParse(t *testing.T) {
	if TransportUDP.String() != "udp" || TransportTCP.String() != "tcp" {
		t.Fatal("TransportKind strings wrong")
	}
	for _, name := range []string{"udp", "tcp"} {
		k, err := ParseTransport(name)
		if err != nil || k.String() != name {
			t.Fatalf("ParseTransport(%q) = %v, %v", name, k, err)
		}
	}
	if _, err := ParseTransport("sctp"); err == nil {
		t.Fatal("bad transport name should fail")
	}
}

// tcpRig wires a TransportTCP client to a scripted stream responder.
func tcpRig(t *testing.T, seed int64, loss float64, delay sim.Time) (*sim.Sim, *Transport) {
	t.Helper()
	s := sim.New(seed)
	net := netsim.New(s)
	link := netsim.LinkConfig{Bandwidth: netsim.BandwidthGigabit, Propagation: 10 * time.Microsecond, MTU: netsim.MTUEthernet}
	net.AddHost("c", link, nil)
	net.AddHost("srv", link, nil)
	if loss > 0 {
		net.SetLoss(netsim.LossConfig{Rate: loss})
	}
	var srvEp *streamsim.Endpoint
	srvEp = streamsim.NewEndpoint(s, net, streamsim.DefaultConfig(netsim.MTUEthernet), "srv", "c",
		func(rec []byte) {
			d := xdr.NewDecoder(rec)
			hdr, err := nfsproto.DecodeCall(d)
			if err != nil {
				t.Fatalf("responder: %v", err)
			}
			s.After(delay, func() {
				e := xdr.NewEncoder(64)
				nfsproto.ReplyHeader{XID: hdr.XID}.Encode(e)
				srvEp.SendRecord(e.Bytes())
			})
		})
	net.SetHandler("srv", func(dg netsim.Datagram) { srvEp.HandleDatagram(dg.Payload) })
	cfg := DefaultConfig()
	cfg.Transport = TransportTCP
	tr := New(s, net, s.NewCPUPool("cpus", 2), s.NewMutex("bkl"), cfg, "c", "srv")
	return s, tr
}

func TestTCPCallRoundTrip(t *testing.T) {
	s, tr := tcpRig(t, 7, 0, 100*time.Microsecond)
	done := false
	s.Go("caller", func(p *sim.Proc) {
		if d, _ := tr.CallSync(p, nfsproto.ProcNull, nullArgs); d == nil {
			t.Error("nil reply decoder")
		}
		done = true
	})
	s.Run(time.Second)
	if !done {
		t.Fatal("call never completed")
	}
	st := tr.Stats()
	if st.Calls != 1 || st.Replies != 1 || st.Retransmits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// Over a lossy network the stream transport must complete every call with
// no whole-RPC retransmissions and no duplicate replies — the stream
// repairs segment loss below the RPC layer.
func TestTCPLossyCallsAllComplete(t *testing.T) {
	s, tr := tcpRig(t, 3, 0.05, 100*time.Microsecond)
	const calls = 40
	completed := 0
	body := make([]byte, 8192)
	writeArgs := func(e *xdr.Encoder) {
		a := nfsproto.WriteArgs{File: nfsproto.MakeFileHandle(1, 1), Count: 8192, Data: body}
		a.Encode(e)
	}
	s.Go("caller", func(p *sim.Proc) {
		for i := 0; i < calls; i++ {
			tr.Call(p, nfsproto.ProcWrite, writeArgs, func(*xdr.Decoder) { completed++ })
		}
	})
	s.Run(10 * time.Minute)
	if completed != calls {
		t.Fatalf("completed %d of %d calls at 5%% loss", completed, calls)
	}
	st := tr.Stats()
	if st.DuplicateReplies != 0 {
		t.Fatalf("stream transport produced duplicate replies: %+v", st)
	}
	if st.Retransmits == 0 {
		t.Fatal("no segment retransmissions at 5% loss")
	}
	if tr.InFlight() != 0 {
		t.Fatalf("%d calls still pending", tr.InFlight())
	}
}

// Property: under many concurrent callers with random server delays,
// every call completes exactly once, slots are never oversubscribed, and
// the transport ends the run drained.
func TestManyCallersProperty(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		cfg := DefaultConfig()
		cfg.MaxSlots = 4
		s := sim.New(seed)
		net := netsim.New(s)
		link := netsim.LinkConfig{Bandwidth: netsim.BandwidthGigabit, Propagation: 10 * time.Microsecond, MTU: netsim.MTUEthernet}
		net.AddHost("c", link, nil)
		net.AddHost("srv", link, func(dg netsim.Datagram) {
			d := xdr.NewDecoder(dg.Payload)
			hdr, err := nfsproto.DecodeCall(d)
			if err != nil {
				t.Fatal(err)
			}
			delay := sim.Time(s.Rand().Intn(500)) * time.Microsecond
			s.After(delay, func() {
				e := xdr.NewEncoder(64)
				nfsproto.ReplyHeader{XID: hdr.XID}.Encode(e)
				net.Send(netsim.Datagram{From: "srv", To: "c", Payload: e.Bytes()})
			})
		})
		tr := New(s, net, s.NewCPUPool("cpus", 2), s.NewMutex("bkl"), cfg, "c", "srv")
		const callers, perCaller = 6, 10
		completed := 0
		over := false
		for i := 0; i < callers; i++ {
			s.Go("caller", func(p *sim.Proc) {
				for j := 0; j < perCaller; j++ {
					tr.Call(p, nfsproto.ProcNull, nullArgs, func(*xdr.Decoder) { completed++ })
					if tr.InFlight() > cfg.MaxSlots {
						over = true
					}
					p.Sleep(sim.Time(s.Rand().Intn(200)) * time.Microsecond)
				}
			})
		}
		s.Run(time.Minute)
		if over {
			t.Fatalf("seed %d: slot table oversubscribed", seed)
		}
		if completed != callers*perCaller {
			t.Fatalf("seed %d: %d of %d calls completed", seed, completed, callers*perCaller)
		}
		if tr.InFlight() != 0 {
			t.Fatalf("seed %d: %d calls still pending", seed, tr.InFlight())
		}
		st := tr.Stats()
		if st.Calls != callers*perCaller || st.Replies != st.Calls || st.Retransmits != 0 {
			t.Fatalf("seed %d: stats %+v", seed, st)
		}
	}
}

// replyWith answers a call the way the server does: a pooled encoder
// whose head buffer is handed to the datagram.
func replyWith(net *netsim.Network, xid uint32, body func(*xdr.Encoder)) {
	e := xdr.AcquireEncoder()
	nfsproto.ReplyHeader{XID: xid}.Encode(e)
	body(e)
	head, bulk := e.Detach()
	net.Send(netsim.Datagram{From: "srv", To: "c", Payload: head, Bulk: bulk})
}

// A completed call's slot-table entry is reused by the next call. The
// retransmit timer the entry armed for its old call must never fire on
// the new one: here the stale timer would be due while the new call is
// still outstanding, and every counter must show exactly the two
// retransmissions the two calls earned themselves.
func TestReusedCallIgnoresStaleTimer(t *testing.T) {
	rig := newRig(t, DefaultConfig(), 0, 0)
	seen := map[uint32]int{}
	rig.net.SetHandler("srv", func(dg netsim.Datagram) {
		hdr, err := nfsproto.DecodeCall(xdr.NewDecoder(dg.Payload))
		if err != nil {
			t.Fatalf("responder: %v", err)
		}
		seen[hdr.XID]++
		if hdr.XID == 1 && seen[1] == 1 {
			return // lose call 1's first transmission
		}
		delay := 100 * time.Microsecond
		if hdr.XID == 2 {
			delay = 3 * time.Second // outlasts call 1's re-armed timer
		}
		rig.s.After(delay, func() { replyWith(rig.net, hdr.XID, func(*xdr.Encoder) {}) })
	})
	var d1, d2 *xdr.Decoder
	rig.s.Go("caller", func(p *sim.Proc) {
		var done func()
		d1, done = rig.tr.CallSync(p, nfsproto.ProcNull, nullArgs)
		done()
		d2, done = rig.tr.CallSync(p, nfsproto.ProcNull, nullArgs)
		done()
	})
	// Call 1's timer, re-armed for 3.3 s, is due while call 2 waits for
	// its answer at 4.1 s.
	rig.s.Run(4 * time.Second)
	if st := rig.tr.Stats(); st.Retransmits != 2 {
		t.Fatalf("retransmits by 4 s = %d, want 2: a stale timer resent the new call", st.Retransmits)
	}
	rig.s.Run(10 * time.Second)

	if d1 == nil || d2 == nil {
		t.Fatal("calls never completed")
	}
	if d1 != d2 {
		t.Fatal("the second call did not reuse the first call's slot-table entry")
	}
	st := rig.tr.Stats()
	// Call 1: lost, resent at 1.1 s, answered. Call 2: resent by its own
	// timer at 2.2 s, answered at 4.1 s, and its resend's answer arrives
	// as a duplicate.
	if st.Calls != 2 || st.Replies != 2 || st.Retransmits != 2 || st.DuplicateReplies != 1 || st.RTTSamples != 0 {
		t.Fatalf("stats = %+v, want 2 calls, 2 replies, 2 retransmits, 1 duplicate, no RTT samples", st)
	}
	if c, s := rig.net.HostStats("c"), rig.net.HostStats("srv"); c.FramesSent != 4 || s.FramesRecv != 4 || s.FramesSent != 3 || c.FramesRecv != 3 {
		t.Fatalf("frames: client sent %d, server received %d, server sent %d, client received %d; want 4, 4, 3, 3",
			c.FramesSent, s.FramesRecv, s.FramesSent, c.FramesRecv)
	}
	if seen[1] != 2 || seen[2] != 2 {
		t.Fatalf("transmissions seen by the server: %v, want two of each call", seen)
	}
}

// A CallSync caller decodes its reply after the softirq has moved on.
// The decoder and reply bytes it holds are its own until done: another
// call's reply, handled in between, must not show through them.
func TestCallSyncReplyOutlivesNextReply(t *testing.T) {
	rig := newRig(t, DefaultConfig(), 0, 0)
	rig.net.SetHandler("srv", func(dg netsim.Datagram) {
		hdr, err := nfsproto.DecodeCall(xdr.NewDecoder(dg.Payload))
		if err != nil {
			t.Fatalf("responder: %v", err)
		}
		rig.s.After(100*time.Microsecond, func() {
			replyWith(rig.net, hdr.XID, func(e *xdr.Encoder) {
				if hdr.Proc == nfsproto.ProcGetattr {
					e.Uint32(111)
				} else {
					e.Uint32(222)
					e.Uint32(333)
				}
			})
		})
	})
	syncReturned := rig.s.NewWaitQueue("sync-returned")
	otherAnswered := rig.s.NewWaitQueue("other-answered")
	returned, answered := false, false
	var got []uint32
	rig.s.Go("sync", func(p *sim.Proc) {
		d, done := rig.tr.CallSync(p, nfsproto.ProcGetattr, nullArgs)
		returned = true
		syncReturned.Signal()
		for !answered {
			otherAnswered.Wait(p)
		}
		for d.Remaining() > 0 {
			v, err := d.Uint32()
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			got = append(got, v)
		}
		done()
	})
	rig.s.Go("async", func(p *sim.Proc) {
		for !returned {
			syncReturned.Wait(p)
		}
		rig.tr.Call(p, nfsproto.ProcLookup, nullArgs, func(d *xdr.Decoder) {
			a, _ := d.Uint32()
			b, _ := d.Uint32()
			if a != 222 || b != 333 {
				t.Errorf("async reply body = %d %d, want 222 333", a, b)
			}
			answered = true
			otherAnswered.Signal()
		})
	})
	rig.s.Run(time.Second)
	if len(got) != 1 || got[0] != 111 {
		t.Fatalf("CallSync reply body = %v, want [111]", got)
	}
	if st := rig.tr.Stats(); st.Replies != 2 {
		t.Fatalf("replies = %d, want 2", st.Replies)
	}
}
