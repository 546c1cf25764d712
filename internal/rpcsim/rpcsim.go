// Package rpcsim models the Linux 2.4 SunRPC client transport: a bounded
// slot table of in-flight requests, xid assignment and reply matching,
// retransmission timers, and — critically for this paper — the global
// kernel lock discipline around the socket send path.
//
// In the stock 2.4.4 kernel the RPC layer holds the big kernel lock (BKL)
// across sock_sendmsg(), which the paper measures at ~50 µs of
// network-layer CPU per 8 KB WRITE ("almost 90% of the time per request
// spent waiting ... to acquire the kernel lock", §3.5). Because the
// network stack stopped needing the BKL in 2.3, the paper's fix releases
// the lock around sock_sendmsg() and reacquires it afterwards. Both
// disciplines are implemented here as LockPolicy values.
package rpcsim

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/nfsproto"
	"repro/internal/sim"
	"repro/internal/streamsim"
	"repro/internal/xdr"
)

// CPU profiler labels, resolved once.
var (
	labelXprtTransmit = sim.NewLabel("xprt_transmit")
	labelSockSendmsg  = sim.NewLabel("sock_sendmsg")
	labelUDPRcv       = sim.NewLabel("udp_rcv")
	labelRPCReply     = sim.NewLabel("rpc_reply")
)

// TransportKind selects the wire protocol under the RPC layer.
type TransportKind int

const (
	// TransportUDP is the classic NFSv3/UDP transport: one datagram per
	// RPC message, fragmented by IP, with whole-message retransmission on
	// an exponentially backed-off timer. Losing one fragment loses the
	// whole message.
	TransportUDP TransportKind = iota
	// TransportTCP runs RPC over a streamsim reliable byte stream:
	// record-marked messages in MTU-sized segments, per-segment
	// retransmission with an adaptive (Karn/Jacobson) RTO, and no
	// loss amplification.
	TransportTCP
)

func (k TransportKind) String() string {
	if k == TransportTCP {
		return "tcp"
	}
	return "udp"
}

// ParseTransport resolves a transport name as printed by String.
func ParseTransport(name string) (TransportKind, error) {
	switch name {
	case "udp":
		return TransportUDP, nil
	case "tcp":
		return TransportTCP, nil
	}
	return 0, fmt.Errorf("rpcsim: unknown transport %q (have udp, tcp)", name)
}

// defaultMaxRetransmitTimeout caps UDP retransmit backoff (the 2.4
// xprt's to_maxval): applied by DefaultConfig and by New when the
// config leaves MaxRetransmitTimeout zero.
const defaultMaxRetransmitTimeout sim.Time = 60_000_000_000

// LockPolicy selects the BKL discipline around sock_sendmsg.
type LockPolicy int

const (
	// HoldBKLAcrossSend is the stock 2.4.4 behaviour: the BKL is held for
	// the whole transmit path including the network layer.
	HoldBKLAcrossSend LockPolicy = iota
	// ReleaseBKLForSend is the paper's fix: drop the BKL before calling
	// into the network layer, reacquire it on return.
	ReleaseBKLForSend
)

func (l LockPolicy) String() string {
	if l == ReleaseBKLForSend {
		return "no-lock"
	}
	return "bkl"
}

// Config holds the transport's cost model and policy.
type Config struct {
	// MaxSlots bounds concurrently outstanding RPCs (the 2.4 xprt slot
	// table holds 16 entries).
	MaxSlots int
	// SendCPUBase + SendCPUPerFragment model the sock_sendmsg cost: UDP
	// send, IP fragmentation and driver work, per datagram and per
	// fragment. At six fragments per 8 KB WRITE these default to the
	// paper's ~50 µs.
	SendCPUBase        sim.Time
	SendCPUPerFragment sim.Time
	// RPCPrepCPU is the xprt/xdr work outside the socket call (slot setup,
	// header marshaling). Held under BKL in both policies.
	RPCPrepCPU sim.Time
	// ReplyCPUBase + ReplyCPUPerFragment model softirq receive processing
	// (IP reassembly + UDP delivery) per reply.
	ReplyCPUBase        sim.Time
	ReplyCPUPerFragment sim.Time
	// ReplyBKLHold is the time the reply path holds the BKL to update RPC
	// state (not removed by the paper's fix).
	ReplyBKLHold sim.Time
	// RetransmitTimeout is the initial timeout for resending an
	// unanswered call (classic UDP NFS). Each retransmission doubles it,
	// Karn-style, up to MaxRetransmitTimeout.
	RetransmitTimeout sim.Time
	// MaxRetransmitTimeout caps the exponential backoff (the 2.4 xprt's
	// to_maxval; 0 means the New default of 60 s).
	MaxRetransmitTimeout sim.Time
	// MaxRetries bounds how many times one call is retransmitted before
	// the transport declares a major timeout and gives up with a
	// DeadServerError. 0 retries forever — the classic "hard" NFS mount,
	// and the historical default. Chaos scenarios set a cap so a
	// permanently-dead server ends the run with an error instead of
	// wedging it behind a saturated backoff timer.
	MaxRetries int
	// LockPolicy selects the send-path BKL discipline.
	LockPolicy LockPolicy
	// Transport selects UDP datagrams or the TCP-style stream.
	Transport TransportKind
	// MTU is the path MTU used to compute fragment counts for CPU
	// charging (must match the network's).
	MTU int
}

// DefaultConfig returns the 2.4.4-calibrated cost model: ~50 µs of
// network-layer CPU per 8 KB WRITE (6 fragments), 16 slots, 1.1 s
// retransmit.
func DefaultConfig() Config {
	return Config{
		MaxSlots:             16,
		SendCPUBase:          8_000, // 8 µs
		SendCPUPerFragment:   7_000, // 7 µs × 6 frags + 8 = 50 µs per 8 KB WRITE
		RPCPrepCPU:           5_000, // 5 µs
		ReplyCPUBase:         6_000, // 6 µs
		ReplyCPUPerFragment:  1_500, // small replies are one fragment
		ReplyBKLHold:         4_000, // 4 µs
		RetransmitTimeout:    1_100_000_000,
		MaxRetransmitTimeout: defaultMaxRetransmitTimeout,
		LockPolicy:           HoldBKLAcrossSend,
		Transport:            TransportUDP,
		MTU:                  netsim.MTUEthernet,
	}
}

// Stats counts transport activity. For TransportTCP, Retransmits counts
// stream segment retransmissions and BytesSent counts the stream's wire
// bytes, so the column means "repair traffic" under both transports.
type Stats struct {
	Calls       int64
	Replies     int64
	Retransmits int64
	// DuplicateReplies counts replies that arrived for an already
	// completed xid (the reply raced a retransmission) and were
	// suppressed.
	DuplicateReplies int64
	BytesSent        int64
	TotalRTT         sim.Time
	// RTTSamples is how many calls contributed to TotalRTT. Calls that
	// were retransmitted are excluded, Karn-style: their RTT is ambiguous.
	RTTSamples int64
	// SlotWaits counts Calls that found the slot table full and had to
	// sleep; SlotWaitTime is the total time those calls spent queued.
	// Together they measure slot-table convoying as fleets grow.
	SlotWaits    int64
	SlotWaitTime sim.Time
	// BadReplies counts datagrams that failed reply decoding (truncated
	// or stale traffic, e.g. around a server restart) and were dropped.
	BadReplies int64
	// MajorTimeouts counts calls abandoned after MaxRetries
	// retransmissions (each one raised a DeadServerError).
	MajorTimeouts int64
}

// DeadServerError is the major-timeout give-up: a call exhausted its
// retransmit budget against an unresponsive server. It is raised as a
// panic from the retransmit timer (event context — the transport has no
// caller to return to), so it surfaces out of sim.Run for the scenario
// runner or test to recover.
type DeadServerError struct {
	// Server is the unresponsive remote host.
	Server string
	// XID identifies the abandoned call.
	XID uint32
	// Retries is how many retransmissions were attempted.
	Retries int
}

func (e *DeadServerError) Error() string {
	return fmt.Sprintf("rpcsim: server %s not responding: xid %d gave up after %d retransmits",
		e.Server, e.XID, e.Retries)
}

// pendingCall is one slot-table entry, the 2.4 xprt's rpc_rqst. Entries
// are reused from the transport's free list with their callbacks bound
// once, so issuing a call allocates nothing. An entry goes back to the
// free list when its call completes: after onReply for Call, after done
// for CallSync. Its retransmit timer is canceled before then, and sim
// event handles are generation-checked, so a timer from an entry's
// previous call can never fire on its next one.
type pendingCall struct {
	t       *Transport
	xid     uint32
	enc     *xdr.Encoder // pooled encoder holding the call; nil once released
	onReply func(body *xdr.Decoder)
	timer   sim.Event
	sentAt  sim.Time
	rto     sim.Time
	retrans int
	// resend is retransmit bound to this entry: the timer callback.
	resend func()

	// CallSync state. sync marks the call; replied is set, dec copied
	// from the transport's decoder and reply kept when the answer lands;
	// wq wakes the caller. dec and reply then belong to the caller until
	// done runs.
	sync    bool
	replied bool
	dec     xdr.Decoder
	reply   []byte
	wq      *sim.WaitQueue
	done    func()
}

// Transport is a client-side RPC transport bound to one server.
type Transport struct {
	s   *sim.Sim
	net *netsim.Network
	cpu *sim.CPUPool
	bkl *sim.Mutex
	cfg Config

	local, remote string

	nextXID  uint32
	pending  map[uint32]*pendingCall
	free     []*pendingCall
	slotWait *sim.WaitQueue

	rxq     sim.FIFO[netsim.Datagram]
	rxWait  *sim.WaitQueue
	softirq *sim.Proc
	// dec decodes each reply in softirq context; onReply callbacks read
	// it and must not keep it.
	dec xdr.Decoder

	// stream is the TCP-style connection (nil under TransportUDP).
	stream *streamsim.Endpoint

	stats Stats
}

// New creates a transport between local and remote hosts. It installs
// itself as the local host's datagram handler and starts a softirq
// process that drains received replies. Under TransportTCP the handler
// feeds a streamsim endpoint whose reassembled records become replies.
func New(s *sim.Sim, net *netsim.Network, cpu *sim.CPUPool, bkl *sim.Mutex, cfg Config, local, remote string) *Transport {
	if cfg.MaxSlots < 1 {
		panic("rpcsim: MaxSlots must be >= 1")
	}
	if cfg.MaxRetransmitTimeout == 0 {
		cfg.MaxRetransmitTimeout = defaultMaxRetransmitTimeout
	}
	t := &Transport{
		s: s, net: net, cpu: cpu, bkl: bkl, cfg: cfg,
		local: local, remote: remote,
		pending:  make(map[uint32]*pendingCall),
		slotWait: s.NewWaitQueue("rpc-slots"),
		rxWait:   s.NewWaitQueue("rpc-rx"),
	}
	if cfg.Transport == TransportTCP {
		t.stream = streamsim.NewEndpoint(s, net, streamsim.DefaultConfig(cfg.MTU), local, remote,
			func(rec []byte) {
				t.rxq.Push(netsim.Datagram{Payload: rec})
				t.rxWait.Signal()
			})
		net.SetHandler(local, func(dg netsim.Datagram) { t.stream.HandleDatagram(dg.Payload) })
	} else {
		net.SetHandler(local, func(dg netsim.Datagram) {
			t.rxq.Push(dg)
			t.rxWait.Signal()
		})
	}
	t.softirq = s.Go("softirq/"+local, t.softirqLoop)
	return t
}

// Stats returns a copy of the transport's counters, folding in the
// stream's repair traffic under TransportTCP.
func (t *Transport) Stats() Stats {
	st := t.stats
	if t.stream != nil {
		ss := t.stream.Stats()
		st.Retransmits += ss.Retransmits
		st.BytesSent += ss.WireBytes
	}
	return st
}

// Stream returns the TCP-style endpoint (nil under TransportUDP).
func (t *Transport) Stream() *streamsim.Endpoint { return t.stream }

// SetMaxRetries adjusts the per-call retransmit cap (0 = retry forever).
// Chaos scenarios set it after test-bed assembly so a dead server
// terminates the run with a DeadServerError instead of hanging.
func (t *Transport) SetMaxRetries(n int) { t.cfg.MaxRetries = n }

// InFlight returns the number of outstanding calls.
func (t *Transport) InFlight() int { return len(t.pending) }

// SlotsAvailable reports whether a Call would start without blocking.
func (t *Transport) SlotsAvailable() bool { return len(t.pending) < t.cfg.MaxSlots }

// Call issues an RPC. It blocks the calling process until a transport
// slot is free and the request is handed to the network, then returns;
// the reply callback runs later in softirq context with the decoder
// positioned after the reply header. The caller must NOT hold the BKL
// (kernel sleeping paths drop it); Call manages the BKL internally
// according to the configured LockPolicy.
func (t *Transport) Call(p *sim.Proc, proc uint32, encodeArgs func(*xdr.Encoder), onReply func(*xdr.Decoder)) {
	t.call(p, proc, encodeArgs, onReply, false)
}

func (t *Transport) call(p *sim.Proc, proc uint32, encodeArgs func(*xdr.Encoder), onReply func(*xdr.Decoder), sync bool) *pendingCall {
	// Reserve a slot; sleeping here does not hold the BKL, which is why a
	// slow server (slots always full) leaves the writer thread unimpeded
	// — the paper's §3.5 paradox.
	if len(t.pending) >= t.cfg.MaxSlots {
		t.stats.SlotWaits++
		queued := t.s.Now()
		for len(t.pending) >= t.cfg.MaxSlots {
			t.slotWait.Wait(p)
		}
		t.stats.SlotWaitTime += t.s.Now() - queued
	}

	t.nextXID++
	xid := t.nextXID
	enc := xdr.AcquireEncoder()
	nfsproto.CallHeader{XID: xid, Proc: proc}.Encode(enc)
	encodeArgs(enc)

	pc := t.newCall()
	pc.xid, pc.enc, pc.onReply, pc.sentAt, pc.sync = xid, enc, onReply, t.s.Now(), sync
	t.pending[xid] = pc
	t.stats.Calls++

	// xprt_transmit: RPC bookkeeping under the BKL in both policies.
	t.bkl.Lock(p, "xprt_transmit")
	t.cpu.Use(p, labelXprtTransmit, t.cfg.RPCPrepCPU)
	t.transmit(p, pc)
	t.bkl.Unlock(p)
	return pc
}

// newCall takes a slot-table entry from the free list, or makes one.
func (t *Transport) newCall() *pendingCall {
	if k := len(t.free); k > 0 {
		pc := t.free[k-1]
		t.free = t.free[:k-1]
		return pc
	}
	pc := &pendingCall{t: t, wq: t.s.NewWaitQueue("rpc-sync")}
	pc.resend = pc.retransmit
	pc.done = pc.release
	return pc
}

// release returns a completed call's entry to the free list, recycling
// a CallSync reply buffer the caller has finished decoding.
func (pc *pendingCall) release() {
	if pc.reply != nil {
		xdr.RecycleBuffer(pc.reply)
	}
	t := pc.t
	*pc = pendingCall{t: t, resend: pc.resend, wq: pc.wq, done: pc.done}
	t.free = append(t.free, pc)
}

// msgUnits returns how many wire units an RPC message costs the CPU:
// IP fragments under UDP, stream segments (record mark included) under
// TCP. Both feed the same per-fragment cost model — segmentation work is
// what the paper's per-fragment sock_sendmsg cost measures.
func (t *Transport) msgUnits(msgLen int) int {
	if t.cfg.Transport == TransportTCP {
		return streamsim.SegmentCount(msgLen+4, streamsim.MSSForMTU(t.cfg.MTU))
	}
	return netsim.FragmentCount(msgLen, t.cfg.MTU)
}

// transmit performs the sock_sendmsg portion; caller holds the BKL.
func (t *Transport) transmit(p *sim.Proc, pc *pendingCall) {
	sendCPU := t.cfg.SendCPUBase + sim.Time(t.msgUnits(pc.enc.Len()))*t.cfg.SendCPUPerFragment

	switch t.cfg.LockPolicy {
	case HoldBKLAcrossSend:
		// Stock 2.4.4: the network layer runs entirely under the BKL.
		t.bkl.Relabel(p, "sock_sendmsg")
		t.cpu.Use(p, labelSockSendmsg, sendCPU)
		t.bkl.Relabel(p, "xprt_transmit")
	case ReleaseBKLForSend:
		// The fix: "release the lock before calling sock_sendmsg, then
		// reacquire the lock when it returns" (§3.5).
		t.bkl.Unlock(p)
		t.cpu.Use(p, labelSockSendmsg, sendCPU)
		t.bkl.Lock(p, "xprt_transmit")
	}

	if t.cfg.Transport == TransportTCP {
		// The stream owns reliability: per-segment retransmission with an
		// adaptive RTO. No whole-message timer, no duplicate replies.
		// SendRecord copies the record (bulk written out) into the
		// stream buffer, so the encode buffer is dead as soon as it
		// returns.
		t.stream.SendRecord(pc.enc.Bytes())
		pc.enc.Release()
		pc.enc = nil
		return
	}
	res := t.send(pc)
	t.stats.BytesSent += res.WireBytes
	pc.rto = t.cfg.RetransmitTimeout
	pc.timer = t.s.After(pc.rto, pc.resend)
}

// send puts a UDP call on the wire: its encoded head plus the counted
// bulk.
func (t *Transport) send(pc *pendingCall) netsim.SendResult {
	return t.net.Send(netsim.Datagram{From: t.local, To: t.remote, Payload: pc.enc.Head(), Bulk: pc.enc.Bulk()})
}

// retransmit resends an unanswered call and doubles its timeout,
// Karn-style, up to MaxRetransmitTimeout (event context; models the RPC
// timer firing. The resend's CPU cost is not charged — under loss the
// stall, not the CPU, dominates). With MaxRetries set, a call that has
// exhausted its budget is abandoned: the slot is freed and a
// DeadServerError raised instead of retransmitting forever. The timer is
// canceled when the reply lands, so it only fires while the call is
// pending.
func (pc *pendingCall) retransmit() {
	t := pc.t
	if t.cfg.MaxRetries > 0 && pc.retrans >= t.cfg.MaxRetries {
		delete(t.pending, pc.xid)
		t.stats.MajorTimeouts++
		t.slotWait.Signal()
		panic(&DeadServerError{Server: t.remote, XID: pc.xid, Retries: pc.retrans})
	}
	t.stats.Retransmits++
	pc.retrans++
	res := t.send(pc)
	t.stats.BytesSent += res.WireBytes
	pc.rto *= 2
	if pc.rto > t.cfg.MaxRetransmitTimeout {
		pc.rto = t.cfg.MaxRetransmitTimeout
	}
	pc.timer = t.s.After(pc.rto, pc.resend)
}

// softirqLoop drains received datagrams: IP reassembly + UDP receive CPU,
// then RPC reply matching under a short BKL hold, then the completion
// callback.
func (t *Transport) softirqLoop(p *sim.Proc) {
	for {
		for t.rxq.Len() == 0 {
			t.rxWait.Wait(p)
		}
		reply := t.rxq.Pop()

		t.cpu.Use(p, labelUDPRcv,
			t.cfg.ReplyCPUBase+sim.Time(t.msgUnits(reply.Size()))*t.cfg.ReplyCPUPerFragment)

		d := &t.dec
		d.Reset(reply.Payload, reply.Bulk)
		hdr, err := nfsproto.DecodeReply(d)
		if err != nil {
			// A truncated or stale datagram (possible around a server
			// restart) must not kill the run: count it and drop it.
			t.stats.BadReplies++
			xdr.RecycleBuffer(reply.Payload)
			continue
		}
		pc, ok := t.pending[hdr.XID]
		if !ok {
			// Duplicate reply: the original answer raced a retransmission.
			t.stats.DuplicateReplies++
			xdr.RecycleBuffer(reply.Payload)
			continue
		}

		// rpc reply state update holds the BKL briefly in both policies.
		t.bkl.Lock(p, "rpc_reply")
		t.cpu.Use(p, labelRPCReply, t.cfg.ReplyBKLHold)
		pc.timer.Cancel()
		delete(t.pending, hdr.XID)
		t.stats.Replies++
		if pc.retrans == 0 {
			// Karn: a retransmitted call's RTT is ambiguous — the reply
			// could answer either transmission — so it contributes no
			// sample.
			t.stats.TotalRTT += t.s.Now() - pc.sentAt
			t.stats.RTTSamples++
		}
		t.bkl.Unlock(p)

		t.slotWait.Signal()
		// The call's encode buffer: with zero retransmissions exactly one
		// request datagram existed and the server is done with it (the
		// reply proves delivery and service), so it can be recycled. A
		// retransmitted call may still have copies in flight — leak those
		// to the GC.
		if pc.enc != nil && pc.retrans == 0 {
			pc.enc.Release()
		}
		pc.enc = nil
		if pc.sync {
			// The caller decodes after this loop has moved on, so the
			// reply buffer and a copy of the decoder go with the call;
			// done hands them back.
			pc.dec, pc.reply, pc.replied = *d, reply.Payload, true
			pc.wq.Signal()
			continue
		}
		if pc.onReply != nil {
			pc.onReply(d)
		}
		// The reply buffer is uniquely ours (UDP: the server's encode
		// buffer, delivered once; TCP: a fresh record copy), and decoded
		// aliases die with the callback.
		xdr.RecycleBuffer(reply.Payload)
		pc.release()
	}
}

// CallSync issues an RPC and blocks the calling process until the reply
// arrives, returning the decoder positioned after the reply header. Used
// for COMMIT, the metadata procedures and synchronous writes. The
// decoder and the reply bytes it reads belong to the caller until it
// calls done, which returns them and the call's slot-table entry for
// reuse; neither may be used after that. A caller that never calls done
// leaves them to the GC.
func (t *Transport) CallSync(p *sim.Proc, proc uint32, encodeArgs func(*xdr.Encoder)) (d *xdr.Decoder, done func()) {
	pc := t.call(p, proc, encodeArgs, nil, true)
	for !pc.replied {
		pc.wq.Wait(p)
	}
	return &pc.dec, pc.done
}
