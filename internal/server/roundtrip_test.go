package server

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/nfsproto"
	"repro/internal/sim"
	"repro/internal/xdr"
)

// tripFH is the file every round-trip driver writes and reads. Offsets
// cycle over its first MiB so server state stays bounded.
var tripFH = nfsproto.MakeFileHandle(1, 1)

// tripOffset is the file offset of call i.
func tripOffset(i int) uint64 { return uint64(i%128) * 8192 }

// encodeWrite encodes call i as an 8 KiB UNSTABLE WRITE, with data built
// the way the client builds it (a zero-slab view).
func encodeWrite(i int, e *xdr.Encoder) {
	args := nfsproto.WriteArgs{File: tripFH, Offset: tripOffset(i), Count: 8192, Stable: nfsproto.Unstable, Data: xdr.Zeroes(8192)}
	args.Encode(e)
}

func checkWrite(d *xdr.Decoder) {
	res, err := nfsproto.DecodeWriteRes(d)
	if err != nil || res.Status != nfsproto.NFS3OK || res.Count != 8192 {
		panic("bad write result")
	}
}

// encodeRead encodes call i as an 8 KiB READ.
func encodeRead(i int, e *xdr.Encoder) {
	args := nfsproto.ReadArgs{File: tripFH, Offset: tripOffset(i), Count: 8192}
	args.Encode(e)
}

func checkRead(d *xdr.Decoder) {
	res, err := nfsproto.DecodeReadRes(d)
	if err != nil || res.Status != nfsproto.NFS3OK || res.Count != 8192 || len(res.Data) != 8192 {
		panic("bad read result")
	}
}

// roundTrips issues n calls of one procedure through rpcsim, netsim and
// the server, pipelined as the client's writeback issues them. encode
// builds call i and check validates each reply. before, if not nil, runs
// before each call is issued, once the previous call has been answered:
// calls then go one at a time.
func roundTrips(r *rig, n int, proc uint32, encode func(int, *xdr.Encoder), check func(*xdr.Decoder), before func()) {
	finished := false
	r.s.Go("client", func(p *sim.Proc) {
		outstanding := 0
		done := r.s.NewWaitQueue("client-done")
		onReply := func(d *xdr.Decoder) {
			check(d)
			outstanding--
			done.Broadcast()
		}
		i := 0
		encodeArgs := func(e *xdr.Encoder) { encode(i, e) }
		for ; i < n; i++ {
			if before != nil {
				for outstanding > 0 {
					done.Wait(p)
				}
				before()
			}
			outstanding++
			r.tr.Call(p, proc, encodeArgs, onReply)
		}
		for outstanding > 0 {
			done.Wait(p)
		}
		finished = true
	})
	// The filer's checkpoint timer never lets the event queue drain, so
	// run in slices of virtual time until the client is done.
	for !finished {
		r.s.Run(r.s.Now() + time.Second)
	}
}

// writeRoundTrips issues n 8 KiB UNSTABLE WRITEs (see roundTrips).
func writeRoundTrips(r *rig, n int, before func()) {
	roundTrips(r, n, nfsproto.ProcWrite, encodeWrite, checkWrite, before)
	if r.srv.Writes != int64(n) {
		panic("server saw fewer writes than were sent")
	}
}

// readRoundTrips issues n 8 KiB READs (see roundTrips).
func readRoundTrips(r *rig, n int) {
	roundTrips(r, n, nfsproto.ProcRead, encodeRead, checkRead, nil)
	if r.srv.Reads != int64(n) {
		panic("server saw fewer reads than were sent")
	}
}

// BenchmarkWriteRoundTrip is the data-path layer number: one 8 KiB WRITE
// call and its reply through the RPC transport, the network and the
// server, reported per round trip.
func BenchmarkWriteRoundTrip(b *testing.B) {
	b.ReportAllocs()
	r, _ := newRig(b, "filer")
	b.ResetTimer()
	writeRoundTrips(r, b.N, nil)
}

// BenchmarkReadRoundTrip is BenchmarkWriteRoundTrip for one 8 KiB READ.
func BenchmarkReadRoundTrip(b *testing.B) {
	b.ReportAllocs()
	r, _ := newRig(b, "filer")
	b.ResetTimer()
	readRoundTrips(r, b.N)
}

// tripper returns a func that sends one call and runs the simulation
// until its reply has been checked. The client proc, its wait queue and
// its callbacks are made once, so a trip costs only what the RPC path
// itself allocates.
func tripper(r *rig, proc uint32, encode func(int, *xdr.Encoder), check func(*xdr.Decoder)) func() {
	i := 0
	issue, answered := false, false
	next := r.s.NewWaitQueue("next-trip")
	encodeArgs := func(e *xdr.Encoder) { encode(i, e) }
	onReply := func(d *xdr.Decoder) {
		check(d)
		answered = true
	}
	r.s.Go("client", func(p *sim.Proc) {
		for {
			for !issue {
				next.Wait(p)
			}
			issue = false
			r.tr.Call(p, proc, encodeArgs, onReply)
		}
	})
	return func() {
		issue, answered = true, false
		next.Signal()
		for !answered {
			r.s.Run(r.s.Now() + 100*time.Microsecond)
		}
		i++
	}
}

// maxAllocsPerTrip bounds the allocations of one warm round trip. The
// one allowed is the backend's result: Backend.Handle* return a fresh
// *WriteRes or *ReadRes. Every other per-message object (the delivery
// record, the slot-table entry, encoders, head buffers, decoders, the
// decoded arguments) has an owner that reuses it.
const maxAllocsPerTrip = 1

// TestWriteRoundTripAllocs counts the allocations of one 8 KiB WRITE
// round trip once the pools and free lists are warm.
func TestWriteRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items at random")
	}
	r, _ := newRig(t, "filer")
	trip := tripper(r, nfsproto.ProcWrite, encodeWrite, checkWrite)
	for range 64 {
		trip()
	}
	if got := testing.AllocsPerRun(1000, trip); got > maxAllocsPerTrip {
		t.Fatalf("%v allocations per 8 KiB WRITE round trip, want <= %d", got, maxAllocsPerTrip)
	}
}

// TestReadRoundTripAllocs is TestWriteRoundTripAllocs for READ.
func TestReadRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items at random")
	}
	r, _ := newRig(t, "filer")
	trip := tripper(r, nfsproto.ProcRead, encodeRead, checkRead)
	for range 64 {
		trip()
	}
	if got := testing.AllocsPerRun(1000, trip); got > maxAllocsPerTrip {
		t.Fatalf("%v allocations per 8 KiB READ round trip, want <= %d", got, maxAllocsPerTrip)
	}
}

// maxBytesPerWrite bounds host allocation per 8 KiB WRITE round trip.
// Bulk data is counted, not copied, so a round trip allocates only
// small headers and bookkeeping; a reintroduced payload copy costs at
// least 8 KiB and trips it.
const maxBytesPerWrite = 4 << 10

// TestWriteRoundTripAllocBytes measures each round trip with the encoder
// pools empty, so every message's encoders and head buffers are fresh
// allocations: the cold path, where a payload copy would show. With
// warm pools the reused buffers would hide even an 8 KiB copy, and warm
// pools are the fleet regime too: once every encoder goes back to its
// pool, a fleet rarely misses. TestWriteRoundTripAllocs gates the warm
// path by count. Two GCs empty a sync.Pool: the first moves its
// contents to the victim cache, the second drops them.
func TestWriteRoundTripAllocBytes(t *testing.T) {
	const n = 200
	r, _ := newRig(t, "filer")
	emptyPools := func() {
		runtime.GC()
		runtime.GC()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	writeRoundTrips(r, n, emptyPools)
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= maxBytesPerWrite {
		t.Fatalf("%d host bytes allocated per 8 KiB WRITE round trip, want < %d: is the payload being copied?",
			per, maxBytesPerWrite)
	} else {
		t.Logf("%d host bytes allocated per 8 KiB WRITE round trip", per)
	}
}
