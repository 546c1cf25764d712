package server

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/nfsproto"
	"repro/internal/sim"
	"repro/internal/xdr"
)

// writeRoundTrips issues n 8 KiB UNSTABLE WRITEs through rpcsim, netsim
// and the filer, pipelined as the client's writeback issues them, with
// data built the way the client builds it (a zero-slab view). Offsets
// cycle over the first MiB of one file so server state stays bounded.
// before, if not nil, runs before each call is issued, once the previous
// call has been answered: calls then go one at a time.
func writeRoundTrips(r *rig, n int, before func()) {
	fh := nfsproto.MakeFileHandle(1, 1)
	finished := false
	r.s.Go("writer", func(p *sim.Proc) {
		outstanding := 0
		done := r.s.NewWaitQueue("writer-done")
		onReply := func(d *xdr.Decoder) {
			res, err := nfsproto.DecodeWriteRes(d)
			if err != nil || res.Status != nfsproto.NFS3OK || res.Count != 8192 {
				panic("bad write result")
			}
			outstanding--
			done.Broadcast()
		}
		for i := range n {
			args := nfsproto.WriteArgs{File: fh, Offset: uint64(i%128) * 8192, Count: 8192, Stable: nfsproto.Unstable, Data: xdr.Zeroes(8192)}
			if before != nil {
				for outstanding > 0 {
					done.Wait(p)
				}
				before()
			}
			outstanding++
			r.tr.Call(p, nfsproto.ProcWrite, args.Encode, onReply)
		}
		for outstanding > 0 {
			done.Wait(p)
		}
		finished = true
	})
	// The filer's checkpoint timer never lets the event queue drain, so
	// run in slices of virtual time until the writer is done.
	for !finished {
		r.s.Run(r.s.Now() + time.Second)
	}
	if r.srv.Writes != int64(n) {
		panic("server saw fewer writes than were sent")
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

// maxBytesPerWrite bounds host allocation per 8 KiB WRITE round trip.
// Bulk data is counted, not copied, so a round trip allocates only
// small headers and bookkeeping; a reintroduced payload copy costs at
// least 8 KiB and trips it.
const maxBytesPerWrite = 4 << 10

// TestWriteRoundTripAllocBytes measures each round trip with the encoder
// pools empty. That is the fleet regime: with thousands of calls in
// flight, pooled buffers rarely survive a GC cycle, so every message's
// buffers are fresh allocations. (With one warm client the pools would
// hide even an 8 KiB copy.) Two GCs empty a sync.Pool: the first moves
// its contents to the victim cache, the second drops them.
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
