package core_test

import (
	"reflect"
	"testing"
	"time"

	nfssim "repro"
	"repro/internal/core"
	"repro/internal/sim"
)

// indexState is what an index policy must not change: the queued
// requests, the outstanding count and the dirty bytes charged for them.
type indexState struct {
	reqs        []core.Request
	outstanding int
	usage       int64
}

// Fix 2 is modeled by its lookup cost alone: a hash-table client and a
// linear-list client driven through the same writes must end in the same
// state, each charging only its own lookup label. The sequence covers
// the request-merging cases (extend, overlap, the incompatible-request
// flush) and the verifier-change rewrite, which widens one queued request
// and inserts another.
func TestHashIndexMatchesList(t *testing.T) {
	run := func(cfg core.Config) (before, after indexState, prof *sim.Profiler) {
		// Linux replies UNSTABLE, so the flushed ranges stay rewritable.
		tb := nfssim.NewTestbed(nfssim.Options{Server: nfssim.ServerLinux, Client: cfg, Seed: 3})
		f := tb.OpenNFS()
		ino := f.Inode()
		snap := func() indexState {
			reqs := ino.Requests()
			for i := range reqs {
				reqs[i].CreatedAt = 0 // virtual time, which the lookup costs shift
			}
			return indexState{reqs, ino.Outstanding(), tb.Cache.Usage()}
		}
		const page = 4096
		tb.Sim.Go("w", func(p *sim.Proc) {
			f.WriteAt(p, 0, 100)
			f.WriteAt(p, 100, 100)        // extends page 0 to [0,200)
			f.WriteAt(p, 50, 100)         // overlaps inside it
			f.WriteAt(p, 3*page, 300)     // page 3 [0,300)
			f.WriteAt(p, 3000, 100)       // disjoint on page 0: flushes both first
			f.WriteAt(p, page+10, 20)     // page 1 [10,30)
			f.WriteAt(p, 3*page+1000, 50) // page 3 [1000,1050)
			tb.Client.Redirty(ino)        // page 0 widens to [0,3100), page 3 to [0,1050)
			before = snap()
			f.Close(p)
			after = snap()
		})
		tb.Sim.Run(time.Minute)
		if tb.Client.RewrittenBytes != 500 {
			t.Fatalf("%v: rewritten %d bytes, want 500", cfg.IndexPolicy, tb.Client.RewrittenBytes)
		}
		return before, after, tb.Sim.Profiler()
	}
	hashBefore, hashAfter, hashProf := run(core.HashConfig())
	listBefore, listAfter, listProf := run(core.NoLimitsConfig())

	want := indexState{
		reqs:        []core.Request{{Page: 0, Offset: 0, Count: 3100}, {Page: 1, Offset: 10, Count: 20}, {Page: 3, Offset: 0, Count: 1050}},
		outstanding: 3,
		usage:       3100 + 20 + 1050,
	}
	if !reflect.DeepEqual(hashBefore, want) {
		t.Fatalf("hash client after the rewrite: %+v, want %+v", hashBefore, want)
	}
	if !reflect.DeepEqual(listBefore, want) {
		t.Fatalf("list client after the rewrite: %+v, want %+v", listBefore, want)
	}
	if want := (indexState{reqs: []core.Request{}}); !reflect.DeepEqual(hashAfter, want) || !reflect.DeepEqual(listAfter, want) {
		t.Fatalf("after close: hash client %+v, list client %+v, want %+v", hashAfter, listAfter, want)
	}

	for _, c := range []struct {
		name       string
		prof       *sim.Profiler
		own, other []string
	}{
		{"hash", hashProf, []string{"nfs_find_request(hash)"}, []string{"nfs_find_request", "nfs_update_request(scan)"}},
		{"list", listProf, []string{"nfs_find_request", "nfs_update_request(scan)"}, []string{"nfs_find_request(hash)"}},
	} {
		for _, l := range c.own {
			if c.prof.Calls(l) == 0 {
				t.Errorf("%s client never charged %s", c.name, l)
			}
		}
		for _, l := range c.other {
			if n := c.prof.Calls(l); n != 0 {
				t.Errorf("%s client charged %s %d times", c.name, l, n)
			}
		}
	}
}
