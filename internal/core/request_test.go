package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func req(page int64) *Request {
	return &Request{Page: page, Offset: 0, Count: pageSize}
}

func TestReqListSortedInsert(t *testing.T) {
	var l reqList
	for _, pg := range []int64{5, 1, 3, 2, 4} {
		l.Insert(req(pg))
	}
	if l.Len() != 5 {
		t.Fatalf("len = %d", l.Len())
	}
	for i := 0; i < 5; i++ {
		if l.At(i).Page != int64(i+1) {
			t.Fatalf("list not sorted: pos %d has page %d", i, l.At(i).Page)
		}
	}
}

func TestReqListFind(t *testing.T) {
	var l reqList
	for pg := int64(0); pg < 10; pg++ {
		l.Insert(req(pg * 2)) // pages 0,2,4,...18
	}
	r, scanned := l.Find(6)
	if r == nil || r.Page != 6 {
		t.Fatalf("Find(6) = %v", r)
	}
	if scanned != 4 { // walks entries 0,2,4 then hits 6
		t.Fatalf("scanned = %d, want 4", scanned)
	}
	r, scanned = l.Find(7)
	if r != nil {
		t.Fatal("Find(7) found a request that does not exist")
	}
	if scanned != 4 {
		t.Fatalf("miss scanned = %d", scanned)
	}
	// Sequential-append pathology: a miss past the end scans everything.
	_, scanned = l.Find(100)
	if scanned != l.Len() {
		t.Fatalf("past-end miss scanned %d of %d", scanned, l.Len())
	}
}

func TestReqListInsertScanCost(t *testing.T) {
	var l reqList
	for pg := int64(0); pg < 100; pg++ {
		scanned := l.Insert(req(pg))
		if scanned != int(pg) {
			t.Fatalf("append scan = %d, want %d (full traversal)", scanned, pg)
		}
	}
}

func TestPopRunCoalescesContiguous(t *testing.T) {
	var l reqList
	for pg := int64(0); pg < 5; pg++ {
		l.Insert(req(pg))
	}
	run, _ := l.PopRun(8192) // wsize 8 KB = 2 pages
	if len(run) != 2 || run[0].Page != 0 || run[1].Page != 1 {
		t.Fatalf("run = %v", run)
	}
	if l.Len() != 3 {
		t.Fatalf("remaining = %d", l.Len())
	}
}

func TestPopRunStopsAtGap(t *testing.T) {
	var l reqList
	l.Insert(req(0))
	l.Insert(req(5)) // gap
	run, _ := l.PopRun(65536)
	if len(run) != 1 || run[0].Page != 0 {
		t.Fatalf("run crossed a gap: %v", run)
	}
}

func TestPopRunStopsAtPartialPage(t *testing.T) {
	var l reqList
	l.Insert(req(0))
	l.Insert(&Request{Page: 1, Offset: 100, Count: 200}) // not byte-contiguous
	run, _ := l.PopRun(65536)
	if len(run) != 1 {
		t.Fatalf("run crossed a byte gap: %v", run)
	}
}

func TestPopRunEmpty(t *testing.T) {
	var l reqList
	run, scanned := l.PopRun(8192)
	if run != nil || scanned != 0 {
		t.Fatalf("empty pop = %v/%d", run, scanned)
	}
}

func TestRequestSpanHelpers(t *testing.T) {
	r := &Request{Page: 2, Offset: 100, Count: 50}
	if r.Start() != 2*4096+100 || r.End() != 2*4096+150 {
		t.Fatalf("span = [%d,%d)", r.Start(), r.End())
	}
}

// Property: after inserting a random permutation of pages, the list is
// sorted and PopRun drains it completely in contiguous chunks.
func TestReqListProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		var l reqList
		for _, pg := range rand.New(rand.NewSource(seed)).Perm(n) {
			l.Insert(req(int64(pg)))
		}
		for i := 1; i < l.Len(); i++ {
			if l.At(i-1).Page >= l.At(i).Page {
				return false
			}
		}
		popped := 0
		for l.Len() > 0 {
			run, _ := l.PopRun(8192)
			if len(run) == 0 || len(run) > 2 {
				return false
			}
			popped += len(run)
		}
		return popped == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// refList is a naive model of the 2.4.4 request list: a sorted slice
// walked from the head on every operation, counting the entries each
// walk visits. reqList must agree with it on contents and on every
// scanned count, since those counts are the modeled CPU cost.
type refList struct{ items []*Request }

func (l *refList) find(pg int64) (*Request, int) {
	for i, r := range l.items {
		if r.Page == pg {
			return r, i + 1
		}
		if r.Page > pg {
			return nil, i
		}
	}
	return nil, len(l.items)
}

func (l *refList) insert(r *Request) int {
	i := 0
	for i < len(l.items) && l.items[i].Page < r.Page {
		i++
	}
	l.items = append(l.items[:i], append([]*Request{r}, l.items[i:]...)...)
	return i
}

func (l *refList) popRun(maxBytes int) ([]*Request, int) {
	if len(l.items) == 0 {
		return nil, 0
	}
	n, total := 0, 0
	for n < len(l.items) {
		r := l.items[n]
		if total+r.Count > maxBytes || (n > 0 && l.items[n-1].End() != r.Start()) {
			break
		}
		total += r.Count
		n++
	}
	n = max(n, 1)
	run := append([]*Request(nil), l.items[:n]...)
	l.items = l.items[n:]
	return run, n + 1
}

// TestReqListMatchesReference interleaves inserts at the head, middle
// and tail with PopRun and Find, checking items and scanned counts
// against the naive reference after every step.
func TestReqListMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		rng := rand.New(rand.NewSource(seed))
		var l reqList
		var ref refList
		lo, hi := int64(1<<20), int64(1<<20) // next free page below / above the list
		newReq := func(pg int64) *Request {
			r := &Request{Page: pg, Count: pageSize}
			if rng.Intn(8) == 0 { // a partial page breaks contiguity
				r.Offset = rng.Intn(pageSize / 2)
				r.Count = 1 + rng.Intn(pageSize-r.Offset)
			}
			return r
		}
		for step := 0; step < 4000; step++ {
			var pg int64
			switch op := rng.Intn(10); {
			case op < 4: // tail: the sequential writer
				pg = hi
				hi += 1 + int64(rng.Intn(2))
			case op < 5: // head
				lo--
				pg = lo
			case op < 7: // middle, hit or miss
				pg = lo + rng.Int63n(hi-lo+1)
			case op < 9:
				maxBytes := pageSize * (1 + rng.Intn(8))
				run, scanned := l.PopRun(maxBytes)
				wantRun, wantScanned := ref.popRun(maxBytes)
				if scanned != wantScanned || !reflect.DeepEqual(run, wantRun) {
					t.Fatalf("seed %d step %d: PopRun(%d) = %d entries scanned %d, want %d scanned %d",
						seed, step, maxBytes, len(run), scanned, len(wantRun), wantScanned)
				}
				continue
			default:
				pg = lo + rng.Int63n(hi-lo+1)
				r, scanned := l.Find(pg)
				wantR, wantScanned := ref.find(pg)
				if r != wantR || scanned != wantScanned {
					t.Fatalf("seed %d step %d: Find(%d) scanned %d, want %d", seed, step, pg, scanned, wantScanned)
				}
				continue
			}
			// Like the write path: look the page up, insert on a miss.
			r, scanned := l.Find(pg)
			wantR, wantScanned := ref.find(pg)
			if r != wantR || scanned != wantScanned {
				t.Fatalf("seed %d step %d: Find(%d) scanned %d, want %d", seed, step, pg, scanned, wantScanned)
			}
			if r == nil {
				nr := newReq(pg)
				if got, want := l.Insert(nr), ref.insert(nr); got != want {
					t.Fatalf("seed %d step %d: Insert(%d) scanned %d, want %d", seed, step, pg, got, want)
				}
			}
			if l.Len() != len(ref.items) {
				t.Fatalf("seed %d step %d: len %d, want %d", seed, step, l.Len(), len(ref.items))
			}
			for i, want := range ref.items {
				if l.At(i) != want {
					t.Fatalf("seed %d step %d: item %d is page %d, want %d", seed, step, i, l.At(i).Page, want.Page)
				}
			}
		}
	}
}

// BenchmarkReqListDrain queues a 100 MB sequential file, 25,600 pages,
// then pops it in wsize runs to empty — the flush of a Bonnie write.
// PopRun used to shift the whole remaining list per run, making the
// drain quadratic in the file size.
func BenchmarkReqListDrain(b *testing.B) {
	const pages = 25600
	reqs := make([]Request, pages)
	for i := range reqs {
		reqs[i] = Request{Page: int64(i), Count: pageSize}
	}
	b.ReportAllocs()
	for b.Loop() {
		var l reqList
		for i := range reqs {
			l.Insert(&reqs[i])
		}
		for !l.Empty() {
			l.PopRun(8192)
		}
	}
}
