package sim_test

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
)

// These tests pin the event queue's contract: events fire in (time,
// schedule-order) order — the exact total order the old container/heap
// kernel used — and Cancel is safe before, after, and long after an
// event fires, including once its pooled object has been recycled.

// TestSameTimestampFIFO schedules batches at equal timestamps in several
// interleavings; within a timestamp, firing order must be insertion
// order regardless of how timestamps interleave at insert time.
func TestSameTimestampFIFO(t *testing.T) {
	// Each case lists (timestamp, id) pairs in insertion order.
	cases := [][][2]int{
		{{5, 0}, {5, 1}, {5, 2}, {5, 3}},
		{{5, 0}, {3, 1}, {5, 2}, {3, 3}, {5, 4}},
		{{9, 0}, {1, 1}, {9, 2}, {1, 3}, {5, 4}, {5, 5}, {9, 6}},
		{{2, 0}, {2, 1}, {1, 2}, {1, 3}, {2, 4}, {1, 5}},
	}
	for ci, ins := range cases {
		s := sim.New(1)
		var fired [][2]int
		for _, pair := range ins {
			at, id := pair[0], pair[1]
			s.At(sim.Time(at)*time.Microsecond, func() { fired = append(fired, [2]int{at, id}) })
		}
		s.Run(0)
		// Expected: stable sort of the insertion list by timestamp.
		want := make([][2]int, len(ins))
		copy(want, ins)
		for i := 1; i < len(want); i++ { // insertion sort = stable
			for j := i; j > 0 && want[j-1][0] > want[j][0]; j-- {
				want[j-1], want[j] = want[j], want[j-1]
			}
		}
		if !reflect.DeepEqual(fired, want) {
			t.Fatalf("case %d: fired %v, want %v", ci, fired, want)
		}
	}
}

// TestCancelThenFire covers the cancellation lifecycle: cancel before
// fire suppresses the event, cancel after fire is a no-op, and a stale
// handle must not kill a later event that recycled the same pooled
// object (the generation check).
func TestCancelThenFire(t *testing.T) {
	s := sim.New(1)
	var fired []string
	a := s.At(1*time.Microsecond, func() { fired = append(fired, "a") })
	b := s.At(2*time.Microsecond, func() { fired = append(fired, "b") })
	s.At(3*time.Microsecond, func() { fired = append(fired, "c") })
	b.Cancel()
	b.Cancel() // double cancel is fine
	s.Run(0)
	if want := []string{"a", "c"}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}

	// a's event object is back in the pool; new events reuse it with a
	// bumped generation. The stale handle must be inert.
	fired = nil
	for i := 0; i < 8; i++ {
		s.At(time.Microsecond, func() { fired = append(fired, "d") })
	}
	a.Cancel()
	s.Run(0)
	if len(fired) != 8 {
		t.Fatalf("stale Cancel killed a recycled event: fired %v", fired)
	}

	// Cancelling from within an earlier event at the same timestamp
	// still suppresses the later one (it has not run yet).
	fired = nil
	var victim sim.Event
	s.At(time.Microsecond, func() {
		fired = append(fired, "e")
		victim.Cancel()
	})
	victim = s.At(time.Microsecond, func() { fired = append(fired, "f") })
	s.Run(0)
	if want := []string{"e"}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
}

// refHeap is the old kernel's event queue: a container/heap binary heap
// ordered by (at, seq) with lazy-cancelled dead events. The randomized
// cross-check below replays identical schedules through it.
type refEvent struct {
	at   int64
	seq  int
	id   int
	dead bool
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// schedStep is what one fired event does: schedule children in order
// (delays in microseconds, each with a role its own step may depend on)
// and cancel one event by id (-1 for none).
type schedStep struct {
	children []schedChild
	cancel   int
}

type schedChild struct {
	delay int64
	role  int
}

// replaySchedule runs a schedule through the kernel and through the
// container/heap reference. Each event's behaviour comes from
// step(id, role), a pure function, so both runs make identical choices;
// ids are assigned in scheduling order and capped at maxID. check, if
// set, is called on the kernel after every fired event's cancel. It
// returns both firing sequences.
func replaySchedule(seed int64, initial []schedChild, maxID int, step func(id, role int) schedStep, check func(s *sim.Sim)) (simFired, refFired []int) {
	s := sim.New(seed)
	handles := make(map[int]sim.Event)
	nextID := 0
	var schedule func(c schedChild) // schedules the next id at now+delay
	schedule = func(c schedChild) {
		id := nextID
		nextID++
		if id >= maxID {
			return
		}
		handles[id] = s.At(s.Now()+sim.Time(c.delay)*time.Microsecond, func() {
			simFired = append(simFired, id)
			d := step(id, c.role)
			if h, ok := handles[d.cancel]; ok {
				h.Cancel()
			}
			if check != nil {
				check(s)
			}
			for _, cc := range d.children {
				schedule(cc)
			}
		})
	}
	for _, c := range initial {
		schedule(c)
	}
	s.Run(0)

	var h refHeap
	byID := make(map[int]*refEvent)
	role := make(map[int]int)
	refNext, seq := 0, 0
	var now int64
	push := func(c schedChild) {
		id := refNext
		refNext++
		if id >= maxID {
			return
		}
		e := &refEvent{at: now + c.delay, seq: seq, id: id}
		seq++
		byID[id] = e
		role[id] = c.role
		heap.Push(&h, e)
	}
	for _, c := range initial {
		push(c)
	}
	for h.Len() > 0 {
		e := heap.Pop(&h).(*refEvent)
		if e.dead {
			continue
		}
		now = e.at
		refFired = append(refFired, e.id)
		d := step(e.id, role[e.id])
		if victim, ok := byID[d.cancel]; ok {
			victim.dead = true
		}
		for _, c := range d.children {
			push(c)
		}
	}
	return simFired, refFired
}

func requireSameOrder(t *testing.T, simFired, refFired []int) {
	t.Helper()
	if !reflect.DeepEqual(simFired, refFired) {
		i := 0
		for i < len(simFired) && i < len(refFired) && simFired[i] == refFired[i] {
			i++
		}
		t.Fatalf("firing order diverges from the reference heap at position %d (sim %v..., ref %v...)",
			i, tailof(simFired, i), tailof(refFired, i))
	}
}

// TestRandomizedScheduleMatchesReferenceHeap replays pseudo-random
// schedules through the kernel and the container/heap reference; the
// firing sequences must match exactly.
//
// "random": every fired event may spawn children at random future
// offsets and cancel a random pending event.
//
// "cancel-heavy" is the retransmit-timer shape: every call arms a long
// timer, and its reply, due much sooner, cancels it 95% of the time, so
// canceled timers pile up far faster than they expire and compaction
// runs many times. The heap must also stay within 2×live + the
// compaction floor throughout.
func TestRandomizedScheduleMatchesReferenceHeap(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		t.Run(fmt.Sprintf("random/seed=%d", seed), func(t *testing.T) {
			const maxID = 400
			step := func(id, _ int) schedStep {
				rng := rand.New(rand.NewSource(seed*1_000_003 + int64(id)))
				var d schedStep
				for i, n := 0, rng.Intn(3); i < n; i++ {
					d.children = append(d.children, schedChild{delay: int64(rng.Intn(7))}) // 0 delays exercise same-timestamp ties
				}
				d.cancel = -1
				if rng.Intn(4) == 0 {
					d.cancel = rng.Intn(maxID)
				}
				return d
			}
			rng := rand.New(rand.NewSource(seed))
			initial := make([]schedChild, 40)
			for i := range initial {
				initial[i].delay = int64(rng.Intn(10))
			}
			simFired, refFired := replaySchedule(seed, initial, maxID, step, nil)
			requireSameOrder(t, simFired, refFired)
		})
	}
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("cancel-heavy/seed=%d", seed), func(t *testing.T) {
			const (
				call = iota
				timer
				reply
			)
			const maxID = 30000
			timers, canceled := 0, 0
			step := func(id, role int) schedStep {
				h := mix(uint64(seed)<<32 | uint64(id))
				d := schedStep{cancel: -1}
				switch role {
				case call: // arm the timer (id+1), then send: the reply is id+2
					d.children = []schedChild{
						{delay: 2000 + int64(h%1000), role: timer},
						{delay: 1 + int64(h>>10%40), role: reply},
					}
					timers++
				case reply:
					if h%20 != 0 {
						d.cancel = id - 1
						canceled++
					}
					d.children = []schedChild{{delay: int64(h >> 20 % 3), role: call}}
				}
				return d
			}
			compactions, lastDead := 0, 0
			check := func(s *sim.Sim) {
				entries, dead := sim.HeapStats(s)
				if dead < lastDead-1 {
					compactions++
				}
				lastDead = dead
				if live := entries - dead; entries > 2*live+sim.CompactFloor {
					t.Fatalf("heap holds %d entries for %d live events", entries, live)
				}
			}
			simFired, refFired := replaySchedule(seed, make([]schedChild, 50), maxID, step, check)
			requireSameOrder(t, simFired, refFired)
			if canceled < timers*9/10 {
				t.Fatalf("only %d of %d timers canceled", canceled, timers)
			}
			if compactions < 20 {
				t.Fatalf("only %d compactions", compactions)
			}
		})
	}
}

// mix is the splitmix64 finalizer: a cheap, well-spread hash.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func tailof(xs []int, i int) []int {
	if i >= len(xs) {
		return nil
	}
	if len(xs) > i+5 {
		return xs[i : i+5]
	}
	return xs[i:]
}
