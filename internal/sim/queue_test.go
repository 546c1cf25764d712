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
	proc bool // a process wakeup; id is the process
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

// The process cross-check below runs scripted processes through the
// kernel and through an interpreter over the container/heap reference,
// in which every wakeup — a sleep's, a handoff's, a spawn's — is a heap
// entry. The kernel's shortcuts (a sleeper that is next advancing the
// clock inline, same-instant wakeups on a lane beside the heap) must
// leave the log of who ran what at which time unchanged.

// procAct is one step of a scripted process.
type procAct struct {
	kind int
	d    int64 // µs: a sleep's length or a timer's delay
	arg  int   // the timer a cancel targets
}

const (
	actSleep = iota
	actYield
	actAcquire
	actRelease
	actLock
	actUnlock
	actWait
	actSignal
	actBroadcast
	actGo
	actTimer
	actCancel
	actExit
)

var actNames = [...]string{"sleep", "yield", "acquire", "release", "lock", "unlock", "wait", "signal", "broadcast", "go", "timer", "cancel", "exit"}

// procState is what a process's next step depends on besides the seed.
type procState struct {
	pid, step  int
	mutex, sem bool // held
}

const (
	procSteps = 20 // steps before a process releases what it holds and exits
	procCap   = 40 // spawns stop at this many processes
)

// nextAct is a process's next step: a pure function of the seed, the
// process's own state and how many processes and timers exist, so the
// kernel and the reference make the same choices as long as they run
// the same steps in the same order. Delays are small whole microseconds,
// so wakeups often tie one another and pending timers.
func nextAct(seed int64, st *procState, procs, timers int) procAct {
	st.step++
	if st.step > procSteps {
		switch {
		case st.mutex:
			st.mutex = false
			return procAct{kind: actUnlock}
		case st.sem:
			st.sem = false
			return procAct{kind: actRelease}
		}
		return procAct{kind: actExit}
	}
	h := mix(uint64(seed)<<40 ^ uint64(st.pid)<<20 ^ uint64(st.step))
	d := int64(h >> 8 % 6)
	switch r := h % 100; {
	case r < 30:
		return procAct{kind: actSleep, d: d}
	case r < 35:
		return procAct{kind: actYield}
	case r < 45 && !st.mutex: // lock order: the semaphore, then the mutex
		st.sem = !st.sem
		if st.sem {
			return procAct{kind: actAcquire}
		}
		return procAct{kind: actRelease}
	case r < 55 || st.mutex && r < 75:
		st.mutex = !st.mutex
		if st.mutex {
			return procAct{kind: actLock}
		}
		return procAct{kind: actUnlock}
	case r < 63 && !st.mutex && !st.sem:
		return procAct{kind: actWait}
	case r < 71:
		return procAct{kind: actSignal}
	case r < 74:
		return procAct{kind: actBroadcast}
	case r < 82 && procs < procCap:
		return procAct{kind: actGo}
	case r < 92 || timers == 0:
		return procAct{kind: actTimer, d: d}
	}
	return procAct{kind: actCancel, arg: int(h >> 16 % uint64(timers))}
}

func logAct(log *[]string, now int64, st *procState, a procAct) {
	*log = append(*log, fmt.Sprintf("t=%d p%d.%d %s %d %d", now, st.pid, st.step, actNames[a.kind], a.d, a.arg))
}

// procRun is one cross-check case: the processes spawned before the
// first Run, then one Run per limit (0 = none); before each Run after
// the first, one more process is spawned from outside.
type procRun struct {
	seed   int64
	procs  int
	limits []int64 // µs
}

// runKernelProcs runs the case on the kernel and returns its log.
func runKernelProcs(c procRun) []string {
	s := sim.New(c.seed)
	sem := s.NewSemaphore("sem", 2)
	m := s.NewMutex("m")
	wq := s.NewWaitQueue("wq")
	var log []string
	var timers []sim.Event
	now := func() int64 { return int64(s.Now() / time.Microsecond) }
	procs := 0
	var spawn func()
	spawn = func() {
		st := &procState{pid: procs}
		procs++
		s.Go("p", func(p *sim.Proc) {
			for {
				a := nextAct(c.seed, st, procs, len(timers))
				logAct(&log, now(), st, a)
				switch a.kind {
				case actSleep:
					p.Sleep(sim.Time(a.d) * time.Microsecond)
				case actYield:
					p.Yield()
				case actAcquire:
					sem.Acquire(p)
				case actRelease:
					sem.Release()
				case actLock:
					m.Lock(p, "x")
				case actUnlock:
					m.Unlock(p)
				case actWait:
					wq.Wait(p)
				case actSignal:
					wq.Signal()
				case actBroadcast:
					wq.Broadcast()
				case actGo:
					spawn()
				case actTimer:
					id := len(timers)
					timers = append(timers, s.After(sim.Time(a.d)*time.Microsecond, func() {
						log = append(log, fmt.Sprintf("t=%d timer%d", now(), id))
						wq.Signal()
					}))
				case actCancel:
					timers[a.arg].Cancel()
				case actExit:
					return
				}
			}
		})
	}
	for i := 0; i < c.procs; i++ {
		spawn()
	}
	for i, limit := range c.limits {
		if i > 0 {
			spawn()
		}
		end := s.Run(sim.Time(limit) * time.Microsecond)
		log = append(log, fmt.Sprintf("run(%d) = %d idle=%v", limit, int64(end/time.Microsecond), s.Idle()))
	}
	return log
}

// procRef interprets the same scripts over refHeap: the kernel's
// semantics with every wakeup a heap entry and canceled timers deleted
// lazily.
type procRef struct {
	c         procRun
	h         refHeap
	seq       int
	now       int64
	states    []*procState
	timers    []*refEvent
	semFree   int
	semWait   []int
	holder    int // -1 when the mutex is free
	mutexWait []int
	wqWait    []int
	log       []string
}

func (r *procRef) push(at int64, id int, proc bool) *refEvent {
	e := &refEvent{at: at, seq: r.seq, id: id, proc: proc}
	r.seq++
	heap.Push(&r.h, e)
	return e
}

func (r *procRef) spawn() {
	r.states = append(r.states, &procState{pid: len(r.states)})
	r.push(r.now, len(r.states)-1, true)
}

func popFront(q *[]int) int {
	v := (*q)[0]
	*q = (*q)[1:]
	return v
}

// step runs process pid until it blocks or exits.
func (r *procRef) step(pid int) {
	st := r.states[pid]
	for {
		a := nextAct(r.c.seed, st, len(r.states), len(r.timers))
		logAct(&r.log, r.now, st, a)
		switch a.kind {
		case actSleep:
			if a.d > 0 {
				r.push(r.now+a.d, pid, true)
				return
			}
		case actYield:
			r.push(r.now, pid, true)
			return
		case actAcquire:
			if r.semFree == 0 {
				r.semWait = append(r.semWait, pid)
				return
			}
			r.semFree--
		case actRelease:
			if len(r.semWait) > 0 {
				r.push(r.now, popFront(&r.semWait), true)
			} else {
				r.semFree++
			}
		case actLock:
			if r.holder >= 0 {
				r.mutexWait = append(r.mutexWait, pid)
				return
			}
			r.holder = pid
		case actUnlock:
			r.holder = -1
			if len(r.mutexWait) > 0 {
				r.holder = popFront(&r.mutexWait)
				r.push(r.now, r.holder, true)
			}
		case actWait:
			r.wqWait = append(r.wqWait, pid)
			return
		case actSignal:
			if len(r.wqWait) > 0 {
				r.push(r.now, popFront(&r.wqWait), true)
			}
		case actBroadcast:
			for len(r.wqWait) > 0 {
				r.push(r.now, popFront(&r.wqWait), true)
			}
		case actGo:
			r.spawn()
		case actTimer:
			r.timers = append(r.timers, r.push(r.now+a.d, len(r.timers), false))
		case actCancel:
			r.timers[a.arg].dead = true
		case actExit:
			return
		}
	}
}

func (r *procRef) run(limit int64) {
	for r.h.Len() > 0 {
		if limit > 0 && r.h[0].at > limit {
			r.now = limit
			break
		}
		e := heap.Pop(&r.h).(*refEvent)
		if e.dead {
			continue
		}
		r.now = e.at
		if e.proc {
			r.step(e.id)
			continue
		}
		r.log = append(r.log, fmt.Sprintf("t=%d timer%d", r.now, e.id))
		if len(r.wqWait) > 0 {
			r.push(r.now, popFront(&r.wqWait), true)
		}
	}
	r.log = append(r.log, fmt.Sprintf("run(%d) = %d idle=%v", limit, r.now, r.h.Len() == 0))
}

// runReferenceProcs runs the case on the reference and returns its log.
func runReferenceProcs(c procRun) []string {
	r := &procRef{c: c, semFree: 2, holder: -1}
	for i := 0; i < c.procs; i++ {
		r.spawn()
	}
	for i, limit := range c.limits {
		if i > 0 {
			r.spawn()
		}
		r.run(limit)
	}
	return r.log
}

// TestProcessScheduleMatchesReferenceHeap replays scripted processes —
// sleeps that tie pending wakeups and timers, same-instant handoffs
// through a Semaphore, a Mutex and a WaitQueue, Yields, spawns from
// inside and outside Run, timers armed for now and later and canceled
// at random — through the kernel and the reference, stopping Run at
// limits and resuming it, once at a limit already in the past. The logs
// must match line for line.
func TestProcessScheduleMatchesReferenceHeap(t *testing.T) {
	for _, c := range []procRun{
		{seed: 1, procs: 8}, {seed: 7, procs: 8}, {seed: 42, procs: 8},
		{seed: 1234, procs: 8}, {seed: 99, procs: 8}, {seed: 2024, procs: 8},
		// A lone process often sleeps across a limit with nothing
		// else pending: the inline path must stop at the limit too.
		{seed: 1, procs: 1}, {seed: 7, procs: 1}, {seed: 42, procs: 1},
	} {
		c.limits = []int64{6, 6, 3, 17, 0}
		t.Run(fmt.Sprintf("seed=%d/procs=%d", c.seed, c.procs), func(t *testing.T) {
			got, want := runKernelProcs(c), runReferenceProcs(c)
			if len(want) < 200 {
				t.Fatalf("reference ran only %d steps", len(want))
			}
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("step %d: kernel %q, reference %q (previous: %q)", i, got[i], want[i], want[max(i-1, 0)])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("kernel logged %d steps, reference %d", len(got), len(want))
			}
		})
	}
}
