// Package sim implements a deterministic discrete-event simulation kernel.
//
// The reproduction models the Linux 2.4.4 kernel's NFS client write path as
// a set of cooperating processes (application writer threads, nfs_flushd,
// network softirq handlers, server daemons) that execute on a virtual clock.
// Exactly one process runs at a time; each is a coroutine that only Run
// resumes, so a given seed and workload always produce bit-identical
// schedules. This is what lets us reproduce the paper's queueing and
// lock-contention phenomena without the run-to-run variance the authors
// complain about in §2.2.
//
// The kernel is built for thousand-client fleets (DESIGN.md §12): events
// live in a pooled 4-ary heap keyed on (time, sequence) so same-timestamp
// events fire in scheduling order, and canceled events are compacted out
// once they make up half the heap. Process wakeups are not closures: one
// due at the current instant goes on a FIFO lane beside the heap, a later
// one is a heap entry, and a sleeper whose own wakeup would be the next
// event just advances the clock. A parking process runs the event loop
// itself, so one whose wakeup comes next resumes without a coroutine
// switch at all.
package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"time"
)

// Time is virtual time since the start of the simulation.
type Time = time.Duration

// event is a scheduled callback or process wakeup. Events fire in
// (at, seq) order, so same-timestamp events run in the order they were
// scheduled (FIFO). Fired and canceled events return to the simulator's
// pool; gen distinguishes a recycled event from the scheduling an Event
// handle refers to.
type event struct {
	at   Time
	seq  uint64
	gen  uint32
	dead bool  // canceled
	s    *Sim  // owner, set once when the pool block is allocated
	proc *Proc // wakeup target; nil for callback events
	fn   func()
}

// Event is a handle to a scheduled callback; it can be canceled before it
// fires (used for retransmit timers). The zero value is a valid no-op
// handle. The owning Sim lives in the pooled event rather than here: it
// is written once per pool block instead of once per scheduling, and
// handles stay two words.
type Event struct {
	ev  *event
	gen uint32
}

// Cancel prevents the event from firing. Canceling an already-fired or
// already-canceled event is a no-op (the underlying entry has been
// recycled under a new generation by then).
func (e Event) Cancel() {
	ev := e.ev
	if ev == nil || ev.gen != e.gen || ev.dead {
		return
	}
	ev.dead = true
	ev.s.dead++
	ev.s.compactIfSparse()
}

// eventQueue is a 4-ary min-heap on (at, seq). Four-way fanout halves the
// tree depth of a binary heap and keeps sibling comparisons inside one
// cache line of pointers, and the hand-rolled sift paths avoid
// container/heap's interface boxing on every operation.
type eventQueue []*event

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *eventQueue) push(ev *event) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !eventLess(ev, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	*q = h
}

func (q *eventQueue) pop() *event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	h = h[:n]
	*q = h
	if n > 0 {
		h.siftDown(0, last)
	}
	return top
}

// siftDown places ev in the hole at i and walks it down past every
// smaller child.
func (h eventQueue) siftDown(i int, ev *event) {
	n := len(h)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		least := h[c]
		end := min(c+4, n)
		for j := c + 1; j < end; j++ {
			if eventLess(h[j], least) {
				least = h[j]
				c = j
			}
		}
		if !eventLess(least, ev) {
			break
		}
		h[i] = least
		i = c
	}
	h[i] = ev
}

// eventBlock is how many events one pool refill allocates: a single
// backing array keeps pooled events cache-adjacent.
const eventBlock = 128

// compactFloor is how many canceled events the heap may hold before
// compaction is considered at all, so small queues never pay for it.
const compactFloor = 64

// Sim is a discrete-event simulation instance. It is not safe for use from
// multiple OS threads; all interaction happens from the Run caller or from
// the process Run has resumed.
type Sim struct {
	now    Time
	seq    uint64
	seed   int64
	events eventQueue
	ready  FIFO[readyProc] // wakeups due at now, in seq order
	dead   int             // canceled events still in the heap
	pool   []*event        // recycled event entries
	limit  Time            // current Run's time limit (0 = none)
	rng    *rand.Rand
	prof   *Profiler
	fail   any // panic value captured from a process

	// droppedMax is the latest deadline among canceled events that
	// compaction removed and a lazily-deleting heap would still hold.
	// One past the Run limit stops the clock at the limit, as the
	// canceled timer itself did before compaction existed.
	droppedMax Time

	procSeq int
	live    int // live (spawned, unterminated) processes
}

// New returns a simulator with the given deterministic seed.
func New(seed int64) *Sim {
	return &Sim{
		seed: seed,
		rng:  rand.New(rand.NewSource(seed)),
		prof: &Profiler{},
	}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Seed returns the seed the simulator was created with. Subsystems that
// need their own random stream (e.g. the network's loss model) derive it
// from this value instead of drawing from Rand, so enabling them never
// perturbs the draw sequence other components see.
func (s *Sim) Seed() int64 { return s.seed }

// Rand returns the simulation's deterministic random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Profiler returns the simulation's CPU profiler.
func (s *Sim) Profiler() *Profiler { return s.prof }

// alloc takes an event from the pool, refilling it in blocks.
func (s *Sim) alloc() *event {
	if len(s.pool) == 0 {
		block := make([]event, eventBlock)
		for i := range block {
			block[i].s = s
			s.pool = append(s.pool, &block[i])
		}
	}
	ev := s.pool[len(s.pool)-1]
	s.pool = s.pool[:len(s.pool)-1]
	return ev
}

// recycle returns a popped event to the pool under a new generation, so
// stale Event handles can no longer cancel it.
func (s *Sim) recycle(ev *event) {
	ev.gen++
	ev.dead = false
	ev.proc = nil
	ev.fn = nil
	s.pool = append(s.pool, ev)
}

// compactIfSparse compacts the heap once canceled events make up more
// than half of it. Each compaction removes more entries than it keeps,
// and every removed entry paid for itself with one Cancel, so the cost
// is amortized O(1) per Cancel and the heap stays within 2×live + the
// floor.
func (s *Sim) compactIfSparse() {
	if s.dead > compactFloor && 2*s.dead > len(s.events) {
		s.compact()
	}
}

// compact drops every canceled event and re-heapifies the rest. Live
// events keep their (at, seq) keys, and that order is total, so firing
// order is the same as if the dead entries had been popped one by one.
func (s *Sim) compact() {
	h := s.events
	kept := h[:0]
	for _, ev := range h {
		if !ev.dead {
			kept = append(kept, ev)
			continue
		}
		s.droppedMax = max(s.droppedMax, ev.at)
		s.recycle(ev)
	}
	clear(h[len(kept):])
	for i := (len(kept) - 2) >> 2; i >= 0; i-- {
		kept.siftDown(i, kept[i])
	}
	s.events = kept
	s.dead = 0
}

// At schedules fn to run at absolute virtual time t (clamped to now).
func (s *Sim) At(t Time, fn func()) Event {
	if t < s.now {
		t = s.now
	}
	ev := s.alloc()
	ev.at, ev.seq, ev.fn = t, s.seq, fn
	s.seq++
	s.events.push(ev)
	return Event{ev: ev, gen: ev.gen}
}

// After schedules fn to run d from now.
func (s *Sim) After(d Time, fn func()) Event { return s.At(s.now+d, fn) }

// readyProc is a wakeup on the same-instant lane: due at now, ordered
// against the heap by its seq.
type readyProc struct {
	p   *Proc
	seq uint64
}

// wake schedules a process wakeup at absolute time t — the allocation-free
// fast path behind Sleep, Yield, and every unpark. A wakeup due now (a
// handoff from Release, Signal, Unlock or Go) skips the heap for the
// same-instant lane; it still takes a seq, so it fires exactly where the
// heap would have fired it.
func (s *Sim) wake(t Time, p *Proc) {
	if t <= s.now {
		s.ready.Push(readyProc{p, s.seq})
		s.seq++
		return
	}
	ev := s.alloc()
	ev.at, ev.seq, ev.proc = t, s.seq, p
	s.seq++
	s.events.push(ev)
}

// schedule runs the event loop on the calling goroutine: it pops and
// executes events until control must transfer to a process (returning
// that process), or until the queue drains or the limit is reached
// (returning nil, meaning control goes back to the Run caller).
//
// The lane is served first unless the heap top is due now with a lower
// seq: a callback or wakeup scheduled for this instant before the lane's
// front was. The clock advances only once the lane is empty.
func (s *Sim) schedule() *Proc {
	for {
		if s.ready.Len() > 0 {
			if len(s.events) == 0 || s.events[0].at > s.now || s.events[0].seq > s.ready.Front().seq {
				return s.ready.Pop().p
			}
		} else if len(s.events) == 0 {
			break
		}
		next := s.events[0]
		if s.limit > 0 && next.at > s.limit {
			s.now = s.limit
			return nil
		}
		s.events.pop()
		if next.dead {
			s.dead--
			s.recycle(next)
			continue
		}
		s.now = next.at
		p, fn := next.proc, next.fn
		s.recycle(next)
		s.compactIfSparse()
		if p != nil {
			return p
		}
		fn()
	}
	if s.limit > 0 && s.droppedMax > s.limit {
		s.now = s.limit
	} else {
		s.droppedMax = 0
	}
	return nil
}

// Run executes events until the event queue is empty or the virtual clock
// would pass limit (limit <= 0 means no limit). It returns the final
// virtual time. Run is the only place processes are resumed: each
// resumed process runs until it parks on a wakeup that is not next,
// and hands back the process to resume instead (nil to stop). Run panics
// if any process panicked, preserving the value.
func (s *Sim) Run(limit Time) Time {
	s.limit = limit
	if limit > 0 && s.now > limit {
		s.spillReady()
	}
	for p := s.schedule(); p != nil; {
		next, alive := p.resume()
		if !alive {
			next = s.afterExit()
		}
		if s.fail != nil {
			panic(fmt.Sprintf("sim: process panicked at t=%v: %v", s.now, s.fail))
		}
		p = next
	}
	return s.now
}

// spillReady moves the same-instant lane into the heap. Run calls it when
// its limit is already past, the one way the clock steps back: the lane's
// wakeups keep their own instant and seq, and the schedule stops at the
// limit before firing them, as it always stopped for a heap entry due
// after the limit.
func (s *Sim) spillReady() {
	for s.ready.Len() > 0 {
		r := s.ready.Pop()
		ev := s.alloc()
		ev.at, ev.seq, ev.proc = s.now, r.seq, r.p
		s.events.push(ev)
	}
}

// afterExit runs the event loop once a process has returned. A callback
// that panics here is reported as a process panic, like one that panics
// inside a parked process's inline schedule: whichever process ran last
// owns the event loop.
func (s *Sim) afterExit() (next *Proc) {
	if s.fail != nil {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			s.fail = r
			next = nil
		}
	}()
	return s.schedule()
}

// Idle reports whether no events remain. Canceled events count until
// the clock passes them, as they did before compaction (see droppedMax).
func (s *Sim) Idle() bool { return len(s.events) == 0 && s.ready.Len() == 0 && s.droppedMax == 0 }

// Live returns the number of spawned processes that have not terminated.
func (s *Sim) Live() int { return s.live }

// Proc is a simulated thread of control: a coroutine that Run resumes and
// that suspends itself in park. Every blocking primitive takes the Proc
// so the scheduler knows which coroutine to suspend.
type Proc struct {
	s      *Sim
	id     int
	name   string
	resume func() (*Proc, bool) // runs the coroutine to its next park; false once it has returned
	yield  func(*Proc) bool     // suspends the coroutine, handing Run the process to resume next
}

// Name returns the process's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Sim returns the simulator the process belongs to.
func (p *Proc) Sim() *Sim { return p.s }

// Go spawns a process that begins running at the current virtual time.
// A panic inside the process ends its coroutine and surfaces from Run.
func (s *Sim) Go(name string, fn func(p *Proc)) *Proc {
	s.procSeq++
	s.live++
	p := &Proc{s: s, id: s.procSeq, name: name}
	p.resume, _ = iter.Pull(func(yield func(*Proc) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				s.fail = r
			}
			s.live--
		}()
		fn(p)
	})
	s.wake(s.now, p)
	return p
}

// park suspends p until something schedules a wakeup for it. The parking
// process runs the event loop itself: when its own wakeup is the next
// transfer of control — the common case for a process sleeping through
// its service time — it simply returns without a coroutine switch.
// Otherwise it yields the next process to Run, which resumes that one.
func (p *Proc) park() {
	if next := p.s.schedule(); next != p {
		p.yield(next)
	}
}

// Sleep advances the process's virtual time by d without consuming a CPU
// (used for pure waiting: wire propagation, timers).
//
// When the sleeper's own wakeup would be the next event — nothing on the
// lane, the heap top (canceled or not) due strictly later, the Run limit
// not passed — Sleep just advances the clock: the heap would have pushed
// and popped that wakeup with nothing firing in between.
func (p *Proc) Sleep(d Time) {
	if d <= 0 {
		return
	}
	s := p.s
	t := s.now + d
	if s.ready.Len() == 0 && (len(s.events) == 0 || s.events[0].at > t) && (s.limit <= 0 || t <= s.limit) {
		s.now = t
		return
	}
	s.wake(t, p)
	p.park()
}

// Yield reschedules the process at the current time, letting every other
// runnable process scheduled at this instant run first.
func (p *Proc) Yield() {
	p.s.wake(p.s.now, p)
	p.park()
}

// Mutex is a FIFO-fair sleeping mutex. The simulation's "big kernel lock"
// is one of these; FIFO ordering matches the 2.4 kernel's lock semantics
// closely enough for the contention phenomena under study and keeps the
// simulation deterministic.
type Mutex struct {
	s       *Sim
	name    string
	holder  *Proc
	because string // profiling label the holder supplied
	waiters FIFO[*Proc]

	// Contention statistics, used to reproduce the paper's kernel-profile
	// observations (§3.5: the lock section is the 4th largest CPU consumer;
	// ~90% of write-path lock wait is attributable to sock_sendmsg).
	Acquisitions int
	Contentions  int
	TotalWait    Time
	TotalHold    Time
	waitBy       map[string]Time // wait time attributed to the holder's label
	lockedAt     Time
}

// NewMutex returns a named FIFO mutex.
func (s *Sim) NewMutex(name string) *Mutex {
	return &Mutex{s: s, name: name, waitBy: make(map[string]Time)}
}

// Name returns the mutex's diagnostic name.
func (m *Mutex) Name() string { return m.name }

// Lock acquires the mutex for p, blocking in virtual time if it is held.
// The label names the critical section for contention attribution.
func (m *Mutex) Lock(p *Proc, label string) {
	m.Acquisitions++
	if m.holder == nil {
		m.holder = p
		m.because = label
		m.lockedAt = m.s.now
		return
	}
	m.Contentions++
	blame := m.because
	t0 := m.s.now
	m.waiters.Push(p)
	p.park()
	// Unlock made us the holder before dispatching us.
	w := m.s.now - t0
	m.TotalWait += w
	m.waitBy[blame] += w
	m.because = label
}

// Unlock releases the mutex; ownership passes FIFO to the oldest waiter.
func (m *Mutex) Unlock(p *Proc) {
	if m.holder != p {
		panic(fmt.Sprintf("sim: %s unlocked by %s, held by %v", m.name, p.name, m.holder))
	}
	m.TotalHold += m.s.now - m.lockedAt
	if m.waiters.Len() == 0 {
		m.holder = nil
		m.because = ""
		return
	}
	next := m.waiters.Pop()
	m.holder = next
	m.lockedAt = m.s.now
	m.s.wake(m.s.now, next)
}

// Held reports whether the mutex is currently held.
func (m *Mutex) Held() bool { return m.holder != nil }

// HeldBy reports whether p currently holds the mutex.
func (m *Mutex) HeldBy(p *Proc) bool { return m.holder == p }

// Relabel renames the critical section p is executing while holding the
// mutex, so contention is attributed to the right code path (e.g. the
// send path relabels to "sock_sendmsg" for the duration of the network
// call).
func (m *Mutex) Relabel(p *Proc, label string) {
	if m.holder != p {
		panic(fmt.Sprintf("sim: %s relabeled by %s, held by %v", m.name, p.name, m.holder))
	}
	m.because = label
}

// WaitBreakdown returns, per critical-section label, the total time other
// processes spent waiting while that label held the mutex.
func (m *Mutex) WaitBreakdown() map[string]Time {
	out := make(map[string]Time, len(m.waitBy))
	for k, v := range m.waitBy {
		out[k] = v
	}
	return out
}

// Semaphore is a counting semaphore with FIFO wakeup; a capacity-k
// semaphore models a k-CPU machine.
type Semaphore struct {
	s       *Sim
	name    string
	free    int
	cap     int
	waiters FIFO[*Proc]
}

// NewSemaphore returns a semaphore with the given capacity.
func (s *Sim) NewSemaphore(name string, capacity int) *Semaphore {
	if capacity < 1 {
		panic("sim: semaphore capacity must be >= 1")
	}
	return &Semaphore{s: s, name: name, free: capacity, cap: capacity}
}

// Capacity returns the semaphore's capacity.
func (sem *Semaphore) Capacity() int { return sem.cap }

// Acquire takes one unit, blocking in virtual time if none are free.
func (sem *Semaphore) Acquire(p *Proc) {
	if sem.free > 0 {
		sem.free--
		return
	}
	sem.waiters.Push(p)
	p.park()
}

// Release returns one unit, waking the oldest waiter if any.
func (sem *Semaphore) Release() {
	if sem.waiters.Len() > 0 {
		sem.s.wake(sem.s.now, sem.waiters.Pop())
		return
	}
	sem.free++
	if sem.free > sem.cap {
		panic("sim: semaphore over-released")
	}
}

// WaitQueue parks processes until they are signaled, like the kernel's
// wait_event/wake_up pairs. Callers must re-check their predicate after
// Wait returns (standard condition-variable discipline).
type WaitQueue struct {
	s       *Sim
	name    string
	waiters FIFO[*Proc]
}

// NewWaitQueue returns a named wait queue.
func (s *Sim) NewWaitQueue(name string) *WaitQueue {
	return &WaitQueue{s: s, name: name}
}

// Wait parks p until Signal or Broadcast wakes it.
func (q *WaitQueue) Wait(p *Proc) {
	q.waiters.Push(p)
	p.park()
}

// Signal wakes the oldest waiter, if any.
func (q *WaitQueue) Signal() {
	if q.waiters.Len() > 0 {
		q.s.wake(q.s.now, q.waiters.Pop())
	}
}

// Broadcast wakes every waiter.
func (q *WaitQueue) Broadcast() {
	for q.waiters.Len() > 0 {
		q.s.wake(q.s.now, q.waiters.Pop())
	}
}

// Waiting returns the number of parked processes.
func (q *WaitQueue) Waiting() int { return q.waiters.Len() }
