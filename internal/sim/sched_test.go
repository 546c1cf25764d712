package sim_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
)

// runPanic runs s to completion and returns what Run panicked with.
func runPanic(s *sim.Sim) (r any) {
	defer func() { r = recover() }()
	s.Run(0)
	return nil
}

// TestCallbackPanicText pins how a panicking callback surfaces from Run.
// Whichever process runs the event loop owns the callbacks it fires: a
// callback that panics inside a parked process's inline schedule, or in
// the loop Run drives after a process returns, is reported as a process
// panic with the virtual time. Only a callback Run fires before any
// process has run panics with its bare value. Chaos reports pin these
// texts.
func TestCallbackPanicText(t *testing.T) {
	cases := []struct {
		name  string
		setup func(s *sim.Sim)
		want  any
	}{
		{"inline in park", func(s *sim.Sim) {
			s.Go("sleeper", func(p *sim.Proc) { p.Sleep(time.Millisecond) })
			s.At(500*time.Microsecond, func() { panic("boom") })
		}, "sim: process panicked at t=500µs: boom"},
		{"after a process returns", func(s *sim.Sim) {
			s.Go("quick", func(p *sim.Proc) {})
			s.At(500*time.Microsecond, func() { panic("boom") })
		}, "sim: process panicked at t=500µs: boom"},
		{"process body", func(s *sim.Sim) {
			s.Go("boom", func(p *sim.Proc) {
				p.Sleep(2 * time.Millisecond)
				panic("kaboom")
			})
		}, "sim: process panicked at t=2ms: kaboom"},
		{"before any process", func(s *sim.Sim) {
			s.At(500*time.Microsecond, func() { panic("boom") })
		}, "boom"},
	}
	for _, c := range cases {
		s := sim.New(1)
		c.setup(s)
		if got := runPanic(s); got != c.want {
			t.Errorf("%s: Run panicked with %v, want %v", c.name, got, c.want)
		}
	}
}

// TestRunLimitResumesParkedProcs stops Run with processes parked in
// Sleep and on a wait queue, then continues in a second Run: every
// process must pick up where it left off, as chaos checkpoints rely on.
func TestRunLimitResumesParkedProcs(t *testing.T) {
	s := sim.New(1)
	wq := s.NewWaitQueue("wq")
	var log []string
	s.Go("ticker", func(p *sim.Proc) {
		for i := 1; i <= 6; i++ {
			p.Sleep(time.Millisecond)
			log = append(log, fmt.Sprintf("tick%d@%v", i, s.Now()))
		}
		wq.Signal()
	})
	s.Go("waiter", func(p *sim.Proc) {
		wq.Wait(p)
		log = append(log, fmt.Sprintf("woken@%v", s.Now()))
	})
	if end := s.Run(3500 * time.Microsecond); end != 3500*time.Microsecond {
		t.Fatalf("first Run ended at %v, want 3.5ms", end)
	}
	if s.Live() != 2 || wq.Waiting() != 1 {
		t.Fatalf("after first Run: live %d waiting %d, want 2 and 1", s.Live(), wq.Waiting())
	}
	if end := s.Run(0); end != 6*time.Millisecond {
		t.Fatalf("second Run ended at %v, want 6ms", end)
	}
	want := []string{"tick1@1ms", "tick2@2ms", "tick3@3ms", "tick4@4ms", "tick5@5ms", "tick6@6ms", "woken@6ms"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	if s.Live() != 0 {
		t.Fatalf("live = %d after both Runs", s.Live())
	}
}

// TestRunLimitCountsCompactedTimers: canceled timers past the limit
// stop the clock at the limit and keep the sim non-idle, whether or
// not compaction has already removed them from the heap (at
// CompactFloor+1 cancels it has, and the heap is empty).
func TestRunLimitCountsCompactedTimers(t *testing.T) {
	for _, n := range []int{1, sim.CompactFloor + 1} {
		s := sim.New(1)
		for i := 0; i < n; i++ {
			s.At(10*time.Millisecond, func() { t.Fatal("canceled timer fired") }).Cancel()
		}
		if end := s.Run(5 * time.Millisecond); end != 5*time.Millisecond {
			t.Fatalf("%d canceled: Run(5ms) ended at %v", n, end)
		}
		if s.Idle() {
			t.Fatalf("%d canceled: idle with a canceled timer still pending past the limit", n)
		}
		if end := s.Run(0); end != 5*time.Millisecond || !s.Idle() {
			t.Fatalf("%d canceled: Run(0) ended at %v idle %v, want 5ms and idle", n, end, s.Idle())
		}
	}
}
