package sim_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
)

// BenchmarkKernelSchedule measures the raw event-queue path: schedule a
// timer, pop it, run its callback, schedule the next — no processes, no
// handoffs. This is the floor every simulated microsecond pays. Each
// iteration is one event of 12–20 ns on a 2-core Xeon, so at
// -benchtime 1x the benchmark times a single event; the CI A/B runs it
// at a fixed 20000000x (0.25–0.4 s) so that both sides time the same
// work and a run is long enough to compare.
func BenchmarkKernelSchedule(b *testing.B) {
	s := sim.New(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			s.After(time.Microsecond, tick)
		}
	}
	s.After(time.Microsecond, tick)
	b.ResetTimer()
	s.Run(0)
}

// BenchmarkKernelFleetHandoff measures the scheduler↔process handoff at
// fleet shape: 1000 processes sleeping staggered intervals, so every
// event is a cross-goroutine baton pass (the dominant kernel cost of a
// thousand-client simulation). Each iteration is one handoff of
// 400–500 ns on a 2-core Xeon, so the CI A/B runs it at a fixed
// 2000000x (~0.9 s) rather than 1x.
func BenchmarkKernelFleetHandoff(b *testing.B) {
	const procs = 1000
	s := sim.New(1)
	each := b.N/procs + 1
	for i := 0; i < procs; i++ {
		d := time.Duration(i%7+1) * time.Microsecond
		s.Go("proc", func(p *sim.Proc) {
			for j := 0; j < each; j++ {
				p.Sleep(d)
			}
		})
	}
	b.ResetTimer()
	s.Run(0)
}

// BenchmarkKernelCPUUse measures CPUPool.Use, the simulator's most
// common operation: every modeled code path charges its CPU time
// through it. Two processes on a 2-CPU pool charge 1 µs and 7 µs under
// eight rotating labels, so a CPU is always free. Three uses in four
// sleep through a wakeup that is next and advance the clock inline
// (79% of sleeps do on hostbench paper_write); the rest are heap round
// trips with a process switch. Each iteration is one Use, 60–110 ns on
// a 2-core Xeon, so the CI A/B runs it at a fixed 3000000x. It
// allocates nothing once the event pool and the profiler are warm.
func BenchmarkKernelCPUUse(b *testing.B) {
	labels := make([]sim.Label, 8)
	for i := range labels {
		labels[i] = sim.NewLabel(fmt.Sprintf("bench_use_%d", i))
	}
	s := sim.New(1)
	cpus := s.NewCPUPool("cpus", 2)
	n := 0
	for w := range 2 {
		d := time.Duration(6*w+1) * time.Microsecond
		s.Go("user", func(p *sim.Proc) {
			for ; n < b.N; n++ {
				cpus.Use(p, labels[n%len(labels)], d)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(0)
}
