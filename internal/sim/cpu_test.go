package sim_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestProfilerTopDeterministic pins the profile report's order: Top
// sorts by (total desc, label asc), a total order, so the report is
// identical on every call and does not depend on the order labels were
// registered in (their ids index the profiler). Equal totals — common
// when the same cost constant is charged under different labels, and
// sensitive to event tie-breaking — must fall back to the label.
func TestProfilerTopDeterministic(t *testing.T) {
	names := []string{"big", "tie_a", "tie_b", "tie_c"}
	var reports [][]sim.ProfileEntry
	for _, order := range []string{"forward", "reverse"} {
		// Fresh names per order, registered in that order: the registry
		// is process-wide and keeps a name's first id.
		prefix := "topdet_" + order + "_"
		l := make(map[string]sim.Label)
		for i := range names {
			n := names[i]
			if order == "reverse" {
				n = names[len(names)-1-i]
			}
			l[n] = sim.NewLabel(prefix + n)
		}
		s := sim.New(1)
		cpus := s.NewCPUPool("cpus", 2)
		// Three labels with identical totals via identical charge
		// sequences, interleaved across two procs, plus one
		// clearly-largest label.
		s.Go("a", func(p *sim.Proc) {
			for i := 0; i < 4; i++ {
				cpus.Use(p, l["tie_c"], 5*time.Microsecond)
				cpus.Use(p, l["tie_a"], 5*time.Microsecond)
				cpus.Use(p, l["big"], 50*time.Microsecond)
			}
		})
		s.Go("b", func(p *sim.Proc) {
			for i := 0; i < 4; i++ {
				cpus.Use(p, l["tie_b"], 5*time.Microsecond)
			}
		})
		s.Run(0)

		first := s.Profiler().Top(0)
		// Re-reading must reproduce the report bit for bit.
		for i := 0; i < 32; i++ {
			if got := s.Profiler().Top(0); !reflect.DeepEqual(got, first) {
				t.Fatalf("%s: Top changed between calls:\n%+v\nvs\n%+v", order, got, first)
			}
		}
		for i := range first {
			first[i].Label = strings.TrimPrefix(first[i].Label, prefix)
		}
		reports = append(reports, first)
	}

	first := reports[0]
	if got := labelsOf(first); !reflect.DeepEqual(got, names) {
		t.Fatalf("Top order %v, want %v (largest first, equal totals by label)", got, names)
	}
	ties := first[1:]
	if ties[0].Total != ties[1].Total || ties[1].Total != ties[2].Total {
		t.Fatalf("setup broken, totals differ: %+v", ties)
	}
	if !reflect.DeepEqual(reports[1], first) {
		t.Fatalf("Top depends on registration order:\n%+v\nvs\n%+v", reports[1], first)
	}
}

func labelsOf(es []sim.ProfileEntry) []string {
	var out []string
	for _, e := range es {
		out = append(out, e.Label)
	}
	return out
}

// TestNewLabelConcurrent registers labels from several goroutines while
// each runs its own Sim and reads its profile, as parallel sweep
// workers do: every goroutine must get the same Label for a name, and
// the race detector must stay quiet.
func TestNewLabelConcurrent(t *testing.T) {
	const workers, names = 4, 32
	got := make([][]sim.Label, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := sim.New(int64(w))
			cpus := s.NewCPUPool("cpus", 1)
			s.Go("user", func(p *sim.Proc) {
				for i := range names {
					// Each worker starts at a different name, so first
					// registrations interleave.
					n := (i + w*names/workers) % names
					l := sim.NewLabel(fmt.Sprintf("concurrent_%d", n))
					got[w] = append(got[w], l)
					cpus.Use(p, l, time.Duration(n+1)*time.Microsecond)
					_ = s.Profiler().Top(3)
				}
			})
			s.Run(0)
			if c := s.Profiler().Calls("concurrent_0"); c != 1 {
				t.Errorf("worker %d: concurrent_0 charged %d times, want 1", w, c)
			}
		}()
	}
	wg.Wait()
	byName := make(map[int]sim.Label)
	for w := range workers {
		for i, l := range got[w] {
			n := (i + w*names/workers) % names
			if prev, ok := byName[n]; ok && prev != l {
				t.Fatalf("concurrent_%d resolved to two labels", n)
			}
			byName[n] = l
		}
	}
	distinct := make(map[sim.Label]bool)
	for _, l := range byName {
		distinct[l] = true
	}
	if len(byName) != names || len(distinct) != names {
		t.Fatalf("%d names resolved to %d labels, want %d of each", len(byName), len(distinct), names)
	}
}
