package sim_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// TestFIFOMatchesSlice drives the ring with random Push/Pop/Front/Clear
// sequences and checks it against a plain slice after every operation.
// Push-heavy and pop-heavy phases alternate so the head wraps around the
// ring and the ring grows while wrapped.
func TestFIFOMatchesSlice(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q sim.FIFO[int]
		var ref []int
		next := 0
		for step := 0; step < 5000; step++ {
			pushBias := 3 + (step/200)%2*4 // 30% or 70% pushes, by phase
			switch op := rng.Intn(10); {
			case op < pushBias:
				q.Push(next)
				ref = append(ref, next)
				next++
			case rng.Intn(100) == 0:
				q.Clear()
				ref = ref[:0]
			case len(ref) > 0 && op == 9:
				*q.Front() += 1000
				ref[0] += 1000
			case len(ref) > 0:
				if got := q.Pop(); got != ref[0] {
					t.Fatalf("seed %d step %d: Pop = %d, want %d", seed, step, got, ref[0])
				}
				ref = ref[1:]
			}
			if q.Len() != len(ref) {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, q.Len(), len(ref))
			}
		}
		got := make([]int, 0, q.Len())
		for q.Len() > 0 {
			got = append(got, q.Pop())
		}
		if len(ref) == 0 {
			ref = []int{}
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("seed %d: drained %v, want %v", seed, got, ref)
		}
	}
}

// TestFIFOGrowWhileWrapped pins the one layout random tests may miss:
// the ring is full with its head mid-array when a Push forces growth,
// so the copy must unwrap the two halves in order.
func TestFIFOGrowWhileWrapped(t *testing.T) {
	var q sim.FIFO[string]
	for _, s := range []string{"a", "b", "c"} {
		q.Push(s)
	}
	q.Pop()
	q.Pop()
	for _, s := range []string{"d", "e", "f", "g", "h"} { // wraps, then grows
		q.Push(s)
	}
	var got []string
	for q.Len() > 0 {
		got = append(got, q.Pop())
	}
	if want := []string{"c", "d", "e", "f", "g", "h"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestFIFOEmptyPanics(t *testing.T) {
	for name, f := range map[string]func(q *sim.FIFO[int]){
		"Pop":   func(q *sim.FIFO[int]) { q.Pop() },
		"Front": func(q *sim.FIFO[int]) { q.Front() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on an empty FIFO did not panic", name)
				}
			}()
			var q sim.FIFO[int]
			q.Push(1)
			q.Pop()
			f(&q)
		}()
	}
}

// BenchmarkFIFO is a queue in steady state with bursts, like a server's
// request queue under fleet load: eight pushes, then eight pops, around
// a standing backlog. It must not allocate once the ring has grown.
func BenchmarkFIFO(b *testing.B) {
	var q sim.FIFO[[]byte]
	payload := make([]byte, 8)
	for range 64 {
		q.Push(payload)
	}
	b.ReportAllocs()
	for b.Loop() {
		for range 8 {
			q.Push(payload)
		}
		for range 8 {
			q.Pop()
		}
	}
}
