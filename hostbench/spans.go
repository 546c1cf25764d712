package main

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"time"
)

// spans records host-time spans at the benchmark's layer boundaries
// (scenario → assemble → simulate → verify, and each driver call). They
// stay in memory until write; a nil *spans records nothing.
type spans struct {
	origin time.Time
	list   []span
}

type span struct {
	name       string
	id, parent int // parent 0 is a root span
	start, end time.Duration
}

func newSpans() *spans { return &spans{origin: time.Now()} }

// add records a finished span and returns its id for children to cite.
func (s *spans) add(name string, parent int, start, end time.Time) int {
	if s == nil {
		return 0
	}
	s.list = append(s.list, span{name, len(s.list) + 1, parent, start.Sub(s.origin), end.Sub(s.origin)})
	return len(s.list)
}

// selfTimes is each span name's total duration minus the part its child
// spans cover, in milliseconds.
func (s *spans) selfTimes() map[string]float64 {
	self := map[string]float64{}
	for _, sp := range s.list {
		d := float64(sp.end-sp.start) / 1e6
		self[sp.name] += d
		if sp.parent > 0 {
			self[s.list[sp.parent-1].name] -= d
		}
	}
	return self
}

// summary renders selfTimes as one line, names in order.
func (s *spans) summary() string {
	self := s.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	slices.Sort(names)
	out := ""
	for _, n := range names {
		out += fmt.Sprintf(" %s=%.1fms", n, self[n])
	}
	return out
}

// write emits the spans as Chrome trace-event JSON, which Perfetto and
// chrome://tracing open.
func (s *spans) write(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(s.list))
	for _, sp := range s.list {
		events = append(events, event{
			Name: sp.name, Ph: "X", PID: 1, TID: 1,
			TS:   float64(sp.start) / 1e3,
			Dur:  float64(sp.end-sp.start) / 1e3,
			Args: map[string]int{"id": sp.id, "parent": sp.parent},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}
