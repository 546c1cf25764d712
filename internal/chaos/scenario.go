// Package chaos is the failure-scenario engine: a declarative DSL (YAML
// or JSON files) describing a client fleet plus timed fault-injection
// events — server crash/restart, link flaps, loss and jitter bursts,
// degrading disks — and assertions over the outcome. Scenarios execute
// in virtual time on the deterministic simulator, so every chaos run
// replays bit-identically at any worker count.
package chaos

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	nfssim "repro"
	"repro/internal/harness"
	"repro/internal/rpcsim"
	"repro/internal/server"
	"repro/internal/sim"
)

// Fleet describes the test bed a scenario runs its events against.
// The embedded harness.Scenario holds the axis keys — server, config,
// clients, file_mb, wsize, workload, consistency, transport, loss —
// resolved through harness's axis table, so they parse and validate
// exactly as the matching nfssweep flags do. Defaults are the sweep's,
// except config (enhanced) and file_mb (8). The seed (default 1) and
// time_limit (default 30m) keys fill its Seed and TimeLimit. Crash
// events require transport udp: stream connection state across a server
// reboot is not modeled.
type Fleet struct {
	harness.Scenario
	// MaxRetries caps per-call RPC retransmits; past it the transport
	// surfaces a DeadServerError instead of retrying forever. 0 keeps the
	// classic hard-mount behavior (retry until the run's time limit).
	MaxRetries int
}

// Event is one timed fault injection or end-of-run assertion.
type Event struct {
	// At is the virtual time the event fires (ignored for assert_*
	// actions, which are evaluated when the run ends).
	At sim.Time `json:"-"`
	// Action names the event; see actionSpec for the catalogue.
	Action string `json:"action"`
	// Host targets link_down/link_up: "server" or "clientN".
	Host string `json:"host,omitempty"`
	// Rate is loss_burst's per-fragment drop probability, in [0, 1].
	Rate float64 `json:"rate,omitempty"`
	// Jitter is jitter_burst's max extra delivery delay.
	Jitter sim.Time `json:"-"`
	// For is how long a loss/jitter burst or disk_degrade lasts
	// (0 for disk_degrade means until the end of the run).
	For sim.Time `json:"-"`
	// Factor is disk_degrade's service-time multiplier (>= 1).
	Factor float64 `json:"factor,omitempty"`
	// MinMBps is assert_agg_mbps_min's threshold.
	MinMBps float64 `json:"min_mbps,omitempty"`
	// Bytes is the threshold for the byte-count asserts
	// (assert_lost_min/max, assert_rewritten_min, assert_replayed_min).
	Bytes int64 `json:"bytes,omitempty"`
	// MaxStale is assert_stale_max's ceiling on stale reads served
	// across the fleet. The assert also requires that no client ever saw
	// the server's change attribute run backwards — the monotonicity a
	// crash/restart must preserve.
	MaxStale int64 `json:"max_stale,omitempty"`
}

// Scenario is one parsed chaos scenario.
type Scenario struct {
	Name        string  `json:"name"`
	Description string  `json:"description,omitempty"`
	Fleet       Fleet   `json:"fleet"`
	Events      []Event `json:"events"`
}

// actionSpec declares each action's allowed keys beyond "at"/"action";
// decode rejects unknown actions and misplaced keys against it.
var actionSpec = map[string][]string{
	"server_crash":         {},
	"server_restart":       {},
	"link_down":            {"host"},
	"link_up":              {"host"},
	"loss_burst":           {"rate", "for"},
	"jitter_burst":         {"jitter", "for"},
	"disk_degrade":         {"factor", "for"},
	"assert_completes":     {},
	"assert_error":         {},
	"assert_no_data_loss":  {},
	"assert_agg_mbps_min":  {"min_mbps"},
	"assert_lost_min":      {"bytes"},
	"assert_lost_max":      {"bytes"},
	"assert_rewritten_min": {"bytes"},
	"assert_replayed_min":  {"bytes"},
	"assert_stale_max":     {"max_stale"},
}

// IsAssert reports whether the event is an end-of-run assertion rather
// than a timed injection.
func (e *Event) IsAssert() bool { return strings.HasPrefix(e.Action, "assert_") }

// Load reads and parses a scenario file. Files whose first non-space byte
// is '{' or '[' parse as JSON; everything else parses as YAML. A file
// holds either one scenario or a top-level "scenarios:" list.
func Load(path string) ([]*Scenario, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	scs, err := Parse(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return scs, nil
}

// Parse parses scenario source (YAML subset or JSON), which must be
// UTF-8: JSON cannot carry other bytes through EncodeJSON.
func Parse(src []byte) ([]*Scenario, error) {
	if !utf8.Valid(src) {
		return nil, fmt.Errorf("scenario source is not valid UTF-8")
	}
	trimmed := strings.TrimSpace(string(src))
	var root any
	var err error
	if strings.HasPrefix(trimmed, "{") || strings.HasPrefix(trimmed, "[") {
		dec := json.NewDecoder(strings.NewReader(trimmed))
		dec.UseNumber()
		err = dec.Decode(&root)
	} else {
		root, err = parseYAML(src)
	}
	if err != nil {
		return nil, err
	}
	return decodeRoot(root)
}

// EncodeJSON serializes the scenario to JSON that Parse round-trips,
// durations rendered as strings ("200ms").
func (sc *Scenario) EncodeJSON() ([]byte, error) {
	events := make([]map[string]any, 0, len(sc.Events))
	for i := range sc.Events {
		ev := &sc.Events[i]
		m := map[string]any{"action": ev.Action}
		if !ev.IsAssert() || ev.At != 0 {
			m["at"] = ev.At.String()
		}
		if ev.Host != "" {
			m["host"] = ev.Host
		}
		if ev.Rate != 0 {
			m["rate"] = ev.Rate
		}
		if ev.Jitter != 0 {
			m["jitter"] = ev.Jitter.String()
		}
		if ev.For != 0 {
			m["for"] = ev.For.String()
		}
		if ev.Factor != 0 {
			m["factor"] = ev.Factor
		}
		if ev.MinMBps != 0 {
			m["min_mbps"] = ev.MinMBps
		}
		if ev.Bytes != 0 {
			m["bytes"] = ev.Bytes
		}
		if ev.MaxStale != 0 {
			m["max_stale"] = ev.MaxStale
		}
		events = append(events, m)
	}
	fleet := map[string]any{"seed": sc.Fleet.Seed, "time_limit": sc.Fleet.TimeLimit.String()}
	for k, v := range sc.Fleet.FleetKeys() {
		fleet[k] = v
	}
	if sc.Fleet.MaxRetries != 0 {
		fleet["max_retries"] = sc.Fleet.MaxRetries
	}
	doc := map[string]any{"name": sc.Name, "fleet": fleet, "events": events}
	if sc.Description != "" {
		doc["description"] = sc.Description
	}
	return json.MarshalIndent(doc, "", "  ")
}

func decodeRoot(root any) ([]*Scenario, error) {
	switch v := root.(type) {
	case []any:
		return decodeScenarioList(v)
	case map[string]any:
		if list, ok := v["scenarios"]; ok {
			if len(v) != 1 {
				return nil, fmt.Errorf("a \"scenarios:\" file must contain nothing else at top level")
			}
			items, ok := list.([]any)
			if !ok {
				return nil, fmt.Errorf("\"scenarios\" must be a list")
			}
			return decodeScenarioList(items)
		}
		sc, err := decodeScenario(v)
		if err != nil {
			return nil, err
		}
		return []*Scenario{sc}, nil
	default:
		return nil, fmt.Errorf("top level must be a scenario map or a scenario list")
	}
}

func decodeScenarioList(items []any) ([]*Scenario, error) {
	if len(items) == 0 {
		return nil, fmt.Errorf("empty scenario list")
	}
	out := make([]*Scenario, 0, len(items))
	seen := make(map[string]bool)
	for i, item := range items {
		m, ok := item.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("scenario %d: expected a map", i)
		}
		sc, err := decodeScenario(m)
		if err != nil {
			return nil, fmt.Errorf("scenario %d: %w", i, err)
		}
		if seen[sc.Name] {
			return nil, fmt.Errorf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		out = append(out, sc)
	}
	return out, nil
}

func decodeScenario(m map[string]any) (*Scenario, error) {
	sc := &Scenario{}
	fm := map[string]any{}
	for _, key := range slices.Sorted(maps.Keys(m)) {
		val := m[key]
		switch key {
		case "name":
			s, err := asString(val)
			if err != nil {
				return nil, fmt.Errorf("name: %w", err)
			}
			sc.Name = s
		case "description":
			s, err := asString(val)
			if err != nil {
				return nil, fmt.Errorf("description: %w", err)
			}
			sc.Description = s
		case "fleet":
			var ok bool
			if fm, ok = val.(map[string]any); !ok {
				return nil, fmt.Errorf("fleet: expected a map")
			}
		case "events":
			list, ok := val.([]any)
			if !ok {
				return nil, fmt.Errorf("events: expected a list")
			}
			for i, item := range list {
				em, ok := item.(map[string]any)
				if !ok {
					return nil, fmt.Errorf("events[%d]: expected a map", i)
				}
				ev, err := decodeEvent(em)
				if err != nil {
					return nil, fmt.Errorf("events[%d]: %w", i, err)
				}
				sc.Events = append(sc.Events, ev)
			}
		default:
			return nil, fmt.Errorf("unknown scenario key %q", key)
		}
	}
	if sc.Name == "" {
		return nil, fmt.Errorf("scenario needs a name")
	}
	fleet, err := decodeFleet(fm)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
	}
	sc.Fleet = fleet
	if err := sc.validate(); err != nil {
		return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
	}
	return sc, nil
}

// decodeFleet resolves the axis keys through harness.FleetScenario and
// handles the run controls (seed, max_retries, time_limit) itself.
func decodeFleet(m map[string]any) (Fleet, error) {
	if _, ok := m["server"]; !ok {
		return Fleet{}, fmt.Errorf("fleet.server is required (filer, linux, or slow100)")
	}
	var f Fleet
	var seed int64
	var limit sim.Time
	axes := make(map[string]string, len(m))
	for _, key := range slices.Sorted(maps.Keys(m)) {
		val := m[key]
		var err error
		switch key {
		case "seed":
			seed, err = asInt64(val)
		case "max_retries":
			f.MaxRetries, err = asInt(val)
		case "time_limit":
			limit, err = asDuration(val)
		default:
			axes[key], err = asScalar(val)
		}
		if err != nil {
			return f, fmt.Errorf("fleet.%s: %w", key, err)
		}
	}
	var err error
	if f.Scenario, err = harness.FleetScenario(axes); err != nil {
		return f, err
	}
	switch {
	case f.Server == nfssim.ServerNone:
		return f, fmt.Errorf("fleet.server: %q is not an NFS server kind (want filer, linux, or slow100)", axes["server"])
	case f.MaxRetries < 0:
		return f, fmt.Errorf("fleet.max_retries must be >= 0")
	case limit < 0:
		return f, fmt.Errorf("fleet.time_limit must be positive")
	}
	// The one-cell grid already defaults seed 1 and a 30m time limit.
	if seed != 0 {
		f.Seed = seed
	}
	if limit != 0 {
		f.TimeLimit = limit
	}
	return f, nil
}

func decodeEvent(m map[string]any) (Event, error) {
	ev := Event{}
	for _, key := range slices.Sorted(maps.Keys(m)) {
		val := m[key]
		var err error
		switch key {
		case "at":
			ev.At, err = asDuration(val)
		case "action":
			ev.Action, err = asString(val)
		case "host":
			ev.Host, err = asString(val)
		case "rate":
			ev.Rate, err = asFloat(val)
		case "jitter":
			ev.Jitter, err = asDuration(val)
		case "for":
			ev.For, err = asDuration(val)
		case "factor":
			ev.Factor, err = asFloat(val)
		case "min_mbps":
			ev.MinMBps, err = asFloat(val)
		case "bytes":
			var n int64
			n, err = asInt64(val)
			ev.Bytes = n
		case "max_stale":
			var n int64
			n, err = asInt64(val)
			ev.MaxStale = n
		default:
			return ev, fmt.Errorf("unknown event key %q", key)
		}
		if err != nil {
			return ev, fmt.Errorf("%s: %w", key, err)
		}
	}
	if ev.Action == "" {
		return ev, fmt.Errorf("event needs an action")
	}
	allowed, ok := actionSpec[ev.Action]
	if !ok {
		return ev, fmt.Errorf("unknown action %q", ev.Action)
	}
	for _, key := range slices.Sorted(maps.Keys(m)) {
		if key == "at" || key == "action" {
			continue
		}
		permitted := false
		for _, a := range allowed {
			if key == a {
				permitted = true
				break
			}
		}
		if !permitted {
			return ev, fmt.Errorf("action %q does not take %q", ev.Action, key)
		}
	}
	return ev, nil
}

// validate applies the schema's event rules: ranges, host names, and
// crash/restart ordering.
func (sc *Scenario) validate() error {
	if len(sc.Events) == 0 {
		return fmt.Errorf("a scenario needs at least one entry under events: (an event or an assert)")
	}
	f := &sc.Fleet
	crashed := false
	for i := range sc.Events {
		ev := &sc.Events[i]
		if ev.At < 0 {
			return fmt.Errorf("event %q: at must be non-negative", ev.Action)
		}
		switch ev.Action {
		case "server_crash":
			if f.Transport == rpcsim.TransportTCP {
				return fmt.Errorf("server_crash requires transport udp (stream state across a reboot is not modeled)")
			}
			if crashed {
				return fmt.Errorf("server_crash while the server is already down")
			}
			crashed = true
		case "server_restart":
			if !crashed {
				return fmt.Errorf("server_restart without a preceding server_crash")
			}
			crashed = false
		case "link_down", "link_up":
			if err := validateHost(ev.Host, f.Clients); err != nil {
				return fmt.Errorf("%s: %w", ev.Action, err)
			}
		case "loss_burst":
			if ev.Rate < 0 || ev.Rate > 1 {
				return fmt.Errorf("loss_burst.rate must be in [0, 1]")
			}
			if ev.For <= 0 {
				return fmt.Errorf("loss_burst needs a positive \"for\" window")
			}
		case "jitter_burst":
			if ev.Jitter <= 0 {
				return fmt.Errorf("jitter_burst needs a positive jitter")
			}
			if ev.For <= 0 {
				return fmt.Errorf("jitter_burst needs a positive \"for\" window")
			}
		case "disk_degrade":
			if ev.Factor < 1 {
				return fmt.Errorf("disk_degrade.factor must be >= 1")
			}
		case "assert_agg_mbps_min":
			if ev.MinMBps <= 0 {
				return fmt.Errorf("assert_agg_mbps_min needs a positive min_mbps")
			}
		case "assert_lost_min", "assert_rewritten_min", "assert_replayed_min":
			if ev.Bytes <= 0 {
				return fmt.Errorf("%s needs positive bytes", ev.Action)
			}
		case "assert_lost_max":
			if ev.Bytes < 0 {
				return fmt.Errorf("assert_lost_max needs non-negative bytes")
			}
		case "assert_stale_max":
			if ev.MaxStale < 0 {
				return fmt.Errorf("assert_stale_max needs non-negative max_stale")
			}
		}
	}
	// Crash/restart ordering is checked in event-list order above; also
	// require the timed ordering to match once sorted by At (stable sort,
	// so same-time events keep list order).
	sorted := make([]Event, len(sc.Events))
	copy(sorted, sc.Events)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })
	down := false
	for i := range sorted {
		switch sorted[i].Action {
		case "server_crash":
			if down {
				return fmt.Errorf("server_crash at %v fires while the server is already down", sorted[i].At)
			}
			down = true
		case "server_restart":
			if !down {
				return fmt.Errorf("server_restart at %v fires with the server up", sorted[i].At)
			}
			down = false
		}
	}
	return nil
}

func validateHost(host string, clients int) error {
	if host == "" {
		return fmt.Errorf("needs a host (\"server\" or \"clientN\")")
	}
	if host == "server" {
		return nil
	}
	n, ok := strings.CutPrefix(host, "client")
	if !ok {
		return fmt.Errorf("unknown host %q (want \"server\" or \"clientN\")", host)
	}
	idx, err := strconv.Atoi(n)
	if err != nil || idx < 0 {
		return fmt.Errorf("unknown host %q (want \"server\" or \"clientN\")", host)
	}
	if idx >= clients {
		return fmt.Errorf("host %q is outside the fleet (clients: %d)", host, clients)
	}
	return nil
}

// resolveHost maps a scenario host name to the netsim host name.
func resolveHost(host string, kind nfssim.ServerKind) string {
	if host != "server" {
		return host // clientN names are the netsim names
	}
	switch kind {
	case nfssim.ServerFiler:
		return server.HostFiler
	case nfssim.ServerLinux:
		return server.HostLinux
	default:
		return server.HostSlow
	}
}

// Typed accessors for the generic parse tree. YAML scalars arrive as
// strings; JSON numbers arrive as json.Number, so integers keep every
// digit.

func asString(v any) (string, error) {
	s, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("expected a string, got %T", v)
	}
	return s, nil
}

// asScalar spells a YAML or JSON scalar the way a command-line flag
// would: JSON numbers in plain decimal, never exponent form.
func asScalar(v any) (string, error) {
	switch x := v.(type) {
	case string:
		return strings.TrimSpace(x), nil
	case json.Number:
		if _, err := x.Int64(); err == nil {
			return x.String(), nil
		}
		f, err := x.Float64()
		if err != nil {
			return "", fmt.Errorf("expected a number, got %s", x)
		}
		return strconv.FormatFloat(f, 'f', -1, 64), nil
	default:
		return "", fmt.Errorf("expected a scalar, got %T", v)
	}
}

func asInt(v any) (int, error) {
	n, err := asInt64(v)
	return int(n), err
}

func asInt64(v any) (int64, error) {
	s, err := asScalar(v)
	n, perr := strconv.ParseInt(s, 10, 64)
	if err != nil || perr != nil {
		return 0, fmt.Errorf("expected an integer, got %#v", v)
	}
	return n, nil
}

func asFloat(v any) (float64, error) {
	s, err := asScalar(v)
	f, perr := strconv.ParseFloat(s, 64)
	if err != nil || perr != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("expected a finite number, got %#v", v)
	}
	return f, nil
}

func asDuration(v any) (sim.Time, error) {
	switch x := v.(type) {
	case string:
		d, err := time.ParseDuration(strings.TrimSpace(x))
		if err != nil {
			return 0, fmt.Errorf("expected a duration (\"200ms\"), got %q", x)
		}
		return d, nil
	case json.Number:
		// JSON numbers are nanoseconds.
		n, err := asInt64(x)
		return sim.Time(n), err
	default:
		return 0, fmt.Errorf("expected a duration, got %T", v)
	}
}
