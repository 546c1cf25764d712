package harness

import (
	"flag"
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	nfssim "repro"
	"repro/internal/bonnie"
	"repro/internal/core"
	"repro/internal/mm"
	"repro/internal/rpcsim"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// axes is the sweep table: one row per scenario dimension, in the order
// of its Scenario.Key segment. Grid.Expand nests the rows, Key joins
// their segments, GridFlags makes them nfssweep flags and FleetScenario
// resolves the chaos fleet keys through them. Adding an axis is one row
// at its key position, with a segment that is empty at the default so
// existing keys (and the golden CSVs) do not move. Knob rows (netjitter,
// fsync-every, opmix, readlag) set a Grid scalar, not a list.
var axes = []axis{
	&row[nfssim.ServerKind]{
		axisMeta: axisMeta{name: "server", flag: "servers", fleet: "server", spec: "filer",
			usage: "comma list of servers: filer, linux, slow100, local"},
		list:  func(g *Grid) *[]nfssim.ServerKind { return &g.Servers },
		field: func(sc *Scenario) *nfssim.ServerKind { return &sc.Server },
		parse: func(s string) (nfssim.ServerKind, error) {
			for _, k := range []nfssim.ServerKind{nfssim.ServerFiler, nfssim.ServerLinux, nfssim.ServerSlow100, nfssim.ServerNone} {
				if s == k.String() || s == "none" && k == nfssim.ServerNone {
					return k, nil
				}
			}
			return 0, fmt.Errorf("harness: unknown server %q (have filer, linux, slow100, local)", s)
		},
		key: nfssim.ServerKind.String,
	},
	&row[ClientConfig]{
		// Config nests outside server in Expand (the order every grid's
		// output has always had), though server leads the key.
		axisMeta: axisMeta{name: "config", flag: "configs", fleet: "config", spec: "stock", fleetDef: "enhanced", outer: true,
			usage: "comma list of client configs: stock, nolimits, hash, enhanced"},
		list:  func(g *Grid) *[]ClientConfig { return &g.Configs },
		field: func(sc *Scenario) *ClientConfig { return &sc.Config },
		def:   func(Scenario) ClientConfig { return NamedConfigs()[0] },
		parse: func(s string) (ClientConfig, error) {
			for _, c := range NamedConfigs() {
				if c.Name == s {
					return c, nil
				}
			}
			return ClientConfig{}, fmt.Errorf("harness: unknown config %q (have stock, nolimits, hash, enhanced)", s)
		},
		key: func(c ClientConfig) string { return "/" + c.Name },
	},
	&row[int]{
		axisMeta: axisMeta{name: "size", flag: "sizes", fleet: "file_mb", spec: "40", fleetDef: "8",
			usage: "file sizes in MB: comma list (25,100) or range lo..hi:step (25..450:25)"},
		list:  func(g *Grid) *[]int { return &g.FileSizesMB },
		field: func(sc *Scenario) *int { return &sc.FileMB },
		def:   func(Scenario) int { return 40 },
		items: sizeRange,
		parse: intAtLeast(1, "size"),
		key:   func(mb int) string { return "/" + strconv.Itoa(mb) + "MB" },
	},
	&row[int]{
		axisMeta: axisMeta{name: "wsize", flag: "wsizes", fleet: "wsize",
			usage: "comma list of wsize bytes (multiples of 4096; default: each config's own)"},
		list:  func(g *Grid) *[]int { return &g.WSizes },
		field: func(sc *Scenario) *int { return &sc.WSize },
		def:   func(sc Scenario) int { return sc.Config.Config.WSize },
		parse: func(s string) (int, error) {
			n, err := strconv.Atoi(s)
			if err != nil || n <= 0 || n%vfs.PageSize != 0 {
				return 0, fmt.Errorf("harness: bad wsize %q (want a positive multiple of the 4096-byte page size)", s)
			}
			return n, nil
		},
		key: func(n int) string { return "/w" + strconv.Itoa(n) },
	},
	&row[int]{
		axisMeta: axisMeta{name: "CPU count", flag: "cpus",
			usage: "comma list of client CPU counts (default 2)"},
		list:  func(g *Grid) *[]int { return &g.ClientCPUs },
		field: func(sc *Scenario) *int { return &sc.ClientCPUs },
		def:   func(Scenario) int { return 2 },
		parse: intAtLeast(1, "CPU count"),
		key:   func(n int) string { return "/c" + strconv.Itoa(n) },
	},
	&row[int]{
		axisMeta: axisMeta{name: "client count", flag: "clients", fleet: "clients",
			usage: "comma list of concurrent client machines per run, e.g. 1,2,4,8 (default 1)"},
		list:  func(g *Grid) *[]int { return &g.Clients },
		field: func(sc *Scenario) *int { return &sc.Clients },
		def:   func(Scenario) int { return 1 },
		parse: intAtLeast(1, "client count"),
		// Hand-built scenarios may leave Clients 0; RunScenario runs one.
		key: func(n int) string { return "/n" + strconv.Itoa(max(n, 1)) },
	},
	&row[int64]{
		axisMeta: axisMeta{name: "cache limit", flag: "cache",
			usage: "comma list of page-cache limits in MB (default: the 2.4.4 budget)"},
		list:  func(g *Grid) *[]int64 { return &g.CacheLimits },
		field: func(sc *Scenario) *int64 { return &sc.CacheLimit },
		def:   func(Scenario) int64 { return mm.DefaultDirtyLimit },
		parse: func(s string) (int64, error) {
			mb, err := intAtLeast(1, "cache limit")(s)
			return int64(mb) << 20, err
		},
		// Exact bytes: truncated megabytes once folded two limits less
		// than 1 MiB apart into one aggregation cell.
		key: func(b int64) string { return "/m" + strconv.FormatInt(b, 10) + "B" },
	},
	&row[bool]{
		axisMeta: axisMeta{name: "jumbo setting", flag: "jumbo", spec: "off",
			usage: "jumbo frames: off, on, or both (an axis)"},
		list:  func(g *Grid) *[]bool { return &g.Jumbo },
		field: func(sc *Scenario) *bool { return &sc.Jumbo },
		items: func(spec string) ([]string, error) {
			if spec == "both" {
				return []string{"off", "on"}, nil
			}
			return []string{spec}, nil
		},
		parse: func(s string) (bool, error) {
			if s != "off" && s != "on" {
				return false, fmt.Errorf("harness: jumbo must be off, on, or both")
			}
			return s == "on", nil
		},
		key: func(on bool) string { return "/j" + strconv.FormatBool(on) },
	},
	&row[rpcsim.TransportKind]{
		axisMeta: axisMeta{name: "transport", flag: "transport", fleet: "transport", spec: "udp",
			usage: "comma list of RPC transports: udp, tcp"},
		list:  func(g *Grid) *[]rpcsim.TransportKind { return &g.Transports },
		field: func(sc *Scenario) *rpcsim.TransportKind { return &sc.Transport },
		parse: rpcsim.ParseTransport,
		key:   func(k rpcsim.TransportKind) string { return unless(k == rpcsim.TransportUDP, "/"+k.String()) },
	},
	&row[float64]{
		axisMeta: axisMeta{name: "loss rate", flag: "loss", fleet: "loss", spec: "0",
			usage: "comma list of per-fragment drop probabilities, e.g. 0,0.01,0.05"},
		list:  func(g *Grid) *[]float64 { return &g.LossRates },
		field: func(sc *Scenario) *float64 { return &sc.Loss },
		parse: func(s string) (float64, error) {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil || math.IsNaN(v) || v < 0 || v >= 1 {
				return 0, fmt.Errorf("harness: bad loss rate %q (want a probability in [0, 1))", s)
			}
			return v, nil
		},
		key: func(v float64) string { return unless(v <= 0, "/l"+strconv.FormatFloat(v, 'g', -1, 64)) },
	},
	&row[sim.Time]{
		axisMeta: axisMeta{name: "net jitter", flag: "netjitter",
			usage: "max extra random delivery delay per datagram (e.g. 200us; not an axis)"},
		knob:  func(g *Grid) *sim.Time { return &g.NetJitter },
		field: func(sc *Scenario) *sim.Time { return &sc.NetJitter },
		parse: nonNegDuration,
		key:   func(d sim.Time) string { return unless(d <= 0, "/nj"+d.String()) },
	},
	&row[bonnie.Workload]{
		axisMeta: axisMeta{name: "workload", flag: "workload", fleet: "workload", spec: "write",
			usage: "comma list of workloads: write, rewrite, read, mixed, randread, randwrite, db, zipf, shared"},
		list:  func(g *Grid) *[]bonnie.Workload { return &g.Workloads },
		field: func(sc *Scenario) *bonnie.Workload { return &sc.Workload },
		parse: bonnie.ParseWorkload,
		key:   func(w bonnie.Workload) string { return unless(w == bonnie.WorkloadWrite, "/"+w.String()) },
	},
	&row[int]{
		axisMeta: axisMeta{name: "fsync cadence", flag: "fsync-every",
			usage: "flush (group commit) every N chunks during the I/O phase; 0 = never (db defaults to 32; not an axis)"},
		knob:  func(g *Grid) *int { return &g.FsyncEvery },
		field: func(sc *Scenario) *int { return &sc.FsyncEvery },
		parse: intAtLeast(0, "fsync cadence"),
		key:   func(n int) string { return unless(n <= 0, "/f"+strconv.Itoa(n)) },
	},
	&row[int]{
		axisMeta: axisMeta{name: "file count", flag: "files",
			usage: "comma list of zipf file populations, e.g. 100,1000 (default 100)"},
		list:  func(g *Grid) *[]int { return &g.FileCounts },
		field: func(sc *Scenario) *int { return &sc.FileCount },
		parse: intAtLeast(1, "file count"),
		key:   func(n int) string { return unless(n == 0, "/fc"+strconv.Itoa(n)) },
	},
	&row[float64]{
		axisMeta: axisMeta{name: "zipf exponent", flag: "zipf-s",
			usage: "comma list of zipf skew exponents, e.g. 0.8,1.2,uniform (default 1.2)"},
		list:  func(g *Grid) *[]float64 { return &g.ZipfSs },
		field: func(sc *Scenario) *float64 { return &sc.ZipfS },
		parse: func(s string) (float64, error) {
			if s == "uniform" {
				return bonnie.ZipfUniform, nil
			}
			v, err := strconv.ParseFloat(s, 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || (v < 0 && v != bonnie.ZipfUniform) {
				return 0, fmt.Errorf("harness: bad zipf exponent %q (want a non-negative number or \"uniform\")", s)
			}
			return v, nil
		},
		key: func(v float64) string {
			if v == bonnie.ZipfUniform {
				return "/zuni"
			}
			return unless(v == 0, "/z"+strconv.FormatFloat(v, 'g', -1, 64))
		},
	},
	&row[bonnie.OpMix]{
		axisMeta: axisMeta{name: "op mix", flag: "opmix",
			usage: "zipf op mix as create/write/read/stat/remove percentages, e.g. 10/30/40/15/5 (not an axis)"},
		knob:  func(g *Grid) *bonnie.OpMix { return &g.Mix },
		field: func(sc *Scenario) *bonnie.OpMix { return &sc.Mix },
		parse: bonnie.ParseOpMix,
		key:   func(m bonnie.OpMix) string { return unless(m.IsZero(), "/"+m.String()) },
	},
	&row[sim.Time]{
		axisMeta: axisMeta{name: "attribute-cache timeout", flag: "actimeout",
			usage: "comma list of attribute-cache windows: off, default, or durations like 3s,60s"},
		list:  func(g *Grid) *[]sim.Time { return &g.AcTimeouts },
		field: func(sc *Scenario) *sim.Time { return &sc.AcTimeout },
		parse: func(s string) (sim.Time, error) {
			switch s {
			case "off":
				return core.AcOff, nil
			case "default", "0":
				return 0, nil
			}
			d, err := time.ParseDuration(s)
			if err != nil || d < 0 {
				return 0, fmt.Errorf("harness: bad attribute-cache timeout %q (want a duration, \"off\", or \"default\")", s)
			}
			return d, nil
		},
		key: func(d sim.Time) string {
			if d < 0 {
				return "/acoff"
			}
			return unless(d == 0, "/ac"+d.String())
		},
	},
	&row[int]{
		axisMeta: axisMeta{name: "writer percentage", flag: "shared",
			usage: "comma list of shared-workload writer percentages, e.g. 25,50,75 (default 50)"},
		list:  func(g *Grid) *[]int { return &g.Sharings },
		field: func(sc *Scenario) *int { return &sc.SharedWriterPct },
		parse: func(s string) (int, error) {
			if s == "default" {
				return 0, nil
			}
			n, err := strconv.Atoi(s)
			if err != nil || n < 0 || n > 100 {
				return 0, fmt.Errorf("harness: bad writer percentage %q (want 1-100 or \"default\")", s)
			}
			return n, nil
		},
		// 0 means bonnie's default, so both spellings of it key alike.
		key: func(n int) string {
			return unless(n == 0 || n == bonnie.DefaultSharedWriterPct, "/sw"+strconv.Itoa(n))
		},
	},
	&row[sim.Time]{
		axisMeta: axisMeta{name: "read lag", flag: "readlag",
			usage: "shared-workload pause between reader passes (e.g. 5ms; not an axis)"},
		knob:  func(g *Grid) *sim.Time { return &g.ReadLag },
		field: func(sc *Scenario) *sim.Time { return &sc.SharedReadLag },
		parse: nonNegDuration,
		key:   func(d sim.Time) string { return unless(d <= 0, "/rl"+d.String()) },
	},
	&row[core.ConsistencyMode]{
		axisMeta: axisMeta{name: "consistency mode", flag: "consistency", fleet: "consistency",
			usage: "comma list of cache-consistency modes: ttl, strict, noac"},
		list:  func(g *Grid) *[]core.ConsistencyMode { return &g.Consistencies },
		field: func(sc *Scenario) *core.ConsistencyMode { return &sc.Consistency },
		parse: func(s string) (core.ConsistencyMode, error) {
			m, ok := core.ParseConsistency(s)
			if !ok {
				return m, fmt.Errorf("harness: unknown consistency mode %q (have ttl, strict, noac)", s)
			}
			return m, nil
		},
		key: func(m core.ConsistencyMode) string { return unless(m == core.ConsistencyTTL, "/"+m.String()) },
	},
}

// expandOrder is axes with the outer rows moved to the front.
var expandOrder = func() (order []axis) {
	for _, outer := range []bool{true, false} {
		for _, a := range axes {
			if a.meta().outer == outer {
				order = append(order, a)
			}
		}
	}
	return order
}()

// axisMeta is a row's identity on the command line and in scenario files.
type axisMeta struct {
	name     string // what one value is, for error messages
	flag     string // nfssweep flag
	usage    string
	spec     string // the flag's default spelling
	fleet    string // chaos fleet key; "" where chaos does not take the axis
	fleetDef string // chaos default spelling, where it differs from the sweep's
	outer    bool   // nests outside the other rows in Expand
}

// axis is the type-erased face of a row.
type axis interface {
	meta() *axisMeta
	// each calls next with sc extended by each of the row's values in g.
	each(g *Grid, sc Scenario, next func(Scenario))
	// segment is sc's part of Scenario.Key.
	segment(sc *Scenario) string
	// setGrid parses a flag spec into g.
	setGrid(g *Grid, spec string) error
	// spell is sc's value as its fleet key would spell it.
	spell(sc *Scenario) string
}

// row is one typed axis of the table.
type row[T any] struct {
	axisMeta
	list  func(*Grid) *[]T // the Grid list the row sweeps
	knob  func(*Grid) *T   // or the Grid scalar every scenario gets
	field func(*Scenario) *T
	def   func(Scenario) T // what an empty list expands to; nil is T's zero
	// items splits a flag spec into value spellings; nil is a comma list.
	items func(string) ([]string, error)
	parse func(string) (T, error) // one value: parse and validate
	key   func(T) string          // the Key segment, "" at the default
}

func (r *row[T]) meta() *axisMeta { return &r.axisMeta }

func (r *row[T]) each(g *Grid, sc Scenario, next func(Scenario)) {
	vals := make([]T, 1) // T's zero unless the row says otherwise
	switch {
	case r.knob != nil:
		vals[0] = *r.knob(g)
	case len(*r.list(g)) > 0:
		vals = *r.list(g)
	case r.def != nil:
		vals[0] = r.def(sc)
	}
	for _, v := range vals {
		*r.field(&sc) = v
		next(sc)
	}
}

func (r *row[T]) segment(sc *Scenario) string { return r.key(*r.field(sc)) }

// setGrid parses a knob's one value, or a list whose values must all
// key differently: two spellings of one cell would run it twice under
// one name and seed, a fake repeat.
func (r *row[T]) setGrid(g *Grid, spec string) error {
	if r.knob != nil {
		v, err := r.parse(spec)
		*r.knob(g) = v
		return err
	}
	items := strings.Split(spec, ",")
	if r.items != nil {
		var err error
		if items, err = r.items(spec); err != nil {
			return err
		}
	}
	vals := make([]T, 0, len(items))
	seen := make(map[string]string, len(items))
	for _, s := range items {
		s = strings.TrimSpace(s)
		v, err := r.parse(s)
		if err != nil {
			return err
		}
		k := r.key(v)
		if prev, dup := seen[k]; dup {
			return fmt.Errorf("%q and %q are the same %s", prev, s, r.name)
		}
		seen[k] = s
		vals = append(vals, v)
	}
	*r.list(g) = vals
	return nil
}

func (r *row[T]) spell(sc *Scenario) string {
	if c, ok := any(*r.field(sc)).(ClientConfig); ok {
		return c.Name
	}
	return fmt.Sprint(*r.field(sc))
}

// GridFlags registers one string flag per table row on fs and returns
// the function that builds a Grid from them once fs is parsed. A flag
// whose default is empty may stay empty, leaving its row at the default.
func GridFlags(fs *flag.FlagSet) func() (Grid, error) {
	specs := make([]*string, len(axes))
	for i, a := range axes {
		m := a.meta()
		specs[i] = fs.String(m.flag, m.spec, m.usage)
	}
	return func() (Grid, error) {
		var g Grid
		for i, a := range axes {
			m := a.meta()
			if *specs[i] == "" && m.spec == "" {
				continue
			}
			if err := a.setGrid(&g, *specs[i]); err != nil {
				return g, fmt.Errorf("-%s: %w", m.flag, err)
			}
		}
		return g, nil
	}
}

// FleetScenario resolves the axis keys of a chaos fleet block as a
// one-cell grid. Each row with a fleet key takes its value from keys,
// spelled as on the nfssweep command line, else its fleet default, else
// its sweep default. A key no row takes, or a list, is an error.
func FleetScenario(keys map[string]string) (Scenario, error) {
	var g Grid
	rest := maps.Clone(keys)
	for _, a := range axes {
		m := a.meta()
		spelling, ok := rest[m.fleet]
		if m.fleet == "" || (!ok && m.fleetDef == "") {
			continue
		}
		delete(rest, m.fleet)
		if !ok {
			spelling = m.fleetDef
		}
		if err := a.setGrid(&g, spelling); err != nil {
			return Scenario{}, fmt.Errorf("fleet.%s: %w", m.fleet, err)
		}
	}
	if len(rest) > 0 {
		return Scenario{}, fmt.Errorf("fleet: unknown key %q", slices.Sorted(maps.Keys(rest))[0])
	}
	cell := g.Expand()
	if len(cell) != 1 {
		return Scenario{}, fmt.Errorf("fleet: each key takes one value, not a list")
	}
	return cell[0], nil
}

// FleetKeys spells sc's value of every fleet-keyed axis, so that
// FleetScenario(sc.FleetKeys()) restores them.
func (sc Scenario) FleetKeys() map[string]string {
	out := make(map[string]string)
	for _, a := range axes {
		if m := a.meta(); m.fleet != "" {
			out[m.fleet] = a.spell(&sc)
		}
	}
	return out
}

// sizeRange expands "lo..hi:step" (step defaulting to 25) into its
// sizes; any other spec is a comma list.
func sizeRange(spec string) ([]string, error) {
	lo, rest, ok := strings.Cut(spec, "..")
	if !ok {
		return strings.Split(spec, ","), nil
	}
	hi, stepStr, _ := strings.Cut(rest, ":")
	step := 25
	if stepStr != "" {
		var err error
		if step, err = strconv.Atoi(stepStr); err != nil || step <= 0 {
			return nil, fmt.Errorf("harness: bad size step %q", stepStr)
		}
	}
	a, errA := strconv.Atoi(lo)
	b, errB := strconv.Atoi(hi)
	if errA != nil || errB != nil || a <= 0 || b < a {
		return nil, fmt.Errorf("harness: bad size range %q", spec)
	}
	var out []string
	for mb := a; mb <= b; mb += step {
		out = append(out, strconv.Itoa(mb))
	}
	return out, nil
}

// intAtLeast parses a decimal integer no smaller than lo.
func intAtLeast(lo int, what string) func(string) (int, error) {
	return func(s string) (int, error) {
		n, err := strconv.Atoi(s)
		if err != nil || n < lo {
			return 0, fmt.Errorf("harness: bad %s %q", what, s)
		}
		return n, nil
	}
}

func nonNegDuration(s string) (sim.Time, error) {
	d, err := time.ParseDuration(s)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("harness: bad duration %q (want a non-negative duration)", s)
	}
	return d, nil
}

// unless is seg, or "" when the value is at its default.
func unless(atDefault bool, seg string) string {
	if atDefault {
		return ""
	}
	return seg
}
