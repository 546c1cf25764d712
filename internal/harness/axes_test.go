package harness

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	nfssim "repro"
	"repro/internal/core"
)

// parseAxis builds a Grid from one nfssweep axis flag, as GridFlags does.
func parseAxis(name, spec string) (Grid, error) {
	fs := flag.NewFlagSet("nfssweep", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	build := GridFlags(fs)
	if err := fs.Parse([]string{"-" + name + "=" + spec}); err != nil {
		return Grid{}, err
	}
	return build()
}

// Two spellings of one value would expand to two scenarios with the same
// name and seed, which Aggregate would then fold into a fake two-run
// cell. The list parser rejects them, naming the flag and both spellings.
func TestDuplicateAxisValuesRejected(t *testing.T) {
	for _, tc := range []struct{ flag, spec, a, b string }{
		{"sizes", "5,5", "5", "5"},
		{"shared", "50,default", "50", "default"},
		{"actimeout", "default,0", "default", "0"},
		{"zipf-s", "uniform, -1", "uniform", "-1"},
	} {
		_, err := parseAxis(tc.flag, tc.spec)
		if err == nil {
			t.Fatalf("-%s %q accepted", tc.flag, tc.spec)
		}
		msg := err.Error()
		if !strings.HasPrefix(msg, "-"+tc.flag+":") ||
			!strings.Contains(msg, `"`+tc.a+`" and "`+tc.b+`"`) {
			t.Fatalf("-%s %q: error %q does not name the flag and both spellings", tc.flag, tc.spec, msg)
		}
	}
	// Distinct values that merely look alike still sweep.
	g, err := parseAxis("shared", "25,default")
	if err != nil || !reflect.DeepEqual(g.Sharings, []int{25, 0}) {
		t.Fatalf("-shared 25,default = %v, %v", g.Sharings, err)
	}
}

// Every row rejects what its flag always rejected, wsize included: the
// page-size check lives in the row, so chaos fleets get it too.
func TestAxisValueValidation(t *testing.T) {
	for flagName, bad := range map[string]string{
		"wsizes": "1000", "cpus": "0", "clients": "-3", "cache": "x",
		"jumbo": "maybe", "transport": "sctp", "loss": "1.5",
		"workload": "fsck", "files": "0", "zipf-s": "-2",
		"actimeout": "-1s", "shared": "101", "consistency": "eventual",
		"netjitter": "-1ms", "fsync-every": "-1", "opmix": "1/2/3",
		"readlag": "soon",
	} {
		if _, err := parseAxis(flagName, bad); err == nil {
			t.Errorf("-%s %q accepted", flagName, bad)
		}
	}
	g, err := parseAxis("jumbo", "both")
	if err != nil || !reflect.DeepEqual(g.Jumbo, []bool{false, true}) {
		t.Fatalf("-jumbo both = %v, %v", g.Jumbo, err)
	}
	if g, err = parseAxis("cache", "1, 64"); err != nil || !reflect.DeepEqual(g.CacheLimits, []int64{1 << 20, 64 << 20}) {
		t.Fatalf("-cache 1,64 = %v, %v", g.CacheLimits, err)
	}
}

// Expand nests config outside server, while Key prints server first.
func TestExpandNestsConfigOutsideServer(t *testing.T) {
	g := Grid{Servers: []nfssim.ServerKind{nfssim.ServerFiler, nfssim.ServerLinux}, Configs: NamedConfigs()[:2]}
	var keys []string
	for _, sc := range g.Expand() {
		keys = append(keys, sc.Key()[:strings.Index(sc.Key(), "/40MB")])
	}
	want := []string{"filer/stock", "linux/stock", "filer/nolimits", "linux/nolimits"}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("expand order %v, want %v", keys, want)
	}
}

// A chaos fleet resolves through the same rows: fleet defaults where the
// sweep's differ, sweep defaults otherwise, and FleetKeys round-trips.
func TestFleetScenario(t *testing.T) {
	sc, err := FleetScenario(map[string]string{"server": "linux", "clients": "2", "loss": "0.05"})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Config.Name != "enhanced" || sc.FileMB != 8 || sc.Clients != 2 || sc.Loss != 0.05 ||
		sc.WSize != core.EnhancedConfig().WSize {
		t.Fatalf("fleet scenario = %+v", sc)
	}
	back, err := FleetScenario(sc.FleetKeys())
	if err != nil || !reflect.DeepEqual(back, sc) {
		t.Fatalf("FleetKeys round trip: %+v, %v", back, err)
	}
	for spec, want := range map[string]string{
		"wsize=1000":  "fleet.wsize",
		"flavor=x":    `unknown key "flavor"`,
		"cpus=2":      `unknown key "cpus"`, // chaos does not take every axis
		"file_mb=0":   "fleet.file_mb",
		"config=fast": "fleet.config",
		"clients=1,2": "one value",
	} {
		k, v, _ := strings.Cut(spec, "=")
		_, err := FleetScenario(map[string]string{"server": "filer", k: v})
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("fleet %s: error %v, want %q", spec, err, want)
		}
	}
}
