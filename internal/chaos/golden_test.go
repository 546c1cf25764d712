package chaos_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
)

// The built-in chaos battery's rendered reports, pinned byte for byte.
// testdata/battery.golden is the stdout of `go run ./cmd/nfsbench chaos`
// (Render plus Println's trailing newline); regenerate it that way only
// for a change that means to move chaos results.
func TestBatteryMatchesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "battery.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := experiments.ChaosSweep().Render() + "\n"; got != string(want) {
		t.Fatalf("chaos battery output drifted from testdata/battery.golden:\n%s", got)
	}
}
