package chaos_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/experiments"
)

// twoBadKeys is a scenario with two wrongly typed keys, description and
// events.
const twoBadKeys = `name: x
description:
  a: b
events: 3
fleet:
  server: filer
`

// A document with several bad keys must always report the same one:
// decoding visits keys in sorted order, never map order.
func TestParseErrorDeterministic(t *testing.T) {
	const want = "description: expected a string, got map[string]interface {}"
	for i := 0; i < 100; i++ {
		_, err := chaos.Parse([]byte(twoBadKeys))
		if err == nil || err.Error() != want {
			t.Fatalf("parse %d: error %v, want %q", i, err, want)
		}
	}
}

// FuzzChaosParse holds the hand-written scenario parser to three
// properties on any input: Parse never panics; parsing the same bytes
// twice yields identical scenarios or identical error text; and an
// accepted scenario survives EncodeJSON → Parse → EncodeJSON byte for
// byte.
func FuzzChaosParse(f *testing.F) {
	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "chaos", "*.yaml"))
	if err != nil || len(examples) == 0 {
		f.Fatalf("no example scenarios found: %v", err)
	}
	for _, path := range examples {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	f.Add([]byte(experiments.ChaosScenarios))
	f.Add([]byte(twoBadKeys))
	f.Fuzz(func(t *testing.T, src []byte) {
		scs, err := chaos.Parse(src)
		again, err2 := chaos.Parse(src)
		if (err == nil) != (err2 == nil) || (err != nil && err.Error() != err2.Error()) {
			t.Fatalf("two parses disagree: %v vs %v", err, err2)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(scs, again) {
			t.Fatalf("two parses gave different scenarios:\n%+v\n%+v", scs, again)
		}
		for _, sc := range scs {
			js, err := sc.EncodeJSON()
			if err != nil {
				t.Fatalf("encode accepted scenario %q: %v", sc.Name, err)
			}
			back, err := chaos.Parse(js)
			if err != nil {
				t.Fatalf("re-parse encoded scenario: %v\n%s", err, js)
			}
			if len(back) != 1 {
				t.Fatalf("encoded scenario re-parsed to %d scenarios", len(back))
			}
			js2, err := back[0].EncodeJSON()
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(js, js2) {
				t.Fatalf("EncodeJSON round trip diverged:\n%s\n---\n%s", js, js2)
			}
		}
	})
}
