package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"slices"
	"strconv"

	"repro/internal/harness"
)

// pinnedSeeds are the benchmark seeds whose fingerprints are kept in the
// reference file: the default seed and one held out while writing the
// benchmark. Any other seed is checked for completion and for identical
// output on every pass of the run.
var pinnedSeeds = []int64{1, 2002}

// refPath is the pinned fingerprint file, relative to the repository root.
const refPath = "hostbench/fingerprints.json"

// fingerprint is a scenario's simulated output as canonical JSON values
// by key: every serialized harness.Result field, the layer counts, the
// send-path CPU total and a digest of the per-call latency trace.
type fingerprint map[string]json.RawMessage

func makeFingerprint(res harness.Result, c counts) (fingerprint, error) {
	fp := fingerprint{}
	for _, part := range []any{res, c} {
		b, err := json.Marshal(part)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(b, &fp); err != nil {
			return nil, err
		}
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, s := range res.Trace.Samples() {
		binary.LittleEndian.PutUint64(buf[:], uint64(s))
		h.Write(buf[:])
	}
	fp["latency_digest"] = json.RawMessage(strconv.Quote(fmt.Sprintf("fnv64a:%016x/%d", h.Sum64(), res.Trace.Len())))
	fp["send_cpu_ns"] = json.RawMessage(strconv.FormatInt(int64(res.SendCPU), 10))
	return fp, nil
}

// digest is a short hash of the whole fingerprint, printed per scenario.
func (fp fingerprint) digest() string {
	b, _ := json.Marshal(fp) // keys sorted; values are already valid JSON
	sum := sha256.Sum256(b)
	return fmt.Sprintf("sha256:%x", sum[:8])
}

// diff reports the first key of want whose value got does not repeat
// byte for byte, or "" when they agree. Keys only got has (counters a
// later tree added) are not compared.
func (want fingerprint) diff(got fingerprint) string {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		g, ok := got[k]
		if !ok {
			return fmt.Sprintf("%s missing", k)
		}
		var w, v bytes.Buffer
		if json.Compact(&w, want[k]) != nil || json.Compact(&v, g) != nil || !bytes.Equal(w.Bytes(), v.Bytes()) {
			return fmt.Sprintf("%s = %.80s, want %.80s", k, g, want[k])
		}
	}
	return ""
}

// check returns why a scenario run fails, or "" when it passes: it must
// not panic, must issue every call its workload implies, and must repeat
// want when there is one.
func check(o outcome, want fingerprint) string {
	switch {
	case o.err != "":
		return o.err
	case o.calls < expectedCalls(o.sc):
		return fmt.Sprintf("short run: %d calls, want %d", o.calls, expectedCalls(o.sc))
	case want != nil:
		if d := want.diff(o.fp); d != "" {
			return "fingerprint differs: " + d
		}
	}
	return ""
}

// reference is the pinned fingerprint file: per workload, per pinned
// seed, one fingerprint per scenario in scenario order.
type reference struct {
	Note      string                              `json:"note"`
	Workloads map[string]map[string][]fingerprint `json:"workloads"`
}

const referenceNote = "Pinned simulated fingerprints. Rewrite only with -capture, and log each capture in README.md."

func loadReference(path string) (*reference, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ref reference
	if err := json.Unmarshal(b, &ref); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &ref, nil
}

// pinned returns the reference fingerprints for a workload and seed, or
// nil when the seed is not pinned.
func (r *reference) pinned(w string, seed int64) []fingerprint {
	return r.Workloads[w][strconv.FormatInt(seed, 10)]
}

// capture runs every workload once at each pinned seed and writes the
// reference file.
func capture(path string) error {
	ref := reference{Note: referenceNote, Workloads: map[string]map[string][]fingerprint{}}
	for _, w := range workloads {
		ref.Workloads[w.name] = map[string][]fingerprint{}
		for _, seed := range pinnedSeeds {
			var fps []fingerprint
			for _, sc := range w.scenarios(seed) {
				o := runScenario(sc)
				if why := check(o, nil); why != "" {
					return fmt.Errorf("%s: %s", sc.Name(), why)
				}
				fmt.Fprintf(os.Stderr, "captured %s %s\n", sc.Name(), o.fp.digest())
				fps = append(fps, o.fp)
			}
			ref.Workloads[w.name][strconv.FormatInt(seed, 10)] = fps
		}
	}
	b, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
