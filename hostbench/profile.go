package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"strings"
)

// sample is one profile sample: its call stack as function names,
// innermost first, and its weight (CPU nanoseconds or allocated bytes).
type sample struct {
	frames []string
	weight float64
}

// chargeTo names the layer a sample is charged to: the module of the
// innermost repo frame, so runtime work such as a channel send under
// (*sim.Proc).park or mallocgc under an encoder goes to the repo code
// that asked for it. Samples with no repo frame are runtime.gc when a
// garbage-collector frame is on the stack and runtime.sched otherwise.
func chargeTo(frames []string) string {
	for _, f := range frames {
		if m, ok := repoModule(f); ok {
			return m
		}
	}
	for _, f := range frames {
		if isGCFrame(f) {
			return "runtime.gc"
		}
	}
	return "runtime.sched"
}

// repoModule maps a function name to its layer when the function is
// repo code: repro/internal/<m> is m when m is a named layer, and any
// other repo or benchmark frame is "other".
func repoModule(fn string) (string, bool) {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			rest = rest[:i]
		}
		for _, m := range cpuModules {
			if m == rest {
				return m, true
			}
		}
		return "other", true
	}
	if strings.HasPrefix(fn, "repro.") || strings.HasPrefix(fn, "repro/") || strings.HasPrefix(fn, "main.") {
		return "other", true
	}
	return "", false
}

var gcFramePrefixes = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.scanobject", "runtime.scanstack", "runtime.scanblock", "runtime.greyobject",
	"runtime.sweepone", "runtime.(*gcWork)", "runtime.(*sweepLocked)", "runtime.(*mspan).sweep",
	"runtime.wbBufFlush",
}

func isGCFrame(fn string) bool {
	for _, p := range gcFramePrefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// shares charges every sample and returns each layer's share of the
// total weight; the shares sum to 1 when any weight was recorded.
func shares(samples []sample) map[string]float64 {
	out := map[string]float64{}
	total := 0.0
	for _, s := range samples {
		out[chargeTo(s.frames)] += s.weight
		total += s.weight
	}
	for m := range out {
		out[m] /= total
	}
	return out
}

var errProfile = errors.New("malformed profile")

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value (data nil) or its length-delimited bytes.
// Fixed-width fields, which the profile messages used here never carry,
// are skipped.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProfile
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProfile
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if key&7 == 5 {
				w = 4
			}
			if len(b) < w {
				return errProfile
			}
			b = b[w:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProfile
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return errProfile
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints decodes a repeated integer field, packed or not.
func varints(v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errProfile
		}
		out = append(out, x)
		data = data[n:]
	}
	return out, nil
}

// parseProfile decodes a gzipped pprof profile (as runtime/pprof writes
// it) into samples weighted by their last value, CPU nanoseconds for a
// CPU profile.
func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{}   // function id → string index
	locFuncs := map[uint64][]uint64{} // location id → function ids, innermost first
	type rawSample struct {
		locs []uint64
		val  int64
	}
	var raws []rawSample
	err = fields(raw, func(num int, _ uint64, msg []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := fields(msg, func(num int, v uint64, data []byte) error {
				xs, err := varints(v, data)
				switch {
				case err != nil:
					return err
				case num == 1:
					s.locs = append(s.locs, xs...)
				case num == 2 && len(xs) > 0:
					s.val = int64(xs[len(xs)-1])
				}
				return nil
			})
			raws = append(raws, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(msg, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := fields(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	samples := make([]sample, 0, len(raws))
	for _, r := range raws {
		s := sample{weight: float64(r.val)}
		for _, l := range r.locs {
			for _, f := range locFuncs[l] {
				if i := funcName[f]; i < uint64(len(strs)) {
					s.frames = append(s.frames, strs[i])
				}
			}
		}
		samples = append(samples, s)
	}
	return samples, nil
}

// heapSnap is the runtime's cumulative allocation profile by stack.
type heapSnap map[[32]uintptr]runtime.MemProfileRecord

// heapSnapshot collects garbage first, since the allocation profile is
// published as of the most recent collection.
func heapSnapshot() heapSnap {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	for n := 256; ; n *= 2 {
		recs = make([]runtime.MemProfileRecord, n)
		if m, ok := runtime.MemProfile(recs, true); ok {
			recs = recs[:m]
			break
		}
	}
	snap := make(heapSnap, len(recs))
	for _, r := range recs {
		snap[r.Stack0] = r
	}
	return snap
}

// allocSamples turns the allocations between two snapshots into samples
// weighted by bytes, scaled up for the profiler's sampling rate the way
// pprof does.
func allocSamples(before, after heapSnap) []sample {
	var out []sample
	rate := float64(runtime.MemProfileRate)
	for stack, a := range after {
		objs := a.AllocObjects - before[stack].AllocObjects
		size := a.AllocBytes - before[stack].AllocBytes
		if objs <= 0 || size <= 0 {
			continue
		}
		scale := 1.0
		if rate > 1 {
			scale = 1 / (1 - math.Exp(-float64(size)/float64(objs)/rate))
		}
		s := sample{weight: float64(size) * scale}
		frames := runtime.CallersFrames(a.Stack())
		for {
			f, more := frames.Next()
			s.frames = append(s.frames, f.Function)
			if !more {
				break
			}
		}
		out = append(out, s)
	}
	return out
}
