package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"
)

// spanNames are the benchmark's spans around its calls into client and
// core; each is reported as a p50 and a p99 in microseconds.
var spanNames = []string{
	"client.prepare_us", "client.submit_us", "client.exec_at_us", "client.result_us",
	"core.prepare_us", "core.exec_at_us",
}

// profModules are the buckets CPU-profile samples are charged to: the
// innermost energydb/internal/<module> frame of the sample, "gc" for
// garbage-collector work, and "other" for the rest.
var profModules = []string{
	"compress", "table", "exec", "opt", "sql", "core", "sched", "sim", "energy",
	"storage", "hw", "wal", "wire", "server", "client", "gc", "other",
}

// tracer records one traced round: spans around the benchmark's calls
// into the engine, Go runtime counters and a CPU profile over the timed
// phase. A nil *tracer records nothing, so an untraced round pays only a
// nil check per call.
type tracer struct {
	spans map[string][]time.Duration

	drain                              time.Duration // inside Drain and result pumps
	allocBytes, allocObjects, gcCycles float64
	prof                               map[string]float64 // samples per module

	rt  []metrics.Sample
	buf bytes.Buffer
}

var runtimeCounters = []string{"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects", "/gc/cycles/total:gc-cycles"}

func newTracer() *tracer {
	t := &tracer{spans: map[string][]time.Duration{}, prof: map[string]float64{}}
	for _, n := range runtimeCounters {
		t.rt = append(t.rt, metrics.Sample{Name: n})
	}
	return t
}

func (t *tracer) begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

func (t *tracer) end(name string, t0 time.Time) {
	if t == nil {
		return
	}
	t.spans[name] = append(t.spans[name], time.Since(t0))
}

// endDrain adds the time since t0, spent advancing the simulation, to
// engine.drain_s.
func (t *tracer) endDrain(t0 time.Time) {
	if t == nil {
		return
	}
	t.drain += time.Since(t0)
}

func (t *tracer) startTimed() {
	if t == nil {
		return
	}
	metrics.Read(t.rt)
	if err := pprof.StartCPUProfile(&t.buf); err != nil {
		panic(err) // only one profile runs at a time, and only here
	}
}

func (t *tracer) stopTimed() error {
	if t == nil {
		return nil
	}
	pprof.StopCPUProfile()
	after := make([]metrics.Sample, len(t.rt))
	for i := range after {
		after[i].Name = t.rt[i].Name
	}
	metrics.Read(after)
	t.allocBytes = float64(after[0].Value.Uint64() - t.rt[0].Value.Uint64())
	t.allocObjects = float64(after[1].Value.Uint64() - t.rt[1].Value.Uint64())
	t.gcCycles = float64(after[2].Value.Uint64() - t.rt[2].Value.Uint64())
	return chargeProfile(&t.buf, t.prof)
}

// chargeProfile decodes a gzipped pprof CPU profile and adds each
// sample's count to the module it is charged to.
func chargeProfile(r io.Reader, into map[string]float64) error {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range p.samples {
		into[p.module(s.locs)] += float64(s.count)
	}
	return nil
}

// module charges one stack (leaf first) to a profModules bucket.
func (p *profile) module(locs []uint64) string {
	owner := ""
	for _, id := range locs {
		for _, fn := range p.locFuncs[id] { // innermost inlined frame first
			name := p.strings[p.funcNames[fn]]
			if isGC(name) {
				return "gc"
			}
			if owner == "" {
				owner = internalModule(name)
			}
		}
	}
	if owner == "" {
		return "other"
	}
	return owner
}

func isGC(fn string) bool {
	switch fn {
	case "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject":
		return true
	}
	return strings.HasPrefix(fn, "runtime.gc")
}

// internalModule returns the bucket for a function of
// energydb/internal/<module>, or "" for any other function. Modules
// without a bucket of their own count as "other".
func internalModule(fn string) string {
	const prefix = "energydb/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	mod := fn[len(prefix):]
	if i := strings.IndexAny(mod, "./"); i >= 0 {
		mod = mod[:i]
	}
	for _, m := range profModules {
		if m == mod {
			return m
		}
	}
	return "other"
}

// profile is the part of a pprof profile.proto the benchmark reads.
type profile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames map[uint64]int64    // function id -> string table index
	strings   []string
}

type profSample struct {
	locs  []uint64
	count int64
}

// decodeProfile parses the protobuf wire format of profile.proto
// (github.com/google/pprof/proto/profile.proto), keeping only samples,
// locations, functions and the string table.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(field int, v uint64, msg []byte) error {
		switch field {
		case 2: // Sample
			var s profSample
			var vals []uint64
			err := eachField(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1: // location_id
					s.locs = appendVarints(s.locs, v, m)
				case 2: // value: [samples, cpu nanoseconds]
					vals = appendVarints(vals, v, m)
				}
				return nil
			})
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(m, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcNames {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, fmt.Errorf("function name index %d outside string table of %d", idx, len(p.strings))
		}
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", field)
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64 in field %d", field)
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length in field %d", field)
			}
			msg = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32 in field %d", field)
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, field)
		}
		if err := fn(field, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values: one varint, or
// a packed run of them.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := uvarint(packed)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) { return binary.Uvarint(b) }
