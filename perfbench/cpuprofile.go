package main

// Per-layer CPU shares from a CPU profile of the traced pass. The profile
// is runtime/pprof's gzipped protobuf; the few message fields needed here
// are decoded directly, so the benchmark stays stdlib-only.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime/pprof"
	"strings"
)

// cpuLayers are the layers a CPU share is reported for.
var cpuLayers = []string{"event", "phy", "mac", "slotted", "backoff", "traffic",
	"engine", "aggregate", "store", "serve", "json", "net", "gc"}

// packageLayers maps a Go package to its layer; net and the packages
// under it are the net layer. Packages without a layer (the runtime, rng,
// os, syscall, ...) have their time charged to the nearest caller that has
// one.
var packageLayers = map[string]string{
	"repro/internal/event":   "event",
	"repro/internal/phy":     "phy",
	"repro/internal/mac":     "mac",
	"repro/internal/core":    "mac",
	"repro/internal/slotted": "slotted",
	"repro/internal/backoff": "backoff",
	"repro/internal/traffic": "traffic",
	"repro/internal/harness": "engine",
	"repro/internal/stats":   "aggregate",
	"repro/internal/store":   "store",
	"repro/internal/serve":   "serve",
	"repro/internal/obs":     "serve",
	"encoding/json":          "json",
}

// rootFileLayers attributes the root repro package by file; its other
// files (scenario, options, results) count as engine.
var rootFileLayers = map[string]string{
	"store.go":     "store",
	"aggregate.go": "aggregate",
	"report.go":    "aggregate",
	"codec.go":     "serve",
}

// gcFrames mark a sample as garbage-collector work wherever they appear
// in its stack: background marking and sweeping, and mark assists charged
// to allocating goroutines.
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone", "runtime.markroot"}

// cpuProfile is the CPU time of a profile, per layer.
type cpuProfile struct {
	total  int64
	layers map[string]int64
}

// shares returns each layer's share of all sampled CPU time.
func (p cpuProfile) shares() map[string]float64 {
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		out[l] = ratio(float64(p.layers[l]), float64(p.total))
	}
	return out
}

// profileCPU runs f under the CPU profiler and attributes the profile.
func profileCPU(f func() error) (cpuProfile, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return cpuProfile{}, err
	}
	err := f()
	pprof.StopCPUProfile()
	if err != nil {
		return cpuProfile{}, err
	}
	return parseCPUProfile(&buf)
}

// funcPackage returns the import path of a symbol such as
// "repro/internal/phy.(*Medium).endTx". Type arguments are cut off first,
// since they may hold other import paths.
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// frameLayer returns the layer a stack frame belongs to, or "".
func frameLayer(fn, file string) string {
	pkg := funcPackage(fn)
	if pkg == "repro" {
		if l, ok := rootFileLayers[filepath.Base(file)]; ok {
			return l
		}
		return "engine"
	}
	if pkg == "net" || strings.HasPrefix(pkg, "net/") {
		return "net"
	}
	return packageLayers[pkg]
}

// sampleLayer attributes one stack, leaf first.
func sampleLayer(stack []frame) string {
	for _, f := range stack {
		for _, g := range gcFrames {
			if f.fn == g {
				return "gc"
			}
		}
	}
	for _, f := range stack {
		if l := frameLayer(f.fn, f.file); l != "" {
			return l
		}
	}
	return ""
}

type frame struct{ fn, file string }

// parseCPUProfile decodes a gzipped profile.proto and sums each sample's
// CPU nanoseconds into its layer.
func parseCPUProfile(r io.Reader) (cpuProfile, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return cpuProfile{}, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return cpuProfile{}, fmt.Errorf("cpu profile: %w", err)
	}

	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		sampleTypes []int64 // string index of each value's type
		samples     []sample
		locations   = map[uint64][]uint64{} // location id -> function ids, innermost first
		functions   = map[uint64][2]int64{} // function id -> (name, file) string indexes
		strs        []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					sampleTypes = append(sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name, file int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				case 4:
					file = int64(v)
				}
				return nil
			})
			functions[id] = [2]int64{name, file}
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return cpuProfile{}, fmt.Errorf("cpu profile: %w", err)
	}

	cpu := -1
	for i, t := range sampleTypes {
		if t >= 0 && t < int64(len(strs)) && strs[t] == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return cpuProfile{}, errors.New("cpu profile: no cpu sample type")
	}
	str := func(i int64) string {
		if i >= 0 && i < int64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	p := cpuProfile{layers: map[string]int64{}}
	var stack []frame
	for _, s := range samples {
		if cpu >= len(s.values) {
			continue
		}
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fid := range locations[loc] {
				f := functions[fid]
				stack = append(stack, frame{str(f[0]), str(f[1])})
			}
		}
		ns := s.values[cpu]
		p.total += ns
		if l := sampleLayer(stack); l != "" {
			p.layers[l] += ns
		}
	}
	return p, nil
}

// eachField calls f for every field of a protobuf message: v is the value
// of a varint field, b the payload of a length-delimited one. Fixed-width
// fields are skipped; profile.proto uses none that matter here.
func eachField(msg []byte, f func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field's values, which arrive
// either one per field (v) or packed into one payload (b).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// uvarint decodes a protobuf varint, returning its length (0 on error).
func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
