package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the javasim/internal modules the benchmark attributes host
// time to, in the order the per-layer table prints them.
var layers = []string{
	"sim", "sched", "vm", "workload", "objmodel", "heap", "gc", "locks",
	"machine", "traffic", "fit", "report", "core", "store", "serve",
}

// Buckets for CPU samples that no layer frame claims.
const (
	bucketRuntime = "runtime"
	bucketOther   = "other"
)

// cpuShares buckets a runtime/pprof CPU profile by layer and returns each
// bucket's share of sampled CPU time; the shares sum to 1. A sample
// belongs to the innermost frame of its stack that lies in a layer, so
// library and runtime work a layer calls into (math.Log under workload
// generation, mallocgc under the interpreter) is charged to that layer:
// the share is the ceiling on what optimising the layer could save. The
// simulator's random-number generators (sim.Rand, sim.Zipf) count as such
// a library too: their draws are charged to the layer that asked for
// them, so workload generation shows as workload, not as sim. A sample
// with no layer frame is "runtime" when its leaf is in the Go runtime (GC
// workers, the scheduler) and "other" otherwise (the benchmark's own
// code, net/http plumbing).
func cpuShares(profile []byte) (map[string]float64, error) {
	p, err := parseProfile(profile)
	if err != nil {
		return nil, err
	}
	isLayer := make(map[string]bool, len(layers))
	for _, l := range layers {
		isLayer[l] = true
	}
	byBucket := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		bucket := ""
		leaf := ""
	stack:
		for _, locID := range s.locations {
			for _, fn := range p.locations[locID] {
				name := p.functions[fn]
				if leaf == "" {
					leaf = name
				}
				if mod, ok := strings.CutPrefix(name, "javasim/internal/"); ok && !randomFunc(mod) {
					if i := strings.IndexAny(mod, "./"); i >= 0 {
						mod = mod[:i]
					}
					if isLayer[mod] {
						bucket = mod
						break stack
					}
				}
			}
		}
		if bucket == "" {
			bucket = bucketOther
			if runtimeFunc(leaf) {
				bucket = bucketRuntime
			}
		}
		byBucket[bucket] += s.value
		total += s.value
	}
	if total == 0 {
		return nil, errors.New("cpu profile holds no samples")
	}
	shares := make(map[string]float64, len(layers)+2)
	for _, b := range append(layers[:len(layers):len(layers)], bucketRuntime, bucketOther) {
		shares[b] = float64(byBucket[b]) / float64(total)
	}
	return shares, nil
}

// randomFunc reports whether a javasim/internal symbol (prefix removed)
// belongs to the simulator's random-number generators in sim/rand.go.
func randomFunc(name string) bool {
	for _, p := range []string{"sim.(*Rand)", "sim.NewRand", "sim.(*Zipf)", "sim.NewZipf", "sim.splitmix64", "sim.rotl"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// runtimeFunc reports whether a symbol belongs to the Go runtime.
func runtimeFunc(name string) bool {
	return strings.HasPrefix(name, "runtime.") || strings.HasPrefix(name, "runtime/") ||
		strings.HasPrefix(name, "internal/runtime/")
}

// profile is the part of a pprof profile the bucketing needs.
type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]string   // function id -> name
}

type profSample struct {
	locations []uint64 // leaf first
	value     int64
}

// parseProfile decodes a gzip-compressed profile.proto message (the
// format runtime/pprof writes) far enough to attribute CPU time to
// functions. The value used is the "cpu" sample type when present.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]string{}}
	var (
		sampleTypes [][]byte
		rawSamples  [][]byte
		rawFuncs    [][]byte
		strs        []string
	)
	err := eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 1:
			sampleTypes = append(sampleTypes, b)
		case 2:
			rawSamples = append(rawSamples, b)
		case 4:
			return p.addLocation(b)
		case 5:
			rawFuncs = append(rawFuncs, b)
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	valueIdx := len(sampleTypes) - 1
	for i, st := range sampleTypes {
		var typ uint64
		if err := eachField(st, func(num int, v uint64, _ []byte) error {
			if num == 1 {
				typ = v
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if str(typ) == "cpu" {
			valueIdx = i
		}
	}
	for _, f := range rawFuncs {
		var id, name uint64
		if err := eachField(f, func(num int, v uint64, _ []byte) error {
			switch num {
			case 1:
				id = v
			case 2:
				name = v
			}
			return nil
		}); err != nil {
			return nil, err
		}
		p.functions[id] = str(name)
	}
	for _, raw := range rawSamples {
		var s profSample
		var values []uint64
		if err := eachField(raw, func(num int, v uint64, b []byte) error {
			switch num {
			case 1:
				return appendUints(&s.locations, v, b)
			case 2:
				return appendUints(&values, v, b)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if valueIdx >= 0 && valueIdx < len(values) {
			s.value = int64(values[valueIdx])
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// addLocation records one Location message's function ids; a location
// with several lines is a chain of inlined calls, innermost first.
func (p *profile) addLocation(b []byte) error {
	var id uint64
	var funcs []uint64
	err := eachField(b, func(num int, v uint64, line []byte) error {
		switch num {
		case 1:
			id = v
		case 4:
			return eachField(line, func(num int, v uint64, _ []byte) error {
				if num == 1 {
					funcs = append(funcs, v)
				}
				return nil
			})
		}
		return nil
	})
	p.locations[id] = funcs
	return err
}

// appendUints appends a repeated uint64 field occurrence, packed (b set)
// or not (v set).
func appendUints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("cpu profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// eachField walks a protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes (b non-nil).
// Fixed-width fields are skipped.
func eachField(data []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("cpu profile: bad field key")
		}
		data = data[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(data)
			if n <= 0 {
				return errors.New("cpu profile: bad varint")
			}
			data = data[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(data) < 8 {
				return errors.New("cpu profile: truncated fixed64")
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("cpu profile: truncated field")
			}
			b := data[n : n+int(l)]
			data = data[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(data) < 4 {
				return errors.New("cpu profile: truncated fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("cpu profile: unsupported wire type %d", key&7)
		}
	}
	return nil
}
