package main

// CPU-profile attribution. A traced run records a runtime/pprof CPU
// profile of the whole benchmark process (simulator, servers and
// clients alike) and charges each sample to the package of its leaf
// frame, so <layer>.cpu_share is the layer's self time over all
// sampled CPU time. The profile is gzipped protobuf (profile.proto);
// the few fields attribution needs are decoded here, since the module
// takes no dependencies.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// layerPackages maps each reported <layer>.cpu_share to the import
// path whose leaf samples it counts. Subpackages count too (net/http
// includes net/http/internal).
var layerPackages = []struct{ layer, pkg string }{
	{"sim", "tsnoop/internal/sim"},
	{"tsnet", "tsnoop/internal/tsnet"},
	{"tssnoop", "tsnoop/internal/protocol/tssnoop"},
	{"directory", "tsnoop/internal/protocol/directory"},
	{"network", "tsnoop/internal/network"},
	{"processor", "tsnoop/internal/processor"},
	{"cache", "tsnoop/internal/cache"},
	{"coherence", "tsnoop/internal/coherence"},
	{"workload", "tsnoop/internal/workload"},
	{"service", "tsnoop/internal/service"},
	{"nethttp", "net/http"},
	{"cluster", "tsnoop/internal/cluster"},
}

// cpuProfile is a running CPU profile.
type cpuProfile struct{ buf bytes.Buffer }

// startProfile starts profiling the process into memory.
func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns each package's share of the
// sampled CPU time.
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	return packageShares(p.buf.Bytes())
}

// reportShares sets every <layer>.cpu_share from package shares.
func reportShares(b *bench, shares map[string]float64) {
	for _, lp := range layerPackages {
		var s float64
		for pkg, v := range shares {
			if pkg == lp.pkg || strings.HasPrefix(pkg, lp.pkg+"/") {
				s += v
			}
		}
		b.set(lp.layer+".cpu_share", s)
	}
}

// packageOf returns the import path of the package a profiled function
// symbol belongs to: "tsnoop/internal/tsnet.(*Network).send.func1" is
// in "tsnoop/internal/tsnet", "runtime.mallocgc" in "runtime". Type
// arguments are cut first, since they may name other packages.
func packageOf(symbol string) string {
	if i := strings.IndexByte(symbol, '['); i >= 0 {
		symbol = symbol[:i]
	}
	slash := strings.LastIndexByte(symbol, '/')
	if dot := strings.IndexByte(symbol[slash+1:], '.'); dot >= 0 {
		return symbol[:slash+1+dot]
	}
	return symbol
}

// packageShares decodes a gzipped pprof profile and returns, per
// package, the share of the first sample value (the sample count for
// CPU profiles) whose leaf frame lies in it.
func packageShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	byPkg := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.values) == 0 || len(s.locations) == 0 {
			continue
		}
		v := s.values[0]
		total += v
		name := "unknown"
		// The first location is the leaf; its first line is the
		// innermost of any inlined calls.
		if lines := p.locations[s.locations[0]]; len(lines) > 0 {
			if fn, ok := p.functions[lines[0]]; ok && fn < uint64(len(p.strings)) {
				name = p.strings[fn]
			}
		}
		byPkg[packageOf(name)] += v
	}
	shares := make(map[string]float64, len(byPkg))
	for pkg, v := range byPkg {
		shares[pkg] = ratio(float64(v), float64(total))
	}
	return shares, nil
}

// profile holds the decoded parts of a pprof profile.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]uint64   // function id -> name string index
	strings   []string
}

type sample struct {
	locations []uint64
	values    []int64
}

// Field numbers of profile.proto.
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profString   = 6

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

func decodeProfile(data []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]uint64{}}
	err := eachField(data, func(num int, _ uint64, msg []byte) error {
		switch num {
		case profSample:
			var s sample
			err := eachField(msg, func(num int, v uint64, b []byte) error {
				switch num {
				case sampleLocation:
					return appendUints(&s.locations, v, b)
				case sampleValue:
					var vs []uint64
					if err := appendUints(&vs, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(num int, v uint64, b []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case profFunction:
			var id, name uint64
			err := eachField(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = v
				}
				return nil
			})
			p.functions[id] = name
			return err
		case profString:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped; profile.proto uses none that
// attribution needs.
func eachField(data []byte, fn func(num int, varint uint64, bytes []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errTruncated
			}
			data = data[8:]
			continue
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errTruncated
			}
			data = data[4:]
			continue
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated varint field's values: a single
// unpacked value (b == nil) or a packed run.
func appendUints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
