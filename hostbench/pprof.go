package main

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzipped profile.proto that runtime/pprof
// writes, enough to attribute CPU samples to the package of their leaf
// function. Only the standard library is available, so the few message
// fields needed are decoded by hand:
//
//	Profile:  1 sample_type (ValueType), 2 sample, 4 location,
//	          5 function, 6 string_table
//	ValueType: 1 type, 2 unit          (string-table indexes)
//	Sample:   1 location_id (leaf first), 2 value, 3 label
//	Label:    1 key, 2 str             (string-table indexes)
//	Location: 1 id, 4 line             (innermost inlined frame first)
//	Line:     1 function_id
//	Function: 1 id, 2 name             (string-table index)

// pbField is one decoded protobuf field.
type pbField struct {
	num  int
	wire int
	v    uint64 // varint / fixed value
	b    []byte // length-delimited payload
}

func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n <= 0 {
			return nil, errors.New("bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = pbVarint(b)
			if n <= 0 {
				return nil, errors.New("bad varint")
			}
		case 1:
			if len(b) < 8 {
				return nil, errors.New("short fixed64")
			}
			n = 8
		case 2:
			l, m := pbVarint(b)
			if m <= 0 || uint64(len(b)-m) < l {
				return nil, errors.New("bad length")
			}
			f.b = b[m : m+int(l)]
			n = m + int(l)
		case 5:
			if len(b) < 4 {
				return nil, errors.New("short fixed32")
			}
			n = 4
		default:
			return nil, fmt.Errorf("unsupported wire type %d", f.wire)
		}
		b = b[n:]
		out = append(out, f)
	}
	return out, nil
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, -1
}

// pbInts appends a repeated integer field, packed or not.
func pbInts(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	for b := f.b; len(b) > 0; {
		v, n := pbVarint(b)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

// cpuByLayer reads a CPU profile and returns the nanoseconds of CPU
// time whose leaf frame lies in each layer (see layerOf), counting only
// samples carrying the label key=val (all samples when key is empty).
func cpuByLayer(r io.Reader, key, val string) (map[string]float64, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var strs []string
	var sampleTypes, samples, locs, funcs []pbField
	for _, f := range top {
		switch f.num {
		case 1:
			sampleTypes = append(sampleTypes, f)
		case 2:
			samples = append(samples, f)
		case 4:
			locs = append(locs, f)
		case 5:
			funcs = append(funcs, f)
		case 6:
			strs = append(strs, string(f.b))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	// The CPU-time value is the sample type measured in nanoseconds.
	nsIdx := -1
	for i, st := range sampleTypes {
		fs, err := pbFields(st.b)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		for _, f := range fs {
			if f.num == 2 && str(f.v) == "nanoseconds" {
				nsIdx = i
			}
		}
	}
	if nsIdx < 0 {
		return nil, errors.New("cpu profile: no nanoseconds sample type")
	}
	funcName := map[uint64]string{}
	for _, fn := range funcs {
		fs, err := pbFields(fn.b)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		var id, name uint64
		for _, f := range fs {
			switch f.num {
			case 1:
				id = f.v
			case 2:
				name = f.v
			}
		}
		funcName[id] = str(name)
	}
	locLayer := map[uint64]string{}
	for _, loc := range locs {
		fs, err := pbFields(loc.b)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		var id uint64
		layer := ""
		for _, f := range fs {
			switch {
			case f.num == 1:
				id = f.v
			case f.num == 4 && layer == "":
				lf, err := pbFields(f.b)
				if err != nil {
					return nil, fmt.Errorf("cpu profile: %w", err)
				}
				for _, l := range lf {
					if l.num == 1 {
						layer = layerOf(funcName[l.v])
					}
				}
			}
		}
		locLayer[id] = layer
	}
	out := map[string]float64{}
	for _, s := range samples {
		fs, err := pbFields(s.b)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		var ids, vals []uint64
		labelled := key == ""
		for _, f := range fs {
			switch f.num {
			case 1:
				ids, err = pbInts(ids, f)
			case 2:
				vals, err = pbInts(vals, f)
			case 3:
				var k, v uint64
				lf, lerr := pbFields(f.b)
				err = lerr
				for _, l := range lf {
					switch l.num {
					case 1:
						k = l.v
					case 2:
						v = l.v
					}
				}
				if str(k) == key && str(v) == val {
					labelled = true
				}
			}
			if err != nil {
				return nil, fmt.Errorf("cpu profile: %w", err)
			}
		}
		if !labelled || len(ids) == 0 || nsIdx >= len(vals) {
			continue
		}
		out[locLayer[ids[0]]] += float64(vals[nsIdx])
	}
	return out, nil
}

// modulePrefix is the import-path prefix of the simulator's packages.
const modulePrefix = "sgxbench/internal/"

// layerOf names the layer a function belongs to: the simulator package
// for sgxbench/internal/<pkg> functions, "runtime" for the Go runtime,
// "bench" for this benchmark and "other" for the rest of the standard
// library. name is a symbol as the profile records it, such as
// "sgxbench/internal/cache.(*Cache).AccessOrFill".
func layerOf(name string) string {
	pkg, _, _ := strings.Cut(name, "[") // type arguments may hold paths
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case strings.HasPrefix(pkg, modulePrefix):
		return strings.SplitN(pkg[len(modulePrefix):], "/", 2)[0]
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "main", pkg == "sgxbench/hostbench":
		return "bench"
	}
	return "other"
}
