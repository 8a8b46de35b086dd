package harness

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Layers lists the CPU ledger's buckets in report order. Each is one of
// the repository's modules, except hhash, which is split by the operation
// the sample was spent in, "other" (module packages that are not a layer
// of their own: obs, model, stats and the like), "bench" (this harness:
// span recording and round timing) and "runtime" (samples with no module
// frame at all: GC, the scheduler, syscalls the module did not make).
var Layers = []string{
	"pag", "engine", "sim", "core", "acting", "securelog",
	"hhash.prime", "hhash.lift", "hhash.verify", "hhash.other",
	"pki", "wire", "transport", "membership", "update", "streaming",
	"judicial", "scenario", "other", "bench", "runtime",
}

const (
	modulePrefix = "repro"
	benchPrefix  = "repro/perfbench"
	internalPath = "repro/internal/"
)

// namedLayers are the module packages under internal/ that are ledger
// layers of their own (hhash is split separately).
var namedLayers = map[string]bool{
	"engine": true, "sim": true, "core": true, "acting": true,
	"securelog": true, "pki": true, "wire": true, "transport": true,
	"membership": true, "update": true, "streaming": true,
	"judicial": true, "scenario": true,
}

// funcPackage returns the import path of a fully qualified Go function
// name such as "repro/internal/hhash.(*Hasher).Lift" or "math/big.nat.add".
// Type arguments are cut first: they may name other packages.
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// inModule reports whether a function belongs to the repository's module.
func inModule(pkg string) bool {
	return pkg == modulePrefix || strings.HasPrefix(pkg, modulePrefix+"/")
}

// hhashOp classifies one hhash function into the operation it serves, or
// "" when the function alone does not say (helpers such as the Montgomery
// kernels, which both lifting and verification call).
func hhashOp(fn string) string {
	name := fn[strings.LastIndexByte(fn, '.')+1:]
	switch {
	case strings.Contains(fn, "PrimePool"), name == "pregenPrime",
		name == "GeneratePrimeKey", name == "GenerateParams":
		return "hhash.prime"
	case name == "Lift", name == "Hash", name == "HashSet":
		return "hhash.lift"
	case strings.HasPrefix(name, "Verify"), strings.HasPrefix(name, "verify"),
		name == "MultiExp":
		return "hhash.verify"
	}
	return ""
}

// Bucket assigns one stack, leaf first, to a ledger layer: the layer of
// its innermost module frame, so time spent in the standard library (say
// math/big under Hasher.Lift) is charged to the module code that called
// it. Inside hhash the innermost frame that names an operation decides
// the sub-bucket. A stack with no module frame is "runtime".
func Bucket(stack []string) string {
	for i, fn := range stack {
		pkg := funcPackage(fn)
		if !inModule(pkg) {
			continue
		}
		switch {
		case pkg == modulePrefix:
			return "pag"
		case pkg == benchPrefix || strings.HasPrefix(pkg, benchPrefix+"/"):
			return "bench"
		case pkg == internalPath+"hhash":
			for _, outer := range stack[i:] {
				if funcPackage(outer) != internalPath+"hhash" {
					break
				}
				if op := hhashOp(outer); op != "" {
					return op
				}
			}
			return "hhash.other"
		case strings.HasPrefix(pkg, internalPath):
			name := strings.TrimPrefix(pkg, internalPath)
			if namedLayers[name] {
				return name
			}
		}
		return "other"
	}
	return "runtime"
}

// Ledger is a CPU profile folded into layers.
type Ledger struct {
	// CPUNanos is the profile's total sampled CPU time.
	CPUNanos int64
	// ByLayer holds each layer's sampled CPU time; the values sum to
	// CPUNanos.
	ByLayer map[string]int64
}

// Share returns a layer's fraction of the profiled CPU.
func (l Ledger) Share(layer string) float64 {
	if l.CPUNanos == 0 {
		return 0
	}
	return float64(l.ByLayer[layer]) / float64(l.CPUNanos)
}

// FoldProfile decodes a runtime/pprof CPU profile (gzipped profile.proto)
// and folds its samples into a Ledger.
func FoldProfile(data []byte) (Ledger, error) {
	p, err := decodeProfile(data)
	if err != nil {
		return Ledger{}, err
	}
	cpu := -1
	for i, t := range p.sampleTypes {
		if t == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return Ledger{}, errors.New("ledger: profile has no cpu sample type")
	}
	led := Ledger{ByLayer: make(map[string]int64, len(Layers))}
	var stack []string
	for _, s := range p.samples {
		if cpu >= len(s.values) {
			return Ledger{}, errors.New("ledger: sample without a cpu value")
		}
		stack = stack[:0]
		for _, loc := range s.locations {
			stack = append(stack, p.locations[loc]...)
		}
		v := s.values[cpu]
		led.ByLayer[Bucket(stack)] += v
		led.CPUNanos += v
	}
	return led, nil
}

// profile is the part of profile.proto the ledger reads.
type profile struct {
	sampleTypes []string
	samples     []sample
	// locations maps a location id to its function names, innermost
	// (inlined callee) first.
	locations map[uint64][]string
}

type sample struct {
	locations []uint64
	values    []int64
}

// decodeProfile parses the fields of profile.proto the ledger needs:
// sample_type (1), sample (2), location (4), function (5) and
// string_table (6).
func decodeProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("ledger: profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("ledger: profile: %w", err)
	}
	var (
		strs      []string
		typeIdx   []int64
		samples   []sample
		locLines  = map[uint64][]uint64{} // location -> function ids
		funcNames = map[uint64]int64{}    // function id -> string index
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type=1, unit=2}
			var t int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					t = int64(v)
				}
				return nil
			})
			typeIdx = append(typeIdx, t)
			return err
		case 2: // sample: location_id=1, value=2
			var s sample
			err := eachField(b, func(n, w int, v uint64, pb []byte) error {
				switch n {
				case 1:
					return appendVarints(w, v, pb, func(x uint64) { s.locations = append(s.locations, x) })
				case 2:
					return appendVarints(w, v, pb, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location: id=1, line=4 {function_id=1}
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(lb, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function: id=1, name=2
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			if wire != wireBytes {
				return errors.New("ledger: malformed string table")
			}
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) (string, error) {
		if i < 0 || i >= int64(len(strs)) {
			return "", fmt.Errorf("ledger: string index %d out of range", i)
		}
		return strs[i], nil
	}
	p := &profile{samples: samples, locations: make(map[uint64][]string, len(locLines))}
	for _, t := range typeIdx {
		s, err := str(t)
		if err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, s)
	}
	for id, fns := range locLines {
		names := make([]string, len(fns))
		for i, f := range fns {
			s, err := str(funcNames[f])
			if err != nil {
				return nil, err
			}
			names[i] = s
		}
		p.locations[id] = names
	}
	for _, s := range samples {
		for _, loc := range s.locations {
			if _, ok := p.locations[loc]; !ok {
				return nil, fmt.Errorf("ledger: sample refers to unknown location %d", loc)
			}
		}
	}
	return p, nil
}

const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

// eachField walks the top-level fields of one protobuf message, handing
// varints in v and length-delimited payloads in b.
func eachField(buf []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("ledger: malformed field key")
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("ledger: malformed varint")
			}
			buf = buf[n:]
		case wireBytes:
			l, n := binary.Uvarint(buf)
			if n <= 0 || l > uint64(len(buf)-n) {
				return errors.New("ledger: malformed length")
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case wire64:
			if len(buf) < 8 {
				return errors.New("ledger: truncated fixed64")
			}
			buf = buf[8:]
		case wire32:
			if len(buf) < 4 {
				return errors.New("ledger: truncated fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("ledger: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints handles a repeated varint field in either its packed or
// its one-value-per-field encoding.
func appendVarints(wire int, v uint64, packed []byte, add func(uint64)) error {
	if wire == wireVarint {
		add(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("ledger: malformed packed varint")
		}
		add(x)
		packed = packed[n:]
	}
	return nil
}
