package main

// Crypto microbenchmark recorder: -hhash <path> times the homomorphic
// hash hot paths (lift, multi-exp verification, prime generation) with
// testing.Benchmark at prime bits equal to modulus bits, the session
// default, and records the median µs/op of benchRepeats runs with its
// quartiles, allocs/op, the core count and the git revision, so an
// optimisation's effect is an artifact of the repository rather than a
// claim in a commit message. Build the tool with go build from a clean
// checkout so the revision is stamped.

import (
	"encoding/json"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"repro/internal/hhash"
)

// benchRepeats is how many times each -hhash operation and each
// -transport session is timed; a row records the median and the
// quartiles (medianIQR).
const benchRepeats = 5

// hhashResult is one (operation, modulus size) measurement.
type hhashResult struct {
	Op          string     `json:"op"`
	ModulusBits int        `json:"modulus_bits"`
	PrimeBits   int        `json:"prime_bits"`
	Preds       int        `json:"preds,omitempty"`
	MicrosPerOp float64    `json:"us_per_op"`
	MicrosIQR   [2]float64 `json:"us_per_op_iqr"`
	AllocsPerOp int64      `json:"allocs_per_op"`
}

type hhashReport struct {
	Benchmark   string        `json:"benchmark"`
	Revision    string        `json:"revision"`
	Dirty       bool          `json:"dirty"`
	NumCPU      int           `json:"num_cpu"`
	GoMaxProcs  int           `json:"gomaxprocs"`
	Repeats     int           `json:"repeats"`
	GeneratedAt string        `json:"generated_at"`
	Results     []hhashResult `json:"results"`
}

// cryptoBench builds a j-predecessor monitor-verification instance at the
// given modulus size (fixed seed: runs are comparable across commits).
func cryptoBench(modBits, primeBits, preds int) (*hhash.Hasher, []*big.Int, []hhash.Key, *big.Int, error) {
	rnd := rand.New(rand.NewSource(42))
	params, err := hhash.GenerateParams(rnd, modBits)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	h := hhash.NewHasher(params, nil)
	primes := make([]hhash.Key, preds)
	atts := make([]*big.Int, preds)
	for j := range primes {
		if primes[j], err = hhash.GeneratePrimeKey(rnd, primeBits); err != nil {
			return nil, nil, nil, nil, err
		}
		atts[j] = h.Hash(primes[j], []byte(fmt.Sprintf("served set %d", j)))
	}
	rems := make([]hhash.Key, preds)
	ack := h.Identity()
	for j := range primes {
		rems[j] = hhash.OneKey()
		for i := range primes {
			if i != j {
				rems[j] = rems[j].Mul(primes[i])
			}
		}
		ack = h.Combine(ack, h.Lift(atts[j], rems[j]))
	}
	return h, atts, rems, ack, nil
}

// medianIQR sorts xs in place and returns its median and quartiles.
func medianIQR(xs []float64) (float64, [2]float64) {
	sort.Float64s(xs)
	n := len(xs)
	return xs[n/2], [2]float64{xs[n/4], xs[(3*n)/4]}
}

// record times fn benchRepeats times and appends the median row.
func record(report *hhashReport, op string, modBits, preds int, fn func(b *testing.B)) {
	us := make([]float64, benchRepeats)
	var allocs int64
	for i := range us {
		r := testing.Benchmark(fn)
		us[i] = float64(r.NsPerOp()) / 1e3
		allocs = r.AllocsPerOp()
	}
	med, iqr := medianIQR(us)
	report.Results = append(report.Results, hhashResult{
		Op:          op,
		ModulusBits: modBits,
		PrimeBits:   modBits,
		Preds:       preds,
		MicrosPerOp: med,
		MicrosIQR:   iqr,
		AllocsPerOp: allocs,
	})
}

// buildRevision returns the VCS revision stamped into the binary by go
// build, and whether the tree was modified.
func buildRevision() (string, bool) {
	rev, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	return rev, dirty
}

func recordHHashBench(path string) error {
	const preds = 4
	rev, dirty := buildRevision()
	report := hhashReport{
		Benchmark:   "hhash",
		Revision:    rev,
		Dirty:       dirty,
		NumCPU:      runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Repeats:     benchRepeats,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}
	for _, modBits := range []int{128, 256, 512} {
		h, atts, rems, ack, err := cryptoBench(modBits, modBits, preds)
		if err != nil {
			return fmt.Errorf("hhash bench setup at %d bits: %w", modBits, err)
		}
		v := h.Embed([]byte("the update payload under benchmark"))
		key := rems[0].Mul(hhash.OneKey())
		record(&report, "lift", modBits, 0, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.Lift(v, key)
			}
		})
		record(&report, "verify_forwarding_multiexp", modBits, preds, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if ok, err := h.VerifyForwarding(atts, rems, ack); err != nil || !ok {
					b.Fatalf("verification failed: ok=%v err=%v", ok, err)
				}
			}
		})
		exps := make([]*big.Int, len(rems))
		for i, r := range rems {
			exps[i] = r.Exponent()
		}
		record(&report, "multiexp", modBits, preds, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := h.MultiExp(atts, exps); err != nil {
					b.Fatal(err)
				}
			}
		})
		record(&report, "prime_gen", modBits, 0, func(b *testing.B) {
			rnd := rand.New(rand.NewSource(42))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := hhash.GeneratePrimeKey(rnd, modBits); err != nil {
					b.Fatal(err)
				}
			}
		})
		fmt.Fprintf(os.Stderr, "pag-bench: hhash %d-bit modulus done\n", modBits)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		os.Stdout.Write(data)
		return nil
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "pag-bench: wrote %s\n", path)
	return nil
}
