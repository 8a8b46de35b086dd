package harness

import (
	"bytes"
	"math/big"
	"runtime/pprof"
	"testing"
	"time"
)

func TestBucketSyntheticStacks(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"math/big under Lift", []string{
			"math/big.nat.expNN", "math/big.(*Int).Exp",
			"repro/internal/hhash.(*Hasher).Lift", "repro/internal/hhash.(*Hasher).Hash",
			"repro/internal/core.(*Node).serve", "repro/internal/sim.(*Engine).RunRound",
		}, "hhash.lift"},
		{"Montgomery kernel under batch verification", []string{
			"repro/internal/hhash.mul8", "repro/internal/hhash.(*montCtx).multiExp",
			"repro/internal/hhash.(*Hasher).MultiExp", "repro/internal/hhash.(*Hasher).VerifyBatch",
			"repro/internal/core.(*monitorState).verify",
		}, "hhash.verify"},
		{"prime pool refill", []string{
			"math/big.(*Int).ProbablyPrime", "repro/internal/hhash.pregenPrime",
			"repro/internal/hhash.(*PrimePool).fill", "runtime.goexit",
		}, "hhash.prime"},
		{"unclassified hhash helper", []string{
			"math/big.nat.mul", "repro/internal/hhash.(*Hasher).Combine", "repro/internal/core.(*Node).close",
		}, "hhash.other"},
		{"codec under core", []string{
			"encoding/binary.BigEndian.Uint64", "repro/internal/wire.UnmarshalServe", "repro/internal/core.(*Node).handle",
		}, "wire"},
		{"engine barrier", []string{"sync.(*WaitGroup).Wait", "repro/internal/engine.(*Engine).RunRound"}, "engine"},
		{"generic function naming another package", []string{
			"sort.insertionSort_func", "repro.sortedIDs[go.shape.*repro/internal/streaming.Player]",
		}, "pag"},
		{"root package", []string{"runtime.ReadMemStats", "repro.NewSession.func3", "repro/internal/sim.(*Roster).OpenRound"}, "pag"},
		{"this harness", []string{"time.Now", "repro/perfbench/harness.(*Recorder).push"}, "bench"},
		{"module package without a layer", []string{"sync/atomic.AddUint64", "repro/internal/obs.(*Counter).Inc", "repro/internal/core.(*Node).handle"}, "other"},
		{"no module frame", []string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
		{"empty stack", nil, "runtime"},
	}
	for _, c := range cases {
		if got := Bucket(c.stack); got != c.want {
			t.Errorf("%s: Bucket = %q, want %q", c.name, got, c.want)
		}
	}
}

var sink *big.Int

// burn spends CPU in this package, so its samples fold into "bench".
func burn(d time.Duration) {
	x := big.NewInt(3)
	m := new(big.Int).Lsh(big.NewInt(1), 521)
	m.Sub(m, big.NewInt(1))
	for end := time.Now().Add(d); time.Now().Before(end); {
		x.Exp(x, m, m)
	}
	sink = x
}

func TestFoldProfileSumsToTotal(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler busy: %v", err)
	}
	burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	led, err := FoldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if led.CPUNanos <= 0 {
		t.Fatal("profile holds no CPU samples")
	}
	var sum int64
	known := map[string]bool{}
	for _, l := range Layers {
		known[l] = true
	}
	for layer, ns := range led.ByLayer {
		if !known[layer] {
			t.Errorf("bucket %q is not a ledger layer", layer)
		}
		sum += ns
	}
	if sum != led.CPUNanos {
		t.Fatalf("buckets sum to %d ns, profile total %d ns", sum, led.CPUNanos)
	}
	// Only this package's code and the runtime ran: the burn loop's
	// math/big time must fold into its caller, not into "other".
	if led.ByLayer["bench"] == 0 || led.ByLayer["bench"]+led.ByLayer["runtime"] != led.CPUNanos {
		t.Fatalf("ledger %v: want every sample in bench or runtime, bench non-empty", led.ByLayer)
	}
}

func TestFoldProfileRejectsGarbage(t *testing.T) {
	if _, err := FoldProfile([]byte("not a profile")); err == nil {
		t.Fatal("FoldProfile accepted a non-gzip input")
	}
}
