package hhash

import (
	"bytes"
	"crypto/rand"
	"io"
	"math/big"
	mrand "math/rand"
	"testing"

	"repro/internal/obs"
)

// ---------------------------------------------------------------------------
// Multi-exponentiation vs the naive loop
// ---------------------------------------------------------------------------

// TestMultiExpMatchesNaive checks the interleaved windowed ladder against a
// plain per-base Exp loop across modulus widths spanning all window sizes,
// both parities (odd → Montgomery engine, even → Barrett engine), zero
// exponents, and varying base counts.
func TestMultiExpMatchesNaive(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(9))
	for _, bits := range []int{16, 64, 128, 200, 512, 600, 1024} {
		for trial := 0; trial < 8; trial++ {
			m := new(big.Int).Rand(rnd, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
			if m.BitLen() < 2 {
				continue
			}
			m.SetBit(m, 0, uint(trial%2)) // alternate even/odd modulus
			params, err := ParamsFromModulus(m)
			if err != nil {
				continue
			}
			h := NewHasher(params, nil)
			n := 1 + rnd.Intn(6)
			bases := make([]*big.Int, n)
			exps := make([]*big.Int, n)
			want := big.NewInt(1)
			tmp := new(big.Int)
			for i := 0; i < n; i++ {
				bases[i] = new(big.Int).Rand(rnd, m)
				width := rnd.Intn(3 * bits)
				exps[i] = new(big.Int).Rand(rnd, new(big.Int).Lsh(big.NewInt(1), uint(width)))
				if trial == 0 && i == 0 {
					exps[i] = big.NewInt(0)
				}
				tmp.Exp(bases[i], exps[i], m)
				want.Mul(want, tmp).Mod(want, m)
			}
			got, err := h.MultiExp(bases, exps)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("bits=%d trial=%d odd=%v: MultiExp diverges from naive product",
					bits, trial, m.Bit(0) == 1)
			}
		}
	}
}

// TestVerifyForwardingMatchesNaive drives random attestation sets through
// both the multi-exp monitor equation and the pre-optimisation reference.
func TestVerifyForwardingMatchesNaive(t *testing.T) {
	params := testParams(t)
	h := NewHasher(params, nil)
	rnd := mrand.New(mrand.NewSource(31))

	for trial := 0; trial < 30; trial++ {
		preds := 1 + rnd.Intn(6)
		atts := make([]*big.Int, preds)
		rems := make([]Key, preds)
		keys := make([]Key, preds)
		for i := range keys {
			k, err := GeneratePrimeKey(rnd, 48)
			if err != nil {
				t.Fatal(err)
			}
			keys[i] = k
		}
		ack := h.Identity()
		for i := range atts {
			content := make([]byte, 16)
			rnd.Read(content)
			v := h.Embed(content)
			atts[i] = h.Lift(v, keys[i])
			rem := OneKey()
			for o, k := range keys {
				if o != i {
					rem = rem.Mul(k)
				}
			}
			rems[i] = rem
			full := rem.Mul(keys[i])
			ack = h.Combine(ack, h.Lift(v, full))
		}
		if trial%3 == 2 { // corrupt the ack in a third of the trials
			ack = new(big.Int).Add(ack, big.NewInt(1))
			ack.Mod(ack, params.Modulus())
		}
		fast, errF := h.VerifyForwarding(atts, rems, ack)
		slow, errS := h.verifyForwardingNaive(atts, rems, ack)
		if (errF == nil) != (errS == nil) {
			t.Fatalf("trial %d: error disagreement: %v vs %v", trial, errF, errS)
		}
		if fast != slow {
			t.Fatalf("trial %d: VerifyForwarding=%v, naive=%v", trial, fast, slow)
		}
	}
}

// ---------------------------------------------------------------------------
// Batched verification
// ---------------------------------------------------------------------------

func randomChecks(t *testing.T, h *Hasher, rnd *mrand.Rand, n int) []Check {
	t.Helper()
	checks := make([]Check, n)
	for i := range checks {
		content := make([]byte, 12)
		rnd.Read(content)
		k, err := GeneratePrimeKey(rnd, 48)
		if err != nil {
			t.Fatal(err)
		}
		base := h.Embed(content)
		checks[i] = Check{Base: base, Key: k, Want: h.Lift(base, k)}
	}
	return checks
}

// TestVerifyBatchAcceptIffEachAccepts: the folded equation accepts exactly
// when every individual check accepts, and on rejection the fallback names
// exactly the corrupted checks.
func TestVerifyBatchAcceptIffEachAccepts(t *testing.T) {
	params := testParams(t)
	h := NewHasher(params, nil)
	rnd := mrand.New(mrand.NewSource(53))

	for trial := 0; trial < 40; trial++ {
		n := 1 + rnd.Intn(5)
		checks := randomChecks(t, h, rnd, n)
		var wantBad []int
		for i := range checks {
			if rnd.Intn(3) == 0 {
				w := new(big.Int).Add(checks[i].Want, big.NewInt(1))
				w.Mod(w, params.Modulus())
				checks[i].Want = w
				wantBad = append(wantBad, i)
			}
		}
		ok, bad := h.VerifyBatch(rand.Reader, checks)
		if ok != (len(wantBad) == 0) {
			t.Fatalf("trial %d: batch ok=%v with %d corrupted checks", trial, ok, len(wantBad))
		}
		if len(bad) != len(wantBad) {
			t.Fatalf("trial %d: blamed %v, corrupted %v", trial, bad, wantBad)
		}
		for i := range bad {
			if bad[i] != wantBad[i] {
				t.Fatalf("trial %d: blamed %v, corrupted %v", trial, bad, wantBad)
			}
		}
	}
}

// TestVerifyBatchFallbacks: degenerate inputs (no coefficient stream, nil
// operands, zero keys) must fall back to per-check verification rather
// than accept or panic, and blame stays exact.
func TestVerifyBatchFallbacks(t *testing.T) {
	params := testParams(t)
	h := NewHasher(params, nil)
	rnd := mrand.New(mrand.NewSource(59))

	checks := randomChecks(t, h, rnd, 3)
	// Exhausted coefficient stream → individual verification, all pass.
	ok, bad := h.VerifyBatch(bytes.NewReader(nil), checks)
	if ok || len(bad) != 0 {
		t.Fatalf("exhausted coeffs: ok=%v bad=%v (all checks valid, fallback must blame none)", ok, bad)
	}
	// Nil Want on one check → that check blamed, others pass.
	checks[1].Want = nil
	ok, bad = h.VerifyBatch(rand.Reader, checks)
	if ok || len(bad) != 1 || bad[0] != 1 {
		t.Fatalf("nil want: ok=%v bad=%v", ok, bad)
	}
	// Zero key → same.
	checks[1] = randomChecks(t, h, rnd, 1)[0]
	checks[2].Key = Key{}
	ok, bad = h.VerifyBatch(rand.Reader, checks)
	if ok || len(bad) != 1 || bad[0] != 2 {
		t.Fatalf("zero key: ok=%v bad=%v", ok, bad)
	}
	// Empty batch is vacuously true.
	if ok, bad := h.VerifyBatch(rand.Reader, nil); !ok || bad != nil {
		t.Fatalf("empty batch: ok=%v bad=%v", ok, bad)
	}
}

// TestVerifyBatchCounterParity: batched and per-check verification must
// record identical hash-op counts and lift observations — the Table I
// accounting must not reveal which mode ran.
func TestVerifyBatchCounterParity(t *testing.T) {
	params := testParams(t)
	rnd := mrand.New(mrand.NewSource(61))

	var batched, unbatched Counter
	hB := NewHasher(params, &batched)
	hU := NewHasher(params, &unbatched)
	spanB := obs.NewRegistry().Histogram("lift", obs.ClassTimed, nil)
	spanU := obs.NewRegistry().Histogram("lift", obs.ClassTimed, nil)
	hB.Instrument(spanB, nil)
	hU.Instrument(spanU, nil)
	// Build the checks with an uncounted hasher so only the verification
	// itself is attributed.
	checks := randomChecks(t, NewHasher(params, nil), rnd, 4)

	hB.VerifyBatch(rand.Reader, checks)
	for _, c := range checks {
		hU.Lift(c.Base, c.Key) // the unbatched path: one Lift per check
	}
	if b, u := batched.HashOps(), unbatched.HashOps(); b != u {
		t.Fatalf("hash-op divergence: batched=%d unbatched=%d", b, u)
	}
	if b, u := spanB.Count(), spanU.Count(); b != u {
		t.Fatalf("lift observation divergence: batched=%d unbatched=%d", b, u)
	}
}

// ---------------------------------------------------------------------------
// Prime pregeneration
// ---------------------------------------------------------------------------

// TestPregenPrimeProperties: every generated key is exactly `bits` long,
// odd, has its top two bits set (length-stable products — the wire format
// depends on it), and passes a full-strength primality test.
func TestPregenPrimeProperties(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(67))
	for _, bits := range []int{8, 17, 48, 64, 127, 128} {
		for trial := 0; trial < 8; trial++ {
			k, err := pregenPrime(rnd, bits)
			if err != nil {
				t.Fatal(err)
			}
			p := k.e
			if p.BitLen() != bits {
				t.Fatalf("bits=%d: got %d-bit prime", bits, p.BitLen())
			}
			if p.Bit(0) != 1 {
				t.Fatalf("bits=%d: even candidate accepted", bits)
			}
			if p.Bit(bits-2) != 1 {
				t.Fatalf("bits=%d: second-highest bit clear", bits)
			}
			if !p.ProbablyPrime(20) {
				t.Fatalf("bits=%d: %v fails ProbablyPrime(20)", bits, p)
			}
		}
	}
}

// probablyPrimeOnly is the acceptance loop pregenPrime ran before the
// prefilter: the same candidate construction, ProbablyPrime(1) alone.
func probablyPrimeOnly(t testing.TB, rnd io.Reader, bits int) *big.Int {
	t.Helper()
	b := uint(bits % 8)
	if b == 0 {
		b = 8
	}
	buf := make([]byte, (bits+7)/8)
	for {
		if _, err := io.ReadFull(rnd, buf); err != nil {
			t.Fatal(err)
		}
		buf[0] &= uint8(int(1<<b) - 1)
		if b >= 2 {
			buf[0] |= 3 << (b - 2)
		} else {
			buf[0] |= 1
			buf[1] |= 0x80
		}
		buf[len(buf)-1] |= 1
		if p := new(big.Int).SetBytes(buf); p.ProbablyPrime(1) {
			return p
		}
	}
}

// TestPrefilterKeepsPrimeStream: the sieve and the Montgomery
// Baillie-PSW test, in place of ProbablyPrime(1), change no accepted
// prime and no stream offset.
// At 8 bits every candidate is below the sieve bound, so the rule that
// the sieve never rejects one of its own primes is exercised on each draw.
func TestPrefilterKeepsPrimeStream(t *testing.T) {
	const draws = 300
	for _, bits := range []int{8, 17, 48, 128, 512} {
		got := mrand.New(mrand.NewSource(int64(bits)))
		ref := mrand.New(mrand.NewSource(int64(bits)))
		for i := 0; i < draws; i++ {
			k, err := pregenPrime(got, bits)
			if err != nil {
				t.Fatal(err)
			}
			if want := probablyPrimeOnly(t, ref, bits); k.e.Cmp(want) != 0 {
				t.Fatalf("bits=%d draw %d: prefiltered stream gives %v, ProbablyPrime(1) alone %v",
					bits, i, k.e, want)
			}
		}
	}
}

// TestSieveKeepsItsPrimes: a sieve prime is never reported composite,
// and any product of two of them always is.
func TestSieveKeepsItsPrimes(t *testing.T) {
	var primes []uint
	for _, g := range sieveGroups {
		for _, sp := range g.primes {
			primes = append(primes, sp.q)
		}
	}
	if len(primes) == 0 || primes[0] != 3 || primes[len(primes)-1] >= sieveBound {
		t.Fatalf("sieve primes %v... do not span the odd primes below %d", primes[:1], sieveBound)
	}
	for i, q := range primes {
		if sieveComposite([]big.Word{big.Word(q)}) {
			t.Fatalf("sieve rejects its own prime %d", q)
		}
		r := primes[(i*7)%len(primes)]
		if !sieveComposite([]big.Word{big.Word(q * r)}) {
			t.Fatalf("sieve accepts %d·%d", q, r)
		}
		big2 := new(big.Int).Lsh(big.NewInt(int64(r)), 100)
		big2.Add(big2, big.NewInt(int64(r))) // r·(2^100 + 1), two limbs
		if !sieveComposite(big2.Bits()) {
			t.Fatalf("sieve accepts multi-limb multiple of %d", r)
		}
	}
}

// TestGeneratePrimeKeyMatchesPool: the inline path a node takes without a
// pool issues the pool's prime sequence for the same stream.
func TestGeneratePrimeKeyMatchesPool(t *testing.T) {
	const n = 40
	pool, err := NewPrimePool(mrand.New(mrand.NewSource(73)), 128, 8)
	if err != nil {
		t.Fatal(err)
	}
	inline := mrand.New(mrand.NewSource(73))
	for i := 0; i < n; i++ {
		want, err := pool.Get()
		if err != nil {
			t.Fatal(err)
		}
		got, err := GeneratePrimeKey(inline, 128)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("draw %d: GeneratePrimeKey %v, pool %v", i, got.e, want.e)
		}
	}
}

// TestPrimePoolStreamOrder: the i-th Get returns the i-th prime of the
// stream regardless of how background refills interleave — the property
// the worker-count byte-identity gate rests on.
func TestPrimePoolStreamOrder(t *testing.T) {
	const n = 40
	want := make([]Key, n)
	ref := mrand.New(mrand.NewSource(71))
	for i := range want {
		k, err := pregenPrime(ref, 48)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = k
	}
	pool, err := NewPrimePool(mrand.New(mrand.NewSource(71)), 48, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		got, err := pool.Get()
		if err != nil {
			t.Fatal(err)
		}
		if got.e.Cmp(want[i].e) != 0 {
			t.Fatalf("draw %d: pool diverges from direct stream", i)
		}
	}
}

// TestPrimePoolErrorSticky: a failing entropy source poisons the pool
// permanently once its pregenerated queue is exhausted.
func TestPrimePoolErrorSticky(t *testing.T) {
	pool, err := NewPrimePool(failingReader{}, 48, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Get(); err == nil {
		t.Fatal("expected error from failing entropy source")
	}
	if _, err := pool.Get(); err == nil {
		t.Fatal("pool error must be sticky")
	}
}

type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, io.ErrUnexpectedEOF }
