package hhash

import (
	"math/big"
	mrand "math/rand"
	"slices"
	"testing"
)

// FuzzMontLift checks Lift on the Montgomery engine against big.Int.Exp.
// The fuzzer picks an odd modulus of 1 to 9 limbs (so the k=2 and k=8
// kernels and the generic loop all run), a base that may be zero or at
// least M, and a positive exponent; each input lifts twice with
// different exponent widths, so a table left in the hasher's scratch by
// one call cannot leak into the next.
func FuzzMontLift(f *testing.F) {
	rnd := mrand.New(mrand.NewSource(3))
	product := OneKey()
	for i := 0; i < 3; i++ {
		k, err := pregenPrime(rnd, 128)
		if err != nil {
			f.Fatal(err)
		}
		product = product.Mul(k)
	}
	long := make([]byte, 80)
	rnd.Read(long)
	for limbs := uint8(0); limbs < 9; limbs++ {
		mod := make([]byte, 8*int(limbs+1))
		rnd.Read(mod)
		f.Add(limbs, mod, []byte{0x12, 0x34}, product.Bytes()) // multi-prime product key
		f.Add(limbs, mod, long, []byte{0x01, 0x01})            // base ≥ M
		f.Add(limbs, mod, []byte{}, []byte{0x05})              // base 0
		f.Add(limbs, mod, mod, []byte{0x01})                   // base M, exponent 1
		f.Add(limbs, mod, []byte{0xfe, 0xed}, []byte{0x02})    // count key 2
		f.Add(limbs, mod, []byte{0xbe, 0xef}, []byte{0x03})    // count key 3
	}
	f.Add(uint8(0), []byte{0x01}, []byte{0x07}, []byte{0x09}) // smallest modulus, 3
	f.Fuzz(func(t *testing.T, limbs uint8, mod, base, exp []byte) {
		k := 1 + int(limbs%9)
		buf := make([]byte, 8*k)
		for i := range buf {
			if len(mod) > 0 {
				buf[i] = mod[i%len(mod)]
			}
		}
		buf[7] |= 1          // the top limb is non-zero: M has exactly k limbs
		buf[len(buf)-1] |= 1 // odd
		m := new(big.Int).SetBytes(buf)
		if m.Cmp(big.NewInt(3)) < 0 {
			m.SetInt64(3)
		}
		params, err := ParamsFromModulus(m)
		if err != nil {
			t.Fatal(err)
		}
		h := NewHasher(params, nil)
		if _, ok := h.multiCtx().(*montCtx); !ok {
			t.Fatalf("odd %d-limb modulus has no Montgomery context", k)
		}
		v := new(big.Int).SetBytes(base)
		e := new(big.Int).SetBytes(exp)
		if e.Sign() == 0 {
			e.SetInt64(1)
		}
		for _, x := range []*big.Int{e, new(big.Int).Mul(e, new(big.Int).Lsh(e, 70))} {
			key, err := KeyFromInt(x)
			if err != nil {
				t.Fatal(err)
			}
			got := h.Lift(v, key)
			if want := new(big.Int).Exp(v, x, m); got.Cmp(want) != 0 {
				t.Fatalf("%d limbs: Lift(%v, %v) mod %v = %v, want %v", k, v, x, m, got, want)
			}
		}
	})
}

// engineVerdict runs the Montgomery engine's probablyPrime(reps) on the
// odd n ≥ 3, through c.
func engineVerdict(c *montCtx, n *big.Int, reps int) bool {
	c.setModulus(n)
	return c.probablyPrime(reps)
}

// bigs parses decimal literals.
func bigs(t testing.TB, lits ...string) []*big.Int {
	t.Helper()
	out := make([]*big.Int, len(lits))
	for i, s := range lits {
		v, ok := new(big.Int).SetString(s, 10)
		if !ok {
			t.Fatalf("bad literal %q", s)
		}
		out[i] = v
	}
	return out
}

var (
	// Strong pseudoprimes to base 2 (OEIS A001262, the start of it), and
	// larger ones that are strong pseudoprimes to every prime base up to
	// 23, 37, 41 and 29 respectively.
	strongPseudoprimes2 = []int64{2047, 3277, 4033, 4681, 8321, 15841, 29341,
		42799, 49141, 52633, 65281, 74665, 80581, 85489, 88357, 90751}
	largeStrongPseudoprimes = []string{"3825123056546413051",
		"318665857834031151167461", "3317044064679887385961981",
		"1195068768795265792518361315725116351898245581"}
	// Strong Lucas pseudoprimes under Selfridge's parameters.
	lucasPseudoprimes = []int64{5459, 5777, 10877, 16109, 18971, 22499, 24569,
		25199, 40309, 58519, 75077, 97439}
	// Extra-strong Lucas pseudoprimes under method C (OEIS A217719, the
	// start of it): the Lucas test alone accepts each of them.
	extraStrongLucasPseudoprimes = []int64{989, 3239, 5777, 10877, 27971, 29681,
		30739, 31631, 39059, 72389, 73919, 75077}
	// Carmichael numbers: Fermat liars to every coprime base.
	carmichaels = []string{"561", "1105", "1729", "2465", "2821", "6601", "8911",
		"10585", "15841", "29341", "41041", "46657", "52633", "62745", "63973",
		"75361", "101101", "115921", "126217", "162401", "172081", "188461",
		"252601", "278545", "294409", "314821", "334153", "340561", "399001",
		"410041", "449065", "488881", "512461", "825265", "321197185",
		"5394826801", "232250619601", "9746347772161"}
)

// TestPrimeTestMatchesProbablyPrime: the Montgomery engine's Baillie-PSW
// test gives big.Int.ProbablyPrime's verdict on every odd number in
// [257, 2^20), on named pseudoprimes of each kind the test guards
// against, on squares of primes (the P = 40 branch of the Lucas
// parameter search), and on random odd inputs across limb counts.
func TestPrimeTestMatchesProbablyPrime(t *testing.T) {
	var c montCtx
	check := func(n *big.Int, reps int) {
		t.Helper()
		if got, want := engineVerdict(&c, n, reps), n.ProbablyPrime(reps); got != want {
			t.Fatalf("n=%v reps=%d: engine says %v, ProbablyPrime %v", n, reps, got, want)
		}
	}

	n := new(big.Int)
	for v := int64(257); v < 1<<20; v += 2 {
		check(n.SetInt64(v), 1)
	}

	var named []*big.Int
	for _, list := range [][]int64{strongPseudoprimes2, lucasPseudoprimes, extraStrongLucasPseudoprimes} {
		for _, v := range list {
			named = append(named, big.NewInt(v))
		}
	}
	named = append(named, bigs(t, largeStrongPseudoprimes...)...)
	named = append(named, bigs(t, carmichaels...)...)
	for _, v := range named {
		if v.ProbablyPrime(20) {
			t.Fatalf("%v is listed as composite", v)
		}
		check(v, 1)
		check(v, 20)
	}

	// Squares of primes: Jacobi(P²-4, q²) is never -1, so for q > 42 the
	// search reaches P = 40 and the square check must reject. 1093² and
	// 3511² are base-2 strong pseudoprimes, so they reach the Lucas test
	// through the full verdict too.
	rnd := mrand.New(mrand.NewSource(5))
	squares := bigs(t, "1093", "3511", "65537", "4294967291", "18446744073709551557")
	for _, bits := range []int{40, 64, 96, 128, 256} {
		squares = append(squares, probablyPrimeOnly(t, rnd, bits))
	}
	for _, q := range squares {
		sq := new(big.Int).Mul(q, q)
		check(sq, 1)
		c.setModulus(sq)
		if c.lucas() {
			t.Fatalf("Lucas test accepts the square %v²", q)
		}
	}

	for _, bits := range []int{16, 31, 64, 65, 96, 128, 200, 256, 512} {
		for i := 0; i < 10000; i++ {
			v := new(big.Int).Rand(rnd, new(big.Int).Lsh(_one, uint(bits-1)))
			v.SetBit(v, bits-1, 1)
			v.SetBit(v, 0, 1)
			check(v, 1)
			if i%50 == 0 {
				check(v, 20)
			}
		}
	}
}

// strongBase2 is the textbook base-2 strong probable-prime test on
// big.Int, for the odd n ≥ 3.
func strongBase2(n *big.Int) bool {
	nm1 := new(big.Int).Sub(n, _one)
	s := nm1.TrailingZeroBits()
	y := new(big.Int).Exp(_two, new(big.Int).Rsh(nm1, s), n)
	if y.Cmp(_one) == 0 || y.Cmp(nm1) == 0 {
		return true
	}
	for j := uint(1); j < s; j++ {
		y.Mul(y, y).Mod(y, n)
		if y.Cmp(nm1) == 0 {
			return true
		}
	}
	return false
}

// TestLucasPseudoprimeLists checks the two halves of the test against the
// published pseudoprime lists, as math/big's own tests do: below 10^5 the
// odd numbers that pass the base-2 strong round but fail the Lucas test
// are exactly the listed base-2 strong pseudoprimes, and those that pass
// the Lucas test but fail the base-2 round are exactly the listed
// extra-strong Lucas pseudoprimes.
func TestLucasPseudoprimeLists(t *testing.T) {
	var c montCtx
	var mr, lucas []int64
	n := new(big.Int)
	for v := int64(3); v < 100000; v += 2 {
		n.SetInt64(v)
		c.setModulus(n)
		l, s := c.lucas(), strongBase2(n)
		if s && !l {
			mr = append(mr, v)
		}
		if l && !s {
			lucas = append(lucas, v)
		}
	}
	if !slices.Equal(mr, strongPseudoprimes2) {
		t.Errorf("base-2 strong and not Lucas: %v, want %v", mr, strongPseudoprimes2)
	}
	if !slices.Equal(lucas, extraStrongLucasPseudoprimes) {
		t.Errorf("Lucas and not base-2 strong: %v, want %v", lucas, extraStrongLucasPseudoprimes)
	}
}

// FuzzPrimeTest checks the Montgomery engine's Baillie-PSW test against
// big.Int.ProbablyPrime(1) on arbitrary odd inputs of any length.
func FuzzPrimeTest(f *testing.F) {
	for _, v := range append(append([]int64{3, 5, 7, 257, 1093 * 1093}, strongPseudoprimes2...), extraStrongLucasPseudoprimes...) {
		f.Add(big.NewInt(v).Bytes())
	}
	for _, s := range append(largeStrongPseudoprimes, carmichaels...) {
		v, _ := new(big.Int).SetString(s, 10)
		f.Add(v.Bytes())
	}
	rnd := mrand.New(mrand.NewSource(9))
	for _, bits := range []int{64, 128, 512} {
		f.Add(probablyPrimeOnly(f, rnd, bits).Bytes())
	}
	var c montCtx
	f.Fuzz(func(t *testing.T, b []byte) {
		n := new(big.Int).SetBytes(b)
		n.SetBit(n, 0, 1)
		if n.Cmp(_two) < 0 {
			n.SetInt64(3)
		}
		if got, want := engineVerdict(&c, n, 1), n.ProbablyPrime(1); got != want {
			t.Fatalf("n=%v: engine says %v, ProbablyPrime(1) %v", n, got, want)
		}
	})
}
