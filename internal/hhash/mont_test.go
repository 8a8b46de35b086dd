package hhash

import (
	"math/big"
	mrand "math/rand"
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
