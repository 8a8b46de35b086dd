package hhash

// Word-level Montgomery arithmetic for odd moduli. It runs every
// exponentiation under an odd modulus: the multi-exponentiation ladder of
// verification, the single-base exponentiation of Lift, and the base-2
// Fermat step of prime generation. The loop is the fused CIOS variant (FIOS):
// the a·b[i] accumulation and the u·m reduction run in ONE pass over the
// accumulator per outer word, so t is loaded and stored once per step
// instead of twice. math/big's assembly kernels are not reachable from
// outside the standard library; a fused pure-Go loop over math/bits
// intrinsics (one MUL + ADC chain per limb pair) is the closest
// substitute. For the paper's 512-bit modulus and the session's default
// 128-bit one, the k=8 and k=2 specializations below run with constant
// loop bounds and register accumulators, which eliminates every bounds
// check on the hot path.

import (
	"math/big"
	"math/bits"
)

type montCtx struct {
	mod   *big.Int
	m     []uint // modulus limbs, little-endian, len k
	k     int
	n0inv uint   // -m⁻¹ mod 2^W
	one   []uint // R mod m (Montgomery 1)
	unit  []uint // plain 1: multiplying by it leaves the Montgomery domain
	rr    []uint // R² mod m (to-Montgomery factor)
	t     []uint // generic-path accumulator, len k+1

	// scratch holds exp's window table and accumulator and fermat2's
	// accumulator, grown on first use; pow, quo and rem are setModulus's
	// R mod m division and exp's base reduction.
	scratch       []uint
	pow, quo, rem big.Int
}

// newMontCtx builds the context; nil when the modulus is even or trivial
// (Montgomery needs gcd(m, 2^W) = 1).
func newMontCtx(mod *big.Int) *montCtx {
	if mod == nil || mod.BitLen() < 2 || mod.Bit(0) == 0 {
		return nil
	}
	c := new(montCtx)
	c.setModulus(mod) // leaves R in c.pow
	c.rr = limbsInto(make([]uint, c.k), new(big.Int).Mod(new(big.Int).Mul(&c.pow, &c.pow), mod))
	return c
}

// setModulus loads the odd modulus mod (bit length ≥ 2) into c, reusing
// c's buffers, and computes everything but rr: the base-2 Fermat test of
// prime generation runs one context over many candidates and never
// converts an arbitrary value into the Montgomery domain.
func (c *montCtx) setModulus(mod *big.Int) {
	words := mod.Bits()
	k := len(words)
	c.mod, c.k = mod, k
	c.m = resize(c.m, k)
	for i, w := range words {
		c.m[i] = uint(w)
	}
	c.n0inv = -wordInverse(c.m[0])
	c.t = resize(c.t, k+1)
	c.unit = resize(c.unit, k)
	clear(c.unit)
	c.unit[0] = 1
	c.pow.SetBit(c.pow.SetUint64(0), k*_W, 1)
	c.quo.QuoRem(&c.pow, mod, &c.rem)
	c.one = limbsInto(resize(c.one, k), &c.rem)
}

// wordInverse returns x⁻¹ mod 2^W for odd x, by Newton iteration: each
// step doubles the number of valid low bits.
func wordInverse(x uint) uint {
	inv := x
	for i := 0; i < 6; i++ {
		inv *= 2 - x*inv
	}
	return inv
}

// resize returns s with length n, reallocating only when it is too short.
func resize(s []uint, n int) []uint {
	if cap(s) < n {
		return make([]uint, n)
	}
	return s[:n]
}

// limbsInto writes v (which must be < m) into dst, zero-padded.
func limbsInto(dst []uint, v *big.Int) []uint {
	clear(dst)
	for i, w := range v.Bits() {
		dst[i] = uint(w)
	}
	return dst
}

// toInt converts k limbs back to a big.Int.
func (c *montCtx) toInt(a []uint) *big.Int {
	words := make([]big.Word, len(a))
	for i, w := range a {
		words[i] = big.Word(w)
	}
	return new(big.Int).SetBits(words)
}

// toMont sets dst = v·R mod m for v < m.
func (c *montCtx) toMont(dst []uint, v *big.Int) {
	c.mul(dst, limbsInto(dst, v), c.rr)
}

// fromMont converts a Montgomery-form value back to a plain residue. It
// overwrites a.
func (c *montCtx) fromMont(a []uint) *big.Int {
	c.mul(a, a, c.unit)
	return c.toInt(a)
}

// mul sets dst = a·b·R⁻¹ mod m. dst, a, b are k-limb; dst may alias a
// and/or b.
func (c *montCtx) mul(dst, a, b []uint) {
	switch c.k {
	case 2:
		mul2(dst, a, b, c.m, c.n0inv)
		return
	case 8:
		mul8(dst, a, b, c.m, c.n0inv)
		return
	}
	k := c.k
	m := c.m
	t := c.t[:k+1]
	for i := range t {
		t[i] = 0
	}
	for i := 0; i < k; i++ {
		bi := b[i]
		hiA, loA := bits.Mul(a[0], bi)
		v, cc := bits.Add(t[0], loA, 0)
		carA := hiA + cc
		u := v * c.n0inv
		hiM, loM := bits.Mul(m[0], u)
		_, cc = bits.Add(v, loM, 0)
		carM := hiM + cc
		for j := 1; j < k; j++ {
			hiA, loA = bits.Mul(a[j], bi)
			v, cc = bits.Add(t[j], loA, 0)
			hiA += cc
			v, cc = bits.Add(v, carA, 0)
			carA = hiA + cc
			hiM, loM = bits.Mul(m[j], u)
			v, cc = bits.Add(v, loM, 0)
			hiM += cc
			v, cc = bits.Add(v, carM, 0)
			carM = hiM + cc
			t[j-1] = v
		}
		v, c1 := bits.Add(t[k], carA, 0)
		v, c2 := bits.Add(v, carM, 0)
		t[k-1] = v
		t[k] = c1 + c2
	}
	// Result < 2m (standard CIOS bound): one conditional subtraction.
	if t[k] != 0 || !limbsLess(t[:k], m) {
		var borrow uint
		for j := 0; j < k; j++ {
			dst[j], borrow = bits.Sub(t[j], m[j], borrow)
		}
	} else {
		copy(dst, t[:k])
	}
}

// mul8 is the 512-bit (k=8) specialization: the outer loop is written
// against named locals rather than a slice-indexed accumulator, so the
// whole working set (a, m, t, carries) lives in registers or fixed stack
// slots with no bounds checks in the inner chain.
func mul8(dst, a, b, mod []uint, n0inv uint) {
	ap := (*[8]uint)(a)
	bp := (*[8]uint)(b)
	mp := (*[8]uint)(mod)
	a0, a1, a2, a3, a4, a5, a6, a7 := ap[0], ap[1], ap[2], ap[3], ap[4], ap[5], ap[6], ap[7]
	m0, m1, m2, m3, m4, m5, m6, m7 := mp[0], mp[1], mp[2], mp[3], mp[4], mp[5], mp[6], mp[7]
	var t0, t1, t2, t3, t4, t5, t6, t7, t8 uint
	var hiA, loA, hiM, loM, v, cc uint
	for i := 0; i < 8; i++ {
		bi := bp[i]
		hiA, loA = bits.Mul(a0, bi)
		v, cc = bits.Add(t0, loA, 0)
		carA := hiA + cc
		u := v * n0inv
		hiM, loM = bits.Mul(m0, u)
		_, cc = bits.Add(v, loM, 0)
		carM := hiM + cc
		hiA, loA = bits.Mul(a1, bi)
		v, cc = bits.Add(t1, loA, 0)
		hiA += cc
		v, cc = bits.Add(v, carA, 0)
		carA = hiA + cc
		hiM, loM = bits.Mul(m1, u)
		v, cc = bits.Add(v, loM, 0)
		hiM += cc
		v, cc = bits.Add(v, carM, 0)
		carM = hiM + cc
		t0 = v
		hiA, loA = bits.Mul(a2, bi)
		v, cc = bits.Add(t2, loA, 0)
		hiA += cc
		v, cc = bits.Add(v, carA, 0)
		carA = hiA + cc
		hiM, loM = bits.Mul(m2, u)
		v, cc = bits.Add(v, loM, 0)
		hiM += cc
		v, cc = bits.Add(v, carM, 0)
		carM = hiM + cc
		t1 = v
		hiA, loA = bits.Mul(a3, bi)
		v, cc = bits.Add(t3, loA, 0)
		hiA += cc
		v, cc = bits.Add(v, carA, 0)
		carA = hiA + cc
		hiM, loM = bits.Mul(m3, u)
		v, cc = bits.Add(v, loM, 0)
		hiM += cc
		v, cc = bits.Add(v, carM, 0)
		carM = hiM + cc
		t2 = v
		hiA, loA = bits.Mul(a4, bi)
		v, cc = bits.Add(t4, loA, 0)
		hiA += cc
		v, cc = bits.Add(v, carA, 0)
		carA = hiA + cc
		hiM, loM = bits.Mul(m4, u)
		v, cc = bits.Add(v, loM, 0)
		hiM += cc
		v, cc = bits.Add(v, carM, 0)
		carM = hiM + cc
		t3 = v
		hiA, loA = bits.Mul(a5, bi)
		v, cc = bits.Add(t5, loA, 0)
		hiA += cc
		v, cc = bits.Add(v, carA, 0)
		carA = hiA + cc
		hiM, loM = bits.Mul(m5, u)
		v, cc = bits.Add(v, loM, 0)
		hiM += cc
		v, cc = bits.Add(v, carM, 0)
		carM = hiM + cc
		t4 = v
		hiA, loA = bits.Mul(a6, bi)
		v, cc = bits.Add(t6, loA, 0)
		hiA += cc
		v, cc = bits.Add(v, carA, 0)
		carA = hiA + cc
		hiM, loM = bits.Mul(m6, u)
		v, cc = bits.Add(v, loM, 0)
		hiM += cc
		v, cc = bits.Add(v, carM, 0)
		carM = hiM + cc
		t5 = v
		hiA, loA = bits.Mul(a7, bi)
		v, cc = bits.Add(t7, loA, 0)
		hiA += cc
		v, cc = bits.Add(v, carA, 0)
		carA = hiA + cc
		hiM, loM = bits.Mul(m7, u)
		v, cc = bits.Add(v, loM, 0)
		hiM += cc
		v, cc = bits.Add(v, carM, 0)
		carM = hiM + cc
		t6 = v
		v, c1 := bits.Add(t8, carA, 0)
		v, c2 := bits.Add(v, carM, 0)
		t7 = v
		t8 = c1 + c2
	}
	dp := (*[8]uint)(dst)
	if t8 == 0 {
		// t < 2^512: subtract m only when t >= m.
		less := false
		switch {
		case t7 != m7:
			less = t7 < m7
		case t6 != m6:
			less = t6 < m6
		case t5 != m5:
			less = t5 < m5
		case t4 != m4:
			less = t4 < m4
		case t3 != m3:
			less = t3 < m3
		case t2 != m2:
			less = t2 < m2
		case t1 != m1:
			less = t1 < m1
		default:
			less = t0 < m0
		}
		if less {
			dp[0], dp[1], dp[2], dp[3] = t0, t1, t2, t3
			dp[4], dp[5], dp[6], dp[7] = t4, t5, t6, t7
			return
		}
	}
	var borrow uint
	dp[0], borrow = bits.Sub(t0, m0, borrow)
	dp[1], borrow = bits.Sub(t1, m1, borrow)
	dp[2], borrow = bits.Sub(t2, m2, borrow)
	dp[3], borrow = bits.Sub(t3, m3, borrow)
	dp[4], borrow = bits.Sub(t4, m4, borrow)
	dp[5], borrow = bits.Sub(t5, m5, borrow)
	dp[6], borrow = bits.Sub(t6, m6, borrow)
	dp[7], borrow = bits.Sub(t7, m7, borrow)
}

// mul2 is the 128-bit (k=2) kernel, for the session's default modulus.
// Unlike the CIOS loops it forms the full four-word product T first and
// then reduces it (separated operand scanning), which keeps every carry
// chain a straight run of adds; a square (a == b) takes three products
// instead of four.
func mul2(dst, a, b, mod []uint, n0inv uint) {
	ap := (*[2]uint)(a)
	bp := (*[2]uint)(b)
	mp := (*[2]uint)(mod)
	a0, a1 := ap[0], ap[1]
	b0, b1 := bp[0], bp[1]
	m0, m1 := mp[0], mp[1]
	var t0, t1, t2, t3, c uint
	if ap == bp {
		h00, l00 := bits.Mul(a0, a0)
		h01, l01 := bits.Mul(a0, a1)
		h11, l11 := bits.Mul(a1, a1)
		t0 = l00
		t1, c = bits.Add(h00, l01<<1, 0)
		t2, c = bits.Add(l11, h01<<1|l01>>(_W-1), c)
		t3 = h11 + h01>>(_W-1) + c
	} else {
		h00, l00 := bits.Mul(a0, b0)
		h01, l01 := bits.Mul(a0, b1)
		h10, l10 := bits.Mul(a1, b0)
		h11, l11 := bits.Mul(a1, b1)
		t0 = l00
		t1, c = bits.Add(h00, l01, 0)
		t2, c = bits.Add(h01, l11, c)
		t3 = h11 + c
		t1, c = bits.Add(t1, l10, 0)
		t2, c = bits.Add(t2, h10, c)
		t3 += c
	}

	// T = t3:t2:t1:t0 < m². Each step adds u·m·W^i, which clears word i;
	// the top half, below 2m, needs at most one subtraction.
	u := t0 * n0inv
	hi0, p0 := bits.Mul(u, m0)
	hi1, p1 := bits.Mul(u, m1)
	p1, c = bits.Add(p1, hi0, 0)
	p2 := hi1 + c
	_, c = bits.Add(t0, p0, 0)
	t1, c = bits.Add(t1, p1, c)
	t2, c = bits.Add(t2, p2, c)
	t3, t4 := bits.Add(t3, 0, c)

	u = t1 * n0inv
	hi0, p0 = bits.Mul(u, m0)
	hi1, p1 = bits.Mul(u, m1)
	p1, c = bits.Add(p1, hi0, 0)
	p2 = hi1 + c
	_, c = bits.Add(t1, p0, 0)
	t2, c = bits.Add(t2, p1, c)
	t3, c = bits.Add(t3, p2, c)
	t4 += c

	dp := (*[2]uint)(dst)
	if t4 == 0 && (t3 < m1 || t3 == m1 && t2 < m0) {
		dp[0], dp[1] = t2, t3
		return
	}
	var borrow uint
	dp[0], borrow = bits.Sub(t2, m0, 0)
	dp[1], _ = bits.Sub(t3, m1, borrow)
}

// double sets a = 2a mod m for a < m.
func (c *montCtx) double(a []uint) {
	var carry uint
	for j, w := range a {
		a[j] = w<<1 | carry
		carry = w >> (_W - 1)
	}
	if carry != 0 || !limbsLess(a, c.m) {
		var borrow uint
		for j := range a {
			a[j], borrow = bits.Sub(a[j], c.m[j], borrow)
		}
	}
}

// scratchLimbs returns c's scratch with length n, grown on first use.
func (c *montCtx) scratchLimbs(n int) []uint {
	c.scratch = resize(c.scratch, n)
	return c.scratch
}

// exp returns v^e mod m for e ≥ 0: a fixed-window left-to-right
// exponentiation in the Montgomery domain, with the window table and the
// accumulator in c's scratch, so a call allocates only its result. v may
// lie outside [0, m).
func (c *montCtx) exp(v, e *big.Int) *big.Int {
	nbits := e.BitLen()
	if nbits == 0 {
		return new(big.Int).Set(_one)
	}
	if v.Sign() < 0 || v.Cmp(c.mod) >= 0 {
		v = c.rem.Mod(v, c.mod)
	}
	k := c.k
	w := multiExpWindow(nbits)
	tsize := 1 << w
	ws := c.scratchLimbs(tsize * k)
	// tbl(d) holds v^d in Montgomery form for d = 1..2^w-1; the last k
	// limbs are the accumulator.
	tbl := func(d int) []uint { return ws[(d-1)*k : d*k] }
	acc := ws[(tsize-1)*k:]
	c.toMont(tbl(1), v)
	for d := 2; d < tsize; d++ {
		c.mul(tbl(d), tbl(d-1), tbl(1))
	}
	words := e.Bits()
	nw := (nbits + w - 1) / w
	// The top window holds e's top bit, so its digit is never zero.
	copy(acc, tbl(int(windowDigit(words, (nw-1)*w, w))))
	for pos := nw - 2; pos >= 0; pos-- {
		for s := 0; s < w; s++ {
			c.mul(acc, acc, acc)
		}
		if d := windowDigit(words, pos*w, w); d != 0 {
			c.mul(acc, acc, tbl(int(d)))
		}
	}
	return c.fromMont(acc)
}

// limbsLess reports a < b for equal-length limb slices.
func limbsLess(a, b []uint) bool {
	for j := len(a) - 1; j >= 0; j-- {
		if a[j] != b[j] {
			return a[j] < b[j]
		}
	}
	return false
}

// multiExp runs the interleaved windowed ladder in the Montgomery domain.
func (c *montCtx) multiExp(bases, exps []*big.Int) *big.Int {
	n := len(bases)
	k := c.k

	maxBits := 0
	for _, e := range exps {
		if bl := e.BitLen(); bl > maxBits {
			maxBits = bl
		}
	}
	if maxBits == 0 {
		return new(big.Int).Set(_one) // every exponent is zero
	}
	w := multiExpWindow(maxBits)
	tsize := 1 << w

	// Per-base window tables in one flat arena: tbl(i, d) holds
	// base_i^d in Montgomery form for d = 1..2^w-1.
	arena := make([]uint, n*(tsize-1)*k)
	tbl := func(i, d int) []uint {
		off := (i*(tsize-1) + d - 1) * k
		return arena[off : off+k]
	}
	for i, b := range bases {
		v := b
		if v.Sign() < 0 || v.Cmp(c.mod) >= 0 {
			v = c.rem.Mod(b, c.mod)
		}
		c.toMont(tbl(i, 1), v)
		for d := 2; d < tsize; d++ {
			c.mul(tbl(i, d), tbl(i, d-1), tbl(i, 1))
		}
	}

	words := make([][]big.Word, n)
	for i, e := range exps {
		words[i] = e.Bits()
	}

	acc := make([]uint, k)
	copy(acc, c.one)
	nw := (maxBits + w - 1) / w
	for pos := nw - 1; pos >= 0; pos-- {
		if pos != nw-1 {
			for s := 0; s < w; s++ {
				c.mul(acc, acc, acc)
			}
		}
		for i := 0; i < n; i++ {
			if d := windowDigit(words[i], pos*w, w); d != 0 {
				c.mul(acc, acc, tbl(i, int(d)))
			}
		}
	}
	return c.fromMont(acc)
}
