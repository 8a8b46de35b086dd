package hhash

// Fixed-modulus modular multiplication via Barrett reduction, built on
// big.Int.Mul so every multiply runs through math/big's assembly kernels.
// It is the multi-exponentiation engine for EVEN moduli only, which the
// word-level Montgomery engine of mont.go cannot take (Montgomery needs
// gcd(m, 2^W) = 1); every odd modulus, the protocol's case, runs there.
//
// With mu = floor(2^(2k) / m) and k = bitlen(m), a product x < m^2 reduces
// as q = ((x >> (k-1)) * mu) >> (k+1); r = x - q*m, with at most two
// correction subtractions (HAC 14.42, bit-level variant). Works for any
// modulus of two or more bits — no odd-modulus restriction.

import "math/big"

type modCtx struct {
	m  *big.Int
	mu *big.Int // floor(2^(2k) / m)
	k  uint     // m.BitLen()

	x, q, t big.Int // scratch: product, quotient estimate, q*mu / q*m
}

func newModCtx(m *big.Int) *modCtx {
	if m == nil || m.BitLen() < 2 {
		return nil
	}
	k := uint(m.BitLen())
	mu := new(big.Int).Lsh(_one, 2*k)
	mu.Quo(mu, m)
	return &modCtx{m: m, mu: mu, k: k}
}

// mulMod sets dst = a*b mod m. dst may alias a and/or b; a == b takes
// math/big's squaring fast path.
func (c *modCtx) mulMod(dst, a, b *big.Int) {
	// Scratch discipline: a Mul receiver must never alias an operand —
	// math/big detects the alias and allocates a fresh result every call,
	// which would put one garbage nat per reduction on the hot path.
	c.x.Mul(a, b)
	c.q.Rsh(&c.x, c.k-1)
	c.t.Mul(&c.q, c.mu)
	c.q.Rsh(&c.t, c.k+1)
	c.t.Mul(&c.q, c.m)
	dst.Sub(&c.x, &c.t)
	for dst.Cmp(c.m) >= 0 {
		dst.Sub(dst, c.m)
	}
}
