package hhash

// Prime generation: PAG mints one fresh prime exponent per exchange
// (message 2 of Fig 5). pregenPrime draws the candidates; a small-prime
// sieve rejects most composites, a Baillie-PSW test on the Montgomery
// engine decides the rest, and PrimePool moves the generation off the
// exchange's critical path.

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/model"
)

// pregenPrime draws a prime exponent of exactly `bits` bits from rnd.
//
// It mirrors crypto/rand.Prime's candidate construction — the top TWO
// bits and the low bit are forced, which is what keeps every prime (and
// every product of j primes) at a fixed encoded byte length; the wire
// format and therefore the report byte-identity depend on that length
// stability. It differs from crypto/rand.Prime in two ways. Each
// candidate consumes exactly (bits+7)/8 stream bytes (no
// randutil.MaybeReadByte), so a seeded rnd yields a reproducible prime
// sequence. And a candidate is accepted by probablyPrime(1) — the
// base-2 strong round, one strong round at a base derived from the
// candidate and a Lucas test, so a Baillie-PSW test with the strength of
// ProbablyPrime(1) — instead of 20 rounds: no composite is known to pass
// Baillie-PSW, and the exponents are ephemeral per-exchange keys (the
// homomorphic identities hold for any exponent; primality only backs the
// coprimality argument).
//
// The accepted set is ProbablyPrime(1)'s: both run the base-2 round and
// the same Lucas test, so they can differ only on a Baillie-PSW
// pseudoprime, and the prime sequence is the one ProbablyPrime(1) would
// accept.
func pregenPrime(rnd io.Reader, bits int) (Key, error) {
	if bits < 8 {
		return Key{}, fmt.Errorf("hhash: prime size %d too small", bits)
	}
	p, err := randomPrime(rnd, bits, 1)
	if err != nil {
		return Key{}, fmt.Errorf("hhash: generating prime key: %w", err)
	}
	return Key{e: p}, nil
}

// randomPrime draws candidates of exactly `bits` (≥ 8) bits from rnd, a
// fixed (bits+7)/8 bytes each, and returns the first that passes two
// steps:
//
//  1. A trial division by the odd primes below sieveBound, grouped into
//     word-sized products (sieveComposite). A candidate with a small
//     factor other than itself is composite, and the Baillie-PSW test
//     rejects every composite that is not a Baillie-PSW pseudoprime, of
//     which none is known (and none exists below 2^64).
//  2. probablyPrime(reps) on the Montgomery engine. Its base-2 strong
//     round comes first and rejects almost every composite the sieve
//     let through.
func randomPrime(rnd io.Reader, bits, reps int) (*big.Int, error) {
	b := uint(bits % 8)
	if b == 0 {
		b = 8
	}
	buf := make([]byte, (bits+7)/8)
	p := new(big.Int)
	var mc montCtx
	for {
		if _, err := io.ReadFull(rnd, buf); err != nil {
			return nil, err
		}
		buf[0] &= uint8(int(1<<b) - 1)
		if b >= 2 {
			buf[0] |= 3 << (b - 2)
		} else {
			// b == 1: the second-highest bit lives in the next byte.
			buf[0] |= 1
			buf[1] |= 0x80
		}
		buf[len(buf)-1] |= 1
		p.SetBytes(buf)
		if sieveComposite(p.Bits()) {
			continue
		}
		mc.setModulus(p)
		if mc.probablyPrime(reps) {
			return p, nil
		}
	}
}

// sieveBound bounds the trial-division primes of the sieve.
const sieveBound = 1 << 12

// sievePrime is one odd trial-division prime q with its divisibility
// constants: r is a multiple of q iff r·inv mod 2^W ≤ lim, with
// inv = q⁻¹ mod 2^W and lim = ⌊(2^W-1)/q⌋.
type sievePrime struct{ q, inv, lim uint }

// sieveGroup is a run of consecutive sieve primes whose product fits in
// one word, so a candidate reduces modulo all of them in one pass.
type sieveGroup struct {
	prod   uint
	primes []sievePrime
}

var sieveGroups = buildSieve(sieveBound)

// buildSieve groups the odd primes below bound into word-sized products.
func buildSieve(bound int) []sieveGroup {
	composite := make([]bool, bound)
	var groups []sieveGroup
	for q := 3; q < bound; q += 2 {
		if composite[q] {
			continue
		}
		for j := q * q; j < bound; j += 2 * q {
			composite[j] = true
		}
		sp := sievePrime{q: uint(q), inv: wordInverse(uint(q)), lim: ^uint(0) / uint(q)}
		if n := len(groups); n > 0 {
			if hi, lo := bits.Mul(groups[n-1].prod, uint(q)); hi == 0 {
				groups[n-1].prod = lo
				groups[n-1].primes = append(groups[n-1].primes, sp)
				continue
			}
		}
		groups = append(groups, sieveGroup{prod: uint(q), primes: []sievePrime{sp}})
	}
	return groups
}

// sieveComposite reports whether the odd number with little-endian limbs
// words has a sieve prime as a proper factor. It never rejects a sieve
// prime itself.
func sieveComposite(words []big.Word) bool {
	single := len(words) == 1
	for _, g := range sieveGroups {
		var r uint
		for i := len(words) - 1; i >= 0; i-- {
			_, r = bits.Div(r, uint(words[i]), g.prod)
		}
		for _, sp := range g.primes {
			if r*sp.inv <= sp.lim && !(single && uint(words[0]) == sp.q) {
				return true
			}
		}
	}
	return false
}

// probablyPrime reports whether c's modulus m (odd, ≥ 3) is probably
// prime by the test big.Int.ProbablyPrime(reps) runs (Baillie and
// Wagstaff, Math. Comp. 35, 1980), on the Montgomery engine: a strong
// round at base 2, reps strong rounds at bases derived from m, and the
// almost-extra-strong Lucas test. ProbablyPrime draws its bases from a
// math/rand source seeded by m's low word; here they come from a
// splitmix64 stream seeded by all of m's limbs. Both are fixed by m, and
// the verdicts can differ only on a composite that passes the base-2
// round and the Lucas test — a Baillie-PSW pseudoprime, of which none is
// known.
func (c *montCtx) probablyPrime(reps int) bool {
	k := c.k
	c.residues = resize(c.residues, 7*k)
	mone := c.residues[:k] // m-1 in Montgomery form
	c.neg(mone, c.one)
	// m-1 = d·2^s with d odd: m is odd, so d's bits are m's bits s and up.
	s := int(c.quo.Sub(c.mod, _one).TrailingZeroBits())
	nbits := c.mod.BitLen()

	// Base 2: the ladder over d's bits doubles instead of multiplying.
	acc := c.scratchLimbs(k)
	c.add(acc, c.one, c.one)
	for i := nbits - 2; i >= s; i-- {
		c.mul(acc, acc, acc)
		if c.m[i/_W]>>(uint(i)%_W)&1 == 1 {
			c.add(acc, acc, acc)
		}
	}
	if !c.strongRound(acc, mone, s) {
		return false
	}

	// Derived bases: limbs read directly as a Montgomery residue a·R mod
	// m, which needs no conversion. Clearing the bits from m's top bit up
	// keeps them below m, and the forced low bit keeps them non-zero.
	var rng model.SplitMix64
	for _, w := range c.m {
		rng.State ^= uint64(w)
		rng.State = rng.Next()
	}
	top := uint(nbits - _W*(k-1)) // bits in m's top limb
	for i := 0; i < reps; i++ {
		base := c.windowBase(nbits - s)
		for j := range base {
			base[j] = uint(rng.Next())
		}
		base[k-1] &= 1<<(top-1) - 1
		base[0] |= 1
		if !c.strongRound(c.powWindow(c.mod.Bits(), s, nbits-s), mone, s) {
			return false
		}
	}
	return c.lucas()
}

// strongRound finishes a strong probable-prime round from acc = a^d in
// Montgomery form, where m-1 = d·2^s: m passes when a^d ≡ 1 or
// a^(d·2^j) ≡ -1 for some j < s. It overwrites acc.
func (c *montCtx) strongRound(acc, mone []uint, s int) bool {
	if slices.Equal(acc, c.one) || slices.Equal(acc, mone) {
		return true
	}
	for j := 1; j < s; j++ {
		c.mul(acc, acc, acc)
		if slices.Equal(acc, mone) {
			return true
		}
		if slices.Equal(acc, c.one) {
			return false
		}
	}
	return false
}

// lucas reports whether c's modulus m (odd, ≥ 3) passes the
// almost-extra-strong Lucas probable-prime test exactly as math/big's
// Baillie-PSW test runs it: P from Baillie-OEIS method C (the least
// P ≥ 3 with Jacobi(P²-4, m) = -1, Q = 1), an early exit when the Jacobi
// symbol is 0, a perfect-square check at P = 40, and then, for
// m+1 = s·2^r with s odd, V_s ≡ ±2 with U_s ≡ 0, or V_{2^t·s} ≡ 0 for
// some t < r-1. Each V step is one Montgomery multiply and a modular
// subtraction.
func (c *montCtx) lucas() bool {
	k := c.k
	p := uint(3)
	d := new(big.Int)
	for ; ; p++ {
		if p > 10000 {
			// As in math/big: believed impossible for a non-square m.
			panic("hhash: cannot find (D/m) = -1 for " + c.mod.String())
		}
		j := big.Jacobi(d.SetUint64(uint64(p*p-4)), c.mod)
		if j == -1 {
			break
		}
		if j == 0 {
			// D = (p-2)(p+2) and the search rose from p-2 = 1, so p+2
			// divides m: m is prime iff it is p+2.
			return k == 1 && c.m[0] == p+2
		}
		if p == 40 {
			// A square m never meets Jacobi(D, m) = -1.
			if r := new(big.Int).Sqrt(c.mod); r.Mul(r, r).Cmp(c.mod) == 0 {
				return false
			}
		}
	}

	c.residues = resize(c.residues, 7*k) // [:k] is probablyPrime's
	rs := c.residues[k:]
	two, mtwo, mp, vk, vk1, t := rs[:k], rs[k:2*k], rs[2*k:3*k], rs[3*k:4*k], rs[4*k:5*k], rs[5*k:6*k]
	c.add(two, c.one, c.one)
	c.neg(mtwo, two)
	copy(mp, c.one) // p·R mod m, by double-and-add over p's bits
	for i := bits.Len(p) - 2; i >= 0; i-- {
		c.add(mp, mp, mp)
		if p>>uint(i)&1 == 1 {
			c.add(mp, mp, c.one)
		}
	}

	// V_0 = 2, V_1 = P; V_2k = V_k² - 2 and V_2k+1 = V_k·V_k+1 - P walk
	// (vk, vk1) = (V_k, V_k+1) up the bits of s, which are those of m+1
	// from bit r up.
	n1 := c.quo.Add(c.mod, _one)
	r := int(n1.TrailingZeroBits())
	words := n1.Bits()
	copy(vk, two)
	copy(vk1, mp)
	for i := n1.BitLen() - 1; i >= r; i-- {
		if words[i/_W]>>(uint(i)%_W)&1 == 1 {
			c.mul(vk, vk, vk1)
			c.sub(vk, vk, mp)
			c.mul(vk1, vk1, vk1)
			c.sub(vk1, vk1, two)
		} else {
			c.mul(vk1, vk, vk1)
			c.sub(vk1, vk1, mp)
			c.mul(vk, vk, vk)
			c.sub(vk, vk, two)
		}
	}

	if slices.Equal(vk, two) || slices.Equal(vk, mtwo) {
		// U_s = D⁻¹(2V_s+1 - P·V_s), so U_s ≡ 0 iff P·V_s ≡ 2V_s+1.
		c.mul(t, mp, vk)
		c.add(vk1, vk1, vk1)
		if slices.Equal(t, vk1) {
			return true
		}
	}
	for i := 0; i < r-1; i++ {
		if isZero(vk) {
			return true
		}
		if slices.Equal(vk, two) {
			return false // V = 2 is a fixed point of V ↦ V² - 2
		}
		c.mul(vk, vk, vk)
		c.sub(vk, vk, two)
	}
	return false
}

// isZero reports whether every limb of a is zero.
func isZero(a []uint) bool {
	for _, w := range a {
		if w != 0 {
			return false
		}
	}
	return true
}

// PrimePool pregenerates prime exponents from a single entropy stream.
//
// Ordering is the pool's contract: the i-th Get always returns the i-th
// prime of the stream, no matter how generation interleaves with demand —
// every draw from rnd happens under the pool mutex and appends FIFO, and
// Get pops FIFO. With a per-node pool that keeps prime issuance a
// deterministic function of (stream, demand order), which is exactly
// what the worker-count byte-identity gate needs: demand order is fixed
// by the engine, and the refill goroutine only moves the draws earlier
// in wall time, never reorders them.
//
// Refills run on a one-shot background goroutine (started when the queue
// runs low, exits when the queue is full), so an idle pool holds no
// goroutine and a session teardown leaks nothing.
type PrimePool struct {
	mu      sync.Mutex
	rnd     io.Reader
	bits    int
	target  int
	queue   []Key
	head    int
	filling bool
	err     error
}

// DefaultPrimePoolTarget is the refill high-water mark: comfortably above
// the per-round demand (one prime per predecessor; fan-out is log₁₀ n).
const DefaultPrimePoolTarget = 8

// NewPrimePool builds a pool drawing `bits`-bit primes from rnd. target
// is the refill high-water mark (DefaultPrimePoolTarget if <= 0). The
// first refill is lazy: no entropy is consumed before the first Get, so
// constructing a pool is free.
func NewPrimePool(rnd io.Reader, bits, target int) (*PrimePool, error) {
	if rnd == nil {
		return nil, errors.New("hhash: prime pool needs an entropy source")
	}
	if bits < 8 {
		return nil, fmt.Errorf("hhash: prime size %d too small", bits)
	}
	if target <= 0 {
		target = DefaultPrimePoolTarget
	}
	return &PrimePool{rnd: rnd, bits: bits, target: target}, nil
}

// Get pops the next pregenerated prime, generating inline (in stream
// order) when the queue is empty, and kicks a background refill when the
// queue runs low.
func (p *PrimePool) Get() (Key, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return Key{}, p.err
	}
	if p.head == len(p.queue) {
		k, err := pregenPrime(p.rnd, p.bits)
		if err != nil {
			p.err = err
			return Key{}, err
		}
		p.maybeFillLocked()
		return k, nil
	}
	k := p.queue[p.head]
	p.queue[p.head] = Key{}
	p.head++
	if p.head == len(p.queue) {
		p.queue = p.queue[:0]
		p.head = 0
	}
	p.maybeFillLocked()
	return k, nil
}

// Len returns the number of pregenerated primes currently queued.
func (p *PrimePool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue) - p.head
}

// maybeFillLocked starts the one-shot refill goroutine when the queue is
// at or below half the target and no refill is in flight.
func (p *PrimePool) maybeFillLocked() {
	if p.filling || p.err != nil || len(p.queue)-p.head > p.target/2 {
		return
	}
	p.filling = true
	go p.fill()
}

func (p *PrimePool) fill() {
	for {
		p.mu.Lock()
		if p.err != nil || len(p.queue)-p.head >= p.target {
			p.filling = false
			p.mu.Unlock()
			return
		}
		// Generation holds the mutex: the stream draw and the queue
		// append must be one atomic step for the FIFO ordering contract.
		// A Get racing this waits at most one generation — the same
		// latency it would have paid inline without a pool.
		k, err := pregenPrime(p.rnd, p.bits)
		if err != nil {
			p.err = err
			p.filling = false
			p.mu.Unlock()
			return
		}
		p.queue = append(p.queue, k)
		p.mu.Unlock()
	}
}
