package hhash

// Prime generation: PAG mints one fresh prime exponent per exchange
// (message 2 of Fig 5). pregenPrime draws the candidates; a prefilter
// rejects most composites before the unchanged math/big test sees them,
// and PrimePool moves the generation off the exchange's critical path.

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"
	"slices"
	"sync"
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
// sequence. And a candidate is accepted by ProbablyPrime(1) — one
// random-base Miller-Rabin round, the base-2 round and a Lucas test, so
// a Baillie-PSW test — instead of ProbablyPrime(20): no composite is known
// to pass Baillie-PSW, and the exponents are ephemeral per-exchange keys
// (the homomorphic identities hold for any exponent; primality only backs
// the coprimality argument).
//
// Before ProbablyPrime, which reseeds a math/rand source on every call,
// each candidate meets the prefilter of randomPrime, which rejects only
// composites that ProbablyPrime(1) rejects too, so the prime sequence is
// the one ProbablyPrime(1) alone would accept.
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
// fixed (bits+7)/8 bytes each, and returns the first that passes the
// prefilter and then ProbablyPrime(reps). The prefilter runs two steps:
//
//  1. A trial division by the odd primes below sieveBound, grouped into
//     word-sized products (sieveComposite). A candidate with a small
//     factor other than itself is composite, and ProbablyPrime rejects
//     every composite that is not a Baillie-PSW pseudoprime, of which
//     none is known (and none exists below 2^64).
//  2. A base-2 Fermat test on the Montgomery engine. A composite n with
//     2^(n-1) ≢ 1 (mod n) is not a base-2 strong probable prime either,
//     and ProbablyPrime always runs the base-2 Miller-Rabin round.
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
		if !mc.fermat2() {
			continue
		}
		if p.ProbablyPrime(reps) {
			return p, nil
		}
	}
}

// sieveBound bounds the trial-division primes of the prefilter.
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

// fermat2 reports whether 2^(m-1) ≡ 1 (mod m) for c's modulus m: the
// base-2 Fermat test. It runs left to right over the bits of m-1, which
// are m's with bit 0 cleared, and applies the base 2 as a modular
// doubling instead of a table multiply.
func (c *montCtx) fermat2() bool {
	acc := c.scratchLimbs(c.k)
	copy(acc, c.one)
	c.double(acc) // the top bit of m-1: acc = 2 in Montgomery form
	for i := c.mod.BitLen() - 2; i >= 1; i-- {
		c.mul(acc, acc, acc)
		if c.m[i/_W]>>(uint(i)%_W)&1 == 1 {
			c.double(acc)
		}
	}
	c.mul(acc, acc, acc) // bit 0 of m-1 is clear
	return slices.Equal(acc, c.one)
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
