// Package hhash implements the homomorphic hash of PAG (§IV-B): an unpadded
// RSA-style function H(u)_(p,M) = u^p mod M over a public modulus M whose
// factorisation is discarded at generation time.
//
// The function satisfies the two multiplicative identities the protocol
// exploits:
//
//	H(u1)_(p,M) · H(u2)_(p,M) = H(u1·u2)_(p,M)
//	H(H(u)_(p1,M))_(p2,M)     = H(u)_(p1·p2,M)
//
// Monitors use them to check that a node forwards the product of the
// updates it received — without learning the updates — by lifting per-
// predecessor attestations to the product key K(R,B) = ∏ p_i of the prime
// exponents the node handed out during round R, and comparing against the
// successors' acknowledgements.
//
// The paper uses a 512-bit modulus ("as recommended in [28]") and 512-bit
// primes; both sizes are configurable here (§VII-C discusses a 256-bit
// modulus as a cheaper option, which the ablation benchmarks cover).
package hhash

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync/atomic"

	"repro/internal/obs"
)

// DefaultModulusBits is the paper's modulus size (§VII-A).
const DefaultModulusBits = 512

// DefaultPrimeBits is the paper's prime-exponent size (§VII-A).
const DefaultPrimeBits = 512

var (
	_one = big.NewInt(1)
	_two = big.NewInt(2)
)

// Params carries the public hash parameters: the modulus M. The
// factorisation of M is never stored; nodes "cannot decrypt the hashed
// updates, as the value of the modulus M is smaller than the size of
// updates" (§IV-B).
type Params struct {
	m *big.Int
}

// GenerateParams creates a fresh modulus M = p·q of the given bit size from
// two random primes and discards the factors. rnd may be nil to use
// crypto/rand.Reader.
//
// The factors come from the fixed-bytes-per-candidate construction of
// pregenPrime, accepted by its prefilter and then ProbablyPrime(20), so a
// seeded rnd always yields the same modulus: processes that share a seed
// hash under one M. (crypto/rand.Prime would not: it consumes a random
// number of stream bytes.) Both factors have their top two bits set, so M
// has exactly `bits` bits.
func GenerateParams(rnd io.Reader, bits int) (Params, error) {
	if rnd == nil {
		rnd = rand.Reader
	}
	if bits < 16 {
		return Params{}, fmt.Errorf("hhash: modulus size %d too small", bits)
	}
	half := bits / 2
	p, err := randomPrime(rnd, half, 20)
	if err != nil {
		return Params{}, fmt.Errorf("hhash: generating modulus factor: %w", err)
	}
	var q *big.Int
	for q == nil || q.Cmp(p) == 0 {
		if q, err = randomPrime(rnd, bits-half, 20); err != nil {
			return Params{}, fmt.Errorf("hhash: generating modulus factor: %w", err)
		}
	}
	return Params{m: new(big.Int).Mul(p, q)}, nil
}

// ParamsFromModulus builds Params from an existing modulus, validating it.
func ParamsFromModulus(m *big.Int) (Params, error) {
	if m == nil || m.Cmp(_two) <= 0 {
		return Params{}, errors.New("hhash: modulus must be > 2")
	}
	return Params{m: new(big.Int).Set(m)}, nil
}

// Modulus returns a copy of M.
func (p Params) Modulus() *big.Int {
	if p.m == nil {
		return nil
	}
	return new(big.Int).Set(p.m)
}

// Bytes encodes the modulus as a big-endian byte string.
func (p Params) Bytes() []byte {
	if p.m == nil {
		return nil
	}
	return p.m.Bytes()
}

// ParamsFromBytes decodes Params previously encoded with Bytes.
func ParamsFromBytes(b []byte) (Params, error) {
	if len(b) == 0 {
		return Params{}, errors.New("hhash: empty modulus encoding")
	}
	return ParamsFromModulus(new(big.Int).SetBytes(b))
}

// ValueLen returns the fixed byte length of an encoded hash value
// (the width of M). Wire encodings use it for deterministic sizing.
func (p Params) ValueLen() int {
	if p.m == nil {
		return 0
	}
	return (p.m.BitLen() + 7) / 8
}

// Key is a hash exponent: a prime number chosen by a receiver, or a product
// of such primes (e.g. K(R,B), the product of the primes node B handed to
// its predecessors during round R).
type Key struct {
	e *big.Int
}

// GeneratePrimeKey draws a fresh prime exponent of the given bit size:
// the next prime of the stream rnd (crypto/rand.Reader when nil), the
// same one a PrimePool over rnd would return.
func GeneratePrimeKey(rnd io.Reader, bits int) (Key, error) {
	if rnd == nil {
		rnd = rand.Reader
	}
	return pregenPrime(rnd, bits)
}

// KeyFromInt builds a key from an explicit positive exponent.
func KeyFromInt(e *big.Int) (Key, error) {
	if e == nil || e.Sign() <= 0 {
		return Key{}, errors.New("hhash: key exponent must be positive")
	}
	return Key{e: new(big.Int).Set(e)}, nil
}

// OneKey is the multiplicative identity key (exponent 1); hashing with it
// returns the canonical embedding of the data itself.
func OneKey() Key { return Key{e: new(big.Int).Set(_one)} }

// IsZero reports whether the key is the zero value (unusable).
func (k Key) IsZero() bool { return k.e == nil }

// Mul returns the product key k·o — the K(R,X) construction of §V-A.
func (k Key) Mul(o Key) Key {
	if k.e == nil {
		return o
	}
	if o.e == nil {
		return k
	}
	return Key{e: new(big.Int).Mul(k.e, o.e)}
}

// Exponent returns a copy of the key's exponent.
func (k Key) Exponent() *big.Int {
	if k.e == nil {
		return nil
	}
	return new(big.Int).Set(k.e)
}

// Equal reports whether two keys have the same exponent.
func (k Key) Equal(o Key) bool {
	if k.e == nil || o.e == nil {
		return k.e == nil && o.e == nil
	}
	return k.e.Cmp(o.e) == 0
}

// Bytes encodes the key exponent big-endian.
func (k Key) Bytes() []byte {
	if k.e == nil {
		return nil
	}
	return k.e.Bytes()
}

// KeyFromBytes decodes a key encoded with Bytes.
func KeyFromBytes(b []byte) (Key, error) {
	if len(b) == 0 {
		return Key{}, errors.New("hhash: empty key encoding")
	}
	return KeyFromInt(new(big.Int).SetBytes(b))
}

// Counter tallies the modular-exponentiation operations a party performs.
// Table I reports exactly this quantity ("we measured the number of ...
// homomorphic hashes per second rather than the CPU load", §VII-C).
//
// The unit is LOGICAL: one hash-op per attestation lifted, whether the
// lift ran as its own modexp, inside the simultaneous multi-
// exponentiation of VerifyForwarding, or folded into a VerifyBatch
// equation. Fast paths change how the work is executed, not how much
// protocol work was accounted — which is what keeps Table I rates
// comparable before and after the multi-exp optimisation.
type Counter struct {
	hashOps atomic.Uint64 // modexps: Hash + Lift
	mulOps  atomic.Uint64 // modular multiplications: Combine
}

// HashOps returns the number of modular exponentiations performed.
func (c *Counter) HashOps() uint64 {
	if c == nil {
		return 0
	}
	return c.hashOps.Load()
}

// MulOps returns the number of modular multiplications performed.
func (c *Counter) MulOps() uint64 {
	if c == nil {
		return 0
	}
	return c.mulOps.Load()
}

// Reset zeroes the counter.
func (c *Counter) Reset() {
	if c == nil {
		return
	}
	c.hashOps.Store(0)
	c.mulOps.Store(0)
}

// Hasher evaluates the hash under fixed Params, attributing operation
// counts to an optional per-node Counter.
//
// A Hasher is NOT safe for concurrent use: it carries per-instance
// scratch state (the Embed buffer and the Montgomery context of Lift
// and MultiExp). Protocol nodes serialise all entry points under their own
// mutex, which covers the monitor role sharing the node's hasher.
type Hasher struct {
	params Params
	ops    *Counter

	// liftSpans / verifySpans optionally time the two hot operations —
	// the Fig 9 profiling hook (lifted-hash modexp dominates PAG's CPU
	// cost). Nil histograms (the default) cost one branch per call. The
	// span *counts* are deterministic — one observation per logical
	// lifted hash and one per VerifyForwarding call — while the recorded
	// durations are wall-clock, which is why the histograms are
	// registered as obs.ClassTimed.
	liftSpans   *obs.Histogram
	verifySpans *obs.Histogram

	// embedScratch absorbs Embed's update-sized intermediate so the
	// retained residue is modulus-sized: embeddings are cached across
	// rounds by the protocol layer, and without the scratch each cached
	// residue would pin an update-sized backing array.
	embedScratch big.Int

	// multi is the lazily-built fixed-modulus engine of MultiExp and, when
	// it is a *montCtx, of Lift (nil for degenerate moduli — multiBuilt
	// distinguishes "not yet built" from "unbuildable").
	multi      multiExper
	multiBuilt bool
}

// NewHasher builds a Hasher; ops may be nil if counting is not needed.
func NewHasher(params Params, ops *Counter) *Hasher {
	return &Hasher{params: params, ops: ops}
}

// Instrument attaches timing histograms to the lifted-hash and
// forwarding-verification hot paths (either may be nil).
func (h *Hasher) Instrument(lift, verify *obs.Histogram) {
	h.liftSpans = lift
	h.verifySpans = verify
}

// Params returns the hasher's parameters.
func (h *Hasher) Params() Params { return h.params }

// Embed maps arbitrary data to the multiplicative residue group: the bytes
// are interpreted as a big-endian integer reduced mod M; a zero residue is
// mapped to 1 so that products are never annihilated. The embedding is the
// "u" of H(u)_(p,M).
// The returned residue is freshly allocated (callers cache and retain
// embeddings); only the update-sized intermediate lives in the hasher's
// scratch.
func (h *Hasher) Embed(data []byte) *big.Int {
	h.embedScratch.SetBytes(data)
	v := new(big.Int).Mod(&h.embedScratch, h.params.m)
	if v.Sign() == 0 {
		v.Set(_one)
	}
	return v
}

// Hash computes H(data)_(key,M) = Embed(data)^key mod M.
func (h *Hasher) Hash(key Key, data []byte) *big.Int {
	return h.Lift(h.Embed(data), key)
}

// Lift raises an existing hash value (or embedded residue) to a key:
// Lift(H(u)_(p1), p2) = H(u)_(p1·p2). This is the monitor-side operation of
// §V-B (message 8): raising an attestation to the remainder product.
func (h *Hasher) Lift(v *big.Int, key Key) *big.Int {
	if key.e == nil {
		panic("hhash: Lift with zero key")
	}
	if h.ops != nil {
		h.ops.hashOps.Add(1)
	}
	span := h.liftSpans.SpanStart()
	var out *big.Int
	if mc, ok := h.multiCtx().(*montCtx); ok {
		out = mc.exp(v, key.e)
	} else {
		// Even or degenerate modulus: no Montgomery context exists.
		out = new(big.Int).Exp(v, key.e, h.params.m)
	}
	h.liftSpans.SpanEnd(span)
	return out
}

// Combine multiplies two hash values mod M — the homomorphic combination of
// §V-C: H(S_A ∪ S_F)_K = H(S_A)_K × H(S_F)_K.
func (h *Hasher) Combine(a, b *big.Int) *big.Int {
	if h.ops != nil {
		h.ops.mulOps.Add(1)
	}
	v := new(big.Int).Mul(a, b)
	return v.Mod(v, h.params.m)
}

// Identity returns the hash of the empty set: 1. A node that received
// nothing still has an obligation — the identity — which its successors'
// acknowledgements must match (empty exchanges keep R1/R2 checkable).
func (h *Hasher) Identity() *big.Int { return new(big.Int).Set(_one) }

// HashSet computes H(∏ items[i]^counts[i])_(key,M): the hash of the product
// of a set of updates with reception multiplicities (§V-D, "Multiple
// receptions"). counts may be nil, in which case every multiplicity is 1.
func (h *Hasher) HashSet(key Key, items [][]byte, counts []uint64) (*big.Int, error) {
	if counts != nil && len(counts) != len(items) {
		return nil, fmt.Errorf("hhash: %d items but %d counts", len(items), len(counts))
	}
	prod := h.ProductEmbed(items, counts)
	return h.Lift(prod, key), nil
}

// ProductEmbed returns ∏ Embed(items[i])^counts[i] mod M without the final
// key exponentiation. Receivers use it to maintain the running product of
// what they accepted during a round.
func (h *Hasher) ProductEmbed(items [][]byte, counts []uint64) *big.Int {
	prod := new(big.Int).Set(_one)
	for i, it := range items {
		v := h.Embed(it)
		if counts != nil && counts[i] != 1 {
			c := new(big.Int).SetUint64(counts[i])
			if h.ops != nil {
				h.ops.hashOps.Add(1)
			}
			v.Exp(v, c, h.params.m)
		}
		if h.ops != nil {
			h.ops.mulOps.Add(1)
		}
		prod.Mul(prod, v)
		prod.Mod(prod, h.params.m)
	}
	return prod
}

// VerifyForwarding checks the paper's monitor equation (§IV-B):
//
//	∏_j ( H(S_j)_(p_j,M) )^(K/p_j)  mod M  ==  ackHash
//
// where attestations[j] is the per-predecessor attested hash under prime
// p_j and remainders[j] is K/p_j = ∏_{k≠j} p_k. ackHash is the successor's
// acknowledgement under the full product key K.
// The product is evaluated by simultaneous multi-exponentiation
// (MultiExp) — one shared squaring chain instead of one full modexp per
// predecessor. Counter semantics are unchanged from the per-attestation
// loop it replaced: one logical hash-op and one modular multiplication
// per attestation, so Table I accounting stays comparable across the
// optimisation.
func (h *Hasher) VerifyForwarding(attestations []*big.Int, remainders []Key, ackHash *big.Int) (bool, error) {
	if len(attestations) != len(remainders) {
		return false, fmt.Errorf("hhash: %d attestations but %d remainders",
			len(attestations), len(remainders))
	}
	span := h.verifySpans.SpanStart()
	if h.ops != nil {
		h.ops.hashOps.Add(uint64(len(attestations)))
		h.ops.mulOps.Add(uint64(len(attestations)))
	}
	exps := make([]*big.Int, len(remainders))
	for j, k := range remainders {
		if k.e == nil {
			return false, errors.New("hhash: VerifyForwarding with zero remainder key")
		}
		exps[j] = k.e
	}
	acc, err := h.MultiExp(attestations, exps)
	h.verifySpans.SpanEnd(span)
	if err != nil {
		return false, err
	}
	return acc.Cmp(ackHash) == 0, nil
}

// verifyForwardingNaive is the pre-optimisation reference: one full
// modular exponentiation per attestation. Kept (and benchmarked against
// the multi-exp path) as the correctness oracle.
func (h *Hasher) verifyForwardingNaive(attestations []*big.Int, remainders []Key, ackHash *big.Int) (bool, error) {
	if len(attestations) != len(remainders) {
		return false, fmt.Errorf("hhash: %d attestations but %d remainders",
			len(attestations), len(remainders))
	}
	acc := h.Identity()
	for j, att := range attestations {
		lifted := h.Lift(att, remainders[j])
		acc = h.Combine(acc, lifted)
	}
	return acc.Cmp(ackHash) == 0, nil
}

// EncodeValue encodes a hash value as a fixed-width big-endian byte string
// of Params.ValueLen bytes, the wire representation.
func (p Params) EncodeValue(v *big.Int) ([]byte, error) {
	if v == nil || v.Sign() < 0 || v.Cmp(p.m) >= 0 {
		return nil, errors.New("hhash: value out of range for modulus")
	}
	out := make([]byte, p.ValueLen())
	v.FillBytes(out)
	return out, nil
}

// DecodeValue decodes a value encoded by EncodeValue.
func (p Params) DecodeValue(b []byte) (*big.Int, error) {
	if len(b) != p.ValueLen() {
		return nil, fmt.Errorf("hhash: value encoding is %d bytes, want %d",
			len(b), p.ValueLen())
	}
	v := new(big.Int).SetBytes(b)
	if v.Cmp(p.m) >= 0 {
		return nil, errors.New("hhash: decoded value exceeds modulus")
	}
	return v, nil
}
