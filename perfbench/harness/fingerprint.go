package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"

	"repro/internal/judicial"
	"repro/internal/model"
)

// Outcome is what a measured window produced, reduced to the observables
// a seeded in-memory run must reproduce exactly: the per-member bandwidth
// of the window, the playout continuity, the deduplicated verdict set and
// the homomorphic-hash operation count. Wall-clock figures stay out.
type Outcome struct {
	// BandwidthKbps maps every present member except the source to its
	// mean bandwidth over the window.
	BandwidthKbps map[model.NodeID]float64
	Continuity    float64
	Verdicts      []judicial.Key
	HashOps       uint64
}

// Fingerprint returns the SHA-256 of a canonical encoding of o: members in
// id order with their bandwidth as IEEE-754 bits, the continuity bits, the
// verdict keys sorted by (round, accused, accuser, kind), then the hash
// operation count. Two outcomes share a fingerprint exactly when every one
// of those bits agrees.
func (o Outcome) Fingerprint() string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	ids := make([]model.NodeID, 0, len(o.BandwidthKbps))
	for id := range o.BandwidthKbps {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	put(uint64(len(ids)))
	for _, id := range ids {
		put(uint64(id))
		put(math.Float64bits(o.BandwidthKbps[id]))
	}
	put(math.Float64bits(o.Continuity))
	keys := append([]judicial.Key(nil), o.Verdicts...)
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Round != b.Round {
			return a.Round < b.Round
		}
		if a.Accused != b.Accused {
			return a.Accused < b.Accused
		}
		if a.Accuser != b.Accuser {
			return a.Accuser < b.Accuser
		}
		return a.Kind < b.Kind
	})
	put(uint64(len(keys)))
	for _, k := range keys {
		put(uint64(k.Round))
		put(uint64(k.Accused))
		put(uint64(k.Accuser))
		put(uint64(len(k.Kind)))
		h.Write([]byte(k.Kind))
	}
	put(o.HashOps)
	return hex.EncodeToString(h.Sum(nil))
}
