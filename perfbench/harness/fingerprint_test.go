package harness

import (
	"math"
	"testing"

	"repro/internal/judicial"
	"repro/internal/model"
)

func sampleOutcome() Outcome {
	return Outcome{
		BandwidthKbps: map[model.NodeID]float64{2: 431.25, 3: 440.5, 4: 437.125},
		Continuity:    0.9984,
		Verdicts: []judicial.Key{
			{Accused: 4, Accuser: 2, Round: 12, Kind: "R1"},
			{Accused: 3, Accuser: 2, Round: 11, Kind: "R2"},
		},
		HashOps: 12345,
	}
}

func TestFingerprintStable(t *testing.T) {
	a, b := sampleOutcome(), sampleOutcome()
	b.Verdicts[0], b.Verdicts[1] = b.Verdicts[1], b.Verdicts[0]
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprint depends on verdict order")
	}
}

func TestFingerprintSeesOneBandwidthBit(t *testing.T) {
	a, b := sampleOutcome(), sampleOutcome()
	b.BandwidthKbps[3] = math.Float64frombits(math.Float64bits(b.BandwidthKbps[3]) ^ 1)
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("flipping one member's lowest bandwidth bit left the fingerprint unchanged")
	}
}

func TestFingerprintSeesEveryField(t *testing.T) {
	base := sampleOutcome().Fingerprint()
	mutations := map[string]func(*Outcome){
		"continuity": func(o *Outcome) { o.Continuity = 0.9985 },
		"hash ops":   func(o *Outcome) { o.HashOps++ },
		"verdict":    func(o *Outcome) { o.Verdicts[1].Kind = "R3" },
		"member":     func(o *Outcome) { o.BandwidthKbps[5] = 0 },
	}
	for name, mutate := range mutations {
		o := sampleOutcome()
		mutate(&o)
		if o.Fingerprint() == base {
			t.Errorf("changing the %s left the fingerprint unchanged", name)
		}
	}
}
