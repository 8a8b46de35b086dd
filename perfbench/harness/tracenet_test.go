package harness

import (
	"math"
	"testing"
)

func TestSummarySelfAndIdleTimes(t *testing.T) {
	rec := NewRecorder()
	// One round, times in nanoseconds: BeginRound, then a DeliverAll whose
	// two handlers run 20 ns and 10 ns (the first sends for 5 ns), then a
	// Send made by a node phase.
	rec.rounds[1] = []span{
		{start: 0, end: 100, parent: -1, kind: spanRound},
		{start: 0, end: 10, parent: 0, kind: spanBeginRound},
		{start: 20, end: 80, parent: 0, kind: spanDeliver},
		{start: 25, end: 45, parent: 2, kind: spanHandler, msgKind: 3},
		{start: 30, end: 35, parent: 3, kind: spanSend, msgKind: 4},
		{start: 50, end: 60, parent: 2, kind: spanHandler, msgKind: 5},
		{start: 85, end: 90, parent: 0, kind: spanSend, msgKind: 6},
	}
	s := rec.Summary()
	ms := func(ns float64) float64 { return ns / 1e6 }
	checks := []struct {
		name      string
		got, want float64
	}{
		{"phase self", s.PhaseSelfMs, ms(100 - 10 - 60)},
		{"begin round", s.BeginRoundMs, ms(10)},
		{"deliver self", s.DeliverSelfMs, ms(60 - 20 - 10)},
		{"deliver idle", s.DeliverIdleMs, ms(80 - 60)},
		{"handle", s.HandleMs, ms(15 + 10)},
		{"send", s.SendUs, 5.0 / 1e3},
		{"handle kind 3", s.HandleUsByKind[3], 15.0 / 1e3},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want) > 1e-15 {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if s.Rounds != 1 || s.HandlerCalls[3] != 1 || s.HandlerCalls[5] != 1 {
		t.Errorf("rounds %d, handler calls %v", s.Rounds, s.HandlerCalls)
	}
}

func TestRecorderIgnoresSpansOutsideRounds(t *testing.T) {
	rec := NewRecorder()
	rec.push(spanSend, 1)
	rec.pop()
	rec.StartRound(4)
	rec.push(spanDeliver, 0)
	rec.pop()
	rec.EndRound()
	rec.push(spanHandler, 1)
	rec.pop()
	if len(rec.rounds) != 1 || len(rec.rounds[4]) != 2 {
		t.Fatalf("recorded %v, want the round and its DeliverAll only", rec.rounds)
	}
}
