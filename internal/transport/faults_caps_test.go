package transport

import (
	"sync"
	"testing"
	"time"

	"repro/internal/model"
)

// Unit coverage for the per-node queue deadlines and the download-side
// cap (the asymmetric-link model's receive direction).

// TestPerNodeQueueDeadlineOverride: one capped uplink with expiry
// disabled (-1) drains its whole backlog; a sibling under the global
// 1-round deadline ages out everything the cap could not release in
// time; removing the override restores the global rule.
func TestPerNodeQueueDeadlineOverride(t *testing.T) {
	net := NewMemNet()
	var mu sync.Mutex
	byFrom := map[model.NodeID]int{}
	if _, err := net.Register(2, func(m Message) {
		mu.Lock()
		byFrom[m.From]++
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	eps := map[model.NodeID]Endpoint{}
	for _, id := range []model.NodeID{1, 3} {
		ep, err := net.Register(id, func(Message) {})
		if err != nil {
			t.Fatal(err)
		}
		eps[id] = ep
	}

	payload := make([]byte, 10)
	size := uint64(Message{Payload: payload}.WireSize())
	capBudget := 3 * size // three messages per round
	f := net.Faults()
	f.SetUploadCap(1, capBudget)
	f.SetUploadCap(3, capBudget)
	f.SetQueueDeadline(1)
	f.SetQueueDeadlineFor(1, -1) // node 1's backlog never expires

	net.BeginRound()
	for i := 0; i < 10; i++ {
		_ = eps[1].Send(2, 1, payload)
		_ = eps[3].Send(2, 1, payload)
	}
	net.DeliverAll()
	if d := f.Deferred(); d != 14 {
		t.Fatalf("deferred %d, want 14 (7 per capped sender)", d)
	}

	for r := 0; r < 5; r++ {
		net.BeginRound()
		net.DeliverAll()
	}
	mu.Lock()
	got1, got3 := byFrom[1], byFrom[3]
	mu.Unlock()
	if got1 != 10 {
		t.Errorf("expiry-disabled sender delivered %d/10", got1)
	}
	// Node 3: 3 in the send round, 3 released the next round, then the
	// remaining 4 exceed the 1-round deadline and expire.
	if got3 != 6 {
		t.Errorf("deadlined sender delivered %d, want 6", got3)
	}
	if e := f.CapExpired(); e != 4 {
		t.Errorf("expired %d, want 4", e)
	}
	if d := f.QueueDepth(); d != 0 {
		t.Errorf("queue depth %d after drain, want 0", d)
	}

	// Removing the override puts node 1 back under the global rule.
	f.SetQueueDeadlineFor(1, 0)
	net.BeginRound()
	for i := 0; i < 10; i++ {
		_ = eps[1].Send(2, 1, payload)
	}
	net.DeliverAll()
	for r := 0; r < 3; r++ {
		net.BeginRound()
		net.DeliverAll()
	}
	mu.Lock()
	got1 = byFrom[1]
	mu.Unlock()
	if got1 != 16 {
		t.Errorf("re-deadlined sender total %d, want 16 (6 more)", got1)
	}
}

// TestDownloadCapDropsOverBudget: the receive-side cap discards
// over-budget arrivals (no inbound queue), resets per round, and lets an
// oversized message through on an untouched round instead of wedging.
func TestDownloadCapDropsOverBudget(t *testing.T) {
	net, eps, got := faultNet(t, 3)
	payload := make([]byte, 10)
	size := uint64(Message{Payload: payload}.WireSize())
	f := net.Faults()
	f.SetDownloadCap(2, 3*size)

	net.BeginRound()
	for i := 0; i < 5; i++ {
		_ = eps[1].Send(2, 1, payload)
		_ = eps[3].Send(2, 1, payload)
	}
	net.DeliverAll()
	if got[2] != 3 {
		t.Errorf("capped receiver got %d, want 3", got[2])
	}
	if d := f.DownloadDropped(); d != 7 {
		t.Errorf("download-dropped %d, want 7", d)
	}
	if d := net.Faults().Dropped(); d != 7 {
		t.Errorf("combined drops %d, want 7 (download drops are a subset)", d)
	}

	// Fresh round, fresh budget.
	net.BeginRound()
	_ = eps[1].Send(2, 1, payload)
	net.DeliverAll()
	if got[2] != 4 {
		t.Errorf("receiver got %d after budget reset, want 4", got[2])
	}

	// A cap below one message's size still passes the first arrival of a
	// round (the anti-wedge rule), then drops the rest.
	f.SetDownloadCap(3, size/2)
	net.BeginRound()
	_ = eps[1].Send(3, 1, payload)
	_ = eps[1].Send(3, 1, payload)
	net.DeliverAll()
	if got[3] != 1 {
		t.Errorf("tiny-capped receiver got %d, want 1", got[3])
	}

	// Removing the cap restores full delivery.
	f.SetDownloadCap(2, 0)
	net.BeginRound()
	for i := 0; i < 5; i++ {
		_ = eps[1].Send(2, 1, payload)
	}
	net.DeliverAll()
	if got[2] != 9 {
		t.Errorf("uncapped receiver got %d, want 9", got[2])
	}
}

// TestDownloadCapParityMemTCP: with uniform message sizes the drop count
// is order-independent, so the wire transport must agree with MemNet
// exactly — the mem-vs-socket equivalence extended to the download side.
func TestDownloadCapParityMemTCP(t *testing.T) {
	run := func(nw FaultyNetwork) (delivered int, dlDropped uint64) {
		var mu sync.Mutex
		if _, err := nw.Register(2, func(Message) {
			mu.Lock()
			delivered++
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
		eps := map[model.NodeID]Endpoint{}
		for _, id := range []model.NodeID{1, 3} {
			ep, err := nw.Register(id, func(Message) {})
			if err != nil {
				t.Fatal(err)
			}
			eps[id] = ep
		}
		payload := make([]byte, 10)
		size := uint64(Message{Payload: payload}.WireSize())
		nw.Faults().SetDownloadCap(2, 3*size)
		for r := 0; r < 3; r++ {
			nw.BeginRound()
			for i := 0; i < 10; i++ {
				_ = eps[1].Send(2, 1, payload)
				_ = eps[3].Send(2, 1, payload)
			}
			nw.DeliverAll()
		}
		mu.Lock()
		defer mu.Unlock()
		return delivered, nw.Faults().DownloadDropped()
	}

	memGot, memDropped := run(NewMemNet())

	tn := NewTCPNet(nil)
	tn.SetDynamic("127.0.0.1")
	tn.SetStepped(5 * time.Second)
	defer func() { _ = tn.Close() }()
	tcpGot, tcpDropped := run(tn)

	if memGot != tcpGot || memDropped != tcpDropped {
		t.Fatalf("download-cap parity broke: mem %d delivered / %d dropped, tcp %d / %d",
			memGot, memDropped, tcpGot, tcpDropped)
	}
	if memGot != 9 || memDropped != 51 {
		t.Fatalf("script shape off: %d delivered / %d dropped, want 9 / 51", memGot, memDropped)
	}
}
