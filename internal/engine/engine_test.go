package engine

import (
	"fmt"
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/transport"
)

// chatter is a toy protocol node: every round it sends a burst to its ring
// neighbours, and every reception below the reply depth triggers a reply —
// exercising multi-wave delivery. It records its full reception log so
// runs can be compared message-for-message.
type chatter struct {
	id    model.NodeID
	n     int
	ep    transport.Endpoint
	log   []string
	burst int
}

func (c *chatter) ID() model.NodeID { return c.id }

func (c *chatter) BeginRound(r model.Round) {
	for b := 0; b < c.burst; b++ {
		to := model.NodeID((int(c.id)+b)%c.n + 1)
		if to == c.id {
			to = model.NodeID(int(to)%c.n + 1)
		}
		payload := []byte(fmt.Sprintf("r%d b%d from %d", r, b, c.id))
		_ = c.ep.Send(to, 0, payload)
	}
}

func (c *chatter) MidRound(r model.Round)   {}
func (c *chatter) EndRound(r model.Round)   {}
func (c *chatter) CloseRound(r model.Round) {}

func (c *chatter) handle(m transport.Message) {
	c.log = append(c.log, fmt.Sprintf("k%d %s", m.Kind, m.Payload))
	if m.Kind < 2 {
		_ = c.ep.Send(m.From, m.Kind+1, m.Payload)
	}
}

// buildRun wires n chatter nodes over a faulty MemNet and returns the
// network plus nodes; deterministic given the seed.
func buildRun(n int, seed uint64) (*transport.MemNet, []*chatter) {
	net := transport.NewMemNet()
	net.Faults().SetSeed(seed)
	net.Faults().SetLossRate(0.1)
	nodes := make([]*chatter, n)
	for i := 1; i <= n; i++ {
		c := &chatter{id: model.NodeID(i), n: n, burst: 3}
		ep, err := net.Register(c.id, c.handle)
		if err != nil {
			panic(err)
		}
		c.ep = ep
		nodes[i-1] = c
	}
	// An upload cap on node 2 exercises merge-point cap accounting.
	net.Faults().SetUploadCap(2, 3*uint64(transport.HeaderBytes+20))
	return net, nodes
}

type runResult struct {
	logs    map[model.NodeID][]string
	traffic map[model.NodeID]transport.Traffic
	dropped uint64
}

func capture(net *transport.MemNet, nodes []*chatter) runResult {
	res := runResult{
		logs:    make(map[model.NodeID][]string),
		traffic: make(map[model.NodeID]transport.Traffic),
	}
	for _, c := range nodes {
		res.logs[c.id] = append([]string(nil), c.log...)
		res.traffic[c.id] = net.TrafficOf(c.id)
	}
	res.dropped = net.Faults().Dropped()
	return res
}

func runSerial(n, rounds int, seed uint64) runResult {
	net, nodes := buildRun(n, seed)
	eng := sim.NewEngine(net)
	for _, c := range nodes {
		eng.Add(c)
	}
	eng.Run(rounds)
	return capture(net, nodes)
}

func runParallel(n, rounds, workers int, seed uint64) runResult {
	net, nodes := buildRun(n, seed)
	eng := New(net, workers)
	for _, c := range nodes {
		eng.Add(c)
	}
	eng.Run(rounds)
	return capture(net, nodes)
}

func diff(t *testing.T, want, got runResult, label string) {
	t.Helper()
	if want.dropped != got.dropped {
		t.Errorf("%s: dropped %d, want %d", label, got.dropped, want.dropped)
	}
	for id, wl := range want.logs {
		gl := got.logs[id]
		if len(wl) != len(gl) {
			t.Errorf("%s: node %v received %d messages, want %d", label, id, len(gl), len(wl))
			continue
		}
		for i := range wl {
			if wl[i] != gl[i] {
				t.Errorf("%s: node %v message %d = %q, want %q", label, id, i, gl[i], wl[i])
				break
			}
		}
	}
	for id, wt := range want.traffic {
		if gt := got.traffic[id]; gt != wt {
			t.Errorf("%s: node %v traffic %+v, want %+v", label, id, gt, wt)
		}
	}
}

// TestParallelMatchesSerial is the determinism invariant at engine level:
// per-node reception logs, traffic counters and drop counts are identical
// to the serial engine's at every worker count, loss and caps included.
func TestParallelMatchesSerial(t *testing.T) {
	const n, rounds, seed = 23, 6, 99
	want := runSerial(n, rounds, seed)
	for _, workers := range []int{1, 2, 4, 16, 64} {
		got := runParallel(n, rounds, workers, seed)
		diff(t, want, got, fmt.Sprintf("workers=%d", workers))
	}
}

// TestParallelRepeatable: two parallel runs with the same seed and worker
// count are identical (no scheduling leakage).
func TestParallelRepeatable(t *testing.T) {
	a := runParallel(17, 5, 4, 7)
	b := runParallel(17, 5, 4, 7)
	diff(t, a, b, "repeat")
}

// TestStepperSemantics: Add/Remove/Has/ScheduleAt behave like the serial
// engine's.
func TestStepperSemantics(t *testing.T) {
	net := transport.NewMemNet()
	eng := New(net, 3)
	var s sim.Stepper = eng // compile-time and runtime interface check
	c := &chatter{id: 5, n: 1, burst: 0}
	ep, err := net.Register(5, c.handle)
	if err != nil {
		t.Fatal(err)
	}
	c.ep = ep
	s.Add(c)
	if !s.Has(5) || s.Nodes() != 1 {
		t.Fatal("Add/Has broken")
	}
	fired := model.Round(0)
	s.ScheduleAt(2, func(r model.Round) { fired = r })
	s.RemoveAt(3, 5)
	s.Run(3)
	if fired != 2 {
		t.Fatalf("event fired at %v, want 2", fired)
	}
	if s.Has(5) {
		t.Fatal("RemoveAt did not detach the node")
	}
	if s.Round() != 3 {
		t.Fatalf("Round = %v", s.Round())
	}
	if s.Remove(5) {
		t.Fatal("Remove of a detached node reported true")
	}
}

// TestWorkerCountDefaults: New clamps non-positive worker counts to
// GOMAXPROCS.
func TestWorkerCountDefaults(t *testing.T) {
	if w := New(transport.NewMemNet(), 0).Workers(); w < 1 {
		t.Fatalf("Workers() = %d", w)
	}
	if w := New(transport.NewMemNet(), -3).Workers(); w < 1 {
		t.Fatalf("Workers() = %d", w)
	}
	if w := New(transport.NewMemNet(), 7).Workers(); w != 7 {
		t.Fatalf("Workers() = %d, want 7", w)
	}
}
