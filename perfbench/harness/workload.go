package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	pag "repro"
	"repro/internal/model"
	"repro/internal/scenario"
	"repro/internal/wire"
)

// Workload fixes one operating point. Every workload streams at StreamKbps
// in UpdateBytes chunks and runs closed-loop: the next round starts when
// the previous one's four phases have quiesced.
type Workload struct {
	Name     string
	Nodes    int
	Protocol pag.Protocol
	// Workers is SessionConfig.Workers: -1 the parallel engine with
	// GOMAXPROCS workers, 0 the serial engine.
	Workers int
	// TCP runs the session over loopback TCPNet in stepped mode.
	TCP bool
	// Churn drives the session with the seeded churn-and-faults timeline.
	Churn bool
	// RoundsPerSecond is the nominal pace on a 2-core host; it sizes a
	// run's measured rounds from its time budget, so runs of one budget
	// always measure the same rounds and replay the same outcome.
	RoundsPerSecond float64
	// Blocked, when set, says why the workload is left out of
	// BENCHMARK.json: it runs, but a program defect fails its checks.
	Blocked string
}

const (
	streamKbps  = 60
	updateBytes = 938
	modulusBits = 128

	// Churn-and-faults timeline: the uniform loss rate; how many founding
	// members get a queued upload cap, at 6x the stream rate, just under
	// a PAG member's ~7x demand, so their uplinks pace and queue; the
	// eviction policy, set above the fact counts churn and loss pin on
	// honest members in a run but within reach of the free riders; and
	// how long a crashed node lingers before the membership drops it.
	churnLoss          = 0.002
	churnCappedNodes   = 12
	churnCapKbps       = 360
	churnConviction    = 20
	churnQuarantine    = 20
	churnLingerRounds  = 2
	churnFreeRiderPair = 2
)

// Workloads lists the harness's workloads; Listed those BENCHMARK.json
// names.
var Workloads = []Workload{
	{
		Name:     "pag-steady",
		Nodes:    144,
		Protocol: pag.ProtocolPAG, Workers: -1,
		RoundsPerSecond: 2.3,
	},
	{
		Name:     "pag-churn-faults",
		Nodes:    144,
		Protocol: pag.ProtocolPAG, Workers: 0, Churn: true,
		RoundsPerSecond: 2.0,
		Blocked: "its identical_outcome check fails: monitorState.verify (internal/core/monitor.go) " +
			"sends a monitor's Nacks in map order, and both the fault plane's loss draws and a capped " +
			"sender's upload queue follow send order, so sessions of one seed diverge",
	},
	{
		Name:     "acting-tcp",
		Nodes:    432,
		Protocol: pag.ProtocolAcTinG, Workers: 0, TCP: true,
		RoundsPerSecond: 6.5,
	},
}

// Listed returns the workloads that are not blocked.
func Listed() []Workload {
	var out []Workload
	for _, w := range Workloads {
		if w.Blocked == "" {
			out = append(out, w)
		}
	}
	return out
}

// WorkloadByName looks a workload up.
func WorkloadByName(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(Workloads))
	for i, w := range Workloads {
		names[i] = w.Name
	}
	return Workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// config returns the session configuration of an episode measuring
// `measured` rounds, without its network (see runEpisode). The seed is the
// only input that varies between runs.
func (w Workload) config(seed uint64, measured int) pag.SessionConfig {
	cfg := pag.SessionConfig{
		Nodes:       w.Nodes,
		Protocol:    w.Protocol,
		StreamKbps:  streamKbps,
		UpdateBytes: updateBytes,
		ModulusBits: modulusBits,
		Seed:        seed,
		Workers:     w.Workers,
	}
	if w.Churn {
		sc := ChurnScenario(seed, w.Nodes, measured)
		cfg.Scenario = &sc
	}
	return cfg
}

// ChurnScenario generates the pag-churn-faults timeline for a session of
// `nodes` founding members that runs WarmupRounds and then `measured`
// rounds. From round 2 on, two members join, one founder leaves
// gracefully and one crashes (going silent, detected churnLingerRounds
// later) every round, so the population holds steady. Uniform loss and
// queued upload caps on a subset of founders hold from round 1, and a
// free-rider pair turns on halfway through, with the eviction policy
// armed. The seed picks which founders are capped, free-ride and depart,
// in which order; free riders and capped nodes never depart. The same
// seed yields the same timeline byte for byte.
func ChurnScenario(seed uint64, nodes, measured int) scenario.Scenario {
	rounds := WarmupRounds + measured
	rng := model.SplitMix64{State: model.Hash64(seed ^ 0x70657266626e6368)}
	founders := make([]model.NodeID, 0, nodes-1)
	for id := 2; id <= nodes; id++ {
		founders = append(founders, model.NodeID(id))
	}
	for i := len(founders) - 1; i > 0; i-- {
		j := int(rng.Next() % uint64(i+1))
		founders[i], founders[j] = founders[j], founders[i]
	}
	freeRiders := founders[:churnFreeRiderPair]
	capped := founders[churnFreeRiderPair : churnFreeRiderPair+churnCappedNodes]
	departing := founders[churnFreeRiderPair+churnCappedNodes:]

	sc := scenario.Scenario{
		Name:         "pag-churn-faults",
		Description:  fmt.Sprintf("benchmark timeline: seed %d, %d founders, %d rounds", seed, nodes, rounds),
		Seed:         seed,
		Rounds:       rounds,
		WarmupRounds: WarmupRounds,
		Eviction: &scenario.Eviction{
			ConvictionThreshold: churnConviction,
			QuarantineRounds:    churnQuarantine,
		},
	}
	add := func(e scenario.Event) { sc.Events = append(sc.Events, e) }
	add(scenario.Event{Round: 1, Action: scenario.ActionSetLoss, Rate: churnLoss})
	for _, id := range capped {
		add(scenario.Event{Round: 1, Action: scenario.ActionSetUploadCap, Node: id, CapKbps: churnCapKbps})
	}
	next := model.NodeID(nodes + 1)
	for r := model.Round(2); r <= model.Round(rounds) && len(departing) >= 2; r++ {
		add(scenario.Event{Round: r, Action: scenario.ActionJoin, Node: next})
		add(scenario.Event{Round: r, Action: scenario.ActionJoin, Node: next + 1})
		add(scenario.Event{Round: r, Action: scenario.ActionLeave, Node: departing[0]})
		add(scenario.Event{Round: r, Action: scenario.ActionCrash, Node: departing[1],
			LingerRounds: churnLingerRounds})
		next += 2
		departing = departing[2:]
	}
	for _, id := range freeRiders {
		add(scenario.Event{Round: model.Round(rounds/2 + 1), Action: scenario.ActionSetBehavior,
			Node: id, Behavior: scenario.ProfileFreeRider})
	}
	return sc
}

// TimelineDigest is the SHA-256 of a scenario's JSON rendering — the
// document `pag-scenario -file` replays.
func TimelineDigest(sc scenario.Scenario) string {
	sum := sha256.Sum256(sc.JSON())
	return hex.EncodeToString(sum[:])
}

type wireKind struct {
	kind uint8
	name string
}

// wireKinds lists the PAG message kinds that wire.KindName names.
func wireKinds() []wireKind {
	var out []wireKind
	for k := 1; k < 256; k++ {
		if name := wire.KindName(uint8(k)); !strings.HasPrefix(name, "Kind(") {
			out = append(out, wireKind{uint8(k), name})
		}
	}
	return out
}
