package harness

import (
	"time"

	"repro/internal/model"
	"repro/internal/transport"
)

// Span kinds the recorder distinguishes.
const (
	spanRound uint8 = iota
	spanBeginRound
	spanDeliver
	spanHandler
	spanSend
)

// span is one timed call. Times are nanoseconds since the recorder's
// epoch; parent indexes the round's span slice (-1 for a root).
type span struct {
	start, end int64
	parent     int32
	kind       uint8
	msgKind    uint8
}

// Recorder keeps the spans of a measured window in memory, keyed by round,
// until the run ends. It is driven from the round engine's goroutine only:
// it serves the serial engine, whose phases, deliveries and handlers all
// run on the goroutine that calls Session.Run.
type Recorder struct {
	epoch  time.Time
	active bool
	round  model.Round
	cur    []span // the open round's spans
	open   []int32
	rounds map[model.Round][]span
}

// NewRecorder returns an idle recorder.
func NewRecorder() *Recorder {
	return &Recorder{epoch: time.Now(), rounds: make(map[model.Round][]span)}
}

func (r *Recorder) now() int64 { return int64(time.Since(r.epoch)) }

// StartRound opens round rd's root span; EndRound closes it. Spans opened
// outside a started round are not recorded, so warm-up rounds cost only a
// flag test.
func (r *Recorder) StartRound(rd model.Round) {
	r.active, r.round = true, rd
	r.cur, r.open = nil, r.open[:0]
	r.push(spanRound, 0)
}

// EndRound closes the round span opened by StartRound and files the
// round's spans.
func (r *Recorder) EndRound() {
	r.pop()
	r.rounds[r.round] = r.cur
	r.active, r.cur = false, nil
}

func (r *Recorder) push(kind, msgKind uint8) {
	if !r.active {
		return
	}
	parent := int32(-1)
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.open = append(r.open, int32(len(r.cur)))
	r.cur = append(r.cur, span{start: r.now(), parent: parent, kind: kind, msgKind: msgKind})
}

func (r *Recorder) pop() {
	if !r.active || len(r.open) == 0 {
		return
	}
	i := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.cur[i].end = r.now()
}

// tracedNet wraps a session's transport and records a span around every
// BeginRound, DeliverAll, delivered handler call and endpoint Send.
type tracedNet struct {
	transport.FaultyNetwork
	rec *Recorder
}

// traceNetwork wraps n so that rec records its calls.
func traceNetwork(n transport.FaultyNetwork, rec *Recorder) transport.FaultyNetwork {
	return &tracedNet{FaultyNetwork: n, rec: rec}
}

func (t *tracedNet) BeginRound() {
	t.rec.push(spanBeginRound, 0)
	t.FaultyNetwork.BeginRound()
	t.rec.pop()
}

func (t *tracedNet) DeliverAll() int {
	t.rec.push(spanDeliver, 0)
	n := t.FaultyNetwork.DeliverAll()
	t.rec.pop()
	return n
}

func (t *tracedNet) Register(id model.NodeID, h transport.Handler) (transport.Endpoint, error) {
	ep, err := t.FaultyNetwork.Register(id, func(m transport.Message) {
		t.rec.push(spanHandler, m.Kind)
		h(m)
		t.rec.pop()
	})
	if err != nil {
		return nil, err
	}
	return tracedEndpoint{Endpoint: ep, rec: t.rec}, nil
}

// SteppedMode forwards the wrapped transport's delivery mode, which
// NewSession checks; a transport without the method is always stepped.
func (t *tracedNet) SteppedMode() bool {
	sm, ok := t.FaultyNetwork.(interface{ SteppedMode() bool })
	return !ok || sm.SteppedMode()
}

type tracedEndpoint struct {
	transport.Endpoint
	rec *Recorder
}

func (e tracedEndpoint) Send(to model.NodeID, kind uint8, payload []byte) error {
	e.rec.push(spanSend, kind)
	err := e.Endpoint.Send(to, kind, payload)
	e.rec.pop()
	return err
}

// SpanSummary is the recorder's spans reduced to per-round figures.
type SpanSummary struct {
	Rounds int
	// Mean milliseconds per round.
	PhaseSelfMs, DeliverSelfMs, DeliverIdleMs, BeginRoundMs, HandleMs float64
	// SendUs is the mean duration of one Send.
	SendUs float64
	// HandleUsByKind is the mean self time of one handler call per
	// message kind; HandlerCalls counts them.
	HandleUsByKind map[uint8]float64
	HandlerCalls   map[uint8]int
}

// Summary reduces every recorded round. A handler's self time excludes the
// Sends it made; a DeliverAll's self time excludes its handlers; its idle
// time runs from the last handler's return (or its own start) to its own
// return — the quiescence wait; a round's phase self time is the round
// minus its BeginRound and DeliverAll spans.
func (r *Recorder) Summary() SpanSummary {
	s := SpanSummary{HandleUsByKind: map[uint8]float64{}, HandlerCalls: map[uint8]int{}}
	var phaseSelf, deliverSelf, deliverIdle, begin, handle, send float64
	sends := 0
	handleNs := map[uint8]float64{}
	for _, spans := range r.rounds {
		s.Rounds++
		childNs := make([]int64, len(spans))
		lastChildEnd := make([]int64, len(spans))
		for _, sp := range spans {
			// Sends made by node phases are children of the round but
			// belong to its phase work, not to the network.
			if sp.parent >= 0 && !(sp.kind == spanSend && spans[sp.parent].kind == spanRound) {
				childNs[sp.parent] += sp.end - sp.start
				lastChildEnd[sp.parent] = max(lastChildEnd[sp.parent], sp.end)
			}
		}
		for i, sp := range spans {
			d := float64(sp.end - sp.start)
			switch sp.kind {
			case spanRound:
				phaseSelf += d - float64(childNs[i])
			case spanBeginRound:
				begin += d
			case spanDeliver:
				deliverSelf += d - float64(childNs[i])
				deliverIdle += float64(sp.end - max(sp.start, lastChildEnd[i]))
			case spanHandler:
				self := d - float64(childNs[i])
				handle += self
				handleNs[sp.msgKind] += self
				s.HandlerCalls[sp.msgKind]++
			case spanSend:
				send += d
				sends++
			}
		}
	}
	if s.Rounds == 0 {
		return s
	}
	perRoundMs := func(ns float64) float64 { return ns / 1e6 / float64(s.Rounds) }
	s.PhaseSelfMs = perRoundMs(phaseSelf)
	s.DeliverSelfMs = perRoundMs(deliverSelf)
	s.DeliverIdleMs = perRoundMs(deliverIdle)
	s.BeginRoundMs = perRoundMs(begin)
	s.HandleMs = perRoundMs(handle)
	if sends > 0 {
		s.SendUs = send / 1e3 / float64(sends)
	}
	for k, ns := range handleNs {
		s.HandleUsByKind[k] = ns / 1e3 / float64(s.HandlerCalls[k])
	}
	return s
}
