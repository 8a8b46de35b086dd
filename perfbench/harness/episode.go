package harness

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	pag "repro"
	"repro/internal/core"
	"repro/internal/judicial"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/transport"
)

// episode is one session from NewSession to Close: set-up (construction
// plus warm-up) and a measured window of a fixed number of rounds.
type episode struct {
	newSessionS, warmupS float64
	windowS              float64
	roundMs              []float64
	cpuS                 float64
	kbpsPerNode          float64
	liveBytesPerNode     float64
	continuity           float64
	outcome              Outcome
	verdicts             int
	// journalErrors counts scripted events that failed to apply for a
	// reason other than an earlier eviction of their node.
	journalErrors       int
	evictions           int
	framesIn, framesOut uint64
	// layers holds the per-layer metrics of a traced episode.
	layers map[string]float64
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// pagCounters sums the PAG nodes' counters (zero for other protocols).
func pagCounters(s *pag.Session) core.Stats {
	var sum core.Stats
	for _, st := range s.PAGNodeStats() {
		sum.UpdatesReceived += st.UpdatesReceived
		sum.DuplicateReceptions += st.DuplicateReceptions
		sum.PayloadsSent += st.PayloadsSent
		sum.RefsSent += st.RefsSent
		sum.HashOps += st.HashOps
		sum.SigOps += st.SigOps
	}
	return sum
}

// points indexes a metrics snapshot by name and rendered labels.
func points(snap obs.Snapshot) map[string]obs.Point {
	out := make(map[string]obs.Point, len(snap.Points))
	for _, p := range snap.Points {
		key := p.Name
		for _, l := range p.Labels {
			key += "," + l.Key + "=" + l.Value
		}
		out[key] = p
	}
	return out
}

// runEpisode builds a session for w, warms it up and measures `rounds`
// rounds. A traced episode also attaches a metrics registry, takes a CPU
// profile of the window and, on the serial engine, records spans around
// every network call.
func runEpisode(w Workload, seed uint64, rounds int, traced bool) (ep episode, err error) {
	runtime.GC()
	cfg := w.config(seed, rounds)
	var (
		tcp *transport.TCPNet
		rec *Recorder
	)
	if traced {
		cfg.Obs = obs.NewRegistry()
		if w.Workers == 0 {
			rec = NewRecorder()
		}
	}
	if w.TCP || rec != nil {
		cfg.NewNetwork = func() transport.FaultyNetwork {
			var n transport.FaultyNetwork = transport.NewMemNet()
			if w.TCP {
				tcp = newLoopbackTCP()
				n = tcp
			}
			if rec != nil {
				n = traceNetwork(n, rec)
			}
			return n
		}
	}

	start := time.Now()
	s, err := pag.NewSession(cfg)
	if err != nil {
		return ep, fmt.Errorf("%s: new session: %w", w.Name, err)
	}
	defer func() {
		if cerr := s.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("%s: closing session: %w", w.Name, cerr)
		}
	}()
	ep.newSessionS = time.Since(start).Seconds()
	start = time.Now()
	s.Run(WarmupRounds)
	ep.warmupS = time.Since(start).Seconds()

	s.StartMeasuring()
	var (
		ioBefore  transport.IOStats
		msBefore  runtime.MemStats
		obsBefore map[string]obs.Point
		profile   bytes.Buffer
	)
	if tcp != nil {
		ioBefore = tcp.IOStats()
	}
	pagBefore := pagCounters(s)
	factsBefore, dupesBefore := s.Judicial().Len(), s.Judicial().Duplicates()
	evictionsBefore := len(s.Evictions())
	cpuBefore, err := cpuTime()
	if err != nil {
		return ep, err
	}
	if traced {
		runtime.ReadMemStats(&msBefore)
		obsBefore = points(s.Metrics())
		if err := pprof.StartCPUProfile(&profile); err != nil {
			return ep, fmt.Errorf("%s: cpu profile: %w", w.Name, err)
		}
	}
	queueMax := 0
	ep.roundMs = make([]float64, 0, rounds)
	windowStart := time.Now()
	for i := 0; i < rounds; i++ {
		if rec != nil {
			rec.StartRound(s.Round() + 1)
		}
		t := time.Now()
		s.Run(1)
		ep.roundMs = append(ep.roundMs, float64(time.Since(t))/1e6)
		if rec != nil {
			rec.EndRound()
		}
		if traced {
			queueMax = max(queueMax, s.QueueStats().Depth)
		}
	}
	ep.windowS = time.Since(windowStart).Seconds()
	if traced {
		pprof.StopCPUProfile()
	}
	cpuAfter, err := cpuTime()
	if err != nil {
		return ep, err
	}
	ep.cpuS = (cpuAfter - cpuBefore).Seconds()

	// Outcome of the window.
	ep.kbpsPerNode = s.BandwidthSample().Mean()
	ep.continuity = s.MeanContinuity()
	pagAfter := pagCounters(s)
	ep.outcome = Outcome{
		BandwidthKbps: make(map[pag.NodeID]float64),
		Continuity:    ep.continuity,
		HashOps:       pagAfter.HashOps - pagBefore.HashOps,
	}
	for _, id := range s.Members() {
		if id != pag.SourceID {
			ep.outcome.BandwidthKbps[id] = s.NodeBandwidthKbps(id)
		}
	}
	records := s.Judicial().Records()
	ep.verdicts = len(records)
	ep.outcome.Verdicts = make([]judicial.Key, len(records))
	for i, r := range records {
		ep.outcome.Verdicts[i] = r.Key
	}
	evicted := map[pag.NodeID]model.Round{}
	for _, e := range s.Evictions() {
		if _, seen := evicted[e.Node]; !seen && e.Err == "" {
			evicted[e.Node] = e.Round
		}
	}
	ep.evictions = len(s.Evictions())
	for _, a := range s.ScenarioJournal() {
		// A scripted departure of a node the punishment loop already
		// evicted cannot apply, and is not a fault of the timeline.
		if r, was := evicted[a.Node]; a.Err != "" && !(was && r <= a.Round) {
			ep.journalErrors++
		}
	}
	var ioAfter transport.IOStats
	if tcp != nil {
		ioAfter = tcp.IOStats()
		ep.framesOut = ioAfter.FramesOut - ioBefore.FramesOut
		ep.framesIn = ioAfter.FramesIn - ioBefore.FramesIn
	}

	// Live heap at the window's end, with the session still reachable.
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter) // allocation totals before the forced GC
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	ep.liveBytesPerNode = float64(live.HeapAlloc) / float64(len(s.Members()))

	if !traced {
		return ep, nil
	}
	led, err := FoldProfile(profile.Bytes())
	if err != nil {
		return ep, fmt.Errorf("%s: %w", w.Name, err)
	}
	obsAfter := points(s.Metrics())
	m := float64(rounds)
	delta := func(key string) float64 { return obsAfter[key].Value - obsBefore[key].Value }
	histSum := func(key string) float64 { return obsAfter[key].Sum - obsBefore[key].Sum }
	histCount := func(key string) float64 { return float64(obsAfter[key].Count - obsBefore[key].Count) }
	meanUs := func(key string) float64 {
		if c := histCount(key); c > 0 {
			return histSum(key) / c * 1e6
		}
		return 0
	}
	share := func(part, whole uint64) float64 {
		if whole == 0 {
			return 0
		}
		return float64(part) / float64(whole)
	}
	l := map[string]float64{
		"engine.barrier_stall_ms":   histSum("pag_engine_barrier_stall_seconds") * 1e3 / m,
		"engine.shard_ms":           histSum("pag_engine_shard_seconds") * 1e3 / m,
		"engine.deliveries":         delta("pag_engine_deliveries_total") / m,
		"transport.admitted":        delta("pag_net_admitted_total") / m,
		"transport.dropped":         delta("pag_net_dropped_total") / m,
		"transport.deferred":        delta("pag_net_deferred_total") / m,
		"transport.expired":         delta("pag_net_expired_total") / m,
		"transport.queue_depth_max": float64(queueMax),
		"hhash.ops":                 float64(ep.outcome.HashOps) / m,
		"hhash.lift":                histCount("pag_hhash_lift_seconds") / m,
		"hhash.lift_us":             meanUs("pag_hhash_lift_seconds"),
		"hhash.verify":              histCount("pag_hhash_verify_seconds") / m,
		"hhash.verify_us":           meanUs("pag_hhash_verify_seconds"),
		"pki.sig_ops":               float64(pagAfter.SigOps-pagBefore.SigOps) / m,
		"membership.epochs":         delta("pag_membership_epochs_total") / m,
		"judicial.facts":            float64(s.Judicial().Len()-factsBefore) / m,
		"judicial.duplicates":       float64(s.Judicial().Duplicates()-dupesBefore) / m,
		"judicial.evictions":        float64(ep.evictions-evictionsBefore) / m,
		"streaming.miss_rate":       1 - ep.continuity,
		"core.duplicate_share": share(pagAfter.DuplicateReceptions-pagBefore.DuplicateReceptions,
			pagAfter.DuplicateReceptions-pagBefore.DuplicateReceptions+pagAfter.UpdatesReceived-pagBefore.UpdatesReceived),
		"core.ref_share": share(pagAfter.RefsSent-pagBefore.RefsSent,
			pagAfter.RefsSent-pagBefore.RefsSent+pagAfter.PayloadsSent-pagBefore.PayloadsSent),
		"runtime.allocs":      float64(msAfter.Mallocs-msBefore.Mallocs) / m,
		"runtime.alloc_mb":    float64(msAfter.TotalAlloc-msBefore.TotalAlloc) / 1e6 / m,
		"runtime.gc_cycles":   float64(msAfter.NumGC-msBefore.NumGC) / m,
		"runtime.gc_pause_ms": float64(msAfter.PauseTotalNs-msBefore.PauseTotalNs) / 1e6 / m,
	}
	for _, k := range wireKinds() {
		l["core.msgs."+k.name] = delta("pag_core_messages_total,kind="+k.name) / m
	}
	if tcp != nil {
		writes := ioAfter.Writes - ioBefore.Writes
		l["transport.writes"] = float64(writes) / m
		l["transport.reads"] = float64(ioAfter.Reads-ioBefore.Reads) / m
		l["transport.frames_per_write"] = share(ep.framesOut, writes)
		l["transport.bytes_per_write"] = share(ioAfter.BytesOut-ioBefore.BytesOut, writes)
		l["transport.jumbo_share"] = share(ioAfter.Jumbo-ioBefore.Jumbo, writes)
	}
	if rec != nil {
		sum := rec.Summary()
		l["sim.phase_self_ms"] = sum.PhaseSelfMs
		l["transport.deliver_self_ms"] = sum.DeliverSelfMs
		l["transport.deliver_idle_ms"] = sum.DeliverIdleMs
		l["transport.send_us"] = sum.SendUs
		l["transport.begin_round_ms"] = sum.BeginRoundMs
		if w.Protocol == pag.ProtocolPAG {
			l["core.handle_ms"] = sum.HandleMs
			for _, k := range wireKinds() {
				l["core.handle_us."+k.name] = sum.HandleUsByKind[k.kind]
			}
		} else {
			l["acting.handle_ms"] = sum.HandleMs
		}
	}
	for _, layer := range Layers {
		l["cpu_share."+layer] = led.Share(layer)
	}
	l["ledger.cpu_coverage"] = float64(led.CPUNanos) / float64(cpuAfter-cpuBefore)
	ep.layers = l
	return ep, nil
}

func newLoopbackTCP() *transport.TCPNet {
	tn := transport.NewTCPNet(nil)
	tn.SetDynamic("127.0.0.1")
	tn.SetStepped(5 * time.Second)
	return tn
}
