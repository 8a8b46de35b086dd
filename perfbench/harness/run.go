package harness

import (
	"fmt"
	"runtime"
	"runtime/debug"

	"repro/internal/model"
	"repro/internal/stats"
)

const (
	// Episodes is how many sessions one run sets up and measures: the
	// timings are medians over them, and every in-memory episode of a
	// seed must reproduce the same outcome.
	Episodes = 3
	// WarmupRounds precede every measured window: the playout delay, after
	// which continuity is defined and the stream is fully carried.
	WarmupRounds = model.PlayoutDelayRounds
)

// MeasuredRounds sizes one episode's window so that a run's episodes
// together measure about `seconds` on a 2-core host. It depends only on
// the workload and the budget, never on the host's speed, so equal
// budgets measure equal work and reproduce equal outcomes.
func MeasuredRounds(w Workload, seconds int) int {
	return max(1, int(float64(seconds)*w.RoundsPerSecond/Episodes+0.5))
}

// MetricDef names a reported metric.
type MetricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// EndToEnd lists the metrics a run reports without tracing.
var EndToEnd = []MetricDef{
	{"setup_s", "s", "lower"},
	{"rounds_per_s", "1/s", "higher"},
	{"round_ms_p50", "ms", "lower"},
	{"round_ms_p90", "ms", "lower"},
	{"cpu_s_per_round", "s", "lower"},
	{"kbps_per_node", "kbps", "lower"},
	{"live_bytes_per_node", "bytes", "lower"},
}

// PerLayer lists the metrics a traced run reports. Counts are per
// measured round. A metric whose layer a workload does not run (the
// engine histograms on the serial engine, socket counters on the
// in-memory network, spans on the parallel engine) reads 0.
func PerLayer() []MetricDef {
	defs := []MetricDef{
		{"pag.new_session_s", "s", "lower"},
		{"pag.warmup_s", "s", "lower"},
		{"sim.phase_self_ms", "ms", "lower"},
		{"engine.barrier_stall_ms", "ms", "lower"},
		{"engine.shard_ms", "ms", "lower"},
		{"engine.deliveries", "count/round", "lower"},
		{"transport.deliver_self_ms", "ms", "lower"},
		{"transport.deliver_idle_ms", "ms", "lower"},
		{"transport.send_us", "us", "lower"},
		{"transport.begin_round_ms", "ms", "lower"},
		{"transport.writes", "count/round", "lower"},
		{"transport.reads", "count/round", "lower"},
		{"transport.frames_per_write", "frames", "higher"},
		{"transport.bytes_per_write", "bytes", "higher"},
		{"transport.jumbo_share", "share", "higher"},
		{"transport.admitted", "count/round", "lower"},
		{"transport.dropped", "count/round", "lower"},
		{"transport.deferred", "count/round", "lower"},
		{"transport.expired", "count/round", "lower"},
		{"transport.queue_depth_max", "count", "lower"},
		{"core.handle_ms", "ms", "lower"},
		{"acting.handle_ms", "ms", "lower"},
	}
	for _, k := range wireKinds() {
		defs = append(defs, MetricDef{"core.handle_us." + k.name, "us", "lower"})
	}
	for _, k := range wireKinds() {
		defs = append(defs, MetricDef{"core.msgs." + k.name, "count/round", "lower"})
	}
	defs = append(defs,
		MetricDef{"core.duplicate_share", "share", "lower"},
		MetricDef{"core.ref_share", "share", "higher"},
		MetricDef{"hhash.ops", "count/round", "lower"},
		MetricDef{"hhash.lift", "count/round", "lower"},
		MetricDef{"hhash.lift_us", "us", "lower"},
		MetricDef{"hhash.verify", "count/round", "lower"},
		MetricDef{"hhash.verify_us", "us", "lower"},
		MetricDef{"pki.sig_ops", "count/round", "lower"},
		MetricDef{"membership.epochs", "count/round", "lower"},
		MetricDef{"judicial.facts", "count/round", "lower"},
		MetricDef{"judicial.duplicates", "count/round", "lower"},
		MetricDef{"judicial.evictions", "count/round", "lower"},
		MetricDef{"streaming.miss_rate", "share", "lower"},
		MetricDef{"runtime.allocs", "count/round", "lower"},
		MetricDef{"runtime.alloc_mb", "MB/round", "lower"},
		MetricDef{"runtime.gc_cycles", "count/round", "lower"},
		MetricDef{"runtime.gc_pause_ms", "ms/round", "lower"},
	)
	for _, layer := range Layers {
		defs = append(defs, MetricDef{"cpu_share." + layer, "share", "lower"})
	}
	return append(defs,
		MetricDef{"ledger.cpu_coverage", "share", "higher"},
		MetricDef{"trace.overhead_pct", "%", "lower"},
	)
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Check is one correctness gate and its verdict.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// Meta records what produced a result.
type Meta struct {
	Revision   string `json:"revision"`
	Dirty      bool   `json:"dirty"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func meta() Meta {
	m := Meta{
		Revision:   "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Revision = s.Value
			case "vcs.modified":
				m.Dirty = s.Value == "true"
			}
		}
	}
	return m
}

// Result is one run's full report.
type Result struct {
	Workload       string   `json:"workload"`
	Seed           uint64   `json:"seed"`
	Seconds        int      `json:"seconds"`
	Traced         bool     `json:"traced"`
	Meta           Meta     `json:"meta"`
	WarmupRounds   int      `json:"warmup_rounds"`
	MeasuredRounds int      `json:"measured_rounds_per_episode"`
	Episodes       int      `json:"episodes"`
	TimelineDigest string   `json:"timeline_digest,omitempty"`
	Fingerprints   []string `json:"fingerprints"`
	// RoundMsQuartiles are the first and third quartiles of the pooled
	// untraced round times, and P90Beyond how many untraced rounds lie
	// above their own episode's p90.
	RoundMsQuartiles [2]float64        `json:"round_ms_quartiles"`
	P90Beyond        int               `json:"p90_beyond"`
	Checks           []Check           `json:"checks"`
	Correct          bool              `json:"correct"`
	Attempted        int               `json:"attempted"`
	Failed           int               `json:"failed"`
	Metrics          map[string]Metric `json:"metrics"`
}

// Summary is the result line: the outcome and the metrics only.
type Summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Summary returns the result line of r.
func (r Result) Summary() Summary {
	return Summary{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
}

// Run measures one workload: Episodes sessions of the same seed, the last
// one traced when trace is set. Without tracing it reports the end-to-end
// metrics, with tracing the per-layer ones. A run whose checks fail
// reports no metrics and counts every measured round as failed.
func Run(w Workload, seed uint64, seconds int, trace bool) (Result, error) {
	rounds := MeasuredRounds(w, seconds)
	res := Result{
		Workload: w.Name, Seed: seed, Seconds: seconds, Traced: trace, Meta: meta(),
		WarmupRounds: WarmupRounds, MeasuredRounds: rounds, Episodes: Episodes,
	}
	if w.Churn {
		res.TimelineDigest = TimelineDigest(ChurnScenario(seed, w.Nodes, rounds))
	}
	all := make([]episode, 0, Episodes)
	for i := 0; i < Episodes; i++ {
		ep, err := runEpisode(w, seed, rounds, trace && i == Episodes-1)
		if err != nil {
			return res, err
		}
		res.Fingerprints = append(res.Fingerprints, ep.outcome.Fingerprint())
		all = append(all, ep)
	}
	untraced := all
	if trace {
		untraced = all[:Episodes-1]
	}
	res.Checks = checks(w, all, res.Fingerprints)
	res.Attempted = rounds * Episodes
	res.Correct = true
	for _, c := range res.Checks {
		res.Correct = res.Correct && c.OK
	}

	of := func(f func(episode) float64) float64 {
		xs := make([]float64, len(untraced))
		for i, ep := range untraced {
			xs[i] = f(ep)
		}
		return stats.NewSample(xs).Median()
	}
	var pooled []float64
	for _, ep := range untraced {
		pooled = append(pooled, ep.roundMs...)
	}
	// Round-time percentiles are taken per episode and reported as their
	// median over episodes, like every other timing: a burst of host
	// contention that slows one episode moves a pooled tail, not the
	// median episode's. No episode's window holds the 100 rounds a p90
	// with ten samples beyond it needs within a run's budget, so the p90
	// is reported with its beyond count instead of being refused.
	p90 := of(func(ep episode) float64 {
		v, beyond, _ := TailPercentile(ep.roundMs, 0.9)
		res.P90Beyond += beyond
		return v
	})
	res.RoundMsQuartiles[0], res.RoundMsQuartiles[1] = Quartiles(pooled)
	rps := func(ep episode) float64 { return float64(len(ep.roundMs)) / ep.windowS }

	var values map[string]float64
	if trace {
		traced := all[Episodes-1]
		values = traced.layers
		values["pag.new_session_s"] = of(func(ep episode) float64 { return ep.newSessionS })
		values["pag.warmup_s"] = of(func(ep episode) float64 { return ep.warmupS })
		values["trace.overhead_pct"] = 100 * (1 - rps(traced)/of(rps))
	} else {
		values = map[string]float64{
			"setup_s":             of(func(ep episode) float64 { return ep.newSessionS + ep.warmupS }),
			"rounds_per_s":        of(rps),
			"round_ms_p50":        of(func(ep episode) float64 { return stats.NewSample(ep.roundMs).Median() }),
			"round_ms_p90":        p90,
			"cpu_s_per_round":     of(func(ep episode) float64 { return ep.cpuS / float64(len(ep.roundMs)) }),
			"kbps_per_node":       of(func(ep episode) float64 { return ep.kbpsPerNode }),
			"live_bytes_per_node": of(func(ep episode) float64 { return ep.liveBytesPerNode }),
		}
	}
	res.Metrics = map[string]Metric{}
	if !res.Correct {
		res.Failed = res.Attempted
		return res, nil
	}
	defs := EndToEnd
	if trace {
		defs = PerLayer()
	}
	for _, d := range defs {
		res.Metrics[d.Name] = Metric{Value: values[d.Name], Unit: d.Unit}
	}
	return res, nil
}

// checks is the correctness gate over a run's episodes.
func checks(w Workload, eps []episode, fingerprints []string) []Check {
	var out []Check
	if !w.TCP {
		same := true
		for _, f := range fingerprints {
			same = same && f == fingerprints[0]
		}
		out = append(out, Check{"identical_outcome", same,
			fmt.Sprintf("%d episodes of one seed, fingerprints %v", len(fingerprints), fingerprints)})
	}
	if !w.Churn {
		n := 0
		for _, ep := range eps {
			n += ep.verdicts
		}
		out = append(out, Check{"zero_verdicts", n == 0, fmt.Sprintf("%d verdicts in honest sessions", n)})
	} else {
		n := 0
		for _, ep := range eps {
			n += ep.journalErrors
		}
		out = append(out, Check{"timeline_applied", n == 0, fmt.Sprintf("%d scenario events failed to apply", n)})
	}
	if w.TCP {
		ok := true
		detail := ""
		for i, ep := range eps {
			ok = ok && ep.framesIn == ep.framesOut && ep.framesOut > 0
			detail += fmt.Sprintf("episode %d: %d frames out, %d in; ", i, ep.framesOut, ep.framesIn)
		}
		out = append(out, Check{"frame_parity", ok, detail})
	}
	return out
}
