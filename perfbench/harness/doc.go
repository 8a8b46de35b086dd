// Package harness is the repository benchmark: it drives the unchanged
// program from outside, through its public API (pag.NewSession,
// Session.Run, SessionConfig.NewNetwork and .Obs, the scenario package,
// TCPNet.IOStats, Session.Metrics, PAGNodeStats and QueueStats), and
// reports what a viewer of the stream and an operator of a node see.
//
// # Load shape
//
// Every workload is a closed loop: one in-process session runs rounds
// back to back, and round r+1 starts when round r's four phases have
// quiesced. The source streams 60 kbps in 938-byte chunks, the hash
// modulus is 128 bits, GOMAXPROCS is the host's CPU count and the parallel
// engine runs GOMAXPROCS workers. The seed is the only input a run
// varies; the program receives only what the harness generates from it.
//
// A run is Episodes sessions of one seed. Each episode builds a session,
// runs WarmupRounds rounds (the playout delay, after which continuity is
// defined) and then a window of MeasuredRounds rounds, one Session.Run(1)
// at a time. The window is sized from the run's time budget and the
// workload's nominal pace, never from the host's speed, so runs of one
// budget measure the same rounds.
//
// # Workloads
//
//   - pag-steady: PAG, N=144, in-memory network, parallel engine, all
//     honest, no faults. The §V exchange and monitoring in steady state.
//     Homomorphic hashing (lift and prime generation) takes about two
//     thirds of the CPU, PKI a tenth, transport and codec well under a
//     tenth: crypto, core and engine changes show here, socket changes
//     must not.
//   - pag-churn-faults: PAG, N=144, in-memory network, serial engine, a
//     timeline generated from the seed (ChurnScenario): two joins, a
//     leave and a crash every round, uniform loss, queued upload caps
//     just under a member's demand on a dozen founders, and a
//     free-rider pair that turns on halfway, with eviction armed. The
//     same layers used differently: the fault plane's defer and drop
//     paths, membership epochs written beside view reads, mid-run node
//     construction, and accusation to verdict to eviction. A pag-steady
//     gain that costs the churn path shows here, and the serial engine
//     stays measured on the in-memory network. BENCHMARK.json leaves it
//     out while a program defect fails its identical_outcome check (see
//     Workload.Blocked); it still runs by name and reports the failure.
//   - acting-tcp: the AcTinG baseline (Fig 7), N=432, loopback TCPNet in
//     stepped mode, serial engine, all honest. No homomorphic hashing, so
//     codec, transport, PKI and the runtime carry the round: socket, codec
//     and batching changes show here, crypto changes must not move it.
//     Its loopback sockets are the simulated nodes' own links.
//
// # End-to-end metrics
//
// Reported without tracing, over the untraced episodes: setup_s (median
// time from NewSession to the open window, warm-up included),
// rounds_per_s, round_ms_p50 and round_ms_p90 (each episode's, the
// median over episodes; the full report gives how many rounds lie above
// their episode's p90), cpu_s_per_round (getrusage user+system CPU of
// the window per round, which counts work the prime pools move to the
// spare core),
// kbps_per_node (mean member bandwidth excluding the source, the Fig 7
// cost) and live_bytes_per_node (heap after a forced GC at the window's
// end, per member).
//
// The playout miss rate is reported per layer as streaming.miss_rate: on
// the honest workloads it is a handful of missed chunks per run, so its
// run-to-run spread is wider than any regression bound it could carry.
//
// # Per-layer metrics
//
// A traced run measures its last episode with a metrics registry, a CPU
// profile of the window and, on the serial engine, a transport wrapper
// recording spans around BeginRound, DeliverAll, every handler call and
// every Send under a span per round (Recorder). Counts are per measured
// round; trace.overhead_pct is the traced episode's rounds/s loss against
// the untraced ones. The layer each metric belongs to, and the
// end-to-end metric it should move on which workload:
//
//   - pag: pag.new_session_s and pag.warmup_s make up setup_s.
//   - sim and engine: sim.phase_self_ms (serial workloads),
//     engine.barrier_stall_ms and engine.shard_ms (pag-steady), and
//     engine.deliveries move rounds_per_s on the workload whose engine
//     they belong to. An engine merge must leave all of them flat.
//   - transport: deliver_self_ms, deliver_idle_ms (the quiescence wait
//     after the last handler), send_us, and the socket counters writes,
//     reads, frames_per_write, bytes_per_write and jumbo_share move
//     rounds_per_s and round_ms_p50 on acting-tcp and nothing on
//     pag-steady. The fault-plane counters admitted, dropped, deferred,
//     expired, queue_depth_max and begin_round_ms move round_ms_p90 and
//     the miss rate on pag-churn-faults.
//   - core and acting: core.handle_ms, acting.handle_ms, the per-kind
//     core.handle_us.<kind> and core.msgs.<kind>, core.duplicate_share
//     (wasted receptions) and core.ref_share (buffermap dedup) move
//     kbps_per_node and rounds_per_s on the PAG workloads.
//   - hhash: hhash.ops, lift, lift_us, verify and verify_us move
//     rounds_per_s and cpu_s_per_round on the PAG workloads and nothing
//     on acting-tcp. Prime generation cuts show first in cpu_s_per_round
//     while the prime pool runs on the spare core.
//   - pki.sig_ops, membership.epochs, judicial.facts,
//     judicial.duplicates and judicial.evictions are exact counts that
//     double as correctness witnesses on pag-churn-faults.
//   - runtime: allocs, alloc_mb, gc_cycles and gc_pause_ms move
//     cpu_s_per_round everywhere and live_bytes_per_node.
//   - cpu_share.<layer>: the CPU ledger (see Bucket), one share per
//     layer with hhash split into prime, lift, verify and other;
//     ledger.cpu_coverage is the profiled CPU over the getrusage CPU of
//     the same window, which checks that the ledger accounts for the
//     end-to-end figure.
//
// # Correctness gate
//
// In-memory episodes of one seed, traced or not, must produce the same
// outcome fingerprint (Outcome.Fingerprint); honest workloads must end
// with zero verdicts; on acting-tcp every frame written must be read; and
// every scripted timeline event must apply, unless the punishment loop
// evicted its node first. A run that fails a check reports no metrics and
// counts every measured round as failed.
package harness
