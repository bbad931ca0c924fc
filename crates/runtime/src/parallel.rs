//! A threaded executor: one OS thread per node, edges carried by
//! lock-free SPSC rings, and a frame-level checkpoint/re-execute recovery
//! ladder for error-prone runs.
//!
//! The deterministic executor ([`crate::run`]) is the measurement
//! instrument — bit-reproducible, with scheduler-round-accurate fault
//! timing. This executor shows the same guarded programs running with
//! *real* parallelism, and it is fault-tolerant in its own right. Each
//! worker drives one [`NodeCore`](crate::engine::NodeCore) — the same
//! firing body, guard, per-core fault injector (seeded from the run seed
//! and the core id, so a seed reproduces the same per-core fault
//! *sequence* even though thread interleaving varies) and fault effects
//! as the deterministic executor — through its SPSC endpoints
//! ([`SpscPorts`]). What is threaded-only is scheduling: blocking waits,
//! wall-clock pacing, and a recovery path that guarantees the run
//! completes — degraded, maybe, but never hung and never aborted.
//!
//! ## Recovery ladder
//!
//! Error-free configurations keep strict semantics: any stall or dead
//! peer is a [`RunError::Parallel`]. With faults enabled, workers instead
//! recover:
//!
//! 1. **Blocked queue operations** are bounded by
//!    [`SimConfig::stall_timeout`]; a stalled header drain or output push
//!    is *forced* with timeout semantics (stale-data transfer — the PPU
//!    guarantee) rather than erroring.
//! 2. **Frame re-execution**: at every frame boundary the worker
//!    checkpoints its core-local state (sink high-water mark, per-port
//!    commit counts, an input replay log). If an attempt fails — an
//!    input-starved pop times out, or a firing's output violates its
//!    static rate (a control perturbation caught by the guard) — the
//!    frame rolls back and re-executes, replaying already-popped inputs
//!    from the log so queue and AM state stay consistent, up to
//!    [`SimConfig::par_retry_budget`] attempts.
//! 3. **Degradation**: when the budget is exhausted (or a peer died),
//!    the frame is discharged instead: the balance of its output rate is
//!    force-pushed as zeros, sinks pad their collected output, and the
//!    worker advances to the next boundary. Downstream consumers see a
//!    complete (if degraded) frame; alignment recovers via the HI/AM
//!    machinery at the next header.
//!
//! Guard soft state (AM/HI/frame counters) is *never* rolled back — it
//! is hardened by checked triplication (see `commguard::harden`) and
//! always reflects the units actually moved through the queues.
//! Retries and degradations are reported through
//! [`crate::WatchdogStats`] as `frame_retries` / `frame_degrades`, and
//! traced as `frame-retry` / `frame-degraded` events.
//!
//! ## Transport
//!
//! Every edge is a lock-free SPSC ring ([`cg_queue::spsc_pair_with`]):
//! the producer and consumer each own an independent queue view,
//! synchronise only through cache-line-padded atomic shared pointers
//! (published once per working set, re-read on apparent-full/empty), and
//! block with a spin-then-park slow path. No mutex or condvar is touched
//! on the steady-state push/pop path. Workers move a whole firing's worth
//! of units per blocking call through
//! [`CoreGuard::pop_batch`]/[`CoreGuard::push_batch`], driving the same
//! guard code over the same [`SimQueue`] protocol as the deterministic
//! executor, so guarded behaviour is bit-identical to it. Each worker
//! owns its endpoints, and dropping an endpoint closes it — on normal
//! exit and panic unwind alike — so a dead neighbour surfaces promptly
//! instead of hanging the run; the stall timeout backstops everything
//! else.

use cg_fault::DetRng;
use cg_graph::{EdgeId, NodeId, NodeKind};
use cg_queue::{
    spsc_pair_with, QueueSpec, QueueStats, SimQueue, SpscConsumer, SpscProducer, SpscStats,
    WaitError,
};
use cg_telemetry::{Clock, ClockMode, CoreProbe};
use cg_trace::{Event, MACHINE_CORE};
use commguard::CoreGuard;
use rand::Rng;

use crate::config::SimConfig;
use crate::engine::{prepare, Ports};
use crate::pacing::{PacedSource, PacingReport};
use crate::program::Program;
use crate::report::{NodeReport, RunReport};
use crate::watchdog::WatchdogStats;
use crate::RunError;

/// How the threaded executor moves units between worker threads. One
/// variant remains; the type keeps [`run_parallel_with`] callers compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParTransport {
    /// Lock-free SPSC rings: the only transport.
    #[default]
    LockFree,
}

/// A worker's ports: the SPSC endpoint views it owns. Dropping them
/// closes the endpoints, which is how a dead worker surfaces to its peers.
pub(crate) struct SpscPorts {
    pub(crate) ins: Vec<SpscConsumer>,
    pub(crate) outs: Vec<SpscProducer>,
}

impl Ports for SpscPorts {
    fn attached(&self) -> usize {
        self.ins.len() + self.outs.len()
    }

    fn with_attached<R>(&mut self, idx: usize, f: impl FnOnce(&mut SimQueue) -> R) -> R {
        match idx.checked_sub(self.ins.len()) {
            None => self.ins[idx].with(f),
            Some(out) => self.outs[out].with(f),
        }
    }

    /// Threaded workers model the guard's own soft state as a fault
    /// surface: an addressing error can land there, where checked
    /// triplication heals it at the next scrub point.
    fn strike_guard_state(&mut self, guard: &mut CoreGuard, rng: &mut DetRng) {
        guard.corrupt_guard_state(u64::from(rng.gen::<u32>()));
    }
}

/// Why a frame attempt could not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameFail {
    /// Transient (pop stall, rate violation): worth re-executing.
    Retryable,
    /// The peer is gone; retrying cannot help — degrade immediately.
    Terminal,
}

fn stall_error(node: &str, action: &str, edge: &str, err: WaitError) -> RunError {
    RunError::Parallel(format!("node '{node}' {action} on edge {edge}: {err}"))
}

/// [`run_parallel`] with an explicit transport; [`ParTransport`] has a
/// single variant, so this is the same run.
///
/// # Errors
///
/// As for [`run_parallel`].
pub fn run_parallel_with(
    program: Program,
    config: &SimConfig,
    _transport: ParTransport,
) -> Result<RunReport, RunError> {
    run_parallel(program, config)
}

/// Runs `program` with one thread per node over lock-free SPSC rings.
///
/// # Errors
///
/// Returns [`RunError`] for unbound nodes, an invalid effect model (even
/// when faults are off, as [`crate::run`] does) or inconsistent
/// schedules, and [`RunError::Parallel`] when an *error-free* run stalls
/// past the transport timeout or a worker dies. Error-prone runs never
/// error from faults: they retry and then degrade (worker panics remain
/// fatal).
pub fn run_parallel(program: Program, config: &SimConfig) -> Result<RunReport, RunError> {
    let (graph, cores) = prepare(program, config)?;
    let errors_on = config.faults_enabled();
    // Recovery replaces hard errors only for fault-injected runs; the
    // error-free executor keeps strict stall/peer-death semantics.
    let recovery = errors_on;
    let retry_budget = config.par_retry_budget;
    let tracer = config.trace.tracer();
    // Wall clock: threaded frame latency is real microseconds. (The
    // determinism contract only covers the deterministic executor.)
    let telem = config.telemetry.telemetry(ClockMode::Wall);
    // Pacing drives its own wall clock, shared by every worker: clones
    // of a wall [`Clock`] keep the same origin instant, so all cores
    // agree on "now", frame release ticks, and deadlines (all in µs).
    let paced_on = config.pacing.is_paced();
    let pace = PacedSource::new(config.pacing, Clock::new(ClockMode::Wall));

    // Each endpoint thread gets its own owned queue view (taken out of
    // these slots in the spawn loop below); the stats handles stay behind
    // for post-join collection.
    let mut producers: Vec<Option<SpscProducer>> = Vec::new();
    let mut consumers: Vec<Option<SpscConsumer>> = Vec::new();
    let mut edge_stats: Vec<SpscStats> = Vec::new();
    for _ in graph.edges() {
        let spec = QueueSpec::with_capacity(config.queue_capacity)
            .pointer_mode(config.protection.pointer_mode());
        let (p, c, s) = spsc_pair_with(spec, config.stall_timeout, config.effective_park_slice());
        producers.push(Some(p));
        consumers.push(Some(c));
        edge_stats.push(s);
    }
    // Human-readable edge labels for stuck-edge errors.
    let edge_labels: Vec<String> = graph
        .edges()
        .map(|(id, e)| {
            format!(
                "e{} ({}\u{2192}{})",
                id.index(),
                graph.node(e.src()).name(),
                graph.node(e.dst()).name()
            )
        })
        .collect();
    struct ThreadResult {
        node: NodeId,
        in_edges: Vec<EdgeId>,
        report: NodeReport,
        sink: Option<Vec<u32>>,
        retries: u64,
        degrades: u64,
        probe: CoreProbe,
        pace: Option<PacingReport>,
    }

    let mut results: Vec<ThreadResult> = Vec::with_capacity(graph.node_count());
    let mut errors: Vec<RunError> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for ((id, node), mut core) in graph.nodes().zip(cores) {
            let in_edges: Vec<_> = node.inputs().to_vec();
            let out_edges: Vec<_> = node.outputs().to_vec();
            let name = node.name().to_string();
            let reps = core.reps;
            let frames = config.frames;
            let edge_labels = &edge_labels;
            let wtracer = tracer.clone();
            let pace = pace.clone();
            let core_id = id.index() as u32;
            // The worker owns its probe outright (lock-free by
            // ownership); it travels back in the ThreadResult.
            let mut probe = telem.probe(core_id, node.name());
            // Build this worker's ports up front (endpoints are moved out
            // of their slots exactly once). The ports travel into the
            // worker closure, so a panic unwind drops — and therefore
            // closes — them.
            let mut ports = SpscPorts {
                ins: in_edges
                    .iter()
                    .map(|&e| {
                        consumers[e.index()]
                            .take()
                            .expect("each edge has exactly one consumer")
                    })
                    .collect(),
                outs: out_edges
                    .iter()
                    .map(|&e| {
                        producers[e.index()]
                            .take()
                            .expect("each edge has exactly one producer")
                    })
                    .collect(),
            };
            let worker = move || -> Result<ThreadResult, RunError> {
                // Frame-local recovery state: post-AM values popped this
                // frame (for replay), the replay cursor, and how much of
                // each port's frame output is already on the wire.
                let mut input_log: Vec<Vec<u32>> = vec![Vec::new(); in_edges.len()];
                let mut replayed: Vec<usize> = vec![0; in_edges.len()];
                let mut committed: Vec<usize> = vec![0; out_edges.len()];
                let mut timeouts = 0u64;
                let mut retries = 0u64;
                let mut degrades = 0u64;
                let mut deadline_degrades = 0u64;
                let mut pace_acc = PacingReport::for_pacing(config.pacing, "us");
                core.guard.start();
                for frame in 0..frames {
                    // Paced sources release frames on the period schedule
                    // (sleeping *before* the telemetry frame opens, so
                    // pacing idle never counts as frame latency); every
                    // other node paces naturally on data arrival.
                    if core.kind == NodeKind::Source {
                        pace.wait_release(frame);
                    }
                    // Open the telemetry frame before the boundary flush so
                    // no wall time goes unattributed.
                    probe.frame_start();
                    let frame_retries0 = retries;
                    let frame_degrades0 = degrades;
                    if frame > 0 {
                        for p in &mut ports.outs {
                            p.with(SimQueue::flush);
                        }
                        core.guard.scope_boundary();
                    }
                    // Drain pending headers (block on full queues).
                    for (port, &e) in out_edges.iter().enumerate() {
                        let w0 = probe.wait_begin();
                        let drained =
                            ports.outs[port].produce(|q| core.guard.hi_tick(port, q).then_some(()));
                        probe.wait_end(w0);
                        if let Err(w) = drained {
                            if !recovery {
                                return Err(stall_error(
                                    &name,
                                    "draining headers",
                                    &edge_labels[e.index()],
                                    w,
                                ));
                            }
                            if matches!(w, WaitError::TimedOut) {
                                timeouts += 1;
                            }
                            // Force the header out so the next boundary
                            // finds the port clear.
                            ports.outs[port].with(|q| core.guard.hi_drain_or_force(port, q));
                        }
                    }
                    // Frame checkpoint: everything a retry must restore.
                    let sink_mark = core.sink_buf.len();
                    for log in &mut input_log {
                        log.clear();
                    }
                    committed.fill(0);
                    let mut attempt: u32 = 0;
                    let mut deadline_cut = false;
                    'attempts: loop {
                        let attempt_start = if paced_on { pace.now() } else { 0 };
                        core.sink_buf.truncate(sink_mark);
                        replayed.fill(0);
                        core.clear_staged();
                        let mut produced: Vec<usize> = vec![0; out_edges.len()];
                        let mut fail: Option<FrameFail> = None;
                        // Overload shedding: a frame already past its
                        // deadline cannot land on time no matter what —
                        // discharge it through the degrade rung below
                        // without executing (or blocking on) anything,
                        // so the source is never back-pressured into
                        // stalling.
                        if recovery && pace.hopeless(frame) {
                            deadline_cut = true;
                            fail = Some(FrameFail::Terminal);
                        }
                        'firings: for _ in 0..reps {
                            if fail.is_some() {
                                break 'firings;
                            }
                            // Pop inputs: replay the frame log first, then
                            // live pops (one batch per wakeup).
                            for (port, &e) in in_edges.iter().enumerate() {
                                if fail.is_some() {
                                    break;
                                }
                                let need = core.pop_rates[port] as usize;
                                if recovery {
                                    let avail = input_log[port].len() - replayed[port];
                                    if avail > 0 {
                                        let take = avail.min(need);
                                        let from = replayed[port];
                                        core.staged_in[port]
                                            .extend_from_slice(&input_log[port][from..from + take]);
                                        replayed[port] += take;
                                    }
                                }
                                let live_from = core.staged_in[port].len();
                                while core.staged_in[port].len() < need {
                                    let buf = &mut core.staged_in[port];
                                    let max = need - buf.len();
                                    let guard = &mut core.guard;
                                    let w0 = probe.wait_begin();
                                    let popped = ports.ins[port].consume(|q| {
                                        let got = guard.pop_batch(port, q, buf, max);
                                        (got > 0).then_some(())
                                    });
                                    probe.wait_end(w0);
                                    if let Err(w) = popped {
                                        if !recovery {
                                            return Err(stall_error(
                                                &name,
                                                "popping items",
                                                &edge_labels[e.index()],
                                                w,
                                            ));
                                        }
                                        fail = Some(match w {
                                            WaitError::TimedOut => {
                                                timeouts += 1;
                                                FrameFail::Retryable
                                            }
                                            WaitError::PeerClosed => FrameFail::Terminal,
                                        });
                                        break;
                                    }
                                }
                                if recovery {
                                    // Log live pops so a retry replays them
                                    // without touching the queue (or AM).
                                    let (stage, log) =
                                        (&core.staged_in[port], &mut input_log[port]);
                                    log.extend_from_slice(&stage[live_from..]);
                                    replayed[port] = log.len();
                                }
                            }
                            if fail.is_some() {
                                break 'firings;
                            }
                            core.fire(&mut ports);
                            // Guarded runs enforce the static rate before
                            // anything reaches the wire; a violated firing
                            // (control perturbation) re-executes the frame.
                            if errors_on && core.guard.is_enabled() {
                                let rate_ok = core
                                    .staged_out
                                    .iter()
                                    .zip(&core.push_rates)
                                    .all(|(b, &r)| b.len() == r as usize);
                                if !rate_ok {
                                    fail = Some(FrameFail::Retryable);
                                    break 'firings;
                                }
                            }
                            // Push outputs, skipping whatever an earlier
                            // attempt of this frame already committed.
                            for (port, &e) in out_edges.iter().enumerate() {
                                let buf = &core.staged_out[port];
                                let guard = &mut core.guard;
                                let before = produced[port];
                                produced[port] += buf.len();
                                let mut pos = committed[port].saturating_sub(before).min(buf.len());
                                while pos < buf.len() {
                                    let w0 = probe.wait_begin();
                                    let pushed = ports.outs[port].produce(|q| {
                                        let got = guard.push_batch(port, q, &buf[pos..]);
                                        (got > 0).then_some(got)
                                    });
                                    probe.wait_end(w0);
                                    match pushed {
                                        Ok(got) => {
                                            pos += got;
                                            committed[port] += got;
                                        }
                                        Err(w) => {
                                            if !recovery {
                                                return Err(stall_error(
                                                    &name,
                                                    "pushing items",
                                                    &edge_labels[e.index()],
                                                    w,
                                                ));
                                            }
                                            if matches!(w, WaitError::TimedOut) {
                                                timeouts += 1;
                                            }
                                            // Never hang: force the rest of
                                            // this firing's output out.
                                            ports.outs[port].with(|q| {
                                                for &v in &buf[pos..] {
                                                    guard.timeout_push(port, q, v);
                                                }
                                            });
                                            committed[port] += buf.len() - pos;
                                            pos = buf.len();
                                        }
                                    }
                                }
                            }
                            core.clear_staged();
                        }
                        let Some(why) = fail else {
                            break 'attempts; // frame committed
                        };
                        // Deadline-aware re-budgeting: a retry is only
                        // worth its time when the frame's remaining slack
                        // can still cover a re-execution, estimated by the
                        // cost of the attempt that just failed. Pacing off
                        // means infinite slack, reducing this to the pure
                        // attempt budget.
                        let retry_fits = !paced_on || {
                            let attempt_cost = pace.now().saturating_sub(attempt_start).max(1);
                            pace.slack(frame) > attempt_cost
                        };
                        if why == FrameFail::Retryable && attempt < retry_budget {
                            if retry_fits {
                                attempt += 1;
                                retries += 1;
                                if wtracer.is_enabled() {
                                    wtracer.set_context(core_id, frame, core.guard.active_fc());
                                    wtracer.emit(Event::FrameRetry {
                                        frame: core.guard.active_fc(),
                                        attempt,
                                    });
                                }
                                continue 'attempts;
                            }
                            // Slack can no longer cover a re-execution:
                            // skip the rest of the retry budget and take
                            // the degrade rung now, making the deadline
                            // instead of blowing it on doomed retries.
                            deadline_cut = true;
                        }
                        // Budget exhausted (or the peer is gone, or the
                        // deadline ladder cut in): discharge the frame's
                        // remaining obligations and advance.
                        degrades += 1;
                        if deadline_cut {
                            deadline_degrades += 1;
                        }
                        if wtracer.is_enabled() {
                            wtracer.set_context(core_id, frame, core.guard.active_fc());
                            wtracer.emit(Event::FrameDegraded {
                                frame: core.guard.active_fc(),
                            });
                        }
                        for (port, done) in committed.iter_mut().enumerate() {
                            let owed = (reps as usize * core.push_rates[port] as usize)
                                .saturating_sub(*done);
                            if owed > 0 {
                                ports.outs[port].with(|q| {
                                    for _ in 0..owed {
                                        core.guard.timeout_push(port, q, 0);
                                    }
                                });
                                *done += owed;
                            }
                        }
                        if core.kind == NodeKind::Sink {
                            let per_frame: usize =
                                core.pop_rates.iter().map(|&r| r as usize).sum::<usize>()
                                    * reps as usize;
                            core.sink_buf.truncate(sink_mark);
                            core.sink_buf.resize(sink_mark + per_frame, 0);
                        }
                        core.clear_staged();
                        break 'attempts;
                    }
                    // Deadline accounting happens where the frame becomes
                    // externally visible: the sink's commit. Degraded
                    // frames count too — a pad that lands on time is an
                    // on-time (if lossy) frame, which is the entire point
                    // of the degrade-don't-stall ladder.
                    if core.kind == NodeKind::Sink {
                        if let Some(acc) = pace_acc.as_mut() {
                            acc.record_commit(
                                config.pacing.release(frame),
                                config.pacing.deadline_for(frame),
                                pace.now(),
                            );
                        }
                    }
                    core.probe_frame_commit(
                        &mut ports,
                        &mut probe,
                        retries - frame_retries0,
                        degrades - frame_degrades0,
                    );
                }
                core.guard.finish();
                // Drain the end-of-computation header. With the consumer
                // gone and the queue full this used to spin forever; the
                // wait is bounded, a dead peer is an error naming the
                // stuck edge, and under recovery the header is forced.
                for (port, &e) in out_edges.iter().enumerate() {
                    let w0 = probe.wait_begin();
                    let drained =
                        ports.outs[port].produce(|q| core.guard.hi_tick(port, q).then_some(()));
                    probe.wait_end(w0);
                    if let Err(w) = drained {
                        if !recovery {
                            return Err(stall_error(
                                &name,
                                "draining the end header",
                                &edge_labels[e.index()],
                                w,
                            ));
                        }
                        if matches!(w, WaitError::TimedOut) {
                            timeouts += 1;
                        }
                        ports.outs[port].with(|q| core.guard.hi_drain_or_force(port, q));
                    }
                    ports.outs[port].with(SimQueue::flush);
                }
                let (report, sink) = core.into_report(frames, reps * frames, timeouts);
                Ok(ThreadResult {
                    node: id,
                    in_edges,
                    report,
                    sink,
                    retries,
                    degrades,
                    probe,
                    pace: pace_acc.map(|mut acc| {
                        acc.degraded_for_deadline = deadline_degrades;
                        acc
                    }),
                })
            };
            handles.push((node.name().to_string(), scope.spawn(worker)));
        }
        for (name, h) in handles {
            match h.join() {
                Ok(Ok(r)) => results.push(r),
                Ok(Err(e)) => errors.push(e),
                Err(_) => errors.push(RunError::Parallel(format!(
                    "worker thread for node '{name}' panicked"
                ))),
            }
        }
    });
    if let Some(e) = errors.into_iter().next() {
        return Err(e);
    }

    tracer.set_context(MACHINE_CORE, config.frames, 0);
    tracer.emit(Event::RunEnd { completed: true });

    results.sort_by_key(|r| r.node.index());
    let mut report = RunReport {
        app: graph.name().to_string(),
        // No scheduler rounds exist on real threads; the closest
        // equivalent unit of progress is the steady-state frame.
        rounds: config.frames,
        completed: true,
        trace: tracer.finish(),
        ..Default::default()
    };
    let mut wd = WatchdogStats::default();
    // All workers have joined, so endpoint drops have merged their view
    // stats into the per-edge handles.
    let edge_stats: Vec<QueueStats> = edge_stats.iter().map(SpscStats::read).collect();
    for s in &edge_stats {
        report.queues += *s;
    }
    let mut probes = Vec::with_capacity(results.len());
    let mut pacing_report = PacingReport::for_pacing(config.pacing, "us");
    for mut r in results {
        if let (Some(acc), Some(p)) = (pacing_report.as_mut(), r.pace.as_ref()) {
            acc.merge(p);
        }
        // Consumer-side attribution, matching the deterministic executor.
        r.report.max_queue_occupancy = r
            .in_edges
            .iter()
            .map(|&e| edge_stats[e.index()].max_occupancy)
            .max()
            .unwrap_or(0);
        wd.frame_retries += r.retries;
        wd.frame_degrades += r.degrades;
        report.add_node(r.node.index(), r.report, r.sink);
        probes.push(r.probe);
    }
    report.watchdog = wd;
    report.telemetry = telem.finish(probes, crate::exec::run_counters(config.frames, &report));
    report.pacing = pacing_report;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run;
    use cg_fault::{FaultClass, Mtbe};
    use cg_graph::GraphBuilder;
    use commguard::Protection;
    use std::time::Duration;

    fn program() -> (Program, NodeId) {
        let mut b = GraphBuilder::new("par");
        let s = b.add_node("s", NodeKind::Source);
        let f = b.add_node("f", NodeKind::Filter);
        let g2 = b.add_node("g", NodeKind::Filter);
        let k = b.add_node("k", NodeKind::Sink);
        b.pipeline(&[s, f, g2, k], 8).unwrap();
        let graph = b.build().unwrap();
        let mut p = Program::new(graph);
        let mut next = 0u32;
        p.set_source(s, move |out| {
            for _ in 0..8 {
                out.push(next);
                next += 1;
            }
        });
        p.set_filter(f, |inp, out| {
            out[0].extend(inp[0].iter().map(|&v| v.wrapping_mul(7)));
        });
        p.set_filter(g2, |inp, out| {
            out[0].extend(inp[0].iter().map(|&v| v ^ 0xFF));
        });
        (p, k)
    }

    #[test]
    fn parallel_matches_deterministic_output() {
        let (p, sink) = program();
        let want = run(p, &SimConfig::error_free(200)).unwrap();
        let (p, _) = program();
        let got = run_parallel(p, &SimConfig::error_free(200)).unwrap();
        assert_eq!(got.sink_output(sink), want.sink_output(sink));
        assert!(got.completed);
        assert_eq!(got.rounds, 200, "rounds reports the frame count");
    }

    #[test]
    fn parallel_guarded_matches_too() {
        let cfg = SimConfig {
            protection: Protection::commguard(),
            inject: false,
            ..SimConfig::error_free(100)
        };
        let (p, sink) = program();
        let want = run(p, &cfg).unwrap();
        let (p, _) = program();
        let got = run_parallel(p, &cfg).unwrap();
        assert_eq!(got.sink_output(sink), want.sink_output(sink));
        assert_eq!(
            got.queues.header_pushes, want.queues.header_pushes,
            "same header traffic either way"
        );
        assert_eq!(got.queues.header_pops, want.queues.header_pops);
    }

    /// Both executors validate the effect model up front, error-free runs
    /// included.
    #[test]
    fn error_free_run_rejects_a_bad_effect_model() {
        let cfg = SimConfig {
            effect_model: cg_fault::EffectModel {
                p_silent: 0.5,
                ..cg_fault::EffectModel::calibrated()
            },
            ..SimConfig::error_free(4)
        };
        let (p, _) = program();
        assert!(matches!(
            run_parallel(p, &cfg),
            Err(RunError::BadEffectModel(_))
        ));
        let (p, _) = program();
        assert!(matches!(run(p, &cfg), Err(RunError::BadEffectModel(_))));
    }

    #[test]
    fn paced_run_matches_batch_output_and_reports_deadlines() {
        use crate::config::Pacing;
        let (p, sink) = program();
        let want = run(p, &SimConfig::error_free(40)).unwrap();
        let (p, _) = program();
        // 300 µs period, roomy deadline: every frame lands on time and
        // the data is identical to the unpaced run.
        let cfg = SimConfig::error_free(40).pacing(Pacing::Paced {
            period: 300,
            deadline: 200_000,
            slo: 200_000,
        });
        let got = run_parallel(p, &cfg).unwrap();
        assert_eq!(got.sink_output(sink), want.sink_output(sink));
        let pr = got.pacing.expect("paced run reports pacing");
        assert_eq!(pr.unit, "us");
        assert_eq!(pr.frames_observed(), 40, "one observation per sink frame");
        assert_eq!(pr.deadline_misses, 0);
        assert_eq!(pr.degraded_for_deadline, 0);
        assert!(pr.slo_met());
        assert_eq!(pr.latency.count(), 40);
        // Batch runs must not grow a pacing report.
        let (p, _) = program();
        let unpaced = run_parallel(p, &SimConfig::error_free(10)).unwrap();
        assert!(unpaced.pacing.is_none());
    }

    #[test]
    fn paced_faulty_run_degrades_rather_than_stalls() {
        use crate::config::Pacing;
        const FRAMES: u64 = 30;
        // Tight budget under burst faults: the run must finish with
        // frame-exact sink length (pads allowed), never hang, and report
        // deadline accounting for every frame.
        let cfg = SimConfig {
            fault_class: FaultClass::Burst,
            ..SimConfig::with_errors(FRAMES, Protection::commguard(), Mtbe::instructions(256), 11)
        }
        .pacing(Pacing::Paced {
            period: 200,
            deadline: 2_000,
            slo: 2_000,
        });
        let (p, sink) = program();
        let got = run_parallel(p, &cfg).unwrap();
        assert!(got.completed);
        assert_eq!(
            got.sink_output(sink).len(),
            (FRAMES * 8) as usize,
            "degraded frames still land frame-exact"
        );
        let pr = got.pacing.expect("paced run reports pacing");
        assert_eq!(pr.frames_observed(), FRAMES);
        assert_eq!(pr.latency.count(), FRAMES);
    }

    /// Ten-seed bit-parity sweep for the zero-copy bulk paths: seeded
    /// pseudo-random data streams over per-seed queue geometries (firing
    /// rate, frame count, ring capacity — hence workset size and wrap
    /// cadence) must produce byte-identical sinks and conserved
    /// item/header traffic on the threaded executor against the
    /// deterministic golden run.
    #[test]
    fn lock_free_bit_parity_across_seeds() {
        for seed in 1..=10u64 {
            let rate = 4 + (seed as u32 % 5) * 7; // 4..=32 units/firing
            let frames = 30 + (seed % 4) * 10;
            let capacity = 2 * rate as usize; // small rings: wrap + block
            let build = || {
                let mut b = GraphBuilder::new("parity");
                let s = b.add_node("s", NodeKind::Source);
                let f = b.add_node("f", NodeKind::Filter);
                let k = b.add_node("k", NodeKind::Sink);
                b.pipeline(&[s, f, k], rate).unwrap();
                let mut p = Program::new(b.build().unwrap());
                let mut z = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                p.set_source(s, move |out| {
                    for _ in 0..rate {
                        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
                        let mut x = z;
                        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                        out.push((x ^ (x >> 27)) as u32);
                    }
                });
                p.set_filter(f, |inp, out| {
                    out[0].extend(inp[0].iter().map(|&v| v.rotate_left(5)));
                });
                (p, k)
            };
            let cfg = SimConfig {
                protection: Protection::commguard(),
                inject: false,
                queue_capacity: capacity,
                ..SimConfig::error_free(frames)
            };
            let (p, sink) = build();
            let det = run(p, &cfg).unwrap();
            let (p, _) = build();
            let got = run_parallel(p, &cfg).unwrap();
            assert_eq!(
                got.sink_output(sink),
                det.sink_output(sink),
                "seed {seed}: threaded sink diverged from deterministic"
            );
            assert_eq!(
                got.queues.item_pushes, det.queues.item_pushes,
                "seed {seed}: item traffic"
            );
            assert_eq!(
                got.queues.header_pushes, det.queues.header_pushes,
                "seed {seed}: header pushes"
            );
            assert_eq!(
                got.queues.header_pops, det.queues.header_pops,
                "seed {seed}: header pops"
            );
        }
    }

    /// The headline capability: faults injected inside worker threads, the
    /// run completing with a frame-exact sink rather than an error.
    #[test]
    fn parallel_injects_and_recovers() {
        let (p, sink) = program();
        let cfg = SimConfig {
            fault_class: FaultClass::Burst,
            stall_timeout: Duration::from_millis(250),
            par_retry_budget: 3,
            ..SimConfig::with_errors(60, Protection::commguard(), Mtbe::instructions(256), 7)
        };
        let report = run_parallel(p, &cfg).unwrap();
        assert!(report.completed);
        let total_faults: u64 = report.nodes.iter().map(|n| n.faults.total()).sum();
        assert!(total_faults > 0, "injectors must actually fire");
        assert_eq!(
            report.sink_output(sink).len(),
            60 * 8,
            "recovery keeps the sink frame-exact"
        );
        // Every retry respects the per-frame budget on each of the 4 cores.
        assert!(report.watchdog.frame_retries <= u64::from(cfg.par_retry_budget) * cfg.frames * 4);
    }

    /// A worker that dies mid-stream (panicking filter) must surface as a
    /// `RunError` on some thread — never a hang. The dying worker's drop
    /// guard closes its endpoints, so neighbours fail fast with
    /// peer-closed rather than waiting out the stall timeout.
    #[test]
    fn killed_worker_is_an_error_not_a_hang() {
        let mut b = GraphBuilder::new("killed");
        let s = b.add_node("s", NodeKind::Source);
        let f = b.add_node("f", NodeKind::Filter);
        let k = b.add_node("k", NodeKind::Sink);
        b.pipeline(&[s, f, k], 8).unwrap();
        let mut p = Program::new(b.build().unwrap());
        p.set_source(s, |out| out.extend(0..8u32));
        let mut firings = 0u32;
        p.set_filter(f, move |inp, out| {
            firings += 1;
            assert!(firings < 5, "injected worker death");
            out[0].extend_from_slice(&inp[0]);
        });
        let _ = k;
        let cfg = SimConfig::error_free(1000);
        let start = std::time::Instant::now();
        let err = run_parallel(p, &cfg).unwrap_err();
        assert!(
            start.elapsed() < cfg.stall_timeout,
            "peer-closed must beat the stall timeout"
        );
        assert!(matches!(err, RunError::Parallel(_)), "got: {err}");
    }
}
