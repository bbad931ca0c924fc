//! The deterministic multicore executor.
//!
//! One stream-graph node runs per simulated core (the paper's layout).
//! Cores are multiplexed in topological round-robin; each visit advances a
//! node's micro-state machine (frame boundary → header drain → pop →
//! fire → push) as far as it can before blocking on a queue. Blocking is
//! resolved by later visits or, after a bounded number of fruitless
//! visits, by a queue-manager timeout that forces (incorrect but
//! progressing) data transfer — the PPU guarantee that nothing ever hangs.
//!
//! The firing itself — compute body and fault effects — is the shared
//! [`NodeCore`]; this module owns the round-robin phase machine, the
//! watchdog rungs and virtual-clock pacing around it.

use cg_graph::{EdgeId, NodeKind};
use cg_queue::{QueueSpec, SimQueue};
use cg_telemetry::{Clock, ClockMode, CoreProbe, RunCounters};
use cg_trace::{DirTag, Event, Tracer, MACHINE_CORE};
use commguard::qm::TimeoutTracker;

use crate::config::SimConfig;
use crate::engine::{prepare, NodeCore, Ports};
use crate::pacing::{PacedSource, PacingReport};
use crate::program::Program;
use crate::report::RunReport;
use crate::watchdog::{Watchdog, WatchdogAction};

/// Errors that prevent a run from starting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// A source/filter node has no work function bound.
    UnboundNode(String),
    /// The graph has no steady-state schedule.
    Schedule(String),
    /// The effect model is invalid.
    BadEffectModel(String),
    /// The threaded executor failed: a worker stalled past the transport
    /// timeout, found its peer dead, or panicked. The message names the
    /// node and edge involved.
    Parallel(String),
    /// A fan-in/fan-out graph's steady-state queue demand exceeds the
    /// configured ring capacity, so the frame schedule is not admissible
    /// and execution could wedge or silently degrade. Raised before any
    /// work runs; the message names the offending edge.
    CapacityExceeded {
        /// `"e<idx> (<src>→<dst>)"` label of the hottest offending edge.
        edge: String,
        /// Items (frame data + header slack) the edge needs in flight.
        demand: u64,
        /// The configured per-queue capacity.
        capacity: usize,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::UnboundNode(m) => write!(f, "unbound node: {m}"),
            RunError::Schedule(m) => write!(f, "scheduling failed: {m}"),
            RunError::BadEffectModel(m) => write!(f, "bad effect model: {m}"),
            RunError::Parallel(m) => write!(f, "threaded executor: {m}"),
            RunError::CapacityExceeded {
                edge,
                demand,
                capacity,
            } => write!(
                f,
                "queue capacity exceeded on {edge}: steady-state demand {demand} \
                 items > configured capacity {capacity}"
            ),
        }
    }
}

/// Rejects configurations whose per-edge steady-state demand cannot fit
/// the configured queue capacity.
///
/// Pure pipelines are exempt: backpressure alone schedules a chain at any
/// capacity ≥ 1 (the producer blocks until the consumer drains), and the
/// existing synthetic campaigns rely on running chains through small
/// (capacity-16) queues. With fan-in or fan-out, however, a splitter can
/// block pushing one branch while the joiner waits on another, so the
/// sufficient liveness condition is that every edge can hold one full
/// frame (`Schedule::items_per_iteration`) plus in-band header slack
/// ([`cg_graph::random::HEADER_SLACK`]).
///
/// # Errors
///
/// Returns [`RunError::CapacityExceeded`] naming the offending edge.
pub fn check_queue_capacity(
    graph: &cg_graph::StreamGraph,
    schedule: &cg_graph::schedule::Schedule,
    capacity: usize,
) -> Result<(), RunError> {
    let has_fan = graph.nodes().any(|(_, n)| {
        matches!(
            n.kind(),
            NodeKind::SplitDuplicate | NodeKind::SplitRoundRobin | NodeKind::JoinRoundRobin
        )
    });
    if !has_fan {
        return Ok(());
    }
    for (eid, e) in graph.edges() {
        let demand = schedule.items_per_iteration(eid) + cg_graph::random::HEADER_SLACK;
        if demand > capacity as u64 {
            return Err(RunError::CapacityExceeded {
                edge: format!(
                    "e{} ({}→{})",
                    eid.index(),
                    graph.node(e.src()).name(),
                    graph.node(e.dst()).name()
                ),
                demand,
                capacity,
            });
        }
    }
    Ok(())
}

impl std::error::Error for RunError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Boundary,
    DrainHeaders,
    PopInputs,
    Fire,
    PushOutputs,
    Finishing,
    Done,
}

/// Per-node (= per-core) scheduler state around the shared node core.
struct NodeRt {
    core: NodeCore,
    in_edges: Vec<EdgeId>,
    out_edges: Vec<EdgeId>,
    total_firings: u64,
    firings_done: u64,
    in_timeouts: Vec<TimeoutTracker>,
    out_timeouts: Vec<TimeoutTracker>,
    out_pos: Vec<usize>,
    phase: Phase,
}

/// A det core's ports: its edge lists over the run's queue table.
pub(crate) struct EdgePorts<'a> {
    pub(crate) ins: &'a [EdgeId],
    pub(crate) outs: &'a [EdgeId],
    pub(crate) queues: &'a mut [SimQueue],
}

impl Ports for EdgePorts<'_> {
    fn attached(&self) -> usize {
        self.ins.len() + self.outs.len()
    }

    fn with_attached<R>(&mut self, idx: usize, f: impl FnOnce(&mut SimQueue) -> R) -> R {
        let e = match idx.checked_sub(self.ins.len()) {
            None => self.ins[idx],
            Some(out) => self.outs[out],
        };
        f(&mut self.queues[e.index()])
    }
}

impl NodeRt {
    fn is_done(&self) -> bool {
        self.phase == Phase::Done
    }

    /// Drops the staged data and rewinds the push cursors. The cursors
    /// are zeroed in a loop: `fill(0)` measured about 20% slower on a
    /// two-node stream, where this runs once per firing.
    fn clear_staged(&mut self) {
        self.core.clear_staged();
        for pos in &mut self.out_pos {
            *pos = 0;
        }
    }

    /// QM timeouts fired across this core's ports (tracker-derived).
    fn timeouts_fired(&self) -> u64 {
        self.in_timeouts
            .iter()
            .chain(&self.out_timeouts)
            .map(TimeoutTracker::fired)
            .sum()
    }
}

/// Runs `program` under `config` to completion (or the round cap).
///
/// # Errors
///
/// Returns [`RunError`] for unbound nodes, inconsistent schedules, or an
/// invalid effect model. Error-prone execution itself never errors — that
/// is the point — it only degrades output quality in the report.
pub fn run(program: Program, config: &SimConfig) -> Result<RunReport, RunError> {
    let (graph, cores) = prepare(program, config)?;
    let pointer_mode = config.protection.pointer_mode();
    let tracer = config.trace.tracer();
    // Deterministic clock: ticks are scheduler rounds, so enabled-path
    // snapshots are byte-identical per seed.
    let telem = config.telemetry.telemetry(ClockMode::Deterministic);
    let mut probes: Vec<CoreProbe> = graph
        .nodes()
        .map(|(id, node)| telem.probe(id.index() as u32, node.name()))
        .collect();

    // Queues, one per edge.
    let mut queues: Vec<SimQueue> = graph
        .edges()
        .map(|_| {
            SimQueue::new(
                QueueSpec::with_capacity(config.queue_capacity).pointer_mode(pointer_mode),
            )
        })
        .collect();
    if tracer.is_enabled() {
        for (edge, q) in queues.iter_mut().enumerate() {
            q.attach_tracer(tracer.clone(), edge as u32);
        }
    }

    // Per-node runtime state, one core per node.
    let mut nodes: Vec<NodeRt> = graph
        .nodes()
        .zip(cores)
        .map(|((_, node), mut core)| {
            if tracer.is_enabled() {
                core.guard.attach_tracer(tracer.clone());
                core.injector.attach_tracer(tracer.clone());
            }
            let in_edges = node.inputs().to_vec();
            let out_edges = node.outputs().to_vec();
            NodeRt {
                out_pos: vec![0; out_edges.len()],
                in_timeouts: vec![TimeoutTracker::new(config.timeout_rounds); in_edges.len()],
                out_timeouts: vec![TimeoutTracker::new(config.timeout_rounds); out_edges.len()],
                in_edges,
                out_edges,
                total_firings: core.reps * config.frames,
                firings_done: 0,
                phase: Phase::Boundary,
                core,
            }
        })
        .collect();

    let order = graph.topo_order();
    let mut rounds: u64 = 0;
    let mut completed = false;
    let mut watchdog = Watchdog::new(config.watchdog);
    let mut last_fp = None;

    // Paced real-time mode: the virtual clock is the round counter, so a
    // paced deterministic run is a pure function of (program, config,
    // seed) — byte-reproducible like every other deterministic run.
    let paced_on = config.pacing.is_paced();
    let pace_clock = Clock::new(ClockMode::Deterministic);
    let paced = PacedSource::new(config.pacing, pace_clock.clone());
    let mut pacing_report = PacingReport::for_pacing(config.pacing, "rounds");
    let mut deadline_degrades: u64 = 0;
    let mut sink_seen: Vec<u64> = vec![0; nodes.len()];

    loop {
        rounds += 1;
        telem.advance_clock(rounds);
        pace_clock.advance_to(rounds);
        let mut all_done = true;
        let mut pacing_wait = false;
        for &nid in &order {
            let i = nid.index();
            let n = &mut nodes[i];
            // Paced source gating: a source sitting at its frame boundary
            // does not start frame f before the virtual clock reaches the
            // frame's release tick (f × period). The skipped visit is an
            // idle wait, not a stall.
            if paced_on
                && n.core.kind == NodeKind::Source
                && n.phase == Phase::Boundary
                && n.firings_done < n.total_firings
                && !paced.released(n.firings_done / n.core.reps)
            {
                pacing_wait = true;
                all_done = false;
                continue;
            }
            tracer.set_context(i as u32, rounds, n.core.guard.active_fc());
            // Busy/stall attribution: a visit that changes observable
            // node state (or moves data on an attached queue) was busy;
            // anything else was a stalled visit. Classification is only
            // paid for when telemetry is on.
            let before = if probes[i].is_enabled() && !n.is_done() {
                Some(node_visit_fingerprint(n, &queues))
            } else {
                None
            };
            step(n, &mut queues, &paced, &tracer, &mut probes[i]);
            if let Some(fp) = before {
                let after = node_visit_fingerprint(&nodes[i], &queues);
                probes[i].visit(after != fp);
            }
            all_done &= nodes[i].is_done();
        }
        if paced_on {
            // Deadline ladder: a frame still in flight past its absolute
            // deadline can no longer land on time, so it is discharged
            // through the terminal degrade rung *now* — recovery is
            // re-budgeted in time, not attempts. `degrade_frame` is a
            // no-op at boundaries, so a frame is degraded at most once.
            let mut any_degraded = false;
            let period = config.pacing.period().unwrap_or(0);
            for (idx, n) in nodes.iter_mut().enumerate() {
                if matches!(n.phase, Phase::Done | Phase::Finishing | Phase::Boundary) {
                    continue;
                }
                let frame = n.firings_done / n.core.reps;
                // Deadline-critical escalation: once a frame is within one
                // period of dying, any QM timeout that would land after
                // the deadline is useless — arm those ports now so a
                // blocked operation forces transfer while the frame can
                // still commit on time. Strictly a last-chance measure:
                // frames with healthy slack never reach it.
                let slack = paced.slack(frame);
                if slack > 0 && slack < period {
                    for t in n.in_timeouts.iter_mut().chain(&mut n.out_timeouts) {
                        if slack < t.time_to_fire() {
                            t.arm();
                        }
                    }
                }
                if rounds >= paced.deadline(frame) {
                    tracer.set_context(idx as u32, rounds, n.core.guard.active_fc());
                    tracer.emit(Event::FrameDegraded {
                        frame: n.core.guard.active_fc(),
                    });
                    degrade_frame(n, &mut queues);
                    deadline_degrades += 1;
                    any_degraded = true;
                }
            }
            if any_degraded {
                // The overdue frame was discharged — that IS progress; a
                // racing watchdog ladder must not go on to abort the
                // fresh frame (the terminal rung stays idempotent).
                watchdog.note_external_degrade();
            }
            // Deadline accounting happens where the paper's quality
            // metrics do: at sink frame commits.
            if let Some(acc) = pacing_report.as_mut() {
                for (idx, n) in nodes.iter().enumerate() {
                    if n.core.kind != NodeKind::Sink {
                        continue;
                    }
                    let committed = n.firings_done / n.core.reps;
                    while sink_seen[idx] < committed {
                        let f = sink_seen[idx];
                        acc.record_commit(
                            config.pacing.release(f),
                            config.pacing.deadline_for(f),
                            rounds,
                        );
                        sink_seen[idx] += 1;
                    }
                }
            }
        }
        if all_done {
            completed = true;
            break;
        }
        if rounds >= config.max_rounds {
            break;
        }
        let fp = progress_fingerprint(&nodes, &queues);
        let progressed = last_fp != Some(fp);
        last_fp = Some(fp);
        // A round spent gated on the release schedule is an idle wait,
        // not a stall — it must not walk the watchdog ladder.
        match watchdog.on_round(progressed || pacing_wait) {
            WatchdogAction::None => {}
            WatchdogAction::ArmTimeouts => {
                tracer.set_context(MACHINE_CORE, rounds, 0);
                tracer.emit(Event::Watchdog { rung: 1 });
                for n in &mut nodes {
                    for t in n.in_timeouts.iter_mut().chain(&mut n.out_timeouts) {
                        t.arm();
                    }
                }
            }
            WatchdogAction::ForceProgress => {
                tracer.set_context(MACHINE_CORE, rounds, 0);
                tracer.emit(Event::Watchdog { rung: 2 });
                for (idx, n) in nodes.iter_mut().enumerate() {
                    tracer.set_context(idx as u32, rounds, n.core.guard.active_fc());
                    force_phase(n, &mut queues);
                }
            }
            WatchdogAction::AbortFrame => {
                tracer.set_context(MACHINE_CORE, rounds, 0);
                tracer.emit(Event::Watchdog { rung: 3 });
                for n in &mut nodes {
                    abort_frame(n);
                }
            }
            WatchdogAction::DegradeFrame => {
                tracer.set_context(MACHINE_CORE, rounds, 0);
                tracer.emit(Event::Watchdog { rung: 4 });
                for (idx, n) in nodes.iter_mut().enumerate() {
                    if !matches!(n.phase, Phase::Done | Phase::Finishing | Phase::Boundary) {
                        tracer.set_context(idx as u32, rounds, n.core.guard.active_fc());
                        tracer.emit(Event::FrameDegraded {
                            frame: n.core.guard.active_fc(),
                        });
                    }
                    degrade_frame(n, &mut queues);
                }
            }
        }
    }

    tracer.set_context(MACHINE_CORE, rounds, 0);
    tracer.emit(Event::RunEnd { completed });

    // Assemble the report.
    let mut report = RunReport {
        app: graph.name().to_string(),
        rounds,
        completed,
        watchdog: watchdog.stats(),
        trace: tracer.finish(),
        ..Default::default()
    };
    if let Some(mut acc) = pacing_report {
        acc.degraded_for_deadline = deadline_degrades;
        report.pacing = Some(acc);
    }
    for q in &queues {
        report.queues += *q.stats();
    }
    for (idx, n) in nodes.into_iter().enumerate() {
        let frames = n.firings_done.checked_div(n.core.reps).unwrap_or(0);
        let timeouts = n.timeouts_fired();
        let (mut row, sink) = n.core.into_report(frames, n.firings_done, timeouts);
        // High-water occupancy across the queues this core consumes
        // (queues are attributed to their consumer side).
        row.max_queue_occupancy = n
            .in_edges
            .iter()
            .map(|&e| queues[e.index()].stats().max_occupancy)
            .max()
            .unwrap_or(0);
        report.add_node(idx, row, sink);
    }
    report.telemetry = telem.finish(probes, run_counters(config.frames, &report));
    Ok(report)
}

/// Folds the assembled report's run-wide counters into the telemetry
/// section so exporters see one self-contained document.
pub(crate) fn run_counters(frames: u64, report: &RunReport) -> RunCounters {
    RunCounters {
        frames,
        ecc_checks: report.queues.ecc.checks,
        ecc_detected: report.queues.ecc.detections,
        ecc_corrected: report.queues.ecc.corrections,
        wd_arm_timeouts: report.watchdog.timeout_escalations,
        wd_forced_progress: report.watchdog.forced_progress,
        wd_frame_aborts: report.watchdog.frame_aborts,
        wd_frame_degrades: report.watchdog.frame_degrades,
        frame_retries: report.watchdog.frame_retries,
        realignment_episodes: report.realignment_episodes,
        faults_injected: report.total_faults().total(),
        blocked_ops: report.queues.blocked_pushes + report.queues.blocked_pops,
        queue_timeouts: report.total_timeouts(),
    }
}

/// Advances one node as far as possible this visit.
fn step(
    n: &mut NodeRt,
    queues: &mut [SimQueue],
    paced: &PacedSource,
    tracer: &Tracer,
    probe: &mut CoreProbe,
) {
    loop {
        match n.phase {
            Phase::Done => return,
            Phase::Boundary => {
                if n.firings_done >= n.total_firings {
                    n.core.guard.finish();
                    n.phase = Phase::Finishing;
                    continue;
                }
                // Paced source gating: hold the next frame at its
                // boundary until the release tick. This also catches the
                // mid-visit continuation where a source commits frame f
                // and would roll straight into frame f+1 within the same
                // visit. Waiting here is idle time, not a stall.
                if n.core.kind == NodeKind::Source && !paced.released(n.firings_done / n.core.reps)
                {
                    return;
                }
                if n.firings_done == 0 {
                    n.core.guard.start();
                } else {
                    n.core.guard.scope_boundary();
                    // Publish partial working sets so downstream frames are
                    // visible promptly (the paper flushes at boundaries).
                    for &e in &n.out_edges {
                        queues[e.index()].flush();
                    }
                }
                tracer.emit(Event::FrameBoundary {
                    frame: n.core.guard.active_fc(),
                });
                probe.frame_start();
                n.phase = Phase::DrainHeaders;
            }
            Phase::DrainHeaders => {
                let mut clear = true;
                for (port, &e) in n.out_edges.iter().enumerate() {
                    let q = &mut queues[e.index()];
                    if !n.core.guard.hi_tick(port, q) {
                        if n.out_timeouts[port].on_block() {
                            tracer.emit(Event::QmTimeout {
                                port: port as u32,
                                dir: DirTag::Out,
                            });
                            n.core.guard.hi_force(port, q);
                        } else {
                            clear = false;
                        }
                    } else {
                        n.out_timeouts[port].on_progress();
                    }
                }
                if !clear {
                    return;
                }
                n.phase = Phase::PopInputs;
            }
            Phase::PopInputs => {
                let core = &mut n.core;
                for (port, &e) in n.in_edges.iter().enumerate() {
                    let need = core.pop_rates[port] as usize;
                    while core.staged_in[port].len() < need {
                        let q = &mut queues[e.index()];
                        let want = need - core.staged_in[port].len();
                        // Zero-copy batch pop; a short count is exactly
                        // one blocked attempt (the guard accounts it), so
                        // the timeout tracker advances at the same cadence
                        // as per-unit popping — `on_progress` is a pure
                        // streak reset, so once per run equals once per
                        // unit.
                        let got = core
                            .guard
                            .pop_batch(port, q, &mut core.staged_in[port], want);
                        if got > 0 {
                            n.in_timeouts[port].on_progress();
                        }
                        if got == want {
                            continue;
                        }
                        if n.in_timeouts[port].on_block() {
                            tracer.emit(Event::QmTimeout {
                                port: port as u32,
                                dir: DirTag::In,
                            });
                            // QM timeout: transfer the whole remaining
                            // firing's worth of (stale) data at once
                            // rather than grinding one forced item per
                            // timeout window.
                            while core.staged_in[port].len() < need {
                                let v = core.guard.timeout_pop(port, q);
                                core.staged_in[port].push(v);
                            }
                        } else {
                            return;
                        }
                    }
                }
                n.phase = Phase::Fire;
            }
            Phase::Fire => {
                n.core.fire(&mut EdgePorts {
                    ins: &n.in_edges,
                    outs: &n.out_edges,
                    queues,
                });
                n.phase = Phase::PushOutputs;
            }
            Phase::PushOutputs => {
                let core = &mut n.core;
                for (port, &e) in n.out_edges.iter().enumerate() {
                    while n.out_pos[port] < core.staged_out[port].len() {
                        let q = &mut queues[e.index()];
                        let pending = &core.staged_out[port][n.out_pos[port]..];
                        // Zero-copy batch push; a short count is exactly
                        // one blocked attempt (see `PopInputs`).
                        let got = core.guard.push_batch(port, q, pending);
                        n.out_pos[port] += got;
                        if got > 0 {
                            n.out_timeouts[port].on_progress();
                        }
                        if n.out_pos[port] >= core.staged_out[port].len() {
                            break;
                        }
                        if n.out_timeouts[port].on_block() {
                            tracer.emit(Event::QmTimeout {
                                port: port as u32,
                                dir: DirTag::Out,
                            });
                            // QM timeout: force the rest of this firing's
                            // output out in one go.
                            while n.out_pos[port] < core.staged_out[port].len() {
                                let v = core.staged_out[port][n.out_pos[port]];
                                core.guard.timeout_push(port, q, v);
                                n.out_pos[port] += 1;
                            }
                        } else {
                            return;
                        }
                    }
                }
                n.clear_staged();
                n.firings_done += 1;
                n.phase = if n.firings_done.is_multiple_of(n.core.reps) {
                    n.core.probe_frame_commit(
                        &mut EdgePorts {
                            ins: &n.in_edges,
                            outs: &n.out_edges,
                            queues,
                        },
                        probe,
                        0,
                        0,
                    );
                    Phase::Boundary
                } else {
                    Phase::PopInputs
                };
            }
            Phase::Finishing => {
                let mut clear = true;
                for (port, &e) in n.out_edges.iter().enumerate() {
                    let q = &mut queues[e.index()];
                    if !n.core.guard.hi_tick(port, q) {
                        if n.out_timeouts[port].on_block() {
                            tracer.emit(Event::QmTimeout {
                                port: port as u32,
                                dir: DirTag::Out,
                            });
                            n.core.guard.hi_force(port, q);
                        } else {
                            clear = false;
                        }
                    }
                }
                if !clear {
                    return;
                }
                for &e in &n.out_edges {
                    queues[e.index()].flush();
                }
                n.phase = Phase::Done;
            }
        }
    }
}

/// Watchdog rung 2: forcibly completes the blocking phase of one node
/// with timeout semantics. Phase bookkeeping is left to the next
/// `step()` visit, which finds the phase satisfied and moves on.
fn force_phase(n: &mut NodeRt, queues: &mut [SimQueue]) {
    let core = &mut n.core;
    match n.phase {
        Phase::DrainHeaders | Phase::Finishing => {
            for (port, &e) in n.out_edges.iter().enumerate() {
                core.guard.hi_drain_or_force(port, &mut queues[e.index()]);
            }
        }
        Phase::PopInputs => {
            for (port, &e) in n.in_edges.iter().enumerate() {
                let need = core.pop_rates[port] as usize;
                while core.staged_in[port].len() < need {
                    let v = core.guard.timeout_pop(port, &mut queues[e.index()]);
                    core.staged_in[port].push(v);
                }
            }
        }
        Phase::PushOutputs => {
            for (port, &e) in n.out_edges.iter().enumerate() {
                while n.out_pos[port] < core.staged_out[port].len() {
                    let v = core.staged_out[port][n.out_pos[port]];
                    core.guard.timeout_push(port, &mut queues[e.index()], v);
                    n.out_pos[port] += 1;
                }
            }
        }
        Phase::Boundary | Phase::Fire | Phase::Done => {}
    }
}

/// Watchdog rung 3: abandons the node's current frame computation.
/// Staged data is dropped and the node skips to its next frame boundary,
/// where the HI/AM machinery re-establishes alignment.
fn abort_frame(n: &mut NodeRt) {
    if matches!(n.phase, Phase::Done | Phase::Finishing | Phase::Boundary) {
        return;
    }
    n.clear_staged();
    let into_frame = n.firings_done % n.core.reps;
    n.firings_done = (n.firings_done + (n.core.reps - into_frame)).min(n.total_firings);
    n.phase = Phase::Boundary;
}

/// Watchdog rung 4: discharges the node's remaining frame obligations
/// rather than dropping them. Staged output already produced is flushed
/// with timeout semantics, the balance of the frame's output rate is
/// padded with forced zero pushes (sinks pad their collected data
/// instead), and the node advances to its next boundary. Downstream
/// consumers therefore see a complete — if degraded — frame, which
/// unwedges stalls that aborting alone could not clear.
fn degrade_frame(n: &mut NodeRt, queues: &mut [SimQueue]) {
    if matches!(n.phase, Phase::Done | Phase::Finishing | Phase::Boundary) {
        return;
    }
    let core = &mut n.core;
    let into_frame = n.firings_done % core.reps;
    let owed = core.reps - into_frame;
    // When the node was mid-push, the current firing's data is flushed
    // below and that firing no longer needs padding.
    let inflight_done = u64::from(n.phase == Phase::PushOutputs);
    for (port, &e) in n.out_edges.iter().enumerate() {
        let q = &mut queues[e.index()];
        // A header still pending from the boundary drain must go first so
        // the next frame's insertion finds the port clear.
        core.guard.hi_drain_or_force(port, q);
        while n.out_pos[port] < core.staged_out[port].len() {
            let v = core.staged_out[port][n.out_pos[port]];
            core.guard.timeout_push(port, q, v);
            n.out_pos[port] += 1;
        }
        let pad = (owed - inflight_done) * u64::from(core.push_rates[port]);
        for _ in 0..pad {
            core.guard.timeout_push(port, q, 0);
        }
    }
    if core.kind == NodeKind::Sink {
        let per_firing: u64 = core.pop_rates.iter().map(|&r| u64::from(r)).sum();
        let pad = (owed - inflight_done) * per_firing;
        core.sink_buf.resize(core.sink_buf.len() + pad as usize, 0);
    }
    n.clear_staged();
    n.firings_done = (n.firings_done + owed).min(n.total_firings);
    n.phase = Phase::Boundary;
}

/// Per-node progress digest for busy/stall visit classification: node
/// micro-state plus successful-transfer counters on its attached edges
/// (so a visit that only drained a header still counts as busy).
fn node_visit_fingerprint(n: &NodeRt, queues: &[SimQueue]) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mix = |acc: u64, v: u64| (acc ^ v).wrapping_mul(FNV_PRIME);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    h = mix(h, n.firings_done);
    h = mix(h, n.core.instructions);
    h = mix(h, phase_rank(n.phase));
    h = mix(h, n.core.staged_in.iter().map(|b| b.len() as u64).sum());
    h = mix(h, n.out_pos.iter().map(|&p| p as u64).sum());
    for &e in n.in_edges.iter().chain(&n.out_edges) {
        let s = queues[e.index()].stats();
        h = mix(
            h,
            s.item_pushes
                + s.header_pushes
                + s.item_pops
                + s.header_pops
                + s.timeout_pushes
                + s.timeout_pops,
        );
    }
    h
}

/// A cheap digest of all externally observable execution state, compared
/// round over round by the watchdog. Deliberately excludes blocked-attempt
/// counters: spinning on a full/empty queue is not progress.
fn progress_fingerprint(nodes: &[NodeRt], queues: &[SimQueue]) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mix = |acc: u64, v: u64| (acc ^ v).wrapping_mul(FNV_PRIME);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for n in nodes {
        h = mix(h, n.firings_done);
        h = mix(h, n.core.instructions);
        h = mix(h, phase_rank(n.phase));
        h = mix(h, n.core.staged_in.iter().map(|b| b.len() as u64).sum());
        h = mix(h, n.out_pos.iter().map(|&p| p as u64).sum());
    }
    for q in queues {
        let s = q.stats();
        h = mix(
            h,
            s.item_pushes
                + s.header_pushes
                + s.item_pops
                + s.header_pops
                + s.timeout_pushes
                + s.timeout_pops,
        );
    }
    h
}

fn phase_rank(p: Phase) -> u64 {
    match p {
        Phase::Boundary => 0,
        Phase::DrainHeaders => 1,
        Phase::PopInputs => 2,
        Phase::Fire => 3,
        Phase::PushOutputs => 4,
        Phase::Finishing => 5,
        Phase::Done => 6,
    }
}
