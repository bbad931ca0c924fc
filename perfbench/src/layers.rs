//! The layer ladder, the unit-cost replays, and the counters a run
//! report carries: the per-layer half of the ledger.

use std::time::{Duration, Instant};

use cg_ecc::{decode_slice, encode_slice, Codeword, Decoded};
use cg_graph::{NodeKind, StreamGraph};
use cg_queue::{spsc_pair, QueueSpec, QueueStats, SimQueue};
use cg_runtime::{Program, RunReport, SimConfig, TelemetryConfig, TraceConfig};
use commguard::{CoreGuard, Protection, SubopCounters};

use crate::ledger::{self, median, Sheet, Spans};

/// One rung of the ladder: the same inputs and seeds with one more layer
/// switched on than the rung before.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// The app's graph with no-op work at the same rates, unprotected queues.
    NullWork,
    /// Real work, `PpuUnprotectedQueue`, no injection.
    Unprotected,
    /// `PpuReliableQueue`: ECC-protected shared pointers.
    ReliableQueue,
    /// Full CommGuard (HI + AM), no injection.
    CommGuard,
    /// CommGuard with the workload's fault injection.
    Faulty,
    /// … plus the metrics plane.
    Telemetry,
    /// … plus the event trace ring.
    Trace,
}

pub const RUNGS: [Rung; 7] = [
    Rung::NullWork,
    Rung::Unprotected,
    Rung::ReliableQueue,
    Rung::CommGuard,
    Rung::Faulty,
    Rung::Telemetry,
    Rung::Trace,
];

impl Rung {
    pub fn metric(self) -> &'static str {
        match self {
            Rung::NullWork => "ladder.null_work_s",
            Rung::Unprotected => "ladder.unprotected_s",
            Rung::ReliableQueue => "ladder.reliable_queue_s",
            Rung::CommGuard => "ladder.commguard_s",
            Rung::Faulty => "ladder.faulty_s",
            Rung::Telemetry => "ladder.telemetry_s",
            Rung::Trace => "ladder.trace_s",
        }
    }

    /// Whether this rung replaces the app's work with no-op closures.
    pub fn null_work(self) -> bool {
        self == Rung::NullWork
    }

    /// The rung's configuration, derived from the workload's faulty
    /// CommGuard configuration `faulty` (which must have `inject: true`).
    pub fn config(self, faulty: &SimConfig) -> SimConfig {
        let quiet = |protection| SimConfig {
            protection,
            inject: false,
            ..faulty.clone()
        };
        match self {
            Rung::NullWork | Rung::Unprotected => quiet(Protection::PpuUnprotectedQueue),
            Rung::ReliableQueue => quiet(Protection::PpuReliableQueue),
            Rung::CommGuard => quiet(Protection::commguard()),
            Rung::Faulty => faulty.clone(),
            Rung::Telemetry => faulty.clone().telemetry(TelemetryConfig::enabled()),
            Rung::Trace => faulty
                .clone()
                .telemetry(TelemetryConfig::enabled())
                .trace(TraceConfig::ring()),
        }
    }
}

/// A clone of `graph` whose sources and filters do no work: each firing
/// emits zeros at the node's push rates.
pub fn null_program(graph: &StreamGraph) -> Program {
    let mut program = Program::new(graph.clone());
    for (id, node) in graph.nodes() {
        if matches!(node.kind(), NodeKind::Source | NodeKind::Filter) {
            let rates: Vec<usize> = node
                .outputs()
                .iter()
                .map(|&e| graph.edge(e).push_rate() as usize)
                .collect();
            program.set_work(id, move |_inp: &[Vec<u32>], out: &mut [Vec<u32>]| {
                for (o, &r) in out.iter_mut().zip(&rates) {
                    o.resize(o.len() + r, 0);
                }
            });
        }
    }
    program
}

/// Counters summed over the run reports of one pass.
#[derive(Debug, Default)]
pub struct Counts {
    pub rounds: u64,
    pub queues: QueueStats,
    pub subops: SubopCounters,
    pub faults: u64,
    pub timeouts: u64,
    pub max_occupancy: u64,
    pub realign_episodes: u64,
    pub frame_retries: u64,
    pub frame_degrades: u64,
    pub degraded_for_deadline: u64,
}

impl Counts {
    pub fn add(&mut self, r: &RunReport) {
        self.rounds += r.rounds;
        self.queues += r.queues;
        self.subops += &r.total_subops();
        self.faults += r.total_faults().total();
        self.timeouts += r.total_timeouts();
        self.max_occupancy = self.max_occupancy.max(r.max_queue_occupancy());
        self.realign_episodes += r.realignment_episodes;
        self.frame_retries += r.watchdog.frame_retries;
        self.frame_degrades += r.watchdog.frame_degrades;
        self.degraded_for_deadline += r.pacing.as_ref().map_or(0, |p| p.degraded_for_deadline);
    }

    /// Writes the report counters of the per-layer sheet.
    pub fn record(&self, sheet: &mut Sheet, wall: Duration) {
        let q = &self.queues;
        let s = &self.subops;
        sheet.set("queue.item_pushes", q.item_pushes as f64);
        sheet.set("queue.header_pushes", q.header_pushes as f64);
        sheet.set(
            "queue.shared_ptr_ops",
            (q.shared_ptr_reads + q.shared_ptr_writes) as f64,
        );
        sheet.set("queue.workset_publishes", q.workset_publishes as f64);
        sheet.set(
            "queue.blocked_ops",
            (q.blocked_pushes + q.blocked_pops) as f64,
        );
        sheet.set("queue.timeouts", self.timeouts as f64);
        sheet.set("queue.max_occupancy", self.max_occupancy as f64);
        sheet.set("ecc.checks", q.ecc.checks as f64);
        sheet.set("ecc.corrected", q.ecc.corrections as f64);
        sheet.set("core.subops", s.total_subops() as f64);
        sheet.set("core.am.padded_items", s.padded_items as f64);
        sheet.set("core.am.discarded_items", s.discarded_items as f64);
        let handled = s.accepted_items + s.padded_items + s.discarded_items;
        sheet.set(
            "core.am.useful_ratio",
            if handled == 0 {
                1.0
            } else {
                s.accepted_items as f64 / handled as f64
            },
        );
        sheet.set("core.am.loss_ratio", s.loss_ratio());
        sheet.set("core.realign_episodes", self.realign_episodes as f64);
        sheet.set("fault.injected", self.faults as f64);
        sheet.set("runtime.rounds", self.rounds as f64);
        sheet.set(
            "runtime.exec.ns_per_round",
            wall.as_nanos() as f64 / self.rounds.max(1) as f64,
        );
        sheet.set("runtime.watchdog.frame_retries", self.frame_retries as f64);
        sheet.set(
            "runtime.watchdog.frame_degrades",
            self.frame_degrades as f64,
        );
        sheet.set(
            "runtime.pacing.degraded_for_deadline",
            self.degraded_for_deadline as f64,
        );
    }
}

/// What one rung of a ladder round returns: the wall time of the runs
/// (program building excluded) and their summed counters.
pub type RungResult = Result<(Duration, Counts), String>;

/// Runs ladder rounds until `budget` is spent (at least three), rotating
/// which rung goes first, and records each rung's median time and the
/// deltas between rungs. Returns the counters of the last round's rungs
/// and the number of rounds run.
pub fn ladder(
    sheet: &mut Sheet,
    spans: &mut Spans,
    budget: Duration,
    mut rung: impl FnMut(Rung, &mut Spans) -> RungResult,
) -> Result<(Vec<Counts>, usize), String> {
    let start = Instant::now();
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); RUNGS.len()];
    let mut last: Vec<Option<Counts>> = (0..RUNGS.len()).map(|_| None).collect();
    let mut round = 0usize;
    while round < 3 || start.elapsed() < budget {
        for k in 0..RUNGS.len() {
            let i = (k + round) % RUNGS.len();
            let r = RUNGS[i];
            let (t, counts) = spans.time(r.metric(), |sp| rung(r, sp))?;
            times[i].push(t.as_secs_f64());
            last[i] = Some(counts);
        }
        round += 1;
    }
    let med: Vec<f64> = times.iter().map(|t| median(t)).collect();
    for (r, m) in RUNGS.iter().zip(&med) {
        sheet.set(r.metric(), *m);
    }
    sheet.set("apps.filter_s", med[1] - med[0]);
    sheet.set("queue.ecc_pointer_s", med[2] - med[1]);
    sheet.set("core.hi_am_s", med[3] - med[2]);
    sheet.set("fault.inject_realign_s", med[4] - med[3]);
    sheet.set("telemetry.overhead_pct", 100.0 * (med[5] - med[4]) / med[4]);
    sheet.set("trace.overhead_pct", 100.0 * (med[6] - med[5]) / med[5]);
    let last = last
        .into_iter()
        .map(|c| c.expect("every rung ran"))
        .collect();
    Ok((last, round))
}

/// Estimates the ECC-pointer and HI/AM ladder deltas from the unit costs
/// and the ladder's own counts, records them, and describes how far each
/// estimate sits from its measured delta:
///
/// * ECC pointers: shared-pointer reads × decode cost + writes × encode
///   cost, counted on the reliable-queue rung;
/// * HI/AM: the guard replay's extra cost per item over the bare ring,
///   times the items pushed on the CommGuard rung.
///
/// An estimate agrees when it is within `TOLERANCE` of the delta, or
/// within `FLOOR_S` in absolute terms; otherwise the gap is reported.
pub fn cross_check(sheet: &mut Sheet, ladder_counts: &[Counts]) -> Vec<String> {
    const TOLERANCE: f64 = 0.5;
    const FLOOR_S: f64 = 0.005;
    let get = |name: &str| {
        sheet
            .get(name)
            .expect("unit costs and ladder measured first")
    };
    let (enc, dec) = (get("ecc.encode_ns_per_word"), get("ecc.decode_ns_per_word"));
    let (guard, ring) = (get("core.guard_ns_per_item"), get("queue.ring_ns_per_item"));
    let (ecc_delta, hi_am_delta) = (get("queue.ecc_pointer_s"), get("core.hi_am_s"));
    let reliable = &ladder_counts[2].queues;
    let ecc_est =
        1e-9 * (reliable.shared_ptr_reads as f64 * dec + reliable.shared_ptr_writes as f64 * enc);
    let items = ladder_counts[3].queues.item_pushes as f64;
    let hi_am_est = 1e-9 * items * (guard - ring).max(0.0);
    sheet.set("queue.ecc_pointer_est_s", ecc_est);
    sheet.set("core.hi_am_est_s", hi_am_est);
    [
        ("queue.ecc_pointer", ecc_est, ecc_delta),
        ("core.hi_am", hi_am_est, hi_am_delta),
    ]
    .iter()
    .map(|&(layer, est, delta)| {
        let gap = est - delta;
        let agrees = gap.abs() <= FLOOR_S || gap.abs() <= TOLERANCE * delta.abs();
        format!(
            "check {layer} estimate {est:.6} s ladder delta {delta:.6} s gap {gap:+.6} s ({}, tolerance ±{:.0}% or ±{FLOOR_S} s)",
            if agrees { "agrees" } else { "GAP" },
            TOLERANCE * 100.0
        )
    })
    .collect()
}

/// Times `work` (which does `units` units per call) five times after a
/// warm-up call and returns the median nanoseconds per unit.
fn ns_per_unit(units: u64, mut work: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    work()?;
    let mut samples = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        work()?;
        samples.push(t.elapsed().as_nanos() as f64 / units as f64);
    }
    Ok(median(&samples))
}

/// Replays the workload's traffic shape through each layer's public API:
/// `frame` items per frame through a queue of `capacity` units with the
/// CommGuard pointer mode, `frames` frames per timed call.
pub fn unit_costs(
    sheet: &mut Sheet,
    spans: &mut Spans,
    seed: u64,
    frame: usize,
    capacity: usize,
    frames: usize,
) -> Result<(), String> {
    let words: Vec<u32> = (0..frame as u64)
        .map(|i| ledger::mix(seed, i) as u32)
        .collect();
    let units = (frame * frames) as u64;
    let spec =
        || QueueSpec::with_capacity(capacity).pointer_mode(Protection::commguard().pointer_mode());

    let mut cws = vec![Codeword::from_raw(0); frame];
    let mut decoded = vec![Decoded::Clean(0); frame];
    let enc = spans.time("unit.ecc_encode", |_| {
        ns_per_unit(units, || {
            for _ in 0..frames {
                encode_slice(std::hint::black_box(&words), &mut cws);
            }
            Ok(())
        })
    })?;
    let dec = spans.time("unit.ecc_decode", |_| {
        ns_per_unit(units, || {
            let mut checks = 0;
            for _ in 0..frames {
                checks += decode_slice(std::hint::black_box(&cws), &mut decoded).checks;
            }
            (checks == units)
                .then_some(())
                .ok_or("decode_slice skipped words".to_string())
        })
    })?;
    for (d, &w) in decoded.iter().zip(&words) {
        if *d != Decoded::Clean(w) {
            return Err(format!("ECC replay decoded {d:?}, encoded {w:#x}"));
        }
    }

    let mut q = SimQueue::new(spec());
    let mut out = Vec::with_capacity(frame);
    let ring = spans.time("unit.ring", |_| {
        ns_per_unit(units, || {
            for _ in 0..frames {
                out.clear();
                q.push_items(&words);
                q.flush();
                let (n, _) = q.pop_items(&mut out, frame);
                if n != frame || out != words {
                    return Err(format!("ring replay popped {n} of {frame} items"));
                }
            }
            Ok(())
        })
    })?;

    let spsc = spans.time("unit.spsc", |_| {
        ns_per_unit(units, || spsc_replay(spec(), &words, frames))
    })?;

    let cfg = Protection::commguard()
        .guard_config()
        .expect("CommGuard has a guard config");
    let guard = spans.time("unit.guard", |_| {
        ns_per_unit(units, || {
            let mut q = SimQueue::new(spec());
            let mut producer = CoreGuard::new(0, 1, &cfg, None);
            let mut consumer = CoreGuard::new(1, 0, &cfg, None);
            producer.start();
            consumer.start();
            for f in 0..frames {
                if f > 0 {
                    q.flush();
                    producer.scope_boundary();
                    consumer.scope_boundary();
                }
                while !producer.hi_tick(0, &mut q) {}
                producer.push_batch(0, &mut q, &words);
                q.flush();
                out.clear();
                let n = consumer.pop_batch(0, &mut q, &mut out, frame);
                if n != frame || out != words {
                    return Err(format!(
                        "guard replay popped {n} of {frame} items in frame {f}"
                    ));
                }
            }
            let s = consumer.subops();
            if s.padded_items + s.discarded_items > 0 {
                return Err("guard replay realigned on an error-free stream".into());
            }
            Ok(())
        })
    })?;

    sheet.set("ecc.encode_ns_per_word", enc);
    sheet.set("ecc.decode_ns_per_word", dec);
    sheet.set("queue.ring_ns_per_item", ring);
    sheet.set("queue.spsc_ns_per_item", spsc);
    sheet.set("core.guard_ns_per_item", guard);
    Ok(())
}

/// Two threads on one `spsc_pair`: the producer pushes and flushes
/// `frames` frames of `words`, the consumer pops and checks them.
fn spsc_replay(spec: QueueSpec, words: &[u32], frames: usize) -> Result<(), String> {
    let (mut tx, mut rx, _stats) = spsc_pair(spec, Duration::from_secs(10));
    let total = words.len() * frames;
    std::thread::scope(|s| {
        let consumer = s.spawn(move || -> Result<(), String> {
            let mut got = 0usize;
            let mut out = Vec::with_capacity(words.len());
            while got < total {
                out.clear();
                let want = (total - got).min(words.len());
                let n = rx
                    .consume(|q| {
                        let (n, _) = q.pop_items(&mut out, want);
                        (n > 0).then_some(n)
                    })
                    .map_err(|e| format!("spsc replay consumer: {e:?}"))?;
                let off = got % words.len();
                if out[..n] != words[off..off + n] {
                    return Err(format!("spsc replay corrupted items at {got}"));
                }
                got += n;
            }
            Ok(())
        });
        for _ in 0..frames {
            let mut sent = 0;
            while sent < words.len() {
                sent += tx
                    .produce(|q| {
                        let n = q.push_items(&words[sent..]);
                        (n > 0).then_some(n)
                    })
                    .map_err(|e| format!("spsc replay producer: {e:?}"))?;
            }
            tx.with(SimQueue::flush);
        }
        consumer
            .join()
            .map_err(|_| "spsc replay consumer panicked".to_string())?
    })
}
