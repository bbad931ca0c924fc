//! The node engine: one simulated core's frame-computation machinery,
//! shared by both executors.
//!
//! A [`NodeCore`] holds everything a firing touches on its own core — the
//! compute body, the CommGuard modules, the fault injector and stuck-at
//! latch, and the staged data — and reaches its queues only through
//! [`Ports`]. The deterministic executor's ports index the run's queue
//! table; the threaded executor's ports are the worker's SPSC endpoint
//! views. So the compute body, the fault effects and the per-seed RNG
//! draw order exist once. *When* a core pops, pushes, times out, retries
//! or degrades is scheduler policy and stays with each executor.

use cg_fault::{CoreInjector, DetRng, FaultClass, StuckAtState};
use cg_graph::schedule::Schedule;
use cg_graph::{NodeId, NodeKind, StreamGraph};
use cg_queue::{SimQueue, Which};
use cg_telemetry::CoreProbe;
use commguard::CoreGuard;
use rand::Rng;

use crate::config::SimConfig;
use crate::exec::{check_queue_capacity, RunError};
use crate::faults::{
    apply_perturbation, burst_flip_random_item, flip_random_item, garble_random_item,
    partition_events,
};
use crate::program::Program;
use crate::report::NodeReport;
use crate::work::WorkFn;

/// A core's view of its attached queues, numbered in-edges first, then
/// out-edges. Per-seed fault targeting draws an index in that numbering,
/// so every implementation must keep it.
pub(crate) trait Ports {
    /// Number of attached queues.
    fn attached(&self) -> usize;

    /// Runs `f` on attached queue `idx`.
    fn with_attached<R>(&mut self, idx: usize, f: impl FnOnce(&mut SimQueue) -> R) -> R;

    /// Called after every addressing fault. A transport whose guard soft
    /// state is modelled as a fault surface strikes it here; the default
    /// leaves the guard alone and draws nothing from `rng`.
    fn strike_guard_state(&mut self, _guard: &mut CoreGuard, _rng: &mut DetRng) {}
}

/// Per-core firing state: one per stream-graph node.
pub(crate) struct NodeCore {
    pub(crate) kind: NodeKind,
    name: String,
    pub(crate) pop_rates: Vec<u32>,
    pub(crate) push_rates: Vec<u32>,
    /// Firings per steady-state frame.
    pub(crate) reps: u64,
    /// Instructions charged per firing (cost model × items moved).
    firing_instr: u64,
    fault_class: FaultClass,
    /// Unprotected-header ablation: addressing faults also strike
    /// in-flight header payloads.
    headers_unprotected: bool,
    pub(crate) guard: CoreGuard,
    pub(crate) injector: CoreInjector,
    /// Latched stuck-at fault (the `StuckAt` fault class).
    stuck: Option<StuckAtState>,
    work: Option<Box<dyn WorkFn>>,
    pub(crate) staged_in: Vec<Vec<u32>>,
    pub(crate) staged_out: Vec<Vec<u32>>,
    pub(crate) sink_buf: Vec<u32>,
    pub(crate) instructions: u64,
}

/// The setup both executors share: binds and validates the program and
/// configuration, schedules the graph, checks queue capacity, and builds
/// one [`NodeCore`] per node (indexed by node).
///
/// # Errors
///
/// Returns [`RunError`] for unbound nodes, an invalid effect model, an
/// inconsistent schedule, or an inadmissible queue capacity.
pub(crate) fn prepare(
    program: Program,
    config: &SimConfig,
) -> Result<(StreamGraph, Vec<NodeCore>), RunError> {
    program.validate_bound().map_err(RunError::UnboundNode)?;
    config
        .effect_model
        .validate()
        .map_err(RunError::BadEffectModel)?;
    let (graph, mut works) = program.into_parts();
    let schedule = graph
        .schedule()
        .map_err(|e| RunError::Schedule(e.to_string()))?;
    check_queue_capacity(&graph, &schedule, config.queue_capacity)?;
    let cores = graph
        .nodes()
        .map(|(id, _)| NodeCore::new(&graph, &schedule, config, id, works[id.index()].take()))
        .collect();
    Ok((graph, cores))
}

impl NodeCore {
    fn new(
        graph: &StreamGraph,
        schedule: &Schedule,
        config: &SimConfig,
        id: NodeId,
        work: Option<Box<dyn WorkFn>>,
    ) -> Self {
        let node = graph.node(id);
        let pop_rates: Vec<u32> = node
            .inputs()
            .iter()
            .map(|&e| graph.edge(e).pop_rate())
            .collect();
        let push_rates: Vec<u32> = node
            .outputs()
            .iter()
            .map(|&e| graph.edge(e).push_rate())
            .collect();
        let items_moved: u64 = pop_rates
            .iter()
            .chain(&push_rates)
            .map(|&r| u64::from(r))
            .sum();
        let (num_in, num_out) = (pop_rates.len(), push_rates.len());
        let guard_cfg = config.protection.guard_config();
        let guard = match &guard_cfg {
            // Promoted frames over the whole run (§5.4 scaling).
            Some(cfg) => CoreGuard::new(
                num_in,
                num_out,
                cfg,
                u32::try_from(config.frames.div_ceil(u64::from(cfg.frame_scale))).ok(),
            ),
            None => CoreGuard::disabled(num_in, num_out),
        };
        let core_id = id.index() as u64;
        let injector = if config.faults_enabled() {
            CoreInjector::new(config.mtbe, config.effect_model, config.seed, core_id)
        } else {
            CoreInjector::disabled(config.seed, core_id)
        };
        NodeCore {
            kind: node.kind(),
            name: node.name().to_string(),
            reps: schedule.repetitions(id),
            firing_instr: node.cost().firing_cost(items_moved),
            fault_class: config.fault_class,
            headers_unprotected: guard_cfg.is_some_and(|c| !c.protect_headers),
            guard,
            injector,
            stuck: None,
            work,
            staged_in: vec![Vec::new(); num_in],
            staged_out: vec![Vec::new(); num_out],
            sink_buf: Vec::new(),
            instructions: 0,
            pop_rates,
            push_rates,
        }
    }

    /// Executes one firing on the staged inputs: charges instructions,
    /// collects fault events, runs the compute body, and applies the fault
    /// effects mechanically — to staged data, to the sink's collected
    /// output, and through `ports` to the attached queues.
    pub(crate) fn fire(&mut self, ports: &mut impl Ports) {
        self.instructions += self.firing_instr;
        let events = self.injector.advance(self.firing_instr);
        let faults = partition_events(
            self.fault_class,
            &events,
            &mut self.injector,
            &mut self.stuck,
        );

        for _ in 0..faults.pre_flips {
            let mut bufs: Vec<&mut Vec<u32>> = self.staged_in.iter_mut().collect();
            flip_random_item(&mut bufs, self.injector.rng_mut());
        }
        let sink_mark = self.sink_buf.len();

        // The compute body.
        match self.kind {
            NodeKind::Source | NodeKind::Filter => {
                let work = self.work.as_mut().expect("validated: work bound");
                work.fire(&self.staged_in, &mut self.staged_out);
            }
            NodeKind::SplitDuplicate => {
                for out in &mut self.staged_out {
                    out.extend_from_slice(&self.staged_in[0]);
                }
            }
            NodeKind::SplitRoundRobin => {
                let mut off = 0usize;
                for (port, out) in self.staged_out.iter_mut().enumerate() {
                    let take = self.push_rates[port] as usize;
                    let end = (off + take).min(self.staged_in[0].len());
                    out.extend_from_slice(&self.staged_in[0][off..end]);
                    // Short input (itself an upstream error effect): pad the
                    // distribution with zeros to keep rates structural.
                    out.resize(out.len() + take - (end - off), 0);
                    off = end;
                }
            }
            NodeKind::JoinRoundRobin => {
                for inp in &self.staged_in {
                    self.staged_out[0].extend_from_slice(inp);
                }
            }
            NodeKind::Sink => {
                for inp in &self.staged_in {
                    self.sink_buf.extend_from_slice(inp);
                }
            }
        }

        for _ in 0..faults.post_flips {
            let mut bufs: Vec<&mut Vec<u32>> = self.staged_out.iter_mut().collect();
            if !flip_random_item(&mut bufs, self.injector.rng_mut()) && self.kind == NodeKind::Sink
            {
                // Sinks have no outputs; the flip lands in the collected data.
                let mut bufs = [&mut self.sink_buf];
                flip_random_item(&mut bufs, self.injector.rng_mut());
            }
        }
        for _ in 0..faults.bursts {
            let mut bufs: Vec<&mut Vec<u32>> = self.staged_out.iter_mut().collect();
            if !burst_flip_random_item(&mut bufs, self.injector.rng_mut())
                && self.kind == NodeKind::Sink
            {
                let mut bufs = [&mut self.sink_buf];
                burst_flip_random_item(&mut bufs, self.injector.rng_mut());
            }
        }
        if let Some(st) = self.stuck {
            // A latched defect distorts every word the core produces.
            for out in &mut self.staged_out {
                for v in out.iter_mut() {
                    *v = st.apply(*v);
                }
            }
            for v in self.sink_buf[sink_mark..].iter_mut() {
                *v = st.apply(*v);
            }
        }
        for pert in faults.perturbations {
            apply_perturbation(&mut self.staged_out, pert, self.injector.rng_mut());
        }
        for _ in 0..faults.addressing {
            self.addressing_fault(ports);
        }
        for _ in 0..faults.pointer_hits {
            self.pointer_fault(ports);
        }
        for _ in 0..faults.header_hits {
            self.header_fault(ports);
        }
    }

    /// An addressing error: corrupts a shared queue pointer of a random
    /// attached queue (silently fatal when pointers are unprotected — the
    /// paper's QME class) or, when no queue is attached or on the
    /// local-buffer side of the coin flip, garbles a staged item. Under
    /// the unprotected-header ablation it can also strike an in-flight
    /// header payload, silently changing its id.
    fn addressing_fault(&mut self, ports: &mut impl Ports) {
        let attached = ports.attached();
        let rng = self.injector.rng_mut();
        if attached > 0 && rng.gen::<bool>() {
            strike_pointer(ports, attached, rng);
        } else {
            let mut bufs = staged_bufs(&mut self.staged_in, &mut self.staged_out);
            garble_random_item(&mut bufs, rng);
        }
        if self.headers_unprotected && attached > 0 {
            let rng = self.injector.rng_mut();
            let idx = rng.gen_range(0..attached);
            let slot_seed = rng.gen::<u32>();
            let bit = rng.gen_range(0..8u32); // low id bits: nearby frames
            ports.with_attached(idx, |q| q.corrupt_random_header_payload(slot_seed, bit));
        }
        ports.strike_guard_state(&mut self.guard, self.injector.rng_mut());
    }

    /// The `PointerCorruption` fault class: every event strikes the shared
    /// head/tail pointer of a random attached queue (QME, concentrated).
    /// Falls back to garbling a staged item when the node has no queues.
    fn pointer_fault(&mut self, ports: &mut impl Ports) {
        let attached = ports.attached();
        let rng = self.injector.rng_mut();
        if attached == 0 {
            let mut bufs = staged_bufs(&mut self.staged_in, &mut self.staged_out);
            garble_random_item(&mut bufs, rng);
            return;
        }
        strike_pointer(ports, attached, rng);
    }

    /// The `HeaderCorruption` fault class: every event flips one or two
    /// bits of an in-flight frame-header codeword on a random attached
    /// queue, stressing the HI/AM SECDED path. When no header is in flight
    /// (or no queue is attached) the event degrades to a plain item flip.
    fn header_fault(&mut self, ports: &mut impl Ports) {
        let attached = ports.attached();
        let rng = self.injector.rng_mut();
        let mut struck = false;
        if attached > 0 {
            let idx = rng.gen_range(0..attached);
            let slot_seed = rng.gen::<u32>();
            // Mostly single-bit (ECC corrects); occasionally double-bit
            // (SECDED detects, AM recovers conservatively).
            let bits = if rng.gen::<f64>() < 0.25 { 2 } else { 1 };
            struck =
                ports.with_attached(idx, |q| q.corrupt_random_header_codeword(slot_seed, bits));
        }
        if !struck {
            let mut bufs = staged_bufs(&mut self.staged_in, &mut self.staged_out);
            flip_random_item(&mut bufs, rng);
        }
    }

    /// Drops the staged inputs and outputs.
    pub(crate) fn clear_staged(&mut self) {
        for buf in self.staged_in.iter_mut().chain(&mut self.staged_out) {
            buf.clear();
        }
    }

    /// Telemetry at a frame commit: high-water occupancy and cumulative
    /// ECC totals over the queues this core consumes (queues are
    /// attributed to their consumer side, matching [`NodeReport`]).
    pub(crate) fn probe_frame_commit(
        &self,
        ports: &mut impl Ports,
        probe: &mut CoreProbe,
        retries: u64,
        degrades: u64,
    ) {
        if !probe.is_enabled() {
            return;
        }
        let (mut occ, mut det, mut corr) = (0u64, 0u64, 0u64);
        for idx in 0..self.pop_rates.len() {
            ports.with_attached(idx, |q| {
                occ = occ.max(u64::from(q.occupancy()));
                let ecc = q.stats().ecc;
                det += ecc.detections;
                corr += ecc.corrections;
            });
        }
        probe.ecc_sample(det, corr);
        probe.frame_commit(occ, retries, degrades);
    }

    /// Consumes the core into its report row (with `max_queue_occupancy`
    /// left for the executor, which owns the queue statistics) and, for a
    /// sink, its collected output.
    pub(crate) fn into_report(
        self,
        frames: u64,
        firings: u64,
        timeouts: u64,
    ) -> (NodeReport, Option<Vec<u32>>) {
        let row = NodeReport {
            name: self.name,
            instructions: self.instructions,
            firings,
            frames,
            instructions_per_frame: if frames > 0 {
                self.instructions as f64 / frames as f64
            } else {
                0.0
            },
            subops: self.guard.into_subops(),
            faults: *self.injector.stats(),
            timeouts,
            max_queue_occupancy: 0,
        };
        let sink = (self.kind == NodeKind::Sink).then_some(self.sink_buf);
        (row, sink)
    }
}

/// Flips one bit of the shared head or tail pointer of a random attached
/// queue.
fn strike_pointer(ports: &mut impl Ports, attached: usize, rng: &mut DetRng) {
    let idx = rng.gen_range(0..attached);
    let which = if rng.gen::<bool>() {
        Which::Head
    } else {
        Which::Tail
    };
    let bit = rng.gen_range(0..20u32); // pointers are small counters
    ports.with_attached(idx, |q| q.corrupt_shared_pointer(which, bit));
}

/// Every staged buffer, inputs first: the local-buffer fault surface.
fn staged_bufs<'a>(ins: &'a mut [Vec<u32>], outs: &'a mut [Vec<u32>]) -> Vec<&'a mut Vec<u32>> {
    ins.iter_mut().chain(outs.iter_mut()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::EdgePorts;
    use crate::parallel::SpscPorts;
    use cg_fault::Mtbe;
    use cg_graph::GraphBuilder;
    use cg_queue::{spsc_pair, QueueSpec, QueueStats, SpscStats, Unit};
    use commguard::config::GuardConfig;
    use commguard::Protection;
    use std::time::Duration;

    /// In-flight traffic on edge `edge`: four frames of six items, each
    /// led by its header.
    fn load(q: &mut SimQueue, edge: u32) {
        for frame in 0..4u32 {
            q.try_push(Unit::header(edge * 10 + frame)).expect("room");
            for i in 0..6 {
                q.try_push(Unit::Item(edge * 1000 + frame * 10 + i))
                    .expect("room");
            }
        }
        q.flush();
    }

    fn drain(q: &mut SimQueue) -> Vec<Unit> {
        std::iter::from_fn(|| q.try_pop()).collect()
    }

    /// The det port set and the threaded port set number a node's queues
    /// the same way, so one seed strikes the same edges with the same
    /// corruption whichever executor runs the node.
    #[test]
    fn queue_faults_strike_the_same_edges_on_both_port_sets() {
        let mut b = GraphBuilder::new("join");
        let s0 = b.add_node("s0", NodeKind::Source);
        let s1 = b.add_node("s1", NodeKind::Source);
        let j = b.add_node("j", NodeKind::JoinRoundRobin);
        let k = b.add_node("k", NodeKind::Sink);
        b.connect(s0, j, 4, 4).unwrap();
        b.connect(s1, j, 4, 4).unwrap();
        b.connect(j, k, 8, 8).unwrap();
        let graph = b.build().unwrap();
        let build = || {
            let mut p = Program::new(graph.clone());
            p.set_source(s0, |out| out.extend(0..4));
            p.set_source(s1, |out| out.extend(0..4));
            p
        };
        // Unprotected headers, so addressing faults strike header payloads too.
        let config = SimConfig::with_errors(
            4,
            Protection::CommGuard(GuardConfig {
                protect_headers: false,
                ..GuardConfig::default()
            }),
            Mtbe::instructions(64),
            9,
        );
        let core = || prepare(build(), &config).unwrap().1.swap_remove(j.index());
        let (mut det_core, mut thr_core) = (core(), core());
        for c in [&mut det_core, &mut thr_core] {
            c.staged_in = vec![vec![1, 2, 3, 4], vec![5, 6, 7, 8]];
            c.staged_out = vec![vec![9; 8]];
        }

        let spec = QueueSpec::with_capacity(64);
        let mut queues: Vec<SimQueue> = (0..3).map(|_| SimQueue::new(spec)).collect();
        let pair = || spsc_pair(spec, Duration::from_secs(1));
        let ((mut f0, c0, s0), (mut f1, c1, s1), (p2, mut sink, s2)) = (pair(), pair(), pair());
        let stats = [s0, s1, s2];
        let mut thr = SpscPorts {
            ins: vec![c0, c1],
            outs: vec![p2],
        };
        for (e, q) in queues.iter_mut().enumerate() {
            load(q, e as u32);
        }
        f0.with(|q| load(q, 0));
        f1.with(|q| load(q, 1));
        thr.outs[0].with(|q| load(q, 2));
        // Each in-edge's consumer pops once, reading the published tail.
        for (e, q) in queues.iter_mut().take(2).enumerate() {
            assert_eq!(q.try_pop(), thr.ins[e].with(SimQueue::try_pop));
        }
        let node = graph.node(j);
        let mut det = EdgePorts {
            ins: node.inputs(),
            outs: node.outputs(),
            queues: &mut queues,
        };

        for _ in 0..64 {
            det_core.addressing_fault(&mut det);
            thr_core.addressing_fault(&mut thr);
            // The threaded port set spends one draw per addressing event
            // on the guard's soft state; keep the det stream in step.
            det_core.injector.rng_mut().gen::<u32>();
            det_core.pointer_fault(&mut det);
            thr_core.pointer_fault(&mut thr);
            det_core.header_fault(&mut det);
            thr_core.header_fault(&mut thr);
        }
        assert_eq!(
            det_core.injector.rng_mut(),
            thr_core.injector.rng_mut(),
            "RNG streams must end in the same state"
        );
        assert_eq!(det_core.staged_in, thr_core.staged_in);
        assert_eq!(det_core.staged_out, thr_core.staged_out);

        let det_units: Vec<Vec<Unit>> = queues.iter_mut().map(drain).collect();
        let mut thr_units: Vec<Vec<Unit>> = thr.ins.iter_mut().map(|c| c.with(drain)).collect();
        thr_units.push(sink.with(drain));
        assert_eq!(det_units, thr_units, "popped unit streams");
        drop((thr, f0, f1, sink));
        let det_stats: Vec<QueueStats> = queues.iter().map(|q| *q.stats()).collect();
        let thr_stats: Vec<QueueStats> = stats.iter().map(SpscStats::read).collect();
        assert_eq!(det_stats, thr_stats, "per-edge queue statistics");
        let hits = |f: fn(&QueueStats) -> u64| det_stats.iter().map(f).sum::<u64>();
        assert!(
            hits(|s| s.pointer_corruptions) > 0,
            "pointer strikes landed"
        );
        assert!(
            hits(|s| s.header_corruptions) > 0,
            "codeword strikes landed"
        );
    }
}
