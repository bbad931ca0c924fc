//! Run reports: everything the experiment harnesses need to regenerate
//! the paper's tables and figures.

use std::collections::BTreeMap;

use cg_fault::FaultStats;
use cg_graph::NodeId;
use cg_queue::QueueStats;
use cg_telemetry::TelemetryReport;
use cg_trace::TraceData;
use commguard::SubopCounters;

use crate::config::MemModel;
use crate::pacing::PacingReport;
use crate::watchdog::WatchdogStats;

/// Per-node (= per-core) results.
#[derive(Debug, Clone, Default)]
pub struct NodeReport {
    /// Node name from the graph.
    pub name: String,
    /// Committed instructions charged to this core.
    pub instructions: u64,
    /// Firings executed.
    pub firings: u64,
    /// Frame computations completed.
    pub frames: u64,
    /// Instructions per frame computation (for the §5.3 discussion).
    pub instructions_per_frame: f64,
    /// CommGuard suboperation counters for this core.
    pub subops: SubopCounters,
    /// Faults injected on this core, by class. Both executors fill this:
    /// the deterministic executor from its scheduler-round injectors, the
    /// threaded executor ([`crate::run_parallel`]) from the per-core
    /// injector stream owned by this node's worker thread.
    pub faults: FaultStats,
    /// Forced-transfer episodes on this core's ports. The deterministic
    /// executor counts QM timeout firings; the threaded executor counts
    /// stall-timeout expiries of its blocking transport (each followed by
    /// a forced transfer, a frame retry, or a degradation).
    pub timeouts: u64,
    /// High-water occupancy (in units) over the queues this core
    /// consumes. Queues are attributed to their consumer side, so source
    /// nodes report 0.
    pub max_queue_occupancy: u64,
}

/// The complete result of one simulated run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Application name.
    pub app: String,
    /// Per-node reports, indexed by node.
    pub nodes: Vec<NodeReport>,
    /// Aggregated queue statistics over all edges.
    ///
    /// Under the threaded executor, `blocked_pushes`/`blocked_pops` count
    /// every attempt that found the ring full/empty, including each retry
    /// of a spin-then-park wait, so they vary with thread timing.
    pub queues: QueueStats,
    /// Collected sink streams, keyed by node index.
    pub sinks: BTreeMap<usize, Vec<u32>>,
    /// Scheduler rounds used. The deterministic executor counts
    /// round-robin scheduler rounds; the threaded executor has no
    /// scheduler and reports the steady-state frame count instead.
    pub rounds: u64,
    /// Whether every node ran to completion (false = hit `max_rounds`).
    pub completed: bool,
    /// Cross-core stall watchdog escalations. The deterministic executor
    /// fills the full four-rung ladder; the threaded executor reports its
    /// recovery path here as `frame_retries` (frames re-executed from
    /// their boundary checkpoint) and `frame_degrades` (frames discharged
    /// with padded output after retry-budget exhaustion).
    ///
    /// **False-positive bound for generated graphs.** A legal (error-free,
    /// schedulable) graph triggers none of these counters provided the
    /// occupancy-sensitive knobs respect the worst-case steady-state
    /// demand `D` of its hottest edge (frame items + header slack, see
    /// `cg_graph::random::GraphProfile::queue_demand`): `queue_capacity ≥
    /// D` (admissible frame schedule, [`crate::check_queue_capacity`]),
    /// `timeout_rounds ≥ 4·D` (a consumer may legally sit blocked for a
    /// full frame of one-firing-per-visit producer progress), and
    /// `stall_timeout ≥ 100 ms + 2 ms·D` (a threaded peer may legally
    /// take a full frame to produce/consume before unblocking). Faulty
    /// runs stay bounded by `frame_retries ≤ par_retry_budget × frames ×
    /// nodes` independent of occupancy. `SimConfig::for_queue_demand`
    /// applies exactly these floors; the fuzz campaign relies on them.
    pub watchdog: WatchdogStats,
    /// AM realignment episodes (pad + discard entries) across all cores.
    pub realignment_episodes: u64,
    /// The drained event trace, when the run was configured with one.
    pub trace: Option<TraceData>,
    /// The metrics-plane report (latency histograms, snapshot series,
    /// time attribution), when the run was configured with telemetry.
    pub telemetry: Option<TelemetryReport>,
    /// Deadline accounting and the SLO verdict, when the run was paced
    /// ([`crate::Pacing::Paced`]); `None` for batch runs.
    pub pacing: Option<PacingReport>,
}

impl RunReport {
    /// Appends node `index`'s report row, folding its realignment
    /// episodes into the run total and keeping a sink's collected output.
    pub(crate) fn add_node(&mut self, index: usize, row: NodeReport, sink: Option<Vec<u32>>) {
        self.realignment_episodes += row.subops.pad_events + row.subops.discard_events;
        if let Some(buf) = sink {
            self.sinks.insert(index, buf);
        }
        self.nodes.push(row);
    }

    /// The output stream collected at `sink` (empty if none).
    pub fn sink_output(&self, sink: NodeId) -> &[u32] {
        self.sinks
            .get(&sink.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Total committed instructions across all cores.
    pub fn total_instructions(&self) -> u64 {
        self.nodes.iter().map(|n| n.instructions).sum()
    }

    /// Summed CommGuard suboperation counters.
    pub fn total_subops(&self) -> SubopCounters {
        let mut acc = SubopCounters::default();
        for n in &self.nodes {
            acc += &n.subops;
        }
        acc
    }

    /// Summed fault statistics.
    pub fn total_faults(&self) -> FaultStats {
        let mut acc = FaultStats::default();
        for n in &self.nodes {
            acc += n.faults;
        }
        acc
    }

    /// Fig. 8 metric: (padded + discarded bytes) / accepted bytes.
    pub fn loss_ratio(&self) -> f64 {
        self.total_subops().loss_ratio()
    }

    /// Fig. 14 metric: CommGuard suboperations per committed instruction.
    pub fn subop_ratio(&self) -> f64 {
        let instr = self.total_instructions();
        if instr == 0 {
            return 0.0;
        }
        self.total_subops().total_subops() as f64 / instr as f64
    }

    /// Fig. 12 metrics: header loads and stores as a fraction of *all*
    /// estimated processor loads/stores (queue traffic + compute memory
    /// events per the [`MemModel`]).
    pub fn header_memory_ratios(&self, mem: &MemModel) -> (f64, f64) {
        let instr = self.total_instructions() as f64;
        let total_loads = self.queues.loads() as f64 + instr * mem.loads_per_instr;
        let total_stores = self.queues.stores() as f64 + instr * mem.stores_per_instr;
        let lr = if total_loads > 0.0 {
            self.queues.header_pops as f64 / total_loads
        } else {
            0.0
        };
        let sr = if total_stores > 0.0 {
            self.queues.header_pushes as f64 / total_stores
        } else {
            0.0
        };
        (lr, sr)
    }

    /// Median instructions-per-frame across nodes (§5.3: "the number of
    /// instructions per frame computation in the median threads").
    pub fn median_instructions_per_frame(&self) -> f64 {
        let mut v: Vec<f64> = self
            .nodes
            .iter()
            .filter(|n| n.frames > 0)
            .map(|n| n.instructions_per_frame)
            .collect();
        if v.is_empty() {
            return 0.0;
        }
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        v[v.len() / 2]
    }

    /// Total QM timeouts across cores.
    pub fn total_timeouts(&self) -> u64 {
        self.nodes.iter().map(|n| n.timeouts).sum()
    }

    /// Guard-state corruptions detected by the hardened (triplicated)
    /// AM/QM/HI soft state, summed over cores.
    pub fn guard_state_detected(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.subops.guard_state_detected)
            .sum()
    }

    /// Guard-state corruptions repaired by majority vote, summed over
    /// cores. `detected - corrected` is the residual (uncorrectable
    /// three-way splits).
    pub fn guard_state_corrected(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.subops.guard_state_corrected)
            .sum()
    }

    /// Deepest any queue ever got, across all edges (units).
    pub fn max_queue_occupancy(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.max_queue_occupancy)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        let mut r = RunReport {
            app: "t".into(),
            completed: true,
            ..Default::default()
        };
        for (i, instr) in [(0usize, 1000u64), (1, 3000)] {
            let mut n = NodeReport {
                name: format!("n{i}"),
                instructions: instr,
                firings: 10,
                frames: 5,
                instructions_per_frame: instr as f64 / 5.0,
                ..Default::default()
            };
            n.subops.fsm_ops = 10;
            n.subops.accepted_items = 100;
            n.subops.padded_items = 1;
            n.max_queue_occupancy = 40 + i as u64;
            r.nodes.push(n);
        }
        r.queues.item_pushes = 200;
        r.queues.item_pops = 200;
        r.queues.header_pushes = 10;
        r.queues.header_pops = 10;
        r
    }

    #[test]
    fn aggregations() {
        let r = report();
        assert_eq!(r.total_instructions(), 4000);
        assert_eq!(r.total_subops().fsm_ops, 20);
        assert!((r.subop_ratio() - 20.0 / 4000.0).abs() < 1e-12);
        assert!(r.loss_ratio() > 0.0);
        assert_eq!(r.total_timeouts(), 0);
    }

    #[test]
    fn header_ratios_use_mem_model() {
        let r = report();
        let (lr, sr) = r.header_memory_ratios(&MemModel::default());
        // loads: 210 queue + 1000 compute = 1210; headers 10.
        assert!((lr - 10.0 / (210.0 + 4000.0 * 0.25)).abs() < 1e-12);
        assert!(sr > 0.0 && sr < 0.05);
    }

    #[test]
    fn median_ipf() {
        let r = report();
        assert_eq!(r.median_instructions_per_frame(), 600.0);
    }

    #[test]
    fn sink_output_empty_for_unknown() {
        let r = report();
        assert!(r.sink_output(NodeId::from_index(5)).is_empty());
    }

    #[test]
    fn max_queue_occupancy_is_the_max_over_nodes() {
        let r = report();
        assert_eq!(r.max_queue_occupancy(), 41);
        assert_eq!(RunReport::default().max_queue_occupancy(), 0);
    }

    #[test]
    fn guard_state_counters_sum_over_nodes() {
        let mut r = report();
        r.nodes[0].subops.guard_state_detected = 3;
        r.nodes[0].subops.guard_state_corrected = 2;
        r.nodes[1].subops.guard_state_detected = 1;
        r.nodes[1].subops.guard_state_corrected = 1;
        assert_eq!(r.guard_state_detected(), 4);
        assert_eq!(r.guard_state_corrected(), 3);
    }

    #[test]
    fn realignment_episodes_and_trace_default_empty() {
        let r = report();
        assert_eq!(r.realignment_episodes, 0);
        assert!(r.trace.is_none());
        assert!(r.telemetry.is_none());
        assert!(r.pacing.is_none());
    }
}
