//! # cg-runtime — functional multicore simulator for guarded streaming
//!
//! The execution substrate standing in for the paper's Simics-based
//! 10-core functional simulator (§6). A [`Program`] (stream graph + work
//! functions) runs on simulated cores — one node per core, as the paper's
//! StreamIt cluster backend pins threads — connected by
//! [`commguard::queue::SimQueue`]s and protected according to a
//! [`commguard::Protection`] mode.
//!
//! The simulator is **functional and deterministic**: cores are
//! multiplexed in a fixed round-robin; each firing charges an instruction
//! cost from the node's [`cg_graph::CostModel`]; per-core
//! [`cg_fault::CoreInjector`]s convert the configured MTBE into fault
//! events that strike specific firings and are applied mechanically (bit
//! flips in live data, bounded control-flow perturbation of item counts,
//! addressing errors that can corrupt unprotected queue pointers).
//!
//! PPU-core semantics (Yetim et al., DATE'13) are built in: scope
//! sequencing is authoritative — a thread always executes exactly its
//! scheduled firings in order, and queue operations time out rather than
//! hang — while the *bodies* of firings are error-prone.
//!
//! A second, threaded executor ([`run_parallel`]) runs the same guarded
//! programs with one OS thread per node. It injects the same fault
//! classes from per-core deterministic streams and recovers via
//! frame-level checkpoint/re-execute with a bounded retry budget and
//! graceful degradation (see [`SimConfig::par_retry_budget`],
//! [`SimConfig::stall_timeout`]).
//!
//! ```
//! use cg_runtime::{Program, SimConfig, run};
//! use commguard::graph::{GraphBuilder, NodeKind};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = GraphBuilder::new("double");
//! let src = b.add_node("src", NodeKind::Source);
//! let dbl = b.add_node("dbl", NodeKind::Filter);
//! let snk = b.add_node("snk", NodeKind::Sink);
//! b.connect(src, dbl, 4, 4)?;
//! b.connect(dbl, snk, 4, 4)?;
//! let graph = b.build()?;
//!
//! let mut prog = Program::new(graph);
//! let mut counter = 0u32;
//! prog.set_source(src, move |out| {
//!     for _ in 0..4 { out.push(counter); counter += 1; }
//! });
//! prog.set_filter(dbl, |inp, out| {
//!     for &v in &inp[0] { out[0].push(v * 2); }
//! });
//!
//! let report = run(prog, &SimConfig::error_free(8))?;
//! let sunk = report.sink_output(snk);
//! assert_eq!(sunk.len(), 32);
//! assert_eq!(sunk[3], 6);
//! # Ok(())
//! # }
//! ```

mod config;
mod engine;
mod exec;
mod faults;
mod overhead;
mod pacing;
mod parallel;
mod program;
mod report;
pub mod watchdog;
pub mod work;

pub use cg_telemetry::{TelemetryConfig, TelemetryReport};
pub use cg_trace::{TraceConfig, TraceData};
pub use config::{MemModel, OverheadModel, Pacing, SimConfig};
pub use exec::{check_queue_capacity, run, RunError};
pub use overhead::{estimate_overhead, OverheadEstimate};
pub use pacing::{PacedSource, PacingReport};
pub use parallel::{run_parallel, run_parallel_with, ParTransport};
pub use program::Program;
pub use report::{NodeReport, RunReport};
pub use watchdog::{WatchdogAction, WatchdogConfig, WatchdogStats};
pub use work::{f32s, WorkFn};
