//! Bookkeeping shared by every workload: the metric sheet, in-memory
//! spans, order statistics, and the correctness checks (kept as pure
//! functions so the self-tests can plant defects in their inputs).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Every end-to-end metric, with its unit. `--trace 0` prints exactly these.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("frames_per_s", "1/s"),
    ("items_per_s", "1/s"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric, with its unit. `--trace 1` prints exactly these.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ladder.null_work_s", "s"),
    ("ladder.unprotected_s", "s"),
    ("ladder.reliable_queue_s", "s"),
    ("ladder.commguard_s", "s"),
    ("ladder.faulty_s", "s"),
    ("ladder.telemetry_s", "s"),
    ("ladder.trace_s", "s"),
    ("apps.filter_s", "s"),
    ("queue.ecc_pointer_s", "s"),
    ("core.hi_am_s", "s"),
    ("fault.inject_realign_s", "s"),
    ("telemetry.overhead_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("ecc.encode_ns_per_word", "ns"),
    ("ecc.decode_ns_per_word", "ns"),
    ("queue.ring_ns_per_item", "ns"),
    ("queue.spsc_ns_per_item", "ns"),
    ("core.guard_ns_per_item", "ns"),
    ("queue.ecc_pointer_est_s", "s"),
    ("core.hi_am_est_s", "s"),
    ("queue.item_pushes", "count"),
    ("queue.header_pushes", "count"),
    ("queue.shared_ptr_ops", "count"),
    ("queue.workset_publishes", "count"),
    ("queue.blocked_ops", "count"),
    ("queue.timeouts", "count"),
    ("queue.max_occupancy", "count"),
    ("ecc.checks", "count"),
    ("ecc.corrected", "count"),
    ("core.subops", "count"),
    ("core.am.padded_items", "count"),
    ("core.am.discarded_items", "count"),
    ("core.am.useful_ratio", "ratio"),
    ("core.am.loss_ratio", "ratio"),
    ("core.realign_episodes", "count"),
    ("fault.injected", "count"),
    ("runtime.rounds", "count"),
    ("runtime.exec.ns_per_round", "ns"),
    ("runtime.exec.det_baseline_items_per_s", "1/s"),
    ("runtime.watchdog.frame_retries", "count"),
    ("runtime.watchdog.frame_degrades", "count"),
    ("runtime.watchdog.retry_useful_ratio", "ratio"),
    ("runtime.pacing.degraded_for_deadline", "count"),
    ("runtime.pacing.slack_p50_us", "us"),
    ("telemetry.busy_share", "ratio"),
    ("telemetry.wait_share", "ratio"),
    ("trace.events", "count"),
];

/// Metrics a run reports that are not part of the gated sheet: printed as
/// named lines with units (`quality_db`, `failed_ratio`, …) and sample
/// counts behind each percentile.
pub const DETAIL: &[(&str, &str)] = &[
    ("quality_db", "dB"),
    ("release_lag_p99_us", "us"),
    ("latency_p99_run_median_us", "us"),
    ("deadline_miss_ratio", "ratio"),
    ("failed_ratio", "ratio"),
    ("latency_samples", "count"),
    ("release_lag_samples", "count"),
    ("outlier_cells", "count"),
];

/// Named values with units, in insertion-independent (sorted) order.
#[derive(Debug, Default)]
pub struct Sheet {
    values: BTreeMap<String, f64>,
}

impl Sheet {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not declared in any table"
        );
        self.values.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Checks that every metric of `table` is present and finite.
    pub fn check_complete(&self, table: &[(&str, &str)]) -> Result<(), String> {
        for (name, _) in table {
            match self.get(name) {
                None => return Err(format!("metric {name} was not measured")),
                Some(v) if !v.is_finite() => return Err(format!("metric {name} is {v}")),
                Some(_) => {}
            }
        }
        Ok(())
    }

    /// One human-readable line per metric: `metric <workload> <name> <value> <unit>`.
    pub fn render_lines(&self, workload: &str) -> String {
        let mut out = String::new();
        for (name, v) in &self.values {
            let unit = unit_of(name).expect("declared at insertion");
            let _ = writeln!(out, "metric {workload} {name} {v} {unit}");
        }
        out
    }

    /// The `metrics` object of the result line, restricted to `table`.
    pub fn json_object(&self, table: &[(&str, &str)]) -> String {
        let mut out = String::from("{");
        for (i, (name, unit)) in table.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let v = self.get(name).unwrap_or(f64::NAN);
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v)
            );
        }
        out.push('}');
        out
    }
}

/// The declared unit of a metric name, from any of the tables.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .chain(DETAIL)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// A JSON number with all its digits (`null` for a non-finite value).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// One span: a named interval recorded around a call into a layer.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// In-memory spans, written out once when the run ends.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span named `name`, nested under the innermost open span.
    pub fn begin(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` and every span opened inside it.
    pub fn end(&mut self, id: usize) {
        while let Some(top) = self.open.pop() {
            self.spans[top].end = self.origin.elapsed();
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let id = self.begin(name);
        let r = f(self);
        self.end(id);
        r
    }

    /// The spans as a JSON document: one object per span with its id,
    /// parent id, name, start and end in nanoseconds since the run began,
    /// and self time (duration minus the time its children cover).
    pub fn to_json(&self) -> String {
        let mut child_ns = vec![0u128; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += (s.end - s.start).as_nanos();
            }
        }
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let dur = (s.end - s.start).as_nanos();
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}{}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                dur.saturating_sub(child_ns[i]),
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Median of a sample (mean of the two middle values for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quantile `q` of a continuous sample, linear between order statistics.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Quantile `q` of whole-microsecond readings, treating each reading `v`
/// as the interval `[v, v + 1)` and interpolating inside it by rank (the
/// grouped-data quantile). Exact per-sample values, no histogram buckets;
/// the interpolation recovers the sub-microsecond position that integer
/// clock readings hide.
pub fn quantile_grouped(xs: &[u64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_unstable();
    let target = q.clamp(0.0, 1.0) * v.len() as f64;
    let idx = (target.floor() as usize).min(v.len() - 1);
    let value = v[idx];
    let below = v.partition_point(|&x| x < value);
    let equal = v.partition_point(|&x| x <= value) - below;
    value as f64 + ((target - below as f64) / equal as f64).clamp(0.0, 1.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// FNV-1a over a word stream: a cheap digest for run-twice comparisons.
pub fn digest(words: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// SplitMix64: derives every input and fault seed from `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The threaded sink must equal the deterministic golden bit for bit.
pub fn check_bit_equal(what: &str, golden: &[u32], got: &[u32]) -> Result<(), String> {
    if golden.len() != got.len() {
        return Err(format!(
            "{what}: sink has {} words, golden has {}",
            got.len(),
            golden.len()
        ));
    }
    match golden.iter().zip(got).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(i) => Err(format!(
            "{what}: sink differs from golden at word {i} ({:#x} != {:#x})",
            got[i], golden[i]
        )),
    }
}

/// The sink must carry exactly the reference's number of words.
pub fn check_len(what: &str, expected: usize, got: usize) -> Result<(), String> {
    if expected == got {
        Ok(())
    } else {
        Err(format!(
            "{what}: sink has {got} words, reference has {expected}"
        ))
    }
}

/// Every paced frame must be accounted as on time or missed.
pub fn check_accounting(what: &str, on_time: u64, misses: u64, frames: u64) -> Result<(), String> {
    if on_time + misses == frames {
        Ok(())
    } else {
        Err(format!(
            "{what}: {on_time} on time + {misses} missed != {frames} frames"
        ))
    }
}

/// A repeated seed must reproduce the same sink digest and quality.
pub fn check_repeat(what: &str, first: (u64, f64), again: (u64, f64)) -> Result<(), String> {
    if first.0 == again.0 && first.1.to_bits() == again.1.to_bits() {
        Ok(())
    } else {
        Err(format!(
            "{what}: repeated seed gave digest {:#x} / {} dB, first run {:#x} / {} dB",
            again.0, again.1, first.0, first.1
        ))
    }
}

/// Every run must complete.
pub fn check_completed(what: &str, completed: bool) -> Result<(), String> {
    if completed {
        Ok(())
    } else {
        Err(format!("{what}: run did not complete"))
    }
}
