//! Self-tests: planted defects must fail their checks, and every metric
//! of `BENCHMARK.json` must print with its declared unit.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use cg_runtime::{run, run_parallel_with, ParTransport};

use crate::ledger::{self, END_TO_END, PER_LAYER};
use crate::workloads::{self, Opts, Scale};
use crate::{run_workload, WORKLOADS};

fn tiny(seed: u64, trace: bool) -> Opts {
    Opts {
        seed,
        seconds: 0.0,
        trace,
        scale: Scale::tiny(),
    }
}

#[test]
fn corrupted_golden_fails_the_bit_equality_check() {
    let frames = 500;
    let (program, sink) = workloads::stream_program(7, None);
    let golden = run(program, &workloads::guarded(frames)).expect("golden run");
    let mut golden = golden.sink_output(sink).to_vec();
    let (program, sink) = workloads::stream_program(7, None);
    let threaded = run_parallel_with(program, &workloads::guarded(frames), ParTransport::LockFree)
        .expect("threaded run");
    let got = threaded.sink_output(sink);
    assert!(ledger::check_bit_equal("clean", &golden, got).is_ok());
    golden[frames as usize * 10] ^= 1 << 7;
    let err = ledger::check_bit_equal("planted", &golden, got).expect_err("corruption caught");
    assert!(err.contains("differs from golden"), "{err}");
    golden.pop();
    assert!(ledger::check_bit_equal("short", &golden, got).is_err());
}

#[test]
fn unaccounted_frame_fails_the_accounting_check() {
    let o = tiny(3, false);
    let cfg = workloads::paced_config(&o.scale, 11);
    let (program, _) = workloads::stream_program(3, None);
    let report = run_parallel_with(program, &cfg, ParTransport::LockFree).expect("paced run");
    let p = report.pacing.expect("paced run reports pacing");
    let frames = o.scale.paced_frames;
    assert!(ledger::check_accounting("clean", p.frames_on_time, p.deadline_misses, frames).is_ok());
    let dropped = p.frames_on_time - 1;
    assert!(ledger::check_accounting("planted", dropped, p.deadline_misses, frames).is_err());
}

#[test]
fn repeat_and_length_checks_reject_planted_mismatches() {
    assert!(ledger::check_repeat("same", (1, 20.0), (1, 20.0)).is_ok());
    assert!(ledger::check_repeat("digest", (1, 20.0), (2, 20.0)).is_err());
    assert!(ledger::check_repeat("quality", (1, 20.0), (1, 20.5)).is_err());
    assert!(ledger::check_len("len", 10, 9).is_err());
    assert!(ledger::check_completed("incomplete", false).is_err());
}

#[test]
fn grouped_quantile_interpolates_within_a_microsecond() {
    assert_eq!(ledger::quantile_grouped(&[10, 10, 10, 10], 0.5), 10.5);
    assert_eq!(ledger::quantile_grouped(&[1, 2, 3, 4], 0.5), 3.0);
    let q = ledger::quantile_grouped(&[5, 6, 6, 6, 9], 0.99);
    assert!((9.0..10.0).contains(&q), "{q}");
}

/// `(name, unit)` pairs of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = include_str!("../../BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\"")).expect("key present");
        let rest = &entry[at + key.len() + 2..];
        let open = rest.find('"').expect("value opens") + 1;
        let close = open + rest[open..].find('"').expect("value closes");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), table(END_TO_END));
    assert_eq!(declared("per_layer"), table(PER_LAYER));
}

#[test]
fn every_named_metric_prints_with_its_unit() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let o = tiny(5, trace);
            let out = run_workload(workload, &o).expect("workload runs");
            assert!(out.errors.is_empty(), "{workload}: {:?}", out.errors);
            assert!(out.attempted > 0, "{workload}: nothing attempted");
            let table = if trace { PER_LAYER } else { END_TO_END };
            let json = out.sheet.json_object(table);
            let lines = out.sheet.render_lines(workload);
            for (name, unit) in table {
                let entry = format!("\"{name}\": {{\"value\": ");
                assert!(json.contains(&entry), "{workload}: {name} missing");
                assert!(
                    lines.contains(&format!("metric {workload} {name} ")),
                    "{workload}: {name} has no line"
                );
                let line = lines
                    .lines()
                    .find(|l| l.starts_with(&format!("metric {workload} {name} ")))
                    .expect("line present");
                assert!(line.ends_with(&format!(" {unit}")), "{line}");
            }
            assert!(
                !json.contains("\"value\": null"),
                "{workload}: non-finite metric in {json}"
            );
        }
    }
}
