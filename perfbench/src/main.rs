//! Performance ledger for the CommGuard workspace.
//!
//! ```text
//! perfbench --workload <apps-det|paced-threaded>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for about `--seconds` seconds through the public API
//! of the workspace crates, checks its outputs, prints every metric as a
//! `metric <workload> <name> <value> <unit>` line, writes its spans to
//! `perfbench/out/`, and ends with one JSON line holding `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end sheet with
//! `--trace 0`, the per-layer sheet with `--trace 1`). A failed
//! correctness check exits with code 1.

mod layers;
mod ledger;
#[cfg(test)]
mod selftest;
mod workloads;

use std::process::ExitCode;

use ledger::{END_TO_END, PER_LAYER};
use workloads::{Opts, Outcome, Scale};

pub const WORKLOADS: &[&str] = &["apps-det", "paced-threaded"];

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<(String, Opts), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 0..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let opts = Opts {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::full(),
    };
    Ok((workload, opts))
}

/// Runs `workload` and returns its outcome; `Err` means a run could not
/// be carried out at all (a `RunError` or a broken replay).
pub fn run_workload(workload: &str, opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let run = match workload {
        "apps-det" => workloads::apps_det,
        "paced-threaded" => workloads::paced_threaded,
        other => return Err(format!("unknown workload {other}")),
    };
    run(opts, &mut out)?;
    out.sheet.set("peak_rss_mb", ledger::peak_rss_mb());
    let table = if opts.trace { PER_LAYER } else { END_TO_END };
    if let Err(e) = out.sheet.check_complete(table) {
        out.errors.push(e);
    }
    Ok(out)
}

fn write_spans(workload: &str, opts: &Opts, out: &Outcome) {
    let dir = std::path::Path::new("perfbench/out");
    let file = dir.join(format!(
        "spans-{workload}-seed{}-trace{}.json",
        opts.seed,
        u8::from(opts.trace)
    ));
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&file, out.spans.to_json()));
    match written {
        Ok(()) => println!("spans written to {}", file.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", file.display()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(p) => p,
        Err(e) => return usage(&e),
    };
    println!(
        "perfbench workload {workload} seed {} seconds {} trace {} host_cores {}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let out = match run_workload(&workload, &opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", out.sheet.render_lines(&workload));
    for line in &out.lines {
        println!("{line}");
    }
    write_spans(&workload, &opts, &out);
    for e in &out.errors {
        eprintln!("perfbench: CHECK FAILED: {e}");
    }
    let correct = out.errors.is_empty();
    let table = if opts.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        out.sheet.json_object(table)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
