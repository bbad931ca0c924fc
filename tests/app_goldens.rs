//! Bit-exact goldens for the six paper apps at `Size::Small`.
//!
//! `paper_claims` only bounds output quality, so a kernel or queue
//! rewrite that changes a single output bit would pass it. These tests
//! pin the scheduler round count and the FNV-1a digest of the sink
//! stream for the error-free reference and for CommGuard runs under
//! baseline and burst faults, plus the digest of one traced faulty
//! run's text trace. Any change to filter arithmetic, queue delivery
//! order, fault timing or trace emission shows up here.
//!
//! The constants were printed by the ignored `print_goldens` test:
//! `cargo test -p cg-experiments --test app_goldens -- --ignored --nocapture`.
//! The kernels call libm `sinf`/`cosf`, so the digests hold for the libm
//! they were recorded with (glibc, x86-64 Linux), in debug and release
//! builds alike.

use cg_apps::{BenchApp, Size, Workload};
use cg_fault::{FaultClass, Mtbe};
use cg_runtime::{run, SimConfig, TraceConfig};
use cg_trace::text;
use commguard::Protection;

/// FNV-1a over the little-endian bytes of `bytes`.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn digest(words: &[u32]) -> u64 {
    fnv1a(words.iter().flat_map(|w| w.to_le_bytes()))
}

const MTBES_K: [u64; 2] = [64, 128];
const SEEDS: [u64; 2] = [1, 2];
const CLASSES: [FaultClass; 2] = [FaultClass::Baseline, FaultClass::Burst];

fn faulty_config(w: &Workload, mtbe_k: u64, seed: u64, class: FaultClass) -> SimConfig {
    SimConfig {
        fault_class: class,
        ..SimConfig::with_errors(
            w.frames(),
            Protection::commguard(),
            Mtbe::kilo_instructions(mtbe_k),
            seed,
        )
    }
}

/// `(rounds, sink digest)` of one run.
fn outcome(w: &Workload, cfg: &SimConfig) -> (u64, u64) {
    let (program, sink) = w.build();
    let report = run(program, cfg).expect("run");
    assert!(report.completed, "{} did not complete", w.app());
    (report.rounds, digest(report.sink_output(sink)))
}

/// Every pinned outcome of one app: the error-free run first, then the
/// faulty runs in `MTBES_K × SEEDS × CLASSES` order.
fn outcomes(app: BenchApp) -> Vec<(u64, u64)> {
    let w = Workload::new(app, Size::Small);
    let mut all = vec![outcome(&w, &SimConfig::error_free(w.frames()))];
    for mtbe_k in MTBES_K {
        for seed in SEEDS {
            for class in CLASSES {
                all.push(outcome(&w, &faulty_config(&w, mtbe_k, seed, class)));
            }
        }
    }
    all
}

/// The traced run: fft at MTBE 64k, seed 1, burst faults.
fn traced_text() -> String {
    let w = Workload::new(BenchApp::Fft, Size::Small);
    let cfg = faulty_config(&w, 64, 1, FaultClass::Burst).trace(TraceConfig::ring());
    let report = run(w.build().0, &cfg).expect("traced run");
    text::to_text(&report.trace.expect("tracing was enabled").records)
}

/// `(rounds, digest)` per app: error-free, then 64k/128k × seeds 1/2 ×
/// baseline/burst.
const GOLDENS: &[(BenchApp, [(u64, u64); 9])] = &[
    (
        BenchApp::AudioBeamformer,
        [
            (1, 0xe86ab3ee916e4349),
            (1, 0x4d2f4f30b6e1f957),
            (1, 0x1b0f239e39883ed1),
            (1, 0xf0b052627653c188),
            (1, 0x5160b2ac85ea8ec2),
            (1, 0xc3d69e10a276a5f6),
            (1, 0x479103b17883cbbb),
            (1, 0x661b94b2fcd15045),
            (1, 0x2a34461d00505d1f),
        ],
    ),
    (
        BenchApp::ChannelVocoder,
        [
            (1, 0xfbbbd6a0392e9b17),
            (1, 0x0fee271672213c42),
            (1, 0xbd9090075bc888c1),
            (1, 0x246bcd741683e5aa),
            (1, 0xe10588ca85f6097b),
            (1, 0x4eb7d35b3af49133),
            (1, 0xfe54c8b50222d979),
            (1, 0x271eb2a670366841),
            (1, 0x110b6c9d5c54153a),
        ],
    ),
    (
        BenchApp::ComplexFir,
        [
            (1, 0x8ffc2fb84dba6bd9),
            (1, 0x83548cd45f196b95),
            (1, 0x4b343f4ba0d0358c),
            (1, 0x69662f7b9dca1366),
            (1, 0x24eede798f393dcc),
            (1, 0x72c957d4ebb2c5cd),
            (1, 0xb7024fc8e20dfcde),
            (1, 0x56b45bf29aae3020),
            (1, 0x1740e3c9fdf9d626),
        ],
    ),
    (
        BenchApp::Fft,
        [
            (1, 0x069c8e9a5f94036b),
            (1, 0xc5d0a823fec26ff8),
            (1, 0x59994a4f57b5de28),
            (1, 0x86f7a0afe74e3cff),
            (1, 0x950cdf86eb5e2244),
            (1, 0x801aa6654ee0c5c7),
            (1, 0x757529175663f4f0),
            (1, 0x576e4a5b36531ab6),
            (1, 0xc6455306b3bdcb1e),
        ],
    ),
    (
        BenchApp::Jpeg,
        [
            (4, 0x60447dcd61ed6cb8),
            (4, 0x054241779c529f96),
            (5, 0x494cac367843f1c5),
            (5, 0x6f4afa186272b6d7),
            (5, 0x9fdd9d79e39c1419),
            (5, 0x6d947e6b6530b83c),
            (5, 0x9733dc8bc4ee9c7c),
            (5, 0xd2100b93a72fb82f),
            (5, 0xa4e521546bb846f8),
        ],
    ),
    (
        BenchApp::Mp3,
        [
            (1, 0xa0f0dbd6b7a7d252),
            (1, 0x7ff151de1b9429a3),
            (1, 0x38423a27ce181670),
            (1, 0x21b035948b21f38e),
            (1, 0x1c81fef3e02fcdee),
            (1, 0xe8a79f97b52550f1),
            (1, 0xf1d02ab1e04facac),
            (1, 0x3829a2d958be1d06),
            (1, 0x55909594222695b9),
        ],
    ),
];

/// Length and FNV-1a digest of [`traced_text`].
const TRACE_GOLDEN: (usize, u64) = (3127499, 0x6ea541d1cb707f35);

fn check(app: BenchApp) {
    let (_, want) = GOLDENS
        .iter()
        .find(|(a, _)| *a == app)
        .expect("app has a golden");
    assert_eq!(outcomes(app), want.to_vec(), "{app}: outcomes moved");
}

#[test]
fn audiobeamformer_is_bit_exact() {
    check(BenchApp::AudioBeamformer);
}

#[test]
fn channelvocoder_is_bit_exact() {
    check(BenchApp::ChannelVocoder);
}

#[test]
fn complex_fir_is_bit_exact() {
    check(BenchApp::ComplexFir);
}

#[test]
fn fft_is_bit_exact() {
    check(BenchApp::Fft);
}

#[test]
fn jpeg_is_bit_exact() {
    check(BenchApp::Jpeg);
}

#[test]
fn mp3_is_bit_exact() {
    check(BenchApp::Mp3);
}

#[test]
fn traced_faulty_run_is_byte_exact() {
    let t = traced_text();
    assert!(!t.is_empty(), "the traced run must record events");
    assert_eq!((t.len(), fnv1a(t.bytes())), TRACE_GOLDEN);
}

/// Prints `GOLDENS` and `TRACE_GOLDEN` as Rust source.
#[test]
#[ignore = "generator: prints the golden constants"]
fn print_goldens() {
    println!("const GOLDENS: &[(BenchApp, [(u64, u64); 9])] = &[");
    for app in BenchApp::all() {
        println!("    (\n        BenchApp::{app:?},\n        [");
        for (rounds, d) in outcomes(app) {
            println!("            ({rounds}, {d:#018x}),");
        }
        println!("        ],\n    ),");
    }
    println!("];");
    let t = traced_text();
    println!(
        "const TRACE_GOLDEN: (usize, u64) = ({}, {:#018x});",
        t.len(),
        fnv1a(t.bytes())
    );
}
