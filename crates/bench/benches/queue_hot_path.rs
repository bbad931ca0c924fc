//! Queue hot-path micro-bench: the lock-free SPSC ring against a bare
//! single-thread `SimQueue` reference, with a regression gate in the
//! style of `trace_overhead`.
//!
//! Three scenario families over the same `SimQueue` protocol:
//!
//! * `uncontended items` — single thread, one `produce`/`consume` call
//!   per unit (the per-item synchronization cost with nobody waiting);
//! * `uncontended slices` — single thread, one call per 64-unit batch
//!   through `push_slice`/`pop_slice` (the batched hot path);
//! * `ping-pong` — a real producer thread against a real consumer
//!   thread through a 64-slot queue, at batch sizes 1 and 64 (the
//!   contended path, including the spin-then-park slow path).
//!
//! Every timed round of every scenario is interleaved with one round of
//! the `ring` reference: the same per-item push/pop traffic as
//! `uncontended items` on a plain `SimQueue`, with no synchronisation at
//! all. Dividing by it cancels host speed, so a scenario's
//! `lock-free / ring` ratio can be held to a fixed ceiling.
//!
//! Two gates. First, each lock-free scenario's `lock-free / ring` ratio
//! must stay within its tolerance of [`MUTEX_RATIO`], the ratio the
//! mutex/condvar transport reached on the same scenario — so the ring
//! may never become slower than the mutex baseline it replaced. Second,
//! the zero-copy slice path exists to beat per-item calls, so the
//! lock-free 64-unit slice scenario must run at least
//! [`ZERO_COPY_FLOOR`]x faster than the lock-free per-item scenario.
//! Uncontended scenarios are enforced on every host; the contended ones
//! only where `available_parallelism() >= 2` (on a single core a
//! ping-pong measures the scheduler, not the queue — skipped with a
//! loud log, like `parallel_throughput`'s multicore gate).
//!
//! A plain harness (not Criterion) so the comparison can fail the build.

use std::time::{Duration, Instant};

use cg_queue::{spsc_pair, QueueSpec, SimQueue, Unit};

/// Queue capacity for every scenario: 8 worksets of 8 units, so per-item
/// scenarios exercise the shared-pointer publication cadence without any
/// explicit flushing.
const CAP: usize = 64;
/// Units moved per timed round in each scenario.
const TOTAL: usize = 32_768;
/// Timed rounds per scenario (medians are compared).
const ROUNDS: usize = 9;
/// Uncontended gate: lock-free may not exceed the mutex ratio by more
/// than this.
const UNCONTENDED_TOL: f64 = 1.15;
/// Contended gate, enforced only on multicore hosts.
const CONTENDED_TOL: f64 = 1.30;
/// Zero-copy gate: the 64-unit slice path must beat per-item calls on
/// the lock-free transport by at least this factor (the batch path is
/// the whole point of the reserve/commit ring segments).
const ZERO_COPY_FLOOR: f64 = 1.5;
/// Generous stall backstop — a wedged bench run should error, not hang.
const STALL: Duration = Duration::from_secs(10);

/// `mutex_ms / ring_ms` per scenario for the mutex/condvar transport
/// (since deleted), in scenario order: uncontended items, uncontended
/// slices, ping-pong batch=1, ping-pong batch=64. Each is the median over
/// 21 runs of this bench, on a 2-core x86-64 host, of the per-run ratio of
/// the two scenario medians, measured with the mutex transport and this
/// ring reference side by side (IQRs 0.42, 0.027, 5.3 and 1.2). The gate
/// they feed replaced "lock-free ≤ mutex × tolerance" measured in-run.
const MUTEX_RATIO: [f64; 4] = [4.141, 0.584, 32.601, 7.748];

fn spec() -> QueueSpec {
    QueueSpec::with_capacity(CAP)
}

/// The unsynchronised reference: [`lock_free_items`]' traffic on a plain
/// single-owner `SimQueue`.
fn ring_items() -> f64 {
    let mut q = SimQueue::new(spec());
    let start = Instant::now();
    let mut v = 0u32;
    for _ in 0..TOTAL / CAP {
        for _ in 0..CAP {
            q.try_push(Unit::Item(v)).expect("push");
            v = v.wrapping_add(1);
        }
        for _ in 0..CAP {
            std::hint::black_box(q.try_pop().expect("pop"));
        }
    }
    start.elapsed().as_secs_f64()
}

/// One blocking call per unit, single thread; `CAP`-unit bursts keep the
/// queue inside its capacity while crossing every workset boundary.
fn lock_free_items() -> f64 {
    let (mut p, mut c, _stats) = spsc_pair(spec(), STALL);
    let start = Instant::now();
    let mut v = 0u32;
    for _ in 0..TOTAL / CAP {
        for _ in 0..CAP {
            p.produce(|qq| qq.try_push(Unit::Item(v)).ok())
                .expect("push");
            v = v.wrapping_add(1);
        }
        for _ in 0..CAP {
            c.consume(|qq| qq.try_pop().map(|_| ())).expect("pop");
        }
    }
    start.elapsed().as_secs_f64()
}

/// One blocking call per `CAP`-unit slice, single thread.
fn lock_free_slices() -> f64 {
    let (mut p, mut c, _stats) = spsc_pair(spec(), STALL);
    let batch: Vec<Unit> = (0..CAP as u32).map(Unit::Item).collect();
    let mut out: Vec<Unit> = Vec::with_capacity(CAP);
    let start = Instant::now();
    for _ in 0..TOTAL / CAP {
        p.produce(|qq| (qq.push_slice(&batch) == CAP).then_some(()))
            .expect("push");
        c.consume(|qq| {
            out.clear();
            (qq.pop_slice(&mut out, CAP) == CAP).then_some(())
        })
        .expect("pop");
    }
    start.elapsed().as_secs_f64()
}

/// Times one ping-pong round between a producer and a consumer thread.
fn lock_free_ping_pong(batch: usize) -> f64 {
    let (mut p, mut c, _stats) = spsc_pair(spec(), STALL);
    let start = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut got = 0usize;
            let mut sink: Vec<Unit> = Vec::with_capacity(batch);
            while got < TOTAL {
                got += c
                    .consume(|qq| {
                        sink.clear();
                        let n = qq.pop_slice(&mut sink, batch);
                        (n > 0).then_some(n)
                    })
                    .expect("pop");
            }
        });
        let batch_units: Vec<Unit> = (0..batch as u32).map(Unit::Item).collect();
        let mut sent = 0usize;
        while sent < TOTAL {
            let want = batch.min(TOTAL - sent);
            let mut done = 0usize;
            while done < want {
                done += p
                    .produce(|qq| {
                        let n = qq.push_slice(&batch_units[..want - done]);
                        if n > 0 {
                            qq.flush();
                        }
                        (n > 0).then_some(n)
                    })
                    .expect("push");
            }
            sent += want;
        }
        p.close();
    });
    start.elapsed().as_secs_f64()
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    samples[samples.len() / 2]
}

struct Outcome {
    name: &'static str,
    ring_ms: f64,
    lock_free_ms: f64,
    mutex_ratio: f64,
    tolerance: f64,
    enforced: bool,
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let multicore = cores >= 2;

    // (name, lock-free round, tolerance, enforced), in MUTEX_RATIO order.
    type Round = Box<dyn FnMut() -> f64>;
    let mut scenarios: Vec<(&'static str, Round, f64, bool)> = vec![
        (
            "uncontended items",
            Box::new(lock_free_items),
            UNCONTENDED_TOL,
            true,
        ),
        (
            "uncontended slices",
            Box::new(lock_free_slices),
            UNCONTENDED_TOL,
            true,
        ),
        (
            "ping-pong batch=1",
            Box::new(|| lock_free_ping_pong(1)),
            CONTENDED_TOL,
            multicore,
        ),
        (
            "ping-pong batch=64",
            Box::new(|| lock_free_ping_pong(64)),
            CONTENDED_TOL,
            multicore,
        ),
    ];

    // Warm-up: touch every code path once before measuring.
    let _ = ring_items();
    for (_, l, _, _) in &mut scenarios {
        let _ = l();
    }

    let mut outcomes: Vec<Outcome> = Vec::new();
    for ((name, l, tolerance, enforced), mutex_ratio) in scenarios.iter_mut().zip(MUTEX_RATIO) {
        // Interleave with the reference so drift (thermal, cache) hits
        // both alike.
        let mut ring_samples = Vec::with_capacity(ROUNDS);
        let mut lf_samples = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            lf_samples.push(l());
            ring_samples.push(ring_items());
        }
        outcomes.push(Outcome {
            name,
            ring_ms: median(&mut ring_samples) * 1e3,
            lock_free_ms: median(&mut lf_samples) * 1e3,
            mutex_ratio,
            tolerance: *tolerance,
            enforced: *enforced,
        });
    }

    println!("queue hot path ({TOTAL} units/round, cap {CAP}, {ROUNDS} rounds, {cores} core(s)):");
    let mut failures = Vec::new();
    for o in &outcomes {
        let ratio = o.lock_free_ms / o.ring_ms.max(1e-9);
        let ceiling = o.mutex_ratio * o.tolerance;
        println!(
            "  {:<20} ring {:>7.3} ms  lock-free {:>8.3} ms  lock-free/ring {ratio:.2} \
             (gate <= {ceiling:.2} = mutex {:.3} x {:.2}{})",
            o.name,
            o.ring_ms,
            o.lock_free_ms,
            o.mutex_ratio,
            o.tolerance,
            if o.enforced { "" } else { ", not enforced" },
        );
        if o.enforced && ratio > ceiling {
            failures.push(format!(
                "{}: lock-free/ring ratio {ratio:.3} exceeds the mutex transport's \
                 {:.3} by more than {:.0}%",
                o.name,
                o.mutex_ratio,
                (o.tolerance - 1.0) * 100.0
            ));
        }
    }
    // Zero-copy gate: compare the lock-free slice path against the
    // lock-free per-item path from the same run (both already measured
    // above, so drift hits numerator and denominator alike).
    let lf_ms = |name: &str| {
        outcomes
            .iter()
            .find(|o| o.name == name)
            .expect("scenario measured")
            .lock_free_ms
    };
    let zero_copy_speedup = lf_ms("uncontended items") / lf_ms("uncontended slices").max(1e-9);
    println!(
        "  {:<20} per-item / slice-64 speedup {zero_copy_speedup:.2}x (gate >= {ZERO_COPY_FLOOR:.1}x)",
        "zero-copy batch-64",
    );
    if zero_copy_speedup < ZERO_COPY_FLOOR {
        failures.push(format!(
            "zero-copy batch-64: slice path is only {zero_copy_speedup:.2}x faster than \
             per-item calls on the lock-free transport (floor {ZERO_COPY_FLOOR:.1}x)"
        ));
    }

    if !multicore {
        println!(
            "\n==================================================================\n\
             CONTENDED GATE SKIPPED: host has {cores} core(s); ping-pong ratios\n\
             above measure time-slicing, not queue contention, and are NOT\n\
             enforced on this host.\n\
             =================================================================="
        );
    }

    if failures.is_empty() {
        println!("\nqueue hot path: OK (lock-free within tolerance of the mutex baseline ratios)");
    } else {
        println!("\n================ QUEUE-HOT-PATH FAIL ================");
        for f in &failures {
            println!("{f}");
        }
        println!(
            "The lock-free transport has regressed past the mutex baseline.\n\
             ====================================================="
        );
        std::process::exit(1);
    }
}
