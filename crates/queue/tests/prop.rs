//! Property tests: the queue is a faithful FIFO under arbitrary
//! interleavings of operations, as long as no faults are injected.

use cg_queue::{PointerMode, QueueSpec, SimQueue, Unit};
use proptest::prelude::*;

/// Pushes `unit` on both queues one at a time; they must agree, and a
/// rejection must mean the queue is full up to working-set visibility lag
/// (the consumer may have up to `workset_size - 1` unpublished pops).
fn push(
    q: &mut SimQueue,
    per_unit: &mut SimQueue,
    model: &mut std::collections::VecDeque<Unit>,
    unit: Unit,
) -> Result<(), String> {
    let accepted = q.try_push(unit).is_ok();
    prop_assert_eq!(accepted, per_unit.try_push(unit).is_ok());
    if accepted {
        model.push_back(unit);
    } else {
        let spec = q.spec();
        prop_assert!(
            model.len() > spec.capacity - spec.workset_size,
            "spurious full at occupancy {}/{}",
            model.len(),
            spec.capacity
        );
    }
    Ok(())
}

/// An abstract queue operation.
#[derive(Debug, Clone)]
enum Op {
    Push(u32),
    PushHeader(u32),
    /// `push_items` of a whole run.
    PushItems(Vec<u32>),
    Pop,
    /// `pop_items` with this cap; a header it stops at is then popped.
    PopItems(usize),
    Flush,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => any::<u32>().prop_map(Op::Push),
        1 => any::<u32>().prop_map(Op::PushHeader),
        2 => prop::collection::vec(any::<u32>(), 0..20).prop_map(Op::PushItems),
        3 => Just(Op::Pop),
        2 => (0usize..20).prop_map(Op::PopItems),
        1 => Just(Op::Flush),
    ]
}

proptest! {
    /// Against a `VecDeque` model: every popped unit matches FIFO order;
    /// pops may lag (working-set visibility) but never reorder, duplicate,
    /// or invent data. The item-run calls are also checked against a
    /// second queue driven one unit at a time with `try_push`/`try_pop`:
    /// same accepted counts, delivered values, header stops and
    /// `QueueStats`, on specs whose working set need not divide the
    /// capacity.
    #[test]
    fn fifo_against_model(
        ops in prop::collection::vec(op_strategy(), 1..200),
        capacity in 8usize..65,
        ws_divisor in 2usize..9,
        mode_ecc in any::<bool>(),
    ) {
        let spec = QueueSpec {
            capacity,
            workset_size: capacity / ws_divisor,
            pointer_mode: if mode_ecc { PointerMode::Ecc } else { PointerMode::Raw },
        };
        let mut q = SimQueue::new(spec);
        let mut per_unit = SimQueue::new(spec);
        let mut model: std::collections::VecDeque<Unit> = Default::default();
        for op in ops {
            match op {
                Op::Push(v) => push(&mut q, &mut per_unit, &mut model, Unit::Item(v))?,
                Op::PushHeader(id) => push(&mut q, &mut per_unit, &mut model, Unit::header(id))?,
                Op::PushItems(items) => {
                    let accepted = q.push_items(&items);
                    let want = items
                        .iter()
                        .take_while(|&&v| per_unit.try_push(Unit::Item(v)).is_ok())
                        .count();
                    prop_assert_eq!(accepted, want);
                    model.extend(items[..accepted].iter().map(|&v| Unit::Item(v)));
                    if accepted < items.len() {
                        prop_assert!(
                            model.len() > capacity - spec.workset_size,
                            "spurious full at occupancy {}/{capacity}", model.len()
                        );
                    }
                }
                Op::Pop => {
                    let got = q.try_pop();
                    prop_assert_eq!(got, per_unit.try_pop());
                    if let Some(u) = got {
                        prop_assert_eq!(Some(u), model.pop_front());
                    }
                }
                Op::PopItems(max) => {
                    let mut got = Vec::new();
                    let (n, hit_header) = q.pop_items(&mut got, max);
                    prop_assert_eq!(n, got.len());
                    let mut want = Vec::new();
                    let mut want_header = None;
                    while want.len() < max {
                        match per_unit.try_pop() {
                            Some(Unit::Item(v)) => want.push(v),
                            Some(header) => {
                                want_header = Some(header);
                                break;
                            }
                            None => break,
                        }
                    }
                    prop_assert_eq!(&got, &want);
                    prop_assert_eq!(hit_header, want_header.is_some());
                    if hit_header {
                        // The header was left queued: pop it the usual way.
                        prop_assert_eq!(q.try_pop(), want_header);
                    }
                    for v in got {
                        prop_assert_eq!(model.pop_front(), Some(Unit::Item(v)));
                    }
                    if let Some(header) = want_header {
                        prop_assert_eq!(model.pop_front(), Some(header));
                    }
                }
                Op::Flush => {
                    q.flush();
                    per_unit.flush();
                }
            }
            prop_assert_eq!(q.stats(), per_unit.stats());
        }
        // After a flush, everything still buffered is poppable in order.
        q.flush();
        while let Some(u) = q.try_pop() {
            let expect = model.pop_front().expect("model drained first");
            prop_assert_eq!(u, expect);
        }
        prop_assert!(model.is_empty(), "queue lost {} units", model.len());
    }

    /// Stats invariants: pops never exceed pushes; loads/stores are
    /// consistent with the op counts.
    #[test]
    fn stats_are_consistent(pushes in 0usize..100, pops in 0usize..150) {
        let mut q = SimQueue::new(QueueSpec::with_capacity(128));
        let mut ok_push = 0u64;
        for i in 0..pushes {
            if q.try_push(Unit::Item(i as u32)).is_ok() {
                ok_push += 1;
            }
        }
        q.flush();
        let mut ok_pop = 0u64;
        for _ in 0..pops {
            if q.try_pop().is_some() {
                ok_pop += 1;
            }
        }
        let s = *q.stats();
        prop_assert_eq!(s.stores(), ok_push);
        prop_assert_eq!(s.loads(), ok_pop);
        prop_assert!(ok_pop <= ok_push);
    }
}
