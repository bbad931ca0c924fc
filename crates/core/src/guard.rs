//! Per-core bundle of CommGuard modules.
//!
//! [`CoreGuard`] ties together everything one core needs (Fig. 4): the
//! `active-fc` counter, the frame-scale saturating counter, one
//! [`HeaderInserter`] per outgoing queue and one [`AlignmentManager`] per
//! incoming queue, plus the core's [`SubopCounters`]. The runtime drives
//! it with four callbacks: thread start, scope boundary, pop/push, and
//! thread end.

use cg_queue::{PushError, SimQueue, Unit};
use cg_trace::{AmTag, Event, RealignTag, Tracer};

use crate::align::{AlignmentManager, AmState};
use crate::config::GuardConfig;
use crate::fc::{ActiveFc, FrameScale};
use crate::hi::HeaderInserter;
use crate::subop::SubopCounters;

/// The trace tag mirroring an [`AmState`].
pub fn am_tag(state: AmState) -> AmTag {
    match state {
        AmState::RcvCmp => AmTag::RcvCmp,
        AmState::ExpHdr => AmTag::ExpHdr,
        AmState::DiscFr => AmTag::DiscFr,
        AmState::Disc => AmTag::Disc,
        AmState::Pdg => AmTag::Pdg,
    }
}

/// Runs one AM operation and emits the state transition plus any
/// realignment-episode events it caused. Episode starts are detected by
/// diffing the pad/discard event counters around the call — they mirror
/// `SubopCounters::record_event` exactly, which fires on *entries into*
/// pad/discard handling, not merely on aligned→abnormal transitions (an
/// AM can hop between abnormal flavours and record a fresh episode).
fn traced_am<R>(
    tracer: &Tracer,
    am: &mut AlignmentManager,
    sub: &mut SubopCounters,
    port: u32,
    frame: u32,
    f: impl FnOnce(&mut AlignmentManager, &mut SubopCounters) -> R,
) -> R {
    if !tracer.is_enabled() {
        return f(am, sub);
    }
    let before = am.state();
    let pads = sub.pad_events;
    let discards = sub.discard_events;
    let out = f(am, sub);
    let after = am.state();
    if before != after {
        tracer.emit(Event::AmTransition {
            port,
            from: am_tag(before),
            to: am_tag(after),
        });
    }
    for _ in discards..sub.discard_events {
        tracer.emit(Event::RealignStart {
            port,
            kind: RealignTag::Discard,
            frame,
        });
    }
    for _ in pads..sub.pad_events {
        tracer.emit(Event::RealignStart {
            port,
            kind: RealignTag::Pad,
            frame,
        });
    }
    if !am_tag(before).is_aligned() && am_tag(after).is_aligned() {
        tracer.emit(Event::RealignEnd { port, frame });
    }
    out
}

/// The CommGuard modules of one core, or a pass-through stub for
/// configurations without CommGuard.
#[derive(Debug, Clone)]
pub struct CoreGuard {
    enabled: bool,
    fc: ActiveFc,
    scale: FrameScale,
    his: Vec<HeaderInserter>,
    ams: Vec<AlignmentManager>,
    sub: SubopCounters,
    tracer: Tracer,
}

impl CoreGuard {
    /// Active CommGuard modules for a core with `num_in` incoming and
    /// `num_out` outgoing queues. `fc_limit` is the frame id at which the
    /// thread's computation ends (from the application's run length), if
    /// known.
    pub fn new(num_in: usize, num_out: usize, cfg: &GuardConfig, fc_limit: Option<u32>) -> Self {
        CoreGuard {
            enabled: true,
            fc: ActiveFc::new(fc_limit),
            scale: FrameScale::new(cfg.frame_scale),
            his: vec![HeaderInserter::new(); num_out],
            ams: vec![AlignmentManager::new(cfg.pad_policy); num_in],
            sub: SubopCounters::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// A pass-through guard for non-CommGuard configurations: pops and
    /// pushes go straight to the queue, no headers exist.
    pub fn disabled(num_in: usize, num_out: usize) -> Self {
        CoreGuard {
            enabled: false,
            fc: ActiveFc::new(None),
            scale: FrameScale::default(),
            his: vec![HeaderInserter::new(); num_out],
            ams: vec![AlignmentManager::default(); num_in],
            sub: SubopCounters::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Connects this guard to a trace stream: AM transitions,
    /// realignment episodes, and header insertions are emitted.
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Whether the guard modules are active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Current `active-fc` value.
    pub fn active_fc(&self) -> u32 {
        self.fc.value()
    }

    /// The AM guarding incoming port `port` (for inspection).
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn am_state(&self, port: usize) -> AmState {
        self.ams[port].state()
    }

    /// Suboperation counters for this core.
    pub fn subops(&self) -> &SubopCounters {
        &self.sub
    }

    /// Consumes the guard, returning its counters.
    pub fn into_subops(self) -> SubopCounters {
        self.sub
    }

    /// Thread start: queues frame 0's headers on every outgoing port.
    pub fn start(&mut self) {
        if !self.enabled {
            return;
        }
        let fc = self.fc.value();
        for hi in &mut self.his {
            hi.begin_frame(fc, &mut self.sub);
        }
    }

    /// Scope boundary (one frame computation finished). Under frame
    /// scaling only every Nth boundary is promoted; when promoted, the
    /// `active-fc` advances, AMs are notified, and new headers are queued.
    /// Returns `true` when promoted (the runtime must then drain the HIs
    /// before allowing further pushes — the §5.3 serialisation point).
    pub fn scope_boundary(&mut self) -> bool {
        if !self.enabled {
            return false;
        }
        // Frame-boundary scrub: vote/heal every hardened guard field so a
        // single-replica strike never survives past one frame (see
        // `crate::harden`). The AMs also heal inside
        // `new_frame_computation`, but non-promoted boundaries must scrub
        // too.
        self.fc.heal(&mut self.sub);
        for hi in &mut self.his {
            hi.heal(&mut self.sub);
        }
        for am in &mut self.ams {
            am.heal(&mut self.sub);
        }
        self.sub.counter_ops += 1; // saturating-counter increment
        if !self.scale.on_boundary(&mut self.sub) {
            return false;
        }
        let fc = self.fc.increment(&mut self.sub);
        self.sub.counter_ops += 1; // active-fc increment
        for (port, am) in self.ams.iter_mut().enumerate() {
            traced_am(
                &self.tracer,
                am,
                &mut self.sub,
                port as u32,
                fc,
                |am, sub| am.new_frame_computation(fc, sub),
            );
        }
        for hi in &mut self.his {
            hi.begin_frame(fc, &mut self.sub);
        }
        true
    }

    /// Thread end (outermost scope exited, per the PPU protection module):
    /// queues the end-of-computation header on every outgoing port.
    pub fn finish(&mut self) {
        if !self.enabled {
            return;
        }
        for hi in &mut self.his {
            hi.begin_end(&mut self.sub);
        }
    }

    /// Attempts to flush the pending header of outgoing port `port` into
    /// `q`. Returns `true` when that port is clear.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn hi_tick(&mut self, port: usize, q: &mut SimQueue) -> bool {
        let pending = self.his[port].pending();
        let clear = self.his[port].tick(q, &mut self.sub);
        if clear {
            if let Some(frame) = pending {
                self.tracer.emit(Event::HeaderInserted {
                    port: port as u32,
                    frame,
                    forced: false,
                });
            }
        }
        clear
    }

    /// Forces the pending header of `port` into `q` after a QM timeout.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn hi_force(&mut self, port: usize, q: &mut SimQueue) {
        let pending = self.his[port].pending();
        self.his[port].force(q, &mut self.sub);
        if let Some(frame) = pending {
            self.tracer.emit(Event::HeaderInserted {
                port: port as u32,
                frame,
                forced: true,
            });
        }
    }

    /// Drains the pending header of `port` into `q` if the queue has
    /// room, and forces it in (QM timeout semantics) otherwise: either way
    /// the port is clear afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn hi_drain_or_force(&mut self, port: usize, q: &mut SimQueue) {
        if !self.hi_tick(port, q) {
            self.hi_force(port, q);
        }
    }

    /// `true` when no outgoing port has a pending header (pushes may
    /// proceed).
    pub fn headers_clear(&self) -> bool {
        self.his.iter().all(HeaderInserter::is_clear)
    }

    /// A pop on incoming port `port`. With guards enabled this runs the
    /// AM FSM (alignment checks, pad/discard); otherwise it is a raw queue
    /// pop. `None` means the thread must block and retry.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn pop(&mut self, port: usize, q: &mut SimQueue) -> Option<u32> {
        if self.enabled {
            let fc = self.fc.value();
            traced_am(
                &self.tracer,
                &mut self.ams[port],
                &mut self.sub,
                port as u32,
                fc,
                |am, sub| am.pop(q, sub),
            )
        } else {
            let unit = q.try_pop()?;
            self.sub.accepted_items += 1;
            // Headers never exist without CommGuard; treat defensively.
            Some(unit.item_value().unwrap_or(0))
        }
    }

    /// Pops up to `max` items on incoming port `port`, appending them to
    /// `out`, and returns how many were delivered. Runs of plain items in
    /// the aligned state take the queue's zero-copy bulk path; headers,
    /// realignment episodes, and traced guards run the full per-unit
    /// [`Self::pop`] path. Either way AM FSM transitions, subop counters,
    /// and queue statistics are bit-identical to popping one at a time.
    /// A short count means the queue has nothing more visible: block and
    /// retry.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn pop_batch(
        &mut self,
        port: usize,
        q: &mut SimQueue,
        out: &mut Vec<u32>,
        max: usize,
    ) -> usize {
        if !self.tracer.is_enabled() {
            return self.pop_batch_fast(port, q, out, max);
        }
        // Traced guards keep the per-unit loop so the emitted event stream
        // is byte-identical to popping one at a time.
        for i in 0..max {
            match self.pop(port, q) {
                Some(v) => out.push(v),
                None => return i,
            }
        }
        max
    }

    /// The zero-copy batch pop: runs of plain items bypass the per-unit
    /// FSM walk through [`AlignmentManager::pop_run`] (guards enabled) or
    /// the queue's bulk item path directly (guards disabled); headers and
    /// abnormal FSM states fall back to per-unit [`Self::pop`] calls.
    /// Subop counters and queue statistics are bit-identical to the
    /// per-unit loop — pinned by `batch_ops_match_per_item_under_realignment`.
    fn pop_batch_fast(
        &mut self,
        port: usize,
        q: &mut SimQueue,
        out: &mut Vec<u32>,
        max: usize,
    ) -> usize {
        if !self.enabled {
            let (n, hit_header) = q.pop_items(out, max);
            self.sub.accepted_items += n as u64;
            if !hit_header {
                return n;
            }
            // Headers never exist without CommGuard; consume defensively
            // through the per-unit path.
            let mut delivered = n;
            while delivered < max {
                match self.pop(port, q) {
                    Some(v) => {
                        out.push(v);
                        delivered += 1;
                    }
                    None => break,
                }
            }
            return delivered;
        }
        let mut delivered = 0;
        while delivered < max {
            let (n, more) = self.ams[port].pop_run(q, out, max - delivered, &mut self.sub);
            delivered += n;
            if !more {
                return delivered;
            }
            // A header is queued (or the AM is realigning): one full FSM
            // pop, then retry the bulk run.
            match self.pop(port, q) {
                Some(v) => {
                    out.push(v);
                    delivered += 1;
                }
                None => return delivered,
            }
        }
        max
    }

    /// Pushes items from `values` on outgoing port `port` until the queue
    /// appears full, returning how many were accepted. Unit-accurate
    /// through the queue's zero-copy bulk item path.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn push_batch(&mut self, _port: usize, q: &mut SimQueue, values: &[u32]) -> usize {
        // A guarded push is a bare item push with no guard-side
        // accounting (headers travel through the HeaderInserter), so the
        // queue's zero-copy bulk item path is exact by construction —
        // including the blocked-push accounting on a short count. Traced
        // queues keep their per-unit event stream inside `push_items`.
        q.push_items(values)
    }

    /// Forces a pop after a QM timeout, delivering whatever stale unit is
    /// at the head (incorrect data, but forward progress).
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn timeout_pop(&mut self, _port: usize, q: &mut SimQueue) -> u32 {
        let unit = q.timeout_pop();
        self.sub.accepted_items += 1;
        match unit {
            Unit::Item(v) => v,
            Unit::Header(cw) => cw.raw() as u32,
        }
    }

    /// A push on outgoing port `port`.
    ///
    /// # Errors
    ///
    /// Propagates [`PushError`] when the queue appears full; the thread
    /// blocks and retries (or times out).
    pub fn push(&mut self, _port: usize, q: &mut SimQueue, value: u32) -> Result<(), PushError> {
        q.try_push(Unit::Item(value))
    }

    /// Forces a push after a QM timeout, overwriting unconsumed data.
    pub fn timeout_push(&mut self, _port: usize, q: &mut SimQueue, value: u32) {
        q.timeout_push(Unit::Item(value));
    }

    /// Fault-injection hook: strikes a single replica of one hardened
    /// guard-state field, chosen by `selector`. The corruption is latent —
    /// the majority vote at the next heal point (FSM event or frame
    /// boundary) detects and repairs it, bumping the
    /// `guard_state_detected`/`guard_state_corrected` counters.
    pub fn corrupt_guard_state(&mut self, selector: u64) {
        if !self.enabled {
            return;
        }
        let targets = (1 + self.his.len() + self.ams.len()) as u64;
        let replica = (selector / targets) as usize;
        match (selector % targets) as usize {
            0 => {
                let v = self.fc.value() ^ 1;
                self.fc.corrupt_replica(replica, v);
            }
            t if t <= self.his.len() => {
                let hi = &mut self.his[t - 1];
                let v = match hi.pending() {
                    None => Some(1),
                    Some(fc) => Some(fc ^ 1),
                };
                hi.corrupt_replica(replica, v);
            }
            t => {
                self.ams[t - 1 - self.his.len()].corrupt_replica(selector / targets);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_queue::{PointerMode, QueueSpec};

    fn queue() -> SimQueue {
        SimQueue::new(QueueSpec {
            capacity: 256,
            workset_size: 32,
            pointer_mode: PointerMode::Ecc,
        })
    }

    /// A guarded producer core feeding a guarded consumer core, error
    /// free: items flow unchanged, one header per frame.
    #[test]
    fn producer_consumer_roundtrip() {
        let mut q = queue();
        let mut prod = CoreGuard::new(0, 1, &GuardConfig::default(), Some(3));
        let mut cons = CoreGuard::new(1, 0, &GuardConfig::default(), Some(3));
        prod.start();
        cons.start();
        for frame in 0..3u32 {
            if frame > 0 {
                assert!(prod.scope_boundary());
                assert!(cons.scope_boundary());
            }
            assert!(prod.hi_tick(0, &mut q));
            prod.push(0, &mut q, frame * 100).unwrap();
            prod.push(0, &mut q, frame * 100 + 1).unwrap();
            q.flush();
            assert_eq!(cons.pop(0, &mut q), Some(frame * 100));
            assert_eq!(cons.pop(0, &mut q), Some(frame * 100 + 1));
        }
        assert_eq!(cons.subops().accepted_items, 6);
        assert_eq!(cons.subops().padded_items, 0);
        assert_eq!(q.stats().header_pushes, 3);
    }

    /// `hi_drain_or_force` leaves the port clear whether the queue has
    /// room (a normal insertion) or is full (a forced one).
    #[test]
    fn drain_or_force_clears_the_port() {
        for full in [false, true] {
            let mut q = queue();
            if full {
                while q.try_push(Unit::Item(7)).is_ok() {}
            }
            let mut g = CoreGuard::new(0, 1, &GuardConfig::default(), Some(2));
            g.start();
            assert!(!g.headers_clear());
            g.hi_drain_or_force(0, &mut q);
            assert!(g.headers_clear(), "full queue: {full}");
            assert_eq!(q.stats().timeout_pushes, u64::from(full));
        }
    }

    /// A producer that loses items is padded at the consumer; frames stay
    /// aligned afterwards.
    #[test]
    fn lost_items_padded_and_realigned() {
        let mut q = queue();
        let mut prod = CoreGuard::new(0, 1, &GuardConfig::default(), Some(2));
        let mut cons = CoreGuard::new(1, 0, &GuardConfig::default(), Some(2));
        prod.start();
        cons.start();
        assert!(prod.hi_tick(0, &mut q));
        // Frame 0: control error — only 1 of 2 items pushed.
        prod.push(0, &mut q, 100).unwrap();
        prod.scope_boundary();
        assert!(prod.hi_tick(0, &mut q));
        prod.push(0, &mut q, 200).unwrap();
        prod.push(0, &mut q, 201).unwrap();
        q.flush();

        assert_eq!(cons.pop(0, &mut q), Some(100));
        assert_eq!(cons.pop(0, &mut q), Some(0), "lost item padded");
        cons.scope_boundary();
        assert_eq!(cons.pop(0, &mut q), Some(200));
        assert_eq!(cons.pop(0, &mut q), Some(201));
        assert_eq!(cons.subops().padded_items, 1);
    }

    /// Batch entry points are bit-identical to the per-item path, even
    /// across a realignment episode (the scenario of
    /// [`lost_items_padded_and_realigned`] replayed through batches).
    #[test]
    fn batch_ops_match_per_item_under_realignment() {
        let run = |batched: bool| {
            let mut q = queue();
            let mut prod = CoreGuard::new(0, 1, &GuardConfig::default(), Some(2));
            let mut cons = CoreGuard::new(1, 0, &GuardConfig::default(), Some(2));
            prod.start();
            cons.start();
            assert!(prod.hi_tick(0, &mut q));
            // Frame 0: control error — only 1 of 2 items pushed.
            assert_eq!(prod.push_batch(0, &mut q, &[100]), 1);
            prod.scope_boundary();
            assert!(prod.hi_tick(0, &mut q));
            if batched {
                assert_eq!(prod.push_batch(0, &mut q, &[200, 201]), 2);
            } else {
                prod.push(0, &mut q, 200).unwrap();
                prod.push(0, &mut q, 201).unwrap();
            }
            q.flush();
            let mut got = Vec::new();
            if batched {
                assert_eq!(cons.pop_batch(0, &mut q, &mut got, 2), 2);
            } else {
                got.push(cons.pop(0, &mut q).unwrap());
                got.push(cons.pop(0, &mut q).unwrap());
            }
            cons.scope_boundary();
            cons.pop_batch(0, &mut q, &mut got, 2);
            (got, cons.subops().clone(), *q.stats())
        };
        let (batched, per_item) = (run(true), run(false));
        assert_eq!(batched.0, vec![100, 0, 200, 201], "lost item padded");
        assert_eq!(batched.0, per_item.0);
        assert_eq!(batched.1, per_item.1, "identical subop counters");
        assert_eq!(batched.2, per_item.2, "identical queue statistics");
    }

    /// `pop_batch` stops at visible-empty with a short count;
    /// `push_batch` stops at full.
    #[test]
    fn batch_ops_stop_at_queue_limits() {
        let mut q = SimQueue::new(QueueSpec {
            capacity: 8,
            workset_size: 1,
            pointer_mode: PointerMode::Ecc,
        });
        let mut prod = CoreGuard::disabled(0, 1);
        let mut cons = CoreGuard::disabled(1, 0);
        let vals: Vec<u32> = (0..12).collect();
        assert_eq!(prod.push_batch(0, &mut q, &vals), 8, "full after 8");
        let mut out = Vec::new();
        assert_eq!(cons.pop_batch(0, &mut q, &mut out, 64), 8, "drained dry");
        assert_eq!(out, (0..8).collect::<Vec<u32>>());
    }

    /// Disabled guards pass raw values with no headers.
    #[test]
    fn disabled_guard_is_transparent() {
        let mut q = queue();
        let mut prod = CoreGuard::disabled(0, 1);
        let mut cons = CoreGuard::disabled(1, 0);
        prod.start();
        assert!(!prod.scope_boundary());
        assert!(prod.headers_clear());
        prod.push(0, &mut q, 5).unwrap();
        q.flush();
        assert_eq!(cons.pop(0, &mut q), Some(5));
        assert!(!cons.is_enabled());
        assert_eq!(q.stats().header_pushes, 0);
    }

    /// Frame scaling: scale 2 halves header frequency.
    #[test]
    fn frame_scaling_reduces_headers() {
        let mut q = queue();
        let cfg = GuardConfig::with_frame_scale(2);
        let mut prod = CoreGuard::new(0, 1, &cfg, None);
        prod.start();
        assert!(prod.hi_tick(0, &mut q));
        // 4 boundaries → only 2 promoted; drain the HI after each
        // promotion (as the runtime's serialisation point does).
        let promoted: Vec<bool> = (0..4)
            .map(|_| {
                let p = prod.scope_boundary();
                assert!(prod.hi_tick(0, &mut q));
                p
            })
            .collect();
        assert_eq!(promoted, vec![false, true, false, true]);
        q.flush();
        // Initial header + 2 promoted = 3.
        assert_eq!(q.stats().header_pushes, 3);
        assert_eq!(prod.active_fc(), 2);
    }

    /// `finish` emits the end header.
    #[test]
    fn finish_emits_end_header() {
        let mut q = queue();
        let mut prod = CoreGuard::new(0, 1, &GuardConfig::default(), Some(1));
        prod.start();
        assert!(prod.hi_tick(0, &mut q));
        prod.finish();
        assert!(prod.hi_tick(0, &mut q));
        q.flush();
        assert_eq!(q.try_pop().unwrap().header_id(), Some(0));
        assert_eq!(
            q.try_pop().unwrap().header_id(),
            Some(cg_queue::END_FRAME_ID)
        );
    }

    /// Timeout paths deliver garbage but keep moving.
    #[test]
    fn timeout_paths_progress() {
        let mut q = queue();
        let mut cons = CoreGuard::new(1, 0, &GuardConfig::default(), None);
        let v = cons.timeout_pop(0, &mut q);
        assert_eq!(v, 0, "stale slot content");
        let mut prod = CoreGuard::new(0, 1, &GuardConfig::default(), None);
        prod.timeout_push(0, &mut q, 9);
        assert_eq!(q.stats().timeout_pushes, 1);
    }

    /// Guard-state strikes on any hardened field are detected, corrected
    /// at the frame-boundary scrub, and leave the data stream untouched.
    #[test]
    fn guard_state_strikes_are_scrubbed_at_boundaries() {
        let mut q = queue();
        let mut prod = CoreGuard::new(0, 1, &GuardConfig::default(), Some(4));
        let mut cons = CoreGuard::new(1, 0, &GuardConfig::default(), Some(4));
        prod.start();
        cons.start();
        for frame in 0..4u32 {
            if frame > 0 {
                // Strike a different field/replica each frame, on both
                // sides, right before the boundary scrub.
                prod.corrupt_guard_state(u64::from(frame) * 5 + 1);
                cons.corrupt_guard_state(u64::from(frame) * 7 + 2);
                assert!(prod.scope_boundary());
                assert!(cons.scope_boundary());
            }
            assert!(prod.hi_tick(0, &mut q));
            prod.push(0, &mut q, frame * 100).unwrap();
            q.flush();
            assert_eq!(cons.pop(0, &mut q), Some(frame * 100));
        }
        let detected = prod.subops().guard_state_detected + cons.subops().guard_state_detected;
        let corrected = prod.subops().guard_state_corrected + cons.subops().guard_state_corrected;
        assert_eq!(detected, 6, "every strike detected");
        assert_eq!(corrected, 6, "every strike out-voted");
        assert_eq!(cons.subops().padded_items, 0, "data stream unharmed");
        assert_eq!(cons.subops().discarded_items, 0);
    }

    /// Strikes on a disabled guard are ignored.
    #[test]
    fn disabled_guard_ignores_strikes() {
        let mut g = CoreGuard::disabled(1, 1);
        g.corrupt_guard_state(42);
        assert_eq!(g.subops().guard_state_detected, 0);
    }

    #[test]
    fn am_state_accessor() {
        let cons = CoreGuard::new(2, 0, &GuardConfig::default(), None);
        assert_eq!(cons.am_state(0), AmState::ExpHdr);
        assert_eq!(cons.am_state(1), AmState::ExpHdr);
    }

    /// A traced run of the lost-item scenario emits the full story:
    /// header insertions, AM transitions, a pad episode, and its end.
    #[test]
    fn tracer_sees_pad_episode_and_headers() {
        use cg_trace::{EventKind, TraceConfig};
        let tracer = TraceConfig::ring().tracer();
        let mut q = queue();
        let mut prod = CoreGuard::new(0, 1, &GuardConfig::default(), Some(2));
        let mut cons = CoreGuard::new(1, 0, &GuardConfig::default(), Some(2));
        prod.attach_tracer(tracer.clone());
        cons.attach_tracer(tracer.clone());
        prod.start();
        cons.start();
        assert!(prod.hi_tick(0, &mut q));
        prod.push(0, &mut q, 100).unwrap();
        prod.scope_boundary();
        assert!(prod.hi_tick(0, &mut q));
        prod.push(0, &mut q, 200).unwrap();
        prod.push(0, &mut q, 201).unwrap();
        q.flush();

        assert_eq!(cons.pop(0, &mut q), Some(100));
        assert_eq!(cons.pop(0, &mut q), Some(0), "lost item padded");
        cons.scope_boundary();
        assert_eq!(cons.pop(0, &mut q), Some(200));
        assert_eq!(cons.pop(0, &mut q), Some(201));

        let data = tracer.finish().expect("enabled");
        assert_eq!(data.counts.count(EventKind::HeaderInserted), 2);
        assert_eq!(data.counts.realign_episodes(), 1, "one pad episode");
        assert_eq!(
            data.counts.realign_episodes(),
            cons.subops().pad_events + cons.subops().discard_events,
            "trace episodes mirror the subop counters"
        );
        assert!(data.counts.count(EventKind::AmTransition) >= 2);
        assert_eq!(
            data.counts.count(EventKind::RealignEnd),
            1,
            "the AM realigned after the pad episode"
        );
        let starts: Vec<_> = data
            .records
            .iter()
            .filter(|r| r.event.kind() == EventKind::RealignStart)
            .collect();
        assert_eq!(
            starts[0].event,
            Event::RealignStart {
                port: 0,
                kind: RealignTag::Pad,
                frame: 0
            }
        );
    }

    /// Forced header insertion is emitted with the `forced` flag.
    #[test]
    fn forced_header_is_traced() {
        use cg_trace::{EventKind, TraceConfig};
        let tracer = TraceConfig::ring().tracer();
        let mut q = SimQueue::new(QueueSpec {
            capacity: 8,
            workset_size: 1,
            pointer_mode: PointerMode::Ecc,
        });
        for i in 0..8u32 {
            q.try_push(Unit::Item(i)).unwrap();
        }
        let mut prod = CoreGuard::new(0, 1, &GuardConfig::default(), None);
        prod.attach_tracer(tracer.clone());
        prod.start();
        assert!(!prod.hi_tick(0, &mut q), "queue full, header pends");
        prod.hi_force(0, &mut q);
        let data = tracer.finish().expect("enabled");
        let inserted: Vec<_> = data
            .records
            .iter()
            .filter(|r| r.event.kind() == EventKind::HeaderInserted)
            .collect();
        assert_eq!(inserted.len(), 1);
        assert_eq!(
            inserted[0].event,
            Event::HeaderInserted {
                port: 0,
                frame: 0,
                forced: true
            }
        );
    }
}
