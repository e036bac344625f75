//! The event queue and the trace it leaves behind.
//!
//! Events are ordered by `(time, sequence)`: the sequence number is the
//! order of scheduling, so ties at the same nanosecond resolve identically
//! on every run. The queue is a binary min-heap over that total order.

use crate::time::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Which leg of a closed-loop transaction an AM downlink frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DownlinkKind {
    /// The carrier's poll, decoded by the tag's envelope detector.
    Poll,
    /// The sink's ack, decoded by the carrier's radio.
    Ack,
}

/// What happens when an event fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A tag's application produced a packet.
    PacketArrival {
        /// Index of the tag.
        tag: usize,
    },
    /// A carrier activates and may grant its slot to a tag.
    CarrierSlot {
        /// Index of the carrier.
        carrier: usize,
    },
    /// A tag's transmission (started in a carrier slot) completes.
    TxEnd {
        /// Index of the tag.
        tag: usize,
        /// Identifier of the in-flight transmission in the medium.
        tx_id: u64,
        /// When the transmission went on the air.
        started: Time,
    },
    /// An AM-OFDM downlink frame of a closed-loop transaction completes:
    /// a carrier's poll or a sink's ack (see
    /// [`crate::mac`] for the transaction structure). Fires at the frame's
    /// end, when the addressed listener decides whether it decoded.
    DownlinkEmission {
        /// Poll or ack.
        kind: DownlinkKind,
        /// The tag whose transaction the frame belongs to.
        tag: usize,
        /// Identifier of the in-flight frame in the medium.
        tx_id: u64,
        /// When the frame went on the air.
        started: Time,
    },
    /// An external coexistence source ([`crate::coex::CoexSource`]) wants
    /// to start its next emission. CSMA-abiding sources re-schedule
    /// themselves with a backoff when the band is busy; the rest go
    /// straight on the air.
    CoexStart {
        /// Index of the source in the scenario's coex config.
        source: usize,
    },
    /// An external emission ends: the medium is released and the source
    /// draws its next arrival from its own RNG stream.
    CoexEnd {
        /// Index of the source in the scenario's coex config.
        source: usize,
        /// Identifier of the in-flight emission in the medium.
        tx_id: u64,
    },
    /// A mobility tick: every mobile entity advances one
    /// [`crate::mobility::Mobility::step`] and the engine refreshes the
    /// dirty [`crate::links::LinkMatrix`] rows. Scheduled on the
    /// integer-nanosecond grid (tick `k` fires at exactly `k · period`),
    /// so the cadence never drifts against the carrier slots.
    MobilityTick,
    /// Sharded execution only ([`crate::shard`]): a cross-cell ghost
    /// interference window starts. The executor injected the aggregate
    /// foreign-cell airtime observed over the previous epoch as one
    /// hidden emission; `ghost` indexes the engine's pending ghost-window
    /// table (band + end time), not a scenario entity.
    GhostStart {
        /// Index into the engine's pending ghost-window table.
        ghost: usize,
    },
    /// A ghost interference window ends: the hidden emission is taken off
    /// the air.
    GhostEnd {
        /// Index into the engine's pending ghost-window table.
        ghost: usize,
        /// Identifier of the in-flight hidden emission in the medium.
        tx_id: u64,
    },
    /// End of the simulated horizon; processing stops here.
    Horizon,
}

/// An event scheduled at a point in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// When the event fires.
    pub at: Time,
    /// Scheduling order, used as a deterministic tie-break.
    pub seq: u64,
    /// What fires.
    pub kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic event queue: pops in `(at, seq)` order, so
/// same-instant events resolve in scheduling order.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Event>>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules `kind` at time `at`.
    pub fn schedule(&mut self, at: Time, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Event { at, seq, kind }));
    }

    /// Pops the earliest event; ties resolve in scheduling order.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|Reverse(e)| e)
    }

    /// Pops the earliest event only if it fires strictly before `limit`;
    /// otherwise leaves the queue intact (the event stays pending) and
    /// returns `None`. This is the epoch gate of the sharded executor
    /// ([`crate::shard`]): a shard drains its queue up to the epoch
    /// boundary, pauses for the cross-shard exchange, and resumes — with
    /// the pop order still the exact `(at, seq)` total order `pop` alone
    /// would produce, which is what keeps epoch chunking invisible in the
    /// trace.
    pub fn pop_before(&mut self, limit: Time) -> Option<Event> {
        match self.heap.peek() {
            Some(Reverse(e)) if e.at < limit => self.pop(),
            _ => None,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// One line of the run's event trace.
///
/// Records are compact, fixed-format strings so two runs can be compared
/// byte-for-byte. Formatting floats is avoided: everything recorded is an
/// integer (times in ns, ids, counters).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// When the recorded step happened.
    pub at: Time,
    /// The formatted description of the step.
    pub what: String,
}

/// The ordered event trace of a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventTrace {
    records: Vec<TraceRecord>,
    enabled: bool,
}

impl EventTrace {
    /// Creates a trace; a disabled trace records nothing (used by the
    /// Monte-Carlo runner and benches, where only metrics matter).
    pub fn new(enabled: bool) -> Self {
        EventTrace {
            records: Vec::new(),
            enabled,
        }
    }

    /// Whether records are being kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Appends a record (no-op when disabled).
    pub fn record(&mut self, at: Time, what: impl FnOnce() -> String) {
        if self.enabled {
            self.records.push(TraceRecord { at, what: what() });
        }
    }

    /// The recorded lines.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Consumes the trace into its records (the sharded executor's merge
    /// input: per-cell traces are interleaved by `(at, cell, index)`).
    pub(crate) fn into_records(self) -> Vec<TraceRecord> {
        self.records
    }

    /// Rebuilds a trace from already-ordered records (the sharded
    /// executor's merge output).
    pub(crate) fn from_records(records: Vec<TraceRecord>, enabled: bool) -> Self {
        EventTrace { records, enabled }
    }

    /// Serializes the trace to one newline-separated byte string, the form
    /// the determinism tests compare.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for r in &self.records {
            out.extend_from_slice(format!("[{:>12}] {}\n", r.at.as_nanos(), r.what).as_bytes());
        }
        out
    }

    /// FNV-1a fingerprint of [`EventTrace::to_bytes`] — what the
    /// digest-checked examples print so two runs are easy to compare by
    /// eye, and what the regression tests pin across refactors. The hash
    /// itself lives in [`crate::trace_digest`], shared with every other
    /// digest-checked surface.
    pub fn digest(&self) -> u64 {
        crate::trace_digest::fnv1a(&self.to_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Time(30), EventKind::Horizon);
        q.schedule(Time(10), EventKind::PacketArrival { tag: 0 });
        q.schedule(Time(20), EventKind::CarrierSlot { carrier: 1 });
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().at, Time(10));
        assert_eq!(q.pop().unwrap().at, Time(20));
        assert_eq!(q.pop().unwrap().at, Time(30));
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn ties_resolve_in_scheduling_order() {
        let mut q = EventQueue::new();
        for tag in 0..100 {
            q.schedule(Time(5), EventKind::PacketArrival { tag });
        }
        for expected in 0..100 {
            let e = q.pop().unwrap();
            assert_eq!(e.kind, EventKind::PacketArrival { tag: expected });
        }
    }

    #[test]
    fn far_future_events_pop_in_order() {
        // A far-future horizon plus interleaved near events: same-instant
        // far-future events pop in scheduling order.
        let mut q = EventQueue::new();
        let horizon = 200_000_000_000u64 + 17;
        q.schedule(Time(horizon), EventKind::Horizon);
        q.schedule(Time(horizon), EventKind::MobilityTick);
        q.schedule(Time(5), EventKind::PacketArrival { tag: 0 });
        q.schedule(Time(horizon - 1), EventKind::CarrierSlot { carrier: 9 });
        assert_eq!(q.pop().unwrap().kind, EventKind::PacketArrival { tag: 0 });
        assert_eq!(q.pop().unwrap().kind, EventKind::CarrierSlot { carrier: 9 });
        let first = q.pop().unwrap();
        assert_eq!((first.at, first.kind), (Time(horizon), EventKind::Horizon));
        let second = q.pop().unwrap();
        assert_eq!(second.kind, EventKind::MobilityTick);
        assert!(second.seq > first.seq, "ties pop in scheduling order");
        assert!(q.pop().is_none());
    }

    #[test]
    fn pop_before_gates_on_the_limit_and_resumes() {
        let mut q = EventQueue::new();
        q.schedule(Time(10), EventKind::PacketArrival { tag: 0 });
        q.schedule(Time(20), EventKind::PacketArrival { tag: 1 });
        q.schedule(Time(20), EventKind::PacketArrival { tag: 2 });
        q.schedule(Time(35), EventKind::Horizon);
        // Epoch [0, 20): only the t=10 event is released.
        assert_eq!(q.pop_before(Time(20)).unwrap().at, Time(10));
        assert!(q.pop_before(Time(20)).is_none());
        assert!(q.pop_before(Time(20)).is_none(), "repeat peeks are stable");
        assert_eq!(q.len(), 3, "gated events stay pending");
        // Epoch [20, 30): both t=20 events, in scheduling order.
        assert_eq!(
            q.pop_before(Time(30)).unwrap().kind,
            EventKind::PacketArrival { tag: 1 }
        );
        assert_eq!(
            q.pop_before(Time(30)).unwrap().kind,
            EventKind::PacketArrival { tag: 2 }
        );
        assert!(q.pop_before(Time(30)).is_none());
        // A plain pop releases the stashed peek.
        assert_eq!(q.pop().unwrap().at, Time(35));
        assert!(q.pop_before(Time(u64::MAX)).is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn pop_before_orders_late_schedules_against_the_stash() {
        let mut q = EventQueue::new();
        q.schedule(Time(100), EventKind::Horizon);
        // Peek stashes the t=100 horizon (limit not reached).
        assert!(q.pop_before(Time(50)).is_none());
        // Events scheduled while stashed — behind the cursor and at the
        // stashed instant — must still pop in (at, seq) order.
        q.schedule(Time(30), EventKind::PacketArrival { tag: 0 });
        q.schedule(Time(100), EventKind::PacketArrival { tag: 1 });
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop_before(Time(50)).unwrap().at, Time(30));
        assert!(q.pop_before(Time(50)).is_none());
        let first = q.pop_before(Time(101)).unwrap();
        assert_eq!((first.at, first.kind), (Time(100), EventKind::Horizon));
        let second = q.pop_before(Time(101)).unwrap();
        assert_eq!(second.kind, EventKind::PacketArrival { tag: 1 });
        assert!(q.is_empty());
    }

    #[test]
    fn epoch_chunked_pops_match_plain_pops() {
        // Driving a queue through pop_before with arbitrary epoch
        // boundaries must release the exact same event sequence as plain
        // pops from a twin queue fed the same stream — chunking is
        // invisible.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for trial in 0..10u64 {
            // detlint: allow(stray_rng): property-test stream fuzzing the epoch gate, not an engine entity
            let mut rng = SmallRng::seed_from_u64(0xE60C ^ trial);
            let mut chunked = EventQueue::new();
            let mut plain = EventQueue::new();
            let mut now = 0u64;
            for step in 0..600usize {
                let at = now + rng.gen_range(0u64..200_000);
                chunked.schedule(Time(at), EventKind::PacketArrival { tag: step });
                plain.schedule(Time(at), EventKind::PacketArrival { tag: step });
                if rng.gen_bool(0.4) {
                    // Drain one epoch: everything before a random limit.
                    let limit = now + rng.gen_range(1u64..300_000);
                    while let Some(e) = chunked.pop_before(Time(limit)) {
                        assert!(e.at < Time(limit));
                        assert_eq!(Some(e), plain.pop(), "trial {trial} diverged");
                        now = now.max(e.at.0);
                    }
                    assert_eq!(
                        chunked.len(),
                        plain.len(),
                        "trial {trial}: gated events stay"
                    );
                    now = now.max(limit);
                }
            }
            loop {
                let (a, b) = (chunked.pop_before(Time(u64::MAX)), plain.pop());
                assert_eq!(a, b, "trial {trial} drain diverged");
                if a.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn schedule_behind_the_cursor_pops_first() {
        let mut q = EventQueue::new();
        q.schedule(Time(1000), EventKind::Horizon);
        q.schedule(Time(100), EventKind::PacketArrival { tag: 0 });
        assert_eq!(q.pop().unwrap().at, Time(100));
        // The cursor now sits at 100; a late event behind it still pops
        // before everything pending.
        q.schedule(Time(50), EventKind::PacketArrival { tag: 1 });
        q.schedule(Time(60), EventKind::PacketArrival { tag: 2 });
        assert_eq!(q.pop().unwrap().at, Time(50));
        assert_eq!(q.pop().unwrap().at, Time(60));
        assert_eq!(q.pop().unwrap().at, Time(1000));
    }

    #[test]
    fn trace_serializes_and_respects_enable() {
        let mut on = EventTrace::new(true);
        on.record(Time(7), || "tag 1 tx".to_string());
        assert_eq!(on.records().len(), 1);
        let bytes = on.to_bytes();
        assert!(String::from_utf8(bytes.clone())
            .unwrap()
            .contains("tag 1 tx"));

        let mut off = EventTrace::new(false);
        off.record(Time(7), || "tag 1 tx".to_string());
        assert!(off.records().is_empty());
        assert!(off.to_bytes().is_empty());
        assert_ne!(bytes, off.to_bytes());
    }
}
