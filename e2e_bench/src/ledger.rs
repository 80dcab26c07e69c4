//! The feeder thread's per-layer ledger: wall time of every call the
//! benchmark makes into a layer's public function, recorded only in a
//! traced run. Layers are disjoint calls on one thread, so their sum can
//! never exceed the feeder's wall time; the gap is the benchmark's own
//! glue, which the traced run bounds (see `LEDGER_TOLERANCE`).

use std::time::{Duration, Instant};

/// Share of the feeder's (and the serial replay's) wall time the timed
/// calls may leave uncovered in a traced run: coverage must be at least
/// `1 - LEDGER_TOLERANCE`.
pub const LEDGER_TOLERANCE: f64 = 0.10;

/// A timed call site on the feeder thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Switch::process` calls that emit no AFR batch.
    SwitchUpdate,
    /// `Switch::process` / `Switch::flush` calls that emit one (C&R).
    SwitchCr,
    /// `LossyChannel::transmit`.
    Channel,
    /// `RecordBlock::from_records`.
    Block,
    /// Blocked in `Sender::send` (controller backpressure).
    SendWait,
    /// Inserting a batch into the switch-OS retained store the recovery
    /// callbacks read (a `HashMap` insert under its lock).
    Store,
    /// `AccuracyScorer::feed_truth_shared`.
    FeedTruth,
    /// `HealthEngine::tick`.
    HealthTick,
    /// `LiveHandle::subwindows` (the close observer's poll).
    Poll,
    /// `LiveHandle::flows_over` (the window query).
    Query,
    /// Sleeping: pacing, or waiting for the last windows to merge.
    Idle,
    /// `ReliableLiveController::join`.
    Join,
    /// `AccuracyScorer::quiesce`.
    Quiesce,
}

const LAYERS: usize = 13;

/// Accumulated cost of one layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Slot {
    /// Wall nanoseconds inside the layer's calls.
    pub ns: u64,
    /// Calls made.
    pub calls: u64,
    /// Work items (records, packets) the calls carried.
    pub items: u64,
}

/// Per-layer accumulators; a no-op unless `on`.
#[derive(Debug)]
pub struct Ledger {
    on: bool,
    slots: [Slot; LAYERS],
    query_ns: Vec<u64>,
}

impl Ledger {
    /// A ledger that records when `on`.
    pub fn new(on: bool) -> Ledger {
        Ledger {
            on,
            slots: [Slot::default(); LAYERS],
            query_ns: Vec::new(),
        }
    }

    /// Turn recording on or off (the traced run alternates).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Whether the ledger is recording.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Time `f` as one call into `layer` carrying `items`.
    #[inline]
    pub fn time<R>(&mut self, layer: Layer, items: u64, f: impl FnOnce() -> R) -> R {
        let started = self.start();
        let out = f();
        self.stop(started, layer, items);
        out
    }

    /// Start a manual timing (`None` when not recording).
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    /// Charge the time since `started` to `layer`.
    #[inline]
    pub fn stop(&mut self, started: Option<Instant>, layer: Layer, items: u64) {
        if let Some(t) = started {
            self.charge(layer, t.elapsed(), items);
        }
    }

    /// Charge the time since `mark` to `layer` and restart `mark` — one
    /// clock read per call for back-to-back calls such as per-packet
    /// switch updates.
    #[inline]
    pub fn lap(&mut self, mark: &mut Option<Instant>, layer: Layer, items: u64) {
        if let Some(t) = mark {
            let now = Instant::now();
            self.charge(layer, now.duration_since(*t), items);
            *t = now;
        }
    }

    fn charge(&mut self, layer: Layer, spent: Duration, items: u64) {
        if !self.on {
            return;
        }
        let ns = spent.as_nanos() as u64;
        let slot = &mut self.slots[layer as usize];
        slot.ns += ns;
        slot.calls += 1;
        slot.items += items;
        if layer == Layer::Query {
            self.query_ns.push(ns);
        }
    }

    /// One layer's totals.
    pub fn slot(&self, layer: Layer) -> Slot {
        self.slots[layer as usize]
    }

    /// Wall nanoseconds covered by all timed calls.
    pub fn total_ns(&self) -> u64 {
        self.slots.iter().map(|s| s.ns).sum()
    }

    /// Durations of each `flows_over` call, in nanoseconds.
    pub fn query_ns(&self) -> &[u64] {
        &self.query_ns
    }
}

/// `slot.ns / slot.items` (0 when the layer carried nothing).
pub fn ns_per_item(slot: Slot) -> f64 {
    if slot.items == 0 {
        0.0
    } else {
        slot.ns as f64 / slot.items as f64
    }
}

/// `slot.ns / slot.calls` (0 when the layer was never called).
pub fn ns_per_call(slot: Slot) -> f64 {
    if slot.calls == 0 {
        0.0
    } else {
        slot.ns as f64 / slot.calls as f64
    }
}
