//! Exp#4 (Figure 10): controller time-usage breakdown.
//!
//! Measures the wall-clock time of the controller operations over one
//! complete window of five sub-windows, for both tumbling and sliding
//! reconstruction, using Q1-scale AFR batches. Every timer wraps the
//! production path the live controller runs:
//!
//! * **O1 collect** — [`CollectionSession`]: stage the batch as a
//!   [`RecordBlock`], run the sequence-id check, and take the complete
//!   block,
//! * **O2+O3 insert+merge** — [`MergeTable::insert_block`]. One timer,
//!   because the production fold resolves every row's slot and folds
//!   the attribute lane inside a single call,
//! * **O4 process** — [`MergeTable::flows_over`], once per complete
//!   window for tumbling (which then releases the table with
//!   [`MergeTable::clear`]), after every sub-window for sliding,
//! * **O5 evict** — [`MergeTable::evict_oldest`] (sliding only).

use std::hint::black_box;
use std::time::Instant;

use serde::Serialize;

use ow_common::afr::FlowRecord;
use ow_common::block::RecordBlock;
use ow_common::flowkey::FlowKey;
use ow_common::hash::mix64;
use ow_controller::{CollectionSession, MergeTable};

/// One sub-window's measured breakdown, in microseconds.
#[derive(Debug, Clone, Default, Serialize)]
pub struct BreakdownRow {
    /// Sub-window label (sw1…).
    pub subwindow: u32,
    /// O1 collect µs.
    pub o1_collect: f64,
    /// O2+O3 insert+merge µs.
    pub o23_insert_merge: f64,
    /// O4 process µs.
    pub o4_process: f64,
    /// O5 evict µs.
    pub o5_evict: f64,
}

impl BreakdownRow {
    /// Total µs.
    pub fn total(&self) -> f64 {
        self.o1_collect + self.o23_insert_merge + self.o4_process + self.o5_evict
    }
}

/// The whole experiment.
#[derive(Debug, Clone, Serialize)]
pub struct Exp4Result {
    /// Tumbling-window rows (five sub-windows).
    pub tumbling: Vec<BreakdownRow>,
    /// Sliding-window rows.
    pub sliding: Vec<BreakdownRow>,
}

/// Build one sub-window's AFR batch with `flows` records. Roughly 70% of
/// flows persist across sub-windows (the merge-heavy case) and 30% are
/// new — matching the churn the paper's trace shows.
fn batch(subwindow: u32, flows: usize, seed: u64) -> Vec<FlowRecord> {
    (0..flows)
        .map(|i| {
            let persistent = i < flows * 7 / 10;
            let id = if persistent {
                i as u64
            } else {
                mix64(seed ^ subwindow as u64 ^ i as u64) | 0x8000_0000
            };
            let mut r = FlowRecord::frequency(
                FlowKey::src_ip((id as u32) | 0x0A00_0000),
                1 + (mix64(id) % 50),
                subwindow,
            );
            r.seq = i as u32;
            r
        })
        .collect()
}

/// Microseconds elapsed since `t`.
fn micros_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Run Exp#4 with `flows_per_subwindow` AFRs per sub-window (the paper's
/// sub-windows carry 64 K–96 K flows).
pub fn run(flows_per_subwindow: usize, subwindows: u32, seed: u64) -> Exp4Result {
    let threshold = 100.0;
    let spw = 5usize;

    let run_mode = |sliding: bool| -> Vec<BreakdownRow> {
        // Pre-sized for a full window of distinct keys, like the
        // paper's `rte_hash`: the hot path never rehashes.
        let mut table = MergeTable::with_capacity(flows_per_subwindow * spw);
        let mut retained = 0usize;
        let mut rows = Vec::new();
        for sw in 0..subwindows {
            let b = batch(sw, flows_per_subwindow, seed);
            let mut row = BreakdownRow {
                subwindow: sw + 1,
                ..BreakdownRow::default()
            };

            let t = Instant::now();
            let mut session = CollectionSession::new(sw, b.len() as u32);
            session
                .receive_block(&RecordBlock::from_records(sw, &b))
                .expect("the batch belongs to its own sub-window");
            let block = session.into_block();
            row.o1_collect = micros_since(t);

            let t = Instant::now();
            table.insert_block(block, true);
            row.o23_insert_merge = micros_since(t);
            retained += 1;

            if retained >= spw {
                let t = Instant::now();
                black_box(table.flows_over(threshold));
                row.o4_process = micros_since(t);
                if sliding {
                    let t = Instant::now();
                    table.evict_oldest();
                    row.o5_evict = micros_since(t);
                    retained -= 1;
                } else {
                    table.clear();
                    retained = 0;
                }
            }
            rows.push(row);
        }
        rows
    };

    Exp4Result {
        tumbling: run_mode(false),
        sliding: run_mode(true),
    }
}

impl Exp4Result {
    /// Mean total µs per sub-window for a mode's rows.
    pub fn mean_total(rows: &[BreakdownRow]) -> f64 {
        if rows.is_empty() {
            return 0.0;
        }
        rows.iter().map(|r| r.total()).sum::<f64>() / rows.len() as f64
    }
}
