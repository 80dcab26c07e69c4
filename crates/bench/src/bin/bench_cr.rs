//! `bench_cr` — collect-and-reset merge throughput across shard counts,
//! on the batched block path.
//!
//! Feeds one identical, deterministic AFR workload through the live
//! sharded controller at shards ∈ {1, 2, 4, 8} as columnar
//! [`RecordBlock`] streams (one queue send per block), measures the
//! end-to-end merge rate (records routed, scattered, block-folded, and
//! slide-evicted per second), and asserts the deterministic final fold
//! is **byte-identical** to an independent single-threaded *per-record*
//! reference fold before reporting anything — a perf number for a wrong
//! answer is worthless.
//!
//! Writes `results/bench_cr.json` (override with `--json <path>`), the
//! perf-trajectory baseline later PRs compare against. The pre-block
//! (PR 3) trajectory is pinned in `results/bench_cr_pr3.json`.

use std::collections::HashMap;
use std::time::Instant;

use omniwindow::experiments::Scale;
use ow_bench::{cr_workload, Cli};
use ow_common::afr::{AttrValue, FlowRecord};
use ow_common::block::{RecordBlock, DEFAULT_BLOCK_CAPACITY};
use ow_common::flowkey::FlowKey;
use ow_controller::live::{ReliableLiveController, ReliableMsg};
use ow_controller::reliability::RetryPolicy;
use ow_controller::wire::encode_merged;
use serde::Serialize;

/// One shard count's measurement.
#[derive(Debug, Clone, Serialize)]
struct ShardRow {
    /// Merge shards (worker threads) behind the controller.
    shards: usize,
    /// AFR records pushed through the pipeline.
    records: u64,
    /// Wall-clock for ingest + drain, milliseconds.
    wall_ms: f64,
    /// `records / wall` — the merge throughput.
    records_per_sec: f64,
    /// Flows in the final merged view.
    merged_flows: usize,
    /// Whether the encoded final fold equals the per-record reference.
    byte_identical: bool,
}

/// The whole `bench_cr` result set.
#[derive(Debug, Clone, Serialize)]
struct BenchCr {
    /// Sub-windows in the workload.
    subwindows: u32,
    /// Sliding-window span (sub-windows retained).
    window_span: usize,
    /// Records per sub-window.
    records_per_subwindow: u32,
    /// Distinct flow keys in the population.
    key_population: u32,
    /// Records per block on the wire.
    block_capacity: usize,
    /// Encoded size of the deterministic final fold, bytes.
    snapshot_bytes: usize,
    /// Per-shard-count measurements.
    rows: Vec<ShardRow>,
}

/// The independent correctness oracle: a strictly per-record,
/// single-threaded fold of the same sliding window, sharing no code
/// with the block pipeline. The workload is frequency-only, so merge is
/// saturating add and eviction is saturating subtract + refcount drop.
fn reference_fold(batches: &[Vec<FlowRecord>], span: usize) -> Vec<u8> {
    let mut table: HashMap<FlowKey, (u64, u32)> = HashMap::new();
    let mut window: std::collections::VecDeque<&Vec<FlowRecord>> = Default::default();
    for batch in batches {
        for rec in batch {
            let AttrValue::Frequency(n) = rec.attr else {
                panic!("cr_workload is frequency-only");
            };
            let e = table.entry(rec.key).or_insert((0, 0));
            e.0 = e.0.saturating_add(n);
            e.1 += 1;
        }
        window.push_back(batch);
        while window.len() > span {
            let evicted = window.pop_front().expect("non-empty");
            for rec in evicted {
                let AttrValue::Frequency(n) = rec.attr else {
                    unreachable!()
                };
                let e = table.get_mut(&rec.key).expect("evicted key present");
                e.1 -= 1;
                if e.1 == 0 {
                    table.remove(&rec.key);
                } else {
                    e.0 = e.0.saturating_sub(n);
                }
            }
        }
    }
    let mut fold: Vec<(FlowKey, AttrValue)> = table
        .into_iter()
        .map(|(k, (sum, _))| (k, AttrValue::Frequency(sum)))
        .collect();
    fold.sort_by_key(|(k, _)| k.as_u128());
    encode_merged(&fold).to_vec()
}

/// Pre-build the block stream for one run so the timed loop measures
/// the pipeline, not message construction: each sub-window is
/// announced, streamed as blocks, and ended.
fn build_messages(batches: &[Vec<FlowRecord>], capacity: usize) -> Vec<ReliableMsg> {
    let mut msgs = Vec::new();
    for (sw, afrs) in batches.iter().enumerate() {
        let subwindow = sw as u32;
        msgs.push(ReliableMsg::Announce {
            subwindow,
            announced: afrs.len() as u32,
        });
        for chunk in afrs.chunks(capacity.max(1)) {
            msgs.push(ReliableMsg::AfrBlock(RecordBlock::from_records(
                subwindow, chunk,
            )));
        }
        msgs.push(ReliableMsg::EndOfStream { subwindow });
    }
    msgs
}

fn main() {
    let mut cli = Cli::parse();
    // This binary's JSON artifact is the point: default the dump path
    // so CI and local runs refresh the committed baseline.
    if cli.json.is_none() {
        cli.json = Some("results/bench_cr.json".into());
    }
    let (subwindows, records, population) = match cli.scale {
        Scale::Tiny | Scale::Small => (12u32, 5_000u32, 2_048u32),
        Scale::Paper => (24u32, 40_000u32, 16_384u32),
    };
    let window_span = 8usize;
    let batches = cr_workload(subwindows, records, population, cli.seed);
    let total_records = u64::from(subwindows) * u64::from(records);
    let reference = reference_fold(&batches, window_span);
    let messages = build_messages(&batches, DEFAULT_BLOCK_CAPACITY);

    eprintln!(
        "running bench_cr: {subwindows} sub-windows × {records} AFRs, span {window_span}, \
         blocks of {DEFAULT_BLOCK_CAPACITY}, shards 1/2/4/8…"
    );

    let mut rows: Vec<ShardRow> = Vec::new();
    let mut snapshot_bytes = 0usize;
    for shards in [1usize, 2, 4, 8] {
        // Best of 3: the container's wall clock is noisy, and the
        // trajectory file feeds cross-PR comparisons — every rep still
        // asserts byte-identity.
        let mut best_wall = f64::INFINITY;
        let mut merged_flows = 0usize;
        for _ in 0..3 {
            let run = messages.clone();
            // A lossless feed: nothing to retransmit, never an escalation.
            let ctl = ReliableLiveController::spawn_sharded(
                window_span,
                256,
                RetryPolicy::default(),
                Box::new(|_, _| Vec::new()),
                Box::new(|_| panic!("a lossless run never escalates")),
                shards,
            );
            let started = Instant::now();
            for msg in run {
                ctl.sender.send(msg).expect("controller alive");
            }
            let handle = ctl.handle.clone();
            let metrics = ctl.join();
            let wall = started.elapsed().as_secs_f64();
            assert_eq!(
                metrics.first_pass, total_records,
                "every record merged on the first pass"
            );

            let fold = encode_merged(&handle.snapshot()).to_vec();
            snapshot_bytes = fold.len();
            assert!(
                fold == reference,
                "{shards}-shard block fold diverged from the per-record reference"
            );
            best_wall = best_wall.min(wall);
            merged_flows = handle.merged_flows();
        }
        rows.push(ShardRow {
            shards,
            records: total_records,
            wall_ms: best_wall * 1e3,
            records_per_sec: total_records as f64 / best_wall,
            merged_flows,
            byte_identical: true,
        });
    }

    println!("bench_cr: sharded C&R block-path merge throughput (byte-identity asserted)\n");
    println!(
        "  {:>6} {:>12} {:>10} {:>14} {:>12}",
        "shards", "records", "wall ms", "records/s", "merged flows"
    );
    for r in &rows {
        println!(
            "  {:>6} {:>12} {:>10.1} {:>14.0} {:>12}",
            r.shards, r.records, r.wall_ms, r.records_per_sec, r.merged_flows
        );
    }

    let result = BenchCr {
        subwindows,
        window_span,
        records_per_subwindow: records,
        key_population: population,
        block_capacity: DEFAULT_BLOCK_CAPACITY,
        snapshot_bytes,
        rows,
    };
    cli.dump(&result);
}
