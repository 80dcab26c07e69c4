//! The controller's stages replayed serially on one thread through their
//! public building blocks, each stage timed: session dedup
//! (`CollectionSession`), recovery (`ReliabilityDriver::complete_session`),
//! scatter (`ShardScatter`), shard fold (`MergeTable::insert_block`) and
//! eviction (`MergeTable::evict_oldest`). This is what the live router
//! and its shard workers do per window, minus the queues and threads, so
//! its fold digest must equal the threaded one.

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use ow_common::afr::FlowRecord;
use ow_common::block::{RecordBlock, ShardScatter, DEFAULT_BLOCK_CAPACITY};
use ow_common::hash::ShardPartition;
use ow_common::metrics::ReliabilityMetrics;
use ow_controller::collector::CollectionSession;
use ow_controller::reliability::{FnTransport, ReliabilityDriver, RetryPolicy};
use ow_controller::table::MergeTable;
use ow_controller::wire::encode_merged;

use crate::pass::{fnv1a, OS_READ_LATENCY, SHARDS, SPAN};

/// One window as the controller receives it.
pub struct SerialWindow {
    /// Sub-window id.
    pub id: u32,
    /// The exact batch (what recovery replays).
    pub exact: Arc<[FlowRecord]>,
    /// What survived the channel, as the blocks the feeder sends.
    pub blocks: Vec<RecordBlock>,
}

impl SerialWindow {
    /// Window `id` of batch `exact`, of which `arrived` reached the
    /// controller (in arrival order, duplicates included).
    pub fn new(id: u32, exact: Arc<[FlowRecord]>, arrived: &[FlowRecord]) -> SerialWindow {
        SerialWindow {
            id,
            blocks: arrived
                .chunks(DEFAULT_BLOCK_CAPACITY)
                .map(|c| RecordBlock::from_records(id, c))
                .collect(),
            exact,
        }
    }
}

/// Stage totals of one serial replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct SerialStages {
    /// `receive_block` over the arrived blocks, plus `into_block`.
    pub session_ns: u64,
    /// `complete_session` (retransmit rounds, OS read).
    pub complete_ns: u64,
    /// `ShardScatter` begin/push/seal.
    pub scatter_ns: u64,
    /// `MergeTable::insert_block` on every shard.
    pub fold_ns: u64,
    /// `MergeTable::evict_oldest` on every shard.
    pub evict_ns: u64,
    /// Wall time of the whole replay.
    pub wall_ns: u64,
    /// Records merged.
    pub records: u64,
    /// Windows merged.
    pub windows: u64,
}

impl SerialStages {
    /// Sum of the timed stages.
    pub fn stages_ns(&self) -> u64 {
        self.session_ns + self.complete_ns + self.scatter_ns + self.fold_ns + self.evict_ns
    }

    /// Accumulate another replay.
    pub fn add(&mut self, o: &SerialStages) {
        self.session_ns += o.session_ns;
        self.complete_ns += o.complete_ns;
        self.scatter_ns += o.scatter_ns;
        self.fold_ns += o.fold_ns;
        self.evict_ns += o.evict_ns;
        self.wall_ns += o.wall_ns;
        self.records += o.records;
        self.windows += o.windows;
    }
}

fn lap(t: &mut Instant) -> u64 {
    let now = Instant::now();
    let ns = now.duration_since(*t).as_nanos() as u64;
    *t = now;
    ns
}

/// Replay `windows` serially; returns the stage times and the fold digest.
/// Windows in `dead` get no retransmissions and escalate to an OS read.
pub fn replay(windows: &[SerialWindow], dead: &HashSet<u32>) -> (SerialStages, u64) {
    let partition = ShardPartition::new(SHARDS);
    let driver = ReliabilityDriver::new(RetryPolicy::default());
    let mut tables: Vec<MergeTable> = (0..SHARDS)
        .map(|_| MergeTable::with_capacity(4096))
        .collect();
    let mut scatter = ShardScatter::new(partition, DEFAULT_BLOCK_CAPACITY);
    let mut scattered: Vec<(usize, RecordBlock, bool)> = Vec::new();
    let mut merged: VecDeque<u32> = VecDeque::new();
    let mut st = SerialStages::default();
    let started = Instant::now();
    for w in windows {
        let mut t = Instant::now();
        let mut session = CollectionSession::new(w.id, w.exact.len() as u32);
        let mut metrics = ReliabilityMetrics {
            announced: w.exact.len() as u64,
            ..ReliabilityMetrics::default()
        };
        for block in &w.blocks {
            session
                .receive_block(block)
                .expect("blocks belong to their window");
        }
        st.session_ns += lap(&mut t);
        let exact = &w.exact;
        let is_dead = dead.contains(&w.id);
        driver.complete_session(
            &mut session,
            &mut metrics,
            &mut FnTransport {
                retransmit: |_, seqs: &[u32]| {
                    if is_dead {
                        Vec::new()
                    } else {
                        seqs.iter().map(|&s| exact[s as usize]).collect()
                    }
                },
                os_read: |_| {
                    (
                        exact.to_vec(),
                        ow_common::time::Duration::from_nanos(OS_READ_LATENCY.as_nanos() as u64),
                    )
                },
            },
        );
        st.complete_ns += lap(&mut t);
        let block = session.into_block();
        st.session_ns += lap(&mut t);
        scatter.begin(w.id);
        scatter.push_block(&block, |s, b, open| scattered.push((s, b, open)));
        scatter.seal(|s, b, open| scattered.push((s, b, open)));
        st.scatter_ns += lap(&mut t);
        for (s, b, open) in scattered.drain(..) {
            tables[s].insert_block(b, open);
        }
        st.fold_ns += lap(&mut t);
        merged.push_back(w.id);
        while merged.len() > SPAN {
            merged.pop_front();
            for table in &mut tables {
                table.evict_oldest();
            }
        }
        st.evict_ns += lap(&mut t);
        st.records += w.exact.len() as u64;
        st.windows += 1;
    }
    st.wall_ns = started.elapsed().as_nanos() as u64;
    let mut snapshot: Vec<_> = tables.iter().flat_map(MergeTable::snapshot).collect();
    snapshot.sort_by_key(|(k, _)| k.as_u128());
    (st, fnv1a(&encode_merged(&snapshot)))
}
