//! A live, threaded switch→controller deployment with a sharded merge
//! path.
//!
//! The simulation experiments run single-threaded on virtual time, but a
//! real deployment has the data plane and the controller on different
//! processors connected by a message stream. This module provides that
//! runtime shape as one controller, [`ReliableLiveController`], running
//! the §8 loop of the paper:
//!
//! * A **router thread** receives [`ReliableMsg`]s over a bounded
//!   crossbeam channel. The trigger packet announces a sub-window's AFR
//!   count, columnar [`RecordBlock`]s stream in, and at end of stream
//!   the router checks completeness, retransmits or escalates what is
//!   missing, and only then merges. A lossless stream is the same loop
//!   with nothing to recover. The router drives each window's
//!   lifecycle through the shared [`WindowEngine`] (merged → released
//!   on slide-eviction) and scatters the complete batch by flow-key hash
//!   into capacity-bounded per-shard blocks — one queue send per
//!   *block*, not per record.
//! * **`N` shard workers** (one thread per shard) each own a disjoint
//!   key slice in their own lock-protected [`MergeTable`] and fold whole
//!   blocks ([`MergeTable::insert_block`]). Every worker receives every
//!   sub-window — empty blocks where it owns no keys — so sliding-window
//!   evictions stay synchronized across shards.
//!   [`ReliableLiveController::spawn`] takes `N` from the `OW_SHARDS`
//!   environment variable (default 1).
//!
//! Queries read the shard tables concurrently through the
//! [`LiveHandle`]; its [`LiveHandle::snapshot`] is the deterministic
//! final fold (canonical key order), byte-identical under
//! `wire::encode_merged` at any shard count.
//!
//! Back-pressure is explicit at both boundaries: `sender.send` blocks
//! when the router queue is full (as a NIC queue would), and the
//! non-blocking [`ReliableLiveController::offer`] instead rejects and
//! counts the drop — there is no silent loss path.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::RwLock;

use ow_common::afr::{AttrValue, FlowRecord};
use ow_common::block::{RecordBlock, ShardScatter, DEFAULT_BLOCK_CAPACITY};
use ow_common::engine::{WindowEngine, WindowEvent, WindowPhase};
use ow_common::flowkey::FlowKey;
use ow_common::hash::ShardPartition;
use ow_common::metrics::ReliabilityMetrics;
use ow_common::time::Duration;
use ow_obs::{Counter, Event, Gauge, Obs, TraceContext, Traced};

use crate::collector::CollectionSession;
use crate::reliability::{FnTransport, ReliabilityDriver, RetryPolicy};
use crate::table::MergeTable;

/// Parse a shard-count override (the `OW_SHARDS` value). Unset or
/// unparsable means 1; zero clamps to 1 (a partition needs a shard).
fn parse_shards(value: Option<&str>) -> usize {
    value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map_or(1, |n| n.max(1))
}

/// The shard count configured for this process via `OW_SHARDS`.
///
/// This is what [`ReliableLiveController::spawn`] uses, so the CI matrix
/// can exercise the whole test suite at several shard counts without
/// touching call sites.
pub fn shards_from_env() -> usize {
    parse_shards(std::env::var("OW_SHARDS").ok().as_deref())
}

/// A message from the router to one shard worker.
enum ShardMsg {
    /// One scattered block of this shard's slice of a sub-window's
    /// stream (possibly empty — every shard sees every sub-window so
    /// evictions stay aligned). `open` flags the sub-window's first
    /// block on this shard: it starts a new evictable unit.
    Block { block: RecordBlock, open: bool },
    /// Sliding-window advance: retire the oldest sub-window.
    Evict,
    /// Drain and exit.
    Shutdown,
}

/// The shard worker pool: `N` threads, each folding its disjoint key
/// slice into its own merge table.
struct ShardPool {
    tables: Vec<Arc<RwLock<MergeTable>>>,
    senders: Vec<Sender<ShardMsg>>,
    workers: Vec<JoinHandle<u64>>,
    partition: ShardPartition,
    /// Per-shard queue-depth gauges
    /// (`ow_controller_shard_queue_depth{shard=…}`): incremented by the
    /// router on every send, decremented by the worker as it dequeues,
    /// so the live value is the worker's backlog and the value after
    /// `shutdown()` is deterministically zero.
    depth_gauges: Option<Vec<Gauge>>,
    /// Per-shard queued-*record* gauges
    /// (`ow_controller_shard_queue_records{shard=…}`): the router adds a
    /// block's row count on send, the worker subtracts it on dequeue —
    /// depth counts messages, this counts payload.
    record_gauges: Option<Vec<Gauge>>,
    /// Blocks routed to shard workers (`ow_controller_blocks_total`).
    block_counter: Option<Counter>,
    /// Records routed to shard workers (`ow_controller_records_total`).
    record_counter: Option<Counter>,
}

impl ShardPool {
    fn spawn(shards: usize, queue_depth: usize, obs: Option<&Obs>) -> ShardPool {
        let partition = ShardPartition::new(shards);
        let per_shard_gauges = |name: &'static str| {
            obs.map(|o| {
                (0..shards)
                    .map(|i| o.gauge(name, &[("shard", &i.to_string())]))
                    .collect::<Vec<Gauge>>()
            })
        };
        let depth_gauges = per_shard_gauges("ow_controller_shard_queue_depth");
        let record_gauges = per_shard_gauges("ow_controller_shard_queue_records");
        let block_counter = obs.map(|o| o.counter("ow_controller_blocks_total", &[]));
        let record_counter = obs.map(|o| o.counter("ow_controller_records_total", &[]));
        let mut tables = Vec::with_capacity(shards);
        let mut senders = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for shard in 0..shards {
            // Pre-sized: the open-addressing fast path starts at a few
            // thousand slots so steady-state ingest never rehashes.
            let table = Arc::new(RwLock::new(MergeTable::with_capacity(4096)));
            let (tx, rx): (Sender<ShardMsg>, Receiver<ShardMsg>) = bounded(queue_depth.max(1));
            let worker_table = table.clone();
            let depth = depth_gauges.as_ref().map(|g| g[shard].clone());
            let records = record_gauges.as_ref().map(|g| g[shard].clone());
            workers.push(std::thread::spawn(move || {
                let mut blocks = 0u64;
                while let Ok(msg) = rx.recv() {
                    if let Some(g) = &depth {
                        g.dec();
                    }
                    match msg {
                        ShardMsg::Block { block, open } => {
                            if let Some(g) = &records {
                                g.sub(block.len() as u64);
                            }
                            worker_table.write().insert_block(block, open);
                            blocks += 1;
                        }
                        ShardMsg::Evict => {
                            worker_table.write().evict_oldest();
                        }
                        ShardMsg::Shutdown => break,
                    }
                }
                blocks
            }));
            tables.push(table);
            senders.push(tx);
        }
        ShardPool {
            tables,
            senders,
            workers,
            partition,
            depth_gauges,
            record_gauges,
            block_counter,
            record_counter,
        }
    }

    fn mark_sent(&self, shard: usize) {
        if let Some(gauges) = &self.depth_gauges {
            gauges[shard].inc();
        }
    }

    /// Send one scattered block to its shard worker. Blocking send: a
    /// full worker queue back-pressures the router rather than dropping.
    fn send_block(&self, shard: usize, block: RecordBlock, open: bool) {
        self.mark_sent(shard);
        if let Some(gauges) = &self.record_gauges {
            gauges[shard].add(block.len() as u64);
        }
        if let Some(c) = &self.block_counter {
            c.inc();
        }
        if let Some(c) = &self.record_counter {
            c.add(block.len() as u64);
        }
        let _ = self.senders[shard].send(ShardMsg::Block { block, open });
    }

    /// Scatter one complete sub-window block across the shards.
    fn insert_block(&self, block: &RecordBlock) {
        let mut scatter = ShardScatter::new(self.partition, DEFAULT_BLOCK_CAPACITY);
        scatter.begin(block.subwindow());
        scatter.push_block(block, |shard, b, open| self.send_block(shard, b, open));
        scatter.seal(|shard, b, open| self.send_block(shard, b, open));
    }

    /// Retire the oldest sub-window on every shard.
    fn evict(&self) {
        for (shard, tx) in self.senders.iter().enumerate() {
            self.mark_sent(shard);
            let _ = tx.send(ShardMsg::Evict);
        }
    }

    /// Stop the workers and wait for their queues to drain, so every
    /// insert is visible once the router thread returns.
    fn shutdown(self) {
        for (shard, tx) in self.senders.iter().enumerate() {
            self.mark_sent(shard);
            let _ = tx.send(ShardMsg::Shutdown);
        }
        drop(self.senders);
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// Shared handle for querying the live sharded merge tables.
///
/// Each query takes the shard read locks one at a time, so a query
/// concurrent with ingest sees an eventually-consistent view — exactly
/// what a live telemetry dashboard reads. After `join()` the view is
/// final.
#[derive(Debug, Clone)]
pub struct LiveHandle {
    tables: Vec<Arc<RwLock<MergeTable>>>,
    partition: ShardPartition,
    window_subwindows: usize,
    dropped: Arc<AtomicU64>,
    drop_counter: Option<Counter>,
}

impl LiveHandle {
    /// Count one rejected `offer` on both the handle and, when attached,
    /// the registry (`ow_controller_backpressure_dropped_total`).
    ///
    /// The unit is *records*: a rejected block loses its whole payload,
    /// so it charges its row count, not 1 — otherwise batching would
    /// silently deflate the loss accounting.
    fn count_drop(&self, records: u64) {
        self.dropped.fetch_add(records, Ordering::Relaxed);
        if let Some(c) = &self.drop_counter {
            c.add(records);
        }
    }
}

/// How many records a rejected message loses — the unit the
/// backpressure accounting charges. Payload-free control messages count
/// one, as does a degenerate empty block (the message itself is lost).
fn reliable_msg_records(msg: &ReliableMsg) -> u64 {
    match msg {
        ReliableMsg::AfrBlock(block) => (block.len() as u64).max(1),
        ReliableMsg::Traced(traced) => reliable_msg_records(&traced.payload),
        _ => 1,
    }
}

impl LiveHandle {
    /// Flows whose merged scalar is at least `threshold`, right now,
    /// folded across shards in canonical key order.
    pub fn flows_over(&self, threshold: f64) -> Vec<(FlowKey, f64)> {
        let mut out: Vec<(FlowKey, f64)> = self
            .tables
            .iter()
            .flat_map(|t| t.read().flows_over(threshold))
            .collect();
        out.sort_by_key(|(k, _)| k.as_u128());
        out
    }

    /// Number of flows currently merged (summed over shards — key
    /// slices are disjoint, so this never double-counts).
    pub fn merged_flows(&self) -> usize {
        self.tables.iter().map(|t| t.read().len()).sum()
    }

    /// The merged statistic for one flow, served by its owning shard.
    pub fn merged_value(&self, key: &FlowKey) -> Option<AttrValue> {
        self.tables[self.partition.shard_of(key)].read().get(key)
    }

    /// The sub-windows currently contributing to the table. Every shard
    /// holds the same list (empty slices keep them aligned), so shard 0
    /// answers.
    pub fn subwindows(&self) -> Vec<u32> {
        self.tables[0].read().subwindows()
    }

    /// The deterministic final fold: every shard's merged view in
    /// canonical (ascending packed key) order. Encoding this with
    /// `wire::encode_merged` yields bytes independent of the shard
    /// count.
    pub fn snapshot(&self) -> Vec<(FlowKey, AttrValue)> {
        let mut out: Vec<(FlowKey, AttrValue)> = self
            .tables
            .iter()
            .flat_map(|t| t.read().snapshot())
            .collect();
        out.sort_by_key(|(k, _)| k.as_u128());
        out
    }

    /// Sub-windows per sliding window.
    pub fn window_span(&self) -> usize {
        self.window_subwindows
    }

    /// Number of merge shards behind this handle.
    pub fn shard_count(&self) -> usize {
        self.tables.len()
    }

    /// AFR records rejected by the non-blocking `offer` path so far (a
    /// refused block charges its record count; a control message, 1).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// A message from the data plane to the controller. AFRs stream in
/// columnar bursts (each clone is individually droppable on the wire)
/// and each sub-window is bracketed by an announcement and an
/// end-of-stream mark.
#[derive(Debug, Clone)]
pub enum ReliableMsg {
    /// Trigger-packet announcement: `announced` AFRs are coming for
    /// `subwindow`. A duplicate announcement (the trigger clone was
    /// duplicated in the fabric) is idempotent.
    Announce {
        /// The terminated sub-window.
        subwindow: u32,
        /// How many AFRs its batch holds.
        announced: u32,
    },
    /// A burst of AFR report clones for one sub-window — whatever
    /// survived the lossy channel, in arrival order (possibly before its
    /// announcement). A single record travels as a block of one; blocks
    /// may interleave freely within and across sub-windows.
    AfrBlock(RecordBlock),
    /// The switch finished emitting `subwindow`'s initial stream; the
    /// controller may now run the recovery loop and merge.
    EndOfStream {
        /// The sub-window whose stream ended.
        subwindow: u32,
    },
    /// The switch owning `subwindow` departed the fleet (crash churn)
    /// before its stream completed. The session is abandoned: its
    /// partial batch is discarded (never merged), its
    /// [`WindowFsm`](ow_common::engine::WindowFsm) is driven through
    /// `SwitchDeparted` to `Released` instead of being left to wedge in
    /// a recovery loop against a dead peer, and the sub-window is
    /// tombstoned so late clones of its announcement or AFRs are dropped
    /// rather than resurrecting the session.
    Depart {
        /// The sub-window whose switch disappeared.
        subwindow: u32,
    },
    /// End of input: finalize every open session, then exit.
    Shutdown,
    /// Any other message carrying its window's wire-propagated
    /// [`TraceContext`], so the controller's recovery and merge spans
    /// join the originating window's causal tree. Every clone may carry
    /// the context, so any copy that survives the lossy channel delivers
    /// it — even when the announcement itself was lost. The first
    /// context seen for a sub-window wins.
    Traced(Traced<Box<ReliableMsg>>),
}

impl ReliableMsg {
    /// The sub-window this message concerns (`None` for `Shutdown`).
    fn subwindow(&self) -> Option<u32> {
        match self {
            ReliableMsg::Announce { subwindow, .. }
            | ReliableMsg::EndOfStream { subwindow }
            | ReliableMsg::Depart { subwindow } => Some(*subwindow),
            ReliableMsg::AfrBlock(block) => Some(block.subwindow()),
            ReliableMsg::Shutdown => None,
            ReliableMsg::Traced(traced) => traced.payload.subwindow(),
        }
    }
}

/// Controller→switch back-channel serving retransmission requests:
/// `(subwindow, missing seq ids) → replayed AFRs` (empty when the
/// request or its replies were lost).
pub type RetransmitFn = Box<dyn FnMut(u32, &[u32]) -> Vec<FlowRecord> + Send>;

/// The OS-path escalation: `subwindow → (full batch, charged latency)`.
pub type OsReadFn = Box<dyn FnMut(u32) -> (Vec<FlowRecord>, Duration) + Send>;

/// The live controller. Per-sub-window [`CollectionSession`]s verify
/// completeness against the announced count, and a
/// [`ReliabilityDriver`] runs the §8 recovery loop (retransmission
/// rounds, then OS-path escalation) through caller supplied callbacks
/// before anything is merged. Only complete batches ever reach the shard
/// tables; each session's [`WindowFsm`](ow_common::engine::WindowFsm)
/// (already at `Merged` when it leaves the driver) is handed to the
/// router's [`WindowEngine`], which releases it when the sliding window
/// evicts the sub-window. A lossless stream runs the same loop and
/// merges on the first pass.
pub struct ReliableLiveController {
    /// Send announcements, AFRs, end-of-stream marks, then `Shutdown`.
    /// `send` blocks when the queue is full — back-pressure, not loss.
    pub sender: Sender<ReliableMsg>,
    /// Concurrent query access.
    pub handle: LiveHandle,
    thread: JoinHandle<ReliabilityMetrics>,
}

impl ReliableLiveController {
    /// Spawn the controller sharded per `OW_SHARDS`. `retransmit` and
    /// `os_read` are the back-channel to the switch (typically spliced
    /// through a lossy channel in experiments).
    pub fn spawn(
        window_subwindows: usize,
        queue_depth: usize,
        policy: RetryPolicy,
        retransmit: RetransmitFn,
        os_read: OsReadFn,
    ) -> ReliableLiveController {
        ReliableLiveController::spawn_sharded(
            window_subwindows,
            queue_depth,
            policy,
            retransmit,
            os_read,
            shards_from_env(),
        )
    }

    /// [`ReliableLiveController::spawn`] with an explicit shard count.
    pub fn spawn_sharded(
        window_subwindows: usize,
        queue_depth: usize,
        policy: RetryPolicy,
        retransmit: RetransmitFn,
        os_read: OsReadFn,
        shards: usize,
    ) -> ReliableLiveController {
        ReliableLiveController::spawn_sharded_obs(
            window_subwindows,
            queue_depth,
            policy,
            retransmit,
            os_read,
            shards,
            None,
        )
    }

    /// [`ReliableLiveController::spawn_sharded`] with observability
    /// attached: the router's [`WindowEngine`] reports every transition
    /// (the first rejected one raises a structured `drift_detected`
    /// warning), each shard worker exposes a queue-depth gauge, every
    /// completed session's [`ReliabilityMetrics`] folds into the
    /// registry (`ow_controller_retransmit_rounds`, the
    /// `ow_controller_cr_phase_duration{phase="recovery"}` histogram,
    /// …) alongside a `session_complete` journal event, and rejected
    /// `offer`s bump `ow_controller_backpressure_dropped_total`.
    #[allow(clippy::too_many_arguments)]
    pub fn spawn_sharded_obs(
        window_subwindows: usize,
        queue_depth: usize,
        policy: RetryPolicy,
        mut retransmit: RetransmitFn,
        mut os_read: OsReadFn,
        shards: usize,
        obs: Option<&Obs>,
    ) -> ReliableLiveController {
        let (tx, rx): (Sender<ReliableMsg>, Receiver<ReliableMsg>) = bounded(queue_depth);
        let pool = ShardPool::spawn(shards, queue_depth, obs);
        let dropped = Arc::new(AtomicU64::new(0));
        let handle = LiveHandle {
            tables: pool.tables.clone(),
            partition: pool.partition,
            window_subwindows,
            dropped: dropped.clone(),
            drop_counter: obs.map(|o| o.counter("ow_controller_backpressure_dropped_total", &[])),
        };
        let obs = obs.cloned();
        let thread = std::thread::spawn(move || {
            let driver = ReliabilityDriver::new(policy);
            let mut total = ReliabilityMetrics::default();
            let session_obs = obs.clone();
            let session_counter = obs
                .as_ref()
                .map(|o| o.counter("ow_controller_sessions_total", &[]));
            let mut engine = WindowEngine::new();
            if let Some(o) = &obs {
                engine.set_sink(o.engine_sink("controller"));
            }
            let mut merged_order: VecDeque<u32> = VecDeque::new();
            // Open sessions and AFRs that raced ahead of their
            // announcement (reordering across the message stream).
            let mut sessions: HashMap<u32, (CollectionSession, ReliabilityMetrics)> =
                HashMap::new();
            let mut early: HashMap<u32, Vec<RecordBlock>> = HashMap::new();
            // Trace contexts learned from the wire (the first traced
            // message seen per sub-window), consumed at finalize.
            let mut ctxs: HashMap<u32, TraceContext> = HashMap::new();
            // Sub-windows whose switch departed: tombstones that drop
            // late announcements/AFRs instead of opening a session that
            // could never complete (bounded by the number of distinct
            // departed windows a run produces).
            let mut departed_windows: std::collections::HashSet<u32> =
                std::collections::HashSet::new();

            let feed = |entry: &mut (CollectionSession, ReliabilityMetrics),
                        block: &RecordBlock| {
                if let Ok((fresh, dups)) = entry.0.receive_block(block) {
                    entry.1.first_pass += fresh;
                    entry.1.duplicates += dups;
                }
            };

            let mut finalize = |subwindow: u32,
                                entry: (CollectionSession, ReliabilityMetrics),
                                ctx: Option<TraceContext>,
                                total: &mut ReliabilityMetrics,
                                engine: &mut WindowEngine,
                                merged_order: &mut VecDeque<u32>| {
                let (mut session, mut metrics) = entry;
                driver.complete_session(
                    &mut session,
                    &mut metrics,
                    &mut FnTransport {
                        retransmit: &mut retransmit,
                        os_read: &mut os_read,
                    },
                );
                total.merge(&metrics);
                if let Some(o) = &session_obs {
                    o.fold_reliability(&metrics);
                    o.event(
                        Event::new(
                            "session_complete",
                            format!(
                                "merged {} AFRs (first pass {}, recovered {}) after {} \
                                 retransmit round(s), {} escalation(s)",
                                metrics.first_pass + metrics.recovered,
                                metrics.first_pass,
                                metrics.recovered,
                                metrics.retransmit_rounds,
                                metrics.escalations,
                            ),
                        )
                        .subwindow(subwindow)
                        .phase("merged"),
                    );
                }
                if let Some(c) = &session_counter {
                    c.inc();
                }
                // The session's FSM arrives at Merged through the §8
                // loop; the engine tracks it until slide-eviction.
                engine.insert(*session.fsm());
                let block = Arc::new(session.into_block());
                // The window just reached Merged: hand its recovered
                // answer to the accuracy observatory's shadow scoring
                // lane (when installed) — the merge path pays an `Arc`
                // bump, not a copy and not the diff.
                let scored = session_obs
                    .as_ref()
                    .and_then(|o| o.accuracy())
                    .is_some_and(|acc| acc.score_block(&block));
                // Reconstruct the recovery timeline into the window's
                // causal trace. `complete_session` accumulates the exact
                // same quantities into `wall_clock` (one backoff timeout
                // per round, then any charged OS-read latency), so the
                // spans below tile the session's virtual-clock interval
                // precisely, anchored at the switch-side batch instant.
                if let (Some(o), Some(ctx)) = (&session_obs, ctx) {
                    let tracer = o.tracer().clone();
                    let mut t = ctx.anchor_ns;
                    for round in 1..=metrics.retransmit_rounds {
                        let timeout = driver.policy().timeout_for_round(round as u32).as_nanos();
                        tracer.span(
                            ctx.trace_id,
                            ctx.collect,
                            "retransmit_round",
                            "controller",
                            None,
                            t,
                            t.saturating_add(timeout),
                        );
                        t = t.saturating_add(timeout);
                    }
                    let end = ctx.anchor_ns.saturating_add(metrics.wall_clock.as_nanos());
                    if metrics.escalations > 0 {
                        tracer.span(
                            ctx.trace_id,
                            ctx.root,
                            "os_read",
                            "controller",
                            None,
                            t,
                            end,
                        );
                    }
                    if let Some(merge) = tracer.span(
                        ctx.trace_id,
                        ctx.root,
                        "merge",
                        "controller",
                        None,
                        end,
                        end,
                    ) {
                        for shard in 0..pool.partition.shards() {
                            tracer.span(
                                ctx.trace_id,
                                merge,
                                "shard_insert",
                                "controller",
                                Some(shard as u32),
                                end,
                                end,
                            );
                        }
                    }
                    if scored {
                        tracer.span(
                            ctx.trace_id,
                            ctx.root,
                            "accuracy_score",
                            "controller",
                            None,
                            end,
                            end,
                        );
                    }
                    tracer.finish_window(ctx.trace_id, end);
                }
                pool.insert_block(&block);
                merged_order.push_back(subwindow);
                while merged_order.len() > window_subwindows {
                    let oldest = merged_order.pop_front().expect("non-empty");
                    if engine.phase(oldest) == Some(WindowPhase::Merged) {
                        let _ = engine.apply(oldest, WindowEvent::Acked);
                    }
                    pool.evict();
                }
            };

            while let Ok(mut msg) = rx.recv() {
                // A traced message is its payload plus a context to
                // remember; unwrap it before dispatch.
                while let ReliableMsg::Traced(traced) = msg {
                    if let Some(subwindow) = traced.payload.subwindow() {
                        ctxs.entry(subwindow).or_insert(traced.ctx);
                    }
                    msg = *traced.payload;
                }
                match msg {
                    ReliableMsg::Announce {
                        subwindow,
                        announced,
                    } => {
                        if departed_windows.contains(&subwindow) {
                            continue;
                        }
                        let entry = sessions.entry(subwindow).or_insert_with(|| {
                            let m = ReliabilityMetrics {
                                announced: announced as u64,
                                ..Default::default()
                            };
                            (CollectionSession::new(subwindow, announced), m)
                        });
                        for block in early.remove(&subwindow).unwrap_or_default() {
                            feed(entry, &block);
                        }
                    }
                    ReliableMsg::AfrBlock(block) => {
                        if departed_windows.contains(&block.subwindow()) {
                            continue;
                        }
                        match sessions.get_mut(&block.subwindow()) {
                            Some(entry) => feed(entry, &block),
                            // The whole block raced its announcement.
                            None => early.entry(block.subwindow()).or_default().push(block),
                        }
                    }
                    ReliableMsg::EndOfStream { subwindow } => {
                        if let Some(entry) = sessions.remove(&subwindow) {
                            let ctx = ctxs.remove(&subwindow);
                            finalize(
                                subwindow,
                                entry,
                                ctx,
                                &mut total,
                                &mut engine,
                                &mut merged_order,
                            );
                        }
                    }
                    ReliableMsg::Depart { subwindow } => {
                        departed_windows.insert(subwindow);
                        early.remove(&subwindow);
                        // The merged answer will never arrive; release
                        // the oracle's truth entry for this window.
                        if let Some(acc) = session_obs.as_ref().and_then(|o| o.accuracy()) {
                            acc.window_departed(subwindow);
                        }
                        let ctx = ctxs.remove(&subwindow);
                        if let Some((session, mut metrics)) = sessions.remove(&subwindow) {
                            metrics.departed = 1;
                            total.merge(&metrics);
                            // The partial batch dies with the session;
                            // only the lifecycle bookkeeping survives.
                            engine.insert(*session.fsm());
                            let _ = engine.apply(subwindow, WindowEvent::SwitchDeparted);
                            if let Some(o) = &session_obs {
                                o.fold_reliability(&metrics);
                                o.event(
                                    Event::new(
                                        "switch_departed",
                                        format!(
                                            "abandoned after {} of {} AFRs: switch left the \
                                             fleet mid-window",
                                            metrics.first_pass, metrics.announced,
                                        ),
                                    )
                                    .subwindow(subwindow)
                                    .phase("released"),
                                );
                                // Close the window's causal trace so the
                                // tree stays complete even though no
                                // merge span will ever arrive.
                                if let Some(ctx) = ctx {
                                    let tracer = o.tracer().clone();
                                    tracer.span(
                                        ctx.trace_id,
                                        ctx.root,
                                        "departed",
                                        "controller",
                                        None,
                                        ctx.anchor_ns,
                                        ctx.anchor_ns,
                                    );
                                    tracer.finish_window(ctx.trace_id, ctx.anchor_ns);
                                }
                            }
                        }
                    }
                    ReliableMsg::Traced(_) => unreachable!("unwrapped above"),
                    ReliableMsg::Shutdown => break,
                }
            }
            // Sessions whose end-of-stream mark was lost still complete:
            // the recovery loop fetches whatever the first pass missed.
            let mut rest: Vec<(u32, (CollectionSession, ReliabilityMetrics))> =
                sessions.drain().collect();
            rest.sort_by_key(|(sw, _)| *sw);
            for (sw, entry) in rest {
                let ctx = ctxs.remove(&sw);
                finalize(sw, entry, ctx, &mut total, &mut engine, &mut merged_order);
            }
            pool.shutdown();
            total.dropped += dropped.load(Ordering::Relaxed);
            total
        });
        ReliableLiveController {
            sender: tx,
            handle,
            thread,
        }
    }

    /// Non-blocking send; a rejected message is counted on the handle
    /// (and folded into `join()`'s metrics) instead of lost silently.
    pub fn offer(&self, msg: ReliableMsg) -> bool {
        match self.sender.try_send(msg) {
            Ok(()) => true,
            Err(e) => {
                self.handle
                    .count_drop(reliable_msg_records(&e.into_inner()));
                false
            }
        }
    }

    /// Signal shutdown and wait for the router and every shard worker;
    /// returns the aggregated reliability counters across all sessions,
    /// including offer-path drops.
    pub fn join(self) -> ReliabilityMetrics {
        let _ = self.sender.send(ReliableMsg::Shutdown);
        self.thread.join().expect("controller thread panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::encode_merged;

    /// One count-`n` AFR per flow in `flows`, with dense sequence ids.
    fn batch(sw: u32, flows: std::ops::Range<u32>, n: u64) -> Vec<FlowRecord> {
        flows
            .enumerate()
            .map(|(seq, i)| {
                let mut r = FlowRecord::frequency(FlowKey::src_ip(i), n, sw);
                r.seq = seq as u32;
                r
            })
            .collect()
    }

    /// A controller for lossless streams: nothing is ever missing, so
    /// retransmission has nothing to answer and an escalation is a bug.
    fn lossless(window_subwindows: usize, shards: usize) -> ReliableLiveController {
        ReliableLiveController::spawn_sharded(
            window_subwindows,
            64,
            RetryPolicy::default(),
            Box::new(|_, _| Vec::new()),
            Box::new(|_| panic!("a lossless stream never escalates")),
            shards,
        )
    }

    /// Announce `afrs`, stream them as one block, and end the stream.
    fn send_lossless(ctl: &ReliableLiveController, sw: u32, afrs: &[FlowRecord]) {
        let announced = afrs.len() as u32;
        for msg in [
            ReliableMsg::Announce {
                subwindow: sw,
                announced,
            },
            ReliableMsg::AfrBlock(RecordBlock::from_records(sw, afrs)),
            ReliableMsg::EndOfStream { subwindow: sw },
        ] {
            ctl.sender.send(msg).unwrap();
        }
    }

    /// One AFR clone on the wire: a block of one.
    fn afr(rec: FlowRecord) -> ReliableMsg {
        ReliableMsg::AfrBlock(RecordBlock::from_records(rec.subwindow, &[rec]))
    }

    #[test]
    fn live_pipeline_merges_and_slides() {
        let ctl = lossless(2, shards_from_env());
        send_lossless(&ctl, 0, &batch(0, 0..10, 60));
        send_lossless(&ctl, 1, &batch(1, 0..10, 80));
        // Wait for the controller to drain.
        while ctl.handle.merged_flows() < 10 {
            std::thread::yield_now();
        }
        // 60 + 80 = 140 ≥ 100: boundary flows visible live.
        let mut over = Vec::new();
        for _ in 0..1000 {
            over = ctl.handle.flows_over(100.0);
            if over.len() == 10 {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(over.len(), 10);

        // Slide: sub-window 2 evicts sub-window 0.
        send_lossless(&ctl, 2, &batch(2, 0..10, 5));
        let mut sws = Vec::new();
        for _ in 0..10_000 {
            sws = ctl.handle.subwindows();
            if sws == vec![1, 2] {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(sws, vec![1, 2]);
        assert_eq!(ctl.join().first_pass, 30);
    }

    #[test]
    fn shutdown_without_traffic() {
        let ctl = lossless(5, shards_from_env());
        assert_eq!(ctl.join(), ReliabilityMetrics::default());
    }

    #[test]
    fn sharded_live_controller_is_byte_identical_to_single_shard() {
        let run = |shards: usize| {
            let ctl = lossless(3, shards);
            for sw in 0..6u32 {
                send_lossless(&ctl, sw, &batch(sw, 0..40, (sw as u64 + 1) * 7));
            }
            let handle = ctl.handle.clone();
            assert_eq!(ctl.join().first_pass, 240);
            assert_eq!(handle.shard_count(), shards);
            assert_eq!(handle.subwindows(), vec![3, 4, 5]);
            handle
        };
        let baseline = run(1);
        for shards in [2usize, 4, 8] {
            let h = run(shards);
            assert_eq!(
                encode_merged(&h.snapshot()),
                encode_merged(&baseline.snapshot()),
                "{shards} shards diverged from the single-shard baseline"
            );
            assert_eq!(h.flows_over(0.0), baseline.flows_over(0.0));
            for i in 0..40u32 {
                let k = FlowKey::src_ip(i);
                assert_eq!(h.merged_value(&k), baseline.merged_value(&k));
            }
        }
    }

    #[test]
    fn ow_shards_parsing_defaults_and_clamps() {
        assert_eq!(parse_shards(None), 1);
        assert_eq!(parse_shards(Some("")), 1);
        assert_eq!(parse_shards(Some("banana")), 1);
        assert_eq!(parse_shards(Some("0")), 1);
        assert_eq!(parse_shards(Some("1")), 1);
        assert_eq!(parse_shards(Some(" 8 ")), 8);
    }

    fn seq_batch(sw: u32, n: u32) -> Vec<FlowRecord> {
        (0..n)
            .map(|seq| {
                let mut r = FlowRecord::frequency(FlowKey::src_ip(seq + 1), seq as u64 + 1, sw);
                r.seq = seq;
                r
            })
            .collect()
    }

    #[test]
    fn reliable_controller_repairs_lossy_stream() {
        // The switch retains both sub-windows' batches; the back-channel
        // replays faithfully.
        let store: HashMap<u32, Vec<FlowRecord>> =
            (0..2u32).map(|sw| (sw, seq_batch(sw, 10))).collect();
        let retrans_store = store.clone();
        let ctl = ReliableLiveController::spawn(
            2,
            64,
            RetryPolicy::default(),
            Box::new(move |sw, seqs| {
                let batch = &retrans_store[&sw];
                seqs.iter().map(|&s| batch[s as usize]).collect()
            }),
            Box::new(|_| panic!("no escalation expected")),
        );
        for sw in 0..2u32 {
            ctl.sender
                .send(ReliableMsg::Announce {
                    subwindow: sw,
                    announced: 10,
                })
                .unwrap();
            // Drop every third AFR from the initial stream.
            let survivors: Vec<FlowRecord> = store[&sw]
                .iter()
                .filter(|r| r.seq % 3 != 0)
                .copied()
                .collect();
            ctl.sender
                .send(ReliableMsg::AfrBlock(RecordBlock::from_records(
                    sw, &survivors,
                )))
                .unwrap();
            ctl.sender
                .send(ReliableMsg::EndOfStream { subwindow: sw })
                .unwrap();
        }
        let handle = ctl.handle.clone();
        let metrics = ctl.join();
        // Despite the losses both sub-windows merged complete: every
        // flow's two-sub-window sum is exact.
        assert_eq!(handle.merged_flows(), 10);
        for seq in 0..10u32 {
            let sum = handle
                .flows_over(0.0)
                .into_iter()
                .find(|(k, _)| *k == FlowKey::src_ip(seq + 1))
                .map(|(_, v)| v)
                .unwrap();
            assert_eq!(sum, 2.0 * (seq as f64 + 1.0));
        }
        assert_eq!(metrics.announced, 20);
        assert_eq!(metrics.first_pass, 12);
        assert_eq!(metrics.recovered, 8);
        assert!(metrics.retransmit_rounds >= 2);
        assert_eq!(metrics.escalations, 0);
        assert_eq!(metrics.dropped, 0);
    }

    #[test]
    fn reliable_controller_handles_reordered_and_duplicated_control_msgs() {
        let store = seq_batch(4, 5);
        let retrans_store = store.clone();
        let ctl = ReliableLiveController::spawn(
            4,
            64,
            RetryPolicy::default(),
            Box::new(move |_, seqs| seqs.iter().map(|&s| retrans_store[s as usize]).collect()),
            Box::new(|_| panic!("no escalation expected")),
        );
        // AFRs race ahead of their announcement; the trigger arrives
        // twice (duplicated clone); one AFR arrives twice too.
        ctl.sender.send(afr(store[1])).unwrap();
        ctl.sender.send(afr(store[1])).unwrap();
        for _ in 0..2 {
            ctl.sender
                .send(ReliableMsg::Announce {
                    subwindow: 4,
                    announced: 5,
                })
                .unwrap();
        }
        ctl.sender.send(afr(store[3])).unwrap();
        // End-of-stream mark lost: shutdown finalizes the session.
        let handle = ctl.handle.clone();
        let metrics = ctl.join();
        assert_eq!(handle.merged_flows(), 5);
        assert_eq!(metrics.first_pass, 2);
        assert_eq!(metrics.duplicates, 1);
        assert_eq!(metrics.recovered, 3);
    }

    #[test]
    fn reliable_controller_escalates_when_backchannel_dead() {
        let store = seq_batch(0, 3);
        let os_store = store.clone();
        let ctl = ReliableLiveController::spawn(
            1,
            16,
            RetryPolicy {
                max_rounds: 2,
                ..RetryPolicy::default()
            },
            // The back-channel loses every request.
            Box::new(|_, _| Vec::new()),
            Box::new(move |_| (os_store.clone(), Duration::from_millis(40))),
        );
        ctl.sender
            .send(ReliableMsg::Announce {
                subwindow: 0,
                announced: 3,
            })
            .unwrap();
        ctl.sender
            .send(ReliableMsg::EndOfStream { subwindow: 0 })
            .unwrap();
        let handle = ctl.handle.clone();
        let metrics = ctl.join();
        assert_eq!(handle.merged_flows(), 3);
        assert_eq!(metrics.escalations, 1);
        assert_eq!(metrics.retransmit_rounds, 2);
        assert!(metrics.wall_clock >= Duration::from_millis(40));
    }

    #[test]
    fn departed_session_is_abandoned_not_wedged() {
        let obs = Obs::new();
        let store = seq_batch(3, 8);
        let ctl = ReliableLiveController::spawn_sharded_obs(
            4,
            64,
            RetryPolicy::default(),
            // A departed switch can answer nothing; neither callback may
            // ever run for the abandoned window.
            Box::new(|_, _| panic!("no retransmission for a departed switch")),
            Box::new(|_| panic!("no OS read for a departed switch")),
            2,
            Some(&obs),
        );
        ctl.sender
            .send(ReliableMsg::Announce {
                subwindow: 3,
                announced: 8,
            })
            .unwrap();
        // Part of the initial stream arrives, then the switch crashes.
        ctl.sender
            .send(ReliableMsg::AfrBlock(RecordBlock::from_records(
                3,
                &store[..3],
            )))
            .unwrap();
        ctl.sender
            .send(ReliableMsg::Depart { subwindow: 3 })
            .unwrap();
        // Late clones and a duplicated announcement hit the tombstone
        // instead of resurrecting a session that could never complete.
        ctl.sender.send(afr(store[4])).unwrap();
        ctl.sender
            .send(ReliableMsg::Announce {
                subwindow: 3,
                announced: 8,
            })
            .unwrap();
        let handle = ctl.handle.clone();
        let metrics = ctl.join();
        assert_eq!(handle.merged_flows(), 0, "partial batch never merges");
        assert_eq!(metrics.departed, 1);
        assert_eq!(metrics.first_pass, 3);
        assert_eq!(metrics.escalations, 0);

        let snap = obs.snapshot();
        assert_eq!(snap.value("ow_controller_departed_sessions_total", &[]), 1);
        assert_eq!(snap.value("ow_controller_sessions_total", &[]), 0);
        // The FSM went Collected → Released via switch_departed: the
        // engine released it rather than leaving it in a recovery phase.
        assert_eq!(
            snap.value("ow_common_engine_released_total", &[("side", "controller")]),
            1
        );
        let departs: Vec<_> = obs
            .journal()
            .events()
            .into_iter()
            .filter(|e| e.kind == "switch_departed")
            .collect();
        assert_eq!(departs.len(), 1);
        assert_eq!(departs[0].subwindow, Some(3));
    }

    #[test]
    fn sharded_reliable_controller_matches_single_shard() {
        let run = |shards: usize| {
            let store: HashMap<u32, Vec<FlowRecord>> =
                (0..4u32).map(|sw| (sw, seq_batch(sw, 25))).collect();
            let retrans_store = store.clone();
            let ctl = ReliableLiveController::spawn_sharded(
                2,
                64,
                RetryPolicy::default(),
                Box::new(move |sw, seqs| {
                    let batch = &retrans_store[&sw];
                    seqs.iter().map(|&s| batch[s as usize]).collect()
                }),
                Box::new(|_| panic!("no escalation expected")),
                shards,
            );
            for sw in 0..4u32 {
                ctl.sender
                    .send(ReliableMsg::Announce {
                        subwindow: sw,
                        announced: 25,
                    })
                    .unwrap();
                // A lossy initial stream: the §8 loop repairs it before
                // anything reaches the shards.
                let survivors: Vec<FlowRecord> = store[&sw]
                    .iter()
                    .filter(|r| r.seq % 4 != 1)
                    .copied()
                    .collect();
                ctl.sender
                    .send(ReliableMsg::AfrBlock(RecordBlock::from_records(
                        sw, &survivors,
                    )))
                    .unwrap();
                ctl.sender
                    .send(ReliableMsg::EndOfStream { subwindow: sw })
                    .unwrap();
            }
            let handle = ctl.handle.clone();
            let metrics = ctl.join();
            (handle, metrics)
        };
        let (baseline, base_metrics) = run(1);
        assert_eq!(baseline.subwindows(), vec![2, 3]);
        for shards in [2usize, 4, 8] {
            let (h, m) = run(shards);
            assert_eq!(
                encode_merged(&h.snapshot()),
                encode_merged(&baseline.snapshot()),
                "{shards} shards diverged from the single-shard baseline"
            );
            assert_eq!(h.flows_over(10.0), baseline.flows_over(10.0));
            assert_eq!(m.recovered, base_metrics.recovered);
            assert_eq!(m.first_pass, base_metrics.first_pass);
        }
    }

    #[test]
    fn offer_counts_drops_instead_of_blocking() {
        // Wedge the router inside a retransmission round so its queue
        // stays full, then offer past the bound: the overflow must be
        // rejected and counted, never silently lost and never blocking.
        let (entered_tx, entered_rx) = std::sync::mpsc::channel::<()>();
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let store = seq_batch(0, 1);
        let replay = store.clone();
        let ctl = ReliableLiveController::spawn_sharded(
            1,
            2,
            RetryPolicy::default(),
            Box::new(move |_, seqs| {
                entered_tx.send(()).unwrap();
                gate_rx.recv().unwrap();
                seqs.iter().map(|&s| replay[s as usize]).collect()
            }),
            Box::new(|_| panic!("no escalation expected")),
            1,
        );
        ctl.sender
            .send(ReliableMsg::Announce {
                subwindow: 0,
                announced: 1,
            })
            .unwrap();
        ctl.sender
            .send(ReliableMsg::EndOfStream { subwindow: 0 })
            .unwrap();
        // The router is now inside the blocked retransmit callback and
        // its input queue (depth 2) is empty: exactly two offers fit.
        entered_rx.recv().unwrap();
        assert!(ctl.offer(afr(store[0])));
        assert!(ctl.offer(afr(store[0])));
        assert!(!ctl.offer(afr(store[0])), "third offer overflows");
        assert_eq!(ctl.handle.dropped(), 1);
        gate_tx.send(()).unwrap();
        let handle = ctl.handle.clone();
        let metrics = ctl.join();
        assert_eq!(handle.merged_flows(), 1);
        assert_eq!(metrics.recovered, 1);
        assert_eq!(
            metrics.dropped, 1,
            "the drop is folded into join()'s metrics"
        );
    }

    #[test]
    fn obs_attached_reliable_controller_mirrors_join_metrics() {
        let obs = Obs::new();
        let store: HashMap<u32, Vec<FlowRecord>> =
            (0..3u32).map(|sw| (sw, seq_batch(sw, 12))).collect();
        let retrans_store = store.clone();
        let ctl = ReliableLiveController::spawn_sharded_obs(
            2,
            64,
            RetryPolicy::default(),
            Box::new(move |sw, seqs| {
                let batch = &retrans_store[&sw];
                seqs.iter().map(|&s| batch[s as usize]).collect()
            }),
            Box::new(|_| panic!("no escalation expected")),
            4,
            Some(&obs),
        );
        for sw in 0..3u32 {
            ctl.sender
                .send(ReliableMsg::Announce {
                    subwindow: sw,
                    announced: 12,
                })
                .unwrap();
            let survivors: Vec<FlowRecord> = store[&sw]
                .iter()
                .filter(|r| r.seq % 2 == 0)
                .copied()
                .collect();
            ctl.sender
                .send(ReliableMsg::AfrBlock(RecordBlock::from_records(
                    sw, &survivors,
                )))
                .unwrap();
            ctl.sender
                .send(ReliableMsg::EndOfStream { subwindow: sw })
                .unwrap();
        }
        let metrics = ctl.join();
        let snap = obs.snapshot();

        // The registry mirrors join()'s fold, counter for counter.
        assert_eq!(
            snap.value("ow_controller_retransmit_rounds", &[]),
            metrics.retransmit_rounds
        );
        assert_eq!(
            snap.value("ow_controller_afr_first_pass_total", &[]),
            metrics.first_pass
        );
        assert_eq!(
            snap.value("ow_controller_afr_recovered_total", &[]),
            metrics.recovered
        );
        assert_eq!(
            snap.value("ow_controller_escalations_total", &[]),
            metrics.escalations
        );
        assert_eq!(snap.value("ow_controller_sessions_total", &[]), 3);
        assert!(metrics.retransmit_rounds >= 1, "lossy run must retransmit");

        // Engine transitions flowed through the sink: each of the 3
        // sessions is inserted at Merged; the first is Acked on slide.
        assert_eq!(
            snap.value(
                "ow_common_engine_transitions_total",
                &[("side", "controller")]
            ),
            1
        );

        // Per-shard queue-depth gauges exist for all 4 shards and read
        // zero after join (every send was matched by a dequeue).
        for shard in 0..4u32 {
            assert_eq!(
                snap.value(
                    "ow_controller_shard_queue_depth",
                    &[("shard", &shard.to_string())]
                ),
                0,
                "shard {shard} gauge must settle to 0 after join"
            );
        }

        // The C&R recovery-phase histogram saw one virtual-clock sample
        // per session.
        let recovery = snap
            .get("ow_controller_cr_phase_duration", &[("phase", "recovery")])
            .expect("recovery histogram registered");
        let histogram = recovery.histogram.as_ref().expect("histogram detail");
        assert_eq!(histogram.count, 3);
        assert_eq!(histogram.sum, metrics.wall_clock.as_nanos());

        // Each session also left a structured journal record.
        let complete: Vec<_> = obs
            .journal()
            .events()
            .into_iter()
            .filter(|e| e.kind == "session_complete")
            .collect();
        assert_eq!(complete.len(), 3);
        assert_eq!(complete[0].subwindow, Some(0));
        assert_eq!(complete[0].phase.as_deref(), Some("merged"));
    }

    #[test]
    fn traced_messages_stitch_recovery_spans_into_the_window_trace() {
        // Traced announcement, or an untraced one where only a later
        // traced block carries the context: either way the recovery and
        // merge spans land in the window's trace.
        for traced_announce in [true, false] {
            let obs = Obs::new();
            let tracer = obs.tracer().clone();
            // Simulate the switch side: open the window's trace and
            // record its collect span, as `Switch::run_collection` does.
            let trace = tracer.start_window(7, "switch", 1_000);
            let collect = tracer
                .span(trace, trace, "collect", "switch", None, 1_000, 2_000)
                .expect("collect span under a live trace");
            let ctx = TraceContext {
                trace_id: trace,
                root: trace,
                collect,
                anchor_ns: 2_500,
            };
            let traced = |msg: ReliableMsg| ReliableMsg::Traced(Traced::new(ctx, Box::new(msg)));
            let store = seq_batch(7, 6);
            let retrans = store.clone();
            let ctl = ReliableLiveController::spawn_sharded_obs(
                1,
                64,
                RetryPolicy::default(),
                Box::new(move |_, seqs| seqs.iter().map(|&s| retrans[s as usize]).collect()),
                Box::new(|_| panic!("no escalation expected")),
                2,
                Some(&obs),
            );
            let announce = ReliableMsg::Announce {
                subwindow: 7,
                announced: 6,
            };
            ctl.sender
                .send(if traced_announce {
                    traced(announce)
                } else {
                    announce
                })
                .unwrap();
            // A lossy traced stream; the end-of-stream mark is lost, so
            // shutdown finalizes the session.
            let survivors: Vec<FlowRecord> =
                store.iter().filter(|r| r.seq % 2 == 0).copied().collect();
            ctl.sender
                .send(traced(ReliableMsg::AfrBlock(RecordBlock::from_records(
                    7, &survivors,
                ))))
                .unwrap();
            let metrics = ctl.join();
            assert!(metrics.retransmit_rounds >= 1, "lossy run must retransmit");

            let report = ow_obs::TraceReport::capture("test", &tracer, None);
            assert_eq!(report.traces.len(), 1);
            let summary = &report.traces[0];
            let spans = &summary.spans;
            // Recovery rounds parent to the originating collect span and
            // tile the backoff schedule from the anchor.
            let rounds: Vec<_> = spans
                .iter()
                .filter(|s| s.name == "retransmit_round")
                .collect();
            assert_eq!(rounds.len() as u64, metrics.retransmit_rounds);
            assert!(rounds.iter().all(|s| s.parent == Some(collect)));
            assert_eq!(rounds[0].start_ns, 2_500);
            // One merge span under the root fans out to one
            // shard_insert per shard.
            let merge = spans
                .iter()
                .find(|s| s.name == "merge")
                .expect("merge span recorded");
            assert_eq!(merge.parent, Some(trace));
            let inserts: Vec<_> = spans.iter().filter(|s| s.name == "shard_insert").collect();
            assert_eq!(inserts.len(), 2);
            assert!(inserts.iter().all(|s| s.parent == Some(merge.id)));
            assert_eq!(
                inserts.iter().filter_map(|s| s.shard).collect::<Vec<_>>(),
                vec![0, 1]
            );
            // The root span was extended to cover the whole recovery.
            let root = spans.iter().find(|s| s.id == trace).expect("root span");
            assert_eq!(
                root.end_ns,
                2_500 + metrics.wall_clock.as_nanos(),
                "root covers anchor + recovery wall clock"
            );
            // No escalation happened, so no os_read span exists.
            assert!(spans.iter().all(|s| s.name != "os_read"));
        }
    }

    #[test]
    fn obs_attached_offer_drop_reaches_the_registry() {
        // Same wedge as `offer_counts_drops_instead_of_blocking`, with
        // the registry attached: the rejected offer must surface as
        // `ow_controller_backpressure_dropped_total`.
        let obs = Obs::new();
        let (entered_tx, entered_rx) = std::sync::mpsc::channel::<()>();
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let store = seq_batch(0, 1);
        let replay = store.clone();
        let ctl = ReliableLiveController::spawn_sharded_obs(
            1,
            2,
            RetryPolicy::default(),
            Box::new(move |_, seqs| {
                entered_tx.send(()).unwrap();
                gate_rx.recv().unwrap();
                seqs.iter().map(|&s| replay[s as usize]).collect()
            }),
            Box::new(|_| panic!("no escalation expected")),
            1,
            Some(&obs),
        );
        ctl.sender
            .send(ReliableMsg::Announce {
                subwindow: 0,
                announced: 1,
            })
            .unwrap();
        ctl.sender
            .send(ReliableMsg::EndOfStream { subwindow: 0 })
            .unwrap();
        entered_rx.recv().unwrap();
        assert!(ctl.offer(afr(store[0])));
        assert!(ctl.offer(afr(store[0])));
        assert!(!ctl.offer(afr(store[0])));
        gate_tx.send(()).unwrap();
        let metrics = ctl.join();
        assert_eq!(metrics.dropped, 1);
        assert_eq!(
            obs.snapshot()
                .value("ow_controller_backpressure_dropped_total", &[]),
            1
        );
    }

    #[test]
    fn block_stream_matches_batch_path_byte_for_byte() {
        // The same workload delivered as one block per sub-window and as
        // chunked block streams (with a lost end-of-stream mark on the
        // last sub-window, repaired by shutdown) must merge identically.
        let run_batch = |shards: usize| {
            let ctl = lossless(3, shards);
            for sw in 0..5u32 {
                send_lossless(&ctl, sw, &batch(sw, 0..60, (sw as u64 + 1) * 3));
            }
            let handle = ctl.handle.clone();
            assert_eq!(ctl.join().first_pass, 300);
            handle
        };
        let run_blocks = |shards: usize| {
            let ctl = lossless(3, shards);
            for sw in 0..5u32 {
                let afrs = batch(sw, 0..60, (sw as u64 + 1) * 3);
                ctl.sender
                    .send(ReliableMsg::Announce {
                        subwindow: sw,
                        announced: 60,
                    })
                    .unwrap();
                for chunk in afrs.chunks(17) {
                    ctl.sender
                        .send(ReliableMsg::AfrBlock(RecordBlock::from_records(sw, chunk)))
                        .unwrap();
                }
                // The last sub-window's end-of-stream mark is "lost":
                // shutdown must still complete it.
                if sw != 4 {
                    ctl.sender
                        .send(ReliableMsg::EndOfStream { subwindow: sw })
                        .unwrap();
                }
            }
            let handle = ctl.handle.clone();
            assert_eq!(ctl.join().first_pass, 300);
            handle
        };
        let baseline = run_batch(1);
        for shards in [1usize, 4] {
            let h = run_blocks(shards);
            assert_eq!(h.subwindows(), vec![2, 3, 4]);
            assert_eq!(
                encode_merged(&h.snapshot()),
                encode_merged(&baseline.snapshot()),
                "{shards}-shard block stream diverged from the batch path"
            );
        }
    }

    #[test]
    fn reliable_block_bursts_match_per_record_stream() {
        let run = |blocked: bool| {
            let store: HashMap<u32, Vec<FlowRecord>> =
                (0..3u32).map(|sw| (sw, seq_batch(sw, 40))).collect();
            let retrans_store = store.clone();
            let ctl = ReliableLiveController::spawn_sharded(
                2,
                64,
                RetryPolicy::default(),
                Box::new(move |sw, seqs| {
                    let batch = &retrans_store[&sw];
                    seqs.iter().map(|&s| batch[s as usize]).collect()
                }),
                Box::new(|_| panic!("no escalation expected")),
                4,
            );
            for sw in 0..3u32 {
                ctl.sender
                    .send(ReliableMsg::Announce {
                        subwindow: sw,
                        announced: 40,
                    })
                    .unwrap();
                // Lossy stream; one burst is also duplicated whole.
                let survivors: Vec<FlowRecord> = store[&sw]
                    .iter()
                    .filter(|r| r.seq % 5 != 2)
                    .copied()
                    .collect();
                if blocked {
                    for chunk in survivors.chunks(9) {
                        let block = RecordBlock::from_records(sw, chunk);
                        ctl.sender.send(ReliableMsg::AfrBlock(block)).unwrap();
                    }
                    ctl.sender
                        .send(ReliableMsg::AfrBlock(RecordBlock::from_records(
                            sw,
                            &survivors[0..9],
                        )))
                        .unwrap();
                } else {
                    for rec in survivors.iter().chain(&survivors[0..9]) {
                        ctl.sender.send(afr(*rec)).unwrap();
                    }
                }
                ctl.sender
                    .send(ReliableMsg::EndOfStream { subwindow: sw })
                    .unwrap();
            }
            let handle = ctl.handle.clone();
            let metrics = ctl.join();
            (handle, metrics)
        };
        let (per_record, m1) = run(false);
        let (blocked, m2) = run(true);
        assert_eq!(
            encode_merged(&blocked.snapshot()),
            encode_merged(&per_record.snapshot()),
            "block bursts diverged from the per-record stream"
        );
        assert_eq!(m2.first_pass, m1.first_pass);
        assert_eq!(m2.duplicates, m1.duplicates);
        assert_eq!(m2.recovered, m1.recovered);
        assert_eq!(m1.duplicates, 27, "three duplicated 9-record bursts");
    }

    #[test]
    fn early_block_waits_for_its_announcement() {
        // A whole block races ahead of its announcement: it must buffer
        // and fold in once the announcement lands.
        let store = seq_batch(6, 8);
        let ctl = ReliableLiveController::spawn_sharded(
            2,
            64,
            RetryPolicy::default(),
            Box::new(|_, _| panic!("complete stream needs no retransmit")),
            Box::new(|_| panic!("no escalation expected")),
            2,
        );
        ctl.sender
            .send(ReliableMsg::AfrBlock(RecordBlock::from_records(6, &store)))
            .unwrap();
        ctl.sender
            .send(ReliableMsg::Announce {
                subwindow: 6,
                announced: 8,
            })
            .unwrap();
        let handle = ctl.handle.clone();
        let metrics = ctl.join();
        assert_eq!(handle.merged_flows(), 8);
        assert_eq!(metrics.first_pass, 8);
        assert_eq!(metrics.recovered, 0);
    }

    #[test]
    fn rejected_block_counts_dropped_records_not_messages() {
        // The offer path's drop accounting is in *records*. Wedge the
        // router, fill the queue (depth 2), then offer a 5-record block
        // and a traced 4-record block — `dropped` must rise by 5 and 4,
        // not 1 each, and the registry counter must mirror it.
        let obs = Obs::new();
        let (entered_tx, entered_rx) = std::sync::mpsc::channel::<()>();
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let store = seq_batch(0, 1);
        let replay = store.clone();
        let ctl = ReliableLiveController::spawn_sharded_obs(
            1,
            2,
            RetryPolicy::default(),
            Box::new(move |_, seqs| {
                entered_tx.send(()).unwrap();
                gate_rx.recv().unwrap();
                seqs.iter().map(|&s| replay[s as usize]).collect()
            }),
            Box::new(|_| panic!("no escalation expected")),
            1,
            Some(&obs),
        );
        ctl.sender
            .send(ReliableMsg::Announce {
                subwindow: 0,
                announced: 1,
            })
            .unwrap();
        ctl.sender
            .send(ReliableMsg::EndOfStream { subwindow: 0 })
            .unwrap();
        entered_rx.recv().unwrap();
        assert!(ctl.offer(afr(store[0])));
        assert!(ctl.offer(afr(store[0])));
        let burst = RecordBlock::from_records(0, &seq_batch(0, 5));
        assert!(
            !ctl.offer(ReliableMsg::AfrBlock(burst)),
            "third offer overflows"
        );
        assert_eq!(
            ctl.handle.dropped(),
            5,
            "a rejected block drops its whole payload"
        );
        // A traced block charges its row count too, not 1.
        let ctx = TraceContext {
            trace_id: 1,
            root: 1,
            collect: 2,
            anchor_ns: 0,
        };
        let traced = ReliableMsg::Traced(Traced::new(
            ctx,
            Box::new(ReliableMsg::AfrBlock(RecordBlock::from_records(
                0,
                &seq_batch(0, 4),
            ))),
        ));
        assert!(!ctl.offer(traced), "the queue is still full");
        assert_eq!(ctl.handle.dropped(), 9);
        gate_tx.send(()).unwrap();
        let metrics = ctl.join();
        assert_eq!(metrics.dropped, 9);
        assert_eq!(
            obs.snapshot()
                .value("ow_controller_backpressure_dropped_total", &[]),
            9
        );
    }

    #[test]
    fn block_and_record_counters_reconcile_after_join() {
        // 3 sub-windows × 12 records over 4 shards: every record routed
        // is counted, blocks_total counts one open block per (shard,
        // sub-window) at this scale, and the queued-records gauges
        // settle to zero once the workers drain.
        let obs = Obs::new();
        let store: HashMap<u32, Vec<FlowRecord>> =
            (0..3u32).map(|sw| (sw, seq_batch(sw, 12))).collect();
        let retrans_store = store.clone();
        let ctl = ReliableLiveController::spawn_sharded_obs(
            2,
            64,
            RetryPolicy::default(),
            Box::new(move |sw, seqs| {
                let batch = &retrans_store[&sw];
                seqs.iter().map(|&s| batch[s as usize]).collect()
            }),
            Box::new(|_| panic!("no escalation expected")),
            4,
            Some(&obs),
        );
        for sw in 0..3u32 {
            ctl.sender
                .send(ReliableMsg::Announce {
                    subwindow: sw,
                    announced: 12,
                })
                .unwrap();
            ctl.sender
                .send(ReliableMsg::AfrBlock(RecordBlock::from_records(
                    sw,
                    &store[&sw],
                )))
                .unwrap();
            ctl.sender
                .send(ReliableMsg::EndOfStream { subwindow: sw })
                .unwrap();
        }
        let _ = ctl.join();
        let snap = obs.snapshot();
        assert_eq!(snap.value("ow_controller_records_total", &[]), 36);
        assert_eq!(
            snap.value("ow_controller_blocks_total", &[]),
            12,
            "one block per shard per sub-window at this scale"
        );
        for shard in 0..4u32 {
            assert_eq!(
                snap.value(
                    "ow_controller_shard_queue_records",
                    &[("shard", &shard.to_string())]
                ),
                0,
                "shard {shard} queued-records gauge must settle to 0"
            );
        }
    }

    #[test]
    fn queries_concurrent_with_ingest() {
        let ctl = lossless(3, shards_from_env());
        let handle = ctl.handle.clone();
        let reader = std::thread::spawn(move || {
            let mut max_seen = 0;
            for _ in 0..200 {
                max_seen = max_seen.max(handle.merged_flows());
                std::thread::yield_now();
            }
            max_seen
        });
        for sw in 0..20u32 {
            send_lossless(&ctl, sw, &batch(sw, 0..50, 1));
        }
        let _ = reader.join().unwrap();
        let final_handle = ctl.handle.clone();
        assert_eq!(ctl.join().first_pass, 1000);
        // Final state spans the last 3 sub-windows.
        assert_eq!(final_handle.subwindows(), vec![17, 18, 19]);
    }
}
