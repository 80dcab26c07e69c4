//! One pass: a fresh 2-shard `ReliableLiveController` fed window by
//! window through the real public API, with the recovery callbacks the
//! router invokes, optional observability, and the close observer.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ow_common::afr::FlowRecord;
use ow_common::block::{RecordBlock, DEFAULT_BLOCK_CAPACITY};
use ow_common::metrics::ReliabilityMetrics;
use ow_controller::health::controller_health_rules;
use ow_controller::live::{LiveHandle, ReliableLiveController, ReliableMsg};
use ow_controller::reliability::RetryPolicy;
use ow_controller::wire::encode_merged;
use ow_obs::{AccuracyConfig, AccuracyScorer, FlightRecorderConfig, HealthEngine, Obs};

use crate::ledger::{Layer, Ledger};
use crate::observer::CloseObserver;
use crate::sys::{self, Heart};

/// Merge shards behind the controller.
pub const SHARDS: usize = 2;
/// Sub-windows per sliding window.
pub const SPAN: usize = 4;
/// Controller and shard queue depth (messages).
pub const QUEUE_DEPTH: usize = 256;
/// Charged latency of one switch-OS read (virtual: `ReliabilityDriver`
/// adds it to the session's clock, nothing sleeps).
pub const OS_READ_LATENCY: Duration = Duration::from_millis(2);
/// How long a window may stay unmerged after its pass stops sending
/// before it counts as wedged.
pub const WEDGE_LIMIT: Duration = Duration::from_secs(10);

/// The switch-OS retained copies of every announced batch, which the
/// retransmit and OS-read callbacks serve from the router thread.
pub type Store = Arc<Mutex<HashMap<u32, Arc<[FlowRecord]>>>>;

/// What the recovery callbacks did, counted on the router thread.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Retransmit requests the router made.
    pub retransmit_calls: AtomicU64,
    /// Records replayed in answer.
    pub replayed_records: AtomicU64,
    /// OS-path escalations.
    pub os_reads: AtomicU64,
    /// Wall nanoseconds inside the callbacks (traced passes only).
    pub callback_ns: AtomicU64,
}

/// How a pass is fed.
#[derive(Clone)]
pub struct PassSpec {
    /// Windows whose retransmit back-channel is dead (forces an OS read).
    pub dead: Arc<HashSet<u32>>,
    /// Attach `ow-obs`: health catalog ticked per window and the accuracy
    /// oracle fed each window's exact batch.
    pub observed: bool,
    /// The threshold query run at every window close.
    pub threshold: f64,
    /// Keep each close latency.
    pub record_closes: bool,
}

/// A pass in flight.
pub struct Pass {
    ctl: ReliableLiveController,
    handle: LiveHandle,
    store: Store,
    /// Recovery callback counters.
    pub recovery: Arc<Recovery>,
    scorer: Option<Arc<AccuracyScorer>>,
    health: Option<Arc<HealthEngine>>,
    /// The close observer.
    pub observer: CloseObserver,
    threshold: f64,
    heart: Heart,
    /// Windows sent.
    pub windows: u64,
    /// Records announced.
    pub records: u64,
    spawned_at: Instant,
    ctl_tids: Vec<u32>,
}

/// A drained pass.
pub struct PassEnd {
    handle: LiveHandle,
    /// Windows sent.
    pub windows: u64,
    /// Records announced (and, on a correct run, merged).
    pub records: u64,
    /// The observer, with its close samples.
    pub observer: CloseObserver,
    /// Recovery callback counters.
    pub recovery: Arc<Recovery>,
    /// Correctness breaches found while draining.
    pub errors: Vec<String>,
    /// Time from the last send until `join` returned.
    pub drain: Duration,
    /// When `join` returned: every record merged, before the oracle's
    /// deferred scoring lane is drained.
    pub joined_at: Instant,
    /// Traced passes: on-CPU ns of the busiest controller thread, and
    /// the controller's lifetime at that sample.
    pub busiest: Option<(u64, Duration)>,
}

impl Pass {
    /// Spawn a fresh controller for one pass.
    pub fn spawn(spec: &PassSpec, heart: Heart) -> Pass {
        let store: Store = Arc::new(Mutex::new(HashMap::new()));
        let recovery = Arc::new(Recovery::default());
        let obs = spec.observed.then(Obs::new);
        let health = obs
            .as_ref()
            .map(|o| o.install_health(controller_health_rules(), FlightRecorderConfig::default()));
        let scorer = obs
            .as_ref()
            .map(|o| o.install_accuracy(AccuracyConfig::default()));
        let retransmit = {
            let (store, dead, rec) = (store.clone(), spec.dead.clone(), recovery.clone());
            Box::new(move |sw: u32, seqs: &[u32]| {
                let t = Instant::now();
                rec.retransmit_calls.fetch_add(1, Ordering::Relaxed);
                let out: Vec<FlowRecord> = if dead.contains(&sw) {
                    Vec::new()
                } else {
                    let batch = store.lock().expect("store lock")[&sw].clone();
                    seqs.iter().map(|&s| batch[s as usize]).collect()
                };
                rec.replayed_records
                    .fetch_add(out.len() as u64, Ordering::Relaxed);
                rec.callback_ns
                    .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                out
            })
        };
        let os_read = {
            let (store, rec) = (store.clone(), recovery.clone());
            Box::new(move |sw: u32| {
                let t = Instant::now();
                rec.os_reads.fetch_add(1, Ordering::Relaxed);
                let batch = store.lock().expect("store lock")[&sw].to_vec();
                rec.callback_ns
                    .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                (
                    batch,
                    ow_common::time::Duration::from_nanos(OS_READ_LATENCY.as_nanos() as u64),
                )
            })
        };
        let before = sys::thread_ids();
        let spawned_at = Instant::now();
        let ctl = ReliableLiveController::spawn_sharded_obs(
            SPAN,
            QUEUE_DEPTH,
            RetryPolicy::default(),
            retransmit,
            os_read,
            SHARDS,
            obs.as_ref(),
        );
        let ctl_tids = sys::thread_ids()
            .into_iter()
            .filter(|t| !before.contains(t))
            .collect();
        Pass {
            handle: ctl.handle.clone(),
            ctl,
            store,
            recovery,
            scorer,
            health,
            observer: CloseObserver::new(spec.record_closes),
            threshold: spec.threshold,
            heart,
            windows: 0,
            records: 0,
            spawned_at,
            ctl_tids,
        }
    }

    fn send(&self, ledger: &mut Ledger, msg: ReliableMsg, records: u64) {
        ledger.time(Layer::SendWait, records, || {
            self.ctl.sender.send(msg).expect("controller alive")
        });
    }

    /// Send one window: announce `exact`, send `arriving` (what crossed
    /// the channel, or `exact` itself when lossless) as `RecordBlock`s,
    /// end the stream; then tick health and poll for closes. The close
    /// clock starts here, once the batch has crossed the channel, when the
    /// window's `Announce` goes out.
    pub fn send_window(
        &mut self,
        ledger: &mut Ledger,
        id: u32,
        exact: &Arc<[FlowRecord]>,
        arriving: &[FlowRecord],
    ) {
        self.heart.beat();
        ledger.time(Layer::Store, 0, || {
            self.store
                .lock()
                .expect("store lock")
                .insert(id, exact.clone())
        });
        if let Some(scorer) = &self.scorer {
            ledger.time(Layer::FeedTruth, 0, || {
                scorer.feed_truth_shared(id, exact.clone())
            });
        }
        let announced_at = Instant::now();
        let announced = exact.len() as u32;
        self.send(
            ledger,
            ReliableMsg::Announce {
                subwindow: id,
                announced,
            },
            0,
        );
        for chunk in arriving.chunks(DEFAULT_BLOCK_CAPACITY) {
            let block = ledger.time(Layer::Block, chunk.len() as u64, || {
                RecordBlock::from_records(id, chunk)
            });
            self.send(ledger, ReliableMsg::AfrBlock(block), chunk.len() as u64);
        }
        self.send(ledger, ReliableMsg::EndOfStream { subwindow: id }, 0);
        self.observer.sent(id, announced_at);
        self.windows += 1;
        self.records += u64::from(announced);
        if let Some(health) = &self.health {
            let now = ow_common::time::Instant::from_micros(self.windows * 100);
            ledger.time(Layer::HealthTick, 0, || health.tick(now));
        }
        self.poll(ledger);
    }

    /// Shut down a pass that was spawned but never fed.
    pub fn close_idle(self) {
        self.ctl.join();
    }

    /// Non-blocking close poll.
    pub fn poll(&mut self, ledger: &mut Ledger) {
        self.observer.poll(&self.handle, self.threshold, ledger);
    }

    /// Poll for closes until `deadline` (pacing).
    pub fn wait_until(&mut self, ledger: &mut Ledger, deadline: Instant) {
        self.observer
            .wait(&self.handle, self.threshold, ledger, deadline, false);
    }

    /// Wait (bounded) for every window to merge, join the controller,
    /// settle the oracle, and check the controller's own accounting.
    pub fn drain(mut self, ledger: &mut Ledger) -> PassEnd {
        let last_send = Instant::now();
        self.observer.wait(
            &self.handle,
            self.threshold,
            ledger,
            last_send + WEDGE_LIMIT,
            true,
        );
        let busiest = ledger.on().then(|| {
            let busiest = self
                .ctl_tids
                .iter()
                .filter_map(|&t| sys::thread_cpu_ns(t))
                .max()
                .unwrap_or(0);
            (busiest, self.spawned_at.elapsed())
        });
        let metrics: ReliabilityMetrics = ledger.time(Layer::Join, 0, || self.ctl.join());
        let joined_at = Instant::now();
        let drain = joined_at - last_send;
        let mut errors = Vec::new();
        if let Some(scorer) = &self.scorer {
            ledger.time(Layer::Quiesce, 0, || scorer.quiesce());
            let s = scorer.summary();
            let got = (
                s.windows_scored,
                s.precision_permille,
                s.recall_permille,
                s.aare_permille,
                scorer.pending_windows(),
            );
            if got != (self.windows, 1000, 1000, 0, 0) {
                errors.push(format!(
                    "oracle: (scored, precision‰, recall‰, aare‰, pending) = {got:?}, \
                     want ({}, 1000, 1000, 0, 0)",
                    self.windows
                ));
            }
        }
        // After join the list is final: one more poll credits anything
        // that merged after the wait gave up.
        self.observer.poll(&self.handle, self.threshold, ledger);
        // `recovered` counts retransmitted records only; an escalated
        // session's OS read supplies the rest of its batch.
        let delivered = metrics.first_pass + metrics.recovered;
        if metrics.announced != self.records
            || metrics.departed != 0
            || delivered > self.records
            || (delivered < self.records && metrics.escalations == 0)
        {
            errors.push(format!(
                "controller accounting: {} announced to it of {} sent, {} first pass + {} \
                 retransmitted, {} escalation(s), {} departed",
                metrics.announced,
                self.records,
                metrics.first_pass,
                metrics.recovered,
                metrics.escalations,
                metrics.departed
            ));
        }
        PassEnd {
            handle: self.handle,
            windows: self.windows,
            records: self.records,
            observer: self.observer,
            recovery: self.recovery,
            errors,
            drain,
            joined_at,
            busiest,
        }
    }
}

impl PassEnd {
    /// FNV-1a 64 of the encoded final fold.
    pub fn digest(&self) -> u64 {
        fnv1a(&encode_merged(&self.handle.snapshot()))
    }

    /// Windows this pass failed: all of them when a check failed,
    /// otherwise the ones never proven merged.
    pub fn failed_windows(&self) -> u64 {
        if self.errors.is_empty() {
            self.observer.pending() as u64
        } else {
            self.windows
        }
    }
}

/// FNV-1a 64 over bytes — the fold digest every BENCH file pins.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}
