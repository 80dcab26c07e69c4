//! The OmniWindow controller: AFR collection, storage, and merging.
//!
//! The paper's controller is a DPDK process that (1) receives trigger
//! packets and injects flowkeys/collection packets, (2) stores incoming
//! AFRs in an `rte_hash` table, (3) merges per-sub-window AFRs into
//! complete windows with AVX-512, (4) answers telemetry queries on the
//! merged table, and (5) for sliding windows evicts the oldest
//! sub-window. This crate reproduces that pipeline in native Rust:
//!
//! * [`table`] — the key-value merge table with the four merge
//!   strategies (frequency / existence / max-min / distinction) and
//!   incremental sliding-window eviction,
//! * [`shard`] — the same table split into `N` disjoint key slices by
//!   flow-key hash, with a deterministic final fold that is
//!   byte-identical to the single-shard baseline,
//! * [`collector`] — the per-sub-window collection session, including
//!   the sequence-id reliability check and retransmission requests (§8),
//! * [`rdma`] — the simulated one-sided RDMA region: hot-key address
//!   MAT, cold-key append buffer, and Fetch-and-Add offload (§7),
//! * [`simd`] — scalar vs auto-vectorised AFR aggregation (Exp#7),
//! * [`live`] — the threaded live controller: a router thread that
//!   runs the §8 collection loop (announce, stream, recover, merge) in
//!   front of `N` shard workers with lock-protected merge tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collector;
pub mod health;
pub mod live;
pub mod rdma;
pub mod reliability;
pub mod shard;
pub mod simd;
pub mod table;
pub mod wire;

pub use collector::{CollectionSession, SessionStatus};
pub use live::{LiveHandle, ReliableLiveController, ReliableMsg};
pub use rdma::{RdmaRegion, RdmaWriteKind};
pub use reliability::{AfrTransport, FnTransport, ReliabilityDriver, RetryPolicy, SessionOutcome};
pub use shard::ShardedMergeTable;
pub use table::MergeTable;
pub use wire::{decode_batch, decode_merged, encode_batch, encode_merged};
