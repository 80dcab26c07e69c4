//! Property-based tests for the controller's merge semantics and the
//! AFR wire codec.

use ow_common::afr::{AttrValue, DistinctBitmap, FlowRecord};
use ow_common::flowkey::FlowKey;
use ow_controller::table::MergeTable;
use ow_controller::wire::{decode_batch, encode_batch};
use proptest::prelude::*;
use std::collections::HashMap;

fn arb_attr() -> impl Strategy<Value = AttrValue> {
    prop_oneof![
        any::<u64>().prop_map(AttrValue::Frequency),
        any::<bool>().prop_map(AttrValue::Existence),
        any::<u64>().prop_map(AttrValue::Max),
        any::<u64>().prop_map(AttrValue::Min),
        any::<i64>().prop_map(AttrValue::Signed),
        proptest::collection::vec(any::<u64>(), 0..20).prop_map(|hs| {
            let mut bm = DistinctBitmap::default();
            for h in hs {
                bm.insert_hash(h);
            }
            AttrValue::Distinction(bm)
        }),
        (proptest::collection::vec(any::<u64>(), 0..20), any::<u64>()).prop_map(|(hs, bytes)| {
            let mut conns = DistinctBitmap::with_logical_bits(64);
            for h in hs {
                conns.insert_hash(h);
            }
            AttrValue::ConnBytes { conns, bytes }
        }),
    ]
}

fn arb_record() -> impl Strategy<Value = FlowRecord> {
    (any::<u32>(), arb_attr(), any::<u32>(), any::<u32>()).prop_map(
        |(src, attr, subwindow, seq)| FlowRecord {
            key: FlowKey::src_ip(src),
            attr,
            subwindow,
            seq,
        },
    )
}

/// Random per-sub-window batches: (key id, count) pairs.
fn arb_batches() -> impl Strategy<Value = Vec<Vec<(u8, u16)>>> {
    proptest::collection::vec(proptest::collection::vec((0u8..24, 1u16..500), 0..40), 1..8)
}

fn to_records(sw: u32, batch: &[(u8, u16)]) -> Vec<FlowRecord> {
    // Deduplicate keys within a batch (one AFR per key per sub-window).
    let mut per_key: HashMap<u8, u64> = HashMap::new();
    for &(k, c) in batch {
        *per_key.entry(k).or_insert(0) += c as u64;
    }
    let mut recs: Vec<FlowRecord> = per_key
        .into_iter()
        .map(|(k, c)| FlowRecord::frequency(FlowKey::src_ip(k as u32 + 1), c, sw))
        .collect();
    recs.sort_by_key(|r| r.key.as_u128());
    for (i, r) in recs.iter_mut().enumerate() {
        r.seq = i as u32;
    }
    recs
}

/// Naive reference: merged counts over a span of batches.
fn naive_merge(batches: &[Vec<FlowRecord>]) -> HashMap<FlowKey, u64> {
    let mut m = HashMap::new();
    for b in batches {
        for r in b {
            if let AttrValue::Frequency(v) = r.attr {
                *m.entry(r.key).or_insert(0) += v;
            }
        }
    }
    m
}

proptest! {
    /// MergeTable's merged view always equals the naive recomputation,
    /// after any sequence of inserts.
    #[test]
    fn table_matches_naive_merge(batches in arb_batches()) {
        let recs: Vec<Vec<FlowRecord>> = batches
            .iter()
            .enumerate()
            .map(|(sw, b)| to_records(sw as u32, b))
            .collect();
        let mut table = MergeTable::new();
        for (sw, b) in recs.iter().enumerate() {
            table.insert_batch(sw as u32, b.clone());
        }
        let naive = naive_merge(&recs);
        prop_assert_eq!(table.len(), naive.len());
        for (k, v) in &naive {
            prop_assert_eq!(table.get(k), Some(AttrValue::Frequency(*v)), "{}", k);
        }
    }

    /// Eviction is exact: after evicting the oldest batch, the table
    /// equals the naive merge over the remaining batches — inverse
    /// subtraction and deletion never drift.
    #[test]
    fn eviction_matches_naive_merge(batches in arb_batches()) {
        let recs: Vec<Vec<FlowRecord>> = batches
            .iter()
            .enumerate()
            .map(|(sw, b)| to_records(sw as u32, b))
            .collect();
        let mut table = MergeTable::new();
        for (sw, b) in recs.iter().enumerate() {
            table.insert_batch(sw as u32, b.clone());
        }
        for evicted in 0..recs.len() {
            table.evict_oldest();
            let naive = naive_merge(&recs[evicted + 1..]);
            prop_assert_eq!(table.len(), naive.len(), "after evicting {}", evicted);
            for (k, v) in &naive {
                prop_assert_eq!(table.get(k), Some(AttrValue::Frequency(*v)));
            }
        }
        prop_assert!(table.is_empty());
    }

    /// A sliding window driven the way Exp#4 drives the production
    /// table — `insert_batch`, then `flows_over`, then `evict_oldest`
    /// once `span` sub-windows are retained — reports the same flows as
    /// a naive window recomputation, at every position.
    #[test]
    fn sliding_reports_match_naive_at_every_position(batches in arb_batches(), span in 1usize..4) {
        let recs: Vec<Vec<FlowRecord>> = batches
            .iter()
            .enumerate()
            .map(|(sw, b)| to_records(sw as u32, b))
            .collect();
        let threshold = 400.0;
        let mut table = MergeTable::new();
        for (sw, b) in recs.iter().enumerate() {
            table.insert_batch(sw as u32, b.clone());
            if sw + 1 < span {
                continue;
            }
            let pos = sw + 1 - span;
            let report: Vec<FlowKey> = table
                .flows_over(threshold)
                .into_iter()
                .map(|(k, _)| k)
                .collect();
            let mut expect: Vec<FlowKey> = naive_merge(&recs[pos..=sw])
                .into_iter()
                .filter(|(_, v)| *v as f64 >= threshold)
                .map(|(k, _)| k)
                .collect();
            expect.sort_by_key(|k| k.as_u128());
            prop_assert_eq!(report, expect, "position {}", pos);
            prop_assert_eq!(table.evict_oldest(), Some(pos as u32));
        }
    }

    /// The AFR wire codec roundtrips every batch exactly.
    #[test]
    fn wire_codec_roundtrips(batch in proptest::collection::vec(arb_record(), 0..50)) {
        let wire = encode_batch(&batch);
        let back = decode_batch(wire).unwrap();
        prop_assert_eq!(back, batch);
    }

    /// Decoding arbitrary bytes never panics; on success, re-encoding
    /// reproduces semantically equal records.
    #[test]
    fn wire_decode_is_safe(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        if let Ok(batch) = decode_batch(&data[..]) {
            let re = encode_batch(&batch);
            prop_assert_eq!(decode_batch(re).unwrap(), batch);
        }
    }

    /// `flows_over` returns exactly the flows at/above the threshold,
    /// sorted by key.
    #[test]
    fn flows_over_is_exact(batch in proptest::collection::vec((0u8..40, 1u16..300), 0..60), t in 1u32..500) {
        let recs = to_records(0, &batch);
        let mut table = MergeTable::new();
        table.insert_batch(0, recs.clone());
        let over = table.flows_over(t as f64);
        let naive = naive_merge(&[recs]);
        for (k, v) in &over {
            prop_assert!(*v >= t as f64);
            prop_assert_eq!(naive[k] as f64, *v);
        }
        let expect_count = naive.values().filter(|&&v| v as f64 >= t as f64).count();
        prop_assert_eq!(over.len(), expect_count);
        prop_assert!(over.windows(2).all(|w| w[0].0.as_u128() < w[1].0.as_u128()));
    }
}
