//! Unit and property tests for the FAST+FAIR tree.

use std::collections::BTreeMap;
use std::sync::Arc;

use pmem::{stats, Pool, PoolConfig};
use pmindex::workload::{generate_keys, value_for, KeyDist};
use pmindex::{Cursor, PmIndex};
use proptest::prelude::*;

use crate::{FastFairTree, InNodeSearch, SplitStrategy, TreeOptions};

fn pool(mb: usize) -> Arc<Pool> {
    Arc::new(Pool::new(PoolConfig::new().size(mb << 20)).unwrap())
}

fn tree_with(pool: &Arc<Pool>, opts: TreeOptions) -> FastFairTree {
    FastFairTree::create(Arc::clone(pool), opts).unwrap()
}

fn small_tree() -> (Arc<Pool>, FastFairTree) {
    let p = pool(64);
    let t = tree_with(&p, TreeOptions::new());
    (p, t)
}

#[test]
fn empty_tree_behaviour() {
    let (_p, t) = small_tree();
    assert_eq!(t.get(1), None);
    assert!(!t.remove(1));
    assert!(t.is_empty());
    assert_eq!(t.len(), 0);
    assert_eq!(t.height(), 0);
    let mut out = Vec::new();
    t.range(0, u64::MAX, &mut out);
    assert!(out.is_empty());
}

#[test]
fn single_insert_get_remove() {
    let (_p, t) = small_tree();
    t.insert(42, 4242).unwrap();
    assert_eq!(t.get(42), Some(4242));
    assert_eq!(t.get(41), None);
    assert_eq!(t.get(43), None);
    assert!(!t.is_empty());
    assert_eq!(t.len(), 1);
    assert!(t.remove(42));
    assert_eq!(t.get(42), None);
    assert!(t.is_empty());
}

#[test]
fn reserved_values_rejected() {
    let (_p, t) = small_tree();
    assert!(t.insert(1, 0).is_err());
    assert!(t.insert(1, u64::MAX).is_err());
}

#[test]
fn upsert_replaces_value() {
    let (_p, t) = small_tree();
    assert_eq!(t.insert(7, 100).unwrap(), None);
    assert_eq!(t.insert(7, 200).unwrap(), Some(100));
    assert_eq!(t.get(7), Some(200));
    assert_eq!(t.len(), 1);
    // Upserting the same value is a no-op that still reports the old one.
    assert_eq!(t.insert(7, 200).unwrap(), Some(200));
}

#[test]
fn update_only_touches_existing_keys() {
    let (_p, t) = small_tree();
    let keys = generate_keys(5000, KeyDist::Uniform, 71);
    for &k in &keys {
        t.insert(k, value_for(k)).unwrap();
    }
    let probe = keys[123];
    assert_eq!(t.update(probe, 999_999).unwrap(), Some(value_for(probe)));
    assert_eq!(t.get(probe), Some(999_999));
    // Absent key: no insert, tree size unchanged.
    let absent = keys.iter().fold(1u64, |a, &k| a.wrapping_add(k)) | 1;
    if !keys.contains(&absent) {
        assert_eq!(t.update(absent, 7).unwrap(), None);
        assert_eq!(t.get(absent), None);
    }
    assert_eq!(t.len(), keys.len());
    assert!(t.update(probe, 0).is_err());
    t.check_consistency(true).unwrap();
}

#[test]
fn cursor_streams_and_reseeks() {
    let (_p, t) = small_tree();
    let keys = generate_keys(10_000, KeyDist::Uniform, 73);
    for &k in &keys {
        t.insert(k, value_for(k)).unwrap();
    }
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    let mut c = t.cursor();
    let mut seen = Vec::new();
    while let Some((k, v)) = c.next() {
        assert_eq!(v, value_for(k));
        seen.push(k);
    }
    assert_eq!(seen, sorted);
    // Reuse via seek, including a seek backwards.
    c.seek(sorted[5000]);
    assert_eq!(c.next(), Some((sorted[5000], value_for(sorted[5000]))));
    c.seek(sorted[10]);
    assert_eq!(c.next(), Some((sorted[10], value_for(sorted[10]))));
    // Seek between two keys lands on the successor.
    if sorted[20] + 1 < sorted[21] {
        c.seek(sorted[20] + 1);
        assert_eq!(c.next(), Some((sorted[21], value_for(sorted[21]))));
    }
    c.seek(u64::MAX);
    assert!(sorted.binary_search(&u64::MAX).is_err());
    assert_eq!(c.next(), None);
}

#[test]
fn bulk_load_builds_packed_tree() {
    let (_p, t) = small_tree();
    let n = 20_000u64;
    let loaded = t
        .bulk_load(&mut (1..=n).map(|k| (k, value_for(k))))
        .unwrap();
    assert_eq!(loaded, n as usize);
    assert_eq!(t.len(), n as usize);
    t.check_consistency(true).unwrap();
    for k in (1..=n).step_by(97) {
        assert_eq!(t.get(k), Some(value_for(k)), "key {k}");
    }
    // Leaves are fully packed: node count is near the theoretical minimum.
    let report = t.check_consistency(true).unwrap();
    let cap = t.node_capacity() as usize;
    let min_leaves = (n as usize).div_ceil(cap);
    assert!(
        report.nodes < 2 * min_leaves + 8,
        "bulk load under-packed: {} nodes for {} keys (min leaves {})",
        report.nodes,
        n,
        min_leaves
    );
    // The loaded tree accepts the full write path afterwards.
    assert_eq!(t.insert(0x5555_5555, 42).unwrap(), None);
    assert!(t.remove(7));
    t.check_consistency(true).unwrap();
}

#[test]
fn bulk_load_flushes_once_per_line() {
    let (_p, t) = small_tree();
    let n = 10_000u64;
    stats::reset();
    t.bulk_load(&mut (1..=n).map(|k| (k, value_for(k))))
        .unwrap();
    let s = stats::take();
    // Every node is persisted exactly once: node_size/64 flushes per node
    // plus the root-pointer commit. With 512-byte nodes and 26-record
    // leaves that is well under one flush per record; loop-insertion costs
    // several per record.
    let per_key = s.flushes as f64 / n as f64;
    assert!(per_key < 1.0, "bulk load flushed {per_key} lines per key");
}

#[test]
fn bulk_load_tolerates_stragglers_and_falls_back_when_nonempty() {
    let (_p, t) = small_tree();
    // Out-of-order and duplicate items are routed through normal inserts.
    let items = [(10u64, 1u64), (20, 2), (15, 3), (20, 4), (30, 5)];
    let loaded = t.bulk_load(&mut items.iter().copied()).unwrap();
    assert_eq!(loaded, 4); // 10, 20, 15, 30 — the second 20 upserts
    assert_eq!(t.get(15), Some(3));
    assert_eq!(t.get(20), Some(4));
    t.check_consistency(true).unwrap();
    // Non-empty tree: bulk_load degrades to loop-insert and still counts
    // only fresh keys.
    let more = [(5u64, 6u64), (20, 7), (40, 8)];
    assert_eq!(t.bulk_load(&mut more.iter().copied()).unwrap(), 2);
    assert_eq!(t.get(20), Some(7));
    assert_eq!(t.len(), 6);
    t.check_consistency(true).unwrap();
    // Reserved values are rejected on the packed path…
    let (_p2, t2) = small_tree();
    assert!(t2.bulk_load(&mut [(1u64, 0u64)].iter().copied()).is_err());
    // …and on the non-empty fallback path.
    assert!(t.bulk_load(&mut [(90u64, 0u64)].iter().copied()).is_err());
    assert!(t
        .bulk_load(&mut [(91u64, u64::MAX)].iter().copied())
        .is_err());
    assert_eq!(t.get(90), None);
    assert_eq!(t.get(91), None);
}

#[test]
fn bulk_loaded_tree_survives_reopen() {
    let p = pool(64);
    let t = tree_with(&p, TreeOptions::new());
    t.bulk_load(&mut (1..=5000u64).map(|k| (k * 3, k))).unwrap();
    let meta = t.meta_offset();
    drop(t);
    let img = p.volatile_image();
    let p2 = Arc::new(Pool::from_image(&img, PoolConfig::new().size(64 << 20)).unwrap());
    let t2 = FastFairTree::open(Arc::clone(&p2), meta, TreeOptions::new()).unwrap();
    for k in (1..=5000u64).step_by(61) {
        assert_eq!(t2.get(k * 3), Some(k));
    }
    t2.check_consistency(true).unwrap();
}

#[test]
fn merged_leaves_are_recycled_for_reuse() {
    let (_p, t) = small_tree();
    for k in 1..=2000u64 {
        t.insert(k, k + 1).unwrap();
    }
    // Wipe a wide middle band so whole leaves empty and get unlinked.
    stats::reset();
    for k in 200..=1800u64 {
        assert!(t.remove(k));
    }
    let report = t.recover().unwrap();
    let snap = stats::take();
    // Every unlinked leaf was freed exactly once: either online by the
    // epoch collector riding the delete traffic, or by recover's flush
    // of whatever was still in limbo — the two paths partition the total.
    assert!(
        snap.nodes_recycled > 0,
        "no unlinked leaves were recycled: {report:?}"
    );
    assert_eq!(
        snap.nodes_recycled,
        snap.nodes_recycled_online + report.nodes_recycled as u64
    );
    // The free list serves the next allocations: inserting the band back
    // reuses recycled nodes instead of growing the pool.
    let high_water = t.pool().high_water();
    for k in 200..=400u64 {
        t.insert(k, k + 1).unwrap();
    }
    assert_eq!(
        t.pool().high_water(),
        high_water,
        "recycled nodes not reused"
    );
    t.check_consistency(true).unwrap();
}

/// The tentpole concurrency guarantee: a lock-free cursor running during
/// concurrent inserts (with splits) observes every key committed before its
/// seek, nothing duplicated, in strictly ascending order.
#[test]
fn cursor_during_concurrent_inserts_sees_committed_keys_once() {
    let p = pool(256);
    let t = Arc::new(tree_with(&p, TreeOptions::new().node_size(256)));
    let committed = generate_keys(8_000, KeyDist::Uniform, 79);
    for &k in &committed {
        t.insert(k, value_for(k)).unwrap();
    }
    let mut committed_sorted = committed.clone();
    committed_sorted.sort_unstable();
    let fresh = generate_keys(8_000, KeyDist::Uniform, 83);
    let committed_set: std::collections::HashSet<u64> = committed.iter().copied().collect();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|s| {
        {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            let fresh = &fresh;
            s.spawn(move || {
                for &k in fresh {
                    t.insert(k, value_for(k)).unwrap();
                }
                stop.store(true, std::sync::atomic::Ordering::Release);
            });
        }
        for reader in 0..2 {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            let committed_sorted = &committed_sorted;
            let committed_set = &committed_set;
            s.spawn(move || {
                let mut rounds = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Acquire) || rounds == 0 {
                    let mut c = t.cursor();
                    // Alternate full scans with mid-key seeks.
                    let start_rank = if rounds.is_multiple_of(2) {
                        0
                    } else {
                        (rounds * 997 + reader) % committed_sorted.len()
                    };
                    c.seek(committed_sorted[start_rank]);
                    let mut expected = committed_sorted[start_rank..].iter().copied();
                    let mut prev: Option<u64> = None;
                    while let Some((k, v)) = c.next() {
                        // Strictly ascending, never duplicated.
                        assert!(prev.is_none_or(|p| k > p), "cursor regressed at {k}");
                        prev = Some(k);
                        if committed_set.contains(&k) {
                            // Every pre-seek key must appear, in order.
                            assert_eq!(
                                expected.next(),
                                Some(k),
                                "cursor skipped a committed key before {k}"
                            );
                            assert_eq!(v, value_for(k));
                        }
                    }
                    assert_eq!(
                        expected.next(),
                        None,
                        "cursor missed committed keys at the tail"
                    );
                    rounds += 1;
                }
            });
        }
    });
    t.check_consistency(true).unwrap();
}

/// Regression: adjacent keys carrying the *same value* must all stay
/// visible. The paper's pointer-duplication validity test silently dropped
/// every entry whose value equalled its left neighbour's — the poison
/// sentinel protocol (see `layout`) detects shifts exactly instead.
#[test]
fn duplicate_values_across_keys_are_preserved() {
    let (_p, t) = small_tree();
    // Enough keys to force splits, all with one shared value, interleaved
    // so shifts land new entries between equal-valued neighbours.
    for k in (1..=600u64).step_by(2) {
        t.insert(k, 7).unwrap();
    }
    for k in (2..=600u64).step_by(2) {
        t.insert(k, 7).unwrap();
    }
    for k in 1..=600 {
        assert_eq!(t.get(k), Some(7), "key {k} lost its duplicated value");
    }
    assert_eq!(t.len(), 600);
    let mut out = Vec::new();
    t.range(0, u64::MAX, &mut out);
    assert_eq!(out.len(), 600);
    assert!(out.iter().all(|&(_, v)| v == 7));
    // Deletes around equal-valued neighbours must not take bystanders.
    for k in (3..=600u64).step_by(3) {
        assert!(t.remove(k), "key {k} missing before remove");
    }
    for k in 1..=600 {
        let expect = if k % 3 == 0 { None } else { Some(7) };
        assert_eq!(t.get(k), expect, "key {k} wrong after dup-value deletes");
    }
    t.check_consistency(true).unwrap();
}

/// Same regression for the bulk-load path: packed leaves with repeated
/// values must read back completely.
#[test]
fn bulk_load_preserves_duplicate_values() {
    let (_p, t) = small_tree();
    assert_eq!(t.bulk_load(&mut (1..=500).map(|k| (k, 9))).unwrap(), 500);
    for k in 1..=500 {
        assert_eq!(t.get(k), Some(9), "bulk-loaded key {k} lost its value");
    }
    assert_eq!(t.len(), 500);
    t.check_consistency(true).unwrap();
}

#[test]
fn ascending_inserts_split_correctly() {
    let (_p, t) = small_tree();
    let n = 5000u64;
    for k in 1..=n {
        t.insert(k, k + 1).unwrap();
    }
    assert!(t.height() >= 1);
    for k in 1..=n {
        assert_eq!(t.get(k), Some(k + 1), "key {k}");
    }
    t.check_consistency(true).unwrap();
}

#[test]
fn descending_inserts_exercise_slot_zero() {
    let (_p, t) = small_tree();
    let n = 3000u64;
    for k in (1..=n).rev() {
        t.insert(k, k + 1).unwrap();
    }
    for k in 1..=n {
        assert_eq!(t.get(k), Some(k + 1), "key {k}");
    }
    t.check_consistency(true).unwrap();
}

#[test]
fn random_inserts_and_lookups() {
    let (_p, t) = small_tree();
    let keys = generate_keys(20_000, KeyDist::Uniform, 7);
    for &k in &keys {
        t.insert(k, value_for(k)).unwrap();
    }
    for &k in &keys {
        assert_eq!(t.get(k), Some(value_for(k)));
    }
    assert_eq!(t.len(), keys.len());
    t.check_consistency(true).unwrap();
}

#[test]
fn deletes_interleaved_with_inserts() {
    let (_p, t) = small_tree();
    let keys = generate_keys(8000, KeyDist::Uniform, 13);
    let mut model = BTreeMap::new();
    for (i, &k) in keys.iter().enumerate() {
        t.insert(k, value_for(k)).unwrap();
        model.insert(k, value_for(k));
        if i % 3 == 0 {
            let victim = keys[i / 2];
            assert_eq!(t.remove(victim), model.remove(&victim).is_some());
        }
    }
    for (&k, &v) in &model {
        assert_eq!(t.get(k), Some(v), "key {k}");
    }
    assert_eq!(t.len(), model.len());
    t.check_consistency(true).unwrap();
}

#[test]
fn delete_all_keys_leaves_empty_tree() {
    let (_p, t) = small_tree();
    let keys = generate_keys(2000, KeyDist::DenseShuffled, 3);
    for &k in &keys {
        t.insert(k, value_for(k)).unwrap();
    }
    for &k in &keys {
        assert!(t.remove(k), "key {k}");
    }
    assert!(t.is_empty());
    for &k in &keys {
        assert_eq!(t.get(k), None);
    }
    t.check_consistency(true).unwrap();
}

#[test]
fn range_scan_matches_model() {
    let (_p, t) = small_tree();
    let keys = generate_keys(10_000, KeyDist::Uniform, 17);
    let mut model = BTreeMap::new();
    for &k in &keys {
        t.insert(k, value_for(k)).unwrap();
        model.insert(k, value_for(k));
    }
    let mut sorted: Vec<u64> = keys.clone();
    sorted.sort_unstable();
    for (lo_i, span) in [(0usize, 50usize), (100, 1000), (5000, 3000), (9990, 100)] {
        let lo = sorted[lo_i];
        let hi = sorted.get(lo_i + span).copied().unwrap_or(u64::MAX);
        let mut got = Vec::new();
        t.range(lo, hi, &mut got);
        let want: Vec<(u64, u64)> = model.range(lo..hi).map(|(&k, &v)| (k, v)).collect();
        assert_eq!(got, want, "range [{lo}, {hi})");
    }
}

#[test]
fn full_iteration_is_sorted_and_complete() {
    let (_p, t) = small_tree();
    let keys = generate_keys(5000, KeyDist::Uniform, 23);
    for &k in &keys {
        t.insert(k, value_for(k)).unwrap();
    }
    let mut seen = Vec::new();
    t.for_each(|k, v| {
        assert_eq!(v, value_for(k));
        seen.push(k);
    });
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(seen, sorted);
}

#[test]
fn all_node_sizes_work() {
    for size in [256u32, 512, 1024, 2048, 4096] {
        let p = pool(64);
        let t = tree_with(&p, TreeOptions::new().node_size(size));
        let keys = generate_keys(3000, KeyDist::Uniform, u64::from(size));
        for &k in &keys {
            t.insert(k, value_for(k)).unwrap();
        }
        for &k in &keys {
            assert_eq!(t.get(k), Some(value_for(k)), "size {size} key {k}");
        }
        t.check_consistency(true).unwrap();
    }
}

#[test]
fn binary_search_variant_matches_linear() {
    let p = pool(64);
    let t = tree_with(&p, TreeOptions::new().search(InNodeSearch::Binary));
    let keys = generate_keys(5000, KeyDist::Uniform, 29);
    for &k in &keys {
        t.insert(k, value_for(k)).unwrap();
    }
    for &k in &keys {
        assert_eq!(t.get(k), Some(value_for(k)));
    }
    assert_eq!(
        t.get(keys[0].wrapping_add(1)).is_some(),
        keys.contains(&(keys[0].wrapping_add(1)))
    );
}

#[test]
fn leaflock_variant_works() {
    let p = pool(64);
    let t = tree_with(&p, TreeOptions::new().leaf_locks(true));
    assert_eq!(t.name(), "FAST+FAIR+LeafLock");
    let keys = generate_keys(3000, KeyDist::Uniform, 31);
    for &k in &keys {
        t.insert(k, value_for(k)).unwrap();
    }
    for &k in &keys {
        assert_eq!(t.get(k), Some(value_for(k)));
    }
    let mut out = Vec::new();
    t.range(0, u64::MAX, &mut out);
    assert_eq!(out.len(), keys.len());
}

#[test]
fn logging_variant_works_and_is_flush_heavier() {
    let p1 = pool(64);
    let fair = tree_with(&p1, TreeOptions::new());
    let p2 = pool(64);
    let logging = tree_with(&p2, TreeOptions::new().split(SplitStrategy::Logging));
    assert_eq!(logging.name(), "FAST+Logging");
    let keys = generate_keys(5000, KeyDist::Uniform, 37);

    stats::reset();
    for &k in &keys {
        fair.insert(k, value_for(k)).unwrap();
    }
    let fair_flushes = stats::take().flushes;

    stats::reset();
    for &k in &keys {
        logging.insert(k, value_for(k)).unwrap();
    }
    let logging_flushes = stats::take().flushes;

    for &k in &keys {
        assert_eq!(logging.get(k), Some(value_for(k)));
    }
    logging.check_consistency(true).unwrap();
    assert!(
        logging_flushes > fair_flushes,
        "logging {logging_flushes} vs fair {fair_flushes}"
    );
}

#[test]
fn flush_count_matches_paper_ballpark() {
    // §5.2: a 512-byte node spans 8 cache lines, so FAST needs at most 8
    // flushes and ~4 on average per insert (plus amortized split cost).
    let (_p, t) = small_tree();
    let keys = generate_keys(20_000, KeyDist::Uniform, 41);
    for &k in &keys[..10_000] {
        t.insert(k, value_for(k)).unwrap();
    }
    stats::reset();
    for &k in &keys[10_000..] {
        t.insert(k, value_for(k)).unwrap();
    }
    let s = stats::take();
    let per_insert = s.flushes as f64 / 10_000.0;
    assert!(
        (1.0..=8.0).contains(&per_insert),
        "avg flushes per insert = {per_insert}"
    );
}

#[test]
fn reopen_after_clean_shutdown() {
    let p = pool(64);
    let t = tree_with(&p, TreeOptions::new());
    let keys = generate_keys(4000, KeyDist::Uniform, 43);
    for &k in &keys {
        t.insert(k, value_for(k)).unwrap();
    }
    let meta = t.meta_offset();
    drop(t);
    let img = p.volatile_image();
    let p2 = Arc::new(Pool::from_image(&img, PoolConfig::new().size(64 << 20)).unwrap());
    let t2 = FastFairTree::open(Arc::clone(&p2), meta, TreeOptions::new()).unwrap();
    for &k in &keys {
        assert_eq!(t2.get(k), Some(value_for(k)));
    }
    t2.check_consistency(true).unwrap();
    // The reopened tree accepts writes.
    t2.insert(keys[0].wrapping_add(2), 777).unwrap();
}

#[test]
fn open_rejects_bad_magic() {
    let p = pool(1);
    let off = p.alloc(64, 64).unwrap();
    assert!(FastFairTree::open(Arc::clone(&p), off, TreeOptions::new()).is_err());
}

#[test]
fn recover_on_healthy_tree_is_noop() {
    let (_p, t) = small_tree();
    for k in 1..2000u64 {
        t.insert(k, k + 1).unwrap();
    }
    let r = t.recover().unwrap();
    assert_eq!(r.garbage_removed, 0);
    assert_eq!(r.splits_completed, 0);
    assert_eq!(r.siblings_attached, 0);
    t.check_consistency(true).unwrap();
    for k in 1..2000u64 {
        assert_eq!(t.get(k), Some(k + 1));
    }
}

#[test]
fn concurrent_inserts_are_linearizable() {
    let p = pool(256);
    let t = Arc::new(tree_with(&p, TreeOptions::new()));
    let keys = generate_keys(40_000, KeyDist::Uniform, 47);
    let chunks = pmindex::workload::partition(&keys, 4);
    std::thread::scope(|s| {
        for chunk in &chunks {
            let t = Arc::clone(&t);
            s.spawn(move || {
                for &k in chunk {
                    t.insert(k, value_for(k)).unwrap();
                }
            });
        }
    });
    for &k in &keys {
        assert_eq!(t.get(k), Some(value_for(k)));
    }
    t.check_consistency(true).unwrap();
}

#[test]
fn concurrent_readers_during_writes_see_committed_keys() {
    let p = pool(256);
    let t = Arc::new(tree_with(&p, TreeOptions::new()));
    let preload = generate_keys(20_000, KeyDist::Uniform, 53);
    for &k in &preload {
        t.insert(k, value_for(k)).unwrap();
    }
    let fresh = generate_keys(20_000, KeyDist::Uniform, 59);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|s| {
        {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                for &k in &fresh {
                    t.insert(k, value_for(k)).unwrap();
                }
                stop.store(true, std::sync::atomic::Ordering::Release);
            });
        }
        for _ in 0..2 {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            let preload = &preload;
            s.spawn(move || {
                let mut i = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    let k = preload[i % preload.len()];
                    // Preloaded keys must always be visible to lock-free
                    // readers, whatever the concurrent writer is doing.
                    assert_eq!(t.get(k), Some(value_for(k)), "lost key {k}");
                    i += 1;
                }
            });
        }
    });
    t.check_consistency(true).unwrap();
}

#[test]
fn concurrent_mixed_workload() {
    let p = pool(256);
    let t = Arc::new(tree_with(&p, TreeOptions::new()));
    let preload = generate_keys(10_000, KeyDist::Uniform, 61);
    for &k in &preload {
        t.insert(k, value_for(k)).unwrap();
    }
    let fresh = generate_keys(8_000, KeyDist::Uniform, 67);
    let chunks = pmindex::workload::partition(&fresh, 4);
    std::thread::scope(|s| {
        for (id, chunk) in chunks.iter().enumerate() {
            let t = Arc::clone(&t);
            let preload = &preload;
            s.spawn(move || {
                let ops = pmindex::workload::mixed_ops(preload, chunk, chunk.len() / 4, id as u64);
                for op in ops {
                    match op {
                        pmindex::workload::Op::Insert(k) => {
                            assert_eq!(t.insert(k, value_for(k)).unwrap(), None);
                        }
                        pmindex::workload::Op::Search(k) => {
                            assert_eq!(t.get(k), Some(value_for(k)));
                        }
                        pmindex::workload::Op::Delete(k) => {
                            assert!(t.remove(k));
                        }
                        pmindex::workload::Op::Scan(lo, hi) => {
                            let mut c = t.cursor();
                            c.seek(lo);
                            while let Some((k, _)) = c.next() {
                                if k >= hi {
                                    break;
                                }
                            }
                        }
                    }
                }
            });
        }
    });
    t.check_consistency(true).unwrap();
}

/// The two layout variants of the microarchitecture sweep: baseline and
/// fingerprinted probes.
fn geometry_variants() -> [(&'static str, TreeOptions); 2] {
    [
        ("base", TreeOptions::new()),
        ("fp", TreeOptions::new().fingerprints(true)),
    ]
}

#[test]
fn layout_variant_names_and_capacity() {
    let p = pool(64);
    let base = tree_with(&p, TreeOptions::new());
    let fp = tree_with(&p, TreeOptions::new().fingerprints(true));
    assert_eq!(base.name(), "FAST+FAIR");
    assert_eq!(fp.name(), "FAST+FAIR+FP");
    // Fingerprints cost whole reserved cache lines of record capacity.
    assert!(fp.node_capacity() < base.node_capacity());
}

/// Every layout variant matches a model under the shapes that stress its
/// mechanics: random churn, descending inserts (slot-0 path), low-slot
/// deletes (longest left shifts), and equal adjacent values.
#[test]
fn layout_variants_match_model() {
    for (name, opts) in geometry_variants() {
        for node_size in [256u32, 512, 1024] {
            let p = pool(128);
            let t = tree_with(&p, opts.node_size(node_size));
            let mut model = BTreeMap::new();
            // Descending inserts drive every insert through the lowest
            // slot — the longest right shift.
            for k in (1..=2000u64).rev() {
                t.insert(k, value_for(k)).unwrap();
                model.insert(k, value_for(k));
            }
            // Random churn with equal adjacent values (fingerprint
            // collisions on value are irrelevant; equal *values* stress the
            // validity test).
            let keys = generate_keys(4000, KeyDist::Uniform, u64::from(node_size) + 7);
            for (i, &k) in keys.iter().enumerate() {
                t.insert(k, 7).unwrap();
                model.insert(k, 7);
                if i % 3 == 0 {
                    let victim = keys[i / 2];
                    assert_eq!(
                        t.remove(victim),
                        model.remove(&victim).is_some(),
                        "{name}/{node_size}: remove {victim}"
                    );
                }
            }
            // Low-slot deletes: removing ascending prefixes shifts the
            // whole node left.
            let low: Vec<u64> = model.keys().copied().take(500).collect();
            for k in low {
                assert!(t.remove(k), "{name}/{node_size}: low delete {k}");
                model.remove(&k);
            }
            for (&k, &v) in &model {
                assert_eq!(t.get(k), Some(v), "{name}/{node_size}: key {k}");
            }
            assert_eq!(t.len(), model.len(), "{name}/{node_size}");
            let mut got = Vec::new();
            t.range(0, u64::MAX, &mut got);
            let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
            assert_eq!(got, want, "{name}/{node_size}: range mismatch");
            t.check_consistency(true)
                .unwrap_or_else(|e| panic!("{name}/{node_size}: {e}"));
        }
    }
}

/// The strategy bits in the superblock reconstruct the geometry on open —
/// a tree created with fingerprints reopens correctly even when the caller
/// passes default options.
#[test]
fn layout_variants_survive_reopen() {
    for (name, opts) in geometry_variants() {
        let p = pool(64);
        let t = tree_with(&p, opts);
        let keys = generate_keys(3000, KeyDist::Uniform, 89);
        for &k in &keys {
            t.insert(k, value_for(k)).unwrap();
        }
        let expect_name = t.name().to_string();
        let meta = t.meta_offset();
        drop(t);
        let img = p.volatile_image();
        let p2 = Arc::new(Pool::from_image(&img, PoolConfig::new().size(64 << 20)).unwrap());
        let t2 = FastFairTree::open(Arc::clone(&p2), meta, TreeOptions::new()).unwrap();
        assert_eq!(t2.name(), expect_name, "{name}: geometry lost on reopen");
        for &k in &keys {
            assert_eq!(t2.get(k), Some(value_for(k)), "{name}: key {k}");
        }
        t2.recover().unwrap();
        for &k in &keys {
            assert_eq!(t2.get(k), Some(value_for(k)), "{name}: post-recover {k}");
        }
        t2.check_consistency(true).unwrap();
    }
}

/// Bulk load packs fingerprints and the variants accept the full write
/// path afterwards.
#[test]
fn layout_variants_bulk_load() {
    for (name, opts) in geometry_variants() {
        let p = pool(64);
        let t = tree_with(&p, opts);
        let n = 8000u64;
        t.bulk_load(&mut (1..=n).map(|k| (k, value_for(k))))
            .unwrap();
        for k in (1..=n).step_by(13) {
            assert_eq!(t.get(k), Some(value_for(k)), "{name}: bulk key {k}");
        }
        // The packed tree accepts the full write path afterwards.
        assert_eq!(t.insert(n + 1, 42).unwrap(), None);
        assert!(t.remove(7));
        t.check_consistency(true).unwrap();
    }
}

/// Lock-free readers stay correct under concurrent writers on every
/// variant — probes revalidate seal/switch-counter, scans retry.
#[test]
fn layout_variants_concurrent_readers() {
    for (name, opts) in geometry_variants() {
        let p = pool(256);
        let t = Arc::new(tree_with(&p, opts));
        let preload = generate_keys(8_000, KeyDist::Uniform, 101);
        for &k in &preload {
            t.insert(k, value_for(k)).unwrap();
        }
        let fresh = generate_keys(8_000, KeyDist::Uniform, 103);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|s| {
            {
                let t = Arc::clone(&t);
                let stop = Arc::clone(&stop);
                let fresh = &fresh;
                s.spawn(move || {
                    for (i, &k) in fresh.iter().enumerate() {
                        t.insert(k, value_for(k)).unwrap();
                        if i % 4 == 0 {
                            t.remove(fresh[i / 2]);
                        }
                    }
                    stop.store(true, std::sync::atomic::Ordering::Release);
                });
            }
            for _ in 0..2 {
                let t = Arc::clone(&t);
                let stop = Arc::clone(&stop);
                let preload = &preload;
                s.spawn(move || {
                    let mut i = 0usize;
                    while !stop.load(std::sync::atomic::Ordering::Acquire) {
                        let k = preload[i % preload.len()];
                        assert_eq!(t.get(k), Some(value_for(k)), "{name}: lost key {k}");
                        i += 1;
                    }
                });
            }
        });
        t.check_consistency(true).unwrap();
    }
}

/// Delete-while-scanning: cursors running concurrently with deletes never
/// report a key twice or out of order, on every variant (the shape that
/// stresses left shifts against right-to-left readers).
#[test]
fn layout_variants_delete_while_scanning() {
    for (name, opts) in geometry_variants() {
        let p = pool(128);
        let t = Arc::new(tree_with(&p, opts.node_size(256)));
        let keep: Vec<u64> = (1..=4000u64).filter(|k| k % 2 == 1).collect();
        for k in 1..=4000u64 {
            t.insert(k, value_for(k)).unwrap();
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|s| {
            {
                let t = Arc::clone(&t);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    for k in (2..=4000u64).step_by(2) {
                        assert!(t.remove(k), "{name}: delete {k}");
                    }
                    stop.store(true, std::sync::atomic::Ordering::Release);
                });
            }
            for _ in 0..2 {
                let t = Arc::clone(&t);
                let stop = Arc::clone(&stop);
                let keep = &keep;
                s.spawn(move || {
                    let mut rounds = 0usize;
                    while !stop.load(std::sync::atomic::Ordering::Acquire) || rounds == 0 {
                        let mut c = t.cursor();
                        c.seek(0);
                        let mut expected = keep.iter().copied();
                        let mut prev: Option<u64> = None;
                        while let Some((k, v)) = c.next() {
                            assert!(
                                prev.is_none_or(|p| k > p),
                                "{name}: cursor regressed at {k}"
                            );
                            prev = Some(k);
                            if k % 2 == 1 {
                                // Odd keys are never deleted: all present,
                                // in order.
                                assert_eq!(
                                    expected.next(),
                                    Some(k),
                                    "{name}: scan skipped surviving key before {k}"
                                );
                                assert_eq!(v, value_for(k));
                            }
                        }
                        assert_eq!(expected.next(), None, "{name}: scan missed tail keys");
                        rounds += 1;
                    }
                });
            }
        });
        t.check_consistency(true).unwrap();
    }
}

/// The fingerprint lever, measured: sealed probes touch far fewer cache
/// lines per lookup than the linear scan (the win grows with node size —
/// one fingerprint line covers 64 records).
#[test]
fn fingerprints_cut_probe_line_touches() {
    let n = 4000u64;
    let mut per_variant = Vec::new();
    for fp in [false, true] {
        let p = pool(64);
        let t = tree_with(&p, TreeOptions::new().node_size(4096).fingerprints(fp));
        for k in 1..=n {
            t.insert(k, value_for(k)).unwrap();
        }
        stats::reset();
        for k in 1..=n {
            assert_eq!(t.get(k), Some(value_for(k)));
        }
        let s = stats::take();
        per_variant.push((s.serial_misses + s.parallel_lines) as f64 / n as f64);
    }
    let (base, fp) = (per_variant[0], per_variant[1]);
    assert!(
        fp < base / 2.0,
        "fingerprints should cut lines touched per lookup: base {base:.2}/op vs fp {fp:.2}/op"
    );
}

/// `open` understands strategy bits 0 (logging split) and 1
/// (fingerprints) only: bit 2 marked the retired circular frame, whose
/// rotated nodes this code would misread, and higher bits are unknown.
#[test]
fn open_rejects_retired_and_unknown_strategy_bits() {
    for opts in [
        TreeOptions::new(),
        TreeOptions::new().split(SplitStrategy::Logging),
        TreeOptions::new().fingerprints(true),
        TreeOptions::new()
            .split(SplitStrategy::Logging)
            .fingerprints(true),
    ] {
        let p = pool(16);
        let t = tree_with(&p, opts);
        t.insert(5, 50).unwrap();
        let (name, meta) = (t.name().to_string(), t.meta_offset());
        drop(t);
        let t = FastFairTree::open(Arc::clone(&p), meta, TreeOptions::new()).unwrap();
        assert_eq!(t.name(), name);
        assert_eq!(t.get(5), Some(50));
    }
    for (bits, bit) in [(4u64, 2u32), (8, 3)] {
        let p = pool(16);
        let meta = tree_with(&p, TreeOptions::new()).meta_offset();
        p.store_u64(meta + crate::tree::META_STRATEGY, bits);
        match FastFairTree::open(Arc::clone(&p), meta, TreeOptions::new()) {
            Err(pmindex::IndexError::Unsupported(msg)) => {
                assert!(msg.contains(&format!("bit {bit}")), "{bits}: {msg}")
            }
            Err(e) => panic!("strategy {bits}: wrong error {e}"),
            Ok(_) => panic!("strategy {bits}: open accepted it"),
        }
    }
}

/// FAST's linear frame always shifts toward the high end: an insert moves
/// every record above its slot, a delete every record above the victim.
/// Descending inserts and ascending deletes in one leaf therefore move
/// exactly 0+1+…+(n-1) records each way, on every layout variant.
#[test]
fn linear_frame_shift_distance_is_exact() {
    const N: u64 = 20;
    let triangle = N * (N - 1) / 2;
    for (name, opts) in geometry_variants() {
        let p = pool(16);
        let t = tree_with(&p, opts.node_size(512));
        assert!(u64::from(t.node_capacity()) > N, "{name}: no split wanted");
        stats::reset();
        for k in (1..=N).rev() {
            t.insert(k * 10, value_for(k)).unwrap();
        }
        let s = stats::take();
        assert_eq!(
            (s.shift_ops, s.shift_steps),
            (N, triangle),
            "{name}: inserts"
        );
        // Deleting the minimum leaves one record so no merge runs.
        stats::reset();
        for k in 1..N {
            assert!(t.remove(k * 10), "{name}: remove {k}");
        }
        let s = stats::take();
        assert_eq!(
            (s.shift_ops, s.shift_steps),
            (N - 1, triangle),
            "{name}: deletes"
        );
        assert_eq!(t.get(N * 10), Some(value_for(N)));
    }
}

/// Pins the persist protocol: a fixed, seeded stream of ~20k mixed
/// insert/update/remove/get ops issues exactly these flushes, elided
/// flushes, fences, shifted records and charged lines, on the default and
/// the fingerprint layout. The constants were recorded before the pool
/// buffer, dirty-bitmap and node-view fast paths landed, so any change to
/// where a flush or fence happens — rather than to how fast the store
/// path runs — shows up here as an exact mismatch.
#[test]
fn persist_protocol_is_pinned() {
    // (flushes, flushes_coalesced, fences, shift_steps, serial, parallel)
    let pinned: [(&str, [u64; 6]); 2] = [
        ("base", [26805, 937, 26171, 56905, 49414, 23695]),
        ("fp", [38142, 1134, 37438, 47701, 56257, 5059]),
    ];
    for ((name, opts), (pname, want)) in geometry_variants().into_iter().zip(pinned) {
        assert_eq!(name, pname);
        let p = pool(32);
        let t = tree_with(&p, opts);
        let mut model = BTreeMap::new();
        // xorshift64*: a self-contained stream, independent of any RNG crate.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        stats::reset();
        for _ in 0..20_000 {
            let r = next();
            let k = 1 + (r >> 8) % 6_000;
            let v = 1 + (r >> 32) % 1_000_000;
            match r % 20 {
                0..=6 => assert_eq!(t.insert(k, v).unwrap(), model.insert(k, v)),
                7..=9 => {
                    let want = model.get_mut(&k).map(|old| std::mem::replace(old, v));
                    assert_eq!(t.update(k, v).unwrap(), want);
                }
                10..=14 => assert_eq!(t.remove(k), model.remove(&k).is_some()),
                _ => assert_eq!(t.get(k), model.get(&k).copied()),
            }
        }
        let s = stats::take();
        let got = [
            s.flushes,
            s.flushes_coalesced,
            s.fences,
            s.shift_steps,
            s.serial_misses,
            s.parallel_lines,
        ];
        assert_eq!(got, want, "{name}: persist protocol moved");
        assert_eq!(t.len(), model.len(), "{name}");
        t.check_consistency(true)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_tree_matches_btreemap(ops in prop::collection::vec(
        (0u8..3, 1u64..500), 1..400)) {
        let p = pool(16);
        let t = tree_with(&p, TreeOptions::new().node_size(256));
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for (op, key) in ops {
            match op {
                0 => {
                    t.insert(key, value_for(key)).unwrap();
                    model.insert(key, value_for(key));
                }
                1 => {
                    prop_assert_eq!(t.remove(key), model.remove(&key).is_some());
                }
                _ => {
                    prop_assert_eq!(t.get(key), model.get(&key).copied());
                }
            }
        }
        // Full-content comparison at the end.
        let mut got = Vec::new();
        t.range(0, u64::MAX, &mut got);
        let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(got, want);
        prop_assert!(t.check_consistency(true).is_ok());
    }

    #[test]
    fn prop_range_bounds(keys in prop::collection::btree_set(1u64..10_000, 1..300),
                         lo in 0u64..10_000, span in 0u64..2_000) {
        let p = pool(16);
        let t = tree_with(&p, TreeOptions::new().node_size(256));
        for &k in &keys {
            t.insert(k, value_for(k)).unwrap();
        }
        let hi = lo.saturating_add(span);
        let mut got = Vec::new();
        t.range(lo, hi, &mut got);
        let want: Vec<(u64, u64)> = keys.iter()
            .filter(|&&k| k >= lo && k < hi)
            .map(|&k| (k, value_for(k)))
            .collect();
        prop_assert_eq!(got, want);
    }
}
