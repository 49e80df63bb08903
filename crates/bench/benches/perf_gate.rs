//! Perf gate: single-thread FAST+FAIR insert, get and remove cost as a
//! ratio to `std::collections::BTreeMap` on the same keys.
//!
//! Each rep builds a fresh default tree on a fresh DRAM-latency pool and a
//! fresh `BTreeMap`, then runs the same three phases on both:
//!
//! * `insert` — 1M uniform random keys, in generation order;
//! * `get`    — every key, in the same order;
//! * `remove` — every other key (half the tree), in the same order.
//!
//! The per-op ratio of tree time to map time is taken within a rep, so
//! whatever slows the runner slows both sides and cancels out; the report
//! is the median over [`REPS`] reps. The population and rep count do not
//! follow `FF_BENCH_SCALE`, because a ratio is only comparable at one
//! size. Under `FF_BENCH_QUICK=1` the medians are written to the smoke
//! report (`perf_gate` section), which CI checks against the committed
//! datapoint with a fixed headroom.

use std::collections::BTreeMap;
use std::sync::Arc;

use fastfair::{FastFairTree, TreeOptions};
use fastfair_bench::common::*;
use pmem::{Pool, PoolConfig};
use pmindex::workload::{generate_keys, value_for, KeyDist};
use pmindex::PmIndex;

/// Keys per rep.
const N: usize = 1_000_000;
/// Reps per run; the report is the median.
const REPS: usize = 5;
const PHASES: [&str; 3] = ["insert", "get", "remove"];

/// Nanoseconds per op of each phase, for one side of one rep.
type PhaseNs = [f64; 3];

fn ns_per_op(secs: f64, ops: usize) -> f64 {
    secs * 1e9 / ops as f64
}

fn run_tree(keys: &[u64]) -> PhaseNs {
    let pool =
        Arc::new(Pool::new(PoolConfig::new().size(pool_bytes_for(keys.len()))).expect("pool"));
    let tree = FastFairTree::create(Arc::clone(&pool), TreeOptions::new()).expect("tree");
    let (ins, _) = timeit(|| {
        for &k in keys {
            tree.insert(k, value_for(k)).expect("insert");
        }
    });
    let (get, hits) = timeit(|| keys.iter().filter(|&&k| tree.get(k).is_some()).count());
    assert_eq!(hits, keys.len(), "tree lost keys");
    let (rem, removed) = timeit(|| keys.iter().step_by(2).filter(|&&k| tree.remove(k)).count());
    assert_eq!(removed, keys.len().div_ceil(2), "tree remove missed keys");
    [
        ns_per_op(ins, keys.len()),
        ns_per_op(get, keys.len()),
        ns_per_op(rem, removed),
    ]
}

fn run_map(keys: &[u64]) -> PhaseNs {
    let mut map = BTreeMap::new();
    let (ins, _) = timeit(|| {
        for &k in keys {
            map.insert(k, value_for(k));
        }
    });
    let (get, hits) = timeit(|| keys.iter().filter(|&&k| map.contains_key(&k)).count());
    assert_eq!(hits, keys.len());
    let (rem, removed) = timeit(|| {
        keys.iter()
            .step_by(2)
            .filter(|&&k| map.remove(&k).is_some())
            .count()
    });
    assert_eq!(removed, keys.len().div_ceil(2));
    std::hint::black_box(&map);
    [
        ns_per_op(ins, keys.len()),
        ns_per_op(get, keys.len()),
        ns_per_op(rem, removed),
    ]
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

fn main() {
    let scale = Scale::from_env();
    banner(
        "Perf gate",
        "single-thread FAST+FAIR vs BTreeMap, 1M keys",
        scale,
    );
    let mut report = SmokeReport::new("perf_gate", scale);
    let keys = generate_keys(N, KeyDist::Uniform, 1301);

    let mut tree_ns: Vec<PhaseNs> = Vec::new();
    let mut map_ns: Vec<PhaseNs> = Vec::new();
    for rep in 0..REPS {
        // Alternate which side runs first so neither always gets the
        // warmer allocator and caches.
        let (t, m) = if rep % 2 == 0 {
            let t = run_tree(&keys);
            (t, run_map(&keys))
        } else {
            let m = run_map(&keys);
            (run_tree(&keys), m)
        };
        tree_ns.push(t);
        map_ns.push(m);
    }

    header(&["op", "FAST+FAIR ns/op", "BTreeMap ns/op", "ratio (median)"]);
    for (p, phase) in PHASES.iter().enumerate() {
        let ratio = median(
            tree_ns
                .iter()
                .zip(&map_ns)
                .map(|(t, m)| t[p] / m[p])
                .collect(),
        );
        let tree = median(tree_ns.iter().map(|t| t[p]).collect());
        let map = median(map_ns.iter().map(|m| m[p]).collect());
        row(&[
            phase.to_string(),
            format!("{tree:.0}"),
            format!("{map:.0}"),
            format!("{ratio:.3}"),
        ]);
        report.sample(format!("{phase}/ratio"), ratio);
        report.sample(format!("{phase}/fastfair_ns"), tree);
        report.sample(format!("{phase}/btreemap_ns"), map);
    }
    report.finish();
}
