//! Ablation: sensitivity of the Quartz-substitute latency model to the
//! memory-level-parallelism factor (the parallel-miss charge documented in
//! `pmem::latency`).
//!
//! The paper's §5.4 explanation — B+-trees tolerate PM read latency better
//! than radix/skip structures because their adjacent-line scans overlap —
//! is encoded in our model as the `mlp` divisor for parallel line charges.
//! This ablation shows the FAST+FAIR vs WORT search gap as `mlp` varies:
//! at `mlp = 1` (no overlap credit) the B+-tree advantage shrinks, which
//! is exactly the behaviour the substitution note predicts.

use fastfair_bench::common::*;
use pmem::LatencyProfile;
use pmindex::workload::{generate_keys, KeyDist};

fn main() {
    let scale = Scale::from_env();
    banner(
        "Ablation",
        "MLP factor sensitivity of the latency model",
        scale,
    );
    let n = scale.n(2_000_000).max(200_000);
    let keys = generate_keys(n, KeyDist::Uniform, 31);
    let probes: Vec<u64> = keys.iter().copied().step_by(4).collect();

    header(&["mlp", "FAST+FAIR us", "WORT us", "WORT/FF ratio"]);
    for mlp in [1u32, 2, 4, 8] {
        let latency = LatencyProfile::new(600, 300).with_mlp(mlp);
        let mut times = Vec::new();
        for kind in [IndexKind::FastFair, IndexKind::Wort] {
            let pool = pool_with(latency, n);
            let idx = build_index(kind, &pool, 512);
            load(idx.as_ref(), &keys);
            let (secs, _) = timeit(|| {
                let mut found = 0usize;
                for &k in &probes {
                    if idx.get(k).is_some() {
                        found += 1;
                    }
                }
                found
            });
            times.push(us_per_op(probes.len(), secs));
        }
        row(&[
            format!("{mlp}"),
            format!("{:.3}", times[0]),
            format!("{:.3}", times[1]),
            format!("{:.2}", times[1] / times[0]),
        ]);
    }
    println!("\nexpected: the WORT/FF ratio grows with mlp — prefetch overlap is what shields the B+-tree from PM read latency.");
}
