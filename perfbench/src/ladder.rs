//! The layer ladder of a traced run: the workload's own op mix, measured
//! at every rung of the stack, so the cost each layer adds is a number.
//!
//! | rung | what is timed |
//! |---|---|
//! | core | `FastFairTree` get/update on a bare tree of the same keys, then inserts of fresh keys and their removes |
//! | shard | the same gets on the bare `ShardedStore`; back-to-back snapshot scans through its cursor |
//! | txn | the same updates as one-op `TxnEngine::commit`s |
//! | service | the mix through the service, closed loop, then 32 in flight |
//! | repl | a pipelined update stream shipped through a `LogShipper` tap and a `ChannelTransport`, then `Replica::catch_up` until drained |
//!
//! A workload's own traffic reports the layers it drives; the ladder fills
//! in the rest, so every traced run reports every per-layer metric.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fastfair::{FastFairTree, TreeOptions};
use pmem::{Pool, PoolConfig};
use pmindex::{IndexError, PmIndex};
use rand::RngCore;
use repl::{ChannelTransport, LogShipper, Replica};
use txn::WriteBatch;

use crate::churn::pmem_counts;
use crate::stack::{
    drive, scan_metrics, scanner, span_metrics, Model, Stack, StatsMark, Stream, SvcSpans,
};
use crate::util::{key_at, ns, rng, Checker, Chooser, Lat, Metrics, Tracer};
use crate::{Params, Workload};

/// Key stream of the core rung's fresh keys.
const FRESH: u64 = 21;

/// Ladder over a stack built from `sample` (the `tree_churn` case, whose
/// own traffic never reaches the layers above the tree).
pub fn fresh(p: &Params, sample: Vec<(u64, u64)>, chk: &mut Checker) -> Metrics {
    let mut model = Model::from_pairs(sample);
    let sorted = model.sorted();
    let st = Stack::create(&sorted, PoolConfig::new());
    let sorted_keys: Vec<u64> = sorted.iter().map(|e| e.0).collect();
    let chooser = Chooser::Uniform(model.keys.len());
    let mut m = Metrics::default();
    m.set("catalog.open_ms", st.open_ms, "ms");
    m.set("txn.recover_ms", st.recover_ms, "ms");
    m.fill(on_stack(
        p,
        &st,
        &mut model,
        &chooser,
        &sorted_keys,
        0.0,
        chk,
    ));
    m
}

/// Ladder over a workload's own stack and model. `service_p50` is the
/// workload's untraced client-side median in ns (0: use the ladder's
/// closed-loop median).
pub fn on_stack(
    p: &Params,
    st: &Stack,
    model: &mut Model,
    chooser: &Chooser,
    sorted_keys: &[u64],
    service_p50: f64,
    chk: &mut Checker,
) -> Metrics {
    let n = p.scale.ladder_ops;
    let mut m = Metrics::default();
    let mut rng = rng(p.seed, 31);
    let get_frac = if p.workload == Workload::ScanWrite {
        0.0
    } else {
        0.5
    };

    if p.workload != Workload::TreeChurn {
        core_rung(p, model, chooser, &mut m, chk);
    }

    // shard: the same gets on the bare store.
    let mut shard_get = Lat::default();
    for _ in 0..n {
        let i = chooser.next(&mut rng);
        let k = model.keys[i];
        let t0 = Instant::now();
        let got = st.store.get(k);
        shard_get.push(ns(t0, Instant::now()));
        chk.check(got == Some(model.vals[i]), || {
            format!(
                "shard rung: get({k:#x}) = {got:?}, want {:#x}",
                model.vals[i]
            )
        });
    }
    m.set("shard.get_ns_p50", shard_get.pct(0.50), "ns");

    // shard + txn: back-to-back snapshot scans.
    let scans = (n / 200).max(5) as u64;
    let far = Instant::now() + Duration::from_secs(3600);
    let mut sc = scanner(
        &st.store,
        &st.engine,
        sorted_keys,
        p.scale.scan_len,
        Duration::ZERO,
        Instant::now(),
        far,
        scans,
        &mut rng,
        true,
    );
    scan_metrics(&mut m, &mut sc, p.scale.scan_len);
    chk.merge(std::mem::take(&mut sc.chk));

    // txn: the same updates as one-op commits.
    let mut commit = Lat::default();
    for _ in 0..n {
        let i = chooser.next(&mut rng);
        let k = model.keys[i];
        let v = model.next_value(i);
        let mut batch = WriteBatch::new();
        batch.put(0, k, v);
        let t0 = Instant::now();
        let out = st.engine.commit(batch, &[st.store.as_ref()]);
        commit.push(ns(t0, Instant::now()));
        model.vals[i] = v;
        let got = st.store.get(k);
        chk.check(out.is_ok() && got == Some(v), || {
            format!("txn rung: commit of {k:#x} gave {out:?}, then get = {got:?}")
        });
    }
    m.set("txn.commit_ns_p50", commit.pct(0.50), "ns");
    m.set("txn.commit_ns_p99", commit.pct(0.99), "ns");

    // service: closed loop, then 32 in flight.
    let client = st.service.handle();
    let mut tr = Tracer::default();
    let ids = SvcSpans::new(&mut tr);
    let long = Duration::from_secs(3600);
    let closed = Stream { depth: 1, get_frac };
    let mut ph = drive(
        &client,
        model,
        chooser,
        &mut rng,
        closed,
        long,
        n as u64,
        Some((&mut tr, &ids)),
        chk,
    );
    span_metrics(&mut m, &mut tr);
    let stats = Arc::clone(st.service.stats());
    let before = StatsMark::of(&stats);
    let piped = Stream {
        depth: 32,
        get_frac,
    };
    let pp = drive(
        &client, model, chooser, &mut rng, piped, long, n as u64, None, chk,
    );
    before.since(&stats, &mut m);
    chk.check(ph.failed + pp.failed == 0, || {
        "service rung: requests failed".into()
    });

    // The service's cost over the rungs below it, for the same mix.
    let mut below = commit;
    if get_frac > 0.0 {
        below.extend(&shard_get);
    }
    let service_p50 = if service_p50 > 0.0 {
        service_p50
    } else {
        ph.lat.pct(0.50)
    };
    m.set(
        "service.overhead_ns_p50",
        service_p50 - below.pct(0.50),
        "ns",
    );

    if let Err(e) = repl_rung(p, st, model, chooser, &client, &mut m, chk) {
        chk.check(false, || format!("repl rung: {e}"));
    }
    eprintln!("ladder spans:\n{}", tr.table());
    m
}

/// The core rung: a bare default tree holding the model's contents.
fn core_rung(p: &Params, model: &Model, chooser: &Chooser, m: &mut Metrics, chk: &mut Checker) {
    let n = p.scale.ladder_ops;
    let mut rng = rng(p.seed, 32);
    let mut vals = model.vals.clone();
    let pool = Arc::new(
        Pool::new(PoolConfig::new().size(model.keys.len() * 96 + (8 << 20))).expect("core pool"),
    );
    let tree = FastFairTree::create(Arc::clone(&pool), TreeOptions::new()).expect("core tree");
    tree.bulk_load(&mut model.sorted().into_iter())
        .expect("core bulk load");
    let mut lat = [
        Lat::default(),
        Lat::default(),
        Lat::default(),
        Lat::default(),
    ];
    let mut limbo_peak = 0;
    pmem::stats::reset();
    for j in 0..n {
        let i = chooser.next(&mut rng);
        let k = model.keys[i];
        if rng.next_u64() & 1 == 0 {
            let t0 = Instant::now();
            let got = tree.get(k);
            lat[0].push(ns(t0, Instant::now()));
            chk.check(got == Some(vals[i]), || {
                format!("core rung: get({k:#x}) = {got:?}")
            });
        } else {
            let v = crate::util::update_value(k, (j as u64) << 1 | 1);
            let t0 = Instant::now();
            let got = tree.update(k, v);
            lat[1].push(ns(t0, Instant::now()));
            chk.check(got == Ok(Some(vals[i])), || {
                format!("core rung: update({k:#x}) = {got:?}")
            });
            vals[i] = v;
        }
    }
    let fresh: Vec<u64> = (0..(n / 4).max(1) as u64)
        .map(|i| key_at(p.seed, FRESH, i))
        .collect();
    for &k in &fresh {
        let t0 = Instant::now();
        let got = tree.insert(k, pmindex::workload::value_for(k));
        lat[2].push(ns(t0, Instant::now()));
        chk.check(got == Ok(None), || {
            format!("core rung: insert({k:#x}) = {got:?}")
        });
    }
    for (j, &k) in fresh.iter().enumerate() {
        let t0 = Instant::now();
        let gone = tree.remove(k);
        lat[3].push(ns(t0, Instant::now()));
        chk.check(gone, || format!("core rung: remove({k:#x}) found nothing"));
        if j % 256 == 0 {
            limbo_peak = limbo_peak.max(tree.epoch().limbo_len());
        }
    }
    let s = pmem::stats::snapshot();
    let ops = (n + 2 * fresh.len()) as f64;
    for (l, (p50, p99)) in lat.iter_mut().zip([
        ("core.get_ns_p50", "core.get_ns_p99"),
        ("core.update_ns_p50", "core.update_ns_p99"),
        ("core.insert_ns_p50", "core.insert_ns_p99"),
        ("core.remove_ns_p50", "core.remove_ns_p99"),
    ]) {
        m.set(p50, l.pct(0.50), "ns");
        m.set(p99, l.pct(0.99), "ns");
    }
    m.set("core.height", f64::from(tree.height()), "levels");
    pmem_counts(m, &s, ops);
    m.set("epoch.limbo_peak", limbo_peak as f64, "nodes");
}

/// The repl rung: ship a pipelined update stream to a bootstrapped
/// replica, then time draining it.
fn repl_rung(
    p: &Params,
    st: &Stack,
    model: &mut Model,
    chooser: &Chooser,
    client: &service::ClientHandle<crate::stack::Store>,
    m: &mut Metrics,
    chk: &mut Checker,
) -> Result<(), IndexError> {
    let shipper = LogShipper::new(1 << 16);
    st.engine.add_tap(Arc::clone(&shipper) as _);
    let transport = ChannelTransport::new();
    let sub = shipper.subscribe(Arc::clone(&transport) as _);
    let bytes = model.keys.len() * 96 + (8 << 20);
    let replica: Replica<FastFairTree> = Replica::create(
        &mut |_slot: usize| -> Result<Arc<Pool>, IndexError> {
            Ok(Arc::new(Pool::new(PoolConfig::new().size(bytes))?))
        },
        1,
        &["kv"],
    )?;
    replica.bootstrap(&[st.store.as_ref()], &st.engine)?;
    let mut rng = rng(p.seed, 33);
    let stream = Stream {
        depth: 32,
        get_frac: 0.0,
    };
    let long = Duration::from_secs(3600);
    let n = p.scale.ladder_ops as u64;
    let ph = drive(client, model, chooser, &mut rng, stream, long, n, None, chk);
    let g0 = replica.applied_groups();
    let t = Instant::now();
    replica.catch_up(transport.as_ref(), &shipper, sub)?;
    let elapsed = t.elapsed().as_nanos() as f64;
    let groups = (replica.applied_groups() - g0).max(1) as f64;
    m.set("repl.apply_ns_per_group", elapsed / groups, "ns");
    let lag = st
        .engine
        .last_committed()
        .saturating_sub(replica.watermark());
    m.set("repl.final_lag", lag as f64, "groups");
    chk.check(lag == 0 && ph.failed == 0, || {
        format!("repl rung: lag {lag} after catch-up")
    });
    let stale = model
        .keys
        .iter()
        .zip(&model.vals)
        .filter(|&(&k, &v)| replica.read_stale(0, k) != Some(v))
        .count();
    chk.check(stale == 0, || {
        format!("repl rung: {stale} keys differ on the replica")
    });
    Ok(())
}
