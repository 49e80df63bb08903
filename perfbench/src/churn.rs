//! `tree_churn`: one thread calls a default-options `FastFairTree`
//! directly. 50% get, 20% update, 15% insert of a fresh key and 15% remove
//! of a live key, uniform over the live keys, so the size stays near the
//! preload. Only core, pmem and epoch do work here.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fastfair::{FastFairTree, TreeOptions};
use pmem::{Pool, PoolConfig};
use pmindex::workload::value_for;
use pmindex::PmIndex;
use rand::rngs::StdRng;
use rand::RngCore;

use crate::util::{
    e2e, key_at, median_setup, ns, rng, update_value, Checker, Lat, Metrics, Report, Tracer,
    Windows,
};
use crate::{durable, ladder, Params};

/// Key stream of the preload; fresh keys continue it.
const KEYS: u64 = 1;

/// The kind of one churn operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Point lookup of a live key.
    Get,
    /// In-place update of a live key.
    Update,
    /// Insert of a fresh key.
    Insert,
    /// Remove of a live key.
    Remove,
}

/// A tree with the model of what it must hold.
pub struct Churn {
    /// The tree's pool.
    pub pool: Arc<Pool>,
    /// The tree under test.
    pub tree: FastFairTree,
    /// Live keys, in no order.
    pub keys: Vec<u64>,
    /// `vals[i]` is the value last written for `keys[i]`.
    pub vals: Vec<u64>,
    /// Keys removed so far (for the durability check).
    pub removed: Vec<u64>,
    seed: u64,
    next_fresh: u64,
    writes: u64,
}

impl Churn {
    /// Generates `n` keys from `seed`, creates a pool and a default tree,
    /// and bulk-loads the keys with `value_for(k)`.
    pub fn new(seed: u64, n: usize, config: PoolConfig) -> Churn {
        let keys: Vec<u64> = (0..n as u64).map(|i| key_at(seed, KEYS, i)).collect();
        let vals: Vec<u64> = keys.iter().map(|&k| value_for(k)).collect();
        let mut sorted: Vec<(u64, u64)> = keys.iter().map(|&k| (k, value_for(k))).collect();
        sorted.sort_unstable();
        // About 21 B of tree per key after a bulk load; churn splits add more.
        let pool = Arc::new(Pool::new(config.size(n * 96 + (8 << 20))).expect("create the pool"));
        let tree = FastFairTree::create(Arc::clone(&pool), TreeOptions::new()).expect("create");
        tree.bulk_load(&mut sorted.into_iter()).expect("bulk load");
        Churn {
            pool,
            tree,
            keys,
            vals,
            removed: Vec::new(),
            seed,
            next_fresh: n as u64,
            writes: 0,
        }
    }

    /// Runs one operation of the mix and checks its answer. Returns the
    /// kind and the bounds of the tree call.
    #[inline]
    pub fn step(
        &mut self,
        rng: &mut StdRng,
        chk: &mut Checker,
        failed: &mut u64,
    ) -> (Kind, Instant, Instant) {
        let roll = rng.next_u64() % 100;
        let live = self.keys.len();
        let kind = match roll {
            _ if live == 0 => Kind::Insert,
            0..=49 => Kind::Get,
            50..=69 => Kind::Update,
            70..=84 => Kind::Insert,
            _ => Kind::Remove,
        };
        let i = if live == 0 {
            0
        } else {
            (rng.next_u64() % live as u64) as usize
        };
        let (t0, t1);
        match kind {
            Kind::Get => {
                let k = self.keys[i];
                t0 = Instant::now();
                let got = self.tree.get(k);
                t1 = Instant::now();
                let want = self.vals[i];
                chk.check(got == Some(want), || {
                    format!("get({k:#x}) = {got:?}, want {want:#x}")
                });
            }
            Kind::Update => {
                let k = self.keys[i];
                self.writes += 1;
                let v = update_value(k, self.writes);
                t0 = Instant::now();
                let got = self.tree.update(k, v);
                t1 = Instant::now();
                match got {
                    Ok(old) => {
                        let want = self.vals[i];
                        chk.check(old == Some(want), || {
                            format!("update({k:#x}) replaced {old:?}, want {want:#x}")
                        });
                        self.vals[i] = v;
                    }
                    Err(_) => *failed += 1,
                }
            }
            Kind::Insert => {
                let k = key_at(self.seed, KEYS, self.next_fresh);
                self.next_fresh += 1;
                let v = value_for(k);
                t0 = Instant::now();
                let got = self.tree.insert(k, v);
                t1 = Instant::now();
                match got {
                    Ok(old) => {
                        chk.check(old.is_none(), || {
                            format!("insert of fresh key {k:#x} replaced {old:?}")
                        });
                        self.keys.push(k);
                        self.vals.push(v);
                    }
                    Err(_) => *failed += 1,
                }
            }
            Kind::Remove => {
                let k = self.keys[i];
                t0 = Instant::now();
                let gone = self.tree.remove(k);
                t1 = Instant::now();
                chk.check(gone, || format!("remove of live key {k:#x} found nothing"));
                self.keys.swap_remove(i);
                self.vals.swap_remove(i);
                self.removed.push(k);
            }
        }
        (kind, t0, t1)
    }

    /// The model's contents, sorted by key.
    pub fn sorted(&self) -> Vec<(u64, u64)> {
        let mut want: Vec<(u64, u64)> = self
            .keys
            .iter()
            .copied()
            .zip(self.vals.iter().copied())
            .collect();
        want.sort_unstable();
        want
    }
}

/// Compares the whole contents of `tree` with the model.
pub fn diff(tree: &FastFairTree, want: &[(u64, u64)], chk: &mut Checker, what: &str) {
    let mut got = Vec::with_capacity(want.len());
    tree.for_each(|k, v| got.push((k, v)));
    let first_bad = got.iter().zip(want).position(|(g, w)| g != w);
    chk.check(got.len() == want.len() && first_bad.is_none(), || {
        format!(
            "{what}: tree holds {} keys, model {}; first difference at {first_bad:?}",
            got.len(),
            want.len()
        )
    });
}

/// Span ids of a traced phase.
struct Spans {
    op: usize,
    kind: [usize; 4],
}

/// What one measured phase saw.
struct Phase {
    ops: u64,
    failed: u64,
    lat: Lat,
    secs: f64,
    win: Windows,
    limbo_peak: u64,
}

fn phase(
    env: &mut Churn,
    rng: &mut StdRng,
    dur: Duration,
    mut tr: Option<(&mut Tracer, &Spans)>,
    chk: &mut Checker,
) -> Phase {
    let mut ph = Phase {
        ops: 0,
        failed: 0,
        lat: Lat::default(),
        secs: 0.0,
        win: Windows::start(dur / 20),
        limbo_peak: 0,
    };
    let start = Instant::now();
    let deadline = start + dur;
    loop {
        let a = Instant::now();
        let (kind, t0, t1) = env.step(rng, chk, &mut ph.failed);
        ph.ops += 1;
        ph.lat.push(ns(t0, t1));
        ph.win.tick(t1, ph.lat.len());
        if let Some((tr, ids)) = tr.as_mut() {
            let b = Instant::now();
            tr.rec(ids.kind[kind as usize], t0, t1);
            tr.rec(ids.op, a, b);
            if ph.ops.is_multiple_of(1024) {
                ph.limbo_peak = ph.limbo_peak.max(env.tree.epoch().limbo_len());
            }
        }
        if t1 >= deadline {
            break;
        }
    }
    ph.win.close(Instant::now(), ph.lat.len());
    ph.secs = start.elapsed().as_secs_f64();
    ph
}

/// Runs `tree_churn`.
pub fn run(p: &Params) -> Report {
    let n = p.scale.churn_keys;
    let (setup_s, mut env) =
        median_setup(p.scale.setups, || Churn::new(p.seed, n, PoolConfig::new()));
    let mut rng = rng(p.seed, 2);
    let mut chk = Checker::default();
    let mut m = Metrics::default();
    let (attempted, failed);
    if p.trace {
        let plain = phase(&mut env, &mut rng, p.measure / 2, None, &mut chk);
        let mut tr = Tracer::default();
        let op = tr.def("op", None);
        let ids = Spans {
            op,
            kind: [
                tr.def("core.get", Some(op)),
                tr.def("core.update", Some(op)),
                tr.def("core.insert", Some(op)),
                tr.def("core.remove", Some(op)),
            ],
        };
        pmem::stats::reset();
        let traced = phase(
            &mut env,
            &mut rng,
            p.measure / 2,
            Some((&mut tr, &ids)),
            &mut chk,
        );
        let s = pmem::stats::snapshot();
        let ops = traced.ops as f64;
        for (name, p50, p99) in [
            ("core.get", "core.get_ns_p50", "core.get_ns_p99"),
            ("core.update", "core.update_ns_p50", "core.update_ns_p99"),
            ("core.insert", "core.insert_ns_p50", "core.insert_ns_p99"),
            ("core.remove", "core.remove_ns_p50", "core.remove_ns_p99"),
        ] {
            let lat = tr.lat(name).expect("every kind ran");
            m.set(p50, lat.pct(0.50), "ns");
            m.set(p99, lat.pct(0.99), "ns");
        }
        m.set("core.height", f64::from(env.tree.height()), "levels");
        pmem_counts(&mut m, &s, ops);
        m.set("pmem.high_water_bytes", env.pool.high_water() as f64, "B");
        m.set("epoch.limbo_peak", traced.limbo_peak as f64, "nodes");
        let plain_rate = plain.ops as f64 / plain.secs;
        let traced_rate = ops / traced.secs;
        m.set(
            "trace.overhead_frac",
            1.0 - traced_rate / plain_rate,
            "fraction",
        );
        attempted = plain.ops + traced.ops;
        failed = plain.failed + traced.failed;
        eprintln!("{}", tr.table());
    } else {
        let ph = phase(&mut env, &mut rng, p.measure, None, &mut chk);
        e2e(&mut m, setup_s, &ph.win, &ph.lat);
        let user_bytes = env.keys.len() as f64 * 16.0;
        m.set(
            "bytes_per_user_byte",
            env.pool.high_water() as f64 / user_bytes,
            "ratio",
        );
        attempted = ph.ops;
        failed = ph.failed;
    }
    diff(
        &env.tree,
        &env.sorted(),
        &mut chk,
        "tree_churn final contents",
    );
    durable::churn(p, &mut chk);
    if p.trace {
        m.set(
            "error_rate",
            (failed + chk.wrong) as f64 / attempted as f64,
            "fraction",
        );
        // The rungs above the tree run on a stack built from a sample of
        // the live keys, so every layer reports on this workload too.
        let sample: Vec<(u64, u64)> = env
            .keys
            .iter()
            .zip(&env.vals)
            .take(p.scale.service_keys)
            .map(|(&k, &v)| (k, v))
            .collect();
        drop(env);
        m.fill(ladder::fresh(p, sample, &mut chk));
    }
    Report {
        correct: chk.wrong == 0,
        attempted,
        failed: failed + chk.wrong,
        metrics: m,
    }
    .fail_loudly(&chk)
}

/// Per-operation pmem and epoch counts from a thread's counters.
pub fn pmem_counts(m: &mut Metrics, s: &pmem::stats::Snapshot, ops: f64) {
    let per = |x: u64| x as f64 / ops;
    m.set(
        "pmem.lines_read_per_op",
        per(s.serial_misses + s.parallel_lines),
        "lines/op",
    );
    m.set("pmem.shift_steps_per_op", per(s.shift_steps), "steps/op");
    m.set("pmem.flushes_per_op", per(s.flushes), "flushes/op");
    m.set("pmem.fences_per_op", per(s.fences), "fences/op");
    m.set(
        "pmem.flushes_coalesced_per_op",
        per(s.flushes_coalesced),
        "flushes/op",
    );
    m.set(
        "epoch.advances_per_kop",
        per(s.epoch_advances) * 1e3,
        "1/kop",
    );
    m.set(
        "epoch.recycled_online_per_kop",
        per(s.nodes_recycled_online) * 1e3,
        "1/kop",
    );
}
