//! The service workloads: a 2-shard hash `ShardedStore<FastFairTree>`
//! registered with its `TxnEngine` in a `Catalog`, warm-booted through the
//! catalog and served by a 1-lane `Service` with shard affinity and the
//! store's reclaim domain pinned per group.
//!
//! * `service_closed`: one client, one request outstanding, YCSB-A
//!   (50% get, 50% update) over Zipf(0.99).
//! * `service_pipelined`: the same mix with 32 requests in flight.
//! * `scan_write`: uniform updates with 8 in flight beside an open-loop
//!   scanner taking one snapshot scan every scan period.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use catalog::{Catalog, StoreKind};
use fastfair::FastFairTree;
use pmem::{Pool, PoolConfig};
use pmindex::workload::{value_for, ZipfianGenerator};
use pmindex::PmIndex;
use rand::rngs::StdRng;
use rand::RngCore;
use service::{ClientHandle, Service, ServiceConfig, ServiceError, ServiceStats, Ticket};
use shard::{Partitioning, ShardedStore};
use txn::TxnEngine;

use crate::util::{
    e2e, key_at, median_setup, ms_since, ns, rng, update_value, value_belongs, Checker, Chooser,
    Lat, Metrics, Report, Tracer, Windows,
};
use crate::{durable, ladder, Params, Scale, Workload};

/// The store every service workload serves.
pub type Store = ShardedStore<FastFairTree>;

const STORE_NAME: &str = "kv";
const ENGINE_NAME: &str = "journal";
const SHARDS: usize = 2;
/// Key stream of the service workloads' preload.
const KEYS: u64 = 11;

/// A served store, booted through its catalog.
pub struct Stack {
    /// Fleet: slot 0 holds the catalog, shard manifest and journal; slots
    /// 1 and 2 hold one shard each.
    pub pools: Vec<Arc<Pool>>,
    /// The store.
    pub store: Arc<Store>,
    /// The journal the service group-commits through.
    pub engine: Arc<TxnEngine>,
    /// The service over `store`.
    pub service: Service<Store>,
    /// Time to open the catalog and the store and journal it names.
    pub open_ms: f64,
    /// Time `TxnEngine::recover` took at boot.
    pub recover_ms: f64,
}

impl Stack {
    /// Cold start: creates the fleet, the store and the journal, loads
    /// `sorted`, registers both in a new catalog and drops every handle.
    /// Then boots through the catalog, the path every later boot takes.
    pub fn create(sorted: &[(u64, u64)], config: PoolConfig) -> Stack {
        // A bulk-loaded shard takes ~21 B per key, and the workloads only
        // update in place, so the shards never grow. Pools are zeroed when
        // created, so a pool much larger than its data adds page faults,
        // and their host-dependent cost, to `setup_s`.
        let shard_bytes = sorted.len() * 32 / SHARDS + (1 << 20);
        let pools: Vec<Arc<Pool>> = [1 << 20, shard_bytes, shard_bytes]
            .into_iter()
            .map(|size| Arc::new(Pool::new(config.size(size)).expect("create a pool")))
            .collect();
        {
            let cat = Catalog::create(pools.clone()).expect("create the catalog");
            let store: Store = ShardedStore::create(
                Arc::clone(&pools[0]),
                vec![Arc::clone(&pools[1]), Arc::clone(&pools[2])],
                Partitioning::Hash { shards: SHARDS },
            )
            .expect("create the store");
            store
                .bulk_load(&mut sorted.iter().copied())
                .expect("bulk load");
            TxnEngine::create(Arc::clone(&pools[0])).expect("create the journal");
            let shards = StoreKind::Sharded {
                manifest_pool: 0,
                shard_pools: vec![1, 2],
            };
            cat.register(STORE_NAME, &shards)
                .expect("register the store");
            cat.register(ENGINE_NAME, &StoreKind::Txn { pool: 0 })
                .expect("register the journal");
        }
        Stack::boot(pools)
    }

    /// Warm boot from a fleet holding a catalog: the steps of
    /// `Service::from_catalog`, which opens only single-index stores, with
    /// `Catalog::open_sharded` for the sharded one.
    pub fn boot(pools: Vec<Arc<Pool>>) -> Stack {
        let t = Instant::now();
        let cat = Catalog::open(pools.clone()).expect("open the catalog");
        let store: Arc<Store> = Arc::new(cat.open_sharded(STORE_NAME).expect("open the store"));
        let engine = cat.open_txn(ENGINE_NAME).expect("open the journal");
        let open_ms = ms_since(t);
        let t = Instant::now();
        engine
            .recover(&[store.as_ref()])
            .expect("recover the journal");
        let recover_ms = ms_since(t);
        let engine = Arc::new(engine);
        let service = Service::with_engine(
            vec![Arc::clone(&store)],
            Arc::clone(&engine),
            ServiceConfig {
                lanes: 1,
                affinity: Some(store.partitioning().clone()),
                pin_domains: vec![Arc::clone(store.reclaim_domain())],
                ..ServiceConfig::default()
            },
        );
        Stack {
            pools,
            store,
            engine,
            service,
            open_ms,
            recover_ms,
        }
    }

    /// Bytes allocated across the fleet.
    pub fn high_water(&self) -> u64 {
        self.pools.iter().map(|p| p.high_water()).sum()
    }
}

/// What a service store must hold: `vals[i]` is the last acknowledged
/// value of `keys[i]`. Keys are in generation order, so Zipf rank 0 (the
/// hottest) is a random key.
pub struct Model {
    /// The keys.
    pub keys: Vec<u64>,
    /// Their values.
    pub vals: Vec<u64>,
    /// Updates issued so far.
    pub writes: u64,
}

impl Model {
    /// `n` keys of key stream `stream`, valued `value_for(k)`.
    pub fn new(seed: u64, stream: u64, n: usize) -> Model {
        let keys: Vec<u64> = (0..n as u64).map(|i| key_at(seed, stream, i)).collect();
        let vals = keys.iter().map(|&k| value_for(k)).collect();
        Model {
            keys,
            vals,
            writes: 0,
        }
    }

    /// Builds a model from `(key, value)` pairs.
    pub fn from_pairs(pairs: Vec<(u64, u64)>) -> Model {
        let (keys, vals) = pairs.into_iter().unzip();
        Model {
            keys,
            vals,
            writes: 0,
        }
    }

    /// The contents, sorted by key.
    pub fn sorted(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self
            .keys
            .iter()
            .copied()
            .zip(self.vals.iter().copied())
            .collect();
        v.sort_unstable();
        v
    }

    /// A fresh update value for `keys[i]`.
    pub fn next_value(&mut self, i: usize) -> u64 {
        self.writes += 1;
        update_value(self.keys[i], self.writes)
    }
}

/// Compares the whole contents of `store`, read through its cursor, with
/// the model.
pub fn diff_store(store: &Store, want: &[(u64, u64)], chk: &mut Checker, what: &str) {
    let mut cur = store.cursor();
    cur.seek(0);
    let mut got = Vec::with_capacity(want.len());
    while let Some(e) = cur.next() {
        got.push(e);
    }
    let first_bad = got.iter().zip(want).position(|(g, w)| g != w);
    chk.check(got.len() == want.len() && first_bad.is_none(), || {
        format!(
            "{what}: store holds {} keys, model {}; first difference at {first_bad:?}",
            got.len(),
            want.len()
        )
    });
}

/// How a request stream is shaped.
#[derive(Clone, Copy)]
pub struct Stream {
    /// Requests kept in flight (1 is a closed loop).
    pub depth: usize,
    /// Share of gets; the rest are updates.
    pub get_frac: f64,
}

/// Span ids of a traced service stream.
pub struct SvcSpans {
    op: usize,
    submit: usize,
    wait: usize,
}

impl SvcSpans {
    /// Declares the service spans in `tr`.
    pub fn new(tr: &mut Tracer) -> SvcSpans {
        let op = tr.def("op", None);
        SvcSpans {
            op,
            submit: tr.def("service.submit", Some(op)),
            wait: tr.def("service.wait", Some(op)),
        }
    }
}

/// `ServiceStats` counters at one moment, to take differences over the
/// stream that follows.
pub struct StatsMark {
    groups: u64,
    writes: u64,
    fences: u64,
    flushes: u64,
    done: u64,
}

impl StatsMark {
    /// The counters now.
    pub fn of(stats: &ServiceStats) -> StatsMark {
        StatsMark {
            groups: stats.groups(),
            writes: stats.grouped_writes(),
            fences: stats.fences(),
            flushes: stats.flushes(),
            done: stats.completed(),
        }
    }

    /// Sets the group-commit metrics of the requests served since this
    /// mark, and returns their flushes per request.
    pub fn since(&self, stats: &ServiceStats, m: &mut Metrics) -> f64 {
        let done = (stats.completed() - self.done).max(1) as f64;
        let groups = (stats.groups() - self.groups).max(1) as f64;
        let mean_group = (stats.grouped_writes() - self.writes) as f64 / groups;
        m.set("service.mean_group", mean_group, "ops/group");
        let high_water = stats.queue_high_water() as f64;
        m.set("service.queue_high_water", high_water, "requests");
        let fences = (stats.fences() - self.fences) as f64 / done;
        m.set("service.fences_per_op", fences, "fences/op");
        (stats.flushes() - self.flushes) as f64 / done
    }
}

/// Sets the submit and wait metrics from a traced request stream.
pub fn span_metrics(m: &mut Metrics, tr: &mut Tracer) {
    let submit = tr.lat("service.submit").expect("requests ran").pct(0.50);
    m.set("service.submit_ns_p50", submit, "ns");
    let wait = tr.lat("service.wait").expect("requests ran");
    m.set("service.wait_ns_p50", wait.pct(0.50), "ns");
    m.set("service.wait_ns_p99", wait.pct(0.99), "ns");
}

/// What one measured stream saw.
pub struct Phase {
    /// Requests completed.
    pub ops: u64,
    /// Requests that failed or were refused.
    pub failed: u64,
    /// Client-side latency, submit to reply, in completion order.
    pub lat: Lat,
    /// Wall time from the first submit to the last reply.
    pub secs: f64,
    /// Sub-windows of the stream.
    pub win: Windows,
}

struct Pending {
    ticket: Result<Ticket<Option<u64>>, ServiceError>,
    i: usize,
    want: u64,
    t0: Instant,
}

/// Drives `client` with `stream` until `dur` has passed or `max_ops`
/// requests completed, checking every reply against `model`.
///
/// The service has one lane, so replies arrive in submission order and
/// each request sees every request submitted before it: the expected
/// answer is the model's value at submit time.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    client: &ClientHandle<Store>,
    model: &mut Model,
    chooser: &Chooser,
    rng: &mut StdRng,
    stream: Stream,
    dur: Duration,
    max_ops: u64,
    mut tr: Option<(&mut Tracer, &SvcSpans)>,
    chk: &mut Checker,
) -> Phase {
    let get_cut = (stream.get_frac * u64::MAX as f64) as u64;
    let mut ph = Phase {
        ops: 0,
        failed: 0,
        lat: Lat::default(),
        secs: 0.0,
        win: Windows::start(dur / 20),
    };
    let mut inflight: VecDeque<Pending> = VecDeque::with_capacity(stream.depth);
    let mut submitted = 0u64;
    let mut stopping = false;
    let start = Instant::now();
    let deadline = start + dur;
    loop {
        while !stopping && inflight.len() < stream.depth {
            let i = chooser.next(rng);
            let k = model.keys[i];
            let want = model.vals[i];
            let is_get = rng.next_u64() < get_cut;
            let t0 = Instant::now();
            let ticket = if is_get {
                client.submit_get(k)
            } else {
                let v = model.next_value(i);
                model.vals[i] = v;
                client.submit_update(k, v)
            };
            if let Some((tr, ids)) = tr.as_mut() {
                tr.rec(ids.submit, t0, Instant::now());
            }
            inflight.push_back(Pending {
                ticket,
                i,
                want,
                t0,
            });
            submitted += 1;
            stopping = submitted >= max_ops;
        }
        let Some(p) = inflight.pop_front() else { break };
        let t1 = Instant::now();
        let out = p.ticket.and_then(Ticket::wait);
        let t2 = Instant::now();
        ph.ops += 1;
        ph.lat.push(ns(p.t0, t2));
        ph.win.tick(t2, ph.lat.len());
        if let Some((tr, ids)) = tr.as_mut() {
            tr.rec(ids.wait, t1, t2);
            tr.rec(ids.op, p.t0, t2);
        }
        match out {
            Ok(got) => chk.check(got == Some(p.want), || {
                format!(
                    "key {:#x}: service answered {got:?}, want {:#x}",
                    model.keys[p.i], p.want
                )
            }),
            Err(_) => ph.failed += 1,
        }
        stopping |= t2 >= deadline;
    }
    ph.win.close(Instant::now(), ph.lat.len());
    ph.secs = start.elapsed().as_secs_f64();
    ph
}

/// What the scanner saw.
#[derive(Default)]
pub struct ScanOut {
    /// Scans run.
    pub scans: u64,
    /// Scans that started more than 1 ms after their due time.
    pub late: u64,
    /// Latency from each scan's due time to its last key.
    pub lat: Lat,
    /// Spans, when traced.
    pub tr: Tracer,
    /// Wrong answers.
    pub chk: Checker,
}

/// Runs snapshot scans of `len` keys each, one due every `period` from
/// `start` until `deadline` (`period` zero: back to back, `count` scans).
/// Each scan takes a `TxnEngine` snapshot, pins the store's reclaim domain
/// and reads through `ShardedStore::cursor`; it must return exactly the
/// `len` keys that follow its start key, each with a value of its own.
#[allow(clippy::too_many_arguments)]
pub fn scanner(
    store: &Store,
    engine: &TxnEngine,
    sorted_keys: &[u64],
    len: usize,
    period: Duration,
    start: Instant,
    deadline: Instant,
    count: u64,
    rng: &mut StdRng,
    traced: bool,
) -> ScanOut {
    let mut out = ScanOut::default();
    let scan = out.tr.def("scan", None);
    let snap_id = out.tr.def("txn.snapshot_acquire", Some(scan));
    let seek_id = out.tr.def("shard.cursor_seek", Some(scan));
    let next_id = out.tr.def("shard.cursor_next", Some(scan));
    let len = len.min(sorted_keys.len());
    let starts = (sorted_keys.len() - len + 1) as u64;
    for j in 0u32.. {
        let due = if period.is_zero() {
            if u64::from(j) >= count {
                break;
            }
            Instant::now()
        } else {
            start + period * j
        };
        if due >= deadline {
            break;
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let s = (rng.next_u64() % starts) as usize;
        let a = Instant::now();
        let mut snap = engine.snapshot();
        snap.also_pin(store.reclaim_domain());
        let b = Instant::now();
        let mut cur = store.cursor();
        cur.seek(sorted_keys[s]);
        let c = Instant::now();
        let mut bad = None;
        for &want in &sorted_keys[s..s + len] {
            match cur.next() {
                Some((k, v)) if k == want && value_belongs(k, v) => {}
                other => {
                    bad = Some((want, other));
                    break;
                }
            }
        }
        let d = Instant::now();
        drop(cur);
        drop(snap);
        out.chk.check(bad.is_none(), || {
            format!("scan from {:#x}: expected key {bad:x?}", sorted_keys[s])
        });
        out.scans += 1;
        if a.saturating_duration_since(due) > Duration::from_millis(1) {
            out.late += 1;
        }
        out.lat.push(ns(due, d));
        if traced {
            out.tr.rec(snap_id, a, b);
            out.tr.rec(seek_id, b, c);
            out.tr.rec(next_id, c, d);
            out.tr.rec(scan, a, d);
        }
    }
    out
}

/// The request stream of a service workload.
pub fn stream_of(w: Workload) -> Stream {
    match w {
        Workload::ServiceClosed => Stream {
            depth: 1,
            get_frac: 0.5,
        },
        Workload::ServicePipelined => Stream {
            depth: 32,
            get_frac: 0.5,
        },
        _ => Stream {
            depth: 8,
            get_frac: 0.0,
        },
    }
}

/// Keys preloaded and the key chooser of a service workload.
pub fn chooser_of(w: Workload, scale: &Scale) -> (usize, Chooser) {
    match w {
        Workload::ScanWrite => (scale.scan_keys, Chooser::Uniform(scale.scan_keys)),
        _ => (
            scale.service_keys,
            Chooser::Zipf(ZipfianGenerator::new(scale.service_keys, 0.99)),
        ),
    }
}

/// A service workload's run: its stack, model and generators.
struct Svc<'a> {
    p: &'a Params,
    st: Stack,
    model: Model,
    chooser: Chooser,
    sorted_keys: Vec<u64>,
    rngs: (StdRng, StdRng),
    chk: Checker,
}

impl Svc<'_> {
    /// One measured window: the request stream, plus the paced scanner on
    /// its own thread for `scan_write`.
    fn window(
        &mut self,
        dur: Duration,
        tr: Option<(&mut Tracer, &SvcSpans)>,
    ) -> (Phase, Option<ScanOut>) {
        let Svc {
            p,
            st,
            model,
            chooser,
            sorted_keys,
            rngs: (rng, scan_rng),
            chk,
        } = self;
        let client = st.service.handle();
        let traced = tr.is_some();
        let start = Instant::now();
        std::thread::scope(|s| {
            let scans = (p.workload == Workload::ScanWrite).then(|| {
                s.spawn(|| {
                    let (len, period) = (p.scale.scan_len, p.scale.scan_period);
                    let (store, engine) = (&st.store, &st.engine);
                    scanner(
                        store,
                        engine,
                        sorted_keys,
                        len,
                        period,
                        start,
                        start + dur,
                        0,
                        scan_rng,
                        traced,
                    )
                })
            });
            let stream = stream_of(p.workload);
            let ph = drive(&client, model, chooser, rng, stream, dur, u64::MAX, tr, chk);
            (ph, scans.map(|h| h.join().expect("scanner thread")))
        })
    }
}

/// Runs `service_closed`, `service_pipelined` or `scan_write`.
pub fn run(p: &Params) -> Report {
    let (n, chooser) = chooser_of(p.workload, &p.scale);
    let (setup_s, (model, st)) = median_setup(p.scale.setups, || {
        let model = Model::new(p.seed, KEYS, n);
        let st = Stack::create(&model.sorted(), PoolConfig::new());
        (model, st)
    });
    let mut sorted_keys = model.keys.clone();
    sorted_keys.sort_unstable();
    let mut run = Svc {
        p,
        st,
        model,
        chooser,
        sorted_keys,
        rngs: (rng(p.seed, 3), rng(p.seed, 4)),
        chk: Checker::default(),
    };
    let mut m = Metrics::default();
    let (attempted, failed, service_p50);
    if p.trace {
        let (plain, _) = run.window(p.measure / 2, None);
        let stats = Arc::clone(run.st.service.stats());
        let before = StatsMark::of(&stats);
        let mut tr = Tracer::default();
        let ids = SvcSpans::new(&mut tr);
        let (traced, scans) = run.window(p.measure / 2, Some((&mut tr, &ids)));
        span_metrics(&mut m, &mut tr);
        let flushes = before.since(&stats, &mut m);
        let fences = m.get("service.fences_per_op").expect("just set");
        m.set("pmem.fences_per_op", fences, "fences/op");
        m.set("pmem.flushes_per_op", flushes, "flushes/op");
        m.set("pmem.high_water_bytes", run.st.high_water() as f64, "B");
        m.set("catalog.open_ms", run.st.open_ms, "ms");
        m.set("txn.recover_ms", run.st.recover_ms, "ms");
        if let Some(mut sc) = scans {
            scan_metrics(&mut m, &mut sc, p.scale.scan_len);
            tr.absorb(&sc.tr);
            run.chk.merge(sc.chk);
        }
        let plain_rate = plain.ops as f64 / plain.secs;
        let traced_rate = traced.ops as f64 / traced.secs;
        m.set(
            "trace.overhead_frac",
            1.0 - traced_rate / plain_rate,
            "fraction",
        );
        service_p50 = plain.win.summary(&plain.lat).p50_ns;
        attempted = plain.ops + traced.ops;
        failed = plain.failed + traced.failed;
        eprintln!("{}", tr.table());
    } else {
        let (ph, scans) = run.window(p.measure, None);
        e2e(&mut m, setup_s, &ph.win, &ph.lat);
        let user_bytes = run.model.keys.len() as f64 * 16.0;
        let ratio = run.st.high_water() as f64 / user_bytes;
        m.set("bytes_per_user_byte", ratio, "ratio");
        if let Some(sc) = scans {
            run.chk.merge(sc.chk);
        }
        service_p50 = 0.0;
        attempted = ph.ops;
        failed = ph.failed;
    }
    let Svc {
        st,
        mut model,
        chooser,
        sorted_keys,
        mut chk,
        ..
    } = run;
    diff_store(&st.store, &model.sorted(), &mut chk, "final contents");
    durable::service(p, &mut chk);
    if p.trace {
        let error_rate = (failed + chk.wrong) as f64 / attempted as f64;
        m.set("error_rate", error_rate, "fraction");
        let lm = ladder::on_stack(
            p,
            &st,
            &mut model,
            &chooser,
            &sorted_keys,
            service_p50,
            &mut chk,
        );
        m.fill(lm);
    }
    Report {
        correct: chk.wrong == 0,
        attempted,
        failed: failed + chk.wrong,
        metrics: m,
    }
    .fail_loudly(&chk)
}

/// Scan latency, lateness and cursor costs from a scanner's output.
pub fn scan_metrics(m: &mut Metrics, sc: &mut ScanOut, len: usize) {
    m.set("scan.p50_us", sc.lat.pct(0.50) / 1e3, "us");
    m.set("scan.p99_us", sc.lat.pct(0.99) / 1e3, "us");
    m.set(
        "scan.late_frac",
        sc.late as f64 / sc.scans.max(1) as f64,
        "fraction",
    );
    if let Some(l) = sc.tr.lat("txn.snapshot_acquire") {
        m.set("txn.snapshot_acquire_ns_p50", l.pct(0.50), "ns");
        m.set("txn.snapshot_acquire_ns_p99", l.pct(0.99), "ns");
    }
    if let Some(l) = sc.tr.lat("shard.cursor_seek") {
        m.set("shard.cursor_seek_ns_p50", l.pct(0.50), "ns");
    }
    if let Some(l) = sc.tr.lat("shard.cursor_next") {
        m.set("shard.cursor_next_ns", l.mean() / len as f64, "ns");
    }
}
