//! The repository benchmark: four workloads driven through the layers'
//! public APIs, each checked against a model, with a traced mode that
//! reports per-layer numbers. See `perfbench/README.md` for the workloads,
//! the metrics and how to read a traced run.

pub mod churn;
pub mod durable;
pub mod ladder;
pub mod stack;
pub mod util;

use std::time::Duration;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One thread churning a 1M-key `FastFairTree` directly.
    TreeChurn,
    /// One closed-loop service client, YCSB-A over 100k keys.
    ServiceClosed,
    /// One generator with 32 requests in flight, YCSB-A over 100k keys.
    ServicePipelined,
    /// Paced snapshot scans beside pipelined service updates, 1M keys.
    ScanWrite,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::TreeChurn,
        Workload::ServiceClosed,
        Workload::ServicePipelined,
        Workload::ScanWrite,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TreeChurn => "tree_churn",
            Workload::ServiceClosed => "service_closed",
            Workload::ServicePipelined => "service_pipelined",
            Workload::ScanWrite => "scan_write",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes. `FULL` is the benchmark; `TINY` is for the self-test.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Keys preloaded for `tree_churn`.
    pub churn_keys: usize,
    /// Keys preloaded for the two YCSB-A service workloads.
    pub service_keys: usize,
    /// Keys preloaded for `scan_write`.
    pub scan_keys: usize,
    /// Keys per scan.
    pub scan_len: usize,
    /// Interval between scan due times in `scan_write`.
    pub scan_period: Duration,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Keys preloaded for the durability check.
    pub durable_keys: usize,
    /// Operations run before the durability check's crash cut.
    pub durable_ops: usize,
    /// Operations per ladder rung in a traced run.
    pub ladder_ops: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub const FULL: Scale = Scale {
        churn_keys: 1_000_000,
        service_keys: 100_000,
        scan_keys: 1_000_000,
        scan_len: 10_000,
        scan_period: Duration::from_millis(20),
        setups: 3,
        durable_keys: 2_000,
        durable_ops: 3_000,
        ladder_ops: 20_000,
    };

    /// Sizes small enough for a unit test.
    pub const TINY: Scale = Scale {
        churn_keys: 3_000,
        service_keys: 2_000,
        scan_keys: 3_000,
        scan_len: 300,
        scan_period: Duration::from_millis(5),
        setups: 2,
        durable_keys: 300,
        durable_ops: 400,
        ladder_ops: 400,
    };
}

/// One run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window.
    pub measure: Duration,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// Runs one workload and returns its report. Wrong answers are counted in
/// the report and make it incorrect; the caller decides how to fail.
pub fn run(p: &Params) -> util::Report {
    match p.workload {
        Workload::TreeChurn => churn::run(p),
        Workload::ServiceClosed | Workload::ServicePipelined | Workload::ScanWrite => stack::run(p),
    }
}

/// Unit of every end-to-end metric, in the order `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("cpu_us_per_op", "us"),
    ("bytes_per_user_byte", "ratio"),
];

/// Unit of every per-layer metric, in the order `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("core.get_ns_p50", "ns"),
    ("core.get_ns_p99", "ns"),
    ("core.update_ns_p50", "ns"),
    ("core.update_ns_p99", "ns"),
    ("core.insert_ns_p50", "ns"),
    ("core.insert_ns_p99", "ns"),
    ("core.remove_ns_p50", "ns"),
    ("core.remove_ns_p99", "ns"),
    ("core.height", "levels"),
    ("pmem.lines_read_per_op", "lines/op"),
    ("pmem.shift_steps_per_op", "steps/op"),
    ("pmem.flushes_per_op", "flushes/op"),
    ("pmem.fences_per_op", "fences/op"),
    ("pmem.flushes_coalesced_per_op", "flushes/op"),
    ("pmem.high_water_bytes", "B"),
    ("epoch.advances_per_kop", "1/kop"),
    ("epoch.recycled_online_per_kop", "1/kop"),
    ("epoch.limbo_peak", "nodes"),
    ("shard.get_ns_p50", "ns"),
    ("shard.cursor_seek_ns_p50", "ns"),
    ("shard.cursor_next_ns", "ns"),
    ("txn.commit_ns_p50", "ns"),
    ("txn.commit_ns_p99", "ns"),
    ("txn.snapshot_acquire_ns_p50", "ns"),
    ("txn.snapshot_acquire_ns_p99", "ns"),
    ("txn.recover_ms", "ms"),
    ("catalog.open_ms", "ms"),
    ("service.submit_ns_p50", "ns"),
    ("service.wait_ns_p50", "ns"),
    ("service.wait_ns_p99", "ns"),
    ("service.overhead_ns_p50", "ns"),
    ("service.mean_group", "ops/group"),
    ("service.queue_high_water", "requests"),
    ("service.fences_per_op", "fences/op"),
    ("repl.apply_ns_per_group", "ns"),
    ("repl.final_lag", "groups"),
    ("scan.p50_us", "us"),
    ("scan.p99_us", "us"),
    ("scan.late_frac", "fraction"),
    ("error_rate", "fraction"),
    ("trace.overhead_frac", "fraction"),
];
