//! Pieces every workload shares: key and value derivation, the answer
//! checker, latency summaries, process CPU time, the span recorder and the
//! metric report.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use pmindex::workload::{value_for, ZipfianGenerator};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// SplitMix64 finalizer. It is a bijection on `u64`, so distinct inputs
/// give distinct outputs.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `i`-th key of the key stream `stream` of a run seeded with `seed`.
/// Keys look uniform over `u64`, and the keys of one stream are distinct
/// because `mix64` is a bijection.
pub fn key_at(seed: u64, stream: u64, i: u64) -> u64 {
    let base = mix64(seed ^ mix64(stream));
    mix64(base.wrapping_add(i)).clamp(1, u64::MAX - 1)
}

fn key_tag(key: u64) -> u64 {
    mix64(key ^ 0x5bd1_e995) >> 32
}

/// Value stored by the `c`-th update the benchmark makes: the high half
/// tags the key, so a concurrent reader can tell a value belongs to its
/// key. Never 0 or `u64::MAX`, the reserved values.
pub fn update_value(key: u64, c: u64) -> u64 {
    (key_tag(key) << 32) | ((c & 0x3fff_ffff) << 1) | 1
}

/// Whether `v` is a value the benchmark could have stored under `key`:
/// the preload value or one of its updates.
pub fn value_belongs(key: u64, v: u64) -> bool {
    v == value_for(key) || (v >> 32 == key_tag(key) && v & 1 == 1)
}

/// Picks key indexes: uniform, or Zipf-skewed with rank 0 hottest.
pub enum Chooser {
    /// Uniform over `0..n`.
    Uniform(usize),
    /// Zipf over `0..n`.
    Zipf(ZipfianGenerator),
}

impl Chooser {
    /// The index of the next key.
    pub fn next(&self, rng: &mut StdRng) -> usize {
        match self {
            Chooser::Uniform(n) => (rng.next_u64() % *n as u64) as usize,
            Chooser::Zipf(z) => z.next_rank(rng),
        }
    }
}

/// The run's random generator for stream `stream`.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(mix64(seed) ^ mix64(stream.wrapping_add(0x51)))
}

/// Counts answers that disagree with the model and keeps the first few
/// for the failure message.
#[derive(Default)]
pub struct Checker {
    /// Wrong answers seen.
    pub wrong: u64,
    /// The first wrong answers, described.
    pub first: Vec<String>,
}

impl Checker {
    /// Records a check; `what` describes the answer when it is wrong.
    #[inline]
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.wrong += 1;
            if self.first.len() < 5 {
                self.first.push(what());
            }
        }
    }

    /// Folds another checker's findings into this one.
    pub fn merge(&mut self, other: Checker) {
        self.wrong += other.wrong;
        for m in other.first {
            if self.first.len() < 5 {
                self.first.push(m);
            }
        }
    }
}

/// Nanoseconds from `a` to `b`, saturating into a `u32` sample.
#[inline]
pub fn ns(a: Instant, b: Instant) -> u32 {
    b.saturating_duration_since(a)
        .as_nanos()
        .min(u128::from(u32::MAX)) as u32
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Latency samples in nanoseconds.
#[derive(Default)]
pub struct Lat {
    samples: Vec<u32>,
    sorted: bool,
}

impl Lat {
    /// Adds one sample.
    #[inline]
    pub fn push(&mut self, ns: u32) {
        self.samples.push(ns);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Adds every sample of `other`.
    pub fn extend(&mut self, other: &Lat) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    /// The `p` quantile in nanoseconds; 0 when empty. Samples are whole
    /// nanoseconds and many tie, so the quantile is the mean of the samples
    /// whose rank is within a tenth of the tail share of the nearest rank:
    /// ranks 45–55% for the median, 98.9–99.1% for p99.
    pub fn pct(&mut self, p: f64) -> f64 {
        let n = self.samples.len();
        if n == 0 {
            return 0.0;
        }
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
        let k = (n as f64 * p.min(1.0 - p) / 10.0) as usize;
        let near = &self.samples[rank.saturating_sub(k)..(rank + k + 1).min(n)];
        near.iter().map(|&s| f64::from(s)).sum::<f64>() / near.len() as f64
    }

    /// Mean in nanoseconds; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|&s| f64::from(s)).sum::<f64>() / self.samples.len() as f64
    }
}

/// Splits a measured window into sub-windows of equal length. The
/// end-to-end numbers of a run are medians over its sub-windows, so a
/// stall of the machine in one second moves one sample, not the result.
pub struct Windows {
    every: Duration,
    next: Instant,
    marks: Vec<Mark>,
}

struct Mark {
    at: usize,
    t: Instant,
    cpu: Duration,
}

/// The medians over the sub-windows of one measured window.
pub struct Summary {
    /// Completed operations per second.
    pub ops_per_s: f64,
    /// Median latency in ns.
    pub p50_ns: f64,
    /// 99th-percentile latency in ns.
    pub p99_ns: f64,
    /// Process CPU time per operation in µs.
    pub cpu_us_per_op: f64,
}

impl Windows {
    /// Starts the first sub-window now.
    pub fn start(every: Duration) -> Windows {
        let t = Instant::now();
        Windows {
            every,
            next: t + every,
            marks: vec![Mark {
                at: 0,
                t,
                cpu: cpu_time(),
            }],
        }
    }

    /// Closes the current sub-window if `now` is past its end; `done` is
    /// the number of latency samples so far.
    #[inline]
    pub fn tick(&mut self, now: Instant, done: usize) {
        if now >= self.next {
            self.close(now, done);
            self.next += self.every;
        }
    }

    /// Closes the last sub-window.
    pub fn close(&mut self, now: Instant, done: usize) {
        self.marks.push(Mark {
            at: done,
            t: now,
            cpu: cpu_time(),
        });
    }

    /// Medians over the sub-windows of `lat`; a trailing sub-window
    /// shorter than half the others is left out.
    pub fn summary(&self, lat: &Lat) -> Summary {
        let (mut rate, mut p50, mut p99, mut cpu) = (vec![], vec![], vec![], vec![]);
        for w in self.marks.windows(2) {
            let secs = w[1].t.duration_since(w[0].t).as_secs_f64();
            let ops = w[1].at - w[0].at;
            if ops == 0 || secs < self.every.as_secs_f64() / 2.0 {
                continue;
            }
            let mut part = Lat {
                samples: lat.samples[w[0].at..w[1].at].to_vec(),
                sorted: false,
            };
            rate.push(ops as f64 / secs);
            p50.push(part.pct(0.50));
            p99.push(part.pct(0.99));
            cpu.push((w[1].cpu - w[0].cpu).as_secs_f64() * 1e6 / ops as f64);
        }
        Summary {
            ops_per_s: median(&mut rate),
            p50_ns: median(&mut p50),
            p99_ns: median(&mut p99),
            cpu_us_per_op: median(&mut cpu),
        }
    }
}

/// The end-to-end metrics of a measured window, as medians over its
/// sub-windows.
pub fn e2e(m: &mut Metrics, setup_s: f64, win: &Windows, lat: &Lat) {
    let s = win.summary(lat);
    m.set("setup_s", setup_s, "s");
    m.set("ops_per_s", s.ops_per_s, "ops/s");
    m.set("p50_us", s.p50_ns / 1e3, "us");
    m.set("p99_us", s.p99_ns / 1e3, "us");
    m.set("cpu_us_per_op", s.cpu_us_per_op, "us");
}

/// Median of `v` (0 when empty).
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// User plus system CPU time of the whole process, from `/proc/self/stat`
/// (clock ticks of 10 ms, the Linux `USER_HZ` of 100).
pub fn cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name may hold spaces; the fields after it are fixed.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> u64 { fields[i].parse().expect("numeric stat field") };
    // Fields 14 (utime) and 15 (stime) of proc(5); `rest` starts at field 3.
    Duration::from_millis((ticks(11) + ticks(12)) * 10)
}

/// Spans recorded around the benchmark's calls into the layers, kept in
/// memory and summarised at the end. Each span names its parent, so a
/// parent's self time is its duration minus the time its child spans
/// cover.
#[derive(Default)]
pub struct Tracer {
    spans: Vec<SpanStat>,
}

struct SpanStat {
    name: &'static str,
    parent: Option<usize>,
    lat: Lat,
    total_ns: u64,
    child_ns: u64,
}

impl Tracer {
    /// Declares a span name under an optional parent and returns its id.
    pub fn def(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        if let Some(i) = self.spans.iter().position(|s| s.name == name) {
            return i;
        }
        self.spans.push(SpanStat {
            name,
            parent,
            lat: Lat::default(),
            total_ns: 0,
            child_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Records one span of `id` from `a` to `b`.
    #[inline]
    pub fn rec(&mut self, id: usize, a: Instant, b: Instant) {
        let d = ns(a, b);
        let s = &mut self.spans[id];
        s.lat.push(d);
        s.total_ns += u64::from(d);
        if let Some(p) = s.parent {
            self.spans[p].child_ns += u64::from(d);
        }
    }

    /// The samples of span `name`, if any were recorded.
    pub fn lat(&mut self, name: &str) -> Option<&mut Lat> {
        self.spans
            .iter_mut()
            .find(|s| s.name == name && !s.lat.is_empty())
            .map(|s| &mut s.lat)
    }

    /// Adds every span of `other`, matching spans by name.
    pub fn absorb(&mut self, other: &Tracer) {
        for s in &other.spans {
            let parent = s.parent.map(|p| self.def(other.spans[p].name, None));
            let id = self.def(s.name, parent);
            let mine = &mut self.spans[id];
            mine.lat.extend(&s.lat);
            mine.total_ns += s.total_ns;
            mine.child_ns += s.child_ns;
        }
    }

    /// The span table: count, median, 99th percentile, total and self time.
    pub fn table(&mut self) -> String {
        let mut out = String::from(
            "span                          parent          count      p50_ns      p99_ns    total_ms     self_ms\n",
        );
        let names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        for s in &mut self.spans {
            let parent = s.parent.map_or("-", |p| names[p]);
            let _ = writeln!(
                out,
                "{:<29} {:<15} {:>5} {:>11.0} {:>11.0} {:>11.3} {:>11.3}",
                s.name,
                parent,
                s.lat.len(),
                s.lat.pct(0.50),
                s.lat.pct(0.99),
                s.total_ns as f64 / 1e6,
                s.total_ns.saturating_sub(s.child_ns) as f64 / 1e6,
            );
        }
        out
    }
}

/// The metrics of one run, by name, with their units.
#[derive(Default)]
pub struct Metrics(pub BTreeMap<&'static str, (f64, &'static str)>);

impl Metrics {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.insert(name, (value, unit));
    }

    /// Sets `name` only if no value was set yet: a workload's own
    /// measurement wins over the ladder's.
    pub fn fill(&mut self, other: Metrics) {
        for (k, v) in other.0 {
            self.0.entry(k).or_insert(v);
        }
    }

    /// The value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|v| v.0)
    }
}

/// What one run prints as its last line.
pub struct Report {
    /// Every answer matched the model and every check passed.
    pub correct: bool,
    /// Foreground operations attempted in the measured window.
    pub attempted: u64,
    /// Of those, operations that failed, were refused or answered wrongly.
    pub failed: u64,
    /// The metrics of the run.
    pub metrics: Metrics,
}

impl Report {
    /// Prints the first wrong answers to standard error when there were
    /// any, so a failing run says why.
    pub fn fail_loudly(self, chk: &Checker) -> Report {
        if chk.wrong > 0 {
            eprintln!("perfbench: {} wrong answers; the first:", chk.wrong);
            for m in &chk.first {
                eprintln!("  {m}");
            }
        }
        self
    }

    /// The result line, as one JSON object.
    pub fn to_json(&self) -> String {
        let mut m = String::new();
        for (i, (name, (v, unit))) in self.metrics.0.iter().enumerate() {
            if i > 0 {
                m.push_str(", ");
            }
            let _ = write!(m, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// Runs `setup` at least `times` times, and again until the set-ups have
/// taken a second (at most 20 in all), keeps the last result, and returns
/// the median set-up time in seconds alongside it. Earlier results are
/// dropped before the next set-up starts, so one copy is alive at a time.
pub fn median_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::new();
    let mut kept = None;
    while secs.len() < times.max(1) || (secs.iter().sum::<f64>() < 1.0 && secs.len() < 20) {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(setup());
        secs.push(t.elapsed().as_secs_f64());
    }
    (median(&mut secs), kept.expect("at least one set-up ran"))
}
