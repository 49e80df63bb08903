//! Tiny-size self-test of every workload: the metric names and units match
//! `BENCHMARK.json`, every answer checks out, and the checks themselves
//! catch a wrong answer.

use std::time::Duration;

use perfbench::churn::{diff, Churn};
use perfbench::stack::{diff_store, Model, Stack};
use perfbench::util::{update_value, value_belongs, Checker};
use perfbench::{run, Params, Scale, Workload, END_TO_END, PER_LAYER};
use pmem::PoolConfig;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section ends")];
    let field = |line: &str, key: &str| -> String {
        let Some(at) = line.find(&format!("\"{key}\": \"")) else {
            return String::new();
        };
        let at = at + key.len() + 5;
        line[at..at + line[at..].find('"').expect("field ends")].to_string()
    };
    body.lines()
        .filter(|l| l.contains("\"name\""))
        .map(|l| (field(l, "name"), field(l, "unit")))
        .collect()
}

fn check_run(workload: Workload, trace: bool) {
    let params = Params {
        workload,
        seed: 7,
        measure: Duration::from_millis(400),
        trace,
        scale: Scale::TINY,
    };
    let report = run(&params);
    assert!(report.correct, "{workload:?} answered wrongly");
    assert_eq!(report.failed, 0);
    assert!(report.attempted > 0);
    let want: Vec<(&str, &str)> = if trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    let mut got: Vec<(&str, &str)> = report.metrics.0.iter().map(|(k, v)| (*k, v.1)).collect();
    let mut sorted_want = want.clone();
    got.sort_unstable();
    sorted_want.sort_unstable();
    assert_eq!(
        got, sorted_want,
        "{workload:?} trace={trace}: metric names or units"
    );
    for (name, (v, _)) in &report.metrics.0 {
        assert!(v.is_finite(), "{name} = {v}");
        if !trace {
            assert!(*v > 0.0, "{name} = {v} on {workload:?}");
        }
    }
    if trace {
        assert_eq!(report.metrics.get("repl.final_lag"), Some(0.0));
        assert_eq!(report.metrics.get("error_rate"), Some(0.0));
    }
    let line = report.to_json();
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
}

#[test]
fn benchmark_json_lists_the_reported_metrics() {
    let as_owned = |v: &[(&str, &str)]| -> Vec<(String, String)> {
        v.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), as_owned(&END_TO_END));
    assert_eq!(declared("per_layer"), as_owned(&PER_LAYER));
    let workloads: Vec<String> = declared("workloads").into_iter().map(|w| w.0).collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);
}

#[test]
fn tree_churn_runs_clean() {
    check_run(Workload::TreeChurn, false);
    check_run(Workload::TreeChurn, true);
}

#[test]
fn service_closed_runs_clean() {
    check_run(Workload::ServiceClosed, false);
    check_run(Workload::ServiceClosed, true);
}

#[test]
fn service_pipelined_runs_clean() {
    check_run(Workload::ServicePipelined, false);
    check_run(Workload::ServicePipelined, true);
}

#[test]
fn scan_write_runs_clean() {
    check_run(Workload::ScanWrite, false);
    check_run(Workload::ScanWrite, true);
}

#[test]
fn the_checks_catch_wrong_answers() {
    assert!(value_belongs(42, update_value(42, 9)));
    assert!(!value_belongs(42, update_value(43, 9)));

    let churn = Churn::new(3, 500, PoolConfig::new());
    let mut want = churn.sorted();
    let mut chk = Checker::default();
    diff(&churn.tree, &want, &mut chk, "tree");
    assert_eq!(chk.wrong, 0);
    want[17].1 ^= 2;
    diff(&churn.tree, &want, &mut chk, "tree");
    assert_eq!(chk.wrong, 1);
    want.pop();
    diff(&churn.tree, &want, &mut chk, "tree");
    assert_eq!(chk.wrong, 2);

    let mut model = Model::new(3, 1, 500);
    let st = Stack::create(&model.sorted(), PoolConfig::new());
    let mut chk = Checker::default();
    diff_store(&st.store, &model.sorted(), &mut chk, "store");
    assert_eq!(chk.wrong, 0);
    model.vals[5] = update_value(model.keys[5], 1);
    diff_store(&st.store, &model.sorted(), &mut chk, "store");
    assert_eq!(chk.wrong, 1);
}
