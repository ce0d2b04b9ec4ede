//! The benchmark's own contract, at tiny scale: every workload reports
//! every end-to-end metric with its unit, the traced run reports every
//! per-layer metric, and a wrong answer is counted as a failed operation.

use perfbench::{Options, Outcome, Scale, Workload, END_TO_END, PER_LAYER};

fn tiny(test: &str, workload: Workload, trace: bool) -> Options {
    let mut opts = Options::new(workload, 7, 0.4, trace);
    opts.scale = Scale::Tiny;
    opts.work_dir = opts.work_dir.with_file_name(format!("test-{test}-{}", workload.name()));
    opts
}

fn assert_reports(out: &Outcome, trace: bool, names: &[(&str, &str)]) {
    let line = out.result_line(trace);
    for (name, unit) in names {
        let v = out.metrics.get(*name).unwrap_or_else(|| panic!("{name} missing from {line}"));
        assert!(v.is_finite(), "{name} = {v}");
        assert!(line.contains(&format!("\"{name}\":{{\"value\":")), "{name} not in {line}");
        assert!(line.contains(&format!("\"unit\":\"{unit}\"")), "unit {unit} not in {line}");
    }
    let metrics = line.split("\"metrics\":").nth(1).expect("metrics object");
    assert_eq!(metrics.matches("\"value\":").count(), names.len(), "{line}");
}

#[test]
fn every_workload_reports_every_end_to_end_metric_and_checks_out() {
    for workload in Workload::ALL {
        let out = perfbench::run(&tiny("e2e", workload, false)).expect("run");
        assert_eq!(out.tally.failed, 0, "{}: {:?}", workload.name(), out.tally.reasons);
        assert!(out.tally.attempted > 0);
        assert!(out.correct(false), "{}", out.result_line(false));
        assert_reports(&out, false, END_TO_END);
    }
}

#[test]
fn the_traced_run_reports_every_per_layer_metric() {
    let out = perfbench::run(&tiny("trace", Workload::ServeRead, true)).expect("run");
    assert!(out.tally.attempted > 0);
    assert_reports(&out, true, PER_LAYER);
}

#[test]
fn an_injected_wrong_answer_is_a_failed_operation() {
    for workload in Workload::ALL {
        let mut opts = tiny("inject", workload, false);
        opts.inject_wrong_answer = true;
        let out = perfbench::run(&opts).expect("run");
        assert!(out.tally.failed >= 1, "{}: wrong answer passed", workload.name());
        assert!(!out.correct(false));
        assert!(out.result_line(false).starts_with("{\"correct\":false,"));
    }
}
