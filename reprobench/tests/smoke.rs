//! A tiny run of each workload passes the correctness check and reports
//! the layers it was chosen for.

use reprobench::catalog::{END_TO_END, PER_LAYER};
use reprobench::{run_workload, RunOutput, WORKLOADS};

fn smoke(workload: &str, trace: bool) -> RunOutput {
    // Zero seconds: one round (or pass) after set-up.
    let out = run_workload(workload, 0, 0.0, trace).expect("set-up succeeds");
    assert!(out.attempted >= 1, "{workload}: no request ran");
    assert_eq!(out.failed, 0, "{workload}: {:?}", out.rows());
    out
}

#[test]
fn untraced_runs_report_every_end_to_end_metric() {
    for w in WORKLOADS {
        let out = smoke(w, false);
        for m in END_TO_END {
            let v = out.metrics.get(m.name).copied();
            assert!(v.is_some_and(|v| v > 0.0), "{w}: {} = {v:?}", m.name);
        }
        assert_eq!(out.metrics["correct_frac"], 1.0);
        assert!(out.spans.is_empty(), "untraced runs record no spans");
    }
}

#[test]
fn traced_runs_split_the_layers_by_workload() {
    for w in WORKLOADS {
        let out = smoke(w, true);
        let get = |name: &str| out.metrics.get(name).copied().unwrap_or(0.0);
        for m in PER_LAYER {
            assert!(get(m.name).is_finite(), "{w}: {}", m.name);
        }
        assert!(out.spans.iter().any(|s| s.name == "request"));
        let triage = *w == "triage_dups";
        for name in [
            "store.hits",
            "store.bytes",
            "batch.computed_units",
            "batch.rehydrated_units",
        ] {
            assert_eq!(get(name) > 0.0, triage, "{w}: {name} = {}", get(name));
        }
        assert_eq!(
            get("search.worklist_ms") > 0.0,
            !triage,
            "{w}: search.worklist_ms"
        );
        assert!(get("stress.seeds_tried") >= 1.0);
    }
}

#[test]
fn unknown_workload_is_an_error() {
    assert!(run_workload("nope", 0, 0.0, false).is_err());
}
