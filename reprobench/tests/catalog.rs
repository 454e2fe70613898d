//! The metric catalog is well formed and matches `BENCHMARK.json`.

use reprobench::catalog::{lookup, valid_name, valid_unit, Better, END_TO_END, PER_LAYER};
use reprobench::WORKLOADS;
use std::collections::HashSet;

#[test]
fn names_and_units_are_valid_and_unique() {
    let mut seen = HashSet::new();
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(m.name), "bad metric name {:?}", m.name);
        assert!(valid_unit(m.unit), "bad unit {:?} of {}", m.unit, m.name);
        assert!(seen.insert(m.name), "{} listed twice", m.name);
        assert!(lookup(m.name).is_some());
    }
    for w in WORKLOADS {
        assert!(valid_name(w), "bad workload name {w:?}");
    }
    assert!(!valid_name("_x") && !valid_name("a b") && !valid_name(""));
    assert!(!valid_unit("") && !valid_unit("m s"));
}

#[test]
fn metric_counts_fit_the_limits() {
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    let setup = lookup("setup_s").expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
}

/// Every catalog entry and workload appears in `BENCHMARK.json` with the
/// same unit and direction, and the file names nothing else.
#[test]
fn benchmark_json_lists_the_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let compact: String = json.chars().filter(|c| !c.is_whitespace()).collect();
    for m in END_TO_END.iter().chain(PER_LAYER) {
        let better = match m.better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        let entry = format!(
            "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{better}\"",
            m.name, m.unit
        );
        assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in WORKLOADS {
        assert!(compact.contains(&format!("{{\"name\":\"{w}\",\"why\":")));
    }
    let names = compact.matches("{\"name\":").count();
    assert_eq!(names, END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len());
}
