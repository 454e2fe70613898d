//! The metric catalog: every name the benchmark prints, with its unit.
//!
//! `BENCHMARK.json` at the repository root lists the same names; the
//! tests pin the two together.

/// Whether a larger or a smaller value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput, success share).
    Higher,
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Printed name.
    pub name: &'static str,
    /// Printed unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// Metrics a user of the reproducer sees, printed by untraced runs.
pub const END_TO_END: &[Metric] = &[
    m("repro_ms_p50", "ms", Lower),
    m("repro_ms_p90", "ms", Lower),
    m("repros_per_s", "1/s", Higher),
    m("correct_frac", "ratio", Higher),
    m("setup_s", "s", Lower),
    m("peak_heap_mb", "MB", Lower),
];

/// Metrics of single layers, printed by traced runs. Times are means
/// per request (or per unit named in the README); a layer a workload
/// does not drive reads 0.
pub const PER_LAYER: &[Metric] = &[
    m("search.ms", "ms", Lower),
    m("search.annotate_ms", "ms", Lower),
    m("search.worklist_ms", "ms", Lower),
    m("search.tries_ms", "ms", Lower),
    m("search.candidates", "count", Lower),
    m("search.worklist_len", "count", Lower),
    m("search.tries", "count", Lower),
    m("search.combos_tested", "count", Lower),
    m("search.try_us", "us", Lower),
    m("search.worklist_used_frac", "ratio", Higher),
    m("vm.steps_per_s", "1/s", Higher),
    m("analysis.ms", "ms", Lower),
    m("index.ms", "ms", Lower),
    m("align.ms", "ms", Lower),
    m("diff.ms", "ms", Lower),
    m("rank.ms", "ms", Lower),
    m("dump.failure_bytes", "bytes", Lower),
    m("dump.aligned_bytes", "bytes", Lower),
    m("store.hits", "count", Higher),
    m("store.misses", "count", Lower),
    m("store.hit_rate", "ratio", Higher),
    m("store.bytes", "bytes", Lower),
    m("store.evictions", "count", Lower),
    m("batch.computed_units", "count", Lower),
    m("batch.rehydrated_units", "count", Higher),
    m("batch.deduped_units", "count", Higher),
    m("batch.waves", "count", Lower),
    m("batch.busy_ms", "ms", Lower),
    m("batch.wait_ms", "ms", Lower),
    m("batch.hit_job_ms", "ms", Lower),
    m("batch.miss_job_ms", "ms", Lower),
    m("lang.compile_ms", "ms", Lower),
    m("stress.ms", "ms", Lower),
    m("stress.seeds_tried", "count", Lower),
    m("trace.overhead_ms", "ms", Lower),
];

/// The catalog entry for `name`, searching both lists.
pub fn lookup(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Whether `name` is a valid metric name: a letter or digit first, then
/// at most 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` or `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}
