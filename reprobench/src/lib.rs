//! reprobench: wall time per dump-to-schedule bug reproduction.
//!
//! One workload runs per process. Set-up compiles the programs, stresses
//! each input into a failure dump and warms up with one verified
//! reproduction per dump; then requests run in a closed loop for the
//! requested time. Every request is checked against the verified
//! reference. An untraced run reports the end-to-end metrics; a traced
//! run records spans around the calls into each layer and reports the
//! per-layer metrics. See `README.md` for the workloads and metrics.

pub mod catalog;
pub mod heap;
pub mod setup;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod triage;

use setup::Prepared;
use stats::{quantile, ratio};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use trace::Span;

pub use setup::ms;

/// The workloads, by their command-line names.
pub const WORKLOADS: &[&str] = &["suite_chessx", "suite_chess", "triage_dups"];

/// Runs the named workload.
///
/// # Errors
///
/// An unknown workload name, or a set-up failure.
pub fn run_workload(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<RunOutput, String> {
    match name {
        "suite_chessx" => suite::run(mcr_search::Algorithm::ChessX, seed, seconds, trace),
        "suite_chess" => suite::run(mcr_search::Algorithm::Chess, seed, seconds, trace),
        "triage_dups" => triage::run(seed, seconds, trace),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?})"
        )),
    }
}

/// The output, wall time and peak heap memory of one round: every case
/// (suite) or every job of the corpus (triage) once.
#[derive(Debug)]
pub struct Round<T> {
    /// What the round produced.
    pub items: Vec<T>,
    /// Wall time of the round.
    pub wall: Duration,
    /// Most heap memory live during the round, in MB.
    pub peak_heap_mb: f64,
}

/// Runs whole `round`s until `seconds` have passed (at least one) and
/// returns each round's output, wall time and peak heap memory.
pub fn timed_rounds<T>(seconds: f64, mut round: impl FnMut(&mut Vec<T>)) -> Vec<Round<T>> {
    let started = Instant::now();
    let mut rounds = Vec::new();
    loop {
        heap::reset_peak();
        let t = Instant::now();
        let mut items = Vec::new();
        round(&mut items);
        rounds.push(Round {
            items,
            wall: t.elapsed(),
            peak_heap_mb: heap::peak_mb(),
        });
        if started.elapsed().as_secs_f64() >= seconds {
            return rounds;
        }
    }
}

/// Runs whole `round`s, appending to one list, until `seconds` have
/// passed (at least one round), and returns the list.
pub fn one_window<T>(seconds: f64, mut round: impl FnMut(&mut Vec<T>)) -> Vec<T> {
    let started = Instant::now();
    let mut items = Vec::new();
    loop {
        round(&mut items);
        if started.elapsed().as_secs_f64() >= seconds {
            return items;
        }
    }
}

/// One timed request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index of the case it reproduced.
    pub case: usize,
    /// Position of the request in its round; the same request has the
    /// same slot in every round.
    pub slot: usize,
    /// Wall time from the first call to the report.
    pub latency: Duration,
    /// `Err` with the reason when the request errored, did not
    /// reproduce, or failed the correctness check.
    pub verdict: Result<(), String>,
}

impl Sample {
    /// A sample.
    pub fn new(case: usize, slot: usize, latency: Duration, verdict: Result<(), String>) -> Sample {
        Sample {
            case,
            slot,
            latency,
            verdict,
        }
    }
}

/// Everything one run reports.
#[derive(Debug)]
pub struct RunOutput {
    /// The input seeds the run's dumps were made from.
    pub input_seeds: Vec<u64>,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Recorded spans (traced runs only).
    pub spans: Vec<Span>,
    /// Per-case label, latencies (ms) and failures, for the per-bug rows.
    cases: Vec<(String, Vec<f64>, u64)>,
    /// Reference tries and combinations per case.
    reference: Vec<(u64, u64)>,
    /// Distinct failures: (case label, reason) → count.
    failures: BTreeMap<(String, String), u64>,
    /// How the rounds behind the end-to-end metrics went.
    rounds: Vec<String>,
}

impl RunOutput {
    /// An empty output for `prep`'s cases, made from `input_seeds`, with
    /// the set-up layer metrics.
    pub fn new(prep: &Prepared, input_seeds: Vec<u64>) -> RunOutput {
        let mut metrics = BTreeMap::new();
        metrics.insert("lang.compile_ms", prep.compile_ms);
        metrics.insert("stress.ms", prep.stress_ms);
        metrics.insert("stress.seeds_tried", prep.seeds_tried);
        RunOutput {
            input_seeds,
            attempted: 0,
            failed: 0,
            metrics,
            spans: Vec::new(),
            cases: prep
                .cases
                .iter()
                .map(|c| (c.label.clone(), Vec::new(), 0))
                .collect(),
            reference: prep
                .cases
                .iter()
                .map(|c| {
                    (
                        c.reference.search.tries,
                        c.reference.search.combinations_tested,
                    )
                })
                .collect(),
            failures: BTreeMap::new(),
            rounds: Vec::new(),
        }
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(catalog::lookup(name).is_some(), "{name} is in the catalog");
        self.metrics.insert(name, value);
    }

    /// Counts `samples` into the request totals and per-case rows.
    pub fn absorb(&mut self, samples: &[Sample]) {
        for s in samples {
            self.attempted += 1;
            let row = &mut self.cases[s.case];
            row.1.push(ms(s.latency));
            if let Err(reason) = &s.verdict {
                self.failed += 1;
                row.2 += 1;
                *self
                    .failures
                    .entry((row.0.clone(), reason.clone()))
                    .or_default() += 1;
            }
        }
    }

    /// Counts an untraced run's rounds into the request totals and sets
    /// the end-to-end metrics. Each slot's latency is its best over the
    /// rounds: every round repeats the same deterministic requests, so
    /// a slower repetition of one is the host's doing, not the
    /// program's (see the README). The latency quantiles are taken over
    /// the slots, and the rate is that of one closed-loop client whose
    /// every request takes its best time. Peak heap memory is the median
    /// of the rounds' peaks.
    pub fn end_to_end(&mut self, rounds: &[Round<Sample>], prep: &Prepared) {
        let mut per_slot: Vec<Vec<f64>> = Vec::new();
        for r in rounds {
            self.absorb(&r.items);
            for s in &r.items {
                if per_slot.len() <= s.slot {
                    per_slot.resize_with(s.slot + 1, Vec::new);
                }
                per_slot[s.slot].push(ms(s.latency));
            }
        }
        let best: Vec<f64> = per_slot.iter().map(|l| quantile(l, 0.0)).collect();
        let peaks: Vec<f64> = rounds.iter().map(|r| r.peak_heap_mb).collect();
        let walls: Vec<String> = rounds
            .iter()
            .map(|r| format!("{:.0}", ms(r.wall)))
            .collect();
        self.rounds = vec![
            format!("rounds={} slots={}", rounds.len(), best.len()),
            format!("round_ms: {}", walls.join(" ")),
        ];
        let correct = ratio((self.attempted - self.failed) as f64, self.attempted as f64);
        let best_s: f64 = best.iter().sum::<f64>() / 1e3;
        self.metrics.insert("repro_ms_p50", quantile(&best, 0.5));
        self.metrics.insert("repro_ms_p90", quantile(&best, 0.9));
        self.metrics
            .insert("repros_per_s", correct * ratio(best.len() as f64, best_s));
        self.metrics.insert("correct_frac", correct);
        self.metrics.insert("setup_s", prep.setup.as_secs_f64());
        self.metrics.insert("peak_heap_mb", quantile(&peaks, 0.5));
    }

    /// Sets `trace.overhead_ms`: the traced median latency minus the
    /// untraced one, measured in the same process.
    pub fn trace_overhead(&mut self, plain: &[Sample], traced: &[Sample]) {
        let p50 =
            |s: &[Sample]| quantile(&s.iter().map(|s| ms(s.latency)).collect::<Vec<_>>(), 0.5);
        self.metrics
            .insert("trace.overhead_ms", p50(traced) - p50(plain));
    }

    /// Diagnostic lines: one row per case, every distinct failure, and
    /// the round times of an untraced run.
    pub fn rows(&self) -> Vec<String> {
        let mut out = Vec::new();
        for ((label, lat, failed), (tries, combos)) in self.cases.iter().zip(&self.reference) {
            out.push(format!(
                "bug {label:<18} requests={:<4} p50_ms={:<9.3} min_ms={:<9.3} max_ms={:<9.3} tries={tries} combos={combos} failed={failed}",
                lat.len(),
                quantile(lat, 0.5),
                quantile(lat, 0.0),
                quantile(lat, 1.0),
            ));
        }
        for ((label, reason), n) in &self.failures {
            out.push(format!("failure {label}: {reason} (x{n})"));
        }
        out.extend(self.rounds.iter().cloned());
        out
    }
}
