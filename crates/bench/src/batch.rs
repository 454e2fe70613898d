//! Batch-engine measurements and the `BENCH_batch.json` writer.
//!
//! The fleet scheduler's value proposition is *work elimination*, not
//! raw parallel speedup (which `BENCH_search.json` already tracks): a
//! duplicate-heavy job mix should cost one pipeline per *distinct* job,
//! fleet-wide, with every duplicate served from the content-addressed
//! artifact store. This module measures exactly that over a
//! [`mcr_workloads::fleet_mix`] corpus:
//!
//! * **serial baseline** — every job reproduced independently through
//!   [`Reproducer`] with no store (what a naive service would do),
//! * **fleet run** — the same jobs submitted to one
//!   [`mcr_batch::TriageService`] with a shared executor and store,
//! * **equivalence** — every fleet report must match its serial
//!   counterpart (the determinism contract of the phase layer),
//! * **cache accounting** — phase units computed vs rehydrated vs
//!   single-flighted, plus the store's own counters *sliced by phase
//!   kind* ([`StoreStats::per_phase`]),
//! * **warm jobs** — each distinct job submitted again, [`WARM_REPS`]
//!   times, to a service over the fleet's now-warm store: the store
//!   lookups one warm job makes, and per distinct job the median wall
//!   time of one warm submission (submit and wait) and the median cost
//!   of its key, a fresh session's [`ReproSession::basis`].
//!
//! `tables -- batch-json` serializes a [`BatchReport`] to
//! `BENCH_batch.json` so successive PRs leave a measurable trajectory
//! alongside `BENCH_search.json`.

use crate::stamp::Stamp;
use mcr_batch::{FleetConfig, FleetJob, JobTicket, TriageService};
use mcr_core::{
    find_failure_par, ArtifactStore, MemoryStore, PhaseStats, ProgramRef, ReproOptions,
    ReproReport, ReproSession, Reproducer, StoreStats, PHASES,
};
use mcr_workloads::{all_bugs, fleet_mix, FleetSpec};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Warm submissions, and session bases, timed per distinct job.
pub const WARM_REPS: usize = 200;

/// Stress-seed cap, mirroring the `MCR_TEST_TIER` tiers of
/// `mcr-testsupport` (smoke by default so the CI bench step stays fast;
/// `MCR_TEST_TIER=full` restores paper scale).
fn stress_seed_cap() -> u64 {
    match std::env::var("MCR_TEST_TIER") {
        Ok(v) if v.eq_ignore_ascii_case("full") => 2_000_000,
        _ => 200_000,
    }
}

/// The corpus the batch bench runs: a duplicate-heavy mix over a
/// three-bug subset (smoke-sized; the fleet's caching behavior is
/// identical on the full suite, which `tests/batch.rs` covers).
pub fn bench_corpus() -> Vec<FleetSpec> {
    let bugs = all_bugs();
    let subset: Vec<_> = bugs
        .into_iter()
        .filter(|b| matches!(b.name, "mysql-3" | "apache-2" | "mysql-1"))
        .collect();
    fleet_mix(&subset, 2, 11)
}

/// One job's identity and results across the two legs.
struct PreparedJob {
    spec: FleetSpec,
    program_idx: usize,
    dump: mcr_dump::CoreDump,
    input: Vec<i64>,
}

/// The full batch report serialized to `BENCH_batch.json`.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Revision, host and repetition count the report was measured with.
    pub stamp: Stamp,
    /// Jobs in the corpus.
    pub jobs: usize,
    /// Distinct work units among them (dedup keys).
    pub distinct_jobs: usize,
    /// Worker budget the fleet ran with.
    pub workers: usize,
    /// Wall time of the independent serial baseline.
    pub serial_wall: Duration,
    /// Wall time of the fleet run.
    pub fleet_wall: Duration,
    /// Fleet throughput, jobs per second.
    pub jobs_per_sec: f64,
    /// Phase units scheduled by the fleet.
    pub phase_units: u64,
    /// Phase units actually computed.
    pub computed: u64,
    /// Phase units rehydrated from the shared store.
    pub cache_hits: u64,
    /// Phase units deduplicated while in flight.
    pub deduped_in_flight: u64,
    /// `cache_hits / phase_units` (the acceptance metric: > 0 on any
    /// duplicate-carrying mix).
    pub cache_hit_rate: f64,
    /// Whether every fleet report matched its serial counterpart.
    pub identical_results: bool,
    /// Jobs whose failure was reproduced (same in both legs when
    /// `identical_results`).
    pub reproduced: usize,
    /// Store counters at the end of the fleet run (the per-phase
    /// histograms live in [`StoreStats::per_phase`]).
    pub store: StoreStats,
    /// Distinct jobs submitted again over the warm store.
    pub warm: WarmJobs,
}

/// What a warm job costs: every distinct job submitted [`WARM_REPS`]
/// times to a service whose store already holds its artifacts.
#[derive(Debug, Clone)]
pub struct WarmJobs {
    /// Store lookups (hits and misses) per warm submission.
    pub lookups_per_job: f64,
    /// One row per distinct job, in corpus order.
    pub median: Vec<WarmJob>,
}

/// What one distinct job costs warm, as medians of [`WARM_REPS`] runs.
#[derive(Debug, Clone)]
pub struct WarmJob {
    /// The job's name.
    pub job: String,
    /// One warm submission, from submit to outcome.
    pub submit: Duration,
    /// [`ReproSession::basis`] of a fresh session opened as the service
    /// opens one, on a program whose fingerprint is already memoized:
    /// what a warm job's key costs.
    pub basis: Duration,
}

/// Runs the batch measurement: stress each distinct job once, reproduce
/// every job serially (no store), then run the whole corpus as one
/// fleet and compare.
pub fn batch_report() -> BatchReport {
    let corpus = bench_corpus();
    let workers = minipool::available_parallelism().max(2);

    // Compile each program once; stress each distinct work unit once
    // (duplicates share the dump — exactly how a triage queue receives
    // repeated crashes of the same bug).
    let mut programs: Vec<mcr_lang::Program> = Vec::new();
    let mut program_of: HashMap<String, usize> = HashMap::new();
    let mut dump_of: HashMap<(String, usize, u64), mcr_dump::CoreDump> = HashMap::new();
    let mut prepared: Vec<PreparedJob> = Vec::new();
    for spec in corpus {
        let program_idx = *program_of
            .entry(spec.bug.name.to_string())
            .or_insert_with(|| {
                programs.push(spec.bug.compile());
                programs.len() - 1
            });
        let input = spec.input();
        let dump = dump_of
            .entry(spec.dedup_key())
            .or_insert_with(|| {
                find_failure_par(
                    &programs[program_idx],
                    &input,
                    0..stress_seed_cap(),
                    spec.bug.max_steps,
                    minipool::available_parallelism(),
                )
                .unwrap_or_else(|| panic!("{}: stress found no failure", spec.name))
                .dump
            })
            .clone();
        prepared.push(PreparedJob {
            spec,
            program_idx,
            dump,
            input,
        });
    }
    let jobs = prepared.len();
    let distinct_jobs = dump_of.len();

    // Serial baseline: every job independently, no store.
    let t0 = Instant::now();
    let serial_reports: Vec<ReproReport> = prepared
        .iter()
        .map(|job| {
            Reproducer::new(&programs[job.program_idx], ReproOptions::default())
                .reproduce(&job.dump, &job.input)
                .unwrap_or_else(|e| panic!("{}: pipeline failed: {e}", job.spec.name))
        })
        .collect();
    let serial_wall = t0.elapsed();

    // Fleet run: every job submitted to one service with a shared
    // executor and store, then drained by `shutdown`.
    let t0 = Instant::now();
    let store: Arc<dyn ArtifactStore> = Arc::new(MemoryStore::unbounded());
    let config = FleetConfig {
        workers,
        store: Arc::clone(&store),
        ..Default::default()
    };
    let service = TriageService::new(config.clone());
    let tickets: Vec<_> = prepared
        .iter()
        .map(|job| {
            let job = FleetJob::new(
                job.spec.name.clone(),
                &programs[job.program_idx],
                job.dump.clone(),
                &job.input,
            )
            .with_priority(job.spec.priority);
            service.submit(job).expect("unbounded admission")
        })
        .collect();
    let s = service.shutdown();
    let fleet_wall = t0.elapsed();
    let outcomes: Vec<_> = tickets.into_iter().map(JobTicket::wait).collect();

    let mut identical = s.failed == 0;
    let mut reproduced = 0usize;
    for (job_outcome, serial) in outcomes.iter().zip(&serial_reports) {
        match &job_outcome.result {
            Ok(report) => {
                if report != serial {
                    identical = false;
                }
                if report.search.reproduced {
                    reproduced += 1;
                }
            }
            Err(_) => identical = false,
        }
    }

    // Warm jobs: each distinct job again, over the warm store.
    let warm_service = TriageService::new(config);
    let before = store.stats();
    let mut seen = HashSet::new();
    let mut median = Vec::new();
    for (job, serial) in prepared.iter().zip(&serial_reports) {
        if !seen.insert(job.spec.dedup_key()) {
            continue;
        }
        let mut times: Vec<Duration> = (0..WARM_REPS)
            .map(|_| {
                let fleet_job = FleetJob::new(
                    job.spec.name.clone(),
                    &programs[job.program_idx],
                    job.dump.clone(),
                    &job.input,
                );
                let t = Instant::now();
                let ticket = warm_service.submit(fleet_job).expect("unbounded admission");
                let outcome = ticket.wait();
                let elapsed = t.elapsed();
                identical &= outcome.result.as_ref().ok() == Some(serial);
                elapsed
            })
            .collect();
        let program = ProgramRef::new(&programs[job.program_idx]);
        let mut bases: Vec<Duration> = (0..WARM_REPS)
            .map(|_| {
                let session = ReproSession::for_program(
                    &program,
                    job.dump.clone(),
                    &job.input,
                    ReproOptions::default(),
                )
                .expect("a failure dump");
                let t = Instant::now();
                black_box(session.basis());
                t.elapsed()
            })
            .collect();
        times.sort_unstable();
        bases.sort_unstable();
        median.push(WarmJob {
            job: job.spec.name.clone(),
            submit: times[times.len() / 2],
            basis: bases[bases.len() / 2],
        });
    }
    let after = store.stats();
    let lookups = (after.hits + after.misses) - (before.hits + before.misses);
    let warm = WarmJobs {
        lookups_per_job: lookups as f64 / (median.len() * WARM_REPS) as f64,
        median,
    };

    BatchReport {
        // One fleet run and one serial baseline per report.
        stamp: Stamp::of_this_host(1),
        jobs,
        distinct_jobs,
        workers,
        serial_wall,
        fleet_wall,
        jobs_per_sec: if fleet_wall.as_secs_f64() > 0.0 {
            jobs as f64 / fleet_wall.as_secs_f64()
        } else {
            0.0
        },
        phase_units: s.phase_units,
        computed: s.computed,
        cache_hits: s.cache_hits,
        deduped_in_flight: s.deduped_in_flight,
        cache_hit_rate: if s.phase_units > 0 {
            s.cache_hits as f64 / s.phase_units as f64
        } else {
            0.0
        },
        identical_results: identical,
        reproduced,
        store: s.store,
        warm,
    }
}

impl BatchReport {
    /// Serializes the report as pretty-printed JSON (hand-rolled: the
    /// environment has no serde).
    pub fn to_json(&self) -> String {
        let speedup = if self.fleet_wall.as_secs_f64() > 0.0 {
            self.serial_wall.as_secs_f64() / self.fleet_wall.as_secs_f64()
        } else {
            0.0
        };
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"schema\": \"mcr-bench/batch/v1\",");
        let _ = writeln!(s, "  \"stamp\": {},", self.stamp.to_json());
        let _ = writeln!(s, "  \"jobs\": {},", self.jobs);
        let _ = writeln!(s, "  \"distinct_jobs\": {},", self.distinct_jobs);
        let _ = writeln!(s, "  \"workers\": {},", self.workers);
        let _ = writeln!(s, "  \"reproduced\": {},", self.reproduced);
        let _ = writeln!(
            s,
            "  \"serial_wall_ms\": {:.3},",
            self.serial_wall.as_secs_f64() * 1e3
        );
        let _ = writeln!(
            s,
            "  \"fleet_wall_ms\": {:.3},",
            self.fleet_wall.as_secs_f64() * 1e3
        );
        let _ = writeln!(s, "  \"speedup_vs_serial\": {speedup:.2},");
        let _ = writeln!(s, "  \"jobs_per_sec\": {:.2},", self.jobs_per_sec);
        let _ = writeln!(s, "  \"phase_units\": {},", self.phase_units);
        let _ = writeln!(s, "  \"computed\": {},", self.computed);
        let _ = writeln!(s, "  \"cache_hits\": {},", self.cache_hits);
        let _ = writeln!(s, "  \"deduped_in_flight\": {},", self.deduped_in_flight);
        let _ = writeln!(s, "  \"cache_hit_rate\": {:.3},", self.cache_hit_rate);
        let _ = writeln!(s, "  \"identical_results\": {},", self.identical_results);
        let _ = writeln!(s, "  \"warm_job\": {{");
        let _ = writeln!(s, "    \"reps\": {WARM_REPS},");
        let _ = writeln!(
            s,
            "    \"lookups_per_job\": {:.3},",
            self.warm.lookups_per_job
        );
        let rows: Vec<String> = self
            .warm
            .median
            .iter()
            .map(|row| {
                let us = row.submit.as_secs_f64() * 1e6;
                let basis_us = row.basis.as_secs_f64() * 1e6;
                format!(
                    "      {{\"job\": \"{}\", \"us\": {us:.1}, \"basis_us\": {basis_us:.2}}}",
                    row.job
                )
            })
            .collect();
        let _ = writeln!(s, "    \"median_us\": [\n{}\n    ]", rows.join(",\n"));
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"store\": {{");
        let _ = writeln!(s, "    \"entries\": {},", self.store.entries);
        let _ = writeln!(s, "    \"bytes\": {},", self.store.bytes);
        let _ = writeln!(s, "    \"hits\": {},", self.store.hits);
        let _ = writeln!(s, "    \"misses\": {},", self.store.misses);
        let _ = writeln!(s, "    \"evictions\": {},", self.store.evictions);
        let _ = writeln!(s, "    \"per_phase\": {{");
        write_phase_rows(&mut s, &self.store.per_phase);
        let _ = writeln!(s, "    }}");
        let _ = writeln!(s, "  }}");
        let _ = write!(s, "}}");
        s
    }
}

/// Writes the five phase rows of a [`PhaseStats`] histogram as JSON
/// object members.
fn write_phase_rows(s: &mut String, rows: &[PhaseStats; 5]) {
    for (i, phase) in PHASES.iter().enumerate() {
        let row = &rows[phase.index()];
        let comma = if i + 1 < PHASES.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "      \"{phase}\": {{\"hits\": {}, \"misses\": {}, \"inserts\": {}, \
             \"evictions\": {}, \"entries\": {}, \"bytes\": {}}}{comma}",
            row.hits, row.misses, row.inserts, row.evictions, row.entries, row.bytes
        );
    }
}

/// Keys every `BENCH_batch.json` must carry; `tables -- batch-json`
/// refuses to write a report that drops one.
pub const BATCH_JSON_REQUIRED: &[&str] = &[
    "\"cache_hit_rate\"",
    "\"speedup_vs_serial\"",
    "\"identical_results\"",
    "\"warm_job\"",
    "\"lookups_per_job\"",
    "\"median_us\"",
    "\"basis_us\"",
    "\"stamp\"",
    "\"rev\"",
    "\"nproc\"",
    "\"reps\"",
];

/// Validates the serialized batch bench report against
/// [`BATCH_JSON_REQUIRED`].
///
/// # Errors
///
/// Returns the first missing key.
pub fn check_batch_json_schema(json: &str) -> Result<(), String> {
    for key in BATCH_JSON_REQUIRED {
        if !json.contains(key) {
            return Err(format!("BENCH_batch.json schema: missing {key}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stamp::json_keys;

    #[test]
    fn corpus_is_duplicate_heavy() {
        let corpus = bench_corpus();
        // 3 bugs x (2 dups + 1 variant).
        assert_eq!(corpus.len(), 9);
        let distinct: std::collections::HashSet<_> = corpus
            .iter()
            .map(mcr_workloads::FleetSpec::dedup_key)
            .collect();
        assert_eq!(distinct.len(), 6);
    }

    /// A report with every section filled, as `tables -- batch-json`
    /// writes one.
    fn sample_report() -> BatchReport {
        BatchReport {
            stamp: Stamp {
                rev: "0123456789ab".to_string(),
                nproc: 4,
                reps: 1,
            },
            jobs: 9,
            distinct_jobs: 6,
            workers: 4,
            serial_wall: Duration::from_millis(900),
            fleet_wall: Duration::from_millis(500),
            jobs_per_sec: 18.0,
            phase_units: 45,
            computed: 30,
            cache_hits: 15,
            deduped_in_flight: 15,
            cache_hit_rate: 15.0 / 45.0,
            identical_results: true,
            reproduced: 9,
            store: StoreStats {
                hits: 15,
                misses: 30,
                inserts: 30,
                evictions: 0,
                entries: 30,
                bytes: 123_456,
                ..StoreStats::default()
            },
            warm: WarmJobs {
                lookups_per_job: 1.0,
                median: vec![
                    WarmJob {
                        job: "mysql-3#dup0".to_string(),
                        submit: Duration::from_micros(14),
                        basis: Duration::from_nanos(1250),
                    },
                    WarmJob {
                        job: "apache-2#dup0".to_string(),
                        submit: Duration::from_micros(12),
                        basis: Duration::from_nanos(1500),
                    },
                ],
            },
        }
    }

    #[test]
    fn report_json_shape() {
        let json = sample_report().to_json();
        for key in [
            "\"schema\": \"mcr-bench/batch/v1\"",
            "\"stamp\": {\"rev\": \"0123456789ab\", \"nproc\": 4, \"reps\": 1}",
            "\"jobs\": 9",
            "\"distinct_jobs\": 6",
            "\"cache_hits\": 15",
            "\"deduped_in_flight\": 15",
            "\"cache_hit_rate\": 0.333",
            "\"identical_results\": true",
            "\"lookups_per_job\": 1.000",
            "{\"job\": \"mysql-3#dup0\", \"us\": 14.0, \"basis_us\": 1.25},",
            "{\"job\": \"apache-2#dup0\", \"us\": 12.0, \"basis_us\": 1.50}\n",
            "\"speedup_vs_serial\"",
            "\"store\"",
            "\"per_phase\"",
            "\"index\": {\"hits\": 0",
            "\"search\": {\"hits\": 0",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        check_batch_json_schema(&json).expect("shape report satisfies its own schema");
    }

    #[test]
    fn checked_in_report_has_the_current_shape() {
        let file = include_str!("../../../BENCH_batch.json");
        check_batch_json_schema(file).expect("BENCH_batch.json passes the schema check");
        assert_eq!(
            json_keys(file),
            json_keys(&sample_report().to_json()),
            "BENCH_batch.json is stale: regenerate it with `tables -- batch-json`"
        );
    }
}
