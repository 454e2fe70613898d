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
//! * **fleet run** — the same jobs through [`mcr_batch::Fleet`] with one
//!   shared executor and store,
//! * **equivalence** — every fleet report must match its serial
//!   counterpart (the determinism contract of the phase layer),
//! * **cache accounting** — phase units computed vs rehydrated vs
//!   single-flighted, plus the store's own counters *sliced by phase
//!   kind* ([`StoreStats::per_phase`]),
//! * **churn simulation** — the warm artifacts replayed through a
//!   capacity-bounded LRU to record which phase kinds evict first (the
//!   cache-sizing signal; see [`BatchReport::churn`]).
//!
//! `tables -- batch-json` serializes a [`BatchReport`] to
//! `BENCH_batch.json` so successive PRs leave a measurable trajectory
//! alongside `BENCH_search.json`.

use crate::stamp::Stamp;
use mcr_batch::{AdmissionPolicy, Fleet, FleetConfig, FleetJob, TriageService};
use mcr_core::{
    find_failure_par, measured_frame_size, ArtifactStore, MemoryStore, PhaseStats, ReproOptions,
    ReproReport, Reproducer, SegStore, StoreStats, PHASES,
};
use mcr_workloads::{all_bugs, fleet_mix, FleetSpec};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    /// Streaming-artifacts measurement: peak resident bytes of the
    /// materialized vs. segmented churn replay, segment-level access
    /// counters, and the adaptive-admission shed count (see
    /// [`StreamingReport`]).
    pub streaming: StreamingReport,
    /// Byte capacity of the churn probe (see [`BatchReport::churn`]).
    pub churn_capacity: usize,
    /// Cache-churn simulation: the fleet's warm artifacts replayed, in
    /// deterministic key order, through an LRU [`MemoryStore`] bounded
    /// just below the measured warm footprint (see
    /// [`churn_probe_capacity`]). The per-phase eviction rows show
    /// *which* phase kinds fall out first under memory pressure — the
    /// capacity-planning signal an unbounded hit rate cannot show.
    pub churn: [PhaseStats; 5],
}

/// Everything observable about a report except wall-clock timings.
fn reports_equal(a: &ReproReport, b: &ReproReport) -> bool {
    a.index == b.index
        && a.alignment == b.alignment
        && a.failure_dump_bytes == b.failure_dump_bytes
        && a.aligned_dump_bytes == b.aligned_dump_bytes
        && a.vars == b.vars
        && a.diffs == b.diffs
        && a.shared == b.shared
        && a.csv_paths == b.csv_paths
        && a.csv_locs == b.csv_locs
        && a.deterministic_repro == b.deterministic_repro
        && a.search.reproduced == b.search.reproduced
        && a.search.tries == b.search.tries
        && a.search.combinations_tested == b.search.combinations_tested
        && a.search.winning == b.search.winning
        && a.search.cut_off == b.search.cut_off
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

    // Fleet run: shared executor + shared store (typed handle kept so
    // the churn probe can replay the warm entries afterwards).
    let mem_store = Arc::new(MemoryStore::unbounded());
    let config = FleetConfig {
        workers,
        store: Arc::clone(&mem_store) as Arc<dyn ArtifactStore>,
        ..Default::default()
    };
    let store = Arc::clone(&config.store);
    let mut fleet = Fleet::new(config);
    for job in &prepared {
        fleet.push(
            FleetJob::new(
                job.spec.name.clone(),
                &programs[job.program_idx],
                job.dump.clone(),
                &job.input,
            )
            .with_priority(job.spec.priority),
        );
    }
    let t0 = Instant::now();
    let outcome = fleet.run();
    let fleet_wall = t0.elapsed();

    let mut identical = outcome.summary.failed == 0;
    let mut reproduced = 0usize;
    for (job_outcome, serial) in outcome.jobs.iter().zip(&serial_reports) {
        match &job_outcome.result {
            Ok(report) => {
                if !reports_equal(report, serial) {
                    identical = false;
                }
                if report.search.reproduced {
                    reproduced += 1;
                }
            }
            Err(_) => identical = false,
        }
    }

    // Churn probe: replay the warm cache through an LRU bounded just
    // below the measured footprint and record which phase kinds get
    // evicted. One put pass in key order (deterministic, streamed
    // borrowed — no materialized clone), then one full get scan over
    // the same keys — the misses show what the pressure pushed out.
    let entry_sizes: Vec<usize> = mem_store.entry_sizes().iter().map(|(_, n)| *n).collect();
    let churn_capacity = churn_probe_capacity(&entry_sizes);
    let probe = MemoryStore::with_capacity(churn_capacity);
    mem_store.for_each_entry(|key, bytes| probe.put(key, bytes));
    mem_store.for_each_entry(|key, _| {
        let _ = probe.get(key);
    });
    let churn = probe.stats().per_phase;

    // Snapshot the fleet-run counters before the streaming legs replay
    // (and the adaptive fleet rehydrates) against the same warm store.
    let store_stats = store.stats();

    let fleet_reports: Vec<Option<&ReproReport>> = outcome
        .jobs
        .iter()
        .map(|j| j.result.as_ref().ok())
        .collect();
    let streaming = streaming_report(
        &mem_store,
        &store,
        &prepared,
        &programs,
        &fleet_reports,
        workers,
    );

    let s = outcome.summary;
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
        store: store_stats,
        streaming,
        churn_capacity,
        churn,
    }
}

/// Results of the streaming-artifacts measurement: the fleet's warm
/// store replayed through a *half-footprint* churn workload via both
/// artifact paths, plus a segment-rehydration scan and a small
/// adaptive-admission fleet.
///
/// * **materialized leg** — the historical path: `entries()` clones
///   every warm artifact up front, then replays them through a
///   capacity-bounded LRU. Peak residency ≈ full clone + probe.
/// * **segmented leg** — the streaming path: the same artifacts
///   rehydrated one at a time, by byte range, from a [`SegStore`]
///   container snapshot. Peak residency ≈ probe + one entry.
///
/// `peak_reduction` (materialized / segmented) is the acceptance
/// metric: `tables -- batch-json` refuses to write a report below
/// 1.5×.
#[derive(Debug, Clone, Copy)]
pub struct StreamingReport {
    /// Total warm artifact bytes replayed.
    pub footprint_bytes: usize,
    /// Probe LRU capacity: half the footprint (floored at the largest
    /// single entry so every artifact stays admissible).
    pub capacity_bytes: usize,
    /// Peak resident bytes of the materialized replay (clone +
    /// probe).
    pub peak_materialized_bytes: usize,
    /// Peak resident bytes of the segmented replay (probe + one
    /// rehydrated entry).
    pub peak_segmented_bytes: usize,
    /// `peak_materialized_bytes / peak_segmented_bytes` — gated ≥ 1.5.
    pub peak_reduction: f64,
    /// Physical size of the [`SegStore`] container the segmented leg
    /// read from.
    pub container_bytes: usize,
    /// Frame size the container was built with — derived from the warm
    /// store's measured per-phase residency histogram
    /// ([`mcr_core::measured_frame_size`]), not a fixed constant.
    pub frame_bytes: usize,
    /// Segments touched rehydrating entries (with repetition).
    pub segment_touches: u64,
    /// Touches that verified a segment checksum for the first time.
    pub segment_verified: u64,
    /// Fraction of touches that found the segment already verified
    /// (see [`mcr_core::SegAccessStats::hit_rate`]).
    pub segment_hit_rate: f64,
    /// Jobs the adaptive-admission fleet shed to the cold store.
    pub shed_jobs: u64,
    /// Whether every adaptive-fleet report matched its plain-fleet
    /// counterpart (shedding must never change results).
    pub identical_results: bool,
}

/// Runs the streaming measurement against the fleet's warm store (see
/// [`StreamingReport`]). `fleet_reports` are the plain fleet's reports
/// in `prepared` order — the baseline the adaptive fleet must match.
fn streaming_report(
    warm: &MemoryStore,
    warm_dyn: &Arc<dyn ArtifactStore>,
    prepared: &[PreparedJob],
    programs: &[mcr_lang::Program],
    fleet_reports: &[Option<&ReproReport>],
    workers: usize,
) -> StreamingReport {
    let sizes = warm.entry_sizes();
    let footprint: usize = sizes.iter().map(|(_, n)| n).sum();
    let largest = sizes.iter().map(|(_, n)| *n).max().unwrap_or(0);
    let capacity = (footprint / 2).max(largest).max(1);

    // Materialized leg: the full clone is held for the whole replay.
    let entries = warm.entries();
    let probe = MemoryStore::with_capacity(capacity);
    let mut peak_materialized = footprint;
    for (key, bytes) in &entries {
        probe.put(key, bytes);
        peak_materialized = peak_materialized.max(footprint + probe.stats().bytes);
    }
    drop(entries);

    // Segmented leg: rehydrate each entry by byte range from the
    // container; only the probe and one in-flight entry are resident.
    // The container is framed at the size the warm store's own
    // per-phase residency histogram measured, not a fixed constant.
    let frame_bytes = measured_frame_size(&warm.stats());
    let seg = SegStore::from_bytes(SegStore::snapshot(warm, frame_bytes))
        .expect("snapshot of a live store parses");
    let probe = MemoryStore::with_capacity(capacity);
    let mut peak_segmented = 0usize;
    for (key, _) in &sizes {
        let bytes = seg.get(key).expect("snapshot holds every warm entry");
        probe.put(key, &bytes);
        peak_segmented = peak_segmented.max(probe.stats().bytes + bytes.len());
    }
    // A second full scan: every segment is verified now, so re-reads
    // are pure hits — the steady-state access profile.
    for (key, _) in &sizes {
        let _ = seg.get(key);
    }
    let access = seg.access_stats();

    // Adaptive-admission leg: the same job mix against a hot store far
    // too small for its artifacts, with the warm store as the cold
    // shard. Once the first job's churn trips the telemetry, admission
    // sheds the rest cold — where they rehydrate bit-identically.
    let service = TriageService::new(FleetConfig {
        workers,
        store: Arc::new(MemoryStore::with_capacity(64)),
        cold_store: Some(Arc::clone(warm_dyn)),
        admission: AdmissionPolicy::Adaptive {
            max_pending: 2,
            churn_permille: 250,
        },
        ..Default::default()
    });
    let mut identical = true;
    for (job, baseline) in prepared.iter().zip(fleet_reports) {
        let outcome = service
            .submit(
                FleetJob::new(
                    job.spec.name.clone(),
                    &programs[job.program_idx],
                    job.dump.clone(),
                    &job.input,
                )
                .with_priority(job.spec.priority),
            )
            .unwrap_or_else(|e| panic!("adaptive admission blocks, never rejects: {e}"))
            .wait();
        match (&outcome.result, baseline) {
            (Ok(report), Some(base)) => {
                if !reports_equal(report, base) {
                    identical = false;
                }
            }
            _ => identical = false,
        }
    }
    let summary = service.shutdown();

    StreamingReport {
        footprint_bytes: footprint,
        capacity_bytes: capacity,
        peak_materialized_bytes: peak_materialized,
        peak_segmented_bytes: peak_segmented,
        peak_reduction: if peak_segmented > 0 {
            peak_materialized as f64 / peak_segmented as f64
        } else {
            0.0
        },
        container_bytes: seg.container_len(),
        frame_bytes,
        segment_touches: access.touches,
        segment_verified: access.verified,
        segment_hit_rate: access.hit_rate(),
        shed_jobs: summary.shed,
        identical_results: identical,
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
        let _ = writeln!(s, "  \"store\": {{");
        let _ = writeln!(s, "    \"entries\": {},", self.store.entries);
        let _ = writeln!(s, "    \"bytes\": {},", self.store.bytes);
        let _ = writeln!(s, "    \"hits\": {},", self.store.hits);
        let _ = writeln!(s, "    \"misses\": {},", self.store.misses);
        let _ = writeln!(s, "    \"evictions\": {},", self.store.evictions);
        let _ = writeln!(s, "    \"per_phase\": {{");
        write_phase_rows(&mut s, "      ", &self.store.per_phase);
        let _ = writeln!(s, "    }}");
        let _ = writeln!(s, "  }},");
        let st = &self.streaming;
        let _ = writeln!(s, "  \"streaming\": {{");
        let _ = writeln!(s, "    \"footprint_bytes\": {},", st.footprint_bytes);
        let _ = writeln!(s, "    \"capacity_bytes\": {},", st.capacity_bytes);
        let _ = writeln!(
            s,
            "    \"peak_materialized_bytes\": {},",
            st.peak_materialized_bytes
        );
        let _ = writeln!(
            s,
            "    \"peak_segmented_bytes\": {},",
            st.peak_segmented_bytes
        );
        let _ = writeln!(s, "    \"peak_reduction\": {:.2},", st.peak_reduction);
        let _ = writeln!(s, "    \"container_bytes\": {},", st.container_bytes);
        let _ = writeln!(s, "    \"frame_bytes\": {},", st.frame_bytes);
        let _ = writeln!(s, "    \"segment_touches\": {},", st.segment_touches);
        let _ = writeln!(s, "    \"segment_verified\": {},", st.segment_verified);
        let _ = writeln!(s, "    \"segment_hit_rate\": {:.3},", st.segment_hit_rate);
        let _ = writeln!(s, "    \"shed_jobs\": {},", st.shed_jobs);
        let _ = writeln!(s, "    \"identical_results\": {}", st.identical_results);
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"churn\": {{");
        let _ = writeln!(s, "    \"probe_capacity_bytes\": {},", self.churn_capacity);
        let _ = writeln!(s, "    \"per_phase\": {{");
        write_phase_rows(&mut s, "      ", &self.churn);
        let _ = writeln!(s, "    }}");
        let _ = writeln!(s, "  }}");
        let _ = write!(s, "}}");
        s
    }
}

/// The churn probe's byte capacity, derived from the measured warm
/// footprint rather than a hard-coded fraction: the footprint minus the
/// single largest entry, floored at that largest entry. This guarantees
/// real pressure (the working set cannot all fit) while keeping every
/// individual artifact admissible — a hard-coded "half the footprint"
/// either under- or over-pressures as the artifact mix shifts between
/// PRs, producing all-evicted or no-evicted probes with no signal.
pub fn churn_probe_capacity(entry_sizes: &[usize]) -> usize {
    let footprint: usize = entry_sizes.iter().sum();
    let largest = entry_sizes.iter().copied().max().unwrap_or(0);
    footprint.saturating_sub(largest).max(largest).max(1)
}

/// Writes the five phase rows of a [`PhaseStats`] histogram as JSON
/// object members.
fn write_phase_rows(s: &mut String, indent: &str, rows: &[PhaseStats; 5]) {
    for (i, phase) in PHASES.iter().enumerate() {
        let row = &rows[phase.index()];
        let comma = if i + 1 < PHASES.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "{indent}\"{phase}\": {{\"hits\": {}, \"misses\": {}, \"inserts\": {}, \
             \"evictions\": {}, \"entries\": {}, \"bytes\": {}}}{comma}",
            row.hits, row.misses, row.inserts, row.evictions, row.entries, row.bytes
        );
    }
}

/// Keys every `BENCH_batch.json` must carry; `tables -- batch-json`
/// refuses to write a report that drops one.
pub const BATCH_JSON_REQUIRED: &[&str] = &[
    "\"probe_capacity_bytes\"",
    "\"cache_hit_rate\"",
    "\"speedup_vs_serial\"",
    "\"identical_results\"",
    "\"streaming\"",
    "\"peak_materialized_bytes\"",
    "\"peak_segmented_bytes\"",
    "\"peak_reduction\"",
    "\"frame_bytes\"",
    "\"segment_hit_rate\"",
    "\"shed_jobs\"",
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
            streaming: StreamingReport {
                footprint_bytes: 123_456,
                capacity_bytes: 61_728,
                peak_materialized_bytes: 185_184,
                peak_segmented_bytes: 65_824,
                peak_reduction: 185_184.0 / 65_824.0,
                container_bytes: 124_000,
                frame_bytes: 1715,
                segment_touches: 96,
                segment_verified: 31,
                segment_hit_rate: (96.0 - 31.0) / 96.0,
                shed_jobs: 8,
                identical_results: true,
            },
            churn_capacity: 61_728,
            churn: [PhaseStats::default(); 5],
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
            "\"speedup_vs_serial\"",
            "\"store\"",
            "\"per_phase\"",
            "\"index\": {\"hits\": 0",
            "\"search\": {\"hits\": 0",
            "\"churn\"",
            "\"probe_capacity_bytes\": 61728",
            "\"streaming\"",
            "\"peak_materialized_bytes\": 185184",
            "\"peak_segmented_bytes\": 65824",
            "\"peak_reduction\": 2.81",
            "\"frame_bytes\": 1715",
            "\"segment_hit_rate\": 0.677",
            "\"shed_jobs\": 8",
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

    #[test]
    fn churn_capacity_tracks_the_measured_footprint() {
        // Uniform mix: capacity is the footprint minus one entry —
        // guaranteed pressure, every entry still admissible.
        assert_eq!(churn_probe_capacity(&[100, 100, 100, 100]), 300);
        // Skewed mix: one dominant artifact must still fit.
        assert_eq!(churn_probe_capacity(&[1000, 10, 10]), 1000);
        // Degenerate inputs stay sane.
        assert_eq!(churn_probe_capacity(&[]), 1);
        assert_eq!(churn_probe_capacity(&[7]), 7);
    }
}
