//! The batch-engine acceptance bar: for every bug in the suite, a cold
//! run, a warm (cache-hit) run, and a batched fleet run produce
//! identical `ReproReport`s; duplicate-heavy fleets show phase cache
//! hits and single-flight dedup.

use mcr_batch::{FleetConfig, FleetJob, FleetSummary, JobOutcome, JobTicket, TriageService};
use mcr_core::{
    ArtifactStore, MemoryStore, Phase, PhaseEvent, PhaseKey, ReproReport, ReproSession, Reproducer,
    StoreStats, PHASES,
};
use mcr_search::Algorithm;
use mcr_slice::Strategy;
use mcr_testsupport::{repro_options as options, stress_bug};
use mcr_workloads::all_bugs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Submits every job to one service, then shuts it down (which drains
/// it): the outcomes in submission order, plus the final summary.
fn run_all(config: FleetConfig, jobs: Vec<FleetJob<'_>>) -> (Vec<JobOutcome>, FleetSummary) {
    let service = TriageService::new(config);
    let tickets: Vec<_> = jobs
        .into_iter()
        .map(|job| service.submit(job).expect("unbounded admission"))
        .collect();
    let summary = service.shutdown();
    (tickets.into_iter().map(JobTicket::wait).collect(), summary)
}

/// The acceptance bar, per bug: (1) a fleet of three duplicate jobs
/// computes one pipeline and dedupes the rest, (2) a warm session over
/// the fleet's store rehydrates the search artifact alone without
/// running a phase, (3) cold, warm, and every fleet report agree.
#[test]
fn cold_warm_and_fleet_reports_agree_for_every_bug() {
    for bug in all_bugs() {
        let (program, sf) = stress_bug(&bug);
        let input = bug.default_input();
        let opts = options(Algorithm::ChessX, Strategy::Temporal);

        // Cold: the plain blocking pipeline, no store anywhere.
        let cold = Reproducer::new(&program, opts.clone())
            .reproduce(&sf.dump, &input)
            .unwrap_or_else(|e| panic!("{}: cold run failed: {e}", bug.name));

        // Fleet: three duplicate jobs sharing one executor and store.
        let config = FleetConfig::default();
        let store = Arc::clone(&config.store);
        let jobs = (0..3)
            .map(|i| {
                FleetJob::new(
                    format!("{}#{i}", bug.name),
                    &program,
                    sf.dump.clone(),
                    &input,
                )
                .with_options(opts.clone())
                .with_priority(i)
            })
            .collect();
        let (outcomes, summary) = run_all(config, jobs);
        assert_eq!(summary.completed, 3, "{}", bug.name);
        assert_eq!(
            summary.computed, 5,
            "{}: one pipeline computes, duplicates rehydrate",
            bug.name
        );
        assert_eq!(summary.cache_hits, 10, "{}", bug.name);
        assert_eq!(summary.deduped_in_flight, 10, "{}", bug.name);
        assert!(summary.store.hits >= 10, "{}", bug.name);
        let fleet_reports: Vec<&ReproReport> = outcomes
            .iter()
            .map(|j| j.result.as_ref().expect("completed"))
            .collect();
        for (i, report) in fleet_reports.iter().enumerate() {
            assert_eq!(**report, cold, "{} fleet[{i}] vs cold", bug.name);
        }

        // Warm: a fresh session over the fleet's store — its one lookup,
        // the search, hits, and the report is bit-identical to the cold
        // one.
        let mut warm_session =
            ReproSession::new(&program, sf.dump.clone(), &input, opts.clone()).unwrap();
        warm_session.set_store(Arc::clone(&store));
        let log = Arc::new(std::sync::Mutex::new(mcr_core::TimingLog::new()));
        warm_session.set_observer(Box::new(Arc::clone(&log)));
        let warm = warm_session
            .run_to_end()
            .unwrap_or_else(|e| panic!("{}: warm run failed: {e}", bug.name));
        assert_eq!(
            log.lock().unwrap().events,
            [PhaseEvent::CacheHit {
                phase: Phase::Search
            }],
            "{}: warm run must not compute anything",
            bug.name
        );
        assert_eq!(warm, cold, "{} warm vs cold", bug.name);
    }
}

/// Distinct jobs in one fleet never cross-contaminate: different inputs
/// produce different phase keys and independently correct reports.
#[test]
fn fleet_mixing_distinct_bugs_matches_solo_runs() {
    let picks = ["apache-2", "mysql-1"];
    let mut programs = Vec::new();
    let mut prepared = Vec::new();
    for name in picks {
        let bug = mcr_workloads::bug_by_name(name).unwrap();
        let (program, sf) = stress_bug(&bug);
        programs.push(program);
        prepared.push((bug, sf));
    }
    let opts = options(Algorithm::ChessX, Strategy::Temporal);
    let mut solos = Vec::new();
    for (i, (bug, sf)) in prepared.iter().enumerate() {
        solos.push(
            Reproducer::new(&programs[i], opts.clone())
                .reproduce(&sf.dump, &bug.default_input())
                .unwrap(),
        );
    }

    let jobs = prepared
        .iter()
        .enumerate()
        .map(|(i, (bug, sf))| {
            FleetJob::new(
                bug.name,
                &programs[i],
                sf.dump.clone(),
                &bug.default_input(),
            )
            .with_options(opts.clone())
        })
        .collect();
    let (outcomes, summary) = run_all(FleetConfig::default(), jobs);
    assert_eq!(summary.completed, 2);
    // Nothing shared between distinct bugs: no dedup, no cache hits.
    assert_eq!(summary.deduped_in_flight, 0);
    assert_eq!(summary.cache_hits, 0);
    assert_eq!(summary.computed, 10);
    for (i, ((bug, _), job)) in prepared.iter().zip(&outcomes).enumerate() {
        assert_eq!(job.name, bug.name);
        assert_eq!(
            job.result.as_ref().unwrap(),
            &solos[i],
            "{} fleet vs solo",
            bug.name
        );
        // The per-job observer stream saw five executed phases.
        let finished = job
            .events
            .iter()
            .filter(|e| matches!(e, PhaseEvent::Finished { .. }))
            .count();
        assert_eq!(finished, 5, "{}", bug.name);
    }
}

/// `ReproOptions::store` plumbs caching through the one-call
/// `Reproducer` API too — a service does not need the session layer to
/// benefit.
#[test]
fn reproducer_with_store_caches_across_calls() {
    let bug = mcr_workloads::bug_by_name("mysql-5").unwrap();
    let (program, sf) = stress_bug(&bug);
    let input = bug.default_input();
    let store: Arc<dyn ArtifactStore> = Arc::new(MemoryStore::unbounded());
    let mut opts = options(Algorithm::ChessX, Strategy::Temporal);
    opts.store = Some(Arc::clone(&store));
    let reproducer = Reproducer::new(&program, opts);
    let first = reproducer.reproduce(&sf.dump, &input).unwrap();
    let before = store.stats();
    let cold_inserts = PHASES.len() as u64;
    assert_eq!(before.inserts, cold_inserts, "one artifact per phase");
    let second = reproducer.reproduce(&sf.dump, &input).unwrap();
    let after = store.stats();
    assert_eq!(after.inserts, cold_inserts, "second run inserted nothing");
    assert_eq!(
        (after.hits, after.misses),
        (before.hits + 1, before.misses),
        "second run was one hit, the search"
    );
    assert_eq!(first, second, "reproducer warm");
}

/// A store that counts every call before delegating to a
/// [`MemoryStore`] (whose own counters only see new entries).
#[derive(Debug, Default)]
struct CountingStore {
    inner: MemoryStore,
    gets: AtomicU64,
    puts: AtomicU64,
}

impl ArtifactStore for CountingStore {
    fn get(&self, key: &PhaseKey) -> Option<Vec<u8>> {
        self.gets.fetch_add(1, Ordering::Relaxed);
        self.inner.get(key)
    }

    fn put(&self, key: &PhaseKey, bytes: &[u8]) {
        self.puts.fetch_add(1, Ordering::Relaxed);
        self.inner.put(key, bytes);
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}

/// The store traffic of one job: a cold session probes each phase once
/// and inserts one artifact per phase, and a fresh session on the same
/// job makes one lookup, the search, and writes nothing.
#[test]
fn one_job_costs_five_store_entries_cold_and_one_lookup_warm() {
    let (program, sf) = mcr_testsupport::fig1_failure();
    let input = mcr_testsupport::FIG1_INPUT;
    let opts = options(Algorithm::ChessX, Strategy::Temporal);
    let store = Arc::new(CountingStore::default());
    let calls = |s: &CountingStore| {
        (
            s.gets.swap(0, Ordering::Relaxed),
            s.puts.swap(0, Ordering::Relaxed),
        )
    };

    let mut cold = ReproSession::new(&program, sf.dump.clone(), &input, opts.clone()).unwrap();
    cold.set_store(Arc::clone(&store) as Arc<dyn ArtifactStore>);
    let cold_report = cold.run_to_end().unwrap();
    assert_eq!(store.stats().inserts, PHASES.len() as u64);
    assert_eq!(
        calls(&store),
        (5, 5),
        "cold: one miss and one put per phase"
    );

    let mut warm = ReproSession::new(&program, sf.dump, &input, opts).unwrap();
    warm.set_store(Arc::clone(&store) as Arc<dyn ArtifactStore>);
    let warm_report = warm.run_to_end().unwrap();
    assert_eq!(calls(&store), (1, 0), "warm: one get, no puts");
    assert_eq!(store.stats().hits, 1);
    assert_eq!(cold_report, warm_report, "warm vs cold");
}
