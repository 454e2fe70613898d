//! The batch-engine acceptance bar: for every bug in the suite, a cold
//! run, a warm (cache-hit) run, and a batched fleet run produce
//! identical `ReproReport`s; duplicate-heavy fleets show phase cache
//! hits and single-flight dedup.

use mcr_batch::{Fleet, FleetConfig, FleetJob};
use mcr_core::{
    ArtifactStore, BytesStore, MemoryStore, PhaseEvent, PhaseKey, ReproReport, ReproSession,
    Reproducer, ShardedStore, StoreStats, PHASES,
};
use mcr_search::Algorithm;
use mcr_slice::Strategy;
use mcr_testsupport::{
    assert_reports_equivalent as assert_reports_equal, repro_options as options, stress_bug,
};
use mcr_workloads::all_bugs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bit-identity including timings (valid when `b` was rehydrated from
/// artifacts `a`'s run stored — cached artifacts embed the original
/// durations, so full `ReproReport` equality holds).
fn assert_reports_identical(a: &ReproReport, b: &ReproReport, context: &str) {
    assert_eq!(a, b, "{context}: bit-identity");
}

/// The acceptance bar, per bug: (1) a fleet of three duplicate jobs
/// computes one pipeline and dedupes the rest, (2) a warm session over
/// the fleet's store rehydrates everything without running a phase,
/// (3) cold, warm, and every fleet report agree.
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
        let mut fleet = Fleet::new(config);
        for i in 0..3 {
            fleet.push(
                FleetJob::new(
                    format!("{}#{i}", bug.name),
                    &program,
                    sf.dump.clone(),
                    &input,
                )
                .with_options(opts.clone())
                .with_priority(i),
            );
        }
        let outcome = fleet.run();
        assert_eq!(outcome.summary.completed, 3, "{}", bug.name);
        assert_eq!(
            outcome.summary.computed, 5,
            "{}: one pipeline computes, duplicates rehydrate",
            bug.name
        );
        assert_eq!(outcome.summary.cache_hits, 10, "{}", bug.name);
        assert_eq!(outcome.summary.deduped_in_flight, 10, "{}", bug.name);
        assert!(outcome.summary.store.hits >= 10, "{}", bug.name);
        let fleet_reports: Vec<&ReproReport> = outcome
            .jobs
            .iter()
            .map(|j| j.result.as_ref().expect("completed"))
            .collect();
        for (i, report) in fleet_reports.iter().enumerate() {
            assert_reports_equal(report, &cold, &format!("{} fleet[{i}] vs cold", bug.name));
        }
        // Duplicates are bit-identical to each other (rehydrated bytes).
        assert_reports_identical(
            fleet_reports[1],
            fleet_reports[2],
            &format!("{} duplicates", bug.name),
        );

        // Warm: a fresh session over the fleet's store — every phase is
        // a cache hit, and the report is bit-identical to the fleet's.
        let mut warm_session =
            ReproSession::new(&program, sf.dump.clone(), &input, opts.clone()).unwrap();
        warm_session.set_store(Arc::clone(&store));
        let log = Arc::new(std::sync::Mutex::new(mcr_core::TimingLog::new()));
        warm_session.set_observer(Box::new(Arc::clone(&log)));
        let warm = warm_session
            .run_to_end()
            .unwrap_or_else(|e| panic!("{}: warm run failed: {e}", bug.name));
        assert_eq!(
            log.lock().unwrap().cache_hits(),
            PHASES,
            "{}: warm run must not compute anything",
            bug.name
        );
        assert_reports_equal(&warm, &cold, &format!("{} warm vs cold", bug.name));
        assert_reports_identical(
            &warm,
            fleet_reports[0],
            &format!("{} warm vs fleet", bug.name),
        );
    }
}

/// The sharded-store acceptance bar, per bug: a 4-shard store serves a
/// warm run entirely from cache, with a report bit-identical to the
/// single-`MemoryStore` warm run (equivalence, not wall time — CI has
/// one CPU). The sharded copy is populated by migrating the single
/// store's entries through the consistent-hash router, pinning that
/// partitioning never changes what a key returns.
#[test]
fn sharded_store_warm_runs_match_the_single_store_for_every_bug() {
    for bug in all_bugs() {
        let (program, sf) = stress_bug(&bug);
        let input = bug.default_input();
        let opts = options(Algorithm::ChessX, Strategy::Temporal);

        // Cold run populates a single unbounded MemoryStore.
        let single = Arc::new(MemoryStore::unbounded());
        let mut cold = ReproSession::new(&program, sf.dump.clone(), &input, opts.clone()).unwrap();
        cold.set_store(Arc::clone(&single) as Arc<dyn ArtifactStore>);
        cold.run_to_end()
            .unwrap_or_else(|e| panic!("{}: cold run failed: {e}", bug.name));

        // Migrate the warm entries into a 4-shard composite (the
        // re-partitioning path a scaling deployment takes) — streamed
        // entry by entry via `for_each_entry`, so the migration never
        // clones the whole store.
        let sharded = Arc::new(ShardedStore::with_memory_shards(4));
        single.for_each_entry(|key, bytes| sharded.put(key, bytes));
        assert_eq!(
            sharded.stats().entries,
            PHASES.len(),
            "{}: one artifact per phase",
            bug.name
        );

        // Warm run against the single store…
        let mut warm_single =
            ReproSession::new(&program, sf.dump.clone(), &input, opts.clone()).unwrap();
        warm_single.set_store(Arc::clone(&single) as Arc<dyn ArtifactStore>);
        let log_single = Arc::new(std::sync::Mutex::new(mcr_core::TimingLog::new()));
        warm_single.set_observer(Box::new(Arc::clone(&log_single)));
        let report_single = warm_single.run_to_end().unwrap();
        assert_eq!(
            log_single.lock().unwrap().cache_hits(),
            PHASES,
            "{}: single-store warm run must be all hits",
            bug.name
        );

        // …and against the sharded store: all hits, bit-identical.
        let mut warm_sharded =
            ReproSession::new(&program, sf.dump.clone(), &input, opts.clone()).unwrap();
        warm_sharded.set_store(Arc::clone(&sharded) as Arc<dyn ArtifactStore>);
        let log_sharded = Arc::new(std::sync::Mutex::new(mcr_core::TimingLog::new()));
        warm_sharded.set_observer(Box::new(Arc::clone(&log_sharded)));
        let report_sharded = warm_sharded.run_to_end().unwrap();
        assert_eq!(
            log_sharded.lock().unwrap().cache_hits(),
            PHASES,
            "{}: sharded warm run must be all hits",
            bug.name
        );
        assert_reports_identical(
            &report_single,
            &report_sharded,
            &format!("{} sharded vs single warm", bug.name),
        );
        // Each key routed to exactly one shard; the shards together
        // served the five phase lookups.
        let shard_hits: u64 = sharded.shards().iter().map(|s| s.stats().hits).sum();
        assert_eq!(shard_hits, PHASES.len() as u64, "{}", bug.name);
    }
}

/// A warm cache survives a process hop: exporting the fleet's artifacts
/// through the `BytesStore` wire snapshot and importing them elsewhere
/// still serves every phase from cache.
#[test]
fn persisted_store_snapshot_keeps_serving_hits() {
    let bug = mcr_workloads::bug_by_name("mysql-3").unwrap();
    let (program, sf) = stress_bug(&bug);
    let input = bug.default_input();
    let opts = options(Algorithm::ChessX, Strategy::Temporal);

    // Populate a persistable store with one full run.
    let bytes_store = Arc::new(BytesStore::new());
    let mut session = ReproSession::new(&program, sf.dump.clone(), &input, opts.clone()).unwrap();
    session.set_store(bytes_store.clone());
    let original = session.run_to_end().unwrap();

    // Snapshot → bytes → fresh store, as a second triage worker would.
    let snapshot = bytes_store.to_bytes();
    let restored: Arc<dyn ArtifactStore> = Arc::new(BytesStore::from_bytes(&snapshot).unwrap());
    let mut warm = ReproSession::new(&program, sf.dump, &input, opts).unwrap();
    warm.set_store(restored);
    let log = Arc::new(std::sync::Mutex::new(mcr_core::TimingLog::new()));
    warm.set_observer(Box::new(Arc::clone(&log)));
    let rehydrated = warm.run_to_end().unwrap();
    assert_eq!(log.lock().unwrap().cache_hits(), PHASES);
    assert_reports_identical(&original, &rehydrated, "snapshot hop");
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

    let config = FleetConfig::default();
    let mut fleet = Fleet::new(config);
    for (i, (bug, sf)) in prepared.iter().enumerate() {
        fleet.push(
            FleetJob::new(
                bug.name,
                &programs[i],
                sf.dump.clone(),
                &bug.default_input(),
            )
            .with_options(opts.clone()),
        );
    }
    let outcome = fleet.run();
    assert_eq!(outcome.summary.completed, 2);
    // Nothing shared between distinct bugs: no dedup, no cache hits.
    assert_eq!(outcome.summary.deduped_in_flight, 0);
    assert_eq!(outcome.summary.cache_hits, 0);
    assert_eq!(outcome.summary.computed, 10);
    for (i, (bug, _)) in prepared.iter().enumerate() {
        let job = outcome.job(bug.name).expect("job present");
        assert_reports_equal(
            job.result.as_ref().unwrap(),
            &solos[i],
            &format!("{} fleet vs solo", bug.name),
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
        after.hits,
        before.hits + cold_inserts,
        "second run was all hits"
    );
    assert_reports_identical(&first, &second, "reproducer warm");
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

/// The store traffic of one job is exactly its five phases: a cold
/// session inserts one artifact per phase, and a fresh session on the
/// same job makes one lookup per phase and writes nothing.
#[test]
fn one_job_costs_five_store_entries_cold_and_five_lookups_warm() {
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
    assert_eq!(calls(&store), (5, 0), "warm: one get per phase, no puts");
    assert_eq!(store.stats().hits, PHASES.len() as u64);
    assert_reports_identical(&cold_report, &warm_report, "warm vs cold");
}
