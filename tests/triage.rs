//! The triage-service acceptance bar: a long-running `TriageService`
//! fed jobs *incrementally* — including submissions while earlier waves
//! are executing — produces outcomes equal to the closed-list
//! `Fleet::run` baseline for every bug in the suite; admission edge
//! cases (saturation, shutdown, cancellation of queued tickets) are
//! typed and lossless; and a proptest interleaves submit/poll/wait
//! arbitrarily without ever changing a report.

use mcr_batch::{
    AdmissionPolicy, AdmitError, Fleet, FleetConfig, FleetJob, JobOutcome, TriageService,
};
use mcr_core::{find_failure, ArtifactStore, MemoryStore, ReproError, ReproReport, PHASES};
use mcr_search::Algorithm;
use mcr_slice::Strategy;
use mcr_testsupport::{
    assert_reports_equivalent as assert_reports_equal, fig1_failure, repro_options, Phase, FIG1,
    FIG1_INPUT,
};
use mcr_vm::SplitMix64;
use mcr_workloads::all_bugs;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// One bug's prepared inputs: compiled program + stressed failure dump.
struct Fixture {
    name: &'static str,
    program: mcr_lang::Program,
    dump: mcr_dump::CoreDump,
    input: Vec<i64>,
}

/// The whole Table 2 suite, compiled and stressed once per process.
fn fixtures() -> &'static [Fixture] {
    static FIXTURES: OnceLock<Vec<Fixture>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        all_bugs()
            .iter()
            .map(|bug| {
                let (program, sf) = mcr_testsupport::stress_bug(bug);
                Fixture {
                    name: bug.name,
                    program,
                    dump: sf.dump,
                    input: bug.default_input(),
                }
            })
            .collect()
    })
}

fn options() -> mcr_core::ReproOptions {
    repro_options(Algorithm::ChessX, Strategy::Temporal)
}

/// The closed-list baseline: one `Fleet::run` over every fixture, plus
/// the (now warm) store it populated. Computed once per process.
fn baseline() -> &'static (Vec<ReproReport>, Arc<dyn ArtifactStore>) {
    static BASELINE: OnceLock<(Vec<ReproReport>, Arc<dyn ArtifactStore>)> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let store: Arc<dyn ArtifactStore> = Arc::new(MemoryStore::unbounded());
        let mut fleet = Fleet::new(FleetConfig {
            store: Arc::clone(&store),
            ..FleetConfig::default()
        });
        for f in fixtures() {
            fleet.push(
                FleetJob::new(f.name, &f.program, f.dump.clone(), &f.input).with_options(options()),
            );
        }
        let outcome = fleet.run();
        let reports = outcome
            .jobs
            .into_iter()
            .map(|j| {
                j.result
                    .unwrap_or_else(|e| panic!("baseline job failed: {e}"))
            })
            .collect();
        (reports, store)
    })
}

/// The acceptance bar: jobs trickle into a service one at a time, with
/// a scheduling wave driven between admissions (so later submissions
/// genuinely land mid-run), on an *independent* store — every outcome
/// must equal the closed-list `Fleet::run` baseline.
#[test]
fn incremental_service_matches_the_closed_list_fleet_for_every_bug() {
    let (base_reports, _) = baseline();
    let service = TriageService::new(FleetConfig::default());
    let mut tickets = Vec::new();
    for f in fixtures() {
        tickets.push(
            service
                .submit(
                    FleetJob::new(f.name, &f.program, f.dump.clone(), &f.input)
                        .with_options(options()),
                )
                .expect("unbounded admission"),
        );
        // Drive one wave before the next submission: earlier jobs are
        // mid-pipeline when later jobs are admitted.
        service.poll();
    }
    service.drain();
    let summary = service.shutdown();
    assert_eq!(summary.completed, fixtures().len());
    assert_eq!(summary.failed, 0);
    for (ticket, (f, base)) in tickets.into_iter().zip(fixtures().iter().zip(base_reports)) {
        let outcome = ticket.wait();
        assert_eq!(outcome.name, f.name);
        let report = outcome
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("{}: service job failed: {e}", f.name));
        assert_reports_equal(report, base, &format!("{} incremental vs closed", f.name));
        // Distinct bugs on a fresh store: the service computed this
        // job's pipeline itself.
        assert_eq!(outcome.computed, 5, "{}", f.name);
        assert_eq!(outcome.cache_hits, 0, "{}", f.name);
    }
}

/// Submissions racing a draining thread: the service is `Sync`, and a
/// job admitted from another thread mid-drain completes with the same
/// report as the baseline.
#[test]
fn concurrent_submission_during_drain_is_admitted_and_correct() {
    let (base_reports, warm) = baseline();
    let service = TriageService::new(FleetConfig {
        store: Arc::clone(warm),
        ..FleetConfig::default()
    });
    let fx = fixtures();
    let (first, rest) = fx.split_first().expect("suite is non-empty");
    let first_ticket = service
        .submit(
            FleetJob::new(first.name, &first.program, first.dump.clone(), &first.input)
                .with_options(options()),
        )
        .unwrap();
    let (first_outcome, rest_outcomes) = std::thread::scope(|s| {
        let service = &service;
        let submitter = s.spawn(move || {
            rest.iter()
                .map(|f| {
                    service
                        .submit(
                            FleetJob::new(f.name, &f.program, f.dump.clone(), &f.input)
                                .with_options(options()),
                        )
                        .expect("unbounded admission")
                        .wait()
                })
                .collect::<Vec<JobOutcome>>()
        });
        let first_outcome = first_ticket.wait();
        service.drain();
        (first_outcome, submitter.join().expect("submitter panicked"))
    });
    let all: Vec<&JobOutcome> = std::iter::once(&first_outcome)
        .chain(&rest_outcomes)
        .collect();
    for (outcome, base) in all.iter().zip(base_reports) {
        let report = outcome
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("{}: concurrent job failed: {e}", outcome.name));
        assert_reports_equal(
            report,
            base,
            &format!("{} concurrent vs closed", outcome.name),
        );
    }
    assert_eq!(service.summary().failed, 0);
}

/// Admission edge cases: saturation is typed and recoverable, shutdown
/// closes admission with a typed error, and draining an empty service
/// returns immediately.
#[test]
fn admission_saturation_shutdown_and_empty_drain() {
    let (program, sf) = fig1_failure();
    let (_, warm) = baseline();

    // Reject policy: the bound is jobs-pending, tied to the worker
    // budget via `admission_per_worker`.
    let config = FleetConfig {
        workers: 1,
        store: Arc::clone(warm),
        ..FleetConfig::default()
    }
    .admission_per_worker(1);
    assert_eq!(config.admission, AdmissionPolicy::Reject { max_pending: 1 });
    let service = TriageService::new(config);
    // Empty drain: returns immediately, nothing counted.
    service.drain();
    assert_eq!(service.summary().jobs, 0);

    let ticket = service
        .submit(FleetJob::new(
            "first",
            &program,
            sf.dump.clone(),
            &FIG1_INPUT,
        ))
        .unwrap();
    let refused = service
        .submit(FleetJob::new(
            "second",
            &program,
            sf.dump.clone(),
            &FIG1_INPUT,
        ))
        .expect_err("bound is full");
    assert_eq!(
        refused.reason,
        AdmitError::Saturated {
            pending: 1,
            max_pending: 1,
        }
    );
    assert_eq!(refused.job.name, "second", "refused job handed back");
    assert!(ticket.wait().result.is_ok());

    // Shutdown: admission closes with a typed error; idempotent.
    let summary = service.shutdown();
    assert_eq!(summary.jobs, 1);
    assert!(service.is_closed());
    assert_eq!(
        service
            .submit(FleetJob::new(
                "late",
                &program,
                sf.dump.clone(),
                &FIG1_INPUT
            ))
            .expect_err("admission is closed")
            .reason,
        AdmitError::ShutDown
    );
    let again = service.shutdown();
    assert_eq!(again.jobs, 1);
}

/// The telemetry→admission loop end to end: a service whose hot store
/// churns sheds every later job to the warm cold shard, and each shed
/// job's report is bit-identical — timings included — to the
/// closed-list baseline that populated that shard. Shedding changes
/// cache placement, never results.
#[test]
fn adaptive_shed_jobs_rehydrate_bit_identically_from_the_cold_shard() {
    let (base_reports, warm) = baseline();
    let fx = fixtures();
    // A hot store far too small for one job's artifacts: every insert
    // evicts, so the churn telemetry trips after the first job.
    let hot: Arc<dyn ArtifactStore> = Arc::new(MemoryStore::with_capacity(64));
    let service = TriageService::new(FleetConfig {
        store: Arc::clone(&hot),
        cold_store: Some(Arc::clone(warm)),
        admission: AdmissionPolicy::Adaptive {
            max_pending: fx.len().max(1),
            churn_permille: 250,
        },
        ..FleetConfig::default()
    });

    // Cold start: no telemetry yet, so the first job computes against
    // the hot store — and churns it.
    let first = service
        .submit(
            FleetJob::new(fx[0].name, &fx[0].program, fx[0].dump.clone(), &fx[0].input)
                .with_options(options()),
        )
        .expect("within the adaptive bound")
        .wait();
    assert_reports_equal(
        first.result.as_ref().expect("first job completed"),
        &base_reports[0],
        &format!("{} hot vs closed", fx[0].name),
    );
    assert!(hot.stats().evictions > 0, "hot store must churn");

    // The loop closes: every later admission sheds to the cold shard
    // and rehydrates its entire pipeline from the baseline's artifacts.
    for (i, f) in fx.iter().enumerate().skip(1) {
        let outcome = service
            .submit(
                FleetJob::new(f.name, &f.program, f.dump.clone(), &f.input).with_options(options()),
            )
            .expect("within the adaptive bound")
            .wait();
        let report = outcome
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("{}: shed job failed: {e}", f.name));
        assert_eq!(
            report, &base_reports[i],
            "{}: shed run must be bit-identical to the baseline",
            f.name
        );
        assert_eq!(outcome.cache_hits, 5, "{}: all phases warm", f.name);
        assert_eq!(outcome.computed, 0, "{}: nothing recomputed", f.name);
    }
    let summary = service.shutdown();
    assert_eq!(
        summary.shed as usize,
        fx.len() - 1,
        "every job after the churny first one shed"
    );
}

/// Cancellation mid-run: a queued-but-unstarted ticket is marked
/// `Cancelled` (not lost), and the live job is interrupted — every
/// ticket resolves.
#[test]
fn cancellation_mid_wave_marks_queued_tickets_cancelled() {
    let (program, sf) = fig1_failure();
    let service = TriageService::new(FleetConfig::default());
    let live = service
        .submit(FleetJob::new(
            "live",
            &program,
            sf.dump.clone(),
            &FIG1_INPUT,
        ))
        .unwrap();
    // One wave: the first job opens and runs its index phase.
    service.poll();
    assert!(!live.is_ready());
    // A second job lands in the admission queue and never starts…
    let queued = service
        .submit(FleetJob::new(
            "queued",
            &program,
            sf.dump.clone(),
            &FIG1_INPUT,
        ))
        .unwrap();
    // …because the fleet-wide token fires before the next wave.
    service.cancel_token().cancel();
    service.drain();
    let queued_outcome = queued.wait();
    assert!(
        matches!(
            queued_outcome.result,
            Err(ReproError::Cancelled(Phase::Index))
        ),
        "queued ticket must resolve as cancelled, got {:?}",
        queued_outcome.result
    );
    assert!(queued_outcome.events.is_empty(), "never started a phase");
    let live_outcome = live.wait();
    assert!(
        matches!(live_outcome.result, Err(ReproError::Cancelled(_))),
        "live job interrupted, got {:?}",
        live_outcome.result
    );
    let summary = service.summary();
    assert_eq!(summary.failed, 2);
    assert_eq!(summary.completed, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Interleaving property: any sequence of submit / poll / wait over
    /// the bug suite — submission order shuffled, waits issued against
    /// arbitrary pending tickets mid-stream — yields outcomes equal to
    /// the serial closed-list `Fleet::run` baseline. Runs against the
    /// baseline's warm store, so the scheduler paths (admission queue,
    /// wave formation, helping waiters) are exercised without
    /// recomputing pipelines every case.
    #[test]
    fn interleaved_submit_and_wait_match_the_baseline(seed in proptest::num::u64::ANY) {
        let (base_reports, warm) = baseline();
        let fx = fixtures();
        let mut rng = SplitMix64::new(seed);
        let service = TriageService::new(FleetConfig {
            store: Arc::clone(warm),
            ..FleetConfig::default()
        });

        // Shuffled submission order.
        let mut order: Vec<usize> = (0..fx.len()).collect();
        for i in (1..order.len()).rev() {
            let j = rng.next_range(0, i as i64) as usize;
            order.swap(i, j);
        }

        let mut pending: Vec<(usize, mcr_batch::JobTicket<'_, '_>)> = Vec::new();
        let mut outcomes: Vec<(usize, JobOutcome)> = Vec::new();
        for &i in &order {
            let f = &fx[i];
            let ticket = service
                .submit(
                    FleetJob::new(f.name, &f.program, f.dump.clone(), &f.input)
                        .with_options(options()),
                )
                .expect("unbounded admission");
            pending.push((i, ticket));
            // Interleave: sometimes drive a wave, sometimes block on an
            // arbitrary pending ticket, sometimes just keep submitting.
            match rng.next_range(0, 2) {
                0 => {
                    service.poll();
                }
                1 => {
                    let k = rng.next_range(0, pending.len() as i64 - 1) as usize;
                    let (idx, ticket) = pending.swap_remove(k);
                    outcomes.push((idx, ticket.wait()));
                }
                _ => {}
            }
        }
        service.drain();
        for (idx, ticket) in pending {
            outcomes.push((idx, ticket.wait()));
        }
        prop_assert_eq!(outcomes.len(), fx.len());
        for (idx, outcome) in &outcomes {
            let report = outcome
                .result
                .as_ref()
                .unwrap_or_else(|e| panic!("{}: job failed: {e}", fx[*idx].name));
            assert_reports_equal(
                report,
                &base_reports[*idx],
                &format!("{} interleaved (seed {seed})", fx[*idx].name),
            );
        }
    }
}

/// Near-duplicate jobs share one pipeline's artifacts (only the job
/// that computes builds VMs, so the program compiles once), while a
/// program with one mutated function is a different program: every one
/// of its five phases misses the store and inserts its own artifact.
#[test]
fn fleet_compiles_each_distinct_program_once() {
    let (program, sf) = fig1_failure();
    // Prepare the mutant up front (it must outlive the service): one
    // function body changed, same observable race.
    let mutated_src = FIG1.replace("fn T2() { x = 0; }", "fn T2() { x = 0; x = 0; }");
    let mutated = mcr_lang::compile(&mutated_src).expect("mutated source compiles");
    let msf = find_failure(
        &mutated,
        &FIG1_INPUT,
        0..mcr_testsupport::stress_seed_cap(),
        mcr_testsupport::FIXTURE_MAX_STEPS,
    )
    .expect("mutated race still fires under stress");

    let store: Arc<dyn ArtifactStore> = Arc::new(MemoryStore::unbounded());
    let service = TriageService::new(FleetConfig {
        store: Arc::clone(&store),
        ..FleetConfig::default()
    });
    let tickets: Vec<_> = (0..3)
        .map(|i| {
            service
                .submit(FleetJob::new(
                    format!("dup#{i}"),
                    &program,
                    sf.dump.clone(),
                    &FIG1_INPUT,
                ))
                .expect("unbounded admission")
        })
        .collect();
    service.drain();
    for ticket in tickets {
        assert!(ticket.wait().result.is_ok());
    }
    let before = store.stats();
    assert_eq!(before.inserts, 5, "duplicates add no entries");

    let mutant_ticket = service
        .submit(FleetJob::new("mutant", &mutated, msf.dump, &FIG1_INPUT))
        .expect("unbounded admission");
    service.drain();
    assert!(mutant_ticket.wait().result.is_ok());
    let after = store.stats();
    for phase in PHASES {
        let (b, a) = (before.phase(phase), after.phase(phase));
        assert_eq!(a.misses, b.misses + 1, "mutant {phase} misses");
        assert_eq!(a.inserts, b.inserts + 1, "mutant {phase} inserts");
    }
}
