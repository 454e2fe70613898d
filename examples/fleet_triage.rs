//! Fleet-triage walkthrough for the `mcr-batch` batch engine.
//!
//! A triage queue rarely holds unique work: the same bug crashes over
//! and over, occasionally under a different input. This example builds
//! such a queue — five duplicate crash reports of the paper's Fig. 1
//! race plus one genuinely distinct job — submits all of it to one
//! `TriageService` with a shared executor and a shared
//! content-addressed artifact store, then shuts the service down, which
//! drains every job:
//!
//! * the first Fig. 1 job computes all five pipeline phases;
//! * the four duplicates are *single-flighted* behind it and rehydrate
//!   every phase from the store (zero recomputation);
//! * the distinct job (a different failing input → different phase
//!   keys) computes its own pipeline, proving the cache never confuses
//!   different work.
//!
//! ```text
//! cargo run --release --example fleet_triage
//! ```

use mcr_batch::{FleetConfig, FleetJob, JobTicket, TriageService};
use mcr_core::find_failure;
use mcr_testsupport::{FIG1, FIG1_INPUT};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = mcr_lang::compile(FIG1)?;

    // The duplicate stream: one stress campaign produces the failure
    // dump every duplicate report carries.
    let dup =
        find_failure(&program, &FIG1_INPUT, 0..2_000_000, 1_000_000).expect("stress exposes fig1");
    println!(
        "failure dump obtained (stress seed {}, {} bytes encoded)",
        dup.seed,
        mcr_dump::encode(&dup.dump).len()
    );

    // The distinct job: same program, different failing input — the
    // race arms in iteration 1 instead of 2, so every phase artifact
    // differs and nothing may be served from the duplicates' cache.
    let other_input = [1i64, 0];
    let distinct = find_failure(&program, &other_input, 0..2_000_000, 1_000_000)
        .expect("stress exposes the variant");

    let config = FleetConfig::default();
    let store = std::sync::Arc::clone(&config.store);
    let service = TriageService::new(config);
    let mut tickets = Vec::new();
    for i in 0..5 {
        let job = FleetJob::new(
            format!("fig1-dup{i}"),
            &program,
            dup.dump.clone(),
            &FIG1_INPUT,
        )
        .with_priority(1);
        tickets.push(service.submit(job).expect("unbounded admission"));
    }
    let variant = FleetJob::new(
        "fig1-variant",
        &program,
        distinct.dump.clone(),
        &other_input,
    )
    .with_priority(5);
    tickets.push(service.submit(variant).expect("unbounded admission"));
    println!("fleet: {} jobs queued\n", tickets.len());

    let s = service.shutdown();
    let outcomes: Vec<_> = tickets.into_iter().map(JobTicket::wait).collect();
    for job in &outcomes {
        match &job.result {
            Ok(report) => println!(
                "  {:<14} reproduced={} tries={:<4} computed={} cached={} deduped={}",
                job.name,
                report.search.reproduced,
                report.search.tries,
                job.computed,
                job.cache_hits,
                job.deduped,
            ),
            Err(e) => println!("  {:<14} FAILED: {e}", job.name),
        }
    }
    println!(
        "\nfleet summary: {} jobs in {:?} over {} workers ({} waves)",
        s.jobs, s.wall, s.workers, s.waves
    );
    println!(
        "  phase units: {} scheduled = {} computed + {} cache hits ({} single-flighted)",
        s.phase_units, s.computed, s.cache_hits, s.deduped_in_flight
    );
    println!(
        "  store: {} artifacts, {} bytes, hit rate {:.0}%",
        s.store.entries,
        s.store.bytes,
        s.store.hit_rate() * 100.0
    );

    // The walkthrough doubles as a check CI runs.
    assert_eq!(s.completed, 6);
    assert_eq!(
        s.computed, 10,
        "exactly two distinct pipelines (5 phases each) may compute"
    );
    assert_eq!(s.cache_hits, 20, "4 duplicates x 5 phases rehydrate");
    assert!(s.deduped_in_flight >= 4, "duplicates single-flighted");
    let reports: Vec<_> = outcomes
        .iter()
        .filter_map(|j| j.result.as_ref().ok())
        .collect();
    assert!(reports.iter().all(|r| r.search.reproduced));
    // Duplicates agree bit-for-bit (reports hold results only); the
    // variant genuinely differs.
    for dup_report in &reports[1..5] {
        assert_eq!(&reports[0], dup_report, "duplicates must be bit-identical");
    }
    assert_ne!(store.stats().entries, 5, "variant artifacts are distinct");
    println!("\nduplicates served from cache, variant computed fresh — batch engine OK");
    Ok(())
}
