//! Long-running triage-service walkthrough: incremental job admission
//! with back-pressure against one shared artifact store.
//!
//! Where `examples/fleet_triage.rs` submits a *closed* job list, this
//! example models the production shape the `TriageService` exists for:
//! crash reports arrive one at a time (a seeded `fleet_stream` arrival
//! order over a duplicate-heavy `fleet_mix` corpus), the service admits
//! them *while earlier waves are executing*, a `Reject` admission policy
//! pushes back once too many jobs are pending, and every session shares
//! one unbounded `MemoryStore`.
//!
//! The walkthrough then submits the whole corpus to a second service
//! over the *same* store: every job finishes with one lookup, its search
//! entry, and every report comes back bit-identical.
//!
//! ```text
//! cargo run --release --example triage_service
//! ```

use mcr_batch::{AdmissionPolicy, AdmitError, FleetConfig, FleetJob, JobTicket, TriageService};
use mcr_core::{find_failure, ArtifactStore, MemoryStore, PHASES};
use mcr_workloads::{all_bugs, fleet_stream, FleetSpec};
use std::collections::HashMap;
use std::sync::Arc;

/// Stress-seed cap, mirroring the repository's smoke/full tiers.
fn stress_seed_cap() -> u64 {
    match std::env::var("MCR_TEST_TIER") {
        Ok(v) if v.eq_ignore_ascii_case("full") => 2_000_000,
        _ => 200_000,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The arrival stream: a duplicate-heavy mix over a three-bug subset
    // (2 identical reports + 1 distinct-input variant per bug), in a
    // seeded shuffled arrival order.
    let bugs: Vec<_> = all_bugs()
        .into_iter()
        .filter(|b| matches!(b.name, "mysql-3" | "apache-2" | "mysql-1"))
        .collect();
    let arrivals: Vec<FleetSpec> = fleet_stream(&bugs, 2, 11).collect();
    println!("arrival stream: {} jobs (duplicate-heavy)", arrivals.len());

    // Compile each program once and stress each *distinct* work unit
    // once — duplicates share the dump, exactly how a triage queue
    // receives repeated crashes of one bug.
    let mut programs: Vec<mcr_lang::Program> = Vec::new();
    let mut program_of: HashMap<String, usize> = HashMap::new();
    let mut dump_of: HashMap<(String, usize, u64), mcr_dump::CoreDump> = HashMap::new();
    for spec in &arrivals {
        let idx = *program_of
            .entry(spec.bug.name.to_string())
            .or_insert_with(|| {
                programs.push(spec.bug.compile());
                programs.len() - 1
            });
        dump_of.entry(spec.dedup_key()).or_insert_with(|| {
            find_failure(
                &programs[idx],
                &spec.input(),
                0..stress_seed_cap(),
                spec.bug.max_steps,
            )
            .unwrap_or_else(|| panic!("{}: stress found no failure", spec.name))
            .dump
        });
    }
    let distinct = dump_of.len();

    // One artifact store shared by both passes.
    let store: Arc<dyn ArtifactStore> = Arc::new(MemoryStore::unbounded());
    let service = TriageService::new(FleetConfig {
        store: Arc::clone(&store),
        admission: AdmissionPolicy::Reject { max_pending: 4 },
        ..FleetConfig::default()
    });

    // Stream the corpus in: submit, and when the service pushes back,
    // drive a wave and retry — admission interleaves with execution.
    let mut tickets = Vec::new();
    let mut saturated = 0usize;
    for spec in &arrivals {
        let mut job = FleetJob::new(
            spec.name.clone(),
            &programs[program_of[spec.bug.name]],
            dump_of[&spec.dedup_key()].clone(),
            &spec.input(),
        )
        .with_priority(spec.priority);
        let ticket = loop {
            match service.submit(job) {
                Ok(ticket) => break ticket,
                Err(refused) => match refused.reason {
                    AdmitError::Saturated { pending, .. } => {
                        // Back-pressure: help drain, then retry with
                        // the job the service handed back — no
                        // rebuild, no dump re-clone.
                        saturated += 1;
                        print!("  [back-pressure at {pending} pending] ");
                        service.poll();
                        job = refused.job;
                    }
                    AdmitError::ShutDown => return Err(refused.reason.into()),
                },
            }
        };
        println!(
            "submitted {:<16} (pending {}, executor in use {}/{})",
            ticket.name(),
            service.pending(),
            service.limit().in_use(),
            service.limit().capacity(),
        );
        tickets.push(ticket);
    }

    // Graceful teardown: close admission, drain everything, summarize.
    let summary = service.shutdown();
    println!();
    // Drained: every wait returns immediately.
    let outcomes: Vec<_> = tickets.into_iter().map(JobTicket::wait).collect();
    for outcome in &outcomes {
        match &outcome.result {
            Ok(report) => println!(
                "  {:<16} reproduced={} tries={:<4} computed={} cached={} deduped={}",
                outcome.name,
                report.search.reproduced,
                report.search.tries,
                outcome.computed,
                outcome.cache_hits,
                outcome.deduped,
            ),
            Err(e) => println!("  {:<16} FAILED: {e}", outcome.name),
        }
    }
    println!(
        "\nservice summary: {} jobs in {:?} over {} workers ({} waves, {} back-pressure events)",
        summary.jobs, summary.wall, summary.workers, summary.waves, saturated
    );
    println!(
        "  phase units: {} = {} computed + {} cache hits ({} single-flighted)",
        summary.phase_units, summary.computed, summary.cache_hits, summary.deduped_in_flight
    );
    println!(
        "  store: {} artifacts, {} bytes, hit rate {:.0}%",
        summary.store.entries,
        summary.store.bytes,
        summary.store.hit_rate() * 100.0
    );
    println!("  per-phase histogram (hits/entries/bytes):");
    for phase in PHASES {
        let row = summary.store.phase(phase);
        println!(
            "    {:<7} {:>3} hits  {:>2} entries  {:>6} bytes",
            phase.name(),
            row.hits,
            row.entries,
            row.bytes
        );
    }

    // The walkthrough doubles as a check CI runs.
    assert_eq!(summary.completed, arrivals.len());
    assert_eq!(summary.failed, 0);
    assert_eq!(
        summary.computed as usize,
        distinct * PHASES.len(),
        "each distinct pipeline computes exactly once, service-wide"
    );
    let duplicates: Vec<_> = outcomes.iter().filter(|o| o.computed == 0).collect();
    assert_eq!(
        duplicates.len(),
        arrivals.len() - distinct,
        "every duplicate job computes nothing"
    );
    assert!(
        duplicates
            .iter()
            .all(|o| o.cache_hits == 1 || o.cache_hits as usize == PHASES.len()),
        "a duplicate opened after its original finished is one search hit; \
         one opened while the original ran rehydrates phase by phase"
    );

    // Warm pass: a second service over the same store, every job
    // submitted up front — each finishes when it opens, with one lookup
    // and no wave, and reports are bit-identical rehydrations.
    let warm_service = TriageService::new(FleetConfig {
        store: Arc::clone(&store),
        ..FleetConfig::default()
    });
    let warm_tickets: Vec<_> = arrivals
        .iter()
        .map(|spec| {
            let job = FleetJob::new(
                spec.name.clone(),
                &programs[program_of[spec.bug.name]],
                dump_of[&spec.dedup_key()].clone(),
                &spec.input(),
            )
            .with_priority(spec.priority);
            warm_service.submit(job).expect("unbounded admission")
        })
        .collect();
    let warm = warm_service.shutdown();
    assert_eq!(warm.completed, arrivals.len());
    assert_eq!(warm.computed, 0, "warm pass computes nothing");
    assert_eq!(warm.cache_hits as usize, arrivals.len(), "one hit per job");
    assert_eq!(warm.waves, 0, "no warm job joins a wave");
    for (ticket, cold) in warm_tickets.into_iter().zip(&outcomes) {
        let warm_outcome = ticket.wait();
        assert_eq!(
            warm_outcome.result.as_ref().ok(),
            cold.result.as_ref().ok(),
            "{}: warm report must be bit-identical",
            cold.name
        );
    }
    println!(
        "\nwarm pass over the same store: {} jobs, {} computed, {} cache hits",
        warm.jobs, warm.computed, warm.cache_hits
    );
    println!("incremental admission, back-pressure, and shared caching OK");
    Ok(())
}
