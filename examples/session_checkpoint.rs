//! Checkpoint/resume walkthrough for the staged `ReproSession` API.
//!
//! Process-style step 1 runs the pipeline through the dump-diff phase and
//! serializes the session to bytes — exactly what a reproduction service
//! would persist before handing the job to another worker. Process-style
//! step 2 starts from nothing but the compiled program and those bytes,
//! resumes the session, and finishes the schedule search. The final
//! report is identical to an uninterrupted `Reproducer::reproduce` run.
//!
//! ```text
//! cargo run --release --example session_checkpoint
//! ```

use mcr_core::{find_failure, PhaseEvent, PhaseObserver, ReproOptions, ReproSession, Reproducer};
use mcr_testsupport::{FIG1, FIG1_INPUT};

/// Prints each phase as it completes — the `PhaseObserver` progress
/// channel a service would wire to its job-status endpoint.
struct Progress;

impl PhaseObserver for Progress {
    fn on_event(&mut self, event: &PhaseEvent) {
        match event {
            PhaseEvent::Started { phase } => println!("    {phase} phase ..."),
            PhaseEvent::Finished { phase, elapsed } => {
                println!("    {phase} phase done in {elapsed:?}");
            }
            PhaseEvent::Stage {
                phase,
                stage,
                elapsed,
            } => println!("      [{phase}] {stage}: {elapsed:?}"),
            PhaseEvent::Interrupted { phase } => println!("    {phase} phase interrupted"),
            PhaseEvent::CacheHit { phase } => {
                println!("    {phase} phase rehydrated from the artifact store");
            }
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = mcr_lang::compile(FIG1)?;
    let stress =
        find_failure(&program, &FIG1_INPUT, 0..2_000_000, 1_000_000).expect("stress exposes");
    println!("failure dump obtained (stress seed {})", stress.seed);

    // ---- Process-style step 1: index + align + diff, then checkpoint.
    let options = ReproOptions {
        parallelism: 1,
        ..Default::default()
    };
    let checkpoint = {
        let mut session =
            ReproSession::new(&program, stress.dump.clone(), &FIG1_INPUT, options.clone())?;
        session.set_observer(Box::new(Progress));
        let (csvs, accesses) = {
            let delta = session.run_diff()?;
            (delta.csv_paths.len(), delta.csv_accesses.len())
        };
        println!(
            "  checkpointing after {:?}: {csvs} CSVs, {accesses} CSV accesses",
            session.completed().unwrap(),
        );
        session.checkpoint()
        // The session (and every in-memory intermediate) drops here; only
        // the bytes survive, as across a real process boundary.
    };
    println!("  checkpoint: {} bytes\n", checkpoint.len());

    // ---- Process-style step 2: resume from bytes, finish the search.
    let mut session = ReproSession::resume(&program, &checkpoint)?;
    session.set_observer(Box::new(Progress));
    println!(
        "resumed session (completed: {:?}, next: {:?})",
        session.completed().unwrap(),
        session.next_phase().unwrap(),
    );
    let resumed_report = session.run_to_end()?;
    println!(
        "  reproduced = {}, tries = {}\n",
        resumed_report.search.reproduced, resumed_report.search.tries
    );

    // ---- The resumed run matches the uninterrupted one exactly.
    let uninterrupted = Reproducer::new(&program, options).reproduce(&stress.dump, &FIG1_INPUT)?;
    assert_eq!(uninterrupted, resumed_report);
    println!("resumed report matches the uninterrupted pipeline run");
    Ok(())
}
