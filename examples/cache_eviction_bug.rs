//! The paper's §6 case study: apache bug 21285 (mod_mem_cache).
//!
//! A cached object is inserted in two separately-locked steps (default
//! size, then real size). Evicted in between, its removal subtracts its
//! size *again*; the unsigned byte count wraps to a huge value and the
//! next insertion's eviction loop underflows the object queue.
//!
//! ```text
//! cargo run --release --example cache_eviction_bug
//! ```

use mcr_core::{find_failure, ReproOptions, Reproducer};
use mcr_search::Algorithm;
use mcr_slice::Strategy;
use mcr_workloads::bug_by_name;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bug = bug_by_name("apache-1").expect("workload registered");
    let program = bug.compile();
    let input = bug.default_input();
    println!(
        "bug {} (modeled on apache bug {}), {} worker threads, input length {}",
        bug.name,
        bug.bug_id,
        bug.threads,
        input.len()
    );

    let stress = find_failure(&program, &input, 0..2_000_000, bug.max_steps)
        .expect("stress exposes the eviction race");
    println!(
        "stress seed {} crashed after {} steps: {}",
        stress.seed,
        stress.steps,
        stress.dump.failure().unwrap()
    );

    // The case study uses the dependence-distance strategy ("In this
    // study, we only inspect the results of using the dependence distance
    // based strategy").
    let reproducer = Reproducer::new(
        &program,
        ReproOptions {
            strategy: Strategy::Dependence,
            algorithm: Algorithm::ChessX,
            ..Default::default()
        },
    );
    let mut session = reproducer.session(&stress.dump, &input)?;
    let report = session.run_to_end()?;
    let timings = session.timings();

    println!(
        "CSVs found ({} of {} shared variables):",
        report.csv_paths.len(),
        report.shared
    );
    for path in &report.csv_paths {
        println!("  {}", path.display(&program));
    }

    assert!(report.search.reproduced, "case study must reproduce");
    let winning = report.search.winning.as_ref().unwrap();
    println!(
        "reproduced after {} tries with {} preemption(s):",
        report.search.tries,
        winning.len()
    );
    for pm in winning {
        println!(
            "  preempt {} (block touches {} CSV accesses)",
            pm.point,
            pm.accesses.len()
        );
    }
    println!(
        "analysis costs: parse {:?}, diff {:?}, slicing {:?}",
        timings.dump_parse, timings.diff, timings.slicing
    );
    Ok(())
}
