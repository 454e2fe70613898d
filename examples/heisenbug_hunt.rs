//! Run the whole bug suite through all three search algorithms — a
//! miniature of the paper's Table 4 — and print the scoreboard.
//!
//! ```text
//! cargo run --release --example heisenbug_hunt
//! ```

use mcr_core::{find_failure, ReproOptions, Reproducer};
use mcr_search::{Algorithm, SearchConfig};
use mcr_slice::Strategy;
use mcr_workloads::all_bugs;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{:<10} {:>18} {:>18} {:>18}",
        "bug", "chess", "chessX+dep", "chessX+temporal"
    );
    for bug in all_bugs() {
        let program = bug.compile();
        let input = bug.default_input();
        let stress = find_failure(&program, &input, 0..2_000_000, bug.max_steps)
            .expect("stress exposes the bug");

        let mut cells = Vec::new();
        for (algorithm, strategy) in [
            (Algorithm::Chess, Strategy::Temporal),
            (Algorithm::ChessX, Strategy::Dependence),
            (Algorithm::ChessX, Strategy::Temporal),
        ] {
            let reproducer = Reproducer::new(
                &program,
                ReproOptions {
                    algorithm,
                    strategy,
                    search: SearchConfig {
                        max_tries: 20_000,
                        ..Default::default()
                    },
                    ..Default::default()
                },
            );
            let report = reproducer.reproduce(&stress.dump, &input)?;
            cells.push(if report.search.reproduced {
                format!("{} tries", report.search.tries)
            } else {
                "cutoff".to_string()
            });
        }
        println!(
            "{:<10} {:>18} {:>18} {:>18}",
            bug.name, cells[0], cells[1], cells[2]
        );
    }
    Ok(())
}
