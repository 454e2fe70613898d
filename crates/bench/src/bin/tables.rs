//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p mcr-bench --bin tables -- all
//! cargo run --release -p mcr-bench --bin tables -- table1 [--full-scale]
//! cargo run --release -p mcr-bench --bin tables -- table2 | table3 | table4
//! cargo run --release -p mcr-bench --bin tables -- table5 | table6 | fig10
//! cargo run --release -p mcr-bench --bin tables -- steps
//! cargo run --release -p mcr-bench --bin tables -- race-lint
//! cargo run --release -p mcr-bench --bin tables -- bench-json [PATH]
//! cargo run --release -p mcr-bench --bin tables -- batch-json [PATH]
//! ```
//!
//! `bench-json` runs the `search_hotpath` measurements (checkpoint
//! clone, steps/sec, tries/sec, guided vs plain, parallel-vs-serial over
//! the bug suite, the fixed cost of a cheap reproduction by stage) and
//! writes them to `PATH` (default
//! `BENCH_search.json`), printing the JSON to stdout as well.
//!
//! `race-lint` runs the static race/lockset lint over the whole
//! workload corpus — no dump, no failing input — and fails if any
//! seeded bug comes back without a statically visible hazard.
//!
//! `batch-json` measures the `mcr-batch` fleet engine on a
//! duplicate-heavy job mix (throughput, cache-hit rate, single-flight
//! dedup, serial-equivalence) and writes `PATH` (default
//! `BENCH_batch.json`).
//!
//! Both JSON writers stamp the report with the git revision, host core
//! count and repetition count, validate it against the crate's required
//! key lists (`stamp`, `steps_per_sec`, `parallel.speedup`, …) and
//! refuse to write a report that drops a column.
//!
//! `table1 --full-scale` generates corpora at the paper's statement
//! counts (105K/892K/521K — takes a few minutes); the default scale is
//! 40K statements per corpus.

use mcr_bench::experiments::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map_or("all", String::as_str);
    let full_scale = args.iter().any(|a| a == "--full-scale");
    let t1_scale = if full_scale { None } else { Some(40_000) };

    let run_one = |name: &str| match name {
        "table1" => {
            println!("== Table 1: distribution of control dependences ==");
            println!("{}", render_table1(&table1(t1_scale)));
        }
        "table2" => {
            println!("== Table 2: concurrency bugs studied ==");
            println!("{}", render_table2(&table2()));
        }
        "table3" => {
            println!("== Table 3: core dump analysis ==");
            println!("{}", render_table3(&table3()));
        }
        "table4" => {
            println!("== Table 4: failure-inducing schedule production ==");
            println!("{}", render_table4(&table4()));
        }
        "table5" => {
            println!("== Table 5: chessX+temporal using instruction counts ==");
            println!("{}", render_table5(&table5()));
        }
        "table6" => {
            println!("== Table 6: other costs ==");
            println!("{}", render_table6(&table6()));
        }
        "fig10" => {
            println!("== Fig. 10: runtime overhead on production systems ==");
            println!("{}", render_fig10(&fig10()));
        }
        "race-lint" => {
            println!("== static race lint: dump-less triage of the workload corpus ==");
            let rows = mcr_bench::lint::race_lint_corpus();
            let mut missed = Vec::new();
            for row in &rows {
                println!("\n-- {} --", row.name);
                print!("{}", row.rendered);
                if !row.flagged() {
                    missed.push(row.name.clone());
                }
            }
            assert!(
                missed.is_empty(),
                "seeded bugs with no static hazard: {missed:?}"
            );
            println!(
                "\nrace-lint: {} workloads triaged, all flagged, no dump needed",
                rows.len()
            );
        }
        "bench-json" => {
            let path = args
                .iter()
                .skip(1)
                .find(|a| !a.starts_with("--"))
                .map_or("BENCH_search.json", String::as_str);
            eprintln!("running search_hotpath measurements (stress + search over the bug suite)…");
            let report = mcr_bench::hotpath::bench_report();
            assert!(
                report.static_race.identical_winners,
                "static-race pruning changed a winning schedule"
            );
            assert!(
                report.static_race.reduction() >= 1.3,
                "static-race candidate reduction {:.2}x fell below the 1.3x gate \
                 (unpruned {} vs pruned {})",
                report.static_race.reduction(),
                report.static_race.unpruned_candidates,
                report.static_race.pruned_candidates
            );
            let json = report.to_json();
            mcr_bench::hotpath::check_bench_json_schema(&json)
                .unwrap_or_else(|e| panic!("refusing to write {path}: {e}"));
            std::fs::write(path, format!("{json}\n"))
                .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            println!("{json}");
            eprintln!("wrote {path}");
        }
        "steps" => {
            println!(
                "steps_per_sec: {:.0}",
                mcr_bench::hotpath::measure_steps_per_sec()
            );
        }
        "batch-json" => {
            let path = args
                .iter()
                .skip(1)
                .find(|a| !a.starts_with("--"))
                .map_or("BENCH_batch.json", String::as_str);
            eprintln!("running batch measurements (duplicate-heavy fleet vs serial baseline)…");
            let report = mcr_bench::batch::batch_report();
            assert!(
                report.identical_results,
                "fleet reports diverged from the serial baseline"
            );
            assert!(
                report.cache_hits > 0,
                "duplicate-heavy mix produced no cache hits"
            );
            let json = report.to_json();
            mcr_bench::batch::check_batch_json_schema(&json)
                .unwrap_or_else(|e| panic!("refusing to write {path}: {e}"));
            std::fs::write(path, format!("{json}\n"))
                .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            println!("{json}");
            eprintln!("wrote {path}");
        }
        other => {
            eprintln!("unknown experiment `{other}`");
            eprintln!(
                "usage: tables [all|table1|table2|table3|table4|table5|table6|fig10|steps|\
                 race-lint|bench-json|batch-json] [--full-scale]"
            );
            std::process::exit(2);
        }
    };

    if which == "all" {
        for name in [
            "table1", "table2", "table3", "table4", "table5", "table6", "fig10",
        ] {
            run_one(name);
        }
    } else {
        run_one(which);
    }
}
