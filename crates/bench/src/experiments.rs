//! The evaluation harness: one function per table/figure of the paper.
//!
//! Each function returns structured rows and renders the same columns the
//! paper reports. Absolute numbers differ from the paper (its substrate
//! was a 2010 testbed with GDB/Valgrind; ours is a deterministic
//! simulator), but each table's *shape* — who wins, by what order of
//! magnitude, which baseline fails — is the reproduction target. See
//! EXPERIMENTS.md for the recorded comparison.

use mcr_core::{
    find_failure, AlignMode, ReproOptions, ReproReport, ReproTimings, Reproducer, StressFailure,
};
use mcr_search::{Algorithm, SearchConfig};
use mcr_slice::Strategy;
use mcr_workloads::{all_bugs, overhead_workloads, BugSpec};
use std::fmt::Write as _;
use std::time::Duration;

/// Search cutoff used as the equivalent of the paper's 18-hour budget.
pub const CUTOFF_TRIES: u64 = 20_000;

/// Stress seed range used to obtain failure dumps.
pub const STRESS_SEEDS: std::ops::Range<u64> = 0..2_000_000;

/// Runs stress testing for one bug and returns its failure dump.
///
/// # Panics
///
/// Panics if no seed in [`STRESS_SEEDS`] exposes the failure (would mean
/// a broken workload; covered by tests).
pub fn stress_bug(bug: &BugSpec, input: &[i64]) -> StressFailure {
    let program = bug.compile();
    find_failure(&program, input, STRESS_SEEDS, bug.max_steps)
        .unwrap_or_else(|| panic!("{}: stress did not expose the bug", bug.name))
}

/// Options for one pipeline run of the harness.
#[derive(Debug, Clone, Copy)]
pub struct HarnessOptions {
    /// Prioritization strategy.
    pub strategy: Strategy,
    /// Search algorithm.
    pub algorithm: Algorithm,
    /// Aligned-point location method.
    pub align_mode: AlignMode,
    /// Search cutoff in tries (0 = skip the search).
    pub max_tries: u64,
    /// Optional wall-clock budget for the search.
    pub time_budget: Option<Duration>,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            strategy: Strategy::Temporal,
            algorithm: Algorithm::ChessX,
            align_mode: AlignMode::ExecutionIndex,
            max_tries: CUTOFF_TRIES,
            time_budget: None,
        }
    }
}

/// Runs the full reproduction pipeline for one bug: its report, and
/// where the session's time went.
pub fn run_pipeline(
    bug: &BugSpec,
    sf: &StressFailure,
    opts: HarnessOptions,
) -> (ReproReport, ReproTimings) {
    let program = bug.compile();
    let input = bug.default_input();
    let options = ReproOptions {
        strategy: opts.strategy,
        algorithm: opts.algorithm,
        align_mode: opts.align_mode,
        search: SearchConfig {
            max_tries: opts.max_tries,
            time_budget: opts.time_budget,
            ..Default::default()
        },
        ..Default::default()
    };
    let reproducer = Reproducer::new(&program, options);
    let mut session = reproducer
        .session(&sf.dump, &input)
        .unwrap_or_else(|e| panic!("{}: pipeline failed: {e}", bug.name));
    let report = session
        .run_to_end()
        .unwrap_or_else(|e| panic!("{}: pipeline failed: {e}", bug.name));
    (report, session.timings())
}

// ---------------------------------------------------------------------
// Table 1 — distribution of control dependences
// ---------------------------------------------------------------------

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Corpus name.
    pub name: String,
    /// % single control dependence.
    pub one_cd: f64,
    /// % aggregatable to one.
    pub aggr_to_one: f64,
    /// % non-aggregatable.
    pub not_aggr: f64,
    /// % loop predicates.
    pub loop_pred: f64,
    /// Total statements.
    pub total: usize,
}

/// Regenerates Table 1 at `scale` statements per corpus (pass `None` for
/// the paper's full sizes: 105K / 892K / 521K).
pub fn table1(scale: Option<usize>) -> Vec<Table1Row> {
    use mcr_analysis::ProgramAnalysis;
    let profiles = match scale {
        Some(n) => mcr_workloads::small_profiles(n),
        None => mcr_workloads::paper_profiles(),
    };
    profiles
        .iter()
        .enumerate()
        .map(|(i, profile)| {
            let program = mcr_workloads::generate(profile, 0xA11CE + i as u64);
            let analysis = ProgramAnalysis::analyze(&program);
            let census = analysis.census(&program);
            Table1Row {
                name: profile.name.to_string(),
                one_cd: census.pct_one_cd(),
                aggr_to_one: census.pct_aggr_to_one(),
                not_aggr: census.pct_not_aggr(),
                loop_pred: census.pct_loop(),
                total: census.total,
            }
        })
        .collect()
}

/// Renders Table 1.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<16} {:>8} {:>12} {:>10} {:>7} {:>9}",
        "benchmark", "one CD", "aggr. to one", "not aggr.", "loop", "total"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<16} {:>8.2} {:>12.2} {:>10.2} {:>7.2} {:>9}",
            r.name, r.one_cd, r.aggr_to_one, r.not_aggr, r.loop_pred, r.total
        );
    }
    s
}

// ---------------------------------------------------------------------
// Table 2 — the bugs studied
// ---------------------------------------------------------------------

/// One row of Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Bug name.
    pub name: String,
    /// Modeled upstream bug id.
    pub id: String,
    /// Bug class label.
    pub class: &'static str,
    /// Steps of the failing (stress) execution.
    pub exec_steps: u64,
    /// Instructions of the failing execution.
    pub exec_instrs: u64,
    /// Worker threads.
    pub threads: u32,
}

/// Regenerates Table 2 (descriptions plus measured execution lengths).
pub fn table2() -> Vec<Table2Row> {
    all_bugs()
        .iter()
        .map(|bug| {
            let input = bug.default_input();
            let sf = stress_bug(bug, &input);
            Table2Row {
                name: bug.name.to_string(),
                id: bug.bug_id.to_string(),
                class: bug.class.label(),
                exec_steps: sf.steps,
                exec_instrs: sf.instrs,
                threads: bug.threads,
            }
        })
        .collect()
}

/// Renders Table 2.
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<10} {:>6} {:>6} {:>12} {:>12} {:>8}",
        "bugs", "id", "descr", "exec steps", "exec instrs", "threads"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<10} {:>6} {:>6} {:>12} {:>12} {:>8}",
            r.name, r.id, r.class, r.exec_steps, r.exec_instrs, r.threads
        );
    }
    s
}

// ---------------------------------------------------------------------
// Table 3 — core dump analysis
// ---------------------------------------------------------------------

/// One row of Table 3.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Bug name.
    pub name: String,
    /// Failure dump size in bytes.
    pub fail_bytes: usize,
    /// Aligned dump size in bytes.
    pub pass_bytes: usize,
    /// Variables reachable from the failing thread.
    pub vars: usize,
    /// Variables with differing values.
    pub diffs: usize,
    /// Shared variables compared.
    pub shared: usize,
    /// Critical shared variables.
    pub csv: usize,
    /// Length of the reverse-engineered failure index.
    pub index_len: usize,
}

/// Regenerates Table 3 (analysis only; the search is skipped).
pub fn table3() -> Vec<Table3Row> {
    all_bugs()
        .iter()
        .map(|bug| {
            let input = bug.default_input();
            let sf = stress_bug(bug, &input);
            let (report, _) = run_pipeline(
                bug,
                &sf,
                HarnessOptions {
                    max_tries: 0,
                    ..Default::default()
                },
            );
            Table3Row {
                name: bug.name.to_string(),
                fail_bytes: report.failure_dump_bytes,
                pass_bytes: report.aligned_dump_bytes,
                vars: report.vars,
                diffs: report.diffs,
                shared: report.shared,
                csv: report.csv_paths.len(),
                index_len: report
                    .index
                    .as_ref()
                    .map_or(0, mcr_index::index::ExecutionIndex::len),
            }
        })
        .collect()
}

/// Renders Table 3.
pub fn render_table3(rows: &[Table3Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<10} {:>16} {:>12} {:>12} {:>11}",
        "bugs", "core dump (F+P)", "vars/diffs", "shared/CSV", "len(index)"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<10} {:>7}B/{:>7}B {:>7}/{:<4} {:>7}/{:<4} {:>11}",
            r.name, r.fail_bytes, r.pass_bytes, r.vars, r.diffs, r.shared, r.csv, r.index_len
        );
    }
    s
}

// ---------------------------------------------------------------------
// Table 4 — failure-inducing schedule production
// ---------------------------------------------------------------------

/// Result of one algorithm on one bug.
#[derive(Debug, Clone)]
pub struct SearchCell {
    /// Tries used.
    pub tries: u64,
    /// Wall time of the search phase (candidate annotation and the
    /// schedule loop).
    pub time: Duration,
    /// Whether the bug was reproduced within the cutoff.
    pub reproduced: bool,
}

/// One row of Table 4.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Bug name.
    pub name: String,
    /// Plain CHESS.
    pub chess: SearchCell,
    /// Enhanced, dependence-distance prioritization.
    pub chessx_dep: SearchCell,
    /// Enhanced, temporal-distance prioritization.
    pub chessx_temporal: SearchCell,
}

/// Regenerates Table 4.
pub fn table4() -> Vec<Table4Row> {
    all_bugs()
        .iter()
        .map(|bug| {
            let input = bug.default_input();
            let sf = stress_bug(bug, &input);
            let cell = |strategy, algorithm| {
                let (report, timings) = run_pipeline(
                    bug,
                    &sf,
                    HarnessOptions {
                        strategy,
                        algorithm,
                        ..Default::default()
                    },
                );
                SearchCell {
                    tries: report.search.tries,
                    time: timings.search,
                    reproduced: report.search.reproduced,
                }
            };
            Table4Row {
                name: bug.name.to_string(),
                chess: cell(Strategy::Temporal, Algorithm::Chess),
                chessx_dep: cell(Strategy::Dependence, Algorithm::ChessX),
                chessx_temporal: cell(Strategy::Temporal, Algorithm::ChessX),
            }
        })
        .collect()
}

fn cell_str(c: &SearchCell) -> String {
    if c.reproduced {
        format!("{:>6} {:>9.1?}", c.tries, c.time)
    } else {
        format!("{:>6} {:>9}", format!("{}*", c.tries), "cutoff")
    }
}

/// Renders Table 4.
pub fn render_table4(rows: &[Table4Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<10} | {:^16} | {:^16} | {:^16}",
        "bug", "chess", "chessX+dep", "chessX+temporal"
    );
    let _ = writeln!(
        s,
        "{:<10} | {:>6} {:>9} | {:>6} {:>9} | {:>6} {:>9}",
        "", "tries", "time", "tries", "time", "tries", "time"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<10} | {} | {} | {}",
            r.name,
            cell_str(&r.chess),
            cell_str(&r.chessx_dep),
            cell_str(&r.chessx_temporal)
        );
    }
    let _ = writeln!(s, "(* = cut off after {CUTOFF_TRIES} tries)");
    s
}

// ---------------------------------------------------------------------
// Table 5 — instruction-count alignment baseline
// ---------------------------------------------------------------------

/// One row of Table 5.
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// Bug name.
    pub name: String,
    /// Thread-local instruction count of the failing thread at failure.
    pub instrs: u64,
    /// Variables reachable / differing under this alignment.
    pub vars: usize,
    /// Differing variables.
    pub diffs: usize,
    /// Shared compared / CSVs under this alignment.
    pub shared: usize,
    /// CSVs.
    pub csv: usize,
    /// Search result (chessX+temporal, as in the paper).
    pub search: SearchCell,
}

/// Regenerates Table 5.
pub fn table5() -> Vec<Table5Row> {
    all_bugs()
        .iter()
        .map(|bug| {
            let input = bug.default_input();
            let sf = stress_bug(bug, &input);
            let (report, timings) = run_pipeline(
                bug,
                &sf,
                HarnessOptions {
                    align_mode: AlignMode::InstructionCount,
                    ..Default::default()
                },
            );
            Table5Row {
                name: bug.name.to_string(),
                instrs: sf.dump.focus_thread().instrs,
                vars: report.vars,
                diffs: report.diffs,
                shared: report.shared,
                csv: report.csv_paths.len(),
                search: SearchCell {
                    tries: report.search.tries,
                    time: timings.search,
                    reproduced: report.search.reproduced,
                },
            }
        })
        .collect()
}

/// Renders Table 5.
pub fn render_table5(rows: &[Table5Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<10} {:>10} {:>12} {:>12} {:>18}",
        "bugs", "instrs", "vars/diffs", "shared/CSV", "chessX+temporal"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<10} {:>10} {:>7}/{:<4} {:>7}/{:<4} {} {}",
            r.name,
            r.instrs,
            r.vars,
            r.diffs,
            r.shared,
            r.csv,
            cell_str(&r.search),
            if r.search.reproduced {
                "(reproduced)"
            } else {
                ""
            },
        );
    }
    s
}

// ---------------------------------------------------------------------
// Table 6 — other costs
// ---------------------------------------------------------------------

/// One row of Table 6.
#[derive(Debug, Clone)]
pub struct Table6Row {
    /// Bug name.
    pub name: String,
    /// Dump encode/decode and the walk comparing both dumps
    /// ("parsing").
    pub dump_parse: Duration,
    /// Sorting the differences and splitting off the CSVs ("diff").
    pub diff: Duration,
    /// Slicing cost.
    pub slicing: Duration,
    /// Passing run + the diff phase's dependence replay.
    pub reexecution: Duration,
}

/// Regenerates Table 6 (with the dependence strategy, which replays the
/// passing run's prefix and slices).
pub fn table6() -> Vec<Table6Row> {
    all_bugs()
        .iter()
        .map(|bug| {
            let input = bug.default_input();
            let sf = stress_bug(bug, &input);
            let (_, timings) = run_pipeline(
                bug,
                &sf,
                HarnessOptions {
                    strategy: Strategy::Dependence,
                    max_tries: 0,
                    ..Default::default()
                },
            );
            Table6Row {
                name: bug.name.to_string(),
                dump_parse: timings.dump_parse,
                diff: timings.diff,
                slicing: timings.slicing,
                reexecution: timings.passing_run + timings.replay,
            }
        })
        .collect()
}

/// Renders Table 6.
pub fn render_table6(rows: &[Table6Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<10} {:>14} {:>12} {:>12} {:>14}",
        "bugs", "dump parsing", "diff", "slicing", "re-execution"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<10} {:>14.1?} {:>12.1?} {:>12.1?} {:>14.1?}",
            r.name, r.dump_parse, r.diff, r.slicing, r.reexecution
        );
    }
    s
}

// ---------------------------------------------------------------------
// Fig. 10 — runtime overhead on production systems
// ---------------------------------------------------------------------

/// One bar of Fig. 10.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Workload name.
    pub name: String,
    /// Instrumented / plain instruction ratio.
    pub ratio: f64,
}

/// Regenerates Fig. 10.
pub fn fig10() -> Vec<Fig10Row> {
    overhead_workloads()
        .iter()
        .map(|w| {
            let r = mcr_workloads::measure_overhead(w);
            Fig10Row {
                name: w.name.to_string(),
                ratio: r.ratio(),
            }
        })
        .collect()
}

/// Renders Fig. 10 as an ASCII bar chart.
pub fn render_fig10(rows: &[Fig10Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{:<8} {:>8}  overhead", "bench", "ratio");
    for r in rows {
        let pct = (r.ratio - 1.0) * 100.0;
        let bars = "#".repeat((pct * 10.0).round().max(0.0) as usize);
        let _ = writeln!(s, "{:<8} {:>8.4}  {}", r.name, r.ratio, bars);
    }
    let avg: f64 = rows.iter().map(|r| (r.ratio - 1.0) * 100.0).sum::<f64>() / rows.len() as f64;
    let _ = writeln!(s, "average overhead: {avg:.2}%");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_small_scale_shape() {
        let rows = table1(Some(4000));
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.one_cd > 70.0, "{}: {}", r.name, r.one_cd);
            assert!(r.total >= 4000);
        }
        let rendered = render_table1(&rows);
        assert!(rendered.contains("apache"), "{rendered}");
    }

    #[test]
    fn fig10_shape() {
        let rows = fig10();
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert!(r.ratio >= 1.0 && r.ratio < 1.08, "{}: {}", r.name, r.ratio);
        }
        let rendered = render_fig10(&rows);
        assert!(rendered.contains("average overhead"));
    }

    #[test]
    fn table3_single_bug_columns() {
        // One bug end-to-end keeps the test fast; the full table runs in
        // the tables binary and integration tests.
        let bug = mcr_workloads::bug_by_name("mysql-3").unwrap();
        let input = bug.default_input();
        let sf = stress_bug(&bug, &input);
        let (report, _) = run_pipeline(
            &bug,
            &sf,
            HarnessOptions {
                max_tries: 0,
                ..Default::default()
            },
        );
        assert!(report.failure_dump_bytes > 0);
        assert!(report.vars > 0);
        assert!(report.shared <= report.vars);
        assert!(report.csv_paths.len() <= report.diffs);
    }
}
