//! Golden search outcomes for every seeded bug.
//!
//! The CHESS worklist is generated lazily in priority order instead of
//! being materialized and sorted. Its order is an exact contract: the
//! search tests combinations in worklist order, so any drift shows up as
//! a different try count or winning schedule. The table below was
//! recorded from the materialize-and-sort worklist and pins, per bug,
//! memory model and algorithm: whether the search reproduced, its tries,
//! the combinations it tested and the winning preemption points.
//!
//! Budgets are fixed here, not tier-dependent, so the table holds in
//! the smoke and full tiers alike. Plain CHESS gets a smaller cap: a
//! cut-off outcome is pinned just as exactly as a success. The search
//! runs on one thread, so the table holds on any number of cores.
//!
//! To regenerate after an intended change of order, run this test with
//! `--nocapture` and copy the printed table.

use mcr_core::{find_failure_cfg, ReproOptions, Reproducer, RunConfig};
use mcr_search::{Algorithm, SearchConfig, SearchResult};
use mcr_slice::Strategy;
use mcr_testsupport::{fault_bug_env, stress_seed_cap};
use mcr_vm::MemModel;

const CHESSX_MAX_TRIES: u64 = 20_000;
const CHESS_MAX_TRIES: u64 = 2_000;

const PINS: &str = "\
apache-1 sc chessx reproduced=true tries=7760 combos=7513 cut_off=false winning=t2@BeforeAcquire#2/911
apache-1 sc chess reproduced=true tries=270 combos=252 cut_off=false winning=t2@AfterRelease#1/910
apache-1 tso chessx reproduced=true tries=7531 combos=7519 cut_off=false winning=t2@BeforeAcquire#4/911
apache-1 tso chess reproduced=true tries=400 combos=379 cut_off=false winning=t2@BeforeAcquire#4/911
apache-2 sc chessx reproduced=true tries=2 combos=2 cut_off=false winning=t1@BeforeAcquire#2/1086
apache-2 sc chess reproduced=true tries=315 combos=309 cut_off=false winning=t1@BeforeAcquire#2/1086
apache-2 tso chessx reproduced=true tries=469 combos=464 cut_off=false winning=t1@BeforeFlush#5/1088
apache-2 tso chess reproduced=true tries=470 combos=463 cut_off=false winning=t1@BeforeFlush#5/1088
mysql-1 sc chessx reproduced=true tries=2 combos=2 cut_off=false winning=t1@BeforeAcquire#2/1421
mysql-1 sc chess reproduced=true tries=415 combos=409 cut_off=false winning=t1@BeforeAcquire#2/1421
mysql-1 tso chessx reproduced=true tries=616 combos=614 cut_off=false winning=t1@BeforeFlush#5/1425
mysql-1 tso chess reproduced=true tries=620 combos=613 cut_off=false winning=t1@BeforeFlush#5/1425
mysql-2 sc chessx reproduced=true tries=2 combos=2 cut_off=false winning=t1@BeforeAcquire#2/1284
mysql-2 sc chess reproduced=true tries=375 combos=369 cut_off=false winning=t1@BeforeAcquire#2/1284
mysql-2 tso chessx reproduced=true tries=559 combos=554 cut_off=false winning=t1@BeforeFlush#5/1286
mysql-2 tso chess reproduced=true tries=560 combos=553 cut_off=false winning=t1@BeforeFlush#5/1286
mysql-3 sc chessx reproduced=true tries=2 combos=2 cut_off=false winning=t1@BeforeAcquire#0/727
mysql-3 sc chess reproduced=true tries=211 combos=207 cut_off=false winning=t1@BeforeAcquire#0/727
mysql-3 tso chessx reproduced=true tries=311 combos=310 cut_off=false winning=t1@BeforeFlush#2/730
mysql-3 tso chess reproduced=true tries=315 combos=310 cut_off=false winning=t1@BeforeFlush#2/730
mysql-4 sc chessx reproduced=true tries=4 combos=4 cut_off=false winning=t2@BeforeAcquire#2/1182
mysql-4 sc chess reproduced=true tries=341 combos=330 cut_off=false winning=t1@AfterRelease#1/1150
mysql-4 tso chessx reproduced=true tries=2 combos=2 cut_off=false winning=t2@BeforeAcquire#2/1182
mysql-4 tso chess reproduced=true tries=502 combos=491 cut_off=false winning=t1@AfterRelease#1/1150
mysql-5 sc chessx reproduced=true tries=877 combos=583 cut_off=false winning=t1@BeforeAcquire#0/1000,t2@AfterRelease#1/1023
mysql-5 sc chess reproduced=false tries=2000 combos=1952 cut_off=true winning=-
mysql-5 tso chessx reproduced=true tries=1327 combos=879 cut_off=false winning=t1@BeforeAcquire#0/1000,t2@BeforeFlush#3/1027
mysql-5 tso chess reproduced=false tries=2000 combos=1964 cut_off=true winning=-
tso-sb env chessx reproduced=true tries=7 combos=7 cut_off=false winning=t1@BeforeFlush#0/4
tso-dekker env chessx reproduced=true tries=7 combos=7 cut_off=false winning=t1@BeforeFlush#0/7
fault-publish env chessx reproduced=true tries=2 combos=2 cut_off=false winning=t1@BeforeFlush#0/6
fault-timeout env chessx reproduced=true tries=6 combos=6 cut_off=false winning=t1@BeforeFlush#1/4
";

fn outcome_line(case: &str, r: &SearchResult) -> String {
    let winning = r.winning.as_ref().map_or_else(
        || "-".to_string(),
        |w| {
            w.iter()
                .map(|c| format!("{}/{}", c.point, c.point.step))
                .collect::<Vec<_>>()
                .join(",")
        },
    );
    format!(
        "{case} reproduced={} tries={} combos={} cut_off={} winning={winning}",
        r.reproduced, r.tries, r.combinations_tested, r.cut_off
    )
}

fn search_outcome(
    program: &mcr_lang::Program,
    input: &[i64],
    max_steps: u64,
    env: &RunConfig,
    algorithm: Algorithm,
    max_tries: u64,
) -> SearchResult {
    let sf = find_failure_cfg(program, input, 0..stress_seed_cap(), max_steps, env)
        .expect("stress finds the bug");
    let options = ReproOptions {
        strategy: Strategy::Temporal,
        algorithm,
        mem_model: env.mem_model,
        faults: env.faults.clone(),
        search: SearchConfig {
            max_tries,
            ..Default::default()
        },
        // The serial loop, as `reprobench` runs it. The default is the
        // host's core count, and the parallel driver also counts a
        // combination in flight at a cut-off, so the cut-off rows
        // would depend on the host.
        parallelism: 1,
        ..Default::default()
    };
    Reproducer::new(program, options)
        .reproduce(&sf.dump, input)
        .expect("pipeline runs")
        .search
}

fn actual_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for bug in mcr_workloads::all_bugs() {
        let program = bug.compile();
        let input = bug.default_input();
        for (model_name, mem_model) in [("sc", MemModel::Sc), ("tso", MemModel::tso())] {
            let env = RunConfig {
                mem_model,
                faults: Vec::new(),
            };
            for (alg_name, algorithm, cap) in [
                ("chessx", Algorithm::ChessX, CHESSX_MAX_TRIES),
                ("chess", Algorithm::Chess, CHESS_MAX_TRIES),
            ] {
                let r = search_outcome(&program, &input, bug.max_steps, &env, algorithm, cap);
                lines.push(outcome_line(
                    &format!("{} {model_name} {alg_name}", bug.name),
                    &r,
                ));
            }
        }
    }
    for bug in mcr_workloads::fault_bugs() {
        let program = bug.compile();
        let env = fault_bug_env(&bug);
        let r = search_outcome(
            &program,
            bug.input,
            bug.max_steps,
            &env,
            Algorithm::ChessX,
            CHESSX_MAX_TRIES,
        );
        lines.push(outcome_line(&format!("{} env chessx", bug.name), &r));
    }
    lines
}

#[test]
fn search_outcomes_match_the_recorded_worklist_order() {
    let actual = actual_lines();
    println!("{}", actual.join("\n"));
    let expected: Vec<&str> = PINS.lines().collect();
    assert_eq!(actual.len(), expected.len(), "case count");
    for (a, e) in actual.iter().zip(&expected) {
        assert_eq!(a, e);
    }
}
