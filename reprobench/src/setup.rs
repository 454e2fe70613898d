//! Inputs from the seed, and the set-up every workload shares: compile
//! the programs, stress each input into a failure dump, and warm up with
//! one verified reproduction per dump.

use crate::trace::Tracer;
use mcr_core::{find_failure, ReproOptions, ReproReport, ReproSession, Reproducer};
use mcr_dump::CoreDump;
use mcr_lang::Program;
use mcr_search::{
    annotate_with_race, find_schedule, Algorithm, AnnotatedCandidate, Budget, CancelToken,
    FutureCsvMap, Guidance, SearchConfig, SearchResult, TestRun,
};
use mcr_vm::{MemLoc, Vm};
use mcr_workloads::BugSpec;
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// Input seeds in 0..120 on which every Table 2 bug reproduces under the
/// default `Algorithm::ChessX` search within 1000 tries, for the suite
/// inputs and for both input recipes of the triage corpus. The other 98
/// seeds of that range pick at least one dump that needs more: some
/// never reproduce within the 20 000-try cap (each such request costs
/// 1-2 s and fails), and apache-1 can need 7760 tries instead of 2-43;
/// see the README.
pub const INPUT_SEEDS: &[u64] = &[
    42, 9, 12, 16, 25, 31, 38, 41, 45, 49, 51, 54, 56, 57, 65, 74, 79, 88, 91, 100, 108, 118,
];

/// The `count` input seeds a benchmark `--seed N` selects: entries `N`,
/// `N + 7`, `N + 14`, ... (mod 22) of [`INPUT_SEEDS`]. The first is
/// `INPUT_SEEDS[N % 22]`: input seed 42 for the default `--seed 0`, 9 for
/// the claim-check `--seed 1`.
pub fn input_seeds(seed: u64, count: usize) -> Vec<u64> {
    let n = INPUT_SEEDS.len() as u64;
    (0..count as u64)
        .map(|k| INPUT_SEEDS[((seed + 7 * k) % n) as usize])
        .collect()
}

/// Stress seeds scanned per dump, starting at `input_seed * STRESS_SPAN`.
pub const STRESS_SPAN: u64 = 1_000_000;

/// Times the whole set-up runs; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// The options of every reproduction: the defaults (ChessX with
/// temporal ranking, SC, no store) on one search thread. The defaults
/// search on every core; on a host shared with other work, several
/// threads per request measure the host's scheduler more than the
/// program, and run-to-run spread grows past the metrics' bounds.
pub fn options() -> ReproOptions {
    ReproOptions {
        parallelism: 1,
        ..ReproOptions::default()
    }
}

/// One input to stress into a dump.
#[derive(Debug, Clone)]
pub struct DumpSpec {
    /// Row label in the per-bug diagnostics.
    pub label: String,
    /// The bug.
    pub bug: BugSpec,
    /// The failing input.
    pub input: Vec<i64>,
    /// First stress seed scanned for the dump.
    pub stress_start: u64,
}

/// A stressed dump with its verified reference reproduction.
#[derive(Debug, Clone)]
pub struct Case {
    /// Row label.
    pub label: String,
    /// Index into [`Prepared::programs`].
    pub program: usize,
    /// The failing input.
    pub input: Vec<i64>,
    /// The failure dump.
    pub dump: CoreDump,
    /// The warm-up reproduction every later one must equal.
    pub reference: ReproReport,
}

/// The outcome of set-up.
#[derive(Debug)]
pub struct Prepared {
    /// Compiled programs, one per distinct bug.
    pub programs: Vec<Program>,
    /// One case per dump spec, in spec order.
    pub cases: Vec<Case>,
    /// Median wall time of one whole set-up.
    pub setup: Duration,
    /// Mean `mcr_lang::compile` time per program.
    pub compile_ms: f64,
    /// Mean `find_failure` time per dump.
    pub stress_ms: f64,
    /// Mean stress seeds tried per dump.
    pub seeds_tried: f64,
}

/// Compiles, stresses and warms up `reps` times (checking that every
/// repetition produces the same dumps and reports) and keeps the last.
///
/// # Errors
///
/// A message when a dump cannot be produced, or a warm-up reproduction
/// fails or cannot be verified: such a workload measures nothing.
pub fn prepare(
    specs: &[DumpSpec],
    options: &ReproOptions,
    reps: usize,
    tracer: &mut Tracer,
) -> Result<Prepared, String> {
    let mut walls = Vec::with_capacity(reps);
    let mut compile = Duration::ZERO;
    let mut stress = Duration::ZERO;
    let mut seeds_tried = 0u64;
    let mut kept: Option<(Vec<Program>, Vec<Case>)> = None;
    for _ in 0..reps {
        let started = Instant::now();
        let setup = tracer.open("setup", 0);
        let mut programs: Vec<Program> = Vec::new();
        let mut program_of: HashMap<&str, usize> = HashMap::new();
        for spec in specs {
            if program_of.contains_key(spec.bug.name) {
                continue;
            }
            let t = Instant::now();
            let program = tracer.span("mcr_lang::compile", 0, || {
                mcr_lang::compile(spec.bug.source)
            });
            compile += t.elapsed();
            let program = program.map_err(|e| format!("{}: compile: {e}", spec.bug.name))?;
            program_of.insert(spec.bug.name, programs.len());
            programs.push(program);
        }
        let mut dumps = Vec::with_capacity(specs.len());
        for spec in specs {
            let program = &programs[program_of[spec.bug.name]];
            let range = spec.stress_start..spec.stress_start + STRESS_SPAN;
            let t = Instant::now();
            let found = tracer.span("find_failure", 0, || {
                find_failure(program, &spec.input, range, spec.bug.max_steps)
            });
            stress += t.elapsed();
            let found = found.ok_or_else(|| format!("{}: stress found no failure", spec.label))?;
            seeds_tried += found.seeds_tried;
            dumps.push(found.dump);
        }
        let mut cases = Vec::with_capacity(specs.len());
        for (spec, dump) in specs.iter().zip(dumps) {
            let program = program_of[spec.bug.name];
            let warm = tracer.open("warm_up", 0);
            let reference = warm_up(&programs[program], &spec.input, &dump, options, tracer)
                .map_err(|e| format!("{}: warm-up: {e}", spec.label))?;
            tracer.close(warm);
            cases.push(Case {
                label: spec.label.clone(),
                program,
                input: spec.input.clone(),
                dump,
                reference,
            });
        }
        tracer.close(setup);
        walls.push(started.elapsed());
        if let Some((_, earlier)) = &kept {
            for (a, b) in earlier.iter().zip(&cases) {
                if a.dump != b.dump || !reports_equal(&a.reference, &b.reference) {
                    return Err(format!("{}: set-up is not deterministic", a.label));
                }
            }
        }
        kept = Some((programs, cases));
    }
    let (programs, cases) = kept.ok_or("no set-up repetition ran")?;
    walls.sort();
    let reps_f = reps as f64;
    Ok(Prepared {
        setup: walls[walls.len() / 2],
        compile_ms: ms(compile) / (reps_f * programs.len() as f64),
        stress_ms: ms(stress) / (reps_f * cases.len() as f64),
        seeds_tried: seeds_tried as f64 / (reps_f * cases.len() as f64),
        programs,
        cases,
    })
}

/// One staged reproduction whose winning schedule is re-executed on a
/// fresh VM; returns the report when the re-execution hits the dump's
/// failure.
fn warm_up(
    program: &Program,
    input: &[i64],
    dump: &CoreDump,
    options: &ReproOptions,
    tracer: &mut Tracer,
) -> Result<ReproReport, String> {
    let reproducer = Reproducer::new(program, options.clone());
    let mut session = reproducer.session(dump, input).map_err(|e| e.to_string())?;
    let report = session.run_to_end().map_err(|e| e.to_string())?;
    if !report.search.reproduced {
        return Err(format!("not reproduced in {} tries", report.search.tries));
    }
    let winning = report
        .search
        .winning
        .as_ref()
        .ok_or("reproduced without a winning preemption set")?;
    let (_, future) = rederive(&session).ok_or("session artifacts missing")?;
    let replayed = tracer.span("TestRun::execute", 0, || {
        replay_winning(program, input, &session, winning, &future)
    });
    if !replayed {
        return Err("the winning preemption set does not replay the failure".into());
    }
    Ok(report)
}

/// Re-executes a winning preemption set through `TestRun::execute` on a
/// fresh VM; true when the run hits the session's target failure.
pub fn replay_winning(
    program: &Program,
    input: &[i64],
    session: &ReproSession<'_>,
    winning: &[AnnotatedCandidate],
    future: &FutureCsvMap,
) -> bool {
    let options = session.options();
    let vm = Vm::new(program, input).with_mem_model(options.mem_model);
    let run = TestRun {
        fresh_vm: &vm,
        preemptions: winning,
        target: session.failure(),
        guidance: guidance(options.algorithm),
        future,
    };
    run.execute(&mut Budget::with_tries(
        options.search.max_tries,
        options.search.max_steps,
    ))
}

fn guidance(algorithm: Algorithm) -> Guidance {
    match algorithm {
        Algorithm::Chess => Guidance::All,
        Algorithm::ChessX => Guidance::CsvOverlap,
    }
}

/// Re-derives the search's candidates and future-CSV map from a
/// finished session's artifacts, the way its search phase derives them
/// (with the session's own race verdicts). `None` before the rank phase.
pub fn rederive(session: &ReproSession<'_>) -> Option<(Vec<AnnotatedCandidate>, FutureCsvMap)> {
    let align = session.alignment_artifact()?;
    let delta = session.delta_artifact()?;
    let ranked = session.ranked_artifact()?;
    let csv_set: HashSet<MemLoc> = delta.csv_locs.iter().copied().collect();
    let mut priorities: HashMap<(u64, MemLoc, bool), u32> = HashMap::new();
    for r in &ranked.ranked {
        let e = priorities
            .entry((r.step, r.loc, r.is_write))
            .or_insert(r.priority);
        *e = (*e).min(r.priority);
    }
    Some(annotate_with_race(
        &align.passing_run,
        &csv_set,
        &priorities,
        session.race_verdicts(),
    ))
}

/// Runs `find_schedule` with its cancel token already fired: it builds
/// the worklist and the executor, then stops before the first try.
pub fn worklist_only(
    program: &Program,
    input: &[i64],
    session: &ReproSession<'_>,
    candidates: &[AnnotatedCandidate],
    future: &FutureCsvMap,
) -> SearchResult {
    let options = session.options();
    let cancel = CancelToken::new();
    cancel.cancel();
    let config = SearchConfig {
        parallelism: options.parallelism.max(1),
        cancel,
        ..options.search.clone()
    };
    let vm = Vm::new(program, input).with_mem_model(options.mem_model);
    find_schedule(
        &vm,
        candidates,
        future,
        session.failure(),
        options.algorithm,
        &config,
    )
}

/// Checks one request's result against the case's verified reference.
///
/// # Errors
///
/// Why the request failed: its error, a non-reproduction, or a report
/// that differs from the reference.
pub fn check<E: ToString>(case: &Case, result: Result<ReproReport, E>) -> Result<(), String> {
    let report = result.map_err(|e| e.to_string())?;
    if !report.search.reproduced {
        return Err(format!("not reproduced in {} tries", report.search.tries));
    }
    if !reports_equal(&report, &case.reference) {
        return Err("report differs from the reference reproduction".into());
    }
    Ok(())
}

/// Every result field of two reports, timings excluded.
pub fn reports_equal(a: &ReproReport, b: &ReproReport) -> bool {
    a.index == b.index
        && a.alignment == b.alignment
        && a.failure_dump_bytes == b.failure_dump_bytes
        && a.aligned_dump_bytes == b.aligned_dump_bytes
        && a.vars == b.vars
        && a.diffs == b.diffs
        && a.shared == b.shared
        && a.csv_paths == b.csv_paths
        && a.csv_locs == b.csv_locs
        && a.deterministic_repro == b.deterministic_repro
        && a.search.reproduced == b.search.reproduced
        && a.search.tries == b.search.tries
        && a.search.combinations_tested == b.search.combinations_tested
        && a.search.winning == b.search.winning
        && a.search.cut_off == b.search.cut_off
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
