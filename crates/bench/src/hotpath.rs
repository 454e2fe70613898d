//! Hot-path measurements of the search engine and the
//! `BENCH_search.json` writer.
//!
//! The schedule search's cost model is `checkpoint cost × tries` (paper
//! Table 4: every `preempt()` branch forks the execution, every try
//! replays the program), so this module tracks exactly those numbers:
//!
//! * **checkpoint_clone** — one `Vm::clone` on a heap-rich completed
//!   state (the copy-on-write fast path this repo's PR 2 introduced;
//!   the pre-COW deep clone measured ~57,500 ns on the same fixture),
//! * **steps_per_sec** — interpreter throughput of the statement
//!   decoder every pipeline phase runs on,
//! * **tries_per_sec** — completed test executions per second inside a
//!   plain CHESS search,
//! * **guided vs plain** — tries and wall time of ChessX vs CHESS,
//! * **parallel** — end-to-end guided search over the full
//!   `mcr-workloads` bug suite at `parallelism = 1` vs all cores, with a
//!   result-equality check (the deterministic lowest-index-wins
//!   protocol must make both runs identical).
//!
//! The microbenchmarks report the median of [`SAMPLES`] timed samples;
//! the suite legs keep the best of two rounds.
//!
//! `tables -- bench-json` serializes a [`BenchReport`] to
//! `BENCH_search.json` so successive PRs leave a measurable trajectory.

use crate::stamp::Stamp;
use mcr_core::{find_failure_cfg, find_failure_par, ReproOptions, Reproducer, RunConfig};
use mcr_search::{find_schedule, worklist_size, Algorithm, SearchConfig, SearchResult};
use mcr_slice::Strategy;
use mcr_vm::{run, DeterministicScheduler, MemModel, NullObserver, Outcome, Vm};
use mcr_workloads::{all_bugs, fault_bugs, EnvRequirement};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Heap-rich checkpoint fixture: 256 live objects of 64 slots each,
/// rooted in a global array — the state a search-phase checkpoint has to
/// preserve. (The canned `HEAP_RICH` dump fixture of `mcr-testsupport`
/// has the same shape; this one is bigger so the clone cost is squarely
/// heap-dominated.)
pub const CHECKPOINT_FIXTURE: &str = r#"
    global roots: [int; 256];
    fn main() {
        var i; var j; var p;
        for (i = 0; i < 256; i = i + 1) {
            p = alloc(64);
            for (j = 0; j < 64; j = j + 1) {
                p[j] = i * 64 + j;
            }
            roots[i] = p;
        }
    }
"#;

/// A compute-heavy single-thread program for raw stepping throughput.
const STEPPER: &str = r#"
    global acc: int;
    fn work(k) {
        var i; var v;
        v = k;
        while (i < 40) {
            i = i + 1;
            v = (v * 31 + i) % 1009;
        }
        return v;
    }
    fn main() {
        var r; var j;
        for (j = 0; j < 50; j = j + 1) {
            r = work(j);
            acc = acc + r;
        }
    }
"#;

/// Runs `CHECKPOINT_FIXTURE` to completion, returning the heap-rich VM.
///
/// # Panics
///
/// Panics if the fixture fails to compile or complete (a bug here).
pub fn checkpoint_fixture_vm(program: &mcr_lang::Program) -> Vm<'_> {
    let mut vm = Vm::new(program, &[]);
    let outcome = run(
        &mut vm,
        &mut DeterministicScheduler::new(),
        &mut NullObserver,
        10_000_000,
    );
    assert_eq!(outcome, Outcome::Completed, "fixture must complete");
    vm
}

/// Compiles [`CHECKPOINT_FIXTURE`].
pub fn checkpoint_fixture_program() -> mcr_lang::Program {
    mcr_lang::compile(CHECKPOINT_FIXTURE).expect("fixture compiles")
}

/// Timed samples behind each microbenchmark median.
pub const SAMPLES: usize = 9;

/// Median-of-samples timing helper.
fn median_ns(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Measures one checkpoint (`Vm::clone`) on the heap-rich fixture, in
/// nanoseconds.
pub fn measure_checkpoint_clone_ns() -> f64 {
    let program = checkpoint_fixture_program();
    let vm = checkpoint_fixture_vm(&program);
    let mut samples = Vec::new();
    for _ in 0..SAMPLES {
        let iters = 2_000u32;
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(vm.clone());
        }
        samples.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    median_ns(&mut samples)
}

/// Measures interpreter throughput (statements per second) on a
/// compute-heavy single-thread program.
pub fn measure_steps_per_sec() -> f64 {
    let program = mcr_lang::compile(STEPPER).expect("stepper compiles");
    // Warm once to learn the run length.
    let mut vm = Vm::new(&program, &[]);
    run(
        &mut vm,
        &mut DeterministicScheduler::new(),
        &mut NullObserver,
        10_000_000,
    );
    let steps_per_run = vm.steps();
    let mut samples = Vec::new();
    for _ in 0..SAMPLES {
        let mut total_steps = 0u64;
        let start = Instant::now();
        while start.elapsed() < Duration::from_millis(30) {
            let mut vm = Vm::new(&program, &[]);
            run(
                &mut vm,
                &mut DeterministicScheduler::new(),
                &mut NullObserver,
                10_000_000,
            );
            total_steps += steps_per_run;
        }
        samples.push(total_steps as f64 / start.elapsed().as_secs_f64());
    }
    median_ns(&mut samples)
}

/// A fig1-scale search setup shared by the tries/guided/plain
/// measurements: program, fresh VM inputs, candidates, future map,
/// target failure.
pub struct SearchFixture {
    program: mcr_lang::Program,
    input: Vec<i64>,
    candidates: Vec<mcr_search::AnnotatedCandidate>,
    future: mcr_search::FutureCsvMap,
    failure: mcr_vm::Failure,
}

impl SearchFixture {
    /// Builds the fixture from the `mysql-3` workload (small enough to
    /// iterate quickly, real enough to have a preemption-candidate
    /// space).
    ///
    /// # Panics
    ///
    /// Panics if stress or the pipeline phases fail (covered by the
    /// repository test suite).
    pub fn prepare() -> SearchFixture {
        let bug = mcr_workloads::bug_by_name("mysql-3").expect("workload exists");
        let program = bug.compile();
        let input = bug.lengthened_input(10, 42);
        let sf = find_failure_par(
            &program,
            &input,
            0..200_000,
            bug.max_steps,
            minipool::available_parallelism(),
        )
        .expect("stress exposes mysql-3");
        // Reuse the pipeline for candidate extraction (search skipped).
        let reproducer = Reproducer::new(
            &program,
            ReproOptions {
                search: SearchConfig {
                    max_tries: 0,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let report = reproducer.reproduce(&sf.dump, &input).expect("pipeline");
        let mut vm = Vm::new(&program, &input);
        let mut logger = mcr_search::SyncLogger::new();
        run(
            &mut vm,
            &mut DeterministicScheduler::new(),
            &mut logger,
            bug.max_steps,
        );
        let (candidates, future) = mcr_search::annotate(
            &logger.finish(),
            &report.csv_locs,
            &std::collections::HashMap::new(),
        );
        SearchFixture {
            program,
            input,
            candidates,
            future,
            failure: sf.dump.failure().expect("failure dump"),
        }
    }

    /// Runs one search with the given algorithm and parallelism.
    pub fn search(&self, algorithm: Algorithm, parallelism: usize) -> SearchResult {
        let fresh = Vm::new(&self.program, &self.input);
        let config = SearchConfig {
            parallelism,
            ..Default::default()
        };
        find_schedule(
            &fresh,
            &self.candidates,
            &self.future,
            self.failure,
            algorithm,
            &config,
        )
    }
}

/// Guided-vs-plain cell of the report.
#[derive(Debug, Clone, Copy)]
pub struct AlgoCell {
    /// Tries used until reproduction (or cutoff).
    pub tries: u64,
    /// Wall time of the search.
    pub wall: Duration,
    /// Whether the failure was reproduced.
    pub reproduced: bool,
}

/// End-to-end parallel-vs-serial comparison over the full bug suite.
#[derive(Debug, Clone)]
pub struct ParallelCell {
    /// Worker threads used for the parallel leg.
    pub parallelism: usize,
    /// Bugs measured.
    pub bugs: usize,
    /// Sum of search wall times at `parallelism = 1`.
    pub serial_search: Duration,
    /// Sum of search wall times at `parallelism = N`.
    pub parallel_search: Duration,
    /// Whether every bug's `reproduced`/`tries`/`winning` matched
    /// between the two legs (the determinism contract).
    pub identical_results: bool,
    /// Bugs reproduced (same count in both legs when
    /// `identical_results`).
    pub reproduced: usize,
}

/// Worklist growth under TSO: the store-buffer flush points become
/// CHESS preemption candidates, so the same program's worklist is
/// strictly larger than under SC. Sums are over the `WeakMemory` bugs
/// of the env-gated `mcr-workloads` fault suite, each also reproduced
/// end to end in its TSO environment.
#[derive(Debug, Clone, Copy)]
pub struct MemModelCell {
    /// TSO-only seeded bugs measured.
    pub tso_bugs: usize,
    /// How many of them the guided search reproduced end to end.
    pub reproduced: usize,
    /// Passing-run preemption candidates under `MemModel::Sc`.
    pub sc_candidates: usize,
    /// Passing-run preemption candidates under `MemModel::Tso` (the
    /// extra entries are `BeforeFlush` points).
    pub tso_candidates: usize,
    /// Worklist combinations under SC (at the default bound/pool).
    pub sc_worklist: usize,
    /// Worklist combinations under TSO.
    pub tso_worklist: usize,
}

/// Measures [`MemModelCell`]: candidate/worklist sizes of each TSO
/// bug's deterministic passing run under both memory models, plus the
/// end-to-end guided reproduction in the bug's own environment.
pub fn measure_memmodel() -> MemModelCell {
    let cfg = SearchConfig::default();
    let mut cell = MemModelCell {
        tso_bugs: 0,
        reproduced: 0,
        sc_candidates: 0,
        tso_candidates: 0,
        sc_worklist: 0,
        tso_worklist: 0,
    };
    for bug in fault_bugs() {
        if bug.requires != EnvRequirement::WeakMemory {
            continue;
        }
        cell.tso_bugs += 1;
        let program = bug.compile();
        let candidates = |model: MemModel| {
            let mut vm = Vm::new(&program, bug.input).with_mem_model(model);
            let mut log = mcr_search::SyncLogger::new();
            run(
                &mut vm,
                &mut DeterministicScheduler::new(),
                &mut log,
                bug.max_steps,
            );
            log.finish().candidates.len()
        };
        let sc = candidates(MemModel::Sc);
        let tso = candidates(bug.mem_model);
        cell.sc_candidates += sc;
        cell.tso_candidates += tso;
        cell.sc_worklist += worklist_size(sc, cfg.preemption_bound, cfg.pair_pool);
        cell.tso_worklist += worklist_size(tso, cfg.preemption_bound, cfg.pair_pool);
        let env = RunConfig {
            mem_model: bug.mem_model,
            faults: bug.faults.clone(),
        };
        let sf = find_failure_cfg(
            &program,
            bug.input,
            0..stress_seed_cap(),
            bug.max_steps,
            &env,
        )
        .unwrap_or_else(|| panic!("{}: stress found no TSO failure", bug.name));
        let report = Reproducer::new(
            &program,
            ReproOptions {
                strategy: Strategy::Temporal,
                algorithm: Algorithm::ChessX,
                mem_model: bug.mem_model,
                faults: bug.faults.clone(),
                ..Default::default()
            },
        )
        .reproduce(&sf.dump, bug.input)
        .unwrap_or_else(|e| panic!("{}: pipeline failed: {e}", bug.name));
        if report.search.reproduced {
            cell.reproduced += 1;
        }
    }
    cell
}

/// Candidate-space reduction from the static race/lockset pruning
/// (`ReproOptions::static_race`), summed over the Table 2 suite. The
/// warmup loops of every bug churn locks *before* the first spawn, so
/// their acquire/release candidates are statically Solo and pruning
/// drops them; `identical_winners` pins the soundness contract — the
/// pruned search must reproduce every bug with a bit-identical winning
/// schedule.
#[derive(Debug, Clone, Copy)]
pub struct StaticRaceCell {
    /// Bugs measured (the whole Table 2 suite).
    pub bugs: usize,
    /// How many the pruned search reproduced end to end.
    pub reproduced: usize,
    /// Passing-run preemption candidates without pruning.
    pub unpruned_candidates: usize,
    /// Candidates surviving the static-race prune.
    pub pruned_candidates: usize,
    /// Worklist combinations without pruning (default bound/pool).
    pub unpruned_worklist: usize,
    /// Worklist combinations after pruning.
    pub pruned_worklist: usize,
    /// Whether every bug's winning schedule was bit-identical between
    /// the pruned and unpruned reproductions.
    pub identical_winners: bool,
}

impl StaticRaceCell {
    /// Candidate-count reduction factor (unpruned / pruned).
    pub fn reduction(&self) -> f64 {
        if self.pruned_candidates > 0 {
            self.unpruned_candidates as f64 / self.pruned_candidates as f64
        } else {
            0.0
        }
    }
}

/// Measures [`StaticRaceCell`]: per-bug candidate counts of the
/// deterministic passing run with and without the static-race prune,
/// plus a full pruned-vs-unpruned reproduction of each bug comparing
/// the winning preemption points.
pub fn measure_static_race() -> StaticRaceCell {
    use mcr_analysis::RaceAnalysis;
    use std::collections::{HashMap, HashSet};

    let cfg = SearchConfig::default();
    let mut cell = StaticRaceCell {
        bugs: 0,
        reproduced: 0,
        unpruned_candidates: 0,
        pruned_candidates: 0,
        unpruned_worklist: 0,
        pruned_worklist: 0,
        identical_winners: true,
    };
    for bug in all_bugs() {
        cell.bugs += 1;
        let program = bug.compile();
        let input = bug.default_input();

        // Candidate counts from the deterministic passing run (the same
        // run the align phase replays), with no CSV context: the prune
        // is purely static, so dump-free counts are the honest measure.
        let mut vm = Vm::new(&program, &input);
        let mut log = mcr_search::SyncLogger::new();
        run(
            &mut vm,
            &mut DeterministicScheduler::new(),
            &mut log,
            bug.max_steps,
        );
        let info = log.finish();
        let race = RaceAnalysis::analyze(&program);
        let (unpruned, _) = mcr_search::annotate(&info, &HashSet::new(), &HashMap::new());
        let (pruned, _) = mcr_search::annotate_with_race(
            &info,
            &HashSet::new(),
            &HashMap::new(),
            Some(race.verdicts()),
        );
        cell.unpruned_candidates += unpruned.len();
        cell.pruned_candidates += pruned.len();
        cell.unpruned_worklist +=
            worklist_size(unpruned.len(), cfg.preemption_bound, cfg.pair_pool);
        cell.pruned_worklist += worklist_size(pruned.len(), cfg.preemption_bound, cfg.pair_pool);

        // End-to-end winner identity: the same stress dump reproduced
        // with the knob off and on.
        let sf = find_failure_par(
            &program,
            &input,
            0..stress_seed_cap(),
            bug.max_steps,
            minipool::available_parallelism(),
        )
        .unwrap_or_else(|| panic!("{}: stress found no failure", bug.name));
        let reproduce = |static_race: bool| {
            Reproducer::new(
                &program,
                ReproOptions {
                    strategy: Strategy::Temporal,
                    algorithm: Algorithm::ChessX,
                    static_race,
                    ..Default::default()
                },
            )
            .reproduce(&sf.dump, &input)
            .unwrap_or_else(|e| panic!("{}: pipeline failed: {e}", bug.name))
        };
        let off = reproduce(false);
        let on = reproduce(true);
        let points = |r: &mcr_core::ReproReport| {
            r.search
                .winning
                .as_ref()
                .map(|w| w.iter().map(|c| c.point).collect::<Vec<_>>())
        };
        if off.search.reproduced != on.search.reproduced || points(&off) != points(&on) {
            cell.identical_winners = false;
        }
        if on.search.reproduced {
            cell.reproduced += 1;
        }
    }
    cell
}

/// The full `search_hotpath` report serialized to `BENCH_search.json`.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Revision, host and repetition count the report was measured with.
    pub stamp: Stamp,
    /// One checkpoint on the heap-rich fixture, nanoseconds.
    pub checkpoint_clone_ns: f64,
    /// Interpreter throughput, statements/second.
    pub steps_per_sec: f64,
    /// Completed test executions per second (plain CHESS on the search
    /// fixture).
    pub tries_per_sec: f64,
    /// ChessX on the search fixture.
    pub guided: AlgoCell,
    /// Plain CHESS on the search fixture.
    pub plain: AlgoCell,
    /// TSO worklist growth and env-gated reproduction.
    pub memmodel: MemModelCell,
    /// Bug-suite parallel comparison.
    pub parallel: ParallelCell,
    /// Static race pruning: candidate reduction + winner identity.
    pub static_race: StaticRaceCell,
}

/// Runs one serial search on the fixture, timing the call.
fn algo_cell(fixture: &SearchFixture, algorithm: Algorithm) -> AlgoCell {
    let t0 = Instant::now();
    let r = fixture.search(algorithm, 1);
    AlgoCell {
        tries: r.tries,
        wall: t0.elapsed(),
        reproduced: r.reproduced,
    }
}

/// Stress-seed cap for the suite measurement, mirroring the
/// `MCR_TEST_TIER` tiers of `mcr-testsupport` (smoke by default so the
/// CI bench step stays fast; `MCR_TEST_TIER=full` restores paper scale).
fn stress_seed_cap() -> u64 {
    match std::env::var("MCR_TEST_TIER") {
        Ok(v) if v.eq_ignore_ascii_case("full") => 2_000_000,
        _ => 200_000,
    }
}

/// Runs the guided search over every `mcr-workloads` bug at
/// `parallelism = 1` and `parallelism = n`, comparing wall time and
/// asserting result equality.
pub fn measure_parallel_suite(parallelism: usize) -> ParallelCell {
    let bugs = all_bugs();
    let mut serial_search = Duration::ZERO;
    let mut parallel_search = Duration::ZERO;
    let mut identical = true;
    let mut reproduced = 0usize;
    for bug in &bugs {
        let program = bug.compile();
        let input = bug.default_input();
        let sf = find_failure_par(
            &program,
            &input,
            0..stress_seed_cap(),
            bug.max_steps,
            parallelism,
        )
        .unwrap_or_else(|| panic!("{}: stress found no failure", bug.name));
        let reproduce = |par: usize| {
            let reproducer = Reproducer::new(
                &program,
                ReproOptions {
                    strategy: Strategy::Temporal,
                    algorithm: Algorithm::ChessX,
                    parallelism: par,
                    ..Default::default()
                },
            );
            let mut session = reproducer
                .session(&sf.dump, &input)
                .unwrap_or_else(|e| panic!("{}: pipeline failed: {e}", bug.name));
            let report = session
                .run_to_end()
                .unwrap_or_else(|e| panic!("{}: pipeline failed: {e}", bug.name));
            (report, session.timings().search)
        };
        // Two alternating rounds per leg, best wall time kept: the legs
        // run identical search code when the fan-out clamps to one core,
        // so single-sample scheduling noise must not be read as a
        // parallel regression (or a win).
        let (serial, serial_wall) = reproduce(1);
        let (par, par_wall) = reproduce(parallelism);
        let serial_wall = serial_wall.min(reproduce(1).1);
        let par_wall = par_wall.min(reproduce(parallelism).1);
        serial_search += serial_wall;
        parallel_search += par_wall;
        let points = |r: &SearchResult| {
            r.winning
                .as_ref()
                .map(|w| w.iter().map(|c| c.point).collect::<Vec<_>>())
        };
        if serial.search.reproduced != par.search.reproduced
            || serial.search.tries != par.search.tries
            || points(&serial.search) != points(&par.search)
        {
            identical = false;
        }
        if par.search.reproduced {
            reproduced += 1;
        }
    }
    ParallelCell {
        parallelism,
        bugs: bugs.len(),
        serial_search,
        parallel_search,
        identical_results: identical,
        reproduced,
    }
}

/// Produces the full report: stresses and reproduces the whole bug
/// suite twice (a couple of minutes at the default smoke-tier stress
/// budget; `MCR_TEST_TIER=full` raises it to paper scale).
pub fn bench_report() -> BenchReport {
    let checkpoint_clone_ns = measure_checkpoint_clone_ns();
    let steps_per_sec = measure_steps_per_sec();
    let fixture = SearchFixture::prepare();
    let plain = algo_cell(&fixture, Algorithm::Chess);
    let guided = algo_cell(&fixture, Algorithm::ChessX);
    let tries_per_sec = if plain.wall.as_secs_f64() > 0.0 {
        plain.tries as f64 / plain.wall.as_secs_f64()
    } else {
        0.0
    };
    // At least two workers even on single-core machines, so the recorded
    // artifact always exercises (and equivalence-checks) the parallel
    // engine; the speedup column is only meaningful with real cores.
    let memmodel = measure_memmodel();
    let parallel = measure_parallel_suite(minipool::available_parallelism().max(2));
    let static_race = measure_static_race();
    BenchReport {
        stamp: Stamp::of_this_host(SAMPLES),
        checkpoint_clone_ns,
        steps_per_sec,
        tries_per_sec,
        guided,
        plain,
        memmodel,
        parallel,
        static_race,
    }
}

impl BenchReport {
    /// Serializes the report as pretty-printed JSON (hand-rolled: the
    /// environment has no serde).
    pub fn to_json(&self) -> String {
        let speedup = if self.parallel.parallel_search.as_secs_f64() > 0.0 {
            self.parallel.serial_search.as_secs_f64() / self.parallel.parallel_search.as_secs_f64()
        } else {
            0.0
        };
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"schema\": \"mcr-bench/search_hotpath/v1\",");
        let _ = writeln!(s, "  \"stamp\": {},", self.stamp.to_json());
        let _ = writeln!(
            s,
            "  \"checkpoint_clone_ns\": {:.1},",
            self.checkpoint_clone_ns
        );
        let _ = writeln!(
            s,
            "  \"checkpoint_fixture\": \"256 heap objects x 64 slots\","
        );
        let _ = writeln!(s, "  \"steps_per_sec\": {:.0},", self.steps_per_sec);
        let _ = writeln!(s, "  \"tries_per_sec\": {:.1},", self.tries_per_sec);
        let _ = writeln!(
            s,
            "  \"guided\": {{\"tries\": {}, \"wall_ms\": {:.3}, \"reproduced\": {}}},",
            self.guided.tries,
            self.guided.wall.as_secs_f64() * 1e3,
            self.guided.reproduced
        );
        let _ = writeln!(
            s,
            "  \"plain\": {{\"tries\": {}, \"wall_ms\": {:.3}, \"reproduced\": {}}},",
            self.plain.tries,
            self.plain.wall.as_secs_f64() * 1e3,
            self.plain.reproduced
        );
        let growth = if self.memmodel.sc_worklist > 0 {
            self.memmodel.tso_worklist as f64 / self.memmodel.sc_worklist as f64
        } else {
            0.0
        };
        let _ = writeln!(s, "  \"memmodel\": {{");
        let _ = writeln!(s, "    \"tso_bugs\": {},", self.memmodel.tso_bugs);
        let _ = writeln!(s, "    \"reproduced\": {},", self.memmodel.reproduced);
        let _ = writeln!(s, "    \"sc_candidates\": {},", self.memmodel.sc_candidates);
        let _ = writeln!(
            s,
            "    \"tso_candidates\": {},",
            self.memmodel.tso_candidates
        );
        let _ = writeln!(s, "    \"sc_worklist\": {},", self.memmodel.sc_worklist);
        let _ = writeln!(s, "    \"tso_worklist\": {},", self.memmodel.tso_worklist);
        let _ = writeln!(s, "    \"worklist_growth\": {growth:.2}");
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"parallel\": {{");
        let _ = writeln!(s, "    \"parallelism\": {},", self.parallel.parallelism);
        let _ = writeln!(s, "    \"bugs\": {},", self.parallel.bugs);
        let _ = writeln!(s, "    \"reproduced\": {},", self.parallel.reproduced);
        let _ = writeln!(
            s,
            "    \"serial_search_ms\": {:.3},",
            self.parallel.serial_search.as_secs_f64() * 1e3
        );
        let _ = writeln!(
            s,
            "    \"parallel_search_ms\": {:.3},",
            self.parallel.parallel_search.as_secs_f64() * 1e3
        );
        let _ = writeln!(s, "    \"speedup\": {speedup:.2},");
        let _ = writeln!(
            s,
            "    \"identical_results\": {}",
            self.parallel.identical_results
        );
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"static_race\": {{");
        let _ = writeln!(s, "    \"bugs\": {},", self.static_race.bugs);
        let _ = writeln!(s, "    \"reproduced\": {},", self.static_race.reproduced);
        let _ = writeln!(
            s,
            "    \"unpruned_candidates\": {},",
            self.static_race.unpruned_candidates
        );
        let _ = writeln!(
            s,
            "    \"pruned_candidates\": {},",
            self.static_race.pruned_candidates
        );
        let _ = writeln!(
            s,
            "    \"unpruned_worklist\": {},",
            self.static_race.unpruned_worklist
        );
        let _ = writeln!(
            s,
            "    \"pruned_worklist\": {},",
            self.static_race.pruned_worklist
        );
        let _ = writeln!(
            s,
            "    \"candidate_reduction\": {:.2},",
            self.static_race.reduction()
        );
        let _ = writeln!(
            s,
            "    \"identical_winners\": {}",
            self.static_race.identical_winners
        );
        let _ = writeln!(s, "  }}");
        let _ = write!(s, "}}");
        s
    }
}

/// Keys every `BENCH_search.json` must carry; `tables -- bench-json`
/// refuses to write a report that drops one, so downstream trend
/// tooling never silently loses a column.
pub const BENCH_JSON_REQUIRED: &[&str] = &[
    "\"steps_per_sec\"",
    "\"memmodel\"",
    "\"tso_worklist\"",
    "\"worklist_growth\"",
    "\"speedup\"",
    "\"identical_results\"",
    "\"static_race\"",
    "\"candidate_reduction\"",
    "\"identical_winners\"",
    "\"stamp\"",
    "\"rev\"",
    "\"nproc\"",
    "\"reps\"",
];

/// Validates the serialized search bench report against
/// [`BENCH_JSON_REQUIRED`].
///
/// # Errors
///
/// Returns the first missing key.
pub fn check_bench_json_schema(json: &str) -> Result<(), String> {
    for key in BENCH_JSON_REQUIRED {
        if !json.contains(key) {
            return Err(format!("BENCH_search.json schema: missing {key}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stamp::json_keys;

    #[test]
    fn checkpoint_clone_is_cow_fast() {
        // The acceptance bar for this PR: >= 5x faster than the ~57.5 us
        // deep clone the seed performed on this fixture. COW clones are
        // orders of magnitude below that; 11.5 us leaves slack for slow
        // CI machines while still proving the 5x.
        let ns = measure_checkpoint_clone_ns();
        assert!(ns < 11_500.0, "checkpoint clone too slow: {ns} ns");
    }

    /// A report with every section filled, as `tables -- bench-json`
    /// writes one.
    fn sample_report() -> BenchReport {
        BenchReport {
            stamp: Stamp {
                rev: "0123456789ab".to_string(),
                nproc: 8,
                reps: SAMPLES,
            },
            checkpoint_clone_ns: 74.0,
            steps_per_sec: 2e7,
            tries_per_sec: 1e3,
            guided: AlgoCell {
                tries: 3,
                wall: Duration::from_millis(2),
                reproduced: true,
            },
            plain: AlgoCell {
                tries: 40,
                wall: Duration::from_millis(20),
                reproduced: true,
            },
            memmodel: MemModelCell {
                tso_bugs: 2,
                reproduced: 2,
                sc_candidates: 12,
                tso_candidates: 16,
                sc_worklist: 78,
                tso_worklist: 136,
            },
            parallel: ParallelCell {
                parallelism: 8,
                bugs: 7,
                serial_search: Duration::from_millis(700),
                parallel_search: Duration::from_millis(200),
                identical_results: true,
                reproduced: 7,
            },
            static_race: StaticRaceCell {
                bugs: 7,
                reproduced: 7,
                unpruned_candidates: 4200,
                pruned_candidates: 2100,
                unpruned_worklist: 90_000,
                pruned_worklist: 40_000,
                identical_winners: true,
            },
        }
    }

    #[test]
    fn report_json_shape() {
        let json = sample_report().to_json();
        for key in [
            "\"stamp\": {\"rev\": \"0123456789ab\", \"nproc\": 8, \"reps\": 9}",
            "\"checkpoint_clone_ns\"",
            "\"steps_per_sec\"",
            "\"tries_per_sec\"",
            "\"guided\"",
            "\"plain\"",
            "\"memmodel\"",
            "\"tso_worklist\": 136",
            "\"worklist_growth\": 1.74",
            "\"parallelism\"",
            "\"speedup\"",
            "\"identical_results\": true",
            "\"static_race\"",
            "\"candidate_reduction\": 2.00",
            "\"identical_winners\": true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        check_bench_json_schema(&json).expect("full report passes the schema check");
    }

    #[test]
    fn checked_in_report_has_the_current_shape() {
        let file = include_str!("../../../BENCH_search.json");
        check_bench_json_schema(file).expect("BENCH_search.json passes the schema check");
        assert_eq!(
            json_keys(file),
            json_keys(&sample_report().to_json()),
            "BENCH_search.json is stale: regenerate it with `tables -- bench-json`"
        );
    }

    #[test]
    fn schema_check_rejects_dropped_keys() {
        let err = check_bench_json_schema("{\"schema\": \"mcr-bench/search_hotpath/v1\"}")
            .expect_err("gutted report must fail");
        assert!(
            err.contains("steps_per_sec"),
            "first missing key named: {err}"
        );
    }
}
