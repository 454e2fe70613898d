//! The align phase's aligned dump against a fresh replay.
//!
//! The align phase captures the aligned dump from a snapshot taken
//! during its own deterministic run, and the diff phase reads the
//! temporal strategy's CSV accesses from that run's log. Before, the
//! diff phase replayed the passing run from a fresh VM to just past the
//! aligned step and captured the dump there. `reference` below is that
//! replay, kept test-only: for every seeded Table 2 bug under SC and
//! TSO, both alignment modes and both strategies, the align artifact's
//! dump bytes, and the delta artifact's aligned serial, CSV paths and
//! CSV locations, must equal what the replay gives.
//!
//! The align phase also logs its run through one fused observer that
//! feeds the aligner, the search's sync logger and the return-store log
//! from a single `match`. Its logs must equal what the standalone
//! `SyncLogger` and `Aligner` give over a fresh run of their own.

use mcr_analysis::ProgramAnalysis;
use mcr_core::{find_failure_cfg, AlignMode, ReproOptions, ReproSession, RunConfig};
use mcr_dump::{reachable_vars, resolve_loc, CoreDump, DumpReason, RefPath, ResolvedVar};
use mcr_index::{reverse_index, Aligner};
use mcr_lang::Pc;
use mcr_search::SyncLogger;
use mcr_slice::{Strategy, TraceCollector};
use mcr_testsupport::{compare_maps, stress_seed_cap};
use mcr_vm::{
    run, run_until, DeterministicScheduler, Event, MemLoc, MemModel, Observer, Outcome, ThreadId,
    Vm,
};

/// What the replay-based diff phase produced.
struct Reference {
    aligned_dump: Vec<u8>,
    aligned_serial: u64,
    csv_paths: Vec<RefPath>,
    csv_locs: Vec<MemLoc>,
}

/// Replays the passing run from a fresh VM to just past `step`, traced,
/// captures the aligned dump there and diffs it against the failure
/// dump.
fn reference(
    program: &mcr_lang::Program,
    input: &[i64],
    failure_dump: &CoreDump,
    step: u64,
    options: &ReproOptions,
) -> Reference {
    let analysis = ProgramAnalysis::analyze(program);
    let mut vm = Vm::new(program, input).with_mem_model(options.mem_model);
    let mut collector = TraceCollector::new(&analysis, options.trace_window);
    run_until(
        &mut vm,
        &mut DeterministicScheduler::new(),
        &mut collector,
        options.max_steps,
        |vm| vm.steps() > step,
    );
    let focus = failure_dump.focus;
    let focus = if (focus.0 as usize) < vm.threads().len() {
        focus
    } else {
        ThreadId(0)
    };
    let aligned = CoreDump::capture(&vm, focus, DumpReason::Aligned);
    let diff = compare_maps(
        &reachable_vars(failure_dump, options.limits),
        &reachable_vars(&aligned, options.limits),
    );
    let csv_locs = diff
        .csvs
        .iter()
        .filter_map(|path| match resolve_loc(&aligned, path)? {
            ResolvedVar::Global(g) => Some(MemLoc::Global(g)),
            ResolvedVar::GlobalElem(g, i) => Some(MemLoc::GlobalElem(g, i)),
            ResolvedVar::Heap(o, i) => Some(MemLoc::Heap(o, i)),
            _ => None,
        })
        .collect();
    Reference {
        aligned_dump: mcr_dump::encode(&aligned),
        aligned_serial: collector.finish().last().map_or(0, |e| e.serial),
        csv_paths: diff.csvs,
        csv_locs,
    }
}

#[test]
fn aligned_dump_matches_a_fresh_replay() {
    let mut cases = 0;
    let mut with_csvs = 0;
    for bug in mcr_workloads::all_bugs() {
        let program = bug.compile();
        let input = bug.default_input();
        for mem_model in [MemModel::Sc, MemModel::tso()] {
            let env = RunConfig {
                mem_model,
                faults: Vec::new(),
            };
            let sf = find_failure_cfg(&program, &input, 0..stress_seed_cap(), bug.max_steps, &env)
                .unwrap_or_else(|| panic!("{}: stress found no failure", bug.name));
            for align_mode in [AlignMode::ExecutionIndex, AlignMode::InstructionCount] {
                for strategy in [Strategy::Temporal, Strategy::Dependence] {
                    let options = ReproOptions {
                        strategy,
                        align_mode,
                        mem_model,
                        parallelism: 1,
                        ..Default::default()
                    };
                    let case = format!("{} {mem_model:?} {align_mode:?} {strategy:?}", bug.name);
                    let mut session =
                        ReproSession::new(&program, sf.dump.clone(), &input, options.clone())
                            .unwrap_or_else(|e| panic!("{case}: {e}"));
                    session.run_diff().unwrap_or_else(|e| panic!("{case}: {e}"));
                    let align = session.alignment_artifact().expect("align ran");
                    let delta = session.delta_artifact().expect("diff ran");
                    let want =
                        reference(&program, &input, &sf.dump, align.alignment.step, &options);
                    assert!(
                        align.aligned_dump == want.aligned_dump,
                        "{case}: aligned dump differs from the replay's"
                    );
                    assert_eq!(delta.aligned_dump_bytes, want.aligned_dump.len(), "{case}");
                    assert_eq!(delta.aligned_serial, want.aligned_serial, "{case}");
                    assert_eq!(delta.csv_paths, want.csv_paths, "{case}");
                    assert_eq!(delta.csv_locs, want.csv_locs, "{case}");
                    cases += 1;
                    with_csvs += usize::from(!want.csv_locs.is_empty());
                }
            }
        }
    }
    assert_eq!(cases, 7 * 2 * 2 * 2);
    assert!(with_csvs > cases / 2, "only {with_csvs} cases found CSVs");
}

/// The return-store log on its own: the executing statement of each
/// shared store whose event carries another pc.
#[derive(Default)]
struct ReturnStores {
    stmt: Option<Pc>,
    stores: Vec<(u64, Pc)>,
}

impl Observer for ReturnStores {
    fn on_event(&mut self, step: u64, event: &Event) {
        match event {
            Event::Stmt { pc, .. } => self.stmt = Some(*pc),
            Event::Write { pc, loc, .. } | Event::StoreBuffered { pc, loc, .. }
                if loc.is_shared() && self.stmt != Some(*pc) =>
            {
                if let Some(stmt) = self.stmt {
                    self.stores.push((step, stmt));
                }
            }
            _ => {}
        }
    }
}

/// Runs the passing run from a fresh VM with `obs` alone and returns
/// the outcome.
fn fresh_run(
    program: &mcr_lang::Program,
    input: &[i64],
    options: &ReproOptions,
    obs: &mut dyn Observer,
) -> Outcome {
    let mut vm = Vm::new(program, input).with_mem_model(options.mem_model);
    run(
        &mut vm,
        &mut DeterministicScheduler::new(),
        obs,
        options.max_steps,
    )
}

#[test]
fn align_logs_match_standalone_observers() {
    let mut cases = 0;
    let mut exact = 0;
    let mut with_returns = 0;
    for bug in mcr_workloads::all_bugs() {
        let program = bug.compile();
        let analysis = ProgramAnalysis::analyze(&program);
        let input = bug.default_input();
        for mem_model in [MemModel::Sc, MemModel::tso()] {
            let env = RunConfig {
                mem_model,
                faults: Vec::new(),
            };
            let sf = find_failure_cfg(&program, &input, 0..stress_seed_cap(), bug.max_steps, &env)
                .unwrap_or_else(|| panic!("{}: stress found no failure", bug.name));
            let failure = sf.dump.failure().expect("a failure dump");
            let options = ReproOptions {
                mem_model,
                parallelism: 1,
                ..Default::default()
            };
            let mut sync = SyncLogger::new();
            let outcome = fresh_run(&program, &input, &options, &mut sync);
            let passing_run = sync.finish();
            let mut returns = ReturnStores::default();
            fresh_run(&program, &input, &options, &mut returns);
            let index = reverse_index(&program, &analysis, &sf.dump)
                .unwrap_or_else(|e| panic!("{}: {e}", bug.name));
            let mut aligner = Aligner::new(&program, &analysis, sf.dump.focus, &index);
            fresh_run(&program, &input, &options, &mut aligner);
            let alignment = aligner.finish();
            let deterministic_repro =
                matches!(outcome, Outcome::Crashed(f) if f.same_bug(&failure));

            for align_mode in [AlignMode::ExecutionIndex, AlignMode::InstructionCount] {
                let case = format!("{} {mem_model:?} {align_mode:?}", bug.name);
                let options = ReproOptions {
                    align_mode,
                    ..options.clone()
                };
                let mut session = ReproSession::new(&program, sf.dump.clone(), &input, options)
                    .unwrap_or_else(|e| panic!("{case}: {e}"));
                session
                    .run_align()
                    .unwrap_or_else(|e| panic!("{case}: {e}"));
                let align = session.alignment_artifact().expect("align ran");
                assert!(
                    align.passing_run == passing_run,
                    "{case}: passing run log differs"
                );
                assert_eq!(align.return_stores, returns.stores, "{case}: return stores");
                assert_eq!(align.deterministic_repro, deterministic_repro, "{case}");
                // Instruction-count alignment runs no aligner: its point
                // comes from the step loop's stop predicate.
                if align_mode == AlignMode::ExecutionIndex {
                    assert_eq!(align.alignment, alignment, "{case}: alignment");
                    exact += usize::from(alignment.signal == mcr_index::AlignSignal::Exact);
                }
                cases += 1;
                with_returns += usize::from(!returns.stores.is_empty());
            }
        }
    }
    assert_eq!(cases, 7 * 2 * 2);
    assert!(exact > 0, "no case aligned exactly");
    assert!(with_returns > 0, "no case logged a return store");
}
