//! The rank phase against the full-trace ranking it replaced.
//!
//! The diff phase projects the passing run onto the accesses to the
//! critical shared variables: under the temporal strategy from the
//! align phase's shared-access log, under the dependence strategy from
//! a sliced dependence trace it then drops. The rank phase orders that
//! projection. Before, the diff artifact carried the whole trace and the
//! rank phase scanned it. `reference_rank` below is that scan, kept
//! test-only: for every seeded Table 2 bug under SC and TSO, both
//! strategies, and both the default window and a 64-event one, the rank
//! phase's artifact must be byte-identical to the reference's ranking of
//! the same aligned replay. The instruction-count alignment mode runs
//! the same cases.

use mcr_core::{
    find_failure_cfg, AlignMode, RankedAccessesArtifact, ReproOptions, ReproSession, RunConfig,
};
use mcr_slice::{
    backward_slice, DynamicSlice, RankedAccess, Strategy, Trace, TraceCollector, TraceEvent,
    PRIORITY_BOTTOM,
};
use mcr_testsupport::stress_seed_cap;
use mcr_vm::{run_until, DeterministicScheduler, MemLoc, MemModel, Vm};
use std::collections::HashSet;

/// The ranking as it ran on the whole trace: every access to a CSV at
/// or before the aligned point, keyed by temporal distance or by its
/// event's slice distance, sorted by (distance, recency), then numbered
/// densely.
fn reference_rank(
    trace: &Trace,
    aligned_serial: u64,
    csv_locs: &HashSet<MemLoc>,
    strategy: Strategy,
    slice: Option<&DynamicSlice>,
) -> Vec<RankedAccess> {
    let mut accesses: Vec<(&TraceEvent, MemLoc, bool)> = Vec::new();
    for ev in trace.events() {
        if ev.serial > aligned_serial {
            break;
        }
        for &(loc, _) in trace.uses(ev) {
            if csv_locs.contains(&loc) {
                accesses.push((ev, loc, false));
            }
        }
        for &loc in trace.defs(ev) {
            if csv_locs.contains(&loc) {
                accesses.push((ev, loc, true));
            }
        }
    }
    let mut order: Vec<(u64, usize)> = accesses
        .iter()
        .enumerate()
        .map(|(i, (ev, _, _))| {
            let key = match strategy {
                Strategy::Temporal => aligned_serial - ev.serial,
                Strategy::Dependence => {
                    let s = slice.expect("dependence strategy requires a slice");
                    s.distance(ev.serial).map_or(u64::MAX, u64::from)
                }
            };
            (key, i)
        })
        .collect();
    order.sort_by_key(|&(key, i)| (key, std::cmp::Reverse(i)));
    let mut ranked: Vec<Option<u32>> = vec![None; accesses.len()];
    let mut next_priority = 1u32;
    for &(key, i) in &order {
        let p = if key == u64::MAX {
            PRIORITY_BOTTOM
        } else {
            let p = next_priority;
            next_priority += 1;
            p
        };
        ranked[i] = Some(p);
    }
    accesses
        .iter()
        .enumerate()
        .map(|(i, (ev, loc, is_write))| RankedAccess {
            serial: ev.serial,
            step: ev.step,
            tid: ev.tid,
            pc: ev.pc,
            loc: *loc,
            is_write: *is_write,
            priority: ranked[i].expect("all accesses ranked"),
        })
        .collect()
}

/// What one case covered, so the test can show it exercised the
/// interesting paths and not just empty projections.
#[derive(Default)]
struct Coverage {
    ranked: usize,
    bottom: usize,
    /// Windowed cases whose trace reads a value written before the
    /// window began.
    dangling_writers: usize,
}

fn check_case(
    bug: &mcr_workloads::BugSpec,
    program: &mcr_lang::Program,
    sf: &mcr_core::StressFailure,
    options: ReproOptions,
    coverage: &mut Coverage,
) {
    let input = bug.default_input();
    let case = format!(
        "{} {:?} {:?} {:?} window={}",
        bug.name, options.mem_model, options.align_mode, options.strategy, options.trace_window
    );
    let mut session = ReproSession::new(program, sf.dump.clone(), &input, options.clone())
        .unwrap_or_else(|e| panic!("{case}: {e}"));
    let ranked = session
        .run_rank()
        .unwrap_or_else(|e| panic!("{case}: {e}"))
        .ranked
        .clone();
    let delta = session.delta_artifact().expect("diff ran");
    let alignment = session.alignment_artifact().expect("align ran").alignment;

    // The diff phase's replay, traced in full.
    let analysis = mcr_analysis::ProgramAnalysis::analyze(program);
    let mut vm = Vm::new(program, &input).with_mem_model(options.mem_model);
    let mut collector = TraceCollector::new(&analysis, options.trace_window);
    run_until(
        &mut vm,
        &mut DeterministicScheduler::new(),
        &mut collector,
        options.max_steps,
        |vm| vm.steps() > alignment.step,
    );
    let trace = collector.finish();
    let aligned_serial = trace.last().map_or(0, |e| e.serial);
    assert_eq!(
        delta.aligned_serial, aligned_serial,
        "{case}: aligned serial"
    );
    let slice = (options.strategy == Strategy::Dependence)
        .then(|| backward_slice(&trace, &[aligned_serial]));
    let csv_set: HashSet<MemLoc> = delta.csv_locs.iter().copied().collect();
    let reference = reference_rank(
        &trace,
        aligned_serial,
        &csv_set,
        options.strategy,
        slice.as_ref(),
    );

    let bytes = |ranked: Vec<RankedAccess>| RankedAccessesArtifact { ranked }.to_bytes();
    assert!(
        bytes(ranked.clone()) == bytes(reference),
        "{case}: rank phase differs from the full-trace ranking"
    );
    coverage.ranked += ranked.len();
    coverage.bottom += ranked
        .iter()
        .filter(|r| r.priority == PRIORITY_BOTTOM)
        .count();
    if let Some(first) = trace.events().first() {
        let dangling = trace.events().iter().any(|e| {
            trace
                .uses(e)
                .iter()
                .any(|&(_, w)| w.is_some_and(|w| w < first.serial))
        });
        coverage.dangling_writers += usize::from(dangling);
    }
}

#[test]
fn rank_phase_matches_full_trace_ranking() {
    let mut full = Coverage::default();
    let mut windowed = Coverage::default();
    let mut instruction_count = Coverage::default();
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
            for strategy in [Strategy::Temporal, Strategy::Dependence] {
                let default_window = ReproOptions::default().trace_window;
                for (window, coverage) in [(default_window, &mut full), (64, &mut windowed)] {
                    let options = ReproOptions {
                        strategy,
                        mem_model,
                        trace_window: window,
                        parallelism: 1,
                        ..Default::default()
                    };
                    check_case(&bug, &program, &sf, options, coverage);
                }
                // The instruction-count alignment baseline (Table 5)
                // locates the aligned point differently.
                for window in [default_window, 64] {
                    let options = ReproOptions {
                        strategy,
                        align_mode: AlignMode::InstructionCount,
                        mem_model,
                        trace_window: window,
                        parallelism: 1,
                        ..Default::default()
                    };
                    check_case(&bug, &program, &sf, options, &mut instruction_count);
                }
            }
        }
    }
    assert!(full.ranked > 0 && full.bottom > 0, "full-window coverage");
    assert!(
        windowed.ranked > 0 && windowed.dangling_writers > 0,
        "64-event window coverage"
    );
    assert!(
        instruction_count.ranked > 0 && instruction_count.dangling_writers > 0,
        "instruction-count alignment coverage"
    );
}
