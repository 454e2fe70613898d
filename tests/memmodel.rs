//! End-to-end reproduction under non-default execution environments:
//! the TSO store-buffer bugs (SC-unreachable by construction) and the
//! fault-injection bugs (dead code without their fault plan), each
//! driven through the full dump → diff → rank → search pipeline in the
//! environment where the bug lives.

use mcr_core::{
    find_failure, find_failure_cfg, passes_deterministically_cfg, ReproOptions, Reproducer,
};
use mcr_search::Algorithm;
use mcr_slice::Strategy;
use mcr_testsupport::{
    fault_bug_env, repro_options_env, stress_fault_bug, stress_seed_cap, FIG1, FIG1_INPUT,
    FIXTURE_MAX_STEPS,
};
use mcr_vm::MemModel;
use mcr_workloads::{fault_bug_by_name, fault_bugs, EnvRequirement};

/// The weak-memory half of the paper's story, end to end: each TSO bug
/// passes deterministically even under TSO, crashes under stressed TSO
/// interleavings, and the dump-directed search reproduces it — all in
/// the same session environment.
#[test]
fn tso_bugs_reproduce_end_to_end() {
    for bug in fault_bugs() {
        if bug.requires != EnvRequirement::WeakMemory {
            continue;
        }
        let (program, sf) = stress_fault_bug(&bug);
        assert!(
            passes_deterministically_cfg(&program, bug.input, bug.max_steps, &fault_bug_env(&bug)),
            "{}: not a Heisenbug under TSO",
            bug.name
        );
        let reproducer = Reproducer::new(
            &program,
            repro_options_env(Algorithm::ChessX, Strategy::Temporal, &bug),
        );
        let report = reproducer.reproduce(&sf.dump, bug.input).unwrap();
        assert!(
            report.search.reproduced,
            "{}: not reproduced (tries {})",
            bug.name, report.search.tries
        );
        assert!(report.search.winning.as_ref().unwrap().len() <= 2);
    }
}

/// The winning TSO schedule is deterministic: reproducing twice from
/// the same dump yields the identical schedule and counts.
#[test]
fn tso_reproduction_is_deterministic() {
    let bug = fault_bug_by_name("tso-sb").unwrap();
    let (program, sf) = stress_fault_bug(&bug);
    let mk = || {
        Reproducer::new(
            &program,
            repro_options_env(Algorithm::ChessX, Strategy::Temporal, &bug),
        )
        .reproduce(&sf.dump, bug.input)
        .unwrap()
    };
    let a = mk();
    let b = mk();
    assert_eq!(a, b, "tso-sb");
}

/// SC provably cannot reach the TSO failures: the same stress budget
/// that exposes each bug under TSO finds nothing under SC.
#[test]
fn tso_failures_are_unreachable_under_sc() {
    for bug in fault_bugs() {
        if bug.requires != EnvRequirement::WeakMemory {
            continue;
        }
        let program = bug.compile();
        // Under TSO the crash appears within the tier budget...
        let tso = find_failure_cfg(
            &program,
            bug.input,
            0..stress_seed_cap(),
            bug.max_steps,
            &fault_bug_env(&bug),
        );
        assert!(tso.is_some(), "{}: no TSO failure", bug.name);
        // ...and under SC the identical seed range stays silent.
        let sc = find_failure(&program, bug.input, 0..stress_seed_cap(), bug.max_steps);
        assert!(sc.is_none(), "{}: crashed under SC", bug.name);
    }
}

/// The fault-injection bugs complete the same pipeline: injected
/// allocation failures / lock timeouts crash under stress, the failure
/// carries its fault tag through the dump, and the search reproduces it
/// with the fault plan armed.
#[test]
fn fault_bugs_reproduce_end_to_end() {
    for bug in fault_bugs() {
        if bug.requires != EnvRequirement::FaultInjection {
            continue;
        }
        let (program, sf) = stress_fault_bug(&bug);
        assert!(
            passes_deterministically_cfg(&program, bug.input, bug.max_steps, &fault_bug_env(&bug)),
            "{}: not a Heisenbug with the fault plan armed",
            bug.name
        );
        // The failure dump remembers the injected fault.
        let failure = sf.dump.failure().expect("failure dump");
        assert!(
            failure.fault.is_some(),
            "{}: failure lost its fault tag",
            bug.name
        );
        let reproducer = Reproducer::new(
            &program,
            repro_options_env(Algorithm::ChessX, Strategy::Temporal, &bug),
        );
        let report = reproducer.reproduce(&sf.dump, bug.input).unwrap();
        assert!(
            report.search.reproduced,
            "{}: not reproduced (tries {})",
            bug.name, report.search.tries
        );
    }
}

/// Without the fault plan, the fault bugs never crash — the recovery
/// paths are dead code, under either memory model.
#[test]
fn fault_bugs_need_their_fault_plan() {
    for bug in fault_bugs() {
        if bug.requires != EnvRequirement::FaultInjection {
            continue;
        }
        let program = bug.compile();
        let unarmed = mcr_core::RunConfig {
            mem_model: bug.mem_model,
            faults: Vec::new(),
        };
        let sc = find_failure_cfg(
            &program,
            bug.input,
            0..stress_seed_cap(),
            bug.max_steps,
            &unarmed,
        );
        assert!(sc.is_none(), "{}: crashed without faults", bug.name);
    }
}

/// SC is a pure superset: the default options are SC + no faults, and a
/// session explicitly configured that way is observably identical to
/// one using the defaults — the memory-model machinery costs SC nothing
/// in behavior.
#[test]
fn explicit_sc_session_matches_default() {
    let program = mcr_lang::compile(FIG1).unwrap();
    let sf = find_failure(
        &program,
        &FIG1_INPUT,
        0..stress_seed_cap(),
        FIXTURE_MAX_STEPS,
    )
    .expect("fig1 race fires under stress");

    let defaults = ReproOptions::default();
    assert_eq!(defaults.mem_model, MemModel::Sc);
    assert!(defaults.faults.is_empty());

    // Built from struct defaults (not the testsupport helper, whose
    // memory model follows the MCR_TEST_MEMMODEL matrix): this test is
    // *about* SC being the default, so it pins its own environment.
    let opts = ReproOptions {
        algorithm: Algorithm::ChessX,
        strategy: Strategy::Temporal,
        search: mcr_search::SearchConfig {
            max_tries: mcr_testsupport::search_max_tries(),
            ..Default::default()
        },
        ..Default::default()
    };
    let explicit = ReproOptions {
        mem_model: MemModel::Sc,
        faults: Vec::new(),
        ..opts.clone()
    };
    let a = Reproducer::new(&program, opts)
        .reproduce(&sf.dump, &FIG1_INPUT)
        .unwrap();
    let b = Reproducer::new(&program, explicit)
        .reproduce(&sf.dump, &FIG1_INPUT)
        .unwrap();
    assert_eq!(a, b, "explicit SC");
}

/// A TSO failure dump decodes back to the exact capture (the v2 codec
/// carries the frozen store buffers), and the decoded dump drives the
/// reproduction just like the live one.
#[test]
fn tso_reproduction_from_reparsed_dump() {
    let bug = fault_bug_by_name("tso-dekker").unwrap();
    let (program, sf) = stress_fault_bug(&bug);
    let bytes = mcr_dump::encode(&sf.dump);
    let reparsed = mcr_dump::decode(&bytes).unwrap();
    assert_eq!(reparsed, sf.dump);
    let report = Reproducer::new(
        &program,
        repro_options_env(Algorithm::ChessX, Strategy::Temporal, &bug),
    )
    .reproduce(&reparsed, bug.input)
    .unwrap();
    assert!(report.search.reproduced, "tso-dekker via reparsed dump");
}
