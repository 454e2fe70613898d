//! The run driver against its list-collecting reference.
//!
//! `mcr_vm::run` lets the scheduler ask the VM which threads can step
//! instead of collecting the runnable list before every step.
//! `mcr_testsupport::reference_run` is the driver as it was, with both
//! schedulers' policies restated over the collected list. For every
//! seeded bug (the 7 Table 2 bugs and the 4 environment-gated ones),
//! both must give the same outcome, step count and event stream under
//! the deterministic scheduler and under 50 stress seeds, and the
//! stress scan must settle on the same seed and dump bytes.

use mcr_core::{find_failure_cfg, RunConfig};
use mcr_dump::CoreDump;
use mcr_lang::Program;
use mcr_testsupport::{fault_bug_env, reference_run, seeds, ReferencePolicy};
use mcr_vm::{
    run, DeterministicScheduler, MemModel, NullObserver, Outcome, Recorder, Scheduler,
    StressScheduler, Vm,
};

/// Stress seeds per bug and environment.
const STRESS_SEEDS: usize = 50;

/// Seeds the stress-scan comparison covers from 0.
const SCAN_SEEDS: u64 = 200_000;

/// One seeded bug in one execution environment.
struct Case {
    name: String,
    program: Program,
    input: Vec<i64>,
    env: RunConfig,
    max_steps: u64,
}

impl Case {
    fn vm(&self) -> Vm<'_> {
        Vm::new(&self.program, &self.input)
            .with_mem_model(self.env.mem_model)
            .with_faults(&self.env.faults)
    }
}

/// The Table 2 bugs under SC and TSO, and the environment-gated bugs in
/// their own environments.
fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for bug in mcr_workloads::all_bugs() {
        for mem_model in [MemModel::Sc, MemModel::tso()] {
            cases.push(Case {
                name: format!("{} {mem_model:?}", bug.name),
                program: bug.compile(),
                input: bug.default_input(),
                env: RunConfig {
                    mem_model,
                    faults: Vec::new(),
                },
                max_steps: bug.max_steps,
            });
        }
    }
    for bug in mcr_workloads::fault_bugs() {
        cases.push(Case {
            name: bug.name.to_string(),
            program: bug.compile(),
            input: bug.input.to_vec(),
            env: fault_bug_env(&bug),
            max_steps: bug.max_steps,
        });
    }
    cases
}

/// Runs `case` once through the driver and once through the reference,
/// both recorded, and checks they agree. Returns the outcome.
fn assert_same_run(
    case: &Case,
    sched: &mut dyn Scheduler,
    policy: ReferencePolicy,
    what: &str,
) -> Outcome {
    let mut vm = case.vm();
    let mut events = Recorder::default();
    let outcome = run(&mut vm, sched, &mut events, case.max_steps);
    let mut reference_vm = case.vm();
    let mut reference_events = Recorder::default();
    let reference_outcome = reference_run(
        &mut reference_vm,
        policy,
        &mut reference_events,
        case.max_steps,
    );
    let case = format!("{} {what}", case.name);
    assert_eq!(outcome, reference_outcome, "{case}: outcome");
    assert_eq!(vm.steps(), reference_vm.steps(), "{case}: steps");
    assert!(
        events.events == reference_events.events,
        "{case}: event streams differ"
    );
    outcome
}

#[test]
fn driver_matches_the_list_collecting_reference() {
    let cases = cases();
    assert_eq!(cases.len(), 7 * 2 + 4);
    let mut crashed = 0;
    for case in &cases {
        assert_same_run(
            case,
            &mut DeterministicScheduler::new(),
            ReferencePolicy::Deterministic,
            "deterministic",
        );
        for seed in seeds(&case.name, STRESS_SEEDS) {
            let outcome = assert_same_run(
                case,
                &mut StressScheduler::new(seed),
                ReferencePolicy::Stress(seed),
                &format!("stress seed {seed}"),
            );
            crashed += usize::from(matches!(outcome, Outcome::Crashed(_)));
        }
    }
    // The comparison covers crashing runs as well as passing ones.
    assert!(crashed > 0, "no stress run crashed");
}

/// `find_failure_cfg`'s scan, run through the reference driver.
fn reference_scan(case: &Case) -> Option<(u64, Vec<u8>)> {
    (0..SCAN_SEEDS).find_map(|seed| {
        let mut vm = case.vm();
        let outcome = reference_run(
            &mut vm,
            ReferencePolicy::Stress(seed),
            &mut NullObserver,
            case.max_steps,
        );
        matches!(outcome, Outcome::Crashed(_)).then(|| {
            let dump = CoreDump::capture_failure(&vm).expect("crashed");
            (seed, mcr_dump::encode(&dump))
        })
    })
}

#[test]
fn stress_scan_finds_the_reference_seed_and_dump() {
    for case in cases() {
        let found = find_failure_cfg(
            &case.program,
            &case.input,
            0..SCAN_SEEDS,
            case.max_steps,
            &case.env,
        )
        .map(|sf| (sf.seed, mcr_dump::encode(&sf.dump)));
        let want = reference_scan(&case);
        assert!(want.is_some(), "{}: stress found no failure", case.name);
        assert!(found == want, "{}: seed or dump bytes differ", case.name);
    }
}
