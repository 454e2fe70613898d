//! Exhaustion-path tests for [`mcr_search::Budget`] (try cap, deadline,
//! per-run step cap) and the [`CoarseLoc`] collapsing rules the guided
//! `preempt()` overlap test depends on.

use mcr_lang::{GlobalId, LocalId};
use mcr_search::{
    annotate, coarse, find_schedule, Algorithm, Budget, CoarseLoc, Guidance, SearchConfig,
    SyncLogger, TestRun,
};
use mcr_vm::{run, DeterministicScheduler, MemLoc, ObjId, StressScheduler, ThreadId, Vm};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// A two-thread race (Fig. 1 shape, minimized): passes deterministically,
/// fails when t2's store lands inside t1's unlock/check window.
const RACE: &str = r#"
    global x: int;
    lock l;
    fn t1() {
        var p;
        p = alloc(1);
        acquire l;
        x = 1;
        p = null;
        release l;
        if (!x) { p[0] = 1; }
    }
    fn t2() { x = 0; }
    fn main() { spawn t1(); spawn t2(); }
"#;

/// An unbounded loop, for step-cap exhaustion.
const SPIN: &str = r#"
    global x: int;
    fn spinner() { while (1) { x = x + 1; } }
    fn main() { spawn spinner(); spawn spinner(); }
"#;

fn setup(src: &str) -> (mcr_lang::Program, mcr_vm::Failure) {
    let program = mcr_lang::compile(src).unwrap();
    let mut failure = None;
    for seed in 0..100_000u64 {
        let mut vm = Vm::new(&program, &[]);
        let mut sched = StressScheduler::new(seed);
        run(&mut vm, &mut sched, &mut mcr_vm::NullObserver, 100_000);
        if let Some(f) = vm.failure() {
            failure = Some(f);
            break;
        }
    }
    (program, failure.expect("stress exposes the race"))
}

fn all_candidates(
    program: &mcr_lang::Program,
) -> (
    Vec<mcr_search::AnnotatedCandidate>,
    mcr_search::FutureCsvMap,
) {
    let mut vm = Vm::new(program, &[]);
    let mut log = SyncLogger::new();
    run(
        &mut vm,
        &mut DeterministicScheduler::new(),
        &mut log,
        100_000,
    );
    annotate(&log.finish(), &HashSet::new(), &HashMap::new())
}

#[test]
fn try_cap_stops_the_exploration() {
    let (program, failure) = setup(RACE);
    let (candidates, future) = all_candidates(&program);
    let fresh = Vm::new(&program, &[]);
    // Injecting every candidate at once forces many branching choices;
    // a cap of 1 must stop after a single completed execution.
    let tr = TestRun {
        fresh_vm: &fresh,
        preemptions: &candidates,
        target: failure,
        guidance: Guidance::All,
        future: &future,
    };
    let mut budget = Budget::with_tries(1, 100_000);
    tr.execute(&mut budget);
    assert_eq!(budget.tries, 1);
    assert!(budget.exhausted());
}

#[test]
fn exhausted_budget_refuses_new_work() {
    let (program, failure) = setup(RACE);
    let (candidates, future) = all_candidates(&program);
    let fresh = Vm::new(&program, &[]);
    let tr = TestRun {
        fresh_vm: &fresh,
        preemptions: &candidates,
        target: failure,
        guidance: Guidance::All,
        future: &future,
    };
    let mut budget = Budget::with_tries(0, 100_000);
    assert!(budget.exhausted(), "a zero-try budget starts exhausted");
    assert!(!tr.execute(&mut budget), "no work may happen");
    assert_eq!(budget.tries, 0);
}

#[test]
fn elapsed_deadline_exhausts_immediately() {
    let mut budget = Budget::with_tries(u64::MAX, 100_000);
    assert!(!budget.exhausted(), "try budget alone is ample");
    budget.deadline = Some(Instant::now() - Duration::from_millis(1));
    assert!(budget.exhausted(), "a past deadline exhausts the budget");
    // And a comfortably future deadline does not.
    budget.deadline = Some(Instant::now() + Duration::from_secs(3600));
    assert!(!budget.exhausted());
}

#[test]
fn deadline_stops_a_search_midway() {
    let (program, failure) = setup(RACE);
    let (candidates, future) = all_candidates(&program);
    let fresh = Vm::new(&program, &[]);
    let tr = TestRun {
        fresh_vm: &fresh,
        preemptions: &candidates,
        target: failure,
        guidance: Guidance::All,
        future: &future,
    };
    let mut budget = Budget::with_tries(u64::MAX, 100_000);
    budget.deadline = Some(Instant::now());
    assert!(!tr.execute(&mut budget));
    // The deadline is polled before each execution, so at most the
    // in-flight one completes.
    assert!(budget.tries <= 1, "tries = {}", budget.tries);
}

/// A time budget too large to add to the clock is no deadline: the
/// search runs as if it had none, rather than panicking on the overflow.
#[test]
fn unbounded_time_budget_searches_as_if_none() {
    let (program, failure) = setup(RACE);
    let (candidates, future) = all_candidates(&program);
    let fresh = Vm::new(&program, &[]);
    for parallelism in [1, 2] {
        let search = |time_budget| {
            let config = SearchConfig {
                time_budget,
                parallelism,
                ..SearchConfig::default()
            };
            find_schedule(
                &fresh,
                &candidates,
                &future,
                failure,
                Algorithm::Chess,
                &config,
            )
        };
        let unbounded = search(None);
        assert!(unbounded.reproduced);
        assert_eq!(search(Some(Duration::MAX)), unbounded);
    }
}

#[test]
fn step_cap_counts_a_try_and_terminates() {
    // Non-terminating program: without the per-run step cap the explore
    // loop would never finish a try.
    let program = mcr_lang::compile(SPIN).unwrap();
    let (candidates, future) = all_candidates_spin(&program);
    let fresh = Vm::new(&program, &[]);
    let bogus_target = {
        // Any failure value will do: the spinner never fails, so every
        // try ends by step exhaustion.
        let (_, f) = setup(RACE);
        f
    };
    let tr = TestRun {
        fresh_vm: &fresh,
        preemptions: &candidates,
        target: bogus_target,
        guidance: Guidance::All,
        future: &future,
    };
    let mut budget = Budget::with_tries(3, 5_000);
    assert!(
        !tr.execute(&mut budget),
        "spinner cannot reproduce anything"
    );
    assert_eq!(
        budget.tries, 3,
        "each step-capped execution must count as one try"
    );
}

fn all_candidates_spin(
    program: &mcr_lang::Program,
) -> (
    Vec<mcr_search::AnnotatedCandidate>,
    mcr_search::FutureCsvMap,
) {
    // The spinner never terminates: collect candidates from a bounded
    // prefix of the canonical run instead.
    let mut vm = Vm::new(program, &[]);
    let mut log = SyncLogger::new();
    run(&mut vm, &mut DeterministicScheduler::new(), &mut log, 2_000);
    annotate(&log.finish(), &HashSet::new(), &HashMap::new())
}

#[test]
fn coarse_collapses_to_variable_granularity() {
    let g = GlobalId(4);
    let o = ObjId(9);
    // Scalars and array elements collapse to the owning global.
    assert_eq!(coarse(MemLoc::Global(g)), CoarseLoc::Global(g));
    assert_eq!(coarse(MemLoc::GlobalElem(g, 0)), CoarseLoc::Global(g));
    assert_eq!(coarse(MemLoc::GlobalElem(g, 31)), CoarseLoc::Global(g));
    // Heap slots collapse to the owning object.
    assert_eq!(coarse(MemLoc::Heap(o, 0)), CoarseLoc::Heap(o));
    assert_eq!(coarse(MemLoc::Heap(o, 7)), CoarseLoc::Heap(o));
    // Locals are private regardless of owner.
    assert_eq!(
        coarse(MemLoc::Local {
            tid: ThreadId(2),
            frame: 11,
            local: LocalId(3),
        }),
        CoarseLoc::Private
    );
}

#[test]
fn coarse_overlap_matches_contention_not_elements() {
    // The motivating case for variable granularity: two threads touching
    // *different elements* of one shared array still contend.
    let g = GlobalId(0);
    assert_eq!(
        coarse(MemLoc::GlobalElem(g, 1)),
        coarse(MemLoc::GlobalElem(g, 2))
    );
    // But distinct globals and distinct heap objects never unify.
    assert_ne!(
        coarse(MemLoc::Global(GlobalId(1))),
        coarse(MemLoc::Global(GlobalId(2)))
    );
    assert_ne!(
        coarse(MemLoc::Heap(ObjId(1), 0)),
        coarse(MemLoc::Heap(ObjId(2), 0))
    );
}
