//! PR 2's performance-engine contracts:
//!
//! * **Parallel ≡ serial.** The work-stealing search driver
//!   (`SearchConfig::parallelism` / `ReproOptions::parallelism`) and the
//!   parallel stress scan select deterministic winners (lowest worklist
//!   index, lowest seed), so `parallelism = 1` and `parallelism = 4`
//!   must produce the same `reproduced` flag, try count, and winning
//!   schedule for every bug in the suite — and that schedule must
//!   actually replay to the target failure.
//! * **COW checkpoints are isolated.** `Vm::clone` shares globals, heap,
//!   and frames copy-on-write; mutating either copy (stepping it mutates
//!   all three state classes) must never leak into the other.

use mcr_core::{find_failure, find_failure_par, ReproOptions, Reproducer};
use mcr_dump::{CoreDump, DumpReason};
use mcr_search::{Algorithm, Budget, Guidance, SearchConfig, SearchResult, TestRun};
use mcr_slice::Strategy;
use mcr_testsupport::{search_max_tries, stress_bug};
use mcr_vm::{run_until, StressScheduler, ThreadId, Vm};
use mcr_workloads::all_bugs;
use proptest::prelude::*;

fn winning_points(r: &SearchResult) -> Option<Vec<mcr_search::PreemptionPoint>> {
    r.winning
        .as_ref()
        .map(|w| w.iter().map(|c| c.point).collect())
}

/// Satellite: for every bug in `mcr-workloads`, a 4-way-parallel guided
/// search reports exactly what the serial search reports, and the winning
/// schedule replays to the recorded failure.
#[test]
fn parallel_and_serial_reproduction_are_identical() {
    for bug in all_bugs() {
        let (program, sf) = stress_bug(&bug);
        let input = bug.default_input();
        let reproduce = |parallelism: usize| {
            let reproducer = Reproducer::new(
                &program,
                ReproOptions {
                    strategy: Strategy::Temporal,
                    algorithm: Algorithm::ChessX,
                    search: SearchConfig {
                        max_tries: search_max_tries(),
                        ..Default::default()
                    },
                    parallelism,
                    ..Default::default()
                },
            );
            reproducer
                .reproduce(&sf.dump, &input)
                .unwrap_or_else(|e| panic!("{}: pipeline failed: {e}", bug.name))
        };
        let serial = reproduce(1);
        let parallel = reproduce(4);

        assert_eq!(
            serial.search.reproduced, parallel.search.reproduced,
            "{}: reproduced flag diverged",
            bug.name
        );
        assert_eq!(
            serial.search.tries, parallel.search.tries,
            "{}: try counts diverged",
            bug.name
        );
        assert_eq!(
            serial.search.combinations_tested, parallel.search.combinations_tested,
            "{}: combination counts diverged",
            bug.name
        );
        assert_eq!(
            winning_points(&serial.search),
            winning_points(&parallel.search),
            "{}: winning schedules diverged",
            bug.name
        );
        assert!(
            parallel.search.reproduced,
            "{}: suite bug must reproduce",
            bug.name
        );

        // The (shared) winning schedule replays standalone to the same
        // failure — the reproduction is usable, not just reported.
        let winning = parallel.search.winning.expect("reproduced");
        let fresh = Vm::new(&program, &input);
        let replay = TestRun {
            fresh_vm: &fresh,
            preemptions: &winning,
            target: sf.dump.failure().unwrap(),
            guidance: Guidance::All,
            future: &Default::default(),
        };
        let mut budget = Budget::with_tries(1_000, bug.max_steps);
        assert!(
            replay.execute(&mut budget),
            "{}: winning schedule must replay",
            bug.name
        );
    }
}

/// The parallel stress scan finds the same (lowest) seed, dump, and
/// counters as the serial scan, for every bug.
#[test]
fn parallel_stress_scan_is_deterministic() {
    for bug in all_bugs() {
        let program = bug.compile();
        let input = bug.default_input();
        let cap = mcr_testsupport::stress_seed_cap();
        let serial = find_failure(&program, &input, 0..cap, bug.max_steps)
            .unwrap_or_else(|| panic!("{}: serial stress found nothing", bug.name));
        let parallel = find_failure_par(&program, &input, 0..cap, bug.max_steps, 4)
            .unwrap_or_else(|| panic!("{}: parallel stress found nothing", bug.name));
        assert_eq!(serial.seed, parallel.seed, "{}", bug.name);
        assert_eq!(serial.seeds_tried, parallel.seeds_tried, "{}", bug.name);
        assert_eq!(serial.steps, parallel.steps, "{}", bug.name);
        assert_eq!(serial.instrs, parallel.instrs, "{}", bug.name);
        assert_eq!(serial.dump, parallel.dump, "{}", bug.name);
    }
}

/// A program whose every step mutates checkpoint-shared state: global
/// scalars and arrays, heap objects (old and fresh), and call frames
/// (locals + recursion depth) across two racing threads.
const MUTATOR: &str = r#"
    global table: [int; 8];
    global total: int;
    global head: ptr;
    fn push(v, depth) {
        var node;
        if (depth > 0) {
            push(v + 1, depth - 1);
        }
        node = alloc(2);
        node[0] = v;
        node[1] = head;
        head = node;
        total = total + v;
    }
    fn churn(k) {
        var i;
        while (i < 12) {
            i = i + 1;
            table[(k + i) % 8] = table[(k + i) % 8] + i;
            if (head != null) {
                head[0] = head[0] + k;
            }
        }
    }
    fn worker() {
        var j;
        while (j < 3) {
            j = j + 1;
            push(j * 10, 1);
            churn(j);
        }
    }
    fn main() {
        var a; var b;
        a = spawn worker();
        b = spawn worker();
        push(1, 2);
        join a;
        join b;
    }
"#;

/// Deep snapshot of every COW-shared state class.
fn snapshot(vm: &Vm<'_>) -> CoreDump {
    CoreDump::capture(vm, ThreadId(0), DumpReason::Manual)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Satellite: extends `clone_checkpoints_are_independent` into a
    /// property — checkpoint a random prefix of a random interleaving,
    /// then mutate heap/globals/frames on *either* side of the fork and
    /// assert the other side is bit-identical to its snapshot.
    #[test]
    fn cow_checkpoints_are_fully_isolated(
        split in 1u64..120,
        extra in 1u64..300,
        pick in 0usize..64,
    ) {
        let program = mcr_lang::compile(MUTATOR).unwrap();
        let seeds = mcr_testsupport::seeds("cow-isolation", 64);
        let seed = seeds[pick];

        // Run a random interleaving for `split` steps, then checkpoint.
        let mut vm = Vm::new(&program, &[]);
        let mut sched = StressScheduler::new(seed);
        run_until(
            &mut vm,
            &mut sched,
            &mut mcr_vm::NullObserver,
            1_000_000,
            |vm| vm.steps() >= split,
        );
        let checkpoint = vm.clone();
        let checkpoint_snap = snapshot(&checkpoint);

        // Mutate the original past the fork: every step writes globals,
        // heap slots, or frame locals. The checkpoint must not move.
        run_until(
            &mut vm,
            &mut sched,
            &mut mcr_vm::NullObserver,
            1_000_000,
            |v| v.steps() >= split + extra,
        );
        prop_assert_eq!(&snapshot(&checkpoint), &checkpoint_snap);

        // Now mutate the checkpoint (different interleaving); the
        // original must not move either.
        let original_snap = snapshot(&vm);
        let mut forked = checkpoint;
        let mut sched2 = StressScheduler::new(seed ^ 0xD15EA5E);
        run_until(
            &mut forked,
            &mut sched2,
            &mut mcr_vm::NullObserver,
            1_000_000,
            |v| v.steps() >= split + extra,
        );
        prop_assert_eq!(&snapshot(&vm), &original_snap);
        // And the fork really did diverge from its own snapshot (the
        // mutations were not no-ops), unless it immediately finished.
        if forked.steps() > split {
            prop_assert_ne!(&snapshot(&forked), &checkpoint_snap);
        }
    }
}
