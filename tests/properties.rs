//! Property-based tests (proptest) over the core invariants:
//!
//! * reverse-engineered failure indices equal the online-EI ground truth,
//! * the dump codec round-trips and rejects corruption,
//! * dump diffing is reflexive and symmetric,
//! * schedulers are deterministic per seed,
//! * generated corpora always validate and census percentages total 100.

use mcr_analysis::ProgramAnalysis;
use mcr_dump::{CoreDump, DumpDiff, DumpReason};
use mcr_index::{reverse_index, Aligner, OnlineIndexer};
use mcr_vm::{
    run, run_until, DeterministicScheduler, NullObserver, Outcome, Scheduler, StressScheduler,
    ThreadId, Vm,
};
use proptest::prelude::*;

/// A parameterized single-threaded program with nested loops,
/// conditionals and a call chain, crashing at a chosen (i, j) iteration.
/// Covers every non-lossy case of Algorithm 1.
fn crash_program() -> &'static str {
    r#"
    global input: [int; 4];
    global acc: int;
    fn boom(p, d) {
        if (d > 0) {
            boom(p, d - 1);
        } else {
            p[0] = 1;
        }
    }
    fn main() {
        var i; var j; var p;
        while (i < input[0]) {
            i = i + 1;
            j = 0;
            while (j < input[1]) {
                j = j + 1;
                acc = acc + i * j;
                if (i == input[2]) {
                    if (j == input[3]) {
                        boom(null, 3);
                    }
                }
            }
        }
    }
    "#
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Algorithm 1 == online EI: the index reverse-engineered from the
    /// dump alone (PC + call stack + loop counters) equals the index the
    /// instrumented runtime maintained.
    #[test]
    fn reversed_index_equals_online_index(
        outer in 1i64..6,
        inner in 1i64..6,
        ci in 1i64..6,
        cj in 1i64..6,
    ) {
        prop_assume!(ci <= outer && cj <= inner);
        let program = mcr_lang::compile(crash_program()).unwrap();
        let analysis = ProgramAnalysis::analyze(&program);
        let input = [outer, inner, ci, cj];

        let mut vm = Vm::new(&program, &input);
        let mut indexer = OnlineIndexer::new(&program, &analysis);
        let mut sched = DeterministicScheduler::new();
        let outcome = run(&mut vm, &mut sched, &mut indexer, 1_000_000);
        prop_assert!(matches!(outcome, Outcome::Crashed(_)), "must crash: {outcome:?}");

        let online = indexer.current_index(ThreadId(0));
        let dump = CoreDump::capture_failure(&vm).unwrap();
        let reversed = reverse_index(&program, &analysis, &dump).unwrap();
        prop_assert_eq!(
            online.entries, reversed.entries,
            "online vs reversed for input {:?}", input
        );
    }

    /// The dump codec round-trips every state a run can produce.
    #[test]
    fn dump_codec_round_trip(
        vals in proptest::collection::vec(-100i64..100, 0..8),
        crash in proptest::bool::ANY,
    ) {
        let src = r#"
            global input: [int; 8];
            global input_len: int;
            global q: ptr;
            global sum: int;
            fn main() {
                var i; var p;
                p = alloc(4);
                while (i < input_len) {
                    sum = sum + input[i];
                    p[i % 4] = input[i];
                    i = i + 1;
                }
                q = p;
                if (sum > 1000000) { p = null; p[0] = 1; }
            }
        "#;
        let program = mcr_lang::compile(src).unwrap();
        let mut input = vals.clone();
        if crash && !input.is_empty() {
            input[0] = 2_000_000; // force the crash branch
        }
        let mut vm = Vm::new(&program, &input);
        run(&mut vm, &mut DeterministicScheduler::new(), &mut NullObserver, 100_000);
        let dump = match CoreDump::capture_failure(&vm) {
            Some(d) => d,
            None => CoreDump::capture(&vm, ThreadId(0), DumpReason::Manual),
        };
        let bytes = mcr_dump::encode(&dump);
        let decoded = mcr_dump::decode(&bytes).unwrap();
        prop_assert_eq!(&decoded, &dump);

        // Self-diff is empty, and diff against a different-input dump is
        // symmetric in counts.
        let diff = DumpDiff::compare(&dump, &dump);
        prop_assert_eq!(diff.diff_count(), 0);
        prop_assert_eq!(diff.csv_count(), 0);
    }

    /// Corrupting any single byte of an encoded dump either fails to
    /// decode or decodes to a different dump (the encoding is canonical).
    #[test]
    fn dump_codec_detects_corruption(flip in 5usize..200, bit in 0u8..8) {
        let src = "global a: [int; 6]; global q: ptr; fn main() { var i; for (i = 0; i < 6; i = i + 1) { a[i] = i * 7; } q = alloc(3); }";
        let program = mcr_lang::compile(src).unwrap();
        let mut vm = Vm::new(&program, &[]);
        run(&mut vm, &mut DeterministicScheduler::new(), &mut NullObserver, 100_000);
        let dump = CoreDump::capture(&vm, ThreadId(0), DumpReason::Manual);
        let mut bytes = mcr_dump::encode(&dump);
        prop_assume!(flip < bytes.len());
        bytes[flip] ^= 1 << bit;
        match mcr_dump::decode(&bytes) {
            Err(_) => {}
            Ok(decoded) => prop_assert_ne!(decoded, dump),
        }
    }

    /// Execution indices are structural, not temporal (§3's central
    /// claim): the same program crashing under two *different*
    /// interleavings yields the same reverse-engineered failure index,
    /// and that index aligns to the same point of the canonical passing
    /// run either way.
    #[test]
    fn failure_index_is_schedule_independent(
        k in 1i64..8,
        pair in 0usize..64,
    ) {
        let src = r#"
            global input: [int; 1];
            global noise: int;
            fn crashy() {
                var i; var p;
                while (i < 8) {
                    i = i + 1;
                    if (i == input[0]) { p = null; p[0] = 1; }
                }
            }
            fn churn() {
                var j;
                while (j < 6) { j = j + 1; noise = noise + j; }
            }
            fn main() { spawn crashy(); spawn churn(); }
        "#;
        let program = mcr_lang::compile(src).unwrap();
        let analysis = ProgramAnalysis::analyze(&program);
        let schedule_seeds = mcr_testsupport::seeds("schedule-independence", 128);
        let (seed_a, seed_b) = (schedule_seeds[2 * pair], schedule_seeds[2 * pair + 1]);

        let index_of = |seed: u64| {
            let mut vm = Vm::new(&program, &[k]);
            let mut sched = StressScheduler::new(seed);
            run(&mut vm, &mut sched, &mut NullObserver, 1_000_000);
            let dump = CoreDump::capture_failure(&vm)
                .expect("the crash is thread-local: it fires under every schedule");
            let index = reverse_index(&program, &analysis, &dump).unwrap();
            (dump.focus, index)
        };
        let (focus_a, index_a) = index_of(seed_a);
        let (focus_b, index_b) = index_of(seed_b);
        prop_assert_eq!(focus_a, focus_b);
        prop_assert_eq!(&index_a.entries, &index_b.entries, "seeds {} vs {}", seed_a, seed_b);

        // Both indices align the canonical passing run identically.
        let align_with = |index: &mcr_index::ExecutionIndex, focus| {
            let mut vm = Vm::new(&program, &[99]);
            let mut aligner = Aligner::new(&program, &analysis, focus, index);
            run_until(
                &mut vm,
                &mut DeterministicScheduler::new(),
                &mut aligner,
                1_000_000,
                |_| false,
            );
            aligner.finish()
        };
        prop_assert_eq!(align_with(&index_a, focus_a), align_with(&index_b, focus_b));
    }

    /// Stress schedules are pure functions of the seed.
    #[test]
    fn stress_scheduler_is_deterministic(seed in proptest::num::u64::ANY) {
        let src = r#"
            global x: int;
            fn t1() { x = x + 1; x = x + 2; }
            fn t2() { x = x * 2; }
            fn main() { spawn t1(); spawn t2(); }
        "#;
        let program = mcr_lang::compile(src).unwrap();
        let run_once = || {
            let mut vm = Vm::new(&program, &[]);
            let mut sched = StressScheduler::new(seed);
            run(&mut vm, &mut sched, &mut NullObserver, 100_000);
            (vm.steps(), vm.instrs(), format!("{:?}", vm.globals()))
        };
        prop_assert_eq!(run_once(), run_once());
    }

    /// Every generated corpus validates, analyzes, and its census
    /// percentages sum to 100.
    #[test]
    fn corpora_always_validate(seed in 0u64..1_000) {
        let profile = &mcr_workloads::small_profiles(600)[(seed % 3) as usize];
        let program = mcr_workloads::generate(profile, seed);
        prop_assert!(program.validate().is_ok());
        let analysis = ProgramAnalysis::analyze(&program);
        let census = analysis.census(&program);
        let sum = census.pct_one_cd()
            + census.pct_aggr_to_one()
            + census.pct_not_aggr()
            + census.pct_loop();
        prop_assert!((sum - 100.0).abs() < 1e-6, "sum = {sum}");
    }

    /// The deterministic scheduler always picks the same thread given the
    /// same runnable set (regression guard for the canonical-order
    /// property the search relies on).
    #[test]
    fn deterministic_scheduler_policy(ids in proptest::collection::vec(1u32..8, 1..6)) {
        let mut sorted: Vec<ThreadId> = ids.iter().map(|&i| ThreadId(i)).collect();
        sorted.sort();
        sorted.dedup();
        let src = blocked_workers_source(&sorted);
        let program = mcr_lang::compile(&src).unwrap();
        let mut vm = Vm::new(&program, &[]);
        while vm.runnable(ThreadId(0)) {
            vm.step(ThreadId(0), &mut NullObserver);
        }
        prop_assert_eq!(vm.runnable_threads(), sorted.clone());
        let mut sched = DeterministicScheduler::new();
        let first = sched.pick(&vm);
        // Fresh scheduler picks the lowest id.
        prop_assert_eq!(first, Some(sorted[0]));
        // And sticks with it while it remains runnable.
        vm.step(sorted[0], &mut NullObserver);
        let again = sched.pick(&vm);
        prop_assert_eq!(again, first);
    }
}

/// Seven workers, thread ids 1 to 7, each taking and releasing its own
/// lock. `main` holds the locks of the workers not in `runnable`, spawns
/// all seven and blocks on a lock it holds, so once `main` stops exactly
/// the threads of `runnable` can step.
fn blocked_workers_source(runnable: &[ThreadId]) -> String {
    let mut s = String::from("lock m;\n");
    for i in 1..=7 {
        s.push_str(&format!(
            "lock l{i};\nfn w{i}() {{ acquire l{i}; release l{i}; }}\n"
        ));
    }
    s.push_str("fn main() { var t; acquire m; ");
    for i in 1..=7 {
        if !runnable.contains(&ThreadId(i)) {
            s.push_str(&format!("acquire l{i}; "));
        }
    }
    for i in 1..=7 {
        s.push_str(&format!("t = spawn w{i}(); "));
    }
    s.push_str("acquire m; }\n");
    s
}

/// A small multi-function program parameterized by one constant per
/// function — the unit of "editing function i" in the fingerprint
/// property below.
fn multi_fn_source(consts: &[i64]) -> String {
    let mut s = String::from("global x: int;\nglobal y: int;\n");
    for (i, c) in consts.iter().enumerate() {
        s.push_str(&format!(
            "fn f{i}() {{ x = x + {c}; if (x > {c}) {{ y = y - 1; }} }}\n"
        ));
    }
    s.push_str("fn main() { ");
    for i in 0..consts.len() {
        s.push_str(&format!("f{i}(); "));
    }
    s.push_str("}\n");
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The program fingerprint — the root of every phase key — is
    /// equal for two compiles of the same source and moves after any
    /// single-function edit, so cached phases never outlive an edit.
    #[test]
    fn single_function_edit_moves_the_program_fingerprint(
        n in 2usize..6,
        edit in 0usize..6,
        delta in 1i64..500,
    ) {
        let edit = edit % n;
        let base_consts: Vec<i64> = (0..n as i64).map(|i| i + 1).collect();
        let mut edited_consts = base_consts.clone();
        edited_consts[edit] += delta;

        let base = mcr_lang::compile(&multi_fn_source(&base_consts)).unwrap();
        let again = mcr_lang::compile(&multi_fn_source(&base_consts)).unwrap();
        let edited = mcr_lang::compile(&multi_fn_source(&edited_consts)).unwrap();
        prop_assert_eq!(
            mcr_lang::program_fingerprint(&base),
            mcr_lang::program_fingerprint(&again)
        );
        prop_assert_ne!(
            mcr_lang::program_fingerprint(&base),
            mcr_lang::program_fingerprint(&edited)
        );
    }
}

/// Lengthened inputs never change the bug-triggering tail (plain test —
/// exercised across all bugs and several seeds).
#[test]
fn lengthening_preserves_tails() {
    for bug in mcr_workloads::all_bugs() {
        for seed in 0..5 {
            for extra in [0usize, 3, 17] {
                let v = bug.lengthened_input(extra, seed);
                assert_eq!(&v[extra..], bug.base_input, "{}", bug.name);
            }
        }
    }
}

/// Soundness contract of the static race pruning (the tentpole claim):
/// enabling `static_race` must leave every bug's winning schedule
/// *bit-identical* — pruning only removes preemption candidates that
/// are provably no-ops (statically Solo anchors, where only thread 0
/// exists), so the search walks an order-preserving subsequence of the
/// same worklist. Checked three ways per bug:
///
/// 1. the pruned and unpruned reproductions agree on `reproduced` and
///    on the exact winning preemption points;
/// 2. no candidate of the *unpruned* winner would have been pruned
///    (Solo anchors never appear in a winner: preempting them is a
///    no-op, and any failing combination containing one implies a
///    smaller, earlier-sorted combination without it);
/// 3. pruning actually removed something (the warmup loops churn locks
///    before the first spawn, so every bug has Solo candidates) — a
///    vacuous prune would make this whole test meaningless.
///
/// Runs in the suite-wide memory model (`MCR_TEST_MEMMODEL=tso` drives
/// the same check through TSO flush candidates).
#[test]
fn static_race_pruning_preserves_winning_schedules() {
    use mcr_analysis::RaceAnalysis;
    use mcr_search::CandidateKind;
    use mcr_testsupport::{repro_options, stress_bug};

    let mut pruned_something = false;
    for bug in mcr_workloads::all_bugs() {
        let (program, sf) = stress_bug(&bug);
        let input = bug.default_input();
        let reproduce = |static_race: bool| {
            let mut options =
                repro_options(mcr_search::Algorithm::ChessX, mcr_slice::Strategy::Temporal);
            options.static_race = static_race;
            mcr_core::Reproducer::new(&program, options)
                .reproduce(&sf.dump, &input)
                .unwrap_or_else(|e| panic!("{}: pipeline failed: {e}", bug.name))
        };
        let unpruned = reproduce(false);
        let pruned = reproduce(true);
        assert_eq!(
            unpruned.search.reproduced, pruned.search.reproduced,
            "{}: pruning changed reproducibility",
            bug.name
        );
        let points = |r: &mcr_core::ReproReport| {
            r.search
                .winning
                .as_ref()
                .map(|w| w.iter().map(|c| c.point).collect::<Vec<_>>())
        };
        assert_eq!(
            points(&unpruned),
            points(&pruned),
            "{}: pruning changed the winning schedule",
            bug.name
        );

        // No unpruned winner contains a candidate pruning would drop.
        let verdicts = RaceAnalysis::analyze(&program);
        let verdicts = verdicts.verdicts();
        if let Some(winning) = &unpruned.search.winning {
            for c in winning {
                let droppable = !matches!(
                    c.point.kind,
                    CandidateKind::ThreadStart | CandidateKind::AfterSpawn
                ) && c.point.pc.is_some_and(|pc| verdicts.is_solo(pc));
                assert!(
                    !droppable,
                    "{}: winning candidate {} anchors at a statically Solo pc",
                    bug.name, c.point
                );
            }
        }
        if verdicts.solo_count() > 0 {
            pruned_something = true;
        }
    }
    assert!(
        pruned_something,
        "no bug had any Solo candidate — the prune never fired"
    );
}

/// The same contract through the environment-gated suite: the TSO bugs
/// run with pruning live (their fault plans are empty), and the
/// fault-injection bugs prove the automatic disable — a non-empty fault
/// plan voids the static execution model, so `static_race = true` must
/// be a no-op there, not a wrong prune.
#[test]
fn static_race_pruning_preserves_env_gated_winners() {
    use mcr_testsupport::{repro_options_env, stress_fault_bug};

    for bug in mcr_workloads::fault_bugs() {
        let (program, sf) = stress_fault_bug(&bug);
        let reproduce = |static_race: bool| {
            let mut options = repro_options_env(
                mcr_search::Algorithm::ChessX,
                mcr_slice::Strategy::Temporal,
                &bug,
            );
            options.static_race = static_race;
            mcr_core::Reproducer::new(&program, options)
                .reproduce(&sf.dump, bug.input)
                .unwrap_or_else(|e| panic!("{}: pipeline failed: {e}", bug.name))
        };
        let unpruned = reproduce(false);
        let pruned = reproduce(true);
        assert_eq!(unpruned, pruned, "{}: static_race on vs off", bug.name);
    }
}
