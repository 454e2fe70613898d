//! The scan-based try loop against the bucketed loop it replaced.
//!
//! `TestRun::execute` matches a preemption set against each step by
//! scanning the set, and it picks the next thread without collecting the
//! runnable list. Before, each try bucketed the set in a hash map keyed
//! by `(tid, sync_seq)` and picked from the full runnable list at every
//! step; that loop is kept as `mcr_testsupport::reference_execute`. Both
//! must agree on `(reproduced, tries)` for preemption sets drawn from
//! each Table 2 bug's candidates, under SC and TSO and with both
//! guidance modes: single candidates (the best-ranked ones among them),
//! seeded pairs, pairs on one thread, `ThreadStart` paired with the same
//! thread's sync #0 (two members at one anchor, which fire at one step
//! when the thread starts with an `acquire`), and a few longer sets.
//! Try caps are drawn too, so cut-off searches must stop at the same
//! try.
//!
//! The smoke tier samples about 40 sets per bug and model; the full tier
//! (`MCR_TEST_TIER=full`) takes every single candidate and 500 pairs.

use mcr_core::{find_failure_cfg, ReproOptions, ReproSession, RunConfig};
use mcr_lang::Program;
use mcr_search::{
    annotate_with_race, AnnotatedCandidate, Budget, CandidateKind, Guidance, TestRun,
};
use mcr_testsupport::{reference_execute, seeds, stress_seed_cap, tier, Tier, FIXTURE_MAX_STEPS};
use mcr_vm::{MemModel, SplitMix64, Vm};
use std::collections::HashSet;

/// Try caps: a cap of one stops after the first execution, and the
/// largest lets most sets finish.
const MAX_TRIES: [u64; 4] = [1, 3, 25, 200];

/// What the drawn sets covered, over all bugs and models.
#[derive(Debug, Default)]
struct Coverage {
    sets: usize,
    reproduced: usize,
    cut_off: usize,
    same_thread_pairs: usize,
    shared_anchor_pairs: usize,
    longer_sets: usize,
}

/// The preemption sets to check, as candidate indices.
fn draw_sets(candidates: &[AnnotatedCandidate], rng: &mut SplitMix64) -> Vec<Vec<usize>> {
    let n = candidates.len();
    let pick = |rng: &mut SplitMix64| rng.next_below(n as u64) as usize;
    let mut sets: Vec<Vec<usize>> = Vec::new();
    let (singles, pairs) = match tier() {
        Tier::Smoke => (12, 16),
        Tier::Full => (n, 500),
    };
    if singles >= n {
        sets.extend((0..n).map(|i| vec![i]));
    } else {
        sets.extend((0..singles).map(|_| vec![pick(rng)]));
    }
    for _ in 0..pairs {
        let (a, b) = (pick(rng), pick(rng));
        if a != b {
            sets.push(vec![a, b]);
        }
    }
    // The best-ranked candidates, which the search tries first and which
    // reproduce most bugs.
    let mut by_rank: Vec<usize> = (0..n).collect();
    by_rank.sort_by_key(|&i| candidates[i].best_priority);
    sets.extend(by_rank.iter().take(4).map(|&i| vec![i]));
    // Pairs on one thread, in either order.
    let mut same_thread = 0;
    for _ in 0..n * 4 {
        if same_thread == 6 {
            break;
        }
        let (a, b) = (pick(rng), pick(rng));
        if a != b && candidates[a].point.tid == candidates[b].point.tid {
            sets.push(vec![a, b]);
            same_thread += 1;
        }
    }
    // A thread's start with its sync #0: both are anchored at
    // `(tid, 0)`, so the first pending member in set order must win.
    for (a, start) in candidates.iter().enumerate() {
        if start.point.kind != CandidateKind::ThreadStart {
            continue;
        }
        let first_sync = candidates.iter().position(|c| {
            c.point.tid == start.point.tid
                && c.point.sync_seq == 0
                && c.point.kind != CandidateKind::ThreadStart
        });
        if let Some(b) = first_sync {
            sets.push(vec![a, b]);
            sets.push(vec![b, a]);
        }
    }
    // A few longer sets: `TestRun` takes any slice.
    for len in [3, 4] {
        sets.push((0..len).map(|_| pick(rng)).collect());
    }
    sets
}

/// Checks the sets drawn from one program's candidates.
fn check_program(
    name: &str,
    program: &Program,
    input: &[i64],
    max_steps: u64,
    mem_model: MemModel,
    cov: &mut Coverage,
) {
    let case = format!("{name} {mem_model:?}");
    let env = RunConfig {
        mem_model,
        faults: Vec::new(),
    };
    let sf = find_failure_cfg(program, input, 0..stress_seed_cap(), max_steps, &env)
        .unwrap_or_else(|| panic!("{case}: stress found no failure"));
    let options = ReproOptions {
        mem_model,
        parallelism: 1,
        ..Default::default()
    };
    let mut session = ReproSession::new(program, sf.dump.clone(), input, options)
        .unwrap_or_else(|e| panic!("{case}: {e}"));
    session.run_rank().unwrap_or_else(|e| panic!("{case}: {e}"));
    let align = session.alignment_artifact().expect("align ran");
    let delta = session.delta_artifact().expect("diff ran");
    let ranked = session.ranked_artifact().expect("rank ran");
    let csvs: HashSet<_> = delta.csv_locs.iter().copied().collect();
    let (candidates, future) =
        annotate_with_race(&align.passing_run, &csvs, ranked.ranked.as_slice(), None);
    assert!(
        candidates.len() > 1,
        "{case}: {} candidates",
        candidates.len()
    );

    let fresh = Vm::new(program, input).with_mem_model(mem_model);
    let mut rng = SplitMix64::new(seeds(&case, 1)[0]);
    for set in draw_sets(&candidates, &mut rng) {
        let preemptions: Vec<AnnotatedCandidate> =
            set.iter().map(|&i| candidates[i].clone()).collect();
        let max_tries = MAX_TRIES[rng.next_below(MAX_TRIES.len() as u64) as usize];
        for guidance in [Guidance::All, Guidance::CsvOverlap] {
            let run = TestRun {
                fresh_vm: &fresh,
                preemptions: &preemptions,
                target: session.failure(),
                guidance,
                future: &future,
            };
            let mut budget = Budget::with_tries(max_tries, max_steps);
            let got = (run.execute(&mut budget), budget.tries);
            let want = reference_execute(&run, max_tries, max_steps);
            let points: Vec<String> = preemptions.iter().map(|c| c.point.to_string()).collect();
            assert_eq!(
                got, want,
                "{case} {guidance:?} max_tries={max_tries} set={points:?}"
            );
            cov.sets += 1;
            cov.reproduced += usize::from(got.0);
            cov.cut_off += usize::from(!got.0 && got.1 == max_tries);
        }
        let same_thread = set.len() == 2
            && set[0] != set[1]
            && candidates[set[0]].point.tid == candidates[set[1]].point.tid;
        cov.same_thread_pairs += usize::from(same_thread);
        let [a, b] = [set[0], set[1 % set.len()]].map(|i| &candidates[i]);
        let (start, sync) = if a.point.kind == CandidateKind::ThreadStart {
            (a, b)
        } else {
            (b, a)
        };
        cov.shared_anchor_pairs += usize::from(
            same_thread
                && start.point.kind == CandidateKind::ThreadStart
                && sync.point.sync_seq == 0
                && sync.point.pc.is_some_and(|pc| pc.stmt.0 == 0),
        );
        cov.longer_sets += usize::from(set.len() > 2);
    }
}

/// Fig. 1 with `T2`'s write taken under the lock: `T2` starts with an
/// `acquire`, so its start and its sync #0 fire at the same step, and the
/// set's order decides which is explored first.
const ACQUIRE_FIRST: &str = r#"
    global x: int;
    global input: [int; 2];
    lock l;
    fn F(p) { p[0] = 1; }
    fn T1() {
        var i; var p;
        for (i = 0; i < 2; i = i + 1) {
            x = 0;
            p = alloc(2);
            acquire l;
            if (input[i] > 0) {
                x = 1;
                p = null;
            }
            release l;
            if (!x) { F(p); }
        }
    }
    fn T2() { acquire l; x = 0; release l; }
    fn main() { spawn T1(); spawn T2(); }
"#;

#[test]
fn scan_loop_matches_the_bucketed_reference() {
    let mut cov = Coverage::default();
    let acquire_first = mcr_lang::compile(ACQUIRE_FIRST).unwrap();
    for mem_model in [MemModel::Sc, MemModel::tso()] {
        for bug in mcr_workloads::all_bugs() {
            let program = bug.compile();
            let input = bug.default_input();
            check_program(
                bug.name,
                &program,
                &input,
                bug.max_steps,
                mem_model,
                &mut cov,
            );
        }
        check_program(
            "acquire-first",
            &acquire_first,
            &[0, 1],
            FIXTURE_MAX_STEPS,
            mem_model,
            &mut cov,
        );
    }
    for (what, n) in [
        ("reproducing sets", cov.reproduced),
        ("cut-off sets", cov.cut_off),
        ("pairs on one thread", cov.same_thread_pairs),
        ("start and sync #0 at one step", cov.shared_anchor_pairs),
        ("sets of three or more", cov.longer_sets),
    ] {
        assert!(n > 0, "no {what} among {} checked runs", cov.sets);
    }
}
