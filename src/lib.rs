//! # mcr-testsupport — shared fixtures for the reproduction suite
//!
//! The top-level integration tests (`tests/`) and examples all need the
//! same scaffolding: the paper's Fig. 1 program, stress failures for the
//! Table 2 bug suite, canned core dumps with interesting heap shapes, a
//! deterministic seed source, and consistent search budgets. This crate
//! centralizes those so each test file states only what it asserts.
//!
//! ## Test tiers
//!
//! Budgets are env-gated so the default `cargo test -q` stays CI-friendly
//! while a nightly/full run can spend more:
//!
//! * **smoke** (default) — reduced stress-seed and search-try caps;
//! * **full** — set `MCR_TEST_TIER=full` for the paper-scale budgets.
//!
//! Every test runs in both tiers; the tier changes only how hard the
//! stress loop and the schedule search are allowed to work.
//!
//! ## Memory-model matrix
//!
//! Orthogonally, `MCR_TEST_MEMMODEL=tso` re-runs every fixture-driven
//! test under the TSO store-buffer mode (`mcr_vm::MemModel::Tso`):
//! [`stress_bug`], [`fig1_failure`], and [`repro_options`] then stress,
//! align, replay, and search in that environment, exercising the whole
//! pipeline over buffered stores and flush scheduling points. Unset (or
//! any other value) is sequential consistency.

#![warn(missing_docs)]

use mcr_core::{ReproOptions, StressFailure};

// Facade re-exports: the staged session API, so tests and examples can
// take everything from one crate.
pub use mcr_core::{
    AlignmentArtifact, CancelToken, DumpDeltaArtifact, FailureIndexArtifact, Phase, PhaseEvent,
    PhaseObserver, RankedAccessesArtifact, ReproSession, SearchArtifact, TimingLog,
};
use mcr_dump::{CoreDump, DumpDiff, DumpReason, ValueDiff, VarMap};
use mcr_lang::Inst;
use mcr_search::{Algorithm, AnnotatedCandidate, CandidateKind, Guidance, SearchConfig, TestRun};
use mcr_slice::Strategy;
use mcr_vm::{run, DeterministicScheduler, NullObserver, SplitMix64, ThreadId, Vm};
use mcr_workloads::BugSpec;
use std::collections::HashMap;

/// Which budget tier the suite is running under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Reduced budgets; the default for `cargo test -q`.
    Smoke,
    /// Paper-scale budgets; enabled with `MCR_TEST_TIER=full`.
    Full,
}

/// Returns the active tier (`MCR_TEST_TIER=full` selects [`Tier::Full`]).
pub fn tier() -> Tier {
    match std::env::var("MCR_TEST_TIER") {
        Ok(v) if v.eq_ignore_ascii_case("full") => Tier::Full,
        _ => Tier::Smoke,
    }
}

/// Upper bound on stress seeds to scan when hunting a failure dump.
pub fn stress_seed_cap() -> u64 {
    match tier() {
        Tier::Smoke => 200_000,
        Tier::Full => 2_000_000,
    }
}

/// Memory model the suite-wide fixtures execute under. The CI matrix
/// sets `MCR_TEST_MEMMODEL=tso` to drive the tier-1 suite through the
/// TSO store-buffer mode end to end (stress, alignment, replay, and
/// search all run in the same environment); unset — or any other value
/// — is sequential consistency, the default.
pub fn test_mem_model() -> mcr_vm::MemModel {
    match std::env::var("MCR_TEST_MEMMODEL") {
        Ok(v) if v.eq_ignore_ascii_case("tso") => mcr_vm::MemModel::tso(),
        _ => mcr_vm::MemModel::Sc,
    }
}

/// The suite-wide stress environment derived from `MCR_TEST_MEMMODEL`
/// (no fault plan — faults are always opted into per bug).
pub fn test_run_config() -> mcr_core::RunConfig {
    mcr_core::RunConfig {
        mem_model: test_mem_model(),
        faults: Vec::new(),
    }
}

/// Try cap for schedule searches driven through [`ReproOptions`].
pub fn search_max_tries() -> u64 {
    match tier() {
        Tier::Smoke => 10_000,
        Tier::Full => 20_000,
    }
}

/// Standard reproduction options at the active tier's search budget and
/// the suite-wide memory model (see [`test_mem_model`]).
pub fn repro_options(algorithm: Algorithm, strategy: Strategy) -> ReproOptions {
    ReproOptions {
        algorithm,
        strategy,
        mem_model: test_mem_model(),
        search: SearchConfig {
            max_tries: search_max_tries(),
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Compiles `bug` and stresses it to a failure dump at the active tier's
/// seed budget, returning the compiled program alongside (callers always
/// need both, and compiling twice is wasted work).
pub fn stress_bug(bug: &BugSpec) -> (mcr_lang::Program, StressFailure) {
    let program = bug.compile();
    let input = bug.default_input();
    let sf = mcr_core::find_failure_cfg(
        &program,
        &input,
        0..stress_seed_cap(),
        bug.max_steps,
        &test_run_config(),
    )
    .unwrap_or_else(|| panic!("{}: stress found no failure", bug.name));
    (program, sf)
}

/// The execution environment ([`mcr_core::RunConfig`]) of an
/// environment-gated seeded bug.
pub fn fault_bug_env(bug: &mcr_workloads::FaultBugSpec) -> mcr_core::RunConfig {
    mcr_core::RunConfig {
        mem_model: bug.mem_model,
        faults: bug.faults.clone(),
    }
}

/// Like [`stress_bug`] for the environment-gated suite: stresses `bug`
/// *in its own environment* (TSO and/or fault plan) to a failure dump.
pub fn stress_fault_bug(bug: &mcr_workloads::FaultBugSpec) -> (mcr_lang::Program, StressFailure) {
    let program = bug.compile();
    let sf = mcr_core::find_failure_cfg(
        &program,
        bug.input,
        0..stress_seed_cap(),
        bug.max_steps,
        &fault_bug_env(bug),
    )
    .unwrap_or_else(|| panic!("{}: stress found no failure", bug.name));
    (program, sf)
}

/// [`repro_options`] with the environment of an environment-gated bug
/// applied (memory model + fault plan), so the whole session — passing
/// run, alignment, replay, and search — executes where the bug lives.
pub fn repro_options_env(
    algorithm: Algorithm,
    strategy: Strategy,
    bug: &mcr_workloads::FaultBugSpec,
) -> ReproOptions {
    ReproOptions {
        mem_model: bug.mem_model,
        faults: bug.faults.clone(),
        ..repro_options(algorithm, strategy)
    }
}

/// The paper's Fig. 1 program. `input[i]` plays the role of `a[i]`.
pub const FIG1: &str = r#"
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
    fn T2() { x = 0; }
    fn main() { spawn T1(); spawn T2(); }
"#;

/// The input that arms Fig. 1's race in the second loop iteration.
pub const FIG1_INPUT: [i64; 2] = [0, 1];

/// Step budget ample for every fixture program in this crate.
pub const FIXTURE_MAX_STEPS: u64 = 1_000_000;

/// Compiles Fig. 1 and stresses it to its failure dump.
pub fn fig1_failure() -> (mcr_lang::Program, StressFailure) {
    let program = mcr_lang::compile(FIG1).expect("FIG1 compiles");
    let sf = mcr_core::find_failure_cfg(
        &program,
        &FIG1_INPUT,
        0..stress_seed_cap(),
        FIXTURE_MAX_STEPS,
        &test_run_config(),
    )
    .expect("fig1 race fires under stress");
    (program, sf)
}

/// A program whose completed state exercises every dump feature: scalar
/// and array globals, locks, and a heap with pointer chains (so refpath
/// traversal has multi-hop paths to walk).
pub const HEAP_RICH: &str = r#"
    global head: ptr;
    global table: [int; 4];
    global count: int;
    lock l;
    fn push(v) {
        var node;
        node = alloc(2);
        node[0] = v;
        node[1] = head;
        head = node;
        count = count + 1;
    }
    fn main() {
        var i;
        acquire l;
        for (i = 0; i < 4; i = i + 1) {
            push(i * 10);
            table[i] = head;
        }
        release l;
    }
"#;

/// Runs [`HEAP_RICH`] to completion and captures a canned core dump with
/// heap reference paths (a linked list threaded through global arrays).
pub fn canned_heap_dump() -> (mcr_lang::Program, CoreDump) {
    let program = mcr_lang::compile(HEAP_RICH).expect("HEAP_RICH compiles");
    let mut vm = Vm::new(&program, &[]);
    let outcome = run(
        &mut vm,
        &mut DeterministicScheduler::new(),
        &mut NullObserver,
        FIXTURE_MAX_STEPS,
    );
    assert_eq!(outcome, mcr_vm::Outcome::Completed, "fixture must complete");
    let dump = CoreDump::capture(&vm, ThreadId(0), DumpReason::Manual);
    (program, dump)
}

/// The reference dump diff: merges two dumps' variable maps
/// ([`mcr_dump::reachable_vars`]) over the paths they share.
/// [`DumpDiff::compare_with`] computes the same result in one walk over
/// both dumps; this is the map-based algorithm it replaced, kept as the
/// oracle the tests check it against.
pub fn compare_maps(va: &VarMap, vb: &VarMap) -> DumpDiff {
    let mut compared = 0usize;
    let mut shared_compared = 0usize;
    let mut diffs = Vec::new();
    let mut csvs = Vec::new();
    for (path, &value_a) in va {
        let Some(&value_b) = vb.get(path) else {
            continue;
        };
        compared += 1;
        let shared = path.is_shared();
        if shared {
            shared_compared += 1;
        }
        if value_a != value_b {
            if shared {
                csvs.push(path.clone());
            }
            diffs.push(ValueDiff {
                path: path.clone(),
                a: value_a,
                b: value_b,
            });
        }
    }
    DumpDiff {
        vars_a: va.len(),
        vars_b: vb.len(),
        compared,
        shared_compared,
        diffs,
        csvs,
    }
}

/// The reference try loop: [`TestRun::execute`] as it was before its
/// step loop became a scan, kept as the oracle the tests check it
/// against. It buckets the preemptions by `(tid, sync_seq)` in a hash
/// map built per try, collects the runnable threads at every step and
/// picks from that list. It counts its own tries, with the cap and
/// per-execution step limit of a [`Budget`](mcr_search::Budget) that has
/// no deadline, and returns `(reproduced, tries)`.
pub fn reference_execute(run: &TestRun<'_, '_>, max_tries: u64, max_steps: u64) -> (bool, u64) {
    let mut by_anchor: HashMap<(u32, u32), Vec<usize>> = HashMap::new();
    for (i, pm) in run.preemptions.iter().enumerate() {
        by_anchor
            .entry((pm.point.tid.0, pm.point.sync_seq))
            .or_default()
            .push(i);
    }
    let mut reference = ReferenceRun {
        run,
        by_anchor,
        max_tries,
        max_steps,
        tries: 0,
    };
    let consumed = vec![false; run.preemptions.len()];
    let reproduced = reference.explore(run.fresh_vm.clone(), None, consumed);
    (reproduced, reference.tries)
}

/// The state of one [`reference_execute`] call.
struct ReferenceRun<'r, 'a, 'p> {
    run: &'r TestRun<'a, 'p>,
    by_anchor: HashMap<(u32, u32), Vec<usize>>,
    max_tries: u64,
    max_steps: u64,
    tries: u64,
}

impl ReferenceRun<'_, '_, '_> {
    fn bucket(&self, tid: ThreadId, sync_seq: u32) -> &[usize] {
        self.by_anchor
            .get(&(tid.0, sync_seq))
            .map_or(&[], Vec::as_slice)
    }

    fn exhausted(&self) -> bool {
        self.tries >= self.max_tries
    }

    fn fires_before(&self, vm: &Vm<'_>, t: ThreadId, consumed: &[bool]) -> Option<usize> {
        let th = vm.thread(t);
        self.bucket(t, th.sync_seq).iter().copied().find(|&i| {
            !consumed[i]
                && match self.run.preemptions[i].point.kind {
                    CandidateKind::ThreadStart => th.steps_taken == 0,
                    CandidateKind::BeforeAcquire => {
                        matches!(vm.next_inst(t), Some(Inst::Acquire { .. }))
                    }
                    CandidateKind::BeforeJoin => {
                        matches!(vm.next_inst(t), Some(Inst::Join { .. }))
                    }
                    CandidateKind::BeforeFlush => vm.flush_point(t),
                    _ => false,
                }
        })
    }

    fn fires_after(
        &self,
        t: ThreadId,
        seq_before: u32,
        was: Option<CandidateKind>,
        consumed: &[bool],
    ) -> Option<usize> {
        let was = was?;
        self.bucket(t, seq_before)
            .iter()
            .copied()
            .find(|&i| !consumed[i] && self.run.preemptions[i].point.kind == was)
    }

    fn choices(&self, vm: &Vm<'_>, preempted: ThreadId, pm: &AnnotatedCandidate) -> Vec<ThreadId> {
        vm.runnable_iter()
            .filter(|&t| t != preempted)
            .filter(|&t| match self.run.guidance {
                Guidance::All => true,
                Guidance::CsvOverlap if pm.point.kind == CandidateKind::BeforeFlush => true,
                Guidance::CsvOverlap => {
                    let pos = vm.thread(t).sync_seq;
                    let fut = self
                        .run
                        .future
                        .future(t, pos)
                        .or_else(|| self.run.future.any(t));
                    fut.is_some_and(|set| set.iter().any(|loc| pm.access_locs.contains(loc)))
                }
            })
            .collect()
    }

    /// Explores each admissible choice at preemption `i`; true once one
    /// reproduces.
    fn preempt(&mut self, vm: &Vm<'_>, t: ThreadId, i: usize, consumed: &[bool]) -> bool {
        let run = self.run;
        for c in self.choices(vm, t, &run.preemptions[i]) {
            if self.exhausted() {
                return false;
            }
            if self.explore(vm.clone(), Some(c), consumed.to_vec()) {
                return true;
            }
        }
        false
    }

    fn explore(
        &mut self,
        mut vm: Vm<'_>,
        mut current: Option<ThreadId>,
        mut consumed: Vec<bool>,
    ) -> bool {
        let mut runnable: Vec<ThreadId> = Vec::new();
        loop {
            if self.exhausted() {
                return false;
            }
            if let Some(f) = vm.failure() {
                self.tries += 1;
                return f.same_bug(&self.run.target);
            }
            if vm.steps() >= self.max_steps {
                self.tries += 1;
                return false;
            }
            vm.runnable_into(&mut runnable);
            if runnable.is_empty() {
                self.tries += 1;
                return false;
            }
            let t = match current {
                Some(c) if runnable.contains(&c) => c,
                _ => runnable[0],
            };
            current = Some(t);

            if let Some(i) = self.fires_before(&vm, t, &consumed) {
                consumed[i] = true;
                if self.preempt(&vm, t, i, &consumed) {
                    return true;
                }
                continue;
            }

            let seq_before = vm.thread(t).sync_seq;
            let after_kind = match vm.next_inst(t) {
                Some(Inst::Release { .. }) => Some(CandidateKind::AfterRelease),
                Some(Inst::Spawn { .. }) => Some(CandidateKind::AfterSpawn),
                _ => None,
            };
            vm.step(t, &mut NullObserver);

            if let Some(i) = self.fires_after(t, seq_before, after_kind, &consumed) {
                consumed[i] = true;
                if self.preempt(&vm, t, i, &consumed) {
                    return true;
                }
            }
        }
    }
}

/// The scheduling policy of a [`reference_run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReferencePolicy {
    /// [`DeterministicScheduler`]'s policy: the current thread while it
    /// is runnable, else the lowest-id runnable thread.
    Deterministic,
    /// [`mcr_vm::StressScheduler`]'s policy from this seed.
    Stress(u64),
}

/// The reference run driver: [`mcr_vm::run`] as it was before schedulers
/// asked the VM which threads can step. It collects the runnable
/// threads before every step and picks from that list, with the two
/// schedulers' policies restated over the list. Kept as the oracle the
/// tests check the driver against.
pub fn reference_run(
    vm: &mut Vm<'_>,
    policy: ReferencePolicy,
    obs: &mut dyn mcr_vm::Observer,
    max_steps: u64,
) -> mcr_vm::Outcome {
    use mcr_vm::Outcome;
    let mut rng = match policy {
        ReferencePolicy::Stress(seed) => Some(SplitMix64::new(seed)),
        ReferencePolicy::Deterministic => None,
    };
    let mut current: Option<ThreadId> = None;
    let mut runnable: Vec<ThreadId> = Vec::new();
    loop {
        if let Some(f) = vm.failure() {
            return Outcome::Crashed(f);
        }
        if vm.steps() >= max_steps {
            return Outcome::StepLimit;
        }
        vm.runnable_into(&mut runnable);
        if runnable.is_empty() {
            return if vm.all_done() {
                Outcome::Completed
            } else {
                Outcome::Deadlock
            };
        }
        let t = match (&mut rng, current) {
            (None, Some(c)) if runnable.contains(&c) => c,
            (None, _) => runnable[0],
            (Some(rng), current) => {
                // 20% switch odds per statement, doubled before a flush
                // point; one draw to stay, one more to switch.
                let stay = current.filter(|&c| {
                    runnable.contains(&c) && {
                        let switch = if vm.flush_point(c) { 40 } else { 20 };
                        rng.next_below(100) >= switch
                    }
                });
                match stay {
                    Some(c) => c,
                    None => runnable[rng.next_below(runnable.len() as u64) as usize],
                }
            }
        };
        current = Some(t);
        vm.step(t, obs);
    }
}

/// Deterministic seed sequence for tests that iterate over schedules:
/// same `label` → same seeds, across runs and platforms.
pub fn seeds(label: &str, n: usize) -> Vec<u64> {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in label.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut rng = SplitMix64::new(h);
    (0..n).map(|_| rng.next_u64()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_tier_is_smoke() {
        // The suite must never depend on the full tier being active.
        if std::env::var("MCR_TEST_TIER").is_err() {
            assert_eq!(tier(), Tier::Smoke);
        }
        assert!(stress_seed_cap() >= 200_000);
        assert!(search_max_tries() >= 10_000);
    }

    #[test]
    fn seeds_are_stable_and_distinct() {
        let a = seeds("alpha", 16);
        let b = seeds("alpha", 16);
        let c = seeds("beta", 16);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let distinct: std::collections::HashSet<u64> = a.iter().copied().collect();
        assert_eq!(distinct.len(), a.len());
    }

    #[test]
    fn canned_heap_dump_has_refpaths() {
        let (_program, dump) = canned_heap_dump();
        let vars = mcr_dump::reachable_vars(&dump, mcr_dump::TraverseLimits::default());
        // The linked list must be reachable through multi-hop paths.
        assert!(
            vars.keys().any(|path| path.steps.len() >= 3),
            "expected a multi-hop heap refpath"
        );
    }
}
