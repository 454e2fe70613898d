//! Stress testing: producing the failure core dump.
//!
//! The paper acquires its failure dumps by stress-testing the buggy
//! programs on multiple cores until the reported failure appears (§6,
//! "while stress testing is very expensive, it is not part of our
//! proposed technique"). The equivalent here: run under the seeded
//! bursty [`StressScheduler`] over a seed range until the run crashes.
//! [`find_failure`] scans the seeds in order; [`find_failure_par`] fans
//! the same scan over worker threads and returns the same failure.

use mcr_dump::CoreDump;
use mcr_lang::Program;
use mcr_vm::{run, FaultSpec, MemModel, NullObserver, Outcome, StressScheduler, Vm};
use std::sync::atomic::{AtomicU64, Ordering};

/// Execution environment a stress campaign (and its dump capture) runs
/// under: the memory model and any injected faults. The default is the
/// plain SC, fault-free environment every pre-existing caller gets.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunConfig {
    /// Memory consistency model.
    pub mem_model: MemModel,
    /// Fault-injection plan.
    pub faults: Vec<FaultSpec>,
}

impl RunConfig {
    /// Builds a VM for `program`/`input` running under this environment.
    fn vm<'p>(&self, program: &'p Program, input: &[i64]) -> Vm<'p> {
        Vm::new(program, input)
            .with_mem_model(self.mem_model)
            .with_faults(&self.faults)
    }
}

/// Outcome of a stress campaign.
#[derive(Debug, Clone)]
pub struct StressFailure {
    /// The seed that exposed the failure.
    pub seed: u64,
    /// Seeds tried before (and including) the failing one.
    pub seeds_tried: u64,
    /// The failure core dump.
    pub dump: CoreDump,
    /// Steps the failing run executed.
    pub steps: u64,
    /// Instructions the failing run retired.
    pub instrs: u64,
}

/// Runs the program under random interleavings until it crashes.
///
/// Returns `None` when no seed in `seeds` exposes a failure within
/// `max_steps` per run.
pub fn find_failure(
    program: &Program,
    input: &[i64],
    seeds: std::ops::Range<u64>,
    max_steps: u64,
) -> Option<StressFailure> {
    find_failure_cfg(program, input, seeds, max_steps, &RunConfig::default())
}

/// [`find_failure`] under an explicit execution environment (memory
/// model and fault plan).
pub fn find_failure_cfg(
    program: &Program,
    input: &[i64],
    seeds: std::ops::Range<u64>,
    max_steps: u64,
    cfg: &RunConfig,
) -> Option<StressFailure> {
    let start = seeds.start;
    for seed in seeds {
        let mut vm = cfg.vm(program, input);
        let mut sched = StressScheduler::new(seed);
        let outcome = run(&mut vm, &mut sched, &mut NullObserver, max_steps);
        if let Outcome::Crashed(_) = outcome {
            let dump = CoreDump::capture_failure(&vm).expect("crashed");
            return Some(StressFailure {
                seed,
                seeds_tried: seed - start + 1,
                dump,
                steps: vm.steps(),
                instrs: vm.instrs(),
            });
        }
    }
    None
}

/// Parallel seed scan: like [`find_failure`] but fanning the seed range
/// over `parallelism` worker threads (a work-stealing pool). The *lowest*
/// crashing seed wins, so the returned failure — seed, tried count, and
/// dump — is bit-identical to the serial scan; `parallelism <= 1` simply
/// runs [`find_failure`].
pub fn find_failure_par(
    program: &Program,
    input: &[i64],
    seeds: std::ops::Range<u64>,
    max_steps: u64,
    parallelism: usize,
) -> Option<StressFailure> {
    if parallelism <= 1 {
        return find_failure(program, input, seeds, max_steps);
    }
    let start = seeds.start;
    let n = usize::try_from(seeds.end.saturating_sub(start)).unwrap_or(usize::MAX);
    // Lowest crashing seed found so far (u64::MAX = none).
    let winner = AtomicU64::new(u64::MAX);
    minipool::Pool::new(parallelism).for_each_index(n, |i| {
        let seed = start + i as u64;
        // A seed above the current winner can never become the answer
        // (`fetch_min` only lowers it); seeds below always run.
        if seed > winner.load(Ordering::Acquire) {
            return;
        }
        let mut vm = RunConfig::default().vm(program, input);
        let mut sched = StressScheduler::new(seed);
        if let Outcome::Crashed(_) = run(&mut vm, &mut sched, &mut NullObserver, max_steps) {
            winner.fetch_min(seed, Ordering::AcqRel);
        }
    });
    let seed = winner.load(Ordering::Acquire);
    if seed == u64::MAX {
        return None;
    }
    // Replay the winning seed to capture the dump: stress runs are pure
    // functions of the seed, so this reproduces the identical crash state
    // without shipping VM snapshots across threads.
    let mut failure =
        find_failure(program, input, seed..seed + 1, max_steps).expect("the winning seed crashes");
    failure.seeds_tried = seed - start + 1;
    Some(failure)
}

/// Verifies that the program passes deterministically (the Heisenbug
/// premise: the single-core canonical run does not fail).
pub fn passes_deterministically(program: &Program, input: &[i64], max_steps: u64) -> bool {
    passes_deterministically_cfg(program, input, max_steps, &RunConfig::default())
}

/// [`passes_deterministically`] under an explicit execution environment.
pub fn passes_deterministically_cfg(
    program: &Program,
    input: &[i64],
    max_steps: u64,
    cfg: &RunConfig,
) -> bool {
    let mut vm = cfg.vm(program, input);
    let mut sched = mcr_vm::DeterministicScheduler::new();
    matches!(
        run(&mut vm, &mut sched, &mut NullObserver, max_steps),
        Outcome::Completed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const RACE: &str = r#"
        global x: int;
        lock l;
        fn F(p) { p[0] = 1; }
        fn T1() {
            var i; var p;
            for (i = 0; i < 2; i = i + 1) {
                x = 0;
                p = alloc(2);
                acquire l;
                if (i > 0) { x = 1; p = null; }
                release l;
                if (!x) { F(p); }
            }
        }
        fn T2() { x = 0; }
        fn main() { spawn T1(); spawn T2(); }
    "#;

    #[test]
    fn heisenbug_premise_holds() {
        let p = mcr_lang::compile(RACE).unwrap();
        assert!(passes_deterministically(&p, &[], 100_000));
        let f = find_failure(&p, &[], 0..100_000, 100_000).expect("stress exposes");
        assert!(f.dump.failure().is_some());
        assert!(f.steps > 0);
    }

    #[test]
    fn stress_is_replayable() {
        let p = mcr_lang::compile(RACE).unwrap();
        let f1 = find_failure(&p, &[], 0..100_000, 100_000).unwrap();
        let f2 = find_failure(&p, &[], 0..100_000, 100_000).unwrap();
        assert_eq!(f1.seed, f2.seed);
        assert_eq!(f1.dump, f2.dump);
    }

    #[test]
    fn no_failure_in_clean_program() {
        let p = mcr_lang::compile("global x: int; fn main() { x = 1; }").unwrap();
        assert!(find_failure(&p, &[], 0..50, 10_000).is_none());
    }

    #[test]
    fn parallel_scan_matches_serial() {
        let p = mcr_lang::compile(RACE).unwrap();
        let serial = find_failure(&p, &[], 0..100_000, 100_000).expect("stress exposes");
        let par = find_failure_par(&p, &[], 0..100_000, 100_000, 4).expect("stress exposes");
        assert_eq!(serial.seed, par.seed);
        assert_eq!(serial.seeds_tried, par.seeds_tried);
        assert_eq!(serial.steps, par.steps);
        assert_eq!(serial.instrs, par.instrs);
        assert_eq!(serial.dump, par.dump);
    }

    #[test]
    fn parallel_scan_handles_no_failure() {
        let p = mcr_lang::compile("global x: int; fn main() { x = 1; }").unwrap();
        assert!(find_failure_par(&p, &[], 0..50, 10_000, 4).is_none());
    }

    #[test]
    fn repeated_scans_are_seed_deterministic() {
        // Equivalence, not wall time: CI may be single-core, so the
        // property pinned is that serial and parallel scans settle on the
        // identical winner, run after run.
        let p = mcr_lang::compile(RACE).unwrap();
        let serial = find_failure(&p, &[], 0..100_000, 100_000).expect("stress exposes");
        for _ in 0..2 {
            let par = find_failure_par(&p, &[], 0..100_000, 100_000, 3).unwrap();
            assert_eq!(
                (par.seed, par.seeds_tried),
                (serial.seed, serial.seeds_tried)
            );
            assert_eq!(par.dump, serial.dump);
        }
    }
}
