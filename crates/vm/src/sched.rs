//! Schedulers and run drivers.
//!
//! Three scheduling regimes cover the paper's three execution roles:
//!
//! * [`StressScheduler`] — seeded random interleaving at statement
//!   granularity. This plays the role of the *multicore production run*:
//!   uncontrolled true concurrency that occasionally exposes the
//!   Heisenbug and produces the failure core dump.
//! * [`DeterministicScheduler`] — the single-core *passing run*: run the
//!   current thread until it blocks or finishes, then pick the lowest
//!   thread id ("canonical order", as in the paper's case study). No
//!   preemption ever occurs, so the run is a pure function of program and
//!   input.
//! * preemption-injected runs for the schedule search are driven by the
//!   search crate, which uses [`Vm::step`] directly with checkpoints.

use crate::event::Observer;
use crate::failure::Failure;
use crate::rng::SplitMix64;
use crate::value::ThreadId;
use crate::vm::Vm;

/// Picks the next thread to step.
///
/// A scheduler asks the VM about the threads it considers
/// ([`Vm::runnable`]) instead of receiving the runnable list, so a
/// driver step that keeps the current thread checks one thread, not
/// every thread.
pub trait Scheduler {
    /// Chooses a thread for which [`Vm::runnable`] holds, or `None` when
    /// no thread is runnable.
    fn pick(&mut self, vm: &Vm<'_>) -> Option<ThreadId>;
}

/// Non-preemptive single-core scheduler: keep running the current thread
/// while it can run, otherwise switch to the runnable thread with the
/// lowest id.
#[derive(Debug, Default, Clone)]
pub struct DeterministicScheduler {
    current: Option<ThreadId>,
}

impl DeterministicScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for DeterministicScheduler {
    fn pick(&mut self, vm: &Vm<'_>) -> Option<ThreadId> {
        let pick = match self.current {
            Some(c) if vm.runnable(c) => c,
            _ => vm.runnable_iter().next()?,
        };
        self.current = Some(pick);
        Some(pick)
    }
}

/// Per-statement probability, in percent, that a stress run switches
/// away from the current thread (doubled right before a flush point).
const SWITCH_PERCENT: u64 = 20;

/// Seeded random scheduler simulating multicore interleaving.
///
/// Threads run in *bursts*: at every statement boundary the current
/// thread continues with probability `1 - SWITCH_PERCENT/100` (80%) and
/// is otherwise replaced by a uniformly random runnable thread.
/// Geometric burst lengths are the standard software model of truly
/// parallel cores with scheduling quanta and memory-system jitter; a
/// uniform per-statement choice would make long thread delays (the ones
/// that expose ordering bugs) astronomically unlikely.
#[derive(Debug, Clone)]
pub struct StressScheduler {
    rng: SplitMix64,
    current: Option<ThreadId>,
}

impl StressScheduler {
    /// Creates a stress scheduler from a seed; the same seed replays the
    /// same interleaving.
    pub fn new(seed: u64) -> Self {
        StressScheduler {
            rng: SplitMix64::new(seed),
            current: Option::None,
        }
    }
}

impl Scheduler for StressScheduler {
    fn pick(&mut self, vm: &Vm<'_>) -> Option<ThreadId> {
        if let Some(c) = self.current {
            if vm.runnable(c) {
                // Flush points (pending store-buffer drains, fences) are
                // where weak-memory reorderings become observable, so a
                // stress run leans into them: double the switch odds right
                // before one. Exactly one rng draw either way keeps the
                // interleaving bit-identical for programs that never reach
                // a flush point (every SC program without fences).
                let switch = if vm.flush_point(c) {
                    SWITCH_PERCENT * 2
                } else {
                    SWITCH_PERCENT
                };
                if self.rng.next_below(100) >= switch {
                    return Some(c);
                }
            }
        }
        // A uniform draw over the runnable threads in id order, counted
        // and then walked again: no list is built, and the draws are the
        // ones a pick from the collected list makes.
        let runnable = vm.runnable_iter().count();
        if runnable == 0 {
            return None;
        }
        let nth = self.rng.next_below(runnable as u64) as usize;
        let pick = vm.runnable_iter().nth(nth)?;
        self.current = Some(pick);
        Some(pick)
    }
}

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Every thread finished.
    Completed,
    /// The run crashed.
    Crashed(Failure),
    /// Threads remain but none is runnable (lock or join cycle).
    Deadlock,
    /// The step budget was exhausted.
    StepLimit,
    /// The `stop` predicate fired (state is as of that moment).
    Stopped,
}

impl Outcome {
    /// The failure, if the run crashed.
    pub fn failure(&self) -> Option<Failure> {
        match self {
            Outcome::Crashed(f) => Some(*f),
            _ => None,
        }
    }
}

/// Default step budget for driver loops.
pub const DEFAULT_MAX_STEPS: u64 = 50_000_000;

/// Runs the VM under `sched` until completion, crash, deadlock, or the
/// step budget is exhausted.
pub fn run(
    vm: &mut Vm<'_>,
    sched: &mut dyn Scheduler,
    obs: &mut dyn Observer,
    max_steps: u64,
) -> Outcome {
    run_until(vm, sched, obs, max_steps, |_| false)
}

/// Like [`run`], but additionally stops (returning [`Outcome::Stopped`])
/// as soon as `stop` returns true between steps. `stop` is evaluated
/// before each step, so `|vm| vm.steps() > n` stops with exactly `n + 1`
/// steps executed. `stop` sees the VM at the run's program lifetime, so
/// it may keep a clone of it as a checkpoint.
pub fn run_until<'p>(
    vm: &mut Vm<'p>,
    sched: &mut dyn Scheduler,
    obs: &mut dyn Observer,
    max_steps: u64,
    mut stop: impl FnMut(&Vm<'p>) -> bool,
) -> Outcome {
    loop {
        if let Some(f) = vm.failure() {
            return Outcome::Crashed(f);
        }
        if stop(vm) {
            return Outcome::Stopped;
        }
        if vm.steps() >= max_steps {
            return Outcome::StepLimit;
        }
        let Some(t) = sched.pick(vm) else {
            return if vm.all_done() {
                Outcome::Completed
            } else {
                Outcome::Deadlock
            };
        };
        debug_assert!(vm.runnable(t), "scheduler picked unrunnable thread");
        vm.step(t, obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{NullObserver, Recorder};
    use crate::value::Value;
    use crate::vm::GSlot;

    const RACY: &str = r#"
        global x: int;
        fn t1() { x = x + 1; x = x + 1; x = x + 1; x = x + 1; x = x + 1; }
        fn t2() { x = 0; x = 0; x = 0; }
        fn main() { var a; var b; a = spawn t1(); b = spawn t2(); join a; join b; }
    "#;

    #[test]
    fn deterministic_runs_are_identical() {
        let p = mcr_lang::compile(RACY).unwrap();
        let mut outs = Vec::new();
        for _ in 0..3 {
            let mut vm = Vm::new(&p, &[]);
            let mut s = DeterministicScheduler::new();
            let out = run(&mut vm, &mut s, &mut NullObserver, 1_000_000);
            assert_eq!(out, Outcome::Completed);
            let g = p.global_by_name("x").unwrap();
            outs.push(vm.globals()[g.0 as usize].clone());
        }
        assert_eq!(outs[0], outs[1]);
        assert_eq!(outs[1], outs[2]);
    }

    #[test]
    fn deterministic_trace_is_stable() {
        let p = mcr_lang::compile(RACY).unwrap();
        let trace = |_: ()| {
            let mut vm = Vm::new(&p, &[]);
            let mut s = DeterministicScheduler::new();
            let mut rec = Recorder::default();
            run(&mut vm, &mut s, &mut rec, 1_000_000);
            rec.events
        };
        assert_eq!(trace(()), trace(()));
    }

    #[test]
    fn stress_same_seed_same_result() {
        let p = mcr_lang::compile(RACY).unwrap();
        let result = |seed: u64| {
            let mut vm = Vm::new(&p, &[]);
            let mut s = StressScheduler::new(seed);
            run(&mut vm, &mut s, &mut NullObserver, 1_000_000);
            let g = p.global_by_name("x").unwrap();
            vm.globals()[g.0 as usize].clone()
        };
        assert_eq!(result(7), result(7));
    }

    #[test]
    fn stress_explores_different_interleavings() {
        let p = mcr_lang::compile(RACY).unwrap();
        let mut distinct = std::collections::HashSet::new();
        for seed in 0..40 {
            let mut vm = Vm::new(&p, &[]);
            let mut s = StressScheduler::new(seed);
            run(&mut vm, &mut s, &mut NullObserver, 1_000_000);
            let g = p.global_by_name("x").unwrap();
            if let GSlot::Scalar(Value::Int(v)) = vm.globals()[g.0 as usize] {
                distinct.insert(v);
            }
        }
        // Racy increments/resets must yield more than one final value
        // across 40 random interleavings.
        assert!(distinct.len() > 1, "only saw {distinct:?}");
    }

    #[test]
    fn flush_points_do_not_perturb_sc_interleavings() {
        // A fence-free SC program never reaches a flush point, so the
        // flush-aware pick must replay the exact interleaving the
        // historical scheduler produced (same rng draw sequence).
        let p = mcr_lang::compile(RACY).unwrap();
        for seed in [1u64, 7, 42, 1337] {
            let trace = |_: ()| {
                let mut vm = Vm::new(&p, &[]);
                let mut s = StressScheduler::new(seed);
                let mut rec = Recorder::default();
                run(&mut vm, &mut s, &mut rec, 1_000_000);
                rec.events
            };
            assert_eq!(trace(()), trace(()));
        }
    }

    #[test]
    fn deadlock_detection() {
        let src = r#"
            lock a; lock b;
            fn t1() { acquire a; acquire b; release b; release a; }
            fn main() { acquire b; spawn t1(); acquire a; release a; release b; }
        "#;
        let p = mcr_lang::compile(src).unwrap();
        // Force the interleaving: main holds b, t1 holds a, both wait.
        let mut vm = Vm::new(&p, &[]);
        let mut obs = NullObserver;
        let main = ThreadId(0);
        vm.step(main, &mut obs); // acquire b
        vm.step(main, &mut obs); // spawn t1
        let t1 = ThreadId(1);
        vm.step(t1, &mut obs); // acquire a
        assert!(!vm.runnable(t1), "t1 waits for b");
        assert!(!vm.runnable(main), "main waits for a");
        let mut s = DeterministicScheduler::new();
        let out = run(&mut vm, &mut s, &mut obs, 1000);
        assert_eq!(out, Outcome::Deadlock);
    }

    #[test]
    fn step_limit() {
        let p = mcr_lang::compile("global x: int; fn main() { while (1) { x = x + 1; } }").unwrap();
        let mut vm = Vm::new(&p, &[]);
        let mut s = DeterministicScheduler::new();
        let out = run(&mut vm, &mut s, &mut NullObserver, 500);
        assert_eq!(out, Outcome::StepLimit);
    }

    #[test]
    fn run_until_stops_at_predicate() {
        let p = mcr_lang::compile("global x: int; fn main() { x = 1; x = 2; x = 3; }").unwrap();
        let mut vm = Vm::new(&p, &[]);
        let mut s = DeterministicScheduler::new();
        let out = run_until(&mut vm, &mut s, &mut NullObserver, 1000, |vm| {
            vm.steps() >= 2
        });
        assert_eq!(out, Outcome::Stopped);
        assert_eq!(vm.steps(), 2);
    }

    #[test]
    fn crash_outcome_reports_failure() {
        let p = mcr_lang::compile("fn main() { var p; p = null; p[0] = 1; }").unwrap();
        let mut vm = Vm::new(&p, &[]);
        let mut s = DeterministicScheduler::new();
        let out = run(&mut vm, &mut s, &mut NullObserver, 1000);
        assert!(matches!(out, Outcome::Crashed(_)));
        assert_eq!(
            out.failure().unwrap().kind.to_string(),
            "null pointer dereference"
        );
    }
}
