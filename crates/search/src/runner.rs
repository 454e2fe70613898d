//! Test execution with injected preemptions (Algorithm 2's `testrun` and
//! `preempt`).
//!
//! A test run replays the program under the deterministic policy, but at
//! each scheduled preemption point it forces a context switch. Which
//! thread runs next is a branching choice: the paper's `preempt()`
//! checkpoints the execution and tries each admissible thread in turn.
//! Here checkpointing is a [`Vm`] clone, and the exploration is a
//! depth-first search over those choices; every completed execution
//! counts as one *try* (the unit of the paper's Table 4).
//!
//! The step loop is the search's innermost loop, so it builds nothing
//! per try and hashes nothing per step. A preemption set has one or two
//! members: each step scans it for a pending member anchored at the
//! thread's `(tid, sync_seq)`, with no index. The next thread is picked
//! without collecting the runnable list: the current thread if it can
//! still step, else the first runnable one. The statement an
//! after-anchor needs is decoded only when such a member waits at the
//! thread's position.

use crate::candidates::{AnnotatedCandidate, CandidateKind, FutureCsvMap};
use mcr_lang::Inst;
use mcr_vm::{Failure, NullObserver, ThreadId, Vm};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A cooperative cancellation flag shared between a search (or any other
/// long-running phase) and the code driving it.
///
/// Cloning the token shares the flag: any clone's [`CancelToken::cancel`]
/// is observed by every other clone. A [`Budget`] carrying the token
/// reports itself exhausted once the flag is set, so an in-flight
/// [`find_schedule`](crate::find_schedule) unwinds at the next poll —
/// within one explored statement — and returns a partial
/// [`SearchResult`](crate::SearchResult) instead of blocking.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Sets the flag. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Bounds of the *adaptive* deadline-poll period: how many
/// [`Budget::exhausted`] polls share one `Instant::now()` read. The
/// deadline is coarse (the paper's 18-hour cutoff equivalent), so a
/// clock syscall on every poll — once per explored statement — is pure
/// overhead; between real reads the cached verdict is returned. A fixed
/// period couples the overshoot to the *poll rate*: a search stepping
/// millions of statements per second barely notices 256 polls, but one
/// stalled in slow combinations (deep preemption recursion, large VM
/// clones) could blow past a deadline by the full period. The period
/// therefore scales to the observed rate — each clock read measures the
/// wall time since the previous one and halves the period when the
/// window drifts above [`POLL_WINDOW_HIGH`] (or doubles it below
/// [`POLL_WINDOW_LOW`]) — so the time between reads converges on
/// roughly a millisecond regardless of steps/s, bounding the deadline
/// overshoot to that order.
const MIN_POLL_PERIOD: u32 = 16;
/// Upper period bound (reached by fast pollers within ~a dozen reads).
const MAX_POLL_PERIOD: u32 = 65_536;
/// Clock-read window above which the period halves.
const POLL_WINDOW_HIGH: std::time::Duration = std::time::Duration::from_millis(2);
/// Clock-read window below which the period doubles.
const POLL_WINDOW_LOW: std::time::Duration = std::time::Duration::from_micros(250);

/// A try pool shared by the workers of a parallel search. The counter is
/// debited as each try *completes* (not snapshotted up front), so the
/// configured cap bounds total work across all workers to within one
/// in-flight try per worker.
#[derive(Debug, Default)]
pub(crate) struct SharedTries {
    count: AtomicU64,
    max: u64,
}

impl SharedTries {
    pub(crate) fn new(max: u64) -> Arc<SharedTries> {
        Arc::new(SharedTries {
            count: AtomicU64::new(0),
            max,
        })
    }

    /// Tries completed across all workers so far.
    pub(crate) fn used(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Whether the pool is spent.
    pub(crate) fn exhausted_now(&self) -> bool {
        self.used() >= self.max
    }
}

/// Budget shared across an entire schedule search.
#[derive(Debug)]
pub struct Budget {
    /// Maximum completed executions.
    pub max_tries: u64,
    /// Completed executions so far.
    pub tries: u64,
    /// Wall-clock deadline.
    pub deadline: Option<Instant>,
    /// Per-run step cap.
    pub max_steps: u64,
    /// Deadline-poll cache: reads the clock once per `poll_period`
    /// polls and replays the last verdict in between; the period adapts
    /// to the observed poll rate (see `MIN_POLL_PERIOD`). Re-keyed
    /// (and re-read immediately) whenever `deadline` is replaced.
    polls_left: Cell<u32>,
    poll_period: Cell<u32>,
    last_poll: Cell<Option<Instant>>,
    poll_key: Cell<Option<Instant>>,
    poll_expired: Cell<bool>,
    /// Obsolete-watch for parallel workers: `(winner, my_index)`. The
    /// shared cell holds the lowest reproducing worklist index found so
    /// far (`usize::MAX` = none); once it drops *below* this worker's
    /// index, the combination under test can no longer affect the
    /// result and the budget reports itself exhausted. Because the
    /// winner index only ever decreases, a combination at or below the
    /// final winner never observes the watch firing — its try count
    /// stays serial-identical.
    obsolete: Option<(Arc<AtomicUsize>, usize)>,
    /// Global pool this worker-local budget also draws from (parallel
    /// searches only).
    shared: Option<Arc<SharedTries>>,
    /// Cooperative cancellation: once the token fires, the budget is
    /// exhausted.
    cancel: Option<CancelToken>,
}

impl Budget {
    /// A budget with the given try cap and no deadline.
    pub fn with_tries(max_tries: u64, max_steps: u64) -> Budget {
        Budget {
            max_tries,
            tries: 0,
            deadline: None,
            max_steps,
            polls_left: Cell::new(0),
            poll_period: Cell::new(MIN_POLL_PERIOD),
            last_poll: Cell::new(None),
            poll_key: Cell::new(None),
            poll_expired: Cell::new(false),
            obsolete: None,
            shared: None,
            cancel: None,
        }
    }

    /// Attaches a cancellation token: once it fires, the budget reports
    /// itself exhausted.
    pub fn with_cancel(mut self, token: CancelToken) -> Budget {
        self.cancel = Some(token);
        self
    }

    /// Whether the attached token (if any) has fired.
    pub fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// Attaches a shared try pool: every recorded try also debits the
    /// pool, and pool exhaustion exhausts this budget.
    pub(crate) fn with_shared(mut self, pool: Arc<SharedTries>) -> Budget {
        self.shared = Some(pool);
        self
    }

    /// Attaches an obsolete-watch (parallel searches only): the budget
    /// reports itself exhausted once `winner` drops below `my_index`,
    /// aborting speculative work a lower combination has already beaten.
    pub(crate) fn with_obsolete(mut self, winner: Arc<AtomicUsize>, my_index: usize) -> Budget {
        self.obsolete = Some((winner, my_index));
        self
    }

    /// Counts one completed execution (and debits the shared pool, if
    /// any).
    pub(crate) fn record_try(&mut self) {
        self.tries += 1;
        if let Some(pool) = &self.shared {
            pool.count.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether the budget is exhausted.
    ///
    /// The try cap is exact; the deadline is polled through a cache
    /// whose clock-read period adapts to the observed poll rate (see
    /// `MIN_POLL_PERIOD`), so a deadline overrun is noticed within
    /// roughly a poll window — milliseconds — regardless of how fast or
    /// slow the search is stepping.
    pub fn exhausted(&self) -> bool {
        if self.tries >= self.max_tries {
            return true;
        }
        if self.cancelled() {
            return true;
        }
        if let Some((winner, my_index)) = &self.obsolete {
            if winner.load(Ordering::Acquire) < *my_index {
                return true;
            }
        }
        if let Some(pool) = &self.shared {
            if pool.exhausted_now() {
                return true;
            }
        }
        let Some(deadline) = self.deadline else {
            return false;
        };
        if self.poll_key.get() != Some(deadline) {
            // The deadline was (re)set: re-key the cache and check the
            // clock on this very poll (the learned period survives —
            // the poll rate did not change with the deadline).
            self.poll_key.set(Some(deadline));
            self.poll_expired.set(false);
            self.polls_left.set(0);
            self.last_poll.set(None);
        }
        if self.poll_expired.get() {
            return true;
        }
        let left = self.polls_left.get();
        if left > 0 {
            self.polls_left.set(left - 1);
            return false;
        }
        let now = Instant::now();
        if let Some(prev) = self.last_poll.get() {
            // Steer the window between clock reads toward ~1ms: halve
            // the period when polls run slow, double it when they fly.
            let window = now.duration_since(prev);
            let period = self.poll_period.get();
            if window > POLL_WINDOW_HIGH {
                self.poll_period.set((period / 2).max(MIN_POLL_PERIOD));
            } else if window < POLL_WINDOW_LOW {
                self.poll_period.set((period * 2).min(MAX_POLL_PERIOD));
            }
        }
        self.last_poll.set(Some(now));
        self.polls_left.set(self.poll_period.get());
        let expired = now >= deadline;
        self.poll_expired.set(expired);
        expired
    }
}

/// How `preempt()` selects the thread to switch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Guidance {
    /// Plain CHESS: try every other runnable thread.
    All,
    /// Enhanced: only threads whose future CSV set overlaps the
    /// preempted block's CSV accesses (Algorithm 2, line 23).
    CsvOverlap,
}

/// One test execution request: a set of preemptions to inject.
#[derive(Debug)]
pub struct TestRun<'a, 'p> {
    /// The VM template (fresh program + input state).
    pub fresh_vm: &'a Vm<'p>,
    /// Preemptions to inject.
    pub preemptions: &'a [AnnotatedCandidate],
    /// The failure to reproduce.
    pub target: Failure,
    /// Thread-selection guidance.
    pub guidance: Guidance,
    /// Future-CSV map from the passing run (used by `CsvOverlap`).
    pub future: &'a FutureCsvMap,
}

impl TestRun<'_, '_> {
    /// Runs the test, exploring thread choices at each preemption.
    /// Returns whether the target failure was reproduced. Increments
    /// `budget.tries` once per completed execution.
    pub fn execute(&self, budget: &mut Budget) -> bool {
        let consumed = vec![false; self.preemptions.len()];
        self.explore(self.fresh_vm.clone(), None, consumed, budget)
    }

    /// The pending preemptions anchored at `(t, sync_seq)`, in index
    /// order. Every firing rule requires that match, and a preemption set
    /// has one or two members, so a scan is the whole lookup.
    fn pending_at<'s>(
        &'s self,
        t: ThreadId,
        sync_seq: u32,
        consumed: &'s [bool],
    ) -> impl Iterator<Item = (usize, &'s AnnotatedCandidate)> + 's {
        self.preemptions.iter().enumerate().filter(move |&(i, pm)| {
            !consumed[i] && pm.point.tid == t && pm.point.sync_seq == sync_seq
        })
    }

    /// Does a pending *before*-anchored preemption fire for `t` now?
    fn fires_before(&self, vm: &Vm<'_>, t: ThreadId, consumed: &[bool]) -> Option<usize> {
        let th = vm.thread(t);
        self.pending_at(t, th.sync_seq, consumed)
            .find(|(_, pm)| match pm.point.kind {
                CandidateKind::ThreadStart => th.steps_taken == 0,
                CandidateKind::BeforeAcquire => {
                    matches!(vm.next_inst(t), Some(Inst::Acquire { .. }))
                }
                CandidateKind::BeforeJoin => {
                    matches!(vm.next_inst(t), Some(Inst::Join { .. }))
                }
                CandidateKind::BeforeFlush => vm.flush_point(t),
                _ => false,
            })
            .map(|(i, _)| i)
    }

    /// The pending *after*-anchored preemption that fires once `t` has
    /// executed its next statement: the first one at `t`'s sync position
    /// whose kind is the release or spawn that statement performs. The
    /// statement is decoded only when such a preemption waits there.
    fn fires_after(&self, vm: &Vm<'_>, t: ThreadId, consumed: &[bool]) -> Option<usize> {
        let mut waiting = self
            .pending_at(t, vm.thread(t).sync_seq, consumed)
            .filter(|(_, pm)| {
                matches!(
                    pm.point.kind,
                    CandidateKind::AfterRelease | CandidateKind::AfterSpawn
                )
            })
            .peekable();
        waiting.peek()?;
        let was = match vm.next_inst(t) {
            Some(Inst::Release { .. }) => CandidateKind::AfterRelease,
            Some(Inst::Spawn { .. }) => CandidateKind::AfterSpawn,
            _ => return None,
        };
        waiting.find(|(_, pm)| pm.point.kind == was).map(|(i, _)| i)
    }

    /// Admissible switch targets at preemption `pm` (Algorithm 2's
    /// `preempt`): other runnable threads, filtered by CSV overlap under
    /// guidance.
    fn choices(&self, vm: &Vm<'_>, preempted: ThreadId, pm: &AnnotatedCandidate) -> Vec<ThreadId> {
        vm.runnable_iter()
            .filter(|&t| t != preempted)
            .filter(|&t| match self.guidance {
                Guidance::All => true,
                // A flush preemption perturbs the *visibility* of stores
                // already executed, and the threads that race with stale
                // memory do so on paths the passing run never took (a
                // stale read flips a branch — that is what makes the bug
                // SC-unreachable). Passing-run future-CSV sets therefore
                // systematically under-approximate at flush anchors, and
                // the CSV diff itself can be empty when the raced state
                // converges afterwards; fall back to unguided selection.
                Guidance::CsvOverlap if pm.point.kind == CandidateKind::BeforeFlush => true,
                Guidance::CsvOverlap => {
                    let pos = vm.thread(t).sync_seq;
                    let fut = self.future.future(t, pos).or_else(|| self.future.any(t));
                    match fut {
                        Some(set) => set
                            .iter()
                            .any(|loc| pm.access_locs.binary_search(loc).is_ok()),
                        None => false,
                    }
                }
            })
            .collect()
    }

    /// Depth-first exploration. Returns true as soon as any completed
    /// execution reproduces the target.
    fn explore(
        &self,
        mut vm: Vm<'_>,
        mut current: Option<ThreadId>,
        mut consumed: Vec<bool>,
        budget: &mut Budget,
    ) -> bool {
        loop {
            if budget.exhausted() {
                return false;
            }
            if let Some(f) = vm.failure() {
                budget.record_try();
                return f.same_bug(&self.target);
            }
            if vm.steps() >= budget.max_steps {
                budget.record_try();
                return false;
            }
            // The deterministic policy: keep the current thread while
            // runnable, else the lowest-id runnable thread.
            let t = match current {
                Some(c) if vm.runnable(c) => c,
                _ => match vm.runnable_iter().next() {
                    Some(t) => t,
                    None => {
                        budget.record_try();
                        return false;
                    }
                },
            };
            current = Some(t);

            // Before-anchored preemption?
            if let Some(i) = self.fires_before(&vm, t, &consumed) {
                consumed[i] = true;
                let pm = &self.preemptions[i];
                let choices = self.choices(&vm, t, pm);
                for &c in &choices {
                    if budget.exhausted() {
                        return false;
                    }
                    if self.explore(vm.clone(), Some(c), consumed.clone(), budget) {
                        return true;
                    }
                }
                // All selections failed (or none admissible): continue the
                // original schedule without the preemption, as the paper's
                // preempt() does after restoring its checkpoint.
                continue;
            }

            let fires_after = self.fires_after(&vm, t, &consumed);
            vm.step(t, &mut NullObserver);

            // After-anchored preemption?
            if let Some(i) = fires_after {
                consumed[i] = true;
                let pm = &self.preemptions[i];
                let choices = self.choices(&vm, t, pm);
                for &c in &choices {
                    if budget.exhausted() {
                        return false;
                    }
                    if self.explore(vm.clone(), Some(c), consumed.clone(), budget) {
                        return true;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{annotate, SyncLogger};
    use mcr_vm::{run, DeterministicScheduler, MemLoc, StressScheduler, Vm};
    use std::collections::{HashMap, HashSet};

    /// The paper's Fig. 1 race: passing deterministically, failing when
    /// T2's `x = 0` lands between T1's release and its `!x` check.
    const FIG1: &str = r#"
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
        fn main() {
            spawn T1();
            spawn T2();
        }
    "#;

    fn setup(
        src: &str,
        input: &[i64],
    ) -> (
        mcr_lang::Program,
        Failure,
        crate::candidates::PassingRunInfo,
    ) {
        let p = mcr_lang::compile(src).unwrap();
        // Find a failing stress seed to get the target failure.
        let mut failure = None;
        for seed in 0..50_000 {
            let mut vm = Vm::new(&p, input);
            let mut s = StressScheduler::new(seed);
            run(&mut vm, &mut s, &mut NullObserver, 1_000_000);
            if let Some(f) = vm.failure() {
                failure = Some(f);
                break;
            }
        }
        let failure = failure.expect("stress must expose the race");
        // Passing run info.
        let mut vm = Vm::new(&p, input);
        let mut s = DeterministicScheduler::new();
        let mut log = SyncLogger::new();
        let out = run(&mut vm, &mut s, &mut log, 1_000_000);
        assert_eq!(out, mcr_vm::Outcome::Completed, "passing run must pass");
        (p, failure, log.finish())
    }

    #[test]
    fn fig1_reproduced_with_one_preemption() {
        let (p, failure, info) = setup(FIG1, &[0, 1]);
        let x = p.global_by_name("x").unwrap();
        let mut csvs = HashSet::new();
        csvs.insert(MemLoc::Global(x));
        let (ann, fut) = annotate(&info, &csvs, &HashMap::new());

        // The release in iteration 2 of T1 leads the block reading !x.
        let t1 = ThreadId(1);
        let release2 = ann
            .iter()
            .find(|a| {
                a.point.tid == t1
                    && a.point.kind == CandidateKind::AfterRelease
                    && a.point.sync_seq == 3
            })
            .expect("second release candidate");
        assert!(release2
            .access_locs
            .contains(&crate::candidates::CoarseLoc::Global(x)));

        let fresh = Vm::new(&p, &[0, 1]);
        let pre = vec![release2.clone()];
        let tr = TestRun {
            fresh_vm: &fresh,
            preemptions: &pre,
            target: failure,
            guidance: Guidance::CsvOverlap,
            future: &fut,
        };
        let mut budget = Budget::with_tries(100, 1_000_000);
        assert!(tr.execute(&mut budget), "failure must be reproduced");
        assert!(budget.tries <= 3, "took {} tries", budget.tries);
    }

    #[test]
    fn wrong_preemption_does_not_reproduce() {
        let (p, failure, info) = setup(FIG1, &[0, 1]);
        let x = p.global_by_name("x").unwrap();
        let mut csvs = HashSet::new();
        csvs.insert(MemLoc::Global(x));
        let (ann, fut) = annotate(&info, &csvs, &HashMap::new());
        // Preempting T1 at its very start cannot create the race.
        let t1_start = ann
            .iter()
            .find(|a| a.point.tid == ThreadId(1) && a.point.kind == CandidateKind::ThreadStart)
            .unwrap();
        let fresh = Vm::new(&p, &[0, 1]);
        let pre = vec![t1_start.clone()];
        let tr = TestRun {
            fresh_vm: &fresh,
            preemptions: &pre,
            target: failure,
            guidance: Guidance::All,
            future: &fut,
        };
        let mut budget = Budget::with_tries(100, 1_000_000);
        assert!(!tr.execute(&mut budget));
        assert!(budget.tries >= 1);
    }

    #[test]
    fn guidance_reduces_choices() {
        let (p, failure, info) = setup(FIG1, &[0, 1]);
        let x = p.global_by_name("x").unwrap();
        let mut csvs = HashSet::new();
        csvs.insert(MemLoc::Global(x));
        let (ann, fut) = annotate(&info, &csvs, &HashMap::new());
        let release2 = ann
            .iter()
            .find(|a| {
                a.point.tid == ThreadId(1)
                    && a.point.kind == CandidateKind::AfterRelease
                    && a.point.sync_seq == 3
            })
            .unwrap();
        let fresh = Vm::new(&p, &[0, 1]);
        let pre = vec![release2.clone()];

        let mut unguided_budget = Budget::with_tries(1000, 1_000_000);
        let tr_all = TestRun {
            fresh_vm: &fresh,
            preemptions: &pre,
            target: failure,
            guidance: Guidance::All,
            future: &fut,
        };
        assert!(tr_all.execute(&mut unguided_budget));

        let mut guided_budget = Budget::with_tries(1000, 1_000_000);
        let tr_guided = TestRun {
            fresh_vm: &fresh,
            preemptions: &pre,
            target: failure,
            guidance: Guidance::CsvOverlap,
            future: &fut,
        };
        assert!(tr_guided.execute(&mut guided_budget));
        assert!(guided_budget.tries <= unguided_budget.tries);
    }

    #[test]
    fn deadline_overshoot_stays_bounded_under_slow_polls() {
        use std::time::Duration;
        // A slow poller (~1ms per poll) with a 20ms deadline: the fixed
        // 256-poll cache would overshoot by a quarter second; the
        // adaptive period keeps clock reads within a few polls.
        let mut b = Budget::with_tries(u64::MAX, 1000);
        b.deadline = Some(Instant::now() + Duration::from_millis(20));
        let t0 = Instant::now();
        let mut polls = 0u64;
        while !b.exhausted() {
            polls += 1;
            assert!(polls < 100_000, "deadline never observed");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            t0.elapsed() < Duration::from_millis(150),
            "overshoot {:?} not bounded",
            t0.elapsed()
        );
        // Once expired, the verdict is cached.
        assert!(b.exhausted());
    }

    #[test]
    fn fast_polls_grow_the_clock_read_period() {
        use std::time::Duration;
        let mut b = Budget::with_tries(u64::MAX, 1000);
        b.deadline = Some(Instant::now() + Duration::from_secs(3600));
        // A tight poll loop drives the window under `POLL_WINDOW_LOW`,
        // doubling the period toward the cap.
        for _ in 0..2_000_000 {
            assert!(!b.exhausted());
        }
        assert!(
            b.poll_period.get() > MIN_POLL_PERIOD,
            "period stuck at {}",
            b.poll_period.get()
        );
        assert!(b.poll_period.get() <= MAX_POLL_PERIOD);
    }

    #[test]
    fn obsolete_watch_exhausts_only_beaten_indices() {
        let winner = Arc::new(AtomicUsize::new(usize::MAX));
        let at_5 = Budget::with_tries(u64::MAX, 1000).with_obsolete(Arc::clone(&winner), 5);
        assert!(!at_5.exhausted(), "no winner yet");
        winner.store(5, Ordering::Release);
        assert!(!at_5.exhausted(), "index 5 is not beaten by winner 5");
        winner.store(3, Ordering::Release);
        assert!(at_5.exhausted(), "winner 3 beats index 5");
        let at_2 = Budget::with_tries(u64::MAX, 1000).with_obsolete(Arc::clone(&winner), 2);
        assert!(!at_2.exhausted(), "indices below the winner keep running");
    }

    #[test]
    fn budget_caps_tries() {
        let (p, failure, info) = setup(FIG1, &[0, 1]);
        let (ann, fut) = annotate(&info, &HashSet::new(), &HashMap::new());
        let fresh = Vm::new(&p, &[0, 1]);
        // All candidates at once with a tiny budget: must stop.
        let tr = TestRun {
            fresh_vm: &fresh,
            preemptions: &ann,
            target: failure,
            guidance: Guidance::All,
            future: &fut,
        };
        let mut budget = Budget::with_tries(2, 1_000_000);
        let _ = tr.execute(&mut budget);
        assert!(budget.tries <= 2);
    }
}
