//! Schedule search: plain CHESS and the paper's enhanced algorithm.
//!
//! Plain CHESS enumerates preemption combinations up to the bound `k` in
//! execution order and tries every thread selection at each injected
//! preemption. The enhanced algorithm (paper Algorithm 2):
//!
//! 1. weights every combination by the sum of the best CSV-access
//!    priorities of its members,
//! 2. sorts the worklist ascending and tests combinations in that order,
//! 3. restricts `preempt()`'s thread selection to threads whose future
//!    CSV set overlaps the perturbed block's accesses.
//!
//! The paper fixes `k = 2` ("most failures only need two preemptions").

use crate::candidates::{AnnotatedCandidate, FutureCsvMap};
use crate::runner::{Budget, CancelToken, Guidance, TestRun};
use crate::worklist::{Combo, Worklist};
use mcr_vm::{Failure, Vm};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Which search algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// The original CHESS enumeration (execution order, unguided).
    Chess,
    /// Enhanced CHESS with priority weights and guided thread selection.
    ChessX,
}

/// Configuration of one search.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Preemption bound `k` (the paper uses 2).
    pub preemption_bound: usize,
    /// Cap on completed test executions (the paper's 18-hour cutoff
    /// equivalent).
    pub max_tries: u64,
    /// Optional wall-clock budget.
    pub time_budget: Option<Duration>,
    /// Per-run step cap.
    pub max_steps: u64,
    /// When the candidate list is enormous, pairs are only formed among
    /// the `pair_pool` best candidates (by priority for ChessX, by
    /// execution order for CHESS) to bound the quadratic pair space.
    pub pair_pool: usize,
    /// Worker threads testing worklist combinations concurrently.
    ///
    /// `1` (the default) runs the exact serial loop, as does any value
    /// once clamped to the machine's physical core count (extra workers
    /// on an oversubscribed host only add contention). Higher values fan
    /// the worklist over a pool whose workers claim combinations in
    /// worklist order; the *lowest worklist
    /// index* that reproduces wins, and the reported `reproduced` /
    /// `winning` / `combinations_tested` / `tries` are identical to the
    /// serial result whenever the search finishes without hitting the
    /// try cap or deadline (speculative tries beyond the winner are
    /// spent but not reported). When the budget *does* bind mid-search,
    /// speculative work competes with low-index combinations for the
    /// remaining tries, so a cut-off parallel run may reproduce a
    /// different (or no) combination than a cut-off serial run — size
    /// `max_tries` for the serial search and treat it as a work bound,
    /// not an exact schedule.
    ///
    /// A reproduction session (`mcr_core::ReproSession`) overwrites this
    /// field with its own worker count, `ReproOptions::parallelism`: set
    /// that one on the session path.
    pub parallelism: usize,
    /// Cooperative cancellation: when the token fires mid-search, every
    /// worker unwinds at its next budget poll and the search returns a
    /// partial [`SearchResult`] with `cancelled` (and `cut_off`) set.
    /// The default token never fires.
    ///
    /// A reproduction session (`mcr_core::ReproSession`) overwrites this
    /// field with the session's token: cancel through
    /// `ReproSession::cancel_token` on the session path.
    pub cancel: CancelToken,
    /// An injected executor handle. `None` (the default) builds a
    /// private pool of [`SearchConfig::parallelism`] workers per search,
    /// the historical behavior; a batch scheduler instead hands every
    /// search a clone of *one* handle (typically carrying a shared
    /// [`minipool::Limit`]) so concurrent searches draw from a single
    /// fleet-wide thread budget. When set, the handle's
    /// [`threads()`](minipool::Pool::threads) supersedes `parallelism`.
    pub pool: Option<minipool::Pool>,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            preemption_bound: 2,
            max_tries: 20_000,
            time_budget: None,
            max_steps: 10_000_000,
            pair_pool: 512,
            parallelism: 1,
            cancel: CancelToken::new(),
            pool: None,
        }
    }
}

impl SearchConfig {
    /// The executor this search will fan out over: the injected handle,
    /// or a private pool of `parallelism` workers.
    pub fn executor(&self) -> minipool::Pool {
        self.pool
            .clone()
            .unwrap_or_else(|| minipool::Pool::new(self.parallelism))
    }
}

/// Result of a schedule search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// Whether the failure was reproduced.
    pub reproduced: bool,
    /// Completed test executions (the "tries" of Table 4).
    pub tries: u64,
    /// Combinations taken from the worklist.
    pub combinations_tested: u64,
    /// The winning preemption set, if any.
    pub winning: Option<Vec<AnnotatedCandidate>>,
    /// True when the search stopped on budget rather than success or
    /// worklist exhaustion.
    pub cut_off: bool,
    /// True when the stop was a [`CancelToken`] firing (a partial result:
    /// combinations not yet tested may still reproduce).
    pub cancelled: bool,
}

/// Searches for a failure-inducing schedule.
///
/// `fresh_vm` must be a VM at the initial state for the failing input;
/// each test clones it. `candidates` come from the passing run (see
/// [`crate::candidates::annotate`]).
pub fn find_schedule(
    fresh_vm: &Vm<'_>,
    candidates: &[AnnotatedCandidate],
    future: &FutureCsvMap,
    target: Failure,
    algorithm: Algorithm,
    config: &SearchConfig,
) -> SearchResult {
    // A budget too large to add to the clock sets no deadline: one that
    // far off can never pass.
    let deadline = config
        .time_budget
        .and_then(|d| Instant::now().checked_add(d));

    let worklist = Worklist::new(candidates, algorithm, config);
    let guidance = match algorithm {
        Algorithm::Chess => Guidance::All,
        Algorithm::ChessX => Guidance::CsvOverlap,
    };

    let executor = config.executor();
    // Clamp the fan-out to the machine: workers beyond the physical
    // core count only add claim contention and speculative tries, and
    // on a single-core host the "parallel" path is pure overhead (the
    // 0.93x regression this clamp fixed) — such hosts take the exact
    // serial loop below.
    let workers = executor.threads().min(minipool::available_parallelism());
    if workers > 1 && worklist.len() > 1 {
        return find_schedule_parallel(
            fresh_vm, candidates, future, target, guidance, config, &executor, workers, worklist,
            deadline,
        );
    }

    let mut budget =
        Budget::with_tries(config.max_tries, config.max_steps).with_cancel(config.cancel.clone());
    budget.deadline = deadline;

    let mut combinations_tested = 0u64;
    let mut winning = None;
    let mut reproduced = false;
    // Stop reason recorded at stop time, not read from the live token /
    // clock afterwards: a search that already ran its worklist dry must
    // not be relabeled partial by a token firing after the fact.
    let mut cut_off = false;
    let mut cancelled = false;
    for combo in worklist {
        if budget.exhausted() {
            cut_off = true;
            cancelled = budget.cancelled();
            break;
        }
        combinations_tested += 1;
        let ok = with_preemptions(candidates, combo, |set| {
            let run = TestRun {
                fresh_vm,
                preemptions: set,
                target,
                guidance,
                future,
            };
            run.execute(&mut budget)
        });
        if ok {
            winning = Some(preemptions(candidates, combo));
            reproduced = true;
            break;
        }
        // Re-check at loop bottom so exhaustion inside the *last*
        // combination's execute is still attributed to the budget.
        if budget.exhausted() {
            cut_off = true;
            cancelled = budget.cancelled();
            break;
        }
    }

    SearchResult {
        reproduced,
        tries: budget.tries,
        combinations_tested,
        winning,
        cut_off: !reproduced && cut_off,
        cancelled: !reproduced && cancelled,
    }
}

/// Runs `f` on `combo`'s candidates as one slice: a single is borrowed
/// in place, a pair is cloned into a two-element array.
fn with_preemptions<R>(
    candidates: &[AnnotatedCandidate],
    combo: Combo,
    f: impl FnOnce(&[AnnotatedCandidate]) -> R,
) -> R {
    match *combo.indices() {
        [i] => f(std::slice::from_ref(&candidates[i])),
        [i, j] => f(&[candidates[i].clone(), candidates[j].clone()]),
        _ => unreachable!("combinations hold one or two preemptions"),
    }
}

/// `combo`'s candidates, owned (the reported winning set).
fn preemptions(candidates: &[AnnotatedCandidate], combo: Combo) -> Vec<AnnotatedCandidate> {
    combo
        .indices()
        .iter()
        .map(|&i| candidates[i].clone())
        .collect()
}

/// The parallel driver's claim state: the worklist is pulled under one
/// lock, and each claim's combination and try count are kept by claim
/// index for serial-identical reporting.
struct Claims {
    worklist: Worklist,
    combos: Vec<Combo>,
    tries: Vec<u64>,
}

/// The parallel worklist driver: `workers` pool tasks claim combinations
/// *in order* from the one shared lazy worklist; every worker draws from
/// one shared try pool, and the *lowest worklist index* that reproduces
/// is the winner, so the result matches the serial search whenever the
/// budget does not cut the search off (see [`SearchConfig::parallelism`]
/// for the cutoff caveat).
///
/// In-order claiming (rather than chunked index splitting) keeps the
/// fan-out front-loaded on the combinations the guided ordering ranked
/// best: no worker burns tries deep in the tail while the likely winner
/// near the head is still unclaimed. Once a winner is posted, workers
/// mid-combination at higher indices abort at their next budget poll
/// (the obsolete-watch); since the winner index only decreases,
/// combinations at or below the final winner always run to completion
/// and their try counts stay serial-identical.
///
/// Checkpoint sharing makes this cheap: all workers clone the same
/// `fresh_vm`, and with copy-on-write VM state those clones are
/// reference-count bumps into shared initial state.
#[allow(clippy::too_many_arguments)]
fn find_schedule_parallel(
    fresh_vm: &Vm<'_>,
    candidates: &[AnnotatedCandidate],
    future: &FutureCsvMap,
    target: Failure,
    guidance: Guidance,
    config: &SearchConfig,
    executor: &minipool::Pool,
    workers: usize,
    worklist: Worklist,
    deadline: Option<Instant>,
) -> SearchResult {
    // Lowest reproducing worklist index (usize::MAX = none yet).
    let winner = Arc::new(AtomicUsize::new(usize::MAX));
    // The claim point: each worker takes the next untested combination.
    let claims = Mutex::new(Claims {
        worklist,
        combos: Vec::new(),
        tries: Vec::new(),
    });
    let lock = || claims.lock().expect("worklist claims poisoned");
    // One global try pool, debited as each try completes — the cap
    // bounds *total* work to within one in-flight try per worker, unlike
    // per-worker budget snapshots which could multiply it.
    let pool = crate::runner::SharedTries::new(config.max_tries);
    let executed = AtomicU64::new(0);
    // Did cancellation actually stop work? Recorded by the workers that
    // observed it, so a token firing after the search is over cannot
    // relabel a complete result as partial.
    let cancel_stopped = AtomicBool::new(false);

    executor.for_each_index(workers, |_| loop {
        let (i, combo) = {
            let mut claims = lock();
            let i = claims.combos.len();
            // Claims are monotonic and the winner index only decreases,
            // so once the next claim is past the winner (or the list),
            // every later claim would be too: this worker is done.
            if i > winner.load(Ordering::Acquire) {
                break;
            }
            let Some(combo) = claims.worklist.next() else {
                break;
            };
            claims.combos.push(combo);
            claims.tries.push(0);
            (i, combo)
        };
        if config.cancel.is_cancelled() {
            cancel_stopped.store(true, Ordering::Relaxed);
            break;
        }
        if pool.exhausted_now() {
            break;
        }
        let mut budget = Budget::with_tries(u64::MAX, config.max_steps)
            .with_shared(pool.clone())
            .with_cancel(config.cancel.clone())
            .with_obsolete(Arc::clone(&winner), i);
        budget.deadline = deadline;
        executed.fetch_add(1, Ordering::Relaxed);
        let ok = with_preemptions(candidates, combo, |set| {
            let run = TestRun {
                fresh_vm,
                preemptions: set,
                target,
                guidance,
                future,
            };
            run.execute(&mut budget)
        });
        lock().tries[i] = budget.tries;
        if ok {
            winner.fetch_min(i, Ordering::AcqRel);
        } else if budget.cancelled() {
            cancel_stopped.store(true, Ordering::Relaxed);
        }
    });

    let claims = claims.into_inner().expect("worklist claims poisoned");
    let w = winner.load(Ordering::Acquire);
    if w != usize::MAX {
        // Serial-identical accounting: the tries and combination count
        // the serial loop would have reported — everything up to and
        // including the winner; speculative work beyond it is discarded.
        SearchResult {
            reproduced: true,
            tries: claims.tries[..=w].iter().sum(),
            combinations_tested: (w + 1) as u64,
            winning: Some(preemptions(candidates, claims.combos[w])),
            cut_off: false,
            cancelled: false,
        }
    } else {
        let tries = pool.used();
        let cancelled = cancel_stopped.load(Ordering::Relaxed);
        let cut_off =
            cancelled || tries >= config.max_tries || deadline.is_some_and(|d| Instant::now() >= d);
        SearchResult {
            reproduced: false,
            tries,
            combinations_tested: executed.load(Ordering::Relaxed),
            winning: None,
            cut_off,
            cancelled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{annotate, SyncLogger};
    use crate::worklist::worklist_size;
    use mcr_slice::PRIORITY_BOTTOM as BOT;
    use mcr_vm::{run, DeterministicScheduler, MemLoc, NullObserver, StressScheduler, ThreadId};
    use std::collections::{HashMap, HashSet};

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

    fn worklist(
        candidates: &[AnnotatedCandidate],
        algorithm: Algorithm,
        config: &SearchConfig,
    ) -> Vec<Vec<usize>> {
        Worklist::new(candidates, algorithm, config)
            .map(|c| c.indices().to_vec())
            .collect()
    }

    struct Setup {
        program: mcr_lang::Program,
        failure: Failure,
        candidates: Vec<AnnotatedCandidate>,
        future: FutureCsvMap,
    }

    fn setup() -> Setup {
        let program = mcr_lang::compile(FIG1).unwrap();
        let input = [0i64, 1];
        let mut failure = None;
        for seed in 0..50_000 {
            let mut vm = Vm::new(&program, &input);
            let mut s = StressScheduler::new(seed);
            run(&mut vm, &mut s, &mut NullObserver, 1_000_000);
            if let Some(f) = vm.failure() {
                failure = Some(f);
                break;
            }
        }
        let failure = failure.expect("race must be exposed");
        let mut vm = Vm::new(&program, &input);
        let mut s = DeterministicScheduler::new();
        let mut log = SyncLogger::new();
        run(&mut vm, &mut s, &mut log, 1_000_000);
        let info = log.finish();
        let x = program.global_by_name("x").unwrap();
        let mut csvs = HashSet::new();
        csvs.insert(MemLoc::Global(x));
        // Give the second-iteration accesses the top priorities the way
        // the temporal heuristic would.
        let mut prio = HashMap::new();
        for (i, a) in info
            .shared_accesses
            .iter()
            .rev()
            .filter(|a| a.tid == ThreadId(1) && csvs.contains(&a.loc))
            .enumerate()
        {
            prio.insert((a.step, a.loc, a.is_write), i as u32 + 1);
        }
        let (candidates, future) = annotate(&info, &csvs, &prio);
        Setup {
            program,
            failure,
            candidates,
            future,
        }
    }

    #[test]
    fn chessx_beats_chess_on_fig1() {
        let s = setup();
        let fresh = Vm::new(&s.program, &[0, 1]);
        let cfg = SearchConfig::default();

        let x = find_schedule(
            &fresh,
            &s.candidates,
            &s.future,
            s.failure,
            Algorithm::ChessX,
            &cfg,
        );
        assert!(x.reproduced, "chessx must reproduce: {x:?}");

        let c = find_schedule(
            &fresh,
            &s.candidates,
            &s.future,
            s.failure,
            Algorithm::Chess,
            &cfg,
        );
        assert!(c.reproduced, "plain chess eventually reproduces");
        assert!(
            x.tries <= c.tries,
            "guided {} vs plain {}",
            x.tries,
            c.tries
        );
        // The winning schedule is a single preemption.
        assert_eq!(x.winning.as_ref().unwrap().len(), 1);
    }

    #[test]
    fn worklist_order_respects_weights() {
        let s = setup();
        let cfg = SearchConfig::default();
        let wl = worklist(&s.candidates, Algorithm::ChessX, &cfg);
        // The first combination's weight is minimal.
        let weight = |combo: &Vec<usize>| -> u64 {
            combo
                .iter()
                .map(|&i| s.candidates[i].best_priority as u64)
                .sum()
        };
        let w0 = weight(&wl[0]);
        assert!(wl.iter().all(|c| weight(c) >= w0));
        // Its sole member's block touches the CSV.
        assert!(s.candidates[wl[0][0]].best_priority < BOT);
    }

    #[test]
    fn chess_worklist_is_execution_ordered() {
        let s = setup();
        let cfg = SearchConfig::default();
        let wl = worklist(&s.candidates, Algorithm::Chess, &cfg);
        // Singles first, in candidate order.
        for (i, combo) in wl.iter().take(s.candidates.len()).enumerate() {
            assert_eq!(combo, &vec![i]);
        }
        assert_eq!(
            wl.len(),
            worklist_size(s.candidates.len(), 2, cfg.pair_pool)
        );
    }

    #[test]
    fn budget_cutoff_reported() {
        let s = setup();
        let fresh = Vm::new(&s.program, &[0, 1]);
        // Impossible target: same kind, nonexistent pc.
        let impossible = Failure {
            pc: mcr_lang::Pc::new(mcr_lang::FuncId(0), mcr_lang::StmtId(0)),
            ..s.failure
        };
        let cfg = SearchConfig {
            max_tries: 5,
            ..Default::default()
        };
        let r = find_schedule(
            &fresh,
            &s.candidates,
            &s.future,
            impossible,
            Algorithm::Chess,
            &cfg,
        );
        assert!(!r.reproduced);
        assert!(r.cut_off);
        assert!(r.tries <= 5);
    }

    #[test]
    fn parallel_search_matches_serial() {
        let s = setup();
        let fresh = Vm::new(&s.program, &[0, 1]);
        let serial_cfg = SearchConfig::default();
        let par_cfg = SearchConfig {
            parallelism: 4,
            ..Default::default()
        };
        let points = |r: &SearchResult| {
            r.winning
                .as_ref()
                .map(|w| w.iter().map(|c| c.point).collect::<Vec<_>>())
        };
        for alg in [Algorithm::ChessX, Algorithm::Chess] {
            let a = find_schedule(
                &fresh,
                &s.candidates,
                &s.future,
                s.failure,
                alg,
                &serial_cfg,
            );
            let b = find_schedule(&fresh, &s.candidates, &s.future, s.failure, alg, &par_cfg);
            assert_eq!(a.reproduced, b.reproduced, "{alg:?}");
            assert_eq!(a.tries, b.tries, "{alg:?}");
            assert_eq!(a.combinations_tested, b.combinations_tested, "{alg:?}");
            assert_eq!(points(&a), points(&b), "{alg:?}");
        }
    }

    #[test]
    fn parallel_driver_matches_serial_even_when_cores_are_scarce() {
        // `find_schedule` clamps its fan-out to the physical core
        // count, so on a small host the test above may exercise the
        // serial loop twice. Drive the parallel claim loop directly to
        // pin its accounting against the serial path regardless of the
        // machine.
        let s = setup();
        let fresh = Vm::new(&s.program, &[0, 1]);
        let cfg = SearchConfig::default();
        for (alg, guidance) in [
            (Algorithm::ChessX, Guidance::CsvOverlap),
            (Algorithm::Chess, Guidance::All),
        ] {
            let serial = find_schedule(&fresh, &s.candidates, &s.future, s.failure, alg, &cfg);
            let worklist = Worklist::new(&s.candidates, alg, &cfg);
            let executor = minipool::Pool::new(4);
            let par = find_schedule_parallel(
                &fresh,
                &s.candidates,
                &s.future,
                s.failure,
                guidance,
                &cfg,
                &executor,
                4,
                worklist,
                None,
            );
            assert_eq!(serial.reproduced, par.reproduced, "{alg:?}");
            assert_eq!(serial.tries, par.tries, "{alg:?}");
            assert_eq!(
                serial.combinations_tested, par.combinations_tested,
                "{alg:?}"
            );
            assert_eq!(serial.winning, par.winning, "{alg:?}");
        }
    }

    #[test]
    fn injected_shared_pool_matches_serial() {
        let s = setup();
        let fresh = Vm::new(&s.program, &[0, 1]);
        let serial = find_schedule(
            &fresh,
            &s.candidates,
            &s.future,
            s.failure,
            Algorithm::ChessX,
            &SearchConfig::default(),
        );
        // A handle with a shared worker budget, as a fleet would inject;
        // `parallelism` stays 1 to prove the handle supersedes it.
        let limit = minipool::Limit::new(2);
        let cfg = SearchConfig {
            pool: Some(minipool::Pool::with_limit(4, limit.clone())),
            ..Default::default()
        };
        let injected = find_schedule(
            &fresh,
            &s.candidates,
            &s.future,
            s.failure,
            Algorithm::ChessX,
            &cfg,
        );
        assert_eq!(serial.reproduced, injected.reproduced);
        assert_eq!(serial.tries, injected.tries);
        assert_eq!(serial.combinations_tested, injected.combinations_tested);
        assert_eq!(serial.winning, injected.winning);
        // Every claimed permit was returned.
        assert_eq!(limit.available(), limit.capacity());
    }

    #[test]
    fn cancellation_returns_partial_result() {
        let s = setup();
        let fresh = Vm::new(&s.program, &[0, 1]);
        // Impossible target so the search would otherwise grind through
        // the entire worklist.
        let impossible = Failure {
            pc: mcr_lang::Pc::new(mcr_lang::FuncId(0), mcr_lang::StmtId(0)),
            ..s.failure
        };
        for parallelism in [1, 4] {
            let cfg = SearchConfig {
                parallelism,
                ..Default::default()
            };
            cfg.cancel.cancel(); // fire before the search even starts
            let r = find_schedule(
                &fresh,
                &s.candidates,
                &s.future,
                impossible,
                Algorithm::Chess,
                &cfg,
            );
            assert!(!r.reproduced);
            assert!(r.cancelled, "parallelism {parallelism}");
            assert!(r.cut_off);
            assert_eq!(r.tries, 0);
        }
    }

    #[test]
    fn pair_pool_caps_worklist() {
        let s = setup();
        let cfg = SearchConfig {
            pair_pool: 3,
            ..Default::default()
        };
        let wl = worklist(&s.candidates, Algorithm::ChessX, &cfg);
        assert_eq!(wl.len(), s.candidates.len() + 3);
    }
}
