//! Preemption candidates and their CSV annotations (paper §5, Fig. 9).
//!
//! Candidates are the CHESS scheduling points observed in the passing
//! run: the beginning of each thread, points *before* lock acquisitions
//! and joins, and points *after* lock releases and spawns. Each candidate
//! is identified across runs by `(thread, per-thread sync ordinal, kind)`
//! — a schedule-independent name, unlike step counts.
//!
//! The enhanced algorithm annotates every candidate with:
//!
//! * the prioritized CSV accesses inside the *schedule block* it leads
//!   (what injecting the preemption would perturb), and
//! * the set of CSVs its thread will access from that point on (used by
//!   the guided `preempt()` thread selection).
//!
//! Annotation hashes no access. A candidate's `access_locs` is a sorted,
//! deduplicated list, so the overlap test is a binary search. The
//! priorities come through the [`Priorities`] lookup, which the search
//! serves from the step-ordered ranking itself. The future-CSV map is
//! one dense list per thread, indexed by sync position, of indices into
//! its distinct sets.

use mcr_analysis::RaceVerdicts;
use mcr_lang::{GlobalId, Pc};
use mcr_slice::{RankedAccess, PRIORITY_BOTTOM};
use mcr_vm::{Event, MemLoc, ObjId, Observer, SyncKind, ThreadId};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Where [`annotate_with_race`] looks up the priority of a CSV access.
pub trait Priorities {
    /// The best (smallest) priority given to the access of `loc` at
    /// `step` with this direction, or `None` if it was not ranked.
    fn priority(&self, step: u64, loc: MemLoc, is_write: bool) -> Option<u32>;
}

/// A map keyed by `(step, loc, is_write)`, holding each key's best
/// priority.
impl Priorities for HashMap<(u64, MemLoc, bool), u32> {
    fn priority(&self, step: u64, loc: MemLoc, is_write: bool) -> Option<u32> {
        self.get(&(step, loc, is_write)).copied()
    }
}

/// A ranking in step order, as `mcr_slice::rank_accesses` returns it for
/// a step-ordered projection: a binary search finds the step, and the
/// best priority among that step's matching entries wins.
impl Priorities for [RankedAccess] {
    fn priority(&self, step: u64, loc: MemLoc, is_write: bool) -> Option<u32> {
        let from = self.partition_point(|r| r.step < step);
        self[from..]
            .iter()
            .take_while(|r| r.step == step)
            .filter(|r| r.loc == loc && r.is_write == is_write)
            .map(|r| r.priority)
            .min()
    }
}

/// Variable-granularity location used for CSV overlap tests: array
/// elements and heap slots collapse to their container. Two threads that
/// touch *different elements of the same critical shared array* still
/// contend on the same program variable — the paper's CSV sets are
/// variable-level ("c→current_size", "cache_cache→pq→size"), so the
/// `preempt()` overlap test must not be element-exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CoarseLoc {
    /// A global variable (scalar or whole array).
    Global(GlobalId),
    /// A heap object.
    Heap(ObjId),
    /// A private location (never overlaps anything shared).
    Private,
}

/// Collapses a memory location to variable granularity.
pub fn coarse(loc: MemLoc) -> CoarseLoc {
    match loc {
        MemLoc::Global(g) | MemLoc::GlobalElem(g, _) => CoarseLoc::Global(g),
        MemLoc::Heap(o, _) => CoarseLoc::Heap(o),
        MemLoc::Local { .. } => CoarseLoc::Private,
    }
}

/// Where a preemption can be injected relative to its anchor operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CandidateKind {
    /// At the first statement of a thread.
    ThreadStart,
    /// Before an `acquire` (so other threads can take the lock first).
    BeforeAcquire,
    /// After a `release` (so other threads can run inside the gap).
    AfterRelease,
    /// After a `spawn` (so the child can run first).
    AfterSpawn,
    /// Before a `join`.
    BeforeJoin,
    /// Before a store-buffer flush (TSO mode; also `fence` under SC) —
    /// the instant at which another thread can still observe the
    /// pre-flush (stale) memory.
    BeforeFlush,
}

/// A schedule-independent name for a preemption point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PreemptionPoint {
    /// The thread to preempt.
    pub tid: ThreadId,
    /// The per-thread sync ordinal of the anchor operation (0 for
    /// `ThreadStart`).
    pub sync_seq: u32,
    /// Anchor kind.
    pub kind: CandidateKind,
    /// Step at which the anchor executed in the passing run (for
    /// ordering and block computation only; not used for matching).
    pub step: u64,
    /// Statement of the anchor in the passing run.
    pub pc: Option<Pc>,
}

impl fmt::Display for PreemptionPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{:?}#{}", self.tid, self.kind, self.sync_seq)
    }
}

/// One shared-memory access observed in the passing run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedAccess {
    /// Step of the access.
    pub step: u64,
    /// Accessing thread.
    pub tid: ThreadId,
    /// Statement.
    pub pc: Pc,
    /// Location.
    pub loc: MemLoc,
    /// Whether it was a write.
    pub is_write: bool,
}

/// Everything the schedule search needs from the passing run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassingRunInfo {
    /// Preemption candidates in execution order.
    pub candidates: Vec<PreemptionPoint>,
    /// Every shared-memory access, in execution order.
    pub shared_accesses: Vec<SharedAccess>,
    /// Total steps of the passing run.
    pub total_steps: u64,
}

/// Observer collecting [`PassingRunInfo`] during the passing run.
#[derive(Debug, Default)]
pub struct SyncLogger {
    info: PassingRunInfo,
}

impl SyncLogger {
    /// Creates an empty logger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finalizes collection.
    pub fn finish(self) -> PassingRunInfo {
        self.info
    }
}

impl Observer for SyncLogger {
    fn on_event(&mut self, step: u64, event: &Event) {
        self.info.total_steps = self.info.total_steps.max(step + 1);
        match event {
            Event::ThreadStart { tid, .. } if tid.0 != 0 => {
                self.info.candidates.push(PreemptionPoint {
                    tid: *tid,
                    sync_seq: 0,
                    kind: CandidateKind::ThreadStart,
                    step,
                    pc: None,
                });
            }
            Event::Sync { tid, pc, kind, seq } => {
                let kind = match kind {
                    SyncKind::Acquire(_) => CandidateKind::BeforeAcquire,
                    SyncKind::Release(_) => CandidateKind::AfterRelease,
                    SyncKind::Spawn(_) => CandidateKind::AfterSpawn,
                    SyncKind::Join(_) => CandidateKind::BeforeJoin,
                    SyncKind::Flush => CandidateKind::BeforeFlush,
                };
                self.info.candidates.push(PreemptionPoint {
                    tid: *tid,
                    sync_seq: *seq,
                    kind,
                    step,
                    pc: Some(*pc),
                });
            }
            Event::Read { tid, pc, loc, .. } if loc.is_shared() => {
                self.info.shared_accesses.push(SharedAccess {
                    step,
                    tid: *tid,
                    pc: *pc,
                    loc: *loc,
                    is_write: false,
                });
            }
            Event::Write { tid, pc, loc, .. } if loc.is_shared() => {
                self.info.shared_accesses.push(SharedAccess {
                    step,
                    tid: *tid,
                    pc: *pc,
                    loc: *loc,
                    is_write: true,
                });
            }
            // A buffered store is the *program's* write (the flush is
            // its delayed visibility, not a second access — counting
            // `StoreFlushed` too would double-count every TSO write).
            Event::StoreBuffered { tid, pc, loc, .. } if loc.is_shared() => {
                self.info.shared_accesses.push(SharedAccess {
                    step,
                    tid: *tid,
                    pc: *pc,
                    loc: *loc,
                    is_write: true,
                });
            }
            _ => {}
        }
    }
}

/// A candidate with its Fig. 9 annotations.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnotatedCandidate {
    /// The preemption point.
    pub point: PreemptionPoint,
    /// Prioritized CSV accesses in the schedule block this candidate
    /// leads (same thread, up to the thread's next candidate).
    pub accesses: Vec<RankedAccess>,
    /// Best (smallest) priority among `accesses`; [`PRIORITY_BOTTOM`]
    /// when the block touches no CSV.
    pub best_priority: u32,
    /// Variable-granularity locations of `accesses` (for overlap tests),
    /// sorted and deduplicated.
    pub access_locs: Vec<CoarseLoc>,
}

/// For each `(thread, position)` — position = number of syncs executed —
/// the set of CSVs the thread accesses from that position on in the
/// passing run (the paper's per-sync-point "CSV set").
///
/// Layout: `tids` lists the threads that have candidates, in id order.
/// For the thread at index `k`, `map[k][pos]` is the index into `sets` of
/// its set at sync position `pos`, or `u32::MAX` for a position the
/// passing run never reached; `all[k]` indexes every CSV the thread
/// accesses.
#[derive(Debug, Clone, Default)]
pub struct FutureCsvMap {
    /// Threads with candidates, in id order.
    tids: Vec<u32>,
    /// Per thread, the index into `sets` per sync position.
    map: Vec<Vec<u32>>,
    /// Fallback per thread, as an index into `sets`: all CSVs it ever
    /// accesses (used when a test run drives a thread past its
    /// passing-run sync count).
    all: Vec<u32>,
    /// The distinct sets. A thread's future set changes only when it
    /// reaches its last access of some CSV, so consecutive positions
    /// share one.
    sets: Vec<HashSet<CoarseLoc>>,
}

/// The [`FutureCsvMap`] entry of a sync position with no set.
const NO_SET: u32 = u32::MAX;

impl FutureCsvMap {
    /// CSVs thread `tid` will access from sync position `pos` on.
    pub fn future(&self, tid: ThreadId, pos: u32) -> Option<&HashSet<CoarseLoc>> {
        let k = self.tids.binary_search(&tid.0).ok()?;
        match self.map[k].get(pos as usize) {
            Some(&i) if i != NO_SET => Some(&self.sets[i as usize]),
            _ => None,
        }
    }

    /// All CSVs the thread ever accessed in the passing run.
    pub fn any(&self, tid: ThreadId) -> Option<&HashSet<CoarseLoc>> {
        let k = self.tids.binary_search(&tid.0).ok()?;
        Some(&self.sets[self.all[k] as usize])
    }
}

/// Builds annotated candidates and the future-CSV map from the passing
/// run info, the CSV locations (in any order, repeats allowed), and the
/// access priorities computed by `mcr-slice` (keyed by
/// `(step, loc, is_write)`).
pub fn annotate<'a>(
    info: &PassingRunInfo,
    csv_locs: impl IntoIterator<Item = &'a MemLoc>,
    priorities: &HashMap<(u64, MemLoc, bool), u32>,
) -> (Vec<AnnotatedCandidate>, FutureCsvMap) {
    annotate_with_race(info, csv_locs, priorities, None)
}

/// [`annotate`], optionally consulting static race verdicts
/// (`mcr_analysis::RaceVerdicts`):
///
/// * **Pruning.** Candidates anchored at a statically *Solo* statement
///   (provably executed before the first spawn, while only thread 0
///   exists) are dropped: preempting where no other thread is runnable
///   is a no-op, so removing the candidate cannot change which schedule
///   the search finds — the surviving worklist is an order-preserving
///   subsequence and the winning schedule stays bit-identical.
///   `ThreadStart` and `AfterSpawn` anchors are never pruned (their
///   whole point is that another thread just became runnable), and a
///   candidate without a passing-run `pc` is kept conservatively. A
///   TSO `BeforeFlush` anchored at a Solo statement is safe to drop for
///   the same reason: the buffered store drains while no other thread
///   exists to observe the stale value.
/// * **Ranking.** Candidates whose block carries no dump-prioritized
///   CSV access ([`PRIORITY_BOTTOM`]) but does touch a statically
///   *May-Race* statement move one notch up (`PRIORITY_BOTTOM - 1`), so
///   the search tries statically suspicious blocks before statically
///   clean ones. This reorders only the bottom tier — every
///   dump-prioritized candidate still sorts first.
///
/// The future-CSV map is always built from the *full* candidate list:
/// sync positions must stay aligned with what a test run replays.
///
/// Every log in `info` must be in step order, as [`SyncLogger`] records
/// it. Each thread's accesses are then sorted too, so a block is two
/// binary searches into its thread's list and the future sets are
/// suffix unions built in one backward sweep: the cost is linear in the
/// logs plus a logarithmic factor per candidate and per access. The
/// future map holds one entry per sync position up to each thread's
/// largest, so sync ordinals must count each thread's syncs, as they do
/// in a recorded run.
pub fn annotate_with_race<'a, P: Priorities + ?Sized>(
    info: &PassingRunInfo,
    csv_locs: impl IntoIterator<Item = &'a MemLoc>,
    priorities: &P,
    race: Option<&RaceVerdicts>,
) -> (Vec<AnnotatedCandidate>, FutureCsvMap) {
    debug_assert!(info.candidates.windows(2).all(|w| w[0].step <= w[1].step));
    debug_assert!(info
        .shared_accesses
        .windows(2)
        .all(|w| w[0].step <= w[1].step));
    // One log per thread with a candidate, in thread-id order. Other
    // threads lead no block and get no future set.
    let mut tids: Vec<u32> = info.candidates.iter().map(|c| c.tid.0).collect();
    tids.sort_unstable();
    tids.dedup();
    let slot = |tid: ThreadId| tids.binary_search(&tid.0);
    let mut logs: Vec<ThreadLog<'_>> = tids.iter().map(|_| ThreadLog::default()).collect();

    // Block spans: a candidate's block runs up to its thread's next
    // candidate. A candidate that shares its step with the thread's
    // previous one takes the block of the first candidate at that step,
    // which ends at the second and so is empty.
    let mut spans: Vec<(u64, u64)> = Vec::with_capacity(info.candidates.len());
    for (i, c) in info.candidates.iter().enumerate() {
        let log = &mut logs[slot(c.tid).expect("every candidate's thread has a log")];
        if let Some(open) = log.open.take() {
            spans[open].1 = c.step;
        }
        if log.last_step == Some(c.step) {
            spans.push((c.step, c.step));
        } else {
            spans.push((c.step, u64::MAX));
            log.open = Some(i);
        }
        log.last_step = Some(c.step);

        // Position p corresponds to: before executing sync #p. The step
        // at which the thread reaches position p is the step of its p-th
        // sync anchor (ThreadStart is position 0's lower bound).
        match c.kind {
            CandidateKind::BeforeAcquire
            | CandidateKind::BeforeJoin
            | CandidateKind::BeforeFlush => log.positions.push((c.sync_seq, c.step)),
            CandidateKind::AfterRelease | CandidateKind::AfterSpawn => {
                log.positions.push((c.sync_seq + 1, c.step));
            }
            CandidateKind::ThreadStart => {}
        }
    }

    // A handful of CSV locations, probed once per shared access.
    let mut csv_locs: Vec<MemLoc> = csv_locs.into_iter().copied().collect();
    csv_locs.sort_unstable();
    for a in &info.shared_accesses {
        let Ok(t) = slot(a.tid) else {
            continue;
        };
        let log = &mut logs[t];
        if csv_locs.binary_search(&a.loc).is_ok() {
            log.csv.push(a);
        }
        if race.is_some() {
            log.shared.push(a);
        }
    }

    let mut annotated = Vec::with_capacity(info.candidates.len());
    for (c, &(start, end)) in info.candidates.iter().zip(&spans) {
        if race.is_some_and(|rv| prunable(c, rv)) {
            continue;
        }
        let log = &logs[slot(c.tid).expect("every candidate's thread has a log")];
        let block = in_span(&log.csv, start, end);
        let mut accesses = Vec::with_capacity(block.len());
        let mut access_locs = Vec::with_capacity(block.len());
        let mut best = PRIORITY_BOTTOM;
        for a in block {
            let priority = priorities
                .priority(a.step, a.loc, a.is_write)
                .unwrap_or(PRIORITY_BOTTOM);
            best = best.min(priority);
            access_locs.push(coarse(a.loc));
            accesses.push(RankedAccess {
                serial: a.step,
                step: a.step,
                tid: a.tid,
                pc: a.pc,
                loc: a.loc,
                is_write: a.is_write,
                priority,
            });
        }
        if best == PRIORITY_BOTTOM {
            if let Some(rv) = race {
                if in_span(&log.shared, start, end)
                    .iter()
                    .any(|a| rv.has_may_race(a.pc))
                {
                    best = PRIORITY_BOTTOM - 1;
                }
            }
        }
        access_locs.sort_unstable();
        access_locs.dedup();
        annotated.push(AnnotatedCandidate {
            point: *c,
            accesses,
            best_priority: best,
            access_locs,
        });
    }

    // Future CSV sets per (thread, sync position), as suffix unions over
    // positions by descending step. A repeated position keeps the set of
    // its last occurrence, the first one this backward sweep meets.
    let mut fut = FutureCsvMap::default();
    for log in &logs {
        let len = log.positions.iter().map(|&(pos, _)| pos as usize + 1).max();
        let mut by_pos = vec![NO_SET; len.unwrap_or_default()];
        let mut suffix = HashSet::new();
        // Index of `suffix`'s copy in `fut.sets`, while it is current.
        let mut stored: Option<u32> = None;
        let mut rest = log.csv.len();
        for &(pos, from_step) in log.positions.iter().rev() {
            while rest > 0 && log.csv[rest - 1].step >= from_step {
                rest -= 1;
                if suffix.insert(coarse(log.csv[rest].loc)) {
                    stored = None;
                }
            }
            let set = *stored.get_or_insert_with(|| {
                fut.sets.push(suffix.clone());
                (fut.sets.len() - 1) as u32
            });
            let entry = &mut by_pos[pos as usize];
            if *entry == NO_SET {
                *entry = set;
            }
        }
        fut.map.push(by_pos);
        // The sweep ends at position 0, step 0: the last set stored is
        // every CSV the thread accesses.
        fut.all.push((fut.sets.len() - 1) as u32);
    }
    fut.tids = tids;

    (annotated, fut)
}

/// One thread's share of a [`PassingRunInfo`], each list in step order.
struct ThreadLog<'a> {
    /// The thread's CSV accesses.
    csv: Vec<&'a SharedAccess>,
    /// All of the thread's shared accesses (filled under `static_race`
    /// only).
    shared: Vec<&'a SharedAccess>,
    /// `(sync position, step the thread reaches it)`.
    positions: Vec<(u32, u64)>,
    /// Index of the candidate whose block waits for the thread's next
    /// candidate to end it.
    open: Option<usize>,
    /// Step of the thread's latest candidate.
    last_step: Option<u64>,
}

impl Default for ThreadLog<'_> {
    fn default() -> Self {
        ThreadLog {
            csv: Vec::new(),
            shared: Vec::new(),
            positions: vec![(0, 0)],
            open: None,
            last_step: None,
        }
    }
}

/// The accesses of a step-sorted list with `start <= step < end`.
fn in_span<'l, 'a>(list: &'l [&'a SharedAccess], start: u64, end: u64) -> &'l [&'a SharedAccess] {
    let lo = list.partition_point(|a| a.step < start);
    let hi = lo + list[lo..].partition_point(|a| a.step < end);
    &list[lo..hi]
}

/// Whether static race verdicts prove this preemption point is a no-op
/// (see [`annotate_with_race`]).
fn prunable(point: &PreemptionPoint, race: &RaceVerdicts) -> bool {
    match point.kind {
        // Another thread just became runnable here — exactly the
        // schedules pruning must preserve.
        CandidateKind::ThreadStart | CandidateKind::AfterSpawn => false,
        CandidateKind::BeforeAcquire
        | CandidateKind::AfterRelease
        | CandidateKind::BeforeJoin
        | CandidateKind::BeforeFlush => point.pc.is_some_and(|pc| race.is_solo(pc)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcr_analysis::RaceAnalysis;
    use mcr_lang::{FuncId, StmtId};
    use mcr_vm::{run, DeterministicScheduler, MemModel, Vm};
    use proptest::prelude::*;
    use std::sync::OnceLock;

    const PROG: &str = r#"
        global x: int;
        lock l;
        fn t1() {
            acquire l;
            x = 1;
            release l;
            acquire l;
            x = 2;
            release l;
        }
        fn t2() { x = 0; }
        fn main() {
            var a; var b;
            a = spawn t1();
            b = spawn t2();
            join a;
            join b;
        }
    "#;

    fn collect() -> (mcr_lang::Program, PassingRunInfo) {
        let p = mcr_lang::compile(PROG).unwrap();
        let mut vm = Vm::new(&p, &[]);
        let mut s = DeterministicScheduler::new();
        let mut log = SyncLogger::new();
        run(&mut vm, &mut s, &mut log, 100_000);
        (p, log.finish())
    }

    #[test]
    fn candidate_enumeration() {
        let (_p, info) = collect();
        // main: 2 spawns + 2 joins = 4; t1: 2 acquires + 2 releases = 4;
        // thread starts: t1, t2 = 2. Total 10.
        assert_eq!(info.candidates.len(), 10, "{:#?}", info.candidates);
        let starts = info
            .candidates
            .iter()
            .filter(|c| c.kind == CandidateKind::ThreadStart)
            .count();
        assert_eq!(starts, 2);
        // Candidates are in step order.
        assert!(info.candidates.windows(2).all(|w| w[0].step <= w[1].step));
    }

    #[test]
    fn annotation_blocks_and_future_sets() {
        let (p, info) = collect();
        let x = p.global_by_name("x").unwrap();
        let mut csvs = HashSet::new();
        csvs.insert(MemLoc::Global(x));
        let (ann, fut) = annotate(&info, &csvs, &HashMap::new());
        // The block after t1's first acquire contains the write x = 1.
        let t1 = ThreadId(1);
        let first_acq = ann
            .iter()
            .find(|a| a.point.tid == t1 && a.point.kind == CandidateKind::BeforeAcquire)
            .unwrap();
        assert!(
            first_acq.access_locs.contains(&CoarseLoc::Global(x)),
            "block accesses: {:?}",
            first_acq.accesses
        );
        // t2 at position 0 will access x in the future.
        let t2 = ThreadId(2);
        assert!(fut.future(t2, 0).unwrap().contains(&CoarseLoc::Global(x)));
        // t1 after all its syncs has no future CSV accesses.
        let last = fut.future(t1, 4).unwrap();
        assert!(last.is_empty(), "{last:?}");
    }

    #[test]
    fn priorities_flow_into_best() {
        let (p, info) = collect();
        let x = p.global_by_name("x").unwrap();
        let loc = MemLoc::Global(x);
        let mut csvs = HashSet::new();
        csvs.insert(loc);
        // Give the t1 write `x = 2` priority 1.
        let w = info
            .shared_accesses
            .iter()
            .filter(|a| a.is_write && a.tid == ThreadId(1))
            .nth(1)
            .unwrap();
        let mut prio = HashMap::new();
        prio.insert((w.step, loc, true), 1u32);
        let (ann, _) = annotate(&info, &csvs, &prio);
        let best = ann.iter().map(|a| a.best_priority).min().unwrap();
        assert_eq!(best, 1);
        // Candidates whose block has no CSV access stay at bottom.
        assert!(ann.iter().any(|a| a.best_priority == PRIORITY_BOTTOM));
    }

    /// The quadratic annotation the sorted per-thread sweep replaced,
    /// kept as the reference for its output.
    fn reference_annotate(
        info: &PassingRunInfo,
        csv_locs: &HashSet<MemLoc>,
        priorities: &HashMap<(u64, MemLoc, bool), u32>,
        race: Option<&RaceVerdicts>,
    ) -> (Vec<AnnotatedCandidate>, ReferenceFuture) {
        // Next candidate step per thread, for block boundaries.
        let mut next_step: HashMap<u32, Vec<(u64, u64)>> = HashMap::new(); // tid -> [(step, next_step)]
        let mut per_thread: HashMap<u32, Vec<&PreemptionPoint>> = HashMap::new();
        for c in &info.candidates {
            per_thread.entry(c.tid.0).or_default().push(c);
        }
        for (tid, list) in &per_thread {
            let mut spans = Vec::with_capacity(list.len());
            for (i, c) in list.iter().enumerate() {
                let end = list.get(i + 1).map_or(u64::MAX, |n| n.step);
                spans.push((c.step, end));
            }
            next_step.insert(*tid, spans);
        }

        // CSV accesses only.
        let csv_accesses: Vec<&SharedAccess> = info
            .shared_accesses
            .iter()
            .filter(|a| csv_locs.contains(&a.loc))
            .collect();

        let mut annotated = Vec::with_capacity(info.candidates.len());
        for c in &info.candidates {
            let spans = &next_step[&c.tid.0];
            let (start, end) = spans
                .iter()
                .find(|&&(s, _)| s == c.step)
                .copied()
                .unwrap_or((c.step, u64::MAX));
            let mut accesses = Vec::new();
            let mut access_locs = HashSet::new();
            let mut best = PRIORITY_BOTTOM;
            for a in &csv_accesses {
                if a.tid.0 != c.tid.0 || a.step < start || a.step >= end {
                    continue;
                }
                let priority = priorities
                    .get(&(a.step, a.loc, a.is_write))
                    .copied()
                    .unwrap_or(PRIORITY_BOTTOM);
                best = best.min(priority);
                access_locs.insert(coarse(a.loc));
                accesses.push(RankedAccess {
                    serial: a.step,
                    step: a.step,
                    tid: a.tid,
                    pc: a.pc,
                    loc: a.loc,
                    is_write: a.is_write,
                    priority,
                });
            }
            if best == PRIORITY_BOTTOM {
                if let Some(rv) = race {
                    let block_may_race = info.shared_accesses.iter().any(|a| {
                        a.tid.0 == c.tid.0
                            && a.step >= start
                            && a.step < end
                            && rv.has_may_race(a.pc)
                    });
                    if block_may_race {
                        best = PRIORITY_BOTTOM - 1;
                    }
                }
            }
            let mut access_locs: Vec<CoarseLoc> = access_locs.into_iter().collect();
            access_locs.sort_unstable();
            annotated.push(AnnotatedCandidate {
                point: *c,
                accesses,
                best_priority: best,
                access_locs,
            });
        }

        if let Some(rv) = race {
            annotated.retain(|a| !prunable(&a.point, rv));
        }

        // Future CSV sets per (thread, sync position).
        let mut fut = ReferenceFuture::default();
        for (tid, list) in &per_thread {
            // Position p corresponds to: before executing sync #p. The step
            // at which the thread reaches position p is the step of its p-th
            // sync anchor (ThreadStart is position 0's lower bound).
            let mut positions: Vec<(u32, u64)> = vec![(0, 0)];
            for c in list {
                match c.kind {
                    CandidateKind::BeforeAcquire
                    | CandidateKind::BeforeJoin
                    | CandidateKind::BeforeFlush => {
                        positions.push((c.sync_seq, c.step));
                    }
                    CandidateKind::AfterRelease | CandidateKind::AfterSpawn => {
                        positions.push((c.sync_seq + 1, c.step));
                    }
                    CandidateKind::ThreadStart => {}
                }
            }
            let thread_accesses: Vec<&&SharedAccess> =
                csv_accesses.iter().filter(|a| a.tid.0 == *tid).collect();
            let mut all = HashSet::new();
            for a in &thread_accesses {
                all.insert(coarse(a.loc));
            }
            fut.all.insert(*tid, all);
            for (pos, from_step) in positions {
                let set: HashSet<CoarseLoc> = thread_accesses
                    .iter()
                    .filter(|a| a.step >= from_step)
                    .map(|a| coarse(a.loc))
                    .collect();
                fut.map.insert((*tid, pos), set);
            }
        }

        (annotated, fut)
    }

    /// A future-CSV map with one set per key, as the reference builds it.
    #[derive(Debug, Default, PartialEq)]
    struct ReferenceFuture {
        map: HashMap<(u32, u32), HashSet<CoarseLoc>>,
        all: HashMap<u32, HashSet<CoarseLoc>>,
    }

    impl From<&FutureCsvMap> for ReferenceFuture {
        fn from(f: &FutureCsvMap) -> Self {
            ReferenceFuture {
                map: f
                    .tids
                    .iter()
                    .zip(&f.map)
                    .flat_map(|(&tid, by_pos)| {
                        (0u32..)
                            .zip(by_pos)
                            .filter(|&(_, &i)| i != NO_SET)
                            .map(move |(pos, &i)| ((tid, pos), f.sets[i as usize].clone()))
                    })
                    .collect(),
                all: f
                    .tids
                    .iter()
                    .zip(&f.all)
                    .map(|(&tid, &i)| (tid, f.sets[i as usize].clone()))
                    .collect(),
            }
        }
    }

    fn assert_same_as_reference(
        info: &PassingRunInfo,
        csvs: &HashSet<MemLoc>,
        prio: &HashMap<(u64, MemLoc, bool), u32>,
        race: Option<&RaceVerdicts>,
    ) -> Result<(), TestCaseError> {
        let (ann, fut) = annotate_with_race(info, csvs, prio, race);
        let (ref_ann, ref_fut) = reference_annotate(info, csvs, prio, race);
        prop_assert_eq!(ann, ref_ann);
        prop_assert_eq!(ReferenceFuture::from(&fut), ref_fut);
        Ok(())
    }

    /// Every statement of a program, and those the race verdicts say
    /// something about (Solo or May-Race).
    struct Sites {
        all: Vec<Pc>,
        flagged: Vec<Pc>,
    }

    /// The race verdicts of every seeded bug, with its sites.
    fn seeded_verdicts() -> &'static [(RaceVerdicts, Sites)] {
        static VERDICTS: OnceLock<Vec<(RaceVerdicts, Sites)>> = OnceLock::new();
        VERDICTS.get_or_init(|| {
            mcr_workloads::all_bugs()
                .iter()
                .map(|bug| {
                    let program = bug.compile();
                    let verdicts = RaceAnalysis::analyze(&program).verdicts().clone();
                    let all: Vec<Pc> = program
                        .funcs
                        .iter()
                        .enumerate()
                        .flat_map(|(f, func)| {
                            (0..func.body.len()).map(move |s| Pc {
                                func: FuncId(f as u32),
                                stmt: StmtId(s as u32),
                            })
                        })
                        .collect();
                    let flagged = all
                        .iter()
                        .copied()
                        .filter(|&pc| verdicts.is_solo(pc) || verdicts.has_may_race(pc))
                        .collect();
                    (verdicts, Sites { all, flagged })
                })
                .collect()
        })
    }

    /// Locations the generated accesses touch: scalars, array elements
    /// and heap slots that share containers. The last thread only ever
    /// touches the last one, which is never a CSV.
    const LOCS: [MemLoc; 7] = [
        MemLoc::Global(GlobalId(0)),
        MemLoc::GlobalElem(GlobalId(1), 0),
        MemLoc::GlobalElem(GlobalId(1), 2),
        MemLoc::Heap(ObjId(0), 0),
        MemLoc::Heap(ObjId(0), 1),
        MemLoc::Global(GlobalId(2)),
        MemLoc::Global(GlobalId(7)),
    ];
    /// Thread ids of the generated runs, sparse so that no id is its
    /// thread's index.
    const TIDS: [u32; 4] = [0, 1, 5, 9];

    /// Decodes random draws into a step-ordered passing run. Each draw
    /// advances the step by 0–2, so candidates and accesses often share
    /// a step. A candidate's sync ordinal repeats about half the time,
    /// which (with the After-anchors' `seq + 1`) repeats sync positions.
    /// Priorities are drawn for some accesses, a few of them explicitly
    /// `PRIORITY_BOTTOM`.
    fn passing_run(
        draws: &[u64],
        sites: Option<&Sites>,
    ) -> (PassingRunInfo, HashMap<(u64, MemLoc, bool), u32>) {
        let mut info = PassingRunInfo::default();
        let mut prio = HashMap::new();
        let mut seq = [0u32; TIDS.len()];
        let mut step = 0u64;
        for &d in draws {
            step += d % 3;
            let thread = (d >> 4) as usize % TIDS.len();
            let tid = ThreadId(TIDS[thread]);
            let pc = match sites {
                Some(s) if (d >> 16) & 1 == 1 && !s.flagged.is_empty() => {
                    s.flagged[(d >> 20) as usize % s.flagged.len()]
                }
                Some(s) => s.all[(d >> 20) as usize % s.all.len()],
                None => Pc {
                    func: FuncId((d >> 20) as u32 % 3),
                    stmt: StmtId((d >> 24) as u32 % 8),
                },
            };
            if (d >> 2) % 3 == 0 {
                let kind = match (d >> 8) % 6 {
                    0 => CandidateKind::ThreadStart,
                    1 => CandidateKind::BeforeAcquire,
                    2 => CandidateKind::AfterRelease,
                    3 => CandidateKind::AfterSpawn,
                    4 => CandidateKind::BeforeJoin,
                    _ => CandidateKind::BeforeFlush,
                };
                let (sync_seq, pc) = if kind == CandidateKind::ThreadStart {
                    (0, None)
                } else {
                    let s = &mut seq[thread];
                    *s += ((d >> 12) & 1) as u32;
                    (*s, Some(pc))
                };
                info.candidates.push(PreemptionPoint {
                    tid,
                    sync_seq,
                    kind,
                    step,
                    pc,
                });
            } else {
                let loc = if thread == TIDS.len() - 1 {
                    LOCS[LOCS.len() - 1]
                } else {
                    LOCS[(d >> 8) as usize % (LOCS.len() - 1)]
                };
                let is_write = (d >> 12) & 1 == 1;
                match (d >> 28) % 4 {
                    0 => {
                        prio.insert((step, loc, is_write), 1 + (d >> 32) as u32 % 5);
                    }
                    1 => {
                        prio.insert((step, loc, is_write), PRIORITY_BOTTOM);
                    }
                    _ => {}
                }
                info.shared_accesses.push(SharedAccess {
                    step,
                    tid,
                    pc,
                    loc,
                    is_write,
                });
            }
        }
        info.total_steps = step + 1;
        (info, prio)
    }

    /// The CSV set a mask selects; never the location the last thread touches.
    fn csv_set(mask: u32) -> HashSet<MemLoc> {
        LOCS[..LOCS.len() - 1]
            .iter()
            .enumerate()
            .filter(|&(i, _)| mask >> i & 1 == 1)
            .map(|(_, &loc)| loc)
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The sweep gives the reference's candidates, in order, and its
        /// future sets, over random step-ordered passing runs, with race
        /// verdicts absent or taken from each seeded bug.
        #[test]
        fn annotation_matches_reference(
            draws in proptest::collection::vec(proptest::num::u64::ANY, 0..160),
            csv_mask in 0u32..64,
            bug in 0usize..8,
        ) {
            let race = bug.checked_sub(1).map(|b| &seeded_verdicts()[b]);
            let (info, prio) = passing_run(&draws, race.map(|(_, sites)| sites));
            assert_same_as_reference(&info, &csv_set(csv_mask), &prio, race.map(|(rv, _)| rv))?;
        }
    }

    /// The generator produces the cases the sweep must get right: a
    /// thread's candidates sharing a step, repeated sync positions, a
    /// thread with candidates but no CSV access, pruned candidates and
    /// May-Race blocks moved up a tier.
    #[test]
    fn generated_runs_cover_the_edge_cases() {
        let mut rng = proptest::TestRng::new(17);
        let (mut same_step, mut repeated_pos, mut no_csv, mut pruned, mut may_race) =
            (0, 0, 0, 0, 0);
        for case in 0..64 {
            let draws: Vec<u64> = (0..160).map(|_| rng.next_u64()).collect();
            let (rv, sites) = &seeded_verdicts()[case % 7];
            let (info, prio) = passing_run(&draws, Some(sites));
            let csvs = csv_set(0b11_1111);
            let mut positions = HashSet::new();
            for (i, c) in info.candidates.iter().enumerate() {
                same_step += info.candidates[..i]
                    .iter()
                    .any(|p| p.tid == c.tid && p.step == c.step)
                    as usize;
                let pos = match c.kind {
                    CandidateKind::ThreadStart => continue,
                    CandidateKind::AfterRelease | CandidateKind::AfterSpawn => c.sync_seq + 1,
                    _ => c.sync_seq,
                };
                repeated_pos += !positions.insert((c.tid, pos)) as usize;
            }
            let (_, fut) = annotate(&info, &csvs, &prio);
            no_csv += fut
                .any(ThreadId(TIDS[TIDS.len() - 1]))
                .is_some_and(HashSet::is_empty) as usize;
            let (kept, _) = annotate_with_race(&info, &csvs, &prio, Some(rv));
            pruned += info.candidates.len() - kept.len();
            may_race += kept
                .iter()
                .filter(|a| a.best_priority == PRIORITY_BOTTOM - 1)
                .count();
        }
        for (what, n) in [
            ("same-step candidates", same_step),
            ("repeated positions", repeated_pos),
            ("threads without CSV access", no_csv),
            ("pruned candidates", pruned),
            ("May-Race blocks", may_race),
        ] {
            assert!(n > 0, "no {what} generated");
        }
    }

    /// The sweep matches the reference on every seeded bug's real
    /// passing run, under SC and TSO, with and without race verdicts.
    #[test]
    fn seeded_bug_runs_match_reference() {
        for (bug, (rv, _)) in mcr_workloads::all_bugs().iter().zip(seeded_verdicts()) {
            let program = bug.compile();
            for model in [MemModel::Sc, MemModel::tso()] {
                let mut vm = Vm::new(&program, &bug.default_input()).with_mem_model(model);
                let mut log = SyncLogger::new();
                run(
                    &mut vm,
                    &mut DeterministicScheduler::new(),
                    &mut log,
                    bug.max_steps,
                );
                let info = log.finish();
                let csvs: HashSet<MemLoc> = info.shared_accesses.iter().map(|a| a.loc).collect();
                let prio = info
                    .shared_accesses
                    .iter()
                    .step_by(3)
                    .map(|a| ((a.step, a.loc, a.is_write), 1 + (a.step % 7) as u32))
                    .collect();
                for race in [None, Some(rv)] {
                    assert_same_as_reference(&info, &csvs, &prio, race)
                        .unwrap_or_else(|e| panic!("{} {model:?}: {e:?}", bug.name));
                }
            }
        }
    }
}
