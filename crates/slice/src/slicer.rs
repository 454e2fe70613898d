//! Backward dynamic slicing and CSV-access prioritization (paper §4).
//!
//! Two strategies rank the passing run's accesses to critical shared
//! variables:
//!
//! * **temporal distance** — how close the access is to the aligned
//!   point in execution order;
//! * **dependence distance** — how close the access is to the slicing
//!   criterion along dynamic data/control dependence edges; accesses not
//!   in the slice get the lowest priority ("they are very likely not
//!   relevant to the failure").

use crate::trace::Trace;
use mcr_lang::Pc;
use mcr_vm::{MemLoc, ThreadId};
use std::collections::VecDeque;

/// The lowest priority (the paper's ⊥).
pub const PRIORITY_BOTTOM: u32 = u32::MAX;

/// Marks an event outside the slice in [`DynamicSlice`]'s distance array.
const OFF_SLICE: u32 = u32::MAX;

/// A backward dynamic slice with dependence distances, over the events
/// of one [`Trace`].
#[derive(Debug, Clone, Default)]
pub struct DynamicSlice {
    /// Serial of the trace's first event.
    first: u64,
    /// Dependence distance (in edges) from the criterion, per trace
    /// position; [`OFF_SLICE`] for events not in the slice.
    distance: Vec<u32>,
    len: usize,
}

impl DynamicSlice {
    /// The dependence distance of an event from the criterion, or `None`
    /// when the event is not in the slice.
    pub fn distance(&self, serial: u64) -> Option<u32> {
        let idx = usize::try_from(serial.checked_sub(self.first)?).ok()?;
        self.distance.get(idx).copied().filter(|&d| d != OFF_SLICE)
    }

    /// Whether an event is in the slice.
    pub fn contains(&self, serial: u64) -> bool {
        self.distance(serial).is_some()
    }

    /// Number of events in the slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds the event `serial` at distance `d` and queues its position,
    /// unless it is already in the slice or outside the trace window.
    fn reach(&mut self, queue: &mut VecDeque<usize>, serial: u64, d: u32) {
        let Some(idx) = serial
            .checked_sub(self.first)
            .and_then(|i| usize::try_from(i).ok())
            .filter(|&i| i < self.distance.len())
        else {
            return;
        };
        if self.distance[idx] == OFF_SLICE {
            self.distance[idx] = d;
            self.len += 1;
            queue.push_back(idx);
        }
    }
}

/// Computes the backward dynamic slice from the given criterion events
/// (distance 0), following dynamic data and control dependence edges.
/// Edges to events that fell out of the trace window are not followed.
pub fn backward_slice(trace: &Trace, criteria: &[u64]) -> DynamicSlice {
    let mut slice = DynamicSlice {
        first: trace.events().first().map_or(0, |e| e.serial),
        distance: vec![OFF_SLICE; trace.len()],
        len: 0,
    };
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &c in criteria {
        slice.reach(&mut queue, c, 0);
    }
    while let Some(idx) = queue.pop_front() {
        let d = slice.distance[idx] + 1;
        let ev = &trace.events()[idx];
        for &(_, writer) in trace.uses(ev) {
            if let Some(w) = writer {
                slice.reach(&mut queue, w, d);
            }
        }
        if let Some(cd) = ev.ctrl_dep {
            slice.reach(&mut queue, cd, d);
        }
    }
    slice
}

/// How to prioritize CSV accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// By closeness to the aligned point in execution order.
    Temporal,
    /// By dependence distance to the slicing criterion.
    Dependence,
}

/// One access to a critical shared variable, projected out of a trace
/// (or, for the temporal strategy, out of the passing run's
/// shared-access log): everything the ranking reads, so the trace
/// itself can be dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsvAccess {
    /// Trace serial of the accessing event.
    pub serial: u64,
    /// VM step of the access.
    pub step: u64,
    /// Accessing thread.
    pub tid: ThreadId,
    /// Statement performing the access.
    pub pc: Pc,
    /// The CSV location touched.
    pub loc: MemLoc,
    /// Whether the access writes the location.
    pub is_write: bool,
    /// Backward-slice distance of the accessing event; `None` when it is
    /// off the slice or no slice was computed (the temporal strategy
    /// projects the passing-run log, not a trace).
    pub distance: Option<u32>,
}

/// A prioritized access to a critical shared variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankedAccess {
    /// Trace serial of the access.
    pub serial: u64,
    /// VM step of the access.
    pub step: u64,
    /// Accessing thread.
    pub tid: ThreadId,
    /// Statement performing the access.
    pub pc: Pc,
    /// The CSV location touched.
    pub loc: MemLoc,
    /// Whether the access writes the location.
    pub is_write: bool,
    /// Priority: 1 is highest; [`PRIORITY_BOTTOM`] is the paper's ⊥.
    pub priority: u32,
}

/// Projects the trace onto its accesses to `csv_locs` at or before the
/// aligned point (`aligned_serial`), in trace order: per event, its reads
/// of CSV locations, then its writes. Each access carries its event's
/// distance in `slice`.
pub fn csv_accesses(
    trace: &Trace,
    aligned_serial: u64,
    csv_locs: &[MemLoc],
    slice: &DynamicSlice,
) -> Vec<CsvAccess> {
    // A handful of locations, looked up once per read and write of the
    // trace: a sorted list is cheaper to probe than a hash set.
    let mut csv_locs = csv_locs.to_vec();
    csv_locs.sort_unstable();
    let mut out = Vec::new();
    for ev in trace.events() {
        if ev.serial > aligned_serial {
            break;
        }
        let reads = trace.uses(ev).iter().map(|&(loc, _)| (loc, false));
        let writes = trace.defs(ev).iter().map(|&loc| (loc, true));
        for (loc, is_write) in reads.chain(writes) {
            if csv_locs.binary_search(&loc).is_ok() {
                out.push(CsvAccess {
                    serial: ev.serial,
                    step: ev.step,
                    tid: ev.tid,
                    pc: ev.pc,
                    loc,
                    is_write,
                    distance: slice.distance(ev.serial),
                });
            }
        }
    }
    out
}

/// Prioritizes projected CSV accesses, all at or before the aligned
/// point (`aligned_serial`), and returns them in their given order.
///
/// For [`Strategy::Temporal`], rank = closeness to the aligned point.
/// For [`Strategy::Dependence`], rank = the accesses' slice distance;
/// off-slice accesses get [`PRIORITY_BOTTOM`].
pub fn rank_accesses(
    accesses: &[CsvAccess],
    aligned_serial: u64,
    strategy: Strategy,
) -> Vec<RankedAccess> {
    // Order by the strategy's notion of distance, then assign dense
    // priorities 1..; among equal distances the later access ranks
    // first.
    let mut order: Vec<(u64, usize)> = accesses
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let key = match strategy {
                Strategy::Temporal => aligned_serial - a.serial,
                Strategy::Dependence => a.distance.map_or(u64::MAX, u64::from),
            };
            (key, i)
        })
        .collect();
    order.sort_unstable_by_key(|&(key, i)| (key, std::cmp::Reverse(i)));

    let mut priority = vec![PRIORITY_BOTTOM; accesses.len()];
    for (next, &(key, i)) in (1u32..).zip(&order) {
        if key != u64::MAX {
            priority[i] = next;
        }
    }
    accesses
        .iter()
        .zip(priority)
        .map(|(a, priority)| RankedAccess {
            serial: a.serial,
            step: a.step,
            tid: a.tid,
            pc: a.pc,
            loc: a.loc,
            is_write: a.is_write,
            priority,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceCollector;
    use mcr_analysis::ProgramAnalysis;
    use mcr_lang::GlobalId;
    use mcr_vm::{run, DeterministicScheduler, Vm};

    fn collect(src: &str, input: &[i64]) -> Trace {
        let p = mcr_lang::compile(src).unwrap();
        let a = ProgramAnalysis::analyze(&p);
        let mut vm = Vm::new(&p, input);
        let mut s = DeterministicScheduler::new();
        let mut tc = TraceCollector::new(&a, 1_000_000);
        run(&mut vm, &mut s, &mut tc, 1_000_000);
        tc.finish()
    }

    /// Projects and ranks `t`'s accesses to `csvs` at or before
    /// `aligned`, sliced from `aligned`.
    fn rank(t: &Trace, aligned: u64, csvs: &[MemLoc], strategy: Strategy) -> Vec<RankedAccess> {
        let slice = backward_slice(t, &[aligned]);
        rank_accesses(&csv_accesses(t, aligned, csvs, &slice), aligned, strategy)
    }

    const PROG: &str = r#"
        global x: int;
        global y: int;
        global unrelated: int;
        fn main() {
            unrelated = 1;     // not in the slice of y
            x = 2;             // in the slice (y depends on x)
            unrelated = 3;
            y = x + 1;         // criterion
        }
    "#;

    fn writes(t: &Trace, g: u32) -> impl Iterator<Item = &crate::TraceEvent> {
        t.events().iter().filter(move |e| {
            t.defs(e)
                .iter()
                .any(|l| matches!(l, MemLoc::Global(GlobalId(id)) if *id == g))
        })
    }

    fn criterion_serial(t: &Trace) -> u64 {
        // The `y = x + 1` event: defines y.
        writes(t, 1).last().unwrap().serial
    }

    #[test]
    fn slice_follows_data_deps_only_where_relevant() {
        let t = collect(PROG, &[]);
        let crit = criterion_serial(&t);
        let slice = backward_slice(&t, &[crit]);
        assert!(slice.contains(crit));
        // `x = 2` is in the slice at distance 1.
        let x_writer = writes(&t, 0).next().unwrap();
        assert_eq!(slice.distance(x_writer.serial), Some(1));
        // `unrelated = ..` events are not in the slice.
        for ev in writes(&t, 2) {
            assert!(!slice.contains(ev.serial), "unrelated in slice");
        }
    }

    #[test]
    fn slice_follows_control_deps() {
        let src = r#"
            global input: [int; 1];
            global x: int;
            global y: int;
            fn main() {
                x = input[0];
                if (x > 0) { y = 1; } else { y = 2; }
            }
        "#;
        let t = collect(src, &[5]);
        let crit = t
            .events()
            .iter()
            .rev()
            .find(|e| !t.defs(e).is_empty())
            .unwrap()
            .serial;
        let slice = backward_slice(&t, &[crit]);
        // The branch, and through it `x = input[0]`, are in the slice.
        let branch = t
            .events()
            .iter()
            .find(|e| e.branch_outcome.is_some())
            .unwrap();
        assert!(slice.contains(branch.serial));
        let x_def = writes(&t, 1).next().unwrap();
        assert!(slice.contains(x_def.serial));
    }

    #[test]
    fn temporal_ranking_prefers_recent() {
        let t = collect(PROG, &[]);
        let crit = criterion_serial(&t);
        let csvs = [MemLoc::Global(GlobalId(0)), MemLoc::Global(GlobalId(2))];
        let ranked = rank(&t, crit, &csvs, Strategy::Temporal);
        // Closest to the aligned point: the read of x in `y = x + 1`.
        let top = ranked.iter().find(|r| r.priority == 1).unwrap();
        assert_eq!(top.serial, crit);
        assert!(!top.is_write);
        // All ranked accesses are at or before the aligned point.
        assert!(ranked.iter().all(|r| r.serial <= crit));
        // Priorities strictly order by recency.
        for w in ranked.iter().filter(|r| r.priority != 1) {
            assert!(w.serial <= top.serial);
        }
    }

    #[test]
    fn dependence_ranking_excludes_unrelated() {
        let t = collect(PROG, &[]);
        let crit = criterion_serial(&t);
        let csvs = [
            MemLoc::Global(GlobalId(0)), // x
            MemLoc::Global(GlobalId(2)), // unrelated
        ];
        let ranked = rank(&t, crit, &csvs, Strategy::Dependence);
        // Accesses to `unrelated` rank bottom; accesses to x rank high.
        for r in &ranked {
            match r.loc {
                MemLoc::Global(GlobalId(2)) => assert_eq!(r.priority, PRIORITY_BOTTOM),
                MemLoc::Global(GlobalId(0)) => assert!(r.priority < PRIORITY_BOTTOM),
                _ => {}
            }
        }
        // This is exactly the paper's argument for the dependence
        // heuristic: the temporal heuristic cannot exclude `unrelated = 3`
        // (it is very recent), the dependence heuristic can.
        let temporal = rank(&t, crit, &csvs, Strategy::Temporal);
        let unrelated_temporal = temporal
            .iter()
            .filter(|r| matches!(r.loc, MemLoc::Global(GlobalId(2))))
            .map(|r| r.priority)
            .min()
            .unwrap();
        assert!(unrelated_temporal < PRIORITY_BOTTOM);
    }

    #[test]
    fn accesses_after_aligned_point_are_ignored() {
        let t = collect(PROG, &[]);
        let crit = criterion_serial(&t);
        let csvs = [MemLoc::Global(GlobalId(2))];
        // Align at the very first event: only accesses before it count.
        let first = t.events().first().unwrap().serial;
        let ranked = rank(&t, first, &csvs, Strategy::Temporal);
        assert!(ranked.len() <= 1);
        let all = rank(&t, crit, &csvs, Strategy::Temporal);
        assert!(all.len() > ranked.len());
    }

    #[test]
    fn empty_criterion_empty_slice() {
        let t = collect(PROG, &[]);
        let slice = backward_slice(&t, &[]);
        assert!(slice.is_empty());
    }
}
