//! Locating the aligned point in a passing run — the paper's Fig. 7 rules.
//!
//! The reverse-engineered failure index is consumed entry by entry as the
//! deterministic passing run executes:
//!
//! * rule 5 — entering a procedure that matches the head entry pops it;
//! * rule 6 — a predicate matching the head's region pops it when the
//!   outcome matches (①); signals **closest alignment** when the same
//!   predicate takes the other branch (②) or when the head is
//!   transitively control dependent on the branch *not* taken (③ — the
//!   tolerance for lossy common-ancestor entries);
//! * rule 7 — when only the leaf remains and the current statement is
//!   that leaf, the **exact alignment** is found.
//!
//! If the run ends without a signal, the point of deepest progress is the
//! closest alignment (the paper leaves this case implicit; deterministic
//! re-execution makes it easy to stop there on a replay).

use crate::index::{ExecutionIndex, IndexEntry};
use mcr_analysis::{PredEvent, PredKey, ProgramAnalysis};
use mcr_lang::Program;
use mcr_vm::{Event, Observer, ThreadId};
use std::collections::VecDeque;

/// The kind of alignment found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlignSignal {
    /// The failure point itself occurs in the passing run.
    Exact,
    /// The runs diverge before the failure point; this is the closest
    /// point (paper: `CLOSEST_ALIGNMENT`).
    Closest,
}

/// Where a run aligned with a failure index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Alignment {
    /// Exact or closest.
    pub signal: AlignSignal,
    /// The VM step (statement serial) at which the signal fired; replay
    /// to just past this step to stand at the aligned point.
    pub step: u64,
    /// Entries of the failure index still unmatched at the signal.
    pub remaining: usize,
}

/// Observer that consumes a failure index during a (passing) run.
#[derive(Debug)]
pub struct Aligner<'p> {
    program: &'p Program,
    analysis: &'p ProgramAnalysis,
    focus: ThreadId,
    idx: VecDeque<IndexEntry>,
    result: Option<Alignment>,
    /// Step of the most recent successful match (fallback alignment).
    progress_step: u64,
    progress_seen: bool,
}

impl<'p> Aligner<'p> {
    /// Creates an aligner that matches `index` against the execution of
    /// thread `focus`.
    pub fn new(
        program: &'p Program,
        analysis: &'p ProgramAnalysis,
        focus: ThreadId,
        index: &ExecutionIndex,
    ) -> Self {
        Aligner {
            program,
            analysis,
            focus,
            idx: index.entries.iter().copied().collect(),
            result: None,
            progress_step: 0,
            progress_seen: false,
        }
    }

    /// The alignment, if a signal has fired.
    pub fn result(&self) -> Option<Alignment> {
        self.result
    }

    /// Whether the aligner is still searching.
    pub fn searching(&self) -> bool {
        self.result.is_none()
    }

    /// The step [`Aligner::finish`] would report if the run ended now:
    /// the signal's step once one fired, else the deepest progress.
    pub fn point(&self) -> u64 {
        self.result.map_or(self.progress_step, |a| a.step)
    }

    /// Finishes the scan: if no signal fired during the run, the point of
    /// deepest progress becomes the closest alignment.
    pub fn finish(self) -> Alignment {
        self.result.unwrap_or(Alignment {
            signal: AlignSignal::Closest,
            step: self.progress_step,
            remaining: self.idx.len(),
        })
    }

    fn signal(&mut self, signal: AlignSignal, step: u64) {
        if self.result.is_none() {
            self.result = Some(Alignment {
                signal,
                step,
                remaining: self.idx.len(),
            });
        }
    }
}

impl Observer for Aligner<'_> {
    fn on_event(&mut self, step: u64, event: &Event) {
        if self.result.is_some() || event.tid() != self.focus {
            return;
        }
        match event {
            // Rule 5: enter procedure X.
            Event::FuncEnter { func, .. } if self.idx.front() == Some(&IndexEntry::Func(*func)) => {
                self.idx.pop_front();
                self.progress_step = step;
                self.progress_seen = true;
            }
            // Rule 6: predicate with outcome.
            Event::Branch { pc, outcome, .. } => {
                let func = self.program.func(pc.func);
                let fa = self.analysis.func(pc.func);
                let (key, side) = match fa.pred_event(func, pc.stmt, *outcome) {
                    PredEvent::Simple { stmt, outcome } => (PredKey::Stmt(stmt), outcome),
                    PredEvent::ClusterResolved { group, side } => (PredKey::Cluster(group), side),
                    PredEvent::ClusterInternal { .. } => return,
                };
                let Some(head) = self.idx.front().copied() else {
                    return;
                };
                match head {
                    IndexEntry::Branch {
                        func: hfunc,
                        key: hkey,
                        outcome: houtcome,
                    } if hfunc == pc.func && hkey == key => {
                        if houtcome == side {
                            // Condition ①: entering the matching branch.
                            self.idx.pop_front();
                            self.progress_step = step;
                            self.progress_seen = true;
                        } else {
                            // Condition ②: same predicate, other branch.
                            self.signal(AlignSignal::Closest, step);
                        }
                    }
                    IndexEntry::Branch {
                        func: hfunc,
                        key: hkey,
                        ..
                    } if hfunc == pc.func => {
                        // Condition ③: the head nests in the branch NOT
                        // taken. Control dependence on the untaken side is
                        // the paper's test; the reachability qualifier
                        // keeps it from misfiring on multi-dependence
                        // statements that another path can still reach
                        // (cf. 22F in the paper's Fig. 6 example).
                        let head_rep = fa.rep_stmt(func, hkey);
                        let not_taken = !side;
                        let opposite_rep = fa.rep_stmt(func, key);
                        if fa.transitively_control_dependent(head_rep, opposite_rep, not_taken)
                            && !fa.reachable_after_branch(opposite_rep, side, head_rep)
                        {
                            self.signal(AlignSignal::Closest, step);
                        }
                    }
                    IndexEntry::Stmt(leaf) if leaf.func == pc.func => {
                        // Condition ③ applied to the leaf.
                        let not_taken = !side;
                        let opposite_rep = fa.rep_stmt(func, key);
                        if fa.transitively_control_dependent(leaf.stmt, opposite_rep, not_taken)
                            && !fa.reachable_after_branch(opposite_rep, side, leaf.stmt)
                        {
                            self.signal(AlignSignal::Closest, step);
                        }
                    }
                    _ => {}
                }
            }
            // Rule 7: the leaf statement executes.
            Event::Stmt { pc, .. }
                if self.idx.len() == 1 && self.idx.front() == Some(&IndexEntry::Stmt(*pc)) =>
            {
                self.idx.pop_front();
                self.signal(AlignSignal::Exact, step);
            }
            _ => {}
        }
    }
}

/// Convenience summary of a completed alignment scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlignmentOutcome {
    /// The alignment.
    pub alignment: Alignment,
    /// Total entries in the failure index.
    pub index_len: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reverse::reverse_index;
    use mcr_analysis::ProgramAnalysis;
    use mcr_dump::CoreDump;
    use mcr_vm::{run, DeterministicScheduler, NullObserver, Vm};

    /// Crash a program on `crash_input`, reverse the index, then align it
    /// against the run on `pass_input`.
    fn crash_then_align(
        src: &str,
        crash_input: &[i64],
        pass_input: &[i64],
    ) -> (mcr_lang::Program, Alignment) {
        let p = mcr_lang::compile(src).unwrap();
        let a = ProgramAnalysis::analyze(&p);
        let mut vm = Vm::new(&p, crash_input);
        let mut s = DeterministicScheduler::new();
        run(&mut vm, &mut s, &mut NullObserver, 1_000_000);
        let dump = CoreDump::capture_failure(&vm).expect("crash run must crash");
        let idx = reverse_index(&p, &a, &dump).unwrap();

        let mut vm2 = Vm::new(&p, pass_input);
        let mut s2 = DeterministicScheduler::new();
        let mut aligner = Aligner::new(&p, &a, dump.focus, &idx);
        mcr_vm::run_until(&mut vm2, &mut s2, &mut aligner, 1_000_000, |_| false);
        let alignment = aligner.finish();
        (p, alignment)
    }

    const LOOP_CRASH: &str = r#"
        global input: [int; 1];
        global x: int;
        fn main() {
            var i; var p;
            while (i < 5) {
                i = i + 1;
                x = i;
                if (i == input[0]) { p = null; p[0] = 1; }
            }
            x = 77;
        }
    "#;

    #[test]
    fn same_input_gives_exact_alignment() {
        // Re-executing with the same input reaches the failure point
        // itself: exact alignment (and in this deterministic case, the
        // same crash).
        let (_p, al) = crash_then_align(LOOP_CRASH, &[3], &[3]);
        assert_eq!(al.signal, AlignSignal::Exact);
        assert_eq!(al.remaining, 0);
    }

    #[test]
    fn diverging_predicate_gives_closest_alignment() {
        // Passing input never satisfies i == input[0] inside the range:
        // the run diverges at that predicate in iteration 3 — condition ②.
        let (_p, al) = crash_then_align(LOOP_CRASH, &[3], &[99]);
        assert_eq!(al.signal, AlignSignal::Closest);
        // The leaf (and nothing else) may remain unmatched... the branch
        // entry for the if and the Func/loop entries must all have been
        // consumed by iteration 3. Remaining = ifT entry + leaf.
        assert!(al.remaining >= 1 && al.remaining <= 3, "{al:?}");
    }

    #[test]
    fn alignment_step_is_in_matching_iteration() {
        // The divergence must be detected in iteration input[0] of the
        // crash run (i == 3), not earlier or later.
        let (_p, al_same) = crash_then_align(LOOP_CRASH, &[2], &[99]);
        let (_p2, al_later) = crash_then_align(LOOP_CRASH, &[4], &[99]);
        assert_eq!(al_same.signal, AlignSignal::Closest);
        assert_eq!(al_later.signal, AlignSignal::Closest);
        // Diverging later in the loop means more steps executed.
        assert!(
            al_later.step > al_same.step,
            "iteration-2 divergence at {} should precede iteration-4 at {}",
            al_same.step,
            al_later.step
        );
    }

    #[test]
    fn paper_example_2_lossy_index_condition_3() {
        // Paper §3.3 Example 2 (Fig. 6 program): failing path reaches 26
        // via goto, reversed index is [21T, 26] (lossy). Passing run takes
        // 25F, so 26 — control dependent on 25T — can never execute:
        // condition ③ fires at predicate 25.
        let src = r#"
            global input: [int; 3];
            global c: int;
            fn main() {
                var p;
                if (input[0] > 0) {
                    if (input[1] > 0) { goto s2; }
                    c = 1;
                    if (input[2] > 0) {
                        label s2:
                        p = null;
                        p[0] = 26;
                    } else {
                        c = 3;
                    }
                }
                c = 30;
            }
        "#;
        // Crash: goto path (input = 1,1,0). Pass: 25F path (1,0,0).
        let (_p, al) = crash_then_align(src, &[1, 1, 0], &[1, 0, 0]);
        assert_eq!(al.signal, AlignSignal::Closest);

        // And with input[2] > 0 the passing run reaches the crash point:
        // exact alignment even though the index is lossy.
        let (_p2, al2) = crash_then_align(src, &[1, 1, 0], &[1, 0, 1]);
        assert_eq!(al2.signal, AlignSignal::Exact);
    }

    #[test]
    fn cluster_divergence_is_condition_2() {
        let src = r#"
            global input: [int; 2];
            fn main() {
                var p;
                if (input[0] > 0 || input[1] > 0) {
                    p = null;
                    p[0] = 1;
                }
            }
        "#;
        // Crash via the second disjunct; pass with both false: the
        // aggregated cluster resolves F while the index head wants T.
        let (_p, al) = crash_then_align(src, &[0, 1], &[0, 0]);
        assert_eq!(al.signal, AlignSignal::Closest);
    }

    #[test]
    fn end_of_run_fallback() {
        // The passing run takes an early return, so index entries beyond
        // the matched prefix never appear; the fallback reports closest
        // at the deepest progress point.
        let src = r#"
            global input: [int; 1];
            global x: int;
            fn work() {
                var p;
                x = 1;
                if (input[0] > 0) { p = null; p[0] = 1; }
            }
            fn main() {
                if (input[0] > 9) { work(); }
                x = 2;
            }
        "#;
        let (_p, al) = crash_then_align(src, &[10], &[0]);
        assert_eq!(al.signal, AlignSignal::Closest);
    }
}
