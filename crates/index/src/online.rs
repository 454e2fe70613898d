//! Online execution indexing (the paper's Fig. 4 rules).
//!
//! Maintains, per thread, the index stack the paper's instrumented
//! execution would maintain:
//!
//! 1. procedure entry pushes, procedure exit pops;
//! 2. predicates push `(predicate, outcome)` — with short-circuit groups
//!    pushed once, as their aggregated complex predicate;
//! 3. each statement first pops every region whose immediate
//!    post-dominator it is.
//!
//! This runtime exists for two reasons: it is the *ground truth* the
//! reverse-engineering algorithm is validated against (their agreement is
//! a core correctness property), and its operation counter quantifies why
//! the paper rejects online EI for production runs (≈42% overhead) in
//! favor of loop counters (§3.2).

use crate::index::{ExecutionIndex, IndexEntry};
use mcr_analysis::{PredEvent, PredKey, ProgramAnalysis};
use mcr_lang::{FuncId, Pc, Program, StmtId};
use mcr_vm::{Event, Observer, ThreadId};
use std::collections::HashMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StackEntry {
    Func(FuncId),
    Region {
        func: FuncId,
        key: PredKey,
        outcome: bool,
        /// Statement that pops this region (`None`: popped at function
        /// exit — the region's post-dominator is the virtual exit).
        pop_at: Option<StmtId>,
    },
}

/// Online index maintenance over the VM event stream.
#[derive(Debug)]
pub struct OnlineIndexer<'p> {
    program: &'p Program,
    analysis: &'p ProgramAnalysis,
    stacks: HashMap<ThreadId, Vec<StackEntry>>,
    /// Last statement executed per thread (the index leaf).
    last_pc: HashMap<ThreadId, Pc>,
    /// Index-maintenance operations performed (pushes + pops) — the
    /// overhead proxy for the EI-vs-loop-counter ablation.
    ops: u64,
}

impl<'p> OnlineIndexer<'p> {
    /// Creates an indexer for a program and its analysis.
    pub fn new(program: &'p Program, analysis: &'p ProgramAnalysis) -> Self {
        OnlineIndexer {
            program,
            analysis,
            stacks: HashMap::new(),
            last_pc: HashMap::new(),
            ops: 0,
        }
    }

    /// Total pushes and pops performed so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// The current index of `tid`, with the thread's last executed
    /// statement as the leaf.
    pub fn current_index(&self, tid: ThreadId) -> ExecutionIndex {
        let mut entries: Vec<IndexEntry> = self
            .stacks
            .get(&tid)
            .map(|stack| {
                stack
                    .iter()
                    .map(|e| match e {
                        StackEntry::Func(f) => IndexEntry::Func(*f),
                        StackEntry::Region {
                            func, key, outcome, ..
                        } => IndexEntry::Branch {
                            func: *func,
                            key: *key,
                            outcome: *outcome,
                        },
                    })
                    .collect()
            })
            .unwrap_or_default();
        if let Some(pc) = self.last_pc.get(&tid) {
            entries.push(IndexEntry::Stmt(*pc));
        }
        ExecutionIndex::new(entries)
    }

    fn pop_for_stmt(stack: &mut Vec<StackEntry>, pc: Pc, ops: &mut u64) {
        while let Some(StackEntry::Region {
            func,
            pop_at: Some(p),
            ..
        }) = stack.last()
        {
            if *func == pc.func && *p == pc.stmt {
                stack.pop();
                *ops += 1;
            } else {
                break;
            }
        }
    }
}

impl Observer for OnlineIndexer<'_> {
    fn on_event(&mut self, _step: u64, event: &Event) {
        match event {
            Event::Stmt { tid, pc, .. } => {
                let stack = self.stacks.entry(*tid).or_default();
                // Rule 4: pop regions whose immediate post-dominator is pc.
                Self::pop_for_stmt(stack, *pc, &mut self.ops);
                self.last_pc.insert(*tid, *pc);
            }
            Event::Branch { tid, pc, outcome } => {
                let func = self.program.func(pc.func);
                let fa = self.analysis.func(pc.func);
                let ev = fa.pred_event(func, pc.stmt, *outcome);
                let (key, side) = match ev {
                    PredEvent::Simple { stmt, outcome } => (PredKey::Stmt(stmt), outcome),
                    PredEvent::ClusterResolved { group, side } => (PredKey::Cluster(group), side),
                    PredEvent::ClusterInternal { .. } => return,
                };
                let pop_at = fa.region_pop_stmt(func, key);
                self.stacks
                    .entry(*tid)
                    .or_default()
                    .push(StackEntry::Region {
                        func: pc.func,
                        key,
                        outcome: side,
                        pop_at,
                    });
                self.ops += 1;
            }
            Event::FuncEnter { tid, func, .. } => {
                self.stacks
                    .entry(*tid)
                    .or_default()
                    .push(StackEntry::Func(*func));
                self.ops += 1;
            }
            Event::FuncExit { tid, .. } => {
                // Rule 2, generalized: leaving the function pops any
                // regions left open inside it (their post-dominator was
                // the virtual exit), then the function entry itself.
                let stack = self.stacks.entry(*tid).or_default();
                while let Some(top) = stack.pop() {
                    self.ops += 1;
                    if matches!(top, StackEntry::Func(_)) {
                        break;
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcr_analysis::ProgramAnalysis;
    use mcr_vm::{run, DeterministicScheduler, Scheduler, Vm};

    /// Runs a single-threaded program and returns the indexer + program.
    fn run_and_index(src: &str) -> (mcr_lang::Program, ProgramAnalysis, Vec<String>) {
        let p = mcr_lang::compile(src).unwrap();
        let a = ProgramAnalysis::analyze(&p);
        let mut indexes = Vec::new();
        {
            let mut vm = Vm::new(&p, &[]);
            let mut sched = DeterministicScheduler::new();
            let mut indexer = OnlineIndexer::new(&p, &a);
            // Capture the index after every step by re-running manually.
            loop {
                let runnable = vm.runnable_threads();
                if runnable.is_empty() || vm.failure().is_some() {
                    break;
                }
                let t = sched.pick(&vm, &runnable);
                vm.step(t, &mut indexer);
                indexes.push(indexer.current_index(t).display(&p).to_string());
            }
        }
        (p, a, indexes)
    }

    #[test]
    fn loop_iterations_accumulate_entries() {
        // Fig. 3 of the paper: in iteration i, the stack holds i copies of
        // the loop predicate entry.
        let src =
            "global n: int; fn main() { var i; while (i < 3) { i = i + 1; n = n + 1; } n = 99; }";
        let (p, a, indexes) = run_and_index(src);
        let _ = (p, a);
        // Find indexes of the body statement `n = n + 1` across iterations:
        // they must show growing numbers of loop entries.
        let depth_of = |s: &str| s.matches("->").count();
        let body_indexes: Vec<&String> = indexes
            .iter()
            .filter(|s| s.contains("T") && !s.contains("99"))
            .collect();
        assert!(!body_indexes.is_empty());
        // After the loop exits, the final statement has no loop entries.
        let last = indexes.last().unwrap();
        assert!(
            depth_of(last) <= 2,
            "loop entries must be popped at exit: {last}"
        );
    }

    #[test]
    fn same_calling_context_different_index() {
        // The motivating observation of the paper's §2: two calls to F in
        // different loop iterations share a calling context but must have
        // different indices.
        let src = r#"
            global n: int;
            fn F() { n = n + 1; }
            fn main() {
                var i;
                while (i < 2) { i = i + 1; F(); }
            }
        "#;
        let p = mcr_lang::compile(src).unwrap();
        let a = ProgramAnalysis::analyze(&p);
        let mut vm = Vm::new(&p, &[]);
        let mut sched = DeterministicScheduler::new();
        let mut indexer = OnlineIndexer::new(&p, &a);
        let f_id = p.func_by_name("F").unwrap();
        let mut f_body_indexes = Vec::new();
        loop {
            let runnable = vm.runnable_threads();
            if runnable.is_empty() {
                break;
            }
            let t = sched.pick(&vm, &runnable);
            vm.step(t, &mut indexer);
            let idx = indexer.current_index(t);
            if idx.leaf().map(|pc| pc.func) == Some(f_id) {
                f_body_indexes.push(idx);
            }
        }
        // Two executions of F's body statement with identical calling
        // context but distinct indices (extra loop entry).
        let body_stmt: Vec<_> = f_body_indexes
            .iter()
            .filter(|i| i.leaf().map(|pc| pc.stmt.0) == Some(0))
            .collect();
        assert_eq!(body_stmt.len(), 2);
        assert_ne!(body_stmt[0], body_stmt[1]);
        assert_eq!(body_stmt[0].len() + 1, body_stmt[1].len());
    }

    #[test]
    fn branch_regions_pop_at_merge() {
        let src = "global x: int; fn main() { if (x == 0) { x = 1; } x = 2; }";
        let (_p, _a, indexes) = run_and_index(src);
        // The statement after the if (x = 2) must not contain the branch
        // entry.
        let last_assign = indexes
            .iter()
            .rev()
            .nth(1) // skip the implicit return
            .unwrap();
        assert!(
            !last_assign.contains('T') || last_assign.matches("->").count() <= 1,
            "branch region leaked: {last_assign}"
        );
    }

    #[test]
    fn cluster_pushes_single_aggregated_entry() {
        let src = "global x: int; global y: int; fn main() { if (x == 0 || y == 0) { x = 5; } }";
        let p = mcr_lang::compile(src).unwrap();
        let a = ProgramAnalysis::analyze(&p);
        let mut vm = Vm::new(&p, &[]);
        let mut sched = DeterministicScheduler::new();
        let mut indexer = OnlineIndexer::new(&p, &a);
        let mut then_index = None;
        loop {
            let runnable = vm.runnable_threads();
            if runnable.is_empty() {
                break;
            }
            let t = sched.pick(&vm, &runnable);
            vm.step(t, &mut indexer);
            let idx = indexer.current_index(t);
            let leaf_inst = idx.leaf().map(|pc| p.inst(pc).clone());
            if matches!(
                leaf_inst,
                Some(mcr_lang::Inst::Assign {
                    src: mcr_lang::Expr::Const(5),
                    ..
                })
            ) {
                then_index = Some(idx);
            }
        }
        let idx = then_index.expect("then branch executed");
        // main -> G0T -> leaf: exactly one aggregated cluster entry even
        // though `x == 0` resolved the condition at its first member.
        assert_eq!(idx.len(), 3, "{}", idx.display(&p));
        assert!(matches!(
            idx.entries[1],
            IndexEntry::Branch {
                key: PredKey::Cluster(_),
                outcome: true,
                ..
            }
        ));
    }

    #[test]
    fn ops_counter_grows() {
        let (_p, _a, _idx) =
            run_and_index("global n: int; fn main() { var i; while (i < 10) { i = i + 1; } }");
        // Indirect: the helper drops the indexer, so just re-run quickly.
        let p =
            mcr_lang::compile("global n: int; fn main() { var i; while (i < 10) { i = i + 1; } }")
                .unwrap();
        let a = ProgramAnalysis::analyze(&p);
        let mut vm = Vm::new(&p, &[]);
        let mut sched = DeterministicScheduler::new();
        let mut indexer = OnlineIndexer::new(&p, &a);
        run(&mut vm, &mut sched, &mut indexer, 10_000);
        assert!(indexer.ops() > 20, "ops = {}", indexer.ops());
    }
}
