//! Dump comparison and critical shared variables.
//!
//! The heart of the paper's §4: compare the failure dump against the dump
//! taken at the aligned point of the passing run, over all variables with
//! *identical reference paths* in the two dumps. Shared variables whose
//! values differ are the **critical shared variables (CSVs)** — "they
//! reflect the outcome of schedule differences \[and\] are also the reason
//! why a failure occurs in one run but not the other."

use crate::dump::CoreDump;
use crate::refpath::{PathRoot, PathValue, RefPath, TraverseLimits};
use mcr_lang::{GlobalId, LocalId};
use mcr_vm::{GSlot, ObjId, Value};

/// One value difference between two dumps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueDiff {
    /// The variable (by reference path).
    pub path: RefPath,
    /// Value in the first (failure) dump.
    pub a: PathValue,
    /// Value in the second (aligned/passing) dump.
    pub b: PathValue,
}

/// Result of comparing two dumps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DumpDiff {
    /// Number of variables reachable in the first dump (paper Table 3,
    /// "vars").
    pub vars_a: usize,
    /// Number of variables reachable in the second dump.
    pub vars_b: usize,
    /// Variables with identical reference paths in both dumps.
    pub compared: usize,
    /// Shared variables compared (paper Table 3, "shared").
    pub shared_compared: usize,
    /// All value differences, in reference-path order (paper Table 3,
    /// "diffs").
    pub diffs: Vec<ValueDiff>,
    /// The critical shared variables: shared paths with differing values,
    /// in reference-path order (paper Table 3, "CSV").
    pub csvs: Vec<RefPath>,
}

impl DumpDiff {
    /// Compares two dumps with default traversal limits.
    pub fn compare(a: &CoreDump, b: &CoreDump) -> DumpDiff {
        Self::compare_with(a, b, TraverseLimits::default())
    }

    /// Compares two dumps with explicit traversal limits.
    ///
    /// The result is the comparison of the two dumps'
    /// [`reachable_vars`](crate::reachable_vars) maps over the paths they
    /// share, computed in one depth-first walk over both dumps at once:
    /// no per-dump map is built, and a path is cloned only when its
    /// values differ. Each side keeps its own cycle check, depth limit
    /// and path budget, so a path reachable in only one dump counts in
    /// that side's `vars` alone.
    pub fn compare_with(a: &CoreDump, b: &CoreDump, limits: TraverseLimits) -> DumpDiff {
        Self::walk(a, b, limits).finish()
    }

    /// The walk half of [`DumpDiff::compare_with`]: counts and the
    /// differing paths in walk order. [`DiffWalk::finish`] sorts them.
    pub fn walk(a: &CoreDump, b: &CoreDump, limits: TraverseLimits) -> DiffWalk {
        let mut walk = Walk {
            a: Side::new(a),
            b: Side::new(b),
            limits,
            steps: Vec::new(),
            out: DiffWalk::default(),
        };
        let globals = a.globals.len().max(b.globals.len());
        for gi in 0..globals {
            let g = GlobalId(gi as u32);
            let (ga, gb) = (a.globals.get(gi), b.globals.get(gi));
            walk.visit(PathRoot::Global(g), scalar(ga), scalar(gb));
            let (ea, eb) = (elems(ga), elems(gb));
            for i in 0..ea.len().max(eb.len()) {
                let root = PathRoot::GlobalElem(g, i as u32);
                walk.visit(root, ea.get(i).copied(), eb.get(i).copied());
            }
        }
        let (la, lb) = (focus_locals(a), focus_locals(b));
        for li in 0..la.len().max(lb.len()) {
            let root = PathRoot::FocusLocal(LocalId(li as u32));
            walk.visit(root, la.get(li).copied(), lb.get(li).copied());
        }
        let (ra, rb) = (a.focus_thread().last_value, b.focus_thread().last_value);
        walk.visit(PathRoot::Register, Some(ra), Some(rb));
        walk.out.vars_a = walk.a.vars;
        walk.out.vars_b = walk.b.vars;
        walk.out
    }

    /// Number of differing variables.
    pub fn diff_count(&self) -> usize {
        self.diffs.len()
    }

    /// Number of critical shared variables.
    pub fn csv_count(&self) -> usize {
        self.csvs.len()
    }
}

/// Counts and differences of a two-dump walk, before the final sort
/// ([`DumpDiff::walk`]).
#[derive(Debug, Default)]
pub struct DiffWalk {
    vars_a: usize,
    vars_b: usize,
    compared: usize,
    shared_compared: usize,
    diffs: Vec<ValueDiff>,
}

impl DiffWalk {
    /// Sorts the differences by reference path and splits off the
    /// critical shared variables.
    pub fn finish(mut self) -> DumpDiff {
        // The walk reaches `Global(g2)` after `GlobalElem(g1, _)`; within
        // one root its pre-order is already path order.
        self.diffs.sort_unstable_by(|x, y| x.path.cmp(&y.path));
        let csvs = self
            .diffs
            .iter()
            .filter(|d| d.path.is_shared())
            .map(|d| d.path.clone())
            .collect();
        DumpDiff {
            vars_a: self.vars_a,
            vars_b: self.vars_b,
            compared: self.compared,
            shared_compared: self.shared_compared,
            diffs: self.diffs,
            csvs,
        }
    }
}

fn scalar(slot: Option<&GSlot>) -> Option<Value> {
    match slot {
        Some(GSlot::Scalar(v)) => Some(*v),
        _ => None,
    }
}

fn elems(slot: Option<&GSlot>) -> &[Value] {
    match slot {
        Some(GSlot::Array(slots)) => slots,
        _ => &[],
    }
}

fn focus_locals(dump: &CoreDump) -> &[Value] {
    dump.focus_thread().top().map_or(&[], |f| &f.locals)
}

/// One dump's state in the lockstep walk.
struct Side<'d> {
    dump: &'d CoreDump,
    /// Objects on the current path, for the cycle and depth checks.
    on_path: Vec<ObjId>,
    /// Paths visited so far: this dump's `vars`.
    vars: usize,
}

impl<'d> Side<'d> {
    fn new(dump: &'d CoreDump) -> Self {
        Side {
            dump,
            on_path: Vec::new(),
            vars: 0,
        }
    }

    /// Counts a path holding `v` unless the path budget is spent; `None`
    /// means the path does not exist on this side.
    fn record(&mut self, v: Option<Value>, limits: TraverseLimits) -> Option<Value> {
        let v = v.filter(|_| self.vars < limits.max_paths)?;
        self.vars += 1;
        Some(v)
    }

    /// The slots `v` points to, if the walk descends into them on this
    /// side; pushes the object onto the path.
    fn enter(&mut self, v: Option<Value>, limits: TraverseLimits) -> Option<&'d [Value]> {
        let Some(Value::Ptr(Some(obj))) = v else {
            return None;
        };
        if self.on_path.contains(&obj) || self.on_path.len() >= limits.max_depth {
            return None; // cycle along this path, or too deep
        }
        let slots = self.dump.heap.get(obj.0 as usize)?.as_deref()?;
        self.on_path.push(obj);
        Some(slots)
    }
}

/// The depth-first walk over both dumps, following each reference path
/// in both at once.
struct Walk<'d> {
    a: Side<'d>,
    b: Side<'d>,
    limits: TraverseLimits,
    /// Steps of the current path, reused across the walk.
    steps: Vec<u32>,
    out: DiffWalk,
}

impl Walk<'_> {
    /// Visits the path `root` + `self.steps`, holding `va` in the first
    /// dump and `vb` in the second (`None` where it does not exist), and
    /// every path below it.
    fn visit(&mut self, root: PathRoot, va: Option<Value>, vb: Option<Value>) {
        let va = self.a.record(va, self.limits);
        let vb = self.b.record(vb, self.limits);
        if let (Some(x), Some(y)) = (va, vb) {
            self.out.compared += 1;
            self.out.shared_compared += usize::from(root.is_shared());
            let (pa, pb) = (PathValue::of(x), PathValue::of(y));
            if pa != pb {
                self.out.diffs.push(ValueDiff {
                    path: RefPath {
                        root,
                        steps: self.steps.clone(),
                    },
                    a: pa,
                    b: pb,
                });
            }
        }
        let sa = self.a.enter(va, self.limits);
        let sb = self.b.enter(vb, self.limits);
        let (ea, eb) = (sa.unwrap_or_default(), sb.unwrap_or_default());
        for i in 0..ea.len().max(eb.len()) {
            self.steps.push(i as u32);
            self.visit(root, ea.get(i).copied(), eb.get(i).copied());
            self.steps.pop();
        }
        if sa.is_some() {
            self.a.on_path.pop();
        }
        if sb.is_some() {
            self.b.on_path.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dump::DumpReason;
    use mcr_vm::{run, DeterministicScheduler, NullObserver, ThreadId, Vm};

    fn dump_with_input(src: &str, input: &[i64]) -> (mcr_lang::Program, CoreDump) {
        let p = mcr_lang::compile(src).unwrap();
        let mut vm = Vm::new(&p, input);
        let mut s = DeterministicScheduler::new();
        run(&mut vm, &mut s, &mut NullObserver, 100_000);
        let focus = vm.failure().map_or(ThreadId(0), |f| f.thread);
        let reason = vm.failure().map_or(DumpReason::Manual, DumpReason::Failure);
        let d = crate::dump::CoreDump::capture(&vm, focus, reason);
        (p, d)
    }

    // Ends in a deterministic crash so the focus thread's frame (and its
    // locals) are still live in the dump, as in a real failure dump.
    const PROG: &str = r#"
        global input: [int; 2];
        global x: int;
        global y: int;
        global q: ptr;
        fn main() {
            var local_only;
            var z;
            x = input[0];
            y = 5;
            local_only = input[0];
            q = alloc(2);
            q[0] = input[1];
            z = null;
            z[0] = 1;
        }
    "#;

    #[test]
    fn identical_runs_have_no_diffs() {
        let (_, a) = dump_with_input(PROG, &[1, 2]);
        let (_, b) = dump_with_input(PROG, &[1, 2]);
        let d = DumpDiff::compare(&a, &b);
        assert_eq!(d.diff_count(), 0);
        assert_eq!(d.csv_count(), 0);
        assert!(d.compared > 0);
        assert!(d.shared_compared > 0);
        assert!(d.shared_compared < d.compared, "locals are compared too");
    }

    #[test]
    fn differing_shared_values_are_csvs() {
        let (p, a) = dump_with_input(PROG, &[1, 2]);
        let (_, b) = dump_with_input(PROG, &[9, 2]);
        let d = DumpDiff::compare(&a, &b);
        // x differs (shared), local_only differs (private), input[0]
        // differs (shared).
        assert!(d.diff_count() >= 3, "diffs: {:?}", d.diffs);
        let x = p.global_by_name("x").unwrap();
        assert!(d
            .csvs
            .iter()
            .any(|c| c.root == crate::refpath::PathRoot::Global(x)));
        // Every CSV is shared.
        assert!(d.csvs.iter().all(crate::refpath::RefPath::is_shared));
        // The private local difference is a diff but not a CSV.
        assert!(d.diff_count() > d.csv_count());
    }

    #[test]
    fn heap_differences_through_global_pointers_are_csvs() {
        let (_, a) = dump_with_input(PROG, &[1, 2]);
        let (_, b) = dump_with_input(PROG, &[1, 7]);
        let d = DumpDiff::compare(&a, &b);
        assert!(
            d.csvs.iter().any(|c| !c.steps.is_empty()),
            "expected a heap CSV, got {:?}",
            d.csvs
        );
    }

    #[test]
    fn diff_is_symmetric_in_count() {
        let (_, a) = dump_with_input(PROG, &[1, 2]);
        let (_, b) = dump_with_input(PROG, &[3, 4]);
        let ab = DumpDiff::compare(&a, &b);
        let ba = DumpDiff::compare(&b, &a);
        assert_eq!(ab.diff_count(), ba.diff_count());
        assert_eq!(ab.csv_count(), ba.csv_count());
    }
}
