//! Reference paths — cross-run identities for memory variables.
//!
//! Raw heap addresses (our [`mcr_vm::ObjId`]s) are allocation-order
//! dependent and meaningless across runs, so the paper identifies a memory
//! variable by *"the path leading from a register, a global pointer or a
//! local stack pointer to \[the\] variable"* (§4), following Boehm-style
//! reachability. Aliased objects yield multiple paths and are deliberately
//! treated as multiple variables, one per path.

use crate::dump::CoreDump;
use mcr_lang::{GlobalId, LocalId, Program};
use mcr_vm::{GSlot, ObjId, Value};
use std::collections::BTreeMap;
use std::fmt;

/// Where a reference path starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PathRoot {
    /// A global scalar slot.
    Global(GlobalId),
    /// An element of a global array.
    GlobalElem(GlobalId, u32),
    /// A local slot of the focus thread's *current* stack frame (the paper
    /// compares "the local variables on the current stack frame of the
    /// failing thread").
    FocusLocal(LocalId),
    /// The focus thread's register file (its last computed value).
    Register,
}

impl PathRoot {
    /// Whether paths from this root are shared state ([`RefPath::is_shared`]).
    pub(crate) fn is_shared(self) -> bool {
        matches!(self, PathRoot::Global(_) | PathRoot::GlobalElem(..))
    }
}

/// A reference path: a root plus a sequence of slot indices followed
/// through heap objects.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RefPath {
    /// The root.
    pub root: PathRoot,
    /// Slot indices through successive heap objects.
    pub steps: Vec<u32>,
}

impl RefPath {
    /// A path consisting of just a root.
    pub fn root(root: PathRoot) -> RefPath {
        RefPath {
            root,
            steps: Vec::new(),
        }
    }

    /// Whether the variable is shared state: rooted in a global (directly
    /// or through the heap). Locals and registers of the failing thread
    /// are private.
    pub fn is_shared(&self) -> bool {
        self.root.is_shared()
    }

    /// Renders the path with source-level names.
    pub fn display<'a>(&'a self, program: &'a Program) -> RefPathDisplay<'a> {
        RefPathDisplay {
            path: self,
            program,
        }
    }
}

/// Pretty-printer for [`RefPath`] (named after the program's globals).
#[derive(Debug, Clone, Copy)]
pub struct RefPathDisplay<'a> {
    path: &'a RefPath,
    program: &'a Program,
}

impl fmt::Display for RefPathDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.path.root {
            PathRoot::Global(g) => write!(f, "{}", self.program.globals[g.0 as usize].name)?,
            PathRoot::GlobalElem(g, i) => {
                write!(f, "{}[{}]", self.program.globals[g.0 as usize].name, i)?;
            }
            PathRoot::FocusLocal(l) => write!(f, "local{}", l.0)?,
            PathRoot::Register => write!(f, "reg")?,
        }
        for s in &self.path.steps {
            write!(f, "->[{s}]")?;
        }
        Ok(())
    }
}

/// The comparable value at the end of a reference path.
///
/// Integers compare by value; pointers compare by null-ness only (their
/// object identity is captured by the path structure itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathValue {
    /// A primitive integer.
    Int(i64),
    /// A pointer; `true` when null.
    PtrNull(bool),
}

impl PathValue {
    pub(crate) fn of(v: Value) -> PathValue {
        match v {
            Value::Int(i) => PathValue::Int(i),
            Value::Ptr(p) => PathValue::PtrNull(p.is_none()),
        }
    }
}

/// Traversal limits: maximum pointer-chain depth and maximum number of
/// paths enumerated (aliasing can blow up combinatorially; the paper's
/// GC-style traversal has the same bound implicitly through memory size).
#[derive(Debug, Clone, Copy)]
pub struct TraverseLimits {
    /// Maximum number of heap hops.
    pub max_depth: usize,
    /// Maximum number of paths produced.
    pub max_paths: usize,
}

impl Default for TraverseLimits {
    fn default() -> Self {
        TraverseLimits {
            max_depth: 24,
            max_paths: 500_000,
        }
    }
}

/// The variable map of one dump: every reachable primitive-or-pointer slot
/// keyed by its reference path. `BTreeMap` keeps iteration deterministic.
pub type VarMap = BTreeMap<RefPath, PathValue>;

/// Enumerates every variable reachable from the dump's roots (globals,
/// the focus thread's current frame locals, registers), following
/// pointers through the heap, Boehm-style.
pub fn reachable_vars(dump: &CoreDump, limits: TraverseLimits) -> VarMap {
    let mut out = VarMap::new();
    let visit = |root: PathRoot, v: Value, out: &mut VarMap| {
        descend(dump, RefPath::root(root), v, limits, &mut Vec::new(), out);
    };

    for (gi, slot) in dump.globals.iter().enumerate() {
        let g = GlobalId(gi as u32);
        match slot {
            GSlot::Scalar(v) => visit(PathRoot::Global(g), *v, &mut out),
            GSlot::Array(slots) => {
                for (i, v) in slots.iter().enumerate() {
                    visit(PathRoot::GlobalElem(g, i as u32), *v, &mut out);
                }
            }
        }
    }
    if let Some(frame) = dump.focus_thread().top() {
        for (li, v) in frame.locals.iter().enumerate() {
            visit(PathRoot::FocusLocal(LocalId(li as u32)), *v, &mut out);
        }
    }
    visit(PathRoot::Register, dump.focus_thread().last_value, &mut out);
    out
}

fn descend(
    dump: &CoreDump,
    path: RefPath,
    v: Value,
    limits: TraverseLimits,
    on_path: &mut Vec<ObjId>,
    out: &mut VarMap,
) {
    if out.len() >= limits.max_paths {
        return;
    }
    out.insert(path.clone(), PathValue::of(v));
    let Value::Ptr(Some(obj)) = v else { return };
    if on_path.contains(&obj) || on_path.len() >= limits.max_depth {
        return; // cycle along this path, or too deep
    }
    let Some(slots) = dump.heap.get(obj.0 as usize).and_then(|o| o.as_ref()) else {
        return;
    };
    on_path.push(obj);
    for (i, sv) in slots.iter().enumerate() {
        let mut p = path.clone();
        p.steps.push(i as u32);
        descend(dump, p, *sv, limits, on_path, out);
    }
    on_path.pop();
}

/// Resolves a reference path against a dump, returning the heap location
/// it denotes (`None` when the path no longer resolves, e.g. a pointer
/// became null). Used to map CSVs back to concrete locations in the run
/// the dump was taken from.
pub fn resolve_loc(dump: &CoreDump, path: &RefPath) -> Option<ResolvedVar> {
    let mut v = match path.root {
        PathRoot::Global(g) => match dump.globals.get(g.0 as usize)? {
            GSlot::Scalar(v) => *v,
            GSlot::Array(_) => return None,
        },
        PathRoot::GlobalElem(g, i) => match dump.globals.get(g.0 as usize)? {
            GSlot::Array(slots) => *slots.get(i as usize)?,
            GSlot::Scalar(_) => return None,
        },
        PathRoot::FocusLocal(l) => *dump.focus_thread().top()?.locals.get(l.0 as usize)?,
        PathRoot::Register => dump.focus_thread().last_value,
    };
    if path.steps.is_empty() {
        return Some(match path.root {
            PathRoot::Global(g) => ResolvedVar::Global(g),
            PathRoot::GlobalElem(g, i) => ResolvedVar::GlobalElem(g, i),
            PathRoot::FocusLocal(l) => ResolvedVar::FocusLocal(l),
            PathRoot::Register => ResolvedVar::Register,
        });
    }
    let mut loc = None;
    for &step in &path.steps {
        let obj = v.as_ptr()??;
        let slots = dump.heap.get(obj.0 as usize)?.as_ref()?;
        v = *slots.get(step as usize)?;
        loc = Some(ResolvedVar::Heap(obj, step));
    }
    loc
}

/// A concrete location a reference path resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResolvedVar {
    /// Global scalar.
    Global(GlobalId),
    /// Global array element.
    GlobalElem(GlobalId, u32),
    /// Heap object slot.
    Heap(ObjId, u32),
    /// Focus-frame local.
    FocusLocal(LocalId),
    /// Focus thread register.
    Register,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dump::{CoreDump, DumpReason};
    use mcr_vm::{run, DeterministicScheduler, NullObserver, ThreadId, Vm};

    fn dump_of(src: &str) -> (mcr_lang::Program, CoreDump) {
        let p = mcr_lang::compile(src).unwrap();
        let mut vm = Vm::new(&p, &[]);
        let mut s = DeterministicScheduler::new();
        run(&mut vm, &mut s, &mut NullObserver, 100_000);
        let focus = vm.failure().map_or(ThreadId(0), |f| f.thread);
        let reason = vm.failure().map_or(DumpReason::Manual, DumpReason::Failure);
        let d = CoreDump::capture(&vm, focus, reason);
        (p, d)
    }

    #[test]
    fn globals_and_heap_reachable() {
        let (p, d) = dump_of(
            "global x: int; global q: ptr; fn main() { x = 5; var p; p = alloc(2); p[0] = 7; q = p; }",
        );
        let vars = reachable_vars(&d, TraverseLimits::default());
        let x = p.global_by_name("x").unwrap();
        assert_eq!(
            vars.get(&RefPath::root(PathRoot::Global(x))),
            Some(&PathValue::Int(5))
        );
        // q -> [0] holds 7.
        let q = p.global_by_name("q").unwrap();
        let path = RefPath {
            root: PathRoot::Global(q),
            steps: vec![0],
        };
        assert_eq!(vars.get(&path), Some(&PathValue::Int(7)));
        assert!(path.is_shared());
    }

    #[test]
    fn cycles_terminate() {
        let (_p, d) = dump_of(
            "global q: ptr; fn main() { var a; var b; a = alloc(1); b = alloc(1); a[0] = b; b[0] = a; q = a; }",
        );
        let vars = reachable_vars(&d, TraverseLimits::default());
        // Path q, q->[0], q->[0]->[0] exist, the cycle stops there.
        assert!(vars.len() < 20, "cycle not bounded: {}", vars.len());
    }

    #[test]
    fn focus_locals_are_roots_but_not_shared() {
        let (_p, d) = dump_of("fn main() { var v; v = 9; assert(v == 0); }");
        // Crashes inside main, so main's locals are visible.
        let vars = reachable_vars(&d, TraverseLimits::default());
        let local = RefPath::root(PathRoot::FocusLocal(LocalId(0)));
        assert_eq!(vars.get(&local), Some(&PathValue::Int(9)));
        assert!(!local.is_shared());
    }

    #[test]
    fn aliasing_yields_multiple_paths() {
        let (_p, d) = dump_of(
            "global q1: ptr; global q2: ptr; fn main() { var a; a = alloc(1); a[0] = 3; q1 = a; q2 = a; }",
        );
        let vars = reachable_vars(&d, TraverseLimits::default());
        // Count only globally rooted paths (the register may hold a third
        // alias of the same object).
        let hits = vars
            .iter()
            .filter(|(p, v)| p.is_shared() && !p.steps.is_empty() && **v == PathValue::Int(3))
            .count();
        assert_eq!(hits, 2, "aliased object is two variables");
    }

    #[test]
    fn resolve_loc_follows_pointers() {
        let (p, d) = dump_of("global q: ptr; fn main() { var a; a = alloc(2); a[1] = 4; q = a; }");
        let q = p.global_by_name("q").unwrap();
        let path = RefPath {
            root: PathRoot::Global(q),
            steps: vec![1],
        };
        match resolve_loc(&d, &path) {
            Some(ResolvedVar::Heap(_, 1)) => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(
            resolve_loc(&d, &RefPath::root(PathRoot::Global(q))),
            Some(ResolvedVar::Global(q))
        );
    }

    #[test]
    fn display_uses_names() {
        let (p, _d) = dump_of("global cache: ptr; fn main() { }");
        let g = p.global_by_name("cache").unwrap();
        let path = RefPath {
            root: PathRoot::Global(g),
            steps: vec![2, 0],
        };
        assert_eq!(path.display(&p).to_string(), "cache->[2]->[0]");
    }
}
