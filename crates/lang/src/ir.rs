//! Statement-level intermediate representation.
//!
//! Every analysis in this project — control dependence, execution indexing,
//! dump reverse engineering — is defined over *statements*, exactly as in the
//! paper. The IR therefore keeps one [`Inst`] per source statement (plus a
//! small number of synthetic loop-counter instructions, see
//! [`Inst::LoopEnter`] / [`Inst::LoopIter`]), with explicit intra-procedural
//! control flow via statement indices.
//!
//! A [`Program`] is a closed compilation unit: globals, locks and functions.
//! Pointers refer to heap objects allocated with [`Inst::Alloc`]; `null` is a
//! first-class value whose dereference is the canonical crash of the paper's
//! running example (Fig. 1).

use std::fmt;

/// Identifies a function within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub u32);

/// Identifies a statement within a [`Function`] body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StmtId(pub u32);

/// Identifies a global variable slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalId(pub u32);

/// Identifies a local variable slot within the current frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LocalId(pub u32);

/// Identifies a statically declared lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockId(pub u32);

/// Identifies a loop within a function; doubles as the index of the loop's
/// counter slot in a stack frame (the paper's loop-counter instrumentation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LoopId(pub u32);

/// Identifies a short-circuit condition group: the set of branch statements
/// that were lowered from one source-level `&&`/`||` condition. The paper
/// (§3.2, Fig. 5b) aggregates such predicates into a single "complex
/// predicate" index node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CondGroupId(pub u32);

/// A program counter: function plus statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pc {
    /// The function containing the statement.
    pub func: FuncId,
    /// The statement within that function.
    pub stmt: StmtId,
}

impl Pc {
    /// Builds a program counter from raw indices.
    pub fn new(func: FuncId, stmt: StmtId) -> Self {
        Pc { func, stmt }
    }
}

impl fmt::Display for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}:{}", self.func.0, self.stmt.0)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not (0 becomes 1, everything else 0; null is falsy).
    Not,
}

/// Binary operators. `And`/`Or` here are *eager* (both operands evaluated);
/// source-level `&&`/`||` inside `if`/`assert` conditions are lowered to
/// short-circuit branch chains instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // operator/keyword names are self-describing
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

/// A side-effect-free expression.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Expr {
    /// Integer literal.
    Const(i64),
    /// The null pointer.
    Null,
    /// Read of a local slot.
    Local(LocalId),
    /// Read of a scalar global.
    Global(GlobalId),
    /// Read of an element of a global array.
    GlobalElem(GlobalId, Box<Expr>),
    /// Read through a pointer: `ptr[idx]`. Crashes on null or out-of-bounds.
    HeapLoad {
        /// Expression evaluating to a pointer.
        ptr: Box<Expr>,
        /// Field / element index.
        idx: Box<Expr>,
    },
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Eager binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Convenience constructor for a binary operation.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary(op, Box::new(lhs), Box::new(rhs))
    }

    /// Convenience constructor for a unary operation.
    pub fn un(op: UnOp, e: Expr) -> Expr {
        Expr::Unary(op, Box::new(e))
    }
}

/// An assignable location.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Place {
    /// A local slot.
    Local(LocalId),
    /// A scalar global.
    Global(GlobalId),
    /// An element of a global array.
    GlobalElem(GlobalId, Expr),
    /// A store through a pointer: `ptr[idx] = ...`.
    HeapStore {
        /// Expression evaluating to a pointer.
        ptr: Expr,
        /// Field / element index.
        idx: Expr,
    },
}

/// One statement of the IR.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Inst {
    /// `dst = src`.
    Assign {
        /// Destination location.
        dst: Place,
        /// Source expression.
        src: Expr,
    },
    /// A two-way conditional branch; the only predicate statement kind.
    Branch {
        /// Condition; nonzero / non-null is true.
        cond: Expr,
        /// Target when true.
        then_to: StmtId,
        /// Target when false.
        else_to: StmtId,
        /// `Some` when this branch is a loop header.
        loop_header: Option<LoopId>,
        /// `Some` when this branch belongs to a short-circuit group.
        cond_group: Option<CondGroupId>,
    },
    /// Unconditional jump (`goto`, `break`, `continue`, loop back edges).
    Jump {
        /// Target statement.
        to: StmtId,
    },
    /// Direct call.
    Call {
        /// Callee.
        callee: FuncId,
        /// Actual arguments.
        args: Vec<Expr>,
        /// Where to store the return value, if any.
        dst: Option<Place>,
    },
    /// Return from the current function.
    Return {
        /// Optional return value.
        value: Option<Expr>,
    },
    /// Acquire a lock; blocks while held by another thread.
    Acquire {
        /// The lock.
        lock: LockId,
    },
    /// Release a lock; fails the run if not held by this thread.
    Release {
        /// The lock.
        lock: LockId,
    },
    /// Spawn a new thread running `callee(args)`; stores the thread id.
    Spawn {
        /// Thread entry function.
        callee: FuncId,
        /// Arguments passed to the entry function.
        args: Vec<Expr>,
        /// Where to store the spawned thread id, if anywhere.
        dst: Option<Place>,
    },
    /// Block until the given thread id terminates.
    Join {
        /// Expression evaluating to a thread id.
        thread: Expr,
    },
    /// Allocate a heap object with `len` zero-initialized slots.
    Alloc {
        /// Destination for the fresh pointer.
        dst: Place,
        /// Number of slots.
        len: Expr,
    },
    /// Crash the run if the condition is false.
    Assert {
        /// Condition that must hold.
        cond: Expr,
    },
    /// Append a value to the run's observable output.
    Output {
        /// Value to emit.
        value: Expr,
    },
    /// Synthetic: reset the loop counter for `loop_id` (loop pre-header).
    LoopEnter {
        /// The loop whose counter is reset.
        loop_id: LoopId,
    },
    /// Synthetic: increment the loop counter for `loop_id` (top of body).
    LoopIter {
        /// The loop whose counter is bumped.
        loop_id: LoopId,
    },
    /// No operation (labels, empty statements).
    Nop,
    /// Full memory fence: drains the executing thread's store buffer
    /// under a relaxed memory model and acts as a scheduling point in
    /// every model. A no-op for memory under sequential consistency.
    Fence,
}

impl Inst {
    /// True for the synthetic loop-counter instructions inserted by the
    /// instrumentation pass; these are excluded from the Table 1 census.
    pub fn is_synthetic(&self) -> bool {
        matches!(self, Inst::LoopEnter { .. } | Inst::LoopIter { .. })
    }

    /// True for predicate statements (the only branching kind).
    pub fn is_branch(&self) -> bool {
        matches!(self, Inst::Branch { .. })
    }

    /// True for synchronization operations that act as CHESS scheduling
    /// points: acquire, release, spawn, join, fence.
    pub fn is_sync(&self) -> bool {
        matches!(
            self,
            Inst::Acquire { .. }
                | Inst::Release { .. }
                | Inst::Spawn { .. }
                | Inst::Join { .. }
                | Inst::Fence
        )
    }
}

/// Metadata about one loop in a function.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct LoopInfo {
    /// The header branch statement.
    pub header: StmtId,
    /// Whether the loop carries a natural counter (source-level `for`): the
    /// paper observes such loops need no extra instrumentation, which is why
    /// splash-2 shows lower overhead than apache/mysql (Fig. 10). Natural
    /// counters cost zero extra instructions.
    pub natural: bool,
}

/// Shape of one short-circuit condition group after lowering.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct CondGroup {
    /// Branch statements belonging to the group, in evaluation order; the
    /// first member is the entry ("root") predicate.
    pub members: Vec<StmtId>,
    /// For each (member, outcome) edge: `None` when the edge stays inside
    /// the group (continues evaluating the condition), `Some(side)` when it
    /// resolves the whole complex predicate to `side`.
    pub edge_sides: Vec<((StmtId, bool), Option<bool>)>,
}

impl CondGroup {
    /// Looks up how an executed member edge relates to the group.
    ///
    /// Returns `None` for internal edges (condition still being evaluated)
    /// and `Some(side)` when the complex predicate resolves.
    pub fn resolve(&self, stmt: StmtId, outcome: bool) -> Option<bool> {
        self.edge_sides
            .iter()
            .find(|((s, b), _)| *s == stmt && *b == outcome)
            .and_then(|(_, side)| *side)
    }

    /// The entry predicate of the group.
    pub fn root(&self) -> StmtId {
        self.members[0]
    }
}

/// A function: a flat statement list with explicit control flow.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Function {
    /// Function name (unique within the program).
    pub name: String,
    /// Number of parameters; parameters occupy locals `0..params`.
    pub params: u32,
    /// Names of all locals (parameters first).
    pub local_names: Vec<String>,
    /// The statement list; execution begins at statement 0 and instructions
    /// without explicit control flow fall through to the next index.
    pub body: Vec<Inst>,
    /// Loop metadata; `LoopId(i)` indexes this vector.
    pub loops: Vec<LoopInfo>,
    /// Short-circuit groups; `CondGroupId(i)` indexes this vector.
    pub cond_groups: Vec<CondGroup>,
    /// Source line of each statement (0 when synthesized).
    pub lines: Vec<u32>,
}

impl Function {
    /// Number of local slots a frame of this function needs.
    pub fn local_count(&self) -> usize {
        self.local_names.len()
    }

    /// The instruction at `stmt`.
    ///
    /// # Panics
    ///
    /// Panics if `stmt` is out of bounds.
    pub fn inst(&self, stmt: StmtId) -> &Inst {
        &self.body[stmt.0 as usize]
    }

    /// Source line of `stmt` (0 if synthesized).
    pub fn line(&self, stmt: StmtId) -> u32 {
        self.lines.get(stmt.0 as usize).copied().unwrap_or(0)
    }

    /// Whether `stmt` is a loop-header branch, and if so which loop.
    pub fn loop_header(&self, stmt: StmtId) -> Option<LoopId> {
        match self.inst(stmt) {
            Inst::Branch { loop_header, .. } => *loop_header,
            _ => None,
        }
    }

    /// Whether `stmt` belongs to a short-circuit group.
    pub fn cond_group(&self, stmt: StmtId) -> Option<CondGroupId> {
        match self.inst(stmt) {
            Inst::Branch { cond_group, .. } => *cond_group,
            _ => None,
        }
    }
}

/// Shape of a global variable.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum GlobalKind {
    /// A single slot, integer-initialized.
    Scalar {
        /// Initial value.
        init: i64,
    },
    /// A fixed-length array of slots, each integer-initialized.
    Array {
        /// Element count.
        len: usize,
        /// Initial value of each element.
        init: i64,
    },
    /// A single slot initialized to `null`, intended to hold pointers.
    Ptr,
}

/// A global variable declaration.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct GlobalDecl {
    /// Name (unique within the program).
    pub name: String,
    /// Shape and initial value.
    pub kind: GlobalKind,
}

/// A complete program.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Program {
    /// Global variables; `GlobalId(i)` indexes this vector.
    pub globals: Vec<GlobalDecl>,
    /// Lock names; `LockId(i)` indexes this vector.
    pub locks: Vec<String>,
    /// Functions; `FuncId(i)` indexes this vector.
    pub funcs: Vec<Function>,
    /// The entry function, run as thread 0.
    pub main: FuncId,
}

impl Program {
    /// The function with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.0 as usize]
    }

    /// Looks up a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// Looks up a global by name.
    pub fn global_by_name(&self, name: &str) -> Option<GlobalId> {
        self.globals
            .iter()
            .position(|g| g.name == name)
            .map(|i| GlobalId(i as u32))
    }

    /// The instruction at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of bounds.
    pub fn inst(&self, pc: Pc) -> &Inst {
        self.func(pc.func).inst(pc.stmt)
    }

    /// Total number of statements across all functions, excluding synthetic
    /// loop-counter instructions. This is the population of the Table 1
    /// census.
    pub fn stmt_count(&self) -> usize {
        self.funcs
            .iter()
            .map(|f| f.body.iter().filter(|i| !i.is_synthetic()).count())
            .sum()
    }

    /// Validates internal consistency: all control-flow targets, ids, and
    /// group/loop references are in bounds. Returns a description of the
    /// first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.main.0 as usize >= self.funcs.len() {
            return Err(format!("main function id {} out of range", self.main.0));
        }
        for (fi, f) in self.funcs.iter().enumerate() {
            let n = f.body.len();
            if f.lines.len() != n {
                return Err(format!("{}: lines/body length mismatch", f.name));
            }
            let check = |s: StmtId, what: &str| -> Result<(), String> {
                if (s.0 as usize) < n {
                    Ok(())
                } else {
                    Err(format!("{}: {} target {} out of range", f.name, what, s.0))
                }
            };
            for (si, inst) in f.body.iter().enumerate() {
                match inst {
                    Inst::Branch {
                        then_to,
                        else_to,
                        loop_header,
                        cond_group,
                        ..
                    } => {
                        check(*then_to, "branch then")?;
                        check(*else_to, "branch else")?;
                        if let Some(l) = loop_header {
                            if l.0 as usize >= f.loops.len() {
                                return Err(format!("{}: loop id {} out of range", f.name, l.0));
                            }
                        }
                        if let Some(g) = cond_group {
                            if g.0 as usize >= f.cond_groups.len() {
                                return Err(format!("{}: cond group {} out of range", f.name, g.0));
                            }
                        }
                    }
                    Inst::Jump { to } => check(*to, "jump")?,
                    Inst::Call { callee, .. } | Inst::Spawn { callee, .. }
                        if callee.0 as usize >= self.funcs.len() =>
                    {
                        return Err(format!(
                            "{}:{}: callee {} out of range",
                            f.name, si, callee.0
                        ));
                    }
                    Inst::Acquire { lock } | Inst::Release { lock }
                        if lock.0 as usize >= self.locks.len() =>
                    {
                        return Err(format!("{}:{}: lock {} out of range", f.name, si, lock.0));
                    }
                    _ => {}
                }
            }
            for (li, l) in f.loops.iter().enumerate() {
                check(l.header, "loop header")?;
                if f.loop_header(l.header) != Some(LoopId(li as u32)) {
                    return Err(format!(
                        "{}: loop {} header {} is not marked as its header",
                        f.name, li, l.header.0
                    ));
                }
            }
            let _ = fi;
        }
        Ok(())
    }
}

/// Human-readable rendering of a function body, one statement per line.
pub fn render_function(program: &Program, func: FuncId) -> String {
    use std::fmt::Write as _;
    let f = program.func(func);
    let mut out = String::new();
    let _ = writeln!(out, "fn {} (params: {})", f.name, f.params);
    for (i, inst) in f.body.iter().enumerate() {
        let _ = writeln!(out, "  {:>4}: {}", i, render_inst(program, f, inst));
    }
    out
}

fn render_place(program: &Program, f: &Function, p: &Place) -> String {
    match p {
        Place::Local(l) => f.local_names[l.0 as usize].clone(),
        Place::Global(g) => program.globals[g.0 as usize].name.clone(),
        Place::GlobalElem(g, e) => format!(
            "{}[{}]",
            program.globals[g.0 as usize].name,
            render_expr(program, f, e)
        ),
        Place::HeapStore { ptr, idx } => format!(
            "{}[{}]",
            render_expr(program, f, ptr),
            render_expr(program, f, idx)
        ),
    }
}

fn render_expr(program: &Program, f: &Function, e: &Expr) -> String {
    match e {
        Expr::Const(v) => v.to_string(),
        Expr::Null => "null".into(),
        Expr::Local(l) => f.local_names[l.0 as usize].clone(),
        Expr::Global(g) => program.globals[g.0 as usize].name.clone(),
        Expr::GlobalElem(g, i) => format!(
            "{}[{}]",
            program.globals[g.0 as usize].name,
            render_expr(program, f, i)
        ),
        Expr::HeapLoad { ptr, idx } => format!(
            "{}[{}]",
            render_expr(program, f, ptr),
            render_expr(program, f, idx)
        ),
        Expr::Unary(op, a) => format!(
            "{}{}",
            match op {
                UnOp::Neg => "-",
                UnOp::Not => "!",
            },
            render_expr(program, f, a)
        ),
        Expr::Binary(op, a, b) => {
            let o = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
                BinOp::Mod => "%",
                BinOp::Eq => "==",
                BinOp::Ne => "!=",
                BinOp::Lt => "<",
                BinOp::Le => "<=",
                BinOp::Gt => ">",
                BinOp::Ge => ">=",
                BinOp::And => "&&",
                BinOp::Or => "||",
            };
            format!(
                "({} {} {})",
                render_expr(program, f, a),
                o,
                render_expr(program, f, b)
            )
        }
    }
}

fn render_inst(program: &Program, f: &Function, inst: &Inst) -> String {
    match inst {
        Inst::Assign { dst, src } => format!(
            "{} = {}",
            render_place(program, f, dst),
            render_expr(program, f, src)
        ),
        Inst::Branch {
            cond,
            then_to,
            else_to,
            loop_header,
            cond_group,
        } => {
            let mut s = format!(
                "if {} goto {} else {}",
                render_expr(program, f, cond),
                then_to.0,
                else_to.0
            );
            if let Some(l) = loop_header {
                s.push_str(&format!("  [loop L{}]", l.0));
            }
            if let Some(g) = cond_group {
                s.push_str(&format!("  [group G{}]", g.0));
            }
            s
        }
        Inst::Jump { to } => format!("goto {}", to.0),
        Inst::Call { callee, args, dst } => {
            let a: Vec<String> = args.iter().map(|e| render_expr(program, f, e)).collect();
            let call = format!("{}({})", program.func(*callee).name, a.join(", "));
            match dst {
                Some(d) => format!("{} = {}", render_place(program, f, d), call),
                None => call,
            }
        }
        Inst::Return { value } => match value {
            Some(v) => format!("return {}", render_expr(program, f, v)),
            None => "return".into(),
        },
        Inst::Acquire { lock } => format!("acquire {}", program.locks[lock.0 as usize]),
        Inst::Release { lock } => format!("release {}", program.locks[lock.0 as usize]),
        Inst::Spawn { callee, args, dst } => {
            let a: Vec<String> = args.iter().map(|e| render_expr(program, f, e)).collect();
            let call = format!("spawn {}({})", program.func(*callee).name, a.join(", "));
            match dst {
                Some(d) => format!("{} = {}", render_place(program, f, d), call),
                None => call,
            }
        }
        Inst::Join { thread } => format!("join {}", render_expr(program, f, thread)),
        Inst::Alloc { dst, len } => format!(
            "{} = alloc({})",
            render_place(program, f, dst),
            render_expr(program, f, len)
        ),
        Inst::Assert { cond } => format!("assert {}", render_expr(program, f, cond)),
        Inst::Output { value } => format!("output {}", render_expr(program, f, value)),
        Inst::LoopEnter { loop_id } => format!("loop_enter L{}", loop_id.0),
        Inst::LoopIter { loop_id } => format!("loop_iter L{}", loop_id.0),
        Inst::Nop => "nop".into(),
        Inst::Fence => "fence".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Program {
        Program {
            globals: vec![GlobalDecl {
                name: "x".into(),
                kind: GlobalKind::Scalar { init: 0 },
            }],
            locks: vec!["l".into()],
            funcs: vec![Function {
                name: "main".into(),
                params: 0,
                local_names: vec![],
                body: vec![
                    Inst::Assign {
                        dst: Place::Global(GlobalId(0)),
                        src: Expr::Const(1),
                    },
                    Inst::Return { value: None },
                ],
                loops: vec![],
                cond_groups: vec![],
                lines: vec![1, 2],
            }],
            main: FuncId(0),
        }
    }

    #[test]
    fn validate_ok() {
        assert!(tiny().validate().is_ok());
    }

    #[test]
    fn validate_catches_bad_jump() {
        let mut p = tiny();
        p.funcs[0].body[1] = Inst::Jump { to: StmtId(99) };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_catches_bad_lock() {
        let mut p = tiny();
        p.funcs[0].body[1] = Inst::Acquire { lock: LockId(7) };
        let err = p.validate().unwrap_err();
        assert!(err.contains("lock"), "{err}");
    }

    #[test]
    fn stmt_count_skips_synthetic() {
        let mut p = tiny();
        p.funcs[0].loops.push(LoopInfo {
            header: StmtId(0),
            natural: false,
        });
        // Not a real loop structure; just checking the census filter.
        p.funcs[0].body.push(Inst::LoopIter { loop_id: LoopId(0) });
        p.funcs[0].lines.push(0);
        assert_eq!(p.stmt_count(), 2);
    }

    #[test]
    fn cond_group_resolution() {
        let g = CondGroup {
            members: vec![StmtId(3), StmtId(4)],
            edge_sides: vec![
                ((StmtId(3), true), Some(true)),
                ((StmtId(3), false), None),
                ((StmtId(4), true), Some(true)),
                ((StmtId(4), false), Some(false)),
            ],
        };
        assert_eq!(g.resolve(StmtId(3), true), Some(true));
        assert_eq!(g.resolve(StmtId(3), false), None);
        assert_eq!(g.resolve(StmtId(4), false), Some(false));
        assert_eq!(g.root(), StmtId(3));
    }

    #[test]
    fn lookup_by_name() {
        let p = tiny();
        assert_eq!(p.func_by_name("main"), Some(FuncId(0)));
        assert_eq!(p.global_by_name("x"), Some(GlobalId(0)));
        assert_eq!(p.func_by_name("nope"), None);
    }

    #[test]
    fn render_smoke() {
        let p = tiny();
        let s = render_function(&p, FuncId(0));
        assert!(s.contains("x = 1"), "{s}");
        assert!(s.contains("return"), "{s}");
    }
}
