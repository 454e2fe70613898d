//! Direct-threaded dispatch plans: decode-once compilation of a
//! [`Program`] into a flat table of pre-decoded ops.
//!
//! The legacy interpreter re-decodes every statement on every step — a
//! `match` over [`Inst`] followed by a recursive walk of boxed [`Expr`]
//! trees. With ~70 ns checkpoints and an 18M steps/s core, that decode
//! is the dominant cost of every search try. A [`DispatchPlan`] hoists
//! it out of the hot loop: at session start each statement is compiled
//! once into a small, `Copy` `Op` whose operands are pre-resolved
//! indices (`ops[func_base[f] + stmt]`), and the interpreter's hot
//! arms read their pre-decoded operands from that table instead of
//! walking the `Expr` tree. Hot expression shapes are *fused* into
//! superinstructions — `local < k` inside a branch becomes one
//! load+compare+branch op, `x = x + 1` one read-modify-write op — and
//! every other scalar expression is pre-flattened into a postfix token
//! run (`Rhs::Expr`) evaluated on a small value stack, so the common
//! statement executes without touching the IR at all.
//!
//! One invariant bounds the design: **bit-identical runs**. A plan
//! changes how a statement is decoded, never what it does: the
//! observable event stream (reads, writes, branches, sync), failure
//! kinds, step and instruction counts are exactly those of the legacy
//! loop. Fusion therefore never crosses a statement boundary —
//! statements are the observable scheduling unit — and anything without
//! an exact fast path compiles to `Op::Slow`, which falls back to the
//! legacy decoder.

use crate::value::Value;
use mcr_lang::{
    BinOp, Expr, FuncId, GlobalId, Inst, LocalId, LockId, LoopId, Place, Program, StmtId, UnOp,
};

/// Value-stack capacity of the postfix expression evaluator. Expressions
/// deeper than this (never seen in practice — depth grows with
/// right-leaning nesting only) compile to `Op::Slow`.
pub(crate) const EXPR_STACK: usize = 16;

/// A pre-decoded assignable location (the cheap subset of [`Place`]
/// that resolves without evaluation, events, or failure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FastPlace {
    /// A local slot of the current frame.
    Local(LocalId),
    /// A scalar global.
    Global(GlobalId),
}

/// A pre-decoded right-hand side: the flattened expression shapes the
/// compiler recognizes. `LocalBin`/`GlobalBin` are the fused
/// superinstruction operands (one load + one binary op against an
/// immediate, the paper workloads' hottest expression shape); `Expr`
/// points at a pre-flattened postfix token run in the plan's side table
/// for every other scalar expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rhs {
    /// An immediate (integer literal or `null`).
    Const(Value),
    /// A local read.
    Local(LocalId),
    /// A scalar-global read.
    Global(GlobalId),
    /// Fused `local <op> k`.
    LocalBin(LocalId, BinOp, i64),
    /// Fused `global <op> k`.
    GlobalBin(GlobalId, BinOp, i64),
    /// A pre-flattened postfix expression ([`DispatchPlan::expr`]).
    Expr(u32),
}

/// One token of a pre-flattened postfix expression. Evaluation runs the
/// tokens left to right over a small value stack — exactly the order
/// (and therefore exactly the read-event stream and first-failure
/// behavior) of the legacy recursive evaluator, which is eager and
/// left-to-right for every operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tok {
    /// Push an immediate.
    Const(Value),
    /// Push a local (emits the read).
    Local(LocalId),
    /// Push a scalar global (emits the read).
    Global(GlobalId),
    /// Apply a unary operator to the top of stack.
    Un(UnOp),
    /// Apply a binary operator to the top two values.
    Bin(BinOp),
}

/// One pre-decoded op. `Copy`, so the step loop lifts it out of the
/// table by value and dispatches without borrowing the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// `dst = src` over pre-resolved operands (includes the fused
    /// read-modify-write superinstruction when `src` is `*Bin`).
    Assign {
        /// Pre-resolved destination.
        dst: FastPlace,
        /// Pre-decoded source.
        src: Rhs,
    },
    /// Conditional branch over a pre-decoded condition (includes the
    /// fused load+compare+branch superinstruction).
    Branch {
        /// Pre-decoded condition.
        cond: Rhs,
        /// Target when true.
        then_to: StmtId,
        /// Target when false.
        else_to: StmtId,
    },
    /// Unconditional jump.
    Jump {
        /// Target statement.
        to: StmtId,
    },
    /// Lock acquire (operand pre-resolved; blocking is the scheduler's
    /// concern, exactly as in the legacy loop).
    Acquire {
        /// The lock.
        lock: LockId,
    },
    /// Lock release.
    Release {
        /// The lock.
        lock: LockId,
    },
    /// Synthetic loop-counter reset.
    LoopEnter {
        /// The loop.
        loop_id: LoopId,
    },
    /// Synthetic loop-counter increment.
    LoopIter {
        /// The loop.
        loop_id: LoopId,
    },
    /// No operation.
    Nop,
    /// No fast path: dispatch through the legacy `Inst` decoder.
    Slow,
}

/// Aggregate shape of a compiled plan, for benchmarks and reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanStats {
    /// Total ops in the table (one per statement).
    pub ops: usize,
    /// Ops carrying a fused superinstruction operand.
    pub fused: usize,
    /// Ops that fall back to the legacy decoder.
    pub slow: usize,
}

/// A compiled dispatch plan for one [`Program`]: a flat table of
/// pre-decoded `Op`s, indexed by `func_base[func] + stmt`.
///
/// Build one with [`DispatchPlan::compile`] and attach it to a VM with
/// [`Vm::set_plan`](crate::Vm::set_plan); the plan is immutable and is
/// shared between checkpoints (and across sessions) behind an `Arc`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchPlan {
    /// Flat op table, all functions concatenated.
    ops: Vec<Op>,
    /// Start offset of each function's ops; `funcs.len() + 1` entries
    /// (the last is the total op count).
    func_base: Vec<u32>,
    /// Postfix token runs referenced by `Rhs::Expr`.
    exprs: Vec<Box<[Tok]>>,
}

impl DispatchPlan {
    /// Compiles `program` into a dispatch plan. Infallible: statements
    /// without a fast path compile to `Op::Slow`.
    pub fn compile(program: &Program) -> DispatchPlan {
        let mut ops = Vec::with_capacity(program.funcs.iter().map(|f| f.body.len()).sum());
        let mut func_base = Vec::with_capacity(program.funcs.len() + 1);
        let mut exprs = Vec::new();
        for func in &program.funcs {
            func_base.push(ops.len() as u32);
            ops.extend(func.body.iter().map(|inst| compile_inst(inst, &mut exprs)));
        }
        func_base.push(ops.len() as u32);
        DispatchPlan {
            ops,
            func_base,
            exprs,
        }
    }

    /// The pre-decoded op at `(func, stmt)`; out-of-range lookups are
    /// `Op::Slow` (defensive — a matching plan never goes out of
    /// range).
    #[inline]
    pub(crate) fn op(&self, func: FuncId, stmt: StmtId) -> Op {
        let f = func.0 as usize;
        let Some(&base) = self.func_base.get(f) else {
            return Op::Slow;
        };
        let end = self.func_base[f + 1];
        let i = base as usize + stmt.0 as usize;
        if i < end as usize {
            self.ops[i]
        } else {
            Op::Slow
        }
    }

    /// The postfix token run behind an `Rhs::Expr` operand.
    #[inline]
    pub(crate) fn expr(&self, idx: u32) -> &[Tok] {
        &self.exprs[idx as usize]
    }

    /// Whether this plan's shape matches `program`: same function count
    /// and per-function statement counts (a plan compiled for another
    /// program must never be attached).
    pub fn matches(&self, program: &Program) -> bool {
        self.func_base.len() == program.funcs.len() + 1
            && program
                .funcs
                .iter()
                .enumerate()
                .all(|(i, f)| (self.func_base[i + 1] - self.func_base[i]) as usize == f.body.len())
    }

    /// Table shape summary (superinstruction and fallback counts).
    pub fn stats(&self) -> PlanStats {
        let mut stats = PlanStats {
            ops: self.ops.len(),
            ..PlanStats::default()
        };
        for op in &self.ops {
            match op {
                Op::Slow => stats.slow += 1,
                Op::Assign {
                    src: Rhs::LocalBin(..) | Rhs::GlobalBin(..),
                    ..
                }
                | Op::Branch {
                    cond: Rhs::LocalBin(..) | Rhs::GlobalBin(..),
                    ..
                } => stats.fused += 1,
                _ => {}
            }
        }
        stats
    }
}

/// Flattens a scalar expression into postfix tokens, returning the peak
/// stack depth; `None` for shapes with their own events or failure
/// modes (array/heap loads), which stay on the legacy path.
fn flatten_expr(e: &Expr, toks: &mut Vec<Tok>) -> Option<usize> {
    Some(match e {
        Expr::Const(v) => {
            toks.push(Tok::Const(Value::Int(*v)));
            1
        }
        Expr::Null => {
            toks.push(Tok::Const(Value::NULL));
            1
        }
        Expr::Local(l) => {
            toks.push(Tok::Local(*l));
            1
        }
        Expr::Global(g) => {
            toks.push(Tok::Global(*g));
            1
        }
        Expr::Unary(op, a) => {
            let d = flatten_expr(a, toks)?;
            toks.push(Tok::Un(*op));
            d
        }
        Expr::Binary(op, a, b) => {
            let da = flatten_expr(a, toks)?;
            let db = flatten_expr(b, toks)?;
            toks.push(Tok::Bin(*op));
            da.max(1 + db)
        }
        _ => return None,
    })
}

fn compile_rhs(e: &Expr, exprs: &mut Vec<Box<[Tok]>>) -> Option<Rhs> {
    match e {
        Expr::Const(v) => Some(Rhs::Const(Value::Int(*v))),
        Expr::Null => Some(Rhs::Const(Value::NULL)),
        Expr::Local(l) => Some(Rhs::Local(*l)),
        Expr::Global(g) => Some(Rhs::Global(*g)),
        Expr::Binary(op, a, b) => match (a.as_ref(), b.as_ref()) {
            (Expr::Local(l), Expr::Const(k)) => Some(Rhs::LocalBin(*l, *op, *k)),
            (Expr::Global(g), Expr::Const(k)) => Some(Rhs::GlobalBin(*g, *op, *k)),
            _ => compile_expr(e, exprs),
        },
        _ => compile_expr(e, exprs),
    }
}

/// Flattens a compound scalar expression into the plan's postfix table.
fn compile_expr(e: &Expr, exprs: &mut Vec<Box<[Tok]>>) -> Option<Rhs> {
    let mut toks = Vec::new();
    let depth = flatten_expr(e, &mut toks)?;
    if depth > EXPR_STACK {
        return None;
    }
    exprs.push(toks.into_boxed_slice());
    Some(Rhs::Expr((exprs.len() - 1) as u32))
}

fn compile_inst(inst: &Inst, exprs: &mut Vec<Box<[Tok]>>) -> Op {
    match inst {
        Inst::Assign { dst, src } => {
            let dst = match dst {
                Place::Local(l) => FastPlace::Local(*l),
                Place::Global(g) => FastPlace::Global(*g),
                _ => return Op::Slow,
            };
            match compile_rhs(src, exprs) {
                Some(src) => Op::Assign { dst, src },
                None => Op::Slow,
            }
        }
        Inst::Branch {
            cond,
            then_to,
            else_to,
            ..
        } => match compile_rhs(cond, exprs) {
            Some(cond) => Op::Branch {
                cond,
                then_to: *then_to,
                else_to: *else_to,
            },
            None => Op::Slow,
        },
        Inst::Jump { to } => Op::Jump { to: *to },
        Inst::Acquire { lock } => Op::Acquire { lock: *lock },
        Inst::Release { lock } => Op::Release { lock: *lock },
        Inst::LoopEnter { loop_id } => Op::LoopEnter { loop_id: *loop_id },
        Inst::LoopIter { loop_id } => Op::LoopIter { loop_id: *loop_id },
        Inst::Nop => Op::Nop,
        // Call/Return/Spawn/Join/Alloc/Assert/Output/Fence mutate frames,
        // evaluate arbitrary expressions, or interact with the memory
        // model; they stay on the legacy path.
        _ => Op::Slow,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOT: &str = r#"
        global x: int;
        global a: [int; 4];
        lock l;
        fn work(n) {
            var i;
            while (i < n) {
                i = i + 1;
                acquire l;
                x = x + 1;
                release l;
                a[i % 4] = i;
            }
        }
        fn main() {
            var t;
            t = spawn work(5);
            work(3);
            join t;
        }
    "#;

    #[test]
    fn compile_covers_hot_shapes() {
        let p = mcr_lang::compile(HOT).unwrap();
        let plan = DispatchPlan::compile(&p);
        let stats = plan.stats();
        assert_eq!(
            stats.ops,
            p.funcs.iter().map(|f| f.body.len()).sum::<usize>()
        );
        assert!(stats.fused > 0, "while header + x = x + 1 must fuse");
        assert!(stats.slow < stats.ops, "fast paths must dominate");
        assert!(plan.matches(&p));
    }

    #[test]
    fn mismatched_program_is_detected() {
        let p = mcr_lang::compile(HOT).unwrap();
        let other = mcr_lang::compile("fn main() { output(1); }").unwrap();
        let plan = DispatchPlan::compile(&p);
        assert!(!plan.matches(&other));
        assert!(DispatchPlan::compile(&other).matches(&other));
    }

    #[test]
    fn out_of_range_lookup_is_slow() {
        let p = mcr_lang::compile("fn main() { }").unwrap();
        let plan = DispatchPlan::compile(&p);
        assert_eq!(plan.op(FuncId(7), StmtId(0)), Op::Slow);
        assert_eq!(plan.op(FuncId(0), StmtId(999)), Op::Slow);
    }
}
