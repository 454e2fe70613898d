//! # mcr-lang — MiniCC: the concurrent program substrate
//!
//! The paper analyzes compiled C programs (mysql, apache, splash-2). This
//! crate provides the equivalent substrate for the reproduction: **MiniCC**,
//! a small C-like concurrent language with threads, locks, pointers, global
//! and heap state, and — crucially — every control-flow construct the
//! paper's dump analysis distinguishes:
//!
//! * plain conditionals → statements with a *single* control dependence,
//! * short-circuit `&&`/`||` conditions → *multiple control dependences
//!   aggregatable to one* (paper Fig. 5b),
//! * `goto` → *non-aggregatable multiple control dependences* (paper
//!   Fig. 6),
//! * `while`/`for` → *loop predicates*, instrumented with the paper's
//!   loop counters (`while`) or carrying natural counters (`for`).
//!
//! The crate exposes three layers:
//!
//! 1. [`ast`] + [`parse`] — surface syntax,
//! 2. [`lower`](mod@lower) — lowering to the statement-level [`ir`],
//! 3. [`compile`] — the convenience "source text in, [`Program`] out" entry
//!    point used by workloads and tests.
//!
//! # Examples
//!
//! ```
//! // The paper's Fig. 1 running example, in MiniCC.
//! let src = r#"
//!     global x: int;
//!     global a: [int; 2];
//!     lock l;
//!     fn F(p) { p[0] = 1; }
//!     fn T1() {
//!         var i; var p;
//!         for (i = 0; i < 2; i = i + 1) {
//!             x = 0;
//!             p = alloc(2);
//!             acquire l;
//!             if (a[i] > 0) { x = 1; p = null; }
//!             release l;
//!             if (!x) { F(p); }
//!         }
//!     }
//!     fn T2() { x = 0; }
//!     fn main() { spawn T1(); spawn T2(); }
//! "#;
//! let program = mcr_lang::compile(src)?;
//! assert_eq!(program.funcs.len(), 4);
//! assert!(program.validate().is_ok());
//! # Ok::<(), mcr_lang::LangError>(())
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod error;
pub mod fingerprint;
pub mod hash;
pub mod ir;
pub mod lexer;
pub mod lower;
pub mod parser;

pub use error::LangError;
pub use fingerprint::program_fingerprint;
pub use ir::{
    BinOp, CondGroup, CondGroupId, Expr, FuncId, Function, GlobalDecl, GlobalId, GlobalKind, Inst,
    LocalId, LockId, LoopId, LoopInfo, Pc, Place, Program, StmtId, UnOp,
};
pub use parser::parse;

/// Compiles MiniCC source text straight to IR.
///
/// # Errors
///
/// Returns [`LangError`] for lexical, syntax, or lowering problems.
///
/// # Examples
///
/// ```
/// let p = mcr_lang::compile("global x: int; fn main() { x = 41 + 1; }")?;
/// assert_eq!(p.stmt_count(), 2); // the assignment + implicit return
/// # Ok::<(), mcr_lang::LangError>(())
/// ```
pub fn compile(src: &str) -> Result<Program, LangError> {
    lower::lower(&parser::parse(src)?)
}

#[cfg(test)]
mod tests {
    #[test]
    fn compile_end_to_end() {
        let p = super::compile("global x: int; fn main() { x = 1; }").unwrap();
        assert!(p.validate().is_ok());
    }
}
