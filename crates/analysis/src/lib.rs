//! # mcr-analysis — static control-flow analysis for dump reverse engineering
//!
//! This crate supplies the static facts the paper's core-dump analysis
//! consumes (§3.2):
//!
//! * per-function control-flow graphs and immediate post-dominators
//!   ([`mod@cfg`]),
//! * Ferrante–Ottenstein–Warren control dependences, aggregation of
//!   short-circuit predicate clusters, the closest-common-ancestor fallback
//!   for non-aggregatable dependences, and transitive control-dependence
//!   queries ([`cd`]),
//! * the per-statement classification census of the paper's Table 1
//!   ([`census`]).
//!
//! # Examples
//!
//! ```
//! use mcr_analysis::ProgramAnalysis;
//!
//! let program = mcr_lang::compile(
//!     "global x: int; fn main() { if (x > 0) { x = 1; } }",
//! )?;
//! let analysis = ProgramAnalysis::analyze(&program);
//! let census = analysis.census(&program);
//! assert_eq!(census.total, program.stmt_count());
//! # Ok::<(), mcr_lang::LangError>(())
//! ```

#![warn(missing_docs)]

pub mod cd;
pub mod census;
pub mod cfg;
pub mod race;

pub use cd::{CdClass, FuncAnalysis, ParentStep, PredEvent, PredKey};
pub use census::CdCensus;
pub use cfg::Cfg;
pub use race::{
    AccessSite, AccessTarget, ContendedLock, FuncRaceSummary, RaceAnalysis, RaceFinding,
    RaceReport, RaceVerdict, RaceVerdicts,
};

use mcr_lang::{FuncId, Program};

/// Static analysis results for every function of a program.
#[derive(Debug, Clone)]
pub struct ProgramAnalysis {
    funcs: Vec<FuncAnalysis>,
}

impl ProgramAnalysis {
    /// Analyzes every function of `program`.
    pub fn analyze(program: &Program) -> ProgramAnalysis {
        ProgramAnalysis {
            funcs: program.funcs.iter().map(FuncAnalysis::new).collect(),
        }
    }

    /// Analysis of one function.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of bounds for the analyzed program.
    pub fn func(&self, f: FuncId) -> &FuncAnalysis {
        &self.funcs[f.0 as usize]
    }

    /// All per-function analyses, indexed by [`FuncId`].
    pub fn funcs(&self) -> &[FuncAnalysis] {
        &self.funcs
    }

    /// Runs the Table 1 census over the whole program.
    pub fn census(&self, program: &Program) -> CdCensus {
        CdCensus::of_program(program, &self.funcs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_whole_program() {
        let p = mcr_lang::compile("global x: int; fn helper() { x = 1; } fn main() { helper(); }")
            .unwrap();
        let a = ProgramAnalysis::analyze(&p);
        assert_eq!(a.funcs().len(), 2);
        assert_eq!(a.census(&p).total, p.stmt_count());
    }
}
