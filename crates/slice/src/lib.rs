//! # mcr-slice — dynamic slicing for CSV-access prioritization
//!
//! Implements the paper's dependence-distance heuristic (§4): a
//! [`TraceCollector`] records a windowed dynamic dependence trace of the
//! passing run (the role Valgrind plays in the paper); [`backward_slice`]
//! computes the backward dynamic slice from the aligned point's
//! criterion variables; [`csv_accesses`] projects the sliced trace onto
//! the accesses to the critical shared variables, so the trace can be
//! dropped, and [`rank_accesses`] assigns those accesses the priority
//! superscripts of the paper's Fig. 9 under either the temporal or the
//! dependence strategy.
//!
//! The collector serves the dependence strategy. The temporal strategy
//! ranks by closeness to the aligned point alone, so the pipeline builds
//! its [`CsvAccess`] projection from the passing run's shared-access log
//! and collects no trace.
//!
//! # Examples
//!
//! ```
//! use mcr_analysis::ProgramAnalysis;
//! use mcr_slice::{backward_slice, TraceCollector};
//! use mcr_vm::{run, DeterministicScheduler, Vm};
//!
//! let program = mcr_lang::compile(
//!     "global x: int; global y: int; fn main() { x = 2; y = x + 1; }",
//! )?;
//! let analysis = ProgramAnalysis::analyze(&program);
//! let mut vm = Vm::new(&program, &[]);
//! let mut tc = TraceCollector::new(&analysis, 100_000);
//! run(&mut vm, &mut DeterministicScheduler::new(), &mut tc, 100_000);
//! let trace = tc.finish();
//! let criterion = trace.last().unwrap().serial;
//! let slice = backward_slice(&trace, &[criterion]);
//! assert!(slice.contains(criterion));
//! # Ok::<(), mcr_lang::LangError>(())
//! ```

#![warn(missing_docs)]

pub mod slicer;
pub mod trace;

pub use slicer::{
    backward_slice, csv_accesses, rank_accesses, CsvAccess, DynamicSlice, RankedAccess, Strategy,
    PRIORITY_BOTTOM,
};
pub use trace::{Trace, TraceCollector, TraceEvent};
