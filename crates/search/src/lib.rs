//! # mcr-search — failure-inducing schedule search
//!
//! The last phase of the paper's pipeline (§5): given the preemption
//! candidates of the passing run and the CSV annotations from the dump
//! comparison, search for a schedule that reproduces the failure.
//!
//! * [`candidates`] — CHESS scheduling points with Fig. 9 annotations,
//! * [`runner`] — `testrun`/`preempt` with checkpointed thread-choice
//!   exploration (VM clones),
//! * [`chess`] — the plain CHESS baseline and the enhanced, weighted,
//!   guided Algorithm 2 ([`Algorithm::ChessX`]),
//! * [`worklist`] — the lazy generator of the combinations a search
//!   tests, in its test order.
//!
//! The unit of cost is a *try*: one completed test execution, matching
//! the "tries" columns of the paper's Table 4.

#![warn(missing_docs)]

pub mod candidates;
pub mod chess;
pub mod runner;
pub mod worklist;

pub use candidates::{
    annotate, annotate_with_race, coarse, AnnotatedCandidate, CandidateKind, CoarseLoc,
    FutureCsvMap, PassingRunInfo, PreemptionPoint, Priorities, SharedAccess, SyncLogger,
};
pub use chess::{find_schedule, Algorithm, SearchConfig, SearchResult};
pub use runner::{Budget, CancelToken, Guidance, TestRun};
pub use worklist::{worklist_size, Combo, Worklist};
