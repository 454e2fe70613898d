//! # mcr-core — core-dump-driven concurrency bug reproduction
//!
//! The end-to-end implementation of *Analyzing Multicore Dumps to
//! Facilitate Concurrency Bug Reproduction* (ASPLOS 2010): given a
//! failure core dump from an uncontrolled multicore-style run and the
//! failing input, the pipeline reverse-engineers the failure's execution
//! index, locates the aligned point in a deterministic re-execution,
//! compares core dumps to find the critical shared variables,
//! prioritizes their accesses, and runs a directed CHESS-style search
//! that emits a failure-inducing schedule.
//!
//! Two entry points drive it:
//!
//! * [`Reproducer::reproduce`] — one blocking call, dump in, report out;
//! * [`ReproSession`] — the same pipeline as a staged, resumable state
//!   machine whose phases produce serializable artifacts, with progress
//!   observation ([`PhaseObserver`]), cancellation
//!   ([`CancelToken`]), per-phase budgets ([`PhaseBudget`]), and
//!   checkpoint/resume across processes.
//!
//! The five phases are implementations of the generic [`PipelinePhase`]
//! trait and the session is a thin driver over them; each phase unit is
//! identified by a content-addressed [`PhaseKey`], so attaching an
//! [`ArtifactStore`] (e.g. an in-memory [`MemoryStore`] LRU or a
//! persistable [`BytesStore`]) makes sessions skip any phase whose key
//! was already computed — by themselves, by an earlier run, or by
//! another session of a batch fleet (see the `mcr-batch` crate).
//!
//! ```no_run
//! use mcr_core::{find_failure, ReproOptions, Reproducer};
//!
//! let program = mcr_lang::compile(r#"
//!     global x: int;
//!     lock l;
//!     fn t1() { acquire l; x = 1; release l; assert(x == 1); }
//!     fn t2() { x = 0; }
//!     fn main() { spawn t1(); spawn t2(); }
//! "#)?;
//! let input: Vec<i64> = vec![];
//! // 1. Stress until the Heisenbug produces a failure core dump.
//! let failure = mcr_core::find_failure(&program, &input, 0..1_000_000, 1_000_000)
//!     .expect("bug exposed");
//! // 2-6. Reverse-engineer, align, diff, prioritize, search.
//! let reproducer = Reproducer::new(&program, ReproOptions::default());
//! let report = reproducer.reproduce(&failure.dump, &input).unwrap();
//! assert!(report.search.reproduced);
//! # Ok::<(), mcr_lang::LangError>(())
//! ```
//!
//! The staged form of the same run, checkpointing to bytes mid-pipeline
//! and resuming in what could be a different process:
//!
//! ```no_run
//! use mcr_core::{ReproOptions, ReproSession};
//! # let program = mcr_lang::compile("fn main() { }").unwrap();
//! # let dump = unimplemented!();
//! # let input: Vec<i64> = vec![];
//! let mut session = ReproSession::new(&program, dump, &input, ReproOptions::default())?;
//! session.run_diff()?;                       // index + align + diff
//! let bytes = session.checkpoint();          // store / ship
//! let mut restored = ReproSession::resume(&program, &bytes)?;
//! let report = restored.run_to_end()?;       // rank + search
//! # Ok::<(), mcr_core::ReproError>(())
//! ```
//!
//! (See the repository `examples/` for complete, runnable walkthroughs.)

#![warn(missing_docs)]

pub mod artifact;
pub mod observe;
pub mod phase;
pub mod pipeline;
pub mod session;
pub mod store;
pub mod stress;

pub use artifact::{
    AlignmentArtifact, DumpDeltaArtifact, FailureIndexArtifact, RankedAccessesArtifact,
    SearchArtifact,
};
pub use observe::{NullPhaseObserver, Phase, PhaseEvent, PhaseObserver, TimingLog, PHASES};
pub use phase::{AlignPhase, DiffPhase, IndexPhase, PipelinePhase, RankPhase, SearchPhase};
pub use pipeline::{
    has_sync_points, AlignMode, PhaseBudget, PhaseBudgets, ReproError, ReproOptions,
    ReproOptionsBuilder, ReproReport, ReproTimings, Reproducer,
};
pub use session::ReproSession;
pub use store::{
    measured_frame_size, program_fingerprint, ArtifactStore, BytesStore, MemoryStore, NullStore,
    PhaseKey, PhaseStats, SegAccessStats, SegStore, ShardedStore, StoreStats, SEG_STORE_FRAME_SIZE,
};
pub use stress::{
    find_failure, find_failure_cfg, find_failure_par, find_failure_par_cancellable,
    find_failure_par_cfg, find_failure_pool, passes_deterministically,
    passes_deterministically_cfg, RunConfig, StressFailure,
};

// Cancellation lives in `mcr-search` (its budget polls the token inside
// the hot search loop) but is part of the session API surface.
pub use mcr_search::CancelToken;
