//! # mcr-vm — deterministic concurrent interpreter for MiniCC
//!
//! The execution substrate of the reproduction. One [`Vm`] runs one
//! program; scheduling is external, which lets the same interpreter play
//! all three roles of the paper:
//!
//! 1. the *failing multicore run* — [`StressScheduler`] interleaves
//!    threads randomly at statement granularity from a seed,
//! 2. the *passing single-core run* — [`DeterministicScheduler`] is
//!    non-preemptive and canonical, making re-execution a pure function
//!    of program and input,
//! 3. the *search runs* — the `mcr-search` crate drives [`Vm::step`]
//!    directly, injecting preemptions at synchronization points and
//!    forking checkpoints (the VM is `Clone`).
//!
//! All dynamic analyses (execution indexing, alignment, tracing,
//! candidate enumeration) attach as [`Observer`]s over the event stream.
//!
//! # Examples
//!
//! ```
//! use mcr_vm::{run, DeterministicScheduler, NullObserver, Outcome, Vm};
//!
//! let program = mcr_lang::compile(
//!     "global x: int; fn main() { x = 41 + 1; }",
//! )?;
//! let mut vm = Vm::new(&program, &[]);
//! let mut sched = DeterministicScheduler::new();
//! let outcome = run(&mut vm, &mut sched, &mut NullObserver, 10_000);
//! assert_eq!(outcome, Outcome::Completed);
//! # Ok::<(), mcr_lang::LangError>(())
//! ```

#![warn(missing_docs)]

pub mod event;
pub mod failure;
pub mod memloc;
pub mod memmodel;
pub mod rng;
pub mod sched;
pub mod value;
#[allow(clippy::module_inception)]
pub mod vm;

pub use event::{Event, NullObserver, Observer, Recorder, SyncKind, Tee};
pub use failure::{Failure, FailureKind};
pub use memloc::MemLoc;
pub use memmodel::{
    BufferedStore, FaultKind, FaultSpec, InjectedFault, MemModel, DEFAULT_STORE_BUFFER_CAP,
};
pub use rng::SplitMix64;
pub use sched::{
    run, run_until, DeterministicScheduler, Outcome, Scheduler, StressScheduler, DEFAULT_MAX_STEPS,
};
pub use value::{ObjId, ThreadId, Value};
pub use vm::{Frame, Frames, GSlot, Thread, ThreadState, Vm, MAX_ALLOC, MAX_FRAMES};
