//! # mcr-dump — core dumps: capture, encoding, traversal, comparison
//!
//! The paper's pipeline starts and ends with core dumps: a *failure dump*
//! from the multicore production run and an *aligned dump* from the
//! deterministic re-execution are traversed Boehm-GC-style along
//! **reference paths** and compared; the shared variables whose values
//! differ — the **critical shared variables (CSVs)** — drive the schedule
//! search.
//!
//! * [`CoreDump`] — complete snapshot (registers, stacks with loop
//!   counters, globals, heap, locks),
//! * [`codec`] — stable binary format, so dump sizes and parsing costs
//!   are measurable (Tables 3 and 6),
//! * [`wire`] — the codec's reusable varint primitives, shared with the
//!   phase-artifact formats of `mcr-core`'s resumable sessions, plus the
//!   [`ContentHash`] identity the content-addressed artifact stores key
//!   on,
//! * [`refpath`] — reference paths, the cross-run variable identities,
//!   and [`reachable_vars`], one dump's variables as a map (the
//!   inspection API),
//! * [`DumpDiff`] — comparison and CSV identification (§4): one
//!   depth-first walk over both dumps at once, following each reference
//!   path in both, with no per-dump map.
//!
//! # Examples
//!
//! ```
//! use mcr_dump::{codec, CoreDump, DumpDiff, DumpReason};
//! use mcr_vm::{run, DeterministicScheduler, NullObserver, ThreadId, Vm};
//!
//! let program = mcr_lang::compile("global x: int; fn main() { x = 1; }")?;
//! let mut vm = Vm::new(&program, &[]);
//! run(&mut vm, &mut DeterministicScheduler::new(), &mut NullObserver, 1_000);
//! let dump = CoreDump::capture(&vm, ThreadId(0), DumpReason::Manual);
//! let bytes = mcr_dump::encode(&dump);
//! assert_eq!(mcr_dump::decode(&bytes).unwrap(), dump);
//! assert_eq!(DumpDiff::compare(&dump, &dump).diff_count(), 0);
//! # Ok::<(), mcr_lang::LangError>(())
//! ```

#![warn(missing_docs)]

pub mod codec;
pub mod diff;
#[allow(clippy::module_inception)]
pub mod dump;
pub mod refpath;
pub mod wire;

pub use codec::{decode, encode, DecodeError};
pub use diff::{DumpDiff, ValueDiff};
pub use dump::{CoreDump, DumpReason, FrameImage, ThreadImage};
pub use refpath::{
    reachable_vars, resolve_loc, PathRoot, PathValue, RefPath, ResolvedVar, TraverseLimits, VarMap,
};
pub use wire::{ContentHash, ContentHasher};
