//! Memory-model policy and fault injection — execution-time knobs on the
//! interpreter.
//!
//! The paper's pipeline assumed sequential consistency, which makes a
//! whole family of production heisenbugs (store-buffer reorderings, torn
//! publication, read-own-write-early) unreachable by construction. This
//! module adds the missing policy layer without forking the interpreter:
//!
//! * [`MemModel`] selects between strict SC (the default — bit-identical
//!   to the historical VM) and a TSO-style relaxed mode in which every
//!   thread owns a bounded FIFO *store buffer*. Under TSO, shared writes
//!   enqueue instead of hitting memory ([`crate::Event::StoreBuffered`]),
//!   reads snoop the thread's own buffer first (store-to-load
//!   forwarding), and buffer *drains* are first-class scheduling points
//!   ([`crate::SyncKind::Flush`]) that the CHESS worklist enumerates
//!   exactly like acquires and releases. Fences, lock operations, spawns,
//!   joins, and thread exit force a full drain.
//! * [`FaultSpec`] injects environment failures — a failing allocation or
//!   a lock-acquisition timeout — at a *schedule-independent* point: the
//!   n-th such operation of one thread. Faults are part of the VM
//!   configuration, so a schedule found under fault injection replays
//!   deterministically, and the fault identity travels inside the
//!   [`crate::Failure`] so distinct faults stay distinct bugs.
//!
//! Both knobs are pure supersets: with `MemModel::Sc` and no faults the
//! VM behaves byte-for-byte as before.

use crate::memloc::MemLoc;
use crate::value::{ThreadId, Value};
use mcr_lang::Pc;

/// Default per-thread store-buffer capacity under [`MemModel::Tso`].
///
/// Real store buffers hold a few dozen entries; a small bound keeps the
/// reachable-state blowup tame while still exposing every reordering a
/// deeper buffer would (any TSO anomaly needs only one pending store).
pub const DEFAULT_STORE_BUFFER_CAP: u32 = 8;

/// Which memory consistency model the VM executes under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemModel {
    /// Sequential consistency: every store is globally visible the moment
    /// it executes. The default, and bit-identical to the historical VM.
    #[default]
    Sc,
    /// Total store order: shared stores sit in a per-thread FIFO buffer
    /// (at most `buffer_cap` entries; the oldest entry spills to memory
    /// when a store would overflow it) until a drain point — a fence, a
    /// lock operation, a spawn/join, thread exit, or capacity pressure —
    /// commits them in order. The thread reads its own buffered values
    /// early; other threads see stale memory.
    Tso {
        /// Store-buffer capacity (at least 1; see
        /// [`DEFAULT_STORE_BUFFER_CAP`]).
        buffer_cap: u32,
    },
}

impl MemModel {
    /// TSO with the default buffer capacity.
    pub fn tso() -> MemModel {
        MemModel::Tso {
            buffer_cap: DEFAULT_STORE_BUFFER_CAP,
        }
    }

    /// Whether this is a relaxed (store-buffering) model.
    pub fn is_tso(&self) -> bool {
        matches!(self, MemModel::Tso { .. })
    }

    /// The store-buffer capacity, if the model buffers stores.
    pub fn buffer_cap(&self) -> Option<u32> {
        match self {
            MemModel::Sc => None,
            MemModel::Tso { buffer_cap } => Some((*buffer_cap).max(1)),
        }
    }
}

/// One pending store in a thread's TSO store buffer.
#[derive(Debug, Clone, Copy, PartialEq, Hash)]
pub struct BufferedStore {
    /// The (shared) location the store targets.
    pub loc: MemLoc,
    /// The value waiting to become globally visible.
    pub value: Value,
    /// The statement that issued the store.
    pub pc: Pc,
}

/// The kind of injected environment fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// An allocation request fails: `alloc(..)` yields `null` instead of
    /// a fresh object. Non-fatal — the program sees the null and runs its
    /// recovery path (or crashes dereferencing it later).
    AllocFail,
    /// A lock acquisition that would block times out instead: the blocked
    /// acquirer becomes runnable and crashes with
    /// [`crate::FailureKind::LockTimeout`] at the acquire. Fires only
    /// when the lock is actually held — an uncontended acquire consumes
    /// the ordinal without faulting.
    LockTimeout,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FaultKind::AllocFail => "alloc-fail",
            FaultKind::LockTimeout => "lock-timeout",
        })
    }
}

/// One fault to inject: the `nth` operation of `kind` performed by
/// thread `tid` (0-based, counted per thread).
///
/// Keying on the per-thread ordinal — not a global one — makes the
/// injection point *schedule-independent*: however the threads
/// interleave, "thread 2's first allocation" names the same program
/// point, so a schedule found under fault injection replays exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultSpec {
    /// What to inject.
    pub kind: FaultKind,
    /// The thread whose operation faults.
    pub tid: ThreadId,
    /// Which of its operations (0-based ordinal of allocs for
    /// [`FaultKind::AllocFail`], of acquires for
    /// [`FaultKind::LockTimeout`]).
    pub nth: u32,
}

/// The identity stamp of an injected fault, carried inside a
/// [`crate::Failure`] so two crashes caused by *different* injected
/// faults never collapse into one bug.
///
/// The thread id is deliberately omitted (thread numbering can differ
/// between a stress run and a replay, exactly as
/// [`crate::Failure::same_bug`] already assumes); the per-thread ordinal
/// plus kind plus crash pc is identity enough.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InjectedFault {
    /// What was injected.
    pub kind: FaultKind,
    /// The per-thread ordinal the injection matched.
    pub nth: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sc_is_default_and_unbuffered() {
        assert_eq!(MemModel::default(), MemModel::Sc);
        assert!(!MemModel::Sc.is_tso());
        assert_eq!(MemModel::Sc.buffer_cap(), None);
    }

    #[test]
    fn tso_cap_is_clamped_to_one() {
        assert_eq!(MemModel::tso().buffer_cap(), Some(DEFAULT_STORE_BUFFER_CAP));
        assert_eq!(MemModel::Tso { buffer_cap: 0 }.buffer_cap(), Some(1));
        assert!(MemModel::tso().is_tso());
    }

    #[test]
    fn fault_kinds_display() {
        assert_eq!(FaultKind::AllocFail.to_string(), "alloc-fail");
        assert_eq!(FaultKind::LockTimeout.to_string(), "lock-timeout");
    }
}
