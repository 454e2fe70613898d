//! Execution events and the observer interface.
//!
//! The VM emits a fine-grained event stream as it executes. Every consumer
//! of dynamic information in the reproduction pipeline — online execution
//! indexing, aligned-point location, trace collection for slicing, sync
//! point enumeration for the schedule search — is an [`Observer`] over this
//! stream. This mirrors the paper's Valgrind-based tracing component
//! without baking any analysis into the interpreter itself.

use crate::failure::Failure;
use crate::memloc::MemLoc;
use crate::value::{ThreadId, Value};
use mcr_lang::{FuncId, LockId, LoopId, Pc};

/// Kinds of synchronization operations (the CHESS scheduling points).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncKind {
    /// Lock acquisition (preemption candidates sit *before* it).
    Acquire(LockId),
    /// Lock release (preemption candidates sit *after* it).
    Release(LockId),
    /// Thread spawn; payload is the child thread.
    Spawn(ThreadId),
    /// Join; payload is the joined thread.
    Join(ThreadId),
    /// A store-buffer drain point (TSO mode): the thread's pending
    /// stores became globally visible here. Emitted by `fence`
    /// unconditionally and by any drain of a non-empty buffer, so the
    /// schedule search can enumerate preemptions *before* the flush —
    /// the only place a store→load reordering is observable.
    Flush,
}

/// One dynamic event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A statement began executing. Every executed instruction produces
    /// exactly one `Stmt` event, before its detail events.
    Stmt {
        /// Executing thread.
        tid: ThreadId,
        /// Statement location.
        pc: Pc,
        /// Instructions charged for this statement (0 for free synthetic
        /// counter updates, 1 otherwise).
        cost: u8,
    },
    /// A branch resolved.
    Branch {
        /// Executing thread.
        tid: ThreadId,
        /// Branch location.
        pc: Pc,
        /// Taken outcome.
        outcome: bool,
    },
    /// A memory read (emitted for every slot an expression touches).
    Read {
        /// Executing thread.
        tid: ThreadId,
        /// Statement performing the read.
        pc: Pc,
        /// Location read.
        loc: MemLoc,
        /// Value observed.
        value: Value,
    },
    /// A memory write.
    Write {
        /// Executing thread.
        tid: ThreadId,
        /// Statement performing the write.
        pc: Pc,
        /// Location written.
        loc: MemLoc,
        /// Value stored.
        value: Value,
    },
    /// A shared store entered the thread's store buffer instead of
    /// memory (TSO mode only). Pairs with a later [`Event::StoreFlushed`]
    /// for the same entry.
    StoreBuffered {
        /// Executing thread.
        tid: ThreadId,
        /// Statement that issued the store.
        pc: Pc,
        /// Location the store targets.
        loc: MemLoc,
        /// Buffered value.
        value: Value,
    },
    /// A buffered store became globally visible (TSO mode only).
    StoreFlushed {
        /// Thread whose buffer drained.
        tid: ThreadId,
        /// Statement that originally issued the store.
        pc: Pc,
        /// Location written.
        loc: MemLoc,
        /// Value committed to memory.
        value: Value,
    },
    /// A function body was entered (call, or thread root at spawn).
    FuncEnter {
        /// Thread whose stack grew.
        tid: ThreadId,
        /// The function.
        func: FuncId,
        /// Unique activation serial of the new frame.
        frame: u64,
    },
    /// A function body was exited.
    FuncExit {
        /// Thread whose stack shrank.
        tid: ThreadId,
        /// The function.
        func: FuncId,
        /// Activation serial of the popped frame.
        frame: u64,
    },
    /// A synchronization operation completed.
    Sync {
        /// Executing thread.
        tid: ThreadId,
        /// Statement location.
        pc: Pc,
        /// Operation kind.
        kind: SyncKind,
        /// Per-thread ordinal of this sync operation (0-based).
        seq: u32,
    },
    /// A new thread exists (its root frame is in place).
    ThreadStart {
        /// The new thread.
        tid: ThreadId,
        /// Its entry function.
        func: FuncId,
    },
    /// A thread finished.
    ThreadEnd {
        /// The finished thread.
        tid: ThreadId,
    },
    /// An `output(..)` value was emitted.
    Output {
        /// Executing thread.
        tid: ThreadId,
        /// The value.
        value: Value,
    },
    /// A loop was entered (its frame counter was reset).
    LoopEnter {
        /// Executing thread.
        tid: ThreadId,
        /// Location of the counter-reset instruction.
        pc: Pc,
        /// The loop.
        loop_id: LoopId,
    },
    /// A loop began an iteration (its frame counter was bumped).
    LoopIter {
        /// Executing thread.
        tid: ThreadId,
        /// Location of the counter-bump instruction.
        pc: Pc,
        /// The loop.
        loop_id: LoopId,
        /// Counter value after the bump (1 on the first iteration).
        count: i64,
    },
    /// The run crashed.
    Crash {
        /// The failure.
        failure: Failure,
    },
}

impl Event {
    /// The thread this event belongs to.
    pub fn tid(&self) -> ThreadId {
        match self {
            Event::Stmt { tid, .. }
            | Event::Branch { tid, .. }
            | Event::Read { tid, .. }
            | Event::Write { tid, .. }
            | Event::StoreBuffered { tid, .. }
            | Event::StoreFlushed { tid, .. }
            | Event::FuncEnter { tid, .. }
            | Event::FuncExit { tid, .. }
            | Event::Sync { tid, .. }
            | Event::ThreadStart { tid, .. }
            | Event::ThreadEnd { tid }
            | Event::Output { tid, .. }
            | Event::LoopEnter { tid, .. }
            | Event::LoopIter { tid, .. } => *tid,
            Event::Crash { failure } => failure.thread,
        }
    }
}

/// A consumer of the VM's event stream.
///
/// All methods are optional; implement only what the analysis needs.
pub trait Observer {
    /// Called for every event, in execution order.
    fn on_event(&mut self, step: u64, event: &Event);
}

/// An observer that ignores everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn on_event(&mut self, _step: u64, _event: &Event) {}
}

/// An observer that records every event (test helper / small traces).
#[derive(Debug, Default)]
pub struct Recorder {
    /// Recorded `(step, event)` pairs.
    pub events: Vec<(u64, Event)>,
}

impl Observer for Recorder {
    fn on_event(&mut self, step: u64, event: &Event) {
        self.events.push((step, event.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcr_lang::{FuncId, StmtId};

    #[test]
    fn event_tid_extraction() {
        let ev = Event::Stmt {
            tid: ThreadId(2),
            pc: Pc::new(FuncId(0), StmtId(0)),
            cost: 1,
        };
        assert_eq!(ev.tid(), ThreadId(2));
    }
}
