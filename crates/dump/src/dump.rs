//! Core dump capture.
//!
//! A [`CoreDump`] is a complete snapshot of a run's state, mirroring what
//! the paper assumes of an OS core dump (§3): "register values, the
//! current calling context, the virtual address space, and so on" — here:
//! per-thread register files (pc, last value, retired instructions), full
//! call stacks *including the loop counters* the production
//! instrumentation maintains, all global storage, the entire heap, and
//! lock ownership.

use mcr_lang::{FuncId, StmtId};
use mcr_vm::{BufferedStore, Failure, GSlot, ThreadId, ThreadState, Value, Vm};
use std::hash::{Hash, Hasher};

/// Why a dump was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DumpReason {
    /// The run crashed; this is a failure dump.
    Failure(Failure),
    /// Captured at the aligned point of a passing run.
    Aligned,
    /// Captured on demand.
    Manual,
}

/// Snapshot of one stack frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameImage {
    /// Function of the frame.
    pub func: FuncId,
    /// Statement the frame is at (call site for outer frames — the
    /// "calling context" of the paper).
    pub pc: StmtId,
    /// Local slot values.
    pub locals: Vec<Value>,
    /// Loop counter values (the paper's §3.2 instrumentation output;
    /// `getLoopCount` in Algorithm 1 reads these).
    pub loop_counters: Vec<i64>,
}

/// Snapshot of one thread.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct ThreadImage {
    /// Thread id.
    pub id: ThreadId,
    /// Entry function.
    pub entry: FuncId,
    /// Whether the thread was ready / done / crashed.
    pub state: ThreadState,
    /// Call stack, outermost first.
    pub frames: Vec<FrameImage>,
    /// Instructions retired (the hardware counter of Table 5).
    pub instrs: u64,
    /// Register file: most recently computed value.
    pub last_value: Value,
    /// Synchronization operations executed.
    pub sync_seq: u32,
    /// Unflushed store-buffer entries (TSO mode), oldest first. A crash
    /// freezes the buffer, so a failure dump can show a write the program
    /// performed that never became globally visible — empty under SC.
    pub store_buffer: Vec<BufferedStore>,
}

impl Hash for FrameImage {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.func.hash(state);
        self.pc.hash(state);
        self.locals.hash(state);
        // Counter by counter: the standard `[i64]` hash writes the
        // slice's native-endian bytes.
        state.write_usize(self.loop_counters.len());
        for &c in &self.loop_counters {
            state.write_i64(c);
        }
    }
}

impl ThreadImage {
    /// The innermost frame, if the thread was live.
    pub fn top(&self) -> Option<&FrameImage> {
        self.frames.last()
    }
}

/// A complete program-state snapshot.
///
/// Its `Hash` walk is what a session's key basis folds in: it visits
/// every field, so any difference between two dumps moves the key, and
/// a dump that went through [`crate::encode`] and [`crate::decode`]
/// hashes as it did before.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct CoreDump {
    /// Why the dump exists.
    pub reason: DumpReason,
    /// The focus (failing) thread.
    pub focus: ThreadId,
    /// Global storage.
    pub globals: Vec<GSlot>,
    /// Heap objects (`None` marks never-allocated / freed ids).
    pub heap: Vec<Option<Vec<Value>>>,
    /// All threads.
    pub threads: Vec<ThreadImage>,
    /// Lock owners.
    pub locks: Vec<Option<ThreadId>>,
    /// Statements executed when the dump was taken.
    pub steps: u64,
}

impl CoreDump {
    /// Captures the state of `vm`, focused on `focus` (the failing thread
    /// for failure dumps; the aligned thread for aligned dumps).
    pub fn capture(vm: &Vm<'_>, focus: ThreadId, reason: DumpReason) -> CoreDump {
        let heap: Vec<Option<Vec<Value>>> = (0..vm.heap_len())
            .map(|i| {
                let id = mcr_vm::ObjId(i as u32);
                // Rebuild each object slot by slot through the public API.
                let mut slots = Vec::new();
                let mut k = 0u32;
                while let Some(v) = vm.heap_get(id, k) {
                    slots.push(v);
                    k += 1;
                }
                if vm.heap_get(id, 0).is_some() || is_empty_alive(vm, id) {
                    Some(slots)
                } else {
                    None
                }
            })
            .collect();

        CoreDump {
            reason,
            focus,
            globals: vm.globals().to_vec(),
            heap,
            threads: vm
                .threads()
                .iter()
                .map(|t| ThreadImage {
                    id: t.id,
                    entry: t.entry,
                    state: t.state,
                    frames: t
                        .frames
                        .iter()
                        .map(|f| FrameImage {
                            func: f.func,
                            pc: f.pc,
                            locals: f.locals.clone(),
                            loop_counters: f.loop_counters.clone(),
                        })
                        .collect(),
                    instrs: t.instrs,
                    last_value: t.last_value,
                    sync_seq: t.sync_seq,
                    store_buffer: t.store_buffer.clone(),
                })
                .collect(),
            locks: vm.lock_owners().to_vec(),
            steps: vm.steps(),
        }
    }

    /// Captures a failure dump from a crashed VM.
    ///
    /// Returns `None` when the VM has not crashed.
    pub fn capture_failure(vm: &Vm<'_>) -> Option<CoreDump> {
        let failure = vm.failure()?;
        Some(Self::capture(
            vm,
            failure.thread,
            DumpReason::Failure(failure),
        ))
    }

    /// The failure recorded in this dump, if it is a failure dump.
    pub fn failure(&self) -> Option<Failure> {
        match self.reason {
            DumpReason::Failure(f) => Some(f),
            _ => None,
        }
    }

    /// The focus thread's snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the focus id is out of range (corrupt dump).
    pub fn focus_thread(&self) -> &ThreadImage {
        &self.threads[self.focus.0 as usize]
    }

    /// The calling context of the focus thread: `(call site, callee)`
    /// pairs from outermost to innermost, ending at the focus pc — the
    /// paper's `context` input to Algorithm 1.
    pub fn focus_context(&self) -> Vec<(FuncId, StmtId)> {
        self.focus_thread()
            .frames
            .iter()
            .map(|f| (f.func, f.pc))
            .collect()
    }
}

/// Distinguishes empty-but-allocated objects from unallocated ids. All
/// objects in the current VM stay allocated, so any id below `heap_len`
/// that reports no slot 0 is an empty allocation.
fn is_empty_alive(_vm: &Vm<'_>, _id: mcr_vm::ObjId) -> bool {
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcr_vm::{run, DeterministicScheduler, NullObserver, Vm};

    #[test]
    fn capture_failure_dump_has_context_and_counters() {
        let src = r#"
            global n: int;
            fn crashit(p) { p[0] = 1; }
            fn main() {
                var i; var p;
                while (i < 3) {
                    i = i + 1;
                }
                p = null;
                crashit(p);
            }
        "#;
        let p = mcr_lang::compile(src).unwrap();
        let mut vm = Vm::new(&p, &[]);
        let mut s = DeterministicScheduler::new();
        run(&mut vm, &mut s, &mut NullObserver, 100_000);
        let dump = CoreDump::capture_failure(&vm).expect("crashed");
        assert!(dump.failure().is_some());
        let ctx = dump.focus_context();
        assert_eq!(ctx.len(), 2, "main -> crashit");
        // The outer frame's pc is the call site of crashit.
        let main_frame = &dump.focus_thread().frames[0];
        assert!(matches!(
            p.func(main_frame.func).inst(main_frame.pc),
            mcr_lang::Inst::Call { .. }
        ));
        // The while-loop counter reached 3 and is in the dump.
        assert_eq!(main_frame.loop_counters, vec![3]);
    }

    #[test]
    fn capture_failure_requires_crash() {
        let p = mcr_lang::compile("fn main() { }").unwrap();
        let mut vm = Vm::new(&p, &[]);
        let mut s = DeterministicScheduler::new();
        run(&mut vm, &mut s, &mut NullObserver, 1000);
        assert!(CoreDump::capture_failure(&vm).is_none());
    }

    #[test]
    fn heap_snapshot_is_complete() {
        let p = mcr_lang::compile(
            "global keep: ptr; fn main() { var p; p = alloc(2); p[0] = 5; p[1] = 6; keep = p; }",
        )
        .unwrap();
        let mut vm = Vm::new(&p, &[]);
        let mut s = DeterministicScheduler::new();
        run(&mut vm, &mut s, &mut NullObserver, 1000);
        let dump = CoreDump::capture(&vm, mcr_vm::ThreadId(0), DumpReason::Manual);
        assert_eq!(dump.heap.len(), 1);
        assert_eq!(dump.heap[0], Some(vec![Value::Int(5), Value::Int(6)]));
    }
}
