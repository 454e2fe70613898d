//! The MiniCC interpreter.
//!
//! One [`Vm`] executes one program run. The unit of execution is the
//! *statement*: [`Vm::step`] runs exactly one statement of one thread and
//! reports everything it did through an [`Observer`]. Scheduling lives
//! outside the VM (see [`crate::sched`]), which is what lets the same
//! interpreter play every role in the paper: the "multicore" failing run
//! (random instruction-level interleaving), the deterministic single-core
//! passing run, and the preemption-injected search runs.
//!
//! Design notes mirroring the paper's assumptions:
//!
//! * **Loop counters.** Frames carry one counter per loop
//!   ([`Frame::loop_counters`]); the synthetic `LoopEnter`/`LoopIter`
//!   instructions maintain them. Counters of *natural* loops (`for`) are
//!   free; instrumented (`while`) counters cost one instruction per
//!   update when [`Vm::set_count_loop_instr`] is enabled — this is the
//!   overhead Fig. 10 measures.
//! * **Crash freezing.** On failure the VM freezes with the crashing
//!   thread's program counter still at the faulting statement, so a core
//!   dump taken from it shows the failure context exactly like a real
//!   dump would.
//! * **Determinism.** Given the same program, input, and sequence of
//!   scheduling decisions, a run is bit-identical — the foundation for
//!   checkpoint-free replay (the paper's re-execution phase).
//! * **Cheap checkpoints.** The schedule search forks the VM at every
//!   `preempt()` branch, so `Vm::clone` is the hottest operation of the
//!   whole pipeline. Globals, the heap, and every call stack live in
//!   copy-on-write storage ([`Arc`]-backed, deep-copied lazily on the
//!   first write after a clone), which makes a checkpoint a handful of
//!   reference-count bumps — O(threads) — instead of a deep copy of all
//!   live state.

use crate::event::{Event, Observer, SyncKind};
use crate::failure::{Failure, FailureKind};
use crate::memloc::MemLoc;
use crate::memmodel::{BufferedStore, FaultKind, FaultSpec, InjectedFault, MemModel};
use crate::value::{ObjId, ThreadId, Value};
use mcr_lang::{
    BinOp, Expr, FuncId, GlobalId, GlobalKind, Inst, LocalId, Pc, Place, Program, StmtId, UnOp,
};
use std::sync::Arc;

/// Maximum call depth per thread.
pub const MAX_FRAMES: usize = 512;
/// Maximum slots per heap object.
pub const MAX_ALLOC: i64 = 1 << 20;

/// A global variable's runtime storage.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum GSlot {
    /// A single slot.
    Scalar(Value),
    /// A fixed-size array of slots.
    Array(Vec<Value>),
}

/// One stack frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// The function this frame executes.
    pub func: FuncId,
    /// Current statement. While a callee is active this points at the
    /// call statement, so the frame chain reads like a stack trace.
    pub pc: StmtId,
    /// Local slots (parameters first), zero-initialized.
    pub locals: Vec<Value>,
    /// Loop counters, one per loop of the function (paper §3.2:
    /// "instrument the code to add a loop count").
    pub loop_counters: Vec<i64>,
    /// Unique activation serial (process-wide), for local identity.
    pub serial: u64,
    /// Where the caller wants the return value.
    ret_dst: Option<ResolvedPlace>,
}

/// Lifecycle state of a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreadState {
    /// Has work to do (may still be blocked on a lock or join).
    Ready,
    /// Ran to completion.
    Done,
    /// Crashed (the whole run is over).
    Crashed,
}

/// A copy-on-write call stack.
///
/// Cloning (which happens for every thread on every [`Vm`] checkpoint)
/// bumps one reference count; the frames are deep-copied lazily, on the
/// first mutation after a clone. Reads go through [`std::ops::Deref`] to
/// `[Frame]`, so existing slice-style access keeps working.
#[derive(Debug, Clone)]
pub struct Frames(Arc<Vec<Frame>>);

impl Frames {
    fn new(frames: Vec<Frame>) -> Frames {
        Frames(Arc::new(frames))
    }

    /// Mutable access, deep-copying first if the stack is shared with a
    /// checkpoint.
    fn make_mut(&mut self) -> &mut Vec<Frame> {
        Arc::make_mut(&mut self.0)
    }

    fn last_mut(&mut self) -> Option<&mut Frame> {
        self.make_mut().last_mut()
    }

    fn push(&mut self, frame: Frame) {
        self.make_mut().push(frame);
    }

    fn pop(&mut self) -> Option<Frame> {
        self.make_mut().pop()
    }
}

impl std::ops::Deref for Frames {
    type Target = [Frame];

    fn deref(&self) -> &[Frame] {
        &self.0
    }
}

impl<'a> IntoIterator for &'a Frames {
    type Item = &'a Frame;
    type IntoIter = std::slice::Iter<'a, Frame>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// One thread of execution.
#[derive(Debug, Clone)]
pub struct Thread {
    /// Thread id (spawn order).
    pub id: ThreadId,
    /// Entry function.
    pub entry: FuncId,
    /// Call stack; empty once the thread is done.
    pub frames: Frames,
    /// Lifecycle state.
    pub state: ThreadState,
    /// Synchronization operations executed so far.
    pub sync_seq: u32,
    /// Instructions retired (the hardware counter of the paper's Table 5).
    pub instrs: u64,
    /// Statements executed (including zero-cost synthetic ones).
    pub steps_taken: u64,
    /// The thread's "register file": the most recently computed value.
    pub last_value: Value,
    /// Pending shared stores not yet globally visible (TSO mode only;
    /// always empty under [`MemModel::Sc`]). Oldest first.
    pub store_buffer: Vec<BufferedStore>,
    /// Allocations attempted so far (the per-thread ordinal
    /// [`crate::FaultSpec`] keys [`FaultKind::AllocFail`] on).
    pub alloc_seq: u32,
    /// Lock acquisitions attempted so far (the per-thread ordinal
    /// [`crate::FaultSpec`] keys [`FaultKind::LockTimeout`] on).
    pub acquire_seq: u32,
}

impl Thread {
    /// The innermost frame, if the thread is live.
    pub fn top(&self) -> Option<&Frame> {
        self.frames.last()
    }

    /// The current program counter, if the thread is live.
    pub fn pc(&self) -> Option<Pc> {
        self.top().map(|f| Pc::new(f.func, f.pc))
    }
}

/// A fully resolved assignable location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ResolvedPlace {
    Local(LocalId),
    Global(GlobalId),
    GlobalElem(GlobalId, u32),
    Heap(ObjId, u32),
}

/// The interpreter state for one run.
///
/// Cloning a `Vm` is a *checkpoint*: globals, the heap, and every call
/// stack are copy-on-write, so the clone costs O(threads) reference-count
/// bumps and diverges lazily as either copy writes.
#[derive(Debug, Clone)]
pub struct Vm<'p> {
    program: &'p Program,
    /// All global storage behind one COW cell; the first write after a
    /// checkpoint copies the vector (subsequent writes hit the unique
    /// fast path of [`Arc::make_mut`]).
    globals: Arc<Vec<GSlot>>,
    /// Two-level COW heap: the object table and each object's slots are
    /// independently shared, so a post-checkpoint store deep-copies only
    /// the table spine and the one object written.
    heap: Arc<Vec<Option<Arc<Vec<Value>>>>>,
    threads: Vec<Thread>,
    locks: Vec<Option<ThreadId>>,
    next_frame_serial: u64,
    steps: u64,
    instrs: u64,
    count_loop_instr: bool,
    /// Memory consistency model for this run. [`MemModel::Sc`] (the
    /// default) is bit-identical to the historical VM; see
    /// [`crate::memmodel`].
    mem_model: MemModel,
    /// Environment faults to inject, keyed by per-thread operation
    /// ordinals (schedule-independent).
    faults: Vec<FaultSpec>,
    /// The most recent injected fault, attached to the failure if the
    /// run crashes (so distinct faults stay distinct bugs).
    pending_fault: Option<InjectedFault>,
    failure: Option<Failure>,
    outputs: Vec<Value>,
    /// Events describing state that existed before any observer attached
    /// (the main thread's creation); drained on the first step.
    pending_events: Vec<Event>,
    /// Scratch buffers reused across steps so the statement hot path does
    /// not allocate. Always empty between steps; cloning them is free.
    reads_buf: Vec<(MemLoc, Value)>,
    events_buf: Vec<Event>,
}

impl<'p> Vm<'p> {
    /// Creates a VM for `program`, wiring `input` into the conventional
    /// `input` / `input_len` globals when the program declares them.
    ///
    /// The main function starts as thread 0 with no arguments.
    pub fn new(program: &'p Program, input: &[i64]) -> Vm<'p> {
        let mut globals: Vec<GSlot> = program
            .globals
            .iter()
            .map(|g| match &g.kind {
                GlobalKind::Scalar { init } => GSlot::Scalar(Value::Int(*init)),
                GlobalKind::Ptr => GSlot::Scalar(Value::NULL),
                GlobalKind::Array { len, init } => GSlot::Array(vec![Value::Int(*init); *len]),
            })
            .collect();
        if let Some(g) = program.global_by_name("input") {
            if let GSlot::Array(slots) = &mut globals[g.0 as usize] {
                for (slot, v) in slots.iter_mut().zip(input) {
                    *slot = Value::Int(*v);
                }
            }
        }
        if let Some(g) = program.global_by_name("input_len") {
            if let GSlot::Scalar(s) = &mut globals[g.0 as usize] {
                *s = Value::Int(input.len() as i64);
            }
        }

        let mut vm = Vm {
            program,
            globals: Arc::new(globals),
            heap: Arc::new(Vec::new()),
            threads: Vec::new(),
            locks: vec![None; program.locks.len()],
            next_frame_serial: 0,
            steps: 0,
            instrs: 0,
            count_loop_instr: true,
            mem_model: MemModel::Sc,
            faults: Vec::new(),
            pending_fault: None,
            failure: None,
            outputs: Vec::new(),
            pending_events: Vec::new(),
            reads_buf: Vec::new(),
            events_buf: Vec::new(),
        };
        let main = vm.spawn_thread(program.main, Vec::new());
        let frame = vm.threads[main.0 as usize]
            .frames
            .last()
            .expect("fresh thread")
            .serial;
        vm.pending_events.push(Event::ThreadStart {
            tid: main,
            func: program.main,
        });
        vm.pending_events.push(Event::FuncEnter {
            tid: main,
            func: program.main,
            frame,
        });
        vm
    }

    /// The program being executed.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Selects the memory consistency model. Must be called before the
    /// first step (store buffers start empty either way, so switching on
    /// a fresh VM is always safe; switching mid-run is not supported).
    pub fn set_mem_model(&mut self, model: MemModel) {
        debug_assert_eq!(self.steps, 0, "memory model must be set before stepping");
        self.mem_model = model;
    }

    /// Builder form of [`Vm::set_mem_model`].
    pub fn with_mem_model(mut self, model: MemModel) -> Self {
        self.set_mem_model(model);
        self
    }

    /// The memory consistency model this run executes under.
    pub fn mem_model(&self) -> MemModel {
        self.mem_model
    }

    /// Installs the set of environment faults to inject (see
    /// [`FaultSpec`]). Injection is schedule-independent, so the same
    /// specs make a stress run and a search replay fault identically.
    pub fn set_faults(&mut self, faults: &[FaultSpec]) {
        self.faults = faults.to_vec();
    }

    /// Builder form of [`Vm::set_faults`].
    pub fn with_faults(mut self, faults: &[FaultSpec]) -> Self {
        self.set_faults(faults);
        self
    }

    /// The installed fault specs.
    pub fn faults(&self) -> &[FaultSpec] {
        &self.faults
    }

    /// Whether thread `tid`'s *next* statement is a store-buffer drain
    /// point: a `fence` (always — fences are stable scheduling anchors
    /// in every model), or, with pending buffered stores, any
    /// drain-forcing operation (lock ops, spawn, join, thread exit).
    ///
    /// This is the lookahead predicate the schedule search and the
    /// stress scheduler use to place preemptions *before* the flush —
    /// the only instant at which a store→load reordering is observable
    /// from outside the thread.
    pub fn flush_point(&self, tid: ThreadId) -> bool {
        let Some(t) = self.threads.get(tid.0 as usize) else {
            return false;
        };
        if t.state != ThreadState::Ready {
            return false;
        }
        match self.next_inst(tid) {
            Some(Inst::Fence) => true,
            Some(
                Inst::Acquire { .. }
                | Inst::Release { .. }
                | Inst::Spawn { .. }
                | Inst::Join { .. },
            ) => !t.store_buffer.is_empty(),
            Some(Inst::Return { .. }) => t.frames.len() == 1 && !t.store_buffer.is_empty(),
            _ => false,
        }
    }

    /// The injected fault matching thread `tid`'s `nth` operation of
    /// `kind`, if one is configured.
    fn fault_for(&self, kind: FaultKind, tid: ThreadId, nth: u32) -> Option<InjectedFault> {
        self.faults
            .iter()
            .find(|f| f.kind == kind && f.tid == tid && f.nth == nth)
            .map(|f| InjectedFault {
                kind: f.kind,
                nth: f.nth,
            })
    }

    /// Enables or disables charging instructions for loop-counter
    /// instrumentation (Fig. 10's instrumented vs. plain comparison).
    /// Counters are always *maintained* — only their cost toggles.
    pub fn set_count_loop_instr(&mut self, on: bool) {
        self.count_loop_instr = on;
    }

    /// Statements executed so far across all threads.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Instructions retired across all threads.
    pub fn instrs(&self) -> u64 {
        self.instrs
    }

    /// The failure, if the run crashed.
    pub fn failure(&self) -> Option<Failure> {
        self.failure
    }

    /// Values produced by `output(..)`.
    pub fn outputs(&self) -> &[Value] {
        &self.outputs
    }

    /// All threads (indexed by [`ThreadId`]).
    pub fn threads(&self) -> &[Thread] {
        &self.threads
    }

    /// One thread.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn thread(&self, tid: ThreadId) -> &Thread {
        &self.threads[tid.0 as usize]
    }

    /// Global storage (indexed by [`GlobalId`]).
    pub fn globals(&self) -> &[GSlot] {
        &self.globals
    }

    /// Heap objects that are currently allocated.
    pub fn heap_objects(&self) -> impl Iterator<Item = (ObjId, &[Value])> {
        self.heap
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.as_deref().map(|v| (ObjId(i as u32), v.as_slice())))
    }

    /// Raw heap vector length (object ids are indices below this).
    pub fn heap_len(&self) -> usize {
        self.heap.len()
    }

    /// Reads a heap slot, if the object exists and the index is in range.
    pub fn heap_get(&self, obj: ObjId, idx: u32) -> Option<Value> {
        self.heap
            .get(obj.0 as usize)?
            .as_ref()?
            .get(idx as usize)
            .copied()
    }

    /// Current lock owners (indexed by lock id).
    pub fn lock_owners(&self) -> &[Option<ThreadId>] {
        &self.locks
    }

    /// True when every thread has finished.
    pub fn all_done(&self) -> bool {
        self.threads.iter().all(|t| t.state == ThreadState::Done)
    }

    /// The statement a thread will execute next, if it is live.
    pub fn next_inst(&self, tid: ThreadId) -> Option<&'p Inst> {
        let pc = self.threads.get(tid.0 as usize)?.pc()?;
        Some(self.program.inst(pc))
    }

    /// Whether `tid` can take a step right now. A thread whose next
    /// statement is an `acquire` of a held lock, or a `join` on a live
    /// thread, is not runnable (it never busy-steps).
    pub fn runnable(&self, tid: ThreadId) -> bool {
        let Some(t) = self.threads.get(tid.0 as usize) else {
            return false;
        };
        if t.state != ThreadState::Ready || self.failure.is_some() {
            return false;
        }
        match self.next_inst(tid) {
            // A held lock blocks the acquirer — including re-acquisition by
            // the owner (locks are not reentrant; a self-acquire deadlocks,
            // as with a default pthread mutex). An injected lock timeout
            // makes the blocked acquirer runnable so the step can surface
            // the LockTimeout failure.
            Some(Inst::Acquire { lock }) => {
                self.locks[lock.0 as usize].is_none()
                    || self
                        .fault_for(FaultKind::LockTimeout, tid, t.acquire_seq)
                        .is_some()
            }
            Some(Inst::Join { thread }) => {
                let frame = t.frames.last().expect("live thread has a frame");
                match self.eval_quiet(t, frame, thread) {
                    Ok(Value::Int(target)) => self
                        .threads
                        .get(target as usize)
                        .is_none_or(|th| th.state != ThreadState::Ready),
                    // Non-integer or failing evaluation: runnable so the
                    // step surfaces the real failure.
                    _ => true,
                }
            }
            Some(_) => true,
            None => false,
        }
    }

    /// All currently runnable threads, in id order.
    ///
    /// Allocates a fresh `Vec` per call; step loops should prefer
    /// [`Vm::runnable_into`] (scratch-buffer reuse) or
    /// [`Vm::runnable_iter`].
    pub fn runnable_threads(&self) -> Vec<ThreadId> {
        self.runnable_iter().collect()
    }

    /// Iterates the currently runnable threads in id order without
    /// allocating.
    pub fn runnable_iter(&self) -> impl Iterator<Item = ThreadId> + '_ {
        (0..self.threads.len() as u32)
            .map(ThreadId)
            .filter(|&t| self.runnable(t))
    }

    /// Collects the currently runnable threads (id order) into `out`,
    /// clearing it first. Lets run loops reuse one scratch buffer instead
    /// of allocating every step.
    pub fn runnable_into(&self, out: &mut Vec<ThreadId>) {
        out.clear();
        out.extend(self.runnable_iter());
    }

    fn spawn_thread(&mut self, entry: FuncId, args: Vec<Value>) -> ThreadId {
        let tid = ThreadId(self.threads.len() as u32);
        let func = self.program.func(entry);
        let mut locals = vec![Value::default(); func.local_count()];
        for (slot, v) in locals.iter_mut().zip(args.iter()) {
            *slot = *v;
        }
        let frame = Frame {
            func: entry,
            pc: StmtId(0),
            locals,
            loop_counters: vec![0; func.loops.len()],
            serial: self.next_frame_serial,
            ret_dst: None,
        };
        self.next_frame_serial += 1;
        self.threads.push(Thread {
            id: tid,
            entry,
            frames: Frames::new(vec![frame]),
            state: ThreadState::Ready,
            sync_seq: 0,
            instrs: 0,
            steps_taken: 0,
            last_value: Value::default(),
            store_buffer: Vec::new(),
            alloc_seq: 0,
            acquire_seq: 0,
        });
        tid
    }

    /// Quiet expression evaluation (no events) used by `runnable`.
    fn eval_quiet(&self, thread: &Thread, frame: &Frame, e: &Expr) -> Result<Value, FailureKind> {
        let mut sink = Vec::new();
        self.eval(thread, frame, e, &mut sink)
    }

    /// Store-to-load forwarding: the youngest buffered store to `loc`
    /// from the reading thread's own buffer, if any. Other threads'
    /// buffers are invisible by TSO design; under SC the buffer is
    /// always empty and this is a no-op.
    #[inline]
    fn snoop(thread: &Thread, loc: MemLoc) -> Option<Value> {
        thread
            .store_buffer
            .iter()
            .rev()
            .find(|b| b.loc == loc)
            .map(|b| b.value)
    }

    fn eval(
        &self,
        thread: &Thread,
        frame: &Frame,
        e: &Expr,
        reads: &mut Vec<(MemLoc, Value)>,
    ) -> Result<Value, FailureKind> {
        match e {
            Expr::Const(v) => Ok(Value::Int(*v)),
            Expr::Null => Ok(Value::NULL),
            Expr::Local(l) => {
                let v = frame.locals[l.0 as usize];
                reads.push((
                    MemLoc::Local {
                        tid: thread.id,
                        frame: frame.serial,
                        local: *l,
                    },
                    v,
                ));
                Ok(v)
            }
            Expr::Global(g) => match &self.globals[g.0 as usize] {
                GSlot::Scalar(v) => {
                    let v = Self::snoop(thread, MemLoc::Global(*g)).unwrap_or(*v);
                    reads.push((MemLoc::Global(*g), v));
                    Ok(v)
                }
                GSlot::Array(_) => Err(FailureKind::TypeConfusion),
            },
            Expr::GlobalElem(g, idx) => {
                let i = self.eval(thread, frame, idx, reads)?;
                let i = i.as_int().ok_or(FailureKind::TypeConfusion)?;
                match &self.globals[g.0 as usize] {
                    GSlot::Array(slots) => {
                        if i < 0 || i as usize >= slots.len() {
                            return Err(FailureKind::GlobalOutOfBounds);
                        }
                        let loc = MemLoc::GlobalElem(*g, i as u32);
                        let v = Self::snoop(thread, loc).unwrap_or(slots[i as usize]);
                        reads.push((loc, v));
                        Ok(v)
                    }
                    GSlot::Scalar(_) => Err(FailureKind::TypeConfusion),
                }
            }
            Expr::HeapLoad { ptr, idx } => {
                let p = self.eval(thread, frame, ptr, reads)?;
                let i = self.eval(thread, frame, idx, reads)?;
                let obj = p
                    .as_ptr()
                    .ok_or(FailureKind::TypeConfusion)?
                    .ok_or(FailureKind::NullDeref)?;
                let i = i.as_int().ok_or(FailureKind::TypeConfusion)?;
                let slots = self.heap[obj.0 as usize]
                    .as_ref()
                    .ok_or(FailureKind::OutOfBounds)?;
                if i < 0 || i as usize >= slots.len() {
                    return Err(FailureKind::OutOfBounds);
                }
                let loc = MemLoc::Heap(obj, i as u32);
                let v = Self::snoop(thread, loc).unwrap_or(slots[i as usize]);
                reads.push((loc, v));
                Ok(v)
            }
            Expr::Unary(op, a) => {
                let v = self.eval(thread, frame, a, reads)?;
                match op {
                    UnOp::Not => Ok(Value::from(!v.truthy())),
                    UnOp::Neg => {
                        let v = v.as_int().ok_or(FailureKind::TypeConfusion)?;
                        Ok(Value::Int(v.wrapping_neg()))
                    }
                }
            }
            Expr::Binary(op, a, b) => {
                let va = self.eval(thread, frame, a, reads)?;
                let vb = self.eval(thread, frame, b, reads)?;
                self.binop(*op, va, vb)
            }
        }
    }

    #[inline(always)]
    fn binop(&self, op: BinOp, a: Value, b: Value) -> Result<Value, FailureKind> {
        use BinOp::*;
        match op {
            And => return Ok(Value::from(a.truthy() && b.truthy())),
            Or => return Ok(Value::from(a.truthy() || b.truthy())),
            Eq | Ne => {
                let eq = match (a, b) {
                    (Value::Int(x), Value::Int(y)) => x == y,
                    (Value::Ptr(x), Value::Ptr(y)) => x == y,
                    // Comparing a pointer against an integer is the kind of
                    // type confusion C permits; follow C: only equal when
                    // the pointer is null and the int is 0.
                    (Value::Ptr(p), Value::Int(v)) | (Value::Int(v), Value::Ptr(p)) => {
                        p.is_none() && v == 0
                    }
                };
                return Ok(Value::from(if op == Eq { eq } else { !eq }));
            }
            _ => {}
        }
        let x = a.as_int().ok_or(FailureKind::TypeConfusion)?;
        let y = b.as_int().ok_or(FailureKind::TypeConfusion)?;
        let v = match op {
            Add => x.wrapping_add(y),
            Sub => x.wrapping_sub(y),
            Mul => x.wrapping_mul(y),
            Div => {
                if y == 0 {
                    return Err(FailureKind::DivByZero);
                }
                x.wrapping_div(y)
            }
            Mod => {
                if y == 0 {
                    return Err(FailureKind::DivByZero);
                }
                x.wrapping_rem(y)
            }
            Lt => (x < y) as i64,
            Le => (x <= y) as i64,
            Gt => (x > y) as i64,
            Ge => (x >= y) as i64,
            Eq | Ne | And | Or => unreachable!("handled above"),
        };
        Ok(Value::Int(v))
    }

    fn resolve_place(
        &self,
        thread: &Thread,
        frame: &Frame,
        place: &Place,
        reads: &mut Vec<(MemLoc, Value)>,
    ) -> Result<ResolvedPlace, FailureKind> {
        match place {
            Place::Local(l) => Ok(ResolvedPlace::Local(*l)),
            Place::Global(g) => Ok(ResolvedPlace::Global(*g)),
            Place::GlobalElem(g, idx) => {
                let i = self
                    .eval(thread, frame, idx, reads)?
                    .as_int()
                    .ok_or(FailureKind::TypeConfusion)?;
                match &self.globals[g.0 as usize] {
                    GSlot::Array(slots) if i >= 0 && (i as usize) < slots.len() => {
                        Ok(ResolvedPlace::GlobalElem(*g, i as u32))
                    }
                    GSlot::Array(_) => Err(FailureKind::GlobalOutOfBounds),
                    GSlot::Scalar(_) => Err(FailureKind::TypeConfusion),
                }
            }
            Place::HeapStore { ptr, idx } => {
                let p = self.eval(thread, frame, ptr, reads)?;
                let i = self.eval(thread, frame, idx, reads)?;
                let obj = p
                    .as_ptr()
                    .ok_or(FailureKind::TypeConfusion)?
                    .ok_or(FailureKind::NullDeref)?;
                let i = i.as_int().ok_or(FailureKind::TypeConfusion)?;
                let slots = self.heap[obj.0 as usize]
                    .as_ref()
                    .ok_or(FailureKind::OutOfBounds)?;
                if i < 0 || i as usize >= slots.len() {
                    return Err(FailureKind::OutOfBounds);
                }
                Ok(ResolvedPlace::Heap(obj, i as u32))
            }
        }
    }

    fn memloc_of(&self, tid: ThreadId, frame_serial: u64, rp: ResolvedPlace) -> MemLoc {
        match rp {
            ResolvedPlace::Local(l) => MemLoc::Local {
                tid,
                frame: frame_serial,
                local: l,
            },
            ResolvedPlace::Global(g) => MemLoc::Global(g),
            ResolvedPlace::GlobalElem(g, i) => MemLoc::GlobalElem(g, i),
            ResolvedPlace::Heap(o, i) => MemLoc::Heap(o, i),
        }
    }

    fn store(&mut self, rp: ResolvedPlace, tid: ThreadId, v: Value) {
        match rp {
            ResolvedPlace::Local(l) => {
                let frame = self.threads[tid.0 as usize]
                    .frames
                    .last_mut()
                    .expect("live thread");
                frame.locals[l.0 as usize] = v;
            }
            ResolvedPlace::Global(g) => {
                Arc::make_mut(&mut self.globals)[g.0 as usize] = GSlot::Scalar(v);
            }
            ResolvedPlace::GlobalElem(g, i) => {
                if let GSlot::Array(slots) = &mut Arc::make_mut(&mut self.globals)[g.0 as usize] {
                    slots[i as usize] = v;
                }
            }
            ResolvedPlace::Heap(o, i) => {
                if let Some(slots) = &mut Arc::make_mut(&mut self.heap)[o.0 as usize] {
                    Arc::make_mut(slots)[i as usize] = v;
                }
            }
        }
    }

    /// Commits a drained store directly to shared memory (the TSO flush
    /// path). Locals are never buffered, so only shared locations occur.
    fn store_shared(&mut self, loc: MemLoc, v: Value) {
        match loc {
            MemLoc::Global(g) => Arc::make_mut(&mut self.globals)[g.0 as usize] = GSlot::Scalar(v),
            MemLoc::GlobalElem(g, i) => {
                if let GSlot::Array(slots) = &mut Arc::make_mut(&mut self.globals)[g.0 as usize] {
                    slots[i as usize] = v;
                }
            }
            MemLoc::Heap(o, i) => {
                if let Some(slots) = &mut Arc::make_mut(&mut self.heap)[o.0 as usize] {
                    Arc::make_mut(slots)[i as usize] = v;
                }
            }
            MemLoc::Local { .. } => unreachable!("locals are never buffered"),
        }
    }

    /// Routes a store through the memory model. Under SC — and for
    /// thread-local destinations in every model — the store commits
    /// immediately with a `Write` event, exactly as before. Under TSO a
    /// shared store enqueues in the thread's FIFO buffer
    /// (`StoreBuffered`); if the buffer is at capacity the oldest entry
    /// spills to memory first (`StoreFlushed`, no sync point — capacity
    /// pressure is not a scheduling event).
    fn store_or_buffer(
        &mut self,
        rp: ResolvedPlace,
        tid: ThreadId,
        frame_serial: u64,
        pc: Pc,
        v: Value,
        events: &mut Vec<Event>,
    ) {
        let loc = self.memloc_of(tid, frame_serial, rp);
        let cap = match self.mem_model.buffer_cap() {
            Some(cap) if loc.is_shared() => cap,
            _ => {
                self.store(rp, tid, v);
                events.push(Event::Write {
                    tid,
                    pc,
                    loc,
                    value: v,
                });
                return;
            }
        };
        let t = &mut self.threads[tid.0 as usize];
        if t.store_buffer.len() >= cap as usize {
            let old = t.store_buffer.remove(0);
            self.store_shared(old.loc, old.value);
            events.push(Event::StoreFlushed {
                tid,
                pc: old.pc,
                loc: old.loc,
                value: old.value,
            });
        }
        self.threads[tid.0 as usize]
            .store_buffer
            .push(BufferedStore { loc, value: v, pc });
        events.push(Event::StoreBuffered {
            tid,
            pc,
            loc,
            value: v,
        });
    }

    /// Drains `tid`'s store buffer to memory, oldest first, emitting one
    /// `StoreFlushed` per entry (each stamped with the pc that issued
    /// the store).
    fn drain_store_buffer(&mut self, tid: ThreadId, events: &mut Vec<Event>) {
        let buf = std::mem::take(&mut self.threads[tid.0 as usize].store_buffer);
        for b in buf {
            self.store_shared(b.loc, b.value);
            events.push(Event::StoreFlushed {
                tid,
                pc: b.pc,
                loc: b.loc,
                value: b.value,
            });
        }
    }

    /// Emits a [`SyncKind::Flush`] scheduling point (consuming a sync
    /// ordinal) and drains the buffer. With `always` false this is a
    /// no-op on an empty buffer — drain-forcing operations only become
    /// scheduling events when there is something to drain; `fence` passes
    /// true so it is a stable anchor in every model (including SC).
    fn flush(&mut self, tid: ThreadId, pc: Pc, always: bool, events: &mut Vec<Event>) {
        if !always && self.threads[tid.0 as usize].store_buffer.is_empty() {
            return;
        }
        let t = &mut self.threads[tid.0 as usize];
        let seq = t.sync_seq;
        t.sync_seq += 1;
        events.push(Event::Sync {
            tid,
            pc,
            kind: SyncKind::Flush,
            seq,
        });
        self.drain_store_buffer(tid, events);
    }

    /// Executes one statement of thread `tid`.
    ///
    /// Returns `false` when the thread could not step (not runnable, done,
    /// or the run already failed); the VM is unchanged in that case.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    pub fn step(&mut self, tid: ThreadId, obs: &mut dyn Observer) -> bool {
        if !self.runnable(tid) {
            return false;
        }
        for ev in std::mem::take(&mut self.pending_events) {
            obs.on_event(self.steps, &ev);
        }
        let step = self.steps;
        self.steps += 1;

        let program = self.program;
        let (func_id, frame_pc) = {
            let frame = self.threads[tid.0 as usize]
                .frames
                .last()
                .expect("runnable thread has a frame");
            (frame.func, frame.pc)
        };
        // `func` and `inst` borrow the program (lifetime `'p`), not the
        // VM, so the statement body below runs without cloning the
        // instruction.
        let func = program.func(func_id);
        let pc = Pc::new(func_id, frame_pc);
        let inst = func.inst(frame_pc);

        // Instruction accounting.
        let cost: u8 = match inst {
            Inst::LoopEnter { loop_id } | Inst::LoopIter { loop_id } => {
                let natural = func.loops[loop_id.0 as usize].natural;
                if natural || !self.count_loop_instr {
                    0
                } else {
                    1
                }
            }
            _ => 1,
        };
        self.instrs += cost as u64;
        self.threads[tid.0 as usize].instrs += cost as u64;
        self.threads[tid.0 as usize].steps_taken += 1;

        obs.on_event(step, &Event::Stmt { tid, pc, cost });

        // Reuse the scratch buffers so stepping never allocates once the
        // buffers have grown to the run's high-water mark.
        let mut reads = std::mem::take(&mut self.reads_buf);
        let mut events = std::mem::take(&mut self.events_buf);
        debug_assert!(reads.is_empty() && events.is_empty());
        let result = self.exec_inst(tid, pc, inst, &mut reads, &mut events);
        for (loc, value) in reads.drain(..) {
            obs.on_event(
                step,
                &Event::Read {
                    tid,
                    pc,
                    loc,
                    value,
                },
            );
        }
        match result {
            Ok(()) => {
                for eff in events.drain(..) {
                    obs.on_event(step, &eff);
                }
            }
            Err(kind) => {
                // Partial effects of the crashing statement are discarded,
                // exactly as before: only the crash is observed.
                events.clear();
                let failure = Failure {
                    kind,
                    pc,
                    thread: tid,
                    fault: self.pending_fault.take(),
                };
                self.failure = Some(failure);
                self.threads[tid.0 as usize].state = ThreadState::Crashed;
                obs.on_event(step, &Event::Crash { failure });
            }
        }
        self.reads_buf = reads;
        self.events_buf = events;
        true
    }

    /// Executes the statement body, pushing the detail events to emit
    /// after the reads into `events`. On `Err` the thread crashes at
    /// `pc` (and the caller discards any partial events).
    fn exec_inst(
        &mut self,
        tid: ThreadId,
        pc: Pc,
        inst: &Inst,
        reads: &mut Vec<(MemLoc, Value)>,
        events: &mut Vec<Event>,
    ) -> Result<(), FailureKind> {
        macro_rules! cur_frame {
            () => {
                self.threads[tid.0 as usize]
                    .frames
                    .last()
                    .expect("live thread")
            };
        }
        macro_rules! advance {
            () => {{
                let f = self.threads[tid.0 as usize]
                    .frames
                    .last_mut()
                    .expect("live thread");
                f.pc = StmtId(f.pc.0 + 1);
            }};
        }

        match inst {
            Inst::Assign { dst, src } => {
                let (v, rp) = {
                    let thread = &self.threads[tid.0 as usize];
                    let frame = thread.frames.last().expect("live thread");
                    let v = self.eval(thread, frame, src, reads)?;
                    let rp = self.resolve_place(thread, frame, dst, reads)?;
                    (v, rp)
                };
                let serial = cur_frame!().serial;
                self.store_or_buffer(rp, tid, serial, pc, v, events);
                self.threads[tid.0 as usize].last_value = v;
                advance!();
            }
            Inst::Branch {
                cond,
                then_to,
                else_to,
                ..
            } => {
                let outcome = {
                    let thread = &self.threads[tid.0 as usize];
                    let frame = thread.frames.last().expect("live thread");
                    self.eval(thread, frame, cond, reads)?.truthy()
                };
                events.push(Event::Branch { tid, pc, outcome });
                let target = if outcome { *then_to } else { *else_to };
                let f = self.threads[tid.0 as usize]
                    .frames
                    .last_mut()
                    .expect("live thread");
                f.pc = target;
            }
            Inst::Jump { to } => {
                let f = self.threads[tid.0 as usize]
                    .frames
                    .last_mut()
                    .expect("live thread");
                f.pc = *to;
            }
            Inst::Call { callee, args, dst } => {
                let (vals, rp) = {
                    let thread = &self.threads[tid.0 as usize];
                    let frame = thread.frames.last().expect("live thread");
                    let mut vals = Vec::with_capacity(args.len());
                    for a in args {
                        vals.push(self.eval(thread, frame, a, reads)?);
                    }
                    let rp = match dst {
                        Some(d) => Some(self.resolve_place(thread, frame, d, reads)?),
                        None => None,
                    };
                    (vals, rp)
                };
                if self.threads[tid.0 as usize].frames.len() >= MAX_FRAMES {
                    return Err(FailureKind::StackOverflow);
                }
                let func = self.program.func(*callee);
                let mut locals = vec![Value::default(); func.local_count()];
                for (slot, v) in locals.iter_mut().zip(vals.iter()) {
                    *slot = *v;
                }
                let serial = self.next_frame_serial;
                self.next_frame_serial += 1;
                self.threads[tid.0 as usize].frames.push(Frame {
                    func: *callee,
                    pc: StmtId(0),
                    locals,
                    loop_counters: vec![0; func.loops.len()],
                    serial,
                    ret_dst: rp,
                });
                events.push(Event::FuncEnter {
                    tid,
                    func: *callee,
                    frame: serial,
                });
            }
            Inst::Return { value } => {
                let v = {
                    let thread = &self.threads[tid.0 as usize];
                    let frame = thread.frames.last().expect("live thread");
                    match value {
                        Some(e) => Some(self.eval(thread, frame, e, reads)?),
                        None => None,
                    }
                };
                let popped = self.threads[tid.0 as usize]
                    .frames
                    .pop()
                    .expect("live thread");
                events.push(Event::FuncExit {
                    tid,
                    func: popped.func,
                    frame: popped.serial,
                });
                if self.threads[tid.0 as usize].frames.is_empty() {
                    // A thread's stores become visible no later than its
                    // exit (as joining it must observe them).
                    self.flush(tid, pc, false, events);
                    self.threads[tid.0 as usize].state = ThreadState::Done;
                    events.push(Event::ThreadEnd { tid });
                } else {
                    if let (Some(rp), Some(v)) = (popped.ret_dst, v) {
                        let caller_pc = {
                            let f = cur_frame!();
                            Pc::new(f.func, f.pc)
                        };
                        let serial = cur_frame!().serial;
                        self.store_or_buffer(rp, tid, serial, caller_pc, v, events);
                        self.threads[tid.0 as usize].last_value = v;
                    }
                    advance!();
                }
            }
            Inst::Acquire { lock } => {
                // Every acquire attempt consumes the thread's acquire
                // ordinal (the schedule-independent key lock-timeout
                // injection matches on), faulting or not.
                let nth = self.threads[tid.0 as usize].acquire_seq;
                self.threads[tid.0 as usize].acquire_seq += 1;
                if self.locks[lock.0 as usize].is_some() {
                    // Only an injected timeout makes a blocked acquire
                    // runnable (see `runnable`). Crash before draining:
                    // the dump shows the buffer frozen mid-flight.
                    let fault = self.fault_for(FaultKind::LockTimeout, tid, nth);
                    debug_assert!(fault.is_some(), "blocked acquire stepped without a fault");
                    self.pending_fault = fault;
                    return Err(FailureKind::LockTimeout);
                }
                self.flush(tid, pc, false, events);
                self.locks[lock.0 as usize] = Some(tid);
                let seq = self.threads[tid.0 as usize].sync_seq;
                self.threads[tid.0 as usize].sync_seq += 1;
                events.push(Event::Sync {
                    tid,
                    pc,
                    kind: SyncKind::Acquire(*lock),
                    seq,
                });
                advance!();
            }
            Inst::Release { lock } => {
                if self.locks[lock.0 as usize] != Some(tid) {
                    return Err(FailureKind::LockMisuse);
                }
                self.flush(tid, pc, false, events);
                self.locks[lock.0 as usize] = None;
                let seq = self.threads[tid.0 as usize].sync_seq;
                self.threads[tid.0 as usize].sync_seq += 1;
                events.push(Event::Sync {
                    tid,
                    pc,
                    kind: SyncKind::Release(*lock),
                    seq,
                });
                advance!();
            }
            Inst::Spawn { callee, args, dst } => {
                let (vals, rp) = {
                    let thread = &self.threads[tid.0 as usize];
                    let frame = thread.frames.last().expect("live thread");
                    let mut vals = Vec::with_capacity(args.len());
                    for a in args {
                        vals.push(self.eval(thread, frame, a, reads)?);
                    }
                    let rp = match dst {
                        Some(d) => Some(self.resolve_place(thread, frame, d, reads)?),
                        None => None,
                    };
                    (vals, rp)
                };
                self.flush(tid, pc, false, events);
                let child = self.spawn_thread(*callee, vals);
                let child_frame = self.threads[child.0 as usize]
                    .frames
                    .last()
                    .expect("fresh thread")
                    .serial;
                let seq = self.threads[tid.0 as usize].sync_seq;
                self.threads[tid.0 as usize].sync_seq += 1;
                events.push(Event::Sync {
                    tid,
                    pc,
                    kind: SyncKind::Spawn(child),
                    seq,
                });
                events.push(Event::ThreadStart {
                    tid: child,
                    func: *callee,
                });
                events.push(Event::FuncEnter {
                    tid: child,
                    func: *callee,
                    frame: child_frame,
                });
                if let Some(rp) = rp {
                    let serial = cur_frame!().serial;
                    let v = Value::Int(child.0 as i64);
                    self.store_or_buffer(rp, tid, serial, pc, v, events);
                }
                advance!();
            }
            Inst::Join { thread: te } => {
                let v = {
                    let thread = &self.threads[tid.0 as usize];
                    let frame = thread.frames.last().expect("live thread");
                    self.eval(thread, frame, te, reads)?
                };
                let target = v.as_int().ok_or(FailureKind::TypeConfusion)?;
                if target < 0 || target as usize >= self.threads.len() {
                    return Err(FailureKind::JoinInvalid);
                }
                let target = ThreadId(target as u32);
                debug_assert_ne!(
                    self.threads[target.0 as usize].state,
                    ThreadState::Ready,
                    "runnable() only admits joins on finished threads"
                );
                self.flush(tid, pc, false, events);
                let seq = self.threads[tid.0 as usize].sync_seq;
                self.threads[tid.0 as usize].sync_seq += 1;
                events.push(Event::Sync {
                    tid,
                    pc,
                    kind: SyncKind::Join(target),
                    seq,
                });
                advance!();
            }
            Inst::Alloc { dst, len } => {
                let (n, rp) = {
                    let thread = &self.threads[tid.0 as usize];
                    let frame = thread.frames.last().expect("live thread");
                    let n = self
                        .eval(thread, frame, len, reads)?
                        .as_int()
                        .ok_or(FailureKind::TypeConfusion)?;
                    let rp = self.resolve_place(thread, frame, dst, reads)?;
                    (n, rp)
                };
                // Every attempt consumes the thread's alloc ordinal (the
                // schedule-independent key alloc-failure injection
                // matches on), before any size validation.
                let nth = self.threads[tid.0 as usize].alloc_seq;
                self.threads[tid.0 as usize].alloc_seq += 1;
                let v = match self.fault_for(FaultKind::AllocFail, tid, nth) {
                    Some(fault) => {
                        // Injected allocation failure: the program sees
                        // null and runs its recovery path. Non-fatal; the
                        // fault identity sticks to any later crash.
                        self.pending_fault = Some(fault);
                        Value::NULL
                    }
                    None => {
                        if !(0..=MAX_ALLOC).contains(&n) {
                            return Err(FailureKind::AllocTooLarge);
                        }
                        let obj = ObjId(self.heap.len() as u32);
                        Arc::make_mut(&mut self.heap)
                            .push(Some(Arc::new(vec![Value::default(); n as usize])));
                        Value::Ptr(Some(obj))
                    }
                };
                let serial = cur_frame!().serial;
                self.store_or_buffer(rp, tid, serial, pc, v, events);
                self.threads[tid.0 as usize].last_value = v;
                advance!();
            }
            Inst::Assert { cond } => {
                let ok = {
                    let thread = &self.threads[tid.0 as usize];
                    let frame = thread.frames.last().expect("live thread");
                    self.eval(thread, frame, cond, reads)?.truthy()
                };
                if !ok {
                    return Err(FailureKind::AssertFailed);
                }
                advance!();
            }
            Inst::Output { value } => {
                let v = {
                    let thread = &self.threads[tid.0 as usize];
                    let frame = thread.frames.last().expect("live thread");
                    self.eval(thread, frame, value, reads)?
                };
                self.outputs.push(v);
                events.push(Event::Output { tid, value: v });
                advance!();
            }
            Inst::LoopEnter { loop_id } => {
                let f = self.threads[tid.0 as usize]
                    .frames
                    .last_mut()
                    .expect("live thread");
                f.loop_counters[loop_id.0 as usize] = 0;
                events.push(Event::LoopEnter {
                    tid,
                    pc,
                    loop_id: *loop_id,
                });
                advance!();
            }
            Inst::LoopIter { loop_id } => {
                let f = self.threads[tid.0 as usize]
                    .frames
                    .last_mut()
                    .expect("live thread");
                f.loop_counters[loop_id.0 as usize] += 1;
                let count = f.loop_counters[loop_id.0 as usize];
                events.push(Event::LoopIter {
                    tid,
                    pc,
                    loop_id: *loop_id,
                    count,
                });
                advance!();
            }
            Inst::Fence => {
                // A fence drains the buffer and is a scheduling anchor in
                // *every* model (the sync point is emitted even when the
                // buffer is empty), so a fence inside a critical section
                // gives the search a stable preemption point under SC too.
                self.flush(tid, pc, true, events);
                advance!();
            }
            Inst::Nop => {
                advance!();
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{NullObserver, Recorder};

    fn vm_for<'p>(p: &'p Program, input: &[i64]) -> Vm<'p> {
        Vm::new(p, input)
    }

    /// Steps thread 0 to completion (single-threaded programs).
    fn run_main(vm: &mut Vm, obs: &mut dyn Observer) {
        let t0 = ThreadId(0);
        let mut guard = 0;
        while vm.runnable(t0) {
            vm.step(t0, obs);
            guard += 1;
            assert!(guard < 100_000, "runaway test program");
        }
    }

    /// Runs a program whose first statement of `main` crashes with
    /// `kind`, and checks the VM froze exactly there: the thread is
    /// `Crashed` with its pc still at the faulting statement, and the
    /// crash is the last event observed.
    fn assert_crashes_at_first_stmt(src: &str, kind: FailureKind) {
        let p = mcr_lang::compile(src).unwrap();
        let mut vm = vm_for(&p, &[]);
        let mut rec = Recorder::default();
        run_main(&mut vm, &mut rec);
        let failure = vm.failure().expect("program crashes");
        let at = Pc::new(p.main, StmtId(0));
        assert_eq!(failure.kind, kind, "{src}");
        assert_eq!(failure.pc, at, "{src}");
        assert_eq!(failure.thread, ThreadId(0), "{src}");
        let t0 = vm.thread(ThreadId(0));
        assert_eq!(t0.state, ThreadState::Crashed, "{src}");
        assert_eq!(t0.pc(), Some(at), "{src}");
        assert_eq!(vm.steps(), 1, "{src}");
        assert_eq!(
            rec.events.last().map(|(_, e)| e),
            Some(&Event::Crash { failure }),
            "{src}"
        );
    }

    #[test]
    fn arithmetic_and_globals() {
        let p = mcr_lang::compile("global x: int; fn main() { x = 2 * 3 + 4; }").unwrap();
        let mut vm = vm_for(&p, &[]);
        run_main(&mut vm, &mut NullObserver);
        let g = p.global_by_name("x").unwrap();
        assert_eq!(vm.globals()[g.0 as usize], GSlot::Scalar(Value::Int(10)));
        assert!(vm.failure().is_none());
        assert!(vm.all_done());
    }

    #[test]
    fn input_wiring() {
        let p = mcr_lang::compile(
            "global input: [int; 4]; global input_len: int; global x: int; fn main() { x = input[1] + input_len; }",
        )
        .unwrap();
        let mut vm = vm_for(&p, &[10, 20]);
        run_main(&mut vm, &mut NullObserver);
        let g = p.global_by_name("x").unwrap();
        assert_eq!(vm.globals()[g.0 as usize], GSlot::Scalar(Value::Int(22)));
    }

    #[test]
    fn loops_and_counters() {
        let p = mcr_lang::compile(
            "global n: int; fn main() { var i; while (i < 5) { i = i + 1; } n = i; }",
        )
        .unwrap();
        let mut vm = vm_for(&p, &[]);
        let mut rec = Recorder::default();
        run_main(&mut vm, &mut rec);
        let g = p.global_by_name("n").unwrap();
        assert_eq!(vm.globals()[g.0 as usize], GSlot::Scalar(Value::Int(5)));
        // Counter reached 5.
        let max_count = rec
            .events
            .iter()
            .filter_map(|(_, e)| match e {
                Event::LoopIter { count, .. } => Some(*count),
                _ => None,
            })
            .max();
        assert_eq!(max_count, Some(5));
    }

    #[test]
    fn instrumentation_cost_toggle() {
        let src = "global n: int; fn main() { var i; while (i < 50) { i = i + 1; } }";
        let p = mcr_lang::compile(src).unwrap();

        let mut on = vm_for(&p, &[]);
        on.set_count_loop_instr(true);
        run_main(&mut on, &mut NullObserver);

        let mut off = vm_for(&p, &[]);
        off.set_count_loop_instr(false);
        run_main(&mut off, &mut NullObserver);

        // Instrumented run retires more instructions (enter + 50 iters).
        assert_eq!(on.instrs(), off.instrs() + 51);
        // But executes the same statements.
        assert_eq!(on.steps(), off.steps());
    }

    #[test]
    fn natural_loops_cost_nothing() {
        let src =
            "global n: int; fn main() { var i; for (i = 0; i < 50; i = i + 1) { n = n + 1; } }";
        let p = mcr_lang::compile(src).unwrap();
        let mut on = vm_for(&p, &[]);
        on.set_count_loop_instr(true);
        run_main(&mut on, &mut NullObserver);
        let mut off = vm_for(&p, &[]);
        off.set_count_loop_instr(false);
        run_main(&mut off, &mut NullObserver);
        assert_eq!(on.instrs(), off.instrs());
    }

    #[test]
    fn null_deref_crashes_and_freezes() {
        let p = mcr_lang::compile("fn main() { var p; p = null; p[0] = 1; }").unwrap();
        let mut vm = vm_for(&p, &[]);
        run_main(&mut vm, &mut NullObserver);
        let f = vm.failure().expect("crash");
        assert_eq!(f.kind, FailureKind::NullDeref);
        // The crashing thread's pc still points at the faulting statement.
        let t = vm.thread(ThreadId(0));
        assert_eq!(t.state, ThreadState::Crashed);
        assert_eq!(t.pc().unwrap(), f.pc);
    }

    #[test]
    fn assert_failure() {
        let p = mcr_lang::compile("fn main() { assert(1 == 2); }").unwrap();
        let mut vm = vm_for(&p, &[]);
        run_main(&mut vm, &mut NullObserver);
        assert_eq!(vm.failure().unwrap().kind, FailureKind::AssertFailed);
    }

    #[test]
    fn div_by_zero() {
        for src in [
            "global x: int; fn main() { x = 1 / (x - x); }",
            "global x: int; fn main() { x = x / 0; }",
        ] {
            assert_crashes_at_first_stmt(src, FailureKind::DivByZero);
        }
    }

    #[test]
    fn calls_and_returns() {
        let p = mcr_lang::compile(
            "global x: int; fn add(a, b) { return a + b; } fn main() { x = add(20, 22); }",
        )
        .unwrap();
        let mut vm = vm_for(&p, &[]);
        let mut rec = Recorder::default();
        run_main(&mut vm, &mut rec);
        let g = p.global_by_name("x").unwrap();
        assert_eq!(vm.globals()[g.0 as usize], GSlot::Scalar(Value::Int(42)));
        // Enter and exit both observed.
        assert!(rec
            .events
            .iter()
            .any(|(_, e)| matches!(e, Event::FuncEnter { .. })));
        assert!(rec
            .events
            .iter()
            .any(|(_, e)| matches!(e, Event::FuncExit { .. })));
    }

    #[test]
    fn recursion_overflows() {
        let p = mcr_lang::compile("fn r() { r(); } fn main() { r(); }").unwrap();
        let mut vm = vm_for(&p, &[]);
        run_main(&mut vm, &mut NullObserver);
        assert_eq!(vm.failure().unwrap().kind, FailureKind::StackOverflow);
    }

    #[test]
    fn heap_alloc_and_access() {
        let p = mcr_lang::compile(
            "global x: int; fn main() { var p; p = alloc(3); p[2] = 9; x = p[2]; }",
        )
        .unwrap();
        let mut vm = vm_for(&p, &[]);
        run_main(&mut vm, &mut NullObserver);
        let g = p.global_by_name("x").unwrap();
        assert_eq!(vm.globals()[g.0 as usize], GSlot::Scalar(Value::Int(9)));
        assert_eq!(vm.heap_objects().count(), 1);
    }

    #[test]
    fn heap_out_of_bounds() {
        let p = mcr_lang::compile("fn main() { var p; p = alloc(2); p[5] = 1; }").unwrap();
        let mut vm = vm_for(&p, &[]);
        run_main(&mut vm, &mut NullObserver);
        assert_eq!(vm.failure().unwrap().kind, FailureKind::OutOfBounds);
    }

    #[test]
    fn spawn_and_lock_blocking() {
        let src = r#"
            global x: int;
            lock l;
            fn worker() { acquire l; x = x + 1; release l; }
            fn main() {
                var t;
                acquire l;
                t = spawn worker();
                x = 10;
                release l;
                join t;
            }
        "#;
        let p = mcr_lang::compile(src).unwrap();
        let mut vm = vm_for(&p, &[]);
        let main = ThreadId(0);
        // Drive main through `acquire l` and `spawn worker()` so it holds
        // the lock while the worker exists.
        for _ in 0..2 {
            vm.step(main, &mut NullObserver);
        }
        let worker = ThreadId(1);
        assert_eq!(vm.threads().len(), 2);
        // Worker's next statement is acquire of a held lock: not runnable.
        assert!(!vm.runnable(worker));
        // Main is not blocked.
        assert!(vm.runnable(main));
        // Finish main's critical section.
        while vm.runnable(main) {
            vm.step(main, &mut NullObserver);
        }
        // Main is now blocked on join; worker can run.
        assert!(vm.runnable(worker));
        while vm.runnable(worker) {
            vm.step(worker, &mut NullObserver);
        }
        assert!(vm.runnable(main));
        while vm.runnable(main) {
            vm.step(main, &mut NullObserver);
        }
        assert!(vm.all_done());
        let g = p.global_by_name("x").unwrap();
        assert_eq!(vm.globals()[g.0 as usize], GSlot::Scalar(Value::Int(11)));
    }

    #[test]
    fn release_without_hold_fails() {
        assert_crashes_at_first_stmt("lock l; fn main() { release l; }", FailureKind::LockMisuse);
    }

    #[test]
    fn sync_seq_increments() {
        let p =
            mcr_lang::compile("lock l; fn main() { acquire l; release l; acquire l; release l; }")
                .unwrap();
        let mut vm = vm_for(&p, &[]);
        let mut rec = Recorder::default();
        run_main(&mut vm, &mut rec);
        let seqs: Vec<u32> = rec
            .events
            .iter()
            .filter_map(|(_, e)| match e {
                Event::Sync { seq, .. } => Some(*seq),
                _ => None,
            })
            .collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn pointer_comparisons() {
        let p = mcr_lang::compile(
            "global x: int; fn main() { var p; if (p == null) { x = 1; } p = alloc(1); if (p != null) { x = x + 2; } }",
        )
        .unwrap();
        let mut vm = vm_for(&p, &[]);
        run_main(&mut vm, &mut NullObserver);
        let g = p.global_by_name("x").unwrap();
        assert_eq!(vm.globals()[g.0 as usize], GSlot::Scalar(Value::Int(3)));
    }

    #[test]
    fn clone_checkpoints_are_independent() {
        let p = mcr_lang::compile("global x: int; fn main() { x = 1; x = 2; x = 3; }").unwrap();
        let mut vm = vm_for(&p, &[]);
        vm.step(ThreadId(0), &mut NullObserver);
        let checkpoint = vm.clone();
        run_main(&mut vm, &mut NullObserver);
        let g = p.global_by_name("x").unwrap();
        assert_eq!(vm.globals()[g.0 as usize], GSlot::Scalar(Value::Int(3)));
        assert_eq!(
            checkpoint.globals()[g.0 as usize],
            GSlot::Scalar(Value::Int(1))
        );
    }

    #[test]
    fn outputs_are_recorded() {
        let p = mcr_lang::compile("fn main() { output(7); output(8); }").unwrap();
        let mut vm = vm_for(&p, &[]);
        run_main(&mut vm, &mut NullObserver);
        assert_eq!(vm.outputs(), &[Value::Int(7), Value::Int(8)]);
    }

    #[test]
    fn shared_reads_and_writes_are_observed() {
        let p = mcr_lang::compile("global x: int; fn main() { x = x + 1; }").unwrap();
        let mut vm = vm_for(&p, &[]);
        let mut rec = Recorder::default();
        run_main(&mut vm, &mut rec);
        let g = p.global_by_name("x").unwrap();
        assert!(rec.events.iter().any(|(_, e)| matches!(
            e,
            Event::Read { loc: MemLoc::Global(gg), .. } if *gg == g
        )));
        assert!(rec.events.iter().any(|(_, e)| matches!(
            e,
            Event::Write { loc: MemLoc::Global(gg), .. } if *gg == g
        )));
    }

    #[test]
    fn global_array_oob_crashes() {
        let p = mcr_lang::compile("global a: [int; 2]; fn main() { a[7] = 1; }").unwrap();
        let mut vm = vm_for(&p, &[]);
        run_main(&mut vm, &mut NullObserver);
        assert_eq!(vm.failure().unwrap().kind, FailureKind::GlobalOutOfBounds);
    }
}
