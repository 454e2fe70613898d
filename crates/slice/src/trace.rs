//! Dynamic dependence traces.
//!
//! The paper's Valgrind component collects an instruction trace for a
//! window of execution (20M instructions, §6) on which dynamic slicing
//! runs. Here a [`TraceCollector`] observes the VM event stream and builds
//! the same information natively: per executed statement, its used and
//! defined locations, the *dynamic data dependence* (which earlier
//! statement execution wrote each used value) and the *dynamic control
//! dependence* (which branch execution / call currently governs it).
//!
//! The trace is flat: one fixed-size [`TraceEvent`] record per executed
//! statement, with every event's uses and defs in two arrays shared by
//! the whole trace. The collector keeps the last `window` events as a
//! ring over those arrays.

use mcr_analysis::ProgramAnalysis;
use mcr_lang::{FuncId, Pc, StmtId};
use mcr_vm::{Event, MemLoc, Observer, ThreadId};
use std::collections::{HashMap, VecDeque};

/// One executed statement in the trace. Its used and defined locations
/// live in the owning [`Trace`]; read them with [`Trace::uses`] and
/// [`Trace::defs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Trace serial (monotonically increasing across the run; survives
    /// windowing).
    pub serial: u64,
    /// The VM step at which the statement executed.
    pub step: u64,
    /// Executing thread.
    pub tid: ThreadId,
    /// The statement.
    pub pc: Pc,
    /// Serial of the dynamically governing branch or call event.
    pub ctrl_dep: Option<u64>,
    /// Branch outcome, when the statement was a predicate.
    pub branch_outcome: Option<bool>,
    /// Offset of the first use in the trace's use array.
    uses_at: usize,
    /// Offset of the first def in the trace's def array.
    defs_at: usize,
    n_uses: u32,
    n_defs: u32,
}

/// A finalized dynamic trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Events in execution order (possibly a suffix window of the run).
    events: Vec<TraceEvent>,
    /// Every event's reads, with the serial of the writing event when
    /// known, back to back in event order.
    uses: Vec<(MemLoc, Option<u64>)>,
    /// Every event's writes, back to back in event order.
    defs: Vec<MemLoc>,
}

impl Trace {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events in execution order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The locations `ev` read, each with the serial of the event that
    /// wrote the value read, when known.
    pub fn uses(&self, ev: &TraceEvent) -> &[(MemLoc, Option<u64>)] {
        &self.uses[ev.uses_at..ev.uses_at + ev.n_uses as usize]
    }

    /// The locations `ev` wrote.
    pub fn defs(&self, ev: &TraceEvent) -> &[MemLoc] {
        &self.defs[ev.defs_at..ev.defs_at + ev.n_defs as usize]
    }

    /// The event with the given serial, if still in the window.
    pub fn by_serial(&self, serial: u64) -> Option<&TraceEvent> {
        let first = self.events.first()?.serial;
        let idx = serial.checked_sub(first)?;
        let ev = self.events.get(usize::try_from(idx).ok()?)?;
        debug_assert_eq!(ev.serial, serial);
        Some(ev)
    }

    /// The last event (the aligned point when collection stopped there).
    pub fn last(&self) -> Option<&TraceEvent> {
        self.events.last()
    }
}

#[derive(Debug, Clone, Copy)]
enum Region {
    /// An open branch region: governing serial, function, pop statement.
    Branch {
        serial: u64,
        func: FuncId,
        pop_at: Option<StmtId>,
    },
    /// A call boundary: statements above it are governed by the call.
    Call { serial: Option<u64> },
}

/// Observer that collects a (windowed) dynamic dependence trace.
#[derive(Debug)]
pub struct TraceCollector<'p> {
    analysis: &'p ProgramAnalysis,
    /// Events retained beyond this many are dropped oldest-first.
    window: usize,
    /// The ring of retained events; the back one is the statement
    /// executing now, whose uses and defs are still being appended.
    events: VecDeque<TraceEvent>,
    uses: VecDeque<(MemLoc, Option<u64>)>,
    defs: VecDeque<MemLoc>,
    /// How many uses / defs have left the ring: the record offsets count
    /// from the start of the run.
    uses_dropped: usize,
    defs_dropped: usize,
    next_serial: u64,
    last_writer: HashMap<MemLoc, u64>,
    /// Open control regions per thread, indexed by thread id.
    regions: Vec<Vec<Region>>,
}

impl<'p> TraceCollector<'p> {
    /// Creates a collector keeping at most `window` events in memory
    /// (the paper uses a 20M-instruction window; traces here are
    /// much denser in information per event, so windows of 10⁵–10⁶
    /// suffice).
    pub fn new(analysis: &'p ProgramAnalysis, window: usize) -> Self {
        TraceCollector {
            analysis,
            window,
            events: VecDeque::new(),
            uses: VecDeque::new(),
            defs: VecDeque::new(),
            uses_dropped: 0,
            defs_dropped: 0,
            next_serial: 0,
            last_writer: HashMap::new(),
            regions: Vec::new(),
        }
    }

    /// Finalizes and returns the collected trace.
    pub fn finish(self) -> Trace {
        let mut events = Vec::from(self.events);
        if self.uses_dropped > 0 || self.defs_dropped > 0 {
            for ev in &mut events {
                ev.uses_at -= self.uses_dropped;
                ev.defs_at -= self.defs_dropped;
            }
        }
        Trace {
            events,
            uses: Vec::from(self.uses),
            defs: Vec::from(self.defs),
        }
    }

    fn regions(&mut self, tid: ThreadId) -> &mut Vec<Region> {
        let i = tid.0 as usize;
        if i >= self.regions.len() {
            self.regions.resize_with(i + 1, Vec::new);
        }
        &mut self.regions[i]
    }

    /// Drops the oldest event, with its uses and defs, from the ring.
    fn evict(&mut self) {
        if let Some(old) = self.events.pop_front() {
            self.uses.drain(..old.n_uses as usize);
            self.defs.drain(..old.n_defs as usize);
            self.uses_dropped += old.n_uses as usize;
            self.defs_dropped += old.n_defs as usize;
        }
    }
}

impl Observer for TraceCollector<'_> {
    fn on_event(&mut self, step: u64, event: &Event) {
        match event {
            Event::Stmt { tid, pc, .. } => {
                // Close branch regions that post-dominate at this pc.
                let stack = self.regions(*tid);
                while let Some(Region::Branch { func, pop_at, .. }) = stack.last() {
                    if *func == pc.func && *pop_at == Some(pc.stmt) {
                        stack.pop();
                    } else {
                        break;
                    }
                }
                let ctrl_dep = match stack.last() {
                    Some(Region::Branch { serial, .. }) => Some(*serial),
                    Some(Region::Call { serial }) => *serial,
                    None => None,
                };
                if self.events.len() == self.window {
                    self.evict();
                }
                let serial = self.next_serial;
                self.next_serial += 1;
                self.events.push_back(TraceEvent {
                    serial,
                    step,
                    tid: *tid,
                    pc: *pc,
                    ctrl_dep,
                    branch_outcome: None,
                    uses_at: self.uses_dropped + self.uses.len(),
                    defs_at: self.defs_dropped + self.defs.len(),
                    n_uses: 0,
                    n_defs: 0,
                });
            }
            Event::Read { loc, .. } => {
                if let Some(cur) = self.events.back_mut() {
                    let writer = self.last_writer.get(loc).copied();
                    self.uses.push_back((*loc, writer));
                    cur.n_uses += 1;
                }
            }
            // Under TSO a buffered store is still the defining statement
            // for dataflow purposes: the value a later read observes (via
            // snooping or after the flush) originates here. The matching
            // `StoreFlushed` is visibility bookkeeping, not a second def,
            // and falls through to the ignore arm.
            Event::Write { loc, .. } | Event::StoreBuffered { loc, .. } => {
                if let Some(cur) = self.events.back_mut() {
                    self.defs.push_back(*loc);
                    cur.n_defs += 1;
                    self.last_writer.insert(*loc, cur.serial);
                }
            }
            Event::Branch { tid, pc, outcome } => {
                let Some(cur) = self.events.back_mut() else {
                    return;
                };
                cur.branch_outcome = Some(*outcome);
                let serial = cur.serial;
                let pop_at = self.analysis.func(pc.func).ipdom_stmt(pc.stmt);
                self.regions(*tid).push(Region::Branch {
                    serial,
                    func: pc.func,
                    pop_at,
                });
            }
            Event::FuncEnter { tid, .. } => {
                // The governing event of the callee's statements is the
                // call/spawn statement currently executing (if any — the
                // main thread's root has none).
                let serial = self.events.back().map(|c| c.serial);
                self.regions(*tid).push(Region::Call { serial });
            }
            Event::FuncExit { tid, .. } => {
                let stack = self.regions(*tid);
                while let Some(top) = stack.pop() {
                    if matches!(top, Region::Call { .. }) {
                        break;
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcr_analysis::ProgramAnalysis;
    use mcr_vm::{run, DeterministicScheduler, Vm};

    fn collect_window(src: &str, input: &[i64], window: usize) -> Trace {
        let p = mcr_lang::compile(src).unwrap();
        let a = ProgramAnalysis::analyze(&p);
        let mut vm = Vm::new(&p, input);
        let mut s = DeterministicScheduler::new();
        let mut tc = TraceCollector::new(&a, window);
        run(&mut vm, &mut s, &mut tc, 1_000_000);
        tc.finish()
    }

    fn collect(src: &str, input: &[i64]) -> Trace {
        collect_window(src, input, 1_000_000)
    }

    #[test]
    fn data_dependences_link_writer_to_reader() {
        let t = collect(
            "global x: int; global y: int; fn main() { x = 3; y = x; }",
            &[],
        );
        // Find `y = x`: it reads x with a writer serial pointing at `x = 3`.
        let reader = t
            .events()
            .iter()
            .find(|e| !t.uses(e).is_empty() && !t.defs(e).is_empty())
            .expect("y = x");
        let (_, writer) = t.uses(reader)[0];
        let w = t.by_serial(writer.expect("writer known")).unwrap();
        assert!(w.serial < reader.serial);
        assert_eq!(t.defs(w).len(), 1);
    }

    #[test]
    fn control_dependence_points_at_branch() {
        let t = collect("global x: int; fn main() { if (x == 0) { x = 7; } }", &[]);
        let branch = t
            .events()
            .iter()
            .find(|e| e.branch_outcome.is_some())
            .unwrap();
        let inner = t
            .events()
            .iter()
            .find(|e| e.serial > branch.serial && !t.defs(e).is_empty())
            .expect("x = 7");
        assert_eq!(inner.ctrl_dep, Some(branch.serial));
    }

    #[test]
    fn callee_statements_governed_by_call() {
        let t = collect("global x: int; fn f() { x = 5; } fn main() { f(); }", &[]);
        let call = t
            .events()
            .iter()
            .find(|e| matches!(e.pc.func, f if f == mcr_lang::FuncId(1)) && t.defs(e).is_empty())
            .expect("call stmt in main");
        let body = t
            .events()
            .iter()
            .find(|e| e.pc.func == mcr_lang::FuncId(0) && !t.defs(e).is_empty())
            .expect("x = 5 in f");
        assert_eq!(body.ctrl_dep, Some(call.serial));
    }

    #[test]
    fn window_keeps_suffix() {
        let src = "global n: int; fn main() { var i; while (i < 50) { i = i + 1; } }";
        let t = collect_window(src, &[], 10);
        assert_eq!(t.len(), 10);
        // Serials are contiguous and lookups work.
        let first = t.events().first().unwrap().serial;
        assert!(t.by_serial(first + 5).is_some());
        assert!(t.by_serial(first.wrapping_sub(1)).is_none());
    }

    /// The ring keeps exactly the unwindowed trace's suffix: the same
    /// records, uses and defs, for windows that cut mid-loop.
    #[test]
    fn windowed_trace_is_the_full_trace_suffix() {
        let full = collect(LOOP_SRC, &[]);
        assert!(full.events().iter().any(|e| !full.uses(e).is_empty()));
        for window in [1, 7, 64, 300] {
            let t = collect_window(LOOP_SRC, &[], window);
            assert_eq!(t.len(), window.min(full.len()));
            let tail = &full.events()[full.len() - t.len()..];
            for (w, f) in t.events().iter().zip(tail) {
                assert_eq!(
                    (w.serial, w.step, w.tid, w.pc, w.ctrl_dep, w.branch_outcome),
                    (f.serial, f.step, f.tid, f.pc, f.ctrl_dep, f.branch_outcome)
                );
                assert_eq!(t.uses(w), full.uses(f));
                assert_eq!(t.defs(w), full.defs(f));
            }
        }
    }

    const LOOP_SRC: &str = r#"
        global x: int;
        global a: [int; 8];
        fn main() {
            var i;
            while (i < 200) {
                i = i + 1;
                x = x + i;
                a[0] = x;
                if (x > 100) { a[1] = i; }
            }
        }
    "#;

    #[test]
    fn loop_body_governed_by_header() {
        let t = collect(
            "global n: int; fn main() { var i; while (i < 3) { i = i + 1; } }",
            &[],
        );
        let headers: Vec<u64> = t
            .events()
            .iter()
            .filter(|e| e.branch_outcome.is_some())
            .map(|e| e.serial)
            .collect();
        assert_eq!(headers.len(), 4, "3 true + 1 false evaluations");
        // Each `i = i + 1` is governed by the nearest preceding header.
        for ev in t.events().iter().filter(|e| !t.defs(e).is_empty()) {
            if let Some(cd) = ev.ctrl_dep {
                assert!(headers.contains(&cd) || cd < headers[0]);
            }
        }
    }
}
