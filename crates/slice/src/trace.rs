//! Dynamic dependence traces.
//!
//! The paper's Valgrind component collects an instruction trace for a
//! window of execution (20M instructions, §6) on which dynamic slicing
//! runs. Here a [`TraceCollector`] observes the VM event stream and builds
//! the same information natively: per executed statement, its used and
//! defined locations, the *dynamic data dependence* (which earlier
//! statement execution wrote each used value) and the *dynamic control
//! dependence* (which branch execution / call currently governs it).
//! The collector keeps the last `window` events in an in-memory ring.

use mcr_analysis::ProgramAnalysis;
use mcr_dump::wire::{Reader, Writer};
use mcr_dump::DecodeError;
use mcr_lang::{FuncId, Pc, Program, StmtId};
use mcr_vm::{Event, MemLoc, Observer, ThreadId};
use std::collections::{HashMap, VecDeque};

/// One executed statement in the trace.
#[derive(Debug, Clone, PartialEq)]
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
    /// Locations read, with the serial of the writing event when known.
    pub uses: Vec<(MemLoc, Option<u64>)>,
    /// Locations written.
    pub defs: Vec<MemLoc>,
    /// Serial of the dynamically governing branch or call event.
    pub ctrl_dep: Option<u64>,
    /// Branch outcome, when the statement was a predicate.
    pub branch_outcome: Option<bool>,
}

impl TraceEvent {
    /// Whether this event reads `loc`.
    pub fn reads(&self, loc: MemLoc) -> bool {
        self.uses.iter().any(|&(l, _)| l == loc)
    }

    /// Whether this event writes `loc`.
    pub fn writes(&self, loc: MemLoc) -> bool {
        self.defs.contains(&loc)
    }

    /// Whether this event touches `loc` at all.
    pub fn touches(&self, loc: MemLoc) -> bool {
        self.reads(loc) || self.writes(loc)
    }
}

/// Appends one trace event on the wire codec — the trace-event byte
/// layout `mcr-core`'s diff artifact embeds.
pub fn write_trace_event(w: &mut Writer, e: &TraceEvent) {
    w.uvarint(e.serial);
    w.uvarint(e.step);
    w.uvarint(e.tid.0 as u64);
    w.pc(e.pc);
    w.uvarint(e.uses.len() as u64);
    for &(loc, writer) in &e.uses {
        w.memloc(loc);
        w.opt_uvarint(writer);
    }
    w.uvarint(e.defs.len() as u64);
    for &loc in &e.defs {
        w.memloc(loc);
    }
    w.opt_uvarint(e.ctrl_dep);
    match e.branch_outcome {
        None => w.u8(0),
        Some(false) => w.u8(1),
        Some(true) => w.u8(2),
    }
}

/// Reads one trace event (inverse of [`write_trace_event`]).
///
/// # Errors
///
/// Returns [`DecodeError`] on truncated or malformed input.
pub fn read_trace_event(r: &mut Reader<'_>) -> Result<TraceEvent, DecodeError> {
    let serial = r.uvarint()?;
    let step = r.uvarint()?;
    let tid = ThreadId(r.uvarint()? as u32);
    let pc = r.pc()?;
    let n = r.len("trace uses")?;
    let mut uses = Vec::with_capacity(n.min(65536));
    for _ in 0..n {
        let loc = r.memloc()?;
        uses.push((loc, r.opt_uvarint()?));
    }
    let n = r.len("trace defs")?;
    let mut defs = Vec::with_capacity(n.min(65536));
    for _ in 0..n {
        defs.push(r.memloc()?);
    }
    let ctrl_dep = r.opt_uvarint()?;
    let branch_outcome = match r.u8()? {
        0 => None,
        1 => Some(false),
        2 => Some(true),
        t => return r.err(format!("bad branch outcome tag {t}")),
    };
    Ok(TraceEvent {
        serial,
        step,
        tid,
        pc,
        uses,
        defs,
        ctrl_dep,
        branch_outcome,
    })
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
    program: &'p Program,
    analysis: &'p ProgramAnalysis,
    /// Events retained beyond this many are dropped oldest-first.
    window: usize,
    events: VecDeque<TraceEvent>,
    current: Option<TraceEvent>,
    next_serial: u64,
    last_writer: HashMap<MemLoc, u64>,
    regions: HashMap<ThreadId, Vec<Region>>,
}

impl<'p> TraceCollector<'p> {
    /// Creates a collector keeping at most `window` events in memory
    /// (the paper uses a 20M-instruction window; traces here are
    /// much denser in information per event, so windows of 10⁵–10⁶
    /// suffice).
    pub fn new(program: &'p Program, analysis: &'p ProgramAnalysis, window: usize) -> Self {
        TraceCollector {
            program,
            analysis,
            window,
            events: VecDeque::new(),
            current: None,
            next_serial: 0,
            last_writer: HashMap::new(),
            regions: HashMap::new(),
        }
    }

    /// Finalizes and returns the collected trace.
    pub fn finish(mut self) -> Trace {
        self.flush();
        Trace {
            events: self.events.into_iter().collect(),
        }
    }

    fn flush(&mut self) {
        if let Some(ev) = self.current.take() {
            if self.events.len() == self.window {
                self.events.pop_front();
            }
            self.events.push_back(ev);
        }
    }

    fn governing(&self, tid: ThreadId) -> Option<u64> {
        match self.regions.get(&tid)?.last()? {
            Region::Branch { serial, .. } => Some(*serial),
            Region::Call { serial } => *serial,
        }
    }
}

impl Observer for TraceCollector<'_> {
    fn on_event(&mut self, step: u64, event: &Event) {
        match event {
            Event::Stmt { tid, pc, .. } => {
                self.flush();
                // Close branch regions that post-dominate at this pc.
                let stack = self.regions.entry(*tid).or_default();
                while let Some(Region::Branch { func, pop_at, .. }) = stack.last() {
                    if *func == pc.func && *pop_at == Some(pc.stmt) {
                        stack.pop();
                    } else {
                        break;
                    }
                }
                let ctrl_dep = self.governing(*tid);
                let serial = self.next_serial;
                self.next_serial += 1;
                self.current = Some(TraceEvent {
                    serial,
                    step,
                    tid: *tid,
                    pc: *pc,
                    uses: Vec::new(),
                    defs: Vec::new(),
                    ctrl_dep,
                    branch_outcome: None,
                });
            }
            Event::Read { loc, .. } => {
                if let Some(cur) = &mut self.current {
                    let writer = self.last_writer.get(loc).copied();
                    cur.uses.push((*loc, writer));
                }
            }
            // Under TSO a buffered store is still the defining statement
            // for dataflow purposes: the value a later read observes (via
            // snooping or after the flush) originates here. The matching
            // `StoreFlushed` is visibility bookkeeping, not a second def,
            // and falls through to the ignore arm.
            Event::Write { loc, .. } | Event::StoreBuffered { loc, .. } => {
                if let Some(cur) = &mut self.current {
                    cur.defs.push(*loc);
                    self.last_writer.insert(*loc, cur.serial);
                }
            }
            Event::Branch { tid, pc, outcome } => {
                let serial = match &mut self.current {
                    Some(cur) => {
                        cur.branch_outcome = Some(*outcome);
                        cur.serial
                    }
                    None => return,
                };
                let fa = self.analysis.func(pc.func);
                let pop_at = fa.ipdom_stmt(pc.stmt);
                let _ = self.program;
                self.regions.entry(*tid).or_default().push(Region::Branch {
                    serial,
                    func: pc.func,
                    pop_at,
                });
            }
            Event::FuncEnter { tid, .. } => {
                // The governing event of the callee's statements is the
                // call/spawn statement currently executing (if any — the
                // main thread's root has none).
                let serial = self.current.as_ref().map(|c| c.serial);
                self.regions
                    .entry(*tid)
                    .or_default()
                    .push(Region::Call { serial });
            }
            Event::FuncExit { tid, .. } => {
                let stack = self.regions.entry(*tid).or_default();
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

/// A finalized dynamic trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Events in execution order (possibly a suffix window of the run).
    pub events: Vec<TraceEvent>,
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

    /// The event with the given serial, if still in the window.
    pub fn by_serial(&self, serial: u64) -> Option<&TraceEvent> {
        let first = self.events.first()?.serial;
        let idx = serial.checked_sub(first)? as usize;
        let ev = self.events.get(idx)?;
        debug_assert_eq!(ev.serial, serial);
        Some(ev)
    }

    /// The last event (the aligned point when collection stopped there).
    pub fn last(&self) -> Option<&TraceEvent> {
        self.events.last()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcr_analysis::ProgramAnalysis;
    use mcr_vm::{run, DeterministicScheduler, Vm};

    fn collect(src: &str, input: &[i64]) -> (mcr_lang::Program, Trace) {
        let p = mcr_lang::compile(src).unwrap();
        let a = ProgramAnalysis::analyze(&p);
        let mut vm = Vm::new(&p, input);
        let mut s = DeterministicScheduler::new();
        let mut tc = TraceCollector::new(&p, &a, 1_000_000);
        run(&mut vm, &mut s, &mut tc, 1_000_000);
        let t = tc.finish();
        (p, t)
    }

    #[test]
    fn data_dependences_link_writer_to_reader() {
        let (_p, t) = collect(
            "global x: int; global y: int; fn main() { x = 3; y = x; }",
            &[],
        );
        // Find `y = x`: it reads x with a writer serial pointing at `x = 3`.
        let reader = t
            .events
            .iter()
            .find(|e| !e.uses.is_empty() && !e.defs.is_empty())
            .expect("y = x");
        let (_, writer) = reader.uses[0];
        let w = t.by_serial(writer.expect("writer known")).unwrap();
        assert!(w.serial < reader.serial);
        assert_eq!(w.defs.len(), 1);
    }

    #[test]
    fn control_dependence_points_at_branch() {
        let (_p, t) = collect("global x: int; fn main() { if (x == 0) { x = 7; } }", &[]);
        let branch = t
            .events
            .iter()
            .find(|e| e.branch_outcome.is_some())
            .unwrap();
        let inner = t
            .events
            .iter()
            .find(|e| e.serial > branch.serial && !e.defs.is_empty())
            .expect("x = 7");
        assert_eq!(inner.ctrl_dep, Some(branch.serial));
    }

    #[test]
    fn callee_statements_governed_by_call() {
        let (_p, t) = collect("global x: int; fn f() { x = 5; } fn main() { f(); }", &[]);
        let call = t
            .events
            .iter()
            .find(|e| matches!(e.pc.func, f if f == mcr_lang::FuncId(1)) && e.defs.is_empty())
            .expect("call stmt in main");
        let body = t
            .events
            .iter()
            .find(|e| e.pc.func == mcr_lang::FuncId(0) && !e.defs.is_empty())
            .expect("x = 5 in f");
        assert_eq!(body.ctrl_dep, Some(call.serial));
    }

    #[test]
    fn window_keeps_suffix() {
        let src = "global n: int; fn main() { var i; while (i < 50) { i = i + 1; } }";
        let p = mcr_lang::compile(src).unwrap();
        let a = ProgramAnalysis::analyze(&p);
        let mut vm = Vm::new(&p, &[]);
        let mut s = DeterministicScheduler::new();
        let mut tc = TraceCollector::new(&p, &a, 10);
        run(&mut vm, &mut s, &mut tc, 1_000_000);
        let t = tc.finish();
        assert_eq!(t.len(), 10);
        // Serials are contiguous and lookups work.
        let first = t.events.first().unwrap().serial;
        assert!(t.by_serial(first + 5).is_some());
        assert!(t.by_serial(first.wrapping_sub(1)).is_none());
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
    fn trace_event_codec_round_trips() {
        let (_p, t) = collect(LOOP_SRC, &[]);
        assert!(t.events.iter().any(|e| !e.uses.is_empty()));
        for e in &t.events {
            let mut w = Writer::new();
            write_trace_event(&mut w, e);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(&read_trace_event(&mut r).unwrap(), e);
            r.finish().unwrap();
        }
    }

    #[test]
    fn loop_body_governed_by_header() {
        let (_p, t) = collect(
            "global n: int; fn main() { var i; while (i < 3) { i = i + 1; } }",
            &[],
        );
        let headers: Vec<u64> = t
            .events
            .iter()
            .filter(|e| e.branch_outcome.is_some())
            .map(|e| e.serial)
            .collect();
        assert_eq!(headers.len(), 4, "3 true + 1 false evaluations");
        // Each `i = i + 1` is governed by the nearest preceding header.
        for ev in t.events.iter().filter(|e| !e.defs.is_empty()) {
            if let Some(cd) = ev.ctrl_dep {
                assert!(headers.contains(&cd) || cd < headers[0]);
            }
        }
    }
}
