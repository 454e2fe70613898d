//! Reverse engineering a failure index from a core dump — Algorithm 1.
//!
//! Given only the failure PC, the calling context, and the loop counters
//! recorded in the dump's stack frames, rebuild the execution index of the
//! failure point:
//!
//! * no control dependence → the statement nests in its method body; the
//!   call stack supplies the parent and the walk continues at the call
//!   site (lines 2–6),
//! * nesting in a loop → the frame's loop counter gives the multiplicity:
//!   insert that many copies of the loop-predicate entry (lines 7–13),
//! * single or aggregatable dependences → one predicate-region entry
//!   (lines 16–19),
//! * non-aggregatable dependences → the closest common single-CD
//!   ancestor, losing some precision that the alignment rules tolerate
//!   (lines 21–23).

use crate::index::{ExecutionIndex, IndexEntry};
use mcr_analysis::{ParentStep, PredKey, ProgramAnalysis};
use mcr_dump::CoreDump;
use mcr_lang::{Pc, Program, StmtId};
use std::error::Error;
use std::fmt;

/// Error during index reverse engineering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReverseError {
    /// The dump's focus thread has no frames (it had already finished).
    NoFrames,
    /// A frame referenced a function or statement out of range (corrupt
    /// dump).
    BadFrame {
        /// Frame depth (0 = outermost).
        depth: usize,
    },
    /// A loop counter slot was missing from a frame (the program was not
    /// instrumented the way the paper's production build requires).
    MissingCounter {
        /// Frame depth.
        depth: usize,
        /// Loop id within the function.
        loop_id: u32,
    },
    /// A loop counter exceeds the dump's step count. Every iteration
    /// executes at least one statement, so the dump is corrupt.
    CounterOutOfRange {
        /// Frame depth.
        depth: usize,
        /// Loop id within the function.
        loop_id: u32,
        /// The counter.
        counter: i64,
        /// Statements executed when the dump was taken.
        steps: u64,
    },
}

impl fmt::Display for ReverseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReverseError::NoFrames => write!(f, "focus thread has no live frames"),
            ReverseError::BadFrame { depth } => {
                write!(f, "frame {depth} references an invalid statement")
            }
            ReverseError::MissingCounter { depth, loop_id } => {
                write!(f, "frame {depth} lacks a counter for loop {loop_id}")
            }
            ReverseError::CounterOutOfRange {
                depth,
                loop_id,
                counter,
                steps,
            } => write!(
                f,
                "frame {depth} counts {counter} iterations of loop {loop_id} \
                 in a dump of {steps} steps"
            ),
        }
    }
}

impl Error for ReverseError {}

/// Reverse engineers the execution index of the dump's failure point
/// (the focus thread's current statement).
///
/// # Errors
///
/// Returns [`ReverseError`] on corrupt dumps; see the variants.
pub fn reverse_index(
    program: &Program,
    analysis: &ProgramAnalysis,
    dump: &CoreDump,
) -> Result<ExecutionIndex, ReverseError> {
    let frames = &dump.focus_thread().frames;
    if frames.is_empty() {
        return Err(ReverseError::NoFrames);
    }
    // The entries are built leaf first, in reverse, and turned around
    // once at the end.
    let mut entries: Vec<IndexEntry> = Vec::new();

    // The leaf: the failure PC itself.
    let innermost = frames.last().expect("nonempty");
    entries.push(IndexEntry::Stmt(Pc::new(innermost.func, innermost.pc)));

    // Walk frames innermost -> outermost; each frame contributes the
    // regions enclosing its pc, then a Func entry.
    for (rev_depth, frame) in frames.iter().rev().enumerate() {
        let depth = frames.len() - 1 - rev_depth;
        let func_id = frame.func;
        let Some(func) = program.funcs.get(func_id.0 as usize) else {
            return Err(ReverseError::BadFrame { depth });
        };
        if frame.pc.0 as usize >= func.body.len() {
            return Err(ReverseError::BadFrame { depth });
        }
        let fa = analysis.func(func_id);

        let counter = |header: StmtId| -> Result<i64, ReverseError> {
            let lid = func
                .loop_header(header)
                .ok_or(ReverseError::BadFrame { depth })?;
            let n = frame.loop_counters.get(lid.0 as usize).copied().ok_or(
                ReverseError::MissingCounter {
                    depth,
                    loop_id: lid.0,
                },
            )?;
            if u64::try_from(n).is_ok_and(|n| n > dump.steps) {
                return Err(ReverseError::CounterOutOfRange {
                    depth,
                    loop_id: lid.0,
                    counter: n,
                    steps: dump.steps,
                });
            }
            Ok(n)
        };

        // `n` copies of `e` in front of the entries built so far.
        let prepend = |e: IndexEntry, n: i64, entries: &mut Vec<IndexEntry>| {
            let n = usize::try_from(n).unwrap_or(0);
            entries.extend(std::iter::repeat_n(e, n));
        };

        let mut cur = frame.pc;
        // If the pc is itself a loop predicate, its own iteration entries
        // come first (paper: "if the given PC is a loop predicate, its
        // parent node ... can be reverse engineered as well").
        if func.loop_header(cur).is_some() {
            prepend(
                IndexEntry::Branch {
                    func: func_id,
                    key: PredKey::Stmt(cur),
                    outcome: true,
                },
                counter(cur)?,
                &mut entries,
            );
        }
        // Walk outward to the function boundary.
        let mut guard = 0usize;
        loop {
            guard += 1;
            if guard > func.body.len() + 8 {
                return Err(ReverseError::BadFrame { depth });
            }
            match fa.index_parent(func, cur) {
                ParentStep::MethodBody => {
                    prepend(IndexEntry::Func(func_id), 1, &mut entries);
                    break;
                }
                ParentStep::Loop { header } => {
                    prepend(
                        IndexEntry::Branch {
                            func: func_id,
                            key: PredKey::Stmt(header),
                            outcome: true,
                        },
                        counter(header)?,
                        &mut entries,
                    );
                    cur = header;
                }
                ParentStep::Pred { key, outcome, .. } => {
                    prepend(
                        IndexEntry::Branch {
                            func: func_id,
                            key,
                            outcome,
                        },
                        1,
                        &mut entries,
                    );
                    let rep = fa.rep_stmt(func, key);
                    // Defensive: a lossy common ancestor could land on a
                    // loop header; account its iterations (minus the entry
                    // just added if it is the loop entry itself).
                    if func.loop_header(rep).is_some() {
                        prepend(
                            IndexEntry::Branch {
                                func: func_id,
                                key: PredKey::Stmt(rep),
                                outcome: true,
                            },
                            counter(rep)?.saturating_sub(1),
                            &mut entries,
                        );
                    }
                    cur = rep;
                }
            }
        }
    }
    entries.reverse();
    Ok(ExecutionIndex::new(entries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcr_analysis::ProgramAnalysis;
    use mcr_dump::CoreDump;
    use mcr_lang::FuncId;
    use mcr_vm::{run, DeterministicScheduler, NullObserver, Vm};

    /// The paper's Fig. 1/2/3 running example, with `a` set so the second
    /// iteration takes the `a[i] > 0` branch and crashes via F(null) —
    /// even single-threaded (we force x to stay 0 to trigger the call).
    /// We emulate the failing interleaving's *state* deterministically so
    /// the reverse-engineered index can be checked exactly.
    fn fig1_crash() -> (mcr_lang::Program, ProgramAnalysis, CoreDump) {
        // Single-threaded variant that reaches the same failure point with
        // the same nesting: in iteration 2, p = null and x == 0 => F(p)
        // crashes at p[0].
        let src = r#"
            global x: int;
            global a: [int; 3];
            fn F(p) { p[0] = 1; }
            fn T1() {
                var i;
                var p;
                for (i = 1; i <= 2; i = i + 1) {
                    x = 0;
                    p = alloc(2);
                    if (a[i] > 0) {
                        x = 1;
                        p = null;
                    }
                    x = 0;        // stand-in for T2's racing write
                    if (!x) {
                        F(p);
                    }
                }
            }
            fn main() { T1(); }
        "#;
        // Feed `a` through the `input` convention so a[2] > 0 makes the
        // second iteration null the pointer.
        let src3 = src
            .replace("global a: [int; 3];", "global input: [int; 3];")
            .replace("a[i]", "input[i]");
        let p = mcr_lang::compile(&src3).unwrap();
        let a = ProgramAnalysis::analyze(&p);
        let mut vm = Vm::new(&p, &[0, 0, 1]);
        let mut s = DeterministicScheduler::new();
        run(&mut vm, &mut s, &mut NullObserver, 100_000);
        let dump = CoreDump::capture_failure(&vm).expect("must crash");
        (p, a, dump)
    }

    #[test]
    fn fig1_index_structure() {
        let (p, a, dump) = fig1_crash();
        let idx = reverse_index(&p, &a, &dump).unwrap();
        let s = idx.display(&p).to_string();
        // Expected structure (paper Fig. 3):
        // main -> T1 -> for^T -> for^T -> ifT(!x) -> F -> leaf
        // Loop entries: exactly 2 (crash in iteration 2).
        let t1 = p.func_by_name("T1").unwrap();
        let f = p.func_by_name("F").unwrap();
        let loop_header = p.func(t1).loops[0].header;
        let loop_entries = idx
            .entries
            .iter()
            .filter(|e| {
                matches!(e, IndexEntry::Branch { func, key: PredKey::Stmt(h), .. }
                    if *func == t1 && *h == loop_header)
            })
            .count();
        assert_eq!(loop_entries, 2, "index: {s}");
        // Function nesting main -> T1 -> F appears in order.
        let func_order: Vec<_> = idx
            .entries
            .iter()
            .filter_map(|e| match e {
                IndexEntry::Func(fid) => Some(*fid),
                _ => None,
            })
            .collect();
        assert_eq!(func_order, vec![p.main, t1, f], "index: {s}");
        // Leaf is the crash point inside F.
        assert_eq!(idx.leaf().unwrap().func, f);
    }

    #[test]
    fn iteration_count_matches_crash_iteration() {
        // Crash in iteration K of a while loop: K loop entries.
        for k in [1i64, 3, 7] {
            let src = r#"
                global input: [int; 1];
                fn main() {
                    var i; var p;
                    while (i < 10) {
                        i = i + 1;
                        if (i == input[0]) { p = null; p[0] = 1; }
                    }
                }
            "#;
            let p = mcr_lang::compile(src).unwrap();
            let a = ProgramAnalysis::analyze(&p);
            let mut vm = Vm::new(&p, &[k]);
            let mut s = DeterministicScheduler::new();
            run(&mut vm, &mut s, &mut NullObserver, 100_000);
            let dump = CoreDump::capture_failure(&vm).expect("crash");
            let idx = reverse_index(&p, &a, &dump).unwrap();
            let header = p.func(p.main).loops[0].header;
            let loops = idx
                .entries
                .iter()
                .filter(|e| {
                    matches!(e, IndexEntry::Branch { key: PredKey::Stmt(h), .. } if *h == header)
                })
                .count();
            assert_eq!(loops as i64, k, "k={k}: {}", idx.display(&p));
        }
    }

    #[test]
    fn nested_loops_use_both_counters() {
        let src = r#"
            global input: [int; 2];
            fn main() {
                var i; var j; var p;
                while (i < 5) {
                    i = i + 1;
                    j = 0;
                    while (j < 5) {
                        j = j + 1;
                        if (i == input[0]) {
                            if (j == input[1]) { p = null; p[0] = 1; }
                        }
                    }
                }
            }
        "#;
        let p = mcr_lang::compile(src).unwrap();
        let a = ProgramAnalysis::analyze(&p);
        let mut vm = Vm::new(&p, &[3, 2]);
        let mut s = DeterministicScheduler::new();
        run(&mut vm, &mut s, &mut NullObserver, 100_000);
        let dump = CoreDump::capture_failure(&vm).expect("crash");
        let idx = reverse_index(&p, &a, &dump).unwrap();
        let outer = p.func(p.main).loops[0].header;
        let inner = p.func(p.main).loops[1].header;
        let count = |h| {
            idx.entries
                .iter()
                .filter(
                    |e| matches!(e, IndexEntry::Branch { key: PredKey::Stmt(hh), .. } if *hh == h),
                )
                .count() as i64
        };
        assert_eq!(count(outer), 3, "{}", idx.display(&p));
        assert_eq!(count(inner), 2, "{}", idx.display(&p));
    }

    #[test]
    fn cluster_entry_in_reversed_index() {
        let src = r#"
            global input: [int; 2];
            fn main() {
                var p;
                if (input[0] > 0 || input[1] > 0) {
                    p = null;
                    p[0] = 1;
                }
            }
        "#;
        let p = mcr_lang::compile(src).unwrap();
        let a = ProgramAnalysis::analyze(&p);
        let mut vm = Vm::new(&p, &[0, 1]);
        let mut s = DeterministicScheduler::new();
        run(&mut vm, &mut s, &mut NullObserver, 100_000);
        let dump = CoreDump::capture_failure(&vm).expect("crash");
        let idx = reverse_index(&p, &a, &dump).unwrap();
        assert!(
            idx.entries.iter().any(|e| matches!(
                e,
                IndexEntry::Branch {
                    key: PredKey::Cluster(_),
                    outcome: true,
                    ..
                }
            )),
            "{}",
            idx.display(&p)
        );
    }

    /// The focus thread's frames, outermost first.
    fn focus_frames(dump: &mut CoreDump) -> &mut Vec<mcr_dump::FrameImage> {
        let focus = dump.focus.0 as usize;
        &mut dump.threads[focus].frames
    }

    #[test]
    fn out_of_range_frame_function_is_a_bad_frame() {
        let (p, a, dump) = fig1_crash();
        let depth = dump.focus_thread().frames.len() - 1;
        assert!(depth > 0, "fig. 1 crashes in a callee");
        for (at, want) in [(depth, depth), (0, 0)] {
            let mut bad = dump.clone();
            focus_frames(&mut bad)[at].func = FuncId(999);
            let err = Err(ReverseError::BadFrame { depth: want });
            assert_eq!(reverse_index(&p, &a, &bad), err, "frame {at} in memory");
            // The dump codec does not check frames against a program, so
            // the same dump also arrives from bytes.
            let decoded = mcr_dump::decode(&mcr_dump::encode(&bad)).unwrap();
            assert_eq!(reverse_index(&p, &a, &decoded), err, "frame {at} decoded");
        }
    }

    /// A crash in iteration 3 of `main`'s loop, and its dump.
    fn loop_crash() -> (mcr_lang::Program, ProgramAnalysis, CoreDump) {
        let src = r#"
            global input: [int; 1];
            fn main() {
                var i; var p;
                while (i < 10) {
                    i = i + 1;
                    if (i == input[0]) { p = null; p[0] = 1; }
                }
            }
        "#;
        let p = mcr_lang::compile(src).unwrap();
        let a = ProgramAnalysis::analyze(&p);
        let mut vm = Vm::new(&p, &[3]);
        run(
            &mut vm,
            &mut DeterministicScheduler::new(),
            &mut NullObserver,
            100_000,
        );
        let dump = CoreDump::capture_failure(&vm).expect("crash");
        assert_eq!(dump.focus_thread().frames[0].loop_counters, vec![3]);
        (p, a, dump)
    }

    #[test]
    fn a_million_iterations_build_in_linear_time() {
        // Prepending each iteration's entry made this quadratic: a
        // counter of a million took minutes.
        let (p, a, mut dump) = loop_crash();
        let len = reverse_index(&p, &a, &dump).unwrap().entries.len();
        let n = 1_000_000;
        focus_frames(&mut dump)[0].loop_counters[0] = n;
        dump.steps = n as u64;
        let idx = reverse_index(&p, &a, &dump).unwrap();
        assert_eq!(idx.entries.len(), len - 3 + n as usize);
        assert_eq!(idx.entries[0], IndexEntry::Func(p.main));
        assert!(matches!(idx.entries.last(), Some(IndexEntry::Stmt(_))));
    }

    #[test]
    fn counter_above_the_step_count_is_an_error() {
        let (p, a, mut dump) = loop_crash();
        let steps = dump.steps;
        focus_frames(&mut dump)[0].loop_counters[0] = steps as i64 + 1;
        assert_eq!(
            reverse_index(&p, &a, &dump),
            Err(ReverseError::CounterOutOfRange {
                depth: 0,
                loop_id: 0,
                counter: steps as i64 + 1,
                steps,
            })
        );
        // A forged counter far beyond any run fails just as fast.
        focus_frames(&mut dump)[0].loop_counters[0] = 1 << 40;
        assert!(matches!(
            reverse_index(&p, &a, &dump),
            Err(ReverseError::CounterOutOfRange { .. })
        ));
    }

    #[test]
    fn no_frames_is_an_error() {
        let p = mcr_lang::compile("fn main() { }").unwrap();
        let a = ProgramAnalysis::analyze(&p);
        let mut vm = Vm::new(&p, &[]);
        let mut s = DeterministicScheduler::new();
        run(&mut vm, &mut s, &mut NullObserver, 1000);
        let dump = CoreDump::capture(&vm, mcr_vm::ThreadId(0), mcr_dump::DumpReason::Manual);
        assert_eq!(reverse_index(&p, &a, &dump), Err(ReverseError::NoFrames));
    }
}
