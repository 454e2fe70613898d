//! The generic phase abstraction of the reproduction pipeline.
//!
//! Each of the five stages — Index → Align → Diff → Rank → Search — is a
//! unit struct implementing [`PipelinePhase`]: a *typed* phase with an
//! input artifact (`Input`, the upstream phase's output), an output
//! artifact (`Artifact`), a wire codec ([`PipelinePhase::encode`] /
//! [`PipelinePhase::decode`]), a per-phase budget hook
//! ([`PipelinePhase::budget`]), and a compute body that observes the
//! session's [`CancelToken`] and reports through
//! its [`PhaseObserver`](crate::PhaseObserver).
//!
//! [`ReproSession`] is a thin driver over these implementations (see
//! [`ReproSession::run`]): it resolves prerequisites, derives the
//! phase's content-addressed [`PhaseKey`](crate::PhaseKey), consults the
//! session's [`ArtifactStore`](crate::ArtifactStore) — rehydrating a hit
//! instead of computing — and persists fresh artifacts back. Everything
//! phase-*specific* lives here; everything phase-*generic* (keying,
//! caching, memoization, event plumbing) lives once, in the driver.
//!
//! The trait is sealed: the pipeline's phase set is the paper's, and the
//! driver relies on the five implementations agreeing with the
//! [`Phase`] enum.

use crate::artifact::{
    AlignmentArtifact, DumpDeltaArtifact, FailureIndexArtifact, RankedAccessesArtifact,
    SearchArtifact,
};
use crate::observe::{Phase, PhaseEvent};
use crate::pipeline::{AlignMode, PhaseBudget, ReproError};
use crate::session::ReproSession;
use mcr_dump::{resolve_loc, CoreDump, DecodeError, DumpDiff, DumpReason, ResolvedVar};
use mcr_index::{AlignSignal, Aligner, Alignment};
use mcr_lang::Pc;
use mcr_search::{
    annotate_with_race, find_schedule, CancelToken, SearchConfig, SharedAccess, SyncLogger,
};
use mcr_slice::{backward_slice, csv_accesses, rank_accesses, CsvAccess, Strategy, TraceCollector};
use mcr_vm::{run_until, DeterministicScheduler, Event, MemLoc, Observer, Outcome, ThreadId, Vm};
use std::cell::Cell;
use std::time::Instant;

mod sealed {
    /// Seals [`PipelinePhase`](super::PipelinePhase): the five stages of
    /// the paper's pipeline are the complete set.
    pub trait Sealed {}
    impl Sealed for super::IndexPhase {}
    impl Sealed for super::AlignPhase {}
    impl Sealed for super::DiffPhase {}
    impl Sealed for super::RankPhase {}
    impl Sealed for super::SearchPhase {}
}

/// One typed, cacheable stage of the reproduction pipeline.
///
/// See the [module docs](crate::phase) for how [`ReproSession::run`]
/// drives implementations generically.
pub trait PipelinePhase: sealed::Sealed {
    /// The upstream artifact this phase consumes ([`CoreDump`] for the
    /// first phase, which consumes the session's failure dump directly).
    type Input;

    /// The artifact this phase produces.
    type Artifact: Clone + PartialEq + std::fmt::Debug;

    /// The pipeline position this implementation occupies.
    const PHASE: Phase;

    /// Whether a fired cancel token refuses phase *entry*. True for
    /// every phase except the search, which always runs and converts
    /// cancellation into a partial artifact instead.
    const GUARDED_ENTRY: bool = true;

    /// Serializes the artifact on the [`mcr_dump::wire`] layout — the
    /// same bytes the session checkpoint embeds and the artifact store
    /// caches.
    fn encode(artifact: &Self::Artifact) -> Vec<u8>;

    /// Decodes an artifact (store rehydration, checkpoint resume).
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncated or malformed input.
    fn decode(bytes: &[u8]) -> Result<Self::Artifact, DecodeError>;

    /// The upstream artifact, when it has been produced.
    fn input<'s>(session: &'s ReproSession<'_>) -> Option<&'s Self::Input>;

    /// This phase's artifact, when it has been produced.
    fn artifact<'s>(session: &'s ReproSession<'_>) -> Option<&'s Self::Artifact>;

    /// Stores a produced (or rehydrated) artifact in the session.
    fn install(session: &mut ReproSession<'_>, artifact: Self::Artifact);

    /// The wall-clock/step budget configured for this phase.
    fn budget(session: &ReproSession<'_>) -> Option<PhaseBudget> {
        session.options().budgets.get(Self::PHASE)
    }

    /// Whether a freshly computed artifact may enter the store. Partial
    /// results — a cancelled or budget-cut search — must not poison the
    /// cache, since a later run with a larger budget would rehydrate
    /// them as if complete.
    fn cacheable(_artifact: &Self::Artifact) -> bool {
        true
    }

    /// Runs the phase. Implementations emit their own
    /// `Started`/`Stage`/`Finished`/`Interrupted` events and honor the
    /// session's cancel token and this phase's budget.
    ///
    /// # Errors
    ///
    /// See [`ReproError`].
    fn compute(session: &mut ReproSession<'_>) -> Result<Self::Artifact, ReproError>;
}

/// How many interruption polls share one `Instant::now()` read inside
/// the align/diff step loops (cancellation is checked on every poll —
/// an atomic load — only the wall clock is cached).
const WALL_POLL_PERIOD: u32 = 256;

/// Polls cancellation and a phase's wall-clock budget from inside a
/// `run_until` stop predicate.
struct Interrupt {
    cancel: CancelToken,
    deadline: Option<Instant>,
    polls: u32,
    expired: bool,
}

impl Interrupt {
    fn new(cancel: CancelToken, budget: Option<PhaseBudget>) -> Interrupt {
        Interrupt {
            cancel,
            deadline: budget
                .and_then(|b| b.wall)
                .map(|wall| Instant::now() + wall),
            polls: 0,
            expired: false,
        }
    }

    /// Whether the phase should stop now. Called once per VM step.
    fn fired(&mut self) -> bool {
        if self.cancel.is_cancelled() {
            return true;
        }
        if self.expired {
            return true;
        }
        let Some(deadline) = self.deadline else {
            return false;
        };
        let n = self.polls;
        self.polls = n.wrapping_add(1);
        if !n.is_multiple_of(WALL_POLL_PERIOD) {
            return false;
        }
        self.expired = Instant::now() >= deadline;
        self.expired
    }

    /// Converts an interruption into the phase's error (cancellation
    /// wins over budget expiry when both hold).
    fn error(&self, phase: Phase) -> ReproError {
        if self.cancel.is_cancelled() {
            ReproError::Cancelled(phase)
        } else {
            ReproError::BudgetExhausted(phase)
        }
    }

    fn interrupted(&self) -> bool {
        self.cancel.is_cancelled() || self.expired
    }
}

/// Step cap for a phase: the options default, tightened by the phase
/// budget when one is set.
fn effective_steps(default: u64, budget: Option<PhaseBudget>) -> u64 {
    match budget.and_then(|b| b.max_steps) {
        Some(cap) => default.min(cap),
        None => default,
    }
}

/// Phase 1: reverse engineering the failure's execution index (§3.2,
/// Algorithm 1). Under [`AlignMode::InstructionCount`] the artifact
/// carries no index.
#[derive(Debug, Clone, Copy)]
pub struct IndexPhase;

impl PipelinePhase for IndexPhase {
    type Input = CoreDump;
    type Artifact = FailureIndexArtifact;
    const PHASE: Phase = Phase::Index;

    fn encode(artifact: &Self::Artifact) -> Vec<u8> {
        artifact.to_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<Self::Artifact, DecodeError> {
        FailureIndexArtifact::from_bytes(bytes)
    }

    fn input<'s>(session: &'s ReproSession<'_>) -> Option<&'s CoreDump> {
        Some(&session.failure_dump)
    }

    fn artifact<'s>(session: &'s ReproSession<'_>) -> Option<&'s Self::Artifact> {
        session.artifacts.index.as_ref()
    }

    fn install(session: &mut ReproSession<'_>, artifact: Self::Artifact) {
        session.artifacts.index = Some(artifact);
    }

    fn compute(s: &mut ReproSession<'_>) -> Result<Self::Artifact, ReproError> {
        s.emit(PhaseEvent::Started {
            phase: Phase::Index,
        });
        let t0 = Instant::now();
        let index = match s.options.align_mode {
            AlignMode::ExecutionIndex => {
                match mcr_index::reverse_index(s.program, s.analysis(), &s.failure_dump) {
                    Ok(idx) => Some(idx),
                    Err(e) => {
                        s.emit(PhaseEvent::Interrupted {
                            phase: Phase::Index,
                        });
                        return Err(e.into());
                    }
                }
            }
            AlignMode::InstructionCount => None,
        };
        s.emit(PhaseEvent::Finished {
            phase: Phase::Index,
            elapsed: t0.elapsed(),
        });
        Ok(FailureIndexArtifact { index })
    }
}

/// The passing run's one observer. A single `match` per event feeds
/// the [`Aligner`] (absent under instruction-count alignment), the
/// search's [`SyncLogger`], and the return-store log, and publishes the
/// aligner's current point so the step loop's stop predicate sees when
/// it advances.
///
/// The return-store log holds the executing statement of each shared
/// store whose event carries another pc. A return value stored into the
/// caller's destination is stamped with the caller's pc, while a trace
/// attributes it to the callee's `return`; the temporal projection
/// reads the latter.
struct PassingRun<'a, 'p> {
    aligner: Option<Aligner<'p>>,
    point: &'a Cell<u64>,
    sync: SyncLogger,
    stmt: Option<Pc>,
    return_stores: Vec<(u64, Pc)>,
}

impl PassingRun<'_, '_> {
    fn align(&mut self, feed: impl FnOnce(&mut Aligner<'_>)) {
        if let Some(aligner) = &mut self.aligner {
            feed(aligner);
            self.point.set(aligner.point());
        }
    }
}

impl Observer for PassingRun<'_, '_> {
    fn on_event(&mut self, step: u64, event: &Event) {
        match *event {
            // Every executed step emits one `Stmt`, so it alone keeps
            // the logger's step count.
            Event::Stmt { tid, pc, .. } => {
                self.stmt = Some(pc);
                self.sync.stepped(step);
                self.align(|a| a.stmt(step, tid, pc));
            }
            Event::Branch { tid, pc, outcome } => self.align(|a| a.branch(step, tid, pc, outcome)),
            Event::FuncEnter { tid, func, .. } => self.align(|a| a.func_enter(step, tid, func)),
            Event::ThreadStart { tid, .. } => self.sync.thread_start(step, tid),
            Event::Sync { tid, pc, kind, seq } => self.sync.sync(step, tid, pc, kind, seq),
            Event::Read { tid, pc, loc, .. } => self.sync.access(step, tid, pc, loc, false),
            Event::Write { tid, pc, loc, .. } | Event::StoreBuffered { tid, pc, loc, .. } => {
                if loc.is_shared() && self.stmt != Some(pc) {
                    if let Some(stmt) = self.stmt {
                        self.return_stores.push((step, stmt));
                    }
                }
                self.sync.access(step, tid, pc, loc, true);
            }
            _ => {}
        }
    }
}

/// A copy-on-write snapshot of the VM standing just past a run's
/// candidate aligned point, retaken each time the point advances.
#[derive(Default)]
struct AlignedSnapshot<'p>(Option<(u64, Vm<'p>)>);

impl<'p> AlignedSnapshot<'p> {
    /// Called between steps with the current candidate point:
    /// snapshots `vm` when it has just executed that point's step.
    fn offer(&mut self, vm: &Vm<'p>, point: Option<u64>) {
        let Some(point) = point else {
            return;
        };
        if vm.steps() == point + 1 && self.0.as_ref().map(|(at, _)| *at) != Some(point) {
            self.0 = Some((point, vm.clone()));
        }
    }

    /// The snapshot past the final aligned `step`. `None` when none was
    /// taken there: the run stopped right after that step (a crash ends
    /// it before the stop predicate runs again), so the final VM stands
    /// at the aligned point.
    fn take(self, step: u64) -> Option<Vm<'p>> {
        self.0.filter(|(at, _)| *at == step).map(|(_, vm)| vm)
    }
}

/// Phase 2: the deterministic passing run — aligned-point location
/// (§3.3, Fig. 7), the sync/shared-access log the search needs, and
/// the aligned dump, captured from a snapshot taken at the aligned
/// point during the same run.
#[derive(Debug, Clone, Copy)]
pub struct AlignPhase;

impl PipelinePhase for AlignPhase {
    type Input = FailureIndexArtifact;
    type Artifact = AlignmentArtifact;
    const PHASE: Phase = Phase::Align;

    fn encode(artifact: &Self::Artifact) -> Vec<u8> {
        artifact.to_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<Self::Artifact, DecodeError> {
        AlignmentArtifact::from_bytes(bytes)
    }

    fn input<'s>(session: &'s ReproSession<'_>) -> Option<&'s Self::Input> {
        session.artifacts.index.as_ref()
    }

    fn artifact<'s>(session: &'s ReproSession<'_>) -> Option<&'s Self::Artifact> {
        session.artifacts.align.as_ref()
    }

    fn install(session: &mut ReproSession<'_>, artifact: Self::Artifact) {
        session.artifacts.align = Some(artifact);
    }

    fn compute(s: &mut ReproSession<'_>) -> Result<Self::Artifact, ReproError> {
        // Validation precedes the Started event so observers never see a
        // phase start that can have no terminal event.
        let focus = s.failure_dump.focus;
        if focus.0 as usize >= 1 && s.program.funcs.is_empty() {
            return Err(ReproError::NoSuchThread(focus));
        }
        s.emit(PhaseEvent::Started {
            phase: Phase::Align,
        });
        let budget = Self::budget(s);
        let max_steps = effective_steps(s.options.max_steps, budget);
        let mut guard = Interrupt::new(s.cancel.clone(), budget);

        let t0 = Instant::now();
        let mut vm = s.new_vm();
        // The VM standing just past the latest candidate aligned point,
        // kept as a copy-on-write snapshot while the run goes on.
        let mut snapshot = AlignedSnapshot::default();
        let index = Self::input(s).expect("index phase ran").index.as_ref();
        let point = Cell::new(0);
        let mut passing = PassingRun {
            aligner: index.map(|idx| Aligner::new(s.program, s.analysis(), focus, idx)),
            point: &point,
            sync: SyncLogger::new(),
            stmt: None,
            return_stores: Vec::new(),
        };
        let mut sched = DeterministicScheduler::new();
        // Instruction-count alignment (Table 5 baseline) finds the aligned
        // point on the fly: the step at which the focus thread's retired
        // instructions reach the dump's count, refined to the next visit
        // of the failure pc.
        let mut reached: Option<u64> = None;
        let mut aligned_at: Option<u64> = None;
        let outcome = if passing.aligner.is_some() {
            run_until(&mut vm, &mut sched, &mut passing, max_steps, |vm| {
                snapshot.offer(vm, Some(point.get()));
                guard.fired()
            })
        } else {
            let target_instrs = s.failure_dump.focus_thread().instrs;
            let failure_pc = s.failure.pc;
            let mut scanning = true;
            run_until(&mut vm, &mut sched, &mut passing, max_steps, |vm| {
                snapshot.offer(vm, aligned_at.or(reached));
                if guard.fired() {
                    return true;
                }
                if scanning {
                    if let Some(th) = vm.threads().get(focus.0 as usize) {
                        if th.instrs >= target_instrs {
                            if reached.is_none() {
                                reached = Some(vm.steps());
                            }
                            // Scan for the failure PC from here on.
                            if th.pc() == Some(failure_pc) {
                                aligned_at = Some(vm.steps());
                                scanning = false;
                            } else if vm.steps() > reached.unwrap() + 200_000 {
                                // Give up the PC scan after a grace
                                // window.
                                aligned_at = reached;
                                scanning = false;
                            }
                        }
                    }
                }
                false
            })
        };
        let PassingRun {
            aligner,
            sync,
            return_stores,
            ..
        } = passing;
        let alignment = match aligner {
            Some(aligner) => aligner.finish(),
            // If the run ended before the count scan concluded, align at
            // the point the count was reached (or the end).
            None => Alignment {
                signal: AlignSignal::Closest,
                step: aligned_at
                    .or(reached)
                    .unwrap_or_else(|| vm.steps().saturating_sub(1)),
                remaining: 0,
            },
        };
        if guard.interrupted() {
            s.emit(PhaseEvent::Interrupted {
                phase: Phase::Align,
            });
            return Err(guard.error(Phase::Align));
        }
        let deterministic_repro = matches!(outcome, Outcome::Crashed(f) if f.same_bug(&s.failure));
        let aligned_vm = snapshot.take(alignment.step).unwrap_or(vm);
        let aligned_focus = if (focus.0 as usize) < aligned_vm.threads().len() {
            focus
        } else {
            ThreadId(0)
        };
        let aligned_dump = mcr_dump::encode(&CoreDump::capture(
            &aligned_vm,
            aligned_focus,
            DumpReason::Aligned,
        ));
        s.emit(PhaseEvent::Finished {
            phase: Phase::Align,
            elapsed: t0.elapsed(),
        });
        Ok(AlignmentArtifact {
            alignment,
            deterministic_repro,
            passing_run: sync.finish(),
            return_stores,
            aligned_steps: aligned_vm.steps(),
            aligned_dump,
        })
    }
}

/// Phase 3: compare the failure dump with the aligned dump the align
/// phase captured, to find the critical shared variables (§4), and
/// project the passing run onto the accesses to them. Under
/// [`Strategy::Temporal`] the projection comes from the align phase's
/// shared-access log and no VM runs. Under [`Strategy::Dependence`] the
/// phase replays to the aligned point with a [`TraceCollector`], slices
/// the trace from there and drops it; the artifact keeps only the
/// projection.
#[derive(Debug, Clone, Copy)]
pub struct DiffPhase;

impl PipelinePhase for DiffPhase {
    type Input = AlignmentArtifact;
    type Artifact = DumpDeltaArtifact;
    const PHASE: Phase = Phase::Diff;

    fn encode(artifact: &Self::Artifact) -> Vec<u8> {
        artifact.to_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<Self::Artifact, DecodeError> {
        DumpDeltaArtifact::from_bytes(bytes)
    }

    fn input<'s>(session: &'s ReproSession<'_>) -> Option<&'s Self::Input> {
        session.artifacts.align.as_ref()
    }

    fn artifact<'s>(session: &'s ReproSession<'_>) -> Option<&'s Self::Artifact> {
        session.artifacts.delta.as_ref()
    }

    fn install(session: &mut ReproSession<'_>, artifact: Self::Artifact) {
        session.artifacts.delta = Some(artifact);
    }

    fn compute(s: &mut ReproSession<'_>) -> Result<Self::Artifact, ReproError> {
        s.emit(PhaseEvent::Started { phase: Phase::Diff });
        let budget = Self::budget(s);
        let max_steps = effective_steps(s.options.max_steps, budget);
        let mut guard = Interrupt::new(s.cancel.clone(), budget);
        let executed = Self::input(s).expect("align ran").aligned_steps;

        // Only the dependence strategy needs a trace: replay the
        // passing run's deterministic prefix to the aligned point.
        let t0 = Instant::now();
        let trace = if s.options.strategy == Strategy::Dependence {
            let mut replay = s.new_vm();
            let mut collector = TraceCollector::new(s.analysis(), s.options.trace_window);
            let mut sched = DeterministicScheduler::new();
            run_until(&mut replay, &mut sched, &mut collector, max_steps, |vm| {
                guard.fired() || vm.steps() >= executed
            });
            if guard.interrupted() {
                s.emit(PhaseEvent::Interrupted { phase: Phase::Diff });
                return Err(guard.error(Phase::Diff));
            }
            debug_assert!(
                replay.steps() == executed || max_steps < executed,
                "the replay must reach the align phase's aligned point"
            );
            Some(collector.finish())
        } else {
            None
        };
        let replay_elapsed = t0.elapsed();
        s.emit(PhaseEvent::Stage {
            phase: Phase::Diff,
            stage: "replay",
            elapsed: replay_elapsed,
        });

        // Dump comparison ("parse" covers encode/decode and the walk over
        // both dumps, the GDB-dominated cost of the paper's Table 6;
        // "diff" sorts the differences and splits off the CSVs).
        let t0 = Instant::now();
        let failure_bytes = mcr_dump::encode(&s.failure_dump);
        let aligned_bytes = &Self::input(s).expect("align ran").aligned_dump;
        let aligned_dump_bytes = aligned_bytes.len();
        let parsed = mcr_dump::decode(&failure_bytes)
            .and_then(|failure| Ok((failure, mcr_dump::decode(aligned_bytes)?)));
        let (failure_reparsed, aligned_dump) = match parsed {
            Ok(dumps) => dumps,
            Err(e) => {
                s.emit(PhaseEvent::Interrupted { phase: Phase::Diff });
                return Err(ReproError::Codec(e));
            }
        };
        let walk = DumpDiff::walk(&failure_reparsed, &aligned_dump, s.options.limits);
        let parse_elapsed = t0.elapsed();
        s.emit(PhaseEvent::Stage {
            phase: Phase::Diff,
            stage: "dump-parse",
            elapsed: parse_elapsed,
        });

        let t0 = Instant::now();
        let diff = walk.finish();
        let diff_elapsed = t0.elapsed();
        s.emit(PhaseEvent::Stage {
            phase: Phase::Diff,
            stage: "diff",
            elapsed: diff_elapsed,
        });

        // Resolve CSV paths to passing-run locations.
        let csv_locs: Vec<MemLoc> = diff
            .csvs
            .iter()
            .filter_map(|path| resolve_loc(&aligned_dump, path))
            .filter_map(|rv| match rv {
                ResolvedVar::Global(g) => Some(MemLoc::Global(g)),
                ResolvedVar::GlobalElem(g, i) => Some(MemLoc::GlobalElem(g, i)),
                ResolvedVar::Heap(o, i) => Some(MemLoc::Heap(o, i)),
                _ => None,
            })
            .collect();

        // Keep only what the rank phase reads: the CSV accesses up to
        // the aligned point (the last traced event under the dependence
        // strategy, sliced from there).
        let t0 = Instant::now();
        let (aligned_serial, csv_accesses) = match trace {
            Some(trace) => {
                let aligned_serial = trace.last().map_or(0, |e| e.serial);
                let slice = backward_slice(&trace, &[aligned_serial]);
                let accesses = csv_accesses(&trace, aligned_serial, &csv_locs, &slice);
                (aligned_serial, accesses)
            }
            None => temporal_csv_accesses(
                Self::input(s).expect("align ran"),
                s.options.trace_window,
                &csv_locs,
            ),
        };
        let slice_elapsed = t0.elapsed();
        s.emit(PhaseEvent::Stage {
            phase: Phase::Diff,
            stage: "slice",
            elapsed: slice_elapsed,
        });

        let elapsed = replay_elapsed + parse_elapsed + diff_elapsed + slice_elapsed;
        s.emit(PhaseEvent::Finished {
            phase: Phase::Diff,
            elapsed,
        });
        Ok(DumpDeltaArtifact {
            failure_dump_bytes: failure_bytes.len(),
            aligned_dump_bytes,
            vars: diff.vars_a,
            diffs: diff.diff_count(),
            shared: diff.shared_compared,
            csv_paths: diff.csvs,
            csv_locs,
            aligned_serial,
            csv_accesses,
        })
    }
}

/// The passing run's accesses to `csv_locs` within the last `window`
/// steps up to the aligned point, in step order, with the aligned
/// point's serial: what [`csv_accesses`] projects out of a trace of the
/// same prefix. A trace serial is the VM step (one
/// [`Event::Stmt`] per step), a step's reads precede its writes in both
/// logs, and a trace stamps each access with its executing statement.
fn temporal_csv_accesses(
    align: &AlignmentArtifact,
    window: usize,
    csv_locs: &[MemLoc],
) -> (u64, Vec<CsvAccess>) {
    let executed = align.aligned_steps;
    // The trace ring keeps the last `window` events; a zero window never
    // evicts.
    let first = match window {
        0 => 0,
        w => executed.saturating_sub(w as u64),
    };
    let mut csv_locs = csv_locs.to_vec();
    csv_locs.sort_unstable();
    let stmt_pc = |a: &SharedAccess| {
        align
            .return_stores
            .binary_search_by_key(&a.step, |&(step, _)| step)
            .map_or(a.pc, |i| align.return_stores[i].1)
    };
    let log = &align.passing_run.shared_accesses;
    let start = log.partition_point(|a| a.step < first);
    let accesses = log[start..]
        .iter()
        .take_while(|a| a.step < executed)
        .filter(|a| csv_locs.binary_search(&a.loc).is_ok())
        .map(|a| CsvAccess {
            serial: a.step,
            step: a.step,
            tid: a.tid,
            pc: stmt_pc(a),
            loc: a.loc,
            is_write: a.is_write,
            distance: None,
        })
        .collect();
    (executed.saturating_sub(1), accesses)
}

/// Phase 4: prioritize the CSV accesses the diff phase projected out of
/// the passing run (temporal closeness or dependence distance, per
/// [`ReproOptions::strategy`](crate::ReproOptions::strategy)).
#[derive(Debug, Clone, Copy)]
pub struct RankPhase;

impl PipelinePhase for RankPhase {
    type Input = DumpDeltaArtifact;
    type Artifact = RankedAccessesArtifact;
    const PHASE: Phase = Phase::Rank;

    fn encode(artifact: &Self::Artifact) -> Vec<u8> {
        artifact.to_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<Self::Artifact, DecodeError> {
        RankedAccessesArtifact::from_bytes(bytes)
    }

    fn input<'s>(session: &'s ReproSession<'_>) -> Option<&'s Self::Input> {
        session.artifacts.delta.as_ref()
    }

    fn artifact<'s>(session: &'s ReproSession<'_>) -> Option<&'s Self::Artifact> {
        session.artifacts.ranked.as_ref()
    }

    fn install(session: &mut ReproSession<'_>, artifact: Self::Artifact) {
        session.artifacts.ranked = Some(artifact);
    }

    fn compute(s: &mut ReproSession<'_>) -> Result<Self::Artifact, ReproError> {
        s.emit(PhaseEvent::Started { phase: Phase::Rank });
        let t0 = Instant::now();
        let delta = Self::input(s).expect("diff ran");
        let ranked = rank_accesses(
            &delta.csv_accesses,
            delta.aligned_serial,
            s.options.strategy,
        );
        s.emit(PhaseEvent::Finished {
            phase: Phase::Rank,
            elapsed: t0.elapsed(),
        });
        Ok(RankedAccessesArtifact { ranked })
    }
}

/// Phase 5: the directed schedule search (§5, Algorithm 2).
///
/// Cancellation mid-search does *not* error: the phase completes with a
/// partial artifact whose result carries `cancelled = true` — which is
/// also why such artifacts are excluded from the store (see
/// [`PipelinePhase::cacheable`]).
#[derive(Debug, Clone, Copy)]
pub struct SearchPhase;

impl PipelinePhase for SearchPhase {
    type Input = RankedAccessesArtifact;
    type Artifact = SearchArtifact;
    const PHASE: Phase = Phase::Search;
    const GUARDED_ENTRY: bool = false;

    fn encode(artifact: &Self::Artifact) -> Vec<u8> {
        artifact.to_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<Self::Artifact, DecodeError> {
        SearchArtifact::from_bytes(bytes)
    }

    fn input<'s>(session: &'s ReproSession<'_>) -> Option<&'s Self::Input> {
        session.artifacts.ranked.as_ref()
    }

    fn artifact<'s>(session: &'s ReproSession<'_>) -> Option<&'s Self::Artifact> {
        session.artifacts.search.as_ref()
    }

    fn install(session: &mut ReproSession<'_>, artifact: Self::Artifact) {
        session.artifacts.search = Some(artifact);
    }

    fn cacheable(artifact: &Self::Artifact) -> bool {
        // Partial results must not be mistaken for the search's answer
        // by a warm run with a larger budget.
        !artifact.result.cancelled && !artifact.result.cut_off
    }

    fn compute(s: &mut ReproSession<'_>) -> Result<Self::Artifact, ReproError> {
        s.emit(PhaseEvent::Started {
            phase: Phase::Search,
        });
        let t0 = Instant::now();
        let result = {
            let ranked = &Self::input(s).expect("rank ran").ranked;
            let delta = s.artifacts.delta.as_ref().expect("diff ran");
            let align = s.artifacts.align.as_ref().expect("align ran");
            // Both projections emit step order and ranking keeps it, so
            // annotation looks priorities up in `ranked` itself.
            debug_assert!(ranked.windows(2).all(|w| w[0].step <= w[1].step));
            // Under `static_race`, the session's race verdicts prune
            // provably-Solo preemption points and rank May-Race blocks
            // ahead of statically clean ones (`race_verdicts` is `None`
            // unless the knob is on and the fault plan is empty).
            let (candidates, future) = annotate_with_race(
                &align.passing_run,
                &delta.csv_locs,
                ranked.as_slice(),
                s.race_verdicts(),
            );
            s.emit(PhaseEvent::Stage {
                phase: Phase::Search,
                stage: "annotate",
                elapsed: t0.elapsed(),
            });
            let fresh = s.new_vm();
            let budget = Self::budget(s);
            let mut search_config = SearchConfig {
                parallelism: s.options.parallelism.max(1),
                cancel: s.cancel.clone(),
                ..s.options.search.clone()
            };
            if let Some(b) = budget {
                if let Some(wall) = b.wall {
                    search_config.time_budget =
                        Some(search_config.time_budget.map_or(wall, |t| t.min(wall)));
                }
                if let Some(steps) = b.max_steps {
                    search_config.max_steps = search_config.max_steps.min(steps);
                }
            }
            let t1 = Instant::now();
            let result = find_schedule(
                &fresh,
                &candidates,
                &future,
                s.failure,
                s.options.algorithm,
                &search_config,
            );
            s.emit(PhaseEvent::Stage {
                phase: Phase::Search,
                stage: "schedule",
                elapsed: t1.elapsed(),
            });
            result
        };
        // A cancelled search still Finishes (with a partial artifact,
        // `result.cancelled` set); Interrupted is reserved for phases
        // that produced nothing.
        s.emit(PhaseEvent::Finished {
            phase: Phase::Search,
            elapsed: t0.elapsed(),
        });
        Ok(SearchArtifact { result })
    }
}
