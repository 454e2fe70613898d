//! The staged, resumable, cache-aware reproduction session.
//!
//! [`ReproSession`] drives the paper's pipeline as a typed phase graph —
//! `Indexed` → `Aligned` → `Diffed` → `Ranked` → `Searched` — where each
//! stage is an implementation of the generic
//! [`PipelinePhase`] trait (see [`crate::phase`]):
//!
//! | phase | implementation | artifact |
//! |---|---|---|
//! | [`Phase::Index`] | [`IndexPhase`] | [`FailureIndexArtifact`] |
//! | [`Phase::Align`] | [`AlignPhase`] | [`AlignmentArtifact`] |
//! | [`Phase::Diff`] | [`DiffPhase`] | [`DumpDeltaArtifact`] |
//! | [`Phase::Rank`] | [`RankPhase`] | [`RankedAccessesArtifact`] |
//! | [`Phase::Search`] | [`SearchPhase`] | [`SearchArtifact`] |
//!
//! The session itself is a *thin driver* ([`ReproSession::run`]). Each
//! phase's content-addressed [`PhaseKey`] hashes the phase and the
//! session [`basis`](ReproSession::basis) — *(program fingerprint,
//! failure dump, input, options)*, streamed into the one content hash
//! without encoding the dump or the input — so every key is known
//! before any phase runs. Asked for a phase, the driver probes the
//! session's [`ArtifactStore`] for that phase's key first: a hit
//! installs the cached artifact alone
//! ([`PhaseEvent::CacheHit`]) and runs no prerequisite. On a miss it
//! brings every earlier phase in order — present, rehydrated or
//! computed, each probed once — then computes the phase and writes its
//! artifact back. So a warm `run_to_end` is one lookup, since the search
//! artifact carries the whole report, a cold one probes each phase
//! once, and staged calls (`run_align`, then `run_diff`, …) still
//! rehydrate phase by phase. A fleet of sessions over near-duplicate
//! dumps pays for each distinct phase unit once. Because phases are
//! deterministic and artifacts hold results only, cached and computed
//! artifacts are bit-identical — the final [`ReproReport`] is pinned to
//! be the same cold, warm, or batched.
//!
//! Time is telemetry and travels on one channel, the [`PhaseEvent`]
//! stream: every event goes to the attached [`PhaseObserver`], and the
//! session folds the `Stage`/`Finished` durations into
//! [`ReproSession::timings`]. No artifact or report carries a clock, so
//! a rehydrated phase reports no time of its own and a recomputed phase
//! rewrites its store entry byte for byte.
//!
//! Running a phase that misses the store implicitly runs any
//! prerequisite phase that has not produced its artifact yet, and
//! re-running a present phase is a no-op returning the stored artifact.
//!
//! After any phase the whole session — options, input, failure dump,
//! artifacts — serializes to bytes with [`ReproSession::checkpoint`] and
//! comes back in a *fresh process* with [`ReproSession::resume`] (only
//! the compiled [`Program`] is supplied externally; it is not part of
//! the checkpoint, exactly as a real core dump does not embed the
//! binary). Because every pipeline stage is deterministic, a resumed
//! session finishes to the same [`ReproReport`] the uninterrupted run
//! produces.
//!
//! Three things bound a reproduction. The search stops at its try cap
//! ([`SearchConfig::max_tries`]) or deadline
//! ([`SearchConfig::time_budget`]) and cuts each try at
//! [`SearchConfig::max_steps`]; the align run and the dependence replay
//! stop at [`ReproOptions::max_steps`]; and the session's
//! [`CancelToken`] stops any phase. Align and diff poll it once per step
//! and interrupt with [`ReproError::Cancelled`], while the search unwinds
//! into a *partial* [`SearchArtifact`] (its
//! [`SearchResult::cancelled`](mcr_search::SearchResult::cancelled) flag
//! set) so a service can still report how far it got. A caller that
//! wants a wall-clock cap on the other phases fires the token from a
//! timer.

use crate::artifact::{
    AlignmentArtifact, DumpDeltaArtifact, FailureIndexArtifact, RankedAccessesArtifact,
    SearchArtifact,
};
use crate::observe::{NullPhaseObserver, Phase, PhaseEvent, PhaseObserver, PHASES};
use crate::phase::{AlignPhase, DiffPhase, IndexPhase, PipelinePhase, RankPhase, SearchPhase};
use crate::pipeline::{AlignMode, ReproError, ReproOptions, ReproReport, ReproTimings};
use crate::store::{ArtifactStore, NullStore, PhaseKey, ProgramRef};
use mcr_analysis::{ProgramAnalysis, RaceAnalysis};
use mcr_dump::wire::{ContentHash, ContentHasher, Reader, Writer};
use mcr_dump::{CoreDump, DecodeError, TraverseLimits};
use mcr_lang::Program;
use mcr_search::{Algorithm, CancelToken, SearchConfig};
use mcr_slice::Strategy;
use mcr_vm::{Failure, FaultKind, FaultSpec, MemModel, ThreadId, Vm};
use std::cell::{Cell, OnceCell};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"MCRS";
// v2: options carry the memory model and fault-injection plan.
// v3: options carry the static-race knob.
// v4: the worker counts follow the key options instead of sitting
// among them.
// v5: no per-phase budgets, and one worker count.
const VERSION: u8 = 5;

/// The artifacts a session has produced so far.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Artifacts {
    pub(crate) index: Option<FailureIndexArtifact>,
    pub(crate) align: Option<AlignmentArtifact>,
    pub(crate) delta: Option<DumpDeltaArtifact>,
    pub(crate) ranked: Option<RankedAccessesArtifact>,
    pub(crate) search: Option<SearchArtifact>,
}

/// A staged, resumable reproduction job on one failure dump.
///
/// See the [module docs](crate::session) for the phase model, the
/// content-addressed caching, and checkpoint/resume semantics; see
/// [`Reproducer`](crate::Reproducer) for the one-call wrapper.
pub struct ReproSession<'p> {
    /// The program and its fingerprint memo, shared with whatever opened
    /// the session (a [`Reproducer`](crate::Reproducer) or a service).
    program: ProgramRef<'p>,
    /// The static analysis, resolved lazily on first use: seeded
    /// eagerly by [`Reproducer`](crate::Reproducer) (which analyzes its
    /// program once for all sessions), otherwise computed on the first
    /// phase that needs it.
    analysis: OnceCell<Arc<ProgramAnalysis>>,
    pub(crate) options: ReproOptions,
    pub(crate) input: Vec<i64>,
    pub(crate) failure_dump: CoreDump,
    pub(crate) failure: Failure,
    pub(crate) cancel: CancelToken,
    observer: Box<dyn PhaseObserver + Send + 'p>,
    store: Arc<dyn ArtifactStore>,
    /// Content hash of the session identity: program fingerprint,
    /// failing input, failure dump, and the *result-relevant* options.
    /// Every phase key chains off this. Computed lazily — a session
    /// whose store never caches ([`NullStore`]) pays nothing for it.
    basis: Cell<Option<ContentHash>>,
    pub(crate) artifacts: Artifacts,
    /// The static race analysis, resolved lazily on first use by the
    /// search phase (and only under [`ReproOptions::static_race`] with
    /// no fault plan — `None` once resolved means disabled). A runtime
    /// attachment like the store itself: excluded from checkpoints.
    race: OnceCell<Option<RaceAnalysis>>,
    /// The durations of the phases this session computed, folded from
    /// the events it emitted. Telemetry: excluded from checkpoints.
    timings: ReproTimings,
}

impl std::fmt::Debug for ReproSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReproSession")
            .field("options", &self.options)
            .field("input", &self.input)
            .field("failure", &self.failure)
            .field("basis", &self.basis.get())
            .field("completed", &self.completed())
            .finish_non_exhaustive()
    }
}

impl<'p> ReproSession<'p> {
    /// Opens a session on a failure dump. The static analysis is
    /// computed lazily, by the first phase that needs it.
    ///
    /// # Errors
    ///
    /// [`ReproError::NotAFailureDump`] when the dump carries no failure,
    /// [`ReproError::NoSuchThread`] when its focus is not one of its
    /// threads.
    pub fn new(
        program: &'p Program,
        failure_dump: CoreDump,
        input: &[i64],
        options: ReproOptions,
    ) -> Result<Self, ReproError> {
        Self::open(
            ProgramRef::new(program),
            failure_dump,
            input.to_vec(),
            options,
        )
    }

    /// Opens a session on a program whose fingerprint memo is shared:
    /// the program is hashed at most once across every session opened
    /// through `program`, so a warm job's key costs no program walk.
    ///
    /// # Errors
    ///
    /// Those of [`ReproSession::new`].
    pub fn for_program(
        program: &ProgramRef<'p>,
        failure_dump: CoreDump,
        input: &[i64],
        options: ReproOptions,
    ) -> Result<Self, ReproError> {
        Self::open(program.clone(), failure_dump, input.to_vec(), options)
    }

    /// Opens a session with a pre-computed analysis (the
    /// [`Reproducer`](crate::Reproducer) path: one analysis and one
    /// fingerprint memo, many sessions).
    pub(crate) fn from_parts(
        program: &ProgramRef<'p>,
        analysis: Arc<ProgramAnalysis>,
        failure_dump: CoreDump,
        input: Vec<i64>,
        options: ReproOptions,
    ) -> Result<Self, ReproError> {
        let session = Self::open(program.clone(), failure_dump, input, options)?;
        let _ = session.analysis.set(analysis);
        Ok(session)
    }

    fn open(
        program: ProgramRef<'p>,
        failure_dump: CoreDump,
        input: Vec<i64>,
        options: ReproOptions,
    ) -> Result<Self, ReproError> {
        let failure = failure_dump.failure().ok_or(ReproError::NotAFailureDump)?;
        // `decode` rejects such a dump; an in-memory one never went
        // through it, and every phase reads the focus thread.
        if failure_dump.focus.0 as usize >= failure_dump.threads.len() {
            return Err(ReproError::NoSuchThread(failure_dump.focus));
        }
        let store = options.store.clone().unwrap_or_else(|| Arc::new(NullStore));
        Ok(ReproSession {
            program,
            analysis: OnceCell::new(),
            options,
            input,
            failure_dump,
            failure,
            cancel: CancelToken::new(),
            observer: Box::new(NullPhaseObserver),
            store,
            basis: Cell::new(None),
            artifacts: Artifacts::default(),
            race: OnceCell::new(),
            timings: ReproTimings::default(),
        })
    }

    /// The session's options.
    pub fn options(&self) -> &ReproOptions {
        &self.options
    }

    /// The failing input the session replays.
    pub fn input(&self) -> &[i64] {
        &self.input
    }

    /// The failure recorded in the dump.
    pub fn failure(&self) -> Failure {
        self.failure
    }

    /// A clone of the session's cancellation token. Firing it (from any
    /// thread) interrupts the in-flight phase — align/diff return
    /// [`ReproError::Cancelled`], the search returns a partial artifact.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Attaches a progress observer (replacing any previous one). The
    /// observer must be [`Send`] because batch schedulers move sessions
    /// across executor threads; share state with the caller through an
    /// `Arc<Mutex<_>>` observer (see
    /// [`TimingLog`](crate::TimingLog)).
    pub fn set_observer(&mut self, observer: Box<dyn PhaseObserver + Send + 'p>) {
        self.observer = observer;
    }

    /// Attaches a content-addressed artifact store (replacing the one
    /// from [`ReproOptions::store`], or the default [`NullStore`]).
    /// A requested phase whose [`PhaseKey`] hits the store is skipped
    /// and its artifact rehydrated.
    pub fn set_store(&mut self, store: Arc<dyn ArtifactStore>) {
        self.store = store;
    }

    /// The artifact store this session consults.
    pub fn store(&self) -> &Arc<dyn ArtifactStore> {
        &self.store
    }

    /// The session's identity hash: program fingerprint, failure dump,
    /// input, and result-relevant options. The dump is hashed by its
    /// `Hash` walk and the input one word per element, so nothing is
    /// encoded; the fingerprint comes from the memo the session shares
    /// ([`ReproSession::program_fingerprint`]).
    /// Two sessions with equal bases produce bit-identical artifacts for
    /// every phase. Parallelism knobs and runtime attachments are
    /// deliberately excluded — results are independent of them (pinned
    /// by the parallel-equivalence suite), so a cache populated on an
    /// 8-core worker still hits on a 4-core one. Computed lazily.
    pub fn basis(&self) -> ContentHash {
        if let Some(b) = self.basis.get() {
            return b;
        }
        let b = session_basis(
            self.program_fingerprint(),
            &self.input,
            &self.failure_dump,
            &self.options,
        );
        self.basis.set(Some(b));
        b
    }

    /// The program fingerprint, from the memo the session shares with
    /// whatever opened it ([`ProgramRef`]): hashed at most once per
    /// memo, so key derivations never rehash the program.
    pub fn program_fingerprint(&self) -> ContentHash {
        self.program.fingerprint()
    }

    /// The program the session reproduces on.
    pub(crate) fn program(&self) -> &'p Program {
        self.program.program()
    }

    /// The session's static analysis, computed on first use (unless the
    /// `Reproducer` path seeded it).
    pub(crate) fn analysis(&self) -> &ProgramAnalysis {
        self.analysis
            .get_or_init(|| Arc::new(ProgramAnalysis::analyze(self.program())))
    }

    /// The session's static race verdicts, resolved on first use —
    /// `None` unless [`ReproOptions::static_race`] is set and the fault
    /// plan is empty (an injected fault voids the analysis' execution
    /// model, so faulted sessions never prune).
    pub fn race_verdicts(&self) -> Option<&mcr_analysis::RaceVerdicts> {
        self.race
            .get_or_init(|| {
                (self.options.static_race && self.options.faults.is_empty())
                    .then(|| RaceAnalysis::analyze(self.program()))
            })
            .as_ref()
            .map(RaceAnalysis::verdicts)
    }

    /// The latest phase whose artifact is present, if any. A store hit
    /// installs the requested phase alone, so earlier artifacts may be
    /// absent.
    pub fn completed(&self) -> Option<Phase> {
        if self.artifacts.search.is_some() {
            Some(Phase::Search)
        } else if self.artifacts.ranked.is_some() {
            Some(Phase::Rank)
        } else if self.artifacts.delta.is_some() {
            Some(Phase::Diff)
        } else if self.artifacts.align.is_some() {
            Some(Phase::Align)
        } else if self.artifacts.index.is_some() {
            Some(Phase::Index)
        } else {
            None
        }
    }

    /// The phase after the latest present one — the next one a staged
    /// driver runs — or `None` when the session is complete.
    pub fn next_phase(&self) -> Option<Phase> {
        match self.completed() {
            None => Some(Phase::Index),
            Some(p) => p.next(),
        }
    }

    /// Whether the search artifact, and with it the report, is present.
    pub fn is_complete(&self) -> bool {
        self.next_phase().is_none()
    }

    /// The index artifact, when the phase has run.
    pub fn index_artifact(&self) -> Option<&FailureIndexArtifact> {
        self.artifacts.index.as_ref()
    }

    /// The alignment artifact, when the phase has run.
    pub fn alignment_artifact(&self) -> Option<&AlignmentArtifact> {
        self.artifacts.align.as_ref()
    }

    /// The dump-delta artifact, when the phase has run.
    pub fn delta_artifact(&self) -> Option<&DumpDeltaArtifact> {
        self.artifacts.delta.as_ref()
    }

    /// The ranked-accesses artifact, when the phase has run.
    pub fn ranked_artifact(&self) -> Option<&RankedAccessesArtifact> {
        self.artifacts.ranked.as_ref()
    }

    /// The search artifact, when the phase has run.
    pub fn search_artifact(&self) -> Option<&SearchArtifact> {
        self.artifacts.search.as_ref()
    }

    /// Where this session's time went (paper Table 6): the phases it
    /// computed, from the events they emitted. A phase rehydrated from
    /// the store, or carried in by [`ReproSession::resume`], adds zero.
    pub fn timings(&self) -> ReproTimings {
        self.timings
    }

    pub(crate) fn emit(&mut self, event: PhaseEvent) {
        self.timings.record(&event);
        self.observer.on_event(&event);
    }

    /// Guards phase entry: even phases without an interruptible loop
    /// refuse to start once the token has fired. No event fires here —
    /// the phase never Started, so it needs no terminal event.
    fn check_entry(&mut self, phase: Phase) -> Result<(), ReproError> {
        if self.cancel.is_cancelled() {
            return Err(ReproError::Cancelled(phase));
        }
        Ok(())
    }

    /// A fresh [`Vm`] on the session's program and input, under the
    /// session's memory model and fault plan. Every phase that executes
    /// the program builds its VMs here.
    pub(crate) fn new_vm(&self) -> Vm<'p> {
        Vm::new(self.program(), &self.input)
            .with_mem_model(self.options.mem_model)
            .with_faults(&self.options.faults)
    }

    /// The content-addressed key identifying `phase`'s work unit,
    /// derived from the session [`basis`](ReproSession::basis) alone:
    /// known before any phase runs, and equal across sessions that share
    /// a basis.
    pub fn phase_key(&self, phase: Phase) -> PhaseKey {
        PhaseKey::derive(self.basis(), phase)
    }

    /// The key of the next phase a staged driver runs — what a fleet
    /// scheduler single-flights on. `None` when the session is complete.
    pub fn next_phase_key(&self) -> Option<PhaseKey> {
        Some(self.phase_key(self.next_phase()?))
    }

    /// Looks `phase`'s key up in the store and, on a hit, installs the
    /// cached artifact alone — no prerequisite runs — and emits
    /// [`PhaseEvent::CacheHit`]. Returns whether the artifact is present
    /// afterwards. With a non-caching store (the default [`NullStore`])
    /// it derives no key and looks nothing up. A triage service probes
    /// the search phase this way to finish a warm job in one lookup.
    pub fn probe(&mut self, phase: Phase) -> bool {
        match phase {
            Phase::Index => self.probe_as::<IndexPhase>(),
            Phase::Align => self.probe_as::<AlignPhase>(),
            Phase::Diff => self.probe_as::<DiffPhase>(),
            Phase::Rank => self.probe_as::<RankPhase>(),
            Phase::Search => self.probe_as::<SearchPhase>(),
        }
    }

    fn probe_as<P: PipelinePhase>(&mut self) -> bool {
        if P::artifact(self).is_some() {
            return true;
        }
        if !self.store.is_caching() {
            return false;
        }
        // A corrupted or stale store entry is a miss, never an error:
        // the store is a cache, recomputing is always sound.
        let Some(artifact) = self
            .store
            .get(&self.phase_key(P::PHASE))
            .and_then(|bytes| P::decode(&bytes).ok())
        else {
            return false;
        };
        P::install(self, artifact);
        self.emit(PhaseEvent::CacheHit { phase: P::PHASE });
        true
    }

    /// The generic phase driver. It probes the store for the phase's own
    /// key first ([`ReproSession::probe`]); a hit installs that artifact
    /// alone, even after the cancel token fired, since it starts nothing.
    /// On a miss it brings every earlier phase in order — present,
    /// rehydrated or computed — because a phase may read any of them
    /// (the search reads the align and delta artifacts too), then
    /// computes the phase and writes its artifact back. Re-running a
    /// present phase returns the stored artifact.
    ///
    /// # Errors
    ///
    /// See [`ReproError`].
    pub fn run<P: PipelinePhase>(&mut self) -> Result<&P::Artifact, ReproError> {
        if !self.probe_as::<P>() {
            for &phase in &PHASES[..P::PHASE.index()] {
                self.run_phase(phase)?;
            }
            if P::GUARDED_ENTRY {
                self.check_entry(P::PHASE)?;
            }
            let artifact = P::compute(self)?;
            if self.store.is_caching() && P::cacheable(&artifact) {
                self.store
                    .put(&self.phase_key(P::PHASE), &P::encode(&artifact));
            }
            P::install(self, artifact);
        }
        Ok(P::artifact(self).expect("present, rehydrated or just installed"))
    }

    /// Dynamic-dispatch form of [`ReproSession::run`], for drivers that
    /// hold a [`Phase`] value (the fleet scheduler's wave loop).
    ///
    /// # Errors
    ///
    /// See [`ReproError`].
    pub fn run_phase(&mut self, phase: Phase) -> Result<(), ReproError> {
        match phase {
            Phase::Index => self.run::<IndexPhase>().map(drop),
            Phase::Align => self.run::<AlignPhase>().map(drop),
            Phase::Diff => self.run::<DiffPhase>().map(drop),
            Phase::Rank => self.run::<RankPhase>().map(drop),
            Phase::Search => self.run::<SearchPhase>().map(drop),
        }
    }

    /// Phase 1: reverse engineering the failure's execution index
    /// (§3.2, Algorithm 1). Under
    /// [`AlignMode::InstructionCount`] the artifact carries no index.
    ///
    /// # Errors
    ///
    /// [`ReproError::Reverse`] when the index cannot be reconstructed,
    /// [`ReproError::Cancelled`] when the token fired first.
    pub fn run_index(&mut self) -> Result<&FailureIndexArtifact, ReproError> {
        self.run::<IndexPhase>()
    }

    /// Phase 2: the deterministic passing run — aligned-point location
    /// (§3.3, Fig. 7), the sync/shared-access log the search needs, and
    /// the aligned dump.
    ///
    /// # Errors
    ///
    /// Those of [`ReproSession::run_index`], plus
    /// [`ReproError::NoSuchThread`] and [`ReproError::Cancelled`].
    pub fn run_align(&mut self) -> Result<&AlignmentArtifact, ReproError> {
        self.run::<AlignPhase>()
    }

    /// Phase 3: compare the failure dump with the aligned dump to find
    /// the critical shared variables (§4), and keep the passing run's
    /// accesses to them — under the dependence strategy after a traced
    /// replay to the aligned point and a backward slice.
    ///
    /// # Errors
    ///
    /// Those of [`ReproSession::run_align`], plus [`ReproError::Codec`]
    /// when a dump fails to round-trip through the codec.
    pub fn run_diff(&mut self) -> Result<&DumpDeltaArtifact, ReproError> {
        self.run::<DiffPhase>()
    }

    /// Phase 4: prioritize the CSV accesses the diff phase kept
    /// (temporal closeness or dependence distance, per
    /// [`ReproOptions::strategy`](crate::ReproOptions::strategy)).
    ///
    /// # Errors
    ///
    /// Those of [`ReproSession::run_diff`].
    pub fn run_rank(&mut self) -> Result<&RankedAccessesArtifact, ReproError> {
        self.run::<RankPhase>()
    }

    /// Phase 5: the directed schedule search (§5, Algorithm 2).
    ///
    /// Cancellation mid-search does *not* error: the phase completes
    /// with a partial [`SearchArtifact`] whose result carries
    /// `cancelled = true`, so [`ReproSession::report`] still yields a
    /// (partial) report.
    ///
    /// # Errors
    ///
    /// Those of [`ReproSession::run_rank`].
    pub fn run_search(&mut self) -> Result<&SearchArtifact, ReproError> {
        self.run::<SearchPhase>()
    }

    /// Runs the search, and whatever it needs, and returns the final
    /// report. With a warm store this is one lookup.
    ///
    /// # Errors
    ///
    /// See [`ReproError`].
    pub fn run_to_end(&mut self) -> Result<ReproReport, ReproError> {
        Ok(self.run_search()?.report.clone())
    }

    /// The [`ReproReport`], read from the search artifact (`None` before
    /// the search has run or been rehydrated).
    pub fn report(&self) -> Option<ReproReport> {
        Some(self.artifacts.search.as_ref()?.report.clone())
    }

    /// Serializes the whole session — options, input, failure dump, and
    /// every artifact present so far — to bytes. The compiled program
    /// is *not* included; supply it again to [`ReproSession::resume`].
    /// (The artifact store and executor handle are process-local
    /// runtime attachments and are likewise not serialized.)
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.raw(MAGIC);
        w.u8(VERSION);
        write_options(&mut w, &self.options);
        w.uvarint(self.input.len() as u64);
        for v in &self.input {
            w.ivarint(*v);
        }
        w.bytes(&mcr_dump::encode(&self.failure_dump));
        write_artifact(
            &mut w,
            &self.artifacts.index,
            FailureIndexArtifact::to_bytes,
        );
        write_artifact(&mut w, &self.artifacts.align, AlignmentArtifact::to_bytes);
        write_artifact(&mut w, &self.artifacts.delta, DumpDeltaArtifact::to_bytes);
        write_artifact(
            &mut w,
            &self.artifacts.ranked,
            RankedAccessesArtifact::to_bytes,
        );
        write_artifact(&mut w, &self.artifacts.search, SearchArtifact::to_bytes);
        w.into_bytes()
    }

    /// Restores a session from [`ReproSession::checkpoint`] bytes in a
    /// fresh process: only the compiled program is supplied externally
    /// (the static analysis is recomputed lazily). The restored session
    /// continues from the first phase whose artifact is missing and
    /// produces the same report an uninterrupted run would.
    ///
    /// # Errors
    ///
    /// [`ReproError::Codec`] on corrupted or truncated bytes,
    /// [`ReproError::NotAFailureDump`] when the embedded dump carries no
    /// failure.
    pub fn resume(program: &'p Program, bytes: &[u8]) -> Result<Self, ReproError> {
        let mut r = Reader::new(bytes);
        r.expect_magic(MAGIC)?;
        let version = r.u8()?;
        if version != VERSION {
            return Err(ReproError::Codec(DecodeError {
                msg: format!("unsupported session version {version}"),
                offset: r.pos(),
            }));
        }
        let options = read_options(&mut r)?;
        let n = r.len("input")?;
        let mut input = Vec::with_capacity(n.min(65536));
        for _ in 0..n {
            input.push(r.ivarint()?);
        }
        let failure_dump = mcr_dump::decode(r.bytes()?)?;
        let index = read_artifact(&mut r, FailureIndexArtifact::from_bytes)?;
        let align = read_artifact(&mut r, AlignmentArtifact::from_bytes)?;
        let delta = read_artifact(&mut r, DumpDeltaArtifact::from_bytes)?;
        let ranked = read_artifact(&mut r, RankedAccessesArtifact::from_bytes)?;
        let search = read_artifact(&mut r, SearchArtifact::from_bytes)?;
        r.finish()?;
        let mut session = Self::open(ProgramRef::new(program), failure_dump, input, options)?;
        session.artifacts = Artifacts {
            index,
            align,
            delta,
            ranked,
            search,
        };
        Ok(session)
    }
}

/// Hashes the session identity — program fingerprint (memoized by the
/// caller), failure dump, failing input, and result-relevant options.
/// The dump goes through its `Hash` walk and the input as one word per
/// element, so no encoding is built; only the options, a few bytes, use
/// the checkpoint's encoder.
fn session_basis(
    program_fp: ContentHash,
    input: &[i64],
    failure_dump: &CoreDump,
    options: &ReproOptions,
) -> ContentHash {
    let mut h = ContentHasher::new();
    h.update(b"MCRB2");
    h.write_u128(program_fp.0);
    failure_dump.hash(&mut h);
    h.write_usize(input.len());
    for &v in input {
        h.write_i64(v);
    }
    let mut w = Writer::new();
    write_key_options(&mut w, options);
    h.update(&w.into_bytes());
    h.finish128()
}

/// Serializes the execution environment (memory model + fault plan).
/// Shared between the checkpoint codec and the key basis: both must see
/// it — a schedule found under TSO or with injected faults is only
/// meaningful in that same environment.
fn write_env(w: &mut Writer, o: &ReproOptions) {
    match o.mem_model {
        MemModel::Sc => w.u8(0),
        MemModel::Tso { buffer_cap } => {
            w.u8(1);
            w.uvarint(buffer_cap as u64);
        }
    }
    w.uvarint(o.faults.len() as u64);
    for f in &o.faults {
        w.u8(match f.kind {
            FaultKind::AllocFail => 0,
            FaultKind::LockTimeout => 1,
        });
        w.uvarint(f.tid.0 as u64);
        w.uvarint(f.nth as u64);
    }
}

fn read_env(r: &mut Reader<'_>) -> Result<(MemModel, Vec<FaultSpec>), DecodeError> {
    let mem_model = match r.u8()? {
        0 => MemModel::Sc,
        1 => MemModel::Tso {
            buffer_cap: r.uvarint()? as u32,
        },
        t => return r.err(format!("bad memory model tag {t}")),
    };
    let n = r.len("faults")?;
    let mut faults = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let kind = match r.u8()? {
            0 => FaultKind::AllocFail,
            1 => FaultKind::LockTimeout,
            t => return r.err(format!("bad fault kind tag {t}")),
        };
        let tid = ThreadId(r.uvarint()? as u32);
        let nth = r.uvarint()? as u32;
        faults.push(FaultSpec { kind, tid, nth });
    }
    Ok((mem_model, faults))
}

/// The options bytes that enter a session's key basis: every semantic
/// knob *except* the worker count ([`ReproOptions::parallelism`]). The
/// parallel-equivalence suite pins that results are independent of
/// worker count, so folding it into keys would only stop sessions with
/// different core counts from sharing one store. Checkpoints append the
/// worker count via [`write_options`].
fn write_key_options(w: &mut Writer, o: &ReproOptions) {
    write_env(w, o);
    w.bool(o.static_race);
    w.u8(match o.strategy {
        Strategy::Temporal => 0,
        Strategy::Dependence => 1,
    });
    w.u8(match o.align_mode {
        AlignMode::ExecutionIndex => 0,
        AlignMode::InstructionCount => 1,
    });
    w.u8(match o.algorithm {
        Algorithm::Chess => 0,
        Algorithm::ChessX => 1,
    });
    w.uvarint(o.search.preemption_bound as u64);
    w.uvarint(o.search.max_tries);
    w.opt_duration(o.search.time_budget);
    w.uvarint(o.search.max_steps);
    w.uvarint(o.search.pair_pool as u64);
    w.uvarint(o.trace_window as u64);
    w.uvarint(o.max_steps);
    w.uvarint(o.limits.max_depth as u64);
    w.uvarint(o.limits.max_paths as u64);
}

fn write_artifact<T>(w: &mut Writer, artifact: &Option<T>, to_bytes: impl Fn(&T) -> Vec<u8>) {
    match artifact {
        None => w.bool(false),
        Some(a) => {
            w.bool(true);
            w.bytes(&to_bytes(a));
        }
    }
}

fn read_artifact<T>(
    r: &mut Reader<'_>,
    from_bytes: impl Fn(&[u8]) -> Result<T, DecodeError>,
) -> Result<Option<T>, DecodeError> {
    Ok(if r.bool()? {
        Some(from_bytes(r.bytes()?)?)
    } else {
        None
    })
}

/// Serializes the options' *semantic* knobs: the key bytes of
/// [`write_key_options`] followed by the worker count. The search
/// config's own worker count is not written: the session replaces it
/// with [`ReproOptions::parallelism`]. Runtime attachments (the cancel
/// token, artifact store, and executor handle) are process-local and
/// excluded; they also do not contribute to session bases, so attaching
/// a store never changes a phase key.
fn write_options(w: &mut Writer, o: &ReproOptions) {
    write_key_options(w, o);
    w.uvarint(o.parallelism as u64);
}

fn read_options(r: &mut Reader<'_>) -> Result<ReproOptions, DecodeError> {
    let (mem_model, faults) = read_env(r)?;
    let static_race = r.bool()?;
    let strategy = match r.u8()? {
        0 => Strategy::Temporal,
        1 => Strategy::Dependence,
        t => return r.err(format!("bad strategy tag {t}")),
    };
    let align_mode = match r.u8()? {
        0 => AlignMode::ExecutionIndex,
        1 => AlignMode::InstructionCount,
        t => return r.err(format!("bad align mode tag {t}")),
    };
    let algorithm = match r.u8()? {
        0 => Algorithm::Chess,
        1 => Algorithm::ChessX,
        t => return r.err(format!("bad algorithm tag {t}")),
    };
    let mut search = SearchConfig {
        preemption_bound: r.uvarint()? as usize,
        max_tries: r.uvarint()?,
        time_budget: r.opt_duration()?,
        max_steps: r.uvarint()?,
        pair_pool: r.uvarint()? as usize,
        // Set from the worker count, after the key options.
        parallelism: 0,
        // The token is process-local state; a resumed session gets a
        // fresh one. Likewise the executor handle.
        cancel: CancelToken::new(),
        pool: None,
    };
    let trace_window = r.uvarint()? as usize;
    let max_steps = r.uvarint()?;
    let limits = TraverseLimits {
        max_depth: r.uvarint()? as usize,
        max_paths: r.uvarint()? as usize,
    };
    let parallelism = r.uvarint()? as usize;
    // The count the search runs with (see `write_options`).
    search.parallelism = parallelism;
    Ok(ReproOptions {
        strategy,
        align_mode,
        algorithm,
        search,
        trace_window,
        max_steps,
        limits,
        parallelism,
        store: None,
        mem_model,
        faults,
        static_race,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::TimingLog;
    use crate::store::MemoryStore;
    use crate::stress::find_failure;
    use std::sync::Mutex;
    use std::time::Duration;

    const FIG1: &str = r#"
        global x: int;
        global input: [int; 2];
        lock l;
        fn F(p) { p[0] = 1; }
        fn T1() {
            var i; var p;
            for (i = 0; i < 2; i = i + 1) {
                x = 0;
                p = alloc(2);
                acquire l;
                if (input[i] > 0) {
                    x = 1;
                    p = null;
                }
                release l;
                if (!x) { F(p); }
            }
        }
        fn T2() { x = 0; }
        fn main() { spawn T1(); spawn T2(); }
    "#;

    fn fig1_session(p: &Program, options: ReproOptions) -> ReproSession<'_> {
        let input = [0i64, 1];
        let sf = find_failure(p, &input, 0..200_000, 1_000_000).expect("stress exposes");
        ReproSession::new(p, sf.dump, &input, options).unwrap()
    }

    #[test]
    fn phases_run_one_at_a_time() {
        let p = mcr_lang::compile(FIG1).unwrap();
        let mut s = fig1_session(&p, ReproOptions::default());
        assert_eq!(s.completed(), None);
        assert_eq!(s.next_phase(), Some(Phase::Index));
        s.run_index().unwrap();
        assert_eq!(s.completed(), Some(Phase::Index));
        s.run_align().unwrap();
        assert_eq!(s.completed(), Some(Phase::Align));
        s.run_diff().unwrap();
        s.run_rank().unwrap();
        assert_eq!(s.next_phase(), Some(Phase::Search));
        assert!(s.report().is_none(), "no report before the search");
        s.run_search().unwrap();
        assert!(s.is_complete());
        let report = s.report().unwrap();
        assert!(report.search.reproduced);
    }

    #[test]
    fn focus_outside_the_dump_is_no_such_thread() {
        let p = mcr_lang::compile(FIG1).unwrap();
        let input = [0i64, 1];
        let sf = find_failure(&p, &input, 0..200_000, 1_000_000).expect("stress exposes");
        let mut dump = sf.dump;
        dump.focus = ThreadId(dump.threads.len() as u32);
        let bad = dump.focus;
        let err = ReproSession::new(&p, dump.clone(), &input, ReproOptions::default())
            .expect_err("focus is not a thread of the dump");
        assert!(
            matches!(err, ReproError::NoSuchThread(t) if t == bad),
            "{err}"
        );
        let r = crate::Reproducer::new(&p, ReproOptions::default());
        assert!(matches!(
            r.reproduce(&dump, &input),
            Err(ReproError::NoSuchThread(t)) if t == bad
        ));
    }

    #[test]
    fn later_phases_pull_in_prerequisites() {
        let p = mcr_lang::compile(FIG1).unwrap();
        let mut s = fig1_session(&p, ReproOptions::default());
        // Jumping straight to the diff phase runs index + align first.
        s.run_diff().unwrap();
        assert_eq!(s.completed(), Some(Phase::Diff));
        assert!(s.index_artifact().is_some());
        assert!(s.alignment_artifact().is_some());
    }

    #[test]
    fn observer_sees_all_phases_in_order() {
        let p = mcr_lang::compile(FIG1).unwrap();
        let mut s = fig1_session(&p, ReproOptions::default());
        let log = Arc::new(Mutex::new(TimingLog::new()));
        s.set_observer(Box::new(Arc::clone(&log)));
        s.run_to_end().unwrap();
        let finished: Vec<Phase> = log
            .lock()
            .unwrap()
            .finished()
            .iter()
            .map(|(phase, _)| *phase)
            .collect();
        assert_eq!(finished, crate::observe::PHASES);
        // The diff and search phases' sub-stages were reported too.
        let stages: Vec<&str> = log
            .lock()
            .unwrap()
            .events
            .iter()
            .filter_map(|e| match e {
                PhaseEvent::Stage { stage, .. } => Some(*stage),
                _ => None,
            })
            .collect();
        assert_eq!(
            stages,
            [
                "replay",
                "dump-parse",
                "diff",
                "slice",
                "annotate",
                "schedule"
            ]
        );
    }

    #[test]
    fn cancelled_session_refuses_phase_entry() {
        let p = mcr_lang::compile(FIG1).unwrap();
        let mut s = fig1_session(&p, ReproOptions::default());
        s.cancel_token().cancel();
        assert!(matches!(
            s.run_index(),
            Err(ReproError::Cancelled(Phase::Index))
        ));
    }

    /// A warm `run_to_end` probes the search key first and rehydrates
    /// that artifact alone; a staged call still rehydrates its own phase.
    #[test]
    fn warm_session_rehydrates_the_search_alone() {
        let p = mcr_lang::compile(FIG1).unwrap();
        let input = [0i64, 1];
        let sf = find_failure(&p, &input, 0..200_000, 1_000_000).expect("stress exposes");
        let store: Arc<dyn ArtifactStore> = Arc::new(MemoryStore::unbounded());

        let mut cold =
            ReproSession::new(&p, sf.dump.clone(), &input, ReproOptions::default()).unwrap();
        cold.set_store(Arc::clone(&store));
        let cold_report = cold.run_to_end().unwrap();
        assert_eq!(store.stats().inserts, 5, "every phase cached");
        assert_eq!(store.stats().misses, 5, "each phase probed once");

        let mut warm =
            ReproSession::new(&p, sf.dump.clone(), &input, ReproOptions::default()).unwrap();
        warm.set_store(Arc::clone(&store));
        let log = Arc::new(Mutex::new(TimingLog::new()));
        warm.set_observer(Box::new(Arc::clone(&log)));
        let warm_report = warm.run_to_end().unwrap();

        // One lookup, one hit: the search; nothing Started.
        assert_eq!(log.lock().unwrap().cache_hits(), [Phase::Search]);
        assert!(log.lock().unwrap().finished().is_empty());
        assert_eq!((store.stats().hits, store.stats().misses), (1, 5));
        assert!(warm.index_artifact().is_none() && warm.ranked_artifact().is_none());
        // No phase ran, so nothing was analyzed.
        assert!(cold.analysis.get().is_some(), "the cold session analyzed");
        assert!(warm.analysis.get().is_none(), "warm session analyzed");
        // The rehydrated report is bit-identical.
        assert_eq!(cold_report, warm_report);
        // And both sessions derived identical keys.
        assert_eq!(cold.basis(), warm.basis());
        for phase in crate::observe::PHASES {
            assert_eq!(cold.phase_key(phase), warm.phase_key(phase));
        }

        // A staged call asks for its own phase, and that is what hits.
        let mut staged = fig1_session(&p, ReproOptions::default());
        staged.set_store(Arc::clone(&store));
        staged.run_align().unwrap();
        assert_eq!(staged.completed(), Some(Phase::Align));
        assert!(staged.index_artifact().is_none());
        staged.run_diff().unwrap();
        assert_eq!((store.stats().hits, store.stats().misses), (3, 5));
    }

    #[test]
    fn phase_keys_differ_across_inputs_and_options() {
        let p = mcr_lang::compile(FIG1).unwrap();
        let input = [0i64, 1];
        let sf = find_failure(&p, &input, 0..200_000, 1_000_000).expect("stress exposes");
        let a = ReproSession::new(&p, sf.dump.clone(), &input, ReproOptions::default()).unwrap();
        let b =
            ReproSession::new(&p, sf.dump.clone(), &[0, 1, 2], ReproOptions::default()).unwrap();
        let c = ReproSession::new(
            &p,
            sf.dump.clone(),
            &input,
            ReproOptions {
                trace_window: 7,
                ..Default::default()
            },
        )
        .unwrap();
        assert_ne!(a.basis(), b.basis(), "input is part of the key basis");
        assert_ne!(a.basis(), c.basis(), "options are part of the key basis");
        // Worker counts are NOT part of the basis: a cache populated on
        // one machine must hit on another with different cores.
        let d = ReproSession::new(
            &p,
            sf.dump.clone(),
            &input,
            ReproOptions {
                parallelism: 64,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(a.basis(), d.basis(), "parallelism must not affect keys");
        assert_ne!(
            a.phase_key(Phase::Index),
            b.phase_key(Phase::Index),
            "index keys diverge with the basis"
        );
        // Every key is known before any phase runs.
        assert_eq!(a.completed(), None);
        assert_ne!(a.phase_key(Phase::Align), b.phase_key(Phase::Align));
        assert_ne!(a.phase_key(Phase::Align), a.phase_key(Phase::Index));
        assert_eq!(a.next_phase_key().unwrap().phase, Phase::Index);
    }

    /// The basis moves with every part of the session identity — each
    /// input element, each part of the dump, each key option and the
    /// program — and with nothing else: not the worker count, the store
    /// or the executor. A dump that went through the codec keys as the
    /// in-memory one.
    #[test]
    fn basis_moves_with_every_part_of_the_identity_and_nothing_else() {
        use mcr_dump::{DumpReason, FrameImage};
        use mcr_vm::{BufferedStore, GSlot, MemLoc, Value};

        let p = mcr_lang::compile(FIG1).unwrap();
        let input = [0i64, 1];
        let dump = find_failure(&p, &input, 0..200_000, 1_000_000)
            .expect("stress exposes")
            .dump;
        let basis = |p: &Program, dump: &CoreDump, input: &[i64], options: ReproOptions| {
            ReproSession::new(p, dump.clone(), input, options)
                .unwrap()
                .basis()
        };
        let base = basis(&p, &dump, &input, ReproOptions::default());

        assert_ne!(base, basis(&p, &dump, &[1, 1], ReproOptions::default()));
        assert_ne!(base, basis(&p, &dump, &[0, 2], ReproOptions::default()));

        fn top(d: &mut CoreDump) -> &mut FrameImage {
            let focus = d.focus.0 as usize;
            d.threads[focus].frames.last_mut().expect("a live frame")
        }
        fn bump(v: &mut Value) {
            *v = match *v {
                Value::Int(i) => Value::Int(i + 1),
                Value::Ptr(_) => Value::Int(7),
            }
        }
        type Edit = fn(&mut CoreDump);
        let edits: Vec<(&str, Edit)> = vec![
            ("global scalar", |d| {
                let Some(GSlot::Scalar(v)) =
                    d.globals.iter_mut().find(|g| matches!(g, GSlot::Scalar(_)))
                else {
                    panic!("FIG1 has a scalar global");
                };
                bump(v);
            }),
            ("global array element", |d| {
                let Some(GSlot::Array(vs)) =
                    d.globals.iter_mut().find(|g| matches!(g, GSlot::Array(_)))
                else {
                    panic!("FIG1 has an array global");
                };
                bump(&mut vs[1]);
            }),
            ("heap slot", |d| {
                let obj = d.heap.iter_mut().flatten().next().expect("FIG1 allocates");
                bump(&mut obj[0]);
            }),
            ("frame pc", |d| top(d).pc.0 += 1),
            ("local", |d| bump(&mut top(d).locals[0])),
            ("loop counter", |d| {
                let frame = d
                    .threads
                    .iter_mut()
                    .flat_map(|t| &mut t.frames)
                    .find(|f| !f.loop_counters.is_empty())
                    .expect("T1 loops");
                frame.loop_counters[0] += 1;
            }),
            ("focus", |d| {
                d.focus = ThreadId((d.focus.0 + 1) % d.threads.len() as u32);
            }),
            ("steps", |d| d.steps += 1),
            ("reason", |d| {
                let DumpReason::Failure(f) = &mut d.reason else {
                    panic!("a failure dump");
                };
                f.pc.stmt.0 += 1;
            }),
            ("lock owner", |d| {
                d.locks[0] = match d.locks[0] {
                    None => Some(ThreadId(0)),
                    Some(_) => None,
                }
            }),
            ("store-buffer entry", |d| {
                d.threads[0].store_buffer.push(BufferedStore {
                    loc: MemLoc::Global(mcr_lang::GlobalId(0)),
                    value: Value::Int(1),
                    pc: mcr_lang::Pc::new(mcr_lang::FuncId(0), mcr_lang::StmtId(0)),
                });
            }),
        ];
        for (what, edit) in &edits {
            let mut edited = dump.clone();
            edit(&mut edited);
            assert_ne!(edited, dump, "{what}: the edit changes the dump");
            assert_ne!(
                base,
                basis(&p, &edited, &input, ReproOptions::default()),
                "{what}"
            );
        }
        // What a store-buffer entry holds keys too, not only that it is
        // there.
        let mut one = dump.clone();
        (edits.last().expect("the store-buffer edit").1)(&mut one);
        let mut other = one.clone();
        other.threads[0].store_buffer[0].value = Value::Int(2);
        assert_ne!(
            basis(&p, &one, &input, ReproOptions::default()),
            basis(&p, &other, &input, ReproOptions::default())
        );

        for options in [
            ReproOptions {
                trace_window: 7,
                ..Default::default()
            },
            ReproOptions {
                strategy: Strategy::Dependence,
                ..Default::default()
            },
            ReproOptions {
                mem_model: MemModel::tso(),
                ..Default::default()
            },
            ReproOptions {
                search: SearchConfig {
                    max_tries: 9,
                    ..SearchConfig::default()
                },
                ..Default::default()
            },
        ] {
            assert_ne!(base, basis(&p, &dump, &input, options));
        }
        let edited =
            mcr_lang::compile(&FIG1.replace("fn T2() { x = 0; }", "fn T2() { x = 2; }")).unwrap();
        assert_ne!(base, basis(&edited, &dump, &input, ReproOptions::default()));

        // Worker count, store and executor are runtime attachments.
        for options in [
            ReproOptions {
                parallelism: 7,
                ..Default::default()
            },
            ReproOptions {
                store: Some(Arc::new(MemoryStore::unbounded())),
                ..Default::default()
            },
            ReproOptions {
                search: SearchConfig {
                    pool: Some(minipool::Pool::new(2)),
                    parallelism: 3,
                    ..SearchConfig::default()
                },
                ..Default::default()
            },
        ] {
            assert_eq!(base, basis(&p, &dump, &input, options));
        }
        let round_tripped = mcr_dump::decode(&mcr_dump::encode(&dump)).unwrap();
        assert_eq!(
            base,
            basis(&p, &round_tripped, &input, ReproOptions::default())
        );
    }

    /// Every option a checkpoint serializes survives `resume`, the key
    /// options and the worker count after them alike: each is set to a
    /// non-default value here, so a field the reader skipped, swapped or
    /// defaulted would show. The search config's own worker count is not
    /// serialized; it comes back as the one the session runs the search
    /// with. The key basis is unchanged by the round trip, and a
    /// checkpoint of the previous version is refused.
    #[test]
    fn checkpoint_round_trips_every_serialized_option() {
        let p = mcr_lang::compile(FIG1).unwrap();
        let search = SearchConfig {
            preemption_bound: 3,
            max_tries: 77,
            time_budget: Some(Duration::from_millis(1500)),
            max_steps: 123_456,
            pair_pool: 9,
            parallelism: 5,
            ..SearchConfig::default()
        };
        let faults = vec![
            FaultSpec {
                kind: FaultKind::AllocFail,
                tid: ThreadId(1),
                nth: 2,
            },
            FaultSpec {
                kind: FaultKind::LockTimeout,
                tid: ThreadId(2),
                nth: 0,
            },
        ];
        let options = ReproOptions {
            strategy: Strategy::Dependence,
            align_mode: AlignMode::InstructionCount,
            algorithm: Algorithm::Chess,
            search,
            trace_window: 4321,
            max_steps: 8765,
            limits: TraverseLimits {
                max_depth: 6,
                max_paths: 321,
            },
            parallelism: 7,
            mem_model: MemModel::Tso { buffer_cap: 5 },
            faults: faults.clone(),
            static_race: true,
            ..Default::default()
        };
        let s = fig1_session(&p, options);
        let ckpt = s.checkpoint();
        let resumed = ReproSession::resume(&p, &ckpt).unwrap();
        let o = resumed.options();
        assert_eq!(o.strategy, Strategy::Dependence);
        assert_eq!(o.align_mode, AlignMode::InstructionCount);
        assert_eq!(o.algorithm, Algorithm::Chess);
        assert_eq!(o.search.preemption_bound, 3);
        assert_eq!(o.search.max_tries, 77);
        assert_eq!(o.search.time_budget, Some(Duration::from_millis(1500)));
        assert_eq!(o.search.max_steps, 123_456);
        assert_eq!(o.search.pair_pool, 9);
        assert_eq!(o.search.parallelism, 7);
        assert_eq!(o.trace_window, 4321);
        assert_eq!(o.max_steps, 8765);
        assert_eq!((o.limits.max_depth, o.limits.max_paths), (6, 321));
        assert_eq!(o.parallelism, 7);
        assert_eq!(o.mem_model, MemModel::Tso { buffer_cap: 5 });
        assert_eq!(o.faults, faults);
        assert!(o.static_race);
        assert_eq!(resumed.basis(), s.basis());
        assert_eq!(resumed.checkpoint(), ckpt);
        // A version-4 checkpoint carried per-phase budgets and a second
        // worker count; it is refused rather than misread.
        let mut v4 = ckpt;
        v4[MAGIC.len()] = 4;
        match ReproSession::resume(&p, &v4) {
            Err(ReproError::Codec(e)) => {
                assert!(e.msg.contains("unsupported session version 4"), "{e}");
            }
            other => panic!("expected a codec error, got ok={}", other.is_ok()),
        };
    }

    #[test]
    fn partial_search_results_are_not_cached() {
        let p = mcr_lang::compile(FIG1).unwrap();
        let store: Arc<dyn ArtifactStore> = Arc::new(MemoryStore::unbounded());
        let mut s = fig1_session(&p, ReproOptions::default());
        s.set_store(Arc::clone(&store));
        s.run_rank().unwrap();
        // Cancel before the search: it completes with a partial result.
        s.cancel_token().cancel();
        let artifact = s.run_search().unwrap();
        assert!(artifact.report.search.cancelled);
        // Rank and everything before it were cached; the search was not.
        assert_eq!(store.stats().inserts, 4);
    }

    /// A checkpoint that embeds a version-1 delta artifact (taken before
    /// the delta layout changed) fails to resume with a typed codec
    /// error.
    #[test]
    fn checkpoint_with_version_1_delta_rejected() {
        let p = mcr_lang::compile(FIG1).unwrap();
        let mut s = fig1_session(&p, ReproOptions::default());
        s.run_diff().unwrap();
        let ckpt = s.checkpoint();
        // The delta is the last artifact present: `true`, its
        // length-prefixed bytes, then `false` for rank and search.
        let delta = s.delta_artifact().unwrap().to_bytes();
        let mut tail = Writer::new();
        tail.bool(true);
        tail.bytes(&delta);
        tail.bool(false);
        tail.bool(false);
        let tail = tail.into_bytes();
        assert!(ckpt.ends_with(&tail));
        let mut stale = Writer::new();
        stale.raw(&ckpt[..ckpt.len() - tail.len()]);
        stale.bool(true);
        stale.bytes(&crate::artifact::v1_delta_bytes());
        stale.bool(false);
        stale.bool(false);
        let result = ReproSession::resume(&p, &stale.into_bytes());
        match result {
            Err(ReproError::Codec(e)) => {
                assert!(e.msg.contains("artifact version 1"), "{e}");
            }
            other => panic!("expected a codec error, got ok={}", other.is_ok()),
        }
    }

    /// A checkpoint that embeds a version-2 alignment artifact (taken
    /// before the artifact carried the aligned dump) fails to resume
    /// with a typed codec error.
    #[test]
    fn checkpoint_with_version_2_alignment_rejected() {
        let p = mcr_lang::compile(FIG1).unwrap();
        let mut s = fig1_session(&p, ReproOptions::default());
        s.run_align().unwrap();
        let ckpt = s.checkpoint();
        // The alignment is the last artifact present: `true`, its
        // length-prefixed bytes, then `false` for the three later ones.
        let align = s.alignment_artifact().unwrap().to_bytes();
        let tail = |align: &[u8]| {
            let mut w = Writer::new();
            w.bool(true);
            w.bytes(align);
            for _ in 0..3 {
                w.bool(false);
            }
            w.into_bytes()
        };
        let current = tail(&align);
        assert!(ckpt.ends_with(&current));
        let mut stale = ckpt[..ckpt.len() - current.len()].to_vec();
        stale.extend(tail(&crate::artifact::v2_alignment_bytes()));
        match ReproSession::resume(&p, &stale) {
            Err(ReproError::Codec(e)) => {
                assert!(e.msg.contains("artifact version 2"), "{e}");
            }
            other => panic!("expected a codec error, got ok={}", other.is_ok()),
        };
    }

    /// A version-2 alignment left in the store under the current key is
    /// a miss for a staged `run_align`: the index rehydrates, the align
    /// phase recomputes and rewrites the entry byte for byte, and the
    /// session reports what the cold run reported.
    #[test]
    fn stale_alignment_store_entry_is_recomputed() {
        let p = mcr_lang::compile(FIG1).unwrap();
        let store: Arc<dyn ArtifactStore> = Arc::new(MemoryStore::unbounded());
        let mut cold = fig1_session(&p, ReproOptions::default());
        cold.set_store(Arc::clone(&store));
        let cold_report = cold.run_to_end().unwrap();
        let key = cold.phase_key(Phase::Align);
        let cold_entry = store.get(&key).unwrap();
        store.put(&key, &crate::artifact::v2_alignment_bytes());

        let mut warm = fig1_session(&p, ReproOptions::default());
        warm.set_store(Arc::clone(&store));
        let log = Arc::new(Mutex::new(TimingLog::new()));
        warm.set_observer(Box::new(Arc::clone(&log)));
        warm.run_align().unwrap();
        let warm_report = warm.run_to_end().unwrap();

        let log = log.lock().unwrap();
        assert_eq!(log.cache_hits(), [Phase::Index, Phase::Search]);
        assert_eq!(log.finished().len(), 1);
        assert_eq!(log.finished()[0].0, Phase::Align);
        assert_eq!(store.get(&key).expect("entry rewritten"), cold_entry);
        assert_eq!(cold_report, warm_report);
    }

    /// An aligned dump that does not decode stops the diff phase with a
    /// typed codec error, after an `Interrupted` event.
    #[test]
    fn undecodable_aligned_dump_is_a_codec_error() {
        let p = mcr_lang::compile(FIG1).unwrap();
        for strategy in [Strategy::Temporal, Strategy::Dependence] {
            let mut s = fig1_session(
                &p,
                ReproOptions {
                    strategy,
                    ..Default::default()
                },
            );
            s.run_align().unwrap();
            let align = s.artifacts.align.as_mut().unwrap();
            let len = align.aligned_dump.len();
            align.aligned_dump.truncate(len / 2);
            let log = Arc::new(Mutex::new(TimingLog::new()));
            s.set_observer(Box::new(Arc::clone(&log)));
            assert!(matches!(s.run_diff(), Err(ReproError::Codec(_))));
            assert!(s.delta_artifact().is_none());
            assert!(log
                .lock()
                .unwrap()
                .events
                .contains(&PhaseEvent::Interrupted { phase: Phase::Diff }));
        }
    }

    /// A version-1 delta left in the store under the current key is a
    /// miss for a staged `run_diff`: the index and alignment rehydrate,
    /// the diff phase recomputes and rewrites the entry byte for byte,
    /// and the session reports what the cold run reported.
    #[test]
    fn stale_delta_store_entry_is_recomputed() {
        let p = mcr_lang::compile(FIG1).unwrap();
        let store: Arc<dyn ArtifactStore> = Arc::new(MemoryStore::unbounded());
        let mut cold = fig1_session(&p, ReproOptions::default());
        cold.set_store(Arc::clone(&store));
        let cold_report = cold.run_to_end().unwrap();
        let key = cold.phase_key(Phase::Diff);
        let cold_entry = store.get(&key).unwrap();
        store.put(&key, &crate::artifact::v1_delta_bytes());

        let mut warm = fig1_session(&p, ReproOptions::default());
        warm.set_store(Arc::clone(&store));
        let log = Arc::new(Mutex::new(TimingLog::new()));
        warm.set_observer(Box::new(Arc::clone(&log)));
        warm.run_diff().unwrap();
        let warm_report = warm.run_to_end().unwrap();

        let log = log.lock().unwrap();
        assert_eq!(
            log.cache_hits(),
            [Phase::Index, Phase::Align, Phase::Search]
        );
        assert_eq!(log.finished().len(), 1);
        assert_eq!(log.finished()[0].0, Phase::Diff);
        assert_eq!(store.get(&key).expect("entry rewritten"), cold_entry);
        assert_eq!(cold_report, warm_report);
    }

    /// The warm-lookup contract, for every Table 2 bug under SC and TSO
    /// with both strategies. A cold session writes five entries. Phase
    /// keys exist before any phase runs and match across sessions that
    /// share a basis. A fresh session's `run_to_end` makes exactly one
    /// lookup, a search hit, and starts and analyzes nothing. A stale or
    /// corrupt search entry recomputes the search alone: the four
    /// upstream phases rehydrate and the entry is rewritten byte for
    /// byte. Every report equals the cold one.
    #[test]
    fn a_warm_job_is_one_lookup_for_every_bug() {
        for bug in mcr_workloads::all_bugs() {
            let program = bug.compile();
            let input = bug.default_input();
            for mem_model in [MemModel::Sc, MemModel::tso()] {
                let env = crate::RunConfig {
                    mem_model,
                    faults: Vec::new(),
                };
                let sf = crate::stress::find_failure_cfg(
                    &program,
                    &input,
                    0..200_000,
                    bug.max_steps,
                    &env,
                )
                .unwrap_or_else(|| panic!("{}: stress found no failure", bug.name));
                for strategy in [Strategy::Temporal, Strategy::Dependence] {
                    let case = format!("{} {mem_model:?} {strategy:?}", bug.name);
                    let options = ReproOptions {
                        strategy,
                        mem_model,
                        parallelism: 1,
                        search: SearchConfig {
                            max_tries: 10_000,
                            ..SearchConfig::default()
                        },
                        ..ReproOptions::default()
                    };
                    let store = Arc::new(MemoryStore::unbounded());
                    let open = || {
                        let mut s =
                            ReproSession::new(&program, sf.dump.clone(), &input, options.clone())
                                .unwrap();
                        s.set_store(Arc::clone(&store) as Arc<dyn ArtifactStore>);
                        let log = Arc::new(Mutex::new(TimingLog::new()));
                        s.set_observer(Box::new(Arc::clone(&log)));
                        (s, log)
                    };

                    let (mut cold, _) = open();
                    let (mut warm, log) = open();
                    for phase in crate::observe::PHASES {
                        assert_eq!(warm.phase_key(phase), cold.phase_key(phase), "{case}");
                    }
                    let cold_report = cold.run_to_end().unwrap();
                    assert_eq!(store.stats().inserts, 5, "{case}");
                    let key = cold.phase_key(Phase::Search);
                    let search_entry = store.get(&key).unwrap();

                    let before = store.stats();
                    assert_eq!(warm.run_to_end().unwrap(), cold_report, "{case}");
                    let after = store.stats();
                    assert_eq!(
                        (after.hits - before.hits, after.misses - before.misses),
                        (1, 0),
                        "{case}: one lookup"
                    );
                    assert_eq!(after.inserts, 5, "{case}");
                    assert_eq!(
                        log.lock().unwrap().events,
                        [PhaseEvent::CacheHit {
                            phase: Phase::Search
                        }],
                        "{case}"
                    );
                    assert!(warm.analysis.get().is_none(), "{case}: warm analyzed");

                    // The artifact version follows the 4-byte magic.
                    let mut stale = search_entry.clone();
                    stale[4] -= 1;
                    let corrupt = &search_entry[..search_entry.len() - 1];
                    for bad in [&stale[..], corrupt] {
                        store.put(&key, bad);
                        let (mut again, log) = open();
                        assert_eq!(again.run_to_end().unwrap(), cold_report, "{case}");
                        let log = log.lock().unwrap();
                        assert_eq!(
                            log.cache_hits(),
                            [Phase::Index, Phase::Align, Phase::Diff, Phase::Rank],
                            "{case}"
                        );
                        let finished: Vec<Phase> = log.finished().iter().map(|f| f.0).collect();
                        assert_eq!(finished, [Phase::Search], "{case}");
                        assert_eq!(store.get(&key).unwrap(), search_entry, "{case}");
                    }
                }
            }
        }
    }

    /// Two cold runs of one job, each on its own store, write the same
    /// bytes under the same keys: no artifact carries a clock.
    #[test]
    fn cold_runs_write_byte_identical_store_entries() {
        let p = mcr_lang::compile(FIG1).unwrap();
        let run = || {
            let store = Arc::new(MemoryStore::unbounded());
            let mut s = fig1_session(&p, ReproOptions::default());
            s.set_store(Arc::clone(&store) as Arc<dyn ArtifactStore>);
            s.run_to_end().unwrap();
            let entries: Vec<Vec<u8>> = crate::observe::PHASES
                .iter()
                .map(|&phase| store.get(&s.phase_key(phase)).unwrap())
                .collect();
            (entries, store.stats().bytes)
        };
        let (a, a_bytes) = run();
        let (b, b_bytes) = run();
        assert_eq!(a, b);
        assert_eq!(a_bytes, b_bytes);
        assert_eq!(a_bytes, a.iter().map(Vec::len).sum::<usize>());
    }

    /// A session times only the phases it computes: rehydrated and
    /// resumed phases add nothing to its `timings()`.
    #[test]
    fn timings_count_only_the_phases_a_session_computed() {
        let p = mcr_lang::compile(FIG1).unwrap();
        let store: Arc<dyn ArtifactStore> = Arc::new(MemoryStore::unbounded());
        let mut cold = fig1_session(&p, ReproOptions::default());
        cold.set_store(Arc::clone(&store));
        cold.run_to_end().unwrap();
        assert!(
            cold.timings().search > Duration::ZERO,
            "the cold run searched"
        );

        let mut warm = fig1_session(&p, ReproOptions::default());
        warm.set_store(Arc::clone(&store));
        warm.run_to_end().unwrap();
        assert_eq!(warm.timings(), ReproTimings::default());

        let mut staged = fig1_session(&p, ReproOptions::default());
        staged.run_rank().unwrap();
        let mut resumed = ReproSession::resume(&p, &staged.checkpoint()).unwrap();
        assert_eq!(resumed.timings(), ReproTimings::default());
        resumed.run_search().unwrap();
        let t = resumed.timings();
        assert_eq!(
            t,
            ReproTimings {
                search: t.search,
                ..ReproTimings::default()
            }
        );
    }
}
