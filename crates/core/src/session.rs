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
//! The session itself is a *thin driver* ([`ReproSession::run`]): it
//! resolves prerequisites, derives each phase's content-addressed
//! [`PhaseKey`] — a stable hash of *(program fingerprint, input, failure
//! dump, options, upstream artifact)* on the [`mcr_dump::wire`] encoding
//! — and consults the session's [`ArtifactStore`]. A key hit skips the
//! phase and rehydrates the cached artifact
//! ([`PhaseEvent::CacheHit`]); a computed artifact is written back, so a
//! fleet of sessions over near-duplicate dumps pays for each distinct
//! phase unit once. Because phases are deterministic and artifacts hold
//! results only, cached and computed artifacts are bit-identical — the
//! final [`ReproReport`] is pinned to be the same cold, warm, or batched.
//!
//! Time is telemetry and travels on one channel, the [`PhaseEvent`]
//! stream: every event goes to the attached [`PhaseObserver`], and the
//! session folds the `Stage`/`Finished` durations into
//! [`ReproSession::timings`]. No artifact or report carries a clock, so
//! a rehydrated phase reports no time of its own and a recomputed phase
//! leaves every downstream [`PhaseKey`] unchanged.
//!
//! Running a phase implicitly runs any prerequisite phase that has not
//! produced its artifact yet, and re-running a completed phase is a
//! no-op returning the stored artifact.
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
//! Long-running phases poll the session's [`CancelToken`] and the
//! per-phase [`PhaseBudget`]s: align/diff interrupt with
//! [`ReproError::Cancelled`]/[`ReproError::BudgetExhausted`], while the
//! search unwinds into a *partial* [`SearchArtifact`] (its
//! [`SearchResult::cancelled`](mcr_search::SearchResult::cancelled) flag
//! set) so a service can still report how far it got.

use crate::artifact::{
    AlignmentArtifact, DumpDeltaArtifact, FailureIndexArtifact, RankedAccessesArtifact,
    SearchArtifact,
};
use crate::observe::{NullPhaseObserver, Phase, PhaseEvent, PhaseObserver};
use crate::phase::{AlignPhase, DiffPhase, IndexPhase, PipelinePhase, RankPhase, SearchPhase};
use crate::pipeline::{
    AlignMode, PhaseBudget, PhaseBudgets, ReproError, ReproOptions, ReproReport, ReproTimings,
};
use crate::store::{program_fingerprint, ArtifactStore, NullStore, PhaseKey};
use mcr_analysis::{ProgramAnalysis, RaceAnalysis};
use mcr_dump::wire::{ContentHash, ContentHasher, Reader, Writer};
use mcr_dump::{CoreDump, DecodeError, TraverseLimits};
use mcr_lang::Program;
use mcr_search::{Algorithm, CancelToken, SearchConfig};
use mcr_slice::Strategy;
use mcr_vm::{Failure, FaultKind, FaultSpec, MemModel, ThreadId, Vm};
use std::cell::{Cell, OnceCell};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"MCRS";
// v2: options carry the memory model and fault-injection plan.
// v3: options carry the static-race knob.
// v4: the worker counts follow the key options instead of sitting
// among them.
const VERSION: u8 = 4;

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
    pub(crate) program: &'p Program,
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
    /// The program fingerprint, memoized: sessions derive keys
    /// repeatedly and must not rehash the whole program each time.
    program_fp: OnceCell<ContentHash>,
    pub(crate) artifacts: Artifacts,
    /// Content hash of each produced artifact's encoded bytes, indexed
    /// by [`Phase::index`]; filled lazily (encoding an artifact just to
    /// hash it is wasted work unless keys are actually consulted).
    hashes: [Cell<Option<ContentHash>>; 5],
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
        Self::open(program, failure_dump, input.to_vec(), options)
    }

    /// Opens a session with a pre-computed analysis (the
    /// [`Reproducer`](crate::Reproducer) path: one analysis, many
    /// sessions).
    pub(crate) fn from_parts(
        program: &'p Program,
        analysis: Arc<ProgramAnalysis>,
        failure_dump: CoreDump,
        input: Vec<i64>,
        options: ReproOptions,
    ) -> Result<Self, ReproError> {
        let session = Self::open(program, failure_dump, input, options)?;
        let _ = session.analysis.set(analysis);
        Ok(session)
    }

    fn open(
        program: &'p Program,
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
            program_fp: OnceCell::new(),
            artifacts: Artifacts::default(),
            hashes: std::array::from_fn(|_| Cell::new(None)),
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
    /// Every phase whose [`PhaseKey`] hits the store is skipped and its
    /// artifact rehydrated.
    pub fn set_store(&mut self, store: Arc<dyn ArtifactStore>) {
        self.store = store;
    }

    /// The artifact store this session consults.
    pub fn store(&self) -> &Arc<dyn ArtifactStore> {
        &self.store
    }

    /// The session's identity hash: program fingerprint, input, failure
    /// dump, and result-relevant options, hashed on the wire encoding.
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

    /// The program fingerprint, memoized per session — key derivations
    /// reuse it instead of rehashing the program.
    pub fn program_fingerprint(&self) -> ContentHash {
        *self
            .program_fp
            .get_or_init(|| program_fingerprint(self.program))
    }

    /// The session's static analysis, computed on first use (unless the
    /// `Reproducer` path seeded it).
    pub(crate) fn analysis(&self) -> &ProgramAnalysis {
        self.analysis
            .get_or_init(|| Arc::new(ProgramAnalysis::analyze(self.program)))
    }

    /// The session's static race verdicts, resolved on first use —
    /// `None` unless [`ReproOptions::static_race`] is set and the fault
    /// plan is empty (an injected fault voids the analysis' execution
    /// model, so faulted sessions never prune).
    pub fn race_verdicts(&self) -> Option<&mcr_analysis::RaceVerdicts> {
        self.race
            .get_or_init(|| {
                (self.options.static_race && self.options.faults.is_empty())
                    .then(|| RaceAnalysis::analyze(self.program))
            })
            .as_ref()
            .map(RaceAnalysis::verdicts)
    }

    /// The latest completed phase, if any.
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

    /// The next phase [`ReproSession::run_to_end`] would execute, or
    /// `None` when the session is complete.
    pub fn next_phase(&self) -> Option<Phase> {
        match self.completed() {
            None => Some(Phase::Index),
            Some(p) => p.next(),
        }
    }

    /// Whether every phase has produced its artifact.
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
        Vm::new(self.program, &self.input)
            .with_mem_model(self.options.mem_model)
            .with_faults(&self.options.faults)
    }

    /// The content hash of `phase`'s encoded artifact, once produced
    /// (`None` while the artifact is missing). Computed lazily — a
    /// session that never consults keys never encodes artifacts just to
    /// hash them.
    pub fn artifact_hash(&self, phase: Phase) -> Option<ContentHash> {
        let cell = &self.hashes[phase.index()];
        if let Some(h) = cell.get() {
            return Some(h);
        }
        let bytes = self.encode_artifact(phase)?;
        let h = ContentHash::of(&bytes);
        cell.set(Some(h));
        Some(h)
    }

    /// The wire encoding of `phase`'s artifact, when present.
    fn encode_artifact(&self, phase: Phase) -> Option<Vec<u8>> {
        Some(match phase {
            Phase::Index => self.artifacts.index.as_ref()?.to_bytes(),
            Phase::Align => self.artifacts.align.as_ref()?.to_bytes(),
            Phase::Diff => self.artifacts.delta.as_ref()?.to_bytes(),
            Phase::Rank => self.artifacts.ranked.as_ref()?.to_bytes(),
            Phase::Search => self.artifacts.search.as_ref()?.to_bytes(),
        })
    }

    /// The content-addressed key identifying `phase`'s work unit:
    /// derived from the session [`basis`](ReproSession::basis) and the
    /// upstream artifact's hash. `None` until the upstream artifact
    /// exists (the key cannot be known before then).
    pub fn phase_key(&self, phase: Phase) -> Option<PhaseKey> {
        let upstream = match phase.prev() {
            None => None,
            Some(p) => Some(self.artifact_hash(p)?),
        };
        Some(PhaseKey::derive(self.basis(), phase, upstream))
    }

    /// The key of the next phase to execute — what a fleet scheduler
    /// single-flights on. `None` when the session is complete.
    pub fn next_phase_key(&self) -> Option<PhaseKey> {
        self.phase_key(self.next_phase()?)
    }

    /// The generic phase driver: runs prerequisites, consults the
    /// artifact store under the phase's content-addressed key
    /// (rehydrating a hit, observed as [`PhaseEvent::CacheHit`]), and
    /// otherwise computes the phase and writes its artifact back.
    /// Re-running a completed phase returns the stored artifact.
    ///
    /// # Errors
    ///
    /// See [`ReproError`].
    pub fn run<P: PipelinePhase>(&mut self) -> Result<&P::Artifact, ReproError> {
        if let Some(prev) = P::PHASE.prev() {
            self.run_phase(prev)?;
        }
        if P::artifact(self).is_none() {
            if P::GUARDED_ENTRY {
                self.check_entry(P::PHASE)?;
            }
            // Keys and artifact hashes exist only to address the store:
            // with a non-caching store (the default NullStore) the whole
            // machinery is skipped and the phase runs exactly as the
            // pre-caching pipeline did.
            let key = self
                .store
                .is_caching()
                .then(|| self.phase_key(P::PHASE).expect("prerequisites just ran"));
            // A corrupted store entry is treated as a miss, never an
            // error: the store is a cache, recomputing is always sound.
            let cached = key
                .as_ref()
                .and_then(|k| self.store.get(k))
                .and_then(|bytes| P::decode(&bytes).ok().map(|a| (a, ContentHash::of(&bytes))));
            match cached {
                Some((artifact, hash)) => {
                    self.hashes[P::PHASE.index()].set(Some(hash));
                    P::install(self, artifact);
                    self.emit(PhaseEvent::CacheHit { phase: P::PHASE });
                }
                None => {
                    let artifact = P::compute(self)?;
                    if let Some(key) = key {
                        let bytes = P::encode(&artifact);
                        if P::cacheable(&artifact) {
                            self.store.put(&key, &bytes);
                        }
                        self.hashes[P::PHASE.index()].set(Some(ContentHash::of(&bytes)));
                    }
                    P::install(self, artifact);
                }
            }
        }
        Ok(P::artifact(self).expect("just installed"))
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
    /// [`ReproError::NoSuchThread`], [`ReproError::Cancelled`] and
    /// [`ReproError::BudgetExhausted`].
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

    /// Runs every remaining phase and returns the final report.
    ///
    /// # Errors
    ///
    /// See [`ReproError`].
    pub fn run_to_end(&mut self) -> Result<ReproReport, ReproError> {
        self.run_search()?;
        Ok(self.report().expect("all phases complete"))
    }

    /// Builds the [`ReproReport`] once every phase has run (`None`
    /// before that).
    pub fn report(&self) -> Option<ReproReport> {
        let index = self.artifacts.index.as_ref()?;
        let align = self.artifacts.align.as_ref()?;
        let delta = self.artifacts.delta.as_ref()?;
        let search = self.artifacts.search.as_ref()?;
        Some(ReproReport {
            index: index.index.clone(),
            alignment: align.alignment,
            failure_dump_bytes: delta.failure_dump_bytes,
            aligned_dump_bytes: delta.aligned_dump_bytes,
            vars: delta.vars,
            diffs: delta.diffs,
            shared: delta.shared,
            csv_paths: delta.csv_paths.clone(),
            csv_locs: delta.csv_locs.clone(),
            search: search.result.clone(),
            deterministic_repro: align.deterministic_repro,
        })
    }

    /// Serializes the whole session — options, input, failure dump, and
    /// every artifact produced so far — to bytes. The compiled program
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
        let mut session = Self::open(program, failure_dump, input, options)?;
        session.artifacts = Artifacts {
            index: index.as_ref().map(|(a, _)| a.clone()),
            align: align.as_ref().map(|(a, _)| a.clone()),
            delta: delta.as_ref().map(|(a, _)| a.clone()),
            ranked: ranked.as_ref().map(|(a, _)| a.clone()),
            search: search.as_ref().map(|(a, _)| a.clone()),
        };
        session.hashes = [
            Cell::new(index.map(|(_, h)| h)),
            Cell::new(align.map(|(_, h)| h)),
            Cell::new(delta.map(|(_, h)| h)),
            Cell::new(ranked.map(|(_, h)| h)),
            Cell::new(search.map(|(_, h)| h)),
        ];
        Ok(session)
    }
}

/// Hashes the session identity — program fingerprint (memoized by the
/// caller), failing input, failure dump, and result-relevant options —
/// on the wire encoding.
fn session_basis(
    program_fp: ContentHash,
    input: &[i64],
    failure_dump: &CoreDump,
    options: &ReproOptions,
) -> ContentHash {
    let mut w = Writer::new();
    w.uvarint(input.len() as u64);
    for v in input {
        w.ivarint(*v);
    }
    write_key_options(&mut w, options);
    let mut h = ContentHasher::new();
    h.update(b"MCRB1");
    h.update(&program_fp.to_le_bytes());
    h.update(&mcr_dump::encode(failure_dump));
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
/// knob *except* the worker counts (`ReproOptions::parallelism`,
/// `SearchConfig::parallelism`). The parallel-equivalence suite pins
/// that results are independent of worker count, so folding it into
/// keys would only stop sessions with different core counts from
/// sharing one store. Checkpoints append the worker counts via
/// [`write_options`].
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
    for phase in crate::observe::PHASES {
        match o.budgets.get(phase) {
            None => w.bool(false),
            Some(b) => {
                w.bool(true);
                w.opt_uvarint(b.max_steps);
                w.opt_duration(b.wall);
            }
        }
    }
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

/// Reads an optional artifact, returning it together with the content
/// hash of its encoded bytes (so a resumed session can derive phase
/// keys without re-encoding).
fn read_artifact<T>(
    r: &mut Reader<'_>,
    from_bytes: impl Fn(&[u8]) -> Result<T, DecodeError>,
) -> Result<Option<(T, ContentHash)>, DecodeError> {
    Ok(if r.bool()? {
        let bytes = r.bytes()?;
        Some((from_bytes(bytes)?, ContentHash::of(bytes)))
    } else {
        None
    })
}

/// Serializes the options' *semantic* knobs: the key bytes of
/// [`write_key_options`] followed by the two worker counts. Runtime
/// attachments (the cancel token, artifact store, and executor handle)
/// are process-local and excluded; they also do not contribute to
/// session bases, so attaching a store never changes a phase key.
fn write_options(w: &mut Writer, o: &ReproOptions) {
    write_key_options(w, o);
    w.uvarint(o.search.parallelism as u64);
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
        // Read with the other worker count, after the key options.
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
    let mut budgets = PhaseBudgets::default();
    for phase in crate::observe::PHASES {
        if r.bool()? {
            budgets.set(
                phase,
                PhaseBudget {
                    max_steps: r.opt_uvarint()?,
                    wall: r.opt_duration()?,
                },
            );
        }
    }
    search.parallelism = r.uvarint()? as usize;
    let parallelism = r.uvarint()? as usize;
    Ok(ReproOptions {
        strategy,
        align_mode,
        algorithm,
        search,
        trace_window,
        max_steps,
        limits,
        parallelism,
        budgets,
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

    #[test]
    fn align_wall_budget_interrupts() {
        let p = mcr_lang::compile(FIG1).unwrap();
        let options = ReproOptions::builder()
            .budget(Phase::Align, PhaseBudget::wall(Duration::ZERO))
            .build();
        let mut s = fig1_session(&p, options);
        assert!(matches!(
            s.run_align(),
            Err(ReproError::BudgetExhausted(Phase::Align))
        ));
        // The index artifact survived; lifting the budget resumes.
        assert!(s.index_artifact().is_some());
    }

    #[test]
    fn warm_session_rehydrates_every_phase_from_the_store() {
        let p = mcr_lang::compile(FIG1).unwrap();
        let input = [0i64, 1];
        let sf = find_failure(&p, &input, 0..200_000, 1_000_000).expect("stress exposes");
        let store: Arc<dyn ArtifactStore> = Arc::new(MemoryStore::unbounded());

        let mut cold =
            ReproSession::new(&p, sf.dump.clone(), &input, ReproOptions::default()).unwrap();
        cold.set_store(Arc::clone(&store));
        let cold_report = cold.run_to_end().unwrap();
        assert_eq!(store.stats().inserts, 5, "every phase cached");

        let mut warm =
            ReproSession::new(&p, sf.dump.clone(), &input, ReproOptions::default()).unwrap();
        warm.set_store(Arc::clone(&store));
        let log = Arc::new(Mutex::new(TimingLog::new()));
        warm.set_observer(Box::new(Arc::clone(&log)));
        let warm_report = warm.run_to_end().unwrap();

        // All five phases were cache hits; nothing Started.
        assert_eq!(log.lock().unwrap().cache_hits(), crate::observe::PHASES);
        assert!(log.lock().unwrap().finished().is_empty());
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
            ReproOptions::builder().trace_window(7).build(),
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
            ReproOptions::builder().parallelism(64).build(),
        )
        .unwrap();
        assert_eq!(a.basis(), d.basis(), "parallelism must not affect keys");
        assert_ne!(
            a.phase_key(Phase::Index),
            b.phase_key(Phase::Index),
            "index keys diverge with the basis"
        );
        // Keys of later phases are unknown before their upstream exists.
        assert_eq!(a.phase_key(Phase::Align), None);
        assert_eq!(a.next_phase_key().unwrap().phase, Phase::Index);
    }

    /// Every option a checkpoint serializes survives `resume`, the key
    /// options and the worker counts after them alike: each is set to a
    /// non-default value here, so a field the reader skipped, swapped or
    /// defaulted would show. The key basis is unchanged by the round
    /// trip, and a checkpoint of the previous version is refused.
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
        let both = PhaseBudget {
            max_steps: Some(99),
            wall: Some(Duration::from_micros(4321)),
        };
        let options = ReproOptions::builder()
            .strategy(Strategy::Dependence)
            .align_mode(AlignMode::InstructionCount)
            .algorithm(Algorithm::Chess)
            .search(search)
            .trace_window(4321)
            .max_steps(8765)
            .limits(TraverseLimits {
                max_depth: 6,
                max_paths: 321,
            })
            .parallelism(7)
            .budget(Phase::Index, PhaseBudget::steps(11))
            .budget(Phase::Align, PhaseBudget::wall(Duration::from_secs(3)))
            .budget(Phase::Search, both)
            .mem_model(MemModel::Tso { buffer_cap: 5 })
            .faults(faults.clone())
            .static_race(true)
            .build();
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
        assert_eq!(o.search.parallelism, 5);
        assert_eq!(o.trace_window, 4321);
        assert_eq!(o.max_steps, 8765);
        assert_eq!((o.limits.max_depth, o.limits.max_paths), (6, 321));
        assert_eq!(o.parallelism, 7);
        assert_eq!(o.budgets.get(Phase::Index), Some(PhaseBudget::steps(11)));
        assert_eq!(
            o.budgets.get(Phase::Align),
            Some(PhaseBudget::wall(Duration::from_secs(3)))
        );
        assert_eq!(o.budgets.get(Phase::Diff), None);
        assert_eq!(o.budgets.get(Phase::Rank), None);
        assert_eq!(o.budgets.get(Phase::Search), Some(both));
        assert_eq!(o.mem_model, MemModel::Tso { buffer_cap: 5 });
        assert_eq!(o.faults, faults);
        assert!(o.static_race);
        assert_eq!(resumed.basis(), s.basis());
        assert_eq!(resumed.checkpoint(), ckpt);
        // A version-3 checkpoint put the worker counts among the key
        // options; it is refused rather than misread.
        let mut v3 = ckpt;
        v3[MAGIC.len()] = 3;
        match ReproSession::resume(&p, &v3) {
            Err(ReproError::Codec(e)) => {
                assert!(e.msg.contains("unsupported session version 3"), "{e}");
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
        assert!(artifact.result.cancelled);
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
    /// a miss: the align phase recomputes, overwrites the entry, and the
    /// session reports what the cold run reported.
    #[test]
    fn stale_alignment_store_entry_is_recomputed() {
        let p = mcr_lang::compile(FIG1).unwrap();
        let store: Arc<dyn ArtifactStore> = Arc::new(MemoryStore::unbounded());
        let mut cold = fig1_session(&p, ReproOptions::default());
        cold.set_store(Arc::clone(&store));
        let cold_report = cold.run_to_end().unwrap();
        let key = cold.phase_key(Phase::Align).unwrap();
        let cold_entry = store.get(&key).unwrap();
        store.put(&key, &crate::artifact::v2_alignment_bytes());

        let mut warm = fig1_session(&p, ReproOptions::default());
        warm.set_store(Arc::clone(&store));
        let log = Arc::new(Mutex::new(TimingLog::new()));
        warm.set_observer(Box::new(Arc::clone(&log)));
        let warm_report = warm.run_to_end().unwrap();

        // The recomputed alignment is the cold one byte for byte, so
        // every later phase keeps its key and hits.
        let log = log.lock().unwrap();
        assert_eq!(
            log.cache_hits(),
            [Phase::Index, Phase::Diff, Phase::Rank, Phase::Search]
        );
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
            let options = ReproOptions::builder().strategy(strategy).build();
            let mut s = fig1_session(&p, options);
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
    /// miss: the diff phase recomputes, overwrites the entry, and the
    /// session reports what the cold run reported.
    #[test]
    fn stale_delta_store_entry_is_recomputed() {
        let p = mcr_lang::compile(FIG1).unwrap();
        let store: Arc<dyn ArtifactStore> = Arc::new(MemoryStore::unbounded());
        let mut cold = fig1_session(&p, ReproOptions::default());
        cold.set_store(Arc::clone(&store));
        let cold_report = cold.run_to_end().unwrap();
        let key = cold.phase_key(Phase::Diff).unwrap();
        let cold_entry = store.get(&key).unwrap();
        store.put(&key, &crate::artifact::v1_delta_bytes());

        let mut warm = fig1_session(&p, ReproOptions::default());
        warm.set_store(Arc::clone(&store));
        let log = Arc::new(Mutex::new(TimingLog::new()));
        warm.set_observer(Box::new(Arc::clone(&log)));
        let warm_report = warm.run_to_end().unwrap();

        // The recomputed delta is the cold one byte for byte, so the
        // rank and search phases keep their keys and hit.
        let log = log.lock().unwrap();
        assert_eq!(
            log.cache_hits(),
            [Phase::Index, Phase::Align, Phase::Rank, Phase::Search]
        );
        assert_eq!(log.finished().len(), 1);
        assert_eq!(log.finished()[0].0, Phase::Diff);
        assert_eq!(store.get(&key).expect("entry rewritten"), cold_entry);
        assert_eq!(cold_report, warm_report);
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
                .map(|&phase| store.get(&s.phase_key(phase).unwrap()).unwrap())
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
