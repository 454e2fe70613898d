//! The staged `ReproSession` API: checkpoint/resume equivalence across
//! the whole bug suite, artifact codec round-trips, corruption handling,
//! cancellation, an unbounded search deadline, and the
//! instruction-count single-run alignment.

use mcr_core::{
    AlignMode, CancelToken, Phase, PhaseEvent, PhaseObserver, ReproError, ReproOptions,
    ReproSession, Reproducer,
};
use mcr_search::{Algorithm, SearchConfig, SyncLogger};
use mcr_slice::Strategy;
use mcr_testsupport::{repro_options as options, stress_bug, FIG1, FIG1_INPUT};
use mcr_vm::{run, DeterministicScheduler, Vm};
use mcr_workloads::all_bugs;
use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The acceptance bar: for every bug in the suite, a session that is
/// checkpointed to bytes and resumed in fresh state after *every* phase
/// finishes to a report identical to the uninterrupted
/// `Reproducer::reproduce` run.
#[test]
fn resumed_sessions_match_uninterrupted_for_every_bug() {
    for bug in all_bugs() {
        let (program, sf) = stress_bug(&bug);
        let input = bug.default_input();
        let opts = options(Algorithm::ChessX, Strategy::Temporal);

        let reproducer = Reproducer::new(&program, opts.clone());
        let uninterrupted = reproducer.reproduce(&sf.dump, &input).unwrap();

        // Staged run with a checkpoint → bytes → resume hop between every
        // pair of phases: each resume drops all in-memory state except
        // the program, exactly like a fresh process.
        let mut session = ReproSession::new(&program, sf.dump.clone(), &input, opts).unwrap();
        session.run_index().unwrap();
        let mut phase_hops = Vec::new();
        for expected in [Phase::Index, Phase::Align, Phase::Diff, Phase::Rank] {
            assert_eq!(session.completed(), Some(expected), "{}", bug.name);
            let bytes = session.checkpoint();
            drop(session);
            session = ReproSession::resume(&program, &bytes).unwrap();
            assert_eq!(session.completed(), Some(expected), "{}", bug.name);
            phase_hops.push(bytes.len());
            match expected {
                Phase::Index => session.run_align().map(|_| ()).unwrap(),
                Phase::Align => session.run_diff().map(|_| ()).unwrap(),
                Phase::Diff => session.run_rank().map(|_| ()).unwrap(),
                Phase::Rank => session.run_search().map(|_| ()).unwrap(),
                _ => unreachable!(),
            }
        }
        let resumed = session.report().expect("complete after search");
        assert_eq!(uninterrupted, resumed, "{}", bug.name);
        // Checkpoints monotonically accumulate artifacts.
        assert!(
            phase_hops.windows(2).all(|w| w[0] < w[1]),
            "{}: checkpoint sizes {phase_hops:?}",
            bug.name
        );
    }
}

/// A complete session's checkpoint also round-trips: resuming it yields
/// the report without re-running anything.
#[test]
fn completed_session_checkpoint_carries_the_report() {
    let bug = mcr_workloads::bug_by_name("apache-2").unwrap();
    let (program, sf) = stress_bug(&bug);
    let input = bug.default_input();
    let opts = options(Algorithm::ChessX, Strategy::Temporal);
    let mut session = ReproSession::new(&program, sf.dump, &input, opts).unwrap();
    let original = session.run_to_end().unwrap();
    let bytes = session.checkpoint();
    let restored = ReproSession::resume(&program, &bytes).unwrap();
    assert!(restored.is_complete());
    assert_eq!(original, restored.report().unwrap());
}

/// Any strict prefix of a checkpoint fails to resume with a codec error
/// — never a panic, never a silently partial session.
#[test]
fn truncated_checkpoints_are_rejected() {
    let program = mcr_lang::compile(FIG1).unwrap();
    let sf = mcr_core::find_failure(&program, &FIG1_INPUT, 0..200_000, 1_000_000).unwrap();
    let mut session = ReproSession::new(
        &program,
        sf.dump,
        &FIG1_INPUT,
        options(Algorithm::ChessX, Strategy::Temporal),
    )
    .unwrap();
    session.run_diff().unwrap();
    let bytes = session.checkpoint();
    // Every cut in the first chunk (framing + options), then a stride
    // through the artifact payloads.
    let stride = (bytes.len() / 509).max(1);
    let cuts = (0..64.min(bytes.len())).chain((64..bytes.len()).step_by(stride));
    for cut in cuts {
        match ReproSession::resume(&program, &bytes[..cut]) {
            Err(ReproError::Codec(_)) => {}
            other => panic!(
                "resume of {cut}-byte prefix (of {}) must fail with Codec, got {:?}",
                bytes.len(),
                other.map(|s| format!("{s:?}"))
            ),
        }
    }
}

/// A corrupted artifact surfaces `ReproError::Codec` instead of
/// panicking (the old pipeline `expect("own codec")` calls are gone).
#[test]
fn corrupted_artifacts_surface_codec_errors() {
    let program = mcr_lang::compile(FIG1).unwrap();
    let sf = mcr_core::find_failure(&program, &FIG1_INPUT, 0..200_000, 1_000_000).unwrap();
    let mut session = ReproSession::new(
        &program,
        sf.dump,
        &FIG1_INPUT,
        options(Algorithm::ChessX, Strategy::Temporal),
    )
    .unwrap();
    session.run_index().unwrap();
    let art = session.index_artifact().unwrap().clone();
    let mut bytes = art.to_bytes();
    // Artifact-level corruption: a flipped magic byte.
    bytes[0] ^= 0xff;
    assert!(mcr_core::FailureIndexArtifact::from_bytes(&bytes).is_err());

    // Session-level corruption: break the embedded failure dump's own
    // magic ("MCRD") inside the checkpoint — resume must error, not
    // panic.
    let mut ckpt = session.checkpoint();
    let dump_offset = ckpt
        .windows(4)
        .position(|w| w == b"MCRD")
        .expect("embedded dump magic");
    ckpt[dump_offset] ^= 0xff;
    let result = ReproSession::resume(&program, &ckpt);
    assert!(
        matches!(result, Err(ReproError::Codec(_))),
        "corrupted checkpoint must fail with Codec, got ok={}",
        result.is_ok()
    );
}

/// Observer that fires the session's cancel token when a chosen phase
/// starts, and keeps every event it sees.
struct CancelAt {
    phase: Phase,
    token: CancelToken,
    seen: Arc<Mutex<Vec<PhaseEvent>>>,
}

impl PhaseObserver for CancelAt {
    fn on_event(&mut self, event: &PhaseEvent) {
        self.seen.lock().unwrap().push(*event);
        if let PhaseEvent::Started { phase } = event {
            if *phase == self.phase {
                self.token.cancel();
            }
        }
    }
}

/// Cancellation mid-search returns a *partial report* (reproduced =
/// false, cancelled = true) instead of blocking or erroring.
#[test]
fn cancellation_mid_search_returns_partial_report() {
    let program = mcr_lang::compile(FIG1).unwrap();
    let sf = mcr_core::find_failure(&program, &FIG1_INPUT, 0..200_000, 1_000_000).unwrap();
    let mut session = ReproSession::new(
        &program,
        sf.dump,
        &FIG1_INPUT,
        options(Algorithm::ChessX, Strategy::Temporal),
    )
    .unwrap();
    let token = session.cancel_token();
    session.set_observer(Box::new(CancelAt {
        phase: Phase::Search,
        token,
        seen: Arc::default(),
    }));
    let report = session.run_to_end().expect("partial report, not an error");
    assert!(!report.search.reproduced);
    assert!(report.search.cancelled);
    assert!(report.search.cut_off);
    assert_eq!(report.search.tries, 0, "cancelled before the first try");
    // The pre-search artifacts are intact and still checkpointable.
    assert!(!report.csv_locs.is_empty());
    let bytes = session.checkpoint();
    assert!(ReproSession::resume(&program, &bytes).is_ok());
}

/// Cancellation inside the align loop errors with `Cancelled(Align)` but
/// keeps the completed index artifact.
#[test]
fn cancellation_mid_align_interrupts_and_preserves_progress() {
    let program = mcr_lang::compile(FIG1).unwrap();
    let sf = mcr_core::find_failure(&program, &FIG1_INPUT, 0..200_000, 1_000_000).unwrap();
    let mut session = ReproSession::new(
        &program,
        sf.dump,
        &FIG1_INPUT,
        options(Algorithm::ChessX, Strategy::Temporal),
    )
    .unwrap();
    let token = session.cancel_token();
    session.set_observer(Box::new(CancelAt {
        phase: Phase::Align,
        token,
        seen: Arc::default(),
    }));
    match session.run_to_end() {
        Err(ReproError::Cancelled(Phase::Align)) => {}
        other => panic!("expected Cancelled(Align): {:?}", other.is_ok()),
    }
    assert_eq!(session.completed(), Some(Phase::Index));
    // The checkpoint preserves the index artifact for a later resume.
    let bytes = session.checkpoint();
    let resumed = ReproSession::resume(&program, &bytes).unwrap();
    assert_eq!(resumed.completed(), Some(Phase::Index));
}

/// Cancellation inside the diff phase's dependence replay errors with
/// `Cancelled(Diff)` after an `Interrupted` event and keeps the index and
/// align artifacts; the checkpoint taken then resumes to the
/// uninterrupted report.
#[test]
fn cancellation_mid_diff_replay_interrupts_and_resumes() {
    let program = mcr_lang::compile(FIG1).unwrap();
    let sf = mcr_core::find_failure(&program, &FIG1_INPUT, 0..200_000, 1_000_000).unwrap();
    let opts = options(Algorithm::ChessX, Strategy::Dependence);
    let uninterrupted = Reproducer::new(&program, opts.clone())
        .reproduce(&sf.dump, &FIG1_INPUT)
        .unwrap();
    let mut session = ReproSession::new(&program, sf.dump, &FIG1_INPUT, opts).unwrap();
    let seen = Arc::default();
    session.set_observer(Box::new(CancelAt {
        phase: Phase::Diff,
        token: session.cancel_token(),
        seen: Arc::clone(&seen),
    }));
    match session.run_to_end() {
        Err(ReproError::Cancelled(Phase::Diff)) => {}
        other => panic!("expected Cancelled(Diff): {:?}", other.is_ok()),
    }
    assert!(seen
        .lock()
        .unwrap()
        .contains(&PhaseEvent::Interrupted { phase: Phase::Diff }));
    assert_eq!(session.completed(), Some(Phase::Align));
    let mut resumed = ReproSession::resume(&program, &session.checkpoint()).unwrap();
    assert_eq!(resumed.completed(), Some(Phase::Align));
    assert_eq!(resumed.run_to_end().unwrap(), uninterrupted);
}

/// A search time budget too large to add to the clock sets no deadline:
/// a session carrying `Some(Duration::MAX)` runs, and its checkpoint
/// resumes, to the report of a session with no time budget.
#[test]
fn unbounded_search_time_budget_runs_and_resumes() {
    let program = mcr_lang::compile(FIG1).unwrap();
    let sf = mcr_core::find_failure(&program, &FIG1_INPUT, 0..200_000, 1_000_000).unwrap();
    let opts = options(Algorithm::ChessX, Strategy::Temporal);
    let unbounded = Reproducer::new(&program, opts.clone())
        .reproduce(&sf.dump, &FIG1_INPUT)
        .unwrap();
    let opts = ReproOptions {
        search: SearchConfig {
            time_budget: Some(Duration::MAX),
            ..opts.search
        },
        ..opts
    };
    let mut session = ReproSession::new(&program, sf.dump, &FIG1_INPUT, opts).unwrap();
    session.run_rank().unwrap();
    let mut resumed = ReproSession::resume(&program, &session.checkpoint()).unwrap();
    assert_eq!(resumed.options().search.time_budget, Some(Duration::MAX));
    assert_eq!(resumed.run_to_end().unwrap(), unbounded);
    assert_eq!(session.run_to_end().unwrap(), unbounded);
}

/// The instruction-count baseline logs its single full run: the
/// passing-run info inside the alignment artifact equals an explicitly
/// logged deterministic run (the old pipeline needed a second execution
/// to get this).
#[test]
fn instruction_count_alignment_logs_in_one_run() {
    let bug = mcr_workloads::bug_by_name("mysql-1").unwrap();
    let (program, sf) = stress_bug(&bug);
    let input = bug.default_input();
    let opts = ReproOptions {
        align_mode: AlignMode::InstructionCount,
        ..options(Algorithm::ChessX, Strategy::Temporal)
    };
    let mut session = ReproSession::new(&program, sf.dump, &input, opts).unwrap();
    let artifact = session.run_align().unwrap().clone();

    // The session follows the MCR_TEST_MEMMODEL matrix; the explicitly
    // logged run must execute under the same model or the flush
    // candidates diverge.
    let mut vm = Vm::new(&program, &input).with_mem_model(mcr_testsupport::test_mem_model());
    let mut logger = SyncLogger::new();
    run(
        &mut vm,
        &mut DeterministicScheduler::new(),
        &mut logger,
        bug.max_steps,
    );
    assert_eq!(artifact.passing_run, logger.finish());
    assert!(session.index_artifact().unwrap().index.is_none());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every phase artifact survives encode → decode → re-encode
    /// byte-identically, across strategies, alignment modes, and
    /// algorithms.
    #[test]
    fn artifacts_round_trip(
        dependence in proptest::bool::ANY,
        instruction_count in proptest::bool::ANY,
        plain_chess in proptest::bool::ANY,
    ) {
        let program = mcr_lang::compile(FIG1).unwrap();
        let sf = mcr_core::find_failure(&program, &FIG1_INPUT, 0..200_000, 1_000_000).unwrap();
        let opts = ReproOptions {
            strategy: if dependence { Strategy::Dependence } else { Strategy::Temporal },
            align_mode: if instruction_count {
                AlignMode::InstructionCount
            } else {
                AlignMode::ExecutionIndex
            },
            ..options(
                if plain_chess { Algorithm::Chess } else { Algorithm::ChessX },
                Strategy::Temporal,
            )
        };
        let mut session = ReproSession::new(&program, sf.dump, &FIG1_INPUT, opts).unwrap();
        session.run_to_end().unwrap();

        let index = session.index_artifact().unwrap();
        let back = mcr_core::FailureIndexArtifact::from_bytes(&index.to_bytes()).unwrap();
        prop_assert_eq!(index, &back);
        prop_assert_eq!(index.to_bytes(), back.to_bytes());

        let align = session.alignment_artifact().unwrap();
        let back = mcr_core::AlignmentArtifact::from_bytes(&align.to_bytes()).unwrap();
        prop_assert_eq!(align, &back);
        prop_assert_eq!(align.to_bytes(), back.to_bytes());

        let delta = session.delta_artifact().unwrap();
        let back = mcr_core::DumpDeltaArtifact::from_bytes(&delta.to_bytes()).unwrap();
        prop_assert_eq!(delta, &back);
        prop_assert_eq!(delta.to_bytes(), back.to_bytes());

        let ranked = session.ranked_artifact().unwrap();
        let back = mcr_core::RankedAccessesArtifact::from_bytes(&ranked.to_bytes()).unwrap();
        prop_assert_eq!(ranked, &back);
        prop_assert_eq!(ranked.to_bytes(), back.to_bytes());

        let search = session.search_artifact().unwrap();
        let back = mcr_core::SearchArtifact::from_bytes(&search.to_bytes()).unwrap();
        prop_assert_eq!(search, &back);
        prop_assert_eq!(search.to_bytes(), back.to_bytes());

        // And the whole-session checkpoint round-trips byte-identically.
        let ckpt = session.checkpoint();
        let resumed = ReproSession::resume(&program, &ckpt).unwrap();
        prop_assert_eq!(ckpt, resumed.checkpoint());
    }
}
