//! Phase observation: progress events and per-phase timings.
//!
//! A [`ReproSession`](crate::ReproSession) drives the paper's pipeline as
//! five named phases. Code that wants progress reporting — a service
//! emitting job status, a CLI progress bar, a metrics sink — implements
//! [`PhaseObserver`] and attaches it with
//! [`ReproSession::set_observer`](crate::ReproSession::set_observer).
//! The observer replaces the old ad-hoc `ReproTimings` plumbing as the
//! *live* channel; the per-phase durations are additionally persisted
//! inside each phase artifact, so a checkpointed session still reports
//! faithful [`ReproTimings`](crate::ReproTimings) after a resume.

use std::fmt;
use std::time::Duration;

/// One phase of the reproduction pipeline, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Reverse engineering the failure's execution index (§3.2).
    Index,
    /// The deterministic passing run locating the aligned point (§3.3).
    Align,
    /// Replay to the aligned point, dump capture, and dump comparison
    /// (§4).
    Diff,
    /// CSV-access prioritization (temporal or dependence distance).
    Rank,
    /// The directed schedule search (§5).
    Search,
}

/// The five pipeline phases, in execution order.
pub const PHASES: [Phase; 5] = [
    Phase::Index,
    Phase::Align,
    Phase::Diff,
    Phase::Rank,
    Phase::Search,
];

impl Phase {
    /// The phase executed immediately after this one, if any.
    pub fn next(self) -> Option<Phase> {
        match self {
            Phase::Index => Some(Phase::Align),
            Phase::Align => Some(Phase::Diff),
            Phase::Diff => Some(Phase::Rank),
            Phase::Rank => Some(Phase::Search),
            Phase::Search => None,
        }
    }

    /// The phase executed immediately before this one, if any (the one
    /// whose artifact this phase consumes).
    pub fn prev(self) -> Option<Phase> {
        match self {
            Phase::Index => None,
            Phase::Align => Some(Phase::Index),
            Phase::Diff => Some(Phase::Align),
            Phase::Rank => Some(Phase::Diff),
            Phase::Search => Some(Phase::Rank),
        }
    }

    /// Position of the phase in the pipeline (0-based, execution order).
    /// Stable — it doubles as the phase tag of the wire formats.
    pub fn index(self) -> usize {
        match self {
            Phase::Index => 0,
            Phase::Align => 1,
            Phase::Diff => 2,
            Phase::Rank => 3,
            Phase::Search => 4,
        }
    }

    /// The phase with the given wire index ([`Phase::index`] inverse).
    pub fn from_index(index: usize) -> Option<Phase> {
        PHASES.get(index).copied()
    }

    /// A stable lowercase name (used in progress output and errors).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Index => "index",
            Phase::Align => "align",
            Phase::Diff => "diff",
            Phase::Rank => "rank",
            Phase::Search => "search",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A progress event emitted by a running session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseEvent {
    /// The phase began executing.
    Started {
        /// The phase.
        phase: Phase,
    },
    /// A named sub-stage of the phase finished (e.g. the `Diff` phase's
    /// `replay`, `dump-parse` and `diff` stages, the paper's Table 6
    /// rows, or the `Search` phase's `annotate` and `schedule` stages:
    /// candidate annotation, then the worklist walk with its tries).
    Stage {
        /// The enclosing phase.
        phase: Phase,
        /// Stable sub-stage name.
        stage: &'static str,
        /// Wall-clock time the stage took.
        elapsed: Duration,
    },
    /// The phase completed and its artifact is available.
    Finished {
        /// The phase.
        phase: Phase,
        /// Wall-clock time the whole phase took.
        elapsed: Duration,
    },
    /// The phase stopped — cancellation, a phase budget, or an error —
    /// before producing its artifact. Every `Started` is terminated by
    /// exactly one `Finished` or `Interrupted` (a cancelled search
    /// *finishes*, with a partial artifact).
    Interrupted {
        /// The phase.
        phase: Phase,
    },
    /// The phase was *not* executed: its content-addressed key hit the
    /// session's [`ArtifactStore`](crate::ArtifactStore) and the cached
    /// artifact was rehydrated instead. No `Started`/`Finished` pair
    /// fires for a cache hit.
    CacheHit {
        /// The phase.
        phase: Phase,
    },
}

/// Receives [`PhaseEvent`]s from a running session.
///
/// Implementations must be cheap: events fire synchronously on the
/// session's thread, between (not inside) the hot per-statement loops.
/// Sessions travel across executor threads in a batch fleet, so the
/// observer attached to one must be [`Send`] (see
/// [`ReproSession::set_observer`](crate::ReproSession::set_observer)).
pub trait PhaseObserver {
    /// Called for every event, in order.
    fn on_event(&mut self, event: &PhaseEvent);
}

/// Forwarding impl so a shared, inspectable observer can be attached:
/// clone the `Arc` into the session and keep the other clone to read the
/// collected events afterwards (including from another thread — the
/// shape a fleet scheduler uses for its per-job event streams).
impl<T: PhaseObserver> PhaseObserver for std::sync::Arc<std::sync::Mutex<T>> {
    fn on_event(&mut self, event: &PhaseEvent) {
        self.lock()
            .expect("phase observer poisoned")
            .on_event(event);
    }
}

/// An observer that ignores every event (the default).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullPhaseObserver;

impl PhaseObserver for NullPhaseObserver {
    fn on_event(&mut self, _event: &PhaseEvent) {}
}

/// An observer that records every event — handy for tests and for
/// assembling ad-hoc timing tables.
#[derive(Debug, Clone, Default)]
pub struct TimingLog {
    /// Every event received, in order.
    pub events: Vec<PhaseEvent>,
}

impl TimingLog {
    /// An empty log.
    pub fn new() -> TimingLog {
        TimingLog::default()
    }

    /// The completed phases, in completion order.
    pub fn finished(&self) -> Vec<(Phase, Duration)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                PhaseEvent::Finished { phase, elapsed } => Some((*phase, *elapsed)),
                _ => None,
            })
            .collect()
    }

    /// The phases rehydrated from an artifact store, in event order.
    pub fn cache_hits(&self) -> Vec<Phase> {
        self.events
            .iter()
            .filter_map(|e| match e {
                PhaseEvent::CacheHit { phase } => Some(*phase),
                _ => None,
            })
            .collect()
    }
}

impl PhaseObserver for TimingLog {
    fn on_event(&mut self, event: &PhaseEvent) {
        self.events.push(*event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_order_and_names() {
        assert_eq!(Phase::Index.next(), Some(Phase::Align));
        assert_eq!(Phase::Search.next(), None);
        assert_eq!(Phase::Index.prev(), None);
        assert_eq!(Phase::Search.prev(), Some(Phase::Rank));
        let names: Vec<&str> = PHASES.iter().map(|p| p.name()).collect();
        assert_eq!(names, ["index", "align", "diff", "rank", "search"]);
        assert_eq!(Phase::Diff.to_string(), "diff");
        for (i, p) in PHASES.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert_eq!(p.prev(), i.checked_sub(1).map(|j| PHASES[j]));
        }
    }

    #[test]
    fn from_index_inverts_index_for_the_five_phases_only() {
        for (i, p) in PHASES.iter().enumerate() {
            assert_eq!(Phase::from_index(i), Some(*p));
        }
        // Tags 5 and 6 belonged to the retired compile and static-race
        // cache units; they (and anything beyond) decode to nothing.
        for tag in 5..8 {
            assert_eq!(Phase::from_index(tag), None, "tag {tag}");
        }
    }

    #[test]
    fn timing_log_collects_finished() {
        let mut log = TimingLog::new();
        log.on_event(&PhaseEvent::Started {
            phase: Phase::Index,
        });
        log.on_event(&PhaseEvent::Finished {
            phase: Phase::Index,
            elapsed: Duration::from_millis(5),
        });
        assert_eq!(
            log.finished(),
            vec![(Phase::Index, Duration::from_millis(5))]
        );
    }
}
