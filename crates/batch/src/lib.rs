//! # mcr-batch — the long-running triage service
//!
//! A production triage deployment never sees a closed job list: core
//! dumps arrive continuously, many of them near-duplicates of the same
//! underlying bug. This crate's centerpiece is [`TriageService`], a
//! handle-based, long-running scheduler:
//!
//! * **async job admission** — [`TriageService::submit`] hands back a
//!   [`JobTicket`] immediately and admits jobs *while waves are
//!   executing*; the scheduler loop drains the admission queue at every
//!   wave boundary instead of consuming a pre-built `Vec`;
//! * **back-pressure** — admission is governed by a configurable
//!   [`AdmissionPolicy`] tied to the shared [`minipool::Limit`] executor
//!   budget: `submit` can reject with [`AdmitError::Saturated`] (the
//!   [`SubmitError`] hands the job back, so retries rebuild nothing),
//!   block until capacity frees up, or — with
//!   [`AdmissionPolicy::Adaptive`] — close the telemetry loop: consult
//!   the shared store's live eviction/churn counters and route exactly
//!   the jobs whose predicted artifact footprint would evict hot
//!   entries to a cold shard ([`FleetConfig::cold_store`]) instead;
//! * **ticket-based retrieval** — [`JobTicket::wait`] blocks for (and
//!   helps drive) one job's [`JobOutcome`]; [`JobTicket::try_outcome`]
//!   polls without blocking;
//! * **graceful teardown** — [`TriageService::drain`] runs everything
//!   admitted so far to completion; [`TriageService::shutdown`] closes
//!   admission first and then drains. Firing the service's
//!   [`CancelToken`] mid-run interrupts live sessions and marks
//!   queued-but-unstarted tickets `Cancelled` — no ticket is ever lost;
//! * **one executor** — every session's schedule search draws from a
//!   single [`minipool::Limit`]-backed pool handle;
//! * **one artifact store** — all sessions share a content-addressed
//!   [`ArtifactStore`] (scale it horizontally with
//!   [`ShardedStore`](mcr_core::ShardedStore)), so any phase already
//!   computed for the same *(program, input, dump, options)* anywhere in
//!   the fleet is rehydrated instead of re-run;
//! * **single-flight dedup** — identical phase units scheduled in the
//!   same wave run once: one leader computes, the duplicates wait and
//!   rehydrate from the store;
//! * **per-ticket observer streams** — attach a [`PhaseObserver`] per
//!   job ([`FleetJob::with_observer`]) for live progress; every job's
//!   [`PhaseEvent`]s are also collected into its [`JobOutcome`].
//!
//! ## Scheduling model
//!
//! There is no dedicated scheduler thread (sessions borrow the compiled
//! [`Program`], so the service is lifetime-parameterized and cannot park
//! work on a `'static` thread). Instead, whichever thread blocks on the
//! service — a [`JobTicket::wait`], a [`TriageService::drain`], or an
//! explicit [`TriageService::poll`] — *becomes* the scheduler while it
//! waits: it opens newly admitted jobs, forms a *wave* (each live job's
//! next phase in `(priority, submission)` order), single-flights
//! duplicate [`PhaseKey`]s, fans the leaders out over the shared worker
//! pool, and finalizes completed jobs. Threads that lose the race for
//! the scheduler role sleep until the active wave completes. The
//! service is `Sync`: submitting from many threads (e.g. via
//! `std::thread::scope`) while another drains is the intended shape.
//!
//! ## Compatibility facade
//!
//! [`Fleet`] — the original consume-on-run batch API — survives as a
//! thin wrapper: [`Fleet::run`] submits every pushed job to a private
//! `TriageService` (unbounded admission), drains it, and returns the
//! same [`FleetOutcome`] as before. Reports are pinned bit-identical
//! between the two APIs by the repository's `tests/batch.rs` and
//! `tests/triage.rs`.
//!
//! ```no_run
//! use mcr_batch::{AdmissionPolicy, FleetConfig, FleetJob, TriageService};
//! # let program = mcr_lang::compile("fn main() { }").unwrap();
//! # let dump: mcr_dump::CoreDump = unimplemented!();
//! let config = FleetConfig {
//!     admission: AdmissionPolicy::Reject { max_pending: 64 },
//!     ..FleetConfig::default()
//! };
//! let service = TriageService::new(config);
//! let ticket = service
//!     .submit(FleetJob::new("crash-1", &program, dump.clone(), &[1, 2]))
//!     .expect("queue not saturated");
//! // ... submit more from any thread while work executes ...
//! let outcome = ticket.wait();
//! assert!(outcome.result.is_ok());
//! service.shutdown();
//! ```
//!
//! Determinism carries over from the phase layer: a job's report is
//! bit-identical whether it ran cold, warm (all cache hits), batched
//! behind a duplicate, or trickled into a half-busy service — the
//! property pinned by the repository's `tests/batch.rs` and
//! `tests/triage.rs`.

#![warn(missing_docs)]

use mcr_core::{
    ArtifactStore, CancelToken, MemoryStore, Phase, PhaseEvent, PhaseKey, PhaseObserver,
    ReproError, ReproOptions, ReproReport, ReproSession, StoreStats, TimingLog,
};
use mcr_dump::CoreDump;
use mcr_lang::Program;
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// One reproduction job: a failure dump plus everything needed to
/// replay it.
pub struct FleetJob<'p> {
    /// Job name, echoed in the [`JobOutcome`].
    pub name: String,
    /// The compiled program the dump came from.
    pub program: &'p Program,
    /// The failure core dump.
    pub dump: CoreDump,
    /// The failing input.
    pub input: Vec<i64>,
    /// Per-job pipeline options (budgets included). The fleet overrides
    /// the `store` and `pool` attachments with its shared ones.
    pub options: ReproOptions,
    /// Scheduling priority: lower runs earlier within each wave.
    pub priority: u32,
    /// Optional per-ticket progress stream (see
    /// [`FleetJob::with_observer`]).
    observer: Option<Box<dyn PhaseObserver + Send + 'p>>,
}

impl fmt::Debug for FleetJob<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FleetJob")
            .field("name", &self.name)
            .field("input", &self.input)
            .field("priority", &self.priority)
            .field("observer", &self.observer.is_some())
            .finish_non_exhaustive()
    }
}

impl<'p> FleetJob<'p> {
    /// A job with default options and priority 0.
    pub fn new(
        name: impl Into<String>,
        program: &'p Program,
        dump: CoreDump,
        input: &[i64],
    ) -> FleetJob<'p> {
        FleetJob {
            name: name.into(),
            program,
            dump,
            input: input.to_vec(),
            options: ReproOptions::default(),
            priority: 0,
            observer: None,
        }
    }

    /// Replaces the job's options.
    pub fn with_options(mut self, options: ReproOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets the scheduling priority (lower = earlier).
    pub fn with_priority(mut self, priority: u32) -> Self {
        self.priority = priority;
        self
    }

    /// Attaches a live per-ticket progress stream: the observer receives
    /// this job's [`PhaseEvent`]s as they happen, from whichever thread
    /// is driving the scheduler. The events are additionally collected
    /// into the job's [`JobOutcome::events`].
    pub fn with_observer(mut self, observer: Box<dyn PhaseObserver + Send + 'p>) -> Self {
        self.observer = Some(observer);
        self
    }
}

/// How [`TriageService::submit`] responds once the service is loaded.
///
/// The pending-job bound is deliberately expressed in *jobs*, tied to
/// the executor budget the service runs on: a [`minipool::Limit`] of W
/// workers makes progress on at most W phase units at a time, so a
/// useful bound is a small multiple of W (see
/// [`FleetConfig::admission_per_worker`], and [`minipool::Limit::in_use`]
/// for live introspection).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Admit everything immediately (the default; what [`Fleet::run`]
    /// uses — a closed job list provides its own back-pressure).
    #[default]
    Unbounded,
    /// Reject with [`AdmitError::Saturated`] while
    /// admitted-but-unfinished jobs ≥ `max_pending`.
    Reject {
        /// Saturation threshold, in pending (queued + live) jobs.
        max_pending: usize,
    },
    /// Block the submitting thread until pending jobs < `max_pending`
    /// (or the service shuts down, which fails the submission with
    /// [`AdmitError::ShutDown`]). While blocked, the submitter helps
    /// drive scheduling waves — like [`JobTicket::wait`] — so a
    /// single-threaded submit-only caller cannot deadlock itself.
    Block {
        /// Saturation threshold, in pending (queued + live) jobs.
        max_pending: usize,
    },
    /// Telemetry-driven admission: block like [`AdmissionPolicy::Block`]
    /// at `max_pending`, and additionally watch the shared store's
    /// [`StoreStats`] at every admission. While the hot store is
    /// *churning* — lifetime evictions exceed `churn_permille`‰ of
    /// lifetime inserts — any job whose predicted artifact footprint
    /// (the per-phase mean artifact sizes the fleet's telemetry has
    /// recorded, summed over the phases a fresh job inserts) is at
    /// least the hot store's average resident entry is *shed*: opened
    /// against [`FleetConfig::cold_store`] instead, so it cannot evict
    /// hot entries other jobs are about to rehydrate. Shedding is pure
    /// cache placement — the shed job's [`ReproReport`] is bit-identical
    /// to what an [`AdmissionPolicy::Unbounded`] run produces. Without a
    /// configured cold store the policy degrades to plain blocking
    /// back-pressure.
    Adaptive {
        /// Saturation threshold, in pending (queued + live) jobs.
        max_pending: usize,
        /// Eviction-per-insert churn threshold, in per mille (e.g. 250
        /// sheds once more than a quarter of inserts evicted something).
        churn_permille: u32,
    },
}

/// Why [`TriageService::submit`] refused a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The service is saturated per its [`AdmissionPolicy::Reject`]
    /// policy; retry after draining some tickets.
    Saturated {
        /// Jobs pending (queued + live) at rejection time.
        pending: usize,
        /// The policy's threshold.
        max_pending: usize,
    },
    /// [`TriageService::shutdown`] has closed admission.
    ShutDown,
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::Saturated {
                pending,
                max_pending,
            } => write!(
                f,
                "triage service saturated: {pending} jobs pending (cap {max_pending})"
            ),
            AdmitError::ShutDown => write!(f, "triage service is shut down"),
        }
    }
}

impl Error for AdmitError {}

/// A refused submission: the typed [`AdmitError`] reason plus the job
/// handed back untouched (dump, options, observer and all), so a caller
/// retrying under back-pressure never rebuilds it — the
/// [`std::sync::mpsc::TrySendError`] shape. Returned boxed (a job
/// carries a whole core dump; the happy path shouldn't pay its size).
#[derive(Debug)]
pub struct SubmitError<'p> {
    /// Why admission refused.
    pub reason: AdmitError,
    /// The refused job, returned for retry.
    pub job: FleetJob<'p>,
}

impl fmt::Display for SubmitError<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (job {:?} returned)", self.reason, self.job.name)
    }
}

impl Error for SubmitError<'_> {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.reason)
    }
}

/// Fleet-wide configuration (shared by [`TriageService`] and the
/// [`Fleet`] facade).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker-thread budget shared by *everything* the fleet runs:
    /// concurrent phase units and the searches inside them. Defaults to
    /// the machine's available cores.
    pub workers: usize,
    /// The shared content-addressed artifact store. Defaults to an
    /// unbounded [`MemoryStore`]; swap in a
    /// [`ShardedStore`](mcr_core::ShardedStore) to partition the cache.
    pub store: Arc<dyn ArtifactStore>,
    /// Fleet-wide cancellation: firing this token propagates to every
    /// live job's session token and marks queued-but-unstarted jobs
    /// [`ReproError::Cancelled`]. In-flight searches complete with
    /// partial results; other phases stop with
    /// [`ReproError::Cancelled`].
    pub cancel: CancelToken,
    /// Back-pressure applied by [`TriageService::submit`].
    pub admission: AdmissionPolicy,
    /// Optional cold shard for [`AdmissionPolicy::Adaptive`]: jobs the
    /// admission telemetry predicts would churn the hot store are opened
    /// against this store instead. `None` disables shedding (adaptive
    /// admission then degrades to pure blocking back-pressure). Shedding
    /// never changes a report — only which store caches the job's
    /// artifacts.
    pub cold_store: Option<Arc<dyn ArtifactStore>>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: minipool::available_parallelism(),
            store: Arc::new(MemoryStore::unbounded()),
            cancel: CancelToken::new(),
            admission: AdmissionPolicy::Unbounded,
            cold_store: None,
        }
    }
}

impl FleetConfig {
    /// Sets a [`AdmissionPolicy::Reject`] bound of `per_worker` pending
    /// jobs per worker of the executor budget — the back-pressure knob
    /// tied to the shared [`minipool::Limit`].
    pub fn admission_per_worker(mut self, per_worker: usize) -> Self {
        self.admission = AdmissionPolicy::Reject {
            max_pending: per_worker.max(1) * self.workers.max(1),
        };
        self
    }
}

/// What happened to one job.
#[derive(Debug)]
pub struct JobOutcome {
    /// The job's name.
    pub name: String,
    /// The job's scheduling priority.
    pub priority: u32,
    /// The final report, or the error that stopped the job.
    pub result: Result<ReproReport, ReproError>,
    /// The job's full phase-event stream, in order.
    pub events: Vec<PhaseEvent>,
    /// Phases this job computed itself.
    pub computed: u32,
    /// Phases rehydrated from the shared store.
    pub cache_hits: u32,
    /// Phase units that waited behind an identical in-flight unit
    /// (single-flight followers).
    pub deduped: u32,
    /// Wall-clock time this job spent executing phase units.
    pub busy: Duration,
}

/// Fleet-wide totals.
#[derive(Debug, Clone, Copy)]
pub struct FleetSummary {
    /// Jobs submitted.
    pub jobs: usize,
    /// Jobs that finished with a report.
    pub completed: usize,
    /// Jobs that stopped with an error.
    pub failed: usize,
    /// Phase units scheduled (computed + cache hits).
    pub phase_units: u64,
    /// Phase units actually computed.
    pub computed: u64,
    /// Phase units rehydrated from the store.
    pub cache_hits: u64,
    /// Phase units deduplicated while in flight (followers of a
    /// same-key leader in the same wave).
    pub deduped_in_flight: u64,
    /// Jobs the adaptive admission policy shed to the cold store.
    pub shed: u64,
    /// Scheduling waves the fleet ran.
    pub waves: u64,
    /// Worker-thread budget the fleet ran with.
    pub workers: usize,
    /// Shared-store counters at the end of the run.
    pub store: StoreStats,
    /// End-to-end wall time.
    pub wall: Duration,
}

/// The fleet's result: per-job outcomes (in submission order) plus the
/// summary.
#[derive(Debug)]
pub struct FleetOutcome {
    /// One outcome per submitted job, in submission order.
    pub jobs: Vec<JobOutcome>,
    /// Fleet-wide totals.
    pub summary: FleetSummary,
    /// Name → index into [`FleetOutcome::jobs`], built once. Duplicate
    /// names resolve last-wins (see [`FleetOutcome::job`]).
    by_name: HashMap<String, usize>,
}

impl FleetOutcome {
    fn new(jobs: Vec<JobOutcome>, summary: FleetSummary) -> FleetOutcome {
        // Insertion order makes later submissions overwrite earlier
        // ones: last-wins, documented on `job`.
        let by_name = jobs
            .iter()
            .enumerate()
            .map(|(i, j)| (j.name.clone(), i))
            .collect();
        FleetOutcome {
            jobs,
            summary,
            by_name,
        }
    }

    /// The outcome of the named job, if present — an O(1) map lookup
    /// (the index is built once when the outcome is put together).
    ///
    /// Job names are not required to be unique; when several jobs share
    /// a name, the **last-submitted** one wins (a triage queue's newest
    /// report for a recurring crash is the interesting one). Iterate
    /// [`FleetOutcome::jobs`] to see every duplicate.
    pub fn job(&self, name: &str) -> Option<&JobOutcome> {
        self.by_name.get(name).map(|&i| &self.jobs[i])
    }
}

/// Tees each event into the job's collected log and the optional
/// user-supplied per-ticket observer.
struct TeeObserver<'p> {
    log: Arc<Mutex<TimingLog>>,
    user: Option<Box<dyn PhaseObserver + Send + 'p>>,
}

impl PhaseObserver for TeeObserver<'_> {
    fn on_event(&mut self, event: &PhaseEvent) {
        self.log.lock().expect("tee log poisoned").on_event(event);
        if let Some(user) = &mut self.user {
            user.on_event(event);
        }
    }
}

/// A live job's scheduling state (boxed — a session is orders of
/// magnitude larger than the other variants).
struct LiveSlot<'p> {
    session: ReproSession<'p>,
    log: Arc<Mutex<TimingLog>>,
    error: Option<ReproError>,
    deduped: u32,
    busy: Duration,
    cancel_sent: bool,
}

/// A job admitted but not yet opened (its session does not exist yet —
/// admission is cheap and never runs program analysis).
struct QueuedJob<'p> {
    program: &'p Program,
    dump: CoreDump,
    input: Vec<i64>,
    options: ReproOptions,
    observer: Option<Box<dyn PhaseObserver + Send + 'p>>,
    /// Adaptive admission decided at submit time to route this job's
    /// artifacts to the cold store.
    shed: bool,
}

/// One job's lifecycle inside the service.
enum SlotState<'p> {
    /// Admitted; opened into a session at the next wave boundary.
    Queued(Box<QueuedJob<'p>>),
    /// Session open, phases pending.
    Live(Box<LiveSlot<'p>>),
    /// Outcome ready for its ticket.
    Done(Box<JobOutcome>),
    /// Outcome handed to the ticket.
    Claimed,
}

/// One job's slot: immutable identity plus mutable lifecycle state.
/// Slots are individually locked so wave leaders can execute in
/// parallel, each worker touching a distinct slot.
struct Slot<'p> {
    name: String,
    priority: u32,
    /// Submission index: tie-break for wave ordering (stable even after
    /// earlier slots are compacted away).
    seq: usize,
    state: Mutex<SlotState<'p>>,
}

/// State under the service-wide mutex (never held while a phase runs).
struct Shared<'p> {
    /// Slots still holding work or an unclaimed outcome. Finalized
    /// slots are dropped from here at the next wave boundary (their
    /// tickets keep them alive), so a long-running service's wave
    /// formation scales with *live* jobs, not lifetime submissions.
    slots: Vec<Arc<Slot<'p>>>,
    /// Jobs admitted over the service's lifetime.
    submitted: usize,
    /// Jobs in `Queued`/`Live` state.
    pending: usize,
    /// `shutdown` has closed admission.
    closed: bool,
    /// A thread currently holds the scheduler role (guards the
    /// sleep-vs-retry decision in the waiter loop).
    scheduling: bool,
    waves: u64,
    completed: usize,
    failed: usize,
    computed: u64,
    cache_hits: u64,
    deduped: u64,
    /// Jobs the adaptive policy shed to the cold store.
    shed: u64,
}

/// A long-running, handle-based triage scheduler. See the [crate
/// docs](crate) for the model; see [`Fleet`] for the closed-list
/// compatibility facade.
pub struct TriageService<'p> {
    store: Arc<dyn ArtifactStore>,
    cold_store: Option<Arc<dyn ArtifactStore>>,
    cancel: CancelToken,
    admission: AdmissionPolicy,
    workers: usize,
    limit: minipool::Limit,
    pool: minipool::Pool,
    shared: Mutex<Shared<'p>>,
    /// Signalled on every wave boundary and admission-capacity change.
    cv: Condvar,
    /// Exclusive scheduler role; `try_lock` elects the driving thread.
    sched: Mutex<()>,
    started: Instant,
}

impl fmt::Debug for TriageService<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let shared = self.lock_shared();
        f.debug_struct("TriageService")
            .field("workers", &self.workers)
            .field("admission", &self.admission)
            .field("jobs", &shared.submitted)
            .field("pending", &shared.pending)
            .field("closed", &shared.closed)
            .field("waves", &shared.waves)
            .finish_non_exhaustive()
    }
}

/// A claim on one submitted job's [`JobOutcome`].
///
/// Tickets borrow the service (dropping a ticket never cancels its job;
/// the outcome simply stays unclaimed). [`JobTicket::wait`] helps drive
/// the scheduler while it blocks, so a single-threaded caller that only
/// ever submits and waits still makes progress.
pub struct JobTicket<'s, 'p> {
    service: &'s TriageService<'p>,
    slot: Arc<Slot<'p>>,
    id: usize,
}

impl fmt::Debug for JobTicket<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobTicket")
            .field("id", &self.id)
            .field("name", &self.slot.name)
            .field("ready", &self.is_ready())
            .finish()
    }
}

impl<'s, 'p> JobTicket<'s, 'p> {
    /// The job's submission index (also its position in
    /// [`FleetOutcome::jobs`] under the facade).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The job's name.
    pub fn name(&self) -> &str {
        &self.slot.name
    }

    /// Whether the outcome is ready — [`JobTicket::wait`] would return
    /// without driving any further work. Never blocks: a job whose slot
    /// is busy executing a phase is by definition not ready, so
    /// contention reports `false` without waiting for the phase.
    pub fn is_ready(&self) -> bool {
        match self.slot.state.try_lock() {
            Ok(state) => matches!(*state, SlotState::Done(_)),
            Err(std::sync::TryLockError::WouldBlock) => false,
            Err(std::sync::TryLockError::Poisoned(_)) => panic!("triage slot poisoned"),
        }
    }

    /// Claims the outcome if it is ready; otherwise hands the ticket
    /// back untouched. Never blocks and never drives the scheduler —
    /// a slot busy executing a phase (or being finalized) counts as not
    /// ready — so pair it with [`TriageService::poll`] in event loops.
    pub fn try_outcome(self) -> Result<JobOutcome, Self> {
        let claimed = {
            match self.slot.state.try_lock() {
                Ok(mut state) => match std::mem::replace(&mut *state, SlotState::Claimed) {
                    SlotState::Done(outcome) => Some(*outcome),
                    other => {
                        *state = other;
                        None
                    }
                },
                Err(std::sync::TryLockError::WouldBlock) => None,
                Err(std::sync::TryLockError::Poisoned(_)) => panic!("triage slot poisoned"),
            }
        };
        match claimed {
            Some(outcome) => Ok(outcome),
            None => Err(self),
        }
    }

    /// Blocks until the job's outcome is ready and returns it. The
    /// waiting thread volunteers as the scheduler whenever the role is
    /// free, so `wait` never depends on another thread driving the
    /// service.
    pub fn wait(mut self) -> JobOutcome {
        loop {
            self = match self.try_outcome() {
                Ok(outcome) => return outcome,
                Err(ticket) => ticket,
            };
            self.service.drive_or_park();
        }
    }
}

impl<'p> TriageService<'p> {
    /// An idle service with no jobs. A bounded admission policy with
    /// `max_pending: 0` would refuse all work (and livelock a blocking
    /// submitter), so the bound is clamped to at least 1.
    pub fn new(config: FleetConfig) -> TriageService<'p> {
        let workers = config.workers.max(1);
        let limit = minipool::Limit::new(workers);
        let pool = minipool::Pool::with_limit(workers, limit.clone());
        let admission = match config.admission {
            AdmissionPolicy::Unbounded => AdmissionPolicy::Unbounded,
            AdmissionPolicy::Reject { max_pending } => AdmissionPolicy::Reject {
                max_pending: max_pending.max(1),
            },
            AdmissionPolicy::Block { max_pending } => AdmissionPolicy::Block {
                max_pending: max_pending.max(1),
            },
            AdmissionPolicy::Adaptive {
                max_pending,
                churn_permille,
            } => AdmissionPolicy::Adaptive {
                max_pending: max_pending.max(1),
                churn_permille,
            },
        };
        TriageService {
            store: config.store,
            cold_store: config.cold_store,
            cancel: config.cancel,
            admission,
            workers,
            limit,
            pool,
            shared: Mutex::new(Shared {
                slots: Vec::new(),
                submitted: 0,
                pending: 0,
                closed: false,
                scheduling: false,
                waves: 0,
                completed: 0,
                failed: 0,
                computed: 0,
                cache_hits: 0,
                deduped: 0,
                shed: 0,
            }),
            cv: Condvar::new(),
            sched: Mutex::new(()),
            started: Instant::now(),
        }
    }

    fn lock_shared(&self) -> MutexGuard<'_, Shared<'p>> {
        self.shared.lock().expect("triage service poisoned")
    }

    /// A clone of the fleet-wide cancellation token.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// The shared executor budget (inspect
    /// [`minipool::Limit::in_use`] for instantaneous load).
    pub fn limit(&self) -> &minipool::Limit {
        &self.limit
    }

    /// Jobs admitted but not yet finished (queued + live).
    pub fn pending(&self) -> usize {
        self.lock_shared().pending
    }

    /// Whether [`TriageService::shutdown`] has closed admission.
    pub fn is_closed(&self) -> bool {
        self.lock_shared().closed
    }

    /// Admits a job, returning its [`JobTicket`]. Admission is cheap —
    /// the session (program analysis included) is opened by the
    /// scheduler at the next wave boundary, *while earlier waves may
    /// still be executing on other threads*.
    ///
    /// # Errors
    ///
    /// [`AdmitError::ShutDown`] after [`TriageService::shutdown`];
    /// [`AdmitError::Saturated`] under a [`AdmissionPolicy::Reject`]
    /// bound. Either way the [`SubmitError`] hands the job back for
    /// retry. An [`AdmissionPolicy::Block`] policy blocks instead —
    /// and, like [`JobTicket::wait`], the blocked submitter volunteers
    /// as the scheduler while it waits, so even a single-threaded
    /// caller that only ever submits cannot deadlock on its own
    /// back-pressure.
    pub fn submit(&self, job: FleetJob<'p>) -> Result<JobTicket<'_, 'p>, Box<SubmitError<'p>>> {
        let mut shared = self.lock_shared();
        loop {
            if shared.closed {
                return Err(Box::new(SubmitError {
                    reason: AdmitError::ShutDown,
                    job,
                }));
            }
            match self.admission {
                AdmissionPolicy::Unbounded => break,
                AdmissionPolicy::Reject { max_pending } => {
                    if shared.pending >= max_pending {
                        return Err(Box::new(SubmitError {
                            reason: AdmitError::Saturated {
                                pending: shared.pending,
                                max_pending,
                            },
                            job,
                        }));
                    }
                    break;
                }
                AdmissionPolicy::Block { max_pending }
                | AdmissionPolicy::Adaptive { max_pending, .. } => {
                    if shared.pending < max_pending {
                        break;
                    }
                    // Help drain: drive a wave (or park until the
                    // active scheduler finishes one), then re-check.
                    drop(shared);
                    self.drive_or_park();
                    shared = self.lock_shared();
                }
            }
        }
        // The adaptive policy decides cache placement at admission,
        // from the store telemetry as of *this* submit.
        let shed = match self.admission {
            AdmissionPolicy::Adaptive { churn_permille, .. } => self.sheds_to_cold(churn_permille),
            _ => false,
        };
        shared.shed += u64::from(shed);
        let FleetJob {
            name,
            program,
            dump,
            input,
            options,
            priority,
            observer,
        } = job;
        let seq = shared.submitted;
        shared.submitted += 1;
        let slot = Arc::new(Slot {
            name,
            priority,
            seq,
            state: Mutex::new(SlotState::Queued(Box::new(QueuedJob {
                program,
                dump,
                input,
                options,
                observer,
                shed,
            }))),
        });
        shared.slots.push(Arc::clone(&slot));
        shared.pending += 1;
        drop(shared);
        Ok(JobTicket {
            service: self,
            slot,
            id: seq,
        })
    }

    /// Whether the adaptive policy routes the next admitted job's
    /// artifacts to the cold shard. Two conditions, both read from the
    /// hot store's live [`StoreStats`]: the store must be churning
    /// (lifetime evictions above the policy's per-mille threshold of
    /// lifetime inserts), and the job's predicted footprint — the
    /// per-phase mean artifact size telemetry has recorded, summed over
    /// the phase kinds a fresh job inserts — must be at least the hot
    /// store's average resident entry, i.e. caching it would evict
    /// something at least as valuable as what it adds.
    fn sheds_to_cold(&self, churn_permille: u32) -> bool {
        if self.cold_store.is_none() {
            return false;
        }
        let stats = self.store.stats();
        if stats.inserts == 0 || stats.entries == 0 {
            return false;
        }
        let churning = stats.evictions.saturating_mul(1000)
            > stats.inserts.saturating_mul(churn_permille as u64);
        if !churning {
            return false;
        }
        let predicted: usize = stats
            .per_phase
            .iter()
            .filter(|p| p.inserts > 0 && p.entries > 0)
            .map(|p| p.bytes / p.entries)
            .sum();
        predicted >= stats.bytes / stats.entries
    }

    /// Runs at most one scheduling wave on the calling thread (a no-op
    /// when another thread holds the scheduler role). Returns whether
    /// jobs are still pending — the event-loop integration point:
    /// `while service.poll() { ... do other work ... }`.
    pub fn poll(&self) -> bool {
        self.try_drive();
        self.pending() > 0
    }

    /// Blocks until every job admitted so far (and any admitted while
    /// draining) has an outcome. Admission stays open; an empty queue
    /// returns immediately.
    pub fn drain(&self) {
        loop {
            if self.lock_shared().pending == 0 {
                return;
            }
            self.drive_or_park();
        }
    }

    /// Gracefully shuts down: closes admission (subsequent
    /// [`TriageService::submit`]s fail with [`AdmitError::ShutDown`]),
    /// then drains every already-admitted job to its outcome and
    /// returns the final [`FleetSummary`]. Idempotent.
    pub fn shutdown(&self) -> FleetSummary {
        {
            let mut shared = self.lock_shared();
            shared.closed = true;
            // Blocked submitters must observe the closure.
            self.cv.notify_all();
        }
        self.drain();
        self.summary()
    }

    /// A snapshot of the fleet-wide totals so far.
    pub fn summary(&self) -> FleetSummary {
        let shared = self.lock_shared();
        FleetSummary {
            jobs: shared.submitted,
            completed: shared.completed,
            failed: shared.failed,
            phase_units: shared.computed + shared.cache_hits,
            computed: shared.computed,
            cache_hits: shared.cache_hits,
            deduped_in_flight: shared.deduped,
            shed: shared.shed,
            waves: shared.waves,
            workers: self.workers,
            store: self.store.stats(),
            wall: self.started.elapsed(),
        }
    }

    /// Takes the scheduler role and runs one wave, if the role is free.
    /// Returns whether this thread drove a step.
    fn try_drive(&self) -> bool {
        let role = match self.sched.try_lock() {
            Ok(role) => role,
            Err(std::sync::TryLockError::WouldBlock) => return false,
            // A previous scheduler panicked mid-wave. Propagate the
            // failure instead of reporting "role busy" — treating the
            // poison as busy would park every waiter forever.
            Err(std::sync::TryLockError::Poisoned(_)) => {
                panic!("triage scheduler poisoned by an earlier panic")
            }
        };
        self.lock_shared().scheduling = true;
        // Reset the flag and wake parked waiters even when the wave
        // panics (the unwind drops this guard before releasing — and
        // poisoning — `sched`), so blocked threads retry, observe the
        // poison, and propagate the failure instead of sleeping.
        struct SchedulingGuard<'a, 'p>(&'a TriageService<'p>);
        impl Drop for SchedulingGuard<'_, '_> {
            fn drop(&mut self) {
                let mut shared = self
                    .0
                    .shared
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                shared.scheduling = false;
                drop(shared);
                self.0.cv.notify_all();
            }
        }
        let _guard = SchedulingGuard(self);
        self.advance(&role);
        true
    }

    /// Tries to take the scheduler role and run one wave; otherwise
    /// parks until the active scheduler signals a wave boundary.
    fn drive_or_park(&self) {
        if self.try_drive() {
            return;
        }
        let shared = self.lock_shared();
        if shared.scheduling {
            // Timeout only as a safety net against lost wakeups; the
            // scheduler notifies at every wave boundary.
            let _ = self
                .cv
                .wait_timeout(shared, Duration::from_millis(100))
                .expect("triage service poisoned");
        }
        // else: the role was freed between our try_lock and the check —
        // loop around and try again.
    }

    /// One scheduler step, holding the role token: open newly admitted
    /// jobs, form a wave, execute it, finalize completed jobs.
    fn advance(&self, _role: &MutexGuard<'_, ()>) {
        let cancelled = self.cancel.is_cancelled();
        // Snapshot the slots in (priority, submission) order. New
        // submissions during the wave are picked up next time.
        let order: Vec<Arc<Slot<'p>>> = {
            let shared = self.lock_shared();
            let mut order: Vec<Arc<Slot<'p>>> = shared.slots.iter().map(Arc::clone).collect();
            order.sort_unstable_by_key(|slot| (slot.priority, slot.seq));
            order
        };

        // Open queued jobs (or cancel them before they ever start), and
        // propagate a fired fleet token into live sessions.
        let mut finalized: Vec<FinalizedDelta> = Vec::new();
        for slot in &order {
            let mut state = slot.state.lock().expect("triage slot poisoned");
            match std::mem::replace(&mut *state, SlotState::Claimed) {
                SlotState::Queued(_) if cancelled => {
                    // Queued-but-unstarted: never lost, surfaced as a
                    // cancelled outcome before any phase could start.
                    finalized.push(FinalizedDelta::failed());
                    *state = SlotState::Done(Box::new(failed_outcome(
                        slot,
                        ReproError::Cancelled(Phase::Index),
                    )));
                }
                SlotState::Queued(queued) => {
                    let QueuedJob {
                        program,
                        dump,
                        input,
                        mut options,
                        observer,
                        shed,
                    } = *queued;
                    options.store = Some(match (&self.cold_store, shed) {
                        (Some(cold), true) => Arc::clone(cold),
                        _ => Arc::clone(&self.store),
                    });
                    options.pool = Some(self.pool.clone());
                    match ReproSession::new(program, dump, &input, options) {
                        Ok(mut session) => {
                            let log = Arc::new(Mutex::new(TimingLog::new()));
                            session.set_observer(Box::new(TeeObserver {
                                log: Arc::clone(&log),
                                user: observer,
                            }));
                            *state = SlotState::Live(Box::new(LiveSlot {
                                session,
                                log,
                                error: None,
                                deduped: 0,
                                busy: Duration::ZERO,
                                cancel_sent: false,
                            }));
                        }
                        Err(e) => {
                            // The dump could not even open a session
                            // (e.g. it carries no failure).
                            finalized.push(FinalizedDelta::failed());
                            *state = SlotState::Done(Box::new(failed_outcome(slot, e)));
                        }
                    }
                }
                other => {
                    if let SlotState::Live(mut live) = other {
                        if cancelled && !live.cancel_sent {
                            live.session.cancel_token().cancel();
                            live.cancel_sent = true;
                        }
                        *state = SlotState::Live(live);
                    } else {
                        *state = other;
                    }
                }
            }
        }

        // Form the wave: every live job's next phase, single-flighting
        // identical content-addressed keys.
        let mut leaders: Vec<(Arc<Slot<'p>>, Phase)> = Vec::new();
        let mut followers: Vec<(Arc<Slot<'p>>, Phase)> = Vec::new();
        let mut in_flight: HashSet<PhaseKey> = HashSet::new();
        for slot in &order {
            let state = slot.state.lock().expect("triage slot poisoned");
            if let SlotState::Live(live) = &*state {
                debug_assert!(live.error.is_none(), "errored lives are finalized");
                let Some(phase) = live.session.next_phase() else {
                    continue;
                };
                let key = live.session.next_phase_key().expect("upstream complete");
                if in_flight.insert(key) {
                    leaders.push((Arc::clone(slot), phase));
                } else {
                    followers.push((Arc::clone(slot), phase));
                }
            }
        }

        let ran_wave = !leaders.is_empty();
        if ran_wave {
            // Leaders fan out over the shared pool; distinct jobs, so
            // each worker locks a distinct slot.
            self.pool.for_each_index(leaders.len(), |k| {
                let (slot, phase) = &leaders[k];
                run_unit(slot, *phase);
            });
            // Followers run after their leader: their key now hits the
            // store and rehydrates (or recomputes, if the leader's
            // artifact was partial and uncacheable — still correct).
            for (slot, phase) in &followers {
                run_unit(slot, *phase);
                if let SlotState::Live(live) =
                    &mut *slot.state.lock().expect("triage slot poisoned")
                {
                    live.deduped += 1;
                }
            }

            // Finalize jobs the wave completed or failed.
            for (slot, _) in leaders.iter().chain(&followers) {
                let mut state = slot.state.lock().expect("triage slot poisoned");
                let done = match &*state {
                    SlotState::Live(live) => live.error.is_some() || live.session.is_complete(),
                    _ => false,
                };
                if !done {
                    continue;
                }
                let SlotState::Live(live) = std::mem::replace(&mut *state, SlotState::Claimed)
                else {
                    unreachable!("checked above");
                };
                let (outcome, delta) = finalize(&slot.name, slot.priority, *live);
                finalized.push(delta);
                *state = SlotState::Done(Box::new(outcome));
            }
        }

        // Publish the wave boundary.
        let mut shared = self.lock_shared();
        if ran_wave {
            shared.waves += 1;
        }
        for delta in &finalized {
            shared.pending -= 1;
            shared.completed += usize::from(!delta.failed);
            shared.failed += usize::from(delta.failed);
            shared.computed += delta.computed as u64;
            shared.cache_hits += delta.cache_hits as u64;
            shared.deduped += delta.deduped as u64;
        }
        if !finalized.is_empty() {
            // Compact finalized slots out of the wave-formation set: a
            // ticket keeps its own slot alive, so a long-running
            // service's per-wave cost tracks *live* jobs, not lifetime
            // submissions. (Only this scheduler thread finalizes, so
            // the try-lock can miss a slot only while its ticket is
            // mid-claim — i.e. already finalized — and `retain` keeps
            // it one wave longer, which is harmless.)
            shared.slots.retain(|slot| match slot.state.try_lock() {
                Ok(state) => !matches!(*state, SlotState::Done(_) | SlotState::Claimed),
                Err(_) => true,
            });
        }
        drop(shared);
        self.cv.notify_all();
    }
}

/// Totals one finalized job contributes to the fleet summary.
struct FinalizedDelta {
    failed: bool,
    computed: u32,
    cache_hits: u32,
    deduped: u32,
}

impl FinalizedDelta {
    fn failed() -> FinalizedDelta {
        FinalizedDelta {
            failed: true,
            computed: 0,
            cache_hits: 0,
            deduped: 0,
        }
    }
}

/// The outcome of a job that failed before any phase could run
/// (rejected dump, or cancelled while still queued).
fn failed_outcome(slot: &Slot<'_>, err: ReproError) -> JobOutcome {
    JobOutcome {
        name: slot.name.clone(),
        priority: slot.priority,
        result: Err(err),
        events: Vec::new(),
        computed: 0,
        cache_hits: 0,
        deduped: 0,
        busy: Duration::ZERO,
    }
}

/// Runs one phase unit against a slot (skipping slots that finalized
/// since the wave formed).
fn run_unit(slot: &Slot<'_>, phase: Phase) {
    let mut state = slot.state.lock().expect("triage slot poisoned");
    if let SlotState::Live(live) = &mut *state {
        let LiveSlot {
            session,
            error,
            busy,
            ..
        } = live.as_mut();
        let t0 = Instant::now();
        if let Err(e) = session.run_phase(phase) {
            *error = Some(e);
        }
        *busy += t0.elapsed();
    }
}

/// Turns a finished live slot into its outcome + summary delta.
fn finalize(name: &str, priority: u32, live: LiveSlot<'_>) -> (JobOutcome, FinalizedDelta) {
    let LiveSlot {
        session,
        log,
        error,
        deduped,
        busy,
        ..
    } = live;
    let events = log.lock().expect("triage log poisoned").events.clone();
    let computed = events
        .iter()
        .filter(|e| matches!(e, PhaseEvent::Finished { .. }))
        .count() as u32;
    let cache_hits = events
        .iter()
        .filter(|e| matches!(e, PhaseEvent::CacheHit { .. }))
        .count() as u32;
    let result = match error {
        Some(e) => Err(e),
        None => Ok(session.report().expect("no error means complete")),
    };
    let delta = FinalizedDelta {
        failed: result.is_err(),
        computed,
        cache_hits,
        deduped,
    };
    (
        JobOutcome {
            name: name.to_string(),
            priority,
            result,
            events,
            computed,
            cache_hits,
            deduped,
            busy,
        },
        delta,
    )
}

/// A closed batch of reproduction jobs scheduled over one shared
/// executor and artifact store — the original `mcr-batch` API, kept as
/// a thin facade over [`TriageService`]: [`Fleet::run`] submits every
/// pushed job (unbounded admission), drains the service, and collects
/// the outcomes in submission order.
pub struct Fleet<'p> {
    config: FleetConfig,
    jobs: Vec<FleetJob<'p>>,
}

impl<'p> Fleet<'p> {
    /// An empty fleet.
    pub fn new(config: FleetConfig) -> Fleet<'p> {
        Fleet {
            config,
            jobs: Vec::new(),
        }
    }

    /// Adds a job.
    pub fn push(&mut self, job: FleetJob<'p>) {
        self.jobs.push(job);
    }

    /// Number of submitted jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether no jobs have been submitted.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// A clone of the fleet-wide cancellation token.
    pub fn cancel_token(&self) -> CancelToken {
        self.config.cancel.clone()
    }

    /// Runs every job to completion (or error) and returns the
    /// outcomes: submit-all + drain on a private [`TriageService`]
    /// (admission is forced unbounded — a closed job list provides its
    /// own back-pressure).
    ///
    /// Scheduling model: see [`TriageService`]; with every job admitted
    /// up front the waves are exactly the classic fleet waves — each
    /// unfinished job's next phase in `(priority, submission)` order,
    /// deduplicated by content-addressed [`PhaseKey`].
    pub fn run(self) -> FleetOutcome {
        let Fleet { config, jobs } = self;
        let service = TriageService::new(FleetConfig {
            admission: AdmissionPolicy::Unbounded,
            ..config
        });
        let tickets: Vec<JobTicket<'_, 'p>> = jobs
            .into_iter()
            .map(|job| service.submit(job).expect("unbounded admission"))
            .collect();
        service.drain();
        let outcomes: Vec<JobOutcome> = tickets.into_iter().map(JobTicket::wait).collect();
        FleetOutcome::new(outcomes, service.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcr_core::{find_failure, Reproducer};

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

    const INPUT: [i64; 2] = [0, 1];

    fn fig1_failure() -> (mcr_lang::Program, mcr_dump::CoreDump) {
        let p = mcr_lang::compile(FIG1).unwrap();
        let sf = find_failure(&p, &INPUT, 0..200_000, 1_000_000).expect("stress exposes");
        (p, sf.dump)
    }

    #[test]
    fn duplicate_jobs_are_deduplicated_and_agree_with_a_solo_run() {
        let (program, dump) = fig1_failure();
        let solo = Reproducer::new(&program, ReproOptions::default())
            .reproduce(&dump, &INPUT)
            .unwrap();

        let mut fleet = Fleet::new(FleetConfig::default());
        for i in 0..3 {
            fleet.push(FleetJob::new(
                format!("dup-{i}"),
                &program,
                dump.clone(),
                &INPUT,
            ));
        }
        let outcome = fleet.run();
        assert_eq!(outcome.summary.jobs, 3);
        assert_eq!(outcome.summary.completed, 3);
        assert_eq!(outcome.summary.failed, 0);
        // 3 jobs x 5 phases scheduled, but only 5 computed: the
        // duplicates were either deduped in flight or store hits.
        assert_eq!(outcome.summary.phase_units, 15);
        assert_eq!(outcome.summary.computed, 5);
        assert_eq!(outcome.summary.cache_hits, 10);
        assert_eq!(outcome.summary.deduped_in_flight, 10);
        assert_eq!(outcome.summary.waves, 5);
        for job in &outcome.jobs {
            let report = job.result.as_ref().expect("job completed");
            assert_eq!(report.search.reproduced, solo.search.reproduced);
            assert_eq!(report.search.tries, solo.search.tries);
            assert_eq!(report.search.winning, solo.search.winning);
            assert_eq!(report.csv_paths, solo.csv_paths);
            assert_eq!(report.diffs, solo.diffs);
        }
        // Exactly one job computed; the others only hit.
        let computed: u32 = outcome.jobs.iter().map(|j| j.computed).sum();
        assert_eq!(computed, 5);
    }

    #[test]
    fn priorities_order_leaders_and_outcomes_keep_submission_order() {
        let (program, dump) = fig1_failure();
        let mut fleet = Fleet::new(FleetConfig {
            workers: 1,
            ..Default::default()
        });
        fleet.push(FleetJob::new("late", &program, dump.clone(), &INPUT).with_priority(9));
        // A *distinct* unit (different options → different keys).
        let opts = ReproOptions::builder().trace_window(1_000_000).build();
        fleet.push(
            FleetJob::new("early", &program, dump.clone(), &INPUT)
                .with_options(opts)
                .with_priority(1),
        );
        let outcome = fleet.run();
        // Outcomes stay in submission order regardless of priority.
        assert_eq!(outcome.jobs[0].name, "late");
        assert_eq!(outcome.jobs[1].name, "early");
        assert_eq!(outcome.summary.completed, 2);
        // Distinct keys: nothing deduped, every unit computed.
        assert_eq!(outcome.summary.deduped_in_flight, 0);
        assert_eq!(outcome.summary.computed, 10);
    }

    #[test]
    fn rejected_dumps_surface_as_failed_jobs() {
        let program = mcr_lang::compile("global x: int; fn main() { x = 1; }").unwrap();
        let mut vm = mcr_vm::Vm::new(&program, &[]);
        mcr_vm::run(
            &mut vm,
            &mut mcr_vm::DeterministicScheduler::new(),
            &mut mcr_vm::NullObserver,
            10_000,
        );
        let dump =
            mcr_dump::CoreDump::capture(&vm, mcr_vm::ThreadId(0), mcr_dump::DumpReason::Manual);
        let mut fleet = Fleet::new(FleetConfig::default());
        fleet.push(FleetJob::new("not-a-failure", &program, dump, &[]));
        let outcome = fleet.run();
        assert_eq!(outcome.summary.failed, 1);
        assert!(matches!(
            outcome.jobs[0].result,
            Err(ReproError::NotAFailureDump)
        ));
    }

    #[test]
    fn pre_cancelled_fleet_stops_every_job() {
        let (program, dump) = fig1_failure();
        let config = FleetConfig::default();
        config.cancel.cancel();
        let mut fleet = Fleet::new(config);
        fleet.push(FleetJob::new("job", &program, dump, &INPUT));
        let outcome = fleet.run();
        assert_eq!(outcome.summary.failed, 1);
        assert!(matches!(
            outcome.jobs[0].result,
            Err(ReproError::Cancelled(Phase::Index))
        ));
    }

    #[test]
    fn warm_store_makes_a_second_fleet_all_hits() {
        let (program, dump) = fig1_failure();
        let store: Arc<dyn ArtifactStore> = Arc::new(MemoryStore::unbounded());
        let config = FleetConfig {
            store: Arc::clone(&store),
            ..Default::default()
        };
        let mut first = Fleet::new(config.clone());
        first.push(FleetJob::new("cold", &program, dump.clone(), &INPUT));
        let first = first.run();
        assert_eq!(first.summary.computed, 5);

        let mut second = Fleet::new(config);
        second.push(FleetJob::new("warm", &program, dump, &INPUT));
        let second = second.run();
        assert_eq!(second.summary.computed, 0);
        assert_eq!(second.summary.cache_hits, 5);
        let cold = first.jobs[0].result.as_ref().unwrap();
        let warm = second.jobs[0].result.as_ref().unwrap();
        // Rehydrated reports are bit-identical, timings included.
        assert_eq!(cold, warm);
    }

    #[test]
    fn outcome_lookup_is_indexed_and_duplicate_names_resolve_last_wins() {
        let (program, dump) = fig1_failure();
        let store: Arc<dyn ArtifactStore> = Arc::new(MemoryStore::unbounded());
        let mut fleet = Fleet::new(FleetConfig {
            store,
            ..Default::default()
        });
        // Two jobs sharing a name, with distinct priorities to tell the
        // outcomes apart.
        fleet.push(FleetJob::new("crash", &program, dump.clone(), &INPUT).with_priority(1));
        fleet.push(FleetJob::new("crash", &program, dump.clone(), &INPUT).with_priority(2));
        fleet.push(FleetJob::new("other", &program, dump, &INPUT).with_priority(3));
        let outcome = fleet.run();
        // Both duplicates are retained in submission order…
        assert_eq!(outcome.jobs.len(), 3);
        assert_eq!(outcome.jobs[0].priority, 1);
        assert_eq!(outcome.jobs[1].priority, 2);
        // …and the named lookup resolves to the last-submitted one.
        assert_eq!(outcome.job("crash").unwrap().priority, 2);
        assert_eq!(outcome.job("other").unwrap().priority, 3);
        assert!(outcome.job("missing").is_none());
    }

    #[test]
    fn service_admits_mid_run_and_matches_the_closed_list() {
        let (program, dump) = fig1_failure();
        let store: Arc<dyn ArtifactStore> = Arc::new(MemoryStore::unbounded());

        let baseline = Reproducer::new(&program, ReproOptions::default())
            .reproduce(&dump, &INPUT)
            .unwrap();

        let service = TriageService::new(FleetConfig {
            store,
            ..Default::default()
        });
        let first = service
            .submit(FleetJob::new("first", &program, dump.clone(), &INPUT))
            .unwrap();
        // Advance the service mid-pipeline, then admit more work — the
        // definition of async admission.
        assert!(service.poll(), "first job still pending");
        let second = service
            .submit(FleetJob::new("second", &program, dump.clone(), &INPUT))
            .unwrap();
        assert_eq!(service.pending(), 2);
        let first = first.wait();
        let second = second.wait();
        service.drain(); // empty queue: returns immediately
        let summary = service.shutdown();
        assert_eq!(summary.completed, 2);
        assert_eq!(summary.failed, 0);
        for outcome in [&first, &second] {
            let report = outcome.result.as_ref().expect("completed");
            assert_eq!(report.search.reproduced, baseline.search.reproduced);
            assert_eq!(report.search.winning, baseline.search.winning);
            assert_eq!(report.diffs, baseline.diffs);
        }
        // The duplicate rehydrated everything the first job computed.
        assert_eq!(second.computed, 0);
        assert_eq!(second.cache_hits, 5);
    }

    #[test]
    fn reject_policy_saturates_and_recovers() {
        let (program, dump) = fig1_failure();
        let service = TriageService::new(FleetConfig {
            admission: AdmissionPolicy::Reject { max_pending: 1 },
            ..Default::default()
        });
        let ticket = service
            .submit(FleetJob::new("only", &program, dump.clone(), &INPUT))
            .unwrap();
        let refused = service
            .submit(FleetJob::new("over", &program, dump.clone(), &INPUT))
            .expect_err("bound is full");
        assert_eq!(
            refused.reason,
            AdmitError::Saturated {
                pending: 1,
                max_pending: 1
            }
        );
        let outcome = ticket.wait();
        assert!(outcome.result.is_ok());
        // Capacity freed: the refused job was handed back and can be
        // resubmitted as-is — no rebuild, no dump re-clone.
        let again = service.submit(refused.job).unwrap();
        assert_eq!(again.name(), "over");
        assert!(again.wait().result.is_ok());
    }

    #[test]
    fn block_policy_helps_drive_and_never_deadlocks_single_threaded() {
        let (program, dump) = fig1_failure();
        let service = TriageService::new(FleetConfig {
            admission: AdmissionPolicy::Block { max_pending: 1 },
            ..Default::default()
        });
        // The first job fills the bound; the second submit must block,
        // help drive the first job to completion, and then admit —
        // all on this one thread.
        let first = service
            .submit(FleetJob::new("first", &program, dump.clone(), &INPUT))
            .unwrap();
        let second = service
            .submit(FleetJob::new("second", &program, dump, &INPUT))
            .unwrap();
        assert!(first.is_ready(), "blocked submit drove the first job");
        assert!(first.wait().result.is_ok());
        assert!(second.wait().result.is_ok());
        assert_eq!(service.summary().completed, 2);
    }

    #[test]
    fn zero_pending_bounds_are_clamped_to_one() {
        let (program, dump) = fig1_failure();
        // A literal zero bound would refuse all work (and livelock a
        // blocking submitter); the service clamps it.
        for admission in [
            AdmissionPolicy::Reject { max_pending: 0 },
            AdmissionPolicy::Block { max_pending: 0 },
            AdmissionPolicy::Adaptive {
                max_pending: 0,
                churn_permille: 250,
            },
        ] {
            let service = TriageService::new(FleetConfig {
                admission,
                ..Default::default()
            });
            let ticket = service
                .submit(FleetJob::new("only", &program, dump.clone(), &INPUT))
                .unwrap_or_else(|e| panic!("{admission:?} must admit one job: {e}"));
            assert!(ticket.wait().result.is_ok());
        }
    }

    #[test]
    fn adaptive_policy_sheds_churny_jobs_to_the_cold_store() {
        let (program, dump) = fig1_failure();
        // A hot store far too small for one job's artifacts: every
        // insert evicts, so the churn telemetry trips immediately.
        let hot: Arc<dyn ArtifactStore> = Arc::new(MemoryStore::with_capacity(64));
        let cold: Arc<dyn ArtifactStore> = Arc::new(MemoryStore::unbounded());
        let service = TriageService::new(FleetConfig {
            store: Arc::clone(&hot),
            cold_store: Some(Arc::clone(&cold)),
            admission: AdmissionPolicy::Adaptive {
                max_pending: 8,
                churn_permille: 250,
            },
            ..Default::default()
        });
        // Cold start: no telemetry yet, so the first job is admitted
        // hot — and churns the 64-byte store.
        let first = service
            .submit(FleetJob::new("churn", &program, dump.clone(), &INPUT))
            .unwrap()
            .wait();
        assert!(hot.stats().evictions > 0, "hot store must churn");
        // The telemetry loop closes: the next job's predicted footprint
        // would evict hot entries, so it is shed to the cold shard.
        let second = service
            .submit(FleetJob::new("shed", &program, dump.clone(), &INPUT))
            .unwrap()
            .wait();
        let summary = service.shutdown();
        assert_eq!(summary.shed, 1, "second job shed");
        assert!(cold.stats().inserts > 0, "shed job cached cold");
        // Shedding changes cache placement only — both jobs agree on
        // every observable.
        let (a, b) = (
            first.result.as_ref().expect("completed"),
            second.result.as_ref().expect("completed"),
        );
        assert_eq!(a.search.reproduced, b.search.reproduced);
        assert_eq!(a.search.tries, b.search.tries);
        assert_eq!(a.search.winning, b.search.winning);
        assert_eq!(a.csv_paths, b.csv_paths);
        assert_eq!(a.diffs, b.diffs);
    }

    #[test]
    fn adaptive_without_a_cold_store_never_sheds() {
        let (program, dump) = fig1_failure();
        let service = TriageService::new(FleetConfig {
            store: Arc::new(MemoryStore::with_capacity(64)),
            admission: AdmissionPolicy::Adaptive {
                max_pending: 8,
                churn_permille: 250,
            },
            ..Default::default()
        });
        for i in 0..2 {
            let outcome = service
                .submit(FleetJob::new(
                    format!("job-{i}"),
                    &program,
                    dump.clone(),
                    &INPUT,
                ))
                .unwrap()
                .wait();
            assert!(outcome.result.is_ok());
        }
        assert_eq!(service.shutdown().shed, 0);
    }

    #[test]
    fn submit_after_shutdown_is_a_typed_error() {
        let (program, dump) = fig1_failure();
        let service = TriageService::new(FleetConfig::default());
        let summary = service.shutdown(); // empty: returns immediately
        assert_eq!(summary.jobs, 0);
        assert!(service.is_closed());
        let refused = service
            .submit(FleetJob::new("late", &program, dump, &INPUT))
            .expect_err("admission is closed");
        assert_eq!(refused.reason, AdmitError::ShutDown);
        assert_eq!(refused.job.name, "late", "job handed back");
    }

    #[test]
    fn try_outcome_is_nonblocking_and_tickets_survive_not_ready() {
        let (program, dump) = fig1_failure();
        let service = TriageService::new(FleetConfig::default());
        let ticket = service
            .submit(FleetJob::new("job", &program, dump, &INPUT))
            .unwrap();
        assert!(!ticket.is_ready());
        // Nothing has driven the service yet, so the outcome cannot be
        // ready.
        let Err(ticket) = ticket.try_outcome() else {
            panic!("outcome cannot be ready before any wave")
        };
        service.drain();
        assert!(ticket.is_ready());
        let outcome = ticket.try_outcome().expect("drained");
        assert!(outcome.result.is_ok());
    }
}
