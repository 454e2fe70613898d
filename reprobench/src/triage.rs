//! The `triage_dups` workload: a duplicate-heavy fleet corpus through
//! one `TriageService` per pass, with a fresh unbounded `MemoryStore`,
//! driven by a closed-loop client.

use crate::setup::{self, check, DumpSpec, Prepared};
use crate::stats::{mean, ratio};
use crate::trace::{merge, Tracer};
use crate::{ms, one_window, timed_rounds, RunOutput, Sample};
use mcr_batch::{FleetConfig, FleetJob, FleetSummary, TriageService};
use mcr_core::{ArtifactStore, MemoryStore};
use mcr_workloads::fleet_corpus;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Identical copies per bug in the corpus (plus one variant each).
pub const COPIES: usize = 4;

/// Closed-loop clients. One: with two, whether a duplicate job waits
/// behind the other client's computing job depends on how the threads
/// interleave, and the latencies measure the scheduler; with one, every
/// duplicate after the first rehydrates from the store.
pub const CLIENTS: usize = 1;

/// One corpus entry.
#[derive(Debug, Clone)]
struct Job {
    name: String,
    case: usize,
    priority: u32,
}

/// One answered ticket.
#[derive(Debug, Clone)]
struct Ticket {
    sample: Sample,
    busy: Duration,
    computed: u32,
    deduped: u32,
    failure_bytes: f64,
    aligned_bytes: f64,
}

/// Runs `triage_dups`.
///
/// # Errors
///
/// Set-up failures (see [`setup::prepare`]).
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<RunOutput, String> {
    // One corpus: it already holds 14 distinct dumps.
    let input_seed = setup::input_seeds(seed, 1)[0];
    let mut specs: Vec<DumpSpec> = Vec::new();
    let mut case_of: HashMap<(String, usize, u64), usize> = HashMap::new();
    let mut jobs = Vec::new();
    for spec in fleet_corpus(COPIES, input_seed) {
        let case = *case_of.entry(spec.dedup_key()).or_insert_with(|| {
            specs.push(DumpSpec {
                label: format!("{}/input{}", spec.bug.name, spec.input_seed),
                input: spec.input(),
                stress_start: input_seed * setup::STRESS_SPAN,
                bug: spec.bug.clone(),
            });
            specs.len() - 1
        });
        jobs.push(Job {
            name: spec.name,
            case,
            priority: spec.priority,
        });
    }
    let epoch = Instant::now();
    let mut tracer = Tracer::new(trace, epoch);
    let prep = setup::prepare(&specs, &setup::options(), setup::SETUP_REPS, &mut tracer)?;
    let mut out = RunOutput::new(&prep, vec![input_seed]);

    if !trace {
        let mut clients: Vec<Tracer> = (0..CLIENTS).map(|_| Tracer::new(false, epoch)).collect();
        let rounds = timed_rounds(seconds, |samples| {
            let (tickets, _) = pass(&prep, &jobs, &mut clients, 1);
            samples.extend(tickets.into_iter().map(|t| t.sample));
        });
        out.end_to_end(&rounds, &prep);
        return Ok(out);
    }

    let mut untraced: Vec<Tracer> = (0..CLIENTS).map(|_| Tracer::new(false, epoch)).collect();
    let plain: Vec<Sample> = one_window(seconds / 2.0, |samples| {
        let (tickets, _) = pass(&prep, &jobs, &mut untraced, samples.len() as u64 + 1);
        samples.extend(tickets.into_iter().map(|t| t.sample));
    });
    let mut clients: Vec<Tracer> = (0..CLIENTS).map(|_| Tracer::new(true, epoch)).collect();
    let mut passes = Vec::new();
    let tickets = one_window(seconds / 2.0, |tickets| {
        let (pass_tickets, summary) = pass(&prep, &jobs, &mut clients, tickets.len() as u64 + 1);
        tickets.extend(pass_tickets);
        passes.push(summary);
    });
    let traced: Vec<Sample> = tickets.iter().map(|t| t.sample.clone()).collect();
    out.absorb(&plain);
    out.absorb(&traced);

    let n = passes.len() as f64;
    let per_pass =
        |f: fn(&FleetSummary) -> u64| passes.iter().map(|s| f(s) as f64).sum::<f64>() / n;
    out.layer("store.hits", per_pass(|s| s.store.hits));
    out.layer("store.misses", per_pass(|s| s.store.misses));
    out.layer("store.evictions", per_pass(|s| s.store.evictions));
    out.layer("store.bytes", per_pass(|s| s.store.bytes as u64));
    let lookups = per_pass(|s| s.store.hits + s.store.misses);
    out.layer("store.hit_rate", ratio(per_pass(|s| s.store.hits), lookups));
    out.layer("batch.computed_units", per_pass(|s| s.computed));
    out.layer("batch.rehydrated_units", per_pass(|s| s.cache_hits));
    out.layer("batch.deduped_units", per_pass(|s| s.deduped_in_flight));
    out.layer("batch.waves", per_pass(|s| s.waves));
    let each = |keep: fn(&Ticket) -> bool, f: fn(&Ticket) -> f64| {
        mean(
            &tickets
                .iter()
                .filter(|t| keep(t))
                .map(f)
                .collect::<Vec<_>>(),
        )
    };
    out.layer("batch.busy_ms", each(|_| true, |t| ms(t.busy)));
    out.layer(
        "batch.wait_ms",
        each(|_| true, |t| ms(t.sample.latency.saturating_sub(t.busy))),
    );
    out.layer(
        "batch.hit_job_ms",
        each(
            |t| t.computed == 0 && t.deduped == 0,
            |t| ms(t.sample.latency),
        ),
    );
    out.layer(
        "batch.miss_job_ms",
        each(|t| t.computed > 0, |t| ms(t.sample.latency)),
    );
    out.layer("dump.failure_bytes", each(|_| true, |t| t.failure_bytes));
    out.layer("dump.aligned_bytes", each(|_| true, |t| t.aligned_bytes));
    out.trace_overhead(&plain, &traced);
    let mut parts = vec![tracer.into_spans()];
    parts.extend(clients.into_iter().map(Tracer::into_spans));
    out.spans = merge(parts);
    Ok(out)
}

/// One pass: a fresh service and store, every job submitted once by
/// whichever client is free.
fn pass(
    prep: &Prepared,
    jobs: &[Job],
    clients: &mut [Tracer],
    first_request: u64,
) -> (Vec<Ticket>, FleetSummary) {
    let store: Arc<dyn ArtifactStore> = Arc::new(MemoryStore::unbounded());
    // One worker, as every search runs on one thread (see
    // `setup::options`).
    let service = TriageService::new(FleetConfig {
        store,
        workers: 1,
        ..Default::default()
    });
    let next = AtomicUsize::new(0);
    let tickets = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|tracer| {
                let (service, next) = (&service, &next);
                s.spawn(move || client(service, prep, jobs, next, tracer, first_request))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (tickets, service.shutdown())
}

/// A closed-loop client: takes the next job, submits it, waits for its
/// outcome, checks it, repeats.
fn client<'p>(
    service: &TriageService<'p>,
    prep: &'p Prepared,
    jobs: &[Job],
    next: &AtomicUsize,
    tracer: &mut Tracer,
    first_request: u64,
) -> Vec<Ticket> {
    let mut out = Vec::new();
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(job) = jobs.get(i) else {
            return out;
        };
        let case = &prep.cases[job.case];
        let fleet_job = FleetJob::new(
            job.name.clone(),
            &prep.programs[case.program],
            case.dump.clone(),
            &case.input,
        )
        .with_options(setup::options())
        .with_priority(job.priority);
        let request = first_request + i as u64;
        let t = Instant::now();
        let root = tracer.open("request", request);
        let submitted = tracer.span("submit", request, || service.submit(fleet_job));
        let outcome = submitted.map(|ticket| tracer.span("wait", request, || ticket.wait()));
        tracer.close(root);
        let latency = t.elapsed();
        out.push(match outcome {
            Ok(o) => {
                let (failure_bytes, aligned_bytes) = o.result.as_ref().map_or((0.0, 0.0), |r| {
                    (r.failure_dump_bytes as f64, r.aligned_dump_bytes as f64)
                });
                Ticket {
                    sample: Sample::new(job.case, i, latency, check(case, o.result)),
                    busy: o.busy,
                    computed: o.computed,
                    deduped: o.deduped,
                    failure_bytes,
                    aligned_bytes,
                }
            }
            Err(e) => Ticket {
                sample: Sample::new(job.case, i, latency, Err(e.to_string())),
                busy: Duration::ZERO,
                computed: 0,
                deduped: 0,
                failure_bytes: 0.0,
                aligned_bytes: 0.0,
            },
        });
    }
}
