//! The `suite_chessx` and `suite_chess` workloads: the Table 2 dumps
//! reproduced one at a time, in repeated rounds, by one client.

use crate::setup::{self, check, rederive, worklist_only, Case, DumpSpec, Prepared};
use crate::trace::{totals, Tracer};
use crate::{ms, one_window, timed_rounds, RunOutput, Sample};
use mcr_core::{ReproError, ReproOptions, ReproReport, ReproSession, Reproducer};
use mcr_lang::Program;
use mcr_search::{worklist_size, Algorithm};
use mcr_vm::{DeterministicScheduler, NullObserver, Vm};
use std::time::Instant;

/// Counts a traced request gathers beside its spans.
#[derive(Debug, Clone, Copy, Default)]
struct LayerCounts {
    candidates: f64,
    worklist_len: f64,
    tries: f64,
    combos: f64,
    failure_bytes: f64,
    aligned_bytes: f64,
    vm_steps: f64,
}

/// Input seeds a run reproduces the dumps of. Under ChessX one input
/// seed makes a bug's dump up to 25% cheaper or dearer to reproduce, and
/// the median request is one bug's, so a run averages over three. Plain
/// CHESS does the same tries on every seed's dumps, and one input seed
/// keeps its rounds short.
fn inputs_per_run(algorithm: Algorithm) -> usize {
    match algorithm {
        Algorithm::ChessX => 3,
        Algorithm::Chess => 1,
    }
}

/// Runs a suite workload under `algorithm`: every Table 2 bug, except
/// mysql-5 under plain CHESS (which never reproduces it within the try
/// cap).
///
/// # Errors
///
/// Set-up failures (see [`setup::prepare`]).
pub fn run(
    algorithm: Algorithm,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<RunOutput, String> {
    let input_seeds = setup::input_seeds(seed, inputs_per_run(algorithm));
    let options = ReproOptions {
        algorithm,
        ..setup::options()
    };
    let bugs: Vec<_> = mcr_workloads::all_bugs()
        .into_iter()
        .filter(|b| algorithm == Algorithm::ChessX || b.name != "mysql-5")
        .collect();
    let specs: Vec<DumpSpec> = input_seeds
        .iter()
        .flat_map(|&input_seed| {
            bugs.iter().map(move |bug| DumpSpec {
                label: format!("{}/input{input_seed}", bug.name),
                input: bug.lengthened_input(bug.default_warmup, input_seed),
                stress_start: input_seed * setup::STRESS_SPAN,
                bug: bug.clone(),
            })
        })
        .collect();
    let epoch = Instant::now();
    let mut tracer = Tracer::new(trace, epoch);
    let prep = setup::prepare(&specs, &options, setup::SETUP_REPS, &mut tracer)?;
    let mut out = RunOutput::new(&prep, input_seeds);

    if !trace {
        let rounds = timed_rounds(seconds, |samples| {
            round(&prep, &options, &mut tracer, &mut Vec::new(), samples);
        });
        out.end_to_end(&rounds, &prep);
        return Ok(out);
    }

    // Traced: half the time untraced, half traced, so the difference is
    // the tracing overhead.
    let mut untraced = Tracer::new(false, epoch);
    let plain = one_window(seconds / 2.0, |samples| {
        round(&prep, &options, &mut untraced, &mut Vec::new(), samples);
    });
    let mut counts = Vec::new();
    let traced = one_window(seconds / 2.0, |samples| {
        round(&prep, &options, &mut tracer, &mut counts, samples);
    });
    out.absorb(&plain);
    out.absorb(&traced);
    let spans = tracer.into_spans();
    let per_name = totals(&spans);
    let n = traced.len().max(1) as f64;
    let mean_ms = |name: &str| per_name.get(name).map_or(0.0, |t| ms(t.total) / n);
    let sum = |f: fn(&LayerCounts) -> f64| counts.iter().map(f).sum::<f64>();
    let search = mean_ms("run_search");
    let annotate = mean_ms("annotate_with_race");
    let worklist = mean_ms("find_schedule");
    let tries_ms = search - annotate - worklist;
    let tries = sum(|c| c.tries);
    let vm_s = per_name
        .get("mcr_vm::run")
        .map_or(0.0, |t| t.total.as_secs_f64());
    out.layer("search.ms", search);
    out.layer("search.annotate_ms", annotate);
    out.layer("search.worklist_ms", worklist);
    out.layer("search.tries_ms", tries_ms);
    out.layer("search.candidates", sum(|c| c.candidates) / n);
    out.layer("search.worklist_len", sum(|c| c.worklist_len) / n);
    out.layer("search.tries", tries / n);
    out.layer("search.combos_tested", sum(|c| c.combos) / n);
    out.layer(
        "search.try_us",
        crate::stats::ratio(tries_ms * n * 1e3, tries),
    );
    out.layer(
        "search.worklist_used_frac",
        crate::stats::ratio(sum(|c| c.combos), sum(|c| c.worklist_len)),
    );
    out.layer(
        "vm.steps_per_s",
        crate::stats::ratio(sum(|c| c.vm_steps), vm_s),
    );
    out.layer("analysis.ms", mean_ms("Reproducer::new"));
    out.layer("index.ms", mean_ms("run_index"));
    out.layer("align.ms", mean_ms("run_align"));
    out.layer("diff.ms", mean_ms("run_diff"));
    out.layer("rank.ms", mean_ms("run_rank"));
    out.layer("dump.failure_bytes", sum(|c| c.failure_bytes) / n);
    out.layer("dump.aligned_bytes", sum(|c| c.aligned_bytes) / n);
    out.trace_overhead(&plain, &traced);
    out.spans = spans;
    Ok(out)
}

/// Reproduces every case once, in order. With an enabled tracer each
/// request is staged phase by phase and followed by the outside probes,
/// whose counts go to `counts`.
fn round(
    prep: &Prepared,
    options: &ReproOptions,
    tracer: &mut Tracer,
    counts: &mut Vec<LayerCounts>,
    samples: &mut Vec<Sample>,
) {
    for (i, case) in prep.cases.iter().enumerate() {
        let program = &prep.programs[case.program];
        let request = samples.len() as u64 + 1;
        samples.push(if tracer.enabled() {
            traced_request(program, i, case, options, tracer, request, counts)
        } else {
            let t = Instant::now();
            let result =
                Reproducer::new(program, options.clone()).reproduce(&case.dump, &case.input);
            let latency = t.elapsed();
            Sample::new(i, i, latency, check(case, result))
        });
    }
}

/// A request staged phase by phase under spans, then the outside probes
/// of the search's worklist and the VM.
fn traced_request(
    program: &Program,
    index: usize,
    case: &Case,
    options: &ReproOptions,
    tracer: &mut Tracer,
    request: u64,
    counts: &mut Vec<LayerCounts>,
) -> Sample {
    let t = Instant::now();
    let root = tracer.open("request", request);
    let reproducer = tracer.span("Reproducer::new", request, || {
        Reproducer::new(program, options.clone())
    });
    let staged = staged(&reproducer, case, tracer, request);
    tracer.close(root);
    let latency = t.elapsed();
    let verdict = match staged {
        Ok((session, report)) => {
            counts.push(probe(program, case, &session, &report, tracer, request));
            check(case, Ok::<_, String>(report))
        }
        Err(e) => Err(e.to_string()),
    };
    Sample::new(index, index, latency, verdict)
}

fn staged<'p>(
    reproducer: &Reproducer<'p>,
    case: &Case,
    tracer: &mut Tracer,
    request: u64,
) -> Result<(ReproSession<'p>, ReproReport), ReproError> {
    let mut s = reproducer.session(&case.dump, &case.input)?;
    tracer.span("run_index", request, || s.run_index().map(drop))?;
    tracer.span("run_align", request, || s.run_align().map(drop))?;
    tracer.span("run_diff", request, || s.run_diff().map(drop))?;
    tracer.span("run_rank", request, || s.run_rank().map(drop))?;
    tracer.span("run_search", request, || s.run_search().map(drop))?;
    let report = s.report().expect("every phase ran");
    Ok((s, report))
}

/// The outside probes after a traced request: re-derive the candidates,
/// build the worklist with a pre-fired cancel token, and time the bug's
/// deterministic run on a fresh VM.
fn probe(
    program: &Program,
    case: &Case,
    session: &ReproSession<'_>,
    report: &ReproReport,
    tracer: &mut Tracer,
    request: u64,
) -> LayerCounts {
    let root = tracer.open("probe", request);
    let (candidates, future) = tracer
        .span("annotate_with_race", request, || rederive(session))
        .expect("a finished session has every artifact");
    let search = &session.options().search;
    let cancelled = tracer.span("find_schedule", request, || {
        worklist_only(program, &case.input, session, &candidates, &future)
    });
    debug_assert!(cancelled.tries == 0, "a pre-cancelled search runs no try");
    let mut vm = Vm::new(program, &case.input);
    let max_steps = session.options().max_steps;
    tracer.span("mcr_vm::run", request, || {
        mcr_vm::run(
            &mut vm,
            &mut DeterministicScheduler::new(),
            &mut NullObserver,
            max_steps,
        )
    });
    tracer.close(root);
    LayerCounts {
        candidates: candidates.len() as f64,
        worklist_len: worklist_size(candidates.len(), search.preemption_bound, search.pair_pool)
            as f64,
        tries: report.search.tries as f64,
        combos: report.search.combinations_tested as f64,
        failure_bytes: report.failure_dump_bytes as f64,
        aligned_bytes: report.aligned_dump_bytes as f64,
        vm_steps: vm.steps() as f64,
    }
}
