//! Command line of the reproduction benchmark:
//!
//! ```text
//! reprobench --workload <suite_chessx|suite_chess|triage_dups>
//!            [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints diagnostics (lines starting with `#`) and, as the last line,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! A traced run also writes its spans to
//! `reprobench/out/trace-<workload>-seed<N>.jsonl`.

use reprobench::catalog::{self, Metric};
use reprobench::trace::{self, Span};
use reprobench::{run_workload, setup, RunOutput};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("reprobench: {e}");
            return ExitCode::from(2);
        }
    };
    let host_before = host_speed_ms();
    let out = match run_workload(&args.workload, args.seed, args.seconds, args.trace) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("reprobench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let host_after = host_speed_ms();
    println!(
        "# reprobench workload={} seed={} input_seeds={:?} rev={} nproc={} setup_reps={} requests={} seconds={} trace={}",
        args.workload,
        args.seed,
        out.input_seeds,
        git_revision(),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        setup::SETUP_REPS,
        out.attempted,
        args.seconds,
        u8::from(args.trace),
    );
    println!(
        "# failed_frac={} ({} of {})",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    println!("# host_loop_ms before={host_before:.3} after={host_after:.3}");
    for row in out.rows() {
        println!("# {row}");
    }
    if args.trace {
        print_trace(&out.spans);
        match write_trace(&args, &out.spans) {
            Ok(path) => println!("# trace written to {}", path.display()),
            Err(e) => eprintln!("reprobench: writing the trace: {e}"),
        }
    }
    let metrics = if args.trace {
        catalog::PER_LAYER
    } else {
        catalog::END_TO_END
    };
    println!("{}", result_json(&out, metrics));
    ExitCode::SUCCESS
}

/// The result line. A per-layer metric a workload does not drive reads
/// 0; every end-to-end metric is always measured.
fn result_json(out: &RunOutput, metrics: &[Metric]) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.failed == 0,
        out.attempted,
        out.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = out.metrics.get(m.name).copied().unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

/// Self time per span name, and as mean milliseconds per traced
/// request.
fn print_trace(spans: &[Span]) {
    let totals = trace::totals(spans);
    let requests = totals.get("request").map_or(0, |t| t.count);
    println!("# span                    count   total_ms     self_ms  self_ms/request");
    for (name, t) in totals {
        let self_ms = t.self_time.as_secs_f64() * 1e3;
        println!(
            "# {name:<22} {:>7} {:>10.3} {:>11.3} {:>16.4}",
            t.count,
            t.total.as_secs_f64() * 1e3,
            self_ms,
            self_ms / requests.max(1) as f64
        );
    }
}

fn write_trace(args: &Args, spans: &[Span]) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    std::fs::write(&path, trace::to_json_lines(spans))?;
    Ok(path)
}

/// The best of three timings of a fixed single-threaded integer loop
/// that shares no code with the program. Printed before and after the
/// workload, it tells a slower program from a slower host (on shared
/// hosts single-thread speed can drift for minutes at a time; see the
/// README).
fn host_speed_ms() -> f64 {
    (0..3)
        .map(|_| {
            let t = std::time::Instant::now();
            let mut x = 0x9E37_79B9_7F4A_7C15_u64;
            let mut acc = 0u64;
            for _ in 0..20_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc = acc.wrapping_add(x);
            }
            std::hint::black_box(acc);
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git; `unknown` outside a git checkout.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(name) => std::fs::read_to_string(format!(".git/{name}"))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|p| {
                        p.lines()
                            .find(|l| l.ends_with(name))
                            .map(|l| l[..l.find(' ').unwrap_or(0)].to_string())
                    })
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".into()
    } else {
        rev.chars().take(12).collect()
    }
}
