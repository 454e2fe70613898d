//! Criterion micro-benchmarks of the analysis kernels behind the tables.
//!
//! * `instrumentation/*` — the overhead story of the paper's §3.2: plain
//!   execution vs. loop counters vs. full online execution indexing (the
//!   paper's 1.6% vs 42% motivation).
//! * `dump/*` — encode/decode/traverse (Tables 3 and 6), and the diff of
//!   a Table 2 bug's failure dump against its aligned dump.
//! * `content_hash/*` — the one content hash every store key and
//!   program fingerprint uses, one-shot over 64 B and 4 KiB.
//! * `index/*` — failure-index reverse engineering and alignment.
//! * `slice/*` — dependence trace, backward slice, and the projection
//!   onto CSV accesses plus their ranking (Table 6).
//! * `search/*` — one end-to-end directed search per algorithm (Table 4).
//! * `search_hotpath/*` — the search engine's cost model in isolation:
//!   checkpoint (`Vm::clone`) cost on a heap-rich state, stepping
//!   throughput, one test execution (a "try"), a guided vs plain search
//!   on a fixed candidate set, and annotating mysql-1's passing run with
//!   its ranked CSV accesses (the search's first stage). `tables --
//!   bench-json` records all of these but the annotation to
//!   `BENCH_search.json`.
//! * `worklist/*` — the lazy CHESS worklist over 700 candidates (a
//!   suite-sized candidate list, pair pool 512): building it and taking
//!   the first entry (all a 2-try reproduction pays), the first 1000
//!   entries, and draining all ~131k.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use mcr_analysis::ProgramAnalysis;
use mcr_core::{find_failure, ReproOptions, ReproSession, Reproducer};
use mcr_dump::{reachable_vars, ContentHash, CoreDump, DumpDiff, DumpReason, TraverseLimits};
use mcr_index::{reverse_index, Aligner, OnlineIndexer};
use mcr_lang::GlobalId;
use mcr_search::{annotate_with_race, Algorithm, PassingRunInfo, Worklist};
use mcr_slice::{
    backward_slice, csv_accesses, rank_accesses, RankedAccess, Strategy, TraceCollector,
};
use mcr_vm::{run, run_until, DeterministicScheduler, MemLoc, NullObserver, ThreadId, Vm};
use std::collections::HashSet;

const LOOPY: &str = r#"
    global n: int;
    global acc: int;
    fn work(k) {
        var i; var v;
        v = k;
        while (i < 40) {
            i = i + 1;
            v = (v * 31 + i) % 1009;
        }
        return v;
    }
    fn main() {
        var r; var j;
        for (j = 0; j < 50; j = j + 1) {
            r = work(j);
            acc = acc + r;
        }
    }
"#;

fn bench_instrumentation(c: &mut Criterion) {
    let program = mcr_lang::compile(LOOPY).unwrap();
    let analysis = ProgramAnalysis::analyze(&program);
    let mut g = c.benchmark_group("instrumentation");
    g.bench_function("plain", |b| {
        b.iter(|| {
            let mut vm = Vm::new(&program, &[]);
            vm.set_count_loop_instr(false);
            run(
                &mut vm,
                &mut DeterministicScheduler::new(),
                &mut NullObserver,
                1_000_000,
            );
            black_box(vm.instrs())
        });
    });
    g.bench_function("loop_counters", |b| {
        b.iter(|| {
            let mut vm = Vm::new(&program, &[]);
            vm.set_count_loop_instr(true);
            run(
                &mut vm,
                &mut DeterministicScheduler::new(),
                &mut NullObserver,
                1_000_000,
            );
            black_box(vm.instrs())
        });
    });
    g.bench_function("online_ei", |b| {
        b.iter(|| {
            let mut vm = Vm::new(&program, &[]);
            let mut indexer = OnlineIndexer::new(&program, &analysis);
            run(
                &mut vm,
                &mut DeterministicScheduler::new(),
                &mut indexer,
                1_000_000,
            );
            black_box(indexer.ops())
        });
    });
    g.finish();
}

const HEAPY: &str = r#"
    global roots: [int; 32];
    global n: int;
    fn main() {
        var i; var p;
        for (i = 0; i < 32; i = i + 1) {
            p = alloc(16);
            p[0] = i;
            p[1] = alloc(4);
            roots[i] = p;
        }
        n = 32;
    }
"#;

fn medium_dump() -> (mcr_lang::Program, CoreDump) {
    let program = mcr_lang::compile(HEAPY).unwrap();
    let mut vm = Vm::new(&program, &[]);
    run(
        &mut vm,
        &mut DeterministicScheduler::new(),
        &mut NullObserver,
        1_000_000,
    );
    let dump = CoreDump::capture(&vm, ThreadId(0), DumpReason::Manual);
    (program, dump)
}

/// A Table 2 bug's failure dump and the aligned dump of its passing run,
/// as the diff phase compares them.
fn failure_and_aligned_dumps() -> (CoreDump, CoreDump) {
    let bug = mcr_workloads::bug_by_name("apache-1").unwrap();
    let program = bug.compile();
    let input = bug.default_input();
    let sf = find_failure(&program, &input, 0..200_000, bug.max_steps).expect("stress");
    let mut session =
        ReproSession::new(&program, sf.dump.clone(), &input, ReproOptions::default()).unwrap();
    let aligned = mcr_dump::decode(&session.run_align().unwrap().aligned_dump).unwrap();
    (sf.dump, aligned)
}

/// A Table 2 bug's passing run, CSV locations and ranked accesses, as
/// the search phase annotates them.
fn passing_run_and_ranking(name: &str) -> (PassingRunInfo, HashSet<MemLoc>, Vec<RankedAccess>) {
    let bug = mcr_workloads::bug_by_name(name).unwrap();
    let program = bug.compile();
    let input = bug.default_input();
    let sf = find_failure(&program, &input, 0..200_000, bug.max_steps).expect("stress");
    let mut session =
        ReproSession::new(&program, sf.dump.clone(), &input, ReproOptions::default()).unwrap();
    let ranked = session.run_rank().unwrap().ranked.clone();
    let info = session.alignment_artifact().unwrap().passing_run.clone();
    let csvs = session
        .delta_artifact()
        .unwrap()
        .csv_locs
        .iter()
        .copied()
        .collect();
    (info, csvs, ranked)
}

fn bench_dump(c: &mut Criterion) {
    let (_program, dump) = medium_dump();
    let bytes = mcr_dump::encode(&dump);
    let (failure, aligned) = failure_and_aligned_dumps();
    assert!(DumpDiff::compare(&failure, &aligned).diff_count() > 0);
    let mut g = c.benchmark_group("dump");
    g.bench_function("encode", |b| b.iter(|| black_box(mcr_dump::encode(&dump))));
    g.bench_function("decode", |b| {
        b.iter(|| black_box(mcr_dump::decode(&bytes).unwrap()));
    });
    g.bench_function("traverse", |b| {
        b.iter(|| black_box(reachable_vars(&dump, TraverseLimits::default())));
    });
    g.bench_function("diff", |b| {
        b.iter(|| {
            black_box(DumpDiff::compare_with(
                &failure,
                &aligned,
                TraverseLimits::default(),
            ))
        });
    });
    g.finish();
}

fn bench_content_hash(c: &mut Criterion) {
    let mut g = c.benchmark_group("content_hash");
    for (name, len) in [("64B", 64), ("4KiB", 4096)] {
        let bytes: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
        g.bench_function(name, |b| {
            b.iter(|| black_box(ContentHash::of(black_box(&bytes))));
        });
    }
    g.finish();
}

const CRASHER: &str = r#"
    global input: [int; 1];
    fn deep(p, d) {
        if (d > 0) {
            deep(p, d - 1);
        } else {
            p[0] = 1;
        }
    }
    fn main() {
        var i; var p;
        while (i < 20) {
            i = i + 1;
            if (i == input[0]) { deep(null, 6); }
        }
    }
"#;

fn bench_index(c: &mut Criterion) {
    let program = mcr_lang::compile(CRASHER).unwrap();
    let analysis = ProgramAnalysis::analyze(&program);
    let mut vm = Vm::new(&program, &[13]);
    run(
        &mut vm,
        &mut DeterministicScheduler::new(),
        &mut NullObserver,
        1_000_000,
    );
    let dump = CoreDump::capture_failure(&vm).expect("crash");
    let index = reverse_index(&program, &analysis, &dump).unwrap();

    let mut g = c.benchmark_group("index");
    g.bench_function("reverse_engineer", |b| {
        b.iter(|| black_box(reverse_index(&program, &analysis, &dump).unwrap()));
    });
    g.bench_function("alignment_scan", |b| {
        b.iter(|| {
            let mut vm = Vm::new(&program, &[99]);
            let mut aligner = Aligner::new(&program, &analysis, dump.focus, &index);
            run_until(
                &mut vm,
                &mut DeterministicScheduler::new(),
                &mut aligner,
                1_000_000,
                |_| false,
            );
            black_box(aligner.finish())
        });
    });
    g.finish();
}

fn bench_slice(c: &mut Criterion) {
    let program = mcr_lang::compile(LOOPY).unwrap();
    let analysis = ProgramAnalysis::analyze(&program);
    let mut vm = Vm::new(&program, &[]);
    let mut collector = TraceCollector::new(&analysis, 1_000_000);
    run(
        &mut vm,
        &mut DeterministicScheduler::new(),
        &mut collector,
        1_000_000,
    );
    let trace = collector.finish();
    let criterion = trace.last().unwrap().serial;

    let mut g = c.benchmark_group("slice");
    g.bench_function("collect_trace", |b| {
        b.iter(|| {
            let mut vm = Vm::new(&program, &[]);
            let mut tc = TraceCollector::new(&analysis, 1_000_000);
            run(
                &mut vm,
                &mut DeterministicScheduler::new(),
                &mut tc,
                1_000_000,
            );
            black_box(tc.finish().len())
        });
    });
    g.bench_function("backward_slice", |b| {
        b.iter(|| black_box(backward_slice(&trace, &[criterion]).len()));
    });
    // What the diff and rank phases do with the trace under the
    // dependence strategy: slice, project onto the CSV (`acc`), rank.
    let csvs = [MemLoc::Global(GlobalId(1))];
    g.bench_function("project_and_rank", |b| {
        b.iter(|| {
            let slice = backward_slice(&trace, &[criterion]);
            let accesses = csv_accesses(&trace, criterion, &csvs, &slice);
            black_box(rank_accesses(&accesses, criterion, Strategy::Dependence).len())
        });
    });
    g.finish();
}

fn bench_search(c: &mut Criterion) {
    // A small fig1-scale bug so each iteration is an entire pipeline.
    let bug = mcr_workloads::bug_by_name("mysql-3").unwrap();
    let program = bug.compile();
    let input = bug.lengthened_input(10, 42);
    let sf = find_failure(&program, &input, 0..200_000, bug.max_steps).expect("stress");

    let mut g = c.benchmark_group("search");
    g.sample_size(10);
    for (name, algorithm, strategy) in [
        ("chessx_temporal", Algorithm::ChessX, Strategy::Temporal),
        ("chessx_dep", Algorithm::ChessX, Strategy::Dependence),
        ("chess", Algorithm::Chess, Strategy::Temporal),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let reproducer = Reproducer::new(
                    &program,
                    ReproOptions {
                        algorithm,
                        strategy,
                        ..Default::default()
                    },
                );
                let report = reproducer.reproduce(&sf.dump, &input).unwrap();
                assert!(report.search.reproduced);
                black_box(report.search.tries)
            });
        });
    }
    g.finish();
}

fn bench_search_hotpath(c: &mut Criterion) {
    use mcr_bench::hotpath::{checkpoint_fixture_program, checkpoint_fixture_vm, SearchFixture};

    let program = checkpoint_fixture_program();
    let vm = checkpoint_fixture_vm(&program);
    let fixture = SearchFixture::prepare();
    let (info, csvs, ranked) = passing_run_and_ranking("mysql-1");

    let mut g = c.benchmark_group("search_hotpath");
    g.bench_function("checkpoint_clone", |b| b.iter(|| black_box(vm.clone())));
    g.bench_function("step_throughput", |b| {
        b.iter(|| {
            let mut vm = Vm::new(&program, &[]);
            run(
                &mut vm,
                &mut DeterministicScheduler::new(),
                &mut NullObserver,
                10_000_000,
            );
            black_box(vm.steps())
        });
    });
    g.bench_function("annotate", |b| {
        b.iter(|| black_box(annotate_with_race(&info, &csvs, ranked.as_slice(), None)));
    });
    g.sample_size(10);
    g.bench_function("guided_search", |b| {
        b.iter(|| black_box(fixture.search(Algorithm::ChessX, 1).tries));
    });
    g.bench_function("plain_search", |b| {
        b.iter(|| black_box(fixture.search(Algorithm::Chess, 1).tries));
    });
    g.finish();
}

fn bench_worklist(c: &mut Criterion) {
    // Ranked priorities mixed with the two bottom tiers, as the slicer
    // and the static race ranking produce them.
    let bottom = mcr_slice::PRIORITY_BOTTOM;
    let priorities: Vec<u32> = (0..700u32)
        .map(|i| match i % 7 {
            0 | 3 => bottom,
            5 => bottom - 1,
            _ => 1 + (i * 37) % 23,
        })
        .collect();
    let worklist =
        |algorithm| Worklist::from_priorities(priorities.iter().copied(), algorithm, 2, 512);

    let mut g = c.benchmark_group("worklist");
    for (name, algorithm) in [("chessx", Algorithm::ChessX), ("chess", Algorithm::Chess)] {
        g.bench_function(&format!("{name}_first"), |b| {
            b.iter(|| black_box(worklist(algorithm).next()));
        });
        g.bench_function(&format!("{name}_first_1000"), |b| {
            b.iter(|| black_box(worklist(algorithm).take(1000).last()));
        });
    }
    g.sample_size(10);
    g.bench_function("chessx_drain", |b| {
        b.iter(|| black_box(worklist(Algorithm::ChessX).last()));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_instrumentation,
    bench_dump,
    bench_content_hash,
    bench_index,
    bench_slice,
    bench_search,
    bench_search_hotpath,
    bench_worklist
);
criterion_main!(benches);
