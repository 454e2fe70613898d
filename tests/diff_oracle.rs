//! The lockstep dump diff against the map-based diff it replaced.
//!
//! `DumpDiff::compare_with` walks the failure dump and the aligned dump
//! at once. Before, each dump was traversed into a variable map
//! (`reachable_vars`) and the two maps were merged; that merge is kept
//! as `mcr_testsupport::compare_maps`. Every field of the walk's
//! `DumpDiff` must equal the reference's: over random dump pairs with
//! shared, divergent, aliased and cyclic heaps, dangling object ids,
//! mismatched global shapes and small traversal limits, and over the
//! seeded Table 2 bugs' failure and aligned dumps under SC and TSO.

use mcr_core::{find_failure_cfg, ReproOptions, ReproSession, RunConfig};
use mcr_dump::{
    reachable_vars, CoreDump, DumpDiff, DumpReason, FrameImage, ThreadImage, TraverseLimits,
};
use mcr_lang::{FuncId, StmtId};
use mcr_testsupport::{compare_maps, stress_seed_cap};
use mcr_vm::{GSlot, MemModel, ObjId, SplitMix64, ThreadId, ThreadState, Value};
use proptest::prelude::*;

/// The map-based diff of two dumps.
fn reference(a: &CoreDump, b: &CoreDump, limits: TraverseLimits) -> DumpDiff {
    compare_maps(&reachable_vars(a, limits), &reachable_vars(b, limits))
}

fn chance(rng: &mut SplitMix64, percent: u64) -> bool {
    rng.next_below(100) < percent
}

/// A random slot value: a small integer, null, or a pointer to one of
/// `objects` ids or just past them (a dangling id).
fn value(rng: &mut SplitMix64, objects: usize) -> Value {
    match rng.next_below(4) {
        0 | 1 => Value::Int(rng.next_range(0, 3)),
        2 => Value::NULL,
        _ => Value::Ptr(Some(ObjId(rng.next_below(objects as u64 + 1) as u32))),
    }
}

fn values(rng: &mut SplitMix64, objects: usize, max_len: u64) -> Vec<Value> {
    let len = rng.next_below(max_len + 1) as usize;
    (0..len).map(|_| value(rng, objects)).collect()
}

fn global(rng: &mut SplitMix64, objects: usize) -> GSlot {
    if chance(rng, 50) {
        GSlot::Scalar(value(rng, objects))
    } else {
        GSlot::Array(values(rng, objects, 3))
    }
}

fn thread(rng: &mut SplitMix64, id: u32, objects: usize) -> ThreadImage {
    let frames = (0..rng.next_below(3))
        .map(|_| FrameImage {
            func: FuncId(0),
            pc: StmtId(0),
            locals: values(rng, objects, 3),
            loop_counters: Vec::new(),
        })
        .collect();
    ThreadImage {
        id: ThreadId(id),
        entry: FuncId(0),
        state: ThreadState::Ready,
        frames,
        instrs: 0,
        last_value: value(rng, objects),
        sync_seq: 0,
        store_buffer: Vec::new(),
    }
}

/// A random dump: up to 5 heap objects (some freed), up to 4 globals,
/// and 1–2 threads.
fn random_dump(rng: &mut SplitMix64) -> CoreDump {
    let objects = rng.next_below(6) as usize;
    let heap = (0..objects)
        .map(|_| (!chance(rng, 15)).then(|| values(rng, objects, 3)))
        .collect();
    let globals = (0..rng.next_below(5))
        .map(|_| global(rng, objects))
        .collect();
    let threads: Vec<ThreadImage> = (0..1 + rng.next_below(2))
        .map(|id| thread(rng, id as u32, objects))
        .collect();
    CoreDump {
        reason: DumpReason::Manual,
        focus: ThreadId(rng.next_below(threads.len() as u64) as u32),
        globals,
        heap,
        threads,
        locks: Vec::new(),
        steps: 0,
    }
}

/// A copy of `a` with a few random edits, so most paths are shared and
/// some diverge: changed values, reshaped, added or dropped globals,
/// freed or added objects, and a changed focus frame.
fn mutate(a: &CoreDump, rng: &mut SplitMix64) -> CoreDump {
    let mut b = a.clone();
    let objects = b.heap.len();
    for _ in 0..1 + rng.next_below(4) {
        match rng.next_below(7) {
            0 if !b.globals.is_empty() => {
                let g = rng.next_below(b.globals.len() as u64) as usize;
                match &mut b.globals[g] {
                    GSlot::Scalar(v) => *v = value(rng, objects),
                    GSlot::Array(slots) if !slots.is_empty() => {
                        let i = rng.next_below(slots.len() as u64) as usize;
                        slots[i] = value(rng, objects);
                    }
                    GSlot::Array(_) => {}
                }
            }
            1 if !b.globals.is_empty() => {
                let g = rng.next_below(b.globals.len() as u64) as usize;
                b.globals[g] = global(rng, objects);
            }
            2 => {
                if chance(rng, 50) {
                    b.globals.pop();
                } else {
                    b.globals.push(global(rng, objects));
                }
            }
            3 if objects > 0 => {
                let o = rng.next_below(objects as u64) as usize;
                match &mut b.heap[o] {
                    Some(slots) if !slots.is_empty() && chance(rng, 70) => {
                        let i = rng.next_below(slots.len() as u64) as usize;
                        slots[i] = value(rng, objects);
                    }
                    Some(_) => b.heap[o] = None,
                    None => b.heap[o] = Some(values(rng, objects, 3)),
                }
            }
            4 => b.heap.push(Some(values(rng, objects + 1, 3))),
            5 => {
                let focus = b.focus.0 as usize;
                b.threads[focus] = thread(rng, b.focus.0, objects);
            }
            _ => {
                let focus = b.focus.0 as usize;
                b.threads[focus].last_value = value(rng, objects);
            }
        }
    }
    b
}

/// A random pair and random limits: depth 0–3 or the default, and a
/// path budget that is unlimited or cuts somewhere up to just past the
/// larger dump's path count.
fn random_case(seed: u64) -> (CoreDump, CoreDump, TraverseLimits) {
    let mut rng = SplitMix64::new(seed);
    let a = random_dump(&mut rng);
    let b = if chance(&mut rng, 15) {
        random_dump(&mut rng)
    } else {
        mutate(&a, &mut rng)
    };
    let max_depth = if chance(&mut rng, 50) {
        rng.next_below(4) as usize
    } else {
        TraverseLimits::default().max_depth
    };
    let unlimited = TraverseLimits {
        max_depth,
        ..TraverseLimits::default()
    };
    let max_paths = if chance(&mut rng, 50) {
        let most = reachable_vars(&a, unlimited)
            .len()
            .max(reachable_vars(&b, unlimited).len());
        rng.next_below(most as u64 + 2) as usize
    } else {
        unlimited.max_paths
    };
    (
        a,
        b,
        TraverseLimits {
            max_depth,
            max_paths,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn walk_matches_the_map_merge_on_random_pairs(seed in proptest::num::u64::ANY) {
        let (a, b, limits) = random_case(seed);
        prop_assert_eq!(DumpDiff::compare_with(&a, &b, limits), reference(&a, &b, limits));
        prop_assert_eq!(DumpDiff::compare_with(&b, &a, limits), reference(&b, &a, limits));
    }
}

/// Every non-null pointer in the dump, to a live object or to a freed or
/// never allocated id.
fn pointers(d: &CoreDump) -> Vec<ObjId> {
    let mut out = Vec::new();
    let mut add = |v: &Value| {
        if let Value::Ptr(Some(o)) = v {
            out.push(*o);
        }
    };
    for g in &d.globals {
        match g {
            GSlot::Scalar(v) => add(v),
            GSlot::Array(slots) => slots.iter().for_each(&mut add),
        }
    }
    d.heap.iter().flatten().flatten().for_each(&mut add);
    for t in &d.threads {
        t.frames.iter().flat_map(|f| &f.locals).for_each(&mut add);
        add(&t.last_value);
    }
    out
}

fn is_live(d: &CoreDump, o: ObjId) -> bool {
    matches!(d.heap.get(o.0 as usize), Some(Some(_)))
}

/// The random cases above reach every shape the walk must get right.
#[test]
fn random_pairs_cover_every_shape() {
    #[derive(Default, Debug)]
    struct Seen {
        heap_diffs: usize,
        one_sided_paths: usize,
        cycles: usize,
        aliases: usize,
        dangling: usize,
        scalar_vs_array: usize,
        array_lengths: usize,
        global_counts: usize,
        frameless_focus: usize,
        depth_cut: usize,
        one_sided_budget: usize,
    }
    let mut seen = Seen::default();
    for seed in 0..512 {
        let (a, b, limits) = random_case(seed);
        let r = reference(&a, &b, limits);
        assert_eq!(DumpDiff::compare_with(&a, &b, limits), r, "seed {seed}");
        seen.heap_diffs += usize::from(r.diffs.iter().any(|d| !d.path.steps.is_empty()));
        seen.one_sided_paths += usize::from(r.compared < r.vars_a.max(r.vars_b));
        for d in [&a, &b] {
            let ptrs = pointers(d);
            let mut live: Vec<ObjId> = ptrs.iter().copied().filter(|&o| is_live(d, o)).collect();
            seen.dangling += usize::from(live.len() < ptrs.len());
            live.sort_unstable();
            let n = live.len();
            live.dedup();
            seen.aliases += usize::from(live.len() < n);
            seen.cycles += usize::from(d.heap.iter().enumerate().any(|(i, o)| {
                o.iter()
                    .flatten()
                    .any(|v| *v == Value::Ptr(Some(ObjId(i as u32))))
            }));
            seen.frameless_focus += usize::from(d.focus_thread().frames.is_empty());
        }
        for (ga, gb) in a.globals.iter().zip(&b.globals) {
            match (ga, gb) {
                (GSlot::Scalar(_), GSlot::Array(_)) | (GSlot::Array(_), GSlot::Scalar(_)) => {
                    seen.scalar_vs_array += 1;
                }
                (GSlot::Array(x), GSlot::Array(y)) if x.len() != y.len() => {
                    seen.array_lengths += 1;
                }
                _ => {}
            }
        }
        seen.global_counts += usize::from(a.globals.len() != b.globals.len());
        seen.depth_cut += usize::from(limits.max_depth < 4);
        seen.one_sided_budget +=
            usize::from((r.vars_a == limits.max_paths) != (r.vars_b == limits.max_paths));
    }
    let counts = [
        seen.heap_diffs,
        seen.one_sided_paths,
        seen.cycles,
        seen.aliases,
        seen.dangling,
        seen.scalar_vs_array,
        seen.array_lengths,
        seen.global_counts,
        seen.frameless_focus,
        seen.depth_cut,
        seen.one_sided_budget,
    ];
    assert!(counts.iter().all(|&n| n >= 5), "{seen:?}");
}

/// Each seeded Table 2 bug's failure dump against its aligned dump, with
/// the default limits and with a path budget that cuts both dumps.
#[test]
fn walk_matches_the_map_merge_on_table2_dumps() {
    let mut cases = 0;
    let mut with_csvs = 0;
    for bug in mcr_workloads::all_bugs() {
        let program = bug.compile();
        let input = bug.default_input();
        for mem_model in [MemModel::Sc, MemModel::tso()] {
            let env = RunConfig {
                mem_model,
                faults: Vec::new(),
            };
            let sf = find_failure_cfg(&program, &input, 0..stress_seed_cap(), bug.max_steps, &env)
                .unwrap_or_else(|| panic!("{}: stress found no failure", bug.name));
            let options = ReproOptions {
                mem_model,
                parallelism: 1,
                ..Default::default()
            };
            let case = format!("{} {mem_model:?}", bug.name);
            let mut session = ReproSession::new(&program, sf.dump.clone(), &input, options)
                .unwrap_or_else(|e| panic!("{case}: {e}"));
            session.run_diff().unwrap_or_else(|e| panic!("{case}: {e}"));
            let aligned = session.alignment_artifact().expect("align ran");
            let aligned = mcr_dump::decode(&aligned.aligned_dump).expect("aligned dump decodes");
            let limits = TraverseLimits::default();
            let want = reference(&sf.dump, &aligned, limits);
            assert_eq!(
                DumpDiff::compare_with(&sf.dump, &aligned, limits),
                want,
                "{case}"
            );
            let delta = session.delta_artifact().expect("diff ran");
            assert_eq!(
                (delta.vars, delta.diffs, delta.shared, &delta.csv_paths),
                (
                    want.vars_a,
                    want.diffs.len(),
                    want.shared_compared,
                    &want.csvs
                ),
                "{case}: delta artifact"
            );
            // Each dump has more than 256 paths (the `input` array
            // alone has 256), so a budget of 200 cuts both.
            let cut = TraverseLimits {
                max_paths: 200,
                ..limits
            };
            let want_cut = reference(&sf.dump, &aligned, cut);
            assert_eq!(
                DumpDiff::compare_with(&sf.dump, &aligned, cut),
                want_cut,
                "{case}: path budget"
            );
            assert!(want_cut.vars_a == 200 && want_cut.vars_b == 200, "{case}");
            cases += 1;
            with_csvs += usize::from(!want.csvs.is_empty());
        }
    }
    assert_eq!(cases, 7 * 2);
    assert!(with_csvs > cases / 2, "only {with_csvs} cases found CSVs");
}
