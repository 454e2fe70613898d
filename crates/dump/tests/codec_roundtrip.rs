//! Codec round-trip tests over representative dumps: mid-flight
//! multi-thread snapshots, cyclic heaps, and the invariant that a decoded
//! dump yields byte-identical refpath traversals (so a dump written to
//! disk drives the CSV comparison exactly like the live one).

use mcr_dump::wire::{Reader, Writer};
use mcr_dump::{decode, encode, reachable_vars, CoreDump, DumpReason, TraverseLimits};
use mcr_lang::GlobalId;
use mcr_vm::{
    run, run_until, DeterministicScheduler, MemLoc, MemModel, NullObserver, ThreadId, Vm,
};

fn completed_dump(src: &str, input: &[i64]) -> CoreDump {
    let program = mcr_lang::compile(src).unwrap();
    let mut vm = Vm::new(&program, input);
    run(
        &mut vm,
        &mut DeterministicScheduler::new(),
        &mut NullObserver,
        1_000_000,
    );
    match CoreDump::capture_failure(&vm) {
        Some(d) => d,
        None => CoreDump::capture(&vm, ThreadId(0), DumpReason::Manual),
    }
}

/// A linked list threaded through a global array plus a deliberate cycle:
/// the densest refpath shape the traversal supports.
const CYCLIC_HEAP: &str = r#"
    global head: ptr;
    global ring: ptr;
    global table: [int; 4];
    fn main() {
        var i; var node; var a; var b;
        for (i = 0; i < 4; i = i + 1) {
            node = alloc(2);
            node[0] = i * 10;
            node[1] = head;
            head = node;
            table[i] = node;
        }
        a = alloc(1);
        b = alloc(1);
        a[0] = b;
        b[0] = a;
        ring = a;
    }
"#;

#[test]
fn cyclic_heap_round_trips() {
    let dump = completed_dump(CYCLIC_HEAP, &[]);
    let decoded = decode(&encode(&dump)).unwrap();
    assert_eq!(decoded, dump);
}

#[test]
fn decoded_dump_traverses_identically() {
    let dump = completed_dump(CYCLIC_HEAP, &[]);
    let decoded = decode(&encode(&dump)).unwrap();
    let original_vars = reachable_vars(&dump, TraverseLimits::default());
    let decoded_vars = reachable_vars(&decoded, TraverseLimits::default());
    assert_eq!(original_vars, decoded_vars);
    // The fixture guarantees deep paths (global -> node -> node -> ...),
    // so this equality is not vacuous.
    assert!(
        original_vars.keys().any(|p| p.steps.len() >= 3),
        "expected multi-hop heap refpaths in the fixture"
    );
}

#[test]
fn mid_flight_multithread_dump_round_trips() {
    // Capture while t2 is blocked on the lock and t1 sits mid-loop with a
    // live loop counter: stacks, held locks, and waiters all populated.
    let src = r#"
        global x: int;
        lock l;
        fn t1() {
            var i;
            acquire l;
            while (i < 1000) { i = i + 1; x = x + i; }
            release l;
        }
        fn t2() { acquire l; x = 0; release l; }
        fn main() { spawn t1(); spawn t2(); }
    "#;
    let program = mcr_lang::compile(src).unwrap();
    let mut vm = Vm::new(&program, &[]);
    run_until(
        &mut vm,
        &mut DeterministicScheduler::new(),
        &mut NullObserver,
        1_000_000,
        |vm| vm.steps() > 200,
    );
    let dump = CoreDump::capture(&vm, ThreadId(1), DumpReason::Manual);
    assert!(dump.threads.len() >= 2, "both workers must be live");
    let decoded = decode(&encode(&dump)).unwrap();
    assert_eq!(decoded, dump);
    assert_eq!(decoded.focus, ThreadId(1));
}

#[test]
fn encoding_is_canonical() {
    // Same dump encoded twice gives identical bytes (the diff pipeline
    // and the corruption property test both rely on this).
    let dump = completed_dump(CYCLIC_HEAP, &[]);
    assert_eq!(encode(&dump), encode(&dump));
    let reencoded = encode(&decode(&encode(&dump)).unwrap());
    assert_eq!(reencoded, encode(&dump));
}

#[test]
fn failure_dump_with_deep_frames_round_trips() {
    let src = r#"
        global depth: int;
        fn rec(p, d) {
            var local;
            local = d * 3;
            if (d > 0) { rec(p, d - 1); } else { p[0] = local; }
        }
        fn main() { depth = 7; rec(null, 7); }
    "#;
    let dump = completed_dump(src, &[]);
    assert!(dump.failure().is_some(), "fixture must crash");
    let decoded = decode(&encode(&dump)).unwrap();
    assert_eq!(decoded, dump);
    // All eight activations of rec survive the round trip.
    assert_eq!(
        decoded.focus_thread().frames.len(),
        dump.focus_thread().frames.len()
    );
    assert!(decoded.focus_thread().frames.len() >= 8);
}

#[test]
fn corrupted_memloc_tags_are_rejected() {
    let mut w = Writer::new();
    w.memloc(MemLoc::Global(GlobalId(0)));
    let bytes = w.into_bytes();
    // Layout: memloc tag, global id.
    for bad in 4u8..=255 {
        let mut corrupted = bytes.clone();
        corrupted[0] = bad;
        let mut r = Reader::new(&corrupted);
        let err = r.memloc().expect_err("memloc tag must be rejected");
        assert!(err.msg.contains("memloc tag"), "{err}");
    }
}

#[test]
fn tso_dump_with_frozen_store_buffer_round_trips() {
    // Run a TSO program to just after its buffered stores, capture, and
    // check the buffer survives the codec byte-for-byte.
    let src = r#"
        global x: int;
        global y: int;
        fn main() {
            x = 1;
            y = 2;
            x = 3;
        }
    "#;
    let program = mcr_lang::compile(src).unwrap();
    let mut vm = Vm::new(&program, &[]).with_mem_model(MemModel::tso());
    run_until(
        &mut vm,
        &mut DeterministicScheduler::new(),
        &mut NullObserver,
        1_000_000,
        |vm| vm.thread(ThreadId(0)).store_buffer.len() >= 3,
    );
    let dump = CoreDump::capture(&vm, ThreadId(0), DumpReason::Manual);
    let buffered = &dump.threads[0].store_buffer;
    assert_eq!(buffered.len(), 3, "all three stores still buffered");
    // FIFO order is part of the state: x=1, y=2, x=3 oldest-first.
    assert_eq!(buffered[0].value, mcr_vm::Value::Int(1));
    assert_eq!(buffered[2].value, mcr_vm::Value::Int(3));
    let decoded = decode(&encode(&dump)).unwrap();
    assert_eq!(decoded, dump);
    assert_eq!(
        decoded.threads[0].store_buffer,
        dump.threads[0].store_buffer
    );
}
