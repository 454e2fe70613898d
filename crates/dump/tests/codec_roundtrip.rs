//! Codec round-trip tests over representative dumps: mid-flight
//! multi-thread snapshots, cyclic heaps, and the invariant that a decoded
//! dump yields byte-identical refpath traversals (so a dump written to
//! disk drives the CSV comparison exactly like the live one).

use mcr_dump::wire::{Reader, Writer};
use mcr_dump::{
    decode, encode, reachable_vars, CoreDump, DumpReason, SegmentWriter, SegmentedBytes,
    TraverseLimits,
};
use mcr_lang::{FuncId, GlobalId, LocalId, LockId, Pc, StmtId};
use mcr_vm::{
    run, run_until, DeterministicScheduler, Event, MemLoc, MemModel, NullObserver, ObjId, SyncKind,
    ThreadId, Value, Vm,
};
use proptest::prelude::*;

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

fn roundtrip_event(e: &Event) -> Event {
    let mut w = Writer::new();
    w.event(e);
    let bytes = w.into_bytes();
    let mut r = Reader::new(&bytes);
    let back = r.event().unwrap();
    r.finish().unwrap();
    back
}

#[test]
fn store_buffer_events_round_trip() {
    let pc = Pc::new(FuncId(3), StmtId(9));
    let cases = [
        Event::StoreBuffered {
            tid: ThreadId(2),
            pc,
            loc: MemLoc::Global(GlobalId(1)),
            value: Value::Int(-42),
        },
        Event::StoreFlushed {
            tid: ThreadId(2),
            pc,
            loc: MemLoc::GlobalElem(GlobalId(0), 7),
            value: Value::Ptr(Some(ObjId(4))),
        },
        Event::StoreFlushed {
            tid: ThreadId(0),
            pc,
            loc: MemLoc::Heap(ObjId(1), 3),
            value: Value::NULL,
        },
        Event::StoreBuffered {
            tid: ThreadId(1),
            pc,
            loc: MemLoc::Local {
                tid: ThreadId(1),
                frame: 12,
                local: LocalId(2),
            },
            value: Value::Int(0),
        },
        Event::Sync {
            tid: ThreadId(5),
            pc,
            kind: SyncKind::Flush,
            seq: 17,
        },
    ];
    for e in &cases {
        assert_eq!(&roundtrip_event(e), e, "{e:?}");
    }
}

#[test]
fn every_event_kind_round_trips() {
    // One representative of every variant, so any codec asymmetry a
    // future variant introduces fails here rather than in a replay.
    let pc = Pc::new(FuncId(0), StmtId(1));
    let tid = ThreadId(1);
    let cases = [
        Event::Stmt { tid, pc, cost: 1 },
        Event::Branch {
            tid,
            pc,
            outcome: true,
        },
        Event::Read {
            tid,
            pc,
            loc: MemLoc::Global(GlobalId(0)),
            value: Value::Int(5),
        },
        Event::Write {
            tid,
            pc,
            loc: MemLoc::Heap(ObjId(0), 0),
            value: Value::NULL,
        },
        Event::StoreBuffered {
            tid,
            pc,
            loc: MemLoc::Global(GlobalId(2)),
            value: Value::Int(1),
        },
        Event::StoreFlushed {
            tid,
            pc,
            loc: MemLoc::Global(GlobalId(2)),
            value: Value::Int(1),
        },
        Event::FuncEnter {
            tid,
            func: FuncId(2),
            frame: 6,
        },
        Event::FuncExit {
            tid,
            func: FuncId(2),
            frame: 6,
        },
        Event::Sync {
            tid,
            pc,
            kind: SyncKind::Acquire(LockId(0)),
            seq: 0,
        },
        Event::Sync {
            tid,
            pc,
            kind: SyncKind::Release(LockId(1)),
            seq: 1,
        },
        Event::Sync {
            tid,
            pc,
            kind: SyncKind::Spawn(ThreadId(2)),
            seq: 2,
        },
        Event::Sync {
            tid,
            pc,
            kind: SyncKind::Join(ThreadId(2)),
            seq: 3,
        },
        Event::Sync {
            tid,
            pc,
            kind: SyncKind::Flush,
            seq: 4,
        },
    ];
    for e in &cases {
        assert_eq!(&roundtrip_event(e), e, "{e:?}");
    }
}

#[test]
fn corrupted_event_tags_are_rejected() {
    // Flip the leading tag byte to every out-of-range value: the reader
    // must error, never misparse.
    let e = Event::StoreBuffered {
        tid: ThreadId(1),
        pc: Pc::new(FuncId(0), StmtId(0)),
        loc: MemLoc::Global(GlobalId(0)),
        value: Value::Int(1),
    };
    let mut w = Writer::new();
    w.event(&e);
    let bytes = w.into_bytes();
    for bad in 15u8..=255 {
        let mut corrupted = bytes.clone();
        corrupted[0] = bad;
        let mut r = Reader::new(&corrupted);
        let err = r.event().expect_err("tag {bad} must be rejected");
        assert!(err.msg.contains("event tag"), "{err}");
    }
}

#[test]
fn corrupted_sync_kind_and_memloc_tags_are_rejected() {
    let pc = Pc::new(FuncId(0), StmtId(0));
    let sync = Event::Sync {
        tid: ThreadId(0),
        pc,
        kind: SyncKind::Flush,
        seq: 0,
    };
    let mut w = Writer::new();
    w.event(&sync);
    let sync_bytes = w.into_bytes();
    // Layout: event tag, tid, pc (func, stmt), sync-kind tag, ...
    let kind_at = sync_bytes.len() - 2; // tag byte before the seq varint
    for bad in 5u8..=255 {
        let mut corrupted = sync_bytes.clone();
        corrupted[kind_at] = bad;
        let mut r = Reader::new(&corrupted);
        let err = r.event().expect_err("sync tag must be rejected");
        assert!(err.msg.contains("sync kind tag"), "{err}");
    }

    let read = Event::Read {
        tid: ThreadId(0),
        pc,
        loc: MemLoc::Global(GlobalId(0)),
        value: Value::Int(1),
    };
    let mut w = Writer::new();
    w.event(&read);
    let read_bytes = w.into_bytes();
    // Layout: event tag, tid, pc, memloc tag, global id, value.
    let loc_at = 4;
    for bad in 4u8..=255 {
        let mut corrupted = read_bytes.clone();
        corrupted[loc_at] = bad;
        let mut r = Reader::new(&corrupted);
        let err = r.event().expect_err("memloc tag must be rejected");
        assert!(err.msg.contains("memloc tag"), "{err}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Segmented framing round-trips any payload at any frame size, and
    /// arbitrary range reads rehydrate exactly the payload slice.
    #[test]
    fn segmented_container_round_trips_any_payload(
        payload in proptest::collection::vec(0u8..255, 0..2048),
        frame_size in 1usize..512,
        start_frac in 0u64..1000,
        len_frac in 0u64..1000,
    ) {
        let seg = SegmentedBytes::from_payload(&payload, frame_size);
        let parsed = SegmentedBytes::parse_verified(seg.as_bytes().to_vec())
            .expect("canonical container must parse");
        prop_assert_eq!(parsed.total_len(), payload.len() as u64);
        prop_assert_eq!(parsed.frame_size(), frame_size);
        prop_assert_eq!(&parsed.read_range(0, payload.len()).unwrap(), &payload);
        // A pseudo-random in-bounds subrange reads back the exact slice.
        let start = (start_frac as usize * payload.len()) / 1000;
        let len = (len_frac as usize * (payload.len() - start)) / 1000;
        prop_assert_eq!(
            parsed.read_range(start, len).unwrap(),
            payload[start..start + len].to_vec()
        );
        // One-past-the-end fails closed, never pads.
        prop_assert!(parsed.read_range(0, payload.len() + 1).is_err());
    }

    /// Framing is canonical in the write chunking: streaming the payload
    /// through a `SegmentWriter` in arbitrary splits produces the exact
    /// container bytes of the one-shot `from_payload` path.
    #[test]
    fn segmented_framing_is_chunking_invariant(
        payload in proptest::collection::vec(0u8..255, 1..1024),
        frame_size in 1usize..256,
        cut_frac in 0u64..1000,
    ) {
        let oneshot = SegmentedBytes::from_payload(&payload, frame_size);
        let cut = (cut_frac as usize * payload.len()) / 1000;
        let mut w = SegmentWriter::new(frame_size);
        w.write(&payload[..cut]);
        w.write(&payload[cut..]);
        let streamed = w.finish();
        prop_assert_eq!(streamed.as_bytes(), oneshot.as_bytes());
    }

    /// Every strict prefix of a segmented container fails `parse` closed
    /// — a torn write (crash mid-spill, short read) is always detected,
    /// never misparsed as a shorter valid container.
    #[test]
    fn every_truncation_prefix_fails_closed(
        payload in proptest::collection::vec(0u8..255, 0..512),
        frame_size in 1usize..128,
    ) {
        let bytes = SegmentedBytes::from_payload(&payload, frame_size).into_bytes();
        for cut in 0..bytes.len() {
            prop_assert!(
                SegmentedBytes::parse(bytes[..cut].to_vec()).is_err(),
                "prefix of {cut}/{} bytes must not parse",
                bytes.len()
            );
        }
    }

    /// Every single-bit flip anywhere in the container either fails
    /// closed (`parse_verified` rejects it) or is payload-benign (the
    /// full rehydrated payload is still byte-identical — e.g. a flip in
    /// the advisory frame-size varint of a single-segment container).
    /// A flip is never silently accepted while corrupting the payload.
    #[test]
    fn bit_flips_never_corrupt_the_payload_silently(
        payload in proptest::collection::vec(0u8..255, 1..256),
        frame_size in 1usize..64,
        byte_frac in 0u64..1000,
        bit in 0u8..8,
    ) {
        let bytes = SegmentedBytes::from_payload(&payload, frame_size).into_bytes();
        let at = (byte_frac as usize * bytes.len()) / 1000;
        let mut flipped = bytes;
        flipped[at] ^= 1 << bit;
        if let Ok(seg) = SegmentedBytes::parse_verified(flipped) {
            prop_assert_eq!(
                &seg.read_range(0, seg.total_len() as usize).unwrap(),
                &payload,
                "accepted flip at byte {at} bit {bit} must be payload-benign"
            );
        }
    }
}

/// A flipped bit *inside a segment payload* is always caught — if not by
/// the lazy `parse`, then by the checksum verification of the first
/// `read_range` that touches the segment.
#[test]
fn payload_bit_flips_are_caught_on_first_read() {
    let payload: Vec<u8> = (0..=255u8).cycle().take(700).collect();
    let seg = SegmentedBytes::from_payload(&payload, 64);
    let first_payload_at = seg
        .as_bytes()
        .windows(8)
        .position(|w| w == &payload[..8])
        .expect("payload bytes present verbatim in the container");
    for bit in 0..8 {
        let mut flipped = seg.as_bytes().to_vec();
        flipped[first_payload_at] ^= 1 << bit;
        // Lazy parse validates only the framing, so it accepts the
        // container…
        let lazy = SegmentedBytes::parse(flipped).expect("framing is intact");
        // …but the corrupt segment can never serve a read.
        let err = lazy
            .read_range(0, 8)
            .expect_err("checksum must catch the flip");
        assert!(err.msg.contains("checksum"), "{err}");
        // Untouched segments still serve reads: corruption is contained
        // to the frame it hit.
        assert_eq!(
            lazy.read_range(640, 32).unwrap(),
            payload[640..672].to_vec()
        );
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
