//! Binary encoding of core dumps.
//!
//! Dumps are serialized to a compact varint-based format so that the
//! evaluation can report real dump *sizes* (paper Table 3) and *parsing
//! costs* (paper Table 6 — where GDB-based parsing dominated the paper's
//! analysis time). The format is versioned and self-contained; no external
//! serialization crate is used so the byte layout is stable by
//! construction.

use crate::dump::{CoreDump, DumpReason, FrameImage, ThreadImage};
use crate::wire::{Reader, Writer};
use mcr_lang::{FuncId, StmtId};
use mcr_vm::{BufferedStore, GSlot, ThreadId, ThreadState};
use std::error::Error;
use std::fmt;

const MAGIC: &[u8; 4] = b"MCRD";
// v2: per-thread store-buffer images (TSO mode). v1 dumps (no buffer
// field) are rejected rather than read as empty-buffered — a frozen
// buffer is part of the failure state and silence would be a lie.
const VERSION: u8 = 2;

/// Decoding error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset of the problem.
    pub offset: usize,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dump decode error at byte {}: {}", self.offset, self.msg)
    }
}

impl Error for DecodeError {}

/// Serializes a dump to bytes. The returned length is the "core dump
/// size" reported in the Table 3 reproduction.
pub fn encode(dump: &CoreDump) -> Vec<u8> {
    let mut w = Writer::new();
    w.raw(MAGIC);
    w.u8(VERSION);

    match dump.reason {
        DumpReason::Manual => w.u8(0),
        DumpReason::Aligned => w.u8(1),
        DumpReason::Failure(f) => {
            w.u8(2);
            w.failure(f);
        }
    }
    w.uvarint(dump.focus.0 as u64);
    w.uvarint(dump.steps);

    w.uvarint(dump.globals.len() as u64);
    for g in &dump.globals {
        match g {
            GSlot::Scalar(v) => {
                w.u8(0);
                w.value(*v);
            }
            GSlot::Array(slots) => {
                w.u8(1);
                w.uvarint(slots.len() as u64);
                for v in slots {
                    w.value(*v);
                }
            }
        }
    }

    w.uvarint(dump.heap.len() as u64);
    for obj in &dump.heap {
        match obj {
            None => w.u8(0),
            Some(slots) => {
                w.u8(1);
                w.uvarint(slots.len() as u64);
                for v in slots {
                    w.value(*v);
                }
            }
        }
    }

    w.uvarint(dump.threads.len() as u64);
    for t in &dump.threads {
        w.uvarint(t.id.0 as u64);
        w.uvarint(t.entry.0 as u64);
        w.u8(match t.state {
            ThreadState::Ready => 0,
            ThreadState::Done => 1,
            ThreadState::Crashed => 2,
        });
        w.uvarint(t.instrs);
        w.value(t.last_value);
        w.uvarint(t.sync_seq as u64);
        w.uvarint(t.store_buffer.len() as u64);
        for b in &t.store_buffer {
            w.memloc(b.loc);
            w.value(b.value);
            w.pc(b.pc);
        }
        w.uvarint(t.frames.len() as u64);
        for f in &t.frames {
            w.uvarint(f.func.0 as u64);
            w.uvarint(f.pc.0 as u64);
            w.uvarint(f.locals.len() as u64);
            for v in &f.locals {
                w.value(*v);
            }
            w.uvarint(f.loop_counters.len() as u64);
            for c in &f.loop_counters {
                w.ivarint(*c);
            }
        }
    }

    w.uvarint(dump.locks.len() as u64);
    for l in &dump.locks {
        match l {
            None => w.u8(0),
            Some(t) => {
                w.u8(1);
                w.uvarint(t.0 as u64);
            }
        }
    }
    w.into_bytes()
}

/// Parses a dump from bytes.
///
/// # Errors
///
/// Returns [`DecodeError`] on truncated or malformed input.
pub fn decode(bytes: &[u8]) -> Result<CoreDump, DecodeError> {
    let mut r = Reader::new(bytes);
    r.expect_magic(MAGIC)?;
    let version = r.u8()?;
    if version != VERSION {
        return r.err(format!("unsupported version {version}"));
    }

    let reason = match r.u8()? {
        0 => DumpReason::Manual,
        1 => DumpReason::Aligned,
        2 => DumpReason::Failure(r.failure()?),
        t => return r.err(format!("bad reason tag {t}")),
    };
    let focus = ThreadId(r.uvarint()? as u32);
    let steps = r.uvarint()?;

    let nglobals = r.len("globals")?;
    let mut globals = Vec::with_capacity(nglobals.min(4096));
    for _ in 0..nglobals {
        globals.push(match r.u8()? {
            0 => GSlot::Scalar(r.value()?),
            1 => {
                let n = r.len("array")?;
                let mut slots = Vec::with_capacity(n.min(65536));
                for _ in 0..n {
                    slots.push(r.value()?);
                }
                GSlot::Array(slots)
            }
            t => return r.err(format!("bad global tag {t}")),
        });
    }

    let nheap = r.len("heap")?;
    let mut heap = Vec::with_capacity(nheap.min(65536));
    for _ in 0..nheap {
        heap.push(match r.u8()? {
            0 => None,
            1 => {
                let n = r.len("object")?;
                let mut slots = Vec::with_capacity(n.min(65536));
                for _ in 0..n {
                    slots.push(r.value()?);
                }
                Some(slots)
            }
            t => return r.err(format!("bad object tag {t}")),
        });
    }

    let nthreads = r.len("threads")?;
    let mut threads = Vec::with_capacity(nthreads.min(1024));
    for _ in 0..nthreads {
        let id = ThreadId(r.uvarint()? as u32);
        let entry = FuncId(r.uvarint()? as u32);
        let state = match r.u8()? {
            0 => ThreadState::Ready,
            1 => ThreadState::Done,
            2 => ThreadState::Crashed,
            t => return r.err(format!("bad thread state {t}")),
        };
        let instrs = r.uvarint()?;
        let last_value = r.value()?;
        let sync_seq = r.uvarint()? as u32;
        let nbuf = r.len("store buffer")?;
        let mut store_buffer = Vec::with_capacity(nbuf.min(1024));
        for _ in 0..nbuf {
            let loc = r.memloc()?;
            let value = r.value()?;
            let pc = r.pc()?;
            store_buffer.push(BufferedStore { loc, value, pc });
        }
        let nframes = r.len("frames")?;
        let mut frames = Vec::with_capacity(nframes.min(1024));
        for _ in 0..nframes {
            let func = FuncId(r.uvarint()? as u32);
            let pc = StmtId(r.uvarint()? as u32);
            let nlocals = r.len("locals")?;
            let mut locals = Vec::with_capacity(nlocals.min(65536));
            for _ in 0..nlocals {
                locals.push(r.value()?);
            }
            let nctrs = r.len("loop counters")?;
            let mut loop_counters = Vec::with_capacity(nctrs.min(65536));
            for _ in 0..nctrs {
                loop_counters.push(r.ivarint()?);
            }
            frames.push(FrameImage {
                func,
                pc,
                locals,
                loop_counters,
            });
        }
        threads.push(ThreadImage {
            id,
            entry,
            state,
            frames,
            instrs,
            last_value,
            sync_seq,
            store_buffer,
        });
    }

    let nlocks = r.len("locks")?;
    let mut locks = Vec::with_capacity(nlocks.min(4096));
    for _ in 0..nlocks {
        locks.push(match r.u8()? {
            0 => None,
            1 => Some(ThreadId(r.uvarint()? as u32)),
            t => return r.err(format!("bad lock tag {t}")),
        });
    }

    if focus.0 as usize >= threads.len() {
        return r.err("focus thread out of range");
    }

    Ok(CoreDump {
        reason,
        focus,
        globals,
        heap,
        threads,
        locks,
        steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dump::{CoreDump, DumpReason};
    use mcr_vm::{run, DeterministicScheduler, NullObserver, Vm};

    fn sample_dump(src: &str) -> CoreDump {
        let p = mcr_lang::compile(src).unwrap();
        let mut vm = Vm::new(&p, &[1, 2, 3]);
        let mut s = DeterministicScheduler::new();
        run(&mut vm, &mut s, &mut NullObserver, 100_000);
        match CoreDump::capture_failure(&vm) {
            Some(d) => d,
            None => CoreDump::capture(&vm, ThreadId(0), DumpReason::Manual),
        }
    }

    #[test]
    fn round_trip_completed_run() {
        let d = sample_dump(
            "global x: int; global a: [int; 5]; global q: ptr; lock l;
             fn main() { var p; x = -7; a[2] = 9; p = alloc(3); p[1] = 11; q = p; acquire l; release l; }",
        );
        let bytes = encode(&d);
        let d2 = decode(&bytes).unwrap();
        assert_eq!(d, d2);
    }

    #[test]
    fn round_trip_failure_dump() {
        let d = sample_dump(
            "fn deep(p) { p[0] = 1; } fn main() { var i; while (i < 4) { i = i + 1; } deep(null); }",
        );
        assert!(d.failure().is_some());
        let bytes = encode(&d);
        let d2 = decode(&bytes).unwrap();
        assert_eq!(d, d2);
        assert_eq!(d2.failure(), d.failure());
        assert_eq!(d2.focus_thread().frames[0].loop_counters, vec![4]);
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(decode(b"XXXX\x01").is_err());
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let d = sample_dump("global x: int; fn main() { x = 3; }");
        let bytes = encode(&d);
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "decode succeeded on {cut}-byte prefix"
            );
        }
    }

    #[test]
    fn rejects_bad_version() {
        let d = sample_dump("fn main() { }");
        let mut bytes = encode(&d);
        bytes[4] = 99;
        let err = decode(&bytes).unwrap_err();
        assert!(err.msg.contains("version"), "{err}");
    }

    #[test]
    fn size_grows_with_state() {
        let small = encode(&sample_dump("global a: [int; 4]; fn main() { }"));
        let big = encode(&sample_dump(
            "global a: [int; 4000]; fn main() { var i; for (i = 0; i < 4000; i = i + 1) { a[i] = i; } }",
        ));
        assert!(
            big.len() > small.len() * 10,
            "small={}, big={}",
            small.len(),
            big.len()
        );
    }

    #[test]
    fn zigzag_negative_values() {
        let d = sample_dump("global x: int; fn main() { x = 0 - 123456789; }");
        let d2 = decode(&encode(&d)).unwrap();
        assert_eq!(d, d2);
    }
}
