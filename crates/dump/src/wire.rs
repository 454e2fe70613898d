//! Reusable wire primitives of the dump codec.
//!
//! The core-dump format ([`crate::codec`]) and the phase-artifact formats
//! built on top of it by `mcr-core` share one varint-based byte layout.
//! This module is that shared layer: a [`Writer`] appending primitive
//! values to a growing buffer and a [`Reader`] consuming them with
//! offset-carrying errors. No external serialization crate is used, so
//! the byte layout is stable by construction.
//!
//! Conventions:
//!
//! * unsigned integers are LEB128 varints ([`Writer::uvarint`]),
//! * signed integers are ZigZag-mapped varints ([`Writer::ivarint`]),
//! * sequences are a length varint followed by the elements,
//! * options are a `0`/`1` presence byte followed by the payload,
//! * durations are whole nanoseconds; `u64::MAX` nanoseconds stands for
//!   every duration at least that long and reads back as
//!   [`Duration::MAX`],
//! * values, memory locations, program counters and failure records use
//!   [`Writer::value`] / [`Writer::memloc`] / [`Writer::pc`] /
//!   [`Writer::failure`] (shared by the dump codec and the phase
//!   artifacts, so one layout serves both),
//! * [`ContentHash`] identifies content for the content-addressed
//!   artifact stores built on top. It and its streaming
//!   [`ContentHasher`] are re-exported from [`mcr_lang::hash`]: one
//!   implementation serves the program fingerprint, the session basis
//!   and the phase keys.

use crate::codec::DecodeError;
use mcr_lang::{FuncId, GlobalId, LocalId, Pc, StmtId};
use mcr_vm::{Failure, FailureKind, FaultKind, InjectedFault, MemLoc, ObjId, ThreadId, Value};
use std::time::Duration;

pub use mcr_lang::hash::{ContentHash, ContentHasher};

/// Appends wire-format primitives to a byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// Consumes the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends raw bytes verbatim (magic numbers, pre-encoded payloads).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a boolean as a `0`/`1` byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Appends an unsigned LEB128 varint.
    pub fn uvarint(&mut self, mut v: u64) {
        loop {
            let b = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(b);
                break;
            }
            self.buf.push(b | 0x80);
        }
    }

    /// Appends a signed integer (ZigZag-mapped varint).
    pub fn ivarint(&mut self, v: i64) {
        self.uvarint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.uvarint(bytes.len() as u64);
        self.raw(bytes);
    }

    /// Appends a duration as whole nanoseconds, saturating at
    /// `u64::MAX` (which [`Reader::duration`] reads as [`Duration::MAX`]).
    pub fn duration(&mut self, d: Duration) {
        self.uvarint(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Appends an optional duration (presence byte + payload).
    pub fn opt_duration(&mut self, d: Option<Duration>) {
        match d {
            None => self.bool(false),
            Some(d) => {
                self.bool(true);
                self.duration(d);
            }
        }
    }

    /// Appends an optional unsigned varint (presence byte + payload).
    pub fn opt_uvarint(&mut self, v: Option<u64>) {
        match v {
            None => self.bool(false),
            Some(v) => {
                self.bool(true);
                self.uvarint(v);
            }
        }
    }

    /// Appends a VM value (tagged scalar / null / object pointer).
    pub fn value(&mut self, v: Value) {
        match v {
            Value::Int(i) => {
                self.u8(0);
                self.ivarint(i);
            }
            Value::Ptr(None) => self.u8(1),
            Value::Ptr(Some(o)) => {
                self.u8(2);
                self.uvarint(o.0 as u64);
            }
        }
    }

    /// Appends a program counter (function + statement varints).
    pub fn pc(&mut self, pc: Pc) {
        self.uvarint(pc.func.0 as u64);
        self.uvarint(pc.stmt.0 as u64);
    }

    /// Appends an optional program counter (presence byte + payload).
    pub fn opt_pc(&mut self, pc: Option<Pc>) {
        match pc {
            None => self.bool(false),
            Some(pc) => {
                self.bool(true);
                self.pc(pc);
            }
        }
    }

    /// Appends a failure record (kind tag, pc, failing thread, optional
    /// injected-fault stamp).
    pub fn failure(&mut self, f: Failure) {
        self.u8(failure_kind_tag(f.kind));
        self.pc(f.pc);
        self.uvarint(f.thread.0 as u64);
        match f.fault {
            None => self.bool(false),
            Some(fault) => {
                self.bool(true);
                self.u8(fault_kind_tag(fault.kind));
                self.uvarint(fault.nth as u64);
            }
        }
    }

    /// Appends a memory location (tagged by shape).
    pub fn memloc(&mut self, loc: MemLoc) {
        match loc {
            MemLoc::Global(g) => {
                self.u8(0);
                self.uvarint(g.0 as u64);
            }
            MemLoc::GlobalElem(g, i) => {
                self.u8(1);
                self.uvarint(g.0 as u64);
                self.uvarint(i as u64);
            }
            MemLoc::Heap(o, i) => {
                self.u8(2);
                self.uvarint(o.0 as u64);
                self.uvarint(i as u64);
            }
            MemLoc::Local { tid, frame, local } => {
                self.u8(3);
                self.uvarint(tid.0 as u64);
                self.uvarint(frame);
                self.uvarint(local.0 as u64);
            }
        }
    }
}

/// Consumes wire-format primitives from a byte buffer.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at its start.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// The current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Builds a [`DecodeError`] at the current offset.
    pub fn err<T>(&self, msg: impl Into<String>) -> Result<T, DecodeError> {
        Err(DecodeError {
            msg: msg.into(),
            offset: self.pos,
        })
    }

    /// Consumes and checks a magic-byte prefix.
    ///
    /// # Errors
    ///
    /// Fails when the input is shorter than `magic` or differs from it.
    pub fn expect_magic(&mut self, magic: &[u8]) -> Result<(), DecodeError> {
        if self.buf.len() < self.pos + magic.len()
            || &self.buf[self.pos..self.pos + magic.len()] != magic
        {
            return self.err("bad magic");
        }
        self.pos += magic.len();
        Ok(())
    }

    /// Fails with `trailing bytes` unless the whole input was consumed.
    ///
    /// # Errors
    ///
    /// See above.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.pos != self.buf.len() {
            return self.err("trailing bytes");
        }
        Ok(())
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Fails at end of input.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        let Some(&b) = self.buf.get(self.pos) else {
            return self.err("unexpected end of input");
        };
        self.pos += 1;
        Ok(b)
    }

    /// Reads a boolean (`0`/`1` byte).
    ///
    /// # Errors
    ///
    /// Fails on any other byte value.
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => self.err(format!("bad bool byte {t}")),
        }
    }

    /// Reads an unsigned LEB128 varint.
    ///
    /// # Errors
    ///
    /// Fails on truncation or overflow past 64 bits.
    pub fn uvarint(&mut self) -> Result<u64, DecodeError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift >= 64 {
                return self.err("varint overflow");
            }
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Reads a signed (ZigZag) varint.
    ///
    /// # Errors
    ///
    /// See [`Reader::uvarint`].
    pub fn ivarint(&mut self) -> Result<i64, DecodeError> {
        let z = self.uvarint()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// Reads a sequence length, rejecting implausible values.
    ///
    /// # Errors
    ///
    /// Fails when the length exceeds 2³⁰ (`what` names the field in the
    /// error message).
    pub fn len(&mut self, what: &str) -> Result<usize, DecodeError> {
        let n = self.uvarint()?;
        // Defensive bound: no component should exceed 1G entries.
        if n > (1 << 30) {
            return self.err(format!("{what} length {n} implausible"));
        }
        Ok(n as usize)
    }

    /// Reads a length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// Fails on truncation.
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.len("byte string")?;
        let Some(slice) = self.buf.get(self.pos..self.pos + n) else {
            return self.err("byte string truncated");
        };
        self.pos += n;
        Ok(slice)
    }

    /// Reads a duration (whole nanoseconds). The saturated value
    /// `u64::MAX` reads as [`Duration::MAX`], so every duration too long
    /// for the encoding round-trips as the longest one.
    ///
    /// # Errors
    ///
    /// See [`Reader::uvarint`].
    pub fn duration(&mut self) -> Result<Duration, DecodeError> {
        Ok(match self.uvarint()? {
            u64::MAX => Duration::MAX,
            ns => Duration::from_nanos(ns),
        })
    }

    /// Reads an optional duration.
    ///
    /// # Errors
    ///
    /// See [`Reader::bool`] and [`Reader::duration`].
    pub fn opt_duration(&mut self) -> Result<Option<Duration>, DecodeError> {
        Ok(if self.bool()? {
            Some(self.duration()?)
        } else {
            None
        })
    }

    /// Reads an optional unsigned varint.
    ///
    /// # Errors
    ///
    /// See [`Reader::bool`] and [`Reader::uvarint`].
    pub fn opt_uvarint(&mut self) -> Result<Option<u64>, DecodeError> {
        Ok(if self.bool()? {
            Some(self.uvarint()?)
        } else {
            None
        })
    }

    /// Reads a VM value.
    ///
    /// # Errors
    ///
    /// Fails on an unknown tag or truncation.
    pub fn value(&mut self) -> Result<Value, DecodeError> {
        match self.u8()? {
            0 => Ok(Value::Int(self.ivarint()?)),
            1 => Ok(Value::Ptr(None)),
            2 => Ok(Value::Ptr(Some(ObjId(self.uvarint()? as u32)))),
            t => self.err(format!("bad value tag {t}")),
        }
    }

    /// Reads a program counter.
    ///
    /// # Errors
    ///
    /// See [`Reader::uvarint`].
    pub fn pc(&mut self) -> Result<Pc, DecodeError> {
        let func = FuncId(self.uvarint()? as u32);
        let stmt = StmtId(self.uvarint()? as u32);
        Ok(Pc::new(func, stmt))
    }

    /// Reads an optional program counter.
    ///
    /// # Errors
    ///
    /// See [`Reader::bool`] and [`Reader::pc`].
    pub fn opt_pc(&mut self) -> Result<Option<Pc>, DecodeError> {
        Ok(if self.bool()? { Some(self.pc()?) } else { None })
    }

    /// Reads a failure record.
    ///
    /// # Errors
    ///
    /// Fails on an unknown kind tag or truncation.
    pub fn failure(&mut self) -> Result<Failure, DecodeError> {
        let tag = self.u8()?;
        let Some(kind) = failure_kind_from_tag(tag) else {
            return self.err(format!("bad failure kind tag {tag}"));
        };
        let pc = self.pc()?;
        let thread = ThreadId(self.uvarint()? as u32);
        let fault = if self.bool()? {
            let tag = self.u8()?;
            let Some(kind) = fault_kind_from_tag(tag) else {
                return self.err(format!("bad fault kind tag {tag}"));
            };
            let nth = self.uvarint()? as u32;
            Some(InjectedFault { kind, nth })
        } else {
            None
        };
        Ok(Failure {
            kind,
            pc,
            thread,
            fault,
        })
    }

    /// Reads a memory location.
    ///
    /// # Errors
    ///
    /// Fails on an unknown shape tag or truncation.
    pub fn memloc(&mut self) -> Result<MemLoc, DecodeError> {
        match self.u8()? {
            0 => Ok(MemLoc::Global(GlobalId(self.uvarint()? as u32))),
            1 => Ok(MemLoc::GlobalElem(
                GlobalId(self.uvarint()? as u32),
                self.uvarint()? as u32,
            )),
            2 => Ok(MemLoc::Heap(
                ObjId(self.uvarint()? as u32),
                self.uvarint()? as u32,
            )),
            3 => Ok(MemLoc::Local {
                tid: ThreadId(self.uvarint()? as u32),
                frame: self.uvarint()?,
                local: LocalId(self.uvarint()? as u32),
            }),
            t => self.err(format!("bad memloc tag {t}")),
        }
    }
}

fn failure_kind_tag(k: FailureKind) -> u8 {
    match k {
        FailureKind::NullDeref => 0,
        FailureKind::OutOfBounds => 1,
        FailureKind::GlobalOutOfBounds => 2,
        FailureKind::AssertFailed => 3,
        FailureKind::DivByZero => 4,
        FailureKind::TypeConfusion => 5,
        FailureKind::LockMisuse => 6,
        FailureKind::JoinInvalid => 7,
        FailureKind::StackOverflow => 8,
        FailureKind::AllocTooLarge => 9,
        FailureKind::LockTimeout => 10,
    }
}

fn failure_kind_from_tag(t: u8) -> Option<FailureKind> {
    Some(match t {
        0 => FailureKind::NullDeref,
        1 => FailureKind::OutOfBounds,
        2 => FailureKind::GlobalOutOfBounds,
        3 => FailureKind::AssertFailed,
        4 => FailureKind::DivByZero,
        5 => FailureKind::TypeConfusion,
        6 => FailureKind::LockMisuse,
        7 => FailureKind::JoinInvalid,
        8 => FailureKind::StackOverflow,
        9 => FailureKind::AllocTooLarge,
        10 => FailureKind::LockTimeout,
        _ => return None,
    })
}

fn fault_kind_tag(k: FaultKind) -> u8 {
    match k {
        FaultKind::AllocFail => 0,
        FaultKind::LockTimeout => 1,
    }
}

fn fault_kind_from_tag(t: u8) -> Option<FaultKind> {
    Some(match t {
        0 => FaultKind::AllocFail,
        1 => FaultKind::LockTimeout,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trips() {
        let mut w = Writer::new();
        w.uvarint(0);
        w.uvarint(u64::MAX);
        w.ivarint(-123456789);
        w.bool(true);
        w.bytes(b"hello");
        w.duration(Duration::from_micros(1234));
        w.opt_duration(None);
        w.opt_uvarint(Some(7));
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.uvarint().unwrap(), 0);
        assert_eq!(r.uvarint().unwrap(), u64::MAX);
        assert_eq!(r.ivarint().unwrap(), -123456789);
        assert!(r.bool().unwrap());
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert_eq!(r.duration().unwrap(), Duration::from_micros(1234));
        assert_eq!(r.opt_duration().unwrap(), None);
        assert_eq!(r.opt_uvarint().unwrap(), Some(7));
        r.finish().unwrap();
    }

    /// Durations past `u64::MAX` ns saturate on write and read back as
    /// `Duration::MAX`; the longest exact one stays exact.
    #[test]
    fn saturated_durations_read_back_as_the_maximum() {
        let exact = Duration::from_nanos(u64::MAX - 1);
        let mut w = Writer::new();
        w.opt_duration(Some(Duration::MAX));
        w.duration(Duration::from_secs(u64::MAX / 1_000_000_000 + 1));
        w.duration(exact);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.opt_duration().unwrap(), Some(Duration::MAX));
        assert_eq!(r.duration().unwrap(), Duration::MAX);
        assert_eq!(r.duration().unwrap(), exact);
        r.finish().unwrap();
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut w = Writer::new();
        w.u8(1);
        w.u8(2);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        r.u8().unwrap();
        let err = r.finish().unwrap_err();
        assert!(err.msg.contains("trailing"), "{err}");
    }

    #[test]
    fn magic_mismatch_rejected() {
        let mut r = Reader::new(b"XYZ");
        assert!(r.expect_magic(b"MCR").is_err());
        let mut r2 = Reader::new(b"MCR");
        r2.expect_magic(b"MCR").unwrap();
        r2.finish().unwrap();
    }

    #[test]
    fn truncated_varint_rejected() {
        // Continuation bit set, then end of input.
        let mut r = Reader::new(&[0x80]);
        assert!(r.uvarint().is_err());
    }

    #[test]
    fn pc_and_failure_round_trip() {
        let pc = Pc::new(FuncId(7), StmtId(13));
        let f = Failure {
            kind: FailureKind::OutOfBounds,
            pc,
            thread: ThreadId(3),
            fault: None,
        };
        let g = Failure {
            kind: FailureKind::LockTimeout,
            pc,
            thread: ThreadId(1),
            fault: Some(InjectedFault {
                kind: FaultKind::LockTimeout,
                nth: 2,
            }),
        };
        let mut w = Writer::new();
        w.pc(pc);
        w.opt_pc(None);
        w.opt_pc(Some(pc));
        w.failure(f);
        w.failure(g);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.pc().unwrap(), pc);
        assert_eq!(r.opt_pc().unwrap(), None);
        assert_eq!(r.opt_pc().unwrap(), Some(pc));
        assert_eq!(r.failure().unwrap(), f);
        assert_eq!(r.failure().unwrap(), g);
        r.finish().unwrap();
    }

    #[test]
    fn bad_failure_kind_rejected() {
        let mut w = Writer::new();
        w.u8(99);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.failure().is_err());
    }

    #[test]
    fn content_hash_is_stable_and_sensitive() {
        let a = ContentHash::of(b"hello");
        let b = ContentHash::of(b"hello");
        let c = ContentHash::of(b"hellp");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(ContentHash::of(b""), ContentHash::of(b"\0"));
        // Streaming equals one-shot.
        let mut h = ContentHasher::new();
        h.update(b"he");
        h.update(b"llo");
        assert_eq!(h.finish128(), a);
        // Display is 32 hex digits.
        assert_eq!(a.to_string().len(), 32);
    }

    #[test]
    fn content_hasher_works_as_std_hasher() {
        use std::hash::{Hash, Hasher};
        let mut h1 = ContentHasher::new();
        let mut h2 = ContentHasher::new();
        ("abc", 7u32).hash(&mut h1);
        ("abc", 7u32).hash(&mut h2);
        assert_eq!(h1.finish128(), h2.finish128());
        assert_eq!(h1.finish(), h2.finish());
        let mut h3 = ContentHasher::new();
        ("abd", 7u32).hash(&mut h3);
        assert_ne!(h1.finish128(), h3.finish128());
    }
}
