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
//! * durations are whole nanoseconds (saturating at `u64::MAX`),
//! * program counters and failure records use [`Writer::pc`] /
//!   [`Writer::failure`] (shared by the dump codec and the phase
//!   artifacts, so one layout serves both),
//! * [`ContentHash`] identifies wire-encoded content for the
//!   content-addressed artifact stores built on top,
//! * [`SegmentedBytes`] packages a byte stream into fixed-size,
//!   independently checksummed frames with a footer index, so large
//!   artifacts (spilled traces, store snapshots) can be rehydrated by
//!   byte range on demand instead of decoded whole.

use crate::codec::DecodeError;
use mcr_lang::{FuncId, GlobalId, LocalId, LockId, LoopId, Pc, StmtId};
use mcr_vm::{
    Event, Failure, FailureKind, FaultKind, InjectedFault, MemLoc, ObjId, SyncKind, ThreadId, Value,
};
use std::time::Duration;

/// FNV-1a 128-bit offset basis.
const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// FNV-1a 128-bit prime.
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;

/// A 128-bit content hash over wire-format bytes (FNV-1a).
///
/// This is the identity the content-addressed artifact stores of
/// `mcr-core` key on: two byte strings with the same hash are treated as
/// the same content. FNV-1a is not cryptographic — the stores are a
/// cache, not a trust boundary — but at 128 bits accidental collisions
/// are out of reach for any realistic corpus.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentHash(pub u128);

impl ContentHash {
    /// Hashes a byte string in one call.
    pub fn of(bytes: &[u8]) -> ContentHash {
        let mut h = ContentHasher::new();
        h.update(bytes);
        h.finish128()
    }

    /// The hash as 16 little-endian bytes (the wire layout).
    pub fn to_le_bytes(self) -> [u8; 16] {
        self.0.to_le_bytes()
    }

    /// Rebuilds a hash from its wire layout.
    pub fn from_le_bytes(bytes: [u8; 16]) -> ContentHash {
        ContentHash(u128::from_le_bytes(bytes))
    }
}

impl std::fmt::Debug for ContentHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ContentHash({self})")
    }
}

impl std::fmt::Display for ContentHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Streaming [`ContentHash`] builder.
///
/// Also implements [`std::hash::Hasher`], so `#[derive(Hash)]` types —
/// a compiled [`mcr_lang::Program`], say — can be folded into a content
/// hash without a bespoke byte encoding: the derive feeds its canonical
/// field-order byte stream straight into the FNV state.
#[derive(Debug, Clone)]
pub struct ContentHasher {
    state: u128,
}

impl Default for ContentHasher {
    fn default() -> Self {
        ContentHasher::new()
    }
}

impl ContentHasher {
    /// A hasher at the FNV offset basis.
    pub fn new() -> ContentHasher {
        ContentHasher {
            state: FNV128_OFFSET,
        }
    }

    /// Folds `bytes` into the hash state.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u128;
            self.state = self.state.wrapping_mul(FNV128_PRIME);
        }
    }

    /// The 128-bit digest of everything folded in so far.
    pub fn finish128(&self) -> ContentHash {
        ContentHash(self.state)
    }
}

impl std::hash::Hasher for ContentHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.update(bytes);
    }

    fn finish(&self) -> u64 {
        (self.state as u64) ^ ((self.state >> 64) as u64)
    }
}

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

    /// Appends a duration as whole nanoseconds (saturating).
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

    /// Appends a synchronization-operation kind.
    pub fn sync_kind(&mut self, kind: SyncKind) {
        match kind {
            SyncKind::Acquire(l) => {
                self.u8(0);
                self.uvarint(l.0 as u64);
            }
            SyncKind::Release(l) => {
                self.u8(1);
                self.uvarint(l.0 as u64);
            }
            SyncKind::Spawn(t) => {
                self.u8(2);
                self.uvarint(t.0 as u64);
            }
            SyncKind::Join(t) => {
                self.u8(3);
                self.uvarint(t.0 as u64);
            }
            SyncKind::Flush => self.u8(4),
        }
    }

    /// Appends one dynamic event. Tags are pinned in declaration order of
    /// [`Event`]; new kinds append (the store-buffer events of the TSO
    /// memory model took tags 4 and 5 when the enum gained them).
    pub fn event(&mut self, e: &Event) {
        match e {
            Event::Stmt { tid, pc, cost } => {
                self.u8(0);
                self.uvarint(tid.0 as u64);
                self.pc(*pc);
                self.u8(*cost);
            }
            Event::Branch { tid, pc, outcome } => {
                self.u8(1);
                self.uvarint(tid.0 as u64);
                self.pc(*pc);
                self.bool(*outcome);
            }
            Event::Read {
                tid,
                pc,
                loc,
                value,
            } => {
                self.u8(2);
                self.uvarint(tid.0 as u64);
                self.pc(*pc);
                self.memloc(*loc);
                self.value(*value);
            }
            Event::Write {
                tid,
                pc,
                loc,
                value,
            } => {
                self.u8(3);
                self.uvarint(tid.0 as u64);
                self.pc(*pc);
                self.memloc(*loc);
                self.value(*value);
            }
            Event::StoreBuffered {
                tid,
                pc,
                loc,
                value,
            } => {
                self.u8(4);
                self.uvarint(tid.0 as u64);
                self.pc(*pc);
                self.memloc(*loc);
                self.value(*value);
            }
            Event::StoreFlushed {
                tid,
                pc,
                loc,
                value,
            } => {
                self.u8(5);
                self.uvarint(tid.0 as u64);
                self.pc(*pc);
                self.memloc(*loc);
                self.value(*value);
            }
            Event::FuncEnter { tid, func, frame } => {
                self.u8(6);
                self.uvarint(tid.0 as u64);
                self.uvarint(func.0 as u64);
                self.uvarint(*frame);
            }
            Event::FuncExit { tid, func, frame } => {
                self.u8(7);
                self.uvarint(tid.0 as u64);
                self.uvarint(func.0 as u64);
                self.uvarint(*frame);
            }
            Event::Sync { tid, pc, kind, seq } => {
                self.u8(8);
                self.uvarint(tid.0 as u64);
                self.pc(*pc);
                self.sync_kind(*kind);
                self.uvarint(*seq as u64);
            }
            Event::ThreadStart { tid, func } => {
                self.u8(9);
                self.uvarint(tid.0 as u64);
                self.uvarint(func.0 as u64);
            }
            Event::ThreadEnd { tid } => {
                self.u8(10);
                self.uvarint(tid.0 as u64);
            }
            Event::Output { tid, value } => {
                self.u8(11);
                self.uvarint(tid.0 as u64);
                self.value(*value);
            }
            Event::LoopEnter { tid, pc, loop_id } => {
                self.u8(12);
                self.uvarint(tid.0 as u64);
                self.pc(*pc);
                self.uvarint(loop_id.0 as u64);
            }
            Event::LoopIter {
                tid,
                pc,
                loop_id,
                count,
            } => {
                self.u8(13);
                self.uvarint(tid.0 as u64);
                self.pc(*pc);
                self.uvarint(loop_id.0 as u64);
                self.ivarint(*count);
            }
            Event::Crash { failure } => {
                self.u8(14);
                self.failure(*failure);
            }
        }
    }

    /// Appends a content hash (16 little-endian bytes).
    pub fn hash(&mut self, h: ContentHash) {
        self.raw(&h.to_le_bytes());
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

    /// Reads a duration (whole nanoseconds).
    ///
    /// # Errors
    ///
    /// See [`Reader::uvarint`].
    pub fn duration(&mut self) -> Result<Duration, DecodeError> {
        Ok(Duration::from_nanos(self.uvarint()?))
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

    /// Reads a synchronization-operation kind.
    ///
    /// # Errors
    ///
    /// Fails on an unknown kind tag or truncation.
    pub fn sync_kind(&mut self) -> Result<SyncKind, DecodeError> {
        match self.u8()? {
            0 => Ok(SyncKind::Acquire(LockId(self.uvarint()? as u32))),
            1 => Ok(SyncKind::Release(LockId(self.uvarint()? as u32))),
            2 => Ok(SyncKind::Spawn(ThreadId(self.uvarint()? as u32))),
            3 => Ok(SyncKind::Join(ThreadId(self.uvarint()? as u32))),
            4 => Ok(SyncKind::Flush),
            t => self.err(format!("bad sync kind tag {t}")),
        }
    }

    /// Reads one dynamic event.
    ///
    /// # Errors
    ///
    /// Fails on an unknown event tag or truncation.
    pub fn event(&mut self) -> Result<Event, DecodeError> {
        match self.u8()? {
            0 => Ok(Event::Stmt {
                tid: ThreadId(self.uvarint()? as u32),
                pc: self.pc()?,
                cost: self.u8()?,
            }),
            1 => Ok(Event::Branch {
                tid: ThreadId(self.uvarint()? as u32),
                pc: self.pc()?,
                outcome: self.bool()?,
            }),
            2 => Ok(Event::Read {
                tid: ThreadId(self.uvarint()? as u32),
                pc: self.pc()?,
                loc: self.memloc()?,
                value: self.value()?,
            }),
            3 => Ok(Event::Write {
                tid: ThreadId(self.uvarint()? as u32),
                pc: self.pc()?,
                loc: self.memloc()?,
                value: self.value()?,
            }),
            4 => Ok(Event::StoreBuffered {
                tid: ThreadId(self.uvarint()? as u32),
                pc: self.pc()?,
                loc: self.memloc()?,
                value: self.value()?,
            }),
            5 => Ok(Event::StoreFlushed {
                tid: ThreadId(self.uvarint()? as u32),
                pc: self.pc()?,
                loc: self.memloc()?,
                value: self.value()?,
            }),
            6 => Ok(Event::FuncEnter {
                tid: ThreadId(self.uvarint()? as u32),
                func: FuncId(self.uvarint()? as u32),
                frame: self.uvarint()?,
            }),
            7 => Ok(Event::FuncExit {
                tid: ThreadId(self.uvarint()? as u32),
                func: FuncId(self.uvarint()? as u32),
                frame: self.uvarint()?,
            }),
            8 => Ok(Event::Sync {
                tid: ThreadId(self.uvarint()? as u32),
                pc: self.pc()?,
                kind: self.sync_kind()?,
                seq: self.uvarint()? as u32,
            }),
            9 => Ok(Event::ThreadStart {
                tid: ThreadId(self.uvarint()? as u32),
                func: FuncId(self.uvarint()? as u32),
            }),
            10 => Ok(Event::ThreadEnd {
                tid: ThreadId(self.uvarint()? as u32),
            }),
            11 => Ok(Event::Output {
                tid: ThreadId(self.uvarint()? as u32),
                value: self.value()?,
            }),
            12 => Ok(Event::LoopEnter {
                tid: ThreadId(self.uvarint()? as u32),
                pc: self.pc()?,
                loop_id: LoopId(self.uvarint()? as u32),
            }),
            13 => Ok(Event::LoopIter {
                tid: ThreadId(self.uvarint()? as u32),
                pc: self.pc()?,
                loop_id: LoopId(self.uvarint()? as u32),
                count: self.ivarint()?,
            }),
            14 => Ok(Event::Crash {
                failure: self.failure()?,
            }),
            t => self.err(format!("bad event tag {t}")),
        }
    }

    /// Reads a content hash.
    ///
    /// # Errors
    ///
    /// Fails on truncation.
    pub fn hash(&mut self) -> Result<ContentHash, DecodeError> {
        let Some(slice) = self.buf.get(self.pos..self.pos + 16) else {
            return self.err("content hash truncated");
        };
        let mut bytes = [0u8; 16];
        bytes.copy_from_slice(slice);
        self.pos += 16;
        Ok(ContentHash::from_le_bytes(bytes))
    }
}

/// Magic prefix of a segmented container.
const SEG_MAGIC: &[u8; 4] = b"MCSG";
/// Magic suffix closing a segmented container's fixed-width trailer.
const SEG_TRAILER_MAGIC: &[u8; 4] = b"MCSE";
/// Segmented-container format version.
const SEG_VERSION: u8 = 1;
/// Bytes of the fixed-width trailer: 8-byte LE footer offset + magic.
const SEG_TRAILER_LEN: usize = 8 + 4;

/// 64-bit integrity checksum of the segmented container: the xor-folded
/// FNV-1a 128 digest (the same fold [`ContentHasher`]'s
/// `std::hash::Hasher::finish` uses).
fn checksum64(bytes: &[u8]) -> u64 {
    let h = ContentHash::of(bytes).0;
    (h as u64) ^ ((h >> 64) as u64)
}

/// Incrementally builds a [`SegmentedBytes`] container from a byte
/// stream.
///
/// Input bytes are buffered until a full frame (`frame_size` bytes)
/// accumulates, then sealed as one segment — so a producer streaming
/// through a `SegmentWriter` never holds more than one frame of
/// unsealed payload beyond the container itself.
#[derive(Debug)]
pub struct SegmentWriter {
    frame_size: usize,
    buf: Vec<u8>,
    /// Per sealed segment: record offset (for the footer index), payload
    /// offset, payload length.
    records: Vec<(u64, usize, usize)>,
    pending: Vec<u8>,
    total_len: u64,
}

impl SegmentWriter {
    /// An empty container with the given frame size (clamped to ≥ 1).
    pub fn new(frame_size: usize) -> SegmentWriter {
        let frame_size = frame_size.max(1);
        let mut w = Writer::new();
        w.raw(SEG_MAGIC);
        w.u8(SEG_VERSION);
        w.uvarint(frame_size as u64);
        SegmentWriter {
            frame_size,
            buf: w.into_bytes(),
            records: Vec::new(),
            pending: Vec::new(),
            total_len: 0,
        }
    }

    /// Logical payload bytes written so far.
    pub fn total_len(&self) -> u64 {
        self.total_len
    }

    /// Appends payload bytes, sealing full frames as they accumulate.
    pub fn write(&mut self, bytes: &[u8]) {
        self.total_len += bytes.len() as u64;
        self.pending.extend_from_slice(bytes);
        while self.pending.len() >= self.frame_size {
            let rest = self.pending.split_off(self.frame_size);
            let frame = std::mem::replace(&mut self.pending, rest);
            self.seal(&frame);
        }
    }

    fn seal(&mut self, payload: &[u8]) {
        let record_off = self.buf.len() as u64;
        let mut w = Writer::new();
        w.uvarint(payload.len() as u64);
        let header_len = w.len();
        w.raw(&checksum64(payload).to_le_bytes());
        w.raw(payload);
        let payload_off = record_off as usize + header_len + 8;
        self.buf.extend_from_slice(&w.into_bytes());
        self.records.push((record_off, payload_off, payload.len()));
    }

    /// Seals the final (possibly short) frame, writes the footer index
    /// and trailer, and yields the finished container.
    pub fn finish(mut self) -> SegmentedBytes {
        if !self.pending.is_empty() {
            let tail = std::mem::take(&mut self.pending);
            self.seal(&tail);
        }
        let footer_offset = self.buf.len() as u64;
        let mut f = Writer::new();
        f.uvarint(self.records.len() as u64);
        for &(record_off, _, len) in &self.records {
            f.uvarint(record_off);
            f.uvarint(len as u64);
        }
        f.uvarint(self.total_len);
        let footer = f.into_bytes();
        let sum = checksum64(&footer);
        self.buf.extend_from_slice(&footer);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf.extend_from_slice(&footer_offset.to_le_bytes());
        self.buf.extend_from_slice(SEG_TRAILER_MAGIC);
        SegmentedBytes {
            bytes: self.buf,
            frame_size: self.frame_size,
            segments: self
                .records
                .into_iter()
                .map(|(_, payload_off, len)| (payload_off, len))
                .collect(),
            total_len: self.total_len,
        }
    }
}

/// A byte stream packaged into fixed-size, independently checksummed
/// frames with a footer index for O(1) range seek.
///
/// Layout: `MCSG` magic, version, frame-size varint; then one record per
/// segment (payload-length varint, 8-byte LE FNV-64 checksum, payload);
/// then a footer (segment count, per-segment record offset + length,
/// total payload length) followed by its own 8-byte checksum; finally a
/// fixed-width trailer (8-byte LE footer offset + `MCSE` magic).
///
/// Every segment except the last is exactly the frame size, so the
/// segment holding logical offset `o` is `o / frame_size` — no scan.
/// [`SegmentedBytes::parse`] validates only the header, footer, and
/// trailer; per-segment checksums are verified lazily when a range is
/// first read ([`SegmentedBytes::read_range`]), which is what lets an
/// artifact store rehydrate one entry out of a multi-megabyte snapshot
/// without touching — or verifying — the rest. Truncating the container
/// anywhere loses the trailer (or leaves a footer whose checksum or
/// recorded extent no longer matches), so every prefix fails closed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentedBytes {
    bytes: Vec<u8>,
    frame_size: usize,
    /// `(absolute payload offset, payload length)` per segment.
    segments: Vec<(usize, usize)>,
    total_len: u64,
}

impl SegmentedBytes {
    /// Packages a fully materialized payload (convenience over
    /// [`SegmentWriter`]).
    pub fn from_payload(payload: &[u8], frame_size: usize) -> SegmentedBytes {
        let mut w = SegmentWriter::new(frame_size);
        w.write(payload);
        w.finish()
    }

    /// Parses a container, validating the header, footer index, and
    /// trailer — but *not* the per-segment payload checksums, which are
    /// verified lazily on first read. Use
    /// [`SegmentedBytes::parse_verified`] to verify everything up front.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on any truncated, reordered, or inconsistent
    /// framing.
    pub fn parse(bytes: Vec<u8>) -> Result<SegmentedBytes, DecodeError> {
        let fail = |offset: usize, msg: &str| DecodeError {
            msg: msg.to_string(),
            offset,
        };
        if bytes.len() < SEG_TRAILER_LEN {
            return Err(fail(bytes.len(), "segmented container too short"));
        }
        if &bytes[bytes.len() - 4..] != SEG_TRAILER_MAGIC {
            return Err(fail(bytes.len() - 4, "bad segmented trailer magic"));
        }
        let off_at = bytes.len() - SEG_TRAILER_LEN;
        let footer_offset =
            u64::from_le_bytes(bytes[off_at..off_at + 8].try_into().expect("8 bytes")) as usize;

        let mut r = Reader::new(&bytes);
        r.expect_magic(SEG_MAGIC)?;
        let version = r.u8()?;
        if version != SEG_VERSION {
            return r.err(format!("unsupported segmented version {version}"));
        }
        let frame_size = r.uvarint()? as usize;
        if frame_size == 0 {
            return r.err("zero segment frame size");
        }
        let header_end = r.pos();

        // Footer body sits between `footer_offset` and its checksum,
        // which the fixed-width trailer follows immediately.
        if bytes.len() < SEG_TRAILER_LEN + 8 || footer_offset > bytes.len() - SEG_TRAILER_LEN - 8 {
            return Err(fail(off_at, "footer offset out of bounds"));
        }
        if footer_offset < header_end {
            return Err(fail(off_at, "footer offset inside header"));
        }
        let body_end = bytes.len() - SEG_TRAILER_LEN - 8;
        let footer = &bytes[footer_offset..body_end];
        let stored = u64::from_le_bytes(bytes[body_end..body_end + 8].try_into().expect("8 bytes"));
        if checksum64(footer) != stored {
            return Err(fail(footer_offset, "footer checksum mismatch"));
        }

        let mut fr = Reader::new(footer);
        let count = fr.len("segments")?;
        let mut segments = Vec::with_capacity(count.min(65536));
        let mut expect_off = header_end;
        let mut total = 0u64;
        for i in 0..count {
            let record_off = fr.uvarint()? as usize;
            let len = fr.uvarint()? as usize;
            if record_off != expect_off {
                return Err(fail(record_off, "segment record out of place"));
            }
            if i + 1 < count && len != frame_size {
                return Err(fail(record_off, "interior segment not frame-sized"));
            }
            if len == 0 || len > frame_size {
                return Err(fail(record_off, "bad segment length"));
            }
            // Re-read the record header so the payload offset comes from
            // the record itself, cross-checked against the footer.
            let mut sr = Reader::new(&bytes[record_off..footer_offset]);
            let rec_len = sr.uvarint()? as usize;
            if rec_len != len {
                return Err(fail(record_off, "segment length disagrees with footer"));
            }
            let payload_off = record_off + sr.pos() + 8;
            if payload_off + len > footer_offset {
                return Err(fail(record_off, "segment payload overruns footer"));
            }
            segments.push((payload_off, len));
            expect_off = payload_off + len;
            total += len as u64;
        }
        let total_len = fr.uvarint()?;
        fr.finish()?;
        if total != total_len {
            return Err(fail(footer_offset, "segment lengths disagree with total"));
        }
        if expect_off != footer_offset {
            return Err(fail(expect_off, "gap between segments and footer"));
        }
        Ok(SegmentedBytes {
            bytes,
            frame_size,
            segments,
            total_len,
        })
    }

    /// Parses a container and eagerly verifies every segment checksum.
    ///
    /// # Errors
    ///
    /// See [`SegmentedBytes::parse`]; additionally fails on any corrupt
    /// segment payload.
    pub fn parse_verified(bytes: Vec<u8>) -> Result<SegmentedBytes, DecodeError> {
        let seg = SegmentedBytes::parse(bytes)?;
        for i in 0..seg.segments.len() {
            seg.verify_segment(i)?;
        }
        Ok(seg)
    }

    /// Total logical payload length.
    pub fn total_len(&self) -> u64 {
        self.total_len
    }

    /// Number of segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The frame size segments were sealed at.
    pub fn frame_size(&self) -> usize {
        self.frame_size
    }

    /// The full container bytes (the shippable representation).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the container, yielding its bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Checks segment `i`'s payload against its stored checksum.
    ///
    /// # Errors
    ///
    /// Fails on an out-of-range index or a checksum mismatch.
    pub fn verify_segment(&self, i: usize) -> Result<(), DecodeError> {
        let Some(&(payload_off, len)) = self.segments.get(i) else {
            return Err(DecodeError {
                msg: format!("segment {i} out of range"),
                offset: self.bytes.len(),
            });
        };
        let stored = u64::from_le_bytes(
            self.bytes[payload_off - 8..payload_off]
                .try_into()
                .expect("8 bytes"),
        );
        if checksum64(&self.bytes[payload_off..payload_off + len]) != stored {
            return Err(DecodeError {
                msg: format!("segment {i} checksum mismatch"),
                offset: payload_off,
            });
        }
        Ok(())
    }

    /// Rehydrates `len` payload bytes starting at logical offset
    /// `start`, verifying every touched segment.
    ///
    /// # Errors
    ///
    /// Fails when the range exceeds the payload or a touched segment is
    /// corrupt.
    pub fn read_range(&self, start: usize, len: usize) -> Result<Vec<u8>, DecodeError> {
        self.read_range_with(start, len, |_| true)
    }

    /// Like [`SegmentedBytes::read_range`], but asks `needs_verify` per
    /// touched segment index whether its checksum must still be checked —
    /// the hook an artifact store uses to verify each segment exactly
    /// once across many range reads.
    ///
    /// # Errors
    ///
    /// See [`SegmentedBytes::read_range`].
    pub fn read_range_with(
        &self,
        start: usize,
        len: usize,
        mut needs_verify: impl FnMut(usize) -> bool,
    ) -> Result<Vec<u8>, DecodeError> {
        let end = start.saturating_add(len);
        if end as u64 > self.total_len {
            return Err(DecodeError {
                msg: format!(
                    "range {start}..{end} out of bounds (payload is {} bytes)",
                    self.total_len
                ),
                offset: start,
            });
        }
        if len == 0 {
            return Ok(Vec::new());
        }
        let first = start / self.frame_size;
        let last = (end - 1) / self.frame_size;
        let mut out = Vec::with_capacity(len);
        for i in first..=last {
            if needs_verify(i) {
                self.verify_segment(i)?;
            }
            let (payload_off, seg_len) = self.segments[i];
            let logical = i * self.frame_size;
            let from = start.max(logical) - logical;
            let to = end.min(logical + seg_len) - logical;
            out.extend_from_slice(&self.bytes[payload_off + from..payload_off + to]);
        }
        Ok(out)
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
        // Wire round-trip.
        assert_eq!(ContentHash::from_le_bytes(a.to_le_bytes()), a);
        let mut w = Writer::new();
        w.hash(a);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.hash().unwrap(), a);
        r.finish().unwrap();
        assert!(Reader::new(&bytes[..15]).hash().is_err());
        // Display is 32 hex digits.
        assert_eq!(a.to_string().len(), 32);
    }

    #[test]
    fn segmented_round_trips_across_shapes() {
        // Empty, sub-frame, exact-multiple, and ragged payloads.
        for (len, frame) in [
            (0usize, 16usize),
            (5, 16),
            (64, 16),
            (70, 16),
            (1, 1),
            (257, 32),
        ] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let seg = SegmentedBytes::from_payload(&payload, frame);
            assert_eq!(seg.total_len(), len as u64);
            assert_eq!(seg.segment_count(), len.div_ceil(frame));
            let parsed = SegmentedBytes::parse(seg.as_bytes().to_vec()).unwrap();
            assert_eq!(parsed, seg);
            SegmentedBytes::parse_verified(seg.as_bytes().to_vec()).unwrap();
            assert_eq!(seg.read_range(0, len).unwrap(), payload);
        }
    }

    #[test]
    fn segmented_streaming_writes_equal_one_shot() {
        let payload: Vec<u8> = (0..1000u32).flat_map(u32::to_le_bytes).collect();
        let one_shot = SegmentedBytes::from_payload(&payload, 64);
        let mut w = SegmentWriter::new(64);
        for chunk in payload.chunks(13) {
            w.write(chunk);
        }
        let streamed = w.finish();
        assert_eq!(streamed.as_bytes(), one_shot.as_bytes());
        assert_eq!(streamed.total_len(), payload.len() as u64);
    }

    #[test]
    fn segmented_range_reads_match_the_payload() {
        let payload: Vec<u8> = (0..300).map(|i| (i % 251) as u8).collect();
        let seg = SegmentedBytes::from_payload(&payload, 32);
        for (start, len) in [
            (0, 300),
            (0, 1),
            (299, 1),
            (31, 2),
            (32, 32),
            (100, 150),
            (40, 0),
        ] {
            assert_eq!(
                seg.read_range(start, len).unwrap(),
                payload[start..start + len],
                "range {start}+{len}"
            );
        }
        assert!(seg.read_range(299, 2).is_err(), "overrun rejected");
        assert!(
            seg.read_range(301, 0).is_err(),
            "out-of-bounds start rejected"
        );
    }

    #[test]
    fn segmented_every_prefix_fails_closed() {
        let payload: Vec<u8> = (0..200).map(|i| i as u8).collect();
        let seg = SegmentedBytes::from_payload(&payload, 32);
        let bytes = seg.as_bytes();
        for cut in 0..bytes.len() {
            assert!(
                SegmentedBytes::parse(bytes[..cut].to_vec()).is_err(),
                "parse succeeded on {cut}-byte prefix"
            );
        }
    }

    #[test]
    fn segmented_bit_flips_are_detected() {
        let payload: Vec<u8> = (0..100).map(|i| i as u8).collect();
        let seg = SegmentedBytes::from_payload(&payload, 32);
        let bytes = seg.as_bytes();
        for at in 0..bytes.len() {
            let mut corrupt = bytes.to_vec();
            corrupt[at] ^= 0x40;
            // Either structural parsing or eager payload verification
            // must notice any single-bit flip.
            assert!(
                SegmentedBytes::parse_verified(corrupt).is_err(),
                "flip at byte {at} went unnoticed"
            );
        }
    }

    #[test]
    fn segmented_lazy_verification_is_per_segment() {
        let payload: Vec<u8> = (0..128).map(|i| i as u8).collect();
        let seg = SegmentedBytes::from_payload(&payload, 32);
        // Corrupt the last segment's payload in place.
        let mut bytes = seg.as_bytes().to_vec();
        let (payload_off, _) = seg.segments[3];
        bytes[payload_off] ^= 0xff;
        let corrupt = SegmentedBytes::parse(bytes).unwrap();
        // Lazy parse succeeds; untouched ranges still read fine...
        assert_eq!(corrupt.read_range(0, 96).unwrap(), payload[..96]);
        // ...but touching the corrupt segment fails closed,
        let err = corrupt.read_range(96, 32).unwrap_err();
        assert!(err.msg.contains("checksum"), "{err}");
        // and a caller that claims the segment is already verified gets
        // the raw (corrupt) bytes — the contract the store's
        // verified-bitmap optimization rests on.
        let mut asked = Vec::new();
        let skipped = corrupt
            .read_range_with(96, 32, |i| {
                asked.push(i);
                false
            })
            .unwrap();
        assert_eq!(asked, vec![3]);
        assert_ne!(skipped, payload[96..128]);
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
