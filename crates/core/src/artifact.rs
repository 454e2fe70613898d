//! Serializable phase artifacts of the reproduction session.
//!
//! Each phase of a [`ReproSession`](crate::ReproSession) produces an
//! owned, inspectable artifact struct — the reverse-engineered execution
//! index, the alignment plus passing-run log, the dump delta, the ranked
//! CSV accesses, and the search result. Every artifact is
//! encodable/decodable on the [`mcr_dump::wire`] format, so the
//! expensive intermediates are first-class
//! values that can be stored, shipped between processes, and resumed —
//! not locals inside one opaque pipeline call.
//!
//! Framing: every artifact byte string starts with the 4-byte magic
//! `MCRA`, a format version, and a kind tag, so artifacts of different
//! phases cannot be confused for one another. Decoding rejects trailing
//! bytes, unknown tags, and truncation with [`DecodeError`].

use mcr_analysis::PredKey;
use mcr_dump::wire::{Reader, Writer};
use mcr_dump::{DecodeError, PathRoot, RefPath};
use mcr_index::{AlignSignal, Alignment, ExecutionIndex, IndexEntry};
use mcr_lang::{CondGroupId, FuncId, GlobalId, LocalId, StmtId};
use mcr_search::{
    AnnotatedCandidate, CandidateKind, CoarseLoc, PassingRunInfo, PreemptionPoint, SearchResult,
    SharedAccess,
};
use mcr_slice::{RankedAccess, Trace, TraceEvent};
use mcr_vm::{MemLoc, ObjId, ThreadId};
use std::collections::HashSet;
use std::time::Duration;

const MAGIC: &[u8; 4] = b"MCRA";
const VERSION: u8 = 1;

/// The artifact kind tags of the `MCRA` framing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Index = 0,
    Alignment = 1,
    Delta = 2,
    Ranked = 3,
    Search = 4,
}

fn frame(kind: Kind, body: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::new();
    w.raw(MAGIC);
    w.u8(VERSION);
    w.u8(kind as u8);
    body(&mut w);
    w.into_bytes()
}

fn unframe<'a>(bytes: &'a [u8], kind: Kind) -> Result<Reader<'a>, DecodeError> {
    let mut r = Reader::new(bytes);
    r.expect_magic(MAGIC)?;
    let version = r.u8()?;
    if version != VERSION {
        return r.err(format!("unsupported artifact version {version}"));
    }
    let tag = r.u8()?;
    if tag != kind as u8 {
        return r.err(format!("artifact kind {tag} where {} expected", kind as u8));
    }
    Ok(r)
}

/// Phase 1 output: the reverse-engineered failure execution index.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureIndexArtifact {
    /// The failure index (`None` under
    /// [`AlignMode::InstructionCount`](crate::AlignMode::InstructionCount),
    /// which skips reverse engineering).
    pub index: Option<ExecutionIndex>,
    /// Wall-clock time the phase took.
    pub elapsed: Duration,
}

/// Phase 2 output: the aligned point plus the passing run's sync/access
/// log.
#[derive(Debug, Clone, PartialEq)]
pub struct AlignmentArtifact {
    /// The alignment found.
    pub alignment: Alignment,
    /// True when the deterministic passing run itself crashed with the
    /// target failure (not a Heisenbug — no search needed).
    pub deterministic_repro: bool,
    /// Preemption candidates and shared accesses of the passing run.
    pub passing_run: PassingRunInfo,
    /// Wall-clock time the phase took.
    pub elapsed: Duration,
}

/// Phase 3 output: the dump comparison — critical shared variables plus
/// the dependence trace captured at the aligned point.
#[derive(Debug, Clone, PartialEq)]
pub struct DumpDeltaArtifact {
    /// Encoded size of the failure dump in bytes.
    pub failure_dump_bytes: usize,
    /// Encoded size of the aligned dump in bytes.
    pub aligned_dump_bytes: usize,
    /// Variables reachable from the failing thread in the failure dump.
    pub vars: usize,
    /// Variables with differing values across the two dumps.
    pub diffs: usize,
    /// Shared variables compared.
    pub shared: usize,
    /// Critical shared variables (reference paths).
    pub csv_paths: Vec<RefPath>,
    /// CSV locations resolved in the passing run.
    pub csv_locs: Vec<MemLoc>,
    /// The dependence trace of the replay (feeds the rank phase).
    pub trace: Trace,
    /// Wall-clock time of the replay to the aligned point.
    pub replay_elapsed: Duration,
    /// Wall-clock time encoding, decoding, and traversing both dumps.
    pub parse_elapsed: Duration,
    /// Wall-clock time comparing the two variable maps.
    pub diff_elapsed: Duration,
}

/// Phase 4 output: the prioritized CSV accesses.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedAccessesArtifact {
    /// Prioritized accesses to the critical shared variables.
    pub ranked: Vec<RankedAccess>,
    /// Wall-clock time the phase took.
    pub elapsed: Duration,
}

/// Phase 5 output: the schedule search result.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchArtifact {
    /// The search result (possibly partial, when cancelled or cut off).
    pub result: SearchResult,
    /// Wall-clock time the phase took.
    pub elapsed: Duration,
}

// ---------------------------------------------------------------------
// Shared component codecs. (Program counters go through the public
// `wire` pc codec — `Writer::pc` / `Reader::pc` — shared with the dump
// format; only artifact-specific composites live here.)

fn write_memloc(w: &mut Writer, loc: MemLoc) {
    match loc {
        MemLoc::Global(g) => {
            w.u8(0);
            w.uvarint(g.0 as u64);
        }
        MemLoc::GlobalElem(g, i) => {
            w.u8(1);
            w.uvarint(g.0 as u64);
            w.uvarint(i as u64);
        }
        MemLoc::Heap(o, i) => {
            w.u8(2);
            w.uvarint(o.0 as u64);
            w.uvarint(i as u64);
        }
        MemLoc::Local { tid, frame, local } => {
            w.u8(3);
            w.uvarint(tid.0 as u64);
            w.uvarint(frame);
            w.uvarint(local.0 as u64);
        }
    }
}

fn read_memloc(r: &mut Reader<'_>) -> Result<MemLoc, DecodeError> {
    Ok(match r.u8()? {
        0 => MemLoc::Global(GlobalId(r.uvarint()? as u32)),
        1 => MemLoc::GlobalElem(GlobalId(r.uvarint()? as u32), r.uvarint()? as u32),
        2 => MemLoc::Heap(ObjId(r.uvarint()? as u32), r.uvarint()? as u32),
        3 => MemLoc::Local {
            tid: ThreadId(r.uvarint()? as u32),
            frame: r.uvarint()?,
            local: LocalId(r.uvarint()? as u32),
        },
        t => return r.err(format!("bad memloc tag {t}")),
    })
}

fn write_coarse(w: &mut Writer, loc: CoarseLoc) {
    match loc {
        CoarseLoc::Global(g) => {
            w.u8(0);
            w.uvarint(g.0 as u64);
        }
        CoarseLoc::Heap(o) => {
            w.u8(1);
            w.uvarint(o.0 as u64);
        }
        CoarseLoc::Private => w.u8(2),
    }
}

fn read_coarse(r: &mut Reader<'_>) -> Result<CoarseLoc, DecodeError> {
    Ok(match r.u8()? {
        0 => CoarseLoc::Global(GlobalId(r.uvarint()? as u32)),
        1 => CoarseLoc::Heap(ObjId(r.uvarint()? as u32)),
        2 => CoarseLoc::Private,
        t => return r.err(format!("bad coarse-loc tag {t}")),
    })
}

fn write_refpath(w: &mut Writer, path: &RefPath) {
    match path.root {
        PathRoot::Global(g) => {
            w.u8(0);
            w.uvarint(g.0 as u64);
        }
        PathRoot::GlobalElem(g, i) => {
            w.u8(1);
            w.uvarint(g.0 as u64);
            w.uvarint(i as u64);
        }
        PathRoot::FocusLocal(l) => {
            w.u8(2);
            w.uvarint(l.0 as u64);
        }
        PathRoot::Register => w.u8(3),
    }
    w.uvarint(path.steps.len() as u64);
    for s in &path.steps {
        w.uvarint(*s as u64);
    }
}

fn read_refpath(r: &mut Reader<'_>) -> Result<RefPath, DecodeError> {
    let root = match r.u8()? {
        0 => PathRoot::Global(GlobalId(r.uvarint()? as u32)),
        1 => PathRoot::GlobalElem(GlobalId(r.uvarint()? as u32), r.uvarint()? as u32),
        2 => PathRoot::FocusLocal(LocalId(r.uvarint()? as u32)),
        3 => PathRoot::Register,
        t => return r.err(format!("bad path root tag {t}")),
    };
    let n = r.len("refpath steps")?;
    let mut steps = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        steps.push(r.uvarint()? as u32);
    }
    Ok(RefPath { root, steps })
}

fn write_index_entry(w: &mut Writer, entry: &IndexEntry) {
    match entry {
        IndexEntry::Func(f) => {
            w.u8(0);
            w.uvarint(f.0 as u64);
        }
        IndexEntry::Branch { func, key, outcome } => {
            w.u8(1);
            w.uvarint(func.0 as u64);
            match key {
                PredKey::Stmt(s) => {
                    w.u8(0);
                    w.uvarint(s.0 as u64);
                }
                PredKey::Cluster(g) => {
                    w.u8(1);
                    w.uvarint(g.0 as u64);
                }
            }
            w.bool(*outcome);
        }
        IndexEntry::Stmt(pc) => {
            w.u8(2);
            w.pc(*pc);
        }
    }
}

fn read_index_entry(r: &mut Reader<'_>) -> Result<IndexEntry, DecodeError> {
    Ok(match r.u8()? {
        0 => IndexEntry::Func(FuncId(r.uvarint()? as u32)),
        1 => {
            let func = FuncId(r.uvarint()? as u32);
            let key = match r.u8()? {
                0 => PredKey::Stmt(StmtId(r.uvarint()? as u32)),
                1 => PredKey::Cluster(CondGroupId(r.uvarint()? as u32)),
                t => return r.err(format!("bad pred key tag {t}")),
            };
            let outcome = r.bool()?;
            IndexEntry::Branch { func, key, outcome }
        }
        2 => IndexEntry::Stmt(r.pc()?),
        t => return r.err(format!("bad index entry tag {t}")),
    })
}

fn candidate_kind_tag(kind: CandidateKind) -> u8 {
    match kind {
        CandidateKind::ThreadStart => 0,
        CandidateKind::BeforeAcquire => 1,
        CandidateKind::AfterRelease => 2,
        CandidateKind::AfterSpawn => 3,
        CandidateKind::BeforeJoin => 4,
        CandidateKind::BeforeFlush => 5,
    }
}

fn candidate_kind_from_tag(t: u8) -> Option<CandidateKind> {
    Some(match t {
        0 => CandidateKind::ThreadStart,
        1 => CandidateKind::BeforeAcquire,
        2 => CandidateKind::AfterRelease,
        3 => CandidateKind::AfterSpawn,
        4 => CandidateKind::BeforeJoin,
        5 => CandidateKind::BeforeFlush,
        _ => return None,
    })
}

fn write_point(w: &mut Writer, p: &PreemptionPoint) {
    w.uvarint(p.tid.0 as u64);
    w.uvarint(p.sync_seq as u64);
    w.u8(candidate_kind_tag(p.kind));
    w.uvarint(p.step);
    w.opt_pc(p.pc);
}

fn read_point(r: &mut Reader<'_>) -> Result<PreemptionPoint, DecodeError> {
    let tid = ThreadId(r.uvarint()? as u32);
    let sync_seq = r.uvarint()? as u32;
    let tag = r.u8()?;
    let Some(kind) = candidate_kind_from_tag(tag) else {
        return r.err(format!("bad candidate kind tag {tag}"));
    };
    let step = r.uvarint()?;
    let pc = r.opt_pc()?;
    Ok(PreemptionPoint {
        tid,
        sync_seq,
        kind,
        step,
        pc,
    })
}

fn write_ranked(w: &mut Writer, a: &RankedAccess) {
    w.uvarint(a.serial);
    w.uvarint(a.step);
    w.uvarint(a.tid.0 as u64);
    w.pc(a.pc);
    write_memloc(w, a.loc);
    w.bool(a.is_write);
    w.uvarint(a.priority as u64);
}

fn read_ranked(r: &mut Reader<'_>) -> Result<RankedAccess, DecodeError> {
    Ok(RankedAccess {
        serial: r.uvarint()?,
        step: r.uvarint()?,
        tid: ThreadId(r.uvarint()? as u32),
        pc: r.pc()?,
        loc: read_memloc(r)?,
        is_write: r.bool()?,
        priority: r.uvarint()? as u32,
    })
}

fn write_candidate(w: &mut Writer, c: &AnnotatedCandidate) {
    write_point(w, &c.point);
    w.uvarint(c.accesses.len() as u64);
    for a in &c.accesses {
        write_ranked(w, a);
    }
    w.uvarint(c.best_priority as u64);
    // HashSet → sorted for a canonical byte layout.
    let mut locs: Vec<CoarseLoc> = c.access_locs.iter().copied().collect();
    locs.sort_unstable();
    w.uvarint(locs.len() as u64);
    for l in locs {
        write_coarse(w, l);
    }
}

fn read_candidate(r: &mut Reader<'_>) -> Result<AnnotatedCandidate, DecodeError> {
    let point = read_point(r)?;
    let n = r.len("candidate accesses")?;
    let mut accesses = Vec::with_capacity(n.min(65536));
    for _ in 0..n {
        accesses.push(read_ranked(r)?);
    }
    let best_priority = r.uvarint()? as u32;
    let n = r.len("candidate locs")?;
    let mut access_locs = HashSet::with_capacity(n.min(65536));
    for _ in 0..n {
        access_locs.insert(read_coarse(r)?);
    }
    Ok(AnnotatedCandidate {
        point,
        accesses,
        best_priority,
        access_locs,
    })
}

fn write_search_result(w: &mut Writer, s: &SearchResult) {
    w.bool(s.reproduced);
    w.uvarint(s.tries);
    w.uvarint(s.combinations_tested);
    match &s.winning {
        None => w.bool(false),
        Some(set) => {
            w.bool(true);
            w.uvarint(set.len() as u64);
            for c in set {
                write_candidate(w, c);
            }
        }
    }
    w.duration(s.wall_time);
    w.bool(s.cut_off);
    w.bool(s.cancelled);
}

fn read_search_result(r: &mut Reader<'_>) -> Result<SearchResult, DecodeError> {
    let reproduced = r.bool()?;
    let tries = r.uvarint()?;
    let combinations_tested = r.uvarint()?;
    let winning = if r.bool()? {
        let n = r.len("winning set")?;
        let mut set = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            set.push(read_candidate(r)?);
        }
        Some(set)
    } else {
        None
    };
    Ok(SearchResult {
        reproduced,
        tries,
        combinations_tested,
        winning,
        wall_time: r.duration()?,
        cut_off: r.bool()?,
        cancelled: r.bool()?,
    })
}

// The trace-event byte layout is canonical in `mcr_slice` (the
// segment-spilling sink seals frames on it); the diff artifact reuses it
// verbatim so spilled frames and cached artifacts stay bit-identical.
fn write_trace_event(w: &mut Writer, e: &TraceEvent) {
    mcr_slice::write_trace_event(w, e);
}

fn read_trace_event(r: &mut Reader<'_>) -> Result<TraceEvent, DecodeError> {
    mcr_slice::read_trace_event(r)
}

// ---------------------------------------------------------------------
// Artifact codecs.

impl FailureIndexArtifact {
    /// Serializes the artifact to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        frame(Kind::Index, |w| {
            match &self.index {
                None => w.bool(false),
                Some(idx) => {
                    w.bool(true);
                    w.uvarint(idx.entries.len() as u64);
                    for e in &idx.entries {
                        write_index_entry(w, e);
                    }
                }
            }
            w.duration(self.elapsed);
        })
    }

    /// Parses an artifact from bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated or malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = unframe(bytes, Kind::Index)?;
        let index = if r.bool()? {
            let n = r.len("index entries")?;
            let mut entries = Vec::with_capacity(n.min(65536));
            for _ in 0..n {
                entries.push(read_index_entry(&mut r)?);
            }
            Some(ExecutionIndex::new(entries))
        } else {
            None
        };
        let elapsed = r.duration()?;
        r.finish()?;
        Ok(FailureIndexArtifact { index, elapsed })
    }
}

impl AlignmentArtifact {
    /// Serializes the artifact to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        frame(Kind::Alignment, |w| {
            w.u8(match self.alignment.signal {
                AlignSignal::Exact => 0,
                AlignSignal::Closest => 1,
            });
            w.uvarint(self.alignment.step);
            w.uvarint(self.alignment.remaining as u64);
            w.bool(self.deterministic_repro);
            let info = &self.passing_run;
            w.uvarint(info.candidates.len() as u64);
            for c in &info.candidates {
                write_point(w, c);
            }
            w.uvarint(info.shared_accesses.len() as u64);
            for a in &info.shared_accesses {
                w.uvarint(a.step);
                w.uvarint(a.tid.0 as u64);
                w.pc(a.pc);
                write_memloc(w, a.loc);
                w.bool(a.is_write);
            }
            w.uvarint(info.total_steps);
            w.duration(self.elapsed);
        })
    }

    /// Parses an artifact from bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated or malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = unframe(bytes, Kind::Alignment)?;
        let signal = match r.u8()? {
            0 => AlignSignal::Exact,
            1 => AlignSignal::Closest,
            t => return r.err(format!("bad align signal tag {t}")),
        };
        let alignment = Alignment {
            signal,
            step: r.uvarint()?,
            remaining: r.uvarint()? as usize,
        };
        let deterministic_repro = r.bool()?;
        let n = r.len("candidates")?;
        let mut candidates = Vec::with_capacity(n.min(65536));
        for _ in 0..n {
            candidates.push(read_point(&mut r)?);
        }
        let n = r.len("shared accesses")?;
        let mut shared_accesses = Vec::with_capacity(n.min(65536));
        for _ in 0..n {
            shared_accesses.push(SharedAccess {
                step: r.uvarint()?,
                tid: ThreadId(r.uvarint()? as u32),
                pc: r.pc()?,
                loc: read_memloc(&mut r)?,
                is_write: r.bool()?,
            });
        }
        let total_steps = r.uvarint()?;
        let elapsed = r.duration()?;
        r.finish()?;
        Ok(AlignmentArtifact {
            alignment,
            deterministic_repro,
            passing_run: PassingRunInfo {
                candidates,
                shared_accesses,
                total_steps,
            },
            elapsed,
        })
    }
}

impl DumpDeltaArtifact {
    /// Serializes the artifact to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        frame(Kind::Delta, |w| {
            w.uvarint(self.failure_dump_bytes as u64);
            w.uvarint(self.aligned_dump_bytes as u64);
            w.uvarint(self.vars as u64);
            w.uvarint(self.diffs as u64);
            w.uvarint(self.shared as u64);
            w.uvarint(self.csv_paths.len() as u64);
            for p in &self.csv_paths {
                write_refpath(w, p);
            }
            w.uvarint(self.csv_locs.len() as u64);
            for &l in &self.csv_locs {
                write_memloc(w, l);
            }
            w.uvarint(self.trace.events.len() as u64);
            for e in &self.trace.events {
                write_trace_event(w, e);
            }
            w.duration(self.replay_elapsed);
            w.duration(self.parse_elapsed);
            w.duration(self.diff_elapsed);
        })
    }

    /// Parses an artifact from bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated or malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = unframe(bytes, Kind::Delta)?;
        let failure_dump_bytes = r.uvarint()? as usize;
        let aligned_dump_bytes = r.uvarint()? as usize;
        let vars = r.uvarint()? as usize;
        let diffs = r.uvarint()? as usize;
        let shared = r.uvarint()? as usize;
        let n = r.len("csv paths")?;
        let mut csv_paths = Vec::with_capacity(n.min(65536));
        for _ in 0..n {
            csv_paths.push(read_refpath(&mut r)?);
        }
        let n = r.len("csv locs")?;
        let mut csv_locs = Vec::with_capacity(n.min(65536));
        for _ in 0..n {
            csv_locs.push(read_memloc(&mut r)?);
        }
        let n = r.len("trace events")?;
        let mut events = Vec::with_capacity(n.min(65536));
        for _ in 0..n {
            events.push(read_trace_event(&mut r)?);
        }
        let replay_elapsed = r.duration()?;
        let parse_elapsed = r.duration()?;
        let diff_elapsed = r.duration()?;
        r.finish()?;
        Ok(DumpDeltaArtifact {
            failure_dump_bytes,
            aligned_dump_bytes,
            vars,
            diffs,
            shared,
            csv_paths,
            csv_locs,
            trace: Trace { events },
            replay_elapsed,
            parse_elapsed,
            diff_elapsed,
        })
    }
}

impl RankedAccessesArtifact {
    /// Serializes the artifact to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        frame(Kind::Ranked, |w| {
            w.uvarint(self.ranked.len() as u64);
            for a in &self.ranked {
                write_ranked(w, a);
            }
            w.duration(self.elapsed);
        })
    }

    /// Parses an artifact from bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated or malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = unframe(bytes, Kind::Ranked)?;
        let n = r.len("ranked accesses")?;
        let mut ranked = Vec::with_capacity(n.min(65536));
        for _ in 0..n {
            ranked.push(read_ranked(&mut r)?);
        }
        let elapsed = r.duration()?;
        r.finish()?;
        Ok(RankedAccessesArtifact { ranked, elapsed })
    }
}

impl SearchArtifact {
    /// Serializes the artifact to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        frame(Kind::Search, |w| {
            write_search_result(w, &self.result);
            w.duration(self.elapsed);
        })
    }

    /// Parses an artifact from bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated or malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = unframe(bytes, Kind::Search)?;
        let result = read_search_result(&mut r)?;
        let elapsed = r.duration()?;
        r.finish()?;
        Ok(SearchArtifact { result, elapsed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcr_lang::Pc;

    #[test]
    fn index_artifact_round_trip() {
        let art = FailureIndexArtifact {
            index: Some(ExecutionIndex::new(vec![
                IndexEntry::Func(FuncId(3)),
                IndexEntry::Branch {
                    func: FuncId(3),
                    key: PredKey::Stmt(StmtId(7)),
                    outcome: true,
                },
                IndexEntry::Branch {
                    func: FuncId(3),
                    key: PredKey::Cluster(CondGroupId(2)),
                    outcome: false,
                },
                IndexEntry::Stmt(Pc::new(FuncId(3), StmtId(9))),
            ])),
            elapsed: Duration::from_micros(42),
        };
        let bytes = art.to_bytes();
        let back = FailureIndexArtifact::from_bytes(&bytes).unwrap();
        assert_eq!(art, back);
        assert_eq!(bytes, back.to_bytes());
    }

    #[test]
    fn kind_confusion_rejected() {
        let art = FailureIndexArtifact {
            index: None,
            elapsed: Duration::ZERO,
        };
        let bytes = art.to_bytes();
        let err = AlignmentArtifact::from_bytes(&bytes).unwrap_err();
        assert!(err.msg.contains("kind"), "{err}");
    }

    #[test]
    fn trailing_bytes_rejected() {
        let art = RankedAccessesArtifact {
            ranked: vec![],
            elapsed: Duration::ZERO,
        };
        let mut bytes = art.to_bytes();
        bytes.push(0);
        assert!(RankedAccessesArtifact::from_bytes(&bytes).is_err());
    }

    #[test]
    fn search_artifact_round_trip_with_winning_set() {
        let cand = AnnotatedCandidate {
            point: PreemptionPoint {
                tid: ThreadId(1),
                sync_seq: 3,
                kind: CandidateKind::AfterRelease,
                step: 99,
                pc: Some(Pc::new(FuncId(1), StmtId(4))),
            },
            accesses: vec![RankedAccess {
                serial: 10,
                step: 10,
                tid: ThreadId(1),
                pc: Pc::new(FuncId(1), StmtId(5)),
                loc: MemLoc::GlobalElem(GlobalId(0), 1),
                is_write: true,
                priority: 1,
            }],
            best_priority: 1,
            access_locs: [CoarseLoc::Global(GlobalId(0)), CoarseLoc::Heap(ObjId(2))]
                .into_iter()
                .collect(),
        };
        let art = SearchArtifact {
            result: SearchResult {
                reproduced: true,
                tries: 7,
                combinations_tested: 3,
                winning: Some(vec![cand]),
                wall_time: Duration::from_millis(12),
                cut_off: false,
                cancelled: false,
            },
            elapsed: Duration::from_millis(13),
        };
        let back = SearchArtifact::from_bytes(&art.to_bytes()).unwrap();
        assert_eq!(art, back);
    }
}
