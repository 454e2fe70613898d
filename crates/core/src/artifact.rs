//! Serializable phase artifacts of the reproduction session.
//!
//! Each phase of a [`ReproSession`](crate::ReproSession) produces an
//! owned, inspectable artifact struct — the reverse-engineered execution
//! index, the alignment plus passing-run log and aligned dump, the dump
//! delta, the ranked CSV accesses, and the search result with the whole
//! report. Every artifact is encodable/decodable on the
//! [`mcr_dump::wire`] format, so the expensive intermediates are
//! first-class values that can be stored, shipped between processes, and
//! resumed — not locals inside one opaque pipeline call.
//!
//! Framing: every artifact byte string starts with the 4-byte magic
//! `MCRA`, a format version, and a kind tag, so artifacts of different
//! phases cannot be confused for one another. Decoding rejects trailing
//! bytes, unknown tags, and truncation with [`DecodeError`].

use crate::pipeline::ReproReport;
use mcr_analysis::PredKey;
use mcr_dump::wire::{Reader, Writer};
use mcr_dump::{DecodeError, PathRoot, RefPath};
use mcr_index::{AlignSignal, Alignment, ExecutionIndex, IndexEntry};
use mcr_lang::{CondGroupId, FuncId, GlobalId, LocalId, Pc, StmtId};
use mcr_search::{
    AnnotatedCandidate, CandidateKind, CoarseLoc, PassingRunInfo, PreemptionPoint, SearchResult,
    SharedAccess,
};
use mcr_slice::{CsvAccess, RankedAccess};
use mcr_vm::{MemLoc, ObjId, ThreadId};

const MAGIC: &[u8; 4] = b"MCRA";
// v2: the delta artifact holds the CSV-access projection of the
// dependence trace instead of the whole trace.
// v3: the alignment artifact carries the aligned dump.
// v4: no artifact carries a wall-clock duration.
// v5: the search artifact carries the whole report.
const VERSION: u8 = 5;

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
}

/// Phase 2 output: the aligned point, the passing run's sync/access
/// log, and the aligned dump.
#[derive(Debug, Clone, PartialEq)]
pub struct AlignmentArtifact {
    /// The alignment found.
    pub alignment: Alignment,
    /// True when the deterministic passing run itself crashed with the
    /// target failure (not a Heisenbug — no search needed).
    pub deterministic_repro: bool,
    /// Preemption candidates and shared accesses of the passing run.
    pub passing_run: PassingRunInfo,
    /// The executing statement of each shared store, by step, whose
    /// event carries another pc: a return value stored into the caller's
    /// destination, stamped with the caller's pc. Strictly increasing
    /// steps.
    pub return_stores: Vec<(u64, Pc)>,
    /// Steps the passing run had executed when it stood at the aligned
    /// point (one past [`Alignment::step`], unless the run ended first).
    pub aligned_steps: u64,
    /// The core dump taken at the aligned point, encoded with
    /// [`mcr_dump::encode`]. Kept as bytes: rehydrating the artifact
    /// does not decode a dump only the diff phase reads.
    pub aligned_dump: Vec<u8>,
}

/// Phase 3 output: the dump comparison — critical shared variables plus
/// the passing run's accesses to them up to the aligned point, projected
/// out of the align phase's log (temporal strategy) or out of a sliced
/// dependence trace (dependence strategy). No trace is kept.
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
    /// Trace serial of the aligned point, which is its VM step (0 when
    /// the run executed nothing).
    pub aligned_serial: u64,
    /// The passing run's accesses to the CSV locations, in trace order
    /// (feeds the rank phase). Under
    /// [`Strategy::Dependence`](mcr_slice::Strategy::Dependence) each
    /// carries its backward-slice distance from the aligned point.
    pub csv_accesses: Vec<CsvAccess>,
}

/// Phase 4 output: the prioritized CSV accesses.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedAccessesArtifact {
    /// Prioritized accesses to the critical shared variables, in step
    /// order (the search looks priorities up by binary search).
    pub ranked: Vec<RankedAccess>,
}

/// Phase 5 output: the final report, the schedule search result
/// together with what the earlier phases contribute to it. The report
/// reads this artifact alone, so a session that rehydrates the search
/// from a store needs no other artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchArtifact {
    /// The report. Its `search` field is the search result (possibly
    /// partial, when cancelled or cut off).
    pub report: ReproReport,
}

// ---------------------------------------------------------------------
// Shared component codecs. (Program counters and memory locations go
// through the public `wire` codecs — `Writer::pc` / `Reader::pc` and
// `Writer::memloc` / `Reader::memloc` — shared with the dump format;
// only artifact-specific composites live here.)

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

fn write_index(w: &mut Writer, index: &Option<ExecutionIndex>) {
    match index {
        None => w.bool(false),
        Some(idx) => {
            w.bool(true);
            w.uvarint(idx.entries.len() as u64);
            for e in &idx.entries {
                write_index_entry(w, e);
            }
        }
    }
}

fn read_index(r: &mut Reader<'_>) -> Result<Option<ExecutionIndex>, DecodeError> {
    if !r.bool()? {
        return Ok(None);
    }
    let n = r.len("index entries")?;
    let mut entries = Vec::with_capacity(n.min(65536));
    for _ in 0..n {
        entries.push(read_index_entry(r)?);
    }
    Ok(Some(ExecutionIndex::new(entries)))
}

fn write_alignment(w: &mut Writer, a: &Alignment) {
    w.u8(match a.signal {
        AlignSignal::Exact => 0,
        AlignSignal::Closest => 1,
    });
    w.uvarint(a.step);
    w.uvarint(a.remaining as u64);
}

fn read_alignment(r: &mut Reader<'_>) -> Result<Alignment, DecodeError> {
    let signal = match r.u8()? {
        0 => AlignSignal::Exact,
        1 => AlignSignal::Closest,
        t => return r.err(format!("bad align signal tag {t}")),
    };
    Ok(Alignment {
        signal,
        step: r.uvarint()?,
        remaining: r.uvarint()? as usize,
    })
}

/// The dump comparison's report fields, in the delta and search
/// artifacts alike: the five counts (failure and aligned dump bytes,
/// variables, differences, shared variables compared), then the CSV
/// paths and their passing-run locations.
fn write_comparison(w: &mut Writer, counts: [usize; 5], paths: &[RefPath], locs: &[MemLoc]) {
    for n in counts {
        w.uvarint(n as u64);
    }
    w.uvarint(paths.len() as u64);
    for p in paths {
        write_refpath(w, p);
    }
    w.uvarint(locs.len() as u64);
    for &l in locs {
        w.memloc(l);
    }
}

type Comparison = ([usize; 5], Vec<RefPath>, Vec<MemLoc>);

fn read_comparison(r: &mut Reader<'_>) -> Result<Comparison, DecodeError> {
    let mut counts = [0; 5];
    for n in &mut counts {
        *n = r.uvarint()? as usize;
    }
    let n = r.len("csv paths")?;
    let mut paths = Vec::with_capacity(n.min(65536));
    for _ in 0..n {
        paths.push(read_refpath(r)?);
    }
    let n = r.len("csv locs")?;
    let mut locs = Vec::with_capacity(n.min(65536));
    for _ in 0..n {
        locs.push(r.memloc()?);
    }
    Ok((counts, paths, locs))
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
    w.memloc(a.loc);
    w.bool(a.is_write);
    w.uvarint(a.priority as u64);
}

fn read_ranked(r: &mut Reader<'_>) -> Result<RankedAccess, DecodeError> {
    Ok(RankedAccess {
        serial: r.uvarint()?,
        step: r.uvarint()?,
        tid: ThreadId(r.uvarint()? as u32),
        pc: r.pc()?,
        loc: r.memloc()?,
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
    // Sorted, so the byte layout is canonical.
    w.uvarint(c.access_locs.len() as u64);
    for &l in &c.access_locs {
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
    let mut access_locs = Vec::with_capacity(n.min(65536));
    for _ in 0..n {
        access_locs.push(read_coarse(r)?);
    }
    access_locs.sort_unstable();
    access_locs.dedup();
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
        cut_off: r.bool()?,
        cancelled: r.bool()?,
    })
}

fn write_csv_access(w: &mut Writer, a: &CsvAccess) {
    w.uvarint(a.serial);
    w.uvarint(a.step);
    w.uvarint(a.tid.0 as u64);
    w.pc(a.pc);
    w.memloc(a.loc);
    w.bool(a.is_write);
    w.opt_uvarint(a.distance.map(u64::from));
}

fn read_csv_access(r: &mut Reader<'_>) -> Result<CsvAccess, DecodeError> {
    Ok(CsvAccess {
        serial: r.uvarint()?,
        step: r.uvarint()?,
        tid: ThreadId(r.uvarint()? as u32),
        pc: r.pc()?,
        loc: r.memloc()?,
        is_write: r.bool()?,
        distance: r.opt_uvarint()?.map(|d| d as u32),
    })
}

// ---------------------------------------------------------------------
// Artifact codecs.

impl FailureIndexArtifact {
    /// Serializes the artifact to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        frame(Kind::Index, |w| write_index(w, &self.index))
    }

    /// Parses an artifact from bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated or malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = unframe(bytes, Kind::Index)?;
        let index = read_index(&mut r)?;
        r.finish()?;
        Ok(FailureIndexArtifact { index })
    }
}

impl AlignmentArtifact {
    /// Serializes the artifact to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        frame(Kind::Alignment, |w| {
            write_alignment(w, &self.alignment);
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
                w.memloc(a.loc);
                w.bool(a.is_write);
            }
            w.uvarint(info.total_steps);
            w.uvarint(self.return_stores.len() as u64);
            for &(step, pc) in &self.return_stores {
                w.uvarint(step);
                w.pc(pc);
            }
            w.uvarint(self.aligned_steps);
            w.bytes(&self.aligned_dump);
        })
    }

    /// Parses an artifact from bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated or malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = unframe(bytes, Kind::Alignment)?;
        let alignment = read_alignment(&mut r)?;
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
                loc: r.memloc()?,
                is_write: r.bool()?,
            });
        }
        // The search annotates the run by binary searches, which need
        // both logs in step order, as the passing run records them.
        if !candidates.windows(2).all(|w| w[0].step <= w[1].step)
            || !shared_accesses.windows(2).all(|w| w[0].step <= w[1].step)
        {
            return r.err("passing-run log out of step order");
        }
        // The search's future-CSV map holds an entry per sync position up
        // to each thread's largest. A recorded run's ordinals count its
        // threads' syncs, each of which is a candidate.
        if candidates
            .iter()
            .any(|c| c.sync_seq as usize >= candidates.len())
        {
            return r.err("candidate sync ordinal out of range");
        }
        let total_steps = r.uvarint()?;
        let n = r.len("return stores")?;
        let mut return_stores = Vec::with_capacity(n.min(65536));
        for _ in 0..n {
            return_stores.push((r.uvarint()?, r.pc()?));
        }
        if !return_stores.windows(2).all(|w| w[0].0 < w[1].0) {
            return r.err("return stores out of step order");
        }
        let aligned_steps = r.uvarint()?;
        if aligned_steps > total_steps {
            return r.err("aligned point past the end of the passing run");
        }
        let aligned_dump = r.bytes()?.to_vec();
        r.finish()?;
        Ok(AlignmentArtifact {
            alignment,
            deterministic_repro,
            passing_run: PassingRunInfo {
                candidates,
                shared_accesses,
                total_steps,
            },
            return_stores,
            aligned_steps,
            aligned_dump,
        })
    }
}

impl DumpDeltaArtifact {
    /// Serializes the artifact to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        frame(Kind::Delta, |w| {
            let counts = [
                self.failure_dump_bytes,
                self.aligned_dump_bytes,
                self.vars,
                self.diffs,
                self.shared,
            ];
            write_comparison(w, counts, &self.csv_paths, &self.csv_locs);
            w.uvarint(self.aligned_serial);
            w.uvarint(self.csv_accesses.len() as u64);
            for a in &self.csv_accesses {
                write_csv_access(w, a);
            }
        })
    }

    /// Parses an artifact from bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated or malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = unframe(bytes, Kind::Delta)?;
        let ([failure_dump_bytes, aligned_dump_bytes, vars, diffs, shared], csv_paths, csv_locs) =
            read_comparison(&mut r)?;
        let aligned_serial = r.uvarint()?;
        let n = r.len("csv accesses")?;
        let mut csv_accesses = Vec::with_capacity(n.min(65536));
        for _ in 0..n {
            csv_accesses.push(read_csv_access(&mut r)?);
        }
        // The rank phase measures temporal distance back from the
        // aligned point, so the projection must be in trace order and
        // end there.
        if !csv_accesses.windows(2).all(|w| w[0].serial <= w[1].serial)
            || csv_accesses
                .last()
                .is_some_and(|a| a.serial > aligned_serial)
        {
            return r.err("csv accesses out of trace order");
        }
        r.finish()?;
        Ok(DumpDeltaArtifact {
            failure_dump_bytes,
            aligned_dump_bytes,
            vars,
            diffs,
            shared,
            csv_paths,
            csv_locs,
            aligned_serial,
            csv_accesses,
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
        // The search looks priorities up by binary search on the step.
        if !ranked.windows(2).all(|w| w[0].step <= w[1].step) {
            return r.err("ranked accesses out of step order");
        }
        r.finish()?;
        Ok(RankedAccessesArtifact { ranked })
    }
}

impl SearchArtifact {
    /// Serializes the artifact to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let r = &self.report;
        frame(Kind::Search, |w| {
            write_index(w, &r.index);
            write_alignment(w, &r.alignment);
            w.bool(r.deterministic_repro);
            let counts = [
                r.failure_dump_bytes,
                r.aligned_dump_bytes,
                r.vars,
                r.diffs,
                r.shared,
            ];
            write_comparison(w, counts, &r.csv_paths, &r.csv_locs);
            write_search_result(w, &r.search);
        })
    }

    /// Parses an artifact from bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated or malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = unframe(bytes, Kind::Search)?;
        let index = read_index(&mut r)?;
        let alignment = read_alignment(&mut r)?;
        let deterministic_repro = r.bool()?;
        let ([failure_dump_bytes, aligned_dump_bytes, vars, diffs, shared], csv_paths, csv_locs) =
            read_comparison(&mut r)?;
        let search = read_search_result(&mut r)?;
        r.finish()?;
        Ok(SearchArtifact {
            report: ReproReport {
                index,
                alignment,
                failure_dump_bytes,
                aligned_dump_bytes,
                vars,
                diffs,
                shared,
                csv_paths,
                csv_locs,
                search,
                deterministic_repro,
            },
        })
    }
}

/// A delta artifact in the version-1 layout, which embedded the whole
/// dependence trace (here one event that reads and writes global 0).
#[cfg(test)]
pub(crate) fn v1_delta_bytes() -> Vec<u8> {
    let x = MemLoc::Global(GlobalId(0));
    let mut w = Writer::new();
    w.raw(MAGIC);
    w.u8(1);
    w.u8(Kind::Delta as u8);
    // Dump sizes, vars, diffs, shared; no CSV paths; one CSV location.
    for n in [120, 118, 3, 1, 2, 0, 1] {
        w.uvarint(n);
    }
    w.memloc(x);
    // One trace event: serial, step, tid, pc, uses, defs, control
    // dependence and branch outcome.
    w.uvarint(1);
    w.uvarint(0);
    w.uvarint(5);
    w.uvarint(1);
    w.pc(Pc::new(FuncId(1), StmtId(2)));
    w.uvarint(1);
    w.memloc(x);
    w.opt_uvarint(None);
    w.uvarint(1);
    w.memloc(x);
    w.opt_uvarint(None);
    w.u8(0);
    for _ in 0..3 {
        w.duration(std::time::Duration::from_micros(7));
    }
    w.into_bytes()
}

/// An alignment artifact in the version-2 layout, which had no aligned
/// dump (here one read of global 0 at step 3 of a 9-step run).
#[cfg(test)]
pub(crate) fn v2_alignment_bytes() -> Vec<u8> {
    let mut w = Writer::new();
    w.raw(MAGIC);
    w.u8(2);
    w.u8(Kind::Alignment as u8);
    // Exact signal at step 5, nothing remaining, no deterministic
    // repro, no candidates.
    w.u8(0);
    w.uvarint(5);
    w.uvarint(0);
    w.bool(false);
    w.uvarint(0);
    // One shared access: step, tid, pc, loc, is_write.
    w.uvarint(1);
    w.uvarint(3);
    w.uvarint(1);
    w.pc(Pc::new(FuncId(0), StmtId(2)));
    w.memloc(MemLoc::Global(GlobalId(0)));
    w.bool(false);
    // Total steps, elapsed.
    w.uvarint(9);
    w.duration(std::time::Duration::from_micros(7));
    w.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An alignment artifact exercising every field: candidates, reads
    /// and writes in step order, a return store, and embedded dump
    /// bytes.
    fn sample_alignment() -> AlignmentArtifact {
        let access = |step, is_write| SharedAccess {
            step,
            tid: ThreadId(1),
            pc: Pc::new(FuncId(0), StmtId(2)),
            loc: MemLoc::GlobalElem(GlobalId(0), 3),
            is_write,
        };
        AlignmentArtifact {
            alignment: Alignment {
                signal: AlignSignal::Closest,
                step: 5,
                remaining: 2,
            },
            deterministic_repro: false,
            passing_run: PassingRunInfo {
                candidates: vec![PreemptionPoint {
                    tid: ThreadId(1),
                    sync_seq: 0,
                    kind: CandidateKind::ThreadStart,
                    step: 1,
                    pc: None,
                }],
                shared_accesses: vec![access(3, false), access(3, true), access(8, false)],
                total_steps: 9,
            },
            return_stores: vec![(3, Pc::new(FuncId(1), StmtId(4)))],
            aligned_steps: 6,
            aligned_dump: vec![0x4d, 0x43, 0x52, 0x44, 1, 0, 7],
        }
    }

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
        };
        let bytes = art.to_bytes();
        let back = FailureIndexArtifact::from_bytes(&bytes).unwrap();
        assert_eq!(art, back);
        assert_eq!(bytes, back.to_bytes());
    }

    #[test]
    fn kind_confusion_rejected() {
        let art = FailureIndexArtifact { index: None };
        let bytes = art.to_bytes();
        let err = AlignmentArtifact::from_bytes(&bytes).unwrap_err();
        assert!(err.msg.contains("kind"), "{err}");
    }

    #[test]
    fn trailing_bytes_rejected() {
        let art = RankedAccessesArtifact { ranked: vec![] };
        let mut bytes = art.to_bytes();
        bytes.push(0);
        assert!(RankedAccessesArtifact::from_bytes(&bytes).is_err());
    }

    #[test]
    fn passing_run_out_of_step_order_rejected() {
        let mut art = sample_alignment();
        assert_eq!(AlignmentArtifact::from_bytes(&art.to_bytes()).unwrap(), art);
        art.passing_run.shared_accesses.swap(0, 2);
        let err = AlignmentArtifact::from_bytes(&art.to_bytes()).unwrap_err();
        assert!(err.msg.contains("step order"), "{err}");
    }

    #[test]
    fn sync_ordinal_past_the_candidates_rejected() {
        let mut art = sample_alignment();
        art.passing_run.candidates[0].sync_seq = 1;
        let err = AlignmentArtifact::from_bytes(&art.to_bytes()).unwrap_err();
        assert!(err.msg.contains("sync ordinal"), "{err}");
    }

    #[test]
    fn ranked_accesses_out_of_step_order_rejected() {
        let access = |step, priority| RankedAccess {
            serial: step,
            step,
            tid: ThreadId(1),
            pc: Pc::new(FuncId(0), StmtId(2)),
            loc: MemLoc::Global(GlobalId(0)),
            is_write: false,
            priority,
        };
        let mut art = RankedAccessesArtifact {
            ranked: vec![access(3, 2), access(3, 3), access(8, 1)],
        };
        assert_eq!(
            RankedAccessesArtifact::from_bytes(&art.to_bytes()).unwrap(),
            art
        );
        art.ranked.swap(1, 2);
        let err = RankedAccessesArtifact::from_bytes(&art.to_bytes()).unwrap_err();
        assert!(err.msg.contains("step order"), "{err}");
    }

    #[test]
    fn aligned_point_past_the_run_rejected() {
        let mut art = sample_alignment();
        art.aligned_steps = art.passing_run.total_steps + 1;
        let err = AlignmentArtifact::from_bytes(&art.to_bytes()).unwrap_err();
        assert!(err.msg.contains("past the end"), "{err}");
    }

    #[test]
    fn return_stores_out_of_step_order_rejected() {
        let mut art = sample_alignment();
        let store = art.return_stores[0];
        art.return_stores.push(store);
        let err = AlignmentArtifact::from_bytes(&art.to_bytes()).unwrap_err();
        assert!(err.msg.contains("step order"), "{err}");
    }

    #[test]
    fn alignment_artifact_round_trips_and_survives_corruption() {
        let art = sample_alignment();
        let bytes = art.to_bytes();
        let back = AlignmentArtifact::from_bytes(&bytes).unwrap();
        assert_eq!(art, back);
        assert_eq!(bytes, back.to_bytes());
        // Every truncation and every single-byte corruption decodes or
        // fails with a `DecodeError`; none panics, and whatever decodes
        // re-encodes to an artifact that decodes to itself.
        for len in 0..bytes.len() {
            assert!(AlignmentArtifact::from_bytes(&bytes[..len]).is_err());
        }
        let mut corrupt = bytes.clone();
        for i in 0..bytes.len() {
            for mask in 1..=255u8 {
                corrupt[i] = bytes[i] ^ mask;
                if let Ok(a) = AlignmentArtifact::from_bytes(&corrupt) {
                    assert_eq!(AlignmentArtifact::from_bytes(&a.to_bytes()).unwrap(), a);
                }
            }
            corrupt[i] = bytes[i];
        }
    }

    /// Version-3 artifacts, which ended in the phase's wall-clock
    /// durations, are refused rather than misread.
    #[test]
    fn version_3_artifacts_rejected() {
        let mut bytes = FailureIndexArtifact { index: None }.to_bytes();
        bytes[MAGIC.len()] = 3;
        let err = FailureIndexArtifact::from_bytes(&bytes).unwrap_err();
        assert!(err.msg.contains("artifact version 3"), "{err}");
        let mut bytes = sample_alignment().to_bytes();
        bytes[MAGIC.len()] = 3;
        let err = AlignmentArtifact::from_bytes(&bytes).unwrap_err();
        assert!(err.msg.contains("artifact version 3"), "{err}");
    }

    #[test]
    fn version_2_alignment_artifact_rejected() {
        let err = AlignmentArtifact::from_bytes(&v2_alignment_bytes()).unwrap_err();
        assert!(err.msg.contains("artifact version 2"), "{err}");
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
        let (align, delta) = (sample_alignment(), sample_delta());
        let art = SearchArtifact {
            report: ReproReport {
                index: Some(ExecutionIndex::new(vec![
                    IndexEntry::Func(FuncId(3)),
                    IndexEntry::Stmt(Pc::new(FuncId(3), StmtId(9))),
                ])),
                alignment: align.alignment,
                failure_dump_bytes: delta.failure_dump_bytes,
                aligned_dump_bytes: delta.aligned_dump_bytes,
                vars: delta.vars,
                diffs: delta.diffs,
                shared: delta.shared,
                csv_paths: delta.csv_paths,
                csv_locs: delta.csv_locs,
                search: SearchResult {
                    reproduced: true,
                    tries: 7,
                    combinations_tested: 3,
                    winning: Some(vec![cand]),
                    cut_off: false,
                    cancelled: false,
                },
                deterministic_repro: true,
            },
        };
        let bytes = art.to_bytes();
        let back = SearchArtifact::from_bytes(&bytes).unwrap();
        assert_eq!(art, back);
        assert_eq!(bytes, back.to_bytes());
        // Every cut short of the whole artifact is a decode error.
        for cut in 0..bytes.len() {
            assert!(SearchArtifact::from_bytes(&bytes[..cut]).is_err(), "{cut}");
        }
    }

    /// A delta artifact exercising every field: all CSV path roots, all
    /// memory-location kinds, reads and writes, on- and off-slice
    /// accesses.
    fn sample_delta() -> DumpDeltaArtifact {
        let access = |serial, loc, is_write, distance| CsvAccess {
            serial,
            step: serial * 3 + 1,
            tid: ThreadId((serial % 3) as u32),
            pc: Pc::new(FuncId(2), StmtId(serial as u32)),
            loc,
            is_write,
            distance,
        };
        DumpDeltaArtifact {
            failure_dump_bytes: 1234,
            aligned_dump_bytes: 1180,
            vars: 40,
            diffs: 3,
            shared: 12,
            csv_paths: vec![
                RefPath {
                    root: PathRoot::Global(GlobalId(0)),
                    steps: vec![],
                },
                RefPath {
                    root: PathRoot::GlobalElem(GlobalId(1), 4),
                    steps: vec![0, 2],
                },
                RefPath {
                    root: PathRoot::FocusLocal(LocalId(3)),
                    steps: vec![1],
                },
                RefPath {
                    root: PathRoot::Register,
                    steps: vec![],
                },
            ],
            csv_locs: vec![
                MemLoc::Global(GlobalId(0)),
                MemLoc::GlobalElem(GlobalId(1), 4),
                MemLoc::Heap(ObjId(2), 1),
            ],
            aligned_serial: 900,
            csv_accesses: vec![
                access(17, MemLoc::Global(GlobalId(0)), false, Some(4)),
                access(17, MemLoc::Global(GlobalId(0)), true, Some(4)),
                access(300, MemLoc::GlobalElem(GlobalId(1), 4), true, None),
                access(899, MemLoc::Heap(ObjId(2), 1), false, Some(1)),
                access(900, MemLoc::Global(GlobalId(0)), false, Some(0)),
            ],
        }
    }

    #[test]
    fn delta_artifact_round_trips_and_survives_corruption() {
        let art = sample_delta();
        let bytes = art.to_bytes();
        let back = DumpDeltaArtifact::from_bytes(&bytes).unwrap();
        assert_eq!(art, back);
        assert_eq!(bytes, back.to_bytes());
        // Every truncation and every single-byte corruption decodes or
        // fails with a `DecodeError`; none panics, and whatever decodes
        // re-encodes to an artifact that decodes to itself.
        let check = |b: &[u8]| {
            if let Ok(a) = DumpDeltaArtifact::from_bytes(b) {
                assert_eq!(DumpDeltaArtifact::from_bytes(&a.to_bytes()).unwrap(), a);
            }
        };
        for len in 0..bytes.len() {
            assert!(DumpDeltaArtifact::from_bytes(&bytes[..len]).is_err());
        }
        let mut corrupt = bytes.clone();
        for i in 0..bytes.len() {
            for mask in 1..=255u8 {
                corrupt[i] = bytes[i] ^ mask;
                check(&corrupt);
            }
            corrupt[i] = bytes[i];
        }
    }

    #[test]
    fn delta_projection_out_of_trace_order_rejected() {
        let mut art = sample_delta();
        art.csv_accesses.swap(0, 2);
        let err = DumpDeltaArtifact::from_bytes(&art.to_bytes()).unwrap_err();
        assert!(err.msg.contains("trace order"), "{err}");
        let mut art = sample_delta();
        art.aligned_serial = 899;
        let err = DumpDeltaArtifact::from_bytes(&art.to_bytes()).unwrap_err();
        assert!(err.msg.contains("trace order"), "{err}");
    }

    #[test]
    fn version_1_delta_artifact_rejected() {
        let err = DumpDeltaArtifact::from_bytes(&v1_delta_bytes()).unwrap_err();
        assert!(err.msg.contains("artifact version 1"), "{err}");
    }
}
