//! Interprocedural static race / lockset analysis over the IR.
//!
//! The pass proves, before any schedule is ever run, that most memory
//! accesses in a program cannot participate in a data race — they are
//! thread-local ([`RaceVerdict::Local`]), execute while only one thread
//! exists ([`RaceVerdict::Solo`]), or every conflicting concurrent
//! access shares a must-held lock ([`RaceVerdict::Guarded`]). The
//! remaining sites are flagged [`RaceVerdict::MayRace`] (with a witness
//! pair) or [`RaceVerdict::Unknown`] (lock identity untrackable).
//!
//! The analysis runs in two steps:
//!
//! * [`FuncRaceSummary::of`] computes a **content-local** per-function
//!   summary — escape-classified access sites, a must-lockset forward
//!   dataflow on the [`Cfg`], spawn/call/acquire site lists, and
//!   "may a spawn / call have happened before this statement" facts.
//!   The summary depends only on the function body.
//! * [`RaceAnalysis::compose`] combines the summaries bottom-up with a
//!   cheap interprocedural algebra (call-closure of spawn/release
//!   effects, a decreasing `entry_solo` fixpoint, thread-root
//!   reachability) and assigns every access site its verdict.
//!
//! Soundness contract (what the search pruning relies on): a statement
//! is reported *Solo* only if on **every** path reaching it no spawn
//! can have executed — i.e. thread 0 is provably the only live thread.
//! Locksets are must-sets (under-approximations), so losing precision
//! pushes verdicts toward `MayRace`/`Unknown`, never toward a false
//! "race-free".

use crate::cfg::Cfg;
use mcr_lang::{Expr, FuncId, Function, GlobalId, Inst, LockId, Pc, Place, Program, StmtId};
use std::collections::BTreeSet;

/// Locks with an id `>= 64` overflow the bitmask locksets; functions
/// touching them get `lock_top` and their sites degrade to `Unknown`.
pub const LOCK_MASK_BITS: u32 = 64;

// ---------------------------------------------------------------------
// Per-function summary.

/// What a classified access may touch, coarsened to the granularity the
/// dynamic pipeline also uses (`CoarseLoc`): whole globals and "the
/// heap". Heap objects reachable only through an unescaped private
/// local are split off as `PrivateHeap` — provably thread-local.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessTarget {
    /// A scalar global or any element of a global array.
    Global(GlobalId),
    /// Heap storage that may be published to other threads.
    SharedHeap,
    /// Heap storage reachable only through a private local pointer.
    PrivateHeap,
}

/// One classified memory access inside a function body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccessSite {
    /// The statement performing the access.
    pub stmt: StmtId,
    /// What it touches.
    pub target: AccessTarget,
    /// True for stores.
    pub is_write: bool,
}

/// The verdict lattice, ordered from provably-safe to definitely
/// suspicious. Pruning only ever trusts `Solo`; the lint and candidate
/// ranking use the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RaceVerdict {
    /// Thread-local (private heap) or dead code — cannot race.
    Local,
    /// Executes while only one thread exists (pre-spawn) — cannot race.
    Solo,
    /// Shared and concurrent, but every conflicting concurrent
    /// counterpart shares a must-held lock (or none exists).
    Guarded,
    /// Lock identity untrackable (`lock_top`) — no claim either way.
    Unknown,
    /// A conflicting concurrent counterpart exists with a provably
    /// disjoint must-lockset: a candidate data race.
    MayRace,
}

impl RaceVerdict {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            RaceVerdict::Local => "local",
            RaceVerdict::Solo => "solo",
            RaceVerdict::Guarded => "guarded",
            RaceVerdict::Unknown => "unknown",
            RaceVerdict::MayRace => "may-race",
        }
    }
}

/// Content-local static concurrency summary of one function. Every
/// field is derivable from the function body alone; summaries compose
/// bottom-up into the program-level [`RaceAnalysis`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncRaceSummary {
    /// Number of body statements (see [`FuncRaceSummary::fits`]).
    pub stmt_count: u32,
    /// True when the function references a lock id `>= 64`; its
    /// lockset masks are then under-approximate beyond repair and the
    /// composer degrades its sites to [`RaceVerdict::Unknown`].
    pub lock_top: bool,
    /// Must-held lock mask at each statement's *entry* (bit `l` set ⇔
    /// lock `l` is held on every path). Unreachable statements keep
    /// the dataflow top `u64::MAX`.
    pub locksets: Vec<u64>,
    /// May-analysis: a `Spawn` in *this* function may have executed
    /// before entering the statement.
    pub spawn_before: Vec<bool>,
    /// May-analysis: direct callees whose call may have completed (or
    /// started) before entering the statement, deduplicated.
    pub callees_before: Vec<Vec<FuncId>>,
    /// Classified memory accesses.
    pub accesses: Vec<AccessSite>,
    /// Mask of locks this function directly releases.
    pub releases: u64,
    /// Direct call sites.
    pub call_sites: Vec<(StmtId, FuncId)>,
    /// Direct spawn sites; the flag is true when the statement can
    /// re-execute (it reaches itself in the CFG).
    pub spawn_sites: Vec<(StmtId, FuncId, bool)>,
    /// Direct acquire sites (for contended-lock detection).
    pub acquire_sites: Vec<(StmtId, LockId)>,
}

/// Locals that never escape: defined only by `Alloc`/`= null`, never a
/// parameter, and used only as the direct pointer of a heap access or
/// under a logical `!` (null test). A heap access through such a local
/// touches memory no other thread can name.
fn private_locals(func: &Function) -> Vec<bool> {
    let n = func.local_names.len();
    let mut private = vec![true; n];
    for slot in private.iter_mut().take(func.params as usize) {
        *slot = false;
    }
    let mark = |private: &mut Vec<bool>, l: mcr_lang::LocalId| {
        if let Some(p) = private.get_mut(l.0 as usize) {
            *p = false;
        }
    };
    // A use of `Local(l)` anywhere except the allowed positions
    // disqualifies l. `scan` walks an expression in "value position".
    fn scan(e: &Expr, private: &mut Vec<bool>) {
        match e {
            Expr::Const(_) | Expr::Null | Expr::Global(_) => {}
            Expr::Local(l) => {
                if let Some(p) = private.get_mut(l.0 as usize) {
                    *p = false;
                }
            }
            Expr::GlobalElem(_, idx) => scan(idx, private),
            Expr::HeapLoad { ptr, idx } => {
                // A bare private local as the pointer is the allowed
                // use; any other pointer shape is scanned normally.
                if !matches!(ptr.as_ref(), Expr::Local(_)) {
                    scan(ptr, private);
                }
                scan(idx, private);
            }
            Expr::Unary(op, inner) => {
                // `!p` yields 0/1 — the pointer cannot be recovered.
                // Every other unary could launder the pointer value.
                if *op == mcr_lang::UnOp::Not && matches!(inner.as_ref(), Expr::Local(_)) {
                    return;
                }
                scan(inner, private);
            }
            Expr::Binary(_, a, b) => {
                scan(a, private);
                scan(b, private);
            }
        }
    }
    let scan_place = |p: &Place, private: &mut Vec<bool>| match p {
        Place::Local(_) | Place::Global(_) => {}
        Place::GlobalElem(_, idx) => scan(idx, private),
        Place::HeapStore { ptr, idx } => {
            if !matches!(ptr, Expr::Local(_)) {
                scan(ptr, private);
            }
            scan(idx, private);
        }
    };
    for inst in &func.body {
        match inst {
            Inst::Assign { dst, src } => {
                if let Place::Local(l) = dst {
                    // Only `l = null` keeps l private; any other
                    // assigned value could be a shared pointer.
                    if !matches!(src, Expr::Null) {
                        mark(&mut private, *l);
                    }
                } else {
                    scan_place(dst, &mut private);
                }
                scan(src, &mut private);
            }
            Inst::Alloc { dst, len } => {
                // `Alloc` into a local is the canonical private def;
                // into any other place the object is published.
                if !matches!(dst, Place::Local(_)) {
                    scan_place(dst, &mut private);
                }
                scan(len, &mut private);
            }
            Inst::Branch { cond, .. } | Inst::Assert { cond } => scan(cond, &mut private),
            Inst::Call { args, dst, .. } | Inst::Spawn { args, dst, .. } => {
                for a in args {
                    scan(a, &mut private);
                }
                if let Some(d) = dst {
                    if let Place::Local(l) = d {
                        mark(&mut private, *l);
                    } else {
                        scan_place(d, &mut private);
                    }
                }
            }
            Inst::Return { value: Some(v) } | Inst::Output { value: v } => {
                scan(v, &mut private);
            }
            Inst::Join { thread } => scan(thread, &mut private),
            Inst::Return { value: None }
            | Inst::Acquire { .. }
            | Inst::Release { .. }
            | Inst::Jump { .. }
            | Inst::LoopEnter { .. }
            | Inst::LoopIter { .. }
            | Inst::Nop
            | Inst::Fence => {}
        }
    }
    private
}

/// Collects the classified accesses of one statement.
fn collect_accesses(stmt: StmtId, inst: &Inst, private: &[bool], out: &mut Vec<AccessSite>) {
    fn heap_target(ptr: &Expr, private: &[bool]) -> AccessTarget {
        match ptr {
            Expr::Local(l) if private.get(l.0 as usize).copied().unwrap_or(false) => {
                AccessTarget::PrivateHeap
            }
            _ => AccessTarget::SharedHeap,
        }
    }
    fn scan_expr(e: &Expr, stmt: StmtId, private: &[bool], out: &mut Vec<AccessSite>) {
        match e {
            Expr::Const(_) | Expr::Null | Expr::Local(_) => {}
            Expr::Global(g) => out.push(AccessSite {
                stmt,
                target: AccessTarget::Global(*g),
                is_write: false,
            }),
            Expr::GlobalElem(g, idx) => {
                out.push(AccessSite {
                    stmt,
                    target: AccessTarget::Global(*g),
                    is_write: false,
                });
                scan_expr(idx, stmt, private, out);
            }
            Expr::HeapLoad { ptr, idx } => {
                out.push(AccessSite {
                    stmt,
                    target: heap_target(ptr, private),
                    is_write: false,
                });
                scan_expr(ptr, stmt, private, out);
                scan_expr(idx, stmt, private, out);
            }
            Expr::Unary(_, inner) => scan_expr(inner, stmt, private, out),
            Expr::Binary(_, a, b) => {
                scan_expr(a, stmt, private, out);
                scan_expr(b, stmt, private, out);
            }
        }
    }
    let scan_place = |p: &Place, out: &mut Vec<AccessSite>| match p {
        Place::Local(_) => {}
        Place::Global(g) => out.push(AccessSite {
            stmt,
            target: AccessTarget::Global(*g),
            is_write: true,
        }),
        Place::GlobalElem(g, idx) => {
            out.push(AccessSite {
                stmt,
                target: AccessTarget::Global(*g),
                is_write: true,
            });
            scan_expr(idx, stmt, private, out);
        }
        Place::HeapStore { ptr, idx } => {
            out.push(AccessSite {
                stmt,
                target: heap_target(ptr, private),
                is_write: true,
            });
            scan_expr(ptr, stmt, private, out);
            scan_expr(idx, stmt, private, out);
        }
    };
    match inst {
        Inst::Assign { dst, src } => {
            scan_place(dst, out);
            scan_expr(src, stmt, private, out);
        }
        Inst::Alloc { dst, len } => {
            scan_place(dst, out);
            scan_expr(len, stmt, private, out);
        }
        Inst::Branch { cond, .. } | Inst::Assert { cond } => scan_expr(cond, stmt, private, out),
        Inst::Call { args, dst, .. } | Inst::Spawn { args, dst, .. } => {
            for a in args {
                scan_expr(a, stmt, private, out);
            }
            if let Some(d) = dst {
                scan_place(d, out);
            }
        }
        Inst::Return { value: Some(v) } | Inst::Output { value: v } => {
            scan_expr(v, stmt, private, out);
        }
        Inst::Join { thread } => scan_expr(thread, stmt, private, out),
        Inst::Return { value: None }
        | Inst::Acquire { .. }
        | Inst::Release { .. }
        | Inst::Jump { .. }
        | Inst::LoopEnter { .. }
        | Inst::LoopIter { .. }
        | Inst::Nop
        | Inst::Fence => {}
    }
}

impl FuncRaceSummary {
    /// Computes the summary of one function body.
    pub fn of(func: &Function) -> FuncRaceSummary {
        let n = func.body.len();
        let cfg = Cfg::build(func);
        let private = private_locals(func);

        let mut lock_top = false;
        let mut releases = 0u64;
        let mut call_sites = Vec::new();
        let mut spawn_sites = Vec::new();
        let mut acquire_sites = Vec::new();
        let mut accesses = Vec::new();
        for (i, inst) in func.body.iter().enumerate() {
            let stmt = StmtId(i as u32);
            match inst {
                Inst::Acquire { lock } => {
                    if lock.0 >= LOCK_MASK_BITS {
                        lock_top = true;
                    }
                    acquire_sites.push((stmt, *lock));
                }
                Inst::Release { lock } => {
                    if lock.0 >= LOCK_MASK_BITS {
                        lock_top = true;
                    } else {
                        releases |= 1u64 << lock.0;
                    }
                }
                Inst::Call { callee, .. } => call_sites.push((stmt, *callee)),
                Inst::Spawn { callee, .. } => {
                    spawn_sites.push((stmt, *callee, self_reachable(&cfg, i)));
                }
                _ => {}
            }
            collect_accesses(stmt, inst, &private, &mut accesses);
        }

        // Forward fixpoint over the CFG for the three entry facts. All
        // three move monotonically (mask shrinks, bools/sets grow), so
        // one shared worklist converges.
        let mut locksets = vec![u64::MAX; n];
        let mut spawn_before = vec![false; n];
        let mut callees_before: Vec<BTreeSet<FuncId>> = vec![BTreeSet::new(); n];
        if n > 0 {
            locksets[0] = 0;
            let mut work: Vec<usize> = vec![0];
            let mut queued = vec![false; n];
            queued[0] = true;
            while let Some(s) = work.pop() {
                queued[s] = false;
                // Transfer through statement s.
                let mut mask = locksets[s];
                let mut spawned = spawn_before[s];
                let mut callees = callees_before[s].clone();
                match &func.body[s] {
                    Inst::Acquire { lock } if lock.0 < LOCK_MASK_BITS => mask |= 1u64 << lock.0,
                    Inst::Release { lock } if lock.0 < LOCK_MASK_BITS => mask &= !(1u64 << lock.0),
                    Inst::Spawn { .. } => spawned = true,
                    Inst::Call { callee, .. } => {
                        callees.insert(*callee);
                    }
                    _ => {}
                }
                for &(succ, _) in cfg.succs(s) {
                    if succ >= n {
                        continue; // virtual exit
                    }
                    let merged_mask = locksets[succ] & mask;
                    let merged_spawn = spawn_before[succ] || spawned;
                    let callee_growth = !callees.is_subset(&callees_before[succ]);
                    if merged_mask != locksets[succ]
                        || merged_spawn != spawn_before[succ]
                        || callee_growth
                    {
                        locksets[succ] = merged_mask;
                        spawn_before[succ] = merged_spawn;
                        if callee_growth {
                            callees_before[succ].extend(callees.iter().copied());
                        }
                        if !queued[succ] {
                            queued[succ] = true;
                            work.push(succ);
                        }
                    }
                }
            }
        }

        FuncRaceSummary {
            stmt_count: n as u32,
            lock_top,
            locksets,
            spawn_before,
            callees_before: callees_before
                .into_iter()
                .map(|s| s.into_iter().collect())
                .collect(),
            accesses,
            releases,
            call_sites,
            spawn_sites,
            acquire_sites,
        }
    }

    /// True when the summary's shape matches `func` (the precondition of
    /// handing it to [`RaceAnalysis::compose`] for that function).
    pub fn fits(&self, func: &Function) -> bool {
        self.stmt_count as usize == func.body.len()
            && self.locksets.len() == func.body.len()
            && self.spawn_before.len() == func.body.len()
            && self.callees_before.len() == func.body.len()
    }
}

/// True when statement `s` can re-execute: it reaches itself in the CFG.
fn self_reachable(cfg: &Cfg, s: usize) -> bool {
    let n = cfg.stmt_count();
    let mut seen = vec![false; n + 1];
    let mut stack: Vec<usize> = cfg.succs(s).iter().map(|&(v, _)| v).collect();
    while let Some(v) = stack.pop() {
        if v >= n || seen[v] {
            continue;
        }
        if v == s {
            return true;
        }
        seen[v] = true;
        stack.extend(cfg.succs(v).iter().map(|&(v2, _)| v2));
    }
    false
}

// ---------------------------------------------------------------------
// Program-level composition.

/// Per-statement query surface the search consumes. Out-of-range PCs
/// conservatively answer "not solo" / "no may-race".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceVerdicts {
    solo: Vec<Vec<bool>>,
    may_race: Vec<Vec<bool>>,
}

impl RaceVerdicts {
    /// True when the statement provably executes while thread 0 is the
    /// only live thread. Preempting there is a no-op, so candidates
    /// anchored at solo statements can be pruned without losing any
    /// schedule the search could distinguish.
    pub fn is_solo(&self, pc: Pc) -> bool {
        self.solo
            .get(pc.func.0 as usize)
            .and_then(|f| f.get(pc.stmt.0 as usize))
            .copied()
            .unwrap_or(false)
    }

    /// True when some access at the statement drew a May-Race verdict.
    pub fn has_may_race(&self, pc: Pc) -> bool {
        self.may_race
            .get(pc.func.0 as usize)
            .and_then(|f| f.get(pc.stmt.0 as usize))
            .copied()
            .unwrap_or(false)
    }

    /// Number of statements flagged solo (for reporting).
    pub fn solo_count(&self) -> usize {
        self.solo.iter().flatten().filter(|&&b| b).count()
    }
}

/// One May-Race witness: two conflicting concurrent accesses with
/// disjoint must-locksets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceFinding {
    /// First access (function, site).
    pub a: (FuncId, AccessSite),
    /// Second access.
    pub b: (FuncId, AccessSite),
    /// The contested target.
    pub target: AccessTarget,
}

/// A lock acquired by two concurrent live sites — a contention point
/// worth surfacing even when it makes accesses `Guarded`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContendedLock {
    /// The lock.
    pub lock: LockId,
    /// Two acquire sites that can contend.
    pub a: (FuncId, StmtId),
    /// Second site.
    pub b: (FuncId, StmtId),
}

/// The dump-less lint report: per-verdict counts, May-Race witnesses,
/// and contended locks.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RaceReport {
    /// Access-site count per verdict, indexed by `RaceVerdict` order
    /// (local, solo, guarded, unknown, may-race).
    pub counts: [usize; 5],
    /// Deduplicated May-Race witnesses.
    pub findings: Vec<RaceFinding>,
    /// Locks acquired from two concurrent sites.
    pub contended: Vec<ContendedLock>,
}

impl RaceReport {
    /// Total classified access sites.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Renders the report with program names resolved.
    pub fn render(&self, program: &Program) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "static race lint: {} access sites — {} local, {} solo, {} guarded, \
             {} unknown, {} may-race",
            self.total(),
            self.counts[0],
            self.counts[1],
            self.counts[2],
            self.counts[3],
            self.counts[4],
        );
        let target_name = |t: AccessTarget| match t {
            AccessTarget::Global(g) => program
                .globals
                .get(g.0 as usize)
                .map_or_else(|| format!("g{}", g.0), |d| d.name.clone()),
            AccessTarget::SharedHeap => "<heap>".to_string(),
            AccessTarget::PrivateHeap => "<private heap>".to_string(),
        };
        let fname = |f: FuncId| {
            program
                .funcs
                .get(f.0 as usize)
                .map_or("?", |x| x.name.as_str())
        };
        let rw = |w: bool| if w { "write" } else { "read" };
        for fnd in &self.findings {
            let _ = writeln!(
                out,
                "  may-race on {}: {} {}:{} vs {} {}:{}",
                target_name(fnd.target),
                rw(fnd.a.1.is_write),
                fname(fnd.a.0),
                fnd.a.1.stmt.0,
                rw(fnd.b.1.is_write),
                fname(fnd.b.0),
                fnd.b.1.stmt.0,
            );
        }
        for c in &self.contended {
            let lock = program
                .locks
                .get(c.lock.0 as usize)
                .map_or("?", String::as_str);
            let _ = writeln!(
                out,
                "  contended lock {}: {}:{} vs {}:{}",
                lock,
                fname(c.a.0),
                c.a.1 .0,
                fname(c.b.0),
                c.b.1 .0,
            );
        }
        out
    }
}

/// The composed program-level analysis.
#[derive(Debug, Clone)]
pub struct RaceAnalysis {
    /// The per-function summaries the composition consumed.
    summaries: Vec<FuncRaceSummary>,
    /// Per-(function, access index) verdicts, parallel to
    /// `summaries[f].accesses`.
    verdicts: Vec<Vec<RaceVerdict>>,
    /// The compact per-statement query surface.
    stmt_verdicts: RaceVerdicts,
    /// May-Race witness per MayRace site (first found).
    findings: Vec<RaceFinding>,
    /// Contended locks.
    contended: Vec<ContendedLock>,
}

impl RaceAnalysis {
    /// Summarizes every function and composes the result.
    pub fn analyze(program: &Program) -> RaceAnalysis {
        let summaries = program.funcs.iter().map(FuncRaceSummary::of).collect();
        RaceAnalysis::compose(program, summaries)
    }

    /// Composes precomputed summaries.
    /// `summaries[i]` must correspond to `program.funcs[i]`.
    pub fn compose(program: &Program, summaries: Vec<FuncRaceSummary>) -> RaceAnalysis {
        let nf = summaries.len();
        let main = program.main.0 as usize;

        // Call-closure effects: may this function (transitively through
        // calls) spawn a thread / release each lock?
        let mut may_spawn: Vec<bool> = summaries
            .iter()
            .map(|s| !s.spawn_sites.is_empty())
            .collect();
        let mut may_release: Vec<u64> = summaries.iter().map(|s| s.releases).collect();
        loop {
            let mut changed = false;
            for f in 0..nf {
                for &(_, callee) in &summaries[f].call_sites {
                    let c = callee.0 as usize;
                    if c >= nf {
                        continue;
                    }
                    if may_spawn[c] && !may_spawn[f] {
                        may_spawn[f] = true;
                        changed = true;
                    }
                    let merged = may_release[f] | may_release[c];
                    if merged != may_release[f] {
                        may_release[f] = merged;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // spawn_before composed through calls: a spawn may precede
        // statement s if this function spawned, or some callee that may
        // spawn was (possibly) invoked before s.
        let spawn_before_comp: Vec<Vec<bool>> = summaries
            .iter()
            .map(|s| {
                (0..s.stmt_count as usize)
                    .map(|i| {
                        s.spawn_before[i]
                            || s.callees_before[i]
                                .iter()
                                .any(|c| may_spawn.get(c.0 as usize).copied().unwrap_or(true))
                    })
                    .collect()
            })
            .collect();

        // entry_solo: decreasing fixpoint. A function enters solo only
        // if every caller reaches the call site solo; spawn targets
        // never enter solo (their parent is alive, or at least was).
        let mut entry_solo = vec![true; nf];
        for s in &summaries {
            for &(_, target, _) in &s.spawn_sites {
                if let Some(e) = entry_solo.get_mut(target.0 as usize) {
                    *e = false;
                }
            }
        }
        loop {
            let mut changed = false;
            for f in 0..nf {
                for &(site, callee) in &summaries[f].call_sites {
                    let c = callee.0 as usize;
                    if c >= nf {
                        continue;
                    }
                    let at_site = entry_solo[f] && !spawn_before_comp[f][site.0 as usize];
                    if !at_site && entry_solo[c] {
                        entry_solo[c] = false;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        let solo: Vec<Vec<bool>> = (0..nf)
            .map(|f| {
                (0..summaries[f].stmt_count as usize)
                    .map(|i| entry_solo[f] && !spawn_before_comp[f][i])
                    .collect()
            })
            .collect();

        // Thread roots and reachability: which root entry functions can
        // (transitively through calls) execute each function?
        let mut roots: Vec<usize> = vec![main.min(nf.saturating_sub(1))];
        if nf == 0 {
            roots.clear();
        }
        for s in &summaries {
            for &(_, target, _) in &s.spawn_sites {
                let t = target.0 as usize;
                if t < nf && !roots.contains(&t) {
                    roots.push(t);
                }
            }
        }
        let nroots = roots.len();
        // reach[r][f]: root r can reach function f through calls.
        let mut reach = vec![vec![false; nf]; nroots];
        for (ri, &r) in roots.iter().enumerate() {
            let mut stack = vec![r];
            while let Some(f) = stack.pop() {
                if reach[ri][f] {
                    continue;
                }
                reach[ri][f] = true;
                for &(_, callee) in &summaries[f].call_sites {
                    let c = callee.0 as usize;
                    if c < nf && !reach[ri][c] {
                        stack.push(c);
                    }
                }
            }
        }
        let roots_of: Vec<Vec<usize>> = (0..nf)
            .map(|f| (0..nroots).filter(|&ri| reach[ri][f]).collect())
            .collect();

        // single_instance(root): at most one dynamic thread ever runs
        // this root. main qualifies unless something calls or spawns it
        // re-entrantly; other roots need exactly one spawn site, not
        // re-executable, sitting in main itself.
        let main_reentered = summaries.iter().any(|s| {
            s.call_sites.iter().any(|&(_, c)| c.0 as usize == main)
                || s.spawn_sites.iter().any(|&(_, t, _)| t.0 as usize == main)
        });
        let single_instance: Vec<bool> = roots
            .iter()
            .map(|&r| {
                if r == main {
                    return !main_reentered;
                }
                let sites: Vec<(usize, bool)> = summaries
                    .iter()
                    .enumerate()
                    .flat_map(|(f, s)| {
                        s.spawn_sites
                            .iter()
                            .filter(|&&(_, t, _)| t.0 as usize == r)
                            .map(move |&(_, _, in_loop)| (f, in_loop))
                    })
                    .collect();
                !main_reentered && sites.len() == 1 && !sites[0].1 && sites[0].0 == main
            })
            .collect();

        // concurrent(f1, f2): can two distinct threads run f1 and f2?
        let concurrent = |f1: usize, f2: usize| -> bool {
            for &r1 in &roots_of[f1] {
                for &r2 in &roots_of[f2] {
                    if r1 != r2 || !single_instance[r1] {
                        return true;
                    }
                }
            }
            false
        };

        // CFG reachability inside each function: dead statements keep
        // the lockset top u64::MAX and are classified Local.
        let stmt_live: Vec<Vec<bool>> = program
            .funcs
            .iter()
            .map(|func| {
                let cfg = Cfg::build(func);
                let n = cfg.stmt_count();
                let mut live = vec![false; n + 1];
                if n > 0 {
                    let mut stack = vec![0usize];
                    while let Some(v) = stack.pop() {
                        if live[v] {
                            continue;
                        }
                        live[v] = true;
                        stack.extend(cfg.succs(v).iter().map(|&(s, _)| s));
                    }
                }
                live.truncate(n);
                live
            })
            .collect();

        // Effective must-lockset at a site: locks held at entry minus
        // anything a callee that may have run before could release.
        let site_lockset = |f: usize, s: usize| -> u64 {
            let sum = &summaries[f];
            let mut mask = sum.locksets[s];
            for c in &sum.callees_before[s] {
                if let Some(&rel) = may_release.get(c.0 as usize) {
                    mask &= !rel;
                }
            }
            mask
        };

        // Live shared sites eligible for pairwise conflict checks.
        struct LiveSite {
            func: usize,
            access: AccessSite,
            lockset: u64,
            lock_top: bool,
        }
        let mut live_sites: Vec<LiveSite> = Vec::new();
        for (f, sum) in summaries.iter().enumerate() {
            if roots_of[f].is_empty() {
                continue;
            }
            for &a in &sum.accesses {
                let s = a.stmt.0 as usize;
                if a.target == AccessTarget::PrivateHeap
                    || !stmt_live
                        .get(f)
                        .and_then(|v| v.get(s))
                        .copied()
                        .unwrap_or(false)
                    || solo[f][s]
                {
                    continue;
                }
                live_sites.push(LiveSite {
                    func: f,
                    access: a,
                    lockset: site_lockset(f, s),
                    lock_top: sum.lock_top,
                });
            }
        }

        // Verdicts per (function, access index).
        let mut verdicts: Vec<Vec<RaceVerdict>> = Vec::with_capacity(nf);
        let mut findings: Vec<RaceFinding> = Vec::new();
        let mut finding_keys: BTreeSet<(usize, u32, usize, u32)> = BTreeSet::new();
        for (f, sum) in summaries.iter().enumerate() {
            let mut per = Vec::with_capacity(sum.accesses.len());
            for &a in &sum.accesses {
                let s = a.stmt.0 as usize;
                let dead = !stmt_live
                    .get(f)
                    .and_then(|v| v.get(s))
                    .copied()
                    .unwrap_or(false);
                let v = if a.target == AccessTarget::PrivateHeap || roots_of[f].is_empty() || dead {
                    RaceVerdict::Local
                } else if solo[f][s] {
                    RaceVerdict::Solo
                } else {
                    let my_lockset = site_lockset(f, s);
                    let my_top = sum.lock_top;
                    let mut verdict = RaceVerdict::Guarded;
                    for other in &live_sites {
                        let same_target = other.access.target == a.target
                            || matches!(
                                (other.access.target, a.target),
                                (AccessTarget::Global(g1), AccessTarget::Global(g2)) if g1 == g2
                            );
                        if !same_target
                            || !(other.access.is_write || a.is_write)
                            || !concurrent(f, other.func)
                        {
                            continue;
                        }
                        // Exclude the site racing with itself unless a
                        // second dynamic instance can run it.
                        if other.func == f && other.access == a && !concurrent(f, f) {
                            continue;
                        }
                        if my_top || other.lock_top {
                            verdict = verdict.max(RaceVerdict::Unknown);
                        } else if my_lockset & other.lockset == 0 {
                            verdict = RaceVerdict::MayRace;
                            let key = ordered_key((f, a.stmt.0), (other.func, other.access.stmt.0));
                            if finding_keys.insert(key) {
                                findings.push(RaceFinding {
                                    a: (FuncId(f as u32), a),
                                    b: (FuncId(other.func as u32), other.access),
                                    target: a.target,
                                });
                            }
                            break;
                        }
                    }
                    verdict
                };
                per.push(v);
            }
            verdicts.push(per);
        }

        // Contended locks: two concurrent live non-solo acquire sites.
        let mut contended: Vec<ContendedLock> = Vec::new();
        let mut contended_seen: BTreeSet<u32> = BTreeSet::new();
        let mut acquire_live: Vec<(usize, StmtId, LockId)> = Vec::new();
        for (f, sum) in summaries.iter().enumerate() {
            if roots_of[f].is_empty() {
                continue;
            }
            for &(stmt, lock) in &sum.acquire_sites {
                let s = stmt.0 as usize;
                let is_live = stmt_live
                    .get(f)
                    .and_then(|v| v.get(s))
                    .copied()
                    .unwrap_or(false);
                if is_live && !solo[f][s] {
                    acquire_live.push((f, stmt, lock));
                }
            }
        }
        for (i, &(f1, s1, l1)) in acquire_live.iter().enumerate() {
            if contended_seen.contains(&l1.0) {
                continue;
            }
            for &(f2, s2, l2) in &acquire_live[i..] {
                if l1 != l2 || !concurrent(f1, f2) {
                    continue;
                }
                // The same site contending with itself needs a second
                // dynamic instance.
                if f1 == f2 && s1 == s2 && !concurrent(f1, f1) {
                    continue;
                }
                contended_seen.insert(l1.0);
                contended.push(ContendedLock {
                    lock: l1,
                    a: (FuncId(f1 as u32), s1),
                    b: (FuncId(f2 as u32), s2),
                });
                break;
            }
        }

        // Compact per-statement surface.
        let solo_stmts = solo;
        let may_race_stmts: Vec<Vec<bool>> = (0..nf)
            .map(|f| {
                let mut v = vec![false; summaries[f].stmt_count as usize];
                for (ai, &a) in summaries[f].accesses.iter().enumerate() {
                    if verdicts[f][ai] == RaceVerdict::MayRace {
                        v[a.stmt.0 as usize] = true;
                    }
                }
                v
            })
            .collect();

        RaceAnalysis {
            summaries,
            verdicts,
            stmt_verdicts: RaceVerdicts {
                solo: solo_stmts,
                may_race: may_race_stmts,
            },
            findings,
            contended,
        }
    }

    /// The per-function summaries the composition consumed.
    pub fn summaries(&self) -> &[FuncRaceSummary] {
        &self.summaries
    }

    /// The verdict of each access site, parallel to
    /// `summaries()[f].accesses`.
    pub fn site_verdicts(&self, f: FuncId) -> &[RaceVerdict] {
        &self.verdicts[f.0 as usize]
    }

    /// The compact per-statement query surface the search consumes.
    pub fn verdicts(&self) -> &RaceVerdicts {
        &self.stmt_verdicts
    }

    /// Builds the dump-less lint report.
    pub fn report(&self) -> RaceReport {
        let mut counts = [0usize; 5];
        for per in &self.verdicts {
            for &v in per {
                counts[v as usize] += 1;
            }
        }
        RaceReport {
            counts,
            findings: self.findings.clone(),
            contended: self.contended.clone(),
        }
    }
}

fn ordered_key(a: (usize, u32), b: (usize, u32)) -> (usize, u32, usize, u32) {
    if (a.0, a.1) <= (b.0, b.1) {
        (a.0, a.1, b.0, b.1)
    } else {
        (b.0, b.1, a.0, a.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcr_lang::compile;

    fn analyze(src: &str) -> (Program, RaceAnalysis) {
        let p = compile(src).unwrap();
        let a = RaceAnalysis::analyze(&p);
        (p, a)
    }

    fn verdict_for_global(p: &Program, a: &RaceAnalysis, func: &str, g: &str) -> Vec<RaceVerdict> {
        let f = p.funcs.iter().position(|x| x.name == func).unwrap();
        let gid = p.globals.iter().position(|x| x.name == g).unwrap() as u32;
        a.summaries()[f]
            .accesses
            .iter()
            .zip(a.site_verdicts(FuncId(f as u32)))
            .filter(|(s, _)| s.target == AccessTarget::Global(GlobalId(gid)))
            .map(|(_, &v)| v)
            .collect()
    }

    #[test]
    fn unguarded_concurrent_writes_may_race() {
        let (p, a) = analyze(
            "global x: int;\n\
             fn worker() { x = x + 1; }\n\
             fn main() { var t; t = spawn worker(); x = x + 1; join t; }",
        );
        assert!(
            verdict_for_global(&p, &a, "worker", "x").contains(&RaceVerdict::MayRace),
            "worker's unguarded write must be may-race"
        );
        let report = a.report();
        assert!(!report.findings.is_empty());
    }

    #[test]
    fn consistent_lock_is_guarded() {
        let (p, a) = analyze(
            "global x: int; lock m;\n\
             fn worker() { acquire m; x = x + 1; release m; }\n\
             fn main() { var t; t = spawn worker(); acquire m; x = x + 1; release m; join t; }",
        );
        for v in verdict_for_global(&p, &a, "worker", "x") {
            assert_eq!(v, RaceVerdict::Guarded);
        }
        // The lock itself is flagged contended.
        assert_eq!(a.report().contended.len(), 1);
    }

    #[test]
    fn pre_spawn_accesses_are_solo() {
        let (p, a) = analyze(
            "global x: int;\n\
             fn worker() { x = 2; }\n\
             fn main() { var t; x = 1; t = spawn worker(); x = 3; join t; }",
        );
        let verdicts = verdict_for_global(&p, &a, "main", "x");
        assert_eq!(verdicts[0], RaceVerdict::Solo, "pre-spawn write is solo");
        assert_ne!(
            verdicts[verdicts.len() - 1],
            RaceVerdict::Solo,
            "post-spawn write is not solo"
        );
    }

    #[test]
    fn solo_join_does_not_extend_after_spawn() {
        // After the spawn, nothing is solo again — the analysis does
        // not model join-back (conservative).
        let (p, a) = analyze(
            "global x: int;\n\
             fn worker() { x = 2; }\n\
             fn main() { var t; t = spawn worker(); join t; x = 3; }",
        );
        let verdicts = verdict_for_global(&p, &a, "main", "x");
        assert!(verdicts.iter().all(|&v| v != RaceVerdict::Solo));
    }

    #[test]
    fn private_heap_is_local() {
        let (p, a) = analyze(
            "global x: int;\n\
             fn worker() { x = 1; }\n\
             fn main() { var t; t = alloc(2); spawn worker(); t[0] = 5; x = t[0]; }",
        );
        let f = p.funcs.iter().position(|x| x.name == "main").unwrap();
        let heap: Vec<RaceVerdict> = a.summaries()[f]
            .accesses
            .iter()
            .zip(a.site_verdicts(FuncId(f as u32)))
            .filter(|(s, _)| s.target == AccessTarget::PrivateHeap)
            .map(|(_, &v)| v)
            .collect();
        assert!(
            !heap.is_empty(),
            "alloc'd local heap accesses classified private"
        );
        assert!(heap.iter().all(|&v| v == RaceVerdict::Local));
    }

    #[test]
    fn published_heap_is_shared() {
        let (p, a) = analyze(
            "global p: ptr;\n\
             fn worker() { p[0] = 2; }\n\
             fn main() { p = alloc(2); spawn worker(); p[0] = 1; }",
        );
        let f = p.funcs.iter().position(|x| x.name == "main").unwrap();
        let has_shared_heap = a.summaries()[f]
            .accesses
            .iter()
            .any(|s| s.target == AccessTarget::SharedHeap);
        assert!(has_shared_heap, "global-pointer heap store is shared");
        let worker_heap: Vec<RaceVerdict> = {
            let wf = p.funcs.iter().position(|x| x.name == "worker").unwrap();
            a.summaries()[wf]
                .accesses
                .iter()
                .zip(a.site_verdicts(FuncId(wf as u32)))
                .filter(|(s, _)| s.target == AccessTarget::SharedHeap)
                .map(|(_, &v)| v)
                .collect()
        };
        assert!(worker_heap.contains(&RaceVerdict::MayRace));
    }

    #[test]
    fn spawn_through_callee_kills_solo() {
        let (p, a) = analyze(
            "global x: int;\n\
             fn worker() { x = 2; }\n\
             fn helper() { spawn worker(); }\n\
             fn main() { x = 1; helper(); x = 3; }",
        );
        let verdicts = verdict_for_global(&p, &a, "main", "x");
        assert_eq!(verdicts[0], RaceVerdict::Solo);
        assert_ne!(verdicts[verdicts.len() - 1], RaceVerdict::Solo);
    }

    #[test]
    fn two_spawns_of_same_root_race_with_itself() {
        let (p, a) = analyze(
            "global x: int;\n\
             fn worker() { x = x + 1; }\n\
             fn main() { var a; var b; a = spawn worker(); b = spawn worker(); join a; join b; }",
        );
        let verdicts = verdict_for_global(&p, &a, "worker", "x");
        assert!(verdicts.contains(&RaceVerdict::MayRace));
    }

    #[test]
    fn single_spawn_worker_does_not_self_race() {
        let (p, a) = analyze(
            "global x: int;\n\
             fn worker() { x = x + 1; }\n\
             fn main() { var t; t = spawn worker(); join t; }",
        );
        // Only worker touches x post-spawn; one worker instance, main
        // never writes x concurrently — no counterpart.
        let verdicts = verdict_for_global(&p, &a, "worker", "x");
        assert!(verdicts.iter().all(|&v| v == RaceVerdict::Guarded));
    }

    #[test]
    fn spawn_in_loop_races_with_itself() {
        let (p, a) = analyze(
            "global x: int; global i: int;\n\
             fn worker() { x = x + 1; }\n\
             fn main() { i = 0; while (i < 2) { spawn worker(); i = i + 1; } }",
        );
        let verdicts = verdict_for_global(&p, &a, "worker", "x");
        assert!(verdicts.contains(&RaceVerdict::MayRace));
    }

    #[test]
    fn release_through_callee_weakens_lockset() {
        let (p, a) = analyze(
            "global x: int; lock m;\n\
             fn unlocker() { release m; }\n\
             fn worker() { acquire m; x = x + 1; release m; }\n\
             fn main() { var t; t = spawn worker(); acquire m; unlocker(); x = x + 1; join t; }",
        );
        // main's post-call access can no longer claim m is held.
        let verdicts = verdict_for_global(&p, &a, "main", "x");
        assert!(verdicts.contains(&RaceVerdict::MayRace));
    }

    #[test]
    fn summary_fits_and_composes() {
        let p = compile(
            "global x: int;\n\
             fn worker() { x = 1; }\n\
             fn main() { var t; t = spawn worker(); x = 2; join t; }",
        )
        .unwrap();
        let summaries: Vec<FuncRaceSummary> = p.funcs.iter().map(FuncRaceSummary::of).collect();
        for (f, s) in p.funcs.iter().zip(&summaries) {
            assert!(s.fits(f));
        }
        assert!(!summaries[0].fits(&p.funcs[1]) || p.funcs[0].body.len() == p.funcs[1].body.len());
        let composed = RaceAnalysis::compose(&p, summaries.clone());
        let direct = RaceAnalysis::analyze(&p);
        assert_eq!(composed.verdicts, direct.verdicts);
        assert_eq!(composed.stmt_verdicts, direct.stmt_verdicts);
    }

    #[test]
    fn verdict_surface_answers_out_of_range_conservatively() {
        let (_, a) = analyze("fn main() { }");
        let pc = Pc::new(FuncId(99), StmtId(99));
        assert!(!a.verdicts().is_solo(pc));
        assert!(!a.verdicts().has_may_race(pc));
    }

    #[test]
    fn report_renders_names() {
        let (p, a) = analyze(
            "global counter: int;\n\
             fn worker() { counter = counter + 1; }\n\
             fn main() { var t; t = spawn worker(); counter = counter + 1; join t; }",
        );
        let text = a.report().render(&p);
        assert!(text.contains("may-race"), "{text}");
        assert!(text.contains("counter"), "{text}");
    }
}
