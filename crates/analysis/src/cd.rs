//! Control dependence and index-parent resolution.
//!
//! This module implements the static machinery behind the paper's §3.2:
//!
//! * Ferrante–Ottenstein–Warren control dependence via post-dominators,
//! * aggregation of short-circuit predicate groups into one "complex
//!   predicate" (Fig. 5b),
//! * the *closest common single-control-dependence ancestor* used for
//!   non-aggregatable multiple dependences (Fig. 6),
//! * the per-statement classification that the paper's Table 1 reports,
//! * transitive control-dependence queries used by the alignment rules
//!   (Fig. 7, condition ③).

use crate::cfg::{immediate_dominators, Cfg, Node};
use mcr_lang::{CondGroupId, Function, StmtId};
use std::collections::HashSet;

/// Identifies a predicate region in an execution index: either a plain
/// branch statement, or a whole short-circuit group treated as one complex
/// predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PredKey {
    /// A single branch statement.
    Stmt(StmtId),
    /// An aggregated short-circuit condition group.
    Cluster(CondGroupId),
}

/// How a dynamically executed branch relates to index regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredEvent {
    /// A plain predicate took `outcome`.
    Simple {
        /// The branch statement.
        stmt: StmtId,
        /// The outcome taken.
        outcome: bool,
    },
    /// A member of a short-circuit group continued evaluating the
    /// condition; no region is entered or resolved yet.
    ClusterInternal {
        /// The group.
        group: CondGroupId,
    },
    /// A short-circuit group resolved to `side` (the source-level branch).
    ClusterResolved {
        /// The group.
        group: CondGroupId,
        /// Which source-level side was taken.
        side: bool,
    },
}

/// The statically reverse-engineered index parent of a statement — one step
/// of the paper's Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParentStep {
    /// The statement nests directly in the method body; the call stack
    /// supplies the parent (Algorithm 1, lines 2–6).
    MethodBody,
    /// The statement nests directly in a loop; the loop counter supplies
    /// the multiplicity (Algorithm 1, lines 7–13).
    Loop {
        /// The loop-header branch.
        header: StmtId,
    },
    /// The statement nests in a predicate region (Algorithm 1, lines 15–24).
    Pred {
        /// The region's predicate.
        key: PredKey,
        /// The branch side of the region.
        outcome: bool,
        /// True when this was recovered through the lossy
        /// common-ancestor fallback for non-aggregatable dependences.
        lossy: bool,
    },
}

/// Classification of a statement's control dependences (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CdClass {
    /// The statement is itself a loop predicate.
    LoopPred,
    /// Exactly one (aggregated) control dependence.
    OneCd,
    /// Multiple control dependences aggregatable to one complex predicate.
    AggrToOne,
    /// Multiple, non-aggregatable control dependences (e.g. `goto` joins).
    NotAggr,
    /// No intra-procedural control dependence: directly nests in the
    /// method body.
    MethodBody,
}

/// Static analysis results for one function.
#[derive(Debug, Clone)]
pub struct FuncAnalysis {
    cfg: Cfg,
    /// Immediate post-dominator per node (node-indexed; exit maps to self).
    ipdom: Vec<Node>,
    /// Raw control dependences per statement.
    cds: Vec<Vec<(StmtId, bool)>>,
    /// Cluster membership per statement.
    member_of: Vec<Option<CondGroupId>>,
}

impl FuncAnalysis {
    /// Analyzes one function.
    pub fn new(func: &Function) -> FuncAnalysis {
        let cfg = Cfg::build(func);
        let n = cfg.stmt_count() + 1;
        let exit = cfg.exit();
        let ipdom = immediate_dominators(
            n,
            exit,
            |v| cfg.preds(v).to_vec(),
            |v| cfg.succs(v).iter().map(|&(s, _)| s).collect(),
        );

        // Ferrante–Ottenstein–Warren: for each labeled edge (u, v, b) with
        // v != ipdom(u), statements from v up to (exclusive) ipdom(u) are
        // control dependent on (u, b).
        let mut cds: Vec<Vec<(StmtId, bool)>> = vec![Vec::new(); cfg.stmt_count()];
        for (u, v, label) in cfg.edges() {
            let Some(b) = label else { continue };
            let stop = ipdom[u];
            let mut w = v;
            let mut guard = 0usize;
            while w != stop && w != exit {
                if let Some(s) = cfg.as_stmt(w) {
                    let entry = (StmtId(u as u32), b);
                    if !cds[s.0 as usize].contains(&entry) {
                        cds[s.0 as usize].push(entry);
                    }
                }
                w = ipdom[w];
                guard += 1;
                if guard > n {
                    break; // defensive: malformed post-dominator chain
                }
            }
        }

        let mut member_of = vec![None; cfg.stmt_count()];
        for (gi, g) in func.cond_groups.iter().enumerate() {
            for m in &g.members {
                member_of[m.0 as usize] = Some(CondGroupId(gi as u32));
            }
        }

        FuncAnalysis {
            cfg,
            ipdom,
            cds,
            member_of,
        }
    }

    /// The function's CFG.
    pub fn cfg(&self) -> &Cfg {
        &self.cfg
    }

    /// Raw (unaggregated) static control dependences of a statement.
    pub fn raw_cds(&self, s: StmtId) -> &[(StmtId, bool)] {
        &self.cds[s.0 as usize]
    }

    /// Immediate post-dominator of a statement (`None` when it is the
    /// virtual exit).
    pub fn ipdom_stmt(&self, s: StmtId) -> Option<StmtId> {
        self.cfg.as_stmt(self.ipdom[s.0 as usize])
    }

    /// The statement at which an index region opened by `key` is popped:
    /// the immediate post-dominator of the (cluster root) predicate.
    pub fn region_pop_stmt(&self, func: &Function, key: PredKey) -> Option<StmtId> {
        let rep = self.rep_stmt(func, key);
        self.ipdom_stmt(rep)
    }

    /// The representative statement of a predicate key (cluster root or the
    /// branch itself).
    pub fn rep_stmt(&self, func: &Function, key: PredKey) -> StmtId {
        match key {
            PredKey::Stmt(s) => s,
            PredKey::Cluster(g) => func.cond_groups[g.0 as usize].root(),
        }
    }

    /// Interprets a dynamically executed branch for the indexing runtime.
    pub fn pred_event(&self, func: &Function, stmt: StmtId, outcome: bool) -> PredEvent {
        match self.member_of[stmt.0 as usize] {
            None => PredEvent::Simple { stmt, outcome },
            Some(g) => {
                let group = &func.cond_groups[g.0 as usize];
                match group.resolve(stmt, outcome) {
                    None => PredEvent::ClusterInternal { group: g },
                    Some(side) => PredEvent::ClusterResolved { group: g, side },
                }
            }
        }
    }

    /// Effective (aggregated) control dependences of a statement:
    /// cluster-internal members inherit the root's dependences, self-loops
    /// of loop headers are dropped, and dependences on cluster members are
    /// mapped to the cluster with the resolved side.
    fn effective_cds(&self, func: &Function, s: StmtId) -> Vec<(PredKey, bool)> {
        // Cluster members take the dependences of the whole cluster (its
        // root); this also means asking for the parent of a mid-cluster
        // predicate skips to the cluster's own parent.
        let base = match self.member_of[s.0 as usize] {
            Some(g) => func.cond_groups[g.0 as usize].root(),
            None => s,
        };
        let mut out: Vec<(PredKey, bool)> = Vec::new();
        for &(p, b) in self.raw_cds(base) {
            if p == base || p == s {
                continue; // loop-header self dependence
            }
            let mapped = match self.member_of[p.0 as usize] {
                Some(g) => {
                    let group = &func.cond_groups[g.0 as usize];
                    if Some(g) == self.member_of[base.0 as usize] {
                        continue; // dependence within our own cluster
                    }
                    match group.resolve(p, b) {
                        Some(side) => (PredKey::Cluster(g), side),
                        // A goto that targets the middle of a condition
                        // evaluation; keep the raw dependence (it will fall
                        // into the non-aggregatable path).
                        None => (PredKey::Stmt(p), b),
                    }
                }
                None => (PredKey::Stmt(p), b),
            };
            if !out.contains(&mapped) {
                out.push(mapped);
            }
        }
        out
    }

    /// One step of static index-parent resolution (Algorithm 1's dispatch).
    pub fn index_parent(&self, func: &Function, s: StmtId) -> ParentStep {
        let cds = self.effective_cds(func, s);
        if cds.is_empty() {
            return ParentStep::MethodBody;
        }
        // Loop case takes priority (Algorithm 1 line 7).
        for &(key, _outcome) in &cds {
            if let PredKey::Stmt(p) = key {
                if func.loop_header(p).is_some() {
                    return ParentStep::Loop { header: p };
                }
            }
        }
        if cds.len() == 1 {
            let (key, outcome) = cds[0];
            return ParentStep::Pred {
                key,
                outcome,
                lossy: false,
            };
        }
        // Non-aggregatable: closest common single-CD ancestor (Fig. 6).
        match self.common_ancestor(func, &cds) {
            Some((key, outcome)) => ParentStep::Pred {
                key,
                outcome,
                lossy: true,
            },
            None => ParentStep::MethodBody,
        }
    }

    /// The upward chain of (predicate, outcome) regions enclosing `entry`,
    /// starting with `entry` itself. Loop regions appear once (statically).
    fn ancestor_chain(
        &self,
        func: &Function,
        entry: (PredKey, bool),
        depth: usize,
    ) -> Vec<(PredKey, bool)> {
        let mut chain = vec![entry];
        let mut cur = self.rep_stmt(func, entry.0);
        let mut seen: HashSet<StmtId> = HashSet::new();
        seen.insert(cur);
        for _ in 0..depth {
            match self.index_parent(func, cur) {
                ParentStep::MethodBody => break,
                ParentStep::Loop { header } => {
                    if !seen.insert(header) {
                        break;
                    }
                    chain.push((PredKey::Stmt(header), true));
                    cur = header;
                }
                ParentStep::Pred { key, outcome, .. } => {
                    let rep = self.rep_stmt(func, key);
                    if !seen.insert(rep) {
                        break;
                    }
                    chain.push((key, outcome));
                    cur = rep;
                }
            }
        }
        chain
    }

    /// Closest common single-control-dependence ancestor of a set of
    /// dependences (paper Fig. 6): the first entry of the first chain that
    /// occurs in all other chains.
    fn common_ancestor(&self, func: &Function, cds: &[(PredKey, bool)]) -> Option<(PredKey, bool)> {
        const DEPTH: usize = 64;
        let chains: Vec<Vec<(PredKey, bool)>> = cds
            .iter()
            .map(|&e| self.ancestor_chain(func, e, DEPTH))
            .collect();
        let (first, rest) = chains.split_first()?;
        // A common ancestor must match on both region and side: in the
        // paper's Fig. 6 example the chains through 22T and through
        // 25T→22F meet only at 21T — statement 22 appears in both chains
        // but with different sides, so it is not a common nesting region.
        'cand: for &entry in first {
            for other in rest {
                if !other.contains(&entry) {
                    continue 'cand;
                }
            }
            return Some(entry);
        }
        None
    }

    /// Whether `x` can still execute once the branch `(p, taken)` has been
    /// taken: plain CFG reachability from the taken successor. Used to
    /// qualify the `controlDep` test of Fig. 7 condition ③ — a statement
    /// with multiple (non-aggregatable) control dependences is transitively
    /// control dependent on branches whose opposite side still reaches it,
    /// so control dependence alone would misreport divergence on the
    /// paper's own Fig. 6 example.
    pub fn reachable_after_branch(&self, p: StmtId, taken: bool, x: StmtId) -> bool {
        let Some(&(start, _)) = self
            .cfg
            .succs(p.0 as usize)
            .iter()
            .find(|&&(_, l)| l == Some(taken))
        else {
            return true; // not a branch: be conservative
        };
        let target = x.0 as usize;
        let mut visited = vec![false; self.cfg.stmt_count() + 1];
        let mut stack = vec![start];
        while let Some(v) = stack.pop() {
            if v == target {
                return true;
            }
            if v >= visited.len() || visited[v] {
                continue;
            }
            visited[v] = true;
            for &(s, _) in self.cfg.succs(v) {
                stack.push(s);
            }
        }
        false
    }

    /// Whether `x` is transitively control dependent on `(p, b)` — the
    /// `controlDep` oracle of the paper's Fig. 7, condition ③.
    pub fn transitively_control_dependent(&self, x: StmtId, p: StmtId, b: bool) -> bool {
        let mut visited: HashSet<StmtId> = HashSet::new();
        let mut stack = vec![x];
        while let Some(v) = stack.pop() {
            if !visited.insert(v) {
                continue;
            }
            for &(q, c) in self.raw_cds(v) {
                if q == p && c == b {
                    return true;
                }
                if !visited.contains(&q) {
                    stack.push(q);
                }
            }
        }
        false
    }

    /// Classifies one statement for the Table 1 census. Returns `None` for
    /// synthetic loop-counter instructions (not real statements).
    pub fn classify(&self, func: &Function, s: StmtId) -> Option<CdClass> {
        let inst = func.inst(s);
        if inst.is_synthetic() {
            return None;
        }
        if func.loop_header(s).is_some() {
            return Some(CdClass::LoopPred);
        }
        let raw = self.raw_cds(s);
        let raw_nontrivial: Vec<_> = raw.iter().filter(|&&(p, _)| p != s).collect();
        if raw_nontrivial.is_empty() {
            return Some(CdClass::MethodBody);
        }
        if raw_nontrivial.len() == 1 {
            return Some(CdClass::OneCd);
        }
        // Multiple raw dependences: aggregatable when the effective view
        // collapses them to a single region.
        let eff = self.effective_cds(func, s);
        if eff.len() <= 1 {
            Some(CdClass::AggrToOne)
        } else {
            Some(CdClass::NotAggr)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcr_lang::{compile, Inst};
    use std::collections::BTreeSet;

    /// Analyzes every function of `src`, checking each against the
    /// independent control-dependence oracle ([`assert_matches_cytron`]).
    fn analyze(src: &str) -> (mcr_lang::Program, Vec<FuncAnalysis>) {
        let p = compile(src).unwrap();
        let fa: Vec<FuncAnalysis> = p.funcs.iter().map(FuncAnalysis::new).collect();
        for (f, a) in p.funcs.iter().zip(&fa) {
            assert_matches_cytron(&f.name, a);
        }
        (p, fa)
    }

    /// Cytron et al.'s control dependence ("Efficiently computing static
    /// single assignment form and the control dependence graph",
    /// TOPLAS'91, Fig. 10, run on the reverse CFG). `y` is in the
    /// postdominance frontier of `x` when `x` postdominates a successor
    /// of `y` but does not strictly postdominate `y`; `x` is then control
    /// dependent on `y`, with the label of each edge out of `y` whose
    /// target `x` postdominates. Jumps, fallthroughs and virtual exit
    /// edges carry no branch outcome, so they yield no `(branch, outcome)`
    /// dependence. Shares only the post-dominator tree with
    /// [`FuncAnalysis::new`]'s Ferrante–Ottenstein–Warren walk.
    fn cytron_cds(fa: &FuncAnalysis) -> Vec<BTreeSet<(StmtId, bool)>> {
        let cfg = fa.cfg();
        let exit = cfg.exit();
        let ipdom = |v: Node| {
            fa.ipdom_stmt(StmtId(v as u32))
                .map_or(exit, |s| s.0 as Node)
        };
        let mut children = vec![Vec::new(); exit + 1];
        for v in 0..exit {
            children[ipdom(v)].push(v);
        }
        // A preorder of the post-dominator tree; reversed, every node
        // comes after all of its children.
        let mut preorder = Vec::with_capacity(exit + 1);
        let mut stack = vec![exit];
        while let Some(v) = stack.pop() {
            preorder.push(v);
            stack.extend(&children[v]);
        }
        let mut pdf: Vec<BTreeSet<Node>> = vec![BTreeSet::new(); exit + 1];
        for &x in preorder.iter().rev() {
            // DF_local: predecessors `x` does not immediately postdominate.
            let mut frontier: BTreeSet<Node> = cfg
                .preds(x)
                .iter()
                .copied()
                .filter(|&y| ipdom(y) != x)
                .collect();
            // DF_up: inherited from the children of `x` in the tree.
            for &z in &children[x] {
                frontier.extend(pdf[z].iter().copied().filter(|&y| ipdom(y) != x));
            }
            pdf[x] = frontier;
        }
        let postdominates = |x: Node, mut v: Node| loop {
            if v == x {
                return true;
            }
            if v == exit {
                return false;
            }
            v = ipdom(v);
        };
        (0..exit)
            .map(|x| {
                let mut cds = BTreeSet::new();
                for &y in &pdf[x] {
                    for &(succ, label) in cfg.succs(y) {
                        if let Some(b) = label {
                            if postdominates(x, succ) {
                                cds.insert((StmtId(y as u32), b));
                            }
                        }
                    }
                }
                cds
            })
            .collect()
    }

    /// Asserts that [`FuncAnalysis::raw_cds`] equals the Cytron oracle
    /// edge for edge, outcome included, for every statement of one
    /// function. Returns the number of edges compared.
    fn assert_matches_cytron(func: &str, fa: &FuncAnalysis) -> usize {
        let mut edges = 0;
        for (s, expected) in cytron_cds(fa).into_iter().enumerate() {
            let mut raw = fa.raw_cds(StmtId(s as u32)).to_vec();
            raw.sort_unstable();
            let expected: Vec<_> = expected.into_iter().collect();
            assert_eq!(raw, expected, "{func}: control dependences of stmt {s}");
            edges += raw.len();
        }
        edges
    }

    #[test]
    fn raw_cds_match_the_postdominance_frontier_oracle_on_every_workload() {
        let programs = mcr_workloads::all_bugs()
            .into_iter()
            .map(|b| (b.name, b.compile()))
            .chain(
                mcr_workloads::fault_bugs()
                    .into_iter()
                    .map(|b| (b.name, b.compile())),
            );
        let mut edges = 0;
        for (name, p) in programs {
            for f in &p.funcs {
                edges +=
                    assert_matches_cytron(&format!("{name}::{}", f.name), &FuncAnalysis::new(f));
            }
        }
        assert!(edges > 0, "the oracle compared no control dependences");
    }

    /// Finds the single statement satisfying a predicate.
    fn find_stmt(f: &mcr_lang::Function, pred: impl Fn(&Inst) -> bool) -> StmtId {
        let hits: Vec<_> = f
            .body
            .iter()
            .enumerate()
            .filter(|(_, i)| pred(i))
            .map(|(i, _)| StmtId(i as u32))
            .collect();
        assert_eq!(hits.len(), 1, "expected exactly one matching statement");
        hits[0]
    }

    #[test]
    fn one_cd_inside_if() {
        // Paper Fig. 5a: statement in a plain then-branch has one CD.
        let (p, fa) = analyze("global x: int; fn main() { if (x > 0) { x = 7; } }");
        let f = p.func(p.main);
        let a = &fa[p.main.0 as usize];
        let s = find_stmt(f, |i| {
            matches!(
                i,
                Inst::Assign {
                    src: mcr_lang::Expr::Const(7),
                    ..
                }
            )
        });
        assert_eq!(a.raw_cds(s).len(), 1);
        assert_eq!(a.classify(f, s), Some(CdClass::OneCd));
        match a.index_parent(f, s) {
            ParentStep::Pred {
                key,
                outcome,
                lossy,
            } => {
                assert!(matches!(key, PredKey::Stmt(_)));
                assert!(outcome);
                assert!(!lossy);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn aggregatable_or_condition() {
        // Paper Fig. 5b: `if (p1 || p2) s1;` — s1 has two CDs aggregatable
        // into one complex predicate.
        let (p, fa) =
            analyze("global a: int; global b: int; fn main() { if (a > 0 || b > 0) { a = 7; } }");
        let f = p.func(p.main);
        let an = &fa[p.main.0 as usize];
        let s = find_stmt(f, |i| {
            matches!(
                i,
                Inst::Assign {
                    src: mcr_lang::Expr::Const(7),
                    ..
                }
            )
        });
        assert_eq!(an.raw_cds(s).len(), 2);
        assert_eq!(an.classify(f, s), Some(CdClass::AggrToOne));
        match an.index_parent(f, s) {
            ParentStep::Pred {
                key: PredKey::Cluster(_),
                outcome: true,
                lossy: false,
            } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn non_aggregatable_goto() {
        // Paper Fig. 6, statement numbering preserved in the constants:
        // 26 is reachable both through `goto` (22T) and through 25T, so it
        // has two non-aggregatable control dependences whose closest
        // common single-CD ancestor is 21T.
        let src = r#"
            global a: int; global b: int; global c: int;
            fn main() {
                if (a > 0) {
                    if (b > 0) { goto s2; }
                    c = 1;
                    if (c > 1) {
                        label s2:
                        c = 26;
                    } else {
                        c = 3;
                    }
                }
                c = 30;
            }
        "#;
        let (p, fa) = analyze(src);
        let f = p.func(p.main);
        let an = &fa[p.main.0 as usize];
        let s = find_stmt(f, |i| {
            matches!(
                i,
                Inst::Assign {
                    src: mcr_lang::Expr::Const(26),
                    ..
                }
            )
        });
        assert!(an.raw_cds(s).len() >= 2, "cds: {:?}", an.raw_cds(s));
        assert_eq!(an.classify(f, s), Some(CdClass::NotAggr));
        // The common ancestor must be the outer `a > 0` branch, true side.
        match an.index_parent(f, s) {
            ParentStep::Pred {
                key: PredKey::Stmt(q),
                outcome: true,
                lossy: true,
            } => {
                // q must be the outermost branch (smallest branch stmt id).
                let outer = f.body.iter().position(mcr_lang::Inst::is_branch).unwrap();
                assert_eq!(q.0 as usize, outer);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn loop_nesting_parent() {
        let (p, fa) =
            analyze("global n: int; fn main() { var i; for (i = 0; i < n; i = i + 1) { n = 9; } }");
        let f = p.func(p.main);
        let an = &fa[p.main.0 as usize];
        let s = find_stmt(f, |i| {
            matches!(
                i,
                Inst::Assign {
                    src: mcr_lang::Expr::Const(9),
                    ..
                }
            )
        });
        match an.index_parent(f, s) {
            ParentStep::Loop { header } => {
                assert!(f.loop_header(header).is_some());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn loop_header_classified_as_loop_pred() {
        let (p, fa) = analyze("global n: int; fn main() { while (n > 0) { n = n - 1; } }");
        let f = p.func(p.main);
        let an = &fa[p.main.0 as usize];
        let header = f.loops[0].header;
        assert_eq!(an.classify(f, header), Some(CdClass::LoopPred));
        // The loop header at top level nests in the method body.
        assert_eq!(an.index_parent(f, header), ParentStep::MethodBody);
    }

    #[test]
    fn nested_loop_header_parent_is_outer_loop() {
        let (p, fa) = analyze(
            "global n: int; fn main() { var i; var j; while (i < n) { i = i + 1; while (j < n) { j = j + 1; } } }",
        );
        let f = p.func(p.main);
        let an = &fa[p.main.0 as usize];
        let inner = f.loops[1].header;
        match an.index_parent(f, inner) {
            ParentStep::Loop { header } => assert_eq!(header, f.loops[0].header),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn method_body_statements_have_no_cd() {
        let (p, fa) = analyze("global x: int; fn main() { x = 1; x = 2; }");
        let f = p.func(p.main);
        let an = &fa[p.main.0 as usize];
        assert_eq!(an.classify(f, StmtId(0)), Some(CdClass::MethodBody));
        assert_eq!(an.index_parent(f, StmtId(0)), ParentStep::MethodBody);
    }

    #[test]
    fn transitive_control_dependence() {
        let (p, fa) = analyze(
            "global a: int; global b: int; fn main() { if (a > 0) { if (b > 0) { b = 5; } } }",
        );
        let f = p.func(p.main);
        let an = &fa[p.main.0 as usize];
        let inner_assign = find_stmt(f, |i| {
            matches!(
                i,
                Inst::Assign {
                    src: mcr_lang::Expr::Const(5),
                    ..
                }
            )
        });
        let outer = StmtId(f.body.iter().position(mcr_lang::Inst::is_branch).unwrap() as u32);
        assert!(an.transitively_control_dependent(inner_assign, outer, true));
        assert!(!an.transitively_control_dependent(inner_assign, outer, false));
    }

    #[test]
    fn else_branch_outcome_is_false() {
        let (p, fa) =
            analyze("global x: int; fn main() { if (x > 0) { x = 1; } else { x = 22; } }");
        let f = p.func(p.main);
        let an = &fa[p.main.0 as usize];
        let s = find_stmt(f, |i| {
            matches!(
                i,
                Inst::Assign {
                    src: mcr_lang::Expr::Const(22),
                    ..
                }
            )
        });
        match an.index_parent(f, s) {
            ParentStep::Pred { outcome, .. } => assert!(!outcome),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cluster_member_parent_skips_to_cluster_parent() {
        // The second predicate of `a || b` nests (statically) in the first's
        // false edge, but as a cluster member its index parent is the
        // cluster's parent — here the enclosing if.
        let (p, fa) = analyze(
            "global a: int; global b: int; global c: int; fn main() { if (c > 0) { if (a > 0 || b > 0) { a = 7; } } }",
        );
        let f = p.func(p.main);
        let an = &fa[p.main.0 as usize];
        let g = &f.cond_groups[0];
        let second = g.members[1];
        match an.index_parent(f, second) {
            ParentStep::Pred {
                key: PredKey::Stmt(q),
                outcome: true,
                ..
            } => {
                // q is the outer `c > 0` branch.
                let outer = f.body.iter().position(mcr_lang::Inst::is_branch).unwrap();
                assert_eq!(q.0 as usize, outer);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pred_event_resolution() {
        let (p, fa) =
            analyze("global a: int; global b: int; fn main() { if (a > 0 || b > 0) { a = 7; } }");
        let f = p.func(p.main);
        let an = &fa[p.main.0 as usize];
        let g = &f.cond_groups[0];
        let root = g.root();
        let second = g.members[1];
        assert!(matches!(
            an.pred_event(f, root, true),
            PredEvent::ClusterResolved { side: true, .. }
        ));
        assert!(matches!(
            an.pred_event(f, root, false),
            PredEvent::ClusterInternal { .. }
        ));
        assert!(matches!(
            an.pred_event(f, second, false),
            PredEvent::ClusterResolved { side: false, .. }
        ));
    }

    #[test]
    fn statements_after_if_are_method_body() {
        let (p, fa) = analyze("global x: int; fn main() { if (x > 0) { x = 1; } x = 33; }");
        let f = p.func(p.main);
        let an = &fa[p.main.0 as usize];
        let s = find_stmt(f, |i| {
            matches!(
                i,
                Inst::Assign {
                    src: mcr_lang::Expr::Const(33),
                    ..
                }
            )
        });
        assert_eq!(an.classify(f, s), Some(CdClass::MethodBody));
    }
}
