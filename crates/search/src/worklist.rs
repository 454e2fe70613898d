//! The CHESS worklist as a lazy generator.
//!
//! A worklist holds every single preemption and, under a preemption
//! bound of two or more, every pair drawn from the *pair pool* (all
//! candidates, or the [`SearchConfig::pair_pool`] best when there are
//! more). The two algorithms test it in different orders:
//!
//! * [`Algorithm::Chess`] — execution order: singles by candidate index,
//!   then pairs lexicographically.
//! * [`Algorithm::ChessX`] — paper Algorithm 2: ascending weight (the
//!   sum of the members' best priorities), singles before pairs of equal
//!   weight, then lexicographically by candidate indices.
//!
//! [`Worklist`] yields exactly that sequence without materializing it.
//! The quadratic pair list is never built: the search usually stops
//! within its first few entries, so it pays only for what it tests.
//! Entries are `Copy` values, and the only growing state is a heap of
//! at most one head per pair-pool member. For ChessX the pairs are a k-way
//! merge of one stream per first member `i`: its partners `j > i` in
//! ascending `(priority, index)` order have ascending weight, so the
//! stream is sorted by `(weight, i, j)`. A binary heap merges the
//! streams, and a stream joins the heap only once its lower bound could
//! be the next entry, so the heap stays small until the search goes
//! deep.

use crate::candidates::AnnotatedCandidate;
use crate::chess::{Algorithm, SearchConfig};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One worklist entry: a single candidate index, or an ascending pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Combo {
    idx: [usize; 2],
    len: usize,
}

impl Combo {
    /// A single preemption at candidate `i`.
    fn single(i: usize) -> Combo {
        Combo {
            idx: [i, 0],
            len: 1,
        }
    }

    /// Preemptions at candidates `i` and `j` (`i < j`).
    fn pair(i: usize, j: usize) -> Combo {
        debug_assert!(i < j, "pairs are ascending");
        Combo {
            idx: [i, j],
            len: 2,
        }
    }

    /// The candidate indices, ascending.
    pub fn indices(&self) -> &[usize] {
        &self.idx[..self.len]
    }
}

/// Generates a search's worklist in test order; see the module docs.
#[derive(Debug, Clone)]
pub struct Worklist {
    remaining: usize,
    order: Order,
}

#[derive(Debug, Clone)]
enum Order {
    /// Plain CHESS: singles `0..n`, then pairs `(a, b)` with
    /// `a < b < pool` in lexicographic order.
    Execution {
        n: usize,
        pool: usize,
        single: usize,
        a: usize,
        b: usize,
    },
    Weighted(Weighted),
}

/// State of the ChessX merge.
#[derive(Debug, Clone)]
struct Weighted {
    /// Best priority of each candidate.
    prio: Vec<u64>,
    /// Candidate indices by ascending `(priority, index)`. The pair pool
    /// is its first `pool` entries.
    by_prio: Vec<usize>,
    pool: usize,
    /// Next single, as a position in `by_prio`.
    single: usize,
    /// Next pair stream not yet in the heap, as a position in `by_prio`.
    stream: usize,
    /// Head of each active pair stream: `(weight, i, j, position of j in
    /// by_prio)`.
    heap: BinaryHeap<Reverse<(u64, usize, usize, usize)>>,
}

impl Worklist {
    /// The worklist `find_schedule` walks for `candidates`.
    pub(crate) fn new(
        candidates: &[AnnotatedCandidate],
        algorithm: Algorithm,
        config: &SearchConfig,
    ) -> Worklist {
        Worklist::from_priorities(
            candidates.iter().map(|c| c.best_priority),
            algorithm,
            config.preemption_bound,
            config.pair_pool,
        )
    }

    /// The worklist of candidates with best priorities `priorities`
    /// (in candidate order); only ChessX reads the values.
    pub fn from_priorities(
        priorities: impl ExactSizeIterator<Item = u32>,
        algorithm: Algorithm,
        preemption_bound: usize,
        pair_pool: usize,
    ) -> Worklist {
        let n = priorities.len();
        let remaining = worklist_size(n, preemption_bound, pair_pool);
        let pool = if preemption_bound >= 2 {
            n.min(pair_pool)
        } else {
            0
        };
        let order = match algorithm {
            Algorithm::Chess => Order::Execution {
                n,
                pool,
                single: 0,
                a: 0,
                b: 1,
            },
            Algorithm::ChessX => {
                let prio: Vec<u64> = priorities.map(u64::from).collect();
                let mut by_prio: Vec<usize> = (0..n).collect();
                by_prio.sort_unstable_by_key(|&i| (prio[i], i));
                Order::Weighted(Weighted {
                    prio,
                    by_prio,
                    pool,
                    single: 0,
                    stream: 0,
                    heap: BinaryHeap::new(),
                })
            }
        };
        Worklist { remaining, order }
    }
}

impl Iterator for Worklist {
    type Item = Combo;

    fn next(&mut self) -> Option<Combo> {
        let combo = match &mut self.order {
            Order::Execution {
                n,
                pool,
                single,
                a,
                b,
            } => {
                if *single < *n {
                    *single += 1;
                    Some(Combo::single(*single - 1))
                } else if *b < *pool {
                    let combo = Combo::pair(*a, *b);
                    *b += 1;
                    if *b == *pool {
                        *a += 1;
                        *b = *a + 1;
                    }
                    Some(combo)
                } else {
                    None
                }
            }
            Order::Weighted(w) => w.next(),
        };
        if combo.is_some() {
            self.remaining -= 1;
        }
        combo
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Worklist {}

impl Weighted {
    fn next(&mut self) -> Option<Combo> {
        // Order key of the next single: (weight, len = 1, index).
        let single = self
            .by_prio
            .get(self.single)
            .map(|&i| (self.prio[i], 1, i, 0));
        let pair = |&Reverse((w, i, j, _)): &Reverse<(u64, usize, usize, usize)>| (w, 2, i, j);
        let mut best = single.into_iter().chain(self.heap.peek().map(pair)).min();
        // Activate every pending stream that could hold an earlier pair.
        // Stream `i`'s pairs all sort at or after `(p_i + p_min, 2, i, 0)`
        // and pending streams come in ascending order of that bound, so
        // the first one that cannot beat `best` ends the scan.
        while self.stream < self.pool {
            let i = self.by_prio[self.stream];
            let bound = (self.prio[i] + self.prio[self.by_prio[0]], 2, i, 0);
            if best.is_some_and(|b| b <= bound) {
                break;
            }
            self.stream += 1;
            self.push_partner(i, 0);
            best = single.into_iter().chain(self.heap.peek().map(pair)).min();
        }
        let (_, len, i, _) = best?;
        if len == 1 {
            self.single += 1;
            return Some(Combo::single(i));
        }
        let Reverse((_, i, j, at)) = self.heap.pop().expect("best pair is the heap top");
        self.push_partner(i, at + 1);
        Some(Combo::pair(i, j))
    }

    /// Pushes stream `i`'s next pair: its first pool partner `j > i` at
    /// or after position `from` of `by_prio`.
    fn push_partner(&mut self, i: usize, from: usize) {
        let pool = &self.by_prio[..self.pool];
        if let Some(off) = pool[from..].iter().position(|&j| j > i) {
            let at = from + off;
            let j = pool[at];
            self.heap
                .push(Reverse((self.prio[i] + self.prio[j], i, j, at)));
        }
    }
}

/// The number of combinations a worklist over `n_candidates` holds.
pub fn worklist_size(n_candidates: usize, bound: usize, pair_pool: usize) -> usize {
    let n = n_candidates;
    let pool = n.min(pair_pool);
    let pairs = if bound >= 2 {
        pool * pool.saturating_sub(1) / 2
    } else {
        0
    };
    n + pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcr_slice::PRIORITY_BOTTOM as BOT;
    use proptest::prelude::*;

    /// The materialize-and-sort worklist the generator replaced, kept
    /// as the reference for its order.
    fn reference_worklist(
        priorities: &[u32],
        algorithm: Algorithm,
        bound: usize,
        pair_pool: usize,
    ) -> Vec<Vec<usize>> {
        let n = priorities.len();
        let mut singles: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        let mut pool: Vec<usize> = (0..n).collect();
        if n > pair_pool {
            if algorithm == Algorithm::ChessX {
                pool.sort_by_key(|&i| priorities[i]);
            }
            pool.truncate(pair_pool);
            pool.sort_unstable();
        }
        let mut pairs: Vec<Vec<usize>> = Vec::new();
        if bound >= 2 {
            for (a, &i) in pool.iter().enumerate() {
                for &j in pool.iter().skip(a + 1) {
                    pairs.push(vec![i, j]);
                }
            }
        }
        match algorithm {
            Algorithm::Chess => {
                singles.extend(pairs);
                singles
            }
            Algorithm::ChessX => {
                let weight = |combo: &Vec<usize>| -> u64 {
                    combo.iter().map(|&i| u64::from(priorities[i])).sum()
                };
                let mut out = singles;
                out.append(&mut pairs);
                out.sort_by_key(|c| (weight(c), c.len(), c.clone()));
                out
            }
        }
    }

    fn generated(
        priorities: &[u32],
        algorithm: Algorithm,
        bound: usize,
        pair_pool: usize,
    ) -> Vec<Vec<usize>> {
        let wl = Worklist::from_priorities(priorities.iter().copied(), algorithm, bound, pair_pool);
        assert_eq!(wl.len(), worklist_size(priorities.len(), bound, pair_pool));
        wl.map(|c| c.indices().to_vec()).collect()
    }

    /// Maps a small draw onto the priority values the search sees: a
    /// few ranked priorities plus the two bottom tiers.
    fn priority(draw: u32, spread: u32) -> u32 {
        match draw % (spread + 2) {
            0 => BOT,
            1 => BOT - 1,
            v => v - 1,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The generator yields the reference worklist, entry for entry,
        /// over random candidate sets, both algorithms, bounds 0–3 and
        /// pair pools that do and do not cap the pairs.
        #[test]
        fn generator_matches_reference(
            draws in proptest::collection::vec(0u32..1000, 0..48),
            spread in 1u32..40,
            bound in 0usize..4,
            pair_pool in 0usize..56,
            chessx in proptest::bool::ANY,
        ) {
            let priorities: Vec<u32> = draws.iter().map(|&d| priority(d, spread)).collect();
            let algorithm = if chessx { Algorithm::ChessX } else { Algorithm::Chess };
            prop_assert_eq!(
                generated(&priorities, algorithm, bound, pair_pool),
                reference_worklist(&priorities, algorithm, bound, pair_pool)
            );
        }
    }

    #[test]
    fn empty_and_tiny_worklists() {
        for algorithm in [Algorithm::Chess, Algorithm::ChessX] {
            assert!(generated(&[], algorithm, 2, 512).is_empty());
            assert_eq!(generated(&[7], algorithm, 2, 512), vec![vec![0]]);
            assert_eq!(
                generated(&[7, 7], algorithm, 1, 512),
                vec![vec![0], vec![1]]
            );
        }
        assert_eq!(worklist_size(0, 2, 512), 0);
    }

    #[test]
    fn chessx_orders_by_weight_then_length_then_indices() {
        let wl = generated(&[3, 1, 2], Algorithm::ChessX, 2, 512);
        assert_eq!(
            wl,
            vec![
                vec![1],
                vec![2],
                vec![0],
                vec![1, 2],
                vec![0, 1],
                vec![0, 2],
            ]
        );
    }

    #[test]
    fn long_prefix_matches_reference_at_search_scale() {
        // A candidate count and pool the size of the suite's bugs, with
        // the ranked/bottom mix the slicer produces.
        let priorities: Vec<u32> = (0..700u32)
            .map(|i| match i % 7 {
                0 | 3 => BOT,
                5 => BOT - 1,
                _ => 1 + (i * 37) % 23,
            })
            .collect();
        let reference = reference_worklist(&priorities, Algorithm::ChessX, 2, 512);
        let lazy: Vec<Vec<usize>> =
            Worklist::from_priorities(priorities.iter().copied(), Algorithm::ChessX, 2, 512)
                .map(|c| c.indices().to_vec())
                .collect();
        assert_eq!(lazy.len(), reference.len());
        assert!(lazy == reference, "full worklist order diverged");
    }
}
