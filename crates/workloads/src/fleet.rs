//! Fleet job mixes: duplicate-heavy batches for the `mcr-batch`
//! scheduler and its benchmarks.
//!
//! A production triage queue is dominated by *near-duplicates*: the same
//! bug crashing over and over, occasionally under a different input.
//! [`fleet_corpus`] models that shape over the Table 2 bug suite — for
//! each bug, several byte-identical jobs (same program, same lengthened
//! input, hence the same failure dump once stressed) plus one
//! distinct-input variant — so a batch engine's content-addressed
//! caching and single-flight dedup have exactly the redundancy they are
//! built to exploit, while the variants keep it honest about genuinely
//! new work.
//!
//! Specs are pure descriptions (program + input recipe); producing the
//! failure dumps requires stressing, which belongs to the consumer
//! (`mcr-bench`, examples, tests) — note that duplicates share a
//! [`FleetSpec::dedup_key`], so a consumer stresses each *distinct* spec
//! once and clones the dump across its duplicates.

use crate::bugs::{all_bugs, BugSpec};
use mcr_vm::SplitMix64;

/// One fleet job description: which bug, which input recipe, and how
/// urgent.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Job name, unique within the corpus ("mysql-3#dup1").
    pub name: String,
    /// The underlying benchmark bug.
    pub bug: BugSpec,
    /// Random-prefix length of the lengthened input.
    pub warmup: usize,
    /// Seed of the lengthened input's random prefix.
    pub input_seed: u64,
    /// Scheduling priority (lower = earlier).
    pub priority: u32,
}

impl FleetSpec {
    /// The job's failing input (deterministic per spec).
    pub fn input(&self) -> Vec<i64> {
        self.bug.lengthened_input(self.warmup, self.input_seed)
    }

    /// Work-identity key: two specs with equal keys describe identical
    /// jobs (same program, same input ⇒ same stress outcome ⇒ same
    /// phase keys). Consumers stress one representative per key.
    pub fn dedup_key(&self) -> (String, usize, u64) {
        (self.bug.name.to_string(), self.warmup, self.input_seed)
    }
}

/// A duplicate-heavy job mix over `bugs`: per bug, `copies` identical
/// jobs plus one distinct-input variant. Priorities are drawn
/// deterministically from `seed`, so the schedule is shuffled but
/// reproducible. `copies = 0` yields only the variants.
pub fn fleet_mix(bugs: &[BugSpec], copies: usize, seed: u64) -> Vec<FleetSpec> {
    let mut rng = SplitMix64::new(seed ^ 0xF1EE_7C0D);
    let mut specs = Vec::new();
    for bug in bugs {
        for c in 0..copies {
            specs.push(FleetSpec {
                name: format!("{}#dup{}", bug.name, c),
                bug: bug.clone(),
                warmup: bug.default_warmup,
                input_seed: 42,
                priority: rng.next_range(0, 9) as u32,
            });
        }
        // One genuinely distinct job per bug: a different input prefix
        // changes the dump, the phase keys, and hence the work.
        specs.push(FleetSpec {
            name: format!("{}#variant", bug.name),
            bug: bug.clone(),
            warmup: bug.default_warmup,
            input_seed: 43 + seed,
            priority: rng.next_range(0, 9) as u32,
        });
    }
    specs
}

/// [`fleet_mix`] over the whole Table 2 suite.
pub fn fleet_corpus(copies: usize, seed: u64) -> Vec<FleetSpec> {
    fleet_mix(&all_bugs(), copies, seed)
}

/// A deterministic *arrival stream* over a job mix, for driving a
/// long-running triage service: [`fleet_mix`] groups a bug's duplicates
/// together, but a production queue interleaves them — the same crash
/// trickles in between unrelated reports. `FleetStream` yields the
/// specs of a mix in a seeded shuffle (Fisher–Yates over `SplitMix64`),
/// so consumers can `submit` one spec at a time and still reproduce the
/// exact arrival order across runs.
///
/// The stream is a plain [`Iterator`] (with exact size), so it composes
/// with `take`, `by_ref` chunking, etc.
#[derive(Debug, Clone)]
pub struct FleetStream {
    /// Remaining specs, stored back-to-front so `next` pops from the
    /// end.
    reversed: Vec<FleetSpec>,
}

impl Iterator for FleetStream {
    type Item = FleetSpec;

    fn next(&mut self) -> Option<FleetSpec> {
        self.reversed.pop()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.reversed.len(), Some(self.reversed.len()))
    }
}

impl ExactSizeIterator for FleetStream {}

/// The arrival stream of [`fleet_mix`]`(bugs, copies, seed)`: the same
/// specs, in a deterministic seeded arrival order.
pub fn fleet_stream(bugs: &[BugSpec], copies: usize, seed: u64) -> FleetStream {
    let mut specs = fleet_mix(bugs, copies, seed);
    let mut rng = SplitMix64::new(seed ^ 0x57AE_A17B_57AE_A17B);
    // Fisher–Yates, then reverse so pops come out in shuffled order.
    for i in (1..specs.len()).rev() {
        let j = rng.next_range(0, i as i64) as usize;
        specs.swap(i, j);
    }
    specs.reverse();
    FleetStream { reversed: specs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn corpus_is_deterministic_and_duplicate_heavy() {
        let a = fleet_corpus(3, 7);
        let b = fleet_corpus(3, 7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.priority, y.priority);
            assert_eq!(x.input(), y.input());
        }
        // 7 bugs x (3 dups + 1 variant).
        assert_eq!(a.len(), all_bugs().len() * 4);
        let mut by_key: HashMap<_, usize> = HashMap::new();
        for spec in &a {
            *by_key.entry(spec.dedup_key()).or_default() += 1;
        }
        // Per bug: one key with 3 duplicates, one with the variant.
        assert_eq!(by_key.len(), all_bugs().len() * 2);
        assert_eq!(
            by_key.values().filter(|&&n| n == 3).count(),
            all_bugs().len()
        );
    }

    #[test]
    fn names_are_unique_and_variants_differ() {
        let corpus = fleet_corpus(2, 1);
        let names: HashSet<&str> = corpus.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.len(), corpus.len());
        for bug in all_bugs() {
            let dup = corpus
                .iter()
                .find(|s| s.name == format!("{}#dup0", bug.name))
                .unwrap();
            let var = corpus
                .iter()
                .find(|s| s.name == format!("{}#variant", bug.name))
                .unwrap();
            assert_eq!(dup.dedup_key().0, var.dedup_key().0);
            assert_ne!(dup.dedup_key(), var.dedup_key());
            assert_ne!(dup.input(), var.input(), "{}", bug.name);
            // Both keep the bug-report tail.
            assert_eq!(&dup.input()[dup.warmup..], bug.base_input, "{}", bug.name);
        }
    }

    #[test]
    fn stream_is_a_deterministic_permutation_of_the_mix() {
        let bugs = all_bugs();
        let mix = fleet_mix(&bugs, 2, 9);
        let a: Vec<FleetSpec> = fleet_stream(&bugs, 2, 9).collect();
        let b: Vec<FleetSpec> = fleet_stream(&bugs, 2, 9).collect();
        assert_eq!(a.len(), mix.len());
        // Deterministic: the same seed reproduces the arrival order.
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.priority, y.priority);
        }
        // A permutation: every spec of the mix arrives exactly once.
        let mut mix_names: Vec<&str> = mix.iter().map(|s| s.name.as_str()).collect();
        let mut stream_names: Vec<&str> = a.iter().map(|s| s.name.as_str()).collect();
        mix_names.sort_unstable();
        stream_names.sort_unstable();
        assert_eq!(mix_names, stream_names);
        // And genuinely shuffled: arrival differs from the grouped mix
        // (seeded, so this cannot flake).
        let grouped: Vec<&str> = mix.iter().map(|s| s.name.as_str()).collect();
        let arrived: Vec<&str> = a.iter().map(|s| s.name.as_str()).collect();
        assert_ne!(grouped, arrived, "stream must interleave the mix");
        // Exact size is reported up front.
        let stream = fleet_stream(&bugs, 2, 9);
        assert_eq!(stream.len(), mix.len());
    }

    #[test]
    fn duplicate_specs_share_inputs() {
        let corpus = fleet_mix(&all_bugs()[..2], 2, 5);
        for bug in &all_bugs()[..2] {
            let dups: Vec<&FleetSpec> = corpus
                .iter()
                .filter(|s| s.name.starts_with(&format!("{}#dup", bug.name)))
                .collect();
            assert_eq!(dups.len(), 2);
            assert_eq!(dups[0].input(), dups[1].input());
            assert_eq!(dups[0].dedup_key(), dups[1].dedup_key());
        }
    }
}
