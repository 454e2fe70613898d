//! Content-addressed artifact stores.
//!
//! Every phase of a [`ReproSession`](crate::ReproSession) is keyed by a
//! [`PhaseKey`]: a stable [`ContentHash`] of the phase and the session
//! basis, which hashes *(program fingerprint, failure dump, failing
//! input, options)*. All three hashes are the one word-at-a-time content
//! hash of [`mcr_lang::hash`]. The program fingerprint is memoized per
//! borrowed program ([`ProgramRef`]), the dump is hashed by its `Hash`
//! walk and the input word by word, so deriving a key builds no
//! encoding and rehashes no program (`BENCH_batch.json`
//! `warm_job.basis_us` records what one key costs). Every artifact is
//! a deterministic function of the basis alone (each upstream artifact
//! is one too), so two phase units with the same key produce
//! byte-identical artifacts, and every key is known before any phase
//! runs. A session whose key hits an [`ArtifactStore`] skips the phase
//! entirely and rehydrates the cached bytes (observed as
//! [`PhaseEvent::CacheHit`](crate::PhaseEvent::CacheHit)). It probes the
//! phase it was asked for first, so a warm session that wants the
//! report makes one lookup: the search artifact carries the whole
//! report.
//!
//! This is the dedup-by-content idea of ShareJIT-style code caches
//! applied to MCR's per-phase artifacts: a triage service ingesting
//! streams of near-duplicate core dumps from the same bug pays for each
//! distinct `(dump, input, options)` pipeline once, fleet-wide.
//!
//! The stores that ship here:
//!
//! * [`NullStore`] — caches nothing (the default of a bare session),
//! * [`MemoryStore`] — an in-memory store, unbounded or an LRU bounded
//!   by total artifact bytes.
//!
//! Every store also slices its counters by phase kind
//! ([`StoreStats::per_phase`]), so a report shows *which* phases hit,
//! miss or evict, not just the global hit rate.
//!
//! All stores are `Send + Sync` and internally synchronized: one store
//! handle (an `Arc`) is shared by every session of a fleet.

use crate::observe::Phase;
use mcr_dump::wire::{ContentHash, ContentHasher};
use mcr_lang::Program;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hasher;
use std::sync::{Arc, Mutex, OnceLock};

/// Identity of one unit of phase work: the phase plus the content hash
/// of everything that determines its artifact, the session basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhaseKey {
    /// The pipeline phase this key belongs to.
    pub phase: Phase,
    /// Content hash of the session basis (program fingerprint, input,
    /// failure dump, options) and the phase.
    pub hash: ContentHash,
}

impl PhaseKey {
    /// Derives the key for `phase` from the session `basis`. No upstream
    /// artifact enters it: each is a deterministic function of the
    /// basis, so it would never tell two entries apart.
    pub fn derive(basis: ContentHash, phase: Phase) -> PhaseKey {
        let mut h = ContentHasher::new();
        h.update(b"MCRPK3");
        h.write_u128(basis.0);
        h.write_u8(phase.index() as u8);
        PhaseKey {
            phase,
            hash: h.finish128(),
        }
    }
}

impl fmt::Display for PhaseKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.phase, self.hash)
    }
}

/// One phase kind's slice of a store's counters. Global totals answer
/// "how well does the cache work"; the per-phase rows answer "*which*
/// phases hit, miss or evict" (e.g. large search artifacts being
/// evicted while tiny rank artifacts stay resident).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// `get` calls for this phase kind that found their key.
    pub hits: u64,
    /// `get` calls for this phase kind that missed.
    pub misses: u64,
    /// `put` calls that stored a new entry of this phase kind.
    pub inserts: u64,
    /// Entries of this phase kind dropped to stay under a capacity
    /// bound.
    pub evictions: u64,
    /// Entries of this phase kind currently resident.
    pub entries: usize,
    /// Artifact bytes of this phase kind currently resident.
    pub bytes: usize,
}

/// Counters every store tracks; a fleet summary reports them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// `get` calls that found their key.
    pub hits: u64,
    /// `get` calls that missed.
    pub misses: u64,
    /// `put` calls that stored a new entry.
    pub inserts: u64,
    /// Entries dropped to stay under a capacity bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Total artifact bytes currently resident.
    pub bytes: usize,
    /// The same counters sliced by phase kind, indexed by
    /// [`Phase::index`] (see [`StoreStats::phase`]).
    pub per_phase: [PhaseStats; 5],
}

impl StoreStats {
    /// Fraction of lookups that hit, in `[0, 1]` (0 when none ran).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The counters for one phase kind.
    pub fn phase(&self, phase: Phase) -> PhaseStats {
        self.per_phase[phase.index()]
    }
}

/// A shared, content-addressed artifact cache.
///
/// Implementations are internally synchronized (`&self` methods) so one
/// handle serves a whole fleet. A store is a *cache*, never a source of
/// truth: `get` may forget anything at any time, and `put` may decline
/// to retain.
pub trait ArtifactStore: Send + Sync + fmt::Debug {
    /// The artifact bytes stored under `key`, if any.
    fn get(&self, key: &PhaseKey) -> Option<Vec<u8>>;

    /// Stores `bytes` under `key` (last write wins; identical keys carry
    /// identical bytes by construction).
    fn put(&self, key: &PhaseKey, bytes: &[u8]);

    /// Lookup/insert/eviction counters.
    fn stats(&self) -> StoreStats;

    /// Whether this store can ever return a hit. [`NullStore`] says
    /// `false`, which lets the session driver skip key derivation and
    /// every lookup — a plain uncached pipeline run pays nothing for the
    /// caching machinery.
    fn is_caching(&self) -> bool {
        true
    }
}

/// A store that caches nothing: every lookup misses, every insert is
/// dropped. The default for sessions constructed without a store.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullStore;

impl ArtifactStore for NullStore {
    fn get(&self, _key: &PhaseKey) -> Option<Vec<u8>> {
        None
    }

    fn put(&self, _key: &PhaseKey, _bytes: &[u8]) {}

    fn stats(&self) -> StoreStats {
        StoreStats::default()
    }

    fn is_caching(&self) -> bool {
        false
    }
}

#[derive(Debug, Default)]
struct MemInner {
    map: HashMap<PhaseKey, (Vec<u8>, u64)>,
    tick: u64,
    stats: StoreStats,
}

/// An in-memory LRU store bounded by total artifact bytes.
///
/// Eviction drops least-recently-used entries until the configured byte
/// capacity holds again; a single entry larger than the whole capacity
/// is retained alone (evicting it immediately would make the store
/// useless for exactly the artifacts worth caching most).
#[derive(Debug, Default)]
pub struct MemoryStore {
    capacity: Option<usize>,
    inner: Mutex<MemInner>,
}

impl MemoryStore {
    /// An unbounded store.
    pub fn unbounded() -> MemoryStore {
        MemoryStore::default()
    }

    /// A store that evicts LRU entries beyond `bytes` total capacity.
    pub fn with_capacity(bytes: usize) -> MemoryStore {
        MemoryStore {
            capacity: Some(bytes),
            inner: Mutex::default(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemInner> {
        self.inner.lock().expect("artifact store poisoned")
    }
}

impl ArtifactStore for MemoryStore {
    fn get(&self, key: &PhaseKey) -> Option<Vec<u8>> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let kind = key.phase.index();
        match inner.map.get_mut(key) {
            Some((bytes, used)) => {
                *used = tick;
                let out = bytes.clone();
                inner.stats.hits += 1;
                inner.stats.per_phase[kind].hits += 1;
                Some(out)
            }
            None => {
                inner.stats.misses += 1;
                inner.stats.per_phase[kind].misses += 1;
                None
            }
        }
    }

    fn put(&self, key: &PhaseKey, bytes: &[u8]) {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let kind = key.phase.index();
        match inner.map.insert(*key, (bytes.to_vec(), tick)) {
            Some((old, _)) => {
                inner.stats.bytes -= old.len();
                inner.stats.per_phase[kind].bytes -= old.len();
            }
            None => {
                inner.stats.inserts += 1;
                inner.stats.entries += 1;
                inner.stats.per_phase[kind].inserts += 1;
                inner.stats.per_phase[kind].entries += 1;
            }
        }
        inner.stats.bytes += bytes.len();
        inner.stats.per_phase[kind].bytes += bytes.len();
        if let Some(cap) = self.capacity {
            while inner.stats.bytes > cap && inner.stats.entries > 1 {
                let victim = inner
                    .map
                    .iter()
                    .min_by_key(|(_, (_, used))| *used)
                    .map(|(k, _)| *k)
                    .expect("entries > 1");
                let (dropped, _) = inner.map.remove(&victim).expect("victim resident");
                let vkind = victim.phase.index();
                inner.stats.bytes -= dropped.len();
                inner.stats.entries -= 1;
                inner.stats.evictions += 1;
                inner.stats.per_phase[vkind].bytes -= dropped.len();
                inner.stats.per_phase[vkind].entries -= 1;
                inner.stats.per_phase[vkind].evictions += 1;
            }
        }
    }

    fn stats(&self) -> StoreStats {
        self.lock().stats
    }
}

/// A stable fingerprint of a compiled program
/// ([`mcr_lang::program_fingerprint`]). Part of every session's key
/// basis, so artifacts of different programs can never be confused even
/// when dumps and inputs coincide.
pub fn program_fingerprint(program: &Program) -> ContentHash {
    ContentHash(mcr_lang::program_fingerprint(program))
}

/// A borrowed program with its fingerprint memo: the fingerprint is
/// hashed on first use, at most once, and shared by every clone and by
/// every session opened through it
/// ([`ReproSession::for_program`](crate::ReproSession::for_program)).
///
/// Hashing a program walks all of it, so whatever opens many sessions
/// on one program keeps one of these: a
/// [`Reproducer`](crate::Reproducer) holds one, as a triage service
/// holds one per distinct program. The memo lives with the borrow, not
/// in [`Program`], whose fields are public and may change between two
/// borrows.
#[derive(Debug, Clone)]
pub struct ProgramRef<'p> {
    program: &'p Program,
    fingerprint: Arc<OnceLock<ContentHash>>,
}

impl<'p> ProgramRef<'p> {
    /// Borrows `program`; nothing is hashed yet.
    pub fn new(program: &'p Program) -> Self {
        ProgramRef {
            program,
            fingerprint: Arc::default(),
        }
    }

    /// The borrowed program.
    pub(crate) fn program(&self) -> &'p Program {
        self.program
    }

    /// The program's fingerprint ([`program_fingerprint`]), hashed on
    /// the first call through this memo.
    pub(crate) fn fingerprint(&self) -> ContentHash {
        *self
            .fingerprint
            .get_or_init(|| program_fingerprint(self.program))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(phase: Phase, seed: u8) -> PhaseKey {
        PhaseKey::derive(ContentHash::of(&[seed]), phase)
    }

    /// A key is a function of the basis and the phase: stable, and
    /// distinct across phases of one basis and across bases.
    #[test]
    fn phase_key_derivation_is_stable_and_distinct() {
        let basis = ContentHash::of(b"basis");
        let a = PhaseKey::derive(basis, Phase::Index);
        assert_eq!(a, PhaseKey::derive(basis, Phase::Index));
        let hashes: std::collections::HashSet<ContentHash> = crate::observe::PHASES
            .iter()
            .map(|&phase| PhaseKey::derive(basis, phase).hash)
            .collect();
        assert_eq!(hashes.len(), 5, "each phase has its own key");
        assert_ne!(
            a.hash,
            PhaseKey::derive(ContentHash::of(b"other basis"), Phase::Index).hash
        );
    }

    /// Every single-bit flip of an encoded Table 2 dump hashes to its
    /// own digest.
    #[test]
    fn every_bit_flip_of_a_dump_moves_its_hash() {
        let bug = &mcr_workloads::all_bugs()[0];
        let program = bug.compile();
        let input = bug.default_input();
        let dump = crate::find_failure(&program, &input, 0..200_000, bug.max_steps)
            .expect("stress exposes")
            .dump;
        let mut bytes = mcr_dump::encode(&dump);
        let mut seen = std::collections::HashSet::new();
        assert!(seen.insert(ContentHash::of(&bytes)));
        for i in 0..bytes.len() * 8 {
            bytes[i / 8] ^= 1 << (i % 8);
            assert!(seen.insert(ContentHash::of(&bytes)), "bit {i}");
            bytes[i / 8] ^= 1 << (i % 8);
        }
    }

    #[test]
    fn memory_store_round_trips_and_counts() {
        let store = MemoryStore::unbounded();
        let k = key(Phase::Index, 1);
        assert_eq!(store.get(&k), None);
        store.put(&k, b"artifact");
        assert_eq!(store.get(&k).as_deref(), Some(b"artifact".as_ref()));
        let stats = store.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.inserts, 1);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, 8);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lru_eviction_respects_recency() {
        let store = MemoryStore::with_capacity(8);
        let (a, b, c) = (
            key(Phase::Index, 1),
            key(Phase::Index, 2),
            key(Phase::Index, 3),
        );
        store.put(&a, b"aaaa");
        store.put(&b, b"bbbb");
        // Touch `a` so `b` is now least recently used.
        assert!(store.get(&a).is_some());
        store.put(&c, b"cccc");
        assert!(store.get(&a).is_some(), "recently used survives");
        assert!(store.get(&b).is_none(), "LRU entry evicted");
        assert!(store.get(&c).is_some());
        let stats = store.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert!(stats.bytes <= 8);
    }

    #[test]
    fn oversized_entry_is_retained_alone() {
        let store = MemoryStore::with_capacity(4);
        let k = key(Phase::Search, 9);
        store.put(&k, b"waytoobig");
        assert!(store.get(&k).is_some());
        assert_eq!(store.stats().entries, 1);
    }

    #[test]
    fn null_store_forgets_everything() {
        let store = NullStore;
        let k = key(Phase::Rank, 0);
        store.put(&k, b"bytes");
        assert_eq!(store.get(&k), None);
        assert_eq!(store.stats(), StoreStats::default());
    }

    #[test]
    fn per_phase_histograms_follow_the_global_counters() {
        let store = MemoryStore::with_capacity(16);
        let (idx, srch) = (key(Phase::Index, 1), key(Phase::Search, 2));
        store.put(&idx, b"12345678");
        store.put(&srch, b"abcdefgh");
        assert!(store.get(&idx).is_some());
        assert!(store.get(&key(Phase::Rank, 3)).is_none());
        // A third insert overflows the 16-byte capacity; the LRU victim
        // is the search entry (index was touched last).
        store.put(&key(Phase::Diff, 4), b"qrstuvwx");
        let stats = store.stats();
        assert_eq!(stats.phase(Phase::Index).hits, 1);
        assert_eq!(stats.phase(Phase::Index).inserts, 1);
        assert_eq!(stats.phase(Phase::Rank).misses, 1);
        assert_eq!(stats.phase(Phase::Search).evictions, 1);
        assert_eq!(stats.phase(Phase::Search).entries, 0);
        assert_eq!(stats.phase(Phase::Search).bytes, 0);
        assert_eq!(stats.phase(Phase::Diff).entries, 1);
        // The histogram rows sum back to the global counters.
        let (mut h, mut m, mut i, mut e, mut n, mut b) = (0, 0, 0, 0, 0, 0);
        for row in &stats.per_phase {
            h += row.hits;
            m += row.misses;
            i += row.inserts;
            e += row.evictions;
            n += row.entries;
            b += row.bytes;
        }
        assert_eq!(
            (h, m, i, e, n, b),
            (
                stats.hits,
                stats.misses,
                stats.inserts,
                stats.evictions,
                stats.entries,
                stats.bytes
            )
        );
    }

    #[test]
    fn program_fingerprint_distinguishes_programs() {
        let a = mcr_lang::compile("global x: int; fn main() { x = 1; }").unwrap();
        let a2 = mcr_lang::compile("global x: int; fn main() { x = 1; }").unwrap();
        let b = mcr_lang::compile("global x: int; fn main() { x = 2; }").unwrap();
        assert_eq!(program_fingerprint(&a), program_fingerprint(&a2));
        assert_ne!(program_fingerprint(&a), program_fingerprint(&b));
    }
}
