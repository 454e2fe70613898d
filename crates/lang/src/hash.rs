//! The workspace's one content hash.
//!
//! Every content identity in the workspace comes from [`ContentHasher`]:
//! the program fingerprint ([`crate::program_fingerprint`]) here, and the
//! session basis and phase keys of `mcr-core`'s artifact stores (which
//! reach it as `mcr_dump::wire::{ContentHash, ContentHasher}`). It lives
//! in this crate because this is the bottom of the dependency order.
//!
//! The hash reads its input a machine word at a time. The byte stream is
//! cut into 8-byte little-endian words, and each pair of words
//! `(w0, w1)` is folded into two 64-bit lanes:
//! `a = fold(a ^ w0, w1 ^ K0)` and `b = fold(b ^ w1, w0 ^ K1)`, where
//! `fold` takes the 128-bit product of its operands and xors the two
//! halves (the multiply-fold of wyhash and foldhash) and `K0`, `K1` are
//! fixed constants. One multiply per lane covers 16 bytes, and the two
//! lanes are independent dependency chains, so the CPU overlaps them.
//! The finish folds in the last, zero-padded pair and the byte length, so
//! `""` and `"\0"` differ, and mixes the two lanes into the 128-bit
//! digest.
//!
//! The digest is a function of the byte stream alone:
//!
//! * splitting the input into different [`ContentHasher::update`] calls
//!   gives the same digest;
//! * the [`Hasher`] integer writes append their value's little-endian
//!   bytes, and `usize`/`isize` are always 8 bytes wide, so they give the
//!   same digest on any word size and byte order. (The standard library
//!   hashes a *slice* of integers as its native-endian bytes through
//!   [`Hasher::write`]; hash such slices element by element where the
//!   digest must not depend on byte order.)
//!
//! It is not cryptographic, as FNV-1a was before it: the stores are a
//! cache, not a trust boundary. Crafted input can collide it (a word
//! equal to `K0` or `K1` zeroes a lane's multiplier), but at 128 bits
//! accidental collisions are out of reach for any realistic corpus.

use std::hash::Hasher;

// Hexadecimal digits of π, nothing up the sleeve.
/// Lane `a`'s multiplier is the pair's second word xor this.
const K0: u64 = 0x243f_6a88_85a3_08d3;
/// Lane `b`'s multiplier is the pair's first word xor this.
const K1: u64 = 0x082e_fa98_ec4e_6c89;
/// The start value of lane `a`.
const K2: u64 = 0x4528_21e6_38d0_1377;
/// The start value of lane `b`.
const K3: u64 = 0xc0ac_29b7_c97c_50dd;
/// The multiplier of the finish.
const K4: u64 = 0x3f84_d5b5_b547_0917;

/// The 128-bit product of `x` and `k`, its halves xored together.
#[inline(always)]
fn fold(x: u64, k: u64) -> u64 {
    let p = u128::from(x) * u128::from(k);
    (p as u64) ^ ((p >> 64) as u64)
}

/// A 128-bit content hash ([`ContentHasher`]).
///
/// The identity the content-addressed artifact stores of `mcr-core` key
/// on: two inputs with the same hash are treated as the same content.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentHash(pub u128);

impl ContentHash {
    /// Hashes a byte string in one call.
    pub fn of(bytes: &[u8]) -> ContentHash {
        let mut h = ContentHasher::new();
        h.update(bytes);
        h.finish128()
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
/// Also implements [`Hasher`], so `#[derive(Hash)]` types — a compiled
/// [`crate::Program`] or a core dump, say — fold into a content hash
/// without a bespoke byte encoding.
#[derive(Debug, Clone)]
pub struct ContentHasher {
    a: u64,
    b: u64,
    /// The first word of a pair whose second is not complete yet (when
    /// `len / 8` is odd).
    held: u64,
    /// The `len % 8` bytes of the word being assembled, little-endian.
    tail: u64,
    /// Bytes written so far.
    len: u64,
}

impl Default for ContentHasher {
    fn default() -> Self {
        ContentHasher::new()
    }
}

impl ContentHasher {
    /// A hasher that has seen no input.
    #[inline]
    pub fn new() -> ContentHasher {
        ContentHasher {
            a: K2,
            b: K3,
            held: 0,
            tail: 0,
            len: 0,
        }
    }

    /// Folds the word pair `(w0, w1)` into both lanes.
    #[inline(always)]
    fn absorb(&mut self, w0: u64, w1: u64) {
        self.a = fold(self.a ^ w0, w1 ^ K0);
        self.b = fold(self.b ^ w1, w0 ^ K1);
    }

    /// Appends the low `bytes` bytes of `v` (little-endian; `v` must not
    /// have higher bits set) to the stream, folding in each word pair it
    /// completes.
    #[inline(always)]
    fn push(&mut self, v: u64, bytes: u32) {
        let pending = (self.len % 8) as u32 * 8;
        self.tail |= v << pending;
        self.len += u64::from(bytes);
        if pending + bytes * 8 >= 64 {
            let word = self.tail;
            // The bits of `v` that did not fit (none when `pending` is
            // 0; the split shift keeps the amount below 64).
            self.tail = (v >> 1) >> (63 - pending);
            if (self.len / 8) % 2 == 1 {
                self.held = word;
            } else {
                self.absorb(self.held, word);
            }
        }
    }

    /// Folds `bytes` into the hash state.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.push(u64::from_le_bytes(word.try_into().expect("8 bytes")), 8);
        }
        for &b in words.remainder() {
            self.push(u64::from(b), 1);
        }
    }

    /// The 128-bit digest of everything folded in so far.
    #[inline]
    pub fn finish128(&self) -> ContentHash {
        let mut last = self.clone();
        if (self.len / 8) % 2 == 1 {
            last.absorb(self.held, self.tail);
        } else {
            last.absorb(self.tail, 0);
        }
        let lo = fold(last.a ^ self.len, K4);
        let hi = fold(last.b ^ lo, K4);
        ContentHash((u128::from(hi) << 64) | u128::from(lo))
    }
}

// The signed writes forward to the unsigned ones of their width by
// default (`write_isize` to `write_usize`), so they are little-endian
// and word-size free too.
impl Hasher for ContentHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.update(bytes);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.push(u64::from(v), 1);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.push(u64::from(v), 2);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.push(u64::from(v), 4);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.push(v, 8);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.push(v as u64, 8);
        self.push((v >> 64) as u64, 8);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let d = self.finish128().0;
        (d as u64) ^ ((d >> 64) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// `n` fixed bytes: `7, 38, 69, …` (mod 256).
    fn bytes(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 + 7) as u8).collect()
    }

    /// Pins the function and its byte order: a change to either moves
    /// every key a store holds, so it must be deliberate.
    #[test]
    fn golden_digests() {
        let golden: [(usize, u128); 9] = [
            (0, 0x2176_bbbf_8603_9d8d_6d53_da0c_531d_c10b),
            (1, 0x33c5_a0d7_9052_a857_f0ca_4c82_baef_c7ad),
            (7, 0x395e_01f6_b317_b0c8_9101_4c9a_3060_7933),
            (8, 0x35c6_1a8c_3acf_61f7_a0e4_84ca_21ae_d817),
            (9, 0xa2ed_e3af_e70f_302b_2e0d_a6a4_44d3_1a88),
            (15, 0x2bf5_fe06_08dd_7a7f_ea1b_eeee_cc79_968d),
            (16, 0x5108_868d_43dd_59d4_b7a1_80b2_17e3_2415),
            (17, 0x85bd_65a8_018e_9c21_fa5e_a1d3_2d5d_db59),
            (1024, 0x6d61_75f1_d953_f150_281a_137e_aac1_aa20),
        ];
        for (n, digest) in golden {
            assert_eq!(ContentHash::of(&bytes(n)).0, digest, "{n} bytes");
        }
    }

    #[test]
    fn integer_writes_are_word_size_and_byte_order_free() {
        for v in [0u64, 1, 0xff, 0x0123_4567_89ab_cdef, u64::MAX] {
            let mut a = ContentHasher::new();
            a.write_u64(v);
            let mut b = ContentHasher::new();
            b.write_usize(v as usize);
            let mut c = ContentHasher::new();
            c.update(&v.to_le_bytes());
            assert_eq!(a.finish128(), b.finish128());
            assert_eq!(a.finish128(), c.finish128());
            let mut d = ContentHasher::new();
            d.write_isize(v as i64 as isize);
            let mut e = ContentHasher::new();
            e.write_i64(v as i64);
            assert_eq!(d.finish128(), e.finish128());
        }
        // Narrow writes are their little-endian bytes, wherever the
        // stream stands.
        let mut a = ContentHasher::new();
        a.write_u8(9);
        a.write_u32(0xdead_beef);
        a.write_u16(0x1234);
        a.write_u128(u128::MAX / 3);
        let mut b = ContentHasher::new();
        b.update(&[9]);
        b.update(&0xdead_beefu32.to_le_bytes());
        b.update(&0x1234u16.to_le_bytes());
        b.update(&(u128::MAX / 3).to_le_bytes());
        assert_eq!(a.finish128(), b.finish128());
    }

    #[test]
    fn every_short_string_has_its_own_digest() {
        let mut seen = HashSet::new();
        assert!(seen.insert(ContentHash::of(&[])));
        for x in 0..=255u8 {
            assert!(seen.insert(ContentHash::of(&[x])), "[{x}]");
            for y in 0..=255u8 {
                assert!(seen.insert(ContentHash::of(&[x, y])), "[{x}, {y}]");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any split of a byte string into `update` calls gives the
        /// one-shot digest.
        #[test]
        fn any_split_gives_the_one_shot_digest(
            data in proptest::collection::vec(0u16..256, 0..80),
            cuts in proptest::collection::vec(0usize..80, 0..6),
        ) {
            let data: Vec<u8> = data.into_iter().map(|b| b as u8).collect();
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let mut h = ContentHasher::new();
            let mut at = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                h.update(&data[at..cut]);
                at = cut;
            }
            prop_assert_eq!(h.finish128(), ContentHash::of(&data));
        }
    }
}
