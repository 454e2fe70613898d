//! A stable content fingerprint over the IR.
//!
//! The content-addressed caches in `mcr-core` key every artifact on what
//! the program *is*, not where it came from. [`program_fingerprint`]
//! hashes the complete `#[derive(Hash)]` field stream of a [`Program`]
//! (globals, locks, every function with its body, loops, condition
//! groups and line table, and the entry point), so any observable edit
//! moves the fingerprint and identical programs agree.
//!
//! The digest is 128-bit FNV-1a — the same non-cryptographic family
//! the `mcr-dump` wire layer uses for [`ContentHash`]-keyed stores; this
//! crate sits below `mcr-dump` in the dependency order, so it carries
//! its own copy of the (standard) constants. The raw `u128` returned
//! here is what `mcr-core` wraps into its `ContentHash` keys.
//!
//! [`ContentHash`]: https://en.wikipedia.org/wiki/Fowler–Noll–Vo_hash_function

use crate::ir::Program;
use std::hash::{Hash, Hasher};

/// FNV-1a 128-bit offset basis.
const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// FNV-1a 128-bit prime.
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;

/// Domain tag of the program fingerprint.
const PROGRAM_DOMAIN: &[u8] = b"MCRPG1";

/// Streaming FNV-1a 128 state that doubles as a [`std::hash::Hasher`],
/// so `#[derive(Hash)]` IR types feed their canonical field-order byte
/// stream straight into the digest.
#[derive(Debug, Clone)]
struct Fnv128 {
    state: u128,
}

impl Hasher for Fnv128 {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u128;
            self.state = self.state.wrapping_mul(FNV128_PRIME);
        }
    }

    fn finish(&self) -> u64 {
        (self.state as u64) ^ ((self.state >> 64) as u64)
    }
}

/// The stable content fingerprint of a whole program.
///
/// # Examples
///
/// ```
/// let a = mcr_lang::compile("fn helper() { } fn main() { }").unwrap();
/// let b = mcr_lang::compile("fn helper() { } fn main() { }").unwrap();
/// let c = mcr_lang::compile("global g: int; fn helper() { } fn main() { g = 1; }").unwrap();
/// assert_eq!(mcr_lang::program_fingerprint(&a), mcr_lang::program_fingerprint(&b));
/// assert_ne!(mcr_lang::program_fingerprint(&a), mcr_lang::program_fingerprint(&c));
/// ```
pub fn program_fingerprint(program: &Program) -> u128 {
    let mut h = Fnv128 {
        state: FNV128_OFFSET,
    };
    h.write(PROGRAM_DOMAIN);
    program.hash(&mut h);
    h.state
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    const BASE: &str = r#"
        global x: int;
        lock l;
        fn a() { x = 1; }
        fn b() { acquire l; x = 2; release l; }
        fn main() { spawn a(); spawn b(); }
    "#;

    #[test]
    fn identical_programs_agree() {
        let p1 = compile(BASE).unwrap();
        let p2 = compile(BASE).unwrap();
        assert_eq!(program_fingerprint(&p1), program_fingerprint(&p2));
    }

    #[test]
    fn editing_one_function_moves_the_fingerprint() {
        let p1 = compile(BASE).unwrap();
        let p2 = compile(&BASE.replace("x = 2;", "x = 3;")).unwrap();
        assert_ne!(program_fingerprint(&p1), program_fingerprint(&p2));
    }

    #[test]
    fn shared_state_feeds_the_fingerprint() {
        let p1 = compile(BASE).unwrap();
        let p2 = compile(&BASE.replace("global x: int;", "global x: int; global y: int;")).unwrap();
        assert_ne!(program_fingerprint(&p1), program_fingerprint(&p2));
    }

    #[test]
    fn function_order_feeds_the_fingerprint() {
        let p = compile(BASE).unwrap();
        let mut swapped = p.clone();
        swapped.funcs.swap(0, 1);
        assert_ne!(program_fingerprint(&p), program_fingerprint(&swapped));
    }
}
