//! A stable content fingerprint over the IR.
//!
//! The content-addressed caches in `mcr-core` key every artifact on what
//! the program *is*, not where it came from. [`program_fingerprint`]
//! hashes the complete `#[derive(Hash)]` field stream of a [`Program`]
//! (globals, locks, every function with its body, loops, condition
//! groups and line table, and the entry point), so any observable edit
//! moves the fingerprint and identical programs agree.
//!
//! The digest is the workspace's one content hash, [`ContentHasher`]
//! ([`crate::hash`]), the same one `mcr-dump` and `mcr-core` key their
//! stores with. The raw `u128` returned here is what `mcr-core` wraps
//! into its `ContentHash` keys. Hashing a program walks all of it, so
//! the sessions and services of `mcr-core` and `mcr-batch` compute it at
//! most once per program they borrow.

use crate::hash::ContentHasher;
use crate::ir::Program;
use std::hash::Hash;

/// Domain tag of the program fingerprint.
const PROGRAM_DOMAIN: &[u8] = b"MCRPG2";

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
    let mut h = ContentHasher::new();
    h.update(PROGRAM_DOMAIN);
    program.hash(&mut h);
    h.finish128().0
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
