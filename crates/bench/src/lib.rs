//! # mcr-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation section
//! over the `mcr-workloads` suite; see [`experiments`] for one function
//! per table and the `tables` binary for the command-line driver:
//!
//! ```text
//! cargo run --release -p mcr-bench --bin tables -- all
//! ```
//!
//! Criterion micro-benchmarks of the hot analysis kernels live under
//! `benches/` (`cargo bench -p mcr-bench`), and [`hotpath`] measures the
//! search engine's cost model (checkpoint cost, steps/sec, tries/sec,
//! guided vs plain, parallel speedup), writing `BENCH_search.json` via:
//!
//! ```text
//! cargo run --release -p mcr-bench --bin tables -- bench-json
//! ```
//!
//! [`batch`] measures the `mcr-batch` fleet engine — throughput and
//! cache-hit rate on a duplicate-heavy job mix — writing
//! `BENCH_batch.json` via:
//!
//! ```text
//! cargo run --release -p mcr-bench --bin tables -- batch-json
//! ```
//!
//! Both reports carry a [`stamp::Stamp`]: the git revision, host core
//! count and repetition count they were measured with.
//!
//! [`lint`] is the dump-less surface: the static race/lockset lint over
//! the whole workload corpus, via:
//!
//! ```text
//! cargo run --release -p mcr-bench --bin tables -- race-lint
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod experiments;
pub mod hotpath;
pub mod lint;
pub mod stamp;
