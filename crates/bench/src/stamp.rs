//! The provenance stamp every `BENCH_*.json` report carries: which code,
//! on how many cores, from how many repetitions.

use std::process::Command;

/// Provenance of one bench report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stamp {
    /// Git revision of the measured tree (12 hex digits), suffixed
    /// `+dirty` when tracked files other than the `BENCH_*.json`
    /// reports differ from it; `unknown` outside a git checkout.
    pub rev: String,
    /// Logical cores of the host.
    pub nproc: usize,
    /// Repetitions behind each timed figure.
    pub reps: usize,
}

impl Stamp {
    /// Stamps a report measured on this host from `reps` repetitions.
    pub fn of_this_host(reps: usize) -> Stamp {
        Stamp {
            rev: git_revision(),
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            reps,
        }
    }

    /// The stamp as a one-line JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rev\": \"{}\", \"nproc\": {}, \"reps\": {}}}",
            self.rev, self.nproc, self.reps
        )
    }
}

fn git_revision() -> String {
    let git = |args: &[&str]| Command::new("git").args(args).output().ok();
    let Some(head) = git(&["rev-parse", "--short=12", "HEAD"]).filter(|o| o.status.success())
    else {
        return "unknown".to_string();
    };
    let rev = String::from_utf8_lossy(&head.stdout).trim().to_string();
    // Every run rewrites the reports themselves; only other edits mean
    // the measured code is not `rev`.
    let dirty = git(&[
        "diff",
        "--quiet",
        "HEAD",
        "--",
        ".",
        ":(exclude)BENCH_*.json",
    ])
    .is_some_and(|o| o.status.code() == Some(1));
    if dirty {
        format!("{rev}+dirty")
    } else {
        rev
    }
}

/// Every object key of a hand-rolled report (`"key":`), for comparing
/// a checked-in report's shape with what the code writes today.
#[cfg(test)]
pub(crate) fn json_keys(json: &str) -> std::collections::BTreeSet<&str> {
    let mut keys = std::collections::BTreeSet::new();
    let mut rest = json;
    while let Some(open) = rest.find('"') {
        let after = &rest[open + 1..];
        let Some(close) = after.find('"') else { break };
        let tail = &after[close + 1..];
        if tail.trim_start().starts_with(':') {
            keys.insert(&after[..close]);
        }
        rest = tail;
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_skip_string_values() {
        let keys = json_keys("{\"schema\": \"v1\", \"stamp\": {\"rev\": \"abc\", \"nproc\": 2}}");
        assert_eq!(
            keys.into_iter().collect::<Vec<_>>(),
            ["nproc", "rev", "schema", "stamp"]
        );
    }
}
