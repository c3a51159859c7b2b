//! The lint rules.
//!
//! One rule family, for the invariants rustc and clippy cannot hold:
//!
//! | Code      | Zone            | Forbids                                         |
//! |-----------|-----------------|-------------------------------------------------|
//! | POLY-H004 | lint.toml       | `[[allow]]` entries that match no finding (stale audits) |
//! | POLY-L001 | concurrency     | cycles in the aggregated lock-order graph       |
//! | POLY-L002 | concurrency     | lock guards held across blocking calls          |
//! | POLY-L003 | concurrency     | `Ordering::Relaxed` without an audited `[[allow]]` |
//!
//! The POLY-L rules run on the parser tier (see [`crate::parser`] and
//! [`crate::concurrency`]): L003 is per-file and dispatched here; L001
//! and L002 need zone-wide call propagation, so [`crate::lint_workspace`]
//! runs them after every file is summarized. POLY-H004 is synthesized by
//! the report from the allowlist outcome, not from source tokens.
//!
//! Panic safety is clippy's: the network-facing code denies
//! `unwrap_used`, `expect_used`, `panic`, `todo`, `unimplemented` and
//! `indexing_slicing` outside tests (DESIGN.md §5d).

use crate::lexer::Token;

/// One finding, pre-allowlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule code, e.g. `POLY-L003`.
    pub rule: &'static str,
    /// Workspace-relative `/`-separated path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    pub message: String,
}

/// How a file is classified for rule scoping.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileClass {
    /// Concurrency zone (the sharded cache, the service crate, the
    /// quantized kernel, the mini-batch refit): subject to the POLY-L
    /// rules.
    pub concurrency: bool,
}

/// One catalog row: rule code plus a short description.
pub struct RuleInfo {
    pub id: &'static str,
    pub short: &'static str,
}

/// Every rule the linter can emit, in code order. Keep in sync with the
/// table in the module docs; `--self-check` cross-checks the scan rules
/// against the fixtures.
pub const RULE_CATALOG: &[RuleInfo] = &[
    RuleInfo {
        id: "POLY-H004",
        short: "stale [[allow]] entry matching no finding",
    },
    RuleInfo {
        id: "POLY-L001",
        short: "lock-order cycle across the concurrency zone",
    },
    RuleInfo {
        id: "POLY-L002",
        short: "lock guard held across a blocking call",
    },
    RuleInfo {
        id: "POLY-L003",
        short: "Ordering::Relaxed in the concurrency zone without an audit",
    },
];

/// Runs every applicable rule over one file's token stream.
pub fn check_file(rel_path: &str, tokens: &[Token], class: FileClass) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if class.concurrency {
        crate::concurrency::check_relaxed_orderings(rel_path, tokens, &mut out);
    }
    out
}
