//! polygraph-lint: the workspace's lock pass.
//!
//! `cargo xtask lint` walks every `.rs` file in the workspace, tokenizes
//! it with [`lexer`], and enforces the project invariants that rustc and
//! clippy cannot see (see [`rules`] for the rule table and DESIGN.md for
//! the rationale). Determinism, hygiene and panic safety are not here:
//! the workspace's `clippy.toml` disallows hash-ordered collections,
//! seeded std hashers and wall-clock reads, rustc and clippy deny
//! `unsafe` and console output, and the network-facing code denies
//! clippy's unwrap, panic and indexing lints. Violations carry
//! `file:line` positions; `lint.toml` holds audited exceptions.
//!
//! The scan has two tiers. Tier one is per-file: tokenize, classify, run
//! the token-level rule, and (for concurrency-zone files) summarize lock
//! behaviour per function. Tier two aggregates those
//! [`concurrency::FnSummary`] values zone-wide for the lock-order and
//! guard-scope rules, which need a call graph. Files are visited in
//! sorted order on the calling thread (the whole workspace scans in about
//! 0.1 s) and the report is sorted by `(file, line, rule)`. The crate has
//! no dependency, so the linter builds without anything it lints.

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod concurrency;
pub mod config;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;

pub use config::{AllowEntry, LintConfig};
pub use report::LintReport;
pub use rules::{Diagnostic, FileClass, RULE_CATALOG};

use std::path::Path;

/// Lints every `.rs` file under `root`, applies the allowlist, and
/// returns the report. Errors only on I/O or configuration problems —
/// rule violations are data, not errors.
pub fn lint_workspace(root: &Path, config: &LintConfig) -> Result<LintReport, String> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &config.exclude, &mut files)?;
    files.sort();

    let mut diagnostics = Vec::new();
    let mut summaries = Vec::new();
    for rel in &files {
        let source = std::fs::read_to_string(root.join(rel))
            .map_err(|e| format!("failed to read {rel}: {e}"))?;
        let tokens = lexer::tokenize(&source);
        let class = classify(rel, config);
        diagnostics.extend(rules::check_file(rel, &tokens, class));
        if class.concurrency {
            summaries.extend(concurrency::summarize_file(rel, &tokens));
        }
    }
    diagnostics.extend(concurrency::check_zone(&summaries));

    let (mut diagnostics, suppressed, unused_allows) = apply_allowlist(diagnostics, &config.allow);
    diagnostics
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(LintReport {
        diagnostics,
        files_scanned: files.len(),
        suppressed,
        unused_allows,
    })
}

/// Classifies one workspace-relative path against the configured zones.
pub fn classify(rel: &str, config: &LintConfig) -> FileClass {
    let in_zone = |zone: &[String]| zone.iter().any(|p| rel.starts_with(p.as_str()));
    FileClass {
        concurrency: in_zone(&config.concurrency_zone),
    }
}

/// The zone map for the linter's own fixture corpus under
/// `crates/xtask/tests/lint_fixtures/`: filename prefixes instead of
/// workspace paths, no excludes. Shared by the integration suite and
/// `cargo xtask lint --self-check` so the two cannot drift.
pub fn fixture_lint_config() -> LintConfig {
    LintConfig {
        concurrency_zone: vec![
            "lock_order_".into(),
            "guard_scope_".into(),
            "atomic_".into(),
            "quant_".into(),
            "fleet_".into(),
            "minibatch_".into(),
        ],
        exclude: Vec::new(),
        allow: Vec::new(),
    }
}

/// Lints the fixture corpus and cross-checks the outcome against
/// [`RULE_CATALOG`]: every scan rule must fire in some `*_bad` fixture,
/// every `*_good` twin must stay clean, and stale-allow detection must
/// still flip the report to failing. CI runs this as
/// `cargo xtask lint --self-check` to catch rule drift.
pub fn self_check(fixtures: &Path) -> Result<(), String> {
    let config = fixture_lint_config();
    let report = lint_workspace(fixtures, &config)?;
    // POLY-H004 is synthesized from the allowlist, not from source scans;
    // it is exercised separately below.
    for rule in RULE_CATALOG.iter().filter(|r| r.id != "POLY-H004") {
        if !report.diagnostics.iter().any(|d| d.rule == rule.id) {
            return Err(format!(
                "self-check: rule {} ({}) fired in no fixture — the corpus no longer \
                 exercises it",
                rule.id, rule.short
            ));
        }
    }
    for d in &report.diagnostics {
        let basename = d.file.rsplit('/').next().unwrap_or(&d.file);
        if basename.contains("_good") {
            return Err(format!(
                "self-check: clean fixture {} fired {} at line {}",
                d.file, d.rule, d.line
            ));
        }
    }
    // Stale-allow detection: a synthetic entry matching nothing must
    // surface as unused, and unused entries alone must fail the run.
    let mut stale = config.clone();
    stale.allow.push(AllowEntry {
        rule: "POLY-L003".into(),
        file: "no_such_fixture.rs".into(),
        line: None,
        reason: "self-check: deliberately stale".into(),
    });
    let stale_report = lint_workspace(fixtures, &stale)?;
    if stale_report.unused_allows.len() != 1 {
        return Err(format!(
            "self-check: expected exactly one stale allow, saw {}",
            stale_report.unused_allows.len()
        ));
    }
    let only_stale = LintReport {
        diagnostics: Vec::new(),
        files_scanned: stale_report.files_scanned,
        suppressed: 0,
        unused_allows: stale_report.unused_allows,
    };
    if only_stale.is_clean() {
        return Err("self-check: a report with stale allows must not count as clean".into());
    }
    Ok(())
}

fn collect_rs_files(
    root: &Path,
    dir: &Path,
    exclude: &[String],
    out: &mut Vec<String>,
) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("failed to list {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("failed to list {}: {e}", dir.display()))?;
        let path = entry.path();
        let Some(rel) = relative_slash_path(root, &path) else {
            continue;
        };
        let file_type = entry
            .file_type()
            .map_err(|e| format!("failed to stat {rel}: {e}"))?;
        if file_type.is_dir() {
            let rel_dir = format!("{rel}/");
            if exclude.iter().any(|p| rel_dir.starts_with(p.as_str())) {
                continue;
            }
            collect_rs_files(root, &path, exclude, out)?;
        } else if file_type.is_file()
            && rel.ends_with(".rs")
            && !exclude.iter().any(|p| rel.starts_with(p.as_str()))
        {
            out.push(rel);
        }
    }
    Ok(())
}

/// The `/`-separated path of `path` relative to `root`, or None for
/// non-UTF-8 names (which cannot be workspace sources).
fn relative_slash_path(root: &Path, path: &Path) -> Option<String> {
    let rel = path.strip_prefix(root).ok()?;
    let mut out = String::new();
    for comp in rel.components() {
        if !out.is_empty() {
            out.push('/');
        }
        out.push_str(comp.as_os_str().to_str()?);
    }
    Some(out)
}

/// Splits diagnostics into (surviving, suppressed-count, unused allows).
/// An allow entry matches on rule + file, optionally narrowed to a line.
fn apply_allowlist(
    diagnostics: Vec<Diagnostic>,
    allow: &[AllowEntry],
) -> (Vec<Diagnostic>, usize, Vec<AllowEntry>) {
    let mut used = vec![false; allow.len()];
    let mut surviving = Vec::new();
    let mut suppressed = 0usize;
    for d in diagnostics {
        let hit = allow.iter().position(|a| {
            a.rule == d.rule && a.file == d.file && a.line.is_none_or(|l| l == d.line)
        });
        match hit {
            Some(i) => {
                used[i] = true;
                suppressed += 1;
            }
            None => surviving.push(d),
        }
    }
    let unused = allow
        .iter()
        .zip(&used)
        .filter(|(_, u)| !**u)
        .map(|(a, _)| a.clone())
        .collect();
    (surviving, suppressed, unused)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zone_classification_uses_prefixes() {
        let c = LintConfig {
            concurrency_zone: vec!["crates/service/src/".into(), "crates/cache/src/".into()],
            ..LintConfig::default()
        };
        assert!(classify("crates/service/src/lib.rs", &c).concurrency);
        assert!(classify("crates/service/src/server/batch.rs", &c).concurrency);
        assert!(classify("crates/cache/src/lib.rs", &c).concurrency);
        assert!(!classify("crates/ml/src/kmodes.rs", &c).concurrency);
    }

    #[test]
    fn allowlist_matches_rule_file_and_optional_line() {
        let diags = vec![
            Diagnostic {
                rule: "POLY-L003",
                file: "a.rs".into(),
                line: 3,
                message: String::new(),
            },
            Diagnostic {
                rule: "POLY-L003",
                file: "a.rs".into(),
                line: 9,
                message: String::new(),
            },
        ];
        let allow = vec![AllowEntry {
            rule: "POLY-L003".into(),
            file: "a.rs".into(),
            line: Some(3),
            reason: "test".into(),
        }];
        let (left, suppressed, unused) = apply_allowlist(diags, &allow);
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].line, 9);
        assert_eq!(suppressed, 1);
        assert!(unused.is_empty());
    }

    #[test]
    fn unused_allow_entries_are_reported() {
        let allow = vec![AllowEntry {
            rule: "POLY-L003".into(),
            file: "never.rs".into(),
            line: None,
            reason: "stale".into(),
        }];
        let (_, suppressed, unused) = apply_allowlist(Vec::new(), &allow);
        assert_eq!(suppressed, 0);
        assert_eq!(unused.len(), 1);
    }
}
