//! Rendering of lint results as human-readable text or machine-readable
//! JSON.
//!
//! The JSON report is committed to the repository as
//! `results/lint_baseline.json`, so it must be byte-stable across runs:
//! diagnostics are sorted, and no timestamps, host names, or absolute
//! paths appear anywhere. The JSON is hand-assembled —
//! `xtask` takes no external dependencies, by design.

use crate::config::AllowEntry;
use crate::rules::Diagnostic;
use std::fmt::Write as _;

/// Result of a full lint run, post-allowlist.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// Surviving diagnostics, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Diagnostics suppressed by `lint.toml` allow entries.
    pub suppressed: usize,
    /// Allow entries that matched nothing — usually stale after a fix.
    pub unused_allows: Vec<AllowEntry>,
}

impl LintReport {
    /// Whether the run should exit zero. Stale allow entries fail the
    /// run too (POLY-H004): an audited exception that matches nothing is
    /// an audit that outlived the code it excused.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty() && self.unused_allows.is_empty()
    }

    /// Human-readable rendering, one `file:line: [RULE] message` per
    /// diagnostic plus a summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(out, "{}:{}: [{}] {}", d.file, d.line, d.rule, d.message);
        }
        for a in &self.unused_allows {
            let _ = writeln!(
                out,
                "error: stale allow entry (POLY-H004: {} in {}{}) — remove it from lint.toml",
                a.rule,
                a.file,
                a.line.map(|l| format!(":{l}")).unwrap_or_default()
            );
        }
        let _ = writeln!(
            out,
            "polygraph-lint: {} file(s) scanned, {} violation(s), {} suppressed by lint.toml",
            self.files_scanned,
            self.diagnostics.len(),
            self.suppressed
        );
        out
    }

    /// Deterministic JSON rendering.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"violations\": {},", self.diagnostics.len());
        let _ = writeln!(out, "  \"suppressed\": {},", self.suppressed);
        out.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            let _ = write!(
                out,
                " \"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {} ",
                json_str(d.rule),
                json_str(&d.file),
                d.line,
                json_str(&d.message)
            );
            out.push('}');
        }
        if self.diagnostics.is_empty() {
            out.push_str("],\n");
        } else {
            out.push_str("\n  ],\n");
        }
        out.push_str("  \"unused_allows\": [");
        for (i, a) in self.unused_allows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            let _ = write!(
                out,
                " \"rule\": {}, \"file\": {}",
                json_str(&a.rule),
                json_str(&a.file)
            );
            if let Some(line) = a.line {
                let _ = write!(out, ", \"line\": {line}");
            }
            out.push_str(" }");
        }
        if self.unused_allows.is_empty() {
            out.push_str("]\n");
        } else {
            out.push_str("\n  ]\n");
        }
        out.push_str("}\n");
        out
    }
}

/// Escapes a string as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LintReport {
        LintReport {
            diagnostics: vec![Diagnostic {
                rule: "POLY-L003",
                file: "crates/service/src/server.rs".into(),
                line: 42,
                message: "`Ordering::Relaxed` without an audit".into(),
            }],
            files_scanned: 7,
            suppressed: 1,
            unused_allows: Vec::new(),
        }
    }

    #[test]
    fn text_has_file_line_rule() {
        let text = sample().render_text();
        assert!(text.contains("crates/service/src/server.rs:42: [POLY-L003]"));
        assert!(text.contains("7 file(s) scanned, 1 violation(s), 1 suppressed"));
    }

    #[test]
    fn json_is_well_formed_and_stable() {
        let a = sample().render_json();
        let b = sample().render_json();
        assert_eq!(a, b);
        assert!(a.contains("\"violations\": 1"));
        assert!(a.contains("\"rule\": \"POLY-L003\""));
        assert!(!a.contains("timestamp"));
    }

    #[test]
    fn json_escapes_quotes_and_newlines() {
        assert_eq!(json_str("a\"b\nc"), "\"a\\\"b\\nc\"");
    }

    #[test]
    fn empty_report_renders_empty_arrays() {
        let r = LintReport {
            diagnostics: Vec::new(),
            files_scanned: 0,
            suppressed: 0,
            unused_allows: Vec::new(),
        };
        let json = r.render_json();
        assert!(json.contains("\"diagnostics\": []"));
        assert!(json.contains("\"unused_allows\": []"));
        assert!(r.is_clean());
    }

    #[test]
    fn stale_allows_fail_the_run_and_render_as_errors() {
        let r = LintReport {
            diagnostics: Vec::new(),
            files_scanned: 3,
            suppressed: 0,
            unused_allows: vec![AllowEntry {
                rule: "POLY-L003".into(),
                file: "gone.rs".into(),
                line: Some(9),
                reason: "stale".into(),
            }],
        };
        assert!(!r.is_clean(), "stale allows must exit nonzero");
        let text = r.render_text();
        assert!(text.contains("error: stale allow entry (POLY-H004: POLY-L003 in gone.rs:9)"));
    }
}
