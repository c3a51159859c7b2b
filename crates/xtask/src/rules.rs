//! The lint rules.
//!
//! Two rule families, for the invariants rustc and clippy cannot hold:
//!
//! | Code      | Zone            | Forbids                                         |
//! |-----------|-----------------|-------------------------------------------------|
//! | POLY-P001 | panic-safety    | `unwrap(`                                       |
//! | POLY-P002 | panic-safety    | `expect(`                                       |
//! | POLY-P003 | panic-safety    | `panic!` / `todo!` / `unimplemented!`           |
//! | POLY-P004 | panic-safety    | indexing `expr[…]`, map indexing included       |
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
//! The P rules skip `#[cfg(test)]` regions: tests may unwrap. P004 stays
//! here rather than in clippy because `clippy::indexing_slicing` does not
//! flag `map[&key]` on a `BTreeMap`, which panics on a missing key just as
//! a slice does on an index past its end.

use crate::lexer::{Token, TokenKind};

/// One finding, pre-allowlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule code, e.g. `POLY-P001`.
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
    /// Panic-safety zone (code that parses network input): subject to the
    /// POLY-P rules.
    pub panic_safety: bool,
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
        id: "POLY-P001",
        short: "unwrap() in a panic-safety zone",
    },
    RuleInfo {
        id: "POLY-P002",
        short: "expect(…) in a panic-safety zone",
    },
    RuleInfo {
        id: "POLY-P003",
        short: "panicking macro in a panic-safety zone",
    },
    RuleInfo {
        id: "POLY-P004",
        short: "slice/array indexing in a panic-safety zone",
    },
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
    if class.panic_safety {
        check_unwrap_expect(rel_path, tokens, &mut out);
        check_panic_macros(rel_path, tokens, &mut out);
        check_indexing(rel_path, tokens, &mut out);
    }
    if class.concurrency {
        crate::concurrency::check_relaxed_orderings(rel_path, tokens, &mut out);
    }
    out
}

fn check_unwrap_expect(path: &str, tokens: &[Token], out: &mut Vec<Diagnostic>) {
    let live: Vec<&Token> = tokens.iter().filter(|t| !t.in_test).collect();
    for (i, t) in live.iter().enumerate() {
        let Some(id) = t.ident() else { continue };
        if !live.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        match id {
            "unwrap" => out.push(Diagnostic {
                rule: "POLY-P001",
                file: path.into(),
                line: t.line,
                message: "`unwrap()` in a panic-safety zone: the serve path must answer \
                          Malformed, never unwind; propagate with `?` or match"
                    .into(),
            }),
            "expect" => out.push(Diagnostic {
                rule: "POLY-P002",
                file: path.into(),
                line: t.line,
                message: "`expect(…)` in a panic-safety zone: the serve path must answer \
                          Malformed, never unwind; propagate with `?` or match"
                    .into(),
            }),
            _ => {}
        }
    }
}

const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented"];

fn check_panic_macros(path: &str, tokens: &[Token], out: &mut Vec<Diagnostic>) {
    let live: Vec<&Token> = tokens.iter().filter(|t| !t.in_test).collect();
    for (i, t) in live.iter().enumerate() {
        let Some(id) = t.ident() else { continue };
        if PANIC_MACROS.contains(&id) && live.get(i + 1).is_some_and(|n| n.is_punct('!')) {
            out.push(Diagnostic {
                rule: "POLY-P003",
                file: path.into(),
                line: t.line,
                message: format!(
                    "`{id}!` in a panic-safety zone: a panicking worker drops its \
                     connection and every queued frame on it; return a typed error"
                ),
            });
        }
    }
}

/// Keywords that may legitimately precede a `[` without forming an index
/// expression (`&mut [u8]`, `for x in [..]`, `return [..]`, …).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "static", "struct", "super", "trait", "true", "type", "union",
    "unsafe", "use", "where", "while", "yield",
];

fn check_indexing(path: &str, tokens: &[Token], out: &mut Vec<Diagnostic>) {
    let live: Vec<&Token> = tokens.iter().filter(|t| !t.in_test).collect();
    for (i, t) in live.iter().enumerate() {
        if !t.is_punct('[') || i == 0 {
            continue;
        }
        let indexes_into = match &live[i - 1].kind {
            TokenKind::Ident(id) => !NON_INDEX_KEYWORDS.contains(&id.as_str()),
            TokenKind::Punct(']') | TokenKind::Punct(')') => true,
            _ => false,
        };
        if indexes_into {
            out.push(Diagnostic {
                rule: "POLY-P004",
                file: path.into(),
                line: t.line,
                message: "slice/array indexing in a panic-safety zone: `expr[…]` panics on \
                          out-of-range input; use `.get(…)`, destructuring, or iterators"
                    .into(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn run(src: &str, class: FileClass) -> Vec<Diagnostic> {
        check_file("test.rs", &tokenize(src), class)
    }

    const PANIC: FileClass = FileClass {
        panic_safety: true,
        concurrency: false,
    };

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        assert!(run("x.unwrap_or_else(|| 3);", PANIC).is_empty());
        assert_eq!(run("x.unwrap();", PANIC).len(), 1);
    }

    #[test]
    fn expected_cluster_field_is_not_expect() {
        assert!(run("let c = v.expected_cluster;", PANIC).is_empty());
        assert_eq!(run("v.expect(\"boom\");", PANIC).len(), 1);
    }

    #[test]
    fn indexing_flags_expressions_not_types() {
        assert_eq!(run("let x = data[0];", PANIC).len(), 1);
        assert_eq!(run("let y = calls()[1];", PANIC).len(), 1);
        assert!(run("let b: [u8; 16] = make();", PANIC).is_empty());
        assert!(run("fn f(x: &mut [u8]) {}", PANIC).is_empty());
        assert!(run("let v = vec![1, 2];", PANIC).is_empty());
        assert!(run("#[derive(Debug)] struct S;", PANIC).is_empty());
    }

    #[test]
    fn slice_patterns_are_not_indexing() {
        let src = "let [a, b, rest @ ..] = arr else { return; };";
        assert!(run(src, PANIC).is_empty());
    }

    #[test]
    fn cfg_test_blocks_are_exempt_from_zone_rules() {
        let src = "#[cfg(test)]\nmod tests { fn t() { x.unwrap(); let v = data[0]; } }";
        assert!(run(src, PANIC).is_empty());
    }

    #[test]
    fn diagnostics_carry_lines() {
        let src = "fn a() {}\nfn b() { x.unwrap(); }";
        let d = run(src, PANIC);
        assert_eq!(d[0].line, 2);
    }
}
