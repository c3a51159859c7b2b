//! The lint rules.
//!
//! Four rule families, matching the invariants the pipeline depends on:
//!
//! | Code      | Zone            | Forbids                                         |
//! |-----------|-----------------|-------------------------------------------------|
//! | POLY-D001 | determinism     | hash-ordered collections (`HashMap`/`HashSet`)  |
//! | POLY-D002 | determinism     | wall-clock / OS entropy (`SystemTime`, `Instant::now`, `thread_rng`, `from_entropy`) |
//! | POLY-D003 | determinism     | non-ChaCha RNG types (`StdRng`, `SmallRng`, …)  |
//! | POLY-D004 | determinism, key-determinism | seeded std hashers (`RandomState`, `DefaultHasher`) |
//! | POLY-P001 | panic-safety    | `unwrap(`                                       |
//! | POLY-P002 | panic-safety    | `expect(`                                       |
//! | POLY-P003 | panic-safety    | `panic!` / `todo!` / `unimplemented!`           |
//! | POLY-P004 | panic-safety    | slice/array indexing `expr[…]`                  |
//! | POLY-H001 | everywhere      | `unsafe`                                        |
//! | POLY-H002 | library sources | `println!` / `eprintln!` / `print!` / `eprint!` / `dbg!` |
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
//! Zone rules skip `#[cfg(test)]` regions: tests may unwrap and may use
//! hash sets to assert uniqueness. POLY-H001 applies to test code too —
//! `unsafe` is never fine without an audit.

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
    pub determinism: bool,
    /// Key-determinism zone (the verdict cache and its service callers):
    /// only POLY-D004 applies — cache keys must come from a fixed hasher
    /// so replays and fixtures hash identically in every process.
    pub key_determinism: bool,
    pub panic_safety: bool,
    /// Library source (not a binary target, not tests/, not examples/):
    /// subject to the hygiene rules.
    pub library: bool,
    /// Concurrency zone (the sharded cache, the service crate, the
    /// quantized kernel, the mini-batch refit): subject to the POLY-L
    /// rules.
    pub concurrency: bool,
}

/// One catalog row: rule code plus the short description rendered into
/// reports (SARIF requires the full rule table up front).
pub struct RuleInfo {
    pub id: &'static str,
    pub short: &'static str,
}

/// Every rule the linter can emit, in code order. Keep in sync with the
/// table in the module docs; `--self-check` cross-checks the scan rules
/// against the fixtures.
pub const RULE_CATALOG: &[RuleInfo] = &[
    RuleInfo {
        id: "POLY-D001",
        short: "hash-ordered collection in a determinism zone",
    },
    RuleInfo {
        id: "POLY-D002",
        short: "wall-clock or OS-entropy input in a determinism zone",
    },
    RuleInfo {
        id: "POLY-D003",
        short: "non-ChaCha RNG in a determinism zone",
    },
    RuleInfo {
        id: "POLY-D004",
        short: "per-process-seeded std hasher in a key-determinism zone",
    },
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
        id: "POLY-H001",
        short: "unsafe outside the audited allowlist",
    },
    RuleInfo {
        id: "POLY-H002",
        short: "console print macro in library code",
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
    if class.determinism {
        check_hash_collections(rel_path, tokens, &mut out);
        check_wall_clock_entropy(rel_path, tokens, &mut out);
        check_non_chacha_rng(rel_path, tokens, &mut out);
    }
    if class.determinism || class.key_determinism {
        check_random_hashers(rel_path, tokens, &mut out);
    }
    if class.panic_safety {
        check_unwrap_expect(rel_path, tokens, &mut out);
        check_panic_macros(rel_path, tokens, &mut out);
        check_indexing(rel_path, tokens, &mut out);
    }
    check_unsafe(rel_path, tokens, &mut out);
    if class.library {
        check_print_macros(rel_path, tokens, &mut out);
    }
    if class.concurrency {
        crate::concurrency::check_relaxed_orderings(rel_path, tokens, &mut out);
    }
    out
}

const HASH_COLLECTIONS: &[&str] = &[
    "HashMap",
    "HashSet",
    "FxHashMap",
    "FxHashSet",
    "AHashMap",
    "AHashSet",
];

fn check_hash_collections(path: &str, tokens: &[Token], out: &mut Vec<Diagnostic>) {
    for t in tokens.iter().filter(|t| !t.in_test) {
        if let Some(id) = t.ident() {
            if HASH_COLLECTIONS.contains(&id) {
                out.push(Diagnostic {
                    rule: "POLY-D001",
                    file: path.into(),
                    line: t.line,
                    message: format!(
                        "`{id}` in a determinism zone: iteration order varies with the \
                         per-process hash seed, which breaks bit-identical retraining; \
                         use BTreeMap/BTreeSet or drain through sorted keys"
                    ),
                });
            }
        }
    }
}

fn check_wall_clock_entropy(path: &str, tokens: &[Token], out: &mut Vec<Diagnostic>) {
    let live: Vec<&Token> = tokens.iter().filter(|t| !t.in_test).collect();
    for (i, t) in live.iter().enumerate() {
        let Some(id) = t.ident() else { continue };
        let flagged = match id {
            "SystemTime" | "thread_rng" | "from_entropy" => true,
            // `Instant` alone can name a type in a signature; only the
            // `Instant::now` call observes the wall clock.
            "Instant" => {
                live.get(i + 1).is_some_and(|t| t.is_punct(':'))
                    && live.get(i + 2).is_some_and(|t| t.is_punct(':'))
                    && live.get(i + 3).is_some_and(|t| t.is_ident("now"))
            }
            _ => false,
        };
        if flagged {
            out.push(Diagnostic {
                rule: "POLY-D002",
                file: path.into(),
                line: t.line,
                message: format!(
                    "`{id}` in a determinism zone: wall-clock or OS-entropy input makes \
                     training runs unrepeatable; thread seeds and simulated dates through \
                     the config instead"
                ),
            });
        }
    }
}

const NON_CHACHA_RNGS: &[&str] = &["StdRng", "SmallRng", "ThreadRng", "OsRng", "EntropyRng"];

fn check_non_chacha_rng(path: &str, tokens: &[Token], out: &mut Vec<Diagnostic>) {
    for t in tokens.iter().filter(|t| !t.in_test) {
        if let Some(id) = t.ident() {
            if NON_CHACHA_RNGS.contains(&id) {
                out.push(Diagnostic {
                    rule: "POLY-D003",
                    file: path.into(),
                    line: t.line,
                    message: format!(
                        "`{id}` in a determinism zone: only ChaCha RNGs are stable across \
                         platforms and rand versions; construct ChaCha8Rng/ChaCha20Rng \
                         from an explicit seed"
                    ),
                });
            }
        }
    }
}

const RANDOM_HASHERS: &[&str] = &["RandomState", "DefaultHasher"];

fn check_random_hashers(path: &str, tokens: &[Token], out: &mut Vec<Diagnostic>) {
    for t in tokens.iter().filter(|t| !t.in_test) {
        if let Some(id) = t.ident() {
            if RANDOM_HASHERS.contains(&id) {
                out.push(Diagnostic {
                    rule: "POLY-D004",
                    file: path.into(),
                    line: t.line,
                    message: format!(
                        "`{id}` in a key-determinism zone: std hashers seed per process, so \
                         cache keys and replays would not reproduce across runs; hash with \
                         the fixed fingerprint::wire::fnv1a64 (or key a BTreeMap) instead"
                    ),
                });
            }
        }
    }
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

fn check_unsafe(path: &str, tokens: &[Token], out: &mut Vec<Diagnostic>) {
    for t in tokens {
        if t.is_ident("unsafe") {
            out.push(Diagnostic {
                rule: "POLY-H001",
                file: path.into(),
                line: t.line,
                message: "`unsafe` outside the audited allowlist: every crate here builds \
                          with #![forbid(unsafe_code)]; allowlist in lint.toml only with a \
                          written audit"
                    .into(),
            });
        }
    }
}

const PRINT_MACROS: &[&str] = &["println", "eprintln", "print", "eprint", "dbg"];

fn check_print_macros(path: &str, tokens: &[Token], out: &mut Vec<Diagnostic>) {
    let live: Vec<&Token> = tokens.iter().filter(|t| !t.in_test).collect();
    for (i, t) in live.iter().enumerate() {
        let Some(id) = t.ident() else { continue };
        if PRINT_MACROS.contains(&id) && live.get(i + 1).is_some_and(|n| n.is_punct('!')) {
            out.push(Diagnostic {
                rule: "POLY-H002",
                file: path.into(),
                line: t.line,
                message: format!(
                    "`{id}!` in a library crate: console output belongs to binaries or an \
                     explicit Write sink (see polygraph-bench), not library code"
                ),
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

    const DET: FileClass = FileClass {
        determinism: true,
        key_determinism: false,
        panic_safety: false,
        library: false,
        concurrency: false,
    };
    const KEYS: FileClass = FileClass {
        determinism: false,
        key_determinism: true,
        panic_safety: false,
        library: false,
        concurrency: false,
    };
    const PANIC: FileClass = FileClass {
        determinism: false,
        key_determinism: false,
        panic_safety: true,
        library: false,
        concurrency: false,
    };
    const LIB: FileClass = FileClass {
        determinism: false,
        key_determinism: false,
        panic_safety: false,
        library: true,
        concurrency: false,
    };

    #[test]
    fn hash_map_flagged_in_determinism_zone_only() {
        let src = "use std::collections::HashMap;";
        assert_eq!(run(src, DET).len(), 1);
        assert_eq!(run(src, DET)[0].rule, "POLY-D001");
        assert!(run(src, PANIC).is_empty());
    }

    #[test]
    fn random_hashers_flagged_in_key_determinism_and_determinism_zones() {
        let src = "use std::collections::hash_map::RandomState;\nlet mut h = DefaultHasher::new();";
        let d = run(src, KEYS);
        assert_eq!(d.len(), 2);
        assert!(d.iter().all(|d| d.rule == "POLY-D004"));
        assert_eq!(d[0].line, 1);
        assert_eq!(d[1].line, 2);
        // The wider determinism zone forbids them too …
        assert_eq!(
            run(src, DET)
                .iter()
                .filter(|d| d.rule == "POLY-D004")
                .count(),
            2
        );
        // … but the key-determinism zone applies no other D rules.
        assert!(run("use std::collections::HashMap;", KEYS).is_empty());
        assert!(run(src, PANIC).is_empty());
    }

    #[test]
    fn instant_now_flagged_but_instant_type_is_not() {
        assert_eq!(run("let t = Instant::now();", DET).len(), 1);
        assert!(run("fn f(deadline: Instant) {}", DET).is_empty());
    }

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
        let src = "#[cfg(test)]\nmod tests { fn t() { x.unwrap(); let h = HashMap::new(); } }";
        assert!(run(src, PANIC).is_empty());
        assert!(run(src, DET).is_empty());
    }

    #[test]
    fn unsafe_flagged_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests { fn t() { unsafe { core(); } } }";
        let d = run(src, PANIC);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "POLY-H001");
    }

    #[test]
    fn print_macros_flagged_in_library_code() {
        assert_eq!(run("println!(\"x\");", LIB).len(), 1);
        assert!(run("writeln!(sink, \"x\");", LIB).is_empty());
        // Test code may print while debugging.
        assert!(run("#[cfg(test)]\nmod t { fn f() { println!(\"x\"); } }", LIB).is_empty());
    }

    #[test]
    fn diagnostics_carry_lines() {
        let src = "fn a() {}\nfn b() { x.unwrap(); }";
        let d = run(src, PANIC);
        assert_eq!(d[0].line, 2);
    }
}
