//! The concurrency-discipline passes (POLY-L001/L002/L003).
//!
//! Built on the parser tier ([`crate::parser`]): per file, every
//! function in the concurrency zone is summarized into the locks it
//! acquires, the guard scopes it opens, and the blocking calls it makes;
//! the zone-wide pass then aggregates those summaries into a lock-order
//! graph (L001) and propagates blocking-ness one call level (L002).
//! L003 is purely lexical and runs per file.
//!
//! ## What counts as what
//!
//! * **Lock acquisition** — a zero-argument `.read()`, `.write()`, or
//!   `.lock()` method call. The zero-argument shape is what separates
//!   `RwLock::read()` from `TcpStream::read(&mut buf)`: socket I/O always
//!   passes a buffer.
//! * **Lock identity** — the identifier immediately before the method
//!   (`ctx.detector.read()` acquires `detector`). There is no aliasing
//!   analysis: the same lock reached through differently named bindings
//!   counts as two locks, and two locks sharing a receiver name merge
//!   (see DESIGN.md §5d for why that is the right trade for this
//!   codebase).
//! * **Guard scope** — for `let g = path.read();`, from the acquisition
//!   to the end of the enclosing brace block, truncated at `drop(g)`;
//!   for any other shape, to the end of the statement (a temporary).
//! * **Blocking call** — socket/file I/O (`write_all`, `flush`,
//!   arg-bearing `.read(…)`/`.write(…)`, …), thread waits (`join`,
//!   `sleep`, `recv`, `wait`, `poll`, …), and the detector
//!   assess/fit/checkpoint family — work whose latency is unbounded or
//!   proportional to a whole window, which no lock guard should span.
//!
//! Call propagation is one level deep and resolves bare names only: a
//! zone function that *directly* contains a blocking call (or lock
//! acquisition) taints its callers' guard scopes, but a name defined
//! more than once in the zone is never propagated through — a
//! deliberate precision-over-recall choice (`new`, `lookup`, `insert`
//! are everywhere).

use crate::lexer::{Token, TokenKind};
use crate::parser::{enclosing_block_end, functions, let_binding, statement_end, statement_start};
use crate::rules::Diagnostic;
use std::collections::{BTreeMap, BTreeSet};

/// Method names that acquire a lock when called with no arguments.
const LOCK_METHODS: &[&str] = &["read", "write", "lock"];

/// Calls that block (or do unbounded/window-proportional work) by name,
/// whether written as methods or paths. `read`/`write` are special-cased:
/// they block only with arguments (socket I/O), never bare (lock
/// acquisition).
const BLOCKING_CALLS: &[&str] = &[
    // Socket / stream I/O.
    "write_all",
    "write_fmt",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "flush",
    "accept",
    "connect",
    // Thread and channel waits.
    "sleep",
    "join",
    "recv",
    "recv_timeout",
    "wait",
    "wait_timeout",
    "park",
    "poll",
    // Detector / model work proportional to a whole batch or window.
    "assess",
    "assess_batch",
    "assess_many",
    "checkpoint",
    "fit",
    "fit_observed",
    "refit_observed",
    "refit_streaming",
];

/// One lock-guard live range inside a function.
#[derive(Debug, Clone)]
pub struct GuardScope {
    /// Receiver name of the acquired lock.
    pub lock: String,
    /// Line of the acquisition.
    pub line: u32,
    /// Direct blocking calls inside the scope: (callee, line).
    pub blocking: Vec<(String, u32)>,
    /// Other locks acquired inside the scope: (lock, line).
    pub nested: Vec<(String, u32)>,
    /// Every call inside the scope, for one-level propagation:
    /// (callee, line).
    pub calls: Vec<(String, u32)>,
}

/// Per-function facts extracted from one concurrency-zone file.
#[derive(Debug, Clone)]
pub struct FnSummary {
    pub name: String,
    pub file: String,
    /// Locks acquired anywhere in the body (deduped receiver names).
    pub acquired: Vec<String>,
    /// The first direct blocking call in the body, if any — enough to
    /// taint callers one level up.
    pub blocking: Option<String>,
    pub guards: Vec<GuardScope>,
}

/// Summarizes every non-test function of one file for the zone pass.
pub fn summarize_file(rel_path: &str, tokens: &[Token]) -> Vec<FnSummary> {
    let defs = functions(tokens);
    let mut out = Vec::new();
    for def in &defs {
        if def.in_test {
            continue;
        }
        // Nested fn bodies are separate entries; mask them out of this
        // body so their facts are not attributed twice.
        let nested_ranges: Vec<(usize, usize)> = defs
            .iter()
            .filter(|d| d.body_open > def.body_open && d.body_close < def.body_close)
            .map(|d| (d.body_open, d.body_close))
            .collect();
        let in_this_fn = |i: usize| {
            i > def.body_open
                && i < def.body_close
                && !nested_ranges.iter().any(|&(a, b)| i >= a && i <= b)
        };

        let mut acquired = BTreeSet::new();
        let mut blocking = None;
        let mut guards = Vec::new();

        let mut i = def.body_open + 1;
        while i < def.body_close {
            if !in_this_fn(i) {
                i += 1;
                continue;
            }
            if let Some((lock, recv)) = lock_acquisition(tokens, i) {
                acquired.insert(lock.clone());
                let scope_end = guard_scope_end(tokens, def.body_open, def.body_close, i, recv);
                guards.push(scan_guard_scope(tokens, lock, i, scope_end, &in_this_fn));
            }
            if blocking.is_none() {
                if let Some(op) = blocking_call(tokens, i) {
                    blocking = Some(op);
                }
            }
            i += 1;
        }
        out.push(FnSummary {
            name: def.name.clone(),
            file: rel_path.to_string(),
            acquired: acquired.into_iter().collect(),
            blocking,
            guards,
        });
    }
    out
}

/// If token `i` is the method of a zero-argument `.read()`/`.write()`/
/// `.lock()` call, returns `(lock_name, receiver_index)`.
fn lock_acquisition(tokens: &[Token], i: usize) -> Option<(String, usize)> {
    let method = tokens[i].ident()?;
    if !LOCK_METHODS.contains(&method) {
        return None;
    }
    if !(tokens.get(i + 1)?.is_punct('(') && tokens.get(i + 2)?.is_punct(')')) {
        return None;
    }
    if i == 0 || !tokens[i - 1].is_punct('.') {
        return None;
    }
    // Receiver: the identifier before the `.`; for `self.shard(k).write()`
    // shapes, walk back over the call's parens to the callee name.
    let mut r = i - 2;
    if tokens.get(r)?.is_punct(')') {
        let mut depth = 0i32;
        loop {
            match tokens.get(r)?.kind {
                TokenKind::Punct(')') => depth += 1,
                TokenKind::Punct('(') => {
                    depth -= 1;
                    if depth == 0 {
                        r = r.checked_sub(1)?;
                        break;
                    }
                }
                _ => {}
            }
            r = r.checked_sub(1)?;
        }
    }
    let name = tokens.get(r)?.ident()?;
    Some((name.to_string(), r))
}

/// Where the guard acquired at token `site` (receiver at `recv`) dies:
/// bound guards live to the end of the enclosing block or an explicit
/// `drop(name)`, temporaries to the end of their statement.
fn guard_scope_end(
    tokens: &[Token],
    body_open: usize,
    body_close: usize,
    site: usize,
    recv: usize,
) -> usize {
    let start = statement_start(tokens, recv, body_open + 1);
    match let_binding(tokens, start, recv) {
        Some(name) => {
            let block_end = enclosing_block_end(tokens, body_open, body_close, site);
            // `drop(name)` releases early.
            for j in site..block_end.saturating_sub(2) {
                if tokens[j].is_ident("drop")
                    && tokens[j + 1].is_punct('(')
                    && tokens[j + 2].is_ident(&name)
                {
                    return j;
                }
            }
            block_end
        }
        None => statement_end(tokens, site, body_close),
    }
}

/// Collects blocking calls, nested acquisitions, and all calls inside
/// one guard scope `(site, end)`.
fn scan_guard_scope(
    tokens: &[Token],
    lock: String,
    site: usize,
    end: usize,
    in_this_fn: &impl Fn(usize) -> bool,
) -> GuardScope {
    let line = tokens[site].line;
    let mut blocking = Vec::new();
    let mut nested = Vec::new();
    let mut calls = Vec::new();
    // Skip past the acquisition's own `()` pair.
    for j in (site + 3)..end {
        if !in_this_fn(j) {
            continue;
        }
        if let Some(op) = blocking_call(tokens, j) {
            blocking.push((op, tokens[j].line));
        }
        if let Some((l, _)) = lock_acquisition(tokens, j) {
            if l != lock {
                nested.push((l, tokens[j].line));
            }
        }
        if let Some(callee) = call_site(tokens, j) {
            calls.push((callee, tokens[j].line));
        }
    }
    GuardScope {
        lock,
        line,
        blocking,
        nested,
        calls,
    }
}

/// If token `i` is the callee of a blocking call, returns the name.
fn blocking_call(tokens: &[Token], i: usize) -> Option<String> {
    let name = tokens[i].ident()?;
    if !tokens.get(i + 1)?.is_punct('(') {
        return None;
    }
    // A definition (`fn read_exact(…)`) is not a call.
    if i > 0 && tokens[i - 1].is_ident("fn") {
        return None;
    }
    if name == "read" || name == "write" {
        // Bare `.read()`/`.write()` is a lock acquisition; only the
        // arg-bearing form is socket I/O.
        let is_method = i > 0 && tokens[i - 1].is_punct('.');
        let has_args = !tokens.get(i + 2)?.is_punct(')');
        return (is_method && has_args).then(|| name.to_string());
    }
    BLOCKING_CALLS.contains(&name).then(|| name.to_string())
}

/// If token `i` is the callee of any call (`name(` not preceded by
/// `fn`), returns the name — input to the one-level propagation.
fn call_site(tokens: &[Token], i: usize) -> Option<String> {
    let name = tokens[i].ident()?;
    if !tokens.get(i + 1)?.is_punct('(') {
        return None;
    }
    if i > 0 && tokens[i - 1].is_ident("fn") {
        return None;
    }
    Some(name.to_string())
}

/// The zone-wide pass: aggregates every file's summaries, propagates one
/// call level, and emits POLY-L001 (lock-order cycles) and POLY-L002
/// (guard across blocking call) diagnostics.
pub fn check_zone(summaries: &[FnSummary]) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // Bare-name resolution: only names defined exactly once in the zone
    // propagate (see the module docs).
    let mut defs: BTreeMap<&str, Vec<&FnSummary>> = BTreeMap::new();
    for s in summaries {
        defs.entry(s.name.as_str()).or_default().push(s);
    }
    let unique = |name: &str| -> Option<&FnSummary> {
        match defs.get(name).map(Vec::as_slice) {
            Some([one]) => Some(*one),
            _ => None,
        }
    };

    // POLY-L002 + lock-order edge collection in one sweep.
    let mut edges: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();
    let mut add_edge = |from: &str, to: &str, file: &str, line: u32| {
        let key = (from.to_string(), to.to_string());
        let witness = (file.to_string(), line);
        edges
            .entry(key)
            .and_modify(|w| {
                if witness < *w {
                    *w = witness.clone();
                }
            })
            .or_insert(witness);
    };
    for s in summaries {
        for g in &s.guards {
            for (op, line) in &g.blocking {
                out.push(Diagnostic {
                    rule: "POLY-L002",
                    file: s.file.clone(),
                    line: *line,
                    message: format!(
                        "lock guard on `{}` is held across blocking call `{op}(…)`: \
                         drop the guard (or clone the needed data out of it) before \
                         blocking, or add an audited [[allow]]",
                        g.lock
                    ),
                });
            }
            for (lock, line) in &g.nested {
                add_edge(&g.lock, lock, &s.file, *line);
            }
            for (callee, line) in &g.calls {
                let Some(d) = unique(callee) else { continue };
                if d.name == s.name {
                    continue;
                }
                if let Some(op) = &d.blocking {
                    out.push(Diagnostic {
                        rule: "POLY-L002",
                        file: s.file.clone(),
                        line: *line,
                        message: format!(
                            "lock guard on `{}` is held across a call to `{callee}`, \
                             which blocks (`{op}(…)`): drop the guard first, or add \
                             an audited [[allow]]",
                            g.lock
                        ),
                    });
                }
                for lock in &d.acquired {
                    if lock != &g.lock {
                        add_edge(&g.lock, lock, &s.file, *line);
                    }
                }
            }
        }
    }

    // POLY-L001: flag every edge that participates in a cycle.
    let adjacency: BTreeMap<&str, Vec<&str>> = {
        let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (from, to) in edges.keys() {
            adj.entry(from.as_str()).or_default().push(to.as_str());
        }
        adj
    };
    let reaches = |from: &str, target: &str| -> bool {
        let mut stack = vec![from];
        let mut seen = BTreeSet::new();
        while let Some(n) = stack.pop() {
            if n == target {
                return true;
            }
            if !seen.insert(n) {
                continue;
            }
            if let Some(next) = adjacency.get(n) {
                stack.extend(next.iter().copied());
            }
        }
        false
    };
    for ((from, to), (file, line)) in &edges {
        if reaches(to, from) {
            out.push(Diagnostic {
                rule: "POLY-L001",
                file: file.clone(),
                line: *line,
                message: format!(
                    "lock-order inversion: `{from}` is held while acquiring `{to}` \
                     here, but the aggregated lock-order graph also orders `{to}` \
                     before `{from}` — pick one global order for these locks"
                ),
            });
        }
    }
    out
}

/// POLY-L003: flags every `Ordering::Relaxed` outside test code. Runs
/// per file (no cross-file state), on concurrency-zone files only.
pub fn check_relaxed_orderings(path: &str, tokens: &[Token], out: &mut Vec<Diagnostic>) {
    let live: Vec<&Token> = tokens.iter().filter(|t| !t.in_test).collect();
    for (i, t) in live.iter().enumerate() {
        if t.is_ident("Ordering")
            && live.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && live.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && live.get(i + 3).is_some_and(|t| t.is_ident("Relaxed"))
        {
            out.push(Diagnostic {
                rule: "POLY-L003",
                file: path.into(),
                line: t.line,
                message: "`Ordering::Relaxed` in a concurrency zone: atomics that \
                          publish state to other threads (epochs, stop flags, waker \
                          state) need Release/Acquire or SeqCst; if this one is a \
                          pure statistic or heuristic, audit it with an [[allow]]"
                    .into(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn zone(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let mut summaries = Vec::new();
        for (name, src) in files {
            summaries.extend(summarize_file(name, &tokenize(src)));
        }
        let mut out = check_zone(&summaries);
        out.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
        });
        out
    }

    #[test]
    fn zero_arg_read_is_a_lock_arg_read_is_io() {
        let toks = tokenize("a.read()");
        let read = toks.iter().position(|t| t.is_ident("read")).unwrap();
        assert!(lock_acquisition(&toks, read).is_some());
        assert!(blocking_call(&toks, read).is_none());

        let toks = tokenize("a.read(&mut buf)");
        let read = toks.iter().position(|t| t.is_ident("read")).unwrap();
        assert!(lock_acquisition(&toks, read).is_none());
        assert!(blocking_call(&toks, read).is_some());
    }

    #[test]
    fn receiver_names_walk_back_over_calls() {
        let toks = tokenize("self.shard(key).write()");
        let write = toks.iter().rposition(|t| t.is_ident("write")).unwrap();
        let (lock, _) = lock_acquisition(&toks, write).unwrap();
        assert_eq!(lock, "shard");
    }

    #[test]
    fn guard_across_blocking_call_is_flagged() {
        let d = zone(&[(
            "f.rs",
            "fn f(m: &RwLock<u8>, s: &mut TcpStream) {\n    let g = m.read();\n    s.write_all(&[*g]).ok();\n}",
        )]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "POLY-L002");
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn dropping_the_guard_first_is_clean() {
        let d = zone(&[(
            "f.rs",
            "fn f(m: &RwLock<u8>, s: &mut TcpStream) {\n    let g = m.read();\n    let v = *g;\n    drop(g);\n    s.write_all(&[v]).ok();\n}",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn temporary_guards_die_at_statement_end() {
        let d = zone(&[(
            "f.rs",
            "fn f(m: &RwLock<u8>, s: &mut TcpStream) {\n    let v = *m.read();\n    s.write_all(&[v]).ok();\n}",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn blocking_propagates_one_level_through_unique_names() {
        let d = zone(&[(
            "f.rs",
            "fn top(m: &RwLock<u8>) {\n    let g = m.read();\n    helper();\n}\nfn helper() {\n    thread::sleep(TICK);\n}",
        )]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "POLY-L002");
        assert_eq!(d[0].line, 3);
        assert!(d[0].message.contains("helper"));
    }

    #[test]
    fn multiply_defined_names_do_not_propagate() {
        let d = zone(&[
            (
                "a.rs",
                "fn top(m: &RwLock<u8>) {\n    let g = m.read();\n    helper();\n}\nfn helper() {\n    thread::sleep(TICK);\n}",
            ),
            ("b.rs", "fn helper() {}"),
        ]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn lock_order_cycles_are_flagged_acyclic_orders_are_not() {
        let cyclic = zone(&[(
            "f.rs",
            "fn ab(a: &Mutex<u8>, b: &Mutex<u8>) {\n    let x = a.lock();\n    let y = b.lock();\n}\nfn ba(a: &Mutex<u8>, b: &Mutex<u8>) {\n    let y = b.lock();\n    let x = a.lock();\n}",
        )]);
        assert_eq!(cyclic.len(), 2, "{cyclic:?}");
        assert!(cyclic.iter().all(|d| d.rule == "POLY-L001"));
        assert_eq!(cyclic[0].line, 3);
        assert_eq!(cyclic[1].line, 7);

        let acyclic = zone(&[(
            "f.rs",
            "fn ab(a: &Mutex<u8>, b: &Mutex<u8>) {\n    let x = a.lock();\n    let y = b.lock();\n}\nfn ab2(a: &Mutex<u8>, b: &Mutex<u8>) {\n    let x = a.lock();\n    let y = b.lock();\n}",
        )]);
        assert!(acyclic.is_empty(), "{acyclic:?}");
    }

    #[test]
    fn lock_order_propagates_through_calls() {
        let d = zone(&[(
            "f.rs",
            "fn holds_a(a: &Mutex<u8>, b: &Mutex<u8>) {\n    let x = a.lock();\n    grab_b(b);\n}\nfn grab_b(b: &Mutex<u8>) {\n    let y = b.lock();\n}\nfn holds_b(a: &Mutex<u8>, b: &Mutex<u8>) {\n    let y = b.lock();\n    let x = a.lock();\n}",
        )]);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().all(|d| d.rule == "POLY-L001"));
        // The propagated edge is anchored at the call site.
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn test_functions_are_exempt() {
        let d = zone(&[(
            "f.rs",
            "#[cfg(test)]\nmod tests {\n    fn t(m: &RwLock<u8>, s: &mut TcpStream) {\n        let g = m.read();\n        s.write_all(&[*g]).ok();\n    }\n}",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn relaxed_orderings_are_flagged_outside_tests() {
        let mut out = Vec::new();
        check_relaxed_orderings(
            "f.rs",
            &tokenize("fn f(a: &AtomicU64) {\n    a.store(1, Ordering::Relaxed);\n    a.load(Ordering::SeqCst);\n}"),
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "POLY-L003");
        assert_eq!(out[0].line, 2);

        let mut out = Vec::new();
        check_relaxed_orderings(
            "f.rs",
            &tokenize(
                "#[cfg(test)]\nmod t {\n    fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }\n}",
            ),
            &mut out,
        );
        assert!(out.is_empty());
    }
}
