//! The lightweight item/block parser: tier two of the lint pass.
//!
//! The lexer ([`crate::lexer`]) yields a flat token stream; this module
//! recovers just enough structure on top of it for the concurrency rules
//! ([`crate::concurrency`]): function items with their brace-delimited
//! bodies, statement boundaries, enclosing-block extents, and
//! `let`-binding recognition. There is deliberately no type checking, no
//! name resolution beyond bare identifiers, and no expression tree —
//! every helper works on token indices into the original stream, so rule
//! code can mix structural queries with raw token scans.
//!
//! `impl` blocks are transparent: the function scan is flat, so methods
//! surface as plain named functions. That is exactly what the concurrency
//! passes want — their call graph resolves bare names only (see the
//! soundness notes in DESIGN.md §5d).

use crate::lexer::{matching_brace, Token, TokenKind};

/// One function item: its name and the token range of its `{ … }` body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnDef {
    pub name: String,
    /// 1-based line of the `fn` name.
    pub line: u32,
    /// Whether the declaration sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
    /// Token index of the body's `{`.
    pub body_open: usize,
    /// Token index of the matching `}`.
    pub body_close: usize,
}

/// Scans the whole token stream for `fn name … { … }` items, including
/// methods inside `impl`/`trait` blocks and functions nested in other
/// bodies (each surfaces as its own [`FnDef`]). Bodyless declarations
/// (trait method signatures) and `fn(…)` pointer types are skipped.
pub fn functions(tokens: &[Token]) -> Vec<FnDef> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i].is_ident("fn") {
            i += 1;
            continue;
        }
        let Some(name_tok) = tokens.get(i + 1) else {
            break;
        };
        let Some(name) = name_tok.ident() else {
            // `fn(` — a function-pointer type, not an item.
            i += 1;
            continue;
        };
        // Find the body `{` (or a `;` ending a bodyless declaration) at
        // paren/bracket depth zero. Generics, params, and where clauses
        // cannot contain stray braces, so the first depth-0 `{` is the
        // body.
        let mut depth = 0i32;
        let mut j = i + 2;
        let mut body_open = None;
        while let Some(t) = tokens.get(j) {
            match t.kind {
                TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
                TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
                TokenKind::Punct('{') if depth == 0 => {
                    body_open = Some(j);
                    break;
                }
                TokenKind::Punct(';') if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = body_open else {
            i = j + 1;
            continue;
        };
        let close = matching_brace(tokens, open).unwrap_or(tokens.len() - 1);
        out.push(FnDef {
            name: name.to_string(),
            line: name_tok.line,
            in_test: name_tok.in_test,
            body_open: open,
            body_close: close,
        });
        // Keep scanning *inside* the body too: nested fns get their own
        // entries (callers skip nested ranges when attributing tokens).
        i += 2;
    }
    out
}

/// Token index one past the end of the statement (or expression-list
/// element) containing `pos`: the next `;` or `,` at the same
/// paren/brace/bracket depth, or the closing delimiter of the enclosing
/// group, capped at `limit`.
pub fn statement_end(tokens: &[Token], pos: usize, limit: usize) -> usize {
    let mut depth = 0i32;
    let mut i = pos;
    while i < limit.min(tokens.len()) {
        match tokens[i].kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => {
                depth -= 1;
                if depth < 0 {
                    return i;
                }
            }
            TokenKind::Punct(';') | TokenKind::Punct(',') if depth == 0 => return i,
            _ => {}
        }
        i += 1;
    }
    limit.min(tokens.len())
}

/// Token index of the `}` closing the innermost block that contains
/// `pos`, searching only within `(body_open, body_close)`. Falls back to
/// `body_close` when `pos` sits directly in the function body.
pub fn enclosing_block_end(
    tokens: &[Token],
    body_open: usize,
    body_close: usize,
    pos: usize,
) -> usize {
    let mut innermost = None;
    let mut stack: Vec<usize> = Vec::new();
    for (i, t) in tokens
        .iter()
        .enumerate()
        .take(pos.min(body_close))
        .skip(body_open + 1)
    {
        match t.kind {
            TokenKind::Punct('{') => stack.push(i),
            TokenKind::Punct('}') => {
                stack.pop();
            }
            _ => {}
        }
    }
    if let Some(&open) = stack.last() {
        innermost = matching_brace(tokens, open);
    }
    innermost.unwrap_or(body_close).min(body_close)
}

/// The token index where the statement containing `pos` begins: the
/// first token after the previous `;`, `{`, or `}` (bounded below by
/// `floor`).
pub fn statement_start(tokens: &[Token], pos: usize, floor: usize) -> usize {
    let mut i = pos;
    while i > floor {
        if matches!(
            tokens[i - 1].kind,
            TokenKind::Punct(';') | TokenKind::Punct('{') | TokenKind::Punct('}')
        ) {
            return i;
        }
        i -= 1;
    }
    floor
}

/// If the statement starting at `start` is `let [mut] NAME = <path>.m()`
/// where `<path>` runs straight to the acquisition at `recv` (only
/// identifiers, `.`, `::`, `&`, and `mut` in between), returns `NAME`.
/// Anything else — tuple patterns, acquisitions buried inside a larger
/// initializer expression, a deref like `let v = *m.read()` (which
/// copies the value out and drops the guard at once) — yields `None`,
/// and the guard is treated as a statement-scoped temporary (an
/// under-approximation the rule docs call out).
pub fn let_binding(tokens: &[Token], start: usize, recv: usize) -> Option<String> {
    if !tokens.get(start)?.is_ident("let") {
        return None;
    }
    let mut i = start + 1;
    if tokens.get(i)?.is_ident("mut") {
        i += 1;
    }
    let name = tokens.get(i)?.ident()?.to_string();
    if !tokens.get(i + 1)?.is_punct('=') {
        return None;
    }
    for t in tokens.get(i + 2..recv)? {
        let plain_path = match &t.kind {
            TokenKind::Ident(_) => true,
            TokenKind::Punct(c) => matches!(c, '.' | ':' | '&'),
        };
        if !plain_path {
            return None;
        }
    }
    Some(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    #[test]
    fn functions_are_found_flat_and_in_impls() {
        let src = "fn a() { body_a(); }\nimpl S { pub fn b(&self) -> u8 { 0 } }\ntrait T { fn sig(&self); }";
        let toks = tokenize(src);
        let fns = functions(&toks);
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert_eq!(fns[0].line, 1);
        assert_eq!(fns[1].line, 2);
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let src = "fn outer(cb: fn(usize) -> u8) -> u8 { cb(0) }";
        let fns = functions(&tokenize(src));
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "outer");
    }

    #[test]
    fn nested_functions_get_their_own_entries() {
        let src = "fn outer() { fn inner() { x(); } inner(); }";
        let fns = functions(&tokenize(src));
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner"]);
    }

    #[test]
    fn statement_end_honours_nesting() {
        // `m.read()` inside a call argument: the statement runs to the
        // enclosing `)` of `f(…)`, then the `;` at depth 0.
        let src = "fn f() { g(m.read(), 2); next(); }";
        let toks = tokenize(src);
        let read_pos = toks.iter().position(|t| t.is_ident("read")).unwrap();
        let end = statement_end(&toks, read_pos, toks.len());
        // Ends at the `,` separating the arguments? No: the `,` sits at
        // depth 0 relative to `read`'s own position only after `read`'s
        // parens close — which they do — so the first stop is the `,`.
        assert!(toks[end].is_punct(','));
    }

    #[test]
    fn enclosing_block_is_the_innermost_brace() {
        let src = "fn f() { outer(); { let g = m.read(); use_it(g); } after(); }";
        let toks = tokenize(src);
        let read_pos = toks.iter().position(|t| t.is_ident("read")).unwrap();
        let body_open = toks.iter().position(|t| t.is_punct('{')).unwrap();
        let body_close = matching_brace(&toks, body_open).unwrap();
        let end = enclosing_block_end(&toks, body_open, body_close, read_pos);
        // The scope must close before `after` is reached.
        let after_pos = toks.iter().position(|t| t.is_ident("after")).unwrap();
        assert!(end < after_pos);
        assert!(toks[end].is_punct('}'));
    }

    #[test]
    fn let_bindings_require_a_plain_path_initializer() {
        let src = "let guard = ctx.detector.read();";
        let toks = tokenize(src);
        let recv = toks.iter().position(|t| t.is_ident("detector")).unwrap();
        assert_eq!(let_binding(&toks, 0, recv), Some("guard".to_string()));

        // Buried inside a call: not a binding of the guard itself.
        let src2 = "let v = wrap(m.read());";
        let toks2 = tokenize(src2);
        let recv2 = toks2.iter().position(|t| t.is_ident("m")).unwrap();
        assert_eq!(let_binding(&toks2, 0, recv2), None);

        // `let mut` is accepted.
        let src3 = "let mut guard = m.write();";
        let toks3 = tokenize(src3);
        let recv3 = toks3.iter().position(|t| t.is_ident("m")).unwrap();
        assert_eq!(let_binding(&toks3, 0, recv3), Some("guard".to_string()));
    }

    #[test]
    fn statement_start_stops_at_separators() {
        let src = "fn f() { a(); let g = m.read(); }";
        let toks = tokenize(src);
        let m_pos = toks.iter().position(|t| t.is_ident("m")).unwrap();
        let start = statement_start(&toks, m_pos, 0);
        assert!(toks[start].is_ident("let"));
    }
}
