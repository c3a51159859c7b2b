//! Lint configuration: rule zones, scan excludes, and the `lint.toml`
//! allowlist of audited exceptions.
//!
//! The zone map is read from `lint.toml` (there is no built-in copy):
//!
//! * **panic-safety zone** — code that parses network input must answer
//!   `Malformed`, never unwind;
//! * **concurrency zone** — code that shares locks and atomics across
//!   serving threads.
//!
//! `lint.toml` is parsed with a deliberately small hand-rolled reader (the
//! workspace is vendored-offline; there is no `toml` crate). It supports
//! exactly the shapes the file uses: `[section]` tables, `[[allow]]`
//! array-of-tables, string / integer values, and (multi-line) string
//! arrays.

/// One audited exception: suppresses diagnostics of `rule` in `file`
/// (optionally narrowed to a single line). `reason` is mandatory — an
/// allowlist entry without a justification fails the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    pub rule: String,
    pub file: String,
    pub line: Option<u32>,
    pub reason: String,
}

/// Full configuration of a lint run. The default is empty — no zone, no
/// exclude, no allow: the workspace's values live in `lint.toml` and
/// nowhere else.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    /// Path prefixes (relative to the workspace root, `/`-separated) whose
    /// files must obey the panic-safety rules (POLY-P*).
    pub panic_zone: Vec<String>,
    /// Path prefixes whose files must obey the concurrency rules
    /// (POLY-L*): lock-order cycles, guards held across blocking calls,
    /// and unaudited `Ordering::Relaxed`.
    pub concurrency_zone: Vec<String>,
    /// Path prefixes excluded from the scan entirely.
    pub exclude: Vec<String>,
    /// Audited exceptions.
    pub allow: Vec<AllowEntry>,
}

impl LintConfig {
    /// Applies a parsed `lint.toml` on top of this configuration.
    /// `[zones]`/`[scan]` keys replace the current lists when present;
    /// `[[allow]]` entries accumulate.
    pub fn apply_toml(&mut self, text: &str) -> Result<(), String> {
        let doc = parse_toml_subset(text)?;
        for (section, key, value) in &doc {
            match (section.as_str(), key.as_str(), value) {
                ("zones", "panic_safety", Value::Array(a)) => {
                    self.panic_zone = a.clone();
                }
                ("zones", "concurrency", Value::Array(a)) => {
                    self.concurrency_zone = a.clone();
                }
                ("scan", "exclude", Value::Array(a)) => {
                    self.exclude = a.clone();
                }
                ("zones" | "scan", k, _) => {
                    return Err(format!("lint.toml: unsupported key `{k}` in [{section}]"));
                }
                _ => {}
            }
        }
        self.allow.extend(collect_allow_entries(&doc)?);
        Ok(())
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Str(String),
    Int(i64),
    Array(Vec<String>),
}

/// `(section, key, value)` triples in document order. `[[allow]]` tables
/// get numbered sections `allow#0`, `allow#1`, … so entries stay distinct.
type Doc = Vec<(String, String, Value)>;

fn collect_allow_entries(doc: &Doc) -> Result<Vec<AllowEntry>, String> {
    let mut entries: Vec<AllowEntry> = Vec::new();
    let mut current: Option<(String, AllowEntry)> = None;
    for (section, key, value) in doc {
        if !section.starts_with("allow#") {
            continue;
        }
        if current.as_ref().map(|(s, _)| s.as_str()) != Some(section.as_str()) {
            if let Some((_, e)) = current.take() {
                entries.push(validate_allow(e)?);
            }
            current = Some((
                section.clone(),
                AllowEntry {
                    rule: String::new(),
                    file: String::new(),
                    line: None,
                    reason: String::new(),
                },
            ));
        }
        let Some((_, entry)) = current.as_mut() else {
            continue;
        };
        match (key.as_str(), value) {
            ("rule", Value::Str(s)) => entry.rule = s.clone(),
            ("file", Value::Str(s)) => entry.file = s.clone(),
            ("reason", Value::Str(s)) => entry.reason = s.clone(),
            ("line", Value::Int(n)) => {
                entry.line =
                    Some(u32::try_from(*n).map_err(|_| format!("lint.toml: bad line number {n}"))?);
            }
            (k, _) => {
                return Err(format!("lint.toml: unsupported key `{k}` in [[allow]]"));
            }
        }
    }
    if let Some((_, e)) = current.take() {
        entries.push(validate_allow(e)?);
    }
    Ok(entries)
}

fn validate_allow(e: AllowEntry) -> Result<AllowEntry, String> {
    if e.rule.is_empty() || e.file.is_empty() {
        return Err("lint.toml: [[allow]] entries need both `rule` and `file`".into());
    }
    if e.reason.trim().is_empty() {
        return Err(format!(
            "lint.toml: [[allow]] entry for {} in {} has no `reason` — every audited \
             exception must be justified",
            e.rule, e.file
        ));
    }
    Ok(e)
}

/// Parses the TOML subset `lint.toml` uses. Returns `(section, key,
/// value)` triples in document order.
fn parse_toml_subset(text: &str) -> Result<Doc, String> {
    let mut doc = Doc::new();
    let mut section = String::new();
    let mut allow_count = 0usize;
    let mut lines = text.lines().enumerate().peekable();
    while let Some((lineno, raw)) = lines.next() {
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
            if name.trim() != "allow" {
                return Err(format!(
                    "lint.toml:{}: unsupported array-of-tables [[{}]]",
                    lineno + 1,
                    name.trim()
                ));
            }
            section = format!("allow#{allow_count}");
            allow_count += 1;
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            section = name.trim().to_string();
            continue;
        }
        let Some((key, mut rest)) = split_key_value(&line) else {
            return Err(format!("lint.toml:{}: expected `key = value`", lineno + 1));
        };
        // Multi-line arrays: keep consuming lines until the closing `]`.
        if rest.starts_with('[') && !rest.ends_with(']') {
            let mut acc = rest;
            for (_, cont) in lines.by_ref() {
                let cont = strip_comment(cont).trim().to_string();
                acc.push(' ');
                acc.push_str(&cont);
                if cont.ends_with(']') {
                    break;
                }
            }
            rest = acc;
        }
        let value = parse_value(&rest).map_err(|e| format!("lint.toml:{}: {e}", lineno + 1))?;
        doc.push((section.clone(), key, value));
    }
    Ok(doc)
}

/// Strips a `#` comment that is not inside a quoted string.
fn strip_comment(line: &str) -> String {
    let mut out = String::new();
    let mut in_str = false;
    let mut escaped = false;
    for c in line.chars() {
        if in_str {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '#' => break,
            '"' => {
                in_str = true;
                out.push(c);
            }
            _ => out.push(c),
        }
    }
    out
}

fn split_key_value(line: &str) -> Option<(String, String)> {
    let eq = line.find('=')?;
    let (key, rest) = line.split_at(eq);
    let rest = rest.strip_prefix('=').unwrap_or(rest);
    Some((key.trim().to_string(), rest.trim().to_string()))
}

fn parse_value(text: &str) -> Result<Value, String> {
    let text = text.trim();
    if let Some(inner) = text.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
        let mut items = Vec::new();
        for part in split_top_level_commas(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match parse_value(part)? {
                Value::Str(s) => items.push(s),
                _ => return Err("arrays may only hold strings".into()),
            }
        }
        return Ok(Value::Array(items));
    }
    if let Some(inner) = text.strip_prefix('"').and_then(|s| s.strip_suffix('"')) {
        return Ok(Value::Str(unescape(inner)));
    }
    text.parse::<i64>()
        .map(Value::Int)
        .map_err(|_| format!("cannot parse value `{text}`"))
}

fn split_top_level_commas(text: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut current = String::new();
    let mut in_str = false;
    let mut escaped = false;
    for c in text.chars() {
        if in_str {
            current.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            ',' => {
                parts.push(std::mem::take(&mut current));
            }
            '"' => {
                in_str = true;
                current.push(c);
            }
            _ => current.push(c),
        }
    }
    parts.push(current);
    parts
}

fn unescape(s: &str) -> String {
    let mut out = String::new();
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toml_allow_entries_parse() {
        let mut c = LintConfig::default();
        c.apply_toml(
            r#"
# comment
[scan]
exclude = [
    "target/",   # trailing comment
    "vendor/",
]

[[allow]]
rule = "POLY-P001"
file = "crates/foo/src/bar.rs"
line = 12
reason = "audited: length checked two lines above"

[[allow]]
rule = "POLY-L003"
file = "crates/baz/src/qux.rs"
reason = "a heuristic bit; the data it marks is guarded by a lock"
"#,
        )
        .unwrap();
        assert_eq!(
            c.exclude,
            vec!["target/".to_string(), "vendor/".to_string()]
        );
        assert_eq!(c.allow.len(), 2);
        assert_eq!(c.allow[0].rule, "POLY-P001");
        assert_eq!(c.allow[0].line, Some(12));
        assert_eq!(c.allow[1].line, None);
    }

    #[test]
    fn allow_without_reason_is_rejected() {
        let mut c = LintConfig::default();
        let err = c
            .apply_toml("[[allow]]\nrule = \"POLY-P001\"\nfile = \"x.rs\"\n")
            .unwrap_err();
        assert!(err.contains("reason"), "{err}");
    }

    #[test]
    fn zones_can_be_overridden() {
        let mut c = LintConfig::default();
        c.apply_toml("[zones]\npanic_safety = [\"panic_\"]\nconcurrency = [\"lock_\"]\n")
            .unwrap();
        assert_eq!(c.panic_zone, vec!["panic_".to_string()]);
        assert_eq!(c.concurrency_zone, vec!["lock_".to_string()]);
    }
}
