//! Point-in-time metric snapshots and their two stable renderings.
//!
//! Both renderings iterate `BTreeMap`s, so for identical recorded values
//! the output is byte-identical across runs, platforms, and hash seeds —
//! the property the golden-file test (`results/obs_exposition.txt`) and
//! the workspace's `clippy.toml` (no `HashMap`, no wall clock) enforce.
//!
//! Text exposition, one line per metric:
//!
//! ```text
//! # polygraph-obs exposition v1
//! counter server.frames.assessed 200
//! gauge pool.width 8
//! histogram server.assess.batch_micros count 200 sum 1400 buckets 0,0,0,200,0,…
//! ```
//!
//! Histogram bucket lists always carry all [`BUCKETS`] entries (bounds
//! `2^0..2^20` µs, then overflow), so the shape never depends on the
//! observed values.

use crate::metrics::{bucket_bound, BUCKETS};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Frozen state of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Per-bucket counts, in bound order (overflow last).
    pub buckets: [u64; BUCKETS],
}

/// Frozen state of a whole registry.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// The stable text exposition.
    pub fn render_text(&self) -> String {
        let mut out = String::from("# polygraph-obs exposition v1\n");
        for (name, v) in &self.counters {
            let _ = writeln!(out, "counter {name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "gauge {name} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = write!(
                out,
                "histogram {name} count {} sum {} buckets ",
                h.count, h.sum
            );
            for (i, c) in h.buckets.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{c}");
            }
            out.push('\n');
        }
        out
    }

    /// The stable JSON rendering (object keys in name order, histogram
    /// buckets as `[bound-or-null, count]` pairs in bound order).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{v}", json_string(name));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{v}", json_string(name));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"count\":{},\"sum\":{},\"buckets\":[",
                json_string(name),
                h.count,
                h.sum
            );
            for (b, c) in h.buckets.iter().enumerate() {
                if b > 0 {
                    out.push(',');
                }
                match bucket_bound(b) {
                    Some(bound) => {
                        let _ = write!(out, "[{bound},{c}]");
                    }
                    None => {
                        let _ = write!(out, "[null,{c}]");
                    }
                }
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// Parses a rendered JSON snapshot back into a `Snapshot` — the
    /// inverse of [`Snapshot::render_json`], used by clients consuming
    /// `STATS` responses. Returns `None` on malformed input. Unknown
    /// top-level keys are skipped so the format can grow compatibly.
    pub fn parse_json(json: &str) -> Option<Snapshot> {
        let mut p = JsonCursor::new(json);
        let mut snap = Snapshot::default();
        p.ws();
        p.eat(b'{')?;
        loop {
            p.ws();
            if p.eat(b'}').is_some() {
                break;
            }
            let key = p.string()?;
            p.ws();
            p.eat(b':')?;
            p.ws();
            match key.as_str() {
                "counters" => {
                    p.object(|p, name| {
                        let v = p.uint()?;
                        snap.counters.insert(name, v);
                        Some(())
                    })?;
                }
                "gauges" => {
                    p.object(|p, name| {
                        let v = p.int()?;
                        snap.gauges.insert(name, v);
                        Some(())
                    })?;
                }
                "histograms" => {
                    p.object(|p, name| {
                        let h = parse_histogram(p)?;
                        snap.histograms.insert(name, h);
                        Some(())
                    })?;
                }
                _ => p.skip_value()?,
            }
            p.ws();
            if p.eat(b',').is_some() {
                continue;
            }
            p.eat(b'}')?;
            break;
        }
        Some(snap)
    }
}

fn parse_histogram(p: &mut JsonCursor<'_>) -> Option<HistogramSnapshot> {
    let mut count = 0u64;
    let mut sum = 0u64;
    let mut buckets = [0u64; BUCKETS];
    p.eat(b'{')?;
    loop {
        p.ws();
        if p.eat(b'}').is_some() {
            break;
        }
        let key = p.string()?;
        p.ws();
        p.eat(b':')?;
        p.ws();
        match key.as_str() {
            "count" => count = p.uint()?,
            "sum" => sum = p.uint()?,
            "buckets" => {
                p.eat(b'[')?;
                let mut i = 0usize;
                loop {
                    p.ws();
                    if p.eat(b']').is_some() {
                        break;
                    }
                    // Each entry is `[bound-or-null, count]`.
                    p.eat(b'[')?;
                    p.ws();
                    if !p.eat_keyword("null") {
                        p.uint()?;
                    }
                    p.ws();
                    p.eat(b',')?;
                    p.ws();
                    let c = p.uint()?;
                    p.ws();
                    p.eat(b']')?;
                    if let Some(slot) = buckets.get_mut(i) {
                        *slot = c;
                    }
                    i += 1;
                    p.ws();
                    if p.eat(b',').is_some() {
                        continue;
                    }
                    p.eat(b']')?;
                    break;
                }
            }
            _ => p.skip_value()?,
        }
        p.ws();
        if p.eat(b',').is_some() {
            continue;
        }
        p.eat(b'}')?;
        break;
    }
    Some(HistogramSnapshot {
        count,
        sum,
        buckets,
    })
}

/// A minimal cursor over the subset of JSON [`Snapshot::render_json`]
/// emits (objects, arrays, strings, integers, `null`), kept here so the
/// crate stays dependency-free.
struct JsonCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonCursor<'a> {
    fn new(s: &'a str) -> Self {
        Self {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Option<()> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes.get(self.pos..self.pos + kw.len()) == Some(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek()? {
                b'"' => {
                    self.pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek()? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos + 1..self.pos + 5)?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code)?);
                            self.pos += 4;
                        }
                        _ => return None,
                    }
                    self.pos += 1;
                }
                _ => {
                    // Advance one whole UTF-8 scalar, not one byte.
                    let rest = std::str::from_utf8(self.bytes.get(self.pos..)?).ok()?;
                    let c = rest.chars().next()?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn uint(&mut self) -> Option<u64> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return None;
        }
        std::str::from_utf8(self.bytes.get(start..self.pos)?)
            .ok()?
            .parse()
            .ok()
    }

    fn int(&mut self) -> Option<i64> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return None;
        }
        std::str::from_utf8(self.bytes.get(start..self.pos)?)
            .ok()?
            .parse()
            .ok()
    }

    /// Walks the `name: value` pairs of an object, invoking `entry` for
    /// each.
    fn object(&mut self, mut entry: impl FnMut(&mut Self, String) -> Option<()>) -> Option<()> {
        self.eat(b'{')?;
        loop {
            self.ws();
            if self.eat(b'}').is_some() {
                return Some(());
            }
            let name = self.string()?;
            self.ws();
            self.eat(b':')?;
            self.ws();
            entry(self, name)?;
            self.ws();
            if self.eat(b',').is_some() {
                continue;
            }
            self.eat(b'}')?;
            return Some(());
        }
    }

    /// Skips any well-formed value (forward compatibility with new keys).
    fn skip_value(&mut self) -> Option<()> {
        self.ws();
        match self.peek()? {
            b'"' => {
                self.string()?;
            }
            b'{' => {
                self.object(|p, _| p.skip_value())?;
            }
            b'[' => {
                self.eat(b'[')?;
                loop {
                    self.ws();
                    if self.eat(b']').is_some() {
                        break;
                    }
                    self.skip_value()?;
                    self.ws();
                    if self.eat(b',').is_some() {
                        continue;
                    }
                    self.eat(b']')?;
                    break;
                }
            }
            _ => {
                if !(self.eat_keyword("null")
                    || self.eat_keyword("true")
                    || self.eat_keyword("false"))
                {
                    self.int()?;
                }
            }
        }
        Some(())
    }
}

/// Minimal JSON string encoder. Registry names are pre-sanitized to
/// `[a-z0-9_.]`, but escape defensively so the renderer is total.
fn json_string(s: &str) -> String {
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

    fn sample() -> Snapshot {
        let mut snap = Snapshot::default();
        snap.counters.insert("b.requests".into(), 3);
        snap.counters.insert("a.requests".into(), 1);
        snap.gauges.insert("width".into(), -2);
        let mut buckets = [0u64; BUCKETS];
        buckets[3] = 2;
        snap.histograms.insert(
            "latency_micros".into(),
            HistogramSnapshot {
                count: 2,
                sum: 11,
                buckets,
            },
        );
        snap
    }

    #[test]
    fn text_is_sorted_and_stable() {
        let text = sample().render_text();
        let again = sample().render_text();
        assert_eq!(text, again);
        let a = text.find("counter a.requests 1").unwrap();
        let b = text.find("counter b.requests 3").unwrap();
        assert!(a < b, "names must render in sorted order");
        assert!(text.contains("histogram latency_micros count 2 sum 11 buckets "));
        // All BUCKETS entries present.
        let bucket_line = text.lines().find(|l| l.starts_with("histogram")).unwrap();
        let list = bucket_line.rsplit(' ').next().unwrap();
        assert_eq!(list.split(',').count(), BUCKETS);
    }

    #[test]
    fn json_shape() {
        let json = sample().render_json();
        assert!(json.starts_with("{\"counters\":{\"a.requests\":1,\"b.requests\":3}"));
        assert!(json.contains("\"gauges\":{\"width\":-2}"));
        assert!(json.contains(
            "\"latency_micros\":{\"count\":2,\"sum\":11,\"buckets\":[[1,0],[2,0],[4,0],[8,2],"
        ));
        assert!(json.ends_with("[null,0]]}}}"));
    }

    #[test]
    fn json_round_trips_through_parse() {
        let snap = sample();
        assert_eq!(Snapshot::parse_json(&snap.render_json()), Some(snap));
        assert_eq!(
            Snapshot::parse_json("{\"counters\":{},\"gauges\":{},\"histograms\":{}}"),
            Some(Snapshot::default())
        );
    }

    #[test]
    fn parse_json_rejects_malformed_and_skips_unknown_keys() {
        assert_eq!(Snapshot::parse_json("{\"counters\":{"), None);
        assert_eq!(Snapshot::parse_json("not json"), None);
        // Unknown top-level keys are skipped, known ones still parse.
        let grown = "{\"meta\":{\"v\":[1,null,\"x\"]},\"counters\":{\"a\":7},\"gauges\":{},\"histograms\":{}}";
        let snap = Snapshot::parse_json(grown).unwrap();
        assert_eq!(snap.counters.get("a"), Some(&7));
    }

    #[test]
    fn json_escapes_strings() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn empty_snapshot_renders() {
        let snap = Snapshot::default();
        assert_eq!(snap.render_text(), "# polygraph-obs exposition v1\n");
        assert_eq!(
            snap.render_json(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}"
        );
    }
}
