//! In-memory spans recorded by the harness around its calls into each
//! layer. Spans inside the product crates are a later change (ROADMAP
//! item 1); these are taken from outside, one per stage per 32-frame
//! batch (or per cycle / per call on the slower paths), kept in memory
//! and written out when the run ends.

use crate::alloc::thread_allocs;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Spans of one batch, cycle or call share an identifier.
    pub batch_id: u32,
    /// Allocation calls the traced thread made inside the span.
    pub allocs: u32,
}

/// Per-name totals over a trace.
#[derive(Default, Clone, Copy)]
pub struct StageTotal {
    pub spans: u64,
    /// Span durations minus the part covered by child spans.
    pub self_ns: u64,
    pub allocs: u64,
}

pub struct Tracer {
    origin: Instant,
    /// Off for the untraced twin of a traced pass: `open` and `close`
    /// then do nothing, so the difference of the two passes is the
    /// tracing overhead.
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            // Reserved up front so a push inside a parent span never
            // reallocates (which would be charged to the parent).
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; pair with [`Self::close`]. Returns its index, to be
    /// passed as `parent` of the spans it causes.
    pub fn open(&mut self, name: &'static str, parent: u32, batch_id: u32) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            batch_id,
            allocs: thread_allocs() as u32,
        });
        self.spans[index as usize].start_ns = self.now_ns();
        index
    }

    pub fn close(&mut self, index: u32) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let allocs_now = thread_allocs() as u32;
        let span = &mut self.spans[index as usize];
        span.end_ns = end_ns;
        span.allocs = allocs_now.wrapping_sub(span.allocs);
    }

    /// Duration of a closed span, ns.
    pub fn duration_ns(&self, index: u32) -> f64 {
        let span = &self.spans[index as usize];
        (span.end_ns - span.start_ns) as f64
    }

    /// Self time, span count and allocations per span name. `timer_ns`
    /// is the cost of one `Instant` pair; about half of it falls inside
    /// every span's own interval and is subtracted.
    pub fn totals(&self, timer_ns: f64) -> BTreeMap<&'static str, StageTotal> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let inside = (timer_ns / 2.0) as u64;
        let mut totals: BTreeMap<&'static str, StageTotal> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let total = totals.entry(span.name).or_default();
            total.spans += 1;
            total.self_ns += (span.end_ns - span.start_ns)
                .saturating_sub(children)
                .saturating_sub(inside);
            total.allocs += u64::from(span.allocs);
        }
        totals
    }

    /// Writes every span as one JSON array.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"batch_id\":{},\"allocs\":{}}}{}",
                s.name, s.start_ns, s.end_ns, parent, s.batch_id, s.allocs, comma
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// Cost of one `Instant::now()` pair, ns.
pub fn timer_pair_ns() -> f64 {
    const PAIRS: u32 = 200_000;
    let started = Instant::now();
    for _ in 0..PAIRS {
        let a = Instant::now();
        std::hint::black_box(a.elapsed());
    }
    started.elapsed().as_nanos() as f64 / f64::from(PAIRS)
}
