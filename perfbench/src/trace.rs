//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only around the benchmark's own calls into each
//! layer's public functions; the program under test records nothing.
//! Recording is off unless [`arm`] was called, so the end-to-end runs
//! pay one relaxed atomic load per span site. Spans stay in memory and
//! are written out once, at exit, as Chrome trace-event JSON (Perfetto
//! and `chrome://tracing` open it).

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Layer tags: the repository's crates, plus the benchmark itself.
pub const BENCH: &str = "bench";
pub const SIM: &str = "sim";
pub const DEVICE: &str = "device";
pub const FABRIC: &str = "fabric";
pub const XCCL: &str = "xccl";
pub const CORE: &str = "core";
pub const APPS: &str = "apps";

/// One timed call into a layer.
struct Span {
    name: String,
    layer: &'static str,
    /// Rank (or 0 for main-thread spans): the timeline row.
    lane: usize,
    parent: Option<usize>,
    host0: Instant,
    host1: Option<Instant>,
    vt0_ns: u64,
    vt1_ns: u64,
}

/// Handle to an open span; `None` when recording is off.
pub type SpanId = Option<usize>;

// `ARMED` publishes no data: `SPANS` carries its own lock.
static ARMED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// Start recording spans.
pub fn arm() {
    ORIGIN.get_or_init(Instant::now);
    ARMED.store(true, Ordering::Relaxed);
}

/// Stop recording spans (already recorded ones are kept).
pub fn disarm() {
    ARMED.store(false, Ordering::Relaxed);
}

/// Open a span at virtual time `vt0_ns`.
pub fn begin(name: &str, layer: &'static str, lane: usize, parent: SpanId, vt0_ns: u64) -> SpanId {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    let mut spans = SPANS.lock().expect("span recorder poisoned");
    spans.push(Span {
        name: name.to_string(),
        layer,
        lane,
        parent,
        host0: Instant::now(),
        host1: None,
        vt0_ns,
        vt1_ns: vt0_ns,
    });
    Some(spans.len() - 1)
}

/// Close a span at virtual time `vt1_ns`.
pub fn end(id: SpanId, vt1_ns: u64) {
    if let Some(i) = id {
        let mut spans = SPANS.lock().expect("span recorder poisoned");
        spans[i].host1 = Some(Instant::now());
        spans[i].vt1_ns = vt1_ns;
    }
}

/// Number of spans recorded so far.
pub fn count() -> usize {
    SPANS.lock().expect("span recorder poisoned").len()
}

/// Render every recorded span as Chrome trace-event JSON. Host time
/// gives the timeline; virtual time, layer and parent ride in `args`.
pub fn to_chrome_json(stamp: &str) -> String {
    let spans = SPANS.lock().expect("span recorder poisoned");
    let origin = *ORIGIN.get_or_init(Instant::now);
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let us = |t: Instant| t.saturating_duration_since(origin).as_secs_f64() * 1e6;
        let t0 = us(s.host0);
        let t1 = s.host1.map_or(t0, us);
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{{\"name\":{},\"cat\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{t0:.3},\
             \"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"vt0_ns\":{},\
             \"vt1_ns\":{}}}}}{sep}",
            json_str(&s.name),
            s.layer,
            s.lane,
            t1 - t0,
            s.vt0_ns,
            s.vt1_ns,
        );
    }
    let _ = writeln!(out, "],\"otherData\":{{\"machine\":{}}}}}", json_str(stamp));
    out
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut o = String::with_capacity(s.len() + 2);
    o.push('"');
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}
