//! `linarb-trace` — dependency-free structured tracing and metrics
//! for the whole solver stack.
//!
//! The paper evaluates LinearArbitrary by counting samples and solver
//! iterations; this crate is the in-tree observability layer that
//! makes those (and much finer-grained) numbers visible on any run:
//!
//! * **Events and spans** ([`event!`], [`span`]) — structured records
//!   with a monotonic timestamp, a target (crate short name), a dotted
//!   name, and typed fields. Spans are RAII guards attributing
//!   wall-clock time to phases (oracle, learner, sample extraction…).
//! * **Sinks** ([`Sink`]) — a human-readable stderr log
//!   ([`StderrSink`]) and a machine-readable JSONL file sink
//!   ([`JsonlSink`]), installed globally or per-thread.
//! * **Metrics** ([`metrics`]) — named counters, histograms, and span
//!   timers aggregated into a [`MetricsReport`] (JSON-serializable
//!   without serde).
//!
//! # Overhead contract
//!
//! With no sink installed and metrics off, every instrumentation point
//! compiles down to one relaxed atomic load and a branch: no
//! allocation, no time-stamping, no locking. [`enabled`] is the fast
//! path; event payloads are only constructed after it returns `true`
//! (the [`event!`] macro guarantees this — field expressions are not
//! even evaluated). Span guards are `Option`-backed: a disabled span
//! is a `None` and its drop is a no-op.
//!
//! # Example
//!
//! ```
//! use linarb_trace::{self as trace, Level};
//!
//! // Tests use thread-local sinks so parallel tests don't interfere.
//! let sink = trace::CollectingSink::new();
//! let _guard = trace::LocalSinkGuard::install(Box::new(sink.clone()), Level::Debug);
//! {
//!     let mut span = trace::span(Level::Debug, "demo", "work");
//!     trace::event!(Level::Debug, "demo", "step", "n" => 1u64);
//!     span.record("outcome", "ok");
//! }
//! let events = sink.take();
//! assert_eq!(events.len(), 3); // span_start, step, span_end
//! assert_eq!(events[2].fields[0].1.to_string(), "ok");
//! ```

mod event;
pub mod frame;
pub mod json;
pub mod metrics;
pub mod profile;
mod sink;

pub use event::{json_string, Event, EventKind, Value};
pub use metrics::{HistAgg, MetricsReport, MetricsScope, TimerAgg};
pub use profile::{ProfileNode, ProfileScope, ProfileTree};
pub use sink::{CollectingSink, JsonlSink, Sink, StderrSink, TeeSink};

use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Trace verbosity, ordered: `Off < Info < Debug < Trace`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Default)]
#[repr(u8)]
pub enum Level {
    /// No events.
    #[default]
    Off = 0,
    /// Run-level milestones (solve start/end, verdicts).
    Info = 1,
    /// Per-iteration/per-check detail across all crates.
    Debug = 2,
    /// High-frequency detail (encodings, countermodels, rounds).
    Trace = 3,
}

impl Level {
    /// Parses `off|info|debug|trace` (case-insensitive).
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => Some(Level::Off),
            "info" | "1" => Some(Level::Info),
            "debug" | "2" => Some(Level::Debug),
            "trace" | "3" => Some(Level::Trace),
            _ => None,
        }
    }

    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

/// Max level any active sink (global or thread-local, on any thread)
/// listens at. THE fast-path gate: one relaxed load.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(0);
/// Level of the global sink.
static GLOBAL_LEVEL: AtomicU8 = AtomicU8::new(0);
/// Max level over live thread-local sinks (monotone while any live;
/// recomputed to 0 when the count drops to 0).
static LOCAL_MAX_LEVEL: AtomicU8 = AtomicU8::new(0);
/// Number of live thread-local sinks.
static LOCAL_COUNT: AtomicUsize = AtomicUsize::new(0);

static GLOBAL_SINK: Mutex<Option<Box<dyn Sink + Send>>> = Mutex::new(None);

thread_local! {
    static LOCAL_SINK: RefCell<Option<(Box<dyn Sink>, Level)>> = const { RefCell::new(None) };
}

fn refresh_max() {
    let g = GLOBAL_LEVEL.load(Ordering::Relaxed);
    let l = LOCAL_MAX_LEVEL.load(Ordering::Relaxed);
    MAX_LEVEL.store(g.max(l), Ordering::Relaxed);
}

/// `true` when an event at `level` would reach some sink. This is the
/// disabled-path cost of every instrumentation point: a relaxed atomic
/// load and a compare.
#[inline(always)]
pub fn enabled(level: Level) -> bool {
    level as u8 <= MAX_LEVEL.load(Ordering::Relaxed) && level != Level::Off
}

/// Installs the process-global sink, listening at `level` (replacing
/// any previous global sink).
pub fn set_global_sink(sink: Box<dyn Sink + Send>, level: Level) {
    let mut g = GLOBAL_SINK.lock().unwrap();
    if let Some(mut old) = g.replace(sink) {
        old.flush();
    }
    GLOBAL_LEVEL.store(level as u8, Ordering::Relaxed);
    refresh_max();
}

/// Removes and returns the global sink (flushed).
pub fn clear_global_sink() -> Option<Box<dyn Sink + Send>> {
    let mut g = GLOBAL_SINK.lock().unwrap();
    GLOBAL_LEVEL.store(0, Ordering::Relaxed);
    refresh_max();
    let mut old = g.take();
    if let Some(s) = old.as_mut() {
        s.flush();
    }
    old
}

/// Forwards the end-of-run metrics report to the active sink (the
/// thread-local one if installed, the global one otherwise). JSONL
/// sinks append it as a final trailer record.
pub fn emit_metrics(report: &MetricsReport) {
    let handled = LOCAL_SINK.with(|l| {
        if let Some((sink, _)) = l.borrow_mut().as_mut() {
            sink.metrics(report);
            true
        } else {
            false
        }
    });
    if !handled {
        if let Some(sink) = GLOBAL_SINK.lock().unwrap().as_mut() {
            sink.metrics(report);
        }
    }
}

/// RAII installation of a thread-local sink: while alive, this
/// thread's events go to `sink` instead of the global one. Built for
/// tests (deterministic capture under parallel test execution) and
/// for per-task capture inside parallel solver regions. Guards nest:
/// installing over an existing local sink shadows it, and dropping
/// the inner guard restores the outer sink.
pub struct LocalSinkGuard {
    prev: Option<(Box<dyn Sink>, Level)>,
}

impl LocalSinkGuard {
    /// Installs `sink` on the current thread at `level`.
    pub fn install(sink: Box<dyn Sink>, level: Level) -> LocalSinkGuard {
        let prev = LOCAL_SINK.with(|l| l.borrow_mut().replace((sink, level)));
        LOCAL_COUNT.fetch_add(1, Ordering::Relaxed);
        // Monotone max while any local sink lives; exact enough (the
        // gate only needs to be ≥ every listener's level).
        LOCAL_MAX_LEVEL.fetch_max(level as u8, Ordering::Relaxed);
        refresh_max();
        LocalSinkGuard { prev }
    }
}

impl Drop for LocalSinkGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        LOCAL_SINK.with(|l| {
            let mut slot = l.borrow_mut();
            if let Some((sink, _)) = slot.as_mut() {
                sink.flush();
            }
            *slot = prev;
        });
        if LOCAL_COUNT.fetch_sub(1, Ordering::Relaxed) == 1 {
            LOCAL_MAX_LEVEL.store(0, Ordering::Relaxed);
        }
        refresh_max();
    }
}

/// The trace clock's origin (first use).
fn clock_origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Microseconds since the trace clock's origin.
pub fn now_us() -> u64 {
    clock_origin().elapsed().as_micros() as u64
}

fn dispatch(level: Level, e: &Event) {
    let handled = LOCAL_SINK.with(|l| {
        if let Some((sink, lvl)) = l.borrow_mut().as_mut() {
            if level <= *lvl {
                sink.event(e);
            }
            // A thread-local sink claims the whole thread, even for
            // levels it ignores: local scopes must never leak into a
            // concurrently installed global sink.
            true
        } else {
            false
        }
    });
    if handled {
        return;
    }
    if level as u8 <= GLOBAL_LEVEL.load(Ordering::Relaxed) {
        if let Some(sink) = GLOBAL_SINK.lock().unwrap().as_mut() {
            sink.event(e);
        }
    }
}

/// Emits a point event. Callers normally go through [`event!`], which
/// skips field construction when the level is disabled.
pub fn emit(level: Level, target: &'static str, name: &'static str, fields: Vec<(&'static str, Value)>) {
    if !enabled(level) {
        return;
    }
    let e = Event {
        t_us: now_us(),
        kind: EventKind::Event,
        target,
        name,
        dur_us: None,
        fields,
    };
    dispatch(level, &e);
}

/// Structured event emission, lazily evaluated:
///
/// ```
/// # use linarb_trace::{event, Level};
/// event!(Level::Debug, "smt", "check.done", "rounds" => 3u64, "verdict" => "unsat");
/// ```
#[macro_export]
macro_rules! event {
    ($lvl:expr, $target:expr, $name:expr $(, $k:expr => $v:expr)* $(,)?) => {
        if $crate::enabled($lvl) {
            $crate::emit($lvl, $target, $name,
                ::std::vec![$(($k, $crate::Value::from($v))),*]);
        }
    };
}

/// An RAII span: emits `span_start` on creation and `span_end` (with
/// duration) on drop, feeds the duration into the metrics timer named
/// after the span, and records a call-tree frame when the thread is
/// profiling ([`profile`]). Inert (zero work on drop) when events,
/// metrics, and profiling are all off.
pub struct SpanGuard {
    inner: Option<SpanInner>,
}

struct SpanInner {
    level: Level,
    target: &'static str,
    name: &'static str,
    start: Instant,
    fields: Vec<(&'static str, Value)>,
    emit_events: bool,
    profiled: bool,
}

/// Opens a span. The span's name doubles as its metrics timer key.
pub fn span(level: Level, target: &'static str, name: &'static str) -> SpanGuard {
    let emit_events = enabled(level);
    // `push` only succeeds when this thread has a live ProfileScope;
    // a successful push obliges the span to pop on drop.
    let profiled = profile::push(name);
    if !emit_events && !profiled && !metrics::metrics_enabled() {
        return SpanGuard { inner: None };
    }
    if emit_events {
        let e = Event {
            t_us: now_us(),
            kind: EventKind::SpanStart,
            target,
            name,
            dur_us: None,
                fields: Vec::new(),
        };
        dispatch(level, &e);
    }
    SpanGuard {
        inner: Some(SpanInner {
            level,
            target,
            name,
            start: Instant::now(),
            fields: Vec::new(),
            emit_events,
            profiled,
        }),
    }
}

impl SpanGuard {
    /// `true` when the span is live (events or metrics active) —
    /// lets callers skip computing expensive field values.
    pub fn active(&self) -> bool {
        self.inner.is_some()
    }

    /// Attaches a field, reported on the span-end event.
    pub fn record(&mut self, key: &'static str, value: impl Into<Value>) {
        if let Some(inner) = &mut self.inner {
            if inner.emit_events {
                inner.fields.push((key, value.into()));
            }
        }
    }

    /// The span's elapsed time so far (zero when inert).
    pub fn elapsed(&self) -> Duration {
        self.inner.as_ref().map(|i| i.start.elapsed()).unwrap_or(Duration::ZERO)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else { return };
        let dur = inner.start.elapsed();
        if inner.profiled {
            profile::pop(dur);
        }
        metrics::timer(inner.name, dur);
        if inner.emit_events {
            let e = Event {
                t_us: now_us(),
                kind: EventKind::SpanEnd,
                target: inner.target,
                name: inner.name,
                dur_us: Some(dur.as_micros() as u64),
                        fields: inner.fields,
            };
            dispatch(inner.level, &e);
        }
    }
}

/// Reads `LINARB_TRACE` (a [`Level`]) and `LINARB_TRACE_OUT` (a JSONL
/// path) and installs the corresponding global sink: stderr log when
/// only the level is set, JSONL file when a path is set, both (teed)
/// when the path is set and `LINARB_TRACE_STDERR=1`. Returns the
/// effective level. Call once from binary entry points.
pub fn init_from_env() -> Level {
    let level = std::env::var("LINARB_TRACE")
        .ok()
        .and_then(|s| Level::parse(&s))
        .unwrap_or(Level::Off);
    let out = std::env::var("LINARB_TRACE_OUT").ok();
    install_cli_sink(level, out.as_deref())
}

/// Installs the global sink for a CLI invocation: `level` from
/// `--trace`, `trace_out` from `--trace-out`. A `trace_out` path with
/// level `Off` still records at `Debug` (asking for a trace file
/// implies wanting its contents). Returns the effective level.
pub fn install_cli_sink(level: Level, trace_out: Option<&str>) -> Level {
    let level = match (level, trace_out) {
        (Level::Off, Some(_)) => Level::Debug,
        (l, _) => l,
    };
    if level == Level::Off {
        return level;
    }
    match trace_out {
        None => set_global_sink(Box::new(StderrSink::new()), level),
        Some(path) => {
            let jsonl = match JsonlSink::create(std::path::Path::new(path)) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("linarb-trace: cannot open {path}: {e}");
                    return Level::Off;
                }
            };
            let tee = std::env::var("LINARB_TRACE_STDERR").map(|v| v == "1").unwrap_or(false);
            if tee {
                set_global_sink(Box::new(TeeSink { a: jsonl, b: StderrSink::new() }), level);
            } else {
                set_global_sink(Box::new(jsonl), level);
            }
        }
    }
    level
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_cheap_and_silent() {
        // No sink anywhere on this thread: spans are inert.
        let s = span(Level::Trace, "t", "test.nothing");
        assert!(!s.active() || metrics::metrics_enabled() || enabled(Level::Trace));
    }

    #[test]
    fn local_sink_captures_at_level() {
        let sink = CollectingSink::new();
        let guard = LocalSinkGuard::install(Box::new(sink.clone()), Level::Debug);
        event!(Level::Info, "t", "a", "x" => 1u64);
        event!(Level::Debug, "t", "b");
        event!(Level::Trace, "t", "c"); // above the local level: dropped
        drop(guard);
        event!(Level::Info, "t", "d"); // after uninstall: dropped
        let events = sink.take();
        let names: Vec<&str> = events.iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert_eq!(events[0].fields, vec![("x", Value::UInt(1))]);
    }

    #[test]
    fn span_emits_start_end_and_times() {
        let sink = CollectingSink::new();
        let _guard = LocalSinkGuard::install(Box::new(sink.clone()), Level::Debug);
        let scope = MetricsScope::new();
        {
            let mut sp = span(Level::Debug, "t", "test.span");
            assert!(sp.active());
            sp.record("k", 5u64);
        }
        let events = sink.take();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::SpanStart);
        assert_eq!(events[1].kind, EventKind::SpanEnd);
        assert!(events[1].dur_us.is_some());
        assert_eq!(events[1].fields, vec![("k", Value::UInt(5))]);
        let rep = scope.take_report();
        assert_eq!(rep.timers["test.span"].count, 1);
    }

    #[test]
    fn metrics_only_span_skips_events() {
        let scope = MetricsScope::new();
        {
            let sp = span(Level::Debug, "t", "test.metrics_only");
            // No sink on this thread -> span is metrics-only but live.
            assert!(sp.active());
        }
        let rep = scope.take_report();
        assert_eq!(rep.timers["test.metrics_only"].count, 1);
    }

    #[test]
    fn local_sinks_nest_and_restore() {
        let outer = CollectingSink::new();
        let _og = LocalSinkGuard::install(Box::new(outer.clone()), Level::Debug);
        event!(Level::Info, "t", "before");
        {
            let inner = CollectingSink::new();
            let _ig = LocalSinkGuard::install(Box::new(inner.clone()), Level::Trace);
            event!(Level::Trace, "t", "inner_only");
            assert_eq!(inner.take().len(), 1);
        }
        // Inner guard dropped: the outer sink is active again.
        event!(Level::Info, "t", "after");
        let names: Vec<&str> = outer.take().iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["before", "after"]);
    }

    #[test]
    fn level_parsing() {
        assert_eq!(Level::parse("debug"), Some(Level::Debug));
        assert_eq!(Level::parse("TRACE"), Some(Level::Trace));
        assert_eq!(Level::parse("off"), Some(Level::Off));
        assert_eq!(Level::parse("garbage"), None);
        assert!(Level::Info < Level::Debug);
    }
}
