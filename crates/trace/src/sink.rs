//! Event sinks: where dispatched trace events go.

use crate::event::Event;
use crate::metrics::MetricsReport;
use crate::EventKind;
use std::cell::RefCell;
use std::io::{BufWriter, Write};
use std::rc::Rc;

/// Consumes trace events. Installed globally ([`crate::set_global_sink`],
/// requires `Send`) or per-thread ([`crate::LocalSinkGuard`]).
pub trait Sink {
    /// Receives one event.
    fn event(&mut self, e: &Event);

    /// Receives the end-of-run metrics report (sinks that persist
    /// traces append it as a trailer; others may ignore it).
    fn metrics(&mut self, _report: &MetricsReport) {}

    /// Flushes buffered output.
    fn flush(&mut self) {}
}

/// Human-readable progress log on stderr: one line per event, with
/// millisecond timestamps and indentation following span nesting.
#[derive(Debug, Default)]
pub struct StderrSink {
    depth: usize,
}

impl StderrSink {
    /// Creates the sink.
    pub fn new() -> StderrSink {
        StderrSink { depth: 0 }
    }
}

impl Sink for StderrSink {
    fn event(&mut self, e: &Event) {
        if e.kind == EventKind::SpanEnd {
            self.depth = self.depth.saturating_sub(1);
        }
        let mut line = format!(
            "[{:>10.3}ms] {:4} {}{}{}",
            e.t_us as f64 / 1e3,
            e.target,
            "  ".repeat(self.depth.min(12)),
            match e.kind {
                EventKind::SpanStart => "> ",
                EventKind::SpanEnd => "< ",
                EventKind::Event => "- ",
            },
            e.name,
        );
        if let Some(d) = e.dur_us {
            line.push_str(&format!(" [{:.3}ms]", d as f64 / 1e3));
        }
        for (k, v) in &e.fields {
            line.push_str(&format!(" {k}={v}"));
        }
        eprintln!("{line}");
        if e.kind == EventKind::SpanStart {
            self.depth += 1;
        }
    }

    fn metrics(&mut self, report: &MetricsReport) {
        eprintln!("[metrics] {}", report.to_json());
    }
}

/// Machine-readable JSONL sink: one JSON object per line, with the
/// metrics report appended as a final `{"kind":"metrics_report",...}`
/// record.
pub struct JsonlSink<W: Write> {
    out: BufWriter<W>,
}

impl JsonlSink<std::fs::File> {
    /// Creates (truncating) the file at `path`.
    pub fn create(path: &std::path::Path) -> std::io::Result<JsonlSink<std::fs::File>> {
        Ok(JsonlSink { out: BufWriter::new(std::fs::File::create(path)?) })
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(w: W) -> JsonlSink<W> {
        JsonlSink { out: BufWriter::new(w) }
    }
}

impl<W: Write> Sink for JsonlSink<W> {
    fn event(&mut self, e: &Event) {
        // Trace output is best-effort: a full disk must not take the
        // solver down with it.
        let _ = writeln!(self.out, "{}", e.to_json());
    }

    fn metrics(&mut self, report: &MetricsReport) {
        let _ = writeln!(self.out, "{{\"kind\":\"metrics_report\",\"report\":{}}}", report.to_json());
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

impl<W: Write> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

/// An in-memory sink for tests: events accumulate in a shared buffer
/// the test keeps a handle to.
#[derive(Clone, Default)]
pub struct CollectingSink {
    events: Rc<RefCell<Vec<Event>>>,
}

impl CollectingSink {
    /// Creates an empty collector.
    pub fn new() -> CollectingSink {
        CollectingSink::default()
    }

    /// Drains and returns the collected events.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut self.events.borrow_mut())
    }

    /// Number of events collected so far.
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    /// `true` when nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.events.borrow().is_empty()
    }
}

impl Sink for CollectingSink {
    fn event(&mut self, e: &Event) {
        self.events.borrow_mut().push(e.clone());
    }
}

/// A sink broadcasting each event to two sinks (e.g. stderr + JSONL).
pub struct TeeSink<A: Sink, B: Sink> {
    /// First receiver.
    pub a: A,
    /// Second receiver.
    pub b: B,
}

impl<A: Sink, B: Sink> Sink for TeeSink<A, B> {
    fn event(&mut self, e: &Event) {
        self.a.event(e);
        self.b.event(e);
    }

    fn metrics(&mut self, report: &MetricsReport) {
        self.a.metrics(report);
        self.b.metrics(report);
    }

    fn flush(&mut self) {
        self.a.flush();
        self.b.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Value;

    fn ev(name: &'static str) -> Event {
        Event {
            t_us: 1,
            kind: EventKind::Event,
            target: "test",
            name,
            dur_us: None,
            fields: vec![("k", Value::Int(1))],
        }
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let mut buf = Vec::new();
        {
            let mut sink = JsonlSink::new(&mut buf);
            sink.event(&ev("a"));
            sink.event(&ev("b"));
            sink.metrics(&MetricsReport::default());
            sink.flush();
        }
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for l in &lines {
            assert!(crate::json::parse(l).is_ok(), "bad line: {l}");
        }
        assert!(lines[2].contains("metrics_report"));
    }

    #[test]
    fn collecting_sink_shares_buffer() {
        let sink = CollectingSink::new();
        let handle = sink.clone();
        let mut boxed: Box<dyn Sink> = Box::new(sink);
        boxed.event(&ev("x"));
        assert_eq!(handle.len(), 1);
        assert_eq!(handle.take()[0].name, "x");
        assert!(handle.is_empty());
    }
}
