//! Structured trace events and their JSON serialization.

use std::fmt;

/// A field value attached to an event. The variants cover everything
//  the solver stack reports; strings are the escape hatch.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Signed integer.
    Int(i64),
    /// Unsigned integer (counters, ids).
    UInt(u64),
    /// Floating point (ratios, seconds).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Free-form text.
    Str(String),
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Value {
        Value::Int(v as i64)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::UInt(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::UInt(v as u64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::UInt(v as u64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::UInt(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
        }
    }
}

impl Value {
    /// JSON rendering of the value.
    pub fn to_json(&self) -> String {
        match self {
            Value::Int(v) => v.to_string(),
            Value::UInt(v) => v.to_string(),
            Value::F64(v) => {
                if v.is_finite() {
                    format!("{v}")
                } else {
                    "null".to_string()
                }
            }
            Value::Bool(v) => v.to_string(),
            Value::Str(s) => json_string(s),
        }
    }
}

/// What an event marks: a point occurrence or a span boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A point-in-time occurrence.
    Event,
    /// The opening edge of a span.
    SpanStart,
    /// The closing edge of a span (carries the duration).
    SpanEnd,
}

impl EventKind {
    /// Stable label used in the JSONL output.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Event => "event",
            EventKind::SpanStart => "span_start",
            EventKind::SpanEnd => "span_end",
        }
    }
}

/// One structured trace record.
#[derive(Clone, Debug)]
pub struct Event {
    /// Microseconds since the trace clock's origin (process-global,
    /// monotonic). Stripped when comparing runs for determinism.
    pub t_us: u64,
    /// Event kind (point event or span edge).
    pub kind: EventKind,
    /// The emitting subsystem (crate short name: `sat`, `smt`, `core`,
    /// `ml`, …).
    pub target: &'static str,
    /// Dotted event name, e.g. `cegar.iteration`.
    pub name: &'static str,
    /// Span duration in microseconds (span-end events only).
    pub dur_us: Option<u64>,
    /// Structured payload, in emission order.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// Serializes the event as a single JSON object (one JSONL line,
    /// without the trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"t_us\":");
        out.push_str(&self.t_us.to_string());
        out.push_str(",\"kind\":\"");
        out.push_str(self.kind.label());
        out.push_str("\",\"target\":\"");
        out.push_str(self.target);
        out.push_str("\",\"name\":\"");
        out.push_str(self.name);
        out.push('"');
        if let Some(d) = self.dur_us {
            out.push_str(",\"dur_us\":");
            out.push_str(&d.to_string());
        }
        if !self.fields.is_empty() {
            out.push_str(",\"fields\":{");
            for (i, (k, v)) in self.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&json_string(k));
                out.push(':');
                out.push_str(&v.to_json());
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// A timestamp-free rendering (kind, target, name, fields — no
    /// `t_us`/`dur_us`): two runs of a deterministic solver must
    /// produce identical sequences of these.
    pub fn deterministic_key(&self) -> String {
        let mut out = format!("{}:{}:{}", self.kind.label(), self.target, self.name);
        for (k, v) in &self.fields {
            out.push_str(&format!(" {k}={v}"));
        }
        out
    }
}

/// Escapes `s` as a JSON string literal (with quotes).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_json_shape() {
        let e = Event {
            t_us: 42,
            kind: EventKind::SpanEnd,
            target: "core",
            name: "cegar.check",
            dur_us: Some(7),
            fields: vec![("clause", Value::UInt(3)), ("verdict", Value::from("sat"))],
        };
        let j = e.to_json();
        assert_eq!(
            j,
            "{\"t_us\":42,\"kind\":\"span_end\",\"target\":\"core\",\"name\":\"cegar.check\",\
             \"dur_us\":7,\"fields\":{\"clause\":3,\"verdict\":\"sat\"}}"
        );
        assert!(crate::json::parse(&j).is_ok());
    }

    #[test]
    fn string_escaping() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn deterministic_key_ignores_time() {
        let mk = |t| Event {
            t_us: t,
            kind: EventKind::Event,
            target: "smt",
            name: "x",
            dur_us: None,
            fields: vec![("n", Value::Int(-4))],
        };
        assert_eq!(mk(1).deterministic_key(), mk(999).deterministic_key());
    }
}
