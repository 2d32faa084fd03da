//! A minimal JSON reader, keeping the workspace dependency-free. It
//! validates JSONL traces, scrapes numbers out of benchmark reports
//! and parses every serve request and reply frame ([`crate::frame`]).
//!
//! Parsing is one pass over the input. A string copies each run of
//! unescaped bytes, up to the next `"` or `\`, as one slice: the input
//! is a `&str`, and both stop bytes are ASCII, so no byte is decoded or
//! validated twice, and parse time stays linear in the frame size.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (kept as f64; traces only emit integers small
    /// enough to round-trip).
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (key order normalized).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// A parse failure: byte offset and message.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let b = text.as_bytes();
    let mut p = Parser { s: text, b, i: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.i != b.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// Validates a JSONL document: every non-empty line must parse.
/// Returns the number of valid lines.
pub fn validate_jsonl(text: &str) -> Result<usize, (usize, JsonError)> {
    let mut n = 0;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        parse(line).map_err(|e| (lineno + 1, e))?;
        n += 1;
    }
    Ok(n)
}

/// Deepest array/object nesting [`parse`] accepts. The reader and
/// the drop of the parsed value recurse once per level, so a document
/// nested to this depth still parses on a thread with the default
/// 2 MiB stack; deeper input is an error, not a stack overflow.
pub const MAX_NESTING: usize = 1000;

struct Parser<'a> {
    s: &'a str,
    b: &'a [u8],
    i: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError { at: self.i, msg: msg.to_string() }
    }

    fn skip_ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", c as char)))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(c @ (b'[' | b'{')) => {
                if self.depth == MAX_NESTING {
                    return Err(self.err(&format!("nested deeper than {MAX_NESTING} levels")));
                }
                self.depth += 1;
                let v = if c == b'[' { self.array() } else { self.object() };
                self.depth -= 1;
                v
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut out = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            out.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of unescaped bytes up to the next `"` or `\`
            // in one slice. Both stop bytes are ASCII, so the run ends
            // on a char boundary of the (already valid) input.
            let run = self.b[self.i..].iter().position(|&c| c == b'"' || c == b'\\');
            let Some(len) = run else {
                self.i = self.b.len();
                return Err(self.err("unterminated string"));
            };
            out.push_str(&self.s[self.i..self.i + len]);
            self.i += len;
            if self.b[self.i] == b'"' {
                self.i += 1;
                return Ok(out);
            }
            self.i += 1;
            let c = self.peek().ok_or_else(|| self.err("bad escape"))?;
            self.i += 1;
            match c {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => out.push(self.unicode_escape()?),
                _ => return Err(self.err("unknown escape")),
            }
        }
    }

    /// The four hex digits at byte `at`, if they are there.
    fn hex4(&self, at: usize) -> Option<u32> {
        let hex = self.b.get(at..at + 4)?;
        if !hex.iter().all(u8::is_ascii_hexdigit) {
            return None;
        }
        u32::from_str_radix(&self.s[at..at + 4], 16).ok()
    }

    /// The scalar of a `\u` escape whose digits start at `self.i`. A
    /// high surrogate followed by an escaped low one decodes the pair
    /// (`\ud83d\ude00` is one scalar); a lone surrogate becomes U+FFFD
    /// and leaves any following escape alone.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let code = self.hex4(self.i).ok_or_else(|| self.err("bad \\u escape"))?;
        self.i += 4;
        if (0xD800..0xDC00).contains(&code) && self.b[self.i..].starts_with(b"\\u") {
            if let Some(low @ 0xDC00..=0xDFFF) = self.hex4(self.i + 2) {
                self.i += 6;
                let scalar = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                return Ok(char::from_u32(scalar).expect("a surrogate pair is a scalar"));
            }
        }
        Ok(char::from_u32(code).unwrap_or('\u{fffd}'))
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.i += 1;
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        match self.s[start..self.i].parse::<f64>() {
            // `"1e999".parse::<f64>()` yields `inf` rather than an
            // error; a non-finite value can't round-trip through any
            // emitter in this workspace, so treat overflow as malformed
            // input instead of silently propagating infinities.
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            Ok(_) => Err(self.err("number overflows f64")),
            Err(_) => Err(self.err("bad number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, -2.5, "x\n", true, null], "b": {"c": 3e2}}"#).unwrap();
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_f64(), Some(300.0));
        match v.get("a").unwrap() {
            Json::Arr(items) => {
                assert_eq!(items.len(), 5);
                assert_eq!(items[2].as_str(), Some("x\n"));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn jsonl_validation() {
        assert_eq!(validate_jsonl("{\"a\":1}\n\n{\"b\":2}\n").unwrap(), 2);
        let err = validate_jsonl("{\"a\":1}\nnot json\n").unwrap_err();
        assert_eq!(err.0, 2);
    }

    #[test]
    fn escape_sequences_round_trip() {
        let v = parse(r#""a\"b\\c\/d\b\f\n\r\t""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c/d\u{8}\u{c}\n\r\t"));
        let v = parse(r#""Aé世""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé世"));
        // The emitter's own escaping parses back exactly.
        let original = "quote\" slash\\ ctrl\u{1} tab\t nl\n";
        let emitted = crate::event::json_string(original);
        assert_eq!(parse(&emitted).unwrap().as_str(), Some(original));
    }

    #[test]
    fn surrogate_pairs_decode_to_one_scalar() {
        // What Python's default `json.dumps` sends for non-BMP text.
        let v = parse(r#""a\ud83d\ude00b""#).unwrap();
        assert_eq!(v.as_str(), Some("a\u{1f600}b"));
        assert_eq!(parse(r#""\uD834\uDD1E""#).unwrap().as_str(), Some("\u{1d11e}"));
    }

    #[test]
    fn lone_surrogates_become_replacement_characters() {
        for (doc, want) in [
            (r#""\ud800""#, "\u{fffd}"),
            (r#""\udc00x""#, "\u{fffd}x"),
            // A high half followed by something other than a low half
            // leaves what follows to decode on its own.
            (r#""\ud83dx""#, "\u{fffd}x"),
            (r#""\ud83d\u0041""#, "\u{fffd}A"),
            (r#""\ud83d\ud83d\ude00""#, "\u{fffd}\u{1f600}"),
            (r#""\ud83d\n""#, "\u{fffd}\n"),
        ] {
            assert_eq!(parse(doc).unwrap().as_str(), Some(want), "{doc}");
        }
        // A truncated low half is an error, as any short escape is.
        assert!(parse(r#""\ud83d\ude0""#).is_err());
    }

    #[test]
    fn random_strings_round_trip_through_the_emitter() {
        const PIECES: [&str; 12] =
            ["a", "Z", "0", " ", "\"", "\\", "\n", "\u{1}", "\u{1f}", "é", "世", "😀"];
        linarb_testutil::cases(200, 0x150_5eed, |rng| {
            let len = rng.gen_range(0usize..64);
            let original: String =
                (0..len).map(|_| PIECES[rng.gen_range(0..PIECES.len())]).collect();
            let emitted = crate::event::json_string(&original);
            assert_eq!(parse(&emitted).unwrap().as_str(), Some(original.as_str()));
            let doc = format!("{{\"k\":[{emitted},{emitted}]}}");
            let Some(Json::Arr(items)) = parse(&doc).unwrap().get("k").cloned() else {
                panic!("expected array in {doc:?}");
            };
            assert!(items.iter().all(|v| v.as_str() == Some(original.as_str())));
        });
    }

    #[test]
    fn a_one_mebibyte_string_parses_in_linear_time() {
        let text = "(assert (=> (and (inv x) (< x 10)) (inv (+ x 1))))\n".repeat(21_000);
        let value = &text[..1 << 20];
        let doc = crate::event::json_string(value);
        let start = std::time::Instant::now();
        let parsed = parse(&doc).unwrap();
        let took = start.elapsed();
        assert_eq!(parsed.as_str(), Some(value));
        assert!(took.as_secs_f64() < 1.0, "1 MiB string took {took:?}");
    }

    #[test]
    fn bad_escapes_rejected() {
        assert!(parse(r#""\q""#).is_err());
        assert!(parse(r#""\u12""#).is_err()); // short \u escape
        assert!(parse(r#""\uzzzz""#).is_err());
        assert!(parse(r#""\u+123""#).is_err()); // hex digits only
        assert!(parse(r#""\u12é""#).is_err());
        assert!(parse("\"abc\\").is_err()); // escape at EOF
    }

    #[test]
    fn deeply_nested_structures() {
        let mut doc = String::new();
        for _ in 0..64 {
            doc.push_str("[{\"k\":");
        }
        doc.push('1');
        for _ in 0..64 {
            doc.push_str("}]");
        }
        let mut v = &parse(&doc).unwrap();
        for _ in 0..64 {
            let Json::Arr(items) = v else { panic!("expected array") };
            v = items[0].get("k").unwrap();
        }
        assert_eq!(v.as_f64(), Some(1.0));
    }

    #[test]
    fn nesting_past_the_limit_rejected() {
        let nested = |depth: usize| format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        let at_limit = move || parse(&nested(MAX_NESTING)).is_ok();
        let on_2mib = std::thread::Builder::new().stack_size(2 << 20).spawn(at_limit).unwrap();
        assert!(on_2mib.join().unwrap());
        let err = parse(&nested(MAX_NESTING + 1)).unwrap_err();
        assert!(err.to_string().contains("nested deeper than"), "{err}");
    }

    #[test]
    fn numeric_edge_cases() {
        assert_eq!(parse("0").unwrap().as_f64(), Some(0.0));
        assert_eq!(parse("-0.5e-2").unwrap().as_f64(), Some(-0.005));
        // u64::MAX loses precision in f64 but must still parse.
        let v = parse("18446744073709551615").unwrap().as_f64().unwrap();
        assert!((v - 1.8446744073709552e19).abs() / v < 1e-9);
        // Overflow to infinity is rejected, not propagated.
        let err = parse("1e999").unwrap_err();
        assert!(err.msg.contains("overflow"), "{err}");
        assert!(parse("-1e999").is_err());
        assert!(parse("[1e400]").is_err());
        // Malformed numbers.
        assert!(parse("-").is_err());
        assert!(parse("1e").is_err());
        assert!(parse("01x").is_err());
    }

    #[test]
    fn truncated_documents_rejected() {
        for doc in [
            "{\"a\":", "{\"a\"", "{\"a\":1,", "[1,2", "[", "{", "\"ab", "tru", "-", "[{\"x\":[",
        ] {
            assert!(parse(doc).is_err(), "should reject truncated {doc:?}");
        }
        // Truncation mid-line in a JSONL stream reports the line.
        let err = validate_jsonl("{\"a\":1}\n{\"b\":").unwrap_err();
        assert_eq!(err.0, 2);
    }
}
