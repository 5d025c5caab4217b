//! Minimal JSON parsing and emission for the serving API.
//!
//! Hand-rolled (the workspace is hermetic), covering the full value
//! grammar with a recursion-depth cap. The parser returns `Err` on any
//! malformed document — never panics — because it runs on request
//! bodies straight off the network.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON numbers are all doubles here).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. BTreeMap keeps key order deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object field lookup; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a usize, if it is a non-negative integer.
    pub fn as_usize(&self) -> Option<usize> {
        let n = self.as_f64()?;
        if n >= 0.0 && n.fract() == 0.0 && n <= usize::MAX as f64 {
            Some(n as usize)
        } else {
            None
        }
    }
}

const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes.get(self.pos..).is_some_and(|rest| rest.starts_with(word.as_bytes())) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect_byte(b':')?;
                    map.insert(key, self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(map));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let digits = self.bytes.get(start..self.pos).unwrap_or_default();
        let text = std::str::from_utf8(digits).map_err(|_| "non-UTF-8 number".to_string())?;
        let n: f64 = text.parse().map_err(|_| format!("bad number {text:?}"))?;
        if n.is_finite() {
            Ok(Json::Num(n))
        } else {
            Err(format!("non-finite number {text:?}"))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "non-UTF-8 \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            self.pos += 4;
                            // Surrogates are rejected rather than paired;
                            // the serving API never emits them.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid code point {code:#x}"))?,
                            );
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                Some(_) => {
                    // Decode one UTF-8 scalar starting here.
                    let rest = self.bytes.get(self.pos..).unwrap_or_default();
                    // mb-lint: allow(indexing) -- upper bound is rest.len().min(4) <= rest.len()
                    let chunk = std::str::from_utf8(&rest[..rest.len().min(4)]).or_else(|e| {
                        let valid = e.valid_up_to();
                        if valid == 0 {
                            Err("non-UTF-8 string bytes".to_string())
                        } else {
                            // mb-lint: allow(indexing) -- valid_up_to() <= slice len by contract
                            std::str::from_utf8(&rest[..valid])
                                .map_err(|_| "non-UTF-8 string bytes".to_string())
                        }
                    })?;
                    let c = chunk.chars().next().ok_or("non-UTF-8 string bytes")?;
                    if (c as u32) < 0x20 {
                        return Err("raw control character in string".to_string());
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }
}

/// Parse a complete JSON document (trailing whitespace allowed).
pub fn parse(bytes: &[u8]) -> Result<Json, String> {
    let mut p = Parser { bytes, pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos == bytes.len() {
        Ok(v)
    } else {
        Err(format!("trailing bytes after document at {}", p.pos))
    }
}

/// Quote and escape a string for a JSON document.
pub fn escape(s: &str) -> String {
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

/// Format a float as JSON (finite values only; callers guarantee this).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_link_request_shape() {
        let v =
            parse(br#"{"surface": "the dark magician", "left": "after \"the\" duel ", "k": 3}"#)
                .unwrap();
        assert_eq!(v.get("surface").and_then(Json::as_str), Some("the dark magician"));
        assert_eq!(v.get("left").and_then(Json::as_str), Some("after \"the\" duel "));
        assert_eq!(v.get("k").and_then(Json::as_usize), Some(3));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            &b"{"[..],
            b"{\"a\" 1}",
            b"[1,]",
            b"\"unterminated",
            b"01x",
            b"{\"a\":1} trailing",
            b"nul",
            b"\x00",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let s = "tab\t, quote \", backslash \\, newline\n, unicode \u{1F600}";
        let doc = escape(s);
        assert_eq!(parse(doc.as_bytes()).unwrap(), Json::Str(s.to_string()));
        assert_eq!(escape("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(escape("µs — fine"), "\"µs — fine\"");
        assert_eq!(escape("\u{1}"), r#""\u0001""#);
    }

    #[test]
    fn depth_limit_is_enforced() {
        let mut doc = String::new();
        for _ in 0..100 {
            doc.push('[');
        }
        assert!(parse(doc.as_bytes()).is_err());
    }
}
