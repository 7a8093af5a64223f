//! A minimal JSON value, serializer and parser, handwritten so the
//! harness can emit `BENCH_<exp>.json` artifacts — and `experiments
//! check` can read them back — without a serialization dependency.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Unsigned integer (rendered without a fraction).
    U64(u64),
    /// Signed integer (rendered without a fraction).
    I64(i64),
    /// Float (non-finite values render as `null`).
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object; `BTreeMap` keeps key order deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (String, Json)>) -> Json {
        Json::Obj(pairs.into_iter().collect())
    }

    /// The value under `key`, if this is an object that has one. Only
    /// this object's own keys are searched, never a nested object's.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(n) => Some(n as f64),
            Json::I64(n) => Some(n as f64),
            Json::F64(x) => Some(x),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Parses one JSON value (what [`Json::render`] and the repo
    /// benchmark write; `\u` escapes outside the BMP are not joined).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i == p.s.len() {
            Ok(v)
        } else {
            Err(format!("trailing bytes at offset {}", p.i))
        }
    }

    /// Serializes with two-space indentation.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::I64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Json::F64(_) => out.push_str("null"),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(map) if map.is_empty() => out.push_str("{}"),
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.s[self.i..].starts_with(lit.as_bytes());
        if hit {
            self.i += lit.len();
        }
        hit
    }

    fn expect(&mut self, lit: &str) -> Result<(), String> {
        if self.eat(lit) {
            Ok(())
        } else {
            Err(format!("expected '{lit}' at offset {}", self.i))
        }
    }

    /// The items of an array or object up to `close`, comma-separated.
    fn items<T>(
        &mut self,
        close: &str,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut out = Vec::new();
        loop {
            self.ws();
            if self.eat(close) {
                return Ok(out);
            }
            if !out.is_empty() {
                self.expect(",")?;
                self.ws();
            }
            out.push(item(self)?);
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        if self.eat("{") {
            let pairs = self.items("}", |p| {
                let key = p.string()?;
                p.ws();
                p.expect(":")?;
                Ok((key, p.value()?))
            })?;
            Ok(Json::obj(pairs))
        } else if self.eat("[") {
            Ok(Json::Arr(self.items("]", Self::value)?))
        } else if self.s.get(self.i) == Some(&b'"') {
            Ok(Json::Str(self.string()?))
        } else if self.eat("true") {
            Ok(Json::Bool(true))
        } else if self.eat("false") {
            Ok(Json::Bool(false))
        } else if self.eat("null") {
            Ok(Json::Null)
        } else {
            self.number()
        }
    }

    /// Integers come back as `U64`/`I64`, anything else as `F64`, so a
    /// rendered value parses to what rendering it again would print.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        let t = std::str::from_utf8(&self.s[start..self.i]).unwrap_or("");
        (t.parse().ok().map(Json::U64))
            .or_else(|| t.parse().ok().map(Json::I64))
            .or_else(|| t.parse().ok().map(Json::F64))
            .ok_or_else(|| format!("bad value at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect("\"")?;
        let mut out = Vec::new();
        loop {
            let b = *self.s.get(self.i).ok_or("unterminated string")?;
            self.i += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let e = *self.s.get(self.i).ok_or("dangling escape")?;
                    self.i += 1;
                    let c = match e {
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            self.i += 4;
                            std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?
                        }
                        other => other as char,
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                b => out.push(b),
            }
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::U64(n)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::I64(n)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::F64(x)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values() {
        let j = Json::obj([
            ("b".to_string(), Json::from(true)),
            ("a".to_string(), Json::Arr(vec![Json::from(1u64), Json::Null])),
            ("s".to_string(), Json::from("he\"llo\n")),
        ]);
        let s = j.render();
        // Keys are sorted (BTreeMap) and strings escaped.
        assert_eq!(
            s,
            "{\n  \"a\": [\n    1,\n    null\n  ],\n  \"b\": true,\n  \"s\": \"he\\\"llo\\n\"\n}\n"
        );
    }

    #[test]
    fn parse_inverts_render() {
        let j = Json::obj([
            ("n".to_string(), Json::U64(16)),
            ("neg".to_string(), Json::I64(-3)),
            ("x".to_string(), Json::F64(0.8125)),
            ("big".to_string(), Json::F64(1.5e300)),
            ("t".to_string(), Json::Bool(true)),
            ("s".to_string(), Json::from("he\"llo\n\u{1}é")),
            (
                "nested".to_string(),
                Json::Arr(vec![
                    Json::Null,
                    Json::obj([("n".to_string(), Json::U64(1))]),
                ]),
            ),
            ("empty".to_string(), Json::Arr(vec![])),
        ]);
        assert_eq!(Json::parse(&j.render()), Ok(j));
        // The repo benchmark's one-line form.
        let line = Json::parse(r#"{"a": {"b.c": 2.5}, "failed": 0}"#).unwrap();
        assert_eq!(
            line.get("a").and_then(|a| a.get("b.c")),
            Some(&Json::F64(2.5))
        );
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(Json::parse("{\"a\": 1} x").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
    }

    #[test]
    fn empty_containers_render_compactly() {
        assert_eq!(Json::Arr(vec![]).render(), "[]\n");
        assert_eq!(Json::Obj(Default::default()).render(), "{}\n");
    }
}
