//! The workspace's one JSON reader: strict, integer-exact and
//! order-preserving.
//!
//! The vendored `serde` only *emits* JSON (the workspace builds fully
//! offline), so everything that reads JSON back goes through this
//! parser: the Chrome-trace validator, the run store's record codec and
//! segment loader, the sweep server's TCP protocol and client, and the
//! `perf_baseline` gate.
//!
//! * **Integer-exact.** [`Value::Number`] keeps the number's raw source
//!   text; callers narrow with [`Value::as_u64`] (exact text parse, so
//!   full-range `u64` digests survive — an `f64` loses them above 2^53)
//!   or [`Value::as_f64`].
//! * **Byte-stable.** Member order is preserved and [`Value::to_json`]
//!   re-emits numbers verbatim and strings through the same
//!   `serde::write_json_str` the emitter uses, so emitter output
//!   round-trips byte-identically — the property the run store's
//!   bit-identical-cache-hit contract rests on.
//! * **Strict and bounded.** RFC 8259 grammar only (no leading zeros,
//!   trailing commas or lone surrogates), and nesting is capped at
//!   [`MAX_DEPTH`] (RFC 8259 §9), so no input — a TCP line, a store
//!   segment, a baseline file — can overflow the stack of the thread
//!   parsing it.

/// Deepest array/object nesting [`Value::parse`] accepts. The
/// workspace's own documents nest about 4 levels; deeper input is
/// rejected before it recurses.
pub const MAX_DEPTH: usize = 128;

/// Parsed JSON value. Object member order is preserved; duplicate keys
/// are kept as-is.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// Raw number text exactly as it appeared in the source.
    Number(String),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Parse `text` as a single JSON document (surrounding whitespace
    /// allowed, trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object member by key (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Exact unsigned integer: the raw text must be a plain decimal
    /// `u64` (no sign, fraction or exponent). Never goes through `f64`,
    /// so 2^64-1 survives.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(raw) if raw.bytes().all(|b| b.is_ascii_digit()) => raw.parse().ok(),
            _ => None,
        }
    }

    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// Float from the raw text; `null` maps to NaN (the emitter writes
    /// non-finite floats as `null`, so this is its inverse). Callers
    /// that must reject `null` match [`Value::Number`] instead.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(raw) => raw.parse().ok(),
            Value::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// Re-emit as compact JSON: numbers keep their source text, members
    /// keep their order, so emitter output round-trips byte-identically
    /// through [`Value::parse`] + `to_json`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(raw) => out.push_str(raw),
            Value::String(s) => serde::write_json_str(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Object(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    serde::write_json_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    /// Skip leading whitespace, then parse one value.
    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.container(b']', Parser::value).map(Value::Array),
            Some(b'{') => self.container(b'}', Parser::member).map(Value::Object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected `{}` at byte {}", c as char, self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// One `"key": value` object member.
    fn member(&mut self) -> Result<(String, Value), String> {
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok((key, self.value()?))
    }

    /// A bracketed, comma-separated sequence of `item`s closed by
    /// `close`, one nesting level deeper than the caller.
    fn container<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        self.pos += 1; // the opening bracket
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
        } else {
            loop {
                items.push(item(self)?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(c) if c == close => {
                        self.pos += 1;
                        break;
                    }
                    _ => {
                        return Err(format!(
                            "expected `,` or `{}` at byte {}",
                            close as char, self.pos
                        ))
                    }
                }
            }
        }
        self.depth -= 1;
        Ok(items)
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        match self.digits() {
            0 => return Err(format!("bad number at byte {start}")),
            // Leading zeros are invalid JSON ("01"), but "0" and "0.5" are fine.
            n if n > 1 && self.bytes[int_start] == b'0' => {
                return Err(format!("leading zero in number at byte {start}"))
            }
            _ => {}
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(format!("bad fraction at byte {start}"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(format!("bad exponent at byte {start}"));
            }
        }
        // The grammar above admits only ASCII, so the slice is valid UTF-8.
        Ok(Value::Number(
            String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned(),
        ))
    }

    /// The four hex digits of a `\u` escape, `pos` at the first digit.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .and_then(|h| u32::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok())
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(hex)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Fast path: a run of plain bytes.
            let start = self.pos;
            while let Some(c) = self.peek().filter(|&c| c != b'"' && c != b'\\') {
                if c < 0x20 {
                    return Err(format!("raw control byte in string at {}", self.pos));
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => self.pos += 1,
                _ => return Err("unterminated string".into()),
            }
            let Some(esc) = self.peek() else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => {
                    let hi = self.hex4()?;
                    let cp = if (0xd800..0xdc00).contains(&hi) {
                        // High surrogate: a low `\uXXXX` must follow.
                        if !self.bytes[self.pos..].starts_with(b"\\u") {
                            return Err("lone surrogate in \\u escape".into());
                        }
                        self.pos += 2;
                        let lo = self.hex4()?;
                        if !(0xdc00..0xe000).contains(&lo) {
                            return Err("invalid surrogate pair".into());
                        }
                        0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                    } else {
                        hi
                    };
                    // `None` only for a lone low surrogate.
                    char::from_u32(cp).ok_or("lone surrogate in \\u escape")?
                }
                _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(raw: &str) -> Value {
        Value::Number(raw.into())
    }

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse("-1.5e3").unwrap(), num("-1.5e3"));
        assert_eq!(Value::parse("-1.5e3").unwrap().as_f64(), Some(-1500.0));
        assert_eq!(
            Value::parse(r#""a\"bA""#).unwrap(),
            Value::String("a\"bA".into())
        );
        let v = Value::parse(r#"{"a":[1,2,{"b":null}],"c":"x"}"#).unwrap();
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.as_object().unwrap().len(), 2);
        assert_eq!(Value::parse(" [ ] ").unwrap(), Value::Array(vec![]));
        assert_eq!(Value::parse("{ }").unwrap(), Value::Object(vec![]));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "[1,]", "{", "{\"a\"}", "[1 2]", "tru", "\"abc", "1x"] {
            assert!(Value::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn handles_utf8_and_nesting() {
        let v = Value::parse("{\"k\": \"héllo ✓\"}").unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some("héllo ✓"));
        let deep = format!("{}1{}", "[".repeat(64), "]".repeat(64));
        assert!(Value::parse(&deep).is_ok());
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nested =
            |open: &str, close: &str, n: usize| format!("{}1{}", open.repeat(n), close.repeat(n));
        assert!(Value::parse(&nested("[", "]", MAX_DEPTH)).is_ok());
        assert!(Value::parse(&nested("{\"k\":", "}", MAX_DEPTH)).is_ok());
        for deep in [
            nested("[", "]", MAX_DEPTH + 1),
            nested("{\"k\":", "}", MAX_DEPTH + 1),
            format!("{}{}", "[{\"k\":".repeat(MAX_DEPTH / 2), "[1]"),
        ] {
            let err = Value::parse(&deep).unwrap_err();
            assert!(err.starts_with("nesting deeper than 128"), "{err}");
        }
    }

    #[test]
    fn full_range_u64_survives() {
        let v = Value::parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        // The f64 path would have rounded this; the raw text must not.
        assert_eq!(v, num("18446744073709551615"));
        assert_eq!(Value::parse("18446744073709551616").unwrap().as_u64(), None);
    }

    #[test]
    fn objects_preserve_member_order() {
        let v = Value::parse(r#"{"b":1,"a":2}"#).unwrap();
        let members = v.as_object().unwrap();
        assert_eq!(members[0].0, "b");
        assert_eq!(members[1].0, "a");
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(2));
    }

    #[test]
    fn floats_and_null_nan() {
        assert_eq!(Value::parse("1.5").unwrap().as_f64(), Some(1.5));
        assert_eq!(Value::parse("-2e3").unwrap().as_f64(), Some(-2000.0));
        assert!(Value::parse("null").unwrap().as_f64().unwrap().is_nan());
        // Floats are not exact integers.
        assert_eq!(Value::parse("1.5").unwrap().as_u64(), None);
        assert_eq!(Value::parse("-3").unwrap().as_u64(), None);
    }

    #[test]
    fn strings_unescape() {
        assert_eq!(
            Value::parse(r#""a\"b\\c\nd\u0041\/""#).unwrap().as_str(),
            Some("a\"b\\c\ndA/")
        );
        assert_eq!(
            Value::parse(r#""\ud83d\ude00""#).unwrap().as_str(),
            Some("😀")
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "{1:2}",
            "01",
            "-",
            "1.",
            "1e",
            "tru",
            "\"open",
            "\"a\\",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\u+041\"",
            "\x01",
            "\"\t\"",
            "[1] x",
            "{\"a\":1,}",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"\\ud800\\u0041\"",
            "nan",
        ] {
            assert!(Value::parse(bad).is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn round_trips_emitter_output() {
        // What the vendored serde emits for a nested struct shape.
        let text = r#"{"s":"x\"\n","n":42,"f":0.25,"z":null,"inner":{"b":true,"v":[1,2]}}"#;
        let v = Value::parse(text).unwrap();
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(42));
        assert_eq!(v.get("f").and_then(Value::as_f64), Some(0.25));
        assert_eq!(
            v.get("inner")
                .and_then(|i| i.get("b"))
                .and_then(Value::as_bool),
            Some(true)
        );
        assert_eq!(v.to_json(), text);
    }
}
