//! From-scratch JSON parser and emitter for the uniform model.
//!
//! The appliance ingests JSON as one of its native formats (§3.2). Parsing
//! maps JSON objects to [`Node::Map`], arrays to [`Node::Seq`], and scalars
//! to [`Value`]s; integers that fit `i64` become `Value::Int`, other
//! numbers become `Value::Float`. The emitter produces deterministic output
//! (map keys are already sorted by `BTreeMap`), which tests and the codec
//! round-trip checks rely on.

use crate::error::DocError;
use crate::node::Node;
use crate::value::Value;

/// Parse a JSON text into a document tree.
pub fn parse(input: &str) -> Result<Node, DocError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let node = p.parse_node()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(node)
}

/// Serialize a document tree to compact JSON. `Bytes` leaves are emitted as
/// hex strings prefixed with `0x`; `Timestamp` leaves as `@<millis>`
/// strings, so the output is always valid JSON.
pub fn emit(node: &Node) -> String {
    let mut out = String::new();
    emit_node(node, &mut out);
    out
}

/// Serialize with two-space indentation, for human-facing output.
pub fn emit_pretty(node: &Node) -> String {
    let mut out = String::new();
    emit_node_pretty(node, &mut out, 0);
    out
}

fn emit_node(node: &Node, out: &mut String) {
    match node {
        Node::Value(v) => emit_value(v, out),
        Node::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                emit_node(item, out);
            }
            out.push(']');
        }
        Node::Map(m) => {
            out.push('{');
            for (i, (k, v)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                emit_string(k, out);
                out.push(':');
                emit_node(v, out);
            }
            out.push('}');
        }
    }
}

fn emit_node_pretty(node: &Node, out: &mut String, indent: usize) {
    let pad = |out: &mut String, n: usize| {
        for _ in 0..n {
            out.push_str("  ");
        }
    };
    match node {
        Node::Value(v) => emit_value(v, out),
        Node::Seq(items) if items.is_empty() => out.push_str("[]"),
        Node::Seq(items) => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                pad(out, indent + 1);
                emit_node_pretty(item, out, indent + 1);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            pad(out, indent);
            out.push(']');
        }
        Node::Map(m) if m.is_empty() => out.push_str("{}"),
        Node::Map(m) => {
            out.push_str("{\n");
            for (i, (k, v)) in m.iter().enumerate() {
                pad(out, indent + 1);
                emit_string(k, out);
                out.push_str(": ");
                emit_node_pretty(v, out, indent + 1);
                if i + 1 < m.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            pad(out, indent);
            out.push('}');
        }
    }
}

fn emit_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                // Ensure floats stay floats on re-parse.
                if f.fract() == 0.0 && f.abs() < 1e15 {
                    out.push_str(&format!("{:.1}", f));
                } else {
                    out.push_str(&format!("{f}"));
                }
            } else {
                out.push_str("null"); // JSON has no NaN/Inf
            }
        }
        Value::Str(s) => emit_string(s, out),
        Value::Bytes(b) => {
            out.push_str("\"0x");
            for byte in b {
                out.push_str(&format!("{byte:02x}"));
            }
            out.push('"');
        }
        Value::Timestamp(t) => {
            out.push_str(&format!("\"@{t}\""));
        }
    }
}

fn emit_string(s: &str, out: &mut String) {
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
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> DocError {
        DocError::Parse {
            offset: self.pos,
            message: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), DocError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn parse_node(&mut self) -> Result<Node, DocError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => {
                let s = self.parse_string()?;
                Ok(Node::Value(decode_special_string(s)))
            }
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, kw: &str, value: Value) -> Result<Node, DocError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(Node::Value(value))
        } else {
            Err(self.err(&format!("expected '{kw}'")))
        }
    }

    fn parse_object(&mut self) -> Result<Node, DocError> {
        self.expect(b'{')?;
        let mut map = std::collections::BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Node::Map(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_node()?;
            map.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Node::Map(map)),
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Node, DocError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Node::Seq(items));
        }
        loop {
            let item = self.parse_node()?;
            items.push(item);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Node::Seq(items)),
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, DocError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'u') => {
                        let cp = self.parse_hex4()?;
                        if (0xD800..0xDC00).contains(&cp) {
                            // high surrogate: expect \uXXXX low surrogate
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("expected low surrogate"));
                            }
                            let lo = self.parse_hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                            out.push(
                                char::from_u32(c).ok_or_else(|| self.err("invalid code point"))?,
                            );
                        } else {
                            out.push(
                                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?,
                            );
                        }
                    }
                    _ => return Err(self.err("invalid escape")),
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // multi-byte UTF-8: copy raw bytes of the char
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    if start + len > self.bytes.len() {
                        return Err(self.err("truncated UTF-8 sequence"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..start + len])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos = start + len;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, DocError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Node, DocError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        // only ASCII was consumed above, so the slice is always UTF-8
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or_default();
        if text.is_empty() || text == "-" {
            return Err(self.err("invalid number"));
        }
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Node::Value(Value::Int(i)));
            }
        }
        text.parse::<f64>()
            .map(|f| Node::Value(Value::Float(f)))
            .map_err(|_| self.err("invalid number"))
    }
}

/// Strings emitted by [`emit`] for bytes/timestamps are decoded back on
/// parse so emit→parse round-trips preserve types.
fn decode_special_string(s: String) -> Value {
    if let Some(rest) = s.strip_prefix("@") {
        if let Ok(t) = rest.parse::<i64>() {
            return Value::Timestamp(t);
        }
    }
    if let Some(hex) = s.strip_prefix("0x") {
        // the empty hex string decodes to empty bytes so emit→parse
        // round-trips `Bytes(vec![])`
        if hex.len() % 2 == 0 && hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            let bytes = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16));
            if let Ok(bytes) = bytes.collect() {
                return Value::Bytes(bytes);
            }
        }
    }
    Value::Str(s)
}

/// Byte length of the UTF-8 character starting at `pos` in `s`. Used by the
/// CSV reader to copy whole characters while scanning bytes.
pub(crate) fn char_len_at(s: &str, pos: usize) -> usize {
    utf8_len(s.as_bytes()[pos])
}

fn utf8_len(first: u8) -> usize {
    match first {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        0xF0..=0xF7 => 4,
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::Path;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("42").unwrap(), Node::Value(Value::Int(42)));
        assert_eq!(parse("-7").unwrap(), Node::Value(Value::Int(-7)));
        assert_eq!(parse("2.5").unwrap(), Node::Value(Value::Float(2.5)));
        assert_eq!(parse("1e3").unwrap(), Node::Value(Value::Float(1000.0)));
        assert_eq!(parse("true").unwrap(), Node::Value(Value::Bool(true)));
        assert_eq!(parse("null").unwrap(), Node::Value(Value::Null));
        assert_eq!(
            parse("\"hi\"").unwrap(),
            Node::Value(Value::Str("hi".into()))
        );
    }

    #[test]
    fn parses_nested_structures() {
        let n = parse(r#"{"a": [1, {"b": "x"}], "c": null}"#).unwrap();
        assert_eq!(
            n.get(&Path::parse("a[0]")).unwrap().as_value().unwrap(),
            &Value::Int(1)
        );
        assert_eq!(
            n.get(&Path::parse("a[1].b"))
                .unwrap()
                .as_value()
                .unwrap()
                .as_str(),
            Some("x")
        );
        assert!(n
            .get(&Path::parse("c"))
            .unwrap()
            .as_value()
            .unwrap()
            .is_null());
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let n = parse(r#""a\nb\t\"q\" é 😀""#).unwrap();
        assert_eq!(n.as_value().unwrap().as_str(), Some("a\nb\t\"q\" é 😀"));
    }

    #[test]
    fn parses_raw_utf8() {
        let n = parse("\"héllo wörld\"").unwrap();
        assert_eq!(n.as_value().unwrap().as_str(), Some("héllo wörld"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "\"abc",
            "01x",
            "",
            "[1] extra",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn error_carries_offset() {
        match parse("[1, @]") {
            Err(DocError::Parse { offset, .. }) => assert_eq!(offset, 4),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn emit_parse_roundtrip() {
        let cases = [
            r#"{"a":[1,2.5,"x"],"b":{"c":true,"d":null}}"#,
            r#"[]"#,
            r#"{}"#,
            r#"{"k":"v"}"#,
        ];
        for c in cases {
            let n = parse(c).unwrap();
            assert_eq!(emit(&n), c, "roundtrip {c}");
        }
    }

    #[test]
    fn emit_preserves_bytes_and_timestamps() {
        let n = Node::map([
            ("b".to_string(), Node::Value(Value::Bytes(vec![0xde, 0xad]))),
            ("t".to_string(), Node::Value(Value::Timestamp(1234))),
        ]);
        let text = emit(&n);
        assert_eq!(text, r#"{"b":"0xdead","t":"@1234"}"#);
        let back = parse(&text).unwrap();
        assert_eq!(back, n);
    }

    #[test]
    fn floats_stay_floats_across_roundtrip() {
        let n = Node::Value(Value::Float(3.0));
        let back = parse(&emit(&n)).unwrap();
        assert_eq!(back, n);
    }

    #[test]
    fn big_integers_fall_back_to_float() {
        let n = parse("99999999999999999999").unwrap();
        assert!(matches!(n, Node::Value(Value::Float(_))));
    }

    #[test]
    fn pretty_emit_is_reparseable() {
        let n = parse(r#"{"a":[1,{"b":2}],"c":[]}"#).unwrap();
        let pretty = emit_pretty(&n);
        assert!(pretty.contains('\n'));
        assert_eq!(parse(&pretty).unwrap(), n);
    }

    #[test]
    fn control_chars_are_escaped() {
        let n = Node::Value(Value::Str("\u{0001}".into()));
        assert_eq!(emit(&n), "\"\\u0001\"");
        assert_eq!(parse(&emit(&n)).unwrap(), n);
    }
}
