//! A dependency-free JSON value and its deterministic pretty-printer:
//! the serialization layer behind [`crate::Snapshot`]. serde is
//! unavailable offline, and a snapshot only needs to be written.

use std::collections::BTreeMap;

/// Minimal JSON value tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// null
    Null,
    /// true / false
    Bool(bool),
    /// Numbers (always written as f64; integral values print without `.0`).
    Num(f64),
    /// String
    Str(String),
    /// Array
    Arr(Vec<Json>),
    /// Object — BTreeMap so output is deterministic and diffs are stable.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Serialize with 2-space indentation (stable, diff-friendly).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        let pad_in = "  ".repeat(indent + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Json::Str(s) => write_json_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad_in);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in map.iter().enumerate() {
                    out.push_str(&pad_in);
                    write_json_string(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    if i + 1 < map.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push('}');
            }
        }
    }
}

fn write_json_string(out: &mut String, s: &str) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_escapes_and_orders_keys() {
        let mut obj = BTreeMap::new();
        obj.insert("b".to_string(), Json::Str("a \"q\"\n\u{1}".to_string()));
        obj.insert("a".to_string(), Json::Num(473.0));
        obj.insert(
            "c".to_string(),
            Json::Arr(vec![Json::Bool(true), Json::Null]),
        );
        obj.insert("d".to_string(), Json::Num(0.5));
        let text = Json::Obj(obj).pretty();
        assert_eq!(
            text,
            "{\n  \"a\": 473,\n  \"b\": \"a \\\"q\\\"\\n\\u0001\",\n  \"c\": [\n    true,\n    \
             null\n  ],\n  \"d\": 0.5\n}\n"
        );
    }
}
