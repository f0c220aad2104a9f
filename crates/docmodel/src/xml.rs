//! A small XML reader mapping markup into the uniform model.
//!
//! §1 lists XML among the types "that do not adhere to predefined
//! schemas"; §3.2 notes databases only recently began treating XML as a
//! native type. Impliance maps XML into the same tree every other format
//! uses:
//!
//! * an element becomes a map; attributes become `@name` fields;
//! * repeated child elements become a sequence under the shared name;
//! * text content becomes a `#text` field (type-sniffed), or the element
//!   collapses to a scalar when text is all it has.
//!
//! The reader handles declarations, comments, CDATA, entity references,
//! and self-closing tags. It is non-validating (schema-free ingestion is
//! the point) but rejects malformed nesting.

use std::collections::BTreeMap;

use crate::convert::sniff_scalar;
use crate::error::DocError;
use crate::node::Node;
use crate::value::Value;

/// Parse an XML text into a document tree rooted at the document element.
pub fn parse(input: &str) -> Result<Node, DocError> {
    let mut p = XmlParser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_misc()?;
    let (name, node) = p.parse_element()?;
    p.skip_misc()?;
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after document element"));
    }
    Ok(Node::map([(name, node)]))
}

struct XmlParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> XmlParser<'a> {
    fn err(&self, msg: &str) -> DocError {
        DocError::Parse {
            offset: self.pos,
            message: format!("xml: {msg}"),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skip whitespace, XML declarations, processing instructions,
    /// comments, and DOCTYPE.
    fn skip_misc(&mut self) -> Result<(), DocError> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                self.consume_until("?>")?;
            } else if self.starts_with("<!--") {
                self.consume_until("-->")?;
            } else if self.starts_with("<!DOCTYPE") {
                self.consume_until(">")?;
            } else {
                return Ok(());
            }
        }
    }

    fn consume_until(&mut self, end: &str) -> Result<(), DocError> {
        match self.bytes[self.pos..]
            .windows(end.len())
            .position(|w| w == end.as_bytes())
        {
            Some(i) => {
                self.pos += i + end.len();
                Ok(())
            }
            None => Err(self.err(&format!("unterminated construct (missing {end})"))),
        }
    }

    fn parse_name(&mut self) -> Result<String, DocError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b':' | b'.') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected name"));
        }
        Ok(std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8 in name"))?
            .to_string())
    }

    fn parse_element(&mut self) -> Result<(String, Node), DocError> {
        if self.peek() != Some(b'<') {
            return Err(self.err("expected '<'"));
        }
        self.pos += 1;
        let name = self.parse_name()?;
        let mut fields: BTreeMap<String, Node> = BTreeMap::new();
        // attributes
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() != Some(b'>') {
                        return Err(self.err("expected '>' after '/'"));
                    }
                    self.pos += 1;
                    return Ok((name, finalize(fields)));
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let attr = self.parse_name()?;
                    self.skip_ws();
                    if self.peek() != Some(b'=') {
                        return Err(self.err("expected '=' in attribute"));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    let Some(quote @ (b'"' | b'\'')) = self.peek() else {
                        return Err(self.err("expected quoted attribute value"));
                    };
                    self.pos += 1;
                    let start = self.pos;
                    while self.peek() != Some(quote) {
                        if self.peek().is_none() {
                            return Err(self.err("unterminated attribute value"));
                        }
                        self.pos += 1;
                    }
                    let raw = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8 in attribute"))?;
                    self.pos += 1;
                    fields.insert(
                        format!("@{attr}"),
                        Node::Value(sniff_scalar(&decode_entities(raw))),
                    );
                }
                None => return Err(self.err("unterminated start tag")),
            }
        }
        // content: children and text
        let mut text = String::new();
        loop {
            if self.starts_with("</") {
                self.pos += 2;
                let close = self.parse_name()?;
                if close != name {
                    return Err(self.err(&format!("mismatched close tag {close} for {name}")));
                }
                self.skip_ws();
                if self.peek() != Some(b'>') {
                    return Err(self.err("expected '>' in close tag"));
                }
                self.pos += 1;
                let trimmed = text.trim();
                if !trimmed.is_empty() {
                    fields.insert("#text".to_string(), Node::Value(sniff_scalar(trimmed)));
                }
                return Ok((name, finalize(fields)));
            } else if self.starts_with("<![CDATA[") {
                self.pos += 9;
                let start = self.pos;
                self.consume_until("]]>")?;
                text.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos - 3])
                        .map_err(|_| self.err("invalid utf-8 in CDATA"))?,
                );
            } else if self.starts_with("<!--") {
                self.consume_until("-->")?;
            } else if self.peek() == Some(b'<') {
                let (child_name, child) = self.parse_element()?;
                insert_child(&mut fields, child_name, child);
            } else if self.peek().is_none() {
                return Err(self.err(&format!("unterminated element {name}")));
            } else {
                let start = self.pos;
                while !matches!(self.peek(), Some(b'<') | None) {
                    self.pos += 1;
                }
                let raw = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8 in text"))?;
                text.push_str(&decode_entities(raw));
            }
        }
    }
}

/// Repeated child names become sequences.
fn insert_child(fields: &mut BTreeMap<String, Node>, name: String, child: Node) {
    match fields.remove(&name) {
        None => {
            fields.insert(name, child);
        }
        Some(Node::Seq(mut seq)) => {
            seq.push(child);
            fields.insert(name, Node::Seq(seq));
        }
        Some(existing) => {
            fields.insert(name, Node::Seq(vec![existing, child]));
        }
    }
}

/// An element with only text collapses to its scalar; otherwise a map.
fn finalize(fields: BTreeMap<String, Node>) -> Node {
    if fields.len() == 1 {
        if let Some(Node::Value(v)) = fields.get("#text") {
            return Node::Value(v.clone());
        }
    }
    if fields.is_empty() {
        return Node::Value(Value::Null);
    }
    Node::Map(fields)
}

fn decode_entities(s: &str) -> String {
    s.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", "\"")
        .replace("&apos;", "'")
        .replace("&amp;", "&")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_element_with_text() {
        let n = parse("<note>hello world</note>").unwrap();
        assert_eq!(
            n.get_str_path("note").unwrap().as_value().unwrap().as_str(),
            Some("hello world")
        );
    }

    #[test]
    fn nested_structure_and_attributes() {
        let n = parse(
            r#"<claim id="42" open="true">
                 <vehicle make="Volvo"><year>2004</year></vehicle>
                 <amount>1500</amount>
               </claim>"#,
        )
        .unwrap();
        assert_eq!(
            n.get_str_path("claim.@id").unwrap().as_value().unwrap(),
            &Value::Int(42)
        );
        assert_eq!(
            n.get_str_path("claim.@open").unwrap().as_value().unwrap(),
            &Value::Bool(true)
        );
        assert_eq!(
            n.get_str_path("claim.vehicle.@make")
                .unwrap()
                .as_value()
                .unwrap()
                .as_str(),
            Some("Volvo")
        );
        assert_eq!(
            n.get_str_path("claim.vehicle.year")
                .unwrap()
                .as_value()
                .unwrap(),
            &Value::Int(2004)
        );
        assert_eq!(
            n.get_str_path("claim.amount").unwrap().as_value().unwrap(),
            &Value::Int(1500)
        );
    }

    #[test]
    fn repeated_children_become_sequences() {
        let n = parse("<order><item>a</item><item>b</item><item>c</item></order>").unwrap();
        let items = n.get_str_path("order.item").unwrap().as_seq().unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(items[1].as_value().unwrap().as_str(), Some("b"));
    }

    #[test]
    fn mixed_text_and_children() {
        let n = parse("<p>before <b>bold</b> after</p>").unwrap();
        assert_eq!(
            n.get_str_path("p.b").unwrap().as_value().unwrap().as_str(),
            Some("bold")
        );
        let text = n
            .get_str_path("p.#text")
            .unwrap()
            .as_value()
            .unwrap()
            .as_str()
            .unwrap();
        assert!(text.contains("before"));
        assert!(text.contains("after"));
    }

    #[test]
    fn declarations_comments_cdata_entities() {
        let n = parse(
            "<?xml version=\"1.0\"?><!-- header --><doc><raw><![CDATA[5 < 6 & 7 > 2]]></raw>\
             <esc>a &amp; b &lt;tag&gt;</esc></doc>",
        )
        .unwrap();
        assert_eq!(
            n.get_str_path("doc.raw")
                .unwrap()
                .as_value()
                .unwrap()
                .as_str(),
            Some("5 < 6 & 7 > 2")
        );
        assert_eq!(
            n.get_str_path("doc.esc")
                .unwrap()
                .as_value()
                .unwrap()
                .as_str(),
            Some("a & b <tag>")
        );
    }

    #[test]
    fn self_closing_and_empty_elements() {
        let n = parse("<doc><gap/><empty></empty></doc>").unwrap();
        assert!(n
            .get_str_path("doc.gap")
            .unwrap()
            .as_value()
            .unwrap()
            .is_null());
        assert!(n
            .get_str_path("doc.empty")
            .unwrap()
            .as_value()
            .unwrap()
            .is_null());
    }

    #[test]
    fn malformed_inputs_error() {
        for bad in [
            "<a><b></a></b>",
            "<a>",
            "no tags here",
            "<a attr></a>",
            "<a>x</a><b>y</b>",
            "<a><![CDATA[open</a>",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn full_text_flows_through() {
        let n =
            parse("<memo><to>Ada</to><body>please review the Acme contract</body></memo>").unwrap();
        let text = n.full_text();
        assert!(text.contains("Ada"));
        assert!(text.contains("Acme contract"));
    }
}
