//! Ingestion converters: external formats → the uniform document model.
//!
//! Figure 1/2 of the paper: "the data infused into Impliance is mapped from
//! its initial format to a uniform data model". Each converter here is
//! total over well-formed inputs of its format and loses nothing — the
//! original content is always recoverable from the document tree.

use std::collections::BTreeMap;

use crate::document::{DocId, Document, SourceFormat};
use crate::error::DocError;
use crate::node::Node;
use crate::value::Value;

/// Column schema of a relational source table. Impliance does not require
/// schemas, but when rows are ingested *from* a relational system the
/// column names come along as field names (Figure 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationalSchema {
    /// Source table name; becomes the default collection.
    pub table: String,
    /// Column names, in declaration order.
    pub columns: Vec<String>,
}

impl RelationalSchema {
    /// Construct a schema from a table name and column names.
    pub fn new(table: impl Into<String>, columns: &[&str]) -> Self {
        RelationalSchema {
            table: table.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
        }
    }
}

/// Convert one relational row into a document. The row can "immediately be
/// queried by SQL and retrieved without change" (§3.2) because every column
/// becomes a top-level field.
pub fn relational_row_to_document(
    id: DocId,
    schema: &RelationalSchema,
    values: Vec<Value>,
    at: i64,
) -> Result<Document, DocError> {
    if values.len() != schema.columns.len() {
        return Err(DocError::Conversion(format!(
            "row arity {} does not match schema arity {} for table {}",
            values.len(),
            schema.columns.len(),
            schema.table
        )));
    }
    let mut map = BTreeMap::new();
    for (col, val) in schema.columns.iter().zip(values) {
        map.insert(col.clone(), Node::Value(val));
    }
    Ok(Document::new(
        id,
        SourceFormat::RelationalRow,
        schema.table.clone(),
        at,
        Node::Map(map),
    ))
}

/// Convert flat key-value pairs (properties files, sensor readings) into a
/// document. Values are type-sniffed: integers, floats, and booleans are
/// recognized; everything else stays a string.
pub fn kv_to_document(id: DocId, collection: &str, pairs: &[(&str, &str)], at: i64) -> Document {
    let mut map = BTreeMap::new();
    for (k, v) in pairs {
        map.insert(k.to_string(), Node::Value(sniff_scalar(v)));
    }
    Document::new(id, SourceFormat::KeyValue, collection, at, Node::Map(map))
}

/// Convert a plain text blob into a document with a single `body` field.
/// The "repository of last resort" case: even a bag of bytes with no
/// structure at all is first-class in the uniform model.
pub fn text_to_document(id: DocId, collection: &str, text: &str, at: i64) -> Document {
    let map = BTreeMap::from([(
        "body".to_string(),
        Node::Value(Value::Str(text.to_string())),
    )]);
    Document::new(id, SourceFormat::Text, collection, at, Node::Map(map))
}

/// Convert an RFC-2822-ish e-mail (headers, blank line, body) into a
/// document with `headers.*` fields and a `body` field. Header names are
/// lower-cased; repeated headers become sequences.
pub fn email_to_document(id: DocId, collection: &str, raw: &str, at: i64) -> Document {
    let mut headers: BTreeMap<String, Node> = BTreeMap::new();
    let mut body_start = raw.len();
    let mut last_key: Option<String> = None;
    let mut offset = 0usize;
    for line in raw.split_inclusive('\n') {
        let trimmed = line.trim_end_matches(['\n', '\r']);
        if trimmed.is_empty() {
            body_start = offset + line.len();
            break;
        }
        let folded = line.starts_with(' ') || line.starts_with('\t');
        if let (true, Some(key)) = (folded, last_key.as_deref()) {
            // folded continuation line: append to previous header value
            if let Some(Node::Value(Value::Str(prev))) = headers.get_mut(key) {
                prev.push(' ');
                prev.push_str(trimmed.trim_start());
            } else if let Some(Node::Seq(seq)) = headers.get_mut(key) {
                if let Some(Node::Value(Value::Str(prev))) = seq.last_mut() {
                    prev.push(' ');
                    prev.push_str(trimmed.trim_start());
                }
            }
        } else if let Some((name, value)) = trimmed.split_once(':') {
            let key = name.trim().to_ascii_lowercase();
            let val = Node::Value(Value::Str(value.trim().to_string()));
            match headers.remove(&key) {
                None => {
                    headers.insert(key.clone(), val);
                }
                Some(Node::Seq(mut seq)) => {
                    seq.push(val);
                    headers.insert(key.clone(), Node::Seq(seq));
                }
                Some(existing) => {
                    headers.insert(key.clone(), Node::Seq(vec![existing, val]));
                }
            }
            last_key = Some(key);
        }
        offset += line.len();
    }
    let body = raw[body_start.min(raw.len())..].to_string();
    let root = Node::map([
        ("headers".to_string(), Node::Map(headers)),
        ("body".to_string(), Node::Value(Value::Str(body))),
    ]);
    Document::new(id, SourceFormat::Email, collection, at, root)
}

/// Streaming CSV reader producing one document per record. Handles quoted
/// fields, embedded commas/newlines, and doubled-quote escapes. The first
/// record is the header row (field names).
#[derive(Debug)]
pub struct CsvReader<'a> {
    input: &'a str,
    pos: usize,
    header: Vec<String>,
}

impl<'a> CsvReader<'a> {
    /// Create a reader over a CSV text; consumes the header record
    /// immediately. Returns an error for an empty input.
    pub fn new(input: &'a str) -> Result<CsvReader<'a>, DocError> {
        let mut r = CsvReader {
            input,
            pos: 0,
            header: Vec::new(),
        };
        let header = r
            .next_record()
            .ok_or_else(|| DocError::Conversion("empty CSV input".to_string()))?;
        r.header = header;
        Ok(r)
    }

    /// The header fields.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// Read the next raw record, if any.
    fn next_record(&mut self) -> Option<Vec<String>> {
        if self.pos >= self.input.len() {
            return None;
        }
        let bytes = self.input.as_bytes();
        let mut fields = Vec::new();
        let mut field = String::new();
        let mut in_quotes = false;
        while self.pos < bytes.len() {
            let b = bytes[self.pos];
            if in_quotes {
                match b {
                    b'"' => {
                        if bytes.get(self.pos + 1) == Some(&b'"') {
                            field.push('"');
                            self.pos += 2;
                        } else {
                            in_quotes = false;
                            self.pos += 1;
                        }
                    }
                    _ => {
                        let len = super::json::char_len_at(self.input, self.pos);
                        field.push_str(&self.input[self.pos..self.pos + len]);
                        self.pos += len;
                    }
                }
            } else {
                match b {
                    b'"' if field.is_empty() => {
                        in_quotes = true;
                        self.pos += 1;
                    }
                    b',' => {
                        fields.push(std::mem::take(&mut field));
                        self.pos += 1;
                    }
                    b'\r' => {
                        self.pos += 1;
                    }
                    b'\n' => {
                        self.pos += 1;
                        fields.push(field);
                        return Some(fields);
                    }
                    _ => {
                        let len = super::json::char_len_at(self.input, self.pos);
                        field.push_str(&self.input[self.pos..self.pos + len]);
                        self.pos += len;
                    }
                }
            }
        }
        fields.push(field);
        Some(fields)
    }

    /// Read the next record as a document. Missing trailing fields become
    /// `Null`; extra fields are named `_extra<N>`.
    pub fn next_document(&mut self, id: DocId, collection: &str, at: i64) -> Option<Document> {
        let record = self.next_record()?;
        let mut map = BTreeMap::new();
        for (i, name) in self.header.iter().enumerate() {
            let val = record
                .get(i)
                .map(|s| sniff_scalar(s))
                .unwrap_or(Value::Null);
            map.insert(name.clone(), Node::Value(val));
        }
        for (i, extra) in record.iter().enumerate().skip(self.header.len()) {
            map.insert(format!("_extra{i}"), Node::Value(sniff_scalar(extra)));
        }
        Some(Document::new(
            id,
            SourceFormat::Csv,
            collection,
            at,
            Node::Map(map),
        ))
    }
}

/// Recognize integers, floats, and booleans in textual fields; otherwise
/// keep the string. Empty fields become `Null`.
pub fn sniff_scalar(s: &str) -> Value {
    let t = s.trim();
    if t.is_empty() {
        return Value::Null;
    }
    if t.eq_ignore_ascii_case("true") {
        return Value::Bool(true);
    }
    if t.eq_ignore_ascii_case("false") {
        return Value::Bool(false);
    }
    if let Ok(i) = t.parse::<i64>() {
        return Value::Int(i);
    }
    // Require a digit so strings like "." or "e" do not become floats, and
    // require typical float syntax so IDs like "1-2" stay strings.
    if t.bytes().any(|b| b.is_ascii_digit())
        && t.bytes()
            .all(|b| b.is_ascii_digit() || matches!(b, b'.' | b'-' | b'+' | b'e' | b'E'))
    {
        if let Ok(f) = t.parse::<f64>() {
            return Value::Float(f);
        }
    }
    Value::Str(s.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relational_row_maps_columns_to_fields() {
        let schema = RelationalSchema::new("customers", &["id", "name", "balance"]);
        let d = relational_row_to_document(
            DocId(1),
            &schema,
            vec![Value::Int(7), Value::Str("Ada".into()), Value::Float(12.5)],
            0,
        )
        .unwrap();
        assert_eq!(d.collection(), "customers");
        assert_eq!(d.format(), SourceFormat::RelationalRow);
        assert_eq!(
            d.get_str_path("name").unwrap().as_value().unwrap().as_str(),
            Some("Ada")
        );
        assert_eq!(
            d.get_str_path("id").unwrap().as_value().unwrap(),
            &Value::Int(7)
        );
    }

    #[test]
    fn relational_row_arity_mismatch_errors() {
        let schema = RelationalSchema::new("t", &["a", "b"]);
        let r = relational_row_to_document(DocId(1), &schema, vec![Value::Int(1)], 0);
        assert!(matches!(r, Err(DocError::Conversion(_))));
    }

    #[test]
    fn kv_sniffs_types() {
        let d = kv_to_document(
            DocId(2),
            "sensors",
            &[
                ("temp", "21.5"),
                ("count", "3"),
                ("ok", "true"),
                ("tag", "north"),
                ("gap", ""),
            ],
            0,
        );
        assert_eq!(
            d.get_str_path("temp").unwrap().as_value().unwrap(),
            &Value::Float(21.5)
        );
        assert_eq!(
            d.get_str_path("count").unwrap().as_value().unwrap(),
            &Value::Int(3)
        );
        assert_eq!(
            d.get_str_path("ok").unwrap().as_value().unwrap(),
            &Value::Bool(true)
        );
        assert_eq!(
            d.get_str_path("tag").unwrap().as_value().unwrap().as_str(),
            Some("north")
        );
        assert!(d.get_str_path("gap").unwrap().as_value().unwrap().is_null());
    }

    #[test]
    fn sniff_does_not_over_float() {
        assert_eq!(sniff_scalar("1-2"), Value::Str("1-2".into()));
        assert_eq!(sniff_scalar("."), Value::Str(".".into()));
        assert_eq!(sniff_scalar("A-1"), Value::Str("A-1".into()));
        assert_eq!(sniff_scalar("-4"), Value::Int(-4));
        assert_eq!(sniff_scalar("1e2"), Value::Float(100.0));
    }

    #[test]
    fn text_document_has_body() {
        let d = text_to_document(DocId(3), "notes", "hello world", 9);
        assert_eq!(d.full_text(), "hello world");
        assert_eq!(d.ingested_at(), 9);
    }

    #[test]
    fn email_parses_headers_and_body() {
        let raw = "From: ada@example.com\r\nTo: grace@example.com\r\nSubject: Meeting\r\n\
                   Received: relay1\r\nReceived: relay2\r\n\r\nLet's meet at noon.\nBring notes.";
        let d = email_to_document(DocId(4), "mail", raw, 0);
        assert_eq!(
            d.get_str_path("headers.subject")
                .unwrap()
                .as_value()
                .unwrap()
                .as_str(),
            Some("Meeting")
        );
        // repeated header became a sequence
        let received = d
            .get_str_path("headers.received")
            .unwrap()
            .as_seq()
            .unwrap();
        assert_eq!(received.len(), 2);
        let body = d
            .get_str_path("body")
            .unwrap()
            .as_value()
            .unwrap()
            .as_str()
            .unwrap();
        assert!(body.starts_with("Let's meet"));
    }

    #[test]
    fn email_folded_headers_unfold() {
        let raw = "Subject: a very\n  long subject\n\nbody";
        let d = email_to_document(DocId(5), "mail", raw, 0);
        assert_eq!(
            d.get_str_path("headers.subject")
                .unwrap()
                .as_value()
                .unwrap()
                .as_str(),
            Some("a very long subject")
        );
    }

    #[test]
    fn email_without_body_separator() {
        let raw = "From: x@y.z\nSubject: hi";
        let d = email_to_document(DocId(6), "mail", raw, 0);
        assert_eq!(
            d.get_str_path("headers.from")
                .unwrap()
                .as_value()
                .unwrap()
                .as_str(),
            Some("x@y.z")
        );
        assert_eq!(
            d.get_str_path("body").unwrap().as_value().unwrap().as_str(),
            Some("")
        );
    }

    #[test]
    fn csv_reads_documents_with_quoting() {
        let csv = "id,name,notes\n1,Ada,\"likes, commas\"\n2,\"Grace \"\"G\"\"\",plain\n";
        let mut r = CsvReader::new(csv).unwrap();
        assert_eq!(r.header(), &["id", "name", "notes"]);
        let d1 = r.next_document(DocId(1), "people", 0).unwrap();
        assert_eq!(
            d1.get_str_path("notes")
                .unwrap()
                .as_value()
                .unwrap()
                .as_str(),
            Some("likes, commas")
        );
        let d2 = r.next_document(DocId(2), "people", 0).unwrap();
        assert_eq!(
            d2.get_str_path("name")
                .unwrap()
                .as_value()
                .unwrap()
                .as_str(),
            Some("Grace \"G\"")
        );
        assert!(r.next_document(DocId(3), "people", 0).is_none());
    }

    #[test]
    fn csv_embedded_newline_in_quotes() {
        let csv = "a,b\n\"line1\nline2\",2\n";
        let mut r = CsvReader::new(csv).unwrap();
        let d = r.next_document(DocId(1), "c", 0).unwrap();
        assert_eq!(
            d.get_str_path("a").unwrap().as_value().unwrap().as_str(),
            Some("line1\nline2")
        );
        assert_eq!(
            d.get_str_path("b").unwrap().as_value().unwrap(),
            &Value::Int(2)
        );
    }

    #[test]
    fn csv_short_and_long_records() {
        let csv = "a,b\n1\n1,2,3\n";
        let mut r = CsvReader::new(csv).unwrap();
        let d1 = r.next_document(DocId(1), "c", 0).unwrap();
        assert!(d1.get_str_path("b").unwrap().as_value().unwrap().is_null());
        let d2 = r.next_document(DocId(2), "c", 0).unwrap();
        assert_eq!(
            d2.get_str_path("_extra2").unwrap().as_value().unwrap(),
            &Value::Int(3)
        );
    }

    #[test]
    fn csv_empty_input_errors() {
        assert!(CsvReader::new("").is_err());
    }

    #[test]
    fn csv_unicode_fields() {
        let csv = "name\nJosé\n";
        let mut r = CsvReader::new(csv).unwrap();
        let d = r.next_document(DocId(1), "c", 0).unwrap();
        assert_eq!(
            d.get_str_path("name").unwrap().as_value().unwrap().as_str(),
            Some("José")
        );
    }
}
