//! The one format → document mapping.
//!
//! The single-box appliance ([`crate::Impliance`]) and the scaled-out
//! cluster instance ([`crate::ClusterImpliance`]) accept the same
//! [`Input`]s; the only thing that differs between them is *where* the
//! resulting document is stored. [`Input::store`] is the one copy of the
//! mapping, so the two front doors cannot drift.

use impliance_docmodel::{
    convert::sniff_scalar, email_to_document, json, kv_to_document, relational_row_to_document,
    text_to_document, xml, CsvReader, DocId, Document, Node, Path, RelationalSchema, SourceFormat,
    Value,
};

use crate::error::Error;

/// Data of any format, ingested without preparation (§3.2's "stewing
/// pot"). Every variant names its collection first, except `Row`, whose
/// collection is its schema's table.
#[derive(Debug, Clone)]
pub enum Input<'a> {
    /// A JSON document: `(collection, text)`.
    Json(&'a str, &'a str),
    /// Plain text: `(collection, text)`.
    Text(&'a str, &'a str),
    /// A raw e-mail message: `(collection, raw)`.
    Email(&'a str, &'a str),
    /// An XML document: `(collection, text)`.
    Xml(&'a str, &'a str),
    /// Opaque content (audio, video, PDFs) stored unchanged beside
    /// descriptive fields: `(collection, bytes, metadata)`. The
    /// "repository of last resort" never rejects anything.
    Binary(&'a str, &'a [u8], &'a [(&'a str, &'a str)]),
    /// Key-value pairs: `(collection, pairs)`.
    Kv(&'a str, &'a [(&'a str, &'a str)]),
    /// One relational row (Figure 2's walk-through): `(schema, values)`.
    Row(&'a RelationalSchema, Vec<Value>),
    /// A whole CSV text, one document per record: `(collection, text)`.
    Csv(&'a str, &'a str),
}

impl Input<'_> {
    /// Map the input onto documents, each stamped with an id and a
    /// timestamp from `stamp`, and hand each to `store` as soon as it is
    /// built. Returns the stored ids in input order.
    pub(crate) fn store(
        self,
        stamp: impl Fn() -> (DocId, i64),
        mut store: impl FnMut(Document) -> Result<DocId, Error>,
    ) -> Result<Vec<DocId>, Error> {
        let (mut id, mut at) = stamp();
        let doc = match self {
            Input::Json(c, text) => {
                Document::new(id, SourceFormat::Json, c, at, json::parse(text)?)
            }
            Input::Text(c, text) => text_to_document(id, c, text, at),
            Input::Email(c, raw) => email_to_document(id, c, raw, at),
            Input::Xml(c, text) => Document::new(id, SourceFormat::Xml, c, at, xml::parse(text)?),
            Input::Binary(c, bytes, metadata) => {
                let content = Node::Value(Value::Bytes(bytes.to_vec()));
                let mut root = Node::map([("content".to_string(), content)]);
                for (k, v) in metadata {
                    root.set(&Path::parse(k), Node::Value(sniff_scalar(v)));
                }
                Document::new(id, SourceFormat::Binary, c, at, root)
            }
            Input::Kv(c, pairs) => kv_to_document(id, c, pairs, at),
            Input::Row(schema, values) => relational_row_to_document(id, schema, values, at)?,
            Input::Csv(c, text) => {
                let mut reader = CsvReader::new(text)?;
                let mut ids = Vec::new();
                while let Some(doc) = reader.next_document(id, c, at) {
                    ids.push(store(doc)?);
                    (id, at) = stamp();
                }
                return Ok(ids);
            }
        };
        Ok(vec![store(doc)?])
    }
}
