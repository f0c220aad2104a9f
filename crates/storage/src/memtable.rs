//! The mutable write buffer in front of immutable segments.
//!
//! Newly ingested document versions land here; once the buffer reaches its
//! seal threshold the partition freezes it into an immutable
//! [`crate::segment::Segment`]. The memtable keeps *encoded* documents so
//! byte accounting is identical before and after sealing.

use impliance_docmodel::{DocId, Document, Version};

use crate::codec;
use crate::error::StorageError;

/// One buffered entry: a document version and its encoding.
#[derive(Debug, Clone)]
pub struct MemEntry {
    /// Document id.
    pub id: DocId,
    /// Version of this entry.
    pub version: Version,
    /// Encoded bytes (codec format).
    pub encoded: Vec<u8>,
}

/// An append-only in-memory buffer of encoded document versions.
#[derive(Debug, Default)]
pub struct Memtable {
    entries: Vec<MemEntry>,
    bytes: usize,
}

impl Memtable {
    /// Create an empty memtable.
    pub fn new() -> Memtable {
        Memtable::default()
    }

    /// Append a document version. Returns the index of the new entry.
    pub fn put(&mut self, doc: &Document) -> usize {
        let encoded = codec::encode_document_vec(doc);
        self.bytes += encoded.len();
        self.entries.push(MemEntry {
            id: doc.id(),
            version: doc.version(),
            encoded,
        });
        self.entries.len() - 1
    }

    /// Number of buffered entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total encoded bytes buffered.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Decode the entry at `idx`.
    pub fn get(&self, idx: usize) -> Result<Document, StorageError> {
        let entry = &self.entries[idx];
        let (doc, _) = codec::decode_document(&entry.encoded, 0)?;
        Ok(doc)
    }

    /// Iterate over entries (index, id, version, encoded length).
    pub fn iter_meta(&self) -> impl Iterator<Item = (usize, DocId, Version, usize)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, e)| (i, e.id, e.version, e.encoded.len()))
    }

    /// Drain all entries for sealing into a segment, leaving the memtable
    /// empty.
    pub fn drain(&mut self) -> Vec<MemEntry> {
        self.bytes = 0;
        std::mem::take(&mut self.entries)
    }

    /// Tombstone the entry at `idx`: drop its encoded bytes but KEEP the
    /// slot, so indices held by version chains and in-flight `ScanPos`
    /// cursors stay valid. Used by version GC for superseded
    /// versions no live snapshot can observe.
    pub fn tombstone(&mut self, idx: usize) {
        let entry = &mut self.entries[idx];
        self.bytes -= entry.encoded.len();
        entry.encoded = Vec::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impliance_docmodel::{DocumentBuilder, SourceFormat};

    fn doc(i: u64) -> Document {
        DocumentBuilder::new(DocId(i), SourceFormat::Json, "c")
            .field("x", i as i64)
            .build()
    }

    #[test]
    fn put_get_roundtrip() {
        let mut m = Memtable::new();
        let idx = m.put(&doc(1));
        assert_eq!(m.get(idx).unwrap(), doc(1));
        assert_eq!(m.len(), 1);
        assert!(m.bytes() > 0);
    }

    #[test]
    fn drain_empties() {
        let mut m = Memtable::new();
        m.put(&doc(1));
        m.put(&doc(2));
        let drained = m.drain();
        assert_eq!(drained.len(), 2);
        assert!(m.is_empty());
        assert_eq!(m.bytes(), 0);
    }

    #[test]
    fn iter_meta_reports_versions() {
        let mut m = Memtable::new();
        let d = doc(7);
        let d2 = d.new_version(d.root().clone(), 1);
        m.put(&d);
        m.put(&d2);
        let meta: Vec<_> = m.iter_meta().collect();
        assert_eq!(meta[0].2, Version(1));
        assert_eq!(meta[1].2, Version(2));
    }
}
