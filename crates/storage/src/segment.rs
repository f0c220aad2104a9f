//! Immutable on-"disk" segments.
//!
//! A segment is a sealed, optionally compressed block of encoded document
//! versions plus an offset table. Segments are write-once — the physical
//! realization of the paper's immutable versioning (§3.2/§4): "This
//! versioning obviates the need to update all replicas of a document
//! consistently and synchronously."

use std::collections::{BTreeSet, HashMap};

use bytes::Bytes;
use impliance_docmodel::{DocId, Document, Value, Version};

use crate::codec;
use crate::compress;
use crate::crypt;
use crate::error::StorageError;
use crate::memtable::MemEntry;

/// Distinct-string cap for a complete per-path dictionary in a zone map.
pub const ZONE_DICT_MAX: usize = 16;

/// Summary of the leaf values observed at one structural path across a
/// whole segment, used to skip the segment before decryption/decompression
/// when a pushed-down predicate provably matches nothing in it.
///
/// Counters are split by the `Value` total-order rank (null / bool /
/// numeric / string / bytes) because every comparison between different
/// ranks has a constant outcome — that constant is what makes conservative
/// pruning possible without inspecting values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PathZone {
    /// Leaves holding `Value::Null`.
    pub nulls: u64,
    /// Leaves holding `Value::Bool`.
    pub bools: u64,
    /// Leaves holding numeric-rank values (`Int`/`Float`/`Timestamp`).
    pub numerics: u64,
    /// Leaves holding `Value::Str`.
    pub strings: u64,
    /// Leaves holding `Value::Bytes`.
    pub bytes: u64,
    /// Minimum numeric value (under `f64::total_cmp`), when any exist.
    pub min: Option<f64>,
    /// Maximum numeric value (under `f64::total_cmp`), when any exist.
    pub max: Option<f64>,
    /// The complete sorted set of distinct strings at this path, present
    /// only when there are at most [`ZONE_DICT_MAX`] of them. `None`
    /// means "too many to enumerate" — string pruning is then disabled.
    pub dict: Option<Vec<String>>,
}

impl PathZone {
    fn observe(&mut self, v: &Value, dict: &mut Option<BTreeSet<String>>) {
        match v {
            Value::Null => self.nulls += 1,
            Value::Bool(_) => self.bools += 1,
            Value::Int(_) | Value::Float(_) | Value::Timestamp(_) => {
                self.numerics += 1;
                let f = v.as_f64().unwrap_or(f64::NAN);
                self.min = Some(match self.min {
                    Some(m) if m.total_cmp(&f).is_le() => m,
                    _ => f,
                });
                self.max = Some(match self.max {
                    Some(m) if m.total_cmp(&f).is_ge() => m,
                    _ => f,
                });
            }
            Value::Str(s) => {
                self.strings += 1;
                if let Some(set) = dict {
                    if set.len() < ZONE_DICT_MAX || set.contains(s) {
                        set.insert(s.clone());
                    } else {
                        *dict = None;
                    }
                }
            }
            Value::Bytes(_) => self.bytes += 1,
        }
    }
}

/// Per-segment zone map: one [`PathZone`] per structural path observed in
/// any stored document version. Built at seal time (the only moment the
/// plaintext is already in hand), so maintenance costs one extra decode
/// pass per seal and nothing per query.
#[derive(Debug, Clone, Default)]
pub struct ZoneMap {
    /// Structural path → value summary.
    pub paths: HashMap<String, PathZone>,
    /// Document versions summarized.
    pub docs: u64,
}

impl ZoneMap {
    fn build(entries: &[MemEntry]) -> Option<ZoneMap> {
        let mut zone = ZoneMap::default();
        let mut dicts: HashMap<String, Option<BTreeSet<String>>> = HashMap::new();
        for e in entries {
            // GC-tombstoned entries have no bytes and no readers (their
            // chain entries are gone); they contribute nothing to prune on.
            if e.encoded.is_empty() {
                continue;
            }
            // A decode failure disables pruning for the whole segment
            // rather than risking a wrong skip.
            let (doc, _) = codec::decode_document(&e.encoded, 0).ok()?;
            zone.docs += 1;
            for (path, value) in doc.leaves() {
                let key = path.structural_form();
                let pz = zone.paths.entry(key.clone()).or_default();
                let dict = dicts.entry(key).or_insert_with(|| Some(BTreeSet::new()));
                pz.observe(value, dict);
            }
        }
        for (key, dict) in dicts {
            if let Some(pz) = zone.paths.get_mut(&key) {
                pz.dict = dict.map(|set| set.into_iter().collect());
            }
        }
        Some(zone)
    }
}

/// Directory entry for one document version inside a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentEntry {
    /// Document id.
    pub id: DocId,
    /// Version stored.
    pub version: Version,
    /// Byte offset in the (uncompressed) data block.
    pub offset: u32,
    /// Encoded length in bytes.
    pub len: u32,
}

/// A sealed, immutable run of encoded documents.
#[derive(Debug, Clone)]
pub struct Segment {
    directory: Vec<SegmentEntry>,
    /// Stored data: compressed or raw depending on `compressed`, then
    /// optionally encrypted.
    data: Bytes,
    compressed: bool,
    /// Encryption key + per-segment nonce, when the block is encrypted.
    encryption: Option<(crypt::Key, u64)>,
    raw_len: usize,
    /// Value summaries for zone-based skipping; `None` when any entry
    /// failed to decode at seal time (pruning disabled, scans stay exact).
    zone_map: Option<ZoneMap>,
}

impl Segment {
    /// Seal a drained memtable into a segment. When `compress` is set the
    /// data block is LZ-compressed as a unit; when a key is given the
    /// (possibly compressed) block is encrypted with a fresh nonce.
    pub fn seal(entries: Vec<MemEntry>, compress_block: bool) -> Segment {
        Segment::seal_with(entries, compress_block, None, 0)
    }

    /// Seal with optional encryption (`nonce` must be unique per segment
    /// under one key; the partition uses its running segment count).
    pub fn seal_with(
        entries: Vec<MemEntry>,
        compress_block: bool,
        key: Option<crypt::Key>,
        nonce: u64,
    ) -> Segment {
        let zone_map = ZoneMap::build(&entries);
        let mut directory = Vec::with_capacity(entries.len());
        let mut data = Vec::new();
        for e in entries {
            directory.push(SegmentEntry {
                id: e.id,
                version: e.version,
                offset: data.len() as u32,
                len: e.encoded.len() as u32,
            });
            data.extend_from_slice(&e.encoded);
        }
        let raw_len = data.len();
        let mut stored = if compress_block {
            compress::lz_compress(&data)
        } else {
            data
        };
        let encryption = key.map(|k| {
            crypt::ctr_crypt(&k, nonce, &mut stored);
            (k, nonce)
        });
        Segment {
            directory,
            data: Bytes::from(stored),
            compressed: compress_block,
            encryption,
            raw_len,
            zone_map,
        }
    }

    /// The segment's zone map, when one could be built at seal time.
    pub fn zone_map(&self) -> Option<&ZoneMap> {
        self.zone_map.as_ref()
    }

    /// Number of document versions in the segment.
    pub fn len(&self) -> usize {
        self.directory.len()
    }

    /// True when the segment holds no documents.
    pub fn is_empty(&self) -> bool {
        self.directory.is_empty()
    }

    /// Bytes occupied by the stored (possibly compressed) data block.
    pub fn stored_bytes(&self) -> usize {
        self.data.len()
    }

    /// Bytes the data block occupies uncompressed.
    pub fn raw_bytes(&self) -> usize {
        self.raw_len
    }

    /// Whether the block is compressed.
    pub fn is_compressed(&self) -> bool {
        self.compressed
    }

    /// The directory of entries.
    pub fn directory(&self) -> &[SegmentEntry] {
        &self.directory
    }

    /// Fault injection for recovery tests: flip every stored byte, the way
    /// a torn or rotted disk write would, so reads of this segment fail
    /// with a typed [`StorageError`] from here on.
    pub fn corrupt_block(&mut self) {
        let flipped: Vec<u8> = self.data.iter().map(|b| !b).collect();
        self.data = Bytes::from(flipped);
    }

    /// Materialize the plaintext, uncompressed data block — the
    /// decrypt-then-decompress a real storage node performs on block read.
    pub fn load_block(&self) -> Result<Bytes, StorageError> {
        let mut stored = self.data.to_vec();
        if let Some((key, nonce)) = &self.encryption {
            crypt::ctr_crypt(key, *nonce, &mut stored);
        }
        if self.compressed {
            Ok(Bytes::from(compress::lz_decompress(&stored)?))
        } else {
            Ok(Bytes::from(stored))
        }
    }

    /// Decode the document at directory index `idx` (decompresses the block
    /// if needed).
    pub fn get(&self, idx: usize) -> Result<Document, StorageError> {
        let entry = self.directory[idx];
        let block = self.load_block()?;
        let start = entry.offset as usize;
        let end = start + entry.len as usize;
        let (doc, _) = codec::decode_document(&block[start..end], 0)?;
        Ok(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memtable::Memtable;
    use impliance_docmodel::{DocumentBuilder, SourceFormat};

    fn entries(n: u64) -> Vec<MemEntry> {
        let mut m = Memtable::new();
        for i in 0..n {
            let d = DocumentBuilder::new(DocId(i), SourceFormat::Json, "c")
                .field("x", i as i64)
                .field("pad", "some repeated text some repeated text")
                .build();
            m.put(&d);
        }
        m.drain()
    }

    #[test]
    fn seal_and_get_uncompressed() {
        let s = Segment::seal(entries(10), false);
        assert_eq!(s.len(), 10);
        assert!(!s.is_compressed());
        let d = s.get(3).unwrap();
        assert_eq!(d.id(), DocId(3));
    }

    #[test]
    fn seal_and_get_compressed() {
        let s = Segment::seal(entries(50), true);
        assert!(s.is_compressed());
        assert!(
            s.stored_bytes() < s.raw_bytes(),
            "compression should shrink repeated text"
        );
        for i in [0usize, 25, 49] {
            assert_eq!(s.get(i).unwrap().id(), DocId(i as u64));
        }
    }

    #[test]
    fn directory_keeps_append_order() {
        let s = Segment::seal(entries(20), true);
        let seen: Vec<u64> = (0..s.len()).map(|i| s.get(i).unwrap().id().0).collect();
        assert_eq!(seen, (0..20).collect::<Vec<_>>());
        assert!(s.directory().iter().all(|e| e.len > 0));
    }

    #[test]
    fn zone_map_summarizes_paths() {
        let s = Segment::seal(entries(10), true);
        let z = s.zone_map().expect("zone map");
        assert_eq!(z.docs, 10);
        let x = &z.paths["x"];
        assert_eq!(x.numerics, 10);
        assert_eq!(x.min, Some(0.0));
        assert_eq!(x.max, Some(9.0));
        assert_eq!(x.strings, 0);
        let pad = &z.paths["pad"];
        assert_eq!(pad.strings, 10);
        let dict = pad.dict.as_ref().expect("small dict stays complete");
        assert_eq!(dict.len(), 1);
    }

    #[test]
    fn zone_dict_gives_up_past_cap() {
        let mut m = Memtable::new();
        for i in 0..(ZONE_DICT_MAX as u64 + 5) {
            let d = DocumentBuilder::new(DocId(i), SourceFormat::Json, "c")
                .field("tag", format!("tag-{i}"))
                .build();
            m.put(&d);
        }
        let s = Segment::seal(m.drain(), false);
        let z = s.zone_map().expect("zone map");
        assert!(z.paths["tag"].dict.is_none());
        assert_eq!(z.paths["tag"].strings, ZONE_DICT_MAX as u64 + 5);
    }

    #[test]
    fn empty_segment() {
        let s = Segment::seal(Vec::new(), true);
        assert!(s.is_empty());
        assert_eq!(s.raw_bytes(), 0);
        assert!(s.load_block().unwrap().is_empty());
    }
}
