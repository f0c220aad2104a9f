//! Block compression implemented inside the storage node.
//!
//! §3.1: "the push-down logic is implemented in the software component of a
//! storage unit, and thus can be deployed on any type of commodity
//! hardware" — compression is the paper's first example of such logic.
//!
//! Two schemes are provided:
//!
//! * [`lz_compress`]/[`lz_decompress`] — a greedy LZ77-style byte
//!   compressor with a 64 KiB window and a 4-byte hash chain, similar in
//!   spirit to LZ4. Used for segment blocks.
//! * [`rle_compress`]/[`rle_decompress`] — run-length encoding for data
//!   dominated by long byte runs. No stored format uses it yet.
//!
//! Every compressed block carries its uncompressed length and a checksum so
//! corruption is detected rather than propagated.

use crate::error::StorageError;

const MIN_MATCH: usize = 4;
const WINDOW: usize = 1 << 16;
const HASH_BITS: u32 = 15;

fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// FNV-1a checksum over a byte slice; cheap and adequate for detecting
/// block corruption in tests and experiments.
pub fn checksum(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x01000193);
    }
    h
}

fn write_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn read_u32(buf: &[u8], pos: usize) -> Result<u32, StorageError> {
    buf.get(pos..pos + 4)
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .ok_or_else(|| StorageError::BadBlock("truncated header".into()))
}

/// Compress `input` with the LZ77-style scheme. Output layout:
/// `[raw_len u32][checksum u32][token stream]`. A token is a control byte:
/// high bit 0 → literal run (`len = ctrl+1` bytes follow); high bit 1 →
/// match (`len = (ctrl & 0x7f) + MIN_MATCH`, followed by a 2-byte LE
/// distance).
pub fn lz_compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    write_u32(&mut out, input.len() as u32);
    write_u32(&mut out, checksum(input));

    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut i = 0usize;
    let mut lit_start = 0usize;

    let flush_literals = |out: &mut Vec<u8>, lits: &[u8]| {
        let mut rest = lits;
        while !rest.is_empty() {
            let take = rest.len().min(128);
            out.push((take - 1) as u8);
            out.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
        }
    };

    while i + MIN_MATCH <= input.len() {
        let h = hash4(&input[i..]);
        let candidate = head[h];
        head[h] = i;
        let mut match_len = 0usize;
        if candidate != usize::MAX && i - candidate < WINDOW {
            let max = (input.len() - i).min(127 + MIN_MATCH);
            while match_len < max && input[candidate + match_len] == input[i + match_len] {
                match_len += 1;
            }
        }
        if match_len >= MIN_MATCH {
            flush_literals(&mut out, &input[lit_start..i]);
            let dist = (i - candidate) as u16;
            out.push(0x80 | (match_len - MIN_MATCH) as u8);
            out.extend_from_slice(&dist.to_le_bytes());
            // Index a few positions inside the match so later matches can
            // still be found, then skip past it.
            let end = i + match_len;
            let mut j = i + 1;
            while j + MIN_MATCH <= input.len() && j < end {
                head[hash4(&input[j..])] = j;
                j += 1;
            }
            i = end;
            lit_start = i;
        } else {
            i += 1;
        }
    }
    flush_literals(&mut out, &input[lit_start..]);
    out
}

/// The most output one byte of token stream can expand to: a 3-byte
/// match token emits at most `127 + MIN_MATCH` = 131 bytes.
const MAX_EXPANSION: usize = 44;

/// Decompress an [`lz_compress`] block, verifying length and checksum.
/// The header's length is untrusted: a claim no token stream of this size
/// could reach is rejected before anything is reserved, and decoding
/// stops as soon as the output passes it.
pub fn lz_decompress(block: &[u8]) -> Result<Vec<u8>, StorageError> {
    let raw_len = read_u32(block, 0)? as usize;
    let sum = read_u32(block, 4)?;
    if raw_len > block.len().saturating_mul(MAX_EXPANSION) {
        let len = block.len();
        return Err(StorageError::BadBlock(format!(
            "header claims {raw_len} bytes from a {len}-byte block"
        )));
    }
    let mut out = Vec::with_capacity(raw_len);
    let mut pos = 8usize;
    while pos < block.len() {
        let ctrl = block[pos];
        pos += 1;
        if ctrl & 0x80 == 0 {
            let len = ctrl as usize + 1;
            let lits = block
                .get(pos..pos + len)
                .ok_or_else(|| StorageError::BadBlock("truncated literals".into()))?;
            out.extend_from_slice(lits);
            pos += len;
        } else {
            let len = (ctrl & 0x7f) as usize + MIN_MATCH;
            let dist_bytes = block
                .get(pos..pos + 2)
                .ok_or_else(|| StorageError::BadBlock("truncated match".into()))?;
            let dist = u16::from_le_bytes([dist_bytes[0], dist_bytes[1]]) as usize;
            pos += 2;
            if dist == 0 || dist > out.len() {
                return Err(StorageError::BadBlock("bad match distance".into()));
            }
            let start = out.len() - dist;
            // Overlapping copies are legal (repeating patterns).
            for k in 0..len {
                let b = out[start + k];
                out.push(b);
            }
        }
        if out.len() > raw_len {
            return Err(StorageError::BadBlock(format!(
                "tokens overrun the {raw_len}-byte header"
            )));
        }
    }
    if out.len() != raw_len {
        return Err(StorageError::BadBlock(format!(
            "length mismatch: expected {raw_len}, got {}",
            out.len()
        )));
    }
    if checksum(&out) != sum {
        return Err(StorageError::BadBlock("checksum mismatch".into()));
    }
    Ok(out)
}

/// Run-length encode: `[raw_len u32][(count u8, byte)*]`.
pub fn rle_compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    write_u32(&mut out, input.len() as u32);
    let mut i = 0;
    while i < input.len() {
        let b = input[i];
        let mut run = 1usize;
        while i + run < input.len() && input[i + run] == b && run < 255 {
            run += 1;
        }
        out.push(run as u8);
        out.push(b);
        i += run;
    }
    out
}

/// Decode an [`rle_compress`] block.
pub fn rle_decompress(block: &[u8]) -> Result<Vec<u8>, StorageError> {
    let raw_len = read_u32(block, 0)? as usize;
    let mut out = Vec::with_capacity(raw_len);
    let mut pos = 4;
    while pos + 1 < block.len() + 1 && pos < block.len() {
        let count = block[pos] as usize;
        let byte = *block
            .get(pos + 1)
            .ok_or_else(|| StorageError::BadBlock("truncated RLE pair".into()))?;
        out.extend(std::iter::repeat_n(byte, count));
        pos += 2;
    }
    if out.len() != raw_len {
        return Err(StorageError::BadBlock("RLE length mismatch".into()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lz_roundtrip_basic() {
        let cases: Vec<Vec<u8>> = vec![
            b"".to_vec(),
            b"a".to_vec(),
            b"abcabcabcabcabcabc".to_vec(),
            b"the quick brown fox jumps over the lazy dog the quick brown fox".to_vec(),
            vec![0u8; 10_000],
            (0..=255u8).cycle().take(5000).collect(),
        ];
        for c in cases {
            let z = lz_compress(&c);
            let back = lz_decompress(&z).unwrap();
            assert_eq!(back, c);
        }
    }

    #[test]
    fn lz_compresses_redundant_data() {
        let data: Vec<u8> = b"claim vehicle Volvo bumper repaint "
            .iter()
            .cycle()
            .take(20_000)
            .copied()
            .collect();
        let z = lz_compress(&data);
        assert!(
            z.len() < data.len() / 3,
            "{} !< {}",
            z.len(),
            data.len() / 3
        );
    }

    #[test]
    fn lz_handles_overlapping_matches() {
        // "aaaaa..." forces dist=1 overlapping copies
        let data = vec![b'a'; 1000];
        let z = lz_compress(&data);
        assert_eq!(lz_decompress(&z).unwrap(), data);
        assert!(z.len() < 100);
    }

    #[test]
    fn lz_detects_corruption() {
        let data = b"hello hello hello hello hello hello".to_vec();
        let mut z = lz_compress(&data);
        let last = z.len() - 1;
        z[last] ^= 0xff;
        assert!(lz_decompress(&z).is_err());
    }

    #[test]
    fn lz_detects_truncation() {
        let data = vec![7u8; 500];
        let z = lz_compress(&data);
        for cut in 0..z.len() {
            // must error or return wrong-length error, never panic
            let _ = lz_decompress(&z[..cut]);
        }
    }

    /// A header flipped the way `Segment::corrupt_block` flips it claims
    /// ~4 GiB; it is rejected before the output is reserved.
    #[test]
    fn lz_rejects_a_flipped_header() {
        let z = lz_compress(&b"hello hello hello hello".repeat(8));
        let mut flipped = z.clone();
        for b in &mut flipped[..4] {
            *b = !*b;
        }
        let err = lz_decompress(&flipped).unwrap_err();
        assert!(format!("{err:?}").contains("header claims"), "{err:?}");
        // A header claiming less than the tokens write stops at the claim.
        let mut short = z;
        short[..4].copy_from_slice(&10u32.to_le_bytes());
        let err = lz_decompress(&short).unwrap_err();
        assert!(format!("{err:?}").contains("overrun"), "{err:?}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        // Every truncation and every single-byte flip of a valid block
        // decodes to an error or to the original bytes — never a panic.
        #[test]
        fn lz_damaged_blocks_error_or_round_trip(
            data in proptest::collection::vec(0u8..4, 0..400),
            mask in 1u8..255,
        ) {
            let z = lz_compress(&data);
            for cut in 0..z.len() {
                let back = lz_decompress(&z[..cut]);
                proptest::prop_assert!(back.is_err() || back.as_ref() == Ok(&data));
            }
            for i in 0..z.len() {
                let mut damaged = z.clone();
                damaged[i] ^= mask;
                let back = lz_decompress(&damaged);
                proptest::prop_assert!(back.is_err() || back.as_ref() == Ok(&data));
            }
        }
    }

    #[test]
    fn rle_roundtrip() {
        let cases: Vec<Vec<u8>> = vec![
            b"".to_vec(),
            vec![5u8; 1000],
            b"abc".to_vec(),
            vec![1, 1, 2, 2, 2, 3],
        ];
        for c in cases {
            assert_eq!(rle_decompress(&rle_compress(&c)).unwrap(), c);
        }
    }

    #[test]
    fn rle_shrinks_runs() {
        let data = vec![0u8; 4096];
        let z = rle_compress(&data);
        assert!(z.len() < 50);
    }

    #[test]
    fn checksum_changes_with_content() {
        assert_ne!(checksum(b"a"), checksum(b"b"));
        assert_eq!(checksum(b""), 0x811c9dc5);
    }

    #[test]
    fn lz_random_data_roundtrip() {
        // Pseudo-random (xorshift) data: incompressible but must round-trip.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..8192)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x & 0xff) as u8
            })
            .collect();
        let z = lz_compress(&data);
        assert_eq!(lz_decompress(&z).unwrap(), data);
    }
}
