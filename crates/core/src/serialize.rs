//! Compact binary serialization of sketches.
//!
//! In the applications the paper targets (dataset search over data lakes), sketches are
//! computed once, persisted in an index, and compared against many query sketches later.
//! This module provides a small, self-describing binary encoding for every sketch type
//! in the crate (magic number, format version, type tag, then the fields), built on the
//! `bytes` crate.  The encoding is platform independent (little-endian, fixed-width
//! integers) and validated on decode.

use crate::countsketch::CountSketch;
use crate::error::{corrupt, SketchError};
use crate::icws::{IcwsSample, IcwsSketch};
use crate::jl::JlSketch;
use crate::kmv::{KmvEntry, KmvSketch};
use crate::method::AnySketch;
use crate::minhash::{MinHashParams, MinHashSketch};
use crate::simhash::SimHashSketch;
use crate::wmh::{WeightedMinHashSketch, WmhParams, WmhStream, WmhVariant};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use ipsketch_hash::family::HashFamilyKind;

/// Magic number identifying an `ipsketch` binary sketch.
const MAGIC: u32 = 0x4950_534B; // "IPSK"
/// Current format version.
///
/// Version 1 already round-trips every piece of merge state the mergeable sketchers
/// need: the announced norm of WMH/ICWS partials travels in the existing `norm` field,
/// streaming MinHash/WMH partials encode their unset slots as IEEE `+∞` hashes (which
/// `f64` serialization preserves exactly), ICWS merge scores are recomputed from the
/// stored samples, and KMV/JL/CountSketch carry no extra state at all — so introducing
/// merge support required no wire-format change and no version bump.
const VERSION: u8 = 1;

/// Type tags.
pub(crate) const TAG_MINHASH: u8 = 1;
pub(crate) const TAG_WMH: u8 = 2;
pub(crate) const TAG_JL: u8 = 3;
pub(crate) const TAG_COUNTSKETCH: u8 = 4;
pub(crate) const TAG_KMV: u8 = 5;
pub(crate) const TAG_SIMHASH: u8 = 6;
pub(crate) const TAG_ICWS: u8 = 7;

/// FNV-1a 64-bit hash over a byte slice — the workspace's shared cheap checksum and
/// fingerprint fold.  Not cryptographic: it guards against truncation and bit rot,
/// not an adversary.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    bytes.iter().fold(FNV_OFFSET, |acc, &byte| {
        (acc ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
    })
}

/// A bounds-checked little-endian reader over a byte slice — the one cursor shared by
/// every fixed-width decoder in the workspace (sketcher specs, column blobs, catalog
/// manifests).  Each read fails with [`SketchError::Corrupt`] on truncation instead of
/// panicking.
#[derive(Debug)]
pub struct SliceReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> SliceReader<'a> {
    /// Starts reading at the beginning of `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Takes the next `n` raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::Corrupt`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SketchError> {
        let slice = self
            .bytes
            .get(self.pos..self.pos.saturating_add(n))
            .ok_or_else(|| corrupt("truncated encoding"))?;
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::Corrupt`] on truncation.
    pub fn u8(&mut self) -> Result<u8, SketchError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::Corrupt`] on truncation.
    pub fn u32(&mut self) -> Result<u32, SketchError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("length checked"),
        ))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::Corrupt`] on truncation.
    pub fn u64(&mut self) -> Result<u64, SketchError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("length checked"),
        ))
    }

    /// Reads a `u32` length prefix followed by that many UTF-8 bytes.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::Corrupt`] on truncation or invalid UTF-8.
    pub fn string(&mut self) -> Result<String, SketchError> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| corrupt("string field holds invalid UTF-8"))
    }

    /// Asserts that every byte has been consumed — trailing bytes in an exactly-sized
    /// field indicate corruption.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::Corrupt`] if bytes remain.
    pub fn finished(&self) -> Result<(), SketchError> {
        if self.pos != self.bytes.len() {
            return Err(corrupt("trailing bytes after encoding"));
        }
        Ok(())
    }
}

/// A sketch that can be encoded to and decoded from a compact binary representation.
pub trait BinarySketch: Sized {
    /// Encodes the sketch.
    fn to_bytes(&self) -> Bytes;

    /// Decodes a sketch previously produced by [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::Corrupt`] if the buffer is truncated, has the wrong magic
    /// number / version, or carries a different sketch type.
    fn from_bytes(bytes: &[u8]) -> Result<Self, SketchError>;
}

fn write_header(buf: &mut BytesMut, tag: u8) {
    buf.put_u32_le(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(tag);
}

fn read_header(buf: &mut &[u8], expected_tag: u8) -> Result<(), SketchError> {
    if buf.remaining() < 6 {
        return Err(corrupt("buffer too short for header"));
    }
    let magic = buf.get_u32_le();
    if magic != MAGIC {
        return Err(corrupt(format!("bad magic number {magic:#x}")));
    }
    let version = buf.get_u8();
    if version != VERSION {
        return Err(corrupt(format!("unsupported format version {version}")));
    }
    let tag = buf.get_u8();
    if tag != expected_tag {
        return Err(corrupt(format!(
            "expected sketch tag {expected_tag}, found {tag}"
        )));
    }
    Ok(())
}

fn put_f64_slice(buf: &mut BytesMut, values: &[f64]) {
    buf.put_u64_le(values.len() as u64);
    for &v in values {
        buf.put_f64_le(v);
    }
}

/// Whether `buf` holds `len` records of `width` bytes.  A hostile length whose
/// byte count overflows `usize` holds nothing (an unchecked product could wrap
/// small and send the caller into a huge allocation).
fn holds(buf: &[u8], len: usize, width: usize) -> bool {
    len.checked_mul(width)
        .is_some_and(|bytes| buf.len() >= bytes)
}

fn get_f64_vec(buf: &mut &[u8]) -> Result<Vec<f64>, SketchError> {
    if buf.remaining() < 8 {
        return Err(corrupt("missing length prefix"));
    }
    let len = buf.get_u64_le() as usize;
    if !holds(buf, len, 8) {
        return Err(corrupt("truncated f64 array"));
    }
    Ok((0..len).map(|_| buf.get_f64_le()).collect())
}

fn get_u64(buf: &mut &[u8]) -> Result<u64, SketchError> {
    if buf.remaining() < 8 {
        return Err(corrupt("truncated u64"));
    }
    Ok(buf.get_u64_le())
}

fn get_f64(buf: &mut &[u8]) -> Result<f64, SketchError> {
    if buf.remaining() < 8 {
        return Err(corrupt("truncated f64"));
    }
    Ok(buf.get_f64_le())
}

pub(crate) fn hash_kind_to_u8(kind: HashFamilyKind) -> u8 {
    match kind {
        HashFamilyKind::Wegman31 => 0,
        HashFamilyKind::Wegman61 => 1,
        HashFamilyKind::Mix => 2,
        HashFamilyKind::Tabulation => 3,
        HashFamilyKind::MultiplyShift => 4,
    }
}

pub(crate) fn hash_kind_from_u8(value: u8) -> Result<HashFamilyKind, SketchError> {
    Ok(match value {
        0 => HashFamilyKind::Wegman31,
        1 => HashFamilyKind::Wegman61,
        2 => HashFamilyKind::Mix,
        3 => HashFamilyKind::Tabulation,
        4 => HashFamilyKind::MultiplyShift,
        other => return Err(corrupt(format!("unknown hash-family tag {other}"))),
    })
}

impl BinarySketch for MinHashSketch {
    fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        write_header(&mut buf, TAG_MINHASH);
        buf.put_u64_le(self.params.samples as u64);
        buf.put_u64_le(self.params.seed);
        buf.put_u8(hash_kind_to_u8(self.params.hash_kind));
        put_f64_slice(&mut buf, &self.hashes);
        put_f64_slice(&mut buf, &self.values);
        buf.freeze()
    }

    fn from_bytes(mut bytes: &[u8]) -> Result<Self, SketchError> {
        let buf = &mut bytes;
        read_header(buf, TAG_MINHASH)?;
        let samples = get_u64(buf)? as usize;
        let seed = get_u64(buf)?;
        if buf.remaining() < 1 {
            return Err(corrupt("missing hash-family tag"));
        }
        let hash_kind = hash_kind_from_u8(buf.get_u8())?;
        let hashes = get_f64_vec(buf)?;
        let values = get_f64_vec(buf)?;
        if hashes.len() != samples || values.len() != samples {
            return Err(corrupt("sample-count mismatch in MinHash sketch"));
        }
        Ok(MinHashSketch {
            params: MinHashParams {
                samples,
                seed,
                hash_kind,
            },
            hashes,
            values,
        })
    }
}

impl BinarySketch for WeightedMinHashSketch {
    fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        write_header(&mut buf, TAG_WMH);
        buf.put_u64_le(self.params.samples as u64);
        buf.put_u64_le(self.params.seed);
        buf.put_u64_le(self.params.discretization);
        // One byte encodes the (variant, stream) pair so that v1-stream sketches keep
        // their historical bytes: 0 = fast/v1-stream (the original meaning of "fast"),
        // 1 = naive (always v1-stream — it never samples a stream), 2 = fast/v2-stream.
        buf.put_u8(match (self.params.variant, self.params.stream) {
            (WmhVariant::Fast, WmhStream::V1) => 0,
            (WmhVariant::Naive, _) => 1,
            (WmhVariant::Fast, WmhStream::V2) => 2,
        });
        buf.put_f64_le(self.norm);
        put_f64_slice(&mut buf, &self.hashes);
        put_f64_slice(&mut buf, &self.values);
        buf.freeze()
    }

    fn from_bytes(mut bytes: &[u8]) -> Result<Self, SketchError> {
        let buf = &mut bytes;
        read_header(buf, TAG_WMH)?;
        let samples = get_u64(buf)? as usize;
        let seed = get_u64(buf)?;
        let discretization = get_u64(buf)?;
        if buf.remaining() < 1 {
            return Err(corrupt("missing WMH variant tag"));
        }
        let (variant, stream) = match buf.get_u8() {
            0 => (WmhVariant::Fast, WmhStream::V1),
            1 => (WmhVariant::Naive, WmhStream::V1),
            2 => (WmhVariant::Fast, WmhStream::V2),
            other => return Err(corrupt(format!("unknown WMH variant tag {other}"))),
        };
        let norm = get_f64(buf)?;
        let hashes = get_f64_vec(buf)?;
        let values = get_f64_vec(buf)?;
        if hashes.len() != samples || values.len() != samples {
            return Err(corrupt("sample-count mismatch in WMH sketch"));
        }
        Ok(WeightedMinHashSketch {
            params: WmhParams {
                samples,
                seed,
                discretization,
                variant,
                stream,
            },
            hashes,
            values,
            norm,
        })
    }
}

impl BinarySketch for JlSketch {
    fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        write_header(&mut buf, TAG_JL);
        buf.put_u64_le(self.seed);
        put_f64_slice(&mut buf, &self.rows);
        buf.freeze()
    }

    fn from_bytes(mut bytes: &[u8]) -> Result<Self, SketchError> {
        let buf = &mut bytes;
        read_header(buf, TAG_JL)?;
        let seed = get_u64(buf)?;
        let rows = get_f64_vec(buf)?;
        Ok(JlSketch { seed, rows })
    }
}

impl BinarySketch for CountSketch {
    fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        write_header(&mut buf, TAG_COUNTSKETCH);
        buf.put_u64_le(self.seed);
        buf.put_u64_le(self.buckets as u64);
        put_f64_slice(&mut buf, &self.table);
        buf.freeze()
    }

    fn from_bytes(mut bytes: &[u8]) -> Result<Self, SketchError> {
        let buf = &mut bytes;
        read_header(buf, TAG_COUNTSKETCH)?;
        let seed = get_u64(buf)?;
        let buckets = get_u64(buf)? as usize;
        let table = get_f64_vec(buf)?;
        if buckets == 0 || table.len() % buckets != 0 {
            return Err(corrupt(
                "CountSketch table length is not a multiple of buckets",
            ));
        }
        Ok(CountSketch {
            seed,
            buckets,
            table,
        })
    }
}

impl BinarySketch for KmvSketch {
    fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        write_header(&mut buf, TAG_KMV);
        buf.put_u64_le(self.seed);
        buf.put_u64_le(self.capacity as u64);
        buf.put_u64_le(self.entries.len() as u64);
        for entry in &self.entries {
            buf.put_f64_le(entry.hash);
            buf.put_f64_le(entry.value);
        }
        buf.freeze()
    }

    fn from_bytes(mut bytes: &[u8]) -> Result<Self, SketchError> {
        let buf = &mut bytes;
        read_header(buf, TAG_KMV)?;
        let seed = get_u64(buf)?;
        let capacity = get_u64(buf)? as usize;
        let len = get_u64(buf)? as usize;
        if !holds(buf, len, 16) {
            return Err(corrupt("truncated KMV entries"));
        }
        let mut entries = Vec::with_capacity(len);
        for _ in 0..len {
            let hash = buf.get_f64_le();
            let value = buf.get_f64_le();
            entries.push(KmvEntry { hash, value });
        }
        if entries.len() > capacity {
            return Err(corrupt("KMV sketch holds more entries than its capacity"));
        }
        Ok(KmvSketch {
            seed,
            capacity,
            entries,
        })
    }
}

impl BinarySketch for SimHashSketch {
    fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        write_header(&mut buf, TAG_SIMHASH);
        buf.put_u64_le(self.seed);
        buf.put_u64_le(self.bits as u64);
        buf.put_f64_le(self.norm);
        buf.put_u64_le(self.words.len() as u64);
        for &w in &self.words {
            buf.put_u64_le(w);
        }
        buf.freeze()
    }

    fn from_bytes(mut bytes: &[u8]) -> Result<Self, SketchError> {
        let buf = &mut bytes;
        read_header(buf, TAG_SIMHASH)?;
        let seed = get_u64(buf)?;
        let bits = get_u64(buf)? as usize;
        let norm = get_f64(buf)?;
        let len = get_u64(buf)? as usize;
        if !holds(buf, len, 8) {
            return Err(corrupt("truncated SimHash words"));
        }
        let words: Vec<u64> = (0..len).map(|_| buf.get_u64_le()).collect();
        if words.len() != bits.div_ceil(64) {
            return Err(corrupt("SimHash word count does not match bit count"));
        }
        Ok(SimHashSketch {
            seed,
            bits,
            words,
            norm,
        })
    }
}

impl BinarySketch for AnySketch {
    /// Delegates to the wrapped sketch's encoding; the header's type tag already makes
    /// every encoding self-describing, so no extra framing is needed.
    fn to_bytes(&self) -> Bytes {
        match self {
            AnySketch::Jl(s) => s.to_bytes(),
            AnySketch::CountSketch(s) => s.to_bytes(),
            AnySketch::MinHash(s) => s.to_bytes(),
            AnySketch::Kmv(s) => s.to_bytes(),
            AnySketch::WeightedMinHash(s) => s.to_bytes(),
            AnySketch::SimHash(s) => s.to_bytes(),
            AnySketch::Icws(s) => s.to_bytes(),
        }
    }

    /// Reads the header's type tag and dispatches to the matching sketch decoder, so a
    /// persisted blob of any method round-trips through one entry point.
    fn from_bytes(bytes: &[u8]) -> Result<Self, SketchError> {
        // Validate the shared header once (magic + version), then peek the tag.
        if bytes.len() < 6 {
            return Err(corrupt("buffer too short for header"));
        }
        let magic = u32::from_le_bytes(bytes[..4].try_into().expect("length checked"));
        if magic != MAGIC {
            return Err(corrupt(format!("bad magic number {magic:#x}")));
        }
        let version = bytes[4];
        if version != VERSION {
            return Err(corrupt(format!("unsupported format version {version}")));
        }
        match bytes[5] {
            TAG_MINHASH => MinHashSketch::from_bytes(bytes).map(AnySketch::MinHash),
            TAG_WMH => WeightedMinHashSketch::from_bytes(bytes).map(AnySketch::WeightedMinHash),
            TAG_JL => JlSketch::from_bytes(bytes).map(AnySketch::Jl),
            TAG_COUNTSKETCH => CountSketch::from_bytes(bytes).map(AnySketch::CountSketch),
            TAG_KMV => KmvSketch::from_bytes(bytes).map(AnySketch::Kmv),
            TAG_SIMHASH => SimHashSketch::from_bytes(bytes).map(AnySketch::SimHash),
            TAG_ICWS => IcwsSketch::from_bytes(bytes).map(AnySketch::Icws),
            other => Err(corrupt(format!("unknown sketch type tag {other}"))),
        }
    }
}

impl BinarySketch for IcwsSketch {
    fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        write_header(&mut buf, TAG_ICWS);
        buf.put_u64_le(self.seed);
        buf.put_f64_le(self.norm);
        buf.put_u64_le(self.samples.len() as u64);
        for sample in &self.samples {
            buf.put_u64_le(sample.index);
            buf.put_i64_le(sample.token);
            buf.put_f64_le(sample.value);
        }
        buf.freeze()
    }

    fn from_bytes(mut bytes: &[u8]) -> Result<Self, SketchError> {
        let buf = &mut bytes;
        read_header(buf, TAG_ICWS)?;
        let seed = get_u64(buf)?;
        let norm = get_f64(buf)?;
        let len = get_u64(buf)? as usize;
        if !holds(buf, len, 24) {
            return Err(corrupt("truncated ICWS samples"));
        }
        let mut samples = Vec::with_capacity(len);
        for _ in 0..len {
            let index = buf.get_u64_le();
            let token = buf.get_i64_le();
            let value = buf.get_f64_le();
            samples.push(IcwsSample {
                index,
                token,
                value,
            });
        }
        Ok(IcwsSketch {
            seed,
            samples,
            norm,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::countsketch::CountSketcher;
    use crate::icws::IcwsSketcher;
    use crate::jl::JlSketcher;
    use crate::kmv::KmvSketcher;
    use crate::minhash::MinHasher;
    use crate::simhash::SimHashSketcher;
    use crate::traits::Sketcher;
    use crate::wmh::WeightedMinHasher;
    use ipsketch_vector::SparseVector;

    fn sample_vector() -> SparseVector {
        SparseVector::from_pairs((0..50u64).map(|i| (i * 3, (i as f64) - 20.0))).unwrap()
    }

    #[test]
    fn minhash_round_trip() {
        let s = MinHasher::new(16, 7).unwrap();
        let sk = s.sketch(&sample_vector()).unwrap();
        let decoded = MinHashSketch::from_bytes(&sk.to_bytes()).unwrap();
        assert_eq!(sk, decoded);
        // The decoded sketch is usable with the original sketcher.
        assert!(s.estimate_inner_product(&sk, &decoded).is_ok());
    }

    #[test]
    fn wmh_round_trip_both_variants() {
        let fast = WeightedMinHasher::new(16, 7, 1 << 12).unwrap();
        let sk = fast.sketch(&sample_vector()).unwrap();
        let decoded = WeightedMinHashSketch::from_bytes(&sk.to_bytes()).unwrap();
        assert_eq!(sk, decoded);
        let naive = crate::wmh::NaiveWeightedMinHasher::new(8, 7, 256).unwrap();
        let sk2 = naive.sketch(&sample_vector()).unwrap();
        let decoded2 = WeightedMinHashSketch::from_bytes(&sk2.to_bytes()).unwrap();
        assert_eq!(sk2, decoded2);
    }

    #[test]
    fn wmh_round_trip_preserves_the_stream() {
        // The v2-stream sketch round-trips with its stream intact, and its combined
        // variant byte (2) is distinct from the frozen v1 bytes (0/1).
        let v2 = WeightedMinHasher::with_stream(16, 7, 1 << 12, WmhStream::V2).unwrap();
        let sk = v2.sketch(&sample_vector()).unwrap();
        let bytes = sk.to_bytes();
        assert_eq!(bytes[6 + 24], 2, "combined variant/stream byte");
        let decoded = WeightedMinHashSketch::from_bytes(&bytes).unwrap();
        assert_eq!(sk, decoded);
        assert_eq!(decoded.params().stream, WmhStream::V2);
        // A v1-stream sketch keeps the historical byte 0.
        let v1 = WeightedMinHasher::new(16, 7, 1 << 12).unwrap();
        let v1_bytes = v1.sketch(&sample_vector()).unwrap().to_bytes();
        assert_eq!(v1_bytes[6 + 24], 0, "v1 sketches must keep their bytes");
        // An unknown combined byte is rejected.
        let mut bad = v1_bytes.to_vec();
        bad[6 + 24] = 9;
        assert!(WeightedMinHashSketch::from_bytes(&bad).is_err());
    }

    #[test]
    fn jl_round_trip() {
        let s = JlSketcher::new(32, 9).unwrap();
        let sk = s.sketch(&sample_vector()).unwrap();
        let decoded = JlSketch::from_bytes(&sk.to_bytes()).unwrap();
        assert_eq!(sk, decoded);
    }

    #[test]
    fn countsketch_round_trip() {
        let s = CountSketcher::new(24, 9).unwrap();
        let sk = s.sketch(&sample_vector()).unwrap();
        let decoded = CountSketch::from_bytes(&sk.to_bytes()).unwrap();
        assert_eq!(sk, decoded);
    }

    #[test]
    fn kmv_round_trip() {
        let s = KmvSketcher::new(20, 9).unwrap();
        let sk = s.sketch(&sample_vector()).unwrap();
        let decoded = KmvSketch::from_bytes(&sk.to_bytes()).unwrap();
        assert_eq!(sk, decoded);
    }

    #[test]
    fn simhash_round_trip() {
        let s = SimHashSketcher::new(100, 9).unwrap();
        let sk = s.sketch(&sample_vector()).unwrap();
        let decoded = SimHashSketch::from_bytes(&sk.to_bytes()).unwrap();
        assert_eq!(sk, decoded);
    }

    #[test]
    fn icws_round_trip() {
        let s = IcwsSketcher::new(20, 9).unwrap();
        let sk = s.sketch(&sample_vector()).unwrap();
        let decoded = IcwsSketch::from_bytes(&sk.to_bytes()).unwrap();
        assert_eq!(sk, decoded);
    }

    #[test]
    fn merged_and_partial_sketches_round_trip() {
        use crate::traits::MergeableSketcher;
        let v = sample_vector();
        let pairs: Vec<(u64, f64)> = v.iter().collect();
        let (left, right) = pairs.split_at(pairs.len() / 2);
        let chunk_a = SparseVector::from_pairs(left.iter().copied()).unwrap();
        let chunk_b = SparseVector::from_pairs(right.iter().copied()).unwrap();

        // A streaming MinHash partial mid-build: unset slots are +∞ hashes, which the
        // fixed-width f64 encoding preserves bit-exactly.
        let mh = MinHasher::new(16, 7).unwrap();
        let mut partial = mh.empty_sketch();
        mh.update(&mut partial, 3, 2.0).unwrap();
        assert_eq!(
            MinHashSketch::from_bytes(&partial.to_bytes()).unwrap(),
            partial
        );
        let never_updated = mh.empty_sketch();
        assert_eq!(
            MinHashSketch::from_bytes(&never_updated.to_bytes()).unwrap(),
            never_updated
        );

        // Merged sketches of every mergeable method survive a round trip and remain
        // usable (and, for the sampling methods, equal to their merge inputs rebuilt).
        let kmv = KmvSketcher::new(20, 9).unwrap();
        let merged_kmv = kmv
            .merge(
                &kmv.sketch(&chunk_a).unwrap(),
                &kmv.sketch(&chunk_b).unwrap(),
            )
            .unwrap();
        assert_eq!(
            KmvSketch::from_bytes(&merged_kmv.to_bytes()).unwrap(),
            merged_kmv
        );

        // WMH/ICWS partials carry their announced norm in the existing norm field.
        let wmh = WeightedMinHasher::new(16, 7, 1 << 12).unwrap();
        let norm = v.norm();
        let wmh_partial = wmh.sketch_partition(&chunk_a, norm).unwrap();
        let decoded = WeightedMinHashSketch::from_bytes(&wmh_partial.to_bytes()).unwrap();
        assert_eq!(decoded, wmh_partial);
        assert_eq!(decoded.norm(), norm);
        // The decoded partial still merges with a live partial.
        let merged = wmh
            .merge(&decoded, &wmh.sketch_partition(&chunk_b, norm).unwrap())
            .unwrap();
        assert_eq!(merged.norm(), norm);

        let icws = IcwsSketcher::new(12, 5).unwrap();
        let icws_merged = icws
            .merge(
                &icws.sketch_partition(&chunk_a, norm).unwrap(),
                &icws.sketch_partition(&chunk_b, norm).unwrap(),
            )
            .unwrap();
        let icws_decoded = IcwsSketch::from_bytes(&icws_merged.to_bytes()).unwrap();
        assert_eq!(icws_decoded, icws_merged);
        assert_eq!(icws_decoded, icws.sketch(&v).unwrap());
    }

    #[test]
    fn decode_rejects_wrong_tag() {
        let s = MinHasher::new(8, 7).unwrap();
        let sk = s.sketch(&sample_vector()).unwrap();
        let bytes = sk.to_bytes();
        assert!(matches!(
            JlSketch::from_bytes(&bytes),
            Err(SketchError::Corrupt { .. })
        ));
    }

    #[test]
    fn decode_rejects_truncated_buffers() {
        let s = WeightedMinHasher::new(16, 7, 1 << 12).unwrap();
        let sk = s.sketch(&sample_vector()).unwrap();
        let bytes = sk.to_bytes();
        for cut in [0, 3, 6, 10, bytes.len() - 1] {
            assert!(
                WeightedMinHashSketch::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn decode_rejects_lengths_whose_byte_counts_overflow() {
        // 2^61 records of 8, 16 or 24 bytes wrap to 0 bytes in 64 bits; the
        // decoders must refuse such a length, not allocate for it.
        let v = sample_vector();
        let patched = |bytes: &[u8], at: usize, len: u64| {
            assert_eq!(
                bytes[at..at + 8],
                len.to_le_bytes(),
                "length prefix at {at}"
            );
            let mut bytes = bytes.to_vec();
            bytes[at..at + 8].copy_from_slice(&(1u64 << 61).to_le_bytes());
            bytes
        };
        let wmh = WeightedMinHasher::new(16, 7, 1 << 12).unwrap();
        let bytes = wmh.sketch(&v).unwrap().to_bytes();
        assert!(WeightedMinHashSketch::from_bytes(&patched(&bytes, 39, 16)).is_err());
        let kmv = KmvSketcher::new(8, 7).unwrap();
        let bytes = kmv.sketch(&v).unwrap().to_bytes();
        assert!(KmvSketch::from_bytes(&patched(&bytes, 22, 8)).is_err());
        let simhash = SimHashSketcher::new(64, 7).unwrap();
        let bytes = simhash.sketch(&v).unwrap().to_bytes();
        assert!(SimHashSketch::from_bytes(&patched(&bytes, 30, 1)).is_err());
        let icws = IcwsSketcher::new(4, 7).unwrap();
        let bytes = icws.sketch(&v).unwrap().to_bytes();
        assert!(IcwsSketch::from_bytes(&patched(&bytes, 22, 4)).is_err());
    }

    #[test]
    fn decode_rejects_bad_magic_and_version() {
        let s = JlSketcher::new(4, 7).unwrap();
        let sk = s.sketch(&sample_vector()).unwrap();
        let mut bytes = sk.to_bytes().to_vec();
        bytes[0] ^= 0xFF;
        assert!(JlSketch::from_bytes(&bytes).is_err());
        let mut bytes = sk.to_bytes().to_vec();
        bytes[4] = 99; // version
        assert!(JlSketch::from_bytes(&bytes).is_err());
    }

    #[test]
    fn decode_rejects_unknown_hash_kind() {
        let s = MinHasher::new(4, 7).unwrap();
        let sk = s.sketch(&sample_vector()).unwrap();
        let mut bytes = sk.to_bytes().to_vec();
        // Header (6) + samples (8) + seed (8) = offset 22 holds the hash-kind tag.
        bytes[22] = 200;
        assert!(MinHashSketch::from_bytes(&bytes).is_err());
    }
}
