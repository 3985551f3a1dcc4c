//! Versioned binary persistence: the tensor record format and the
//! checksummed file container every persisted artifact in the workspace
//! shares.
//!
//! # Tensor record layout (`BNTR`, version 1)
//!
//! ```text
//! magic      4 bytes   b"BNTR"
//! version    u16 LE    format version (currently 1)
//! dtype      u8        element type tag (1 = f32)
//! rank       u8        number of dimensions
//! dims       rank × u64 LE
//! strides    rank × u64 LE   element strides per dimension
//! len        u64 LE    number of payload elements
//! payload    len × f32 LE
//! ```
//!
//! The writer always emits contiguous row-major data (our [`Tensor`] is
//! dense row-major), and the reader accepts only that layout: the strides
//! must be the row-major strides of `dims` and `len` must equal their
//! volume. Any other layout — transposed, padded, zero or aliasing strides
//! — is rejected as [`TensorError::InvalidSpec`], so a small crafted record
//! can never declare (and force allocation of) a huge logical tensor.
//!
//! # File container (`BNPF`, version 1)
//!
//! ```text
//! magic      4 bytes   b"BNPF"
//! version    u16 LE
//! len        u64 LE    payload byte count
//! payload    len bytes (an inner record: model, artifact, …)
//! checksum   u64 LE    FNV-1a over magic..payload
//! ```
//!
//! [`write_file_atomic`] writes the container to a temporary sibling and
//! `rename`s it into place, so readers never observe a torn file;
//! [`read_file_verified`] validates magic, version, length and checksum
//! before handing the payload back. Every failure mode is a typed
//! [`TensorError`]: [`TensorError::WrongMagic`],
//! [`TensorError::UnsupportedVersion`], [`TensorError::Truncated`],
//! [`TensorError::ChecksumMismatch`], [`TensorError::Io`].

use std::path::Path;

use crate::{Result, Tensor, TensorError};

/// Magic bytes opening every serialized tensor record.
const TENSOR_MAGIC: [u8; 4] = *b"BNTR";
/// Newest tensor-record format version this build reads and writes.
const TENSOR_VERSION: u16 = 1;
/// Element-type tag for little-endian IEEE-754 `f32`.
const DTYPE_F32: u8 = 1;

/// Magic bytes opening the checksummed file container.
const FILE_MAGIC: [u8; 4] = *b"BNPF";
/// Newest file-container version this build reads and writes.
const FILE_VERSION: u16 = 1;

/// The FNV-1a offset basis: the hash of no bytes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over a byte slice — the checksum the file container stores and
/// the hash persisted cache keys are derived from.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_OFFSET, bytes)
}

/// [`fnv1a`] over the little-endian bytes of `values`, without copying
/// them: an image's content hash, whatever batch it sits in.
pub fn fnv1a_f32s(values: &[f32]) -> u64 {
    values
        .iter()
        .fold(FNV_OFFSET, |h, v| fnv1a_from(h, &v.to_le_bytes()))
}

/// Continues an FNV-1a hash from state `h` over `bytes`.
fn fnv1a_from(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Bounds-checked little-endian cursor over a byte slice; every overrun is
/// a typed [`TensorError::Truncated`].
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at its start.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Consumes the next `n` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Truncated`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(TensorError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Consumes one byte.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Truncated`] at end of input.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Consumes a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Truncated`] if fewer than two bytes remain.
    fn u16_le(&mut self) -> Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Consumes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Truncated`] if fewer than eight bytes remain.
    fn u64_le(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("eight bytes")))
    }

    /// Consumes a little-endian `u64` and narrows it to `usize`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Truncated`] on overrun and
    /// [`TensorError::InvalidSpec`] if the value does not fit a `usize`.
    pub fn usize_le(&mut self) -> Result<usize> {
        let v = self.u64_le()?;
        usize::try_from(v)
            .map_err(|_| TensorError::InvalidSpec(format!("persisted size {v} overflows usize")))
    }

    /// Consumes `magic.len()` bytes and compares them against `magic`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::WrongMagic`] on mismatch and
    /// [`TensorError::Truncated`] on overrun.
    pub fn expect_magic(&mut self, magic: [u8; 4]) -> Result<()> {
        let found = self.take(4)?;
        if found != magic {
            return Err(TensorError::WrongMagic {
                found: found.try_into().expect("four bytes"),
                expected: magic,
            });
        }
        Ok(())
    }

    /// Consumes a little-endian `u16` version stamp and rejects versions
    /// newer than `supported`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnsupportedVersion`] for a future version and
    /// [`TensorError::Truncated`] on overrun.
    pub fn expect_version(&mut self, supported: u16) -> Result<u16> {
        let found = self.u16_le()?;
        if found > supported {
            return Err(TensorError::UnsupportedVersion { found, supported });
        }
        Ok(found)
    }

    /// Errors with [`TensorError::TrailingBytes`] unless every byte has
    /// been consumed — the guard standalone `from_bytes` readers end with.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::TrailingBytes`] if input remains.
    pub fn finish(&self) -> Result<()> {
        if !self.is_empty() {
            return Err(TensorError::TrailingBytes {
                extra: self.remaining(),
            });
        }
        Ok(())
    }
}

/// Appends `value` as a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, value: u64) {
    buf.extend_from_slice(&value.to_le_bytes());
}

/// Appends a tensor record (contiguous row-major payload) to `buf`.
pub fn write_tensor(buf: &mut Vec<u8>, tensor: &Tensor) {
    let dims = tensor.dims();
    let strides = tensor.shape().strides();
    buf.extend_from_slice(&TENSOR_MAGIC);
    buf.extend_from_slice(&TENSOR_VERSION.to_le_bytes());
    buf.push(DTYPE_F32);
    buf.push(dims.len() as u8);
    for &d in dims {
        put_u64(buf, d as u64);
    }
    for &s in &strides {
        put_u64(buf, s as u64);
    }
    let data = tensor.data();
    put_u64(buf, data.len() as u64);
    buf.reserve(data.len() * 4);
    for v in data {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Reads one row-major tensor record from `reader`.
///
/// # Errors
///
/// Returns the typed persist errors ([`TensorError::WrongMagic`],
/// [`TensorError::UnsupportedVersion`], [`TensorError::UnsupportedDtype`],
/// [`TensorError::Truncated`]) plus [`TensorError::InvalidSpec`] for a
/// layout other than the row-major one [`write_tensor`] emits.
pub fn read_tensor(reader: &mut ByteReader<'_>) -> Result<Tensor> {
    reader.expect_magic(TENSOR_MAGIC)?;
    reader.expect_version(TENSOR_VERSION)?;
    let dtype = reader.u8()?;
    if dtype != DTYPE_F32 {
        return Err(TensorError::UnsupportedDtype { found: dtype });
    }
    let rank = reader.u8()? as usize;
    let mut dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        dims.push(reader.usize_le()?);
    }
    let mut strides = Vec::with_capacity(rank);
    for _ in 0..rank {
        strides.push(reader.usize_le()?);
    }
    let len = reader.usize_le()?;
    let payload_bytes = reader.take(len.checked_mul(4).ok_or_else(|| {
        TensorError::InvalidSpec(format!("payload length {len} overflows usize"))
    })?)?;
    let volume = dims.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d));
    if volume != Some(len) || row_major_strides(&dims).as_ref() != Some(&strides) {
        return Err(TensorError::InvalidSpec(format!(
            "layout dims {dims:?} strides {strides:?} over {len} elements is not row-major"
        )));
    }
    let data = payload_bytes
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes(b.try_into().expect("four bytes")))
        .collect();
    Tensor::from_vec(data, &dims)
}

/// The row-major strides of `dims`, or `None` if one overflows. A zero
/// dimension makes the volume 0 however large the others are, so the
/// volume check alone does not bound the outer strides.
fn row_major_strides(dims: &[usize]) -> Option<Vec<usize>> {
    let mut strides = vec![1usize; dims.len()];
    for i in (0..dims.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1].checked_mul(dims[i + 1])?;
    }
    Some(strides)
}

/// Serializes one tensor as a standalone record.
pub fn tensor_to_bytes(tensor: &Tensor) -> Vec<u8> {
    let mut buf = Vec::new();
    write_tensor(&mut buf, tensor);
    buf
}

/// Deserializes a standalone tensor record, rejecting trailing bytes.
///
/// # Errors
///
/// Returns the typed persist errors (see [`read_tensor`]) plus
/// [`TensorError::TrailingBytes`] when the record does not account for the
/// whole input.
pub fn tensor_from_bytes(bytes: &[u8]) -> Result<Tensor> {
    let mut reader = ByteReader::new(bytes);
    let tensor = read_tensor(&mut reader)?;
    reader.finish()?;
    Ok(tensor)
}

/// Wraps `payload` in the checksummed file container.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(payload.len() + 22);
    buf.extend_from_slice(&FILE_MAGIC);
    buf.extend_from_slice(&FILE_VERSION.to_le_bytes());
    put_u64(&mut buf, payload.len() as u64);
    buf.extend_from_slice(payload);
    let checksum = fnv1a(&buf);
    put_u64(&mut buf, checksum);
    buf
}

/// Validates a file container and returns its payload slice.
///
/// # Errors
///
/// Returns [`TensorError::WrongMagic`], [`TensorError::UnsupportedVersion`],
/// [`TensorError::Truncated`], [`TensorError::TrailingBytes`] or
/// [`TensorError::ChecksumMismatch`] for every way the container can be
/// malformed.
pub fn unframe(bytes: &[u8]) -> Result<&[u8]> {
    let mut reader = ByteReader::new(bytes);
    reader.expect_magic(FILE_MAGIC)?;
    reader.expect_version(FILE_VERSION)?;
    let len = reader.usize_le()?;
    let payload = reader.take(len)?;
    let stored = reader.u64_le()?;
    reader.finish()?;
    let computed = fnv1a(&bytes[..bytes.len() - 8]);
    if stored != computed {
        return Err(TensorError::ChecksumMismatch { stored, computed });
    }
    Ok(payload)
}

/// Wraps one append-only log record: `magic · version · kind · len ·
/// payload · checksum`, the per-record analogue of [`frame`] for files
/// that grow by appending instead of being rewritten whole. The checksum
/// is FNV-1a over everything before it, so each record is independently
/// verifiable — a torn or bit-rotted tail invalidates only itself.
pub fn frame_record(magic: [u8; 4], version: u16, kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(payload.len() + 23);
    buf.extend_from_slice(&magic);
    buf.extend_from_slice(&version.to_le_bytes());
    buf.push(kind);
    put_u64(&mut buf, payload.len() as u64);
    buf.extend_from_slice(payload);
    let checksum = fnv1a(&buf);
    put_u64(&mut buf, checksum);
    buf
}

/// Reads one [`frame_record`] record off the front of `bytes`, returning
/// `(kind, payload, consumed byte count)` so a reader can walk a log by
/// advancing `consumed` bytes per record.
///
/// # Errors
///
/// Returns [`TensorError::WrongMagic`], [`TensorError::UnsupportedVersion`],
/// [`TensorError::Truncated`] or [`TensorError::ChecksumMismatch`] for
/// every way the record can be malformed — a torn-tail-tolerant caller
/// treats any of these at the tail as end-of-log.
pub fn read_record(bytes: &[u8], magic: [u8; 4], supported: u16) -> Result<(u8, &[u8], usize)> {
    let mut reader = ByteReader::new(bytes);
    reader.expect_magic(magic)?;
    reader.expect_version(supported)?;
    let kind = reader.u8()?;
    let len = reader.usize_le()?;
    let payload = reader.take(len)?;
    let stored = reader.u64_le()?;
    let body_end = 4 + 2 + 1 + 8 + len;
    let computed = fnv1a(&bytes[..body_end]);
    if stored != computed {
        return Err(TensorError::ChecksumMismatch { stored, computed });
    }
    Ok((kind, payload, body_end + 8))
}

/// The infix every temporary sibling of an atomic write carries:
/// `<file name>.tmp.<pid>`. Appended to the full file name (never via
/// `with_extension`, which would replace the real extension and collide
/// two targets sharing a stem).
const TMP_INFIX: &str = ".tmp.";

/// Removes temporary siblings a crashed earlier write of `path` left
/// behind (`<name>.tmp.<any pid>`). Best-effort: cleanup never fails the
/// write that triggered it.
fn remove_stale_tmp(path: &Path) {
    let (Some(dir), Some(name)) = (path.parent(), path.file_name()) else {
        return;
    };
    let prefix = format!("{}{TMP_INFIX}", name.to_string_lossy());
    let Ok(entries) = std::fs::read_dir(if dir.as_os_str().is_empty() {
        Path::new(".")
    } else {
        dir
    }) else {
        return;
    };
    for entry in entries.flatten() {
        let candidate = entry.file_name();
        if candidate.to_string_lossy().starts_with(&prefix) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// Flushes the directory entry for `path` to disk, so the rename that
/// just placed it is durable — without this, a power loss after the
/// rename can resurrect the old file (or no file). Best-effort on
/// filesystems whose directories refuse `sync_all`.
fn sync_parent_dir(path: &Path) {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    if let Ok(handle) = std::fs::File::open(dir) {
        let _ = handle.sync_all();
    }
}

/// Writes `payload` to `path` inside the checksummed container,
/// atomically and durably (see [`write_bytes_atomic`]).
///
/// # Errors
///
/// Returns [`TensorError::Io`] for filesystem failures.
pub fn write_file_atomic(path: &Path, payload: &[u8]) -> Result<()> {
    write_bytes_atomic(path, &frame(payload))
}

/// Writes `bytes` to `path` verbatim, atomically **and durably**: the
/// bytes land in a temporary sibling first, are fsynced, and only then
/// `rename`d into place, followed by an fsync of the parent directory —
/// so a concurrent reader sees either the old file or the complete new
/// one (never a torn write), and a power-loss-style crash cannot lose the
/// rename itself. Temporary siblings a crashed earlier write left behind
/// are cleaned up before writing.
///
/// # Errors
///
/// Returns [`TensorError::Io`] for filesystem failures.
pub fn write_bytes_atomic(path: &Path, bytes: &[u8]) -> Result<()> {
    use std::io::Write;

    remove_stale_tmp(path);
    let mut name = path
        .file_name()
        .ok_or_else(|| TensorError::Io(format!("{} has no file name", path.display())))?
        .to_os_string();
    name.push(format!("{TMP_INFIX}{}", std::process::id()));
    let tmp = path.with_file_name(name);
    let write_synced = || -> std::io::Result<()> {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        // The crash-durability half of the contract: the bytes must be
        // on disk before the rename publishes them.
        file.sync_all()
    };
    write_synced().map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        TensorError::Io(format!("writing {}: {e}", tmp.display()))
    })?;
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        TensorError::Io(format!("renaming into {}: {e}", path.display()))
    })?;
    sync_parent_dir(path);
    Ok(())
}

/// Reads `path` and validates the file container, returning the payload.
///
/// # Errors
///
/// Returns [`TensorError::Io`] for filesystem failures plus every
/// [`unframe`] validation error.
pub fn read_file_verified(path: &Path) -> Result<Vec<u8>> {
    let bytes = std::fs::read(path)
        .map_err(|e| TensorError::Io(format!("reading {}: {e}", path.display())))?;
    Ok(unframe(&bytes)?.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tensor(dims: &[usize]) -> Tensor {
        let volume: usize = dims.iter().product();
        Tensor::from_vec((0..volume).map(|v| v as f32 * 0.25 - 3.0).collect(), dims).unwrap()
    }

    #[test]
    fn f32_hash_is_fnv1a_over_the_little_endian_bytes() {
        let values = [1.0f32, -0.0, 0.0, f32::NAN, 3.5e-20];
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(fnv1a_f32s(&values), fnv1a(&bytes));
        assert_eq!(fnv1a_f32s(&[]), fnv1a(&[]));
        // Bit patterns, not values: the two zeros hash apart.
        assert_ne!(fnv1a_f32s(&[0.0]), fnv1a_f32s(&[-0.0]));
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        for dims in [vec![4], vec![2, 3], vec![2, 3, 4, 5]] {
            let t = tensor(&dims);
            let restored = tensor_from_bytes(&tensor_to_bytes(&t)).unwrap();
            assert_eq!(restored.dims(), t.dims());
            let same_bits = restored
                .data()
                .iter()
                .zip(t.data())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same_bits);
        }
    }

    /// Encodes a raw record with the given layout fields, bypassing the
    /// writer's validation — the attacker-controlled shape of input.
    fn raw_record(dims: &[u64], strides: &[u64], payload: &[f32]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&TENSOR_MAGIC);
        buf.extend_from_slice(&TENSOR_VERSION.to_le_bytes());
        buf.push(DTYPE_F32);
        buf.push(dims.len() as u8);
        for &d in dims {
            put_u64(&mut buf, d);
        }
        for &s in strides {
            put_u64(&mut buf, s);
        }
        put_u64(&mut buf, payload.len() as u64);
        for v in payload {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf
    }

    #[test]
    fn aliasing_layouts_are_rejected() {
        // A zero stride would repeat one payload element across a whole
        // dimension — a 4-byte payload claiming a size-1000000 axis.
        let zero = raw_record(&[1_000_000], &[0], &[1.0]);
        assert!(matches!(
            tensor_from_bytes(&zero),
            Err(TensorError::InvalidSpec(_))
        ));
        // Overlapping nonzero strides: dims [3, 3] over a 5-element
        // payload declares 9 logical elements — more than the payload
        // holds, so the layout cannot be injective.
        let overlapping = raw_record(&[3, 3], &[1, 1], &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!(matches!(
            tensor_from_bytes(&overlapping),
            Err(TensorError::InvalidSpec(_))
        ));
        // Even a stride that indexes nothing (a size-1 dimension) must be
        // the row-major one.
        let degenerate = raw_record(&[1, 3], &[0, 1], &[1.0, 2.0, 3.0]);
        assert!(matches!(
            tensor_from_bytes(&degenerate),
            Err(TensorError::InvalidSpec(_))
        ));
        // A zero dimension passes the volume check, but the outer stride
        // of the other two overflows: refused, not a panic or a wrap.
        let huge = raw_record(&[0, 1 << 33, 1 << 33], &[0, 1 << 33, 1], &[]);
        assert!(matches!(
            tensor_from_bytes(&huge),
            Err(TensorError::InvalidSpec(_))
        ));
        assert_eq!(
            tensor_from_bytes(&raw_record(&[1, 3], &[3, 1], &[1.0, 2.0, 3.0]))
                .unwrap()
                .data(),
            &[1.0, 2.0, 3.0]
        );
    }

    #[test]
    fn corruption_is_typed() {
        let bytes = tensor_to_bytes(&tensor(&[2, 2]));
        // Wrong magic.
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert!(matches!(
            tensor_from_bytes(&wrong),
            Err(TensorError::WrongMagic { .. })
        ));
        // Future version.
        let mut future = bytes.clone();
        future[4] = 0xFF;
        future[5] = 0xFF;
        assert!(matches!(
            tensor_from_bytes(&future),
            Err(TensorError::UnsupportedVersion { found: 0xFFFF, .. })
        ));
        // Unknown dtype.
        let mut dtype = bytes.clone();
        dtype[6] = 9;
        assert!(matches!(
            tensor_from_bytes(&dtype),
            Err(TensorError::UnsupportedDtype { found: 9 })
        ));
        // Truncation and trailing garbage.
        assert!(matches!(
            tensor_from_bytes(&bytes[..bytes.len() - 1]),
            Err(TensorError::Truncated { .. })
        ));
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            tensor_from_bytes(&trailing),
            Err(TensorError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn file_container_detects_flipped_bytes() {
        let payload = tensor_to_bytes(&tensor(&[3, 3]));
        let mut framed = frame(&payload);
        assert_eq!(unframe(&framed).unwrap(), payload.as_slice());
        // Flip one payload byte: the checksum must catch it.
        framed[20] ^= 0x40;
        assert!(matches!(
            unframe(&framed),
            Err(TensorError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn record_framing_roundtrips_and_rejects_corruption() {
        let magic = *b"BNJL";
        let a = frame_record(magic, 1, 0, b"header payload");
        let b = frame_record(magic, 1, 1, b"cell payload");
        let mut log = a.clone();
        log.extend_from_slice(&b);

        let (kind, payload, consumed) = read_record(&log, magic, 1).unwrap();
        assert_eq!((kind, payload), (0, b"header payload".as_slice()));
        assert_eq!(consumed, a.len());
        let (kind, payload, consumed) = read_record(&log[a.len()..], magic, 1).unwrap();
        assert_eq!((kind, payload), (1, b"cell payload".as_slice()));
        assert_eq!(a.len() + consumed, log.len());

        // A flipped payload byte invalidates only its own record.
        let mut rotten = log.clone();
        rotten[a.len() + 16] ^= 0x01;
        assert!(read_record(&rotten, magic, 1).is_ok());
        assert!(matches!(
            read_record(&rotten[a.len()..], magic, 1),
            Err(TensorError::ChecksumMismatch { .. })
        ));
        // Truncation mid-record is typed, never a panic.
        assert!(matches!(
            read_record(&a[..a.len() - 3], magic, 1),
            Err(TensorError::Truncated { .. })
        ));
        // Wrong magic and future versions are typed.
        assert!(matches!(
            read_record(&a, *b"XXXX", 1),
            Err(TensorError::WrongMagic { .. })
        ));
        assert!(matches!(
            read_record(&a, magic, 0),
            Err(TensorError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn a_leftover_tmp_file_is_cleaned_up_on_the_next_write() {
        let dir = std::env::temp_dir().join(format!("blurnet-tmpclean-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bndm");
        // A crashed earlier write (different pid) left its temporary
        // sibling behind; the naming appends to the FULL file name.
        let stale = dir.join("model.bndm.tmp.99999");
        std::fs::write(&stale, b"torn garbage from a dead process").unwrap();

        let payload = tensor_to_bytes(&tensor(&[2, 2]));
        write_file_atomic(&path, &payload).unwrap();
        assert_eq!(read_file_verified(&path).unwrap(), payload);
        assert!(!stale.exists(), "stale tmp file must be swept");
        // And the write's own tmp file is gone too.
        let residue: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(residue.is_empty(), "tmp residue: {residue:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sibling_targets_sharing_a_stem_do_not_collide() {
        // `with_extension` would have mapped both `a.bnxs` and `a.bnrp`
        // onto the same `a.tmp.<pid>`; the full-name infix must not.
        let dir = std::env::temp_dir().join(format!("blurnet-stem-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let one = tensor_to_bytes(&tensor(&[2, 2]));
        let two = tensor_to_bytes(&tensor(&[3, 3]));
        write_file_atomic(&dir.join("a.bnxs"), &one).unwrap();
        write_file_atomic(&dir.join("a.bnrp"), &two).unwrap();
        assert_eq!(read_file_verified(&dir.join("a.bnxs")).unwrap(), one);
        assert_eq!(read_file_verified(&dir.join("a.bnrp")).unwrap(), two);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn atomic_write_then_verified_read() {
        let dir = std::env::temp_dir().join(format!("blurnet-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tensor.bnp");
        let payload = tensor_to_bytes(&tensor(&[2, 5]));
        write_file_atomic(&path, &payload).unwrap();
        assert_eq!(read_file_verified(&path).unwrap(), payload);
        // No temporary residue.
        let residue = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .is_some_and(|x| x.to_string_lossy().starts_with("tmp"))
            })
            .count();
        assert_eq!(residue, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
