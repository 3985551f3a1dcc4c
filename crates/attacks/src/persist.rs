//! Versioned binary persistence for the expensive attack artifacts: the
//! surrogate transfer set and RP2 sticker results.
//!
//! Both artifacts sit on the scheduler's critical path (every Table I /
//! Table V cell consumes one of them), so caching them to disk lets a
//! resumed or warm-cache run skip the optimization entirely. Tensors ride
//! the `BNTR` records of [`blurnet_tensor::persist`].
//!
//! # Transfer-set layout (`BNXS`, version 1)
//!
//! ```text
//! magic     4 bytes   b"BNXS"
//! version   u16 LE
//! target    u64 LE    attacker's target class
//! count     u64 LE    number of images
//! labels    count × u64 LE
//! clean     count × tensor record
//! adv       count × tensor record (index-aligned with clean)
//! ```
//!
//! # RP2 result layout (`BNRP`, version 1)
//!
//! ```text
//! magic         4 bytes   b"BNRP"
//! version       u16 LE
//! trace_len     u64 LE
//! loss_trace    trace_len × f32 LE
//! adversarial   tensor record
//! perturbation  tensor record
//! ```

use blurnet_tensor::persist::{put_u64, read_tensor, write_tensor, ByteReader};
use blurnet_tensor::TensorError;

use crate::{AttackError, Result, Rp2Result, TransferSet};

/// Magic bytes opening a serialized [`TransferSet`].
const TRANSFER_MAGIC: [u8; 4] = *b"BNXS";
/// Newest transfer-set format version this build reads and writes.
const TRANSFER_VERSION: u16 = 1;

/// Magic bytes opening a serialized [`Rp2Result`].
const RP2_MAGIC: [u8; 4] = *b"BNRP";
/// Newest RP2-result format version this build reads and writes.
const RP2_VERSION: u16 = 1;

fn fail(e: TensorError) -> AttackError {
    AttackError::Tensor(e)
}

/// Smallest possible encoded tensor record: magic + version + dtype +
/// rank + len, with rank 0 and no payload.
const MIN_TENSOR_RECORD: usize = 16;

/// Rejects a declared element count the remaining input cannot possibly
/// satisfy at `min_size` bytes per element — the guard that keeps a
/// crafted count field from driving a huge up-front allocation before
/// any element has been read.
fn check_declared_count(count: usize, min_size: usize, remaining: usize) -> Result<()> {
    let needed = count.checked_mul(min_size).ok_or_else(|| {
        fail(TensorError::InvalidSpec(format!(
            "declared count {count} overflows usize"
        )))
    })?;
    if remaining < needed {
        return Err(fail(TensorError::Truncated {
            needed,
            available: remaining,
        }));
    }
    Ok(())
}

/// Serializes a transfer set as a standalone binary record.
pub fn transfer_set_to_bytes(set: &TransferSet) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&TRANSFER_MAGIC);
    buf.extend_from_slice(&TRANSFER_VERSION.to_le_bytes());
    put_u64(&mut buf, set.target as u64);
    put_u64(&mut buf, set.clean.len() as u64);
    for &label in &set.labels {
        put_u64(&mut buf, label as u64);
    }
    for t in &set.clean {
        write_tensor(&mut buf, t);
    }
    for t in &set.adversarial {
        write_tensor(&mut buf, t);
    }
    buf
}

/// Deserializes a standalone transfer-set record, rejecting trailing
/// bytes.
///
/// # Errors
///
/// Returns [`AttackError::Tensor`] wrapping the typed persist errors.
pub fn transfer_set_from_bytes(bytes: &[u8]) -> Result<TransferSet> {
    let mut reader = ByteReader::new(bytes);
    reader.expect_magic(TRANSFER_MAGIC).map_err(fail)?;
    reader.expect_version(TRANSFER_VERSION).map_err(fail)?;
    let target = reader.usize_le().map_err(fail)?;
    let count = reader.usize_le().map_err(fail)?;
    // Every image costs at least a u64 label plus two tensor records.
    check_declared_count(count, 8 + 2 * MIN_TENSOR_RECORD, reader.remaining())?;
    let mut labels = Vec::with_capacity(count);
    for _ in 0..count {
        labels.push(reader.usize_le().map_err(fail)?);
    }
    let mut clean = Vec::with_capacity(count);
    for _ in 0..count {
        clean.push(read_tensor(&mut reader).map_err(fail)?);
    }
    let mut adversarial = Vec::with_capacity(count);
    for _ in 0..count {
        adversarial.push(read_tensor(&mut reader).map_err(fail)?);
    }
    reader.finish().map_err(fail)?;
    Ok(TransferSet {
        clean,
        adversarial,
        labels,
        target,
    })
}

/// Serializes an RP2 result as a standalone binary record.
pub fn rp2_result_to_bytes(result: &Rp2Result) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&RP2_MAGIC);
    buf.extend_from_slice(&RP2_VERSION.to_le_bytes());
    put_u64(&mut buf, result.loss_trace.len() as u64);
    for v in &result.loss_trace {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    write_tensor(&mut buf, &result.adversarial);
    write_tensor(&mut buf, &result.perturbation);
    buf
}

/// Deserializes a standalone RP2-result record, rejecting trailing bytes.
///
/// # Errors
///
/// Returns [`AttackError::Tensor`] wrapping the typed persist errors.
pub fn rp2_result_from_bytes(bytes: &[u8]) -> Result<Rp2Result> {
    let mut reader = ByteReader::new(bytes);
    reader.expect_magic(RP2_MAGIC).map_err(fail)?;
    reader.expect_version(RP2_VERSION).map_err(fail)?;
    let trace_len = reader.usize_le().map_err(fail)?;
    check_declared_count(trace_len, 4, reader.remaining())?;
    let mut loss_trace = Vec::with_capacity(trace_len);
    for _ in 0..trace_len {
        let b = reader.take(4).map_err(fail)?;
        loss_trace.push(f32::from_le_bytes(b.try_into().expect("four bytes")));
    }
    let adversarial = read_tensor(&mut reader).map_err(fail)?;
    let perturbation = read_tensor(&mut reader).map_err(fail)?;
    reader.finish().map_err(fail)?;
    Ok(Rp2Result {
        adversarial,
        perturbation,
        loss_trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use blurnet_tensor::Tensor;

    fn tensor(seed: f32, dims: &[usize]) -> Tensor {
        let volume: usize = dims.iter().product();
        Tensor::from_vec(
            (0..volume).map(|v| seed + v as f32 * 0.03125).collect(),
            dims,
        )
        .unwrap()
    }

    fn bits(tensors: &[Tensor]) -> Vec<Vec<u32>> {
        tensors
            .iter()
            .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn transfer_set_roundtrips_bitwise() {
        let set = TransferSet {
            clean: vec![tensor(0.1, &[3, 8, 8]), tensor(0.2, &[3, 8, 8])],
            adversarial: vec![tensor(0.3, &[3, 8, 8]), tensor(0.4, &[3, 8, 8])],
            labels: vec![5, 11],
            target: 14,
        };
        let restored = transfer_set_from_bytes(&transfer_set_to_bytes(&set)).unwrap();
        assert_eq!(restored.target, set.target);
        assert_eq!(restored.labels, set.labels);
        assert_eq!(bits(&restored.clean), bits(&set.clean));
        assert_eq!(bits(&restored.adversarial), bits(&set.adversarial));
    }

    #[test]
    fn rp2_result_roundtrips_bitwise() {
        let result = Rp2Result {
            adversarial: tensor(0.5, &[3, 8, 8]),
            perturbation: tensor(-0.25, &[3, 8, 8]),
            loss_trace: vec![2.5, 1.25, 0.625],
        };
        let restored = rp2_result_from_bytes(&rp2_result_to_bytes(&result)).unwrap();
        assert_eq!(
            bits(std::slice::from_ref(&restored.adversarial)),
            bits(std::slice::from_ref(&result.adversarial))
        );
        assert_eq!(
            bits(std::slice::from_ref(&restored.perturbation)),
            bits(std::slice::from_ref(&result.perturbation))
        );
        let trace_bits: Vec<u32> = restored.loss_trace.iter().map(|v| v.to_bits()).collect();
        let expect_bits: Vec<u32> = result.loss_trace.iter().map(|v| v.to_bits()).collect();
        assert_eq!(trace_bits, expect_bits);
    }

    #[test]
    fn huge_declared_counts_are_rejected_before_allocating() {
        // A header-only payload claiming 2^40 images must come back as a
        // typed truncation, not abort the process allocating for them.
        let mut transfer = Vec::new();
        transfer.extend_from_slice(&TRANSFER_MAGIC);
        transfer.extend_from_slice(&TRANSFER_VERSION.to_le_bytes());
        put_u64(&mut transfer, 0); // target
        put_u64(&mut transfer, 1 << 40); // count
        assert!(matches!(
            transfer_set_from_bytes(&transfer),
            Err(AttackError::Tensor(TensorError::Truncated { .. }))
        ));

        let mut rp2 = Vec::new();
        rp2.extend_from_slice(&RP2_MAGIC);
        rp2.extend_from_slice(&RP2_VERSION.to_le_bytes());
        put_u64(&mut rp2, 1 << 40); // trace_len
        assert!(matches!(
            rp2_result_from_bytes(&rp2),
            Err(AttackError::Tensor(TensorError::Truncated { .. }))
        ));

        // A count whose byte cost overflows usize is typed too.
        let mut overflow = Vec::new();
        overflow.extend_from_slice(&RP2_MAGIC);
        overflow.extend_from_slice(&RP2_VERSION.to_le_bytes());
        put_u64(&mut overflow, u64::MAX);
        assert!(matches!(
            rp2_result_from_bytes(&overflow),
            Err(AttackError::Tensor(TensorError::InvalidSpec(_)))
        ));
    }

    #[test]
    fn corruption_is_typed() {
        let set = TransferSet {
            clean: vec![tensor(0.1, &[2, 2])],
            adversarial: vec![tensor(0.2, &[2, 2])],
            labels: vec![3],
            target: 1,
        };
        let bytes = transfer_set_to_bytes(&set);
        let mut wrong = bytes.clone();
        wrong[0] = b'?';
        assert!(matches!(
            transfer_set_from_bytes(&wrong),
            Err(AttackError::Tensor(TensorError::WrongMagic { .. }))
        ));
        assert!(matches!(
            transfer_set_from_bytes(&bytes[..bytes.len() - 2]),
            Err(AttackError::Tensor(TensorError::Truncated { .. }))
        ));
        let rp2 = Rp2Result {
            adversarial: tensor(0.5, &[2, 2]),
            perturbation: tensor(0.1, &[2, 2]),
            loss_trace: vec![1.0],
        };
        let mut future = rp2_result_to_bytes(&rp2);
        future[4] = 0xFF;
        future[5] = 0xFF;
        assert!(matches!(
            rp2_result_from_bytes(&future),
            Err(AttackError::Tensor(TensorError::UnsupportedVersion { .. }))
        ));
    }
}
