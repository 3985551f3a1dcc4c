//! Versioned binary persistence for [`DefendedModel`].
//!
//! # Layout (`BNDM`, version 2)
//!
//! ```text
//! magic       4 bytes   b"BNDM"
//! version     u16 LE
//! header_len  u64 LE
//! header      JSON (vendored serde): defense, arch, report
//! network     embedded BNSQ record (blurnet_nn::persist)
//! ```
//!
//! The header rides the vendored serde JSON because everything in it is
//! small structured config (the [`DefenseKind`], the [`LisaCnnConfig`] —
//! including the fixed-blur kernel, whose f32s round-trip exactly through
//! the workspace's JSON — and the [`TrainingReport`]); the weight payload
//! stays binary via the `BNSQ`/`BNTR` records.
//!
//! Version 1 headers also carried a draw count, the position of a
//! per-model smoothing RNG. Inference carries no state (each image's
//! smoothing noise is seeded by the image itself), so version 2 drops the
//! field. Version 1 files still load: the JSON decoder skips the unknown
//! field, and every version 1 file this program wrote holds 0 there.
//! A decoded defense must pass `DefenseKind::validate`, so a hostile
//! header cannot ask for, say, billions of smoothing samples.

use blurnet_nn::persist::{read_sequential, write_sequential};
use blurnet_nn::LisaCnnConfig;
use blurnet_tensor::persist::{put_u64, ByteReader};
use blurnet_tensor::TensorError;
use serde::{Deserialize, Serialize};

use crate::model::TrainingReport;
use crate::{DefendedModel, DefenseError, DefenseKind, Result};

/// Magic bytes opening a serialized [`DefendedModel`].
const MODEL_MAGIC: [u8; 4] = *b"BNDM";
/// Newest model format version this build reads and writes.
const MODEL_VERSION: u16 = 2;

/// The JSON header of a persisted model: everything except the weights.
#[derive(Debug, Serialize, Deserialize)]
struct ModelHeader {
    defense: DefenseKind,
    arch: LisaCnnConfig,
    report: TrainingReport,
}

fn tensor_fail(e: TensorError) -> DefenseError {
    DefenseError::Tensor(e)
}

/// Serializes a model as a standalone binary record.
///
/// # Errors
///
/// Returns [`DefenseError::BadConfig`] if the header cannot be encoded (a
/// bug, not an input condition).
pub fn model_to_bytes(model: &DefendedModel) -> Result<Vec<u8>> {
    let header = ModelHeader {
        defense: model.defense().clone(),
        arch: model.arch().clone(),
        report: model.training_report().clone(),
    };
    let header_json = serde_json::to_vec(&header)
        .map_err(|e| DefenseError::BadConfig(format!("encoding model header: {e}")))?;
    let mut buf = Vec::new();
    buf.extend_from_slice(&MODEL_MAGIC);
    buf.extend_from_slice(&MODEL_VERSION.to_le_bytes());
    put_u64(&mut buf, header_json.len() as u64);
    buf.extend_from_slice(&header_json);
    write_sequential(&mut buf, model.network());
    Ok(buf)
}

/// Deserializes a standalone model record, rejecting trailing bytes.
///
/// # Errors
///
/// Returns [`DefenseError::Tensor`] for the typed persist errors (wrong
/// magic, future version, truncation), [`DefenseError::BadConfig`] for a
/// malformed header or out-of-range defense parameters and
/// [`DefenseError::Network`] for a malformed weight section.
pub fn model_from_bytes(bytes: &[u8]) -> Result<DefendedModel> {
    let mut reader = ByteReader::new(bytes);
    reader.expect_magic(MODEL_MAGIC).map_err(tensor_fail)?;
    reader.expect_version(MODEL_VERSION).map_err(tensor_fail)?;
    let header_len = reader.usize_le().map_err(tensor_fail)?;
    let header_json = reader.take(header_len).map_err(tensor_fail)?;
    let header: ModelHeader = serde_json::from_slice(header_json)
        .map_err(|e| DefenseError::BadConfig(format!("decoding model header: {e}")))?;
    header.defense.validate()?;
    let net = read_sequential(&mut reader)?;
    reader.finish().map_err(tensor_fail)?;
    Ok(DefendedModel::new(
        net,
        header.defense,
        header.arch,
        header.report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use blurnet_nn::LisaCnn;
    use blurnet_tensor::Tensor;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn untrained(defense: DefenseKind) -> DefendedModel {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let builder = LisaCnn::new(18).input_size(16).conv1_filters(4);
        let net = builder.build(&mut rng).unwrap();
        DefendedModel::new(
            net,
            defense,
            builder.config().clone(),
            TrainingReport {
                epoch_losses: vec![0.5, 0.25],
                test_accuracy: 0.75,
            },
        )
    }

    /// Every defense's classification of one batch, from one engine.
    fn classify(model: &DefendedModel) -> Vec<(usize, f32)> {
        let images: Vec<Tensor> = (0..3)
            .map(|i| Tensor::full(&[3, 16, 16], 0.2 + 0.2 * i as f32))
            .collect();
        let engine = model.network().batch_engine().unwrap();
        model
            .classify(&engine, &Tensor::stack(&images).unwrap())
            .unwrap()
    }

    #[test]
    fn roundtrip_preserves_classification_bitwise() {
        for defense in [
            DefenseKind::Baseline,
            DefenseKind::InputFilter { kernel: 3 },
            DefenseKind::FeatureFilter { kernel: 5 },
            DefenseKind::RandomizedSmoothing {
                sigma: 0.1,
                samples: 5,
            },
        ] {
            let model = untrained(defense);
            let restored = model_from_bytes(&model_to_bytes(&model).unwrap()).unwrap();
            assert_eq!(model.defense(), restored.defense());
            assert_eq!(model.arch(), restored.arch());
            assert_eq!(model.training_report(), restored.training_report());
            assert_eq!(classify(&model), classify(&restored));
        }
    }

    #[test]
    fn v1_files_load_and_classify_identically() {
        let model = untrained(DefenseKind::RandomizedSmoothing {
            sigma: 0.1,
            samples: 5,
        });
        // A version 1 file, written field by field: its header also holds
        // the retired smoothing draw count (always 0 in files this program
        // wrote).
        let header = format!(
            "{{\"defense\":{},\"arch\":{},\"report\":{},\"smoothing_draws\":0}}",
            serde_json::to_string(model.defense()).unwrap(),
            serde_json::to_string(model.arch()).unwrap(),
            serde_json::to_string(model.training_report()).unwrap()
        );
        let mut v1 = Vec::new();
        v1.extend_from_slice(b"BNDM");
        v1.extend_from_slice(&1u16.to_le_bytes());
        put_u64(&mut v1, header.len() as u64);
        v1.extend_from_slice(header.as_bytes());
        write_sequential(&mut v1, model.network());

        let loaded = model_from_bytes(&v1).unwrap();
        assert_eq!(loaded.defense(), model.defense());
        assert_eq!(loaded.arch(), model.arch());
        assert_eq!(loaded.training_report(), model.training_report());
        assert_eq!(classify(&loaded), classify(&model));
        // Saving it again writes the current version.
        assert_eq!(
            model_to_bytes(&loaded).unwrap(),
            model_to_bytes(&model).unwrap()
        );
    }

    #[test]
    fn wrong_magic_and_future_versions_are_typed() {
        let bytes = model_to_bytes(&untrained(DefenseKind::Baseline)).unwrap();
        let mut wrong = bytes.clone();
        wrong[0] = b'Z';
        assert!(matches!(
            model_from_bytes(&wrong),
            Err(DefenseError::Tensor(TensorError::WrongMagic { .. }))
        ));
        let mut future = bytes.clone();
        future[4] = 0x7F;
        future[5] = 0x7F;
        assert!(matches!(
            model_from_bytes(&future),
            Err(DefenseError::Tensor(TensorError::UnsupportedVersion { .. }))
        ));
        assert!(model_from_bytes(&bytes[..bytes.len() - 3]).is_err());
    }
}
