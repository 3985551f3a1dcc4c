//! A disk cache of trained [`DefendedModel`]s, keyed by everything that
//! determines their weights.
//!
//! # Cache key
//!
//! A variant's identity is the tuple **(trainer revision, architecture,
//! defense config, trainer config, dataset seed, dims)** — the revision
//! marks the code that produced the stored bytes ([`TRAINER_REVISION`]),
//! `TrainConfig` carries the optimizer seed, the dataset seed pins the
//! generated training set (two runs with different `--seed`s train
//! different weights), and [`build_architecture`] derives the
//! architecture from the defense and dims without initializing a weight,
//! so the key is computable *before* training (the whole point: a
//! scheduler can probe the cache instead of paying for the train). The
//! tuple is serialized to canonical JSON and FNV-1a-hashed into the file
//! name, alongside a human-readable defense slug:
//!
//! ```text
//! <cache-dir>/baseline-93ab…f2.bndm
//! <cache-dir>/feature-filter-3x3-07cd…11.bndm
//! ```
//!
//! # Integrity
//!
//! Entries are `BNCE` records — the canonical key JSON followed by the
//! embedded `BNDM` model — inside the checksummed `BNPF` file container,
//! written atomically (temp sibling + rename). [`DiskVariantCache::load`]
//! distinguishes **absent** (`Ok(None)`) from **corrupt** (`Err` with the
//! typed persist error), so callers can treat corruption as a cache miss
//! and retrain — never serve a half-written or bit-rotted model. Because
//! the full key rides inside the entry, a load compares it byte-for-byte
//! against the requested identity: a 64-bit file-name hash collision, a
//! renamed file or a tampered header all surface as a typed mismatch
//! instead of silently serving the wrong weights.

use std::path::PathBuf;

use blurnet_nn::LisaCnnConfig;
use blurnet_tensor::persist::{fnv1a, put_u64, read_file_verified, write_file_atomic, ByteReader};
use serde::Serialize;

use crate::persist::{model_from_bytes, model_to_bytes};
use crate::trainer::build_architecture;
use crate::{DefendedModel, DefenseError, DefenseKind, Result, TrainConfig};

/// File extension of persisted model entries.
const MODEL_EXT: &str = "bndm";

/// Magic bytes opening a cache entry (key header + embedded model).
const ENTRY_MAGIC: [u8; 4] = *b"BNCE";
/// Newest cache-entry format version this build reads and writes.
const ENTRY_VERSION: u16 = 1;

/// Revision of the code behind every stored byte, part of every cache key.
/// It covers the whole entry, not only the training arithmetic: bump it
/// whenever a stored byte changes (a new reduction order in training, or
/// a new defended inference path behind the report's accuracy). A cache
/// filled by an older build then misses instead of serving stale bytes.
///
/// Revision 1: training steps shard the batch into fixed
/// `blurnet_nn::TRAIN_SHARD_ROWS` blocks and sum their gradients in block
/// order. Keys without a revision came from whole-batch training steps.
///
/// Revision 2: smoothing seeds each image's noise from the image, which
/// changes smoothing models' stored accuracy.
const TRAINER_REVISION: u32 = 2;

/// The serialized form of a cache key; hashing its JSON gives the file
/// name, and the JSON itself is embedded in the entry so a load can
/// verify it got the identity it asked for. Field order is fixed by this
/// struct, so the encoding is canonical. (Owned fields: the vendored
/// derive does not handle lifetime-generic types.)
#[derive(Serialize)]
struct KeyRecord {
    trainer_revision: u32,
    defense: DefenseKind,
    train: TrainConfig,
    dataset_seed: u64,
    image_size: usize,
    num_classes: usize,
    arch: LisaCnnConfig,
}

/// A directory of trained models, one checksummed file per variant.
#[derive(Debug, Clone)]
pub struct DiskVariantCache {
    dir: PathBuf,
}

impl DiskVariantCache {
    /// Opens (creating if necessary) a cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns [`DefenseError::Tensor`] wrapping the I/O failure if the
    /// directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| {
            DefenseError::Tensor(blurnet_tensor::TensorError::Io(format!(
                "creating cache dir {}: {e}",
                dir.display()
            )))
        })?;
        Ok(DiskVariantCache { dir })
    }

    /// The key record for a variant identity.
    fn key_record(
        defense: &DefenseKind,
        train: &TrainConfig,
        image_size: usize,
        num_classes: usize,
        dataset_seed: u64,
    ) -> Result<KeyRecord> {
        // The architecture is deterministic in (defense, dims), so deriving
        // it here keeps it part of the key without the caller having
        // trained (or initialized) anything.
        let builder = build_architecture(defense, image_size, num_classes)?;
        Ok(KeyRecord {
            trainer_revision: TRAINER_REVISION,
            defense: defense.clone(),
            train: *train,
            dataset_seed,
            image_size,
            num_classes,
            arch: builder.config().clone(),
        })
    }

    /// The canonical key JSON for a variant identity.
    fn key_json(
        defense: &DefenseKind,
        train: &TrainConfig,
        image_size: usize,
        num_classes: usize,
        dataset_seed: u64,
    ) -> Result<Vec<u8>> {
        let record = Self::key_record(defense, train, image_size, num_classes, dataset_seed)?;
        encode_key(&record)
    }

    /// The file name a key hashes to.
    fn entry_path(&self, defense: &DefenseKind, key_json: &[u8]) -> PathBuf {
        let hash = fnv1a(key_json);
        let slug = slugify(&defense.label());
        self.dir.join(format!("{slug}-{hash:016x}.{MODEL_EXT}"))
    }

    /// Loads the cached model for this identity, distinguishing a miss
    /// (`Ok(None)`) from a damaged entry (`Err`).
    ///
    /// # Errors
    ///
    /// Returns the typed persist errors for torn, truncated, bit-flipped
    /// or future-versioned entries, and [`DefenseError::BadConfig`] if the
    /// entry decodes but its embedded key differs from the requested one
    /// (a file-name hash collision, a renamed file or a tampered header —
    /// either way, not the asked-for model).
    pub fn load(
        &self,
        defense: &DefenseKind,
        train: &TrainConfig,
        image_size: usize,
        num_classes: usize,
        dataset_seed: u64,
    ) -> Result<Option<DefendedModel>> {
        let expected = Self::key_json(defense, train, image_size, num_classes, dataset_seed)?;
        let path = self.entry_path(defense, &expected);
        if !path.exists() {
            return Ok(None);
        }
        let payload = read_file_verified(&path).map_err(DefenseError::Tensor)?;
        let (stored_key, model) = entry_from_bytes(&payload)?;
        if stored_key != expected {
            return Err(DefenseError::BadConfig(format!(
                "cache entry {} holds a different variant identity than requested \
                 (hash collision or tampered/renamed file)",
                path.display()
            )));
        }
        Ok(Some(model))
    }

    /// Stores a trained model under its identity, atomically. Returns the
    /// entry's path.
    ///
    /// # Errors
    ///
    /// Returns [`DefenseError::Tensor`] for filesystem failures.
    pub fn store(
        &self,
        model: &DefendedModel,
        train: &TrainConfig,
        image_size: usize,
        num_classes: usize,
        dataset_seed: u64,
    ) -> Result<PathBuf> {
        let key = Self::key_json(
            model.defense(),
            train,
            image_size,
            num_classes,
            dataset_seed,
        )?;
        let path = self.entry_path(model.defense(), &key);
        let payload = entry_to_bytes(&key, model)?;
        write_file_atomic(&path, &payload).map_err(DefenseError::Tensor)?;
        Ok(path)
    }
}

/// Encodes a key record as its canonical JSON.
fn encode_key<K: Serialize>(record: &K) -> Result<Vec<u8>> {
    serde_json::to_vec(record)
        .map_err(|e| DefenseError::BadConfig(format!("encoding cache key: {e}")))
}

/// Serializes a cache entry: the canonical key JSON followed by the
/// embedded model record.
fn entry_to_bytes(key_json: &[u8], model: &DefendedModel) -> Result<Vec<u8>> {
    let model_bytes = model_to_bytes(model)?;
    let mut buf = Vec::with_capacity(14 + key_json.len() + model_bytes.len());
    buf.extend_from_slice(&ENTRY_MAGIC);
    buf.extend_from_slice(&ENTRY_VERSION.to_le_bytes());
    put_u64(&mut buf, key_json.len() as u64);
    buf.extend_from_slice(key_json);
    buf.extend_from_slice(&model_bytes);
    Ok(buf)
}

/// Deserializes a cache entry into its key JSON and model.
fn entry_from_bytes(bytes: &[u8]) -> Result<(Vec<u8>, DefendedModel)> {
    let mut reader = ByteReader::new(bytes);
    reader
        .expect_magic(ENTRY_MAGIC)
        .map_err(DefenseError::Tensor)?;
    reader
        .expect_version(ENTRY_VERSION)
        .map_err(DefenseError::Tensor)?;
    let key_len = reader.usize_le().map_err(DefenseError::Tensor)?;
    let key = reader.take(key_len).map_err(DefenseError::Tensor)?.to_vec();
    let model = model_from_bytes(
        reader
            .take(reader.remaining())
            .map_err(DefenseError::Tensor)?,
    )?;
    Ok((key, model))
}

/// Decodes the payload of a verified model file — either a bare `BNDM`
/// model record (the `serve --model-path` export shape) or a `BNCE`
/// cache entry, whose key header is skipped. This is what lets a file
/// written by the scheduler's `--cache-dir` be handed straight to
/// `serve --model-path`.
///
/// # Errors
///
/// Returns the typed persist errors of either record format.
pub fn model_from_file_bytes(bytes: &[u8]) -> Result<DefendedModel> {
    if bytes.len() >= 4 && bytes[..4] == ENTRY_MAGIC {
        let (_, model) = entry_from_bytes(bytes)?;
        return Ok(model);
    }
    model_from_bytes(bytes)
}

/// Lowercases a defense label into a filesystem-safe slug.
fn slugify(label: &str) -> String {
    let mut slug = String::with_capacity(label.len());
    for ch in label.chars() {
        if ch.is_ascii_alphanumeric() {
            slug.push(ch.to_ascii_lowercase());
        } else if !slug.ends_with('-') {
            slug.push('-');
        }
    }
    slug.trim_matches('-').to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use blurnet_tensor::{Tensor, TensorError};
    use rand::SeedableRng;

    const SEED: u64 = 7;

    fn temp_cache(tag: &str) -> DiskVariantCache {
        let dir =
            std::env::temp_dir().join(format!("blurnet-disk-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        DiskVariantCache::open(dir).unwrap()
    }

    /// The file a variant with this identity lives at (whether or not it
    /// exists yet).
    fn model_path(
        cache: &DiskVariantCache,
        defense: &DefenseKind,
        train: &TrainConfig,
        image_size: usize,
        num_classes: usize,
        dataset_seed: u64,
    ) -> PathBuf {
        let key = DiskVariantCache::key_json(defense, train, image_size, num_classes, dataset_seed)
            .unwrap();
        cache.entry_path(defense, &key)
    }

    fn tiny_model(defense: DefenseKind, train: &TrainConfig) -> DefendedModel {
        let builder = build_architecture(&defense, 16, 18).unwrap();
        let net = builder
            .build(&mut rand_chacha::ChaCha8Rng::seed_from_u64(train.seed))
            .unwrap();
        DefendedModel::new(
            net,
            defense,
            builder.config().clone(),
            crate::TrainingReport {
                epoch_losses: vec![1.0],
                test_accuracy: 0.5,
            },
        )
    }

    #[test]
    fn store_then_load_is_bitwise_identical() {
        let cache = temp_cache("roundtrip");
        let train = TrainConfig::tiny();
        let defense = DefenseKind::FeatureFilter { kernel: 3 };
        let model = tiny_model(defense.clone(), &train);
        cache.store(&model, &train, 16, 18, SEED).unwrap();
        assert_eq!(std::fs::read_dir(&cache.dir).unwrap().count(), 1);
        let loaded = cache.load(&defense, &train, 16, 18, SEED).unwrap().unwrap();
        let images: Vec<Tensor> = (0..3)
            .map(|i| Tensor::full(&[3, 16, 16], 0.1 + 0.3 * i as f32))
            .collect();
        let batch = Tensor::stack(&images).unwrap();
        let classify = |m: &DefendedModel| {
            m.classify(&m.network().batch_engine().unwrap(), &batch)
                .unwrap()
        };
        assert_eq!(classify(&model), classify(&loaded));
        std::fs::remove_dir_all(&cache.dir).unwrap();
    }

    #[test]
    fn absent_entries_are_a_miss_not_an_error() {
        let cache = temp_cache("miss");
        assert!(cache
            .load(&DefenseKind::Baseline, &TrainConfig::tiny(), 16, 18, SEED)
            .unwrap()
            .is_none());
        assert_eq!(std::fs::read_dir(&cache.dir).unwrap().count(), 0);
        std::fs::remove_dir_all(&cache.dir).unwrap();
    }

    #[test]
    fn key_separates_defense_seeds_and_trainer() {
        let cache = temp_cache("keys");
        let base = TrainConfig::tiny();
        let other_seed = TrainConfig { seed: 8, ..base };
        let other_lr = TrainConfig {
            learning_rate: 1e-4,
            ..base
        };
        let p0 = model_path(&cache, &DefenseKind::Baseline, &base, 16, 18, SEED);
        let p1 = model_path(
            &cache,
            &DefenseKind::InputFilter { kernel: 3 },
            &base,
            16,
            18,
            SEED,
        );
        let p2 = model_path(&cache, &DefenseKind::Baseline, &other_seed, 16, 18, SEED);
        let p3 = model_path(&cache, &DefenseKind::Baseline, &other_lr, 16, 18, SEED);
        let p4 = model_path(&cache, &DefenseKind::Baseline, &base, 32, 18, SEED);
        // The dataset seed alone must separate entries: same defense, same
        // trainer, same dims, different generated training set.
        let p5 = model_path(&cache, &DefenseKind::Baseline, &base, 16, 18, SEED + 1);
        let paths = [&p0, &p1, &p2, &p3, &p4, &p5];
        for (i, a) in paths.iter().enumerate() {
            for b in &paths[i + 1..] {
                assert_ne!(a, b);
            }
        }
        std::fs::remove_dir_all(&cache.dir).unwrap();
    }

    #[test]
    fn entries_of_an_older_trainer_revision_miss_without_error() {
        let cache = temp_cache("revision");
        let train = TrainConfig::tiny();
        let defense = DefenseKind::Baseline;
        let model = tiny_model(defense.clone(), &train);
        let current = DiskVariantCache::key_record(&defense, &train, 16, 18, SEED).unwrap();
        // The key an older build wrote: the previous revision, and the
        // layout from before keys carried one.
        #[derive(Serialize)]
        struct UnrevisionedKey {
            defense: DefenseKind,
            train: TrainConfig,
            dataset_seed: u64,
            image_size: usize,
            num_classes: usize,
            arch: LisaCnnConfig,
        }
        let unrevisioned = UnrevisionedKey {
            defense: current.defense.clone(),
            train: current.train,
            dataset_seed: current.dataset_seed,
            image_size: current.image_size,
            num_classes: current.num_classes,
            arch: current.arch.clone(),
        };
        let previous = KeyRecord {
            trainer_revision: TRAINER_REVISION - 1,
            ..current
        };
        for old_key in [
            encode_key(&previous).unwrap(),
            encode_key(&unrevisioned).unwrap(),
        ] {
            let path = cache.entry_path(&defense, &old_key);
            write_file_atomic(&path, &entry_to_bytes(&old_key, &model).unwrap()).unwrap();
        }
        assert_eq!(std::fs::read_dir(&cache.dir).unwrap().count(), 2);
        assert!(
            cache
                .load(&defense, &train, 16, 18, SEED)
                .unwrap()
                .is_none(),
            "an older revision's weights must not be served"
        );
        // Storing under the current revision adds a third entry, which hits.
        cache.store(&model, &train, 16, 18, SEED).unwrap();
        assert_eq!(std::fs::read_dir(&cache.dir).unwrap().count(), 3);
        assert!(cache
            .load(&defense, &train, 16, 18, SEED)
            .unwrap()
            .is_some());
        std::fs::remove_dir_all(&cache.dir).unwrap();
    }

    #[test]
    fn a_renamed_entry_is_rejected_not_served() {
        let cache = temp_cache("renamed");
        let train = TrainConfig::tiny();
        let defense = DefenseKind::Baseline;
        let stored = cache
            .store(&tiny_model(defense.clone(), &train), &train, 16, 18, SEED)
            .unwrap();
        // Move the seed-7 entry to where the seed-8 entry would live: the
        // checksum still passes, but the embedded key must not.
        let other = model_path(&cache, &defense, &train, 16, 18, SEED + 1);
        std::fs::rename(&stored, &other).unwrap();
        assert!(matches!(
            cache.load(&defense, &train, 16, 18, SEED + 1),
            Err(DefenseError::BadConfig(_))
        ));
        // The original identity is now simply absent.
        assert!(cache
            .load(&defense, &train, 16, 18, SEED)
            .unwrap()
            .is_none());
        std::fs::remove_dir_all(&cache.dir).unwrap();
    }

    #[test]
    fn cache_entries_decode_via_the_model_path_loader() {
        let cache = temp_cache("entry-decode");
        let train = TrainConfig::tiny();
        let defense = DefenseKind::InputFilter { kernel: 3 };
        let path = cache
            .store(&tiny_model(defense.clone(), &train), &train, 16, 18, SEED)
            .unwrap();
        let payload = read_file_verified(&path).unwrap();
        // The `serve --model-path` loader accepts both shapes.
        let from_entry = model_from_file_bytes(&payload).unwrap();
        assert_eq!(from_entry.defense(), &defense);
        let bare = model_to_bytes(&from_entry).unwrap();
        let from_bare = model_from_file_bytes(&bare).unwrap();
        assert_eq!(from_bare.defense(), &defense);
        std::fs::remove_dir_all(&cache.dir).unwrap();
    }

    #[test]
    fn hostile_smoothing_headers_are_typed_errors() {
        let model = tiny_model(DefenseKind::Baseline, &TrainConfig::tiny());
        // A bare `BNDM` record whose smoothing fields are written by hand,
        // and the same record inside a `BNCE` entry.
        let records = |sigma: &str, samples: &str| {
            let header = format!(
                "{{\"defense\":{{\"RandomizedSmoothing\":{{\"sigma\":{sigma},\"samples\":{samples}}}}},\
                 \"arch\":{},\"report\":{}}}",
                serde_json::to_string(model.arch()).unwrap(),
                serde_json::to_string(model.training_report()).unwrap()
            );
            let mut bare = Vec::new();
            bare.extend_from_slice(b"BNDM");
            bare.extend_from_slice(&2u16.to_le_bytes());
            put_u64(&mut bare, header.len() as u64);
            bare.extend_from_slice(header.as_bytes());
            blurnet_nn::persist::write_sequential(&mut bare, model.network());
            let key = b"{}";
            let mut entry = Vec::new();
            entry.extend_from_slice(b"BNCE");
            entry.extend_from_slice(&1u16.to_le_bytes());
            put_u64(&mut entry, key.len() as u64);
            entry.extend_from_slice(key);
            entry.extend_from_slice(&bare);
            [bare, entry]
        };
        // The hand encoding itself is sound: in-range values decode.
        for bytes in records("0.1", "8") {
            let decoded = model_from_file_bytes(&bytes).unwrap();
            assert_eq!(
                decoded.defense(),
                &DefenseKind::RandomizedSmoothing {
                    sigma: 0.1,
                    samples: 8
                }
            );
        }
        let huge = (1u64 << 40).to_string();
        for (sigma, samples) in [("0.1", "0"), ("-1.0", "8"), ("0.1", huge.as_str())] {
            for bytes in records(sigma, samples) {
                // Refused by the range check, not by the JSON decoder.
                let err = model_from_file_bytes(&bytes).unwrap_err();
                assert!(
                    matches!(&err, DefenseError::BadConfig(m) if m.starts_with("smoothing")),
                    "sigma={sigma}, samples={samples}: {err}"
                );
            }
        }
    }

    #[test]
    fn corruption_is_an_error_not_a_silent_miss() {
        let cache = temp_cache("corrupt");
        let train = TrainConfig::tiny();
        let defense = DefenseKind::Baseline;
        let path = cache
            .store(&tiny_model(defense.clone(), &train), &train, 16, 18, SEED)
            .unwrap();
        // Flip one byte in the middle of the weights.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            cache.load(&defense, &train, 16, 18, SEED),
            Err(DefenseError::Tensor(TensorError::ChecksumMismatch { .. }))
        ));
        // Truncation is typed too.
        std::fs::write(&path, &bytes[..mid]).unwrap();
        assert!(cache.load(&defense, &train, 16, 18, SEED).is_err());
        std::fs::remove_dir_all(&cache.dir).unwrap();
    }
}
