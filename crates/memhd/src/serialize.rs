//! Model persistence: a compact, versioned binary format for trained
//! MEMHD models.
//!
//! A deployed MEMHD model is two binary matrices (projection encoder and
//! quantized AM) plus the FP shadow AM (kept so [`MemhdModel::refine`]
//! works after reload) and the configuration. The format is self-contained
//! little-endian:
//!
//! ```text
//! magic  "MEMHDv1\0"                                  8 bytes
//! config dim, columns, num_classes, epochs,
//!        allocation_rounds, kmeans_max_iters          u32 × 6
//!        initial_cluster_ratio, learning_rate         f32 × 2
//!        init_method (0 = clustering, 1 = random)     u8
//!        seed                                         u64
//! encoder input_width u32, then D rows × ⌈f/64⌉ u64 words
//! am      centroids u32, then per row: class u32,
//!         ⌈D/64⌉ u64 words (binary), D f32 (shadow)
//! ```
//!
//! The encoder's rows are output-major (row `j` holds the `f` bits feeding
//! output `j`); the encoder itself holds the feature-major transpose, so
//! both directions transpose at this boundary.
//!
//! No external serialization crate is used — the format is a few dozen
//! lines and has no schema-evolution needs beyond the version magic.

use crate::config::{InitMethod, MemhdConfig};
use crate::error::{MemhdError, Result};
use crate::model::MemhdModel;
use crate::train::TrainingHistory;
use hd_linalg::{BitMatrix, BitVector};
use hdc::{BinaryAm, Encoder, FloatAm, RandomProjectionEncoder};
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"MEMHDv1\0";

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f32(buf: &mut Vec<u8>, v: f32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.data.len() {
            return Err(MemhdError::InvalidData {
                reason: format!("model file truncated: wanted {n} bytes at offset {}", self.pos),
            });
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn f32(&mut self) -> Result<f32> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
}

/// Serializes a trained model to bytes.
pub fn to_bytes(model: &MemhdModel) -> Vec<u8> {
    let cfg = model.config();
    let encoder = model.encoder();
    let binary = model.binary_am();
    let shadow = model.float_am();
    let dim = cfg.dim();

    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    put_u32(&mut buf, dim as u32);
    put_u32(&mut buf, cfg.columns() as u32);
    put_u32(&mut buf, cfg.num_classes() as u32);
    put_u32(&mut buf, cfg.epochs() as u32);
    put_u32(&mut buf, cfg.allocation_rounds() as u32);
    put_u32(&mut buf, cfg.kmeans_max_iters() as u32);
    put_f32(&mut buf, cfg.initial_cluster_ratio());
    put_f32(&mut buf, cfg.learning_rate());
    buf.push(match cfg.init_method() {
        InitMethod::Clustering => 0,
        InitMethod::RandomSampling => 1,
    });
    put_u64(&mut buf, cfg.seed());

    put_u32(&mut buf, encoder.input_width() as u32);
    let proj = encoder.projection().transpose();
    for r in 0..proj.rows() {
        for &w in proj.row(r).as_words() {
            put_u64(&mut buf, w);
        }
    }

    put_u32(&mut buf, binary.num_centroids() as u32);
    for r in 0..binary.num_centroids() {
        put_u32(&mut buf, binary.class_of(r) as u32);
        for &w in binary.centroid(r).as_words() {
            put_u64(&mut buf, w);
        }
        for &v in shadow.centroid(r) {
            put_f32(&mut buf, v);
        }
    }
    buf
}

/// Deserializes a model from bytes produced by [`to_bytes`].
///
/// # Errors
///
/// Returns [`MemhdError::InvalidData`] for a bad magic number, truncation,
/// or internally inconsistent shapes.
pub fn from_bytes(data: &[u8]) -> Result<MemhdModel> {
    let mut r = Reader { data, pos: 0 };
    let magic = r.take(8)?;
    if magic != MAGIC {
        return Err(MemhdError::InvalidData { reason: format!("bad model magic {magic:02x?}") });
    }
    let dim = r.u32()? as usize;
    let columns = r.u32()? as usize;
    let num_classes = r.u32()? as usize;
    let epochs = r.u32()? as usize;
    let allocation_rounds = r.u32()? as usize;
    let kmeans_max_iters = r.u32()? as usize;
    let ratio = r.f32()?;
    let lr = r.f32()?;
    let init_method = match r.u8()? {
        0 => InitMethod::Clustering,
        1 => InitMethod::RandomSampling,
        other => {
            return Err(MemhdError::InvalidData {
                reason: format!("unknown init method tag {other}"),
            })
        }
    };
    let seed = r.u64()?;
    let config = MemhdConfig::new(dim, columns, num_classes)?
        .with_initial_cluster_ratio(ratio)?
        .with_learning_rate(lr)?
        .with_epochs(epochs)
        .with_allocation_rounds(allocation_rounds)?
        .with_kmeans_max_iters(kmeans_max_iters)
        .with_init_method(init_method)
        .with_seed(seed);

    let input_width = r.u32()? as usize;
    if input_width == 0 {
        return Err(MemhdError::InvalidData { reason: "zero encoder width".into() });
    }
    let words_per_proj_row = input_width.div_ceil(64);
    let mut proj = BitMatrix::zeros(dim, input_width);
    for row in 0..dim {
        let mut words = Vec::with_capacity(words_per_proj_row);
        for _ in 0..words_per_proj_row {
            words.push(r.u64()?);
        }
        let bits = BitVector::from_words(input_width, words)
            .map_err(|e| MemhdError::InvalidData { reason: e.to_string() })?;
        proj.set_row(row, &bits).map_err(|e| MemhdError::InvalidData { reason: e.to_string() })?;
    }
    let encoder =
        RandomProjectionEncoder::from_projection(proj.transpose()).map_err(MemhdError::Hdc)?;

    let centroids = r.u32()? as usize;
    if centroids != columns {
        return Err(MemhdError::InvalidData {
            reason: format!("{centroids} centroids but config says {columns} columns"),
        });
    }
    let words_per_am_row = dim.div_ceil(64);
    let mut bin_centroids = Vec::with_capacity(centroids);
    let mut fp_centroids = Vec::with_capacity(centroids);
    for _ in 0..centroids {
        let class = r.u32()? as usize;
        if class >= num_classes {
            return Err(MemhdError::InvalidData {
                reason: format!("class {class} out of range for {num_classes}"),
            });
        }
        let mut words = Vec::with_capacity(words_per_am_row);
        for _ in 0..words_per_am_row {
            words.push(r.u64()?);
        }
        let bits = BitVector::from_words(dim, words)
            .map_err(|e| MemhdError::InvalidData { reason: e.to_string() })?;
        bin_centroids.push((class, bits));
        let mut row = Vec::with_capacity(dim);
        for _ in 0..dim {
            row.push(r.f32()?);
        }
        fp_centroids.push((class, row));
    }
    if r.pos != data.len() {
        return Err(MemhdError::InvalidData {
            reason: format!("{} trailing bytes after model payload", data.len() - r.pos),
        });
    }
    let binary_am =
        BinaryAm::from_centroids(num_classes, bin_centroids).map_err(MemhdError::Hdc)?;
    let fp_am = FloatAm::from_centroids(num_classes, fp_centroids).map_err(MemhdError::Hdc)?;

    Ok(MemhdModel::from_parts(config, encoder, fp_am, binary_am, TrainingHistory::default()))
}

/// Writes a model to a file.
///
/// # Errors
///
/// Returns [`MemhdError::InvalidData`] wrapping the I/O failure.
pub fn save(model: &MemhdModel, path: impl AsRef<Path>) -> Result<()> {
    let bytes = to_bytes(model);
    let mut file = std::fs::File::create(path)
        .map_err(|e| MemhdError::InvalidData { reason: format!("create: {e}") })?;
    file.write_all(&bytes).map_err(|e| MemhdError::InvalidData { reason: format!("write: {e}") })
}

/// Reads a model from a file written by [`save`].
///
/// # Errors
///
/// Returns [`MemhdError::InvalidData`] for I/O failures or a malformed
/// payload.
pub fn load(path: impl AsRef<Path>) -> Result<MemhdModel> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)
        .map_err(|e| MemhdError::InvalidData { reason: format!("open: {e}") })?
        .read_to_end(&mut bytes)
        .map_err(|e| MemhdError::InvalidData { reason: format!("read: {e}") })?;
    from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_linalg::rng::{seeded, Normal};
    use hd_linalg::Matrix;

    fn trained_model() -> (MemhdModel, Matrix, Vec<usize>) {
        let mut rng = seeded(4);
        let noise = Normal::new(0.0, 0.08);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for class in 0..3usize {
            for _ in 0..10 {
                let row: Vec<f32> = (0..12)
                    .map(|j| {
                        let base = if j / 4 == class { 0.8 } else { 0.2 };
                        (base + noise.sample(&mut rng)).clamp(0.0, 1.0)
                    })
                    .collect();
                rows.push(row);
                labels.push(class);
            }
        }
        let features = Matrix::from_rows(&rows).unwrap();
        let cfg = MemhdConfig::new(64, 9, 3).unwrap().with_epochs(3).with_seed(2);
        let model = MemhdModel::fit(&cfg, &features, &labels).unwrap();
        (model, features, labels)
    }

    /// A model whose projection rows (70 features, 96 outputs) are not
    /// whole words in either layout, trained on features with exact zeros.
    fn golden_model() -> (MemhdModel, Matrix) {
        let mut rng = seeded(11);
        let noise = Normal::new(0.0, 0.1);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for class in 0..3usize {
            for _ in 0..8 {
                let row: Vec<f32> = (0..70)
                    .map(|j| {
                        let base = if j % 3 == class { 0.8 } else { 0.2 };
                        (base + noise.sample(&mut rng)).clamp(0.0, 1.0)
                    })
                    .collect();
                rows.push(row);
                labels.push(class);
            }
        }
        let features = Matrix::from_rows(&rows).unwrap();
        let cfg = MemhdConfig::new(96, 9, 3).unwrap().with_epochs(2).with_seed(5);
        (MemhdModel::fit(&cfg, &features, &labels).unwrap(), features)
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    /// The file bytes of a seeded model, recorded with the per-output
    /// reference encoder (`matvec_f32` over the output-major projection).
    /// Training consumes the encodings, so the shadow AM's f32 values pin
    /// them too.
    #[test]
    fn golden_model_bytes_are_stable() {
        let (model, features) = golden_model();
        assert!(features.as_slice().contains(&0.0));
        let bytes = to_bytes(&model);
        assert_eq!(bytes.len(), 5229);
        assert_eq!(fnv1a(&bytes), 0x19a3_bcdc_09a6_6eb2);

        let restored = from_bytes(&bytes).unwrap();
        assert_eq!(restored.encoder().projection(), model.encoder().projection());
        assert_eq!(to_bytes(&restored), bytes);
        for x in features.iter_rows() {
            let a = restored.encoder().encode(x).unwrap();
            let b = model.encoder().encode(x).unwrap();
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn roundtrip_preserves_predictions() {
        let (model, features, _) = trained_model();
        let bytes = to_bytes(&model);
        let restored = from_bytes(&bytes).unwrap();
        assert_eq!(restored.config(), model.config());
        assert_eq!(restored.binary_am().as_bit_matrix(), model.binary_am().as_bit_matrix());
        for i in 0..features.rows() {
            assert_eq!(
                restored.predict(features.row(i)).unwrap(),
                model.predict(features.row(i)).unwrap()
            );
        }
    }

    #[test]
    fn roundtrip_preserves_shadow_am_for_refinement() {
        let (model, features, labels) = trained_model();
        let restored = from_bytes(&to_bytes(&model)).unwrap();
        assert_eq!(restored.float_am().as_matrix(), model.float_am().as_matrix());
        // Refinement still works after reload.
        let mut restored = restored;
        restored.refine(&features, &labels, 2).unwrap();
    }

    #[test]
    fn file_roundtrip() {
        let (model, features, _) = trained_model();
        let path = std::env::temp_dir().join(format!("memhd-test-{}.bin", std::process::id()));
        save(&model, &path).unwrap();
        let restored = load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(
            restored.predict(features.row(0)).unwrap(),
            model.predict(features.row(0)).unwrap()
        );
    }

    #[test]
    fn rejects_corruption() {
        let (model, _, _) = trained_model();
        let bytes = to_bytes(&model);
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(from_bytes(&bad).is_err());
        // Truncation.
        assert!(from_bytes(&bytes[..bytes.len() - 3]).is_err());
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(from_bytes(&long).is_err());
        // Unknown init-method tag (offset: 8 magic + 24 u32s + 8 f32s = 40).
        let mut tagged = bytes;
        tagged[40] = 9;
        assert!(from_bytes(&tagged).is_err());
    }
}
