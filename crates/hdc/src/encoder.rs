//! Hypervector encoders (paper §II-B).
//!
//! Two encoding families are implemented:
//!
//! * [`RandomProjectionEncoder`] — `H = Mᵀ F` with a binary random
//!   projection matrix `M ∈ {0,1}^{f×D}` (Eq. 1). Both the encoding and the
//!   subsequent associative search are MVMs, so this is the encoder MEMHD
//!   and BasicHDC map onto IMC arrays.
//! * [`IdLevelEncoder`] — each feature position gets a random binary *ID*
//!   hypervector and each quantized feature value a *Level* hypervector;
//!   the sample is `H = Σᵢ IDᵢ ⊛ L(xᵢ)` with bipolar binding (XNOR).
//!   Used by the SearcHD / QuantHD / LeHDC baselines.

use crate::error::{HdcError, Result};
use hd_linalg::rng::{derive_seed, seeded};
use hd_linalg::{BitMatrix, BitVector, Matrix, QueryBatch};
use rand::Rng;

/// A hypervector encoding module (EM).
///
/// Implementations map `input_width()`-dimensional feature vectors into
/// `dim()`-dimensional hypervectors. The floating-point form ([`encode`])
/// is used during training; the binarized form ([`encode_binary`]) is what
/// runs on the IMC array at inference time.
///
/// [`encode`]: Encoder::encode
/// [`encode_binary`]: Encoder::encode_binary
pub trait Encoder: Send + Sync {
    /// Number of input features `f` the encoder expects.
    fn input_width(&self) -> usize;

    /// Hypervector dimensionality `D`.
    fn dim(&self) -> usize;

    /// Encodes a feature vector into a floating-point hypervector.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::FeatureWidthMismatch`] if
    /// `features.len() != input_width()`.
    fn encode(&self, features: &[f32]) -> Result<Vec<f32>>;

    /// Binarizes a floating-point hypervector produced by [`encode`].
    ///
    /// The default thresholds it at its own mean — the same 1-bit
    /// quantization rule MEMHD applies to its associative memory (§III-B),
    /// keeping the query and memory distributions matched.
    ///
    /// [`encode`]: Encoder::encode
    fn binarize(&self, fp: &[f32]) -> BitVector {
        BitVector::from_mean_threshold(fp)
    }

    /// Encodes a feature vector into a binary hypervector: [`encode`],
    /// then [`binarize`].
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::FeatureWidthMismatch`] if
    /// `features.len() != input_width()`.
    ///
    /// [`encode`]: Encoder::encode
    /// [`binarize`]: Encoder::binarize
    fn encode_binary(&self, features: &[f32]) -> Result<BitVector> {
        Ok(self.binarize(&self.encode(features)?))
    }

    /// Encodes every row of `features` into binary hypervectors, packed as
    /// a [`QueryBatch`] ready for a batched associative search — the
    /// preferred inference-path entry point.
    ///
    /// The default implementation encodes rows in parallel across the
    /// machine's cores (same strategy as [`encode_dataset`]) and packs
    /// once at the end; implementations with a cheaper bulk path may
    /// override it.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::FeatureWidthMismatch`] if
    /// `features.cols() != input_width()` and
    /// [`HdcError::InvalidTrainingSet`] if `features` has no rows.
    fn encode_binary_batch(&self, features: &Matrix) -> Result<QueryBatch> {
        let n = features.rows();
        if n == 0 {
            return Err(HdcError::InvalidTrainingSet { reason: "no rows to encode".into() });
        }
        if features.cols() != self.input_width() {
            return Err(HdcError::FeatureWidthMismatch {
                expected: self.input_width(),
                found: features.cols(),
            });
        }
        let threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1).min(n);
        let chunk = n.div_ceil(threads);
        let rows: Vec<&[f32]> = features.iter_rows().collect();
        let mut results: Vec<Result<Vec<BitVector>>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = rows
                .chunks(chunk)
                .map(|slice| {
                    scope.spawn(move || {
                        slice.iter().map(|r| self.encode_binary(r)).collect::<Result<Vec<_>>>()
                    })
                })
                .collect();
            for h in handles {
                results.push(h.join().expect("encoder thread panicked"));
            }
        });
        let mut packed = BitMatrix::zeros(n, self.dim());
        let mut r = 0usize;
        for chunk_result in results {
            for hb in chunk_result? {
                packed.set_row(r, &hb)?;
                r += 1;
            }
        }
        Ok(QueryBatch::from_matrix(packed))
    }

    /// Memory the encoding module occupies, in bits (Table I).
    fn memory_bits(&self) -> u64;
}

/// Binary random-projection encoder: `H = Mᵀ F` (Eq. 1).
///
/// The projection matrix `M` is held once, feature-major and bit-packed:
/// `f` rows of `D` bits, row `i` naming the outputs feature `i` feeds.
/// An encoding runs [`BitMatrix::matvec_t_f32`] over it: for each feature
/// in ascending order, one masked add of `x_i` into every selected output.
/// Each output performs the same f32 additions in the same order as a
/// per-output selective sum, so the result is bit-identical to it.
///
/// # Example
///
/// ```
/// use hdc::{Encoder, RandomProjectionEncoder};
///
/// let enc = RandomProjectionEncoder::new(16, 128, 7);
/// assert_eq!(enc.input_width(), 16);
/// assert_eq!(enc.dim(), 128);
/// assert_eq!(enc.memory_bits(), 16 * 128);
/// ```
#[derive(Debug, Clone)]
pub struct RandomProjectionEncoder {
    /// The projection `M`, feature-major: row `i` holds the `D` bits of
    /// feature `i`.
    projection: BitMatrix,
    input_width: usize,
    dim: usize,
}

impl RandomProjectionEncoder {
    /// Creates an encoder for `input_width` features into `dim` dimensions,
    /// with each projection bit drawn i.i.d. Bernoulli(½) from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `input_width == 0` or `dim == 0`.
    pub fn new(input_width: usize, dim: usize, seed: u64) -> Self {
        assert!(input_width > 0, "input_width must be positive");
        assert!(dim > 0, "dim must be positive");
        let mut rng = seeded(derive_seed(seed, 0x70726f6a)); // "proj"
        let mut projection = BitMatrix::zeros(input_width, dim);
        // Bits are drawn output by output, each output's features in
        // order, so a seed names the same projection in either layout.
        for j in 0..dim {
            for i in 0..input_width {
                if rng.gen::<bool>() {
                    projection.set(i, j, true);
                }
            }
        }
        RandomProjectionEncoder { projection, input_width, dim }
    }

    /// Borrows the binary projection matrix `M`, feature-major (`f × D`).
    pub fn projection(&self) -> &BitMatrix {
        &self.projection
    }

    /// Reconstructs an encoder from an explicit feature-major projection
    /// matrix (`f` rows of `D` bits) — the inverse of
    /// [`RandomProjectionEncoder::projection`], for deserialization.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidParameter`] if the matrix has zero rows
    /// or columns.
    pub fn from_projection(projection: BitMatrix) -> Result<Self> {
        let (input_width, dim) = projection.shape();
        if dim == 0 || input_width == 0 {
            return Err(HdcError::InvalidParameter {
                name: "projection",
                reason: format!("projection shape {input_width}x{dim} has a zero dimension"),
            });
        }
        Ok(RandomProjectionEncoder { projection, input_width, dim })
    }
}

impl Encoder for RandomProjectionEncoder {
    fn input_width(&self) -> usize {
        self.input_width
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn encode(&self, features: &[f32]) -> Result<Vec<f32>> {
        if features.len() != self.input_width {
            return Err(HdcError::FeatureWidthMismatch {
                expected: self.input_width,
                found: features.len(),
            });
        }
        Ok(self.projection.matvec_t_f32(features))
    }

    fn memory_bits(&self) -> u64 {
        self.input_width as u64 * self.dim as u64
    }
}

/// ID-Level encoder: `H = Σᵢ IDᵢ ⊛ L(xᵢ)` (paper §II-B).
///
/// Feature values are expected in `[0, 1]` (values outside are clamped) and
/// quantized to `levels` level hypervectors generated by progressive bit
/// flipping, so adjacent levels are similar and extreme levels are nearly
/// orthogonal. Binding is bipolar multiplication (XNOR on bits) and the
/// bundle accumulates `±1` contributions per dimension.
#[derive(Debug, Clone)]
pub struct IdLevelEncoder {
    ids: Vec<BitVector>,
    levels: Vec<BitVector>,
    input_width: usize,
    dim: usize,
}

impl IdLevelEncoder {
    /// Creates an ID-Level encoder with `levels` quantization levels.
    ///
    /// The paper's baselines use `L = 256`.
    ///
    /// # Panics
    ///
    /// Panics if `input_width`, `dim`, or `levels` is zero, or if
    /// `levels == 1` (at least two levels are required to span a range).
    pub fn new(input_width: usize, dim: usize, levels: usize, seed: u64) -> Self {
        assert!(input_width > 0, "input_width must be positive");
        assert!(dim > 0, "dim must be positive");
        assert!(levels >= 2, "need at least two levels");
        let mut rng = seeded(derive_seed(seed, 0x69646c76)); // "idlv"
        let ids = (0..input_width)
            .map(|_| {
                let bits: Vec<bool> = (0..dim).map(|_| rng.gen()).collect();
                BitVector::from_bools(&bits)
            })
            .collect();

        // Base level, then flip a fixed prefix of a random permutation so
        // that level l and level m differ in |l-m| * D/(2(L-1)) bits:
        // adjacent levels correlate, the extremes are ~orthogonal.
        let base_bits: Vec<bool> = (0..dim).map(|_| rng.gen()).collect();
        let mut perm: Vec<usize> = (0..dim).collect();
        // Fisher–Yates shuffle.
        for i in (1..dim).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        let max_flips = dim / 2;
        let mut level_vecs = Vec::with_capacity(levels);
        for l in 0..levels {
            let flips = max_flips * l / (levels - 1);
            let mut bits = base_bits.clone();
            for &idx in perm.iter().take(flips) {
                bits[idx] = !bits[idx];
            }
            level_vecs.push(BitVector::from_bools(&bits));
        }

        IdLevelEncoder { ids, levels: level_vecs, input_width, dim }
    }

    /// Number of quantization levels `L`.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Maps a feature value in `[0,1]` (clamped) to its level index.
    pub fn level_index(&self, value: f32) -> usize {
        let clamped = value.clamp(0.0, 1.0);
        let idx = (clamped * (self.levels.len() - 1) as f32).round() as usize;
        idx.min(self.levels.len() - 1)
    }
}

impl Encoder for IdLevelEncoder {
    fn input_width(&self) -> usize {
        self.input_width
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn encode(&self, features: &[f32]) -> Result<Vec<f32>> {
        if features.len() != self.input_width {
            return Err(HdcError::FeatureWidthMismatch {
                expected: self.input_width,
                found: features.len(),
            });
        }
        let mut acc = vec![0.0f32; self.dim];
        for (i, &x) in features.iter().enumerate() {
            let level = &self.levels[self.level_index(x)];
            let id = &self.ids[i];
            // Bipolar binding: bit j of the bound vector is XNOR(id_j, lvl_j);
            // accumulate +1 for a set bound bit, -1 otherwise.
            for (w, (&idw, &lvw)) in id.as_words().iter().zip(level.as_words()).enumerate() {
                let bound = !(idw ^ lvw);
                let base = w * 64;
                let end = (base + 64).min(self.dim);
                for (offset, slot) in acc[base..end].iter_mut().enumerate() {
                    if (bound >> offset) & 1 == 1 {
                        *slot += 1.0;
                    } else {
                        *slot -= 1.0;
                    }
                }
            }
        }
        Ok(acc)
    }

    fn binarize(&self, fp: &[f32]) -> BitVector {
        // Bundled sums are symmetric around zero, so the majority rule
        // (threshold at 0) is the natural binarization here.
        BitVector::from_threshold(fp, 0.0)
    }

    fn memory_bits(&self) -> u64 {
        (self.input_width as u64 + self.levels.len() as u64) * self.dim as u64
    }
}

/// A dataset encoded into hypervector space.
///
/// Holds both the floating-point hypervectors (used for clustering and FP
/// updates during training) and their binarized forms (used for similarity
/// evaluation against the binary AM and for inference).
#[derive(Debug, Clone)]
pub struct EncodedDataset {
    /// `n × D` floating-point hypervectors, one row per sample.
    pub fp: Matrix,
    /// Binarized hypervectors, parallel to the rows of `fp`.
    pub bin: Vec<BitVector>,
}

impl EncodedDataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.bin.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bin.is_empty()
    }

    /// Hypervector dimensionality `D`.
    pub fn dim(&self) -> usize {
        self.fp.cols()
    }

    /// Packs the binarized hypervectors into a [`QueryBatch`] for batched
    /// associative search. Pack once per sweep (e.g. before a training
    /// epoch loop), then reuse the batch.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidTrainingSet`] if the set is empty.
    pub fn to_query_batch(&self) -> Result<QueryBatch> {
        QueryBatch::from_vectors(&self.bin)
            .map_err(|e| HdcError::InvalidTrainingSet { reason: e.to_string() })
    }
}

/// Encodes every row of `features` with `encoder`, in parallel across the
/// machine's cores.
///
/// # Errors
///
/// Returns [`HdcError::FeatureWidthMismatch`] if the feature width does not
/// match the encoder, or [`HdcError::InvalidTrainingSet`] if `features` is
/// empty.
pub fn encode_dataset<E: Encoder + ?Sized>(
    encoder: &E,
    features: &Matrix,
) -> Result<EncodedDataset> {
    if features.rows() == 0 {
        return Err(HdcError::InvalidTrainingSet { reason: "no samples to encode".into() });
    }
    if features.cols() != encoder.input_width() {
        return Err(HdcError::FeatureWidthMismatch {
            expected: encoder.input_width(),
            found: features.cols(),
        });
    }
    let n = features.rows();
    let dim = encoder.dim();
    let threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1).min(n);
    let chunk = n.div_ceil(threads);

    type EncodedPair = (Vec<f32>, BitVector);
    let rows: Vec<&[f32]> = features.iter_rows().collect();
    let mut results: Vec<Result<Vec<EncodedPair>>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = rows
            .chunks(chunk)
            .map(|slice| {
                scope.spawn(move || {
                    slice
                        .iter()
                        .map(|r| {
                            let fp = encoder.encode(r)?;
                            let bin = encoder.binarize(&fp);
                            Ok((fp, bin))
                        })
                        .collect::<Result<Vec<_>>>()
                })
            })
            .collect();
        for h in handles {
            results.push(h.join().expect("encoder thread panicked"));
        }
    });

    let mut fp_flat = Vec::with_capacity(n * dim);
    let mut bin = Vec::with_capacity(n);
    for res in results {
        for (fp_row, b) in res? {
            fp_flat.extend_from_slice(&fp_row);
            bin.push(b);
        }
    }
    Ok(EncodedDataset { fp: Matrix::from_vec(n, dim, fp_flat)?, bin })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_encoder_deterministic() {
        let a = RandomProjectionEncoder::new(8, 64, 5);
        let b = RandomProjectionEncoder::new(8, 64, 5);
        let x = [0.1, 0.5, 0.9, 0.2, 0.3, 0.8, 0.4, 0.6];
        assert_eq!(a.encode(&x).unwrap(), b.encode(&x).unwrap());
    }

    #[test]
    fn projection_encoder_seed_sensitivity() {
        let a = RandomProjectionEncoder::new(8, 64, 5);
        let b = RandomProjectionEncoder::new(8, 64, 6);
        let x = [0.1, 0.5, 0.9, 0.2, 0.3, 0.8, 0.4, 0.6];
        assert_ne!(a.encode(&x).unwrap(), b.encode(&x).unwrap());
    }

    #[test]
    fn projection_encode_is_selective_sum() {
        let enc = RandomProjectionEncoder::new(4, 16, 1);
        let x = [1.0, 2.0, 4.0, 8.0];
        let h = enc.encode(&x).unwrap();
        for (j, &hj) in h.iter().enumerate() {
            let expected: f32 = (0..4).filter(|&i| enc.projection().get(i, j)).map(|i| x[i]).sum();
            assert_eq!(hj, expected);
        }
    }

    #[test]
    fn projection_width_mismatch() {
        let enc = RandomProjectionEncoder::new(4, 16, 1);
        assert!(matches!(
            enc.encode(&[1.0, 2.0]),
            Err(HdcError::FeatureWidthMismatch { expected: 4, found: 2 })
        ));
    }

    #[test]
    fn binary_encoding_len() {
        let enc = RandomProjectionEncoder::new(4, 33, 1);
        let hb = enc.encode_binary(&[0.3, 0.4, 0.5, 0.6]).unwrap();
        assert_eq!(hb.len(), 33);
    }

    #[test]
    fn id_level_levels_are_progressive() {
        let enc = IdLevelEncoder::new(4, 512, 8, 3);
        // Distance between level 0 and level l grows monotonically in l.
        let l0 = &enc.levels[0];
        let mut prev = 0;
        for l in 1..8 {
            let d = l0.hamming(&enc.levels[l]);
            assert!(d >= prev, "level {l}: distance {d} < previous {prev}");
            prev = d;
        }
        // Extremes are ~D/2 apart (near orthogonal).
        let extreme = l0.hamming(&enc.levels[7]);
        assert!((extreme as i64 - 256).abs() <= 16, "extreme distance {extreme}");
    }

    #[test]
    fn id_level_similar_inputs_similar_codes() {
        let enc = IdLevelEncoder::new(16, 1024, 32, 11);
        let x: Vec<f32> = (0..16).map(|i| i as f32 / 16.0).collect();
        let mut y = x.clone();
        y[3] += 0.02; // tiny perturbation
        let mut z: Vec<f32> = x.iter().map(|v| 1.0 - v).collect(); // very different
        z[0] = 0.9;
        let hx = enc.encode_binary(&x).unwrap();
        let hy = enc.encode_binary(&y).unwrap();
        let hz = enc.encode_binary(&z).unwrap();
        assert!(hx.hamming(&hy) < hx.hamming(&hz));
    }

    #[test]
    fn id_level_level_index_clamps() {
        let enc = IdLevelEncoder::new(2, 64, 4, 1);
        assert_eq!(enc.level_index(-1.0), 0);
        assert_eq!(enc.level_index(2.0), 3);
        assert_eq!(enc.level_index(0.5), 2); // rounds
    }

    #[test]
    fn memory_bits_formulas() {
        // Table I: projection EM = f*D; ID-Level EM = (f+L)*D.
        let p = RandomProjectionEncoder::new(784, 1024, 0);
        assert_eq!(p.memory_bits(), 784 * 1024);
        let i = IdLevelEncoder::new(784, 1024, 256, 0);
        assert_eq!(i.memory_bits(), (784 + 256) * 1024);
    }

    /// `encode_dataset` encodes each row once and binarizes that
    /// encoding; its rows equal per-row `encode` (to the bit) and
    /// `encode_binary` for both encoders and their binarization rules.
    fn assert_dataset_matches_rowwise(enc: &dyn Encoder) {
        let f = enc.input_width();
        let rows: Vec<Vec<f32>> =
            (0..37).map(|i| (0..f).map(|j| ((i * 7 + j) % 10) as f32 / 10.0).collect()).collect();
        let m = Matrix::from_rows(&rows).unwrap();
        let ds = encode_dataset(enc, &m).unwrap();
        assert_eq!(ds.len(), 37);
        assert_eq!(ds.dim(), enc.dim());
        for (i, row) in rows.iter().enumerate() {
            let fp = enc.encode(row).unwrap();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(ds.fp.row(i)), bits(&fp), "row {i}");
            assert_eq!(ds.bin[i], enc.encode_binary(row).unwrap(), "row {i}");
            assert_eq!(ds.bin[i], enc.binarize(&fp), "row {i}");
        }
    }

    #[test]
    fn encode_dataset_matches_rowwise_projection() {
        assert_dataset_matches_rowwise(&RandomProjectionEncoder::new(70, 130, 9));
    }

    #[test]
    fn encode_dataset_matches_rowwise_id_level() {
        let enc = IdLevelEncoder::new(6, 130, 16, 9);
        assert_dataset_matches_rowwise(&enc);
        // ID-level binarizes at 0, not at the mean.
        let fp = [-2.0, 3.0, 0.5, 2.0];
        assert_eq!(enc.binarize(&fp), BitVector::from_bools(&[false, true, true, true]));
        assert_ne!(enc.binarize(&fp), BitVector::from_mean_threshold(&fp));
    }

    #[test]
    fn encode_dataset_empty_rejected() {
        let enc = RandomProjectionEncoder::new(6, 32, 9);
        let m = Matrix::zeros(0, 6);
        assert!(encode_dataset(&enc, &m).is_err());
    }

    #[test]
    fn encode_dataset_width_mismatch_rejected() {
        let enc = RandomProjectionEncoder::new(6, 32, 9);
        let m = Matrix::zeros(3, 5);
        assert!(matches!(encode_dataset(&enc, &m), Err(HdcError::FeatureWidthMismatch { .. })));
    }

    #[test]
    #[should_panic(expected = "levels")]
    fn id_level_one_level_panics() {
        IdLevelEncoder::new(2, 8, 1, 0);
    }
}
