//! Baseline binary HDC models (paper Table I and §IV-A).
//!
//! MEMHD is evaluated against four binary HDC baselines. All are
//! implemented here from scratch on the shared [`hdc`] substrate:
//!
//! | model | encoding | associative memory | training |
//! |---|---|---|---|
//! | [`BasicHdc`] | random projection | `k × D` | single-pass |
//! | [`QuantHd`] | ID-Level | `k × D` | quantization-aware iterative |
//! | [`SearcHd`] | ID-Level | `k × D × N` (multi-model) | stochastic bit-flip |
//! | [`LeHdc`] | ID-Level | `k × D` | BNN-style (STE + softmax CE) |
//!
//! All models expose the same surface (`fit`, `predict`, `evaluate`,
//! `memory_report`) via the [`HdcClassifier`] trait, and all use MVM-style
//! dot-similarity associative search at inference, mirroring the paper's
//! "fair comparison" setup for Fig. 7.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod basic;
mod lehdc;
pub mod memory;
mod quanthd;
mod searchd;

pub use basic::BasicHdc;
pub use lehdc::{LeHdc, LeHdcConfig};
pub use memory::{baseline_memory, BaselineKind};
pub use quanthd::{QuantHd, QuantHdConfig};
pub use searchd::{SearcHd, SearcHdConfig};

use hd_linalg::{LabeledMemory, Matrix, QueryBatch, TopK};
use memhd::MemoryReport;

/// Common surface of every baseline classifier.
///
/// Mirrors the slice of `memhd::MemhdModel`'s API the evaluation harness
/// needs, so benches can sweep models uniformly.
pub trait HdcClassifier {
    /// Human-readable model name (e.g. `"QuantHD"`).
    fn name(&self) -> &'static str;

    /// Classifies a single feature vector.
    ///
    /// # Errors
    ///
    /// Returns [`hdc::HdcError`] if the feature width does not match the
    /// model's encoder.
    fn predict(&self, features: &[f32]) -> hdc::Result<usize>;

    /// Classifies every row of `features` — the preferred inference entry
    /// point. Every model overrides the default with the batched
    /// encode-then-search pipeline (packed queries, one tiled popcount
    /// sweep); the default falls back to per-row [`HdcClassifier::predict`].
    ///
    /// # Errors
    ///
    /// Returns [`hdc::HdcError`] if the feature width does not match the
    /// model's encoder.
    fn predict_batch(&self, features: &Matrix) -> hdc::Result<Vec<usize>> {
        (0..features.rows()).map(|i| self.predict(features.row(i))).collect()
    }

    /// Accuracy over a labeled feature matrix (batched inference path).
    ///
    /// # Errors
    ///
    /// Returns [`hdc::HdcError`] on shape mismatches.
    fn evaluate(&self, features: &Matrix, labels: &[usize]) -> hdc::Result<f64> {
        if features.rows() != labels.len() || labels.is_empty() {
            return Err(hdc::HdcError::InvalidTrainingSet {
                reason: format!("{} rows vs {} labels", features.rows(), labels.len()),
            });
        }
        let preds = self.predict_batch(features)?;
        let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
        Ok(correct as f64 / labels.len() as f64)
    }

    /// Memory requirements per Table I.
    fn memory_report(&self) -> MemoryReport;

    /// Hypervector dimensionality `D`.
    fn dim(&self) -> usize;
}

/// Implements [`LabeledMemory`] for a baseline by serving its quantized
/// AM: queries are pre-encoded hypervectors.
macro_rules! labeled_by_am {
    ($($ty:ty),* $(,)?) => {$(
        impl LabeledMemory for $ty {
            fn dim(&self) -> usize {
                self.binary_am().dim()
            }

            fn rows(&self) -> usize {
                self.binary_am().num_centroids()
            }

            fn class_of(&self, row: usize) -> usize {
                self.binary_am().class_of(row)
            }

            fn topk(&self, batch: &QueryBatch, k: usize) -> hd_linalg::Result<TopK> {
                self.binary_am().topk(batch, k)
            }
        }
    )*};
}

labeled_by_am!(BasicHdc, QuantHd, SearcHd, LeHdc);

#[cfg(test)]
pub(crate) mod testutil {
    use hd_linalg::rng::{seeded, Normal};
    use hd_linalg::Matrix;

    /// Three-class multi-modal toy problem shared by baseline tests.
    pub fn toy(per_class: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = seeded(seed);
        let noise = Normal::new(0.0, 0.06);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for class in 0..3usize {
            for s in 0..per_class {
                let mode = s % 2;
                let row: Vec<f32> = (0..12)
                    .map(|j| {
                        let hot = j / 4 == class;
                        let base = if hot { 0.8 } else { 0.2 };
                        let shift = if hot && (j % 2 == mode) { 0.2 } else { 0.0 };
                        (base - shift + noise.sample(&mut rng)).clamp(0.0, 1.0)
                    })
                    .collect();
                rows.push(row);
                labels.push(class);
            }
        }
        (Matrix::from_rows(&rows).unwrap(), labels)
    }
}
