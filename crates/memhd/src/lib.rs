//! # MEMHD: Memory-Efficient Multi-Centroid Hyperdimensional Computing
//!
//! A from-scratch reproduction of *MEMHD: Memory-Efficient Multi-Centroid
//! Hyperdimensional Computing for Fully-Utilized In-Memory Computing
//! Architectures* (DATE 2025).
//!
//! Traditional HDC stores **one** class vector per class in its associative
//! memory (AM), which leaves most columns of an in-memory-computing (IMC)
//! array idle and forces hypervector dimensions (≈10k) far beyond array row
//! counts. MEMHD instead sizes the AM to the array: hypervector dimension
//! `D` matches the array's rows and the **total number of centroids `C`**
//! matches its columns, with each class represented by *multiple centroids*.
//! The result is a fully-utilized array and one-shot associative search.
//!
//! Training has three phases (paper §III):
//!
//! 1. **Clustering-based initialization** ([`init`]) — classwise k-means
//!    under dot similarity seeds `⌊CR/k⌋` centroids per class; the
//!    remaining `C(1−R)` columns are allocated to the classes with the most
//!    validation mispredictions (confusion-matrix driven), re-clustering as
//!    counts grow, until every column is used.
//! 2. **AM quantization** — 1-bit quantization of the FP AM at its mean.
//! 3. **Quantization-aware iterative learning** ([`train`]) — mispredicted
//!    samples update a floating-point shadow AM with paper Eqs. (4)–(6)
//!    (global-argmax update target on the predicted side, within-class
//!    argmax on the true side), followed by per-centroid normalization and
//!    re-binarization each epoch.
//!
//! The one-stop entry point is [`MemhdModel::fit`]; a fitted model
//! classifies with [`MemhdModel::predict_batch`] and serves pre-encoded
//! queries through its [`hd_linalg::LabeledMemory`] impl (k best rows
//! per query, `class_of` per row). Cascade search runs on
//! `binary_am().search_memory()`.
//!
//! ```
//! use memhd::{MemhdConfig, MemhdModel};
//! use hd_linalg::Matrix;
//!
//! # fn main() -> Result<(), memhd::MemhdError> {
//! // A tiny two-class problem (use real feature data in practice).
//! let features = Matrix::from_rows(&[
//!     &[0.9f32, 0.1, 0.8, 0.2][..], &[0.8, 0.2, 0.9, 0.1][..],
//!     &[0.1, 0.9, 0.2, 0.8][..], &[0.2, 0.8, 0.1, 0.9][..],
//! ]).unwrap();
//! let labels = vec![0, 0, 1, 1];
//!
//! let config = MemhdConfig::new(64, 4, 2)?.with_epochs(5);
//! let model = MemhdModel::fit(&config, &features, &labels)?;
//! let pred = model.predict(&[0.85, 0.15, 0.85, 0.15])?;
//! assert_eq!(pred, 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
pub mod init;
mod memory;
mod model;
pub mod serialize;
pub mod train;

pub use config::{InitMethod, MemhdConfig};
pub use error::{MemhdError, Result};
pub use memory::MemoryReport;
pub use model::MemhdModel;
pub use train::{EpochRecord, TrainingHistory};
