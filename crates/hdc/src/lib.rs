//! Hyperdimensional computing (HDC) substrate.
//!
//! This crate implements the two primary HDC modules the MEMHD paper builds
//! on (§II):
//!
//! * **Encoding module (EM)** — maps an `f`-dimensional feature vector to a
//!   `D`-dimensional hypervector. Two encoders are provided:
//!   [`RandomProjectionEncoder`] (`H = Mᵀ F`, Eq. 1 — MVM-compatible, used
//!   by BasicHDC and MEMHD) and [`IdLevelEncoder`] (ID ⊛ Level binding, used
//!   by the SearcHD/QuantHD/LeHDC baselines).
//! * **Associative memory (AM)** — stores class vectors and answers
//!   associative-search queries by dot similarity (Eq. 3).
//!   [`FloatAm`] holds the floating-point AM used during training;
//!   [`BinaryAm`] is the 1-bit quantized AM that maps onto IMC arrays and
//!   supports multi-centroid row labeling.
//!
//! Training routines for the *single-centroid* AM (single-pass accumulation
//! and iterative learning, §II-C) live in [`train`]; the multi-centroid
//! machinery that is the paper's contribution lives in the `memhd` crate.
//!
//! **Batched inference is the preferred entry point**: encode whole
//! feature matrices with [`Encoder::encode_binary_batch`] and answer them
//! with [`BinaryAm::search_batch`] / [`BinaryAm::classify_batch`] — one
//! tiled popcount sweep per batch, identical results to the per-query
//! methods. The k best rows per query come from the
//! [`hd_linalg::LabeledMemory::topk`] impl (rows map to classes through
//! [`BinaryAm::class_of`]); cascade search runs on
//! [`BinaryAm::search_memory`].
//!
//! # Example
//!
//! ```
//! use hdc::{Encoder, RandomProjectionEncoder};
//!
//! // 4 input features -> 256-dimensional hypervectors.
//! let enc = RandomProjectionEncoder::new(4, 256, 42);
//! let h = enc.encode(&[0.2, 0.9, 0.1, 0.5]).unwrap();
//! assert_eq!(h.len(), 256);
//! let hb = enc.encode_binary(&[0.2, 0.9, 0.1, 0.5]).unwrap();
//! assert_eq!(hb.len(), 256);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod am;
mod encoder;
mod error;
pub mod similarity;
mod text;
pub mod train;

pub use am::{BinaryAm, CentroidId, FloatAm, SearchHit, SearchResults};
pub use encoder::{
    encode_dataset, EncodedDataset, Encoder, IdLevelEncoder, RandomProjectionEncoder,
};
pub use error::{HdcError, Result};
pub use text::TextNgramEncoder;
