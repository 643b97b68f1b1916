//! Dense and bit-packed linear algebra substrate for the MEMHD reproduction.
//!
//! The MEMHD paper's pipeline is built almost entirely out of matrix–vector
//! multiplications (MVMs): random-projection encoding (`H = Mᵀ F`),
//! associative search (dot similarity against every class vector), k-means
//! distance evaluation, and the in-memory-computing array model. This crate
//! provides the two representations those MVMs run on:
//!
//! * [`Matrix`] — a row-major dense `f32` matrix used for floating-point
//!   associative memories, projection matrices before binarization, and
//!   dataset features.
//! * [`BitMatrix`] / [`BitVector`] — bit-packed binary (`{0,1}`) structures
//!   with popcount-based dot products, used for binary hypervectors, the
//!   quantized associative memory, and the binary encoding module.
//!
//! It intentionally replaces `ndarray` (not on the approved dependency list)
//! with the small, well-tested subset of operations this workspace needs.
//!
//! **Batched search is the preferred entry point.** Many-query workloads
//! should pack their queries into a [`QueryBatch`] and search a
//! [`SearchMemory`] — [`SearchMemory::topk_batch`] (`k = 1` is the
//! argmax, also spelled [`SearchMemory::winners_batch`]), or
//! [`SearchMemory::dot_batch`] when the scores are needed
//! ([`ScoreMatrix::argmax`] picks each query's winner from them): one
//! blocked popcount sweep answers the whole batch with no per-query
//! allocation. The single-query operations
//! ([`BitMatrix::dot_all`], [`BitVector::dot`]) run the same flat word
//! kernels.
//!
//! **Kernels are runtime-dispatched.** The [`kernel`] module detects the
//! host CPU once at startup and routes every popcount through the fastest
//! available backend (AVX-512 `VPOPCNTDQ`, AVX2 nibble-LUT, NEON, or the
//! portable scalar loops); set `HD_LINALG_BACKEND=scalar|avx2|avx512|neon`
//! to force one. Batched sweeps run on [`BlockedBitMatrix`], an
//! interleaved associative-memory layout that packs register-width column
//! panels of eight class rows; a [`SearchMemory`] pairs the row-major
//! matrix with that layout, packed once, and picks its backend at
//! construction ([`SearchMemory::with_backend`] pins one explicitly).
//! Every backend is bit-identical to scalar (ties, tail words, and
//! padding included).
//!
//! **Cascade search prunes provably-losing rows.** [`CascadePlan`] splits
//! the dimensions into stages; [`SearchMemory::search_cascade_topk`]
//! scores a prefix for every row, discards rows whose best possible
//! completion cannot reach the current k-th best, and finishes only the
//! survivors — lists, scores, and tie-breaks stay bit-identical to the
//! exact sweep,
//! and the returned [`CascadeStats`] reports how many row-dimensions were
//! actually activated (the paper's Fig. 7 energy proxy).
//! [`CascadePlan::tuned`] prices candidate plans with a compiled-in
//! [`CostModel`], so a memory tunes to the same plan on every host.
//!
//! **Labelled memories share one search surface.** [`LabeledMemory`]
//! (dimensionality, rows, per-row class, batched k-best) is implemented
//! by each model crate for the types it owns; a serving layer needs
//! nothing else.
//!
//! # Example
//!
//! ```
//! use hd_linalg::{Matrix, BitVector};
//!
//! let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]][..]).unwrap();
//! let y = m.matvec(&[1.0, 1.0]).unwrap();
//! assert_eq!(y, vec![3.0, 7.0]);
//!
//! let a = BitVector::from_bools(&[true, false, true, true]);
//! let b = BitVector::from_bools(&[true, true, false, true]);
//! assert_eq!(a.dot(&b), 2); // overlap at positions 0 and 3
//! ```

// Unsafe code is denied everywhere except the explicitly-audited SIMD
// kernels (`kernel`, `blocked`), whose intrinsics are published only
// behind runtime feature detection.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod bits;
#[allow(unsafe_code)]
mod blocked;
mod cascade;
mod error;
#[allow(unsafe_code)]
pub mod kernel;
mod labeled;
mod matrix;
pub mod rng;
pub mod stats;
mod vector;

pub use batch::{argmax_scores as argmax_u32, QueryBatch, QueryBatchBuilder, ScoreMatrix, TopK};
pub use bits::{majority_words, BitMatrix, BitVector, BitView};
pub use blocked::{BlockedBitMatrix, SearchMemory, LANES as BLOCK_LANES};
pub use cascade::{
    BoundCascade, CascadePlan, CascadeStats, CascadeTopK, CostModel, SegmentedCascade,
};
pub use error::{LinalgError, Result};
pub use labeled::LabeledMemory;
pub use matrix::Matrix;
pub use vector::{argmax, axpy, dot, l2_norm, mean, normalize_l2, scale_in_place, variance};
