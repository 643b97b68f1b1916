//! SIMD ↔ scalar equivalence properties.
//!
//! Every kernel backend reachable on the host must be **bit-identical**
//! to the portable scalar reference — dot products, Hamming distances,
//! blocked batched sweeps (a [`SearchMemory`] pinned to each backend with
//! [`SearchMemory::with_backend`]), and winner selection including the
//! low-row tie-break, across tail-word widths and padding configurations.
//! These properties are the contract that lets the dispatch table swap
//! backends freely at startup.

use hd_linalg::kernel::{self, Backend};
use hd_linalg::{BitMatrix, BitVector, BlockedBitMatrix, QueryBatch, SearchMemory};
use proptest::prelude::*;

fn bool_vec(len: usize) -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec(any::<bool>(), len)
}

/// Dimensions covering sub-word, exact-word, and multi-word tails, plus
/// widths that cross the flat kernels' 4- and 8-word vector strides.
fn dims() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![1usize, 7, 63, 64, 65, 127, 128, 129, 255, 256, 300, 520])
}

fn bits(len: usize) -> impl Strategy<Value = BitVector> {
    bool_vec(len).prop_map(|b| BitVector::from_bools(&b))
}

fn bit_rows(rows: usize, len: usize) -> impl Strategy<Value = Vec<BitVector>> {
    prop::collection::vec(bits(len), rows)
}

proptest! {
    /// Flat dot/hamming kernels agree with scalar on every backend.
    #[test]
    fn flat_kernels_match_scalar(
        (a, b) in dims().prop_flat_map(|d| (bits(d), bits(d)))
    ) {
        let expected_dot = kernel::dot_words_with(Backend::Scalar, a.as_words(), b.as_words());
        let expected_ham =
            kernel::hamming_words_with(Backend::Scalar, a.as_words(), b.as_words());
        for backend in Backend::available() {
            prop_assert_eq!(
                kernel::dot_words_with(backend, a.as_words(), b.as_words()),
                expected_dot,
                "dot backend {}", backend
            );
            prop_assert_eq!(
                kernel::hamming_words_with(backend, a.as_words(), b.as_words()),
                expected_ham,
                "hamming backend {}", backend
            );
        }
    }

    /// Blocked batched dot sweeps are bit-identical to the row-major
    /// scalar reference on every backend, including partially padded
    /// final row blocks.
    #[test]
    fn blocked_dot_matches_scalar(
        (rows, queries) in (1usize..20, dims()).prop_flat_map(|(r, d)| {
            (bit_rows(r, d), bit_rows(11, d))
        })
    ) {
        let m = BitMatrix::from_rows(&rows).unwrap();
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        for backend in Backend::available() {
            let scores = SearchMemory::with_backend(m.clone(), backend).dot_batch(&batch).unwrap();
            for (q, query) in queries.iter().enumerate() {
                prop_assert_eq!(
                    scores.scores(q),
                    m.dot_all(query).as_slice(),
                    "backend {} query {}", backend, q
                );
            }
        }
    }

    /// Blocked winners agree with the scalar argmax — same winning row,
    /// same score, same low-row tie-break — on every backend.
    #[test]
    fn blocked_winners_match_scalar(
        (rows, queries) in (1usize..20, dims()).prop_flat_map(|(r, d)| {
            (bit_rows(r, d), bit_rows(9, d))
        })
    ) {
        let m = BitMatrix::from_rows(&rows).unwrap();
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        for backend in Backend::available() {
            let mem = SearchMemory::with_backend(m.clone(), backend);
            let winners = mem.winners_batch(&batch).unwrap();
            for (q, query) in queries.iter().enumerate() {
                let expected = hd_linalg::argmax_u32(&m.dot_all(query));
                prop_assert_eq!(
                    winners[q], expected,
                    "backend {} query {}", backend, q
                );
            }
        }
    }

    /// Tie stress: memories built from a handful of duplicated row
    /// patterns force frequent score ties; every backend must still pick
    /// the lowest winning row.
    #[test]
    fn blocked_winners_tie_break(
        (patterns, picks, queries) in (2usize..5, 64usize..130).prop_flat_map(|(p, d)| {
            (
                bit_rows(p, d),
                prop::collection::vec(0usize..p, 4..35),
                bit_rows(6, d),
            )
        })
    ) {
        // Rows repeat the few patterns (duplicates => exact ties).
        let rows: Vec<BitVector> = picks.iter().map(|&i| patterns[i].clone()).collect();
        let m = BitMatrix::from_rows(&rows).unwrap();
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        for backend in Backend::available() {
            let mem = SearchMemory::with_backend(m.clone(), backend);
            let winners = mem.winners_batch(&batch).unwrap();
            for (q, query) in queries.iter().enumerate() {
                let scores = m.dot_all(query);
                let (row, score) = winners[q];
                prop_assert_eq!(score, scores[row], "backend {}", backend);
                // No earlier row may reach the winning score.
                for (r, &s) in scores.iter().enumerate().take(row) {
                    prop_assert!(
                        s < score,
                        "backend {} query {}: row {} ties winner {}", backend, q, r, row
                    );
                }
                prop_assert!(scores.iter().all(|&s| s <= score));
            }
        }
    }

    /// Pack → unpack is the identity for every shape.
    #[test]
    fn blocked_roundtrip(
        rows in (1usize..26, dims()).prop_flat_map(|(r, d)| bit_rows(r, d))
    ) {
        let m = BitMatrix::from_rows(&rows).unwrap();
        let blocked = BlockedBitMatrix::from_matrix(&m);
        prop_assert_eq!(blocked.to_matrix(), m.clone());
        for (r, row) in rows.iter().enumerate() {
            prop_assert_eq!(&blocked.row(r), row);
        }
        // And the same round-trip through the row-slice constructor.
        prop_assert_eq!(BlockedBitMatrix::from_rows(&rows).unwrap().to_matrix(), m);
    }

    /// The active-backend entry points (`new`, `from_rows`, `From`) and a
    /// memory pinned to the active backend all agree with each other and
    /// with the flat-kernel row walk — large batches, so the rayon
    /// feature's thread chunking engages where the host has threads.
    #[test]
    fn entry_points_agree(
        (rows, queries) in (1usize..17, prop::sample::select(vec![64usize, 128, 200]))
            .prop_flat_map(|(r, d)| (bit_rows(r, d), bit_rows(40, d)))
    ) {
        let m = BitMatrix::from_rows(&rows).unwrap();
        let mem = SearchMemory::new(m.clone());
        let pinned = SearchMemory::with_backend(m.clone(), kernel::active());
        let from_rows = SearchMemory::from_rows(&rows).unwrap();
        let batch = QueryBatch::from_vectors(&queries).unwrap();

        let reference = mem.dot_batch(&batch).unwrap();
        for (q, query) in queries.iter().enumerate() {
            prop_assert_eq!(reference.scores(q), m.dot_all(query).as_slice());
        }
        prop_assert_eq!(&pinned.dot_batch(&batch).unwrap(), &reference);
        prop_assert_eq!(&SearchMemory::from(m).dot_batch(&batch).unwrap(), &reference);

        let ref_winners = mem.winners_batch(&batch).unwrap();
        prop_assert_eq!(&pinned.winners_batch(&batch).unwrap(), &ref_winners);
        prop_assert_eq!(&from_rows.winners_batch(&batch).unwrap(), &ref_winners);
        for (q, &(row, score)) in ref_winners.iter().enumerate() {
            prop_assert_eq!(reference.scores(q)[row], score);
        }
    }

    /// The transposed f32 MVM (the projection encoder's kernel) is
    /// bit-identical to the per-output set-bit walk over the transpose on
    /// every backend, and so is its mean-threshold binarization. Inputs
    /// mix ±0.0, subnormals, large values that overflow, ±inf and NaN.
    /// NaN outputs are compared as NaN only: which operand's payload an
    /// f32 addition of two NaNs keeps is not specified.
    #[test]
    fn matvec_t_f32_matches_matvec_f32(
        (rows, x) in (
            prop::sample::select(vec![1usize, 3, 17, 63, 65, 100, 130]),
            prop::sample::select(vec![1usize, 15, 16, 17, 63, 64, 65, 128, 130]),
        )
            .prop_flat_map(|(f, d)| (bit_rows(f, d), prop::collection::vec(feature(), f)))
    ) {
        let m = BitMatrix::from_rows(&rows).unwrap();
        let reference = m.transpose().matvec_f32(&x);
        for backend in Backend::available() {
            let out = kernel::matvec_t_f32_with(backend, &m, &x);
            prop_assert_eq!(out.len(), reference.len());
            for (j, (a, b)) in out.iter().zip(&reference).enumerate() {
                prop_assert!(
                    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                    "backend {} output {}: {:?} vs {:?}", backend, j, a, b
                );
            }
            prop_assert_eq!(
                BitVector::from_mean_threshold(&out),
                BitVector::from_mean_threshold(&reference),
                "backend {} binarized", backend
            );
        }
    }
}

/// One input feature: mostly finite values on either side of zero, with
/// a share of exact zeros of both signs, subnormals, values near
/// `f32::MAX` whose sums overflow, and rare infinities and NaNs.
fn feature() -> impl Strategy<Value = f32> {
    (0u32..1000, -4.0f32..4.0).prop_map(|(tag, v)| match tag {
        0..=149 => 0.0,
        150..=199 => -0.0,
        200..=249 => v * f32::MIN_POSITIVE / 4.0,
        250..=299 => v * 1e38,
        300 => f32::INFINITY,
        301 => f32::NEG_INFINITY,
        302 => f32::NAN,
        _ => v,
    })
}

#[test]
fn active_backend_is_available() {
    let active = kernel::active();
    assert!(active.is_available());
    assert!(Backend::available().contains(&active));
}
