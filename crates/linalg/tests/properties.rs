//! Property-based tests for the linear algebra substrate.

use hd_linalg::{argmax, dot, BitMatrix, BitVector, Matrix, QueryBatch, SearchMemory};
use proptest::prelude::*;

fn bool_vec(len: usize) -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec(any::<bool>(), len)
}

fn f32_vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-100.0f32..100.0, len)
}

proptest! {
    /// popcount identity: dot(a,b) + hamming-overlap decomposition.
    /// For {0,1} vectors: |a| + |b| = 2*dot(a,b) + hamming(a,b).
    #[test]
    fn dot_hamming_duality(bits_a in bool_vec(257), bits_b in bool_vec(257)) {
        let a = BitVector::from_bools(&bits_a);
        let b = BitVector::from_bools(&bits_b);
        let lhs = a.count_ones() + b.count_ones();
        let rhs = 2 * a.dot(&b) + a.hamming(&b);
        prop_assert_eq!(lhs, rhs);
    }

    /// Bit dot is symmetric and bounded by the smaller popcount.
    #[test]
    fn bit_dot_symmetric_bounded(bits_a in bool_vec(130), bits_b in bool_vec(130)) {
        let a = BitVector::from_bools(&bits_a);
        let b = BitVector::from_bools(&bits_b);
        prop_assert_eq!(a.dot(&b), b.dot(&a));
        prop_assert!(a.dot(&b) <= a.count_ones().min(b.count_ones()));
    }

    /// Self-dot equals popcount; self-hamming is zero.
    #[test]
    fn bit_self_identities(bits in bool_vec(100)) {
        let a = BitVector::from_bools(&bits);
        prop_assert_eq!(a.dot(&a), a.count_ones());
        prop_assert_eq!(a.hamming(&a), 0);
    }

    /// to_f32 roundtrips through from_threshold at 0.5.
    #[test]
    fn bitvector_f32_roundtrip(bits in bool_vec(99)) {
        let a = BitVector::from_bools(&bits);
        let back = BitVector::from_threshold(&a.to_f32(), 0.5);
        prop_assert_eq!(a, back);
    }

    /// dot_f32 agrees with the dense dot product of the expanded vector.
    #[test]
    fn dot_f32_agrees_with_dense(bits in bool_vec(77), xs in f32_vec(77)) {
        let a = BitVector::from_bools(&bits);
        let dense = dot(&a.to_f32(), &xs);
        let packed = a.dot_f32(&xs);
        prop_assert!((dense - packed).abs() <= 1e-3 * (1.0 + dense.abs()));
    }

    /// Matrix-vector multiplication is linear: A(x+y) = Ax + Ay.
    #[test]
    fn matvec_linearity(
        rows in prop::collection::vec(f32_vec(9), 1..6),
        x in f32_vec(9),
        y in f32_vec(9),
    ) {
        let m = Matrix::from_rows(&rows).unwrap();
        let sum: Vec<f32> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
        let lhs = m.matvec(&sum).unwrap();
        let ax = m.matvec(&x).unwrap();
        let ay = m.matvec(&y).unwrap();
        for i in 0..lhs.len() {
            let rhs = ax[i] + ay[i];
            prop_assert!((lhs[i] - rhs).abs() <= 1e-2 * (1.0 + rhs.abs()));
        }
    }

    /// matvec_t is consistent with transpose().matvec.
    #[test]
    fn matvec_t_consistent(rows in prop::collection::vec(f32_vec(7), 1..6)) {
        let m = Matrix::from_rows(&rows).unwrap();
        let x: Vec<f32> = (0..m.rows()).map(|i| i as f32 - 1.5).collect();
        let a = m.matvec_t(&x).unwrap();
        let b = m.transpose().matvec(&x).unwrap();
        for (u, v) in a.iter().zip(&b) {
            prop_assert!((u - v).abs() <= 1e-3 * (1.0 + v.abs()));
        }
    }

    /// BitMatrix::dot_all equals per-row BitVector dots.
    #[test]
    fn bitmatrix_dot_all_consistent(
        rows in prop::collection::vec(bool_vec(70), 1..5),
        q in bool_vec(70),
    ) {
        let bvs: Vec<BitVector> = rows.iter().map(|r| BitVector::from_bools(r)).collect();
        let m = BitMatrix::from_rows(&bvs).unwrap();
        let query = BitVector::from_bools(&q);
        let fast = m.dot_all(&query);
        let slow: Vec<u32> = bvs.iter().map(|r| r.dot(&query)).collect();
        prop_assert_eq!(fast, slow);
    }

    /// argmax returns an index whose value is >= every element.
    #[test]
    fn argmax_is_maximal(xs in f32_vec(40)) {
        let i = argmax(&xs).unwrap();
        for &v in &xs {
            prop_assert!(xs[i] >= v);
        }
    }

    /// Batched dot scores equal N sequential dot_all sweeps, across
    /// tail-word widths (the dims straddle 64-bit word boundaries) and
    /// row counts that leave the final row block partially padded.
    #[test]
    fn dot_batch_equals_sequential(
        dim in prop::sample::select(vec![1usize, 63, 64, 65, 127, 128, 257]),
        n_rows in 1usize..6,
        n_queries in 1usize..11,
        seed_bits in prop::collection::vec(any::<bool>(), 16),
    ) {
        // Derive deterministic row/query patterns from the sampled bits.
        let pattern = |salt: usize, i: usize, j: usize| {
            seed_bits[(salt * 7 + i * 3 + j) % seed_bits.len()] ^ (i + j * salt).is_multiple_of(3)
        };
        let rows: Vec<BitVector> = (0..n_rows)
            .map(|r| BitVector::from_bools(
                &(0..dim).map(|d| pattern(1, r, d)).collect::<Vec<_>>(),
            ))
            .collect();
        let queries: Vec<BitVector> = (0..n_queries)
            .map(|q| BitVector::from_bools(
                &(0..dim).map(|d| pattern(2, q, d)).collect::<Vec<_>>(),
            ))
            .collect();
        let m = SearchMemory::from_rows(&rows).unwrap();
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        let scores = m.dot_batch(&batch).unwrap();
        for (q, query) in queries.iter().enumerate() {
            prop_assert_eq!(scores.scores(q), m.dot_all(query).as_slice());
        }
    }

    /// Batched-score winners (`dot_batch` + `ScoreMatrix::argmax`) equal
    /// per-query argmax with the low-row tie-break.
    #[test]
    fn search_batch_equals_sequential(
        rows in prop::collection::vec(bool_vec(70), 1..6),
        queries in prop::collection::vec(bool_vec(70), 1..9),
    ) {
        let bvs: Vec<BitVector> = rows.iter().map(|r| BitVector::from_bools(r)).collect();
        let m = SearchMemory::from_rows(&bvs).unwrap();
        let qvs: Vec<BitVector> = queries.iter().map(|q| BitVector::from_bools(q)).collect();
        let batch = QueryBatch::from_vectors(&qvs).unwrap();
        let results = m.dot_batch(&batch).unwrap();
        for (q, query) in qvs.iter().enumerate() {
            let scores = m.dot_all(query);
            let (row, score) = results.argmax(q);
            let (expect_row, expect_score) = hd_linalg::argmax_u32(&scores);
            prop_assert_eq!(row, expect_row);
            prop_assert_eq!(score, expect_score);
        }
    }

    /// dot_many / hamming_many match pairwise dot / hamming.
    #[test]
    fn many_fast_paths_match_pairwise(
        v in bool_vec(129),
        others in prop::collection::vec(bool_vec(129), 1..6),
    ) {
        let v = BitVector::from_bools(&v);
        let os: Vec<BitVector> = others.iter().map(|o| BitVector::from_bools(o)).collect();
        let dots = v.dot_many(&os);
        let hams = v.hamming_many(&os);
        for (i, o) in os.iter().enumerate() {
            prop_assert_eq!(dots[i], v.dot(o));
            prop_assert_eq!(hams[i], v.hamming(o));
        }
    }

    /// slice agrees with bit-by-bit extraction at every offset class
    /// (word-aligned, unaligned, straddling the tail word).
    #[test]
    fn slice_matches_bitwise(
        bits in bool_vec(150),
        start in 0usize..150,
        len in 0usize..100,
    ) {
        prop_assume!(start + len <= 150);
        let v = BitVector::from_bools(&bits);
        let s = v.slice(start, len);
        prop_assert_eq!(s.len(), len);
        for i in 0..len {
            prop_assert_eq!(s.get(i), v.get(start + i), "bit {} (start {})", i, start);
        }
    }

    /// The word-level majority kernel agrees with a per-bit vote for any
    /// replica count, including the even-R tie-to-zero convention.
    #[test]
    fn majority_matches_per_bit_vote(
        replicas in prop::collection::vec(bool_vec(131), 1..8),
    ) {
        let owned: Vec<BitVector> =
            replicas.iter().map(|bits| BitVector::from_bools(bits)).collect();
        let refs: Vec<&BitVector> = owned.iter().collect();
        let voted = BitVector::majority(&refs).unwrap();
        let threshold = refs.len() / 2;
        for i in 0..131 {
            let votes = replicas.iter().filter(|r| r[i]).count();
            prop_assert_eq!(voted.get(i), votes > threshold, "bit {}", i);
        }
        // Clean-tail invariant survives the vote.
        prop_assert!(BitVector::from_words(131, voted.as_words().to_vec()).is_ok());
    }
}
