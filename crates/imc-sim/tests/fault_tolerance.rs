//! Property-based coverage of the fault-tolerance layers: replicated
//! majority readout and online scrubbing. Each property pins an
//! equivalence the serving stack relies on (replication degenerates
//! correctly, scrubbing is exact and idempotent, cascades after a repair
//! prune against the repaired bits).

use hd_linalg::rng::{derive_seed, seeded};
use hd_linalg::{BitVector, CascadePlan, LabeledMemory, QueryBatch};
use hdc::BinaryAm;
use imc_sim::{
    AmMapping, ArraySpec, FaultModel, FaultyAmMapping, MappingStrategy, ReplicatedAmMapping,
    ScrubConfig, Scrubber,
};
use proptest::prelude::*;
use rand::Rng;

/// Builds a deterministic random mapping: `vectors` centroids of
/// dimensionality `dim`, partitioned `P` ways (1 = basic layout).
fn mapping(dim: usize, vectors: usize, partitions: usize, seed: u64) -> AmMapping {
    let mut rng = seeded(seed);
    let centroids: Vec<(usize, BitVector)> = (0..vectors)
        .map(|v| {
            let bits: Vec<bool> = (0..dim).map(|_| rng.gen()).collect();
            (v % 3, BitVector::from_bools(&bits))
        })
        .collect();
    let am = BinaryAm::from_centroids(3, centroids).unwrap();
    let strategy = if partitions == 1 {
        MappingStrategy::Basic
    } else {
        MappingStrategy::Partitioned { partitions }
    };
    AmMapping::new(&am, ArraySpec::default(), strategy).unwrap()
}

fn query_batch(dim: usize, queries: usize, seed: u64) -> QueryBatch {
    let mut rng = seeded(seed);
    let qs: Vec<BitVector> = (0..queries)
        .map(|_| BitVector::from_bools(&(0..dim).map(|_| rng.gen()).collect::<Vec<_>>()))
        .collect();
    QueryBatch::from_vectors(&qs).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Majority readout with a single replica is exactly the plain
    /// faulty mapping programmed from the same seed stream.
    #[test]
    fn single_replica_majority_equals_plain_mapping(
        seed in 0u64..1000,
        ber in prop::sample::select(vec![0.0, 0.01, 0.1, 0.5]),
        partitions in prop::sample::select(vec![1usize, 2, 4]),
    ) {
        let ideal = mapping(256, 6, partitions, 11);
        let model = FaultModel::bit_flip(ber);
        let rep = ReplicatedAmMapping::program(&ideal, model, 1, seed).unwrap();
        let plain = FaultyAmMapping::program(&ideal, model, derive_seed(seed, 0)).unwrap();
        prop_assert_eq!(
            rep.majority_mapping().diff_cells(plain.as_mapping()).unwrap(),
            0
        );
    }

    /// Ideal replicas vote back the ideal mapping bit-for-bit, for any
    /// replica count and layout.
    #[test]
    fn ideal_replicas_equal_ideal_mapping(
        replicas in 1usize..6,
        partitions in prop::sample::select(vec![1usize, 2, 4]),
        seed in 0u64..1000,
    ) {
        let ideal = mapping(256, 5, partitions, 7);
        let rep =
            ReplicatedAmMapping::program(&ideal, FaultModel::ideal(), replicas, seed).unwrap();
        prop_assert_eq!(rep.residual_flipped(&ideal).unwrap(), 0);
        for v in 0..ideal.num_vectors() {
            prop_assert_eq!(
                rep.majority_mapping().logical_row(v).unwrap(),
                ideal.logical_row(v).unwrap()
            );
        }
    }

    /// Scrubbing an unfaulted memory is a no-op: zero dirty rows, zero
    /// cells healed, regardless of tick budget.
    #[test]
    fn scrub_of_clean_memory_repairs_nothing(
        seed in 0u64..1000,
        cells_per_tick in prop::sample::select(vec![0usize, 1, 300, 4096]),
        partitions in prop::sample::select(vec![1usize, 2, 4]),
    ) {
        let golden = mapping(256, 6, partitions, 3);
        let scrubber = Scrubber::new(&golden, ScrubConfig { cells_per_tick }, seed).unwrap();
        let mut clean = FaultyAmMapping::program(&golden, FaultModel::ideal(), seed).unwrap();
        let report = scrubber.scrub_full(&mut clean).unwrap();
        prop_assert_eq!(report.rows_scanned, 6);
        prop_assert_eq!(report.rows_dirty, 0);
        prop_assert_eq!(report.cells_healed, 0);
        prop_assert!(report.completed_pass);
        prop_assert_eq!(clean.effective_flipped(&golden).unwrap(), 0);
    }

    /// After a full scrub the repaired mapping's cascade and top-k
    /// searches are bit-identical to exact search on the golden bits —
    /// i.e. repair really restored the cells, and the cascade prunes
    /// against the repaired bits, not the corrupted ones.
    #[test]
    fn repaired_mapping_searches_bit_identical_to_golden(
        seed in 0u64..1000,
        ber in prop::sample::select(vec![0.02, 0.1, 0.3]),
        partitions in prop::sample::select(vec![1usize, 4]),
    ) {
        let golden = mapping(512, 8, partitions, 5);
        let batch = query_batch(512, 6, derive_seed(seed, 99));
        let plan = CascadePlan::prefix(512, 128).unwrap();
        let scrubber = Scrubber::new(&golden, ScrubConfig::default(), 13).unwrap();

        let mut deployed =
            FaultyAmMapping::program(&golden, FaultModel::bit_flip(ber), seed).unwrap();
        // Search the corrupted mapping before the repair.
        let _ = deployed.as_mapping().search_batch_cascade(&batch, &plan, 1).unwrap();
        let corrupted = deployed.effective_flipped(&golden).unwrap();
        let report = scrubber.scrub_full(&mut deployed).unwrap();
        prop_assert_eq!(report.cells_healed, corrupted);
        prop_assert_eq!(deployed.effective_flipped(&golden).unwrap(), 0);

        let exact = golden.search_batch(&batch).unwrap();
        let cascade = deployed.as_mapping().search_batch_cascade(&batch, &plan, 1).unwrap();
        let rows: Vec<usize> = (0..batch.len()).map(|q| cascade.topk().hits(q)[0].0).collect();
        let classes: Vec<usize> = rows.iter().map(|&r| deployed.class_of(r)).collect();
        prop_assert_eq!(&rows, &exact.predicted_rows);
        prop_assert_eq!(&classes, &exact.predicted_classes);

        let golden_topk = golden.search_batch_topk(&batch, 3).unwrap();
        let repaired_topk = deployed.as_mapping().search_batch_topk(&batch, 3).unwrap();
        for (g, r) in golden_topk.hits.iter().zip(&repaired_topk.hits) {
            for (gh, rh) in g.iter().zip(r) {
                prop_assert_eq!(gh.row, rh.row);
                prop_assert_eq!(gh.score, rh.score);
            }
        }
    }

    /// Replication strictly reduces residual corruption at moderate BER:
    /// the R=3 majority never leaves more corrupted cells than the worst
    /// single replica, and scrubbing the majority's replicas converges to
    /// the golden bits.
    #[test]
    fn replication_and_scrub_compose(
        seed in 0u64..500,
    ) {
        let golden = mapping(512, 6, 1, 9);
        let model = FaultModel::bit_flip(0.05);
        let rep = ReplicatedAmMapping::program(&golden, model, 3, seed).unwrap();
        let residual = rep.residual_flipped(&golden).unwrap();
        for i in 0..3 {
            let single = rep.replica(i).unwrap().effective_flipped(&golden).unwrap();
            prop_assert!(residual <= single, "residual {residual} vs replica {i}: {single}");
        }
        // A scrubbed replica is exactly golden again.
        let scrubber = Scrubber::new(&golden, ScrubConfig::default(), 21).unwrap();
        let mut replica = rep.replica(0).unwrap().clone();
        scrubber.scrub_full(&mut replica).unwrap();
        prop_assert_eq!(replica.effective_flipped(&golden).unwrap(), 0);
    }
}

/// The fault-tolerance acceptance point, pinned deterministically (same
/// construction as `crates/bench/benches/fault_tolerance.rs`): at BER
/// 5e-2 on a tight-margin task, plain programming loses accuracy while
/// 3-replica majority readout recovers at least 90% of the ideal.
#[test]
fn replication_recovers_accuracy_at_ber_5e2() {
    const DIM: usize = 96;
    const CLASSES: usize = 16;
    const QUERIES: usize = 400;
    const QUERY_FLIP: f64 = 0.34;
    let mut rng = seeded(90);
    let centroids: Vec<(usize, BitVector)> = (0..CLASSES)
        .map(|c| (c, BitVector::from_bools(&(0..DIM).map(|_| rng.gen()).collect::<Vec<_>>())))
        .collect();
    let am = BinaryAm::from_centroids(CLASSES, centroids).unwrap();
    let golden = AmMapping::new(&am, ArraySpec::default(), MappingStrategy::Basic).unwrap();
    let mut rng = seeded(91);
    let mut queries = Vec::with_capacity(QUERIES);
    let mut labels = Vec::with_capacity(QUERIES);
    for q in 0..QUERIES {
        let class = q % CLASSES;
        let row = golden.logical_row(class).unwrap();
        queries.push(BitVector::from_bools(
            &(0..DIM).map(|d| row.get(d) ^ (rng.gen::<f64>() < QUERY_FLIP)).collect::<Vec<_>>(),
        ));
        labels.push(class);
    }
    let batch = QueryBatch::from_vectors(&queries).unwrap();
    let accuracy = |predicted: &[usize]| {
        predicted.iter().zip(&labels).filter(|(p, l)| p == l).count() as f64 / QUERIES as f64
    };
    let ideal = accuracy(&golden.search_batch(&batch).unwrap().predicted_classes);
    let model = FaultModel::bit_flip(0.05);
    let plain = FaultyAmMapping::program(&golden, model, 92).unwrap();
    let plain_acc = accuracy(&plain.as_mapping().search_batch(&batch).unwrap().predicted_classes);
    let rep = ReplicatedAmMapping::program(&golden, model, 3, 92).unwrap();
    let rep_acc = accuracy(&rep.majority_mapping().search_batch(&batch).unwrap().predicted_classes);
    assert!(plain_acc < 0.91 * ideal, "plain must degrade: {plain_acc} vs ideal {ideal}");
    assert!(rep_acc >= 0.90 * ideal, "R=3 must recover >=90% of ideal: {rep_acc} vs {ideal}");
}
