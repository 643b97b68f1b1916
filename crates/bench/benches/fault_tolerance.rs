//! Accuracy-vs-BER ablation for the fault-tolerance layer (not a
//! wall-clock bench): classification accuracy of a plain fault-injected
//! mapping versus the 3-replica majority readout, swept across bit-error
//! rates. Every quantity is fully deterministic (seeded centroids,
//! queries, and fault draws), so the recorded "ns_per_iter" field —
//! reused here to carry **accuracy in percent** — is bit-stable across
//! runs and `bench_check` gates these ids on presence only.
//!
//! The curve this persists is the replication argument of the
//! fault-tolerance thread: majority-of-3 readout turns cell BER `p` into
//! roughly `3p^2`, so at BER 5e-2 the plain mapping visibly degrades
//! while R=3 stays within a few points of the ideal accuracy.

use hd_linalg::rng::seeded;
use hd_linalg::{BitVector, QueryBatch};
use hdc::BinaryAm;
use imc_sim::{
    AmMapping, ArraySpec, FaultModel, FaultyAmMapping, MappingStrategy, ReplicatedAmMapping,
};
use rand::Rng;
use std::io::Write;

/// Tight-margin synthetic task: enough classes and query noise that
/// centroid corruption costs accuracy, at a dimensionality small enough
/// for cell faults to matter.
const DIM: usize = 96;
const CLASSES: usize = 16;
const QUERIES: usize = 400;
/// Per-bit query noise: far enough from the centroid that the class
/// margin is a few sigma, so BER-induced margin loss shows up.
const QUERY_FLIP: f64 = 0.34;
const BERS: [f64; 5] = [0.0, 1e-3, 1e-2, 5e-2, 1e-1];

fn golden_mapping(seed: u64) -> AmMapping {
    let mut rng = seeded(seed);
    let centroids: Vec<(usize, BitVector)> = (0..CLASSES)
        .map(|c| (c, BitVector::from_bools(&(0..DIM).map(|_| rng.gen()).collect::<Vec<_>>())))
        .collect();
    let am = BinaryAm::from_centroids(CLASSES, centroids).expect("valid AM");
    AmMapping::new(&am, ArraySpec::default(), MappingStrategy::Basic).expect("map")
}

/// Noisy in-class queries plus their true labels.
fn noisy_queries(golden: &AmMapping, seed: u64) -> (QueryBatch, Vec<usize>) {
    let mut rng = seeded(seed);
    let mut queries = Vec::with_capacity(QUERIES);
    let mut labels = Vec::with_capacity(QUERIES);
    for q in 0..QUERIES {
        let class = q % CLASSES;
        let row = golden.logical_row(class).expect("row");
        let bits: Vec<bool> =
            (0..DIM).map(|d| row.get(d) ^ (rng.gen::<f64>() < QUERY_FLIP)).collect();
        queries.push(BitVector::from_bools(&bits));
        labels.push(class);
    }
    (QueryBatch::from_vectors(&queries).expect("batch"), labels)
}

fn accuracy_pct(predicted: &[usize], labels: &[usize]) -> f64 {
    let hits = predicted.iter().zip(labels).filter(|(p, l)| p == l).count();
    100.0 * hits as f64 / labels.len() as f64
}

fn record(out: &mut Option<std::fs::File>, id: &str, value: f64) {
    println!("{id:55} {value:6.2} %");
    if let Some(f) = out {
        writeln!(f, "{{\"id\": \"{id}\", \"ns_per_iter\": {value}, \"samples\": 1}}")
            .expect("write CRITERION_JSON line");
    }
}

fn main() {
    let mut out = std::env::var("CRITERION_JSON").ok().map(|path| {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .expect("open CRITERION_JSON")
    });
    let golden = golden_mapping(90);
    let (batch, labels) = noisy_queries(&golden, 91);
    let ideal =
        accuracy_pct(&golden.search_batch(&batch).expect("search").predicted_classes, &labels);
    record(&mut out, "fault_tolerance/accuracy_pct/ideal", ideal);
    for ber in BERS {
        let model = if ber == 0.0 { FaultModel::ideal() } else { FaultModel::bit_flip(ber) };
        let plain = FaultyAmMapping::program(&golden, model, 92).expect("program");
        let plain_acc = accuracy_pct(
            &plain.as_mapping().search_batch(&batch).expect("search").predicted_classes,
            &labels,
        );
        let rep = ReplicatedAmMapping::program(&golden, model, 3, 92).expect("program");
        let rep_acc = accuracy_pct(
            &rep.majority_mapping().search_batch(&batch).expect("search").predicted_classes,
            &labels,
        );
        record(&mut out, &format!("fault_tolerance/accuracy_pct/plain/ber_{ber}"), plain_acc);
        record(&mut out, &format!("fault_tolerance/accuracy_pct/rep3/ber_{ber}"), rep_acc);
    }
}
