//! The correctness oracle and the per-phase tally of what callers saw.
//!
//! Expected answers are computed once at set-up by a direct
//! `SearchMemory::winners_batch` / `topk_batch` on each served model's
//! rows, a path that skips the server, shards, cascade and mapping.
//! Every served answer is checked against the model that the
//! generation stamped on it names.

use crate::measure::Reservoir;
use hd_linalg::{QueryBatch, SearchMemory, TopK};
use hd_serve::Prediction;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::Duration;

/// Expected answers of one served model over the whole query pool.
#[derive(Debug, Clone)]
pub struct ModelOracle {
    winners: Vec<(usize, u32)>,
    topk: Option<TopK>,
    classes: Vec<usize>,
}

impl ModelOracle {
    /// Direct search of `pool` on `memory`; `kmax > 1` also keeps the
    /// k-best lists. `classes[row]` labels each row.
    pub fn new(memory: &SearchMemory, classes: Vec<usize>, pool: &QueryBatch, kmax: usize) -> Self {
        let winners = memory.winners_batch(pool).expect("oracle winners sweep");
        let topk = (kmax > 1).then(|| memory.topk_batch(pool, kmax).expect("oracle top-k sweep"));
        ModelOracle { winners, topk, classes }
    }

    /// The expected `(row, class, score)` slate of query `q` at `k`.
    pub fn expected(&self, q: usize, k: usize) -> Vec<(usize, usize, u32)> {
        let hits: &[(usize, u32)] = match (&self.topk, k) {
            (_, 1) => std::slice::from_ref(&self.winners[q]),
            (Some(topk), k) if k <= topk.k() => &topk.hits(q)[..k.min(topk.hits(q).len())],
            _ => panic!("oracle holds no k = {k} lists"),
        };
        hits.iter().map(|&(row, score)| (row, self.classes[row], score)).collect()
    }
}

/// Which model each registry generation serves. Written by the single
/// publisher before it publishes, read by every checker afterwards.
#[derive(Debug)]
pub struct GenTable(Vec<AtomicU8>);

impl GenTable {
    const UNSET: u8 = u8::MAX;

    pub fn new(capacity: usize) -> Self {
        GenTable((0..capacity).map(|_| AtomicU8::new(Self::UNSET)).collect())
    }

    pub fn set(&self, generation: u64, model: usize) {
        let slot = self.0.get(generation as usize).expect("more publishes than the table holds");
        // SeqCst store before `Server::publish`: any answer stamped with
        // this generation is produced after the store is visible.
        slot.store(u8::try_from(model).expect("fewer than 255 models"), Ordering::SeqCst);
    }

    pub fn get(&self, generation: u64) -> Option<usize> {
        let v = self.0.get(generation as usize)?.load(Ordering::SeqCst);
        (v != Self::UNSET).then_some(v as usize)
    }
}

/// Everything the served models should answer, plus the query labels.
#[derive(Debug)]
pub struct Oracle {
    pub models: Vec<ModelOracle>,
    pub labels: Vec<usize>,
    pub gens: GenTable,
}

/// What one caller saw over a phase.
#[derive(Debug, Clone)]
pub struct Tally {
    /// Queries sent or submitted.
    pub attempted: u64,
    /// Queries answered with a slate (right or wrong).
    pub answered: u64,
    /// Error frames, shed or rejected submissions, timeouts, and queries
    /// never answered.
    pub errors: u64,
    /// Answers differing from the oracle.
    pub mismatches: u64,
    /// Answers whose top-1 class equals the query's label.
    pub top1_correct: u64,
    pub latency: Reservoir,
}

/// Mismatches printed per tally before going quiet.
const MISMATCH_PRINTS: u64 = 10;

impl Tally {
    pub fn new(seed: u64) -> Self {
        Tally {
            attempted: 0,
            answered: 0,
            errors: 0,
            mismatches: 0,
            top1_correct: 0,
            latency: Reservoir::new(Reservoir::CAP, seed),
        }
    }

    pub fn failed(&self) -> u64 {
        self.errors + self.mismatches
    }

    /// Checks one answered query `q` asked at `k` and records its
    /// latency.
    pub fn answer(
        &mut self,
        oracle: &Oracle,
        q: usize,
        k: usize,
        hits: &[Prediction],
        lat: Duration,
    ) {
        self.answered += 1;
        self.latency.record(lat);
        let got: Vec<(usize, usize, u32)> =
            hits.iter().map(|h| (h.row, h.class, h.score)).collect();
        let generation = hits.first().map_or(0, |h| h.generation);
        let consistent = hits.iter().all(|h| h.generation == generation && !h.degraded);
        let want = oracle.gens.get(generation).map(|m| oracle.models[m].expected(q, k));
        if consistent && want.as_deref() == Some(got.as_slice()) {
            self.top1_correct += u64::from(got[0].1 == oracle.labels[q]);
        } else {
            self.mismatches += 1;
            if self.mismatches <= MISMATCH_PRINTS {
                eprintln!(
                    "mismatch: query {q} k {k} generation {generation}: got {got:?}, oracle {want:?}"
                );
            }
        }
    }

    /// Counts `n` queries that failed without a slate.
    pub fn error(&mut self, n: u64, what: &str) {
        self.errors += n;
        if self.errors <= MISMATCH_PRINTS {
            eprintln!("failure: {n} quer{} {what}", if n == 1 { "y" } else { "ies" });
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.answered += other.answered;
        self.errors += other.errors;
        self.mismatches += other.mismatches;
        self.top1_correct += other.top1_correct;
        self.latency.merge(other.latency);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_linalg::BitVector;

    fn bits(pattern: &[u8]) -> BitVector {
        BitVector::from_bools(&pattern.iter().map(|&b| b == 1).collect::<Vec<_>>())
    }

    fn tiny_oracle() -> Oracle {
        let rows = [bits(&[1, 1, 0, 0]), bits(&[0, 0, 1, 1]), bits(&[1, 0, 1, 0])];
        let memory = SearchMemory::from_rows(&rows).unwrap();
        let pool = QueryBatch::from_vectors(&[bits(&[1, 1, 1, 0])]).unwrap();
        let gens = GenTable::new(4);
        gens.set(1, 0);
        Oracle {
            models: vec![ModelOracle::new(&memory, vec![7, 8, 9], &pool, 3)],
            labels: vec![7],
            gens,
        }
    }

    fn pred(row: usize, class: usize, score: u32, generation: u64) -> Prediction {
        Prediction { row, class, score, generation, degraded: false }
    }

    #[test]
    fn right_answers_pass_and_count_accuracy() {
        let oracle = tiny_oracle();
        assert_eq!(oracle.models[0].expected(0, 3), vec![(0, 7, 2), (2, 9, 2), (1, 8, 1)]);
        let mut t = Tally::new(1);
        t.answer(&oracle, 0, 1, &[pred(0, 7, 2, 1)], Duration::from_micros(5));
        t.answer(&oracle, 0, 2, &[pred(0, 7, 2, 1), pred(2, 9, 2, 1)], Duration::from_micros(5));
        assert_eq!((t.answered, t.failed(), t.top1_correct), (2, 0, 2));
    }

    #[test]
    fn injected_wrong_answers_and_errors_each_count_as_failed() {
        let oracle = tiny_oracle();
        let mut t = Tally::new(1);
        // Wrong row.
        t.answer(&oracle, 0, 1, &[pred(2, 9, 2, 1)], Duration::from_micros(5));
        // Right slate, but stamped with a generation nobody published.
        t.answer(&oracle, 0, 1, &[pred(0, 7, 2, 3)], Duration::from_micros(5));
        // Right slate flagged degraded.
        t.answer(
            &oracle,
            0,
            1,
            &[Prediction { degraded: true, ..pred(0, 7, 2, 1) }],
            Duration::from_micros(5),
        );
        // A short slate.
        t.answer(&oracle, 0, 3, &[pred(0, 7, 2, 1)], Duration::from_micros(5));
        t.error(1, "answered by an error frame");
        assert_eq!((t.mismatches, t.errors, t.failed()), (4, 1, 5));
        assert_eq!(t.top1_correct, 0);
    }
}
