//! Progressive-precision cascade search: prefix-pruned associative
//! lookup that is bit-identical to the exact sweep.
//!
//! The IMC array the paper models evaluates an associative search
//! dimension group by dimension group, and its energy ladder (Fig. 7) is
//! proportional to how many dimensions are activated. The software
//! analogue: score a *prefix* of the dimensions for every row, prune the
//! rows that provably cannot win, and spend the remaining dimensions only
//! on the survivors.
//!
//! Exactness is by construction, not by approximation. The dot
//! similarity a row can still collect from the unscored suffix is bounded
//! by the **Hamming bound**: from `dot = (ones(q) + ones(r) − ham(q,
//! r)) / 2` and `ham ≥ |ones(q) − ones(r)|` over any dimension range,
//!
//! ```text
//! dot_suffix(q, r) ≤ min(ones(q_suffix), ones(r_suffix))
//! ```
//!
//! so after any stage a row `r` may be discarded exactly when
//!
//! ```text
//! partial[r] + min(ones(q_suffix), ones(r_suffix)) < best_partial_so_far
//! ```
//!
//! because its final score is then *strictly* below another row's final
//! score: it can neither win nor tie, so the winner **and** the
//! workspace's low-row tie-break are unchanged. Top-k prunes against the
//! k-th best partial instead, with the row-side bound `ones(r_suffix)`
//! first and the query side only once more than `k` rows survive it. Row
//! suffix popcounts are a property of the stored memory (in the paper's
//! hardware they are known when the array is programmed): a
//! [`BoundCascade`] or [`SegmentedCascade`] derives them once when it
//! binds a plan, and the one-shot [`crate::SearchMemory::search_cascade_topk`]
//! derives them per call. Query suffix popcounts cost one pass over a
//! query's words, taken only when needed. A one-stage [`CascadePlan`]
//! degenerates to the exact search; a plan of `D` one-dimension stages is
//! the paper's column-by-column evaluation.
//!
//! Each entry point — [`crate::SearchMemory::search_cascade_topk`],
//! [`BoundCascade::search_topk`] and [`SegmentedCascade::search_topk`] —
//! returns per-query k-best lists; `k = 1` is the argmax. The
//! `cascade_equivalence` proptest suite pins list/score/tie-break
//! identity against the exact sweep for arbitrary plans on every
//! reachable kernel backend (memories pinned with
//! [`crate::SearchMemory::with_backend`]), and the telemetry against a
//! row-at-a-time replay of the prune rule.
//!
//! Every stage runs as a word-window pass of the one blocked sweep
//! ([`crate::blocked`]): per query, stage `s` accumulates the panels of
//! words `[ends[s-1] / 64, word_end(ends[s]))` — the query's boundary
//! words masked — only for the 8-row blocks that still hold a live lane,
//! adds the lane counts to the query's partial scores, and tracks the
//! k-th best partial as it goes; the prune is a lane compare that yields
//! the next stage's live mask, and each stage walks only the blocks the
//! last one kept. A block with one live lane scores that row through the
//! flat kernel on the row-major copy instead. Stage 0 admits every block
//! except those the row-side bound with a partial of 0 rules out: once
//! the stage's list holds `k` rows, a block whose largest row popcount
//! ([`crate::BlockedBitMatrix::block_max`], summed over the partitions of
//! a segmented memory) is strictly below its k-th partial is skipped
//! unscored, since the final k-th score is at least that partial. So a
//! stage that cannot prune costs about what the exact sweep does, a
//! memory whose heavy rows share a few blocks costs those blocks, and no
//! stage materializes a queries × rows score matrix. A segmented memory
//! runs the same pass with one window per partition a stage covers. The
//! pass runs on the searched memory's backend: the scalar backend's
//! portable lanes go through the same kernel-table entry as every SIMD
//! backend's.
//!
//! Every search also returns [`CascadeStats`] — per-stage shortlist
//! sizes and the total number of activated row-dimensions — which is the
//! telemetry `imc_sim` converts back into the paper's energy ladder.

use crate::batch::{self, Slots, TopK};
use crate::bits::BitMatrix;
use crate::blocked::{BlockPass, SearchMemory, StageWork, Window, LANES};
use crate::error::{LinalgError, Result};
use crate::kernel;
use crate::{QueryBatch, QueryBatchBuilder};
use std::fmt;
use std::sync::Arc;

/// Stage layout of a cascade search: strictly increasing dimension
/// prefixes ending at the full dimensionality.
///
/// Stage `k` scores dimensions `[ends[k-1], ends[k])` (stage 0 starts at
/// 0). Any positive widths are legal; stage boundaries that are multiples
/// of 64 are fastest because they avoid masked boundary words, and a
/// first stage near `D / 8 .. D / 4` is a good default for workloads
/// whose winners separate early (see the README's plan-picking guidance).
///
/// # Example
///
/// ```
/// use hd_linalg::CascadePlan;
///
/// let plan = CascadePlan::from_widths(512, &[64, 192, 256]).unwrap();
/// assert_eq!(plan.stages(), 3);
/// assert_eq!(plan.ends(), &[64, 256, 512]);
/// assert_eq!(CascadePlan::exact(512).stages(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CascadePlan {
    dim: usize,
    /// Cumulative stage boundaries; strictly increasing, last == `dim`.
    ends: Vec<usize>,
}

impl CascadePlan {
    /// Builds a plan from per-stage widths, which must be positive and
    /// sum to `dim`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] when `widths` is empty or contains
    /// a zero width, and [`LinalgError::ShapeMismatch`] when the widths
    /// do not sum to `dim`.
    pub fn from_widths(dim: usize, widths: &[usize]) -> Result<Self> {
        if widths.is_empty() {
            return Err(LinalgError::Empty { op: "CascadePlan::from_widths" });
        }
        let mut ends = Vec::with_capacity(widths.len());
        let mut total = 0usize;
        for &w in widths {
            if w == 0 {
                return Err(LinalgError::Empty { op: "CascadePlan stage width" });
            }
            total += w;
            ends.push(total);
        }
        if total != dim {
            return Err(LinalgError::ShapeMismatch {
                op: "CascadePlan::from_widths",
                expected: dim,
                found: total,
            });
        }
        Ok(CascadePlan { dim, ends })
    }

    /// An even split into `stages` stages (the first `dim % stages`
    /// stages take one extra dimension).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for zero stages or zero `dim`, and
    /// [`LinalgError::ShapeMismatch`] when `stages > dim` (a stage would
    /// be empty).
    pub fn uniform(dim: usize, stages: usize) -> Result<Self> {
        if stages == 0 || dim == 0 {
            return Err(LinalgError::Empty { op: "CascadePlan::uniform" });
        }
        if stages > dim {
            return Err(LinalgError::ShapeMismatch {
                op: "CascadePlan::uniform",
                expected: dim,
                found: stages,
            });
        }
        let base = dim / stages;
        let extra = dim % stages;
        let widths: Vec<usize> = (0..stages).map(|s| base + usize::from(s < extra)).collect();
        Self::from_widths(dim, &widths)
    }

    /// The two-stage plan `[first, dim - first]` — score a prefix, then
    /// finish the survivors. The most common shape in practice.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] when either stage would be empty
    /// (`first == 0` or `first >= dim`).
    pub fn prefix(dim: usize, first: usize) -> Result<Self> {
        if first == 0 || first >= dim {
            return Err(LinalgError::Empty { op: "CascadePlan::prefix" });
        }
        Self::from_widths(dim, &[first, dim - first])
    }

    /// The degenerate one-stage plan: the cascade IS the exact search
    /// (no pruning can fire; telemetry reports full activation).
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn exact(dim: usize) -> Self {
        assert!(dim > 0, "cascade plan needs a positive dimensionality");
        CascadePlan { dim, ends: vec![dim] }
    }

    /// Dimensionality the plan covers.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stages.
    #[inline]
    pub fn stages(&self) -> usize {
        self.ends.len()
    }

    /// Cumulative stage boundaries (strictly increasing; last == `dim`).
    #[inline]
    pub fn ends(&self) -> &[usize] {
        &self.ends
    }

    /// Per-stage widths in dimensions.
    pub fn widths(&self) -> Vec<usize> {
        let mut prev = 0usize;
        self.ends
            .iter()
            .map(|&e| {
                let w = e - prev;
                prev = e;
                w
            })
            .collect()
    }

    /// Rounds every interior stage boundary to the nearest positive
    /// multiple of `unit`, merging stages that collapse onto the same
    /// boundary (the final boundary stays at `dim`). This adapts an
    /// existing plan to a layout with coarser alignment requirements —
    /// `imc_sim`'s partitioned mappings need stage boundaries on segment
    /// boundaries, and word-aligned (64) boundaries avoid masked
    /// boundary words on any layout. Snapping moves boundaries **without
    /// re-validating the tuner's cost model** (answers are unaffected —
    /// plans change cost, never results); when the alignment constraint
    /// is known before tuning, prefer [`CascadePlan::tuned_aligned`],
    /// which scores candidates on the constrained grid and keeps the
    /// exact-plan fallback guarantee.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] when `unit == 0`.
    ///
    /// # Example
    ///
    /// ```
    /// use hd_linalg::CascadePlan;
    ///
    /// let plan = CascadePlan::from_widths(10_240, &[600, 1_000, 8_640]).unwrap();
    /// let snapped = plan.snapped(2_048).unwrap();
    /// assert_eq!(snapped.ends(), &[2_048, 10_240]); // 600→2048, 1600→2048 (merged)
    /// assert_eq!(plan.snapped(20_000).unwrap().stages(), 1); // unit ≥ dim: exact plan
    /// ```
    pub fn snapped(&self, unit: usize) -> Result<Self> {
        if unit == 0 {
            return Err(LinalgError::Empty { op: "CascadePlan::snapped" });
        }
        if unit >= self.dim {
            return Ok(CascadePlan::exact(self.dim));
        }
        let mut ends = Vec::with_capacity(self.ends.len());
        for &e in &self.ends[..self.ends.len() - 1] {
            let r = ((e + unit / 2) / unit * unit).max(unit);
            if r >= self.dim || ends.last().is_some_and(|&prev| r <= prev) {
                continue;
            }
            ends.push(r);
        }
        ends.push(self.dim);
        Ok(CascadePlan { dim: self.dim, ends })
    }

    /// Auto-tunes a stage plan for `memory` from a sample of real
    /// queries, replacing hand-picked prefixes.
    ///
    /// Candidate word-aligned prefix widths are scored by running the
    /// exact Hamming-bound pruning on (a strided subsample of) the query
    /// sample — the expected pruning threshold is a function of the
    /// memory's row-popcount profile and the sample's query popcounts,
    /// and replaying the bound on the sample measures it directly. Each
    /// candidate's measured per-stage work — the rows its first stage
    /// scores (the blocks its block-max skip keeps), the row blocks each
    /// later stage's pass still scores, and how many of them hold a lone
    /// live row — feeds the compiled-in [`CostModel`], a three-stage
    /// refinement of the best prefix is tried, and the winner is kept
    /// only if it beats the exact plan, priced by the same replay (its one
    /// stage skips blocks too) — workloads whose rows never separate
    /// early get [`CascadePlan::exact`] back, which *is* the right plan
    /// for them. The model is the same on every host, so a memory and
    /// sample tune to the same plan everywhere.
    ///
    /// Two blind spots to plan around. The replay runs at `k = 1`
    /// whatever `k` the traffic asks for: a first stage that cuts the
    /// argmax's rivals may leave more rows alive at `k = 5`. On the
    /// 10240-bit memory of one dense and nine 2% rows, the tuned
    /// `[640, 10240]` measured 46 ns per query at `k = 1` against 74 ns
    /// for the exact plan, and 211 against 165 ns at `k = 5` (256
    /// queries, one thread of a 2-vCPU AVX-512 host). On a 2048 × 2048
    /// memory of one dense, four moderate and 2043 near-empty rows (the
    /// five heavy rows in block 0) the tuner picks the exact plan, whose
    /// skip leaves block 0 alone: 105 / 111 ns at `k = 1` / `5`, against
    /// 114 / 152 ns for `[1024, 2048]`. And the plan is tuned for the
    /// memory it is given: a row shard of it prunes only against its own
    /// rows, so `hd_serve`'s `ShardedSearcher::with_cascade_tuned`, which
    /// tunes on the whole memory, can hand a shard of near-empty rows a
    /// plan that prunes little there. When either bites, measure
    /// candidate plans at the traffic's `k` and shard shape and pass the
    /// winner explicitly.
    ///
    /// The tuned plan is workload advice, not a correctness knob: every
    /// plan yields bit-identical winners; tuning only moves where the
    /// activation (and wall-clock) lands. Tuning runs the candidate
    /// cascades over at most 64 sampled queries, so it costs a few
    /// sample-sized batch searches — amortize it like any other
    /// per-deployment derivation.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for an empty memory or query
    /// sample and [`LinalgError::ShapeMismatch`] when the sample's
    /// dimensionality differs from the memory's.
    ///
    /// # Example
    ///
    /// ```
    /// use hd_linalg::{BitVector, CascadePlan, QueryBatch, SearchMemory};
    ///
    /// let rows: Vec<BitVector> =
    ///     (0..8).map(|r| BitVector::from_bools(&vec![r % 2 == 0; 256])).collect();
    /// let memory = SearchMemory::from_rows(&rows).unwrap();
    /// let sample = QueryBatch::from_vectors(&[BitVector::from_bools(&[true; 256])]).unwrap();
    /// let plan = CascadePlan::tuned(&memory, &sample).unwrap();
    /// assert_eq!(plan.dim(), 256);
    /// assert_eq!(
    ///     memory.search_cascade_topk(&sample, &plan, 1).unwrap().topk().hits(0),
    ///     memory.winners_batch(&sample).unwrap()
    /// );
    /// ```
    pub fn tuned(memory: &SearchMemory, sample: &QueryBatch) -> Result<Self> {
        Self::tuned_aligned(memory, sample, 64)
    }

    /// [`CascadePlan::tuned`] with every stage boundary constrained to a
    /// multiple of `unit` — the tuner for layouts with coarser alignment
    /// requirements than the word grid, primarily `imc_sim`'s
    /// partitioned mappings (`unit = D / P`, the segment length).
    /// Candidates are generated **on** the constrained grid and scored
    /// there, so the exact-plan fallback guarantee survives the
    /// constraint: a coarse grid whose cheapest aligned cascade still
    /// loses to the exact sweep gets [`CascadePlan::exact`] back.
    /// (Snapping an unconstrained tuned plan after the fact with
    /// [`CascadePlan::snapped`] does *not* re-validate cost — prefer
    /// this entry point when the constraint is known up front.)
    ///
    /// # Errors
    ///
    /// As [`CascadePlan::tuned`], plus [`LinalgError::Empty`] when
    /// `unit == 0`.
    ///
    /// # Example
    ///
    /// ```
    /// use hd_linalg::{BitVector, CascadePlan, QueryBatch, SearchMemory};
    ///
    /// let rows: Vec<BitVector> =
    ///     (0..8).map(|r| BitVector::from_bools(&vec![r % 2 == 0; 512])).collect();
    /// let memory = SearchMemory::from_rows(&rows).unwrap();
    /// let sample = QueryBatch::from_vectors(&[BitVector::from_bools(&[true; 512])]).unwrap();
    /// let plan = CascadePlan::tuned_aligned(&memory, &sample, 128).unwrap();
    /// for &end in &plan.ends()[..plan.stages() - 1] {
    ///     assert_eq!(end % 128, 0); // every interior boundary on the segment grid
    /// }
    /// ```
    pub fn tuned_aligned(memory: &SearchMemory, sample: &QueryBatch, unit: usize) -> Result<Self> {
        let m = memory.matrix();
        if unit == 0 {
            return Err(LinalgError::Empty { op: "CascadePlan::tuned_aligned" });
        }
        if m.rows() == 0 || m.cols() == 0 {
            return Err(LinalgError::Empty { op: "CascadePlan::tuned" });
        }
        if sample.is_empty() {
            return Err(LinalgError::Empty { op: "CascadePlan::tuned(sample)" });
        }
        if sample.dim() != m.cols() {
            return Err(LinalgError::ShapeMismatch {
                op: "CascadePlan::tuned",
                expected: m.cols(),
                found: sample.dim(),
            });
        }
        let dim = m.cols();
        let model = &CostModel::active();

        // Strided subsample: candidate evaluation replays the pruning on
        // every kept query, so cap the work while staying representative
        // of the sample's traffic mix.
        let take = sample.len().min(TUNE_SAMPLE_CAP);
        let sub_owned: QueryBatch;
        let sub = if take == sample.len() {
            sample
        } else {
            let mut builder = QueryBatchBuilder::with_capacity(dim, take);
            for i in 0..take {
                let pick = i * sample.len() / take;
                builder.push(sample.query(pick)).expect("subsample keeps the dimensionality");
            }
            sub_owned = builder.take_batch().expect("take >= 1 query");
            &sub_owned
        };

        // Two-stage candidates on the constrained grid: power-of-two
        // fractions of the dimensionality rounded up to the word grid
        // when the unit allows it, otherwise power-of-two multiples of
        // the unit itself.
        let mut widths: Vec<usize> = Vec::new();
        if unit <= 64 && 64usize.is_multiple_of(unit) {
            for frac in [64usize, 32, 16, 8, 4, 2] {
                let w = (dim / frac).max(1).next_multiple_of(64);
                if w < dim && !widths.contains(&w) {
                    widths.push(w);
                }
            }
        } else {
            let mut w = unit;
            while w < dim {
                widths.push(w);
                w *= 2;
            }
        }
        let exact = CascadePlan::exact(dim);
        let exact_cost = modeled_cost(&exact, sub.len(), &probe(memory, sub, &exact), model, unit);
        let mut best: Option<(CascadePlan, f64)> = None;
        for &w in &widths {
            let plan = CascadePlan::prefix(dim, w).expect("0 < w < dim");
            let cost = modeled_cost(&plan, sub.len(), &probe(memory, sub, &plan), model, unit);
            if best.as_ref().is_none_or(|(_, c)| cost < *c) {
                best = Some((plan, cost));
            }
        }
        // Three-stage refinement: give the best prefix a mid checkpoint
        // (on the same grid) so late-separating rows are cut before the
        // full suffix.
        if let Some((two, _)) = &best {
            let e0 = two.ends()[0];
            let grid = if unit <= 64 && 64usize.is_multiple_of(unit) { 64 } else { unit };
            let mid = (4 * e0).next_multiple_of(grid);
            if mid > e0 && mid < dim {
                let plan = CascadePlan::from_widths(dim, &[e0, mid - e0, dim - mid])
                    .expect("strictly increasing boundaries");
                let cost = modeled_cost(&plan, sub.len(), &probe(memory, sub, &plan), model, unit);
                if best.as_ref().is_none_or(|(_, c)| cost < *c) {
                    best = Some((plan, cost));
                }
            }
        }
        match best {
            Some((plan, cost)) if cost < exact_cost => Ok(plan),
            _ => Ok(exact),
        }
    }
}

/// Queries the tuner replays candidate plans over, at most.
const TUNE_SAMPLE_CAP: usize = 64;

/// The per-stage work of `plan` replayed over `sample`. The replay runs
/// at `k = 1`, whatever `k` the traffic asks for: a plan whose first
/// stage prunes to the argmax may keep far more rows alive at `k = 5`
/// (see [`CascadePlan::tuned`]).
fn probe(memory: &SearchMemory, sample: &QueryBatch, plan: &CascadePlan) -> Vec<StageWork> {
    let row_suffix = row_suffix_table(memory.matrix(), plan.ends());
    contiguous_pass(memory, sample, plan, &row_suffix, 1).1
}

/// Packed words one stage `[prev, e)` drives per (query, row) on a
/// layout whose stage grid is `unit`-bit segments.
///
/// On the word grid (`unit % 64 == 0`, including the contiguous
/// `unit = 64` default) a stage reads words `[prev / 64, word_end(e))`:
/// interior boundaries sit on the word grid, so only an unaligned
/// *final* boundary pays a partial word, exactly once. Off the word
/// grid (`unit % 64 != 0` — partitioned layouts with unaligned segment
/// lengths) the storage is per-segment: each `unit`-bit segment lives in
/// its own `word_end(unit)` padded words and a stage drives whole
/// segments, so the per-stage count is segments × padded words — there
/// is no seam word shared with a neighbouring stage. The previous
/// accounting applied the contiguous word-window formula to every grid,
/// which both double-charged a (nonexistent) shared seam word to the
/// two stages meeting at each unaligned boundary and under-charged the
/// padding sub-word segments actually drive.
fn stage_words(prev: usize, e: usize, unit: usize) -> usize {
    if unit.is_multiple_of(64) {
        word_end(e) - prev / 64
    } else {
        (e - prev).div_ceil(unit) * word_end(unit)
    }
}

/// The cascade tuner's cost model, in stage-0 row-word units (one unit
/// = the blocked sweep scoring one packed word of one row).
///
/// The prices are compiled in rather than timed on the host, so every
/// host prices a candidate plan the same way and tunes a memory to the
/// same plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Per-word cost of scoring a lone live row through the flat kernel,
    /// relative to one lane of the blocked sweep.
    pub cont_weight: f64,
    /// Fixed cost of each row block a later stage scores (its prune
    /// compare, count merge and k-best tracking).
    pub row_overhead_words: f64,
    /// Fixed per-query, per-stage overhead (loop set-up, the prune
    /// compare and list of a stage, lazy suffix popcounts).
    pub stage_overhead_words: f64,
}

impl CostModel {
    /// The model [`CascadePlan::tuned`] prices candidate plans with:
    /// `cont=4,row=2,stage=80`.
    ///
    /// The stage price is set from paired timings of exact and two-stage
    /// plans on memories whose heavy rows share block 0 (one thread,
    /// AVX-512, k = 1): a second stage measured 8 ns per query slower on
    /// a 2048 × 2048 memory where it saved 57 row-words, and 28 ns faster
    /// on a 10240-bit one where it saved 513. Those two points put a
    /// stage near 160 row-words. The price is held at 80: the wide memory
    /// needs more than 57 to tune to the exact plan, and above about 100
    /// the pinned tuned plans of the 2000-bit imbalanced memories stop
    /// cascading.
    pub const fn active() -> Self {
        CostModel { cont_weight: 4.0, row_overhead_words: 2.0, stage_overhead_words: 80.0 }
    }
}

impl fmt::Display for CostModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cont={},row={},stage={}",
            self.cont_weight, self.row_overhead_words, self.stage_overhead_words
        )
    }
}

/// Deterministic cost of one measured cascade (`queries` queries and
/// their per-stage block tally) under `model`, in stage-0 row-word
/// units, on a layout whose stage grid is `unit`-bit segments. Stage 0
/// pays for the rows of the blocks it scored (the ones its block-max
/// skip admitted; the exact plan is priced by the same replay, skips
/// included); a later stage pays what its block pass does: a
/// live block with several live lanes scores all [`LANES`] of them, a
/// lone live lane is one row through the flat kernel at `cont_weight`
/// per word, and every live block pays `row_overhead_words` for its
/// prune compare and k-best tracking.
fn modeled_cost(
    plan: &CascadePlan,
    queries: usize,
    work: &[StageWork],
    model: &CostModel,
    unit: usize,
) -> f64 {
    let mut prev = 0usize;
    let mut cost = 0.0;
    for (s, (&e, w)) in plan.ends().iter().zip(work).enumerate() {
        let words = stage_words(prev, e, unit) as f64;
        let (blocks, lone) = (w.blocks as f64, w.lone as f64);
        cost += if s == 0 {
            w.rows as f64 * words
        } else {
            ((blocks - lone) * LANES as f64 + lone * model.cont_weight) * words
                + blocks * model.row_overhead_words
        };
        cost += queries as f64 * model.stage_overhead_words;
        prev = e;
    }
    cost
}

/// Activation telemetry of one cascade search — the quantity the paper's
/// Fig. 7 energy ladder is proportional to.
///
/// `activated_dims` counts `(row, dimension)` products actually scored:
/// a search that scores every row activates `queries × rows × dim` of
/// them ([`CascadeStats::exact_dims`]), every row of a block the first
/// stage skips saves all its dimensions (the exact one-stage plan
/// included), and every pruned row saves its remaining ones.
/// [`CascadeStats::merge`] makes the counters additive across query
/// chunks **of the same memory** (merging stats from memories with
/// different row counts would corrupt [`CascadeStats::exact_dims`], so
/// shapes are asserted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CascadeStats {
    queries: usize,
    rows: usize,
    dim: usize,
    stage_rows: Vec<u64>,
    activated_dims: u64,
}

impl CascadeStats {
    pub(crate) fn zeroed(rows: usize, dim: usize, stages: usize) -> Self {
        CascadeStats { queries: 0, rows, dim, stage_rows: vec![0; stages], activated_dims: 0 }
    }

    /// Queries answered.
    #[inline]
    pub fn queries(&self) -> usize {
        self.queries
    }

    /// Memory rows searched per query.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Dimensionality of the searched memory.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Rows entering each stage, summed over queries (stage 0 admits the
    /// rows of every block its block-max skip keeps).
    #[inline]
    pub fn stage_rows(&self) -> &[u64] {
        &self.stage_rows
    }

    /// Total `(row, dimension)` products scored across all queries.
    #[inline]
    pub fn activated_dims(&self) -> u64 {
        self.activated_dims
    }

    /// What scoring every row would activate: `queries × rows × dim`.
    #[inline]
    pub fn exact_dims(&self) -> u64 {
        self.queries as u64 * self.rows as u64 * self.dim as u64
    }

    /// `activated_dims / exact_dims` in `(0, 1]` — the relative energy of
    /// the cascade under the paper's activation-proportional model (1.0
    /// when no block was skipped and no row pruned).
    pub fn activation_fraction(&self) -> f64 {
        let exact = self.exact_dims();
        if exact == 0 {
            return 1.0;
        }
        self.activated_dims as f64 / exact as f64
    }

    /// Folds another search's counters into this one, e.g. successive
    /// batches against the same memory. Shapes must agree.
    ///
    /// # Panics
    ///
    /// Panics if `other` was produced under a different plan shape
    /// (stage count) or a memory of different dimensionality or row
    /// count.
    pub fn merge(&mut self, other: &CascadeStats) {
        assert_eq!(self.stage_rows.len(), other.stage_rows.len(), "merging unrelated plans");
        assert_eq!(self.dim, other.dim, "merging unrelated memories");
        assert_eq!(self.rows, other.rows, "merging unrelated memories");
        self.queries += other.queries;
        self.activated_dims += other.activated_dims;
        for (a, b) in self.stage_rows.iter_mut().zip(&other.stage_rows) {
            *a += b;
        }
    }
}

/// Per-query k-best lists plus activation telemetry of one cascade
/// search. The lists are bit-identical to
/// [`crate::SearchMemory::topk_batch`] — same rows, same scores, same
/// score-desc/row-asc order; at `k = 1` each query's one entry is its
/// winner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CascadeTopK {
    topk: TopK,
    stats: CascadeStats,
}

impl CascadeTopK {
    /// The per-query k-best lists.
    pub fn topk(&self) -> &TopK {
        &self.topk
    }

    /// Consumes the results, yielding the k-best lists without a copy.
    pub fn into_topk(self) -> TopK {
        self.topk
    }

    /// Activation telemetry of the search.
    pub fn stats(&self) -> &CascadeStats {
        &self.stats
    }
}

/// Exclusive end of the packed-word range covering bits `[.., hi)`.
#[inline]
fn word_end(hi: usize) -> usize {
    (hi - 1) / 64 + 1
}

/// Ones of `words`' bits in `[lo, hi)` without copying: the flat
/// kernel's popcount `dot(w, w)` of the covering words, less the bits
/// below `lo` and from `hi` on.
fn ones_in_range(words: &[u64], lo: usize, hi: usize, dot: Dot) -> u32 {
    debug_assert!(lo < hi);
    let w = &words[lo / 64..word_end(hi)];
    let below = w[0] & !(u64::MAX << (lo % 64));
    let above = w[w.len() - 1] & !(u64::MAX >> ((64 - hi % 64) % 64));
    dot(w, w) - below.count_ones() - above.count_ones()
}

/// Fills `suffix` (one slot per stage) with the popcount of `words` in
/// the dimensions **after** each stage boundary: `suffix[k] =
/// ones(words[ends[k]..dim))` (0 for the final stage). One pass over the
/// suffix words (stage 0's own bits are never needed): per-stage counts,
/// then a reverse cumulative sum.
fn suffix_ones(words: &[u64], ends: &[usize], suffix: &mut [u32], dot: Dot) {
    debug_assert_eq!(suffix.len(), ends.len());
    suffix[0] = 0;
    for k in 1..ends.len() {
        suffix[k] = ones_in_range(words, ends[k - 1], ends[k], dot);
    }
    // suffix[k] currently holds stage k's own ones; shift into "ones
    // after stage k" by accumulating from the back.
    let mut acc = 0u32;
    for s in suffix.iter_mut().rev() {
        let stage = *s;
        *s = acc;
        acc += stage;
    }
}

/// A flat popcount-dot kernel: what a block pass scores lone rows and
/// counts query bits with, and what the suffix tables count row bits
/// with.
type Dot = fn(&[u64], &[u64]) -> u32;

/// Row suffix popcounts at every stage boundary: entry `k * stride + r`
/// holds the ones of row `r` after stage `k`, with `stride` the rows
/// rounded up to whole [`LANES`] blocks (padding lanes 0). A property of
/// the stored memory (known when a hardware array is programmed). Empty
/// for a one-stage plan, which never prunes.
fn row_suffix_table(m: &BitMatrix, ends: &[usize]) -> Vec<u32> {
    let rows = m.rows();
    let stages = ends.len();
    if stages == 1 {
        return Vec::new();
    }
    let stride = rows.next_multiple_of(LANES);
    let mut table = vec![0u32; stages * stride];
    let mut scratch = vec![0u32; stages];
    for r in 0..rows {
        suffix_ones(m.row_words_pub(r), ends, &mut scratch, batch::dot_words);
        for (k, &s) in scratch.iter().enumerate() {
            table[k * stride + r] = s;
        }
    }
    table
}

/// The shared core of every cascade entry point: one block pass
/// ([`crate::blocked::BlockPass`]) of `batch` over `parts`, stage by
/// stage through `windows` (in stage order), on the first part's backend
/// in query chunks across threads under the `rayon` feature
/// ([`batch::chunk_queries`]; queries are independent, so the merged
/// result is bit-identical to the serial order). Returns the k-best
/// lists (`min(k, rows)` per query), the telemetry, and the per-stage
/// work the tuner prices.
fn search_pass(
    parts: &[SearchMemory],
    windows: &[Window<'_>],
    batch: &QueryBatch,
    ends: &[usize],
    row_suffix: &[u32],
    k: usize,
) -> (CascadeTopK, Vec<StageWork>) {
    let backend = parts[0].backend();
    let table = kernel::table_for(backend);
    // The active backend scores lone rows through the dispatching flat
    // kernel (inline scalar below 8 words); a pinned backend runs its
    // own flat kernel at every width.
    let dot: Dot = if backend == kernel::active() { batch::dot_words } else { table.dot_words };
    let run = table.cascade_pass;
    let (rows, dim, stages) = (parts[0].rows(), batch.dim(), ends.len());
    let pass = BlockPass { parts, windows, row_suffix, dot };
    let per_query = k.min(rows);
    let mut entries = vec![(0usize, 0u32); batch.len() * per_query];
    let lists = Slots::new(&mut entries, per_query);
    let chunks = batch::chunk_queries(batch.len(), rows * dim.div_ceil(64), lists, |q0, lists| {
        let mut work = vec![StageWork::default(); stages];
        run(&pass, q0, lists, &mut work);
        work
    });
    let mut work = vec![StageWork::default(); stages];
    let mut stats = CascadeStats::zeroed(rows, dim, stages);
    stats.queries = batch.len();
    let mut prev = 0usize;
    for (s, &e) in ends.iter().enumerate() {
        for c in chunks.iter().map(|chunk| chunk[s]) {
            (work[s].rows, work[s].blocks, work[s].lone) =
                (work[s].rows + c.rows, work[s].blocks + c.blocks, work[s].lone + c.lone);
        }
        stats.stage_rows[s] = work[s].rows;
        stats.activated_dims += work[s].rows * (e - prev) as u64;
        prev = e;
    }
    (CascadeTopK { topk: TopK::from_flat(batch.len(), k, per_query, entries), stats }, work)
}

/// Cascade top-k of `batch` over `memory` under `plan`, with
/// `row_suffix` the memory's [`row_suffix_table`] for the plan, as one
/// block pass on the memory's backend: stage `s` scores words
/// `[ends[s-1] / 64, word_end(ends[s]))` of every row block that still
/// holds a live lane, the query's boundary words masked.
fn contiguous_pass(
    memory: &SearchMemory,
    batch: &QueryBatch,
    plan: &CascadePlan,
    row_suffix: &[u32],
    k: usize,
) -> (CascadeTopK, Vec<StageWork>) {
    let mut prev = 0usize;
    let windows: Vec<Window<'_>> = (plan.ends().iter().enumerate())
        .map(|(stage, &hi)| {
            let lo = std::mem::replace(&mut prev, hi);
            Window { stage, part: 0, queries: batch, lo, hi }
        })
        .collect();
    let parts = std::slice::from_ref(memory);
    search_pass(parts, &windows, batch, plan.ends(), row_suffix, k)
}

/// A cascade plan bound to one shared memory: the handle owns the
/// plan's row-suffix table over that memory, derived once at binding and
/// reused by every search, and carries the `Arc` a serving thread needs
/// — this is what `hd_serve`'s cascade shards hold. The memory behind an
/// `Arc` cannot change, so the table never goes stale.
///
/// One-shot callers can call [`SearchMemory::search_cascade_topk`],
/// which derives the table per call; repeated batches against one memory
/// and plan should bind a handle instead.
///
/// # Example
///
/// ```
/// use hd_linalg::{BitVector, BoundCascade, CascadePlan, QueryBatch, SearchMemory};
/// use std::sync::Arc;
///
/// let rows: Vec<BitVector> =
///     (0..8).map(|r| BitVector::from_bools(&[r % 2 == 0, true, false, r % 3 == 0])).collect();
/// let memory = Arc::new(SearchMemory::from_rows(&rows).unwrap());
/// let bound = BoundCascade::new(Arc::clone(&memory), CascadePlan::prefix(4, 2).unwrap()).unwrap();
/// let batch = QueryBatch::from_vectors(&[BitVector::from_bools(&[true; 4])]).unwrap();
/// let top1 = bound.search_topk(&batch, 1).unwrap();
/// assert_eq!(top1.topk().hits(0), memory.winners_batch(&batch).unwrap());
/// ```
#[derive(Debug, Clone)]
pub struct BoundCascade {
    memory: Arc<SearchMemory>,
    plan: CascadePlan,
    /// Row-suffix popcounts of `memory` at the plan's stage boundaries.
    row_suffix: Vec<u32>,
}

impl BoundCascade {
    /// Binds `plan` to `memory`, deriving the row-suffix table.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for a memory with no rows and
    /// [`LinalgError::ShapeMismatch`] when the plan's dimensionality
    /// differs from the memory's.
    pub fn new(memory: Arc<SearchMemory>, plan: CascadePlan) -> Result<Self> {
        let m = memory.matrix();
        if m.rows() == 0 {
            return Err(LinalgError::Empty { op: "BoundCascade::new" });
        }
        if plan.dim() != m.cols() {
            return Err(LinalgError::ShapeMismatch {
                op: "BoundCascade::new",
                expected: m.cols(),
                found: plan.dim(),
            });
        }
        let row_suffix = row_suffix_table(m, plan.ends());
        Ok(BoundCascade { memory, plan, row_suffix })
    }

    /// The bound stage plan.
    pub fn plan(&self) -> &CascadePlan {
        &self.plan
    }

    /// The bound memory.
    pub fn memory(&self) -> &SearchMemory {
        &self.memory
    }

    /// Top-k cascade search over the bound memory — bit-identical lists
    /// to [`SearchMemory::topk_batch`] (score desc, row asc), with no
    /// per-call re-derivation. `k` is clamped to the row count.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for `k == 0` and
    /// [`LinalgError::ShapeMismatch`] when the batch dimensionality
    /// differs from the memory's.
    pub fn search_topk(&self, batch: &QueryBatch, k: usize) -> Result<CascadeTopK> {
        if k == 0 {
            return Err(LinalgError::Empty { op: "BoundCascade::search_topk" });
        }
        let m = self.memory.matrix();
        if batch.dim() != m.cols() {
            return Err(LinalgError::ShapeMismatch {
                op: "BoundCascade::search_topk",
                expected: m.cols(),
                found: batch.dim(),
            });
        }
        Ok(contiguous_pass(&self.memory, batch, &self.plan, &self.row_suffix, k).0)
    }
}

/// A cascade plan bound to a **column-segmented** memory: `P` equal-width
/// segment memories where segment `p` of logical row `r` holds dimensions
/// `[p·seg_len, (p+1)·seg_len)` — the layout `imc_sim`'s partitioned
/// mappings store (one [`SearchMemory`] per partition). Stage boundaries
/// must land on segment boundaries (snap a tuned plan with
/// [`CascadePlan::snapped`]): a prefix of logical dimensions is then a
/// prefix of whole segments, so each stage is one block pass that sums
/// the lane counts of the partitions it covers, and the pruning carries
/// survivors segment by segment. Lists (scores and the low-row tie-break
/// included) are bit-identical to accumulating every partition's exact
/// scores.
///
/// The handle owns the per-(plan, layout) derived artifact — the logical
/// row-suffix table assembled from per-partition row popcounts — so
/// repeated batches skip the derivation; a one-stage plan derives
/// nothing. The segment memories themselves stay with the caller (who
/// owns and may mutate them): pass the **same** partitions to every
/// [`SegmentedCascade::search_topk`] call, and re-derive the handle when
/// their bits change. `imc_sim::AmMapping` derives one per cascade call.
///
/// # Example
///
/// ```
/// use hd_linalg::{BitVector, CascadePlan, QueryBatch, SearchMemory, SegmentedCascade};
///
/// // Two 4-bit segments of three 8-bit logical rows.
/// let rows: Vec<BitVector> =
///     (0..3).map(|r| BitVector::from_bools(&vec![r != 1; 8])).collect();
/// let parts: Vec<SearchMemory> = (0..2)
///     .map(|p| {
///         let segs: Vec<BitVector> = rows.iter().map(|row| row.slice(p * 4, 4)).collect();
///         SearchMemory::from_rows(&segs).unwrap()
///     })
///     .collect();
/// let plan = CascadePlan::prefix(8, 4).unwrap(); // boundary on the segment seam
/// let cascade = SegmentedCascade::new(&parts, &plan).unwrap();
/// let batch = QueryBatch::from_vectors(&[BitVector::from_bools(&[true; 8])]).unwrap();
/// let results = cascade.search_topk(&parts, &batch, 1).unwrap();
/// assert_eq!(results.topk().hits(0), &[(0, 8)]);
/// ```
#[derive(Debug, Clone)]
pub struct SegmentedCascade {
    plan: CascadePlan,
    rows: usize,
    seg_len: usize,
    /// Logical row-suffix popcounts at every stage boundary, assembled
    /// from per-partition row popcounts (laid out like the contiguous
    /// table: `stages` rows of whole blocks).
    row_suffix: Vec<u32>,
    /// Total popcount of every partition at derivation time (0 without a
    /// table) — a cheap staleness fingerprint: debug builds assert it
    /// against the partitions passed to [`SegmentedCascade::search_topk`],
    /// catching callers that mutated a segment (or swapped in a
    /// different same-shape layout) without re-deriving the handle.
    ones_fingerprint: u64,
}

impl SegmentedCascade {
    /// Derives the handle for `plan` over the segment memories.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for no partitions / empty
    /// partitions and [`LinalgError::ShapeMismatch`] when partitions
    /// disagree on shape, the plan's dimensionality is not
    /// `partitions × seg_len`, or an interior stage boundary is not a
    /// multiple of the segment length (`op:
    /// "SegmentedCascade stage boundary"`, with the offending boundary
    /// as `found`).
    pub fn new(parts: &[SearchMemory], plan: &CascadePlan) -> Result<Self> {
        let (rows, seg_len) = check_segments(parts, plan)?;
        let (stages, ends) = (plan.stages(), plan.ends());
        let stride = rows.next_multiple_of(LANES);
        // A one-stage plan never prunes, so it derives nothing from the
        // bits: no table, and nothing that can go stale.
        let (mut row_suffix, mut ones_fingerprint) = (Vec::new(), 0);
        if stages > 1 {
            // Suffix-accumulate whole partitions from the back: segment
            // popcounts are a property of the programmed layout, computed
            // once here and reused by every search.
            row_suffix = vec![0u32; stages * stride];
            let mut acc = vec![0u32; stride];
            let mut next_part = parts.len();
            for k in (0..stages).rev() {
                let boundary_seg = ends[k] / seg_len;
                while next_part > boundary_seg {
                    next_part -= 1;
                    let m = parts[next_part].matrix();
                    for (r, slot) in acc.iter_mut().enumerate().take(rows) {
                        *slot += m.row_words_pub(r).iter().map(|w| w.count_ones()).sum::<u32>();
                    }
                }
                row_suffix[k * stride..(k + 1) * stride].copy_from_slice(&acc);
            }
            ones_fingerprint = segments_fingerprint(parts);
        }
        Ok(SegmentedCascade { plan: plan.clone(), rows, seg_len, row_suffix, ones_fingerprint })
    }

    /// The bound stage plan.
    pub fn plan(&self) -> &CascadePlan {
        &self.plan
    }

    /// Top-k cascade search over the segment memories the handle was
    /// derived from, on the first partition's backend — per-query k-best
    /// lists bit-identical to summing every partition's exact scores and
    /// selecting with the score-desc/row-asc order (at `k = 1`, the
    /// low-row argmax). `k` is clamped to the row count.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `parts` disagrees
    /// with the bound layout (row count or segment width) or the batch
    /// dimensionality differs from the plan's, and [`LinalgError::Empty`]
    /// for `k == 0` or empty partitions.
    pub fn search_topk(
        &self,
        parts: &[SearchMemory],
        batch: &QueryBatch,
        k: usize,
    ) -> Result<CascadeTopK> {
        if k == 0 {
            return Err(LinalgError::Empty { op: "SegmentedCascade::search_topk" });
        }
        let (rows, seg_len) = check_segments(parts, &self.plan)?;
        if rows != self.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "SegmentedCascade::search",
                expected: self.rows,
                found: rows,
            });
        }
        if seg_len != self.seg_len {
            return Err(LinalgError::ShapeMismatch {
                op: "SegmentedCascade segment width",
                expected: self.seg_len,
                found: seg_len,
            });
        }
        if batch.dim() != self.plan.dim() {
            return Err(LinalgError::ShapeMismatch {
                op: "SegmentedCascade::search",
                expected: self.plan.dim(),
                found: batch.dim(),
            });
        }
        // The row-suffix table describes the bits the handle was derived
        // from; a mutated or swapped segment set would make the pruning
        // bound lie. Cheap popcount fingerprint, debug builds only.
        debug_assert!(
            self.row_suffix.is_empty() || segments_fingerprint(parts) == self.ones_fingerprint,
            "SegmentedCascade::search_topk called with partitions whose bits changed since \
             SegmentedCascade::new — re-derive the handle"
        );
        // Per-partition query segment batches: zero-copy windows over the
        // packed queries on the word grid, views of one packed buffer off
        // it.
        let seg_batches = batch.segments(seg_len)?;
        // Stage `s` is one window per partition it covers: the same
        // block pass as a contiguous memory, summing partitions' lane
        // counts per block.
        let ends = self.plan.ends();
        let mut prev = 0usize;
        let mut windows = Vec::with_capacity(parts.len());
        for (stage, &e) in ends.iter().enumerate() {
            for (p, queries) in
                seg_batches.iter().enumerate().take(e / seg_len).skip(prev / seg_len)
            {
                windows.push(Window { stage, part: p, queries, lo: 0, hi: seg_len });
            }
            prev = e;
        }
        Ok(search_pass(parts, &windows, batch, ends, &self.row_suffix, k).0)
    }
}

/// Total popcount across every partition's rows — the staleness
/// fingerprint [`SegmentedCascade`] pins its derived tables to.
fn segments_fingerprint(parts: &[SearchMemory]) -> u64 {
    parts
        .iter()
        .map(|part| {
            let m = part.matrix();
            (0..m.rows())
                .map(|r| m.row_words_pub(r).iter().map(|w| w.count_ones() as u64).sum::<u64>())
                .sum::<u64>()
        })
        .sum()
}

/// Validates a segment set against a plan; returns `(rows, seg_len)`.
fn check_segments(parts: &[SearchMemory], plan: &CascadePlan) -> Result<(usize, usize)> {
    if parts.is_empty() {
        return Err(LinalgError::Empty { op: "SegmentedCascade partitions" });
    }
    let rows = parts[0].rows();
    let seg_len = parts[0].cols();
    if rows == 0 || seg_len == 0 {
        return Err(LinalgError::Empty { op: "SegmentedCascade partitions" });
    }
    for part in parts {
        if part.rows() != rows {
            return Err(LinalgError::ShapeMismatch {
                op: "SegmentedCascade segment rows",
                expected: rows,
                found: part.rows(),
            });
        }
        if part.cols() != seg_len {
            return Err(LinalgError::ShapeMismatch {
                op: "SegmentedCascade segment width",
                expected: seg_len,
                found: part.cols(),
            });
        }
    }
    let dim = seg_len * parts.len();
    if plan.dim() != dim {
        return Err(LinalgError::ShapeMismatch {
            op: "SegmentedCascade plan",
            expected: dim,
            found: plan.dim(),
        });
    }
    for &e in &plan.ends()[..plan.stages() - 1] {
        if !e.is_multiple_of(seg_len) {
            return Err(LinalgError::ShapeMismatch {
                op: "SegmentedCascade stage boundary",
                expected: seg_len,
                found: e,
            });
        }
    }
    Ok((rows, seg_len))
}

fn check_cascade(m: &BitMatrix, batch: &QueryBatch, plan: &CascadePlan) -> Result<()> {
    if m.rows() == 0 {
        return Err(LinalgError::Empty { op: "search_cascade_topk" });
    }
    if batch.dim() != m.cols() {
        return Err(LinalgError::ShapeMismatch {
            op: "search_cascade_topk",
            expected: m.cols(),
            found: batch.dim(),
        });
    }
    if plan.dim() != m.cols() {
        return Err(LinalgError::ShapeMismatch {
            op: "search_cascade_topk(plan)",
            expected: m.cols(),
            found: plan.dim(),
        });
    }
    Ok(())
}

impl SearchMemory {
    /// Progressive-precision batched top-k search: prefix-scores every
    /// row, prunes rows that provably cannot reach a query's running
    /// k-th-best score (Hamming bound), and finishes only the survivors.
    /// The per-query k-best `(row, score)` lists are bit-identical to
    /// [`SearchMemory::topk_batch`] (score desc, row asc; at `k = 1`, the
    /// winners of [`SearchMemory::winners_batch`]), and the returned
    /// [`CascadeStats`] report how many row-dimensions were activated.
    /// `k` is clamped to the row count.
    ///
    /// Every stage is a word-window pass of the blocked sweep over the
    /// row blocks that still hold a live lane (see the module docs), on
    /// the memory's backend.
    ///
    /// Each call derives the plan's row-suffix table from the memory's
    /// current bits, one popcount pass over its rows. Repeated-batch
    /// loops that keep one plan should bind it once with
    /// [`BoundCascade::new`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when the batch or plan
    /// dimensionality differs from `cols`, and [`LinalgError::Empty`]
    /// for `k == 0` or a memory with no rows.
    pub fn search_cascade_topk(
        &self,
        batch: &QueryBatch,
        plan: &CascadePlan,
        k: usize,
    ) -> Result<CascadeTopK> {
        if k == 0 {
            return Err(LinalgError::Empty { op: "search_cascade_topk" });
        }
        check_cascade(self.matrix(), batch, plan)?;
        let row_suffix = row_suffix_table(self.matrix(), plan.ends());
        Ok(contiguous_pass(self, batch, plan, &row_suffix, k).0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;
    use crate::BitVector;
    use rand::Rng;

    /// Each query's one entry of a `k = 1` cascade: its winner.
    fn top1(out: &CascadeTopK) -> Vec<(usize, u32)> {
        (0..out.topk().len()).map(|q| out.topk().hits(q)[0]).collect()
    }

    fn random_bits(len: usize, rng: &mut rand::rngs::StdRng) -> BitVector {
        let bits: Vec<bool> = (0..len).map(|_| rng.gen()).collect();
        BitVector::from_bools(&bits)
    }

    #[test]
    fn plan_construction_and_validation() {
        let p = CascadePlan::from_widths(300, &[100, 100, 100]).unwrap();
        assert_eq!((p.dim(), p.stages()), (300, 3));
        assert_eq!(p.widths(), vec![100, 100, 100]);
        assert_eq!(CascadePlan::uniform(10, 3).unwrap().widths(), vec![4, 3, 3]);
        assert_eq!(CascadePlan::prefix(128, 32).unwrap().ends(), &[32, 128]);
        assert_eq!(CascadePlan::exact(64).ends(), &[64]);
        assert!(CascadePlan::from_widths(10, &[]).is_err());
        assert!(CascadePlan::from_widths(10, &[5, 0, 5]).is_err());
        assert!(CascadePlan::from_widths(10, &[5, 6]).is_err());
        assert!(CascadePlan::uniform(4, 5).is_err());
        assert!(CascadePlan::uniform(0, 1).is_err());
        assert!(CascadePlan::prefix(64, 0).is_err());
        assert!(CascadePlan::prefix(64, 64).is_err());
    }

    #[test]
    fn cascade_matches_exact_search() {
        let mut rng = seeded(21);
        for dim in [1usize, 63, 64, 65, 130, 300] {
            let rows: Vec<BitVector> = (0..13).map(|_| random_bits(dim, &mut rng)).collect();
            let mem = SearchMemory::from_rows(&rows).unwrap();
            let queries: Vec<BitVector> = (0..17).map(|_| random_bits(dim, &mut rng)).collect();
            let batch = QueryBatch::from_vectors(&queries).unwrap();
            let reference = mem.winners_batch(&batch).unwrap();
            for plan in [
                CascadePlan::exact(dim),
                CascadePlan::uniform(dim, dim.min(4)).unwrap(),
                CascadePlan::uniform(dim, dim).unwrap(), // one dim per stage
            ] {
                let out = mem.search_cascade_topk(&batch, &plan, 1).unwrap();
                assert_eq!(top1(&out), reference, "dim {dim} plan {plan:?}");
            }
        }
    }

    #[test]
    fn exact_plan_telemetry_is_full_activation() {
        let mut rng = seeded(22);
        let rows: Vec<BitVector> = (0..9).map(|_| random_bits(130, &mut rng)).collect();
        let mem = SearchMemory::from_rows(&rows).unwrap();
        let queries: Vec<BitVector> = (0..5).map(|_| random_bits(130, &mut rng)).collect();
        let batch = QueryBatch::from_vectors(&queries).unwrap();
        let out = mem.search_cascade_topk(&batch, &CascadePlan::exact(130), 1).unwrap();
        let stats = out.stats();
        assert_eq!(stats.queries(), 5);
        assert_eq!(stats.activated_dims(), stats.exact_dims());
        assert_eq!(stats.exact_dims(), 5 * 9 * 130);
        assert!((stats.activation_fraction() - 1.0).abs() < 1e-12);
        assert_eq!(stats.stage_rows(), &[5 * 9]);
    }

    #[test]
    fn pruning_fires_on_separable_rows() {
        // One hot row matches the query everywhere; the others are its
        // complement — after a one-word prefix, all cold rows are pruned.
        let dim = 256;
        let hot = BitVector::ones(dim);
        let cold = BitVector::zeros(dim);
        let rows = vec![cold.clone(), hot.clone(), cold.clone(), cold];
        let mem = SearchMemory::from_rows(&rows).unwrap();
        let batch = QueryBatch::from_vectors(&[hot]).unwrap();
        let plan = CascadePlan::prefix(dim, 64).unwrap();
        let out = mem.search_cascade_topk(&batch, &plan, 1).unwrap();
        assert_eq!(out.topk().hits(0)[0], (1, 256));
        let stats = out.stats();
        assert!(stats.activated_dims() < stats.exact_dims());
        // Stage 0 admits all 4 rows; only the hot row survives to stage 1.
        assert_eq!(stats.stage_rows(), &[4, 1]);
        assert_eq!(stats.activated_dims(), 4 * 64 + 192);
    }

    #[test]
    fn tie_break_survives_pruning() {
        // Rows 1 and 3 are identical and tie; pruning must not discard
        // the lower-index tying row.
        let mut rng = seeded(23);
        let pattern = random_bits(100, &mut rng);
        let rows =
            vec![BitVector::zeros(100), pattern.clone(), BitVector::zeros(100), pattern.clone()];
        let mem = SearchMemory::from_rows(&rows).unwrap();
        let batch = QueryBatch::from_vectors(std::slice::from_ref(&pattern)).unwrap();
        for plan in [
            CascadePlan::exact(100),
            CascadePlan::prefix(100, 30).unwrap(),
            CascadePlan::uniform(100, 100).unwrap(),
        ] {
            let out = mem.search_cascade_topk(&batch, &plan, 1).unwrap();
            assert_eq!(out.topk().hits(0)[0], (1, pattern.count_ones()), "{plan:?}");
        }
    }

    #[test]
    fn stats_merge_is_additive() {
        let mut a = CascadeStats::zeroed(4, 128, 2);
        a.queries = 3;
        a.activated_dims = 100;
        a.stage_rows = vec![12, 4];
        let mut b = CascadeStats::zeroed(4, 128, 2);
        b.queries = 2;
        b.activated_dims = 50;
        b.stage_rows = vec![8, 2];
        a.merge(&b);
        assert_eq!(a.queries(), 5);
        assert_eq!(a.activated_dims(), 150);
        assert_eq!(a.stage_rows(), &[20, 6]);
    }

    #[test]
    fn dimension_and_plan_mismatches_rejected() {
        let mem = SearchMemory::new(BitMatrix::zeros(2, 64));
        let batch = QueryBatch::from_vectors(&[BitVector::zeros(64)]).unwrap();
        let wrong_batch = QueryBatch::from_vectors(&[BitVector::zeros(65)]).unwrap();
        assert!(matches!(
            mem.search_cascade_topk(&wrong_batch, &CascadePlan::exact(64), 1),
            Err(LinalgError::ShapeMismatch { op: "search_cascade_topk", .. })
        ));
        assert!(matches!(
            mem.search_cascade_topk(&batch, &CascadePlan::exact(65), 1),
            Err(LinalgError::ShapeMismatch { op: "search_cascade_topk(plan)", .. })
        ));
    }

    #[test]
    fn snapped_rounds_and_merges_boundaries() {
        let plan = CascadePlan::from_widths(10_240, &[600, 1_000, 8_640]).unwrap();
        assert_eq!(plan.snapped(2_048).unwrap().ends(), &[2_048, 10_240]);
        assert_eq!(plan.snapped(64).unwrap().ends(), &[576, 1_600, 10_240]);
        // Unit at or past the dimensionality collapses to the exact plan.
        assert_eq!(plan.snapped(10_240).unwrap().stages(), 1);
        assert_eq!(plan.snapped(99_999).unwrap().stages(), 1);
        // Tiny interior boundaries clamp up to one unit instead of
        // vanishing.
        let small = CascadePlan::from_widths(1_024, &[8, 1_016]).unwrap();
        assert_eq!(small.snapped(256).unwrap().ends(), &[256, 1_024]);
        // Boundaries that round past the end merge into the final stage.
        let late = CascadePlan::from_widths(1_024, &[1_000, 24]).unwrap();
        assert_eq!(late.snapped(256).unwrap().ends(), &[1_024]);
        assert!(plan.snapped(0).is_err());
    }

    /// A class-imbalanced memory (one dense row, sparse rest) plus
    /// traffic near the dense row — the workload whose rows separate
    /// after a short prefix.
    fn imbalanced_setup(
        rows: usize,
        dim: usize,
        queries: usize,
        rng: &mut rand::rngs::StdRng,
    ) -> (SearchMemory, QueryBatch) {
        let mut density = |d: f32| -> BitVector {
            BitVector::from_bools(&(0..dim).map(|_| rng.gen::<f32>() < d).collect::<Vec<_>>())
        };
        let mut stored: Vec<BitVector> = vec![density(0.5)];
        for _ in 1..rows {
            stored.push(density(0.02));
        }
        let qs: Vec<BitVector> = (0..queries)
            .map(|i| {
                // Mostly-majority traffic (the bench's mix): minority
                // queries keep every sparse row alive, so their share
                // controls how aggressive a prefix pays off.
                let mut q = stored[if i % 50 == 0 { 1 + i % (rows - 1) } else { 0 }].clone();
                for _ in 0..dim / 20 {
                    let bit = rng.gen_range(0..dim);
                    q.set(bit, !q.get(bit));
                }
                q
            })
            .collect();
        (SearchMemory::from_rows(&stored).unwrap(), QueryBatch::from_vectors(&qs).unwrap())
    }

    #[test]
    fn tuned_picks_multi_stage_on_separable_workloads() {
        let mut rng = seeded(41);
        let (mem, batch) = imbalanced_setup(12, 2048, 100, &mut rng);
        let plan = CascadePlan::tuned(&mem, &batch).unwrap();
        assert!(plan.stages() > 1, "separable workload must cascade: {plan:?}");
        assert!(plan.ends()[0] <= 2048 / 4, "prefix should be short: {plan:?}");
        assert!(plan.ends()[0].is_multiple_of(64), "tuned boundaries are word-aligned");
        // Tuning is deterministic and exact.
        assert_eq!(plan, CascadePlan::tuned(&mem, &batch).unwrap());
        let cascade = mem.search_cascade_topk(&batch, &plan, 1).unwrap();
        assert_eq!(top1(&cascade), mem.winners_batch(&batch).unwrap());
        assert!(cascade.stats().activation_fraction() < 0.5, "pruning must fire");
    }

    #[test]
    fn tuned_falls_back_to_exact_on_unprunable_workloads() {
        // Dense random rows and random queries: the Hamming bound cannot
        // separate anything early, so the exact sweep is the right plan.
        let mut rng = seeded(42);
        let stored: Vec<BitVector> = (0..16).map(|_| random_bits(1024, &mut rng)).collect();
        let mem = SearchMemory::from_rows(&stored).unwrap();
        let qs: Vec<BitVector> = (0..40).map(|_| random_bits(1024, &mut rng)).collect();
        let batch = QueryBatch::from_vectors(&qs).unwrap();
        let plan = CascadePlan::tuned(&mem, &batch).unwrap();
        assert_eq!(plan, CascadePlan::exact(1024), "{plan:?}");
    }

    #[test]
    fn tuned_validates_inputs() {
        let mem = SearchMemory::new(BitMatrix::zeros(4, 128));
        let batch = QueryBatch::from_vectors(&[BitVector::zeros(128)]).unwrap();
        let wrong = QueryBatch::from_vectors(&[BitVector::zeros(130)]).unwrap();
        assert!(matches!(
            CascadePlan::tuned(&mem, &wrong),
            Err(LinalgError::ShapeMismatch { op: "CascadePlan::tuned", .. })
        ));
        let empty_mem = SearchMemory::new(BitMatrix::zeros(0, 128));
        assert!(CascadePlan::tuned(&empty_mem, &batch).is_err());
        let empty_batch = QueryBatch::from_matrix(BitMatrix::zeros(0, 128));
        assert!(CascadePlan::tuned(&mem, &empty_batch).is_err());
        // Tiny dimensionalities have no candidate prefixes: exact plan.
        let narrow = SearchMemory::new(BitMatrix::zeros(4, 64));
        let nb = QueryBatch::from_vectors(&[BitVector::zeros(64)]).unwrap();
        assert_eq!(CascadePlan::tuned(&narrow, &nb).unwrap(), CascadePlan::exact(64));
    }

    #[test]
    fn mutation_keeps_cascade_exact() {
        let mut rng = seeded(44);
        let stored: Vec<BitVector> = (0..7).map(|_| random_bits(200, &mut rng)).collect();
        let mut mem = SearchMemory::from_rows(&stored).unwrap();
        let batch: QueryBatch = QueryBatch::from_vectors(
            &(0..5).map(|_| random_bits(200, &mut rng)).collect::<Vec<_>>(),
        )
        .unwrap();
        let plan = CascadePlan::from_widths(200, &[64, 70, 66]).unwrap();
        mem.search_cascade_topk(&batch, &plan, 1).unwrap();
        // Flip a suffix bit of the winning region: a row-suffix table of
        // the old bits would now be stale.
        mem.modify(|m| {
            let flipped = !m.get(3, 190);
            m.set(3, 190, flipped)
        });
        let after = mem.search_cascade_topk(&batch, &plan, 1).unwrap();
        assert_eq!(top1(&after), mem.winners_batch(&batch).unwrap());
        // A reported no-op changes nothing.
        mem.modify_reporting(|_| false);
        assert_eq!(mem.search_cascade_topk(&batch, &plan, 1).unwrap(), after);
        // Clones stay exact.
        let cloned = mem.clone();
        assert_eq!(cloned.search_cascade_topk(&batch, &plan, 1).unwrap(), after);
    }

    /// Splits `rows` into `p` equal-width segment memories.
    fn segment_rows(rows: &[BitVector], p: usize) -> Vec<SearchMemory> {
        let dim = rows[0].len();
        let seg = dim / p;
        (0..p)
            .map(|i| {
                let segs: Vec<BitVector> = rows.iter().map(|r| r.slice(i * seg, seg)).collect();
                SearchMemory::from_rows(&segs).unwrap()
            })
            .collect()
    }

    #[test]
    fn segmented_cascade_matches_exact_search() {
        let mut rng = seeded(45);
        // seg_len 64 (word-aligned) and 50 (masked) geometries.
        for (dim, p) in [(256usize, 4usize), (200, 4), (300, 3), (512, 2)] {
            let stored: Vec<BitVector> = (0..13).map(|_| random_bits(dim, &mut rng)).collect();
            let parts = segment_rows(&stored, p);
            let mem = SearchMemory::from_rows(&stored).unwrap();
            let qs: Vec<BitVector> = (0..17).map(|_| random_bits(dim, &mut rng)).collect();
            let batch = QueryBatch::from_vectors(&qs).unwrap();
            let reference = mem.winners_batch(&batch).unwrap();
            let seg = dim / p;
            let mut plans = vec![CascadePlan::exact(dim)];
            if p > 1 {
                plans.push(CascadePlan::prefix(dim, seg).unwrap());
                plans.push(CascadePlan::uniform(dim, p).unwrap());
            }
            for plan in plans {
                let cascade = SegmentedCascade::new(&parts, &plan).unwrap();
                let out = cascade.search_topk(&parts, &batch, 1).unwrap();
                assert_eq!(top1(&out), reference, "dim {dim} P{p} {plan:?}");
                assert!(out.stats().activated_dims() <= out.stats().exact_dims());
                assert_eq!(out.stats().queries(), 17);
            }
        }
    }

    #[test]
    fn segmented_cascade_prunes_and_ties_like_contiguous() {
        // Dense winner + sparse rows, duplicated winner for the
        // tie-break: pruning fires and the low-row tie survives.
        let dim = 512;
        let mut rng = seeded(46);
        let hot = random_bits(dim, &mut rng);
        let sparse: Vec<BitVector> = (0..5)
            .map(|_| {
                BitVector::from_bools(
                    &(0..dim).map(|_| rng.gen::<f32>() < 0.03).collect::<Vec<_>>(),
                )
            })
            .collect();
        let mut stored = vec![sparse[0].clone(), hot.clone(), sparse[1].clone(), hot.clone()];
        stored.extend_from_slice(&sparse[2..]);
        let parts = segment_rows(&stored, 4);
        let plan = CascadePlan::prefix(dim, 128).unwrap();
        let cascade = SegmentedCascade::new(&parts, &plan).unwrap();
        let batch = QueryBatch::from_vectors(std::slice::from_ref(&hot)).unwrap();
        let out = cascade.search_topk(&parts, &batch, 1).unwrap();
        assert_eq!(out.topk().hits(0)[0], (1, hot.count_ones()), "low-row tie-break");
        assert!(out.stats().activated_dims() < out.stats().exact_dims(), "pruning fires");
    }

    #[test]
    fn segmented_cascade_validates_layout() {
        let mut rng = seeded(47);
        let stored: Vec<BitVector> = (0..6).map(|_| random_bits(256, &mut rng)).collect();
        let parts = segment_rows(&stored, 4);
        // Misaligned interior boundary: precise op string.
        let misaligned = CascadePlan::prefix(256, 100).unwrap();
        assert!(matches!(
            SegmentedCascade::new(&parts, &misaligned),
            Err(LinalgError::ShapeMismatch {
                op: "SegmentedCascade stage boundary",
                found: 100,
                ..
            })
        ));
        // Plan dimensionality must equal P × seg_len.
        assert!(SegmentedCascade::new(&parts, &CascadePlan::exact(128)).is_err());
        assert!(SegmentedCascade::new(&[], &CascadePlan::exact(256)).is_err());
        // Search-side shape checks.
        let plan = CascadePlan::prefix(256, 64).unwrap();
        let cascade = SegmentedCascade::new(&parts, &plan).unwrap();
        let bad_batch = QueryBatch::from_vectors(&[BitVector::zeros(255)]).unwrap();
        assert!(cascade.search_topk(&parts, &bad_batch, 1).is_err());
        let fewer = &parts[..3];
        assert!(cascade
            .search_topk(fewer, &QueryBatch::from_vectors(&[BitVector::zeros(256)]).unwrap(), 1)
            .is_err());
    }

    /// A handle derived from 2 × 64-bit partitions, searched with
    /// 4 × 32-bit partitions of the same rows (the plan fits both grids):
    /// the mismatch is the segment width, and the error says so.
    #[test]
    fn segmented_cascade_reports_segment_width_mismatch() {
        let mut rng = seeded(49);
        let stored: Vec<BitVector> = (0..3).map(|_| random_bits(128, &mut rng)).collect();
        let plan = CascadePlan::prefix(128, 64).unwrap();
        let cascade = SegmentedCascade::new(&segment_rows(&stored, 2), &plan).unwrap();
        let batch = QueryBatch::from_vectors(&[random_bits(128, &mut rng)]).unwrap();
        assert!(matches!(
            cascade.search_topk(&segment_rows(&stored, 4), &batch, 1),
            Err(LinalgError::ShapeMismatch {
                op: "SegmentedCascade segment width",
                expected: 64,
                found: 32,
            })
        ));
    }

    #[test]
    fn ones_in_range_partitions_bits_exactly() {
        let mut rng = seeded(24);
        let q = random_bits(200, &mut rng);
        // Any split into stages must reproduce the full popcount exactly.
        for plan in [
            CascadePlan::uniform(200, 7).unwrap(),
            CascadePlan::from_widths(200, &[1, 63, 64, 65, 7]).unwrap(),
        ] {
            let mut ones = 0u32;
            let mut lo = 0usize;
            for &hi in plan.ends() {
                ones += ones_in_range(q.as_words(), lo, hi, batch::dot_words);
                lo = hi;
            }
            assert_eq!(ones, q.count_ones(), "{plan:?}");
        }
    }

    #[test]
    fn stage_words_counts_contiguous_and_segmented_grids() {
        // Contiguous word grid (unit % 64 == 0): a stage reads the word
        // window [prev/64, word_end(e)), seam words genuinely re-read.
        assert_eq!(stage_words(0, 128, 64), 2);
        assert_eq!(stage_words(128, 512, 64), 6);
        assert_eq!(stage_words(0, 100, 64), 2); // unaligned final dim
        assert_eq!(stage_words(128, 200, 128), 2);
        // Segmented grid (unit % 64 != 0): per-segment padded storage,
        // segments × word_end(unit), no shared seam word. The old
        // contiguous formula charged stage [100, 200) of a unit=100
        // layout word_end(200) - 100/64 = 3 words; the real kernels
        // drive one 100-bit segment = 2 padded words.
        assert_eq!(stage_words(0, 100, 100), 2);
        assert_eq!(stage_words(100, 200, 100), 2);
        assert_eq!(stage_words(100, 500, 100), 8);
        // Sub-word segments: the old formula under-charged the padding
        // (stage [64, 128) of a unit=32 layout looked like 1 word; it is
        // two 32-bit segments in their own words).
        assert_eq!(stage_words(0, 64, 32), 2);
        assert_eq!(stage_words(64, 128, 32), 2);
    }

    #[test]
    fn modeled_cost_charges_segmented_stages_without_seam_words() {
        // Regression for the seam-word miscount: an unaligned-unit plan
        // priced under a pinned model must match the hand-computed
        // per-segment accounting, not the contiguous word-window one.
        let model =
            CostModel { cont_weight: 2.0, row_overhead_words: 1.0, stage_overhead_words: 4.0 };
        let plan = CascadePlan::from_widths(200, &[100, 100]).unwrap();
        // Two queries over 10 rows; stage 1 scores 3 live blocks, one of
        // them with a lone live lane.
        let probe =
            [StageWork { rows: 20, blocks: 4, lone: 0 }, StageWork { rows: 6, blocks: 3, lone: 1 }];
        // unit = 100: both stages drive one 100-bit segment = 2 padded
        // words. Stage 0: 20 rows × 2 words + 2 queries × 4 overhead.
        // Stage 1: (2 blocks × 8 lanes + 1 lone row × 2.0) × 2 words +
        // 3 blocks × 1.0 + 2 × 4.
        let stage1 = |words: f64| (2.0 * 8.0 + 2.0) * words + 3.0 + 8.0;
        let cost = modeled_cost(&plan, 2, &probe, &model, 100);
        assert_eq!(cost, (20.0 * 2.0 + 8.0) + stage1(2.0));
        // The pre-fix contiguous formula would have priced stage 1 at
        // word_end(200) - 100/64 = 3 words.
        assert_ne!(cost, (20.0 * 2.0 + 8.0) + stage1(3.0));
        // The exact plan on the same segmented grid, every row scored:
        // 200 bits = two 100-bit segments = 4 padded words per (query,
        // row).
        let exact_work = [StageWork { rows: 20, blocks: 4, lone: 0 }];
        let exact = modeled_cost(&CascadePlan::exact(200), 2, &exact_work, &model, 100);
        assert_eq!(exact, (2 * 10 * 4) as f64 + 2.0 * 4.0);
        // The word grid keeps the contiguous window untouched.
        let aligned = CascadePlan::from_widths(256, &[128, 128]).unwrap();
        let acost = modeled_cost(&aligned, 2, &probe, &model, 64);
        assert_eq!(acost, (20.0 * 2.0 + 8.0) + stage1(2.0));
    }

    #[test]
    fn tuned_aligned_is_deterministic_on_unaligned_units() {
        // The tuner on an unaligned unit must produce a valid
        // unit-gridded plan, stay deterministic, and stay exact.
        let mut rng = seeded(48);
        let (mem, batch) = imbalanced_setup(10, 500, 60, &mut rng);
        let plan = CascadePlan::tuned_aligned(&mem, &batch, 100).unwrap();
        assert_eq!(plan, CascadePlan::tuned_aligned(&mem, &batch, 100).unwrap());
        for &e in plan.ends() {
            assert!(e == 500 || e.is_multiple_of(100), "boundary {e} off the unit grid");
        }
        let out = mem.search_cascade_topk(&batch, &plan, 1).unwrap();
        assert_eq!(top1(&out), mem.winners_batch(&batch).unwrap());
    }
}
