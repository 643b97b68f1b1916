//! The end-to-end MEMHD model (paper Fig. 2).

use crate::config::{InitMethod, MemhdConfig};
use crate::error::{MemhdError, Result};
use crate::init;
use crate::memory::MemoryReport;
use crate::train::{quantization_aware_train, TrainOptions, TrainingHistory};
use hd_linalg::rng::derive_seed;
use hd_linalg::{BitVector, CascadePlan, LabeledMemory, Matrix, QueryBatch, TopK};
use hdc::{encode_dataset, BinaryAm, EncodedDataset, Encoder, FloatAm, RandomProjectionEncoder};

/// A trained MEMHD classifier: binary projection encoder plus fully-utilized
/// multi-centroid binary associative memory.
///
/// Construct with [`MemhdModel::fit`] (raw features) or
/// [`MemhdModel::fit_encoded`] (pre-encoded hypervectors, useful when
/// sweeping AM shapes over one encoding as in the paper's Fig. 4 heatmap).
#[derive(Debug, Clone)]
pub struct MemhdModel {
    config: MemhdConfig,
    encoder: RandomProjectionEncoder,
    fp_am: FloatAm,
    binary_am: BinaryAm,
    history: TrainingHistory,
}

impl MemhdModel {
    /// Reassembles a model from its parts (used by deserialization; the
    /// training history of a reloaded model starts empty).
    pub(crate) fn from_parts(
        config: MemhdConfig,
        encoder: RandomProjectionEncoder,
        fp_am: FloatAm,
        binary_am: BinaryAm,
        history: TrainingHistory,
    ) -> Self {
        MemhdModel { config, encoder, fp_am, binary_am, history }
    }

    /// Trains a model on raw feature rows (values expected in `[0, 1]`)
    /// with labels in `0..config.num_classes()`.
    ///
    /// Runs the full pipeline: projection encoding → initialization
    /// (clustering or random sampling per the config) → 1-bit quantization
    /// → quantization-aware iterative learning.
    ///
    /// # Errors
    ///
    /// Returns [`MemhdError::InvalidData`] for inconsistent inputs and
    /// propagates substrate failures.
    pub fn fit(config: &MemhdConfig, features: &Matrix, labels: &[usize]) -> Result<Self> {
        let encoder = RandomProjectionEncoder::new(
            features.cols(),
            config.dim(),
            derive_seed(config.seed(), 0x656e63), // "enc"
        );
        let encoded = encode_dataset(&encoder, features).map_err(MemhdError::Hdc)?;
        Self::fit_encoded(config, encoder, &encoded, labels)
    }

    /// Trains on an already-encoded dataset with the encoder that produced
    /// it. The encoder's dimensionality must equal `config.dim()`.
    ///
    /// # Errors
    ///
    /// Returns [`MemhdError::InvalidConfig`] on a dimension mismatch plus
    /// the same errors as [`MemhdModel::fit`].
    pub fn fit_encoded(
        config: &MemhdConfig,
        encoder: RandomProjectionEncoder,
        encoded: &EncodedDataset,
        labels: &[usize],
    ) -> Result<Self> {
        Self::fit_encoded_with_eval(config, encoder, encoded, labels, None)
    }

    /// Like [`MemhdModel::fit_encoded`] but additionally evaluates a
    /// held-out set at the end of every epoch, recording the accuracy in
    /// the training history (used for the paper's Fig. 5 convergence
    /// curves).
    ///
    /// # Errors
    ///
    /// Same as [`MemhdModel::fit_encoded`].
    pub fn fit_encoded_with_eval(
        config: &MemhdConfig,
        encoder: RandomProjectionEncoder,
        encoded: &EncodedDataset,
        labels: &[usize],
        eval: Option<(&[BitVector], &[usize])>,
    ) -> Result<Self> {
        if encoder.dim() != config.dim() {
            return Err(MemhdError::InvalidConfig {
                parameter: "dim",
                reason: format!(
                    "encoder dimensionality {} != configured {}",
                    encoder.dim(),
                    config.dim()
                ),
            });
        }
        if encoded.dim() != config.dim() {
            return Err(MemhdError::InvalidConfig {
                parameter: "dim",
                reason: format!(
                    "encoded dimensionality {} != configured {}",
                    encoded.dim(),
                    config.dim()
                ),
            });
        }

        let mut fp_am = match config.init_method() {
            InitMethod::Clustering => init::clustering_init(config, encoded, labels)?,
            InitMethod::RandomSampling => init::random_sampling_init(config, encoded, labels)?,
        };

        let (binary_am, history) = quantization_aware_train(
            &mut fp_am,
            encoded,
            labels,
            config.learning_rate(),
            config.epochs(),
            derive_seed(config.seed(), 0x747261), // "tra"
            TrainOptions { eval, stop_on_zero_updates: true },
        )?;

        Ok(MemhdModel { config: config.clone(), encoder, fp_am, binary_am, history })
    }

    /// Assembles a model from independently produced parts — an encoder,
    /// a floating-point shadow AM, and its quantized binary AM — without
    /// running the training pipeline. This is the import path for
    /// externally trained or hand-constructed memories (the bench
    /// harness uses it to wrap synthetic AMs); the assembled model
    /// behaves exactly like a fitted one, with an empty training
    /// history.
    ///
    /// # Errors
    ///
    /// Returns [`MemhdError::InvalidConfig`] when the parts disagree
    /// with the config or each other: encoder/AM dimensionality vs.
    /// `config.dim()`, centroid count vs. `config.columns()`, class
    /// count vs. `config.num_classes()`, or FP/binary class labels that
    /// differ.
    pub fn assemble(
        config: MemhdConfig,
        encoder: RandomProjectionEncoder,
        fp_am: FloatAm,
        binary_am: BinaryAm,
    ) -> Result<Self> {
        let check = |parameter: &'static str, expected: usize, found: usize| {
            if expected != found {
                return Err(MemhdError::InvalidConfig {
                    parameter,
                    reason: format!("configured {expected}, supplied {found}"),
                });
            }
            Ok(())
        };
        check("dim", config.dim(), encoder.dim())?;
        check("dim", config.dim(), fp_am.dim())?;
        check("dim", config.dim(), binary_am.dim())?;
        check("columns", config.columns(), fp_am.num_centroids())?;
        check("columns", config.columns(), binary_am.num_centroids())?;
        check("num_classes", config.num_classes(), fp_am.num_classes())?;
        check("num_classes", config.num_classes(), binary_am.num_classes())?;
        if fp_am.class_labels() != binary_am.class_labels() {
            return Err(MemhdError::InvalidConfig {
                parameter: "columns",
                reason: "FP and binary AM class labels disagree".into(),
            });
        }
        Ok(MemhdModel::from_parts(
            config,
            encoder,
            fp_am,
            binary_am,
            crate::train::TrainingHistory::default(),
        ))
    }

    /// Continues quantization-aware training on additional labeled data —
    /// the "few-shot" adaptation path: refine an already-deployed model
    /// with new samples without re-running initialization.
    ///
    /// The new data is encoded with the model's existing encoder, the FP
    /// shadow AM picks up where training left off, and the binary AM is
    /// replaced by the best snapshot of the refinement run. Returns the
    /// refinement history (also appended to [`MemhdModel::history`] with
    /// continued epoch numbering).
    ///
    /// # Errors
    ///
    /// Returns [`MemhdError::InvalidData`] for inconsistent inputs and
    /// propagates substrate failures.
    pub fn refine(
        &mut self,
        features: &Matrix,
        labels: &[usize],
        epochs: usize,
    ) -> Result<TrainingHistory> {
        let encoded = encode_dataset(&self.encoder, features).map_err(MemhdError::Hdc)?;
        let (binary_am, history) = quantization_aware_train(
            &mut self.fp_am,
            &encoded,
            labels,
            self.config.learning_rate(),
            epochs,
            derive_seed(self.config.seed(), 0x726566), // "ref"
            TrainOptions { eval: None, stop_on_zero_updates: true },
        )?;
        self.binary_am = binary_am;
        self.history.append_continued(&history);
        Ok(history)
    }

    /// Encodes one feature vector and classifies it with a single
    /// associative search.
    ///
    /// # Errors
    ///
    /// Returns [`MemhdError::Hdc`] if the feature width does not match the
    /// encoder.
    pub fn predict(&self, features: &[f32]) -> Result<usize> {
        let hb = self.encoder.encode_binary(features).map_err(MemhdError::Hdc)?;
        self.binary_am.classify(&hb).map_err(MemhdError::Hdc)
    }

    /// Classifies every row of `features` — encodes into a packed
    /// [`hd_linalg::QueryBatch`] and answers all queries with one batched
    /// associative sweep. This is the preferred inference entry point.
    ///
    /// # Errors
    ///
    /// Same as [`MemhdModel::predict`].
    pub fn predict_batch(&self, features: &Matrix) -> Result<Vec<usize>> {
        if features.rows() == 0 {
            return Ok(Vec::new());
        }
        let batch = self.encoder.encode_binary_batch(features).map_err(MemhdError::Hdc)?;
        self.binary_am.classify_batch(&batch).map_err(MemhdError::Hdc)
    }

    /// The k best classes per row of `features`, ordered by descending
    /// associative-search score (centroid ties break toward the lower
    /// row, and a class repeats when several of its centroids place).
    /// `predict_topk(features, 1)` agrees with
    /// [`MemhdModel::predict_batch`] query for query; larger `k` serves
    /// rankers and top-k-accuracy evaluation. `k` is clamped to the
    /// centroid count.
    ///
    /// # Errors
    ///
    /// Same as [`MemhdModel::predict`], plus [`MemhdError::Hdc`] for
    /// `k == 0`.
    pub fn predict_topk(&self, features: &Matrix, k: usize) -> Result<Vec<Vec<usize>>> {
        // Validate k before the empty-batch shortcut, mirroring the
        // cascade entry points' plan validation.
        if k == 0 {
            return Err(MemhdError::Hdc(hdc::HdcError::Linalg(hd_linalg::LinalgError::Empty {
                op: "MemhdModel::predict_topk",
            })));
        }
        if features.rows() == 0 {
            return Ok(Vec::new());
        }
        let batch = self.encoder.encode_binary_batch(features).map_err(MemhdError::Hdc)?;
        self.binary_am.classify_batch_topk(&batch, k).map_err(MemhdError::Hdc)
    }

    /// Like [`MemhdModel::predict_batch`] but answers the associative
    /// searches through the progressive-precision cascade: a dimension
    /// prefix is scored for every centroid and provably-losing centroids
    /// are pruned before the remaining dimensions are spent. Predictions
    /// are bit-identical to [`MemhdModel::predict_batch`]; only the
    /// activation cost differs (see [`hd_linalg::CascadeStats`]).
    ///
    /// # Errors
    ///
    /// Same as [`MemhdModel::predict_batch`], plus
    /// [`MemhdError::Hdc`] when the plan dimensionality differs from the
    /// model's.
    pub fn predict_batch_cascade(
        &self,
        features: &Matrix,
        plan: &CascadePlan,
    ) -> Result<Vec<usize>> {
        // Validate the plan before the empty-batch shortcut: a
        // misconfigured plan must surface even when the first batch
        // happens to be empty.
        if plan.dim() != self.binary_am.dim() {
            return Err(MemhdError::Hdc(hdc::HdcError::DimensionMismatch {
                expected: self.binary_am.dim(),
                found: plan.dim(),
            }));
        }
        if features.rows() == 0 {
            return Ok(Vec::new());
        }
        let batch = self.encoder.encode_binary_batch(features).map_err(MemhdError::Hdc)?;
        self.predict_encoded_batch_cascade(&batch, plan)
    }

    /// The encoded-query slice of [`MemhdModel::predict_batch_cascade`]:
    /// classifies pre-binarized hypervectors through the cascade,
    /// skipping re-encoding — the fast path for sweeps and repeated-batch
    /// loops over one encoding (the [`MemhdModel::evaluate_encoded`]
    /// convention). The plan's derived artifacts are cached on the binary
    /// AM, so a loop of batches pays the bound derivation once, not per
    /// call.
    ///
    /// # Errors
    ///
    /// Returns [`MemhdError::Hdc`] if the batch or plan dimensionality
    /// differs from the model's.
    pub fn predict_encoded_batch_cascade(
        &self,
        batch: &QueryBatch,
        plan: &CascadePlan,
    ) -> Result<Vec<usize>> {
        self.binary_am.classify_batch_cascade(batch, plan).map_err(MemhdError::Hdc)
    }

    /// Auto-tunes a cascade stage plan for this model from a sample of
    /// real feature vectors: the sample is encoded with the model's
    /// encoder and handed to [`hdc::BinaryAm::tuned_cascade_plan`], so
    /// the returned plan reflects both the trained AM's popcount profile
    /// and the traffic the deployment will actually see. Use the result
    /// with [`MemhdModel::predict_batch_cascade`].
    ///
    /// # Errors
    ///
    /// Returns [`MemhdError::InvalidData`] for an empty sample and
    /// [`MemhdError::Hdc`] if the feature width differs from the
    /// encoder's.
    pub fn tuned_cascade_plan(&self, features: &Matrix) -> Result<CascadePlan> {
        if features.rows() == 0 {
            return Err(MemhdError::InvalidData {
                reason: "cascade plan tuning needs a non-empty feature sample".into(),
            });
        }
        let batch = self.encoder.encode_binary_batch(features).map_err(MemhdError::Hdc)?;
        self.binary_am.tuned_cascade_plan(&batch).map_err(MemhdError::Hdc)
    }

    /// Accuracy on a labeled feature set.
    ///
    /// # Errors
    ///
    /// Returns [`MemhdError::InvalidData`] on a length mismatch plus
    /// prediction errors.
    pub fn evaluate(&self, features: &Matrix, labels: &[usize]) -> Result<f64> {
        if features.rows() != labels.len() || labels.is_empty() {
            return Err(MemhdError::InvalidData {
                reason: format!("{} rows vs {} labels", features.rows(), labels.len()),
            });
        }
        let preds = self.predict_batch(features)?;
        Ok(hd_linalg::stats::accuracy(&preds, labels))
    }

    /// Accuracy on pre-binarized queries (avoids re-encoding in sweeps).
    ///
    /// # Errors
    ///
    /// Returns [`MemhdError::Hdc`] on dimension mismatches.
    pub fn evaluate_encoded(&self, queries: &[BitVector], labels: &[usize]) -> Result<f64> {
        hdc::train::evaluate(&self.binary_am, queries, labels).map_err(MemhdError::Hdc)
    }

    /// The configuration this model was trained with.
    pub fn config(&self) -> &MemhdConfig {
        &self.config
    }

    /// The binary projection encoder (the EM mapped onto IMC arrays).
    pub fn encoder(&self) -> &RandomProjectionEncoder {
        &self.encoder
    }

    /// The floating-point shadow AM (training state).
    pub fn float_am(&self) -> &FloatAm {
        &self.fp_am
    }

    /// The quantized associative memory used for inference.
    pub fn binary_am(&self) -> &BinaryAm {
        &self.binary_am
    }

    /// The training trajectory, including the epoch-0 snapshot.
    pub fn history(&self) -> &TrainingHistory {
        &self.history
    }

    /// Memory requirements per Table I: EM `f × D` bits, AM `C × D` bits.
    pub fn memory_report(&self) -> MemoryReport {
        MemoryReport::new(self.encoder.memory_bits(), self.binary_am.memory_bits())
    }
}

/// Serves the quantized AM. Queries are pre-encoded `D`-bit
/// hypervectors: encoding stays with the caller, as the paper keeps the
/// encoding module and the AM in separate IMC structures.
impl LabeledMemory for MemhdModel {
    fn dim(&self) -> usize {
        self.binary_am.dim()
    }

    fn rows(&self) -> usize {
        self.binary_am.num_centroids()
    }

    fn class_of(&self, row: usize) -> usize {
        self.binary_am.class_of(row)
    }

    fn topk(&self, batch: &QueryBatch, k: usize) -> hd_linalg::Result<TopK> {
        self.binary_am.topk(batch, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_linalg::rng::{seeded, Normal};

    fn toy_features(per_class: usize, seed: u64) -> (Matrix, Vec<usize>) {
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

    #[test]
    fn fit_and_predict_end_to_end() {
        let (x, y) = toy_features(20, 1);
        let cfg = MemhdConfig::new(256, 9, 3).unwrap().with_epochs(10).with_seed(3);
        let model = MemhdModel::fit(&cfg, &x, &y).unwrap();
        let acc = model.evaluate(&x, &y).unwrap();
        assert!(acc > 0.8, "train accuracy {acc}");
        assert_eq!(model.binary_am().num_centroids(), 9);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = toy_features(10, 2);
        let cfg = MemhdConfig::new(128, 6, 3).unwrap().with_epochs(3).with_seed(7);
        let a = MemhdModel::fit(&cfg, &x, &y).unwrap();
        let b = MemhdModel::fit(&cfg, &x, &y).unwrap();
        assert_eq!(a.binary_am().as_bit_matrix(), b.binary_am().as_bit_matrix());
        assert_eq!(a.history(), b.history());
    }

    #[test]
    fn topk_predictions_rank_classes() {
        let (x, y) = toy_features(15, 13);
        let cfg = MemhdConfig::new(256, 9, 3).unwrap().with_epochs(5).with_seed(8);
        let model = MemhdModel::fit(&cfg, &x, &y).unwrap();
        let top1 = model.predict_topk(&x, 1).unwrap();
        let exact = model.predict_batch(&x).unwrap();
        assert_eq!(top1.iter().map(|t| t[0]).collect::<Vec<_>>(), exact);
        assert!(top1.iter().all(|t| t.len() == 1));
        // k is clamped to the centroid count; the slate is the per-row
        // class sequence of the AM's own full top-k ranking.
        let slates = model.predict_topk(&x, 12).unwrap();
        let batch = model.encoder().encode_binary_batch(&x).unwrap();
        let want = model.binary_am().classify_batch_topk(&batch, 12).unwrap();
        assert_eq!(slates, want);
        assert!(slates.iter().all(|t| t.len() == 9));
        // Top-k accuracy is monotone in k and hits 100% at k == rows.
        let hit_at = |k: usize| {
            let pred = model.predict_topk(&x, k).unwrap();
            pred.iter().zip(&y).filter(|(slate, &label)| slate.contains(&label)).count() as f64
                / y.len() as f64
        };
        assert!(hit_at(1) <= hit_at(3));
        assert_eq!(hit_at(9), 1.0);
        assert!(model.predict_topk(&x, 0).is_err());
        assert!(model.predict_topk(&Matrix::zeros(0, x.cols()), 3).unwrap().is_empty());
    }

    #[test]
    fn cascade_predictions_match_exact() {
        let (x, y) = toy_features(15, 11);
        let cfg = MemhdConfig::new(256, 9, 3).unwrap().with_epochs(5).with_seed(6);
        let model = MemhdModel::fit(&cfg, &x, &y).unwrap();
        let exact = model.predict_batch(&x).unwrap();
        for plan in [
            CascadePlan::exact(256),
            CascadePlan::prefix(256, 64).unwrap(),
            CascadePlan::uniform(256, 4).unwrap(),
        ] {
            assert_eq!(model.predict_batch_cascade(&x, &plan).unwrap(), exact, "{plan:?}");
        }
        // A plan of the wrong dimensionality is rejected — even when
        // the feature batch is empty.
        assert!(model.predict_batch_cascade(&x, &CascadePlan::exact(128)).is_err());
        let empty_bad = Matrix::zeros(0, x.cols());
        assert!(model.predict_batch_cascade(&empty_bad, &CascadePlan::exact(128)).is_err());
        // An empty feature set short-circuits like predict_batch.
        let empty = Matrix::zeros(0, x.cols());
        assert!(model.predict_batch_cascade(&empty, &CascadePlan::exact(256)).unwrap().is_empty());
    }

    #[test]
    fn memory_report_formulas() {
        let (x, y) = toy_features(10, 3);
        let cfg = MemhdConfig::new(128, 6, 3).unwrap().with_epochs(1);
        let model = MemhdModel::fit(&cfg, &x, &y).unwrap();
        let r = model.memory_report();
        assert_eq!(r.em_bits, 12 * 128); // f × D
        assert_eq!(r.am_bits, 6 * 128); // C × D
    }

    #[test]
    fn fit_encoded_dim_mismatch_rejected() {
        let (x, y) = toy_features(10, 4);
        let enc = RandomProjectionEncoder::new(12, 64, 1);
        let encoded = encode_dataset(&enc, &x).unwrap();
        let cfg = MemhdConfig::new(128, 6, 3).unwrap();
        assert!(matches!(
            MemhdModel::fit_encoded(&cfg, enc, &encoded, &y),
            Err(MemhdError::InvalidConfig { parameter: "dim", .. })
        ));
    }

    #[test]
    fn evaluate_validates_lengths() {
        let (x, y) = toy_features(10, 5);
        let cfg = MemhdConfig::new(128, 6, 3).unwrap().with_epochs(1);
        let model = MemhdModel::fit(&cfg, &x, &y).unwrap();
        assert!(model.evaluate(&x, &y[..5]).is_err());
    }

    #[test]
    fn random_sampling_init_also_trains() {
        let (x, y) = toy_features(15, 6);
        let cfg = MemhdConfig::new(256, 9, 3)
            .unwrap()
            .with_epochs(10)
            .with_init_method(InitMethod::RandomSampling)
            .with_seed(5);
        let model = MemhdModel::fit(&cfg, &x, &y).unwrap();
        let acc = model.evaluate(&x, &y).unwrap();
        assert!(acc > 0.6, "train accuracy {acc}");
    }

    #[test]
    fn refine_continues_training() {
        let (x, y) = toy_features(15, 8);
        let cfg = MemhdConfig::new(256, 9, 3).unwrap().with_epochs(3).with_seed(4);
        let mut model = MemhdModel::fit(&cfg, &x, &y).unwrap();
        let before_records = model.history().records().len();
        let before_acc = model.evaluate(&x, &y).unwrap();

        // Refine on fresh samples from the same distribution.
        let (x2, y2) = toy_features(10, 9);
        let refinement = model.refine(&x2, &y2, 5).unwrap();
        assert!(refinement.records().len() > 1);
        // History extended with continued epoch numbers.
        let records = model.history().records();
        assert!(records.len() > before_records);
        for pair in records.windows(2) {
            assert!(pair[1].epoch > pair[0].epoch, "epochs must stay monotone");
        }
        // Refinement never breaks the model (best-snapshot semantics).
        let after_acc = model.evaluate(&x, &y).unwrap();
        assert!(after_acc >= before_acc - 0.2, "before {before_acc} after {after_acc}");
    }

    #[test]
    fn tuned_plan_and_encoded_cascade_match_exact() {
        let (x, y) = toy_features(15, 12);
        let cfg = MemhdConfig::new(256, 9, 3).unwrap().with_epochs(5).with_seed(8);
        let model = MemhdModel::fit(&cfg, &x, &y).unwrap();
        let plan = model.tuned_cascade_plan(&x).unwrap();
        assert_eq!(plan.dim(), 256);
        let exact = model.predict_batch(&x).unwrap();
        assert_eq!(model.predict_batch_cascade(&x, &plan).unwrap(), exact);
        // The encoded-query slice agrees with the feature-level path.
        let encoded = model.encoder().encode_binary_batch(&x).unwrap();
        assert_eq!(model.predict_encoded_batch_cascade(&encoded, &plan).unwrap(), exact);
        // An empty tuning sample is rejected.
        let empty = Matrix::zeros(0, x.cols());
        assert!(matches!(model.tuned_cascade_plan(&empty), Err(MemhdError::InvalidData { .. })));
    }

    #[test]
    fn assemble_wraps_pretrained_parts() {
        let (x, y) = toy_features(10, 13);
        let cfg = MemhdConfig::new(128, 6, 3).unwrap().with_epochs(1).with_seed(9);
        let trained = MemhdModel::fit(&cfg, &x, &y).unwrap();
        let rebuilt = MemhdModel::assemble(
            trained.config().clone(),
            trained.encoder().clone(),
            trained.float_am().clone(),
            trained.binary_am().clone(),
        )
        .unwrap();
        assert_eq!(rebuilt.predict_batch(&x).unwrap(), trained.predict_batch(&x).unwrap());
        assert!(rebuilt.history().records().is_empty(), "assembled history starts empty");
        // Mismatched parts are rejected with the offending parameter.
        let narrow_cfg = MemhdConfig::new(64, 6, 3).unwrap();
        assert!(matches!(
            MemhdModel::assemble(
                narrow_cfg,
                trained.encoder().clone(),
                trained.float_am().clone(),
                trained.binary_am().clone(),
            ),
            Err(MemhdError::InvalidConfig { parameter: "dim", .. })
        ));
        let fat_cfg = MemhdConfig::new(128, 9, 3).unwrap();
        assert!(matches!(
            MemhdModel::assemble(
                fat_cfg,
                trained.encoder().clone(),
                trained.float_am().clone(),
                trained.binary_am().clone(),
            ),
            Err(MemhdError::InvalidConfig { parameter: "columns", .. })
        ));
    }

    #[test]
    fn history_has_epoch_zero() {
        let (x, y) = toy_features(10, 7);
        let cfg = MemhdConfig::new(128, 6, 3).unwrap().with_epochs(2);
        let model = MemhdModel::fit(&cfg, &x, &y).unwrap();
        assert_eq!(model.history().records()[0].epoch, 0);
    }
}
