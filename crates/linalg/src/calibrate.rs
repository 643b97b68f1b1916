//! Once-per-host micro-calibration of the cascade tuner's cost model.
//!
//! [`crate::CascadePlan::tuned`] scores candidate stage plans with a
//! deterministic cost model of the cascade's block pass: stage 0 priced
//! at one unit per row-word of the blocked sweep, a later stage at
//! [`crate::BLOCK_LANES`] lanes per word for every row block it still
//! scores (or the lone-row weight for a block with one live row, which
//! goes through the flat kernel), plus fixed per-block and
//! per-(query, stage) overheads. Those relative prices are properties of
//! the host's kernels (how the flat kernel compares with one lane of the
//! blocked sweep, and what a block's prune compare and k-best tracking
//! cost on *this* CPU with *this* dispatched backend). This module
//! measures them once per host by timing the real kernels — the blocked
//! winners sweep and the cascade's block pass, both through the same
//! dispatch table the search paths use — on a small synthetic workload,
//! and caches the result so every later process (and every later call
//! in this one) resolves the same [`CostModel`].
//!
//! Resolution order of [`CostModel::active`]:
//!
//! 1. `HD_LINALG_CALIBRATION` env override: `fallback` (or `off`) pins
//!    the compiled-in [`CostModel::fallback`] constants; `measure`
//!    forces a fresh measurement (ignoring the cache, still writing
//!    it); an explicit `cont=4.0,row=2.0,stage=8.0` triple pins exact
//!    values. Unrecognized values warn once and fall back.
//! 2. A scalar kernel backend — the `force-scalar` feature or
//!    `HD_LINALG_BACKEND=scalar` — resolves to the fallback constants:
//!    the scalar backend is the portable reference, and its runs (the
//!    scalar-forced CI legs) must plan identically on every host, which
//!    a timed model would not. It runs the same blocked sweep and block
//!    pass as the SIMD backends, so an explicit
//!    `CostModel::measure(Backend::Scalar)` still prices real kernels.
//! 3. The per-host cache file (`HD_LINALG_CALIBRATION_CACHE`, else
//!    `$XDG_CACHE_HOME`/`$HOME/.cache` under `hd-linalg/`, else the
//!    system temp dir), keyed by kernel backend.
//! 4. A fresh [`CostModel::measure`], persisted to the cache
//!    best-effort (atomic rename; a read-only filesystem just
//!    re-measures next process).
//!
//! Measured parameters are clamped to a sane regime (a noisy container
//! can stretch a timing, not invert the model's shape) and quantized, so
//! a cached model is bit-stable across loads.

use crate::batch::{Slots, SweepOut};
use crate::blocked::{SearchMemory, LANES};
use crate::kernel::{self, Backend};
use crate::{BitMatrix, BitVector, CascadePlan, QueryBatch};
use std::fmt;
use std::hint::black_box;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;

/// Cache-format version; bump when the measurement or clamps change.
const CACHE_VERSION: u32 = 2;

/// The calibrated parameters of the cascade tuner's cost model, in
/// stage-0 row-word units (one unit = the blocked sweep scoring one
/// packed word of one row).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Per-word cost of scoring a lone live row through the flat kernel,
    /// relative to one lane of the blocked sweep. Clamped to
    /// `[0.25, 8.0]`.
    pub cont_weight: f64,
    /// Fixed cost of each row block a later stage scores (its prune
    /// compare, count merge and k-best tracking). Clamped to
    /// `[0.0, 256.0]`.
    pub row_overhead_words: f64,
    /// Fixed per-query, per-stage overhead (loop set-up, lazy suffix
    /// popcounts). Clamped to `[2.0, 1024.0]`.
    pub stage_overhead_words: f64,
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

impl CostModel {
    /// The compiled-in fallback: the historical hand-tuned constants,
    /// used whenever measurement is unavailable or pinned off
    /// (scalar-forced runs, `HD_LINALG_CALIBRATION=fallback`, timing
    /// failures). Deterministic by construction.
    pub const fn fallback() -> Self {
        CostModel { cont_weight: 4.0, row_overhead_words: 2.0, stage_overhead_words: 8.0 }
    }

    /// The process-wide cost model, resolved once (see the module docs
    /// for the resolution order) and identical on every later call.
    pub fn active() -> Self {
        static ACTIVE: OnceLock<CostModel> = OnceLock::new();
        *ACTIVE.get_or_init(Self::resolve)
    }

    fn resolve() -> Self {
        match std::env::var("HD_LINALG_CALIBRATION") {
            Ok(raw) if !raw.is_empty() => {
                let v = raw.trim().to_ascii_lowercase();
                return match v.as_str() {
                    "fallback" | "off" => Self::fallback(),
                    "measure" => Self::measure_and_store(),
                    _ => Self::parse(&raw).unwrap_or_else(|| {
                        eprintln!(
                            "hd_linalg: unrecognized HD_LINALG_CALIBRATION={raw:?} \
                             (expected fallback|measure|cont=..,row=..,stage=..); \
                             using the fallback constants"
                        );
                        Self::fallback()
                    }),
                };
            }
            _ => {}
        }
        let backend = kernel::active();
        if backend == Backend::Scalar {
            // The portable reference plans identically on every host, so
            // the scalar-forced CI legs stay reproducible.
            return Self::fallback();
        }
        if let Some(cached) = cache_path(backend).and_then(|p| Self::load(&p, backend)) {
            return cached;
        }
        Self::measure_and_store()
    }

    fn measure_and_store() -> Self {
        let backend = kernel::active();
        Self::measured_with_cache(backend, cache_path(backend).as_deref())
    }

    /// Measures a fresh model and best-effort persists it to `cache`.
    /// A missing or unwritable cache location (unset `$HOME`, read-only
    /// filesystem, a file blocking the directory path) degrades to
    /// measure-without-store: the returned model is always the fresh
    /// measurement — never an error, never a silently stale constant.
    fn measured_with_cache(backend: Backend, cache: Option<&Path>) -> Self {
        let model = Self::measure(backend);
        if let Some(path) = cache {
            let _ = model.store(path, backend); // best-effort persistence
        }
        model
    }

    /// Parses an explicit `cont=4.0,row=2.0,stage=8.0` override (any
    /// order, all three keys required). Values are clamped like measured
    /// ones. Returns `None` on anything malformed.
    pub fn parse(text: &str) -> Option<Self> {
        let (mut cont, mut row, mut stage) = (None, None, None);
        for field in text.split(',') {
            let (key, value) = field.split_once('=')?;
            let value: f64 = value.trim().parse().ok()?;
            if !value.is_finite() || value < 0.0 {
                return None;
            }
            match key.trim() {
                "cont" => cont = Some(value),
                "row" => row = Some(value),
                "stage" => stage = Some(value),
                _ => return None,
            }
        }
        Some(
            CostModel {
                cont_weight: cont?,
                row_overhead_words: row?,
                stage_overhead_words: stage?,
            }
            .clamped(),
        )
    }

    /// Clamps every parameter into the regime the tuner's model shape is
    /// valid for, then quantizes to 1/1024 units so a stored model
    /// round-trips bit-identically through the decimal cache format.
    pub fn clamped(self) -> Self {
        let q = |x: f64| (x * 1024.0).round() / 1024.0;
        CostModel {
            cont_weight: q(self.cont_weight.clamp(0.25, 8.0)),
            row_overhead_words: q(self.row_overhead_words.clamp(0.0, 256.0)),
            stage_overhead_words: q(self.stage_overhead_words.clamp(2.0, 1024.0)),
        }
    }

    /// Measures the model for `backend` on a synthetic workload of
    /// deterministic 4096-bit rows and 32 queries, timing the real
    /// kernels on search memories pinned to `backend`: the stage-0 unit
    /// price is the serial blocked winners sweep of 256 random rows; the
    /// per-block and per-(query, stage) overheads come from the extra
    /// stage boundary of a cascade that cannot prune (identical rows)
    /// at two row counts; the lone-row weight is the per-word slope of a
    /// cascade whose first stage leaves one live row, at two widths.
    /// Timing noise is bounded by best-of-reps and the clamps; a
    /// degenerate measurement (zero or non-finite unit price) returns
    /// [`CostModel::fallback`].
    pub fn measure(backend: Backend) -> Self {
        const ROWS: usize = 256;
        const WORDS: usize = 64;
        const DIM: usize = WORDS * 64;
        const QUERIES: usize = 32;
        const REPS: usize = 5;

        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut next = move || {
            // splitmix64: deterministic filler, no crate dependencies.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut packed = |words: usize| -> Vec<u64> { (0..words).map(|_| next()).collect() };
        let rows: Vec<BitVector> = (0..ROWS)
            .map(|_| BitVector::from_words(DIM, packed(WORDS)).expect("whole words"))
            .collect();
        let pinned = |rows: &[BitVector]| {
            let matrix = BitMatrix::from_rows(rows).expect("non-empty synthetic memory");
            SearchMemory::with_backend(matrix, backend)
        };
        let memory = pinned(&rows);
        let query_words: Vec<Vec<u64>> = (0..QUERIES).map(|_| packed(WORDS)).collect();
        // The queries cut to their first `words` words.
        let batch = |words: usize| {
            let queries: Vec<BitVector> = query_words
                .iter()
                .map(|q| {
                    BitVector::from_words(words * 64, q[..words].to_vec()).expect("whole words")
                })
                .collect();
            QueryBatch::from_vectors(&queries).expect("non-empty synthetic batch")
        };
        let full = batch(WORDS);

        // Stage-0 unit price: the real fused winners sweep of the blocked
        // layout, one serial kernel-table call over the whole batch (no
        // thread chunking, whatever the features).
        let sweep = kernel::table_for(memory.backend()).blocked_sweep;
        let sweep_ns = min_time(REPS, || {
            let mut winners = vec![(0usize, 0u32); QUERIES];
            sweep(memory.blocked(), &full, 0, SweepOut::KBest(Slots::new(&mut winners, 1)));
            black_box(winners);
        });
        let t0 = sweep_ns / (QUERIES * ROWS * WORDS) as f64;

        // One cascade search of a pinned memory: best of reps of 8 calls.
        let cascade_ns = |memory: &SearchMemory, batch: &QueryBatch, ends: &[usize]| {
            let mut prev = 0usize;
            let widths: Vec<usize> =
                ends.iter().map(|&e| e - std::mem::replace(&mut prev, e)).collect();
            let plan = CascadePlan::from_widths(batch.dim(), &widths).expect("increasing ends");
            min_time(REPS, || {
                for _ in 0..8 {
                    black_box(memory.search_cascade_topk(batch, &plan, 1).ok());
                }
            }) / 8.0
        };

        // Overheads: identical rows tie every bound, so every block stays
        // fully live through every stage, and one more stage boundary
        // costs one block overhead per block plus one stage overhead per
        // query; two row counts separate the two.
        let extra_stage = |count: usize| {
            let same = pinned(&vec![rows[0].clone(); count]);
            cascade_ns(&same, &full, &[64, 512, DIM]) - cascade_ns(&same, &full, &[64, DIM])
        };
        let (many, few) = (ROWS, LANES);
        let (d_many, d_few) = (extra_stage(many), extra_stage(few));
        let block_ns = (d_many - d_few) / (QUERIES * (many - few) / LANES) as f64;
        let stage_ns = d_few / QUERIES as f64 - (few / LANES) as f64 * block_ns;

        // Lone rows: one all-ones row over seven all-zero ones, so stage
        // 0 prunes every other row and stage 1 scores one lone lane
        // through the flat kernel; two widths give its per-word price.
        let lone = |words: usize| {
            let mut rows = vec![BitVector::zeros(words * 64); LANES];
            rows[0] = BitVector::ones(words * 64);
            cascade_ns(&pinned(&rows), &batch(words), &[64, words * 64])
        };
        let (w_short, w_long) = (8usize, WORDS);
        let t1 = (lone(w_long) - lone(w_short)) / (QUERIES * (w_long - w_short)) as f64;

        if !(t0.is_finite() && t0 > 0.0 && t1.is_finite() && block_ns.is_finite()) {
            return Self::fallback();
        }
        CostModel {
            cont_weight: t1 / t0,
            row_overhead_words: (block_ns / t0).max(0.0),
            stage_overhead_words: (stage_ns / t0).max(0.0),
        }
        .clamped()
    }

    /// Loads a cached model from `path`, returning `None` when the file
    /// is missing, malformed, from another cache version, or was
    /// measured for a different kernel backend.
    pub fn load(path: &Path, backend: Backend) -> Option<Self> {
        let text = std::fs::read_to_string(path).ok()?;
        let (mut version, mut found_backend) = (None, None);
        let (mut cont, mut row, mut stage) = (None, None, None);
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line.split_once('=')?;
            match key.trim() {
                "version" => version = value.trim().parse::<u32>().ok(),
                "backend" => found_backend = Some(value.trim().to_string()),
                "cont_weight" => cont = value.trim().parse::<f64>().ok(),
                "row_overhead_words" => row = value.trim().parse::<f64>().ok(),
                "stage_overhead_words" => stage = value.trim().parse::<f64>().ok(),
                _ => return None,
            }
        }
        if version? != CACHE_VERSION || found_backend? != backend.name() {
            return None;
        }
        let model = CostModel {
            cont_weight: cont?,
            row_overhead_words: row?,
            stage_overhead_words: stage?,
        };
        // Reject values outside the clamp regime instead of silently
        // re-clamping: an out-of-range file is corrupt, not calibrated.
        (model == model.clamped()).then_some(model)
    }

    /// Persists the model to `path` (parent directories created, written
    /// via a temp file + atomic rename so concurrent readers never see a
    /// partial cache).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; callers treat persistence as
    /// best-effort.
    pub fn store(&self, path: &Path, backend: Backend) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        {
            let mut f = std::fs::File::create(&tmp)?;
            writeln!(f, "# hd-linalg cascade cost-model calibration (auto-generated)")?;
            writeln!(f, "version={CACHE_VERSION}")?;
            writeln!(f, "backend={}", backend.name())?;
            writeln!(f, "cont_weight={}", self.cont_weight)?;
            writeln!(f, "row_overhead_words={}", self.row_overhead_words)?;
            writeln!(f, "stage_overhead_words={}", self.stage_overhead_words)?;
        }
        let renamed = std::fs::rename(&tmp, path);
        if renamed.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        renamed
    }
}

/// The per-host cache file for `backend`'s calibration:
/// `HD_LINALG_CALIBRATION_CACHE` verbatim when set, else
/// `<cache-base>/hd-linalg/cascade-cost-v2-<backend>.txt` where the base
/// is `$XDG_CACHE_HOME`, `$HOME/.cache`, or the system temp dir.
pub fn cache_path(backend: Backend) -> Option<PathBuf> {
    cache_path_from(
        std::env::var_os("HD_LINALG_CALIBRATION_CACHE").as_deref(),
        std::env::var_os("XDG_CACHE_HOME").as_deref(),
        std::env::var_os("HOME").as_deref(),
        backend,
    )
}

/// Pure resolution behind [`cache_path`], split out so the unset/empty
/// `$HOME` degradation is unit-testable without racing the process
/// environment. An unset or empty home never errors: the base falls
/// through to the system temp dir.
fn cache_path_from(
    explicit: Option<&std::ffi::OsStr>,
    xdg: Option<&std::ffi::OsStr>,
    home: Option<&std::ffi::OsStr>,
    backend: Backend,
) -> Option<PathBuf> {
    if let Some(p) = explicit.filter(|p| !p.is_empty()) {
        return Some(PathBuf::from(p));
    }
    let base = xdg
        .filter(|p| !p.is_empty())
        .map(PathBuf::from)
        .or_else(|| home.filter(|h| !h.is_empty()).map(|h| PathBuf::from(h).join(".cache")))
        .unwrap_or_else(std::env::temp_dir);
    Some(
        base.join("hd-linalg")
            .join(format!("cascade-cost-v{CACHE_VERSION}-{}.txt", backend.name())),
    )
}

/// Best-of-`reps` wall time of `f`, in nanoseconds.
fn min_time<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e9);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fallback_matches_historical_hand_tuned_constants() {
        let f = CostModel::fallback();
        assert_eq!((f.cont_weight, f.row_overhead_words, f.stage_overhead_words), (4.0, 2.0, 8.0));
        // The fallback itself sits inside the clamp regime.
        assert_eq!(f, f.clamped());
    }

    #[test]
    fn parse_accepts_triples_and_rejects_garbage() {
        let m = CostModel::parse("cont=3.5,row=1.0,stage=10").unwrap();
        assert_eq!((m.cont_weight, m.row_overhead_words, m.stage_overhead_words), (3.5, 1.0, 10.0));
        // Order-insensitive, whitespace-tolerant, clamped.
        let m = CostModel::parse("stage=1, cont = 100 ,row=0").unwrap();
        assert_eq!((m.cont_weight, m.row_overhead_words, m.stage_overhead_words), (8.0, 0.0, 2.0));
        for bad in [
            "",
            "cont=1",
            "cont=1,row=2",
            "cont=a,row=2,stage=3",
            "x=1,row=2,stage=3",
            "cont=-1,row=2,stage=3",
            "cont=inf,row=2,stage=3",
        ] {
            assert!(CostModel::parse(bad).is_none(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn measure_stays_inside_the_clamp_regime() {
        let m = CostModel::measure(kernel::active());
        assert_eq!(m, m.clamped(), "measured model must be clamped+quantized: {m}");
        assert!((0.25..=8.0).contains(&m.cont_weight), "{m}");
        assert!((0.0..=256.0).contains(&m.row_overhead_words), "{m}");
        assert!((2.0..=1024.0).contains(&m.stage_overhead_words), "{m}");
    }

    #[test]
    fn cache_roundtrip_is_bit_identical_and_backend_keyed() {
        let dir = std::env::temp_dir().join(format!("hd-linalg-test-{}", std::process::id()));
        let path = dir.join("roundtrip.txt");
        let model = CostModel::parse("cont=2.625,row=1.5,stage=12.25").unwrap();
        let backend = kernel::active();
        model.store(&path, backend).unwrap();
        // Deterministic across repeat loads.
        assert_eq!(CostModel::load(&path, backend), Some(model));
        assert_eq!(CostModel::load(&path, backend), Some(model));
        // A different backend's cache never leaks across.
        for other in Backend::available() {
            if other != backend {
                assert_eq!(CostModel::load(&path, other), None);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_rejects_out_of_regime_and_malformed_files() {
        let dir = std::env::temp_dir().join(format!("hd-linalg-test-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let backend = kernel::active();
        let cases = [
            ("missing.txt", None),
            ("junk.txt", Some("not a cache file")),
            (
                "out-of-regime.txt",
                Some("version=2\nbackend=BACKEND\ncont_weight=99\nrow_overhead_words=1\nstage_overhead_words=8\n"),
            ),
            (
                "old-version.txt",
                Some("version=1\nbackend=BACKEND\ncont_weight=4\nrow_overhead_words=2\nstage_overhead_words=8\n"),
            ),
        ];
        for (name, contents) in cases {
            let path = dir.join(name);
            if let Some(c) = contents {
                std::fs::write(&path, c.replace("BACKEND", backend.name())).unwrap();
            }
            assert_eq!(CostModel::load(&path, backend), None, "{name}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn active_is_stable_across_calls() {
        assert_eq!(CostModel::active(), CostModel::active());
    }

    /// Forcing the cache-write failure path: a file where a directory is
    /// needed makes `store` fail the way a read-only `$HOME` does, and
    /// the resolution still hands back a fresh valid measurement — no
    /// error, nothing silently served from a stale location.
    #[test]
    fn unwritable_cache_degrades_to_measure_without_store() {
        let dir = std::env::temp_dir().join(format!("hd-linalg-test-ro-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let blocker = dir.join("blocker");
        std::fs::write(&blocker, "not a directory").unwrap();
        let path = blocker.join("sub").join("cache.txt");
        let backend = kernel::active();
        assert!(CostModel::fallback().store(&path, backend).is_err());
        let model = CostModel::measured_with_cache(backend, Some(&path));
        assert_eq!(
            model,
            model.clamped(),
            "degraded path must still return a valid model: {model}"
        );
        assert!((0.25..=8.0).contains(&model.cont_weight), "{model}");
        assert_eq!(CostModel::load(&path, backend), None, "nothing may have been stored");
        // No cache location at all (unset HOME on a tmpdir-less host):
        // same degradation, same valid model.
        let uncached = CostModel::measured_with_cache(backend, None);
        assert_eq!(uncached, uncached.clamped());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `cache_path_from` never errors on an unset or empty `$HOME`: the
    /// base degrades XDG → HOME/.cache → system temp dir.
    #[test]
    fn cache_base_resolution_handles_unset_and_empty_home() {
        use std::ffi::OsStr;
        let backend = kernel::active();
        let explicit = cache_path_from(Some(OsStr::new("/x/y.txt")), None, None, backend).unwrap();
        assert_eq!(explicit, PathBuf::from("/x/y.txt"));
        // An empty explicit override is ignored, not treated as a path.
        let xdg = cache_path_from(
            Some(OsStr::new("")),
            Some(OsStr::new("/xdg")),
            Some(OsStr::new("/home/u")),
            backend,
        )
        .unwrap();
        assert!(xdg.starts_with("/xdg/hd-linalg"), "{xdg:?}");
        let home = cache_path_from(None, None, Some(OsStr::new("/home/u")), backend).unwrap();
        assert!(home.starts_with("/home/u/.cache/hd-linalg"), "{home:?}");
        for unset_home in [None, Some(OsStr::new(""))] {
            let p = cache_path_from(None, None, unset_home, backend).unwrap();
            assert!(p.starts_with(std::env::temp_dir()), "{p:?}");
        }
    }

    /// The compile-time scalar kill switch pins the deterministic
    /// fallback — the scalar-forced CI leg exercises exactly this path.
    #[cfg(feature = "force-scalar")]
    #[test]
    fn force_scalar_resolves_to_fallback() {
        assert_eq!(CostModel::active(), CostModel::fallback());
    }
}
