//! Runtime-dispatched SIMD popcount backends.
//!
//! Every similarity in the workspace bottoms out in one of two word-level
//! primitives — `popcount(a AND b)` (dot) and `popcount(a XOR b)`
//! (Hamming) — plus the blocked sweeps over a [`BlockedBitMatrix`], and
//! every projection encoding in one transposed f32 MVM
//! ([`crate::BitMatrix::matvec_t_f32`]; NEON runs the portable form). This
//! module selects, **once per process**, the fastest implementation the
//! host CPU offers and publishes it as a dispatch table
//! (`KernelTable`) that the search entry points
//! ([`crate::SearchMemory::topk_batch`], the cascade,
//! [`crate::BitVector::dot_many`], …) route through; a
//! [`crate::SearchMemory`] built with
//! [`crate::SearchMemory::with_backend`] routes through an explicit
//! backend's table instead:
//!
//! * [`Backend::Avx512`] — AVX-512 `VPOPCNTDQ`: one `vpopcntq` per eight
//!   packed words, with vectorized winner tracking.
//! * [`Backend::Avx2`] — nibble-LUT popcount (`pshufb` table lookups
//!   reduced with `psadbw`), with byte-level accumulation across word
//!   runs so the horizontal reduction amortizes.
//! * [`Backend::Neon`] — `vcnt` + widening pairwise adds on aarch64.
//! * [`Backend::Scalar`] — portable `u64::count_ones` loops; always
//!   available and the reference all other backends are tested against.
//!
//! Selection order is `HD_LINALG_BACKEND` (values `scalar`, `avx2`,
//! `avx512`, `neon`; unknown or unavailable values fall back to
//! auto-detection), then the `force-scalar` cargo feature, then
//! `is_x86_feature_detected!` / `is_aarch64_feature_detected!`. All
//! backends are bit-identical — ties, tail words, and padding included —
//! which the `simd_equivalence` proptest suite pins for every backend
//! reachable on the host.

use crate::batch::{Slots, SweepOut};
use crate::blocked::{self, blocked_sweep, cascade_pass, BlockPass, BlockedBitMatrix, StageWork};
use crate::{BitMatrix, QueryBatch};
use std::sync::OnceLock;

/// A popcount kernel implementation selectable at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Portable `u64::count_ones` loops (always available).
    Scalar,
    /// AVX2 nibble-LUT popcount (x86-64).
    Avx2,
    /// AVX-512 with the `VPOPCNTDQ` extension (x86-64).
    Avx512,
    /// NEON `vcnt` popcount (aarch64).
    Neon,
}

impl Backend {
    /// Short stable name (accepted by the `HD_LINALG_BACKEND` env var).
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
            Backend::Neon => "neon",
        }
    }

    /// Parses a backend name (case-insensitive).
    pub fn from_name(name: &str) -> Option<Backend> {
        match name.to_ascii_lowercase().as_str() {
            "scalar" => Some(Backend::Scalar),
            "avx2" => Some(Backend::Avx2),
            "avx512" | "avx512-vpopcntdq" => Some(Backend::Avx512),
            "neon" => Some(Backend::Neon),
            _ => None,
        }
    }

    /// Whether this backend can run on the current host.
    pub fn is_available(&self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
            }
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
            _ => false,
            #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
            _ => false,
        }
    }

    /// All backends usable on this host, best first (always ends with
    /// [`Backend::Scalar`]). This is the set the equivalence test suites
    /// iterate over.
    pub fn available() -> Vec<Backend> {
        [Backend::Avx512, Backend::Avx2, Backend::Neon, Backend::Scalar]
            .into_iter()
            .filter(Backend::is_available)
            .collect()
    }

    /// The best backend the host supports (detection only; no env
    /// override).
    pub fn detect() -> Backend {
        if cfg!(feature = "force-scalar") {
            return Backend::Scalar;
        }
        Backend::available()[0]
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The process-wide active backend: `HD_LINALG_BACKEND` if set to a
/// recognized **and** available backend, else [`Backend::detect`].
/// Resolved once and cached for the lifetime of the process.
///
/// The `force-scalar` cargo feature is a true kill switch: it wins over
/// the environment, so a binary built with it never runs SIMD kernels no
/// matter what `HD_LINALG_BACKEND` says.
pub fn active() -> Backend {
    static ACTIVE: OnceLock<Backend> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        if cfg!(feature = "force-scalar") {
            return Backend::Scalar;
        }
        match std::env::var("HD_LINALG_BACKEND") {
            Ok(name) => match Backend::from_name(&name) {
                Some(b) if b.is_available() => b,
                Some(b) => {
                    eprintln!(
                        "hd_linalg: HD_LINALG_BACKEND={b} requested but unavailable on this \
                         host; auto-detecting"
                    );
                    Backend::detect()
                }
                // Empty means "explicitly unset" (how CI clears a
                // job-level override); anything else is a typo worth
                // flagging once.
                None if name.is_empty() => Backend::detect(),
                None => {
                    eprintln!(
                        "hd_linalg: unrecognized HD_LINALG_BACKEND={name:?} (expected \
                         scalar|avx2|avx512|neon); auto-detecting"
                    );
                    Backend::detect()
                }
            },
            Err(_) => Backend::detect(),
        }
    })
}

/// Popcount dot product with an explicit backend — the testing/tuning
/// hook behind [`crate::BitVector::dot`].
///
/// # Panics
///
/// Panics if the backend is unavailable on this host or the slices have
/// different lengths.
pub fn dot_words_with(backend: Backend, a: &[u64], b: &[u64]) -> u32 {
    assert!(backend.is_available(), "backend {backend} not available on this host");
    assert_eq!(a.len(), b.len(), "dot_words: length mismatch");
    (table_for(backend).dot_words)(a, b)
}

/// Popcount XOR (Hamming) with an explicit backend.
///
/// # Panics
///
/// Panics if the backend is unavailable on this host or the slices have
/// different lengths.
pub fn hamming_words_with(backend: Backend, a: &[u64], b: &[u64]) -> u32 {
    assert!(backend.is_available(), "backend {backend} not available on this host");
    assert_eq!(a.len(), b.len(), "hamming_words: length mismatch");
    (table_for(backend).hamming_words)(a, b)
}

/// Transposed binary-weight MVM with an explicit backend — the
/// testing hook behind [`crate::BitMatrix::matvec_t_f32`], which runs
/// the active backend.
///
/// # Panics
///
/// Panics if the backend is unavailable on this host or
/// `x.len() != m.rows()`.
pub fn matvec_t_f32_with(backend: Backend, m: &BitMatrix, x: &[f32]) -> Vec<f32> {
    assert!(backend.is_available(), "backend {backend} not available on this host");
    assert_eq!(x.len(), m.rows(), "matvec_t_f32: input length mismatch");
    let mut out = vec![0.0; m.cols()];
    (table_for(backend).matvec_t_f32)(m, x, &mut out);
    out
}

/// Dispatch table of one backend's kernel entry points. Built once per
/// backend; a search memory's backend selects the table its batched
/// searches route through.
/// Two flat word kernels, the two loops over the backend's blocked
/// kernel (the sweep, whose sink — dot, winners or top-k — follows from
/// the output it is handed, and the cascade's block pass), and the
/// projection encoder's transposed MVM.
pub(crate) struct KernelTable {
    /// `popcount(a & b)` over equal-length word slices.
    pub(crate) dot_words: fn(&[u64], &[u64]) -> u32,
    /// `popcount(a ^ b)` over equal-length word slices.
    pub(crate) hamming_words: fn(&[u64], &[u64]) -> u32,
    /// The blocked sweep ([`crate::blocked`]): queries `q_offset..` of the
    /// batch against every row of the blocked memory, into a dot or
    /// k-best output (one slot per query is the winners sink).
    pub(crate) blocked_sweep: fn(&BlockedBitMatrix, &QueryBatch, usize, SweepOut<'_>),
    /// The cascade's block pass ([`crate::blocked::BlockPass`]): queries
    /// `q_offset..` stage by stage over the row blocks that still hold a
    /// live lane, into their k-best lists and the per-stage work tally.
    pub(crate) cascade_pass: CascadePass,
    /// `out[c] = Σ x[r]` over the rows `r` of a `x.len() × out.len()`
    /// matrix whose bit `c` is set, rows ascending, from `+0.0` (the
    /// caller checks the shapes and zeroes `out`).
    pub(crate) matvec_t_f32: fn(&BitMatrix, &[f32], &mut [f32]),
}

/// The signature of [`KernelTable::cascade_pass`].
pub(crate) type CascadePass = fn(&BlockPass<'_>, usize, Slots<'_, (usize, u32)>, &mut [StageWork]);

static SCALAR_TABLE: KernelTable = KernelTable {
    dot_words: scalar::dot_words,
    hamming_words: scalar::hamming_words,
    blocked_sweep: blocked_sweep::<blocked::ScalarLanes>,
    cascade_pass: cascade_pass::<blocked::ScalarLanes>,
    matvec_t_f32: scalar::matvec_t_f32,
};

#[cfg(target_arch = "x86_64")]
static AVX2_TABLE: KernelTable = KernelTable {
    dot_words: x86::words_avx2::<false>,
    hamming_words: x86::words_avx2::<true>,
    blocked_sweep: blocked_sweep::<blocked::Avx2Lanes>,
    cascade_pass: cascade_pass::<blocked::Avx2Lanes>,
    matvec_t_f32: x86::matvec_t_avx2,
};

#[cfg(target_arch = "x86_64")]
static AVX512_TABLE: KernelTable = KernelTable {
    dot_words: x86::words_avx512::<false>,
    hamming_words: x86::words_avx512::<true>,
    blocked_sweep: blocked_sweep::<blocked::Avx512Lanes>,
    cascade_pass: cascade_pass::<blocked::Avx512Lanes>,
    matvec_t_f32: x86::matvec_t_avx512,
};

#[cfg(target_arch = "aarch64")]
static NEON_TABLE: KernelTable = KernelTable {
    dot_words: aarch64::words_neon::<false>,
    hamming_words: aarch64::words_neon::<true>,
    blocked_sweep: blocked_sweep::<blocked::NeonLanes>,
    cascade_pass: cascade_pass::<blocked::NeonLanes>,
    matvec_t_f32: scalar::matvec_t_f32,
};

/// The dispatch table of an explicit backend (assumed available).
pub(crate) fn table_for(backend: Backend) -> &'static KernelTable {
    match backend {
        Backend::Scalar => &SCALAR_TABLE,
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => &AVX2_TABLE,
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => &AVX512_TABLE,
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => &NEON_TABLE,
        #[allow(unreachable_patterns)]
        _ => &SCALAR_TABLE,
    }
}

/// The dispatch table of the active backend.
pub(crate) fn active_table() -> &'static KernelTable {
    static TABLE: OnceLock<&'static KernelTable> = OnceLock::new();
    TABLE.get_or_init(|| table_for(active()))
}

/// Portable reference kernels — the fallback backend and the oracle the
/// SIMD backends are verified against.
pub(crate) mod scalar {
    use crate::BitMatrix;

    /// `Σ popcount(a_i & b_i)`.
    #[inline]
    pub(crate) fn dot_words(a: &[u64], b: &[u64]) -> u32 {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(x, y)| (x & y).count_ones()).sum()
    }

    /// `Σ popcount(a_i ^ b_i)`.
    #[inline]
    pub(crate) fn hamming_words(a: &[u64], b: &[u64]) -> u32 {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones()).sum()
    }

    /// The transposed MVM, a 64-output word at a time: each lane adds
    /// `x[r]` where row `r`'s bit is set and `+0.0` where it is not. That
    /// is bit-identical to a set-bit walk, which adds only the first: a
    /// sum that starts at `+0.0` never becomes `-0.0`, and adding `+0.0`
    /// to anything else leaves it bit-unchanged. Being branch-free per
    /// lane, the loop vectorizes at any target's baseline (SSE2 on
    /// x86-64).
    pub(crate) fn matvec_t_f32(m: &BitMatrix, x: &[f32], out: &mut [f32]) {
        let (words, tail) = out.as_chunks_mut::<64>();
        for (r, &xr) in x.iter().enumerate() {
            let row = m.row_words_pub(r);
            for (lanes, &word) in words.iter_mut().zip(row) {
                add_selected(lanes, word, xr);
            }
            if let Some(&word) = row.get(words.len()) {
                add_selected(tail, word, xr);
            }
        }
    }

    /// `lanes[k] += x` where bit `k` of `word` is set, `+= 0.0` elsewhere
    /// (`lanes.len() <= 64`), in 32-bit halves so the lane masks vectorize.
    #[inline(always)]
    fn add_selected(lanes: &mut [f32], word: u64, x: f32) {
        for (half, bits) in lanes.chunks_mut(32).zip([word as u32, (word >> 32) as u32]) {
            for (k, lane) in half.iter_mut().enumerate() {
                *lane += if bits & (1 << k) != 0 { x } else { 0.0 };
            }
        }
    }
}

/// AVX2 / AVX-512 flat-slice kernels.
///
/// The wrappers are safe because the table they are published in is only
/// selected after `is_x86_feature_detected!` confirms the features.
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use crate::BitMatrix;
    use std::arch::x86_64::*;

    /// `popcount(a & b)` (dot), or `popcount(a ^ b)` (Hamming) when `XOR`.
    pub(super) fn words_avx2<const XOR: bool>(a: &[u64], b: &[u64]) -> u32 {
        // SAFETY: published only behind an avx2 detection check; every
        // caller enforces a.len() == b.len() before the call.
        unsafe { combine_words_avx2::<XOR>(a, b) }
    }

    /// As [`words_avx2`].
    pub(super) fn words_avx512<const XOR: bool>(a: &[u64], b: &[u64]) -> u32 {
        // SAFETY: published only behind an avx512f+vpopcntdq check; every
        // caller enforces a.len() == b.len() before the call.
        unsafe { combine_words_avx512::<XOR>(a, b) }
    }

    /// Transposed MVM on AVX2.
    pub(super) fn matvec_t_avx2(m: &BitMatrix, x: &[f32], out: &mut [f32]) {
        // SAFETY: published only behind an avx2 detection check.
        unsafe { matvec_t_tiles_avx2(m, x, out) }
    }

    /// Transposed MVM on AVX-512.
    pub(super) fn matvec_t_avx512(m: &BitMatrix, x: &[f32], out: &mut [f32]) {
        // SAFETY: published only behind an avx512f+vpopcntdq check.
        unsafe { matvec_t_tiles_avx512(m, x, out) }
    }

    /// 64 outputs per pass over the rows, in eight 8-lane accumulators.
    /// Row `r`'s word for the tile expands to lane masks by shifting
    /// each lane's bit into its sign bit, which `blendv` reads: the lane
    /// takes `acc + x[r]` where the bit is set and keeps `acc` where it
    /// is not.
    #[target_feature(enable = "avx2")]
    fn matvec_t_tiles_avx2(m: &BitMatrix, x: &[f32], out: &mut [f32]) {
        // Lane k of `shifts[s]` moves bit 8s + k of a 32-bit half word
        // into the sign bit.
        let shifts = [
            _mm256_setr_epi32(31, 30, 29, 28, 27, 26, 25, 24),
            _mm256_setr_epi32(23, 22, 21, 20, 19, 18, 17, 16),
            _mm256_setr_epi32(15, 14, 13, 12, 11, 10, 9, 8),
            _mm256_setr_epi32(7, 6, 5, 4, 3, 2, 1, 0),
        ];
        for (t, tile) in out.chunks_mut(64).enumerate() {
            let mut acc = [_mm256_setzero_ps(); 8];
            for (r, &xr) in x.iter().enumerate() {
                let word = m.row_words_pub(r)[t];
                let xv = _mm256_set1_ps(xr);
                let halves =
                    [_mm256_set1_epi32(word as i32), _mm256_set1_epi32((word >> 32) as i32)];
                for (c, a) in acc.iter_mut().enumerate() {
                    let sel = _mm256_castsi256_ps(_mm256_sllv_epi32(halves[c / 4], shifts[c % 4]));
                    *a = _mm256_blendv_ps(*a, _mm256_add_ps(*a, xv), sel);
                }
            }
            let mut lanes = [0.0f32; 64];
            for (c, a) in acc.into_iter().enumerate() {
                // SAFETY: `lanes[8 * c..8 * c + 8]` is in bounds (c < 8).
                unsafe { _mm256_storeu_ps(lanes.as_mut_ptr().add(8 * c), a) };
            }
            tile.copy_from_slice(&lanes[..tile.len()]);
        }
    }

    /// 128 outputs per pass over the rows, in eight 16-lane accumulators:
    /// each 16-bit slice of row `r`'s two words for the tile is the mask
    /// of one `_mm512_mask_add_ps` of `x[r]`.
    #[target_feature(enable = "avx512f")]
    fn matvec_t_tiles_avx512(m: &BitMatrix, x: &[f32], out: &mut [f32]) {
        for (t, tile) in out.chunks_mut(128).enumerate() {
            let mut acc = [_mm512_setzero_ps(); 8];
            for (r, &xr) in x.iter().enumerate() {
                let row = m.row_words_pub(r);
                let words = [row[2 * t], row.get(2 * t + 1).copied().unwrap_or(0)];
                let xv = _mm512_set1_ps(xr);
                for (c, a) in acc.iter_mut().enumerate() {
                    let mask = (words[c / 4] >> (16 * (c % 4))) as u16;
                    *a = _mm512_mask_add_ps(*a, mask, *a, xv);
                }
            }
            let mut lanes = [0.0f32; 128];
            for (c, a) in acc.into_iter().enumerate() {
                // SAFETY: `lanes[16 * c..16 * c + 16]` is in bounds (c < 8).
                unsafe { _mm512_storeu_ps(lanes.as_mut_ptr().add(16 * c), a) };
            }
            tile.copy_from_slice(&lanes[..tile.len()]);
        }
    }

    /// Per-byte popcount of a 256-bit vector via the classic nibble LUT.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn popcnt_bytes_avx2(v: __m256i) -> __m256i {
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
            3, 3, 4,
        );
        let low = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low);
        let hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
        _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi))
    }

    /// Sums the four 64-bit lanes of an accumulator of `psadbw` partials.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn hsum_epi64_avx2(v: __m256i) -> u64 {
        let hi = _mm256_extracti128_si256(v, 1);
        let lo = _mm256_castsi256_si128(v);
        let s = _mm_add_epi64(lo, hi);
        let s = _mm_add_epi64(s, _mm_unpackhi_epi64(s, s));
        _mm_cvtsi128_si64(s) as u64
    }

    /// `popcount(a OP b)` over word slices, OP = XOR when `XOR` else AND.
    /// Processes 4 words per vector with byte-level accumulation over runs
    /// of ≤ 31 vectors (max byte count 8·31 = 248 < 256) so the `psadbw`
    /// horizontal step runs once per run, not once per vector.
    #[target_feature(enable = "avx2")]
    unsafe fn combine_words_avx2<const XOR: bool>(a: &[u64], b: &[u64]) -> u32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let mut acc = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 4 <= n {
            let run = ((n - i) / 4).min(31);
            let mut bytes = _mm256_setzero_si256();
            for r in 0..run {
                let pa = _mm256_loadu_si256(a.as_ptr().add(i + 4 * r) as *const __m256i);
                let pb = _mm256_loadu_si256(b.as_ptr().add(i + 4 * r) as *const __m256i);
                let v = if XOR { _mm256_xor_si256(pa, pb) } else { _mm256_and_si256(pa, pb) };
                bytes = _mm256_add_epi8(bytes, popcnt_bytes_avx2(v));
            }
            acc = _mm256_add_epi64(acc, _mm256_sad_epu8(bytes, _mm256_setzero_si256()));
            i += 4 * run;
        }
        let mut total = hsum_epi64_avx2(acc) as u32;
        while i < n {
            let v = if XOR { a[i] ^ b[i] } else { a[i] & b[i] };
            total += v.count_ones();
            i += 1;
        }
        total
    }

    /// `popcount(a OP b)` with native 64-bit lane popcounts (VPOPCNTDQ),
    /// 8 words per vector.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    unsafe fn combine_words_avx512<const XOR: bool>(a: &[u64], b: &[u64]) -> u32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let mut acc = _mm512_setzero_si512();
        let mut i = 0usize;
        while i + 8 <= n {
            let pa = _mm512_loadu_si512(a.as_ptr().add(i) as *const _);
            let pb = _mm512_loadu_si512(b.as_ptr().add(i) as *const _);
            let v = if XOR { _mm512_xor_si512(pa, pb) } else { _mm512_and_si512(pa, pb) };
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
            i += 8;
        }
        let mut total = _mm512_reduce_add_epi64(acc) as u32;
        while i < n {
            let v = if XOR { a[i] ^ b[i] } else { a[i] & b[i] };
            total += v.count_ones();
            i += 1;
        }
        total
    }
}

/// NEON flat-slice kernels (aarch64; NEON is baseline there, but the
/// backend still goes through the same detection-gated table).
#[cfg(target_arch = "aarch64")]
mod aarch64 {
    use std::arch::aarch64::*;

    /// `popcount(a & b)` (dot), or `popcount(a ^ b)` (Hamming) when `XOR`.
    pub(super) fn words_neon<const XOR: bool>(a: &[u64], b: &[u64]) -> u32 {
        // SAFETY: published only behind a neon detection check; every
        // caller enforces a.len() == b.len() before the call.
        unsafe { combine_words_neon::<XOR>(a, b) }
    }

    /// `popcount(a OP b)` via `vcnt` with byte accumulation over runs of
    /// ≤ 31 vectors, widened once per run.
    #[target_feature(enable = "neon")]
    unsafe fn combine_words_neon<const XOR: bool>(a: &[u64], b: &[u64]) -> u32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let mut acc = vdupq_n_u64(0);
        let mut i = 0usize;
        while i + 2 <= n {
            let run = ((n - i) / 2).min(31);
            let mut bytes = vdupq_n_u8(0);
            for r in 0..run {
                let pa = vld1q_u64(a.as_ptr().add(i + 2 * r));
                let pb = vld1q_u64(b.as_ptr().add(i + 2 * r));
                let v = if XOR { veorq_u64(pa, pb) } else { vandq_u64(pa, pb) };
                bytes = vaddq_u8(bytes, vcntq_u8(vreinterpretq_u8_u64(v)));
            }
            acc = vaddq_u64(acc, vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(bytes))));
            i += 2 * run;
        }
        let mut total = (vgetq_lane_u64(acc, 0) + vgetq_lane_u64(acc, 1)) as u32;
        while i < n {
            let v = if XOR { a[i] ^ b[i] } else { a[i] & b[i] };
            total += v.count_ones();
            i += 1;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_always_available() {
        assert!(Backend::Scalar.is_available());
        let avail = Backend::available();
        assert_eq!(*avail.last().unwrap(), Backend::Scalar);
        assert!(avail.contains(&active()));
    }

    /// The compile-time kill switch must win even against a hostile
    /// `HD_LINALG_BACKEND` (CI runs this feature with the env cleared,
    /// but the guarantee is unconditional).
    #[cfg(feature = "force-scalar")]
    #[test]
    fn force_scalar_beats_env() {
        assert_eq!(active(), Backend::Scalar);
    }

    #[test]
    fn backend_names_roundtrip() {
        for b in [Backend::Scalar, Backend::Avx2, Backend::Avx512, Backend::Neon] {
            assert_eq!(Backend::from_name(b.name()), Some(b));
        }
        assert_eq!(Backend::from_name("AVX512"), Some(Backend::Avx512));
        assert_eq!(Backend::from_name("mmx"), None);
    }

    #[test]
    fn flat_kernels_match_scalar_on_all_backends() {
        // Deterministic pseudo-random words, lengths spanning every tail
        // case of the vector loops.
        let words: Vec<u64> = (0..67u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left((i % 61) as u32))
            .collect();
        let other: Vec<u64> =
            words.iter().map(|w| w.wrapping_mul(0xc2b2_ae3d_27d4_eb4f) ^ !w).collect();
        for backend in Backend::available() {
            for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 67] {
                let a = &words[..len];
                let b = &other[..len];
                assert_eq!(
                    dot_words_with(backend, a, b),
                    scalar::dot_words(a, b),
                    "{backend} dot len {len}"
                );
                assert_eq!(
                    hamming_words_with(backend, a, b),
                    scalar::hamming_words(a, b),
                    "{backend} hamming len {len}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_words_with_checks_lengths() {
        dot_words_with(Backend::Scalar, &[0], &[0, 0]);
    }
}
