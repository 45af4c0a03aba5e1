//! **Batched, vectorized faces of the bit-true kernel** with runtime
//! dispatch — lane-parallel integer MACs over pixels and planes.
//!
//! The scalar functions in [`kernel`](super) process one pixel and one
//! plane at a time. The voting engine streams thousands of events through
//! ~100 planes per frame, which is a data-parallel shape: the same
//! Q11.21×Q9.7 MAC applied independently per lane. This module provides
//! the two batched faces it calls — the `PE_Z0` projection
//! ([`project_z0_batch`]) and the `PE_Zi` per-plane transfer
//! ([`transfer_nearest_batch`]) — executed by one of two **dispatch
//! tiers**:
//!
//! | tier       | name reported        | mechanism |
//! |------------|----------------------|-----------|
//! | `Simd`     | `avx2` / `neon`      | `core::arch` intrinsics, runtime-detected: AVX2 runs eight transfers an iteration in two 4 × `i64` halves and compacts them with one permutation; NEON runs the transfer MACs two `i64` lanes at a time |
//! | `Scalar`   | `scalar`             | the scalar kernel in a loop — the always-available reference |
//!
//! The tier is selected **once per session** ([`active`]): the
//! [`EVENTOR_KERNEL_DISPATCH`](DISPATCH_ENV) environment variable
//! (`scalar`/`simd`, a typed [`DispatchError`] on anything else or on an
//! unsupported tier) wins, otherwise detection picks `Simd` where the CPU
//! supports it and `Scalar` elsewhere. Tests and benches may pin a tier
//! in-process with [`force`], or bypass the global entirely with the
//! `*_with` variants that take an explicit [`Dispatch`].
//!
//! ## Bit-identity guarantee
//!
//! Every tier produces **bytes identical to the scalar kernel** for every
//! input: the same ties-away-from-zero rounding ([`super::round_acc`]), the
//! same projection-missing judgement ([`super::normalize_q9p7`]), the same
//! in-sensor judgement ([`super::transfer_nearest`]). This is the
//! one-kernel-many-faces discipline extended to lanes: vectorization is a
//! scheduling choice, never an arithmetic one. The proptests at the bottom
//! of this file pin the property across arbitrary batch sizes (0, 1,
//! non-multiples of the lane width) for every tier the host supports.
//!
//! The transfer folds the Nearest Voxel Finder's half pixel into the MAC
//! constant: `t = scale·c + ((offset << 7) + half)`, pixel `t >> 28` as a
//! logical shift. For `t > 0` that is the ties-away rounding of `t − half`
//! (a value in `(−half, 0)` rounds to pixel 0). `t == 0` is exactly −0.5 px,
//! which rounds away from zero to −1, and a negative `t` shifts to at least
//! 2³⁵. So a transfer is in the sensor exactly when both pixels are below
//! their bound and neither `t` is 0: one shift and two compares an axis,
//! with no sign handling and no lower-bound compare.
//!
//! ## Example
//!
//! ```
//! use eventor_fixed::kernel::batch::{self, Dispatch};
//! use eventor_fixed::kernel::{self, PhiWords};
//! use eventor_fixed::PackedCoord;
//!
//! let phi = PhiWords::from_f64(0.75, 3.5, -1.25);
//! let canon: Vec<PackedCoord> = (0..7)
//!     .map(|i| PackedCoord::from_f64(30.0 * i as f64, 40.0 * i as f64))
//!     .collect();
//! let mut idx = Vec::new();
//! batch::transfer_nearest_batch(&phi, &canon, 240, 180, &mut idx);
//! // Only the in-sensor transfers are written, in input order.
//! let inside: Vec<u32> = canon
//!     .iter()
//!     .filter_map(|&c| kernel::transfer_nearest(&phi, c, 240, 180).address())
//!     .map(|(x, y)| y as u32 * 240 + x as u32)
//!     .collect();
//! assert_eq!(idx, inside);
//! assert!(idx.len() < canon.len());
//! # let _ = Dispatch::ALL;
//! ```

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use super::{PhiWords, ACC_FRAC, ACC_HALF};
use crate::formats::{PackedCoord, Q9p7};

/// A slab index no sensor reaches (`width · height ≤ u32::MAX`), the old
/// batched spelling of
/// [`PlaneCoord::Missing`](crate::formats::PlaneCoord::Missing).
/// [`transfer_nearest_batch`] writes only in-sensor indices, so it never
/// writes this value; it stays public for callers that still filter on it.
pub const MISS: u32 = u32::MAX;

/// The environment variable that forces a dispatch tier for the whole
/// process: `scalar` or `simd` (lower-case, exact).
pub const DISPATCH_ENV: &str = "EVENTOR_KERNEL_DISPATCH";

/// A kernel dispatch tier. Ordered fastest-first; [`active`] resolves the
/// session's tier once and every batched wrapper consults it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dispatch {
    /// The scalar kernel in a loop — always available, and the reference
    /// the SIMD tier must match byte for byte.
    Scalar,
    /// `core::arch` intrinsics: AVX2 (with POPCNT, which every AVX2 CPU
    /// has) on `x86_64`, 4 × `i64` lanes; NEON on `aarch64`, 2 × `i64`
    /// lanes. Supported only where runtime detection finds the features.
    Simd,
}

impl Dispatch {
    /// Every tier, fastest-first — iterate and filter by
    /// [`is_supported`](Self::is_supported) to sweep all testable paths.
    pub const ALL: [Dispatch; 2] = [Dispatch::Simd, Dispatch::Scalar];

    /// Whether this tier can execute on the current host.
    pub fn is_supported(self) -> bool {
        match self {
            Dispatch::Scalar => true,
            Dispatch::Simd => simd_supported(),
        }
    }

    /// The tier name reported in diagnostics and `eventor-bench/1`
    /// artifacts: `"scalar"`, or the concrete instruction set of the SIMD
    /// tier (`"avx2"` / `"neon"`).
    pub fn name(self) -> &'static str {
        match self {
            Dispatch::Scalar => "scalar",
            Dispatch::Simd => {
                #[cfg(target_arch = "x86_64")]
                {
                    "avx2"
                }
                #[cfg(target_arch = "aarch64")]
                {
                    "neon"
                }
                #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
                {
                    "simd"
                }
            }
        }
    }

    /// Parses an [`EVENTOR_KERNEL_DISPATCH`](DISPATCH_ENV) value. The
    /// accepted spellings are exactly `scalar` and `simd`; anything else is
    /// a typed [`DispatchError::UnknownTier`].
    pub fn from_name(value: &str) -> Result<Dispatch, DispatchError> {
        match value {
            "scalar" => Ok(Dispatch::Scalar),
            "simd" => Ok(Dispatch::Simd),
            other => Err(DispatchError::UnknownTier {
                value: other.to_string(),
            }),
        }
    }
}

/// A dispatch tier could not be selected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DispatchError {
    /// The [`DISPATCH_ENV`] value is not one of `scalar`/`simd`.
    UnknownTier {
        /// The rejected value, verbatim.
        value: String,
    },
    /// The requested tier is not supported on this host (e.g. `simd` forced
    /// on a CPU without AVX2/NEON). The kernel never silently degrades a
    /// forced tier — that would make CI lanes lie about what they tested.
    Unsupported {
        /// The unsupported tier.
        tier: Dispatch,
    },
}

impl fmt::Display for DispatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DispatchError::UnknownTier { value } => write!(
                f,
                "unknown kernel dispatch tier {value:?} (expected one of: scalar, simd)"
            ),
            DispatchError::Unsupported { tier } => write!(
                f,
                "kernel dispatch tier '{}' is not supported on this host",
                tier.name()
            ),
        }
    }
}

impl std::error::Error for DispatchError {}

/// Runtime detection of the SIMD tier's instruction set.
fn simd_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("popcnt")
    }
    #[cfg(target_arch = "aarch64")]
    {
        std::arch::is_aarch64_feature_detected!("neon")
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        false
    }
}

fn check_supported(tier: Dispatch) -> Result<Dispatch, DispatchError> {
    if tier.is_supported() {
        Ok(tier)
    } else {
        Err(DispatchError::Unsupported { tier })
    }
}

/// The tier detection picks when [`DISPATCH_ENV`] is unset: `Simd`
/// wherever the CPU supports it, `Scalar` elsewhere.
fn detected() -> Dispatch {
    if simd_supported() {
        Dispatch::Simd
    } else {
        Dispatch::Scalar
    }
}

/// Resolves the environment/detection tier once per process. The
/// environment override stays authoritative: [`detected`] is consulted only
/// when [`DISPATCH_ENV`] is unset.
fn resolve_env() -> Result<Dispatch, DispatchError> {
    match std::env::var(DISPATCH_ENV) {
        Ok(value) => check_supported(Dispatch::from_name(&value)?),
        Err(_) => Ok(detected()),
    }
}

fn resolved() -> Result<Dispatch, DispatchError> {
    static RESOLVED: OnceLock<Result<Dispatch, DispatchError>> = OnceLock::new();
    RESOLVED.get_or_init(resolve_env).clone()
}

/// In-process override (0 = none, else `Dispatch` discriminant + 1). Takes
/// precedence over the resolved environment tier.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// Pins the dispatch tier for the whole process (`Some`) or restores the
/// environment/detection resolution (`None`).
///
/// Validates support before taking effect and returns
/// [`DispatchError::Unsupported`] otherwise — a forced tier never silently
/// degrades. Intended for tests, benches and diagnostics; production code
/// should rely on [`DISPATCH_ENV`] or detection.
pub fn force(tier: Option<Dispatch>) -> Result<(), DispatchError> {
    let code = match tier {
        None => 0,
        Some(t) => {
            check_supported(t)?;
            match t {
                Dispatch::Scalar => 1,
                Dispatch::Simd => 2,
            }
        }
    };
    FORCED.store(code, Ordering::Release);
    Ok(())
}

/// The session's dispatch tier, or the typed error that prevented its
/// selection (an invalid or unsupported [`DISPATCH_ENV`] value).
pub fn try_active() -> Result<Dispatch, DispatchError> {
    match FORCED.load(Ordering::Acquire) {
        1 => Ok(Dispatch::Scalar),
        2 => Ok(Dispatch::Simd),
        _ => resolved(),
    }
}

/// The session's dispatch tier: [`force`] override, then
/// [`DISPATCH_ENV`], then detection (`Simd` where supported, `Scalar`
/// otherwise).
///
/// # Panics
///
/// When [`DISPATCH_ENV`] names an unknown or unsupported tier — the
/// configuration error must surface, not degrade silently.
pub fn active() -> Dispatch {
    match try_active() {
        Ok(tier) => tier,
        Err(err) => panic!("{DISPATCH_ENV}: {err}"),
    }
}

fn assert_supported(tier: Dispatch) {
    assert!(
        tier.is_supported(),
        "kernel dispatch tier '{}' is not supported on this host",
        tier.name()
    );
}

// ---------------------------------------------------------------------------
// Batched faces
// ---------------------------------------------------------------------------

/// Batched [`project_z0`](super::project_z0): the complete `PE_Z0`
/// operation over a slice of events, **keeping only the survivors** of the
/// projection-missing judgement (in input order). `out` is cleared and
/// refilled; dropped events leave no placeholder — downstream per-plane
/// transfers iterate canonical coordinates densely.
///
/// The wide MACs run on the selected tier; the exact-rational
/// normalization divider is inherently scalar (integer division has no
/// lane form) and is shared verbatim by every tier.
pub fn project_z0_batch(h: &[i32; 9], coords: &[PackedCoord], out: &mut Vec<PackedCoord>) {
    project_z0_batch_with(active(), h, coords, out);
}

/// [`project_z0_batch`] with an explicit tier (panics if unsupported).
pub fn project_z0_batch_with(
    tier: Dispatch,
    h: &[i32; 9],
    coords: &[PackedCoord],
    out: &mut Vec<PackedCoord>,
) {
    assert_supported(tier);
    out.clear();
    out.reserve(coords.len());
    match tier {
        Dispatch::Scalar => out.extend(coords.iter().filter_map(|&c| super::project_z0(h, c))),
        Dispatch::Simd => simd::project(h, coords, out),
    }
}

/// The fused batched `PE_Zi` operation: both axis MACs, the ties-away
/// rounding and the in-sensor judgement for one depth plane over a slice
/// of canonical coordinates, **keeping only the in-sensor transfers**:
/// `out` ends up holding exactly their plane-slab indices
/// (`y · width + x`) in input order, so its length is the number of votes
/// the plane receives. It equals
/// [`transfer_nearest`](super::transfer_nearest)'s in-sensor addresses
/// as slab indices, for every `width, height ≤ 256` (the 8-bit
/// [`PlaneCoord`](crate::formats::PlaneCoord) domain).
///
/// Indices rather than `(x, y)` pairs because the consumer is the
/// cache-blocked DSI vote deposit, which adds a unit at `slab[idx]` for
/// every element with no further test; the multiply by `width` vectorizes
/// here, the deposit does not (no scatter on AVX2 worth its latency for
/// `u16` lanes). Every tier writes each transfer's index at the current
/// end and advances the end only on a hit, so no tier branches on the
/// judgement.
///
/// `width · height` must not exceed `u32::MAX` (debug-asserted) so every
/// slab index fits a `u32`; callers pass sensor/DSI dimensions, far
/// inside the bound. A reused `out` is resized without being refilled:
/// only slots past its previous length are initialised, and it is
/// truncated to the hit count.
pub fn transfer_nearest_batch(
    phi: &PhiWords,
    canon: &[PackedCoord],
    width: u32,
    height: u32,
    out: &mut Vec<u32>,
) {
    transfer_nearest_batch_with(active(), phi, canon, width, height, out);
}

/// [`transfer_nearest_batch`] with an explicit tier (panics if
/// unsupported).
pub fn transfer_nearest_batch_with(
    tier: Dispatch,
    phi: &PhiWords,
    canon: &[PackedCoord],
    width: u32,
    height: u32,
    out: &mut Vec<u32>,
) {
    assert_supported(tier);
    debug_assert!(
        width as u64 * height as u64 <= u32::MAX as u64,
        "slab index would not fit a u32"
    );
    // Every tier writes a slot for each transfer at or below its index in
    // `canon` (the AVX2 tier eight slots at a time), so `canon.len()` slots
    // hold every write.
    out.resize(canon.len(), 0);
    let hits = match tier {
        Dispatch::Scalar => {
            let mut len = 0;
            for &c in canon {
                len = append(phi, c, width, height, out, len);
            }
            len
        }
        Dispatch::Simd => simd::transfer(phi, canon, width, height, out),
    };
    out.truncate(hits);
}

/// The `PE_Zi` MAC constant of one axis with the Nearest Voxel Finder's
/// half pixel folded in: `t = scale·c + folded_offset(offset)`.
#[inline]
fn folded_offset(offset: i32) -> i64 {
    ((offset as i64) << Q9p7::frac_bits()) + ACC_HALF
}

/// Appends one folded transfer to the compacted output: writes its slab
/// index at `dst[len]` and returns the new length, `len + 1` when the
/// transfer is in the sensor and `len` otherwise — the definition the wide
/// tiers' lanes follow, and the tail loop of every tier.
#[inline]
fn append(
    phi: &PhiWords,
    c: PackedCoord,
    width: u32,
    height: u32,
    dst: &mut [u32],
    len: usize,
) -> usize {
    let tx = super::plane_mac(phi.scale, phi.offset_x, c.x.raw()) + ACC_HALF;
    let ty = super::plane_mac(phi.scale, phi.offset_y, c.y.raw()) + ACC_HALF;
    append_folded(tx, ty, width, height, dst, len)
}

/// [`append`] on the two folded accumulators.
#[inline]
fn append_folded(tx: i64, ty: i64, width: u32, height: u32, dst: &mut [u32], len: usize) -> usize {
    let (px, py) = ((tx as u64) >> ACC_FRAC, (ty as u64) >> ACC_FRAC);
    let hit = (px < width as u64) & (py < height as u64) & (tx != 0) & (ty != 0);
    // Exact for a hit; a miss's value is overwritten or truncated away.
    dst[len] = (py as u32).wrapping_mul(width).wrapping_add(px as u32);
    len + usize::from(hit)
}

/// Hints the cache hierarchy to fetch every 64-byte line `data` touches
/// into L2 (`prefetcht1` on x86-64); a no-op on other architectures.
///
/// The window vote calls it to have the next plane slab on its way while
/// the current one is voted. A prefetch dereferences nothing and cannot
/// fault, so the hint is safe on any slice; it changes only how soon a
/// later access finds its line, never a value.
#[inline]
pub fn prefetch_l2<T>(data: &[T]) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T1};
        const LINE: usize = 64;
        let bytes = std::mem::size_of_val(data);
        if bytes == 0 {
            return;
        }
        let base = data.as_ptr().cast::<i8>();
        let misalign = base as usize % LINE;
        let first = base.wrapping_sub(misalign);
        for offset in (0..misalign + bytes).step_by(LINE) {
            // A hint on a line `data` touches (the prefetch is a safe
            // function on newer toolchains, `unsafe` on older ones).
            #[allow(unused_unsafe)]
            unsafe {
                _mm_prefetch::<_MM_HINT_T1>(first.wrapping_add(offset))
            };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = data;
}

// ---------------------------------------------------------------------------
// SIMD tier — AVX2 (x86_64)
// ---------------------------------------------------------------------------

/// AVX2: four `i64` lanes per operation. Products come from
/// `_mm256_mul_epi32` (signed 32×32→64 on the low halves — exact, both
/// operands are sign-extended 32-bit values). The transfer's pixel is the
/// logical `_mm256_srli_epi64` of the folded accumulator, and the
/// in-sensor judgement two signed 64-bit compares against the bounds (a
/// negative accumulator shifts to at least 2³⁵, far above them) and two
/// compares against 0. The eight results of an iteration are compacted
/// through their hit mask with one `_mm256_permutevar8x32_epi32`, stored
/// whole at the output's end, and the end advances by the mask's
/// popcount. Remainders shorter than a vector run the scalar definitions,
/// which the tests pin as bit-identical.
///
/// Safety: every `#[target_feature(enable = "avx2")]` function is reached
/// only through a wrapper that asserts AVX2 and POPCNT are detected
/// (dispatch refuses the tier otherwise, but the assertion keeps the
/// module locally sound).
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::*;
    use std::arch::x86_64::*;

    #[inline]
    fn assert_avx2() {
        assert!(
            simd_supported(),
            "SIMD dispatch tier reached without AVX2 and POPCNT support"
        );
    }

    /// Four sign-extended raw coordinate words as `i64` lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load4_i16(vals: [i16; 4]) -> __m256i {
        _mm256_cvtepi32_epi64(_mm_set_epi32(
            vals[3] as i32,
            vals[2] as i32,
            vals[1] as i32,
            vals[0] as i32,
        ))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store4(v: __m256i) -> [i64; 4] {
        let mut lanes = [0i64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, v);
        lanes
    }

    /// For each 8-bit hit mask, the lanes it keeps in ascending order (the
    /// remaining entries are never read back): the
    /// `_mm256_permutevar8x32_epi32` index vector that moves the kept
    /// lanes to the front.
    const COMPACT: [[u8; 8]; 256] = {
        let mut table = [[0u8; 8]; 256];
        let mut mask = 0;
        while mask < 256 {
            let (mut lane, mut kept) = (0, 0);
            while lane < 8 {
                if mask & (1 << lane) != 0 {
                    table[mask][kept] = lane as u8;
                    kept += 1;
                }
                lane += 1;
            }
            mask += 1;
        }
        table
    };

    /// The folded transfer of four lanes: the slab indices, in the low
    /// half of each 64-bit lane, and the all-ones in-sensor mask.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn judge4(tx: __m256i, ty: __m256i, vw: __m256i, vh: __m256i) -> (__m256i, __m256i) {
        let px = _mm256_srli_epi64::<{ ACC_FRAC as i32 }>(tx);
        let py = _mm256_srli_epi64::<{ ACC_FRAC as i32 }>(ty);
        let inside = _mm256_and_si256(_mm256_cmpgt_epi64(vw, px), _mm256_cmpgt_epi64(vh, py));
        let zero = _mm256_setzero_si256();
        let tie = _mm256_or_si256(_mm256_cmpeq_epi64(tx, zero), _mm256_cmpeq_epi64(ty, zero));
        // In hit lanes py, width < 2^16, so the unsigned low-32 product is
        // exact; a miss's index is never kept.
        let idx = _mm256_add_epi64(_mm256_mul_epu32(py, vw), px);
        (idx, _mm256_andnot_si256(tie, inside))
    }

    pub(super) fn transfer(
        phi: &PhiWords,
        canon: &[PackedCoord],
        width: u32,
        height: u32,
        out: &mut [u32],
    ) -> usize {
        assert_avx2();
        assert_eq!(canon.len(), out.len());
        unsafe { transfer_avx2(phi, canon, width, height, out) }
    }

    /// Eight transfers per iteration. One unaligned 256-bit load covers
    /// eight `PackedCoord`s (`repr(C)` pairs of `i16`, x in the low half of
    /// each 32-bit lane on little-endian — the `to_word` layout);
    /// `_mm256_mul_epi32` reads the low 32 bits of each 64-bit lane, so the
    /// even-index coords multiply in place and the odd-index coords after a
    /// 32-bit lane shift, and one blend each re-interleaves the indices
    /// and the masks into input order before the compacting store.
    ///
    /// The store writes eight slots at the current length `len`; `len`
    /// never exceeds the iteration's start `i`, and `i + 8 <= n`, so every
    /// store stays inside `out` (asserted equal in length to `canon`).
    #[target_feature(enable = "avx2,popcnt")]
    unsafe fn transfer_avx2(
        phi: &PhiWords,
        canon: &[PackedCoord],
        width: u32,
        height: u32,
        out: &mut [u32],
    ) -> usize {
        let vscale = _mm256_set1_epi64x(phi.scale as i64);
        let voffx = _mm256_set1_epi64x(folded_offset(phi.offset_x));
        let voffy = _mm256_set1_epi64x(folded_offset(phi.offset_y));
        let vw = _mm256_set1_epi64x(width as i64);
        let vh = _mm256_set1_epi64x(height as i64);
        let n = canon.len();
        let mut len = 0;
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_loadu_si256(canon.as_ptr().add(i) as *const __m256i);
            let x32 = _mm256_srai_epi32::<16>(_mm256_slli_epi32::<16>(v));
            let y32 = _mm256_srai_epi32::<16>(v);
            let txe = _mm256_add_epi64(_mm256_mul_epi32(x32, vscale), voffx);
            let txo = _mm256_add_epi64(
                _mm256_mul_epi32(_mm256_srli_epi64::<32>(x32), vscale),
                voffx,
            );
            let tye = _mm256_add_epi64(_mm256_mul_epi32(y32, vscale), voffy);
            let tyo = _mm256_add_epi64(
                _mm256_mul_epi32(_mm256_srli_epi64::<32>(y32), vscale),
                voffy,
            );
            let (idxe, hite) = judge4(txe, tye, vw, vh);
            let (idxo, hito) = judge4(txo, tyo, vw, vh);
            // Even lanes keep their low halves, odd lanes move into the
            // high halves: eight `u32` indices and masks in input order.
            let idx = _mm256_blend_epi32::<0b10101010>(idxe, _mm256_slli_epi64::<32>(idxo));
            let hit = _mm256_blend_epi32::<0b10101010>(hite, hito);
            let mask = _mm256_movemask_ps(_mm256_castsi256_ps(hit)) as usize;
            let perm =
                _mm256_cvtepu8_epi32(_mm_loadl_epi64(COMPACT[mask].as_ptr() as *const __m128i));
            debug_assert!(len + 8 <= out.len());
            _mm256_storeu_si256(
                out.as_mut_ptr().add(len) as *mut __m256i,
                _mm256_permutevar8x32_epi32(idx, perm),
            );
            len += mask.count_ones() as usize;
            i += 8;
        }
        for &c in &canon[i..] {
            len = append(phi, c, width, height, out, len);
        }
        len
    }

    pub(super) fn project(h: &[i32; 9], coords: &[PackedCoord], out: &mut Vec<PackedCoord>) {
        assert_avx2();
        unsafe { project_avx2(h, coords, out) }
    }

    /// Fused projection: the MAC lanes land in stack arrays and the exact
    /// normalization divider runs per lane — integer division has no
    /// vector form, and its cost amortizes over the ~100 per-plane
    /// transfers each surviving event feeds.
    #[target_feature(enable = "avx2")]
    unsafe fn project_avx2(h: &[i32; 9], coords: &[PackedCoord], out: &mut Vec<PackedCoord>) {
        use crate::formats::Q9p7;
        let vh0 = _mm256_set1_epi64x(h[0] as i64);
        let vh1 = _mm256_set1_epi64x(h[1] as i64);
        let vh3 = _mm256_set1_epi64x(h[3] as i64);
        let vh4 = _mm256_set1_epi64x(h[4] as i64);
        let vh6 = _mm256_set1_epi64x(h[6] as i64);
        let vh7 = _mm256_set1_epi64x(h[7] as i64);
        let vc0 = _mm256_set1_epi64x((h[2] as i64) << 7);
        let vc1 = _mm256_set1_epi64x((h[5] as i64) << 7);
        let vc2 = _mm256_set1_epi64x((h[8] as i64) << 7);
        let mut iter = coords.chunks_exact(4);
        for four in &mut iter {
            let vx = load4_i16([
                four[0].x.raw(),
                four[1].x.raw(),
                four[2].x.raw(),
                four[3].x.raw(),
            ]);
            let vy = load4_i16([
                four[0].y.raw(),
                four[1].y.raw(),
                four[2].y.raw(),
                four[3].y.raw(),
            ]);
            let nx = store4(_mm256_add_epi64(
                _mm256_add_epi64(_mm256_mul_epi32(vx, vh0), _mm256_mul_epi32(vy, vh1)),
                vc0,
            ));
            let ny = store4(_mm256_add_epi64(
                _mm256_add_epi64(_mm256_mul_epi32(vx, vh3), _mm256_mul_epi32(vy, vh4)),
                vc1,
            ));
            let nw = store4(_mm256_add_epi64(
                _mm256_add_epi64(_mm256_mul_epi32(vx, vh6), _mm256_mul_epi32(vy, vh7)),
                vc2,
            ));
            for k in 0..4 {
                let (Some(px), Some(py)) = (
                    super::super::normalize_q9p7(nx[k], nw[k]),
                    super::super::normalize_q9p7(ny[k], nw[k]),
                ) else {
                    continue;
                };
                out.push(PackedCoord {
                    x: Q9p7::from_raw(px),
                    y: Q9p7::from_raw(py),
                });
            }
        }
        for &c in iter.remainder() {
            if let Some(p) = super::super::project_z0(h, c) {
                out.push(p);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// SIMD tier — NEON (aarch64)
// ---------------------------------------------------------------------------

/// NEON: two `i64` lanes per operation on the per-plane transfer (the
/// widening `vmull_s32` is the exact 32×32→64 product, the half pixel
/// folded into the added constant as on AVX2); each lane's judgement and
/// append is the scalar [`append_folded`]. The projection runs the scalar
/// loop — at two lanes the shuffle overhead of a NEON row MAC costs more
/// than it saves.
///
/// Safety: wrappers assert `is_aarch64_feature_detected!("neon")` before
/// entering any `#[target_feature(enable = "neon")]` function.
#[cfg(target_arch = "aarch64")]
mod simd {
    use super::*;
    use std::arch::aarch64::*;

    #[inline]
    fn assert_neon() {
        assert!(
            std::arch::is_aarch64_feature_detected!("neon"),
            "SIMD dispatch tier reached without NEON support"
        );
    }

    pub(super) fn transfer(
        phi: &PhiWords,
        canon: &[PackedCoord],
        width: u32,
        height: u32,
        out: &mut [u32],
    ) -> usize {
        assert_neon();
        unsafe { transfer_neon(phi, canon, width, height, out) }
    }

    #[target_feature(enable = "neon")]
    unsafe fn transfer_neon(
        phi: &PhiWords,
        canon: &[PackedCoord],
        width: u32,
        height: u32,
        out: &mut [u32],
    ) -> usize {
        let scale2 = vdup_n_s32(phi.scale);
        let voffx = vdupq_n_s64(folded_offset(phi.offset_x));
        let voffy = vdupq_n_s64(folded_offset(phi.offset_y));
        let mut len = 0;
        let mut pairs = canon.chunks_exact(2);
        for two in &mut pairs {
            let xs = [two[0].x.raw() as i32, two[1].x.raw() as i32];
            let ys = [two[0].y.raw() as i32, two[1].y.raw() as i32];
            let tx = vaddq_s64(vmull_s32(vld1_s32(xs.as_ptr()), scale2), voffx);
            let ty = vaddq_s64(vmull_s32(vld1_s32(ys.as_ptr()), scale2), voffy);
            len = append_folded(
                vgetq_lane_s64::<0>(tx),
                vgetq_lane_s64::<0>(ty),
                width,
                height,
                out,
                len,
            );
            len = append_folded(
                vgetq_lane_s64::<1>(tx),
                vgetq_lane_s64::<1>(ty),
                width,
                height,
                out,
                len,
            );
        }
        for &c in pairs.remainder() {
            len = append(phi, c, width, height, out, len);
        }
        len
    }

    pub(super) fn project(h: &[i32; 9], coords: &[PackedCoord], out: &mut Vec<PackedCoord>) {
        out.extend(
            coords
                .iter()
                .filter_map(|&c| super::super::project_z0(h, c)),
        );
    }
}

/// Unsupported architectures: dispatch never selects the SIMD tier here
/// ([`Dispatch::is_supported`] is `false`), so these bodies are
/// unreachable behind the `assert_supported` guard.
#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
mod simd {
    use super::*;

    pub(super) fn transfer(
        _: &PhiWords,
        _: &[PackedCoord],
        _: u32,
        _: u32,
        _: &mut [u32],
    ) -> usize {
        unreachable!("SIMD tier is unsupported on this architecture");
    }

    pub(super) fn project(_: &[i32; 9], _: &[PackedCoord], _: &mut Vec<PackedCoord>) {
        unreachable!("SIMD tier is unsupported on this architecture");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::Q9p7;

    fn supported_tiers() -> Vec<Dispatch> {
        Dispatch::ALL
            .into_iter()
            .filter(|t| t.is_supported())
            .collect()
    }

    fn coords(raws: &[(i16, i16)]) -> Vec<PackedCoord> {
        raws.iter()
            .map(|&(x, y)| PackedCoord {
                x: Q9p7::from_raw(x),
                y: Q9p7::from_raw(y),
            })
            .collect()
    }

    #[test]
    fn tier_names_and_parse_round_trip() {
        assert_eq!(Dispatch::from_name("scalar"), Ok(Dispatch::Scalar));
        assert_eq!(Dispatch::from_name("simd"), Ok(Dispatch::Simd));
        assert_eq!(Dispatch::Scalar.name(), "scalar");
        for retired in ["avx512", "swar"] {
            assert!(matches!(
                Dispatch::from_name(retired),
                Err(DispatchError::UnknownTier { .. })
            ));
        }
        let err = Dispatch::from_name("AVX2").unwrap_err();
        assert!(err.to_string().contains("AVX2"), "{err}");
    }

    #[test]
    fn detection_fallback_is_architecture_aware() {
        // Branches on the *runtime* host: with SIMD the fast tier wins,
        // without it the scalar loop.
        let tier = detected();
        if simd_supported() {
            assert_eq!(tier, Dispatch::Simd);
        } else {
            assert_eq!(tier, Dispatch::Scalar);
        }
        assert!(tier.is_supported(), "detection picked an unsupported tier");
    }

    #[test]
    fn force_round_trips_and_rejects_unsupported() {
        // One test owns the process-global override: run the scenarios
        // serially and always restore the default.
        for tier in supported_tiers() {
            force(Some(tier)).expect("supported tier");
            assert_eq!(try_active(), Ok(tier));
            assert_eq!(active(), tier);
        }
        if !Dispatch::Simd.is_supported() {
            assert_eq!(
                force(Some(Dispatch::Simd)),
                Err(DispatchError::Unsupported {
                    tier: Dispatch::Simd
                })
            );
        }
        force(None).expect("restore default");
        assert!(try_active().is_ok());
    }

    /// The contract every tier is held to: `kernel::transfer_nearest`'s
    /// in-sensor addresses as slab indices, in input order.
    fn in_sensor(phi: &PhiWords, canon: &[PackedCoord], width: u32, height: u32) -> Vec<u32> {
        canon
            .iter()
            .filter_map(|&c| super::super::transfer_nearest(phi, c, width, height).address())
            .map(|(x, y)| y as u32 * width + x as u32)
            .collect()
    }

    fn pixel(x: f64, y: f64) -> PackedCoord {
        PackedCoord::from_f64(x, y)
    }

    #[test]
    fn every_tier_matches_scalar_on_directed_cases() {
        // Exact ties (±half), judgement edges, saturated words, remainders
        // of every length 0..=9 against the 8-transfer AVX2 and 2-lane
        // NEON bodies.
        let phi_cases = [
            PhiWords::from_f64(1.0, 0.0, 0.0),
            PhiWords::from_f64(0.8371, -3.25, 17.0625),
            PhiWords::from_f64(-1.5, 239.5, -0.5),
            PhiWords {
                scale: i32::MIN,
                offset_x: i32::MAX,
                offset_y: i32::MIN,
            },
        ];
        let pool = coords(&[
            (0, 0),
            (64, -64),
            (i16::MAX, i16::MIN),
            (i16::MIN, i16::MAX),
            (-64, 64),
            (12345, -12345),
            (1, -1),
            (255, 128),
            (-32000, 31999),
        ]);
        // φ = (1, 0, 0) on raw (64, −64) is an exact negative tie: y = −0.5
        // rounds away to −1 (a miss) where half-up would give slab 1.
        assert_eq!(
            super::super::transfer_nearest(&phi_cases[0], pool[1], 240, 180),
            crate::formats::PlaneCoord::Missing
        );
        let h = {
            let one = crate::formats::Q11p21::one().raw();
            [one, 0, 0, 0, one, 0, 0, 0, one]
        };
        for tier in supported_tiers() {
            for phi in &phi_cases {
                for n in 0..=pool.len() {
                    let batch = &pool[..n];
                    let mut idx = Vec::new();
                    transfer_nearest_batch_with(tier, phi, batch, 240, 180, &mut idx);
                    assert_eq!(
                        idx,
                        in_sensor(phi, batch, 240, 180),
                        "tier {} n {}",
                        tier.name(),
                        n
                    );

                    let mut got = Vec::new();
                    project_z0_batch_with(tier, &h, batch, &mut got);
                    let expect: Vec<PackedCoord> = batch
                        .iter()
                        .filter_map(|&c| super::super::project_z0(&h, c))
                        .collect();
                    assert_eq!(got, expect, "tier {} n {}", tier.name(), n);
                }
            }
        }
    }

    #[test]
    fn every_hit_pattern_compacts_in_order_on_every_tier() {
        // Lane k of a pattern is in the sensor iff bit k is set; the misses
        // take turns leaving the sensor left, below and at the −0.5 px tie.
        let lane = |k: usize, hit: bool| match (hit, k % 3) {
            (true, _) => pixel(10.0 + 20.0 * k as f64, 7.25 * k as f64),
            (false, 0) => pixel(-3.0, 20.0),
            (false, 1) => pixel(20.0, 180.0),
            (false, _) => pixel(-0.5, 20.0),
        };
        let block = |mask: u32, lanes: usize| -> Vec<PackedCoord> {
            (0..lanes).map(|k| lane(k, mask >> k & 1 == 1)).collect()
        };
        let phi = PhiWords::from_f64(1.0, 0.0, 0.0);
        for tier in supported_tiers() {
            let mut idx = Vec::new();
            // Tails alone, every pattern of 1–7 lanes: no vector iteration.
            for lanes in 1..8 {
                for mask in 0..1u32 << lanes {
                    let canon = block(mask, lanes);
                    transfer_nearest_batch_with(tier, &phi, &canon, 240, 180, &mut idx);
                    assert_eq!(idx.len(), mask.count_ones() as usize);
                    assert_eq!(idx, in_sensor(&phi, &canon, 240, 180), "{mask:#b}");
                }
            }
            // All 256 eight-lane patterns, each followed by its complement
            // (the second store starts at the first's hit count) and a
            // tail of 0–7 lanes.
            for mask in 0..256u32 {
                for tail in 0..8 {
                    let mut canon = block(mask, 8);
                    canon.extend(block(!mask, 8));
                    canon.extend(block(mask.rotate_right(3), tail));
                    transfer_nearest_batch_with(tier, &phi, &canon, 240, 180, &mut idx);
                    let expect = in_sensor(&phi, &canon, 240, 180);
                    assert_eq!(
                        expect.len(),
                        8 + (mask.rotate_right(3) & ((1 << tail) - 1)).count_ones() as usize
                    );
                    assert_eq!(
                        idx,
                        expect,
                        "tier {} mask {mask:#010b} tail {tail}",
                        tier.name()
                    );
                }
            }
        }
    }

    #[test]
    fn exact_ties_round_away_from_zero_at_every_lane() {
        // φ = (1, 0, 0): raw 64 is exactly +0.5 px, raw −64 exactly −0.5.
        let phi = PhiWords::from_f64(1.0, 0.0, 0.0);
        let inside = PackedCoord {
            x: Q9p7::from_raw(5 << 7),
            y: Q9p7::from_raw(5 << 7),
        };
        for tier in supported_tiers() {
            let mut idx = Vec::new();
            for n in [8, 9, 16] {
                for at in 0..8 {
                    let mut canon = vec![inside; n];
                    // (0.5, −0.5): the negative tie rounds to −1 and misses.
                    canon[at] = coords(&[(64, -64)])[0];
                    transfer_nearest_batch_with(tier, &phi, &canon, 240, 180, &mut idx);
                    assert_eq!(
                        idx,
                        vec![5 * 240 + 5; n - 1],
                        "tier {} at {at}",
                        tier.name()
                    );
                    // (3.5, 4.5): positive ties round up to (4, 5).
                    canon[at] = coords(&[(7 * 64, 9 * 64)])[0];
                    transfer_nearest_batch_with(tier, &phi, &canon, 240, 180, &mut idx);
                    let mut expect = vec![5 * 240 + 5; n];
                    expect[at] = 5 * 240 + 4;
                    assert_eq!(idx, expect, "tier {} at {at}", tier.name());
                }
            }
        }
    }

    #[test]
    fn a_reused_arena_matches_scalar_as_blocks_shrink_and_grow() {
        // One arena over blocks of length 9, 3 and 17, every block with hits
        // and misses (even coordinates leave the sensor through the top):
        // a shorter block must leave no stale tail of the longer one's
        // indices, and a longer one must overwrite every slot it keeps.
        let pool: Vec<PackedCoord> = (0..17i16)
            .map(|i| PackedCoord {
                x: Q9p7::from_raw(i * 1931 - 16000),
                y: Q9p7::from_raw(if i % 2 == 0 { -8000 } else { 12000 }),
            })
            .collect();
        let phi = PhiWords::from_f64(0.8371, 120.0, 20.0);
        for tier in supported_tiers() {
            let mut idx = Vec::new();
            for n in [9, 3, 17] {
                let block = &pool[pool.len() - n..];
                transfer_nearest_batch_with(tier, &phi, block, 240, 180, &mut idx);
                let expect = in_sensor(&phi, block, 240, 180);
                assert!(!expect.is_empty() && expect.len() < n, "n {n}");
                assert_eq!(idx, expect, "tier {} n {n}", tier.name());
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn prefetch_accepts_any_slice() {
        // A hint: it must neither fault nor change a byte, aligned or not.
        let data: Vec<u16> = (0..1000).collect();
        for range in [0..0, 0..1000, 3..997, 999..1000] {
            prefetch_l2(&data[range]);
        }
        prefetch_l2::<u64>(&[]);
        assert!(data.iter().enumerate().all(|(i, &v)| v as usize == i));
    }

    #[test]
    fn miss_sentinel_is_distinct_from_every_slab_index() {
        // width · height ≤ u32::MAX ⇒ max index width·height - 1 < MISS.
        let max_idx = u32::MAX as u64 - 1;
        assert!(max_idx < MISS as u64);
        // The bound is tight: one more row would collide with the sentinel.
        assert_eq!((1u64 << 16) * (1 << 16) - 1, MISS as u64);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::formats::{Q11p21, Q9p7};
    use proptest::prelude::*;

    fn supported_tiers() -> Vec<Dispatch> {
        Dispatch::ALL
            .into_iter()
            .filter(|t| t.is_supported())
            .collect()
    }

    fn coords_from_raw(raws: &[(i32, i32)]) -> Vec<PackedCoord> {
        raws.iter()
            .map(|&(x, y)| PackedCoord {
                x: Q9p7::from_raw(x as i16),
                y: Q9p7::from_raw(y as i16),
            })
            .collect()
    }

    /// Full raw range of a Q9.7 word (the shim has no `any::<i16>()`).
    const RAW16: std::ops::Range<i32> = i16::MIN as i32..i16::MAX as i32 + 1;

    proptest! {
        /// Batched transfer writes exactly the scalar kernel's in-sensor
        /// addresses, as slab indices in input order, on every supported
        /// tier, for arbitrary raw words, arbitrary batch sizes (0, 1, lane
        /// remainders) and every sensor size of the 8-bit plane domain.
        #[test]
        fn transfer_batch_is_bit_identical_on_every_tier(
            scale in i32::MIN..i32::MAX,
            offset_x in i32::MIN..i32::MAX,
            offset_y in i32::MIN..i32::MAX,
            raws in collection::vec((RAW16, RAW16), 0..19),
            width in 1u32..257,
            height in 1u32..257,
        ) {
            let phi = PhiWords { scale, offset_x, offset_y };
            let canon = coords_from_raw(&raws);
            let expect: Vec<u32> = canon
                .iter()
                .filter_map(|&c| super::super::transfer_nearest(&phi, c, width, height).address())
                .map(|(x, y)| y as u32 * width + x as u32)
                .collect();
            let mut idx = Vec::new();
            for tier in supported_tiers() {
                transfer_nearest_batch_with(tier, &phi, &canon, width, height, &mut idx);
                prop_assert_eq!(&idx, &expect, "tier {}", tier.name());
            }
        }

        /// Batched projection keeps exactly the scalar kernel's survivors,
        /// in order, with byte-identical Q9.7 words, on every tier.
        #[test]
        fn project_batch_is_bit_identical_on_every_tier(
            h_vec in collection::vec(i32::MIN..i32::MAX, 9..10),
            raws in collection::vec((RAW16, RAW16), 0..19),
        ) {
            let h: [i32; 9] = h_vec.try_into().expect("nine entries");
            let coords = coords_from_raw(&raws);
            let expect: Vec<PackedCoord> = coords
                .iter()
                .filter_map(|&c| super::super::project_z0(&h, c))
                .collect();
            let mut got = Vec::new();
            for tier in supported_tiers() {
                project_z0_batch_with(tier, &h, &coords, &mut got);
                prop_assert_eq!(&got, &expect, "tier {}", tier.name());
            }
        }

        /// The projection proptest domain of the scalar kernel, replayed
        /// against the batched path under the session's default tier: the
        /// public wrappers are covered too, not only the `_with` variants.
        #[test]
        fn default_dispatch_projection_agrees_with_scalar(
            h_vec in collection::vec(-(1i32 << 24)..(1i32 << 24), 9..10),
            raws in collection::vec((RAW16, RAW16), 0..9),
        ) {
            let h: [i32; 9] = h_vec.try_into().expect("nine entries");
            let coords = coords_from_raw(&raws);
            let expect: Vec<PackedCoord> = coords
                .iter()
                .filter_map(|&c| super::super::project_z0(&h, c))
                .collect();
            let mut got = Vec::new();
            project_z0_batch(&h, &coords, &mut got);
            prop_assert_eq!(got, expect);
            let _ = Q11p21::one();
        }
    }
}
