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
//! | `Simd`     | `avx2` / `neon`      | `core::arch` intrinsics, 4×/2× `i64` lanes, runtime-detected |
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
//! in-sensor judgement. This is the one-kernel-many-faces discipline
//! extended to lanes: vectorization is a scheduling choice, never an
//! arithmetic one. The proptests at the bottom
//! of this file pin the property across arbitrary batch sizes (0, 1,
//! non-multiples of the lane width) for every tier the host supports.
//!
//! The ties-away rounding is carried branchlessly in the wide tiers as
//! `sign ⊕ ((|acc| + half) >> frac)`: plain add-half-and-shift would round
//! half-up and differ from the scalar kernel at exact negative ties.
//!
//! ## Example
//!
//! ```
//! use eventor_fixed::kernel::batch::{self, Dispatch};
//! use eventor_fixed::kernel::{self, PhiWords};
//! use eventor_fixed::PackedCoord;
//!
//! let phi = PhiWords::from_f64(0.75, 3.5, -1.25);
//! let canon = vec![PackedCoord::from_f64(10.0, 20.0); 7];
//! let mut idx = Vec::new();
//! batch::transfer_nearest_batch(&phi, &canon, 240, 180, &mut idx);
//! for (&i, &c) in idx.iter().zip(&canon) {
//!     let scalar = kernel::transfer_nearest(&phi, c, 240, 180);
//!     match scalar.address() {
//!         Some((x, y)) => assert_eq!(i, y as u32 * 240 + x as u32),
//!         None => assert_eq!(i, batch::MISS),
//!     }
//! }
//! # let _ = Dispatch::ALL;
//! ```

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use super::{PhiWords, ACC_FRAC, ACC_HALF};
use crate::formats::PackedCoord;

/// The sentinel slab index of a transfer dropped by the in-sensor
/// judgement — the batched spelling of
/// [`PlaneCoord::Missing`](crate::formats::PlaneCoord::Missing).
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
    /// `core::arch` intrinsics: AVX2 on `x86_64` (4 × `i64` lanes), NEON on
    /// `aarch64` (2 × `i64` lanes). Supported only where runtime detection
    /// finds the feature.
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
        std::arch::is_x86_feature_detected!("avx2")
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
/// of canonical coordinates, producing **plane-slab indices**
/// (`y · width + x`) with [`MISS`] marking dropped transfers. `out` is
/// resized to `canon.len()` and every element overwritten (stale
/// contents of a reused arena are never read).
///
/// Indices rather than `(x, y)` pairs because the consumer is the
/// cache-blocked DSI vote deposit, which adds a unit at `slab[idx]`; the
/// multiply by `width` vectorizes here, the deposit does not (no scatter
/// on AVX2 worth its latency for `u16` lanes).
///
/// `width · height` must not exceed `u32::MAX` (debug-asserted) so every
/// in-sensor index stays below the [`MISS`] sentinel; callers pass
/// sensor/DSI dimensions, far inside the bound.
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
        "slab index would collide with the MISS sentinel"
    );
    // Size, then write by index: every tier overwrites all `canon.len()`
    // slots, so a reused arena is never refilled (only slots past its old
    // length are initialised) and the hot per-plane loop never pays a
    // `push` capacity check.
    out.resize(canon.len(), MISS);
    let dst = out.as_mut_slice();
    match tier {
        Dispatch::Scalar => {
            for (d, &c) in dst.iter_mut().zip(canon) {
                *d = scalar_transfer_index(phi, c, width, height);
            }
        }
        Dispatch::Simd => simd::transfer(phi, canon, width, height, dst),
    }
}

/// One scalar transfer producing a slab index — the definition the wide
/// tiers must match. Identical to
/// [`transfer_nearest`](super::transfer_nearest) + `address()` for the
/// in-contract `width, height ≤ 256` domain (the `u8` narrowing there is
/// lossless inside the judgement).
#[inline]
fn scalar_transfer_index(phi: &PhiWords, c: PackedCoord, width: u32, height: u32) -> u32 {
    let xi = super::round_acc(super::plane_mac(phi.scale, phi.offset_x, c.x.raw()));
    let yi = super::round_acc(super::plane_mac(phi.scale, phi.offset_y, c.y.raw()));
    if xi >= 0 && yi >= 0 && xi < width as i64 && yi < height as i64 {
        yi as u32 * width + xi as u32
    } else {
        MISS
    }
}

// ---------------------------------------------------------------------------
// SIMD tier — AVX2 (x86_64)
// ---------------------------------------------------------------------------

/// AVX2: four `i64` lanes per operation. Products come from
/// `_mm256_mul_epi32` (signed 32×32→64 on the low halves — exact, both
/// operands are sign-extended 32-bit values); the ties-away rounding is
/// the branchless sign/magnitude form per lane (`_mm256_srli_epi64` on the
/// non-negative magnitude equals the arithmetic shift); the in-sensor
/// judgement is two signed 64-bit compares per axis blended against the
/// [`MISS`] sentinel. Remainders shorter than four lanes run the scalar
/// definitions, which the proptests pin as bit-identical.
///
/// Safety: every `#[target_feature(enable = "avx2")]` function is reached
/// only through a wrapper that asserts `is_x86_feature_detected!("avx2")`
/// (dispatch refuses the tier otherwise, but the assertion keeps the
/// module locally sound).
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::*;
    use std::arch::x86_64::*;

    #[inline]
    fn assert_avx2() {
        assert!(
            std::arch::is_x86_feature_detected!("avx2"),
            "SIMD dispatch tier reached without AVX2 support"
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

    /// Branchless ties-away-from-zero rounding, four lanes at once.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn round4(acc: __m256i, half: __m256i, zero: __m256i) -> __m256i {
        let sign = _mm256_cmpgt_epi64(zero, acc);
        let mag = _mm256_sub_epi64(_mm256_xor_si256(acc, sign), sign);
        let r = _mm256_srli_epi64::<{ ACC_FRAC as i32 }>(_mm256_add_epi64(mag, half));
        _mm256_sub_epi64(_mm256_xor_si256(r, sign), sign)
    }

    /// All-ones per 64-bit lane where `0 <= v < bound`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn in_range4(v: __m256i, bound: __m256i, minus_one: __m256i) -> __m256i {
        _mm256_and_si256(
            _mm256_cmpgt_epi64(bound, v),
            _mm256_cmpgt_epi64(v, minus_one),
        )
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store4(v: __m256i) -> [i64; 4] {
        let mut lanes = [0i64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, v);
        lanes
    }

    pub(super) fn transfer(
        phi: &PhiWords,
        canon: &[PackedCoord],
        width: u32,
        height: u32,
        out: &mut [u32],
    ) {
        assert_avx2();
        unsafe { transfer_avx2(phi, canon, width, height, out) }
    }

    /// Eight transfers per iteration. One unaligned 256-bit load covers
    /// eight `PackedCoord`s (`repr(C)` pairs of `i16`, x in the low half of
    /// each 32-bit lane on little-endian — the `to_word` layout);
    /// `_mm256_mul_epi32` reads the low 32 bits of each 64-bit lane, so the
    /// even-index coords multiply in place and the odd-index coords after a
    /// 32-bit lane shift, and the two result vectors re-interleave into
    /// input order with a single blend before one 256-bit store.
    #[target_feature(enable = "avx2")]
    unsafe fn transfer_avx2(
        phi: &PhiWords,
        canon: &[PackedCoord],
        width: u32,
        height: u32,
        out: &mut [u32],
    ) {
        debug_assert_eq!(canon.len(), out.len());
        let vscale = _mm256_set1_epi64x(phi.scale as i64);
        let voffx = _mm256_set1_epi64x((phi.offset_x as i64) << 7);
        let voffy = _mm256_set1_epi64x((phi.offset_y as i64) << 7);
        let vhalf = _mm256_set1_epi64x(ACC_HALF);
        let vzero = _mm256_setzero_si256();
        let vneg1 = _mm256_set1_epi64x(-1);
        let vw = _mm256_set1_epi64x(width as i64);
        let vh = _mm256_set1_epi64x(height as i64);
        let vmiss = _mm256_set1_epi64x(MISS as i64);
        let n = canon.len();
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_loadu_si256(canon.as_ptr().add(i) as *const __m256i);
            let x32 = _mm256_srai_epi32::<16>(_mm256_slli_epi32::<16>(v));
            let y32 = _mm256_srai_epi32::<16>(v);
            let xe = _mm256_add_epi64(_mm256_mul_epi32(x32, vscale), voffx);
            let xo = _mm256_add_epi64(
                _mm256_mul_epi32(_mm256_srli_epi64::<32>(x32), vscale),
                voffx,
            );
            let ye = _mm256_add_epi64(_mm256_mul_epi32(y32, vscale), voffy);
            let yo = _mm256_add_epi64(
                _mm256_mul_epi32(_mm256_srli_epi64::<32>(y32), vscale),
                voffy,
            );
            let xie = round4(xe, vhalf, vzero);
            let xio = round4(xo, vhalf, vzero);
            let yie = round4(ye, vhalf, vzero);
            let yio = round4(yo, vhalf, vzero);
            let ine = _mm256_and_si256(in_range4(xie, vw, vneg1), in_range4(yie, vh, vneg1));
            let ino = _mm256_and_si256(in_range4(xio, vw, vneg1), in_range4(yio, vh, vneg1));
            // In valid lanes yi, width < 2^16, so the unsigned low-32
            // product is exact; garbage in masked lanes is blended away.
            let idxe = _mm256_add_epi64(_mm256_mul_epu32(yie, vw), xie);
            let idxo = _mm256_add_epi64(_mm256_mul_epu32(yio, vw), xio);
            let sele = _mm256_blendv_epi8(vmiss, idxe, ine);
            let selo = _mm256_blendv_epi8(vmiss, idxo, ino);
            // Every selected value fits `u32`; the odd results shift into
            // the high half of each 64-bit lane and the blend restores the
            // original coordinate order as eight packed `u32`s.
            let packed = _mm256_blend_epi32::<0b10101010>(sele, _mm256_slli_epi64::<32>(selo));
            _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut __m256i, packed);
            i += 8;
        }
        for k in i..n {
            out[k] = scalar_transfer_index(phi, canon[k], width, height);
        }
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
/// widening `vmull_s32` is the exact 32×32→64 product; rounding and
/// judgement mirror the AVX2 lane algebra). The projection runs the scalar
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

    /// Branchless ties-away-from-zero rounding, two lanes at once.
    #[inline]
    #[target_feature(enable = "neon")]
    unsafe fn round2(acc: int64x2_t, half: int64x2_t) -> int64x2_t {
        let sign = vshrq_n_s64::<63>(acc);
        let mag = vsubq_s64(veorq_s64(acc, sign), sign);
        let r = vshrq_n_s64::<{ ACC_FRAC as i32 }>(vaddq_s64(mag, half));
        vsubq_s64(veorq_s64(r, sign), sign)
    }

    pub(super) fn transfer(
        phi: &PhiWords,
        canon: &[PackedCoord],
        width: u32,
        height: u32,
        out: &mut [u32],
    ) {
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
    ) {
        debug_assert_eq!(canon.len(), out.len());
        let scale2 = vdup_n_s32(phi.scale);
        let voffx = vdupq_n_s64((phi.offset_x as i64) << 7);
        let voffy = vdupq_n_s64((phi.offset_y as i64) << 7);
        let vhalf = vdupq_n_s64(ACC_HALF);
        let (w, h) = (width as u64, height as u64);
        let n = canon.len();
        let mut i = 0;
        while i + 2 <= n {
            let two = &canon[i..i + 2];
            let xs = [two[0].x.raw() as i32, two[1].x.raw() as i32];
            let ys = [two[0].y.raw() as i32, two[1].y.raw() as i32];
            let accx = vaddq_s64(vmull_s32(vld1_s32(xs.as_ptr()), scale2), voffx);
            let accy = vaddq_s64(vmull_s32(vld1_s32(ys.as_ptr()), scale2), voffy);
            let xi = round2(accx, vhalf);
            let yi = round2(accy, vhalf);
            for k in 0..2 {
                let (x, y) = match k {
                    0 => (vgetq_lane_s64::<0>(xi), vgetq_lane_s64::<0>(yi)),
                    _ => (vgetq_lane_s64::<1>(xi), vgetq_lane_s64::<1>(yi)),
                };
                out[i + k] = if (x as u64) < w && (y as u64) < h {
                    y as u32 * width + x as u32
                } else {
                    MISS
                };
            }
            i += 2;
        }
        for k in i..n {
            out[k] = scalar_transfer_index(phi, canon[k], width, height);
        }
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

    pub(super) fn transfer(_: &PhiWords, _: &[PackedCoord], _: u32, _: u32, _: &mut [u32]) {
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

    #[test]
    fn every_tier_matches_scalar_on_directed_cases() {
        // Exact ties (±half), judgement edges, saturated words, remainders
        // of every length 0..=9 against 4-lane AVX2 / 2-lane NEON packing.
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
        // rounds away to −1 (MISS) where half-up would give slab 1. From
        // n = 8 on it runs through the 8-lane AVX2 body.
        assert_eq!(
            scalar_transfer_index(&phi_cases[0], pool[1], 240, 180),
            MISS
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
                    let expect: Vec<u32> = batch
                        .iter()
                        .map(|&c| scalar_transfer_index(phi, c, 240, 180))
                        .collect();
                    assert_eq!(idx, expect, "tier {} n {}", tier.name(), n);

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
    fn a_reused_arena_matches_scalar_as_blocks_shrink_and_grow() {
        // One arena over blocks of length 9, 3 and 17: a resize keeps the
        // previous block's indices, so every tier must overwrite each slot.
        let pool: Vec<PackedCoord> = (0..17i16)
            .map(|i| PackedCoord {
                x: Q9p7::from_raw(i * 1931 - 16000),
                y: Q9p7::from_raw(12000 - i * 1499),
            })
            .collect();
        let phi = PhiWords::from_f64(0.8371, 120.0, 90.0);
        for tier in supported_tiers() {
            let mut idx = Vec::new();
            for n in [9, 3, 17] {
                let block = &pool[pool.len() - n..];
                transfer_nearest_batch_with(tier, &phi, block, 240, 180, &mut idx);
                let expect: Vec<u32> = block
                    .iter()
                    .map(|&c| scalar_transfer_index(&phi, c, 240, 180))
                    .collect();
                assert!(expect.iter().any(|&i| i != MISS), "n {n}");
                assert_eq!(idx, expect, "tier {} n {n}", tier.name());
            }
        }
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
        /// Batched transfer is byte-identical to the scalar kernel on every
        /// supported tier, for arbitrary raw words, arbitrary batch sizes
        /// (0, 1, lane remainders) and arbitrary sensor judgement bounds.
        #[test]
        fn transfer_batch_is_bit_identical_on_every_tier(
            scale in i32::MIN..i32::MAX,
            offset_x in i32::MIN..i32::MAX,
            offset_y in i32::MIN..i32::MAX,
            raws in collection::vec((RAW16, RAW16), 0..19),
            width in 1u32..512,
            height in 1u32..512,
        ) {
            let phi = PhiWords { scale, offset_x, offset_y };
            let canon = coords_from_raw(&raws);
            let expect: Vec<u32> = canon
                .iter()
                .map(|&c| scalar_transfer_index(&phi, c, width, height))
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
