//! **Batched, vectorized faces of the bit-true kernel** with runtime
//! dispatch — lane-parallel integer MACs over pixels and planes.
//!
//! The scalar functions in [`kernel`](super) process one pixel and one
//! plane at a time. The voting engine streams thousands of events through
//! ~100 planes per frame, which is a data-parallel shape: the same
//! Q11.21×Q9.7 MAC applied independently per lane. This module provides
//! the batched faces it calls — the `PE_Z0` projection
//! ([`project_z0_batch`]), the `PE_Zi` per-plane transfer
//! ([`transfer_nearest_batch`]) and that transfer fused with the Vote
//! Execute Unit's deposit into a `u16` plane slab ([`vote_nearest_u16`]) —
//! and the face structure detection retires a `u16` DSI with
//! ([`depth_collapse_u16`]: per pixel, the peak score along depth, its
//! first plane and the exact score sum), each executed by one of two
//! **dispatch tiers**:
//!
//! | tier       | name reported        | mechanism |
//! |------------|----------------------|-----------|
//! | `Simd`     | `avx2` / `neon`      | `core::arch` intrinsics, runtime-detected: AVX2 runs eight transfers an iteration in two 4 × `i64` halves and compacts them with one permutation, and compiles the depth collapse for eight `i32` lanes a register; NEON runs the transfer MACs two `i64` lanes at a time |
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
//! in-sensor judgement ([`super::transfer_nearest`]), the same first
//! maximum and exact integer sum of a depth collapse. This is the
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
    let hits = transfer(tier, phi, canon, width, height, out);
    out.truncate(hits);
}

/// The compacting transfer on `tier` into `out` (as long as `canon`):
/// leaves the in-sensor slab indices in `out[..hits]`, in input order, and
/// returns `hits`.
#[inline]
fn transfer(
    tier: Dispatch,
    phi: &PhiWords,
    canon: &[PackedCoord],
    width: u32,
    height: u32,
    out: &mut [u32],
) -> usize {
    match tier {
        Dispatch::Scalar => canon
            .iter()
            .fold(0, |len, &c| append(phi, c, width, height, out, len)),
        Dispatch::Simd => simd::transfer(phi, canon, width, height, out),
    }
}

/// Coordinates [`vote_nearest_u16`] transfers per block: the block's slab
/// indices (2 KiB) stay in L1 beside its coordinates while the deposit
/// reads them back.
const VOTE_BLOCK: usize = 512;

/// The fused `PE_Zi` → Nearest Voxel Finder → Vote Execute face of one
/// depth plane: transfers every canonical coordinate of `canon` exactly as
/// [`transfer_nearest_batch`] does and adds a saturating unit vote to the
/// `width × height` plane slab `slab` at each in-sensor index, in input
/// order. Returns the number of votes cast, the in-sensor transfers.
///
/// The result is bit-identical to the scalar definition:
/// [`transfer_nearest`](super::transfer_nearest) per coordinate, then
/// `slab[y · width + x]` raised by one, saturating at `u16::MAX`, for each
/// in-sensor address.
///
/// The deposit indexes the slab without a bounds check. That is sound
/// because the indices are the face's own: each comes from the in-sensor
/// judgement (`x < width`, `y < height`) of a transfer made here, so it is
/// below `width · height`, which is `slab.len()`. A caller cannot hand the
/// deposit an index of its own, which is why the transfer and the deposit
/// are one face. Coordinates stream through in blocks of 512 whose
/// indices stay L1-resident.
///
/// # Panics
///
/// When `slab.len()` is not `width · height`, or `width · height` exceeds
/// `u32::MAX`. Both are checked once, before any write.
pub fn vote_nearest_u16(
    phi: &PhiWords,
    canon: &[PackedCoord],
    width: u32,
    height: u32,
    slab: &mut [u16],
) -> usize {
    vote_nearest_u16_with(active(), phi, canon, width, height, slab)
}

/// [`vote_nearest_u16`] with an explicit tier (panics if unsupported).
pub fn vote_nearest_u16_with(
    tier: Dispatch,
    phi: &PhiWords,
    canon: &[PackedCoord],
    width: u32,
    height: u32,
    slab: &mut [u16],
) -> usize {
    assert_supported(tier);
    let voxels = u64::from(width) * u64::from(height);
    assert!(
        voxels <= u64::from(u32::MAX) && slab.len() as u64 == voxels,
        "a {width}×{height} plane slab holds {voxels} voxels, not {}",
        slab.len()
    );
    let mut idx = [0u32; VOTE_BLOCK];
    let mut cast = 0;
    for block in canon.chunks(VOTE_BLOCK) {
        let idx = &mut idx[..block.len()];
        let hits = transfer(tier, phi, block, width, height, idx);
        for &i in &idx[..hits] {
            // SAFETY: `i` is `y · width + x` of a transfer `transfer` judged
            // in the sensor, so `x < width` and `y < height`, and `i` is
            // below `width · height`. That product fits a `u32` (no index
            // wrapped) and equals `slab.len()`, both asserted above.
            let voxel = unsafe { slab.get_unchecked_mut(i as usize) };
            *voxel = voxel.saturating_add(1);
        }
        cast += hits;
    }
    cast
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

/// The largest plane count [`depth_collapse_u16`] takes: its per-pixel sums
/// are `u32`, and `65 537 × u16::MAX` is exactly `u32::MAX`.
pub const DEPTH_COLLAPSE_MAX_PLANES: usize = 65_537;

/// Pixels a tile of [`depth_collapse_u16`] reduces at once: its three
/// `i32` accumulator arrays (12 KiB) stay in L1 while the tile's run of
/// every plane streams through them.
const COLLAPSE_TILE: usize = 1024;

/// One pixel's column of `u16` scores collapsed along depth: what
/// structure detection reads of a DSI before it thresholds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct DepthPeak {
    /// The largest score along depth.
    pub peak: u16,
    /// The first plane, in plane order, whose score is `peak`.
    pub plane: u32,
    /// The exact sum of the pixel's scores.
    pub sum: u32,
}

/// Batched depth collapse of a plane-major `u16` score array (one run of
/// `pixels` scores per plane, the DSI layout): `out` is cleared and refilled
/// with one [`DepthPeak`] per pixel — the peak score, the first plane that
/// reaches it (a later plane must score strictly higher to win) and the
/// exact integer sum.
///
/// The array is walked once, plane-major, in tiles of pixels whose
/// accumulators stay in L1. Every tier folds each pixel's planes in plane
/// order with integer arithmetic, so the output does not depend on the
/// tier. An all-zero column collapses to peak 0 at plane 0.
///
/// # Panics
///
/// When `scores` is not a whole number of `pixels`-long planes, or holds
/// more than [`DEPTH_COLLAPSE_MAX_PLANES`] of them.
pub fn depth_collapse_u16(scores: &[u16], pixels: usize, out: &mut Vec<DepthPeak>) {
    depth_collapse_u16_with(active(), scores, pixels, out);
}

/// [`depth_collapse_u16`] with an explicit tier (panics if unsupported).
pub fn depth_collapse_u16_with(
    tier: Dispatch,
    scores: &[u16],
    pixels: usize,
    out: &mut Vec<DepthPeak>,
) {
    assert_supported(tier);
    let planes = scores.len().checked_div(pixels).unwrap_or(0);
    assert_eq!(
        scores.len(),
        planes * pixels,
        "score array is not a whole number of {pixels}-pixel planes"
    );
    assert!(
        planes <= DEPTH_COLLAPSE_MAX_PLANES,
        "{planes} planes would overflow a u32 score sum"
    );
    out.clear();
    out.resize(pixels, DepthPeak::default());
    match tier {
        Dispatch::Scalar => collapse(scores, pixels, planes, out),
        Dispatch::Simd => simd::collapse(scores, pixels, planes, out),
    }
}

/// The body of every tier of [`depth_collapse_u16`], inlined into the
/// SIMD tier's `target_feature` function so the compiler vectorizes the
/// same source for wider registers. The accumulators are `i32` lanes: the
/// scores and plane indices fit, a signed compare and maximum vectorize
/// on every x86-64 level, and the sum is a wrapping add whose bits are
/// the `u32` sum's (which cannot overflow below the plane cap).
#[inline(always)]
fn collapse(scores: &[u16], pixels: usize, planes: usize, out: &mut [DepthPeak]) {
    let mut peak = [0i32; COLLAPSE_TILE];
    let mut first = [0i32; COLLAPSE_TILE];
    let mut sum = [0i32; COLLAPSE_TILE];
    for (start, out) in (0..pixels)
        .step_by(COLLAPSE_TILE)
        .zip(out.chunks_mut(COLLAPSE_TILE))
    {
        let n = out.len();
        let (peak, first, sum) = (&mut peak[..n], &mut first[..n], &mut sum[..n]);
        peak.fill(0);
        first.fill(0);
        sum.fill(0);
        let row = |plane: usize| &scores[plane * pixels + start..][..n];
        // Four planes per pass over the accumulators, then the rest one
        // at a time: each pixel still sees its planes in order.
        let mut plane = 0;
        while plane + 4 <= planes {
            let rows = [row(plane), row(plane + 1), row(plane + 2), row(plane + 3)];
            fold_planes(rows, plane, peak, first, sum);
            plane += 4;
        }
        for plane in plane..planes {
            fold_planes([row(plane)], plane, peak, first, sum);
        }
        for (o, ((&m, &f), &s)) in out.iter_mut().zip(peak.iter().zip(&*first).zip(&*sum)) {
            *o = DepthPeak {
                peak: m as u16,
                plane: f as u32,
                sum: s as u32,
            };
        }
    }
}

/// Folds `N` consecutive planes, the first of them `plane`, into a tile's
/// `peak`, `first` and `sum` accumulators, every pixel's planes in order.
#[inline(always)]
fn fold_planes<const N: usize>(
    rows: [&[u16]; N],
    plane: usize,
    peak: &mut [i32],
    first: &mut [i32],
    sum: &mut [i32],
) {
    // Equal lengths, visible to the optimizer: no bounds check in the loop.
    let n = peak.len();
    let (first, sum, rows) = (&mut first[..n], &mut sum[..n], rows.map(|row| &row[..n]));
    for i in 0..n {
        let (mut m, mut f, mut s) = (peak[i], first[i], sum[i]);
        for (k, row) in rows.iter().enumerate() {
            let x = i32::from(row[i]);
            f = if x > m { (plane + k) as i32 } else { f };
            m = m.max(x);
            s = s.wrapping_add(x);
        }
        (peak[i], first[i], sum[i]) = (m, f, s);
    }
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

    pub(super) fn collapse(scores: &[u16], pixels: usize, planes: usize, out: &mut [DepthPeak]) {
        assert_avx2();
        // SAFETY: the assertion above found AVX2 on this CPU, the one
        // requirement of `collapse_avx2`.
        unsafe { collapse_avx2(scores, pixels, planes, out) }
    }

    /// The shared [`super::collapse`] body compiled for AVX2: the
    /// compiler runs its `i32` accumulators eight lanes to a register
    /// (`vpmovzxwd`, `vpcmpgtd`, `vpblendvb`, `vpmaxsd`, `vpaddd`).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn collapse_avx2(scores: &[u16], pixels: usize, planes: usize, out: &mut [DepthPeak]) {
        super::collapse(scores, pixels, planes, out)
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

    /// The scalar body: NEON is part of every `aarch64` target's baseline,
    /// so the compiler already vectorizes it.
    pub(super) fn collapse(scores: &[u16], pixels: usize, planes: usize, out: &mut [DepthPeak]) {
        super::collapse(scores, pixels, planes, out)
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

    pub(super) fn collapse(_: &[u16], _: usize, _: usize, _: &mut [DepthPeak]) {
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

    /// The definition every tier of the fused vote is held to:
    /// `kernel::transfer_nearest` per coordinate, then a saturating unit
    /// add at each in-sensor address of a plain slice. Returns the votes.
    pub(super) fn vote_reference(
        phi: &PhiWords,
        canon: &[PackedCoord],
        width: u32,
        height: u32,
        slab: &mut [u16],
    ) -> usize {
        let mut cast = 0;
        for &c in canon {
            if let Some((x, y)) = super::super::transfer_nearest(phi, c, width, height).address() {
                let voxel = &mut slab[y as usize * width as usize + x as usize];
                *voxel = voxel.saturating_add(1);
                cast += 1;
            }
        }
        cast
    }

    #[test]
    fn fused_vote_reaches_the_last_voxel_and_saturates() {
        // φ = (1, 0, 0) on a 24 × 18 slab: (23, 17) is the last voxel, one
        // pixel further misses on either axis, and (4, 2) starts one vote
        // below u16::MAX. 1100 coordinates cross two 512-coordinate blocks.
        let phi = PhiWords::from_f64(1.0, 0.0, 0.0);
        let (width, height) = (24, 18);
        let canon: Vec<PackedCoord> = (0..1100)
            .map(|i| match i % 4 {
                0 => pixel(23.0, 17.0),
                1 => pixel(4.0, 2.0),
                2 => pixel(24.0, 17.0),
                _ => pixel(23.0, 18.0),
            })
            .collect();
        for tier in supported_tiers() {
            let mut slab = vec![0u16; width * height];
            slab[2 * width + 4] = u16::MAX - 1;
            let mut expect = slab.clone();
            let cast = vote_nearest_u16_with(tier, &phi, &canon, 24, 18, &mut slab);
            assert_eq!(cast, 550, "tier {}", tier.name());
            assert_eq!(
                cast,
                vote_reference(&phi, &canon, 24, 18, &mut expect),
                "tier {}",
                tier.name()
            );
            assert_eq!(slab, expect, "tier {}", tier.name());
            assert_eq!(slab[width * height - 1], 275);
            assert_eq!(slab[2 * width + 4], u16::MAX);
            assert_eq!(
                slab.iter().map(|&v| u64::from(v)).sum::<u64>(),
                275 + 65_535
            );
        }
    }

    #[test]
    fn fused_vote_on_an_empty_block_writes_nothing() {
        let phi = PhiWords::from_f64(1.0, 0.0, 0.0);
        for tier in supported_tiers() {
            let mut slab = vec![3u16; 6];
            assert_eq!(vote_nearest_u16_with(tier, &phi, &[], 3, 2, &mut slab), 0);
            // Every transfer misses: nothing is written either.
            let off = [pixel(-1.0, 0.0), pixel(3.0, 0.0), pixel(0.0, 2.0)];
            assert_eq!(vote_nearest_u16_with(tier, &phi, &off, 3, 2, &mut slab), 0);
            assert_eq!(slab, [3; 6]);
        }
    }

    #[test]
    fn fused_vote_refuses_a_wrong_sized_slab_before_any_write() {
        // (5, 5) is voxel 125 of a 24 × 18 slab, inside every slab tried.
        let phi = PhiWords::from_f64(1.0, 0.0, 0.0);
        let canon = [pixel(5.0, 5.0); 9];
        for tier in supported_tiers() {
            for len in [24 * 18 - 1, 24 * 18 + 1, 1000] {
                let mut slab = vec![7u16; len];
                let vote = std::panic::AssertUnwindSafe(|| {
                    vote_nearest_u16_with(tier, &phi, &canon, 24, 18, &mut slab)
                });
                assert!(std::panic::catch_unwind(vote).is_err(), "length {len}");
                assert!(slab.iter().all(|&v| v == 7), "length {len}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "plane slab holds")]
    fn fused_vote_refuses_a_slab_past_the_u32_index_range() {
        // 2^16 × 2^16 voxels would wrap a u32 index; the check precedes
        // any use of the (empty) slab.
        let phi = PhiWords::from_f64(1.0, 0.0, 0.0);
        vote_nearest_u16_with(Dispatch::Scalar, &phi, &[], 1 << 16, 1 << 16, &mut []);
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

    /// The definition every tier of the depth collapse is held to: each
    /// pixel's planes walked in order, the strict `>` keeping the first
    /// maximum, the sum in `u64`.
    pub(super) fn collapse_reference(scores: &[u16], pixels: usize) -> Vec<DepthPeak> {
        (0..pixels)
            .map(|px| {
                let column = scores.iter().skip(px).step_by(pixels);
                let (mut peak, mut plane, mut sum) = (0u16, 0u32, 0u64);
                for (p, &s) in column.enumerate() {
                    if s > peak {
                        (peak, plane) = (s, p as u32);
                    }
                    sum += u64::from(s);
                }
                DepthPeak {
                    peak,
                    plane,
                    sum: u32::try_from(sum).expect("sum within the plane cap"),
                }
            })
            .collect()
    }

    #[test]
    fn depth_collapse_matches_the_definition_on_directed_cases() {
        // Ties (the first plane wins), all-zero columns, u16::MAX columns,
        // and pixel counts around the 8-lane width and the 1024-pixel tile.
        for tier in supported_tiers() {
            let mut out = Vec::new();
            for pixels in [1, 7, 8, 9, 1023, 1024, 1025, 2050] {
                for planes in [2, 3, 4, 5, 9] {
                    let scores: Vec<u16> = (0..pixels * planes)
                        .map(|i| match (i / pixels + i % pixels) % 5 {
                            0 => u16::MAX,
                            1 | 2 => 3,
                            _ => (i % 3) as u16,
                        })
                        .collect();
                    depth_collapse_u16_with(tier, &scores, pixels, &mut out);
                    assert_eq!(
                        out,
                        collapse_reference(&scores, pixels),
                        "tier {} pixels {pixels} planes {planes}",
                        tier.name()
                    );
                }
            }
            // Two pixels over four planes: pixel 0 reads 1, 7, 3, 7 and
            // pixel 1 reads 0, 0, 7, 7.
            let tied = [1, 0, 7, 0, 3, 7, 7, 7];
            depth_collapse_u16_with(tier, &tied, 2, &mut out);
            assert_eq!(
                out,
                [
                    DepthPeak {
                        peak: 7,
                        plane: 1,
                        sum: 18
                    },
                    DepthPeak {
                        peak: 7,
                        plane: 2,
                        sum: 14
                    },
                ]
            );
            depth_collapse_u16_with(tier, &[0; 12], 3, &mut out);
            assert_eq!(out, [DepthPeak::default(); 3]);
            depth_collapse_u16_with(tier, &[], 0, &mut out);
            assert!(out.is_empty());
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn depth_collapse_sums_reach_u32_max_at_the_plane_cap() {
        let scores = vec![u16::MAX; DEPTH_COLLAPSE_MAX_PLANES];
        for tier in supported_tiers() {
            let mut out = Vec::new();
            depth_collapse_u16_with(tier, &scores, 1, &mut out);
            assert_eq!(
                out,
                [DepthPeak {
                    peak: u16::MAX,
                    plane: 0,
                    sum: u32::MAX
                }]
            );
        }
    }

    #[test]
    #[should_panic(expected = "overflow a u32 score sum")]
    fn depth_collapse_refuses_more_planes_than_a_u32_sum_holds() {
        let scores = vec![0u16; DEPTH_COLLAPSE_MAX_PLANES + 1];
        depth_collapse_u16_with(Dispatch::Scalar, &scores, 1, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn depth_collapse_refuses_a_partial_plane() {
        depth_collapse_u16_with(Dispatch::Scalar, &[0; 7], 2, &mut Vec::new());
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

        /// The fused vote leaves exactly the slab and the vote count of the
        /// scalar definition on every tier: near-identity `φ` words over
        /// coordinates around the slab (most transfers hit, many voxels
        /// repeat), slab sides of 1–256, batches across the 512-coordinate
        /// block and voxels preset at or near `u16::MAX`.
        #[test]
        fn fused_vote_is_bit_identical_on_every_tier(
            scale in (7i32 << 18)..(9i32 << 18),
            offset_x in -(3i32 << 21)..(3i32 << 21),
            offset_y in -(3i32 << 21)..(3i32 << 21),
            raws in collection::vec((-512i32..33_280, -512i32..33_280), 0..1300),
            width in 1u32..257,
            height in 1u32..257,
            preset in 0u32..3,
        ) {
            let phi = PhiWords { scale, offset_x, offset_y };
            // Fold the coordinates into the slab's neighbourhood.
            let canon: Vec<PackedCoord> = raws
                .iter()
                .map(|&(x, y)| PackedCoord {
                    x: Q9p7::from_raw((x % ((width as i32 + 2) << 7) - 256) as i16),
                    y: Q9p7::from_raw((y % ((height as i32 + 2) << 7) - 256) as i16),
                })
                .collect();
            let start: Vec<u16> = (0..width * height)
                .map(|i| match preset {
                    0 => 0,
                    1 => u16::MAX - (i % 3) as u16,
                    _ => [0, 7, u16::MAX - 1][(i % 3) as usize],
                })
                .collect();
            let mut expect = start.clone();
            let cast = super::tests::vote_reference(&phi, &canon, width, height, &mut expect);
            for tier in supported_tiers() {
                let mut slab = start.clone();
                let got = vote_nearest_u16_with(tier, &phi, &canon, width, height, &mut slab);
                prop_assert_eq!(got, cast, "tier {}", tier.name());
                prop_assert_eq!(&slab, &expect, "tier {}", tier.name());
            }
            let mut slab = start;
            prop_assert_eq!(vote_nearest_u16(&phi, &canon, width, height, &mut slab), cast);
            prop_assert_eq!(slab, expect);
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

        /// The depth collapse equals the in-order walk on every tier, for
        /// pixel counts off the lane width and across tile boundaries,
        /// 2–60 planes, dense ties and `u16::MAX` scores.
        #[test]
        fn depth_collapse_is_bit_identical_on_every_tier(
            pixels in 1usize..1300,
            planes in 2usize..61,
            seed in 0u64..u64::MAX,
            alphabet in 0u8..3,
        ) {
            let mut state = seed | 1;
            let scores: Vec<u16> = (0..pixels * planes)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let r = (state >> 16) as u16;
                    match alphabet {
                        0 => r % 4,
                        1 => [0, u16::MAX - 1, u16::MAX][usize::from(r % 3)],
                        _ => r,
                    }
                })
                .collect();
            let expect = super::tests::collapse_reference(&scores, pixels);
            let mut out = Vec::new();
            for tier in supported_tiers() {
                depth_collapse_u16_with(tier, &scores, pixels, &mut out);
                prop_assert_eq!(&out, &expect, "tier {}", tier.name());
            }
            depth_collapse_u16(&scores, pixels, &mut out);
            prop_assert_eq!(&out, &expect);
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
