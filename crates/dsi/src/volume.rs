//! The disparity space image (DSI): a `w × h × N_z` voxel grid of ray-count
//! scores attached to a virtual camera view.

use crate::planes::DepthPlanes;
use crate::DsiError;
use eventor_fixed::kernel::batch;
use eventor_fixed::kernel::PhiWords;
use eventor_fixed::PackedCoord;
use std::ops::Range;

/// Reusable scratch for [`PlaneRange::vote_batch`]: the slab-index buffer
/// the batched transfer fills with one block's in-sensor indices and the
/// vote deposit reads whole.
///
/// Owning the buffer outside the volume lets the voting engine carry one
/// arena per plane range across every vote pass instead of reallocating per
/// call; a fresh (empty) arena is always valid input. Its capacity stays
/// at one block of coordinates (`VOTE_BLOCK`, 8 KiB), whatever it held.
#[derive(Debug, Default)]
pub struct VoteArena {
    idx: Vec<u32>,
}

impl VoteArena {
    /// An empty arena; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Canonical-coordinate block length of the cache-blocked vote loop: the
/// block (4 B/coord) plus its index buffer (4 B/entry) stay L1-resident
/// (16 KiB at 2048) while one plane slab (`width · height` scores, ~84 KiB
/// for a 240×180 `u16` DSI) is the write set of every frame of a window.
const VOTE_BLOCK: usize = 2048;

/// Score storage of a DSI voxel.
///
/// The baseline EMVS uses `f32` scores (bilinear voting deposits fractional
/// weights); the Eventor accelerator uses 16-bit integer scores (nearest
/// voting deposits unit votes, Table 1). The trait is sealed to these two
/// types so the two datapaths stay comparable.
pub trait VoxelScore:
    Copy + Default + PartialOrd + private::Sealed + std::fmt::Debug + Send
{
    /// Adds a vote of the given weight (implementations may round or
    /// saturate).
    fn add_vote(&mut self, weight: f64);
    /// The score as `f64` for detection and comparison.
    fn as_f64(self) -> f64;
    /// Accumulates another score of the same type — the merge behind
    /// [`DsiVolume::merge_from`]. Integer scores saturate exactly like
    /// repeated unit votes would; float scores add.
    fn merge(&mut self, other: Self);
    /// Adds one unit vote — exactly equivalent to `add_vote(1.0)`, without
    /// the weight-rounding work. [`PlaneRange::vote_batch`] uses this in its
    /// inner loop.
    #[inline]
    fn add_unit(&mut self) {
        self.add_vote(1.0);
    }
    /// Bytes one score occupies in the serialized vote state
    /// ([`DsiVolume::encode_vote_state`]).
    const ENCODED_BYTES: usize;
    /// Appends the score's little-endian bit pattern to `out` — bit-exact,
    /// so a decoded score is byte-identical to the encoded one.
    fn write_le(self, out: &mut Vec<u8>);
    /// Decodes one score from its little-endian bit pattern.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is shorter than [`Self::ENCODED_BYTES`] (callers
    /// slice exactly).
    fn read_le(bytes: &[u8]) -> Self;
}

mod private {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for u16 {}
}

impl VoxelScore for f32 {
    #[inline]
    fn add_vote(&mut self, weight: f64) {
        *self += weight as f32;
    }
    #[inline]
    fn as_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn merge(&mut self, other: Self) {
        *self += other;
    }
    const ENCODED_BYTES: usize = 4;
    #[inline]
    fn write_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    #[inline]
    fn read_le(bytes: &[u8]) -> Self {
        f32::from_le_bytes(bytes[..4].try_into().expect("4 score bytes"))
    }
}

impl VoxelScore for u16 {
    #[inline]
    fn add_vote(&mut self, weight: f64) {
        // Integer votes with saturation — the quantized DSI of Table 1.
        let inc = weight.round().max(0.0) as u32;
        *self = (*self as u32).saturating_add(inc).min(u16::MAX as u32) as u16;
    }
    #[inline]
    fn as_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn merge(&mut self, other: Self) {
        // Saturating accumulation: merging partial counts is exact with
        // respect to sequential unit voting because min(Σ min(cᵢ, MAX), MAX)
        // equals min(Σ cᵢ, MAX) for non-negative counts.
        *self = (*self).saturating_add(other);
    }
    #[inline]
    fn add_unit(&mut self) {
        // Identical to `add_vote(1.0)` (the weight 1.0 rounds to the integer
        // increment 1), skipping the float rounding.
        *self = (*self).saturating_add(1);
    }
    const ENCODED_BYTES: usize = 2;
    #[inline]
    fn write_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    #[inline]
    fn read_le(bytes: &[u8]) -> Self {
        u16::from_le_bytes(bytes[..2].try_into().expect("2 score bytes"))
    }
}

/// A disparity space image: per-voxel ray-count scores for a virtual camera
/// of `width × height` pixels and [`DepthPlanes::len`] depth slices.
///
/// Voxels are stored plane-major (`[plane][row][col]`): the vote stage writes
/// one plane at a time, and the detection stage strides across planes per
/// pixel.
///
/// # Examples
///
/// ```
/// use eventor_dsi::{DepthPlanes, DsiVolume};
/// let planes = DepthPlanes::uniform_inverse_depth(1.0, 4.0, 8)?;
/// let mut dsi: DsiVolume<f32> = DsiVolume::new(32, 24, planes)?;
/// dsi.vote_nearest(10.2, 5.7, 3, 1.0);
/// assert_eq!(dsi.score(10, 6, 3), 1.0);
/// # Ok::<(), eventor_dsi::DsiError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DsiVolume<S: VoxelScore> {
    width: usize,
    height: usize,
    planes: DepthPlanes,
    data: Vec<S>,
    votes_cast: u64,
    votes_missed: u64,
}

impl<S: VoxelScore> DsiVolume<S> {
    /// Creates a zero-initialised DSI.
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::EmptyVolume`] when `width` or `height` is zero.
    pub fn new(width: usize, height: usize, planes: DepthPlanes) -> Result<Self, DsiError> {
        if width == 0 || height == 0 {
            return Err(DsiError::EmptyVolume { width, height });
        }
        let len = width * height * planes.len();
        Ok(Self {
            width,
            height,
            planes,
            data: vec![S::default(); len],
            votes_cast: 0,
            votes_missed: 0,
        })
    }

    /// Builds a DSI from an existing score array in `(plane, row, column)`
    /// order — the readback path from an accelerator that keeps the DSI in
    /// external memory.
    ///
    /// `votes_cast` records how many votes the producer applied, so the
    /// volume's counters stay meaningful.
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::EmptyVolume`] when `width` or `height` is zero and
    /// [`DsiError::DimensionMismatch`] when the score array does not hold
    /// exactly `width * height * planes.len()` entries.
    pub fn from_scores(
        width: usize,
        height: usize,
        planes: DepthPlanes,
        scores: Vec<S>,
        votes_cast: u64,
    ) -> Result<Self, DsiError> {
        if width == 0 || height == 0 {
            return Err(DsiError::EmptyVolume { width, height });
        }
        let expected = width * height * planes.len();
        if scores.len() != expected {
            return Err(DsiError::DimensionMismatch {
                expected,
                actual: scores.len(),
            });
        }
        Ok(Self {
            width,
            height,
            planes,
            data: scores,
            votes_cast,
            votes_missed: 0,
        })
    }

    /// Serializes the volume's mutable vote state — the two vote counters
    /// followed by the raw score array in plane-major order, all
    /// little-endian — for the `eventor-evtr/1` `CKPT` checkpoint section.
    ///
    /// The encoding is deterministic and bit-exact: identical volumes produce
    /// identical bytes on every platform, and
    /// [`Self::decode_vote_state`] rebuilds a volume that compares equal
    /// (score bit patterns included).
    pub fn encode_vote_state(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.data.len() * S::ENCODED_BYTES);
        out.extend_from_slice(&self.votes_cast.to_le_bytes());
        out.extend_from_slice(&self.votes_missed.to_le_bytes());
        for &s in &self.data {
            s.write_le(&mut out);
        }
        out
    }

    /// Rebuilds a volume from [`Self::encode_vote_state`] bytes for the given
    /// geometry.
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::EmptyVolume`] for zero dimensions and
    /// [`DsiError::InvalidVoteState`] when the byte length does not match the
    /// geometry exactly.
    pub fn decode_vote_state(
        width: usize,
        height: usize,
        planes: DepthPlanes,
        bytes: &[u8],
    ) -> Result<Self, DsiError> {
        if width == 0 || height == 0 {
            return Err(DsiError::EmptyVolume { width, height });
        }
        // Checked arithmetic: the dimensions may come from an untrusted
        // checkpoint container, and a forged width/height pair must be a
        // typed error rather than an overflow.
        let voxels = width
            .checked_mul(height)
            .and_then(|v| v.checked_mul(planes.len()))
            .and_then(|v| v.checked_mul(S::ENCODED_BYTES))
            .and_then(|v| v.checked_add(16));
        let expected = match voxels {
            Some(total_bytes) => total_bytes,
            None => {
                return Err(DsiError::InvalidVoteState {
                    reason: format!(
                        "{width}x{height}x{} volume dimensions overflow the address space",
                        planes.len()
                    ),
                })
            }
        };
        if bytes.len() != expected {
            return Err(DsiError::InvalidVoteState {
                reason: format!(
                    "vote state holds {} bytes but a {width}x{height}x{} volume needs {expected}",
                    bytes.len(),
                    planes.len()
                ),
            });
        }
        let votes_cast = u64::from_le_bytes(bytes[0..8].try_into().expect("8 counter bytes"));
        let votes_missed = u64::from_le_bytes(bytes[8..16].try_into().expect("8 counter bytes"));
        let data: Vec<S> = bytes[16..]
            .chunks_exact(S::ENCODED_BYTES)
            .map(S::read_le)
            .collect();
        Ok(Self {
            width,
            height,
            planes,
            data,
            votes_cast,
            votes_missed,
        })
    }

    /// Image width (voxels per row).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height (voxel rows).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of depth planes.
    pub fn num_planes(&self) -> usize {
        self.planes.len()
    }

    /// The depth planes.
    pub fn planes(&self) -> &DepthPlanes {
        &self.planes
    }

    /// Total number of voxels.
    pub fn voxel_count(&self) -> usize {
        self.data.len()
    }

    /// Memory footprint of the score array in bytes.
    pub fn score_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<S>()
    }

    /// Number of votes deposited since the last reset.
    pub fn votes_cast(&self) -> u64 {
        self.votes_cast
    }

    /// Number of vote attempts that fell outside the volume ("projection
    /// missing" in the paper's terminology).
    pub fn votes_missed(&self) -> u64 {
        self.votes_missed
    }

    #[inline]
    fn index(&self, x: usize, y: usize, plane: usize) -> usize {
        (plane * self.height + y) * self.width + x
    }

    /// The score of voxel `(x, y, plane)`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range.
    #[inline]
    pub fn score(&self, x: usize, y: usize, plane: usize) -> f64 {
        assert!(x < self.width && y < self.height && plane < self.planes.len());
        self.data[self.index(x, y, plane)].as_f64()
    }

    /// The whole raw score array, plane-major then row-major — the exact
    /// layout of the accelerator's DSI region in external memory, so a
    /// checkpointed volume can be imaged back into the device model
    /// verbatim.
    pub fn raw_scores(&self) -> &[S] {
        &self.data
    }

    /// Raw scores of one depth plane, row-major.
    ///
    /// # Panics
    ///
    /// Panics if `plane` is out of range.
    pub fn plane_scores(&self, plane: usize) -> &[S] {
        assert!(plane < self.planes.len());
        let start = plane * self.width * self.height;
        &self.data[start..start + self.width * self.height]
    }

    /// Resets every score to zero (the "Reset DSI" step performed when a new
    /// key frame is selected) and clears the vote counters.
    pub fn reset(&mut self) {
        for v in &mut self.data {
            *v = S::default();
        }
        self.votes_cast = 0;
        self.votes_missed = 0;
    }

    /// Splits the volume into views of `count` contiguous depth-plane ranges
    /// (clamped to `1..=num_planes`), in plane order, each within one plane
    /// of the others' size.
    ///
    /// Each view counts its own votes; fold them back into the volume with
    /// [`Self::add_votes`] once the views are gone.
    ///
    /// # Examples
    ///
    /// ```
    /// use eventor_dsi::{DepthPlanes, DsiVolume};
    /// let planes = DepthPlanes::uniform_inverse_depth(1.0, 4.0, 5)?;
    /// let mut dsi: DsiVolume<f32> = DsiVolume::new(8, 6, planes)?;
    /// let (mut cast, mut missed) = (0, 0);
    /// for mut view in dsi.plane_ranges_mut(2) {
    ///     for plane in view.planes() {
    ///         view.vote_bilinear(3.25, 2.5, plane, 1.0);
    ///     }
    ///     cast += view.votes_cast();
    ///     missed += view.votes_missed();
    /// }
    /// dsi.add_votes(cast, missed);
    /// assert_eq!(dsi.votes_cast(), 5);
    /// # Ok::<(), eventor_dsi::DsiError>(())
    /// ```
    pub fn plane_ranges_mut(
        &mut self,
        count: usize,
    ) -> impl ExactSizeIterator<Item = PlaneRange<'_, S>> {
        let (width, height, planes) = (self.width, self.height, self.planes.len());
        let count = count.clamp(1, planes.max(1));
        let mut rest = self.data.as_mut_slice();
        let mut end = 0;
        (0..count).map(move |i| {
            let len = planes / count + usize::from(i < planes % count);
            let (data, tail) = std::mem::take(&mut rest).split_at_mut(len * width * height);
            rest = tail;
            end += len;
            PlaneRange::new(width, height, end - len..end, data)
        })
    }

    /// Adds the vote counters of [`Self::plane_ranges_mut`] views to the
    /// volume's.
    pub fn add_votes(&mut self, cast: u64, missed: u64) {
        self.votes_cast += cast;
        self.votes_missed += missed;
    }

    /// Runs one vote kernel on a view of the whole volume and keeps its
    /// counts.
    #[inline]
    fn vote_all(&mut self, vote: impl FnOnce(&mut PlaneRange<'_, S>)) {
        let mut view = PlaneRange::new(
            self.width,
            self.height,
            0..self.planes.len(),
            &mut self.data,
        );
        vote(&mut view);
        self.votes_cast += view.votes_cast;
        self.votes_missed += view.votes_missed;
    }

    /// [`PlaneRange::vote_nearest`] on the whole volume.
    #[inline]
    pub fn vote_nearest(&mut self, x: f64, y: f64, plane: usize, weight: f64) {
        self.vote_all(|view| view.vote_nearest(x, y, plane, weight));
    }

    /// [`PlaneRange::vote_bilinear`] on the whole volume.
    pub fn vote_bilinear(&mut self, x: f64, y: f64, plane: usize, weight: f64) {
        self.vote_all(|view| view.vote_bilinear(x, y, plane, weight));
    }

    /// [`PlaneRange::vote_batch`] on the whole volume, for a window of one
    /// frame.
    ///
    /// # Panics
    ///
    /// Panics when `coefficients` holds more entries than the volume has
    /// depth planes.
    pub fn vote_batch(
        &mut self,
        canon: &[PackedCoord],
        coefficients: &[PhiWords],
        arena: &mut VoteArena,
    ) {
        assert!(
            coefficients.len() <= self.planes.len(),
            "more φ coefficient entries than depth planes"
        );
        self.vote_all(|view| view.vote_batch([(canon, coefficients)], arena));
    }

    /// Deposits one unit vote at an exact integer voxel address — the
    /// integer entry point of the quantized nearest datapath, fed directly
    /// by the Nearest Voxel Finder's in-sensor addresses (no `f64` round
    /// trip, no re-rounding).
    ///
    /// The caller has already performed the in-sensor judgement; addresses
    /// outside the volume are counted as missed, like
    /// [`Self::vote_nearest`].
    #[inline]
    pub fn vote_at(&mut self, x: u16, y: u16, plane: usize) {
        if plane >= self.planes.len() || x as usize >= self.width || y as usize >= self.height {
            self.votes_missed += 1;
            return;
        }
        let idx = self.index(x as usize, y as usize, plane);
        self.data[idx].add_unit();
        self.votes_cast += 1;
    }

    /// Deposits one unit vote at an integer voxel address — the
    /// bounds-checked single-vote entry point for producers whose addresses
    /// are already rounded (e.g. a Nearest Voxel Finder that performed the
    /// projection-missing judgement upstream).
    ///
    /// Bit-identical to `vote_nearest(x as f64, y as f64, plane, 1.0)` for
    /// in-range addresses; out-of-range addresses are counted as missed, like
    /// the float entry points do.
    #[inline]
    pub fn vote_unit_at(&mut self, x: u16, y: u16, plane: usize) {
        let (x, y) = (x as usize, y as usize);
        if x >= self.width || y >= self.height || plane >= self.planes.len() {
            self.votes_missed += 1;
            return;
        }
        let idx = self.index(x, y, plane);
        self.data[idx].add_vote(1.0);
        self.votes_cast += 1;
    }

    /// Accumulates another volume of identical dimensions into this one —
    /// how a checkpoint decoder folds a legacy multi-tile vote state into
    /// one volume. Scores merge voxel-wise through [`VoxelScore::merge`];
    /// the vote counters add.
    ///
    /// # Panics
    ///
    /// Panics if the two volumes have different dimensions or plane counts.
    pub fn merge_from(&mut self, other: &Self) {
        assert!(
            self.width == other.width
                && self.height == other.height
                && self.planes.len() == other.planes.len(),
            "cannot merge DSI volumes of different dimensions"
        );
        for (dst, src) in self.data.iter_mut().zip(&other.data) {
            dst.merge(*src);
        }
        self.votes_cast += other.votes_cast;
        self.votes_missed += other.votes_missed;
    }

    /// The maximum score over the whole volume.
    pub fn max_score(&self) -> f64 {
        self.data.iter().map(|s| s.as_f64()).fold(0.0, f64::max)
    }

    /// Sum of all scores.
    pub fn total_score(&self) -> f64 {
        self.data.iter().map(|s| s.as_f64()).sum()
    }

    /// For one pixel, the best (maximum-score) plane index and its score.
    #[inline]
    pub fn best_plane(&self, x: usize, y: usize) -> (usize, f64) {
        let mut best_plane = 0;
        let mut best_score = f64::NEG_INFINITY;
        for plane in 0..self.planes.len() {
            let s = self.data[self.index(x, y, plane)].as_f64();
            if s > best_score {
                best_score = s;
                best_plane = plane;
            }
        }
        (best_plane, best_score)
    }
}

/// A mutable view of a contiguous range of one [`DsiVolume`]'s depth planes,
/// with its own vote counters — the unit of work the voting engine hands
/// each shard ([`DsiVolume::plane_ranges_mut`]).
///
/// The vote kernels live here, once; [`DsiVolume`]'s own vote methods run
/// them on a view of the whole volume. Views of one volume are disjoint, so
/// each voxel has exactly one writer, and a writer that votes its inputs in
/// stream order accumulates every voxel in the same order as a whole-volume
/// pass does — bit-identical even for order-sensitive `f32` bilinear sums.
///
/// Planes are addressed by their index in the whole volume; a vote on a
/// plane outside the view is counted as missed, like one outside the
/// volume.
#[derive(Debug)]
pub struct PlaneRange<'a, S: VoxelScore> {
    width: usize,
    height: usize,
    planes: Range<usize>,
    data: &'a mut [S],
    votes_cast: u64,
    votes_missed: u64,
}

impl<'a, S: VoxelScore> PlaneRange<'a, S> {
    fn new(width: usize, height: usize, planes: Range<usize>, data: &'a mut [S]) -> Self {
        debug_assert_eq!(data.len(), planes.len() * width * height);
        Self {
            width,
            height,
            planes,
            data,
            votes_cast: 0,
            votes_missed: 0,
        }
    }

    /// The depth planes the view covers, as indices into the whole volume.
    pub fn planes(&self) -> Range<usize> {
        self.planes.clone()
    }

    /// Votes deposited through this view.
    pub fn votes_cast(&self) -> u64 {
        self.votes_cast
    }

    /// Vote attempts through this view that fell outside it.
    pub fn votes_missed(&self) -> u64 {
        self.votes_missed
    }

    #[inline]
    fn index(&self, x: usize, y: usize, plane: usize) -> usize {
        ((plane - self.planes.start) * self.height + y) * self.width + x
    }

    /// Deposits a unit (or weighted) vote at the voxel *nearest* to the
    /// projected point — the approximate voting mode used by the accelerator.
    ///
    /// Out-of-volume projections are counted as missed and ignored.
    #[inline]
    pub fn vote_nearest(&mut self, x: f64, y: f64, plane: usize, weight: f64) {
        if !self.planes.contains(&plane) || !x.is_finite() || !y.is_finite() {
            self.votes_missed += 1;
            return;
        }
        let xi = x.round();
        let yi = y.round();
        if xi < 0.0 || yi < 0.0 || xi >= self.width as f64 || yi >= self.height as f64 {
            self.votes_missed += 1;
            return;
        }
        let idx = self.index(xi as usize, yi as usize, plane);
        self.data[idx].add_vote(weight);
        self.votes_cast += 1;
    }

    /// Deposits a vote split over the four voxels surrounding the projected
    /// point, weighted by bilinear interpolation — the exact voting mode of
    /// the baseline EMVS.
    ///
    /// Out-of-volume projections are counted as missed and ignored; points in
    /// the border half-pixel deposit only the in-bounds portion of their
    /// weight.
    pub fn vote_bilinear(&mut self, x: f64, y: f64, plane: usize, weight: f64) {
        if !self.planes.contains(&plane) || !x.is_finite() || !y.is_finite() {
            self.votes_missed += 1;
            return;
        }
        if x < -0.5 || y < -0.5 || x > self.width as f64 - 0.5 || y > self.height as f64 - 0.5 {
            self.votes_missed += 1;
            return;
        }
        let x0 = x.floor();
        let y0 = y.floor();
        let fx = x - x0;
        let fy = y - y0;
        let mut deposited = false;
        for (dx, dy, w) in [
            (0.0, 0.0, (1.0 - fx) * (1.0 - fy)),
            (1.0, 0.0, fx * (1.0 - fy)),
            (0.0, 1.0, (1.0 - fx) * fy),
            (1.0, 1.0, fx * fy),
        ] {
            let xi = x0 + dx;
            let yi = y0 + dy;
            if w <= 0.0
                || xi < 0.0
                || yi < 0.0
                || xi >= self.width as f64
                || yi >= self.height as f64
            {
                continue;
            }
            let idx = self.index(xi as usize, yi as usize, plane);
            self.data[idx].add_vote(weight * w);
            deposited = true;
        }
        if deposited {
            self.votes_cast += 1;
        } else {
            self.votes_missed += 1;
        }
    }

    /// The batched, cache-blocked quantized nearest vote of a **window** of
    /// frames, each given as its canonical coordinates and its per-plane
    /// `φ` words (`coefficients[i]` belongs to plane `i` of the whole
    /// volume), in stream order. For every depth plane of the view, every
    /// frame whose coefficients cover that plane transfers its coordinates,
    /// frame after frame, through the batched `PE_Zi` kernel
    /// ([`batch::transfer_nearest_batch`], vectorized per the session's
    /// dispatch tier) with its own `φ` words. The kernel returns only the
    /// in-sensor slab indices, so the deposit adds one unit vote at each of
    /// them and counts them all as cast, with no test on an index.
    ///
    /// **Bit-identical to the scalar loop** (`transfer_nearest` +
    /// [`DsiVolume::vote_at`] per event and plane, frame after frame): each
    /// voxel lies in one plane and still receives its votes in stream
    /// order, and unit votes accumulate by saturating/exact addition, so
    /// neither the plane-major order nor where a stream is cut into windows
    /// changes a byte of the score array. In-sensor deposits count as cast;
    /// per-plane projection-missing transfers are dropped without touching
    /// the missed counter (they are per-plane outcomes, not lost events).
    ///
    /// The loop is blocked for the cache hierarchy: each plane slab is
    /// fetched once per window instead of once per frame, and canonical
    /// coordinates stream through it in `VOTE_BLOCK`-sized chunks whose
    /// index buffer (reused across calls via `arena`) stays L1-resident.
    /// While a plane is voted, each block also hints its share of the next
    /// plane slab of the view into L2 ([`batch::prefetch_l2`]), so the
    /// next plane's deposits find their lines there instead of in memory.
    /// `frames` is walked once per plane, and once more to size the hint,
    /// so it is any cloneable iterable (a slice's `iter().copied()`, or a
    /// map over the caller's buffer), and the kernel allocates nothing once
    /// the arena has grown.
    pub fn vote_batch<'f, F>(&mut self, frames: F, arena: &mut VoteArena)
    where
        F: IntoIterator<Item = (&'f [PackedCoord], &'f [PhiWords])> + Clone,
    {
        let (width, height) = (self.width as u32, self.height as u32);
        let slab_len = self.width * self.height;
        let mut rest = &mut *self.data;
        let mut cast = 0u64;
        for plane in self.planes.clone() {
            let (slab, tail) = std::mem::take(&mut rest).split_at_mut(slab_len);
            rest = tail;
            let next = &rest[..rest.len().min(slab_len)];
            let transfers: usize = frames
                .clone()
                .into_iter()
                .filter(|(_, coefficients)| coefficients.len() > plane)
                .map(|(canon, _)| canon.len())
                .sum();
            let (mut done, mut hinted) = (0, 0);
            for (canon, coefficients) in frames.clone() {
                let Some(phi) = coefficients.get(plane) else {
                    continue;
                };
                for block in canon.chunks(VOTE_BLOCK) {
                    batch::transfer_nearest_batch(phi, block, width, height, &mut arena.idx);
                    for &idx in &arena.idx {
                        slab[idx as usize].add_unit();
                    }
                    cast += arena.idx.len() as u64;
                    // Spread the next slab's lines over the plane's blocks
                    // in proportion to the transfers voted so far.
                    done += block.len();
                    let upto = next.len() * done / transfers;
                    batch::prefetch_l2(&next[hinted..upto]);
                    hinted = upto;
                }
            }
        }
        self.votes_cast += cast;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planes(n: usize) -> DepthPlanes {
        DepthPlanes::uniform_inverse_depth(1.0, 4.0, n).unwrap()
    }

    #[test]
    fn construction_validates_size() {
        assert!(DsiVolume::<f32>::new(0, 10, planes(4)).is_err());
        assert!(DsiVolume::<f32>::new(10, 0, planes(4)).is_err());
        let dsi = DsiVolume::<f32>::new(8, 6, planes(4)).unwrap();
        assert_eq!(dsi.voxel_count(), 8 * 6 * 4);
        assert_eq!(dsi.score_bytes(), 8 * 6 * 4 * 4);
        let dsi16 = DsiVolume::<u16>::new(8, 6, planes(4)).unwrap();
        assert_eq!(dsi16.score_bytes(), 8 * 6 * 4 * 2);
    }

    #[test]
    fn nearest_vote_rounds_to_closest_voxel() {
        let mut dsi = DsiVolume::<u16>::new(16, 12, planes(3)).unwrap();
        dsi.vote_nearest(4.4, 7.6, 1, 1.0);
        assert_eq!(dsi.score(4, 8, 1), 1.0);
        assert_eq!(dsi.votes_cast(), 1);
        dsi.vote_nearest(4.4, 7.6, 1, 1.0);
        assert_eq!(dsi.score(4, 8, 1), 2.0);
    }

    #[test]
    fn nearest_vote_out_of_bounds_is_missed() {
        let mut dsi = DsiVolume::<u16>::new(16, 12, planes(3)).unwrap();
        dsi.vote_nearest(-1.0, 5.0, 0, 1.0);
        dsi.vote_nearest(15.8, 5.0, 0, 1.0); // rounds to 16, out of range
        dsi.vote_nearest(5.0, 5.0, 99, 1.0);
        dsi.vote_nearest(f64::NAN, 5.0, 0, 1.0);
        assert_eq!(dsi.votes_cast(), 0);
        assert_eq!(dsi.votes_missed(), 4);
        assert_eq!(dsi.total_score(), 0.0);
    }

    #[test]
    fn bilinear_vote_distributes_unit_weight() {
        let mut dsi = DsiVolume::<f32>::new(16, 12, planes(3)).unwrap();
        dsi.vote_bilinear(4.25, 7.75, 2, 1.0);
        let total = dsi.total_score();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "bilinear weights should sum to 1, got {total}"
        );
        // The dominant voxel is the nearest one.
        assert!(dsi.score(4, 8, 2) > dsi.score(5, 7, 2));
        assert_eq!(dsi.votes_cast(), 1);
    }

    #[test]
    fn bilinear_vote_on_integer_coordinate_hits_single_voxel() {
        let mut dsi = DsiVolume::<f32>::new(16, 12, planes(3)).unwrap();
        dsi.vote_bilinear(5.0, 6.0, 0, 1.0);
        assert!((dsi.score(5, 6, 0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn bilinear_vote_at_border_keeps_partial_weight() {
        let mut dsi = DsiVolume::<f32>::new(16, 12, planes(2)).unwrap();
        dsi.vote_bilinear(-0.25, 3.0, 0, 1.0);
        assert!(dsi.total_score() > 0.0);
        assert!(dsi.total_score() < 1.0 + 1e-9);
        dsi.vote_bilinear(-2.0, 3.0, 0, 1.0);
        assert_eq!(dsi.votes_missed(), 1);
    }

    #[test]
    fn nearest_and_bilinear_agree_on_voxel_centres() {
        let planes3 = planes(3);
        let mut a = DsiVolume::<f32>::new(16, 12, planes3.clone()).unwrap();
        let mut b = DsiVolume::<f32>::new(16, 12, planes3).unwrap();
        a.vote_nearest(7.0, 3.0, 1, 1.0);
        b.vote_bilinear(7.0, 3.0, 1, 1.0);
        assert!((a.score(7, 3, 1) - b.score(7, 3, 1)).abs() < 1e-6);
    }

    #[test]
    fn u16_scores_saturate_instead_of_wrapping() {
        let mut dsi = DsiVolume::<u16>::new(4, 4, planes(2)).unwrap();
        for _ in 0..70000 {
            dsi.vote_nearest(1.0, 1.0, 0, 1.0);
        }
        assert_eq!(dsi.score(1, 1, 0), u16::MAX as f64);
    }

    #[test]
    fn reset_clears_scores_and_counters() {
        let mut dsi = DsiVolume::<u16>::new(8, 8, planes(2)).unwrap();
        dsi.vote_nearest(2.0, 2.0, 0, 1.0);
        dsi.vote_nearest(-5.0, 2.0, 0, 1.0);
        dsi.reset();
        assert_eq!(dsi.total_score(), 0.0);
        assert_eq!(dsi.votes_cast(), 0);
        assert_eq!(dsi.votes_missed(), 0);
    }

    #[test]
    fn best_plane_finds_argmax() {
        let mut dsi = DsiVolume::<f32>::new(8, 8, planes(5)).unwrap();
        dsi.vote_nearest(3.0, 4.0, 2, 3.0);
        dsi.vote_nearest(3.0, 4.0, 4, 1.0);
        let (plane, score) = dsi.best_plane(3, 4);
        assert_eq!(plane, 2);
        assert_eq!(score, 3.0);
        assert_eq!(dsi.max_score(), 3.0);
    }

    #[test]
    fn vote_unit_at_matches_vote_nearest() {
        let mut a = DsiVolume::<u16>::new(16, 12, planes(3)).unwrap();
        let mut b = DsiVolume::<u16>::new(16, 12, planes(3)).unwrap();
        for (x, y, p) in [(0u16, 0u16, 0usize), (15, 11, 2), (7, 3, 1), (7, 3, 1)] {
            a.vote_unit_at(x, y, p);
            b.vote_nearest(x as f64, y as f64, p, 1.0);
        }
        a.vote_unit_at(16, 0, 0); // out of range -> missed
        b.vote_nearest(16.0, 0.0, 0, 1.0);
        assert_eq!(a, b);
        assert_eq!(a.votes_cast(), 4);
        assert_eq!(a.votes_missed(), 1);
    }

    #[test]
    fn merge_from_adds_scores_and_counters() {
        let mut a = DsiVolume::<u16>::new(8, 8, planes(2)).unwrap();
        let mut b = DsiVolume::<u16>::new(8, 8, planes(2)).unwrap();
        a.vote_unit_at(1, 1, 0);
        b.vote_unit_at(1, 1, 0);
        b.vote_unit_at(2, 3, 1);
        b.vote_nearest(-1.0, 0.0, 0, 1.0); // missed
        a.merge_from(&b);
        assert_eq!(a.score(1, 1, 0), 2.0);
        assert_eq!(a.score(2, 3, 1), 1.0);
        assert_eq!(a.votes_cast(), 3);
        assert_eq!(a.votes_missed(), 1);
    }

    #[test]
    #[should_panic]
    fn merge_from_rejects_dimension_mismatch() {
        let mut a = DsiVolume::<u16>::new(8, 8, planes(2)).unwrap();
        let b = DsiVolume::<u16>::new(8, 9, planes(2)).unwrap();
        a.merge_from(&b);
    }

    #[test]
    fn merged_saturation_matches_sequential_saturation() {
        // Sequential: 70000 unit votes on one voxel saturate at u16::MAX.
        let mut sequential = DsiVolume::<u16>::new(4, 4, planes(2)).unwrap();
        for _ in 0..70_000 {
            sequential.vote_nearest(1.0, 1.0, 0, 1.0);
        }
        // Two partial volumes of 35000 votes each, then merged.
        let mut merged = DsiVolume::<u16>::new(4, 4, planes(2)).unwrap();
        let mut other = DsiVolume::<u16>::new(4, 4, planes(2)).unwrap();
        for _ in 0..35_000 {
            merged.vote_unit_at(1, 1, 0);
            other.vote_unit_at(1, 1, 0);
        }
        merged.merge_from(&other);
        assert_eq!(merged.score(1, 1, 0), sequential.score(1, 1, 0));
        assert_eq!(merged.votes_cast(), sequential.votes_cast());
    }

    #[test]
    fn plane_ranges_are_equivalent_for_any_shard_count() {
        // Float bilinear and nearest votes plus batched u16 votes, split
        // over every range count (past the plane count too), must equal the
        // whole-volume pass bit for bit, counters included.
        let points: Vec<(f64, f64)> = (0..300)
            .map(|i| {
                (
                    (i * 37 % 200) as f64 * 0.1 - 1.0,
                    (i * 53 % 150) as f64 * 0.1 - 1.0,
                )
            })
            .collect();
        let canon: Vec<PackedCoord> = points
            .iter()
            .map(|&(x, y)| PackedCoord::from_f64(x, y))
            .collect();
        let coeffs: Vec<PhiWords> = (0..5)
            .map(|p| PhiWords::from_f64(0.8 + p as f64 * 0.1, p as f64 - 2.0, 0.5 * p as f64))
            .collect();
        let vote = |view: &mut PlaneRange<'_, f32>| {
            for &(x, y) in &points {
                for plane in view.planes() {
                    view.vote_bilinear(x + plane as f64 * 0.3, y, plane, 0.7);
                    view.vote_nearest(x, y - plane as f64 * 0.2, plane, 1.0);
                }
            }
        };
        let mut whole = DsiVolume::<f32>::new(16, 12, planes(5)).unwrap();
        whole.vote_all(vote);
        let mut whole_u16 = DsiVolume::<u16>::new(16, 12, planes(5)).unwrap();
        whole_u16.vote_batch(&canon, &coeffs, &mut VoteArena::new());
        assert!(whole.votes_cast() > 0 && whole.votes_missed() > 0);
        assert!(whole_u16.votes_cast() > 0);

        for shards in 1..=8usize {
            let mut split = DsiVolume::<f32>::new(16, 12, planes(5)).unwrap();
            let mut split_u16 = DsiVolume::<u16>::new(16, 12, planes(5)).unwrap();
            let views: Vec<_> = split.plane_ranges_mut(shards).collect();
            assert_eq!(views.len(), shards.min(5));
            let covered: Vec<usize> = views.iter().flat_map(|v| v.planes()).collect();
            assert_eq!(covered, (0..5).collect::<Vec<_>>());
            let (mut cast, mut missed) = (0, 0);
            for mut view in views {
                vote(&mut view);
                cast += view.votes_cast();
                missed += view.votes_missed();
            }
            split.add_votes(cast, missed);
            let mut cast_u16 = 0;
            for mut view in split_u16.plane_ranges_mut(shards) {
                view.vote_batch([(&canon[..], &coeffs[..])], &mut VoteArena::new());
                cast_u16 += view.votes_cast();
            }
            split_u16.add_votes(cast_u16, 0);
            let bits = |v: &DsiVolume<f32>| v.raw_scores().iter().map(|s| s.to_bits()).collect();
            let (a, b): (Vec<u32>, Vec<u32>) = (bits(&split), bits(&whole));
            assert_eq!(a, b, "f32 scores, shards = {shards}");
            assert_eq!(split.votes_cast(), whole.votes_cast(), "shards = {shards}");
            assert_eq!(
                split.votes_missed(),
                whole.votes_missed(),
                "shards = {shards}"
            );
            assert_eq!(split_u16, whole_u16, "u16 scores, shards = {shards}");
        }
    }

    #[test]
    fn vote_windows_are_equivalent_for_every_split() {
        // K frames voted as consecutive windows, for every way of cutting
        // the stream, must equal K one-frame calls bit for bit, counters
        // included: u16 votes through the window kernel, and f32 bilinear
        // votes plane by plane across each window's frames.
        const K: usize = 5;
        let frames: Vec<(Vec<PackedCoord>, Vec<PhiWords>)> = (0..K)
            .map(|k| {
                // Frame 3 is empty; frame 1 covers only three planes.
                let events = if k == 3 { 0 } else { 40 + 17 * k };
                let canon = (0..events)
                    .map(|i| {
                        let x = ((i * 37 + k * 11) % 200) as f64 * 0.1 - 1.0;
                        let y = ((i * 53 + k * 7) % 150) as f64 * 0.1 - 1.0;
                        PackedCoord::from_f64(x, y)
                    })
                    .collect();
                let coeffs = (0..if k == 1 { 3 } else { 5 })
                    .map(|p| {
                        let (p, k) = (p as f64, k as f64);
                        PhiWords::from_f64(0.8 + 0.1 * p, p - 2.0 + 0.3 * k, 0.5 * p - 0.2 * k)
                    })
                    .collect();
                (canon, coeffs)
            })
            .collect();
        let windows: Vec<(&[PackedCoord], &[PhiWords])> = frames
            .iter()
            .map(|(c, p)| (c.as_slice(), p.as_slice()))
            .collect();
        // Bilinear votes of frames `ks` on one view: plane by plane, then
        // frame by frame in stream order.
        let bilinear = |view: &mut PlaneRange<'_, f32>, ks: Range<usize>| {
            for plane in view.planes() {
                for (k, (canon, _)) in frames.iter().enumerate().take(ks.end).skip(ks.start) {
                    for c in canon {
                        let (x, y) = (c.x.to_f64(), c.y.to_f64());
                        view.vote_bilinear(x + plane as f64 * 0.3, y - k as f64 * 0.2, plane, 0.7);
                    }
                }
            }
        };

        let mut frame_u16 = DsiVolume::<u16>::new(16, 12, planes(5)).unwrap();
        let mut frame_f32 = DsiVolume::<f32>::new(16, 12, planes(5)).unwrap();
        let mut arena = VoteArena::new();
        for (k, (canon, coeffs)) in frames.iter().enumerate() {
            frame_u16.vote_batch(canon, coeffs, &mut arena);
            frame_f32.vote_all(|view| bilinear(view, k..k + 1));
        }
        assert!(frame_u16.votes_cast() > 0);
        assert!(frame_f32.votes_cast() > 0 && frame_f32.votes_missed() > 0);

        // Bit `i` of `cuts` set: a window ends after frame `i`.
        for cuts in 0..1u32 << (K - 1) {
            let mut windowed_u16 = DsiVolume::<u16>::new(16, 12, planes(5)).unwrap();
            let mut windowed_f32 = DsiVolume::<f32>::new(16, 12, planes(5)).unwrap();
            let mut start = 0;
            for end in (1..=K).filter(|&end| end == K || cuts & 1 << (end - 1) != 0) {
                let window = &windows[start..end];
                windowed_u16.vote_all(|view| view.vote_batch(window.iter().copied(), &mut arena));
                windowed_f32.vote_all(|view| bilinear(view, start..end));
                start = end;
            }
            assert_eq!(windowed_u16, frame_u16, "u16, cuts {cuts:04b}");
            let bits = |v: &DsiVolume<f32>| v.raw_scores().iter().map(|s| s.to_bits()).collect();
            let (a, b): (Vec<u32>, Vec<u32>) = (bits(&windowed_f32), bits(&frame_f32));
            assert_eq!(a, b, "f32 scores, cuts {cuts:04b}");
            assert_eq!(
                (windowed_f32.votes_cast(), windowed_f32.votes_missed()),
                (frame_f32.votes_cast(), frame_f32.votes_missed()),
                "f32 counters, cuts {cuts:04b}"
            );
        }
    }

    #[test]
    fn plane_range_counts_votes_outside_it_as_missed() {
        let mut dsi = DsiVolume::<f32>::new(8, 8, planes(4)).unwrap();
        let mut views: Vec<_> = dsi.plane_ranges_mut(2).collect();
        assert_eq!(views[1].planes(), 2..4);
        views[1].vote_nearest(3.0, 3.0, 1, 1.0);
        views[1].vote_bilinear(3.0, 3.0, 4, 1.0);
        views[1].vote_nearest(3.0, 3.0, 2, 1.0);
        assert_eq!((views[1].votes_cast(), views[1].votes_missed()), (1, 2));
        drop(views);
        assert_eq!(dsi.score(3, 3, 2), 1.0);
        assert_eq!(dsi.total_score(), 1.0);
    }

    #[test]
    fn vote_batch_is_bit_identical_to_the_scalar_vote_loop() {
        use eventor_fixed::kernel::batch::{force, Dispatch};
        use eventor_fixed::kernel::transfer_nearest;
        use eventor_fixed::Q9p7;

        // A spread of canonical coordinates, some projecting outside.
        let canon: Vec<PackedCoord> = (0..500)
            .map(|i| PackedCoord {
                x: Q9p7::from_raw((i * 97 - 4000) as i16),
                y: Q9p7::from_raw((i * 61 - 3000) as i16),
            })
            .collect();
        let coeffs: Vec<PhiWords> = (0..7)
            .map(|p| PhiWords::from_f64(0.5 + p as f64 * 0.1, -2.0 + p as f64, 1.5 * p as f64))
            .collect();

        let mut reference = DsiVolume::<u16>::new(24, 18, planes(7)).unwrap();
        for (plane, phi) in coeffs.iter().enumerate() {
            for &c in &canon {
                if let Some((x, y)) = transfer_nearest(phi, c, 24, 18).address() {
                    reference.vote_at(x, y, plane);
                }
            }
        }
        assert!(reference.votes_cast() > 0, "test pattern casts no votes");

        for tier in Dispatch::ALL.into_iter().filter(|t| t.is_supported()) {
            force(Some(tier)).expect("supported tier");
            let mut batched = DsiVolume::<u16>::new(24, 18, planes(7)).unwrap();
            let mut arena = VoteArena::new();
            batched.vote_batch(&canon, &coeffs, &mut arena);
            assert_eq!(batched, reference, "tier {}", tier.name());
            // Arena reuse across calls must not change results either.
            let mut again = DsiVolume::<u16>::new(24, 18, planes(7)).unwrap();
            again.vote_batch(&canon, &coeffs, &mut arena);
            assert_eq!(again, reference, "tier {} (reused arena)", tier.name());
        }
        force(None).expect("restore dispatch default");
    }

    #[test]
    fn vote_batch_handles_empty_inputs_and_partial_coefficients() {
        let mut dsi = DsiVolume::<u16>::new(8, 8, planes(4)).unwrap();
        let mut arena = VoteArena::new();
        dsi.vote_batch(&[], &[PhiWords::from_f64(1.0, 0.0, 0.0)], &mut arena);
        dsi.vote_batch(&[PackedCoord::from_f64(2.0, 2.0)], &[], &mut arena);
        assert_eq!(dsi.votes_cast(), 0);
        // Fewer coefficient entries than planes: only those planes vote.
        dsi.vote_batch(
            &[PackedCoord::from_f64(2.0, 2.0)],
            &[PhiWords::from_f64(1.0, 0.0, 0.0)],
            &mut arena,
        );
        assert_eq!(dsi.votes_cast(), 1);
        assert_eq!(dsi.score(2, 2, 0), 1.0);
    }

    #[test]
    fn plane_scores_slice_has_correct_length() {
        let dsi = DsiVolume::<u16>::new(10, 6, planes(3)).unwrap();
        assert_eq!(dsi.plane_scores(0).len(), 60);
        assert_eq!(dsi.plane_scores(2).len(), 60);
    }

    #[test]
    fn vote_state_round_trips_quantized_volumes_bit_exactly() {
        let mut dsi = DsiVolume::<u16>::new(8, 6, planes(4)).unwrap();
        dsi.vote_at(3, 2, 1);
        dsi.vote_at(3, 2, 1);
        dsi.vote_at(7, 5, 3);
        dsi.vote_nearest(-5.0, 0.0, 0, 1.0); // a missed vote
        let bytes = dsi.encode_vote_state();
        let back = DsiVolume::<u16>::decode_vote_state(8, 6, planes(4), &bytes).unwrap();
        assert_eq!(back, dsi);
        assert_eq!(back.votes_cast(), dsi.votes_cast());
        assert_eq!(back.votes_missed(), dsi.votes_missed());
        // Deterministic: encoding the decoded volume yields the same bytes.
        assert_eq!(back.encode_vote_state(), bytes);
    }

    #[test]
    fn vote_state_round_trips_float_volumes_bit_exactly() {
        let mut dsi = DsiVolume::<f32>::new(5, 4, planes(3)).unwrap();
        dsi.vote_bilinear(1.3, 2.7, 1, 1.0);
        dsi.vote_bilinear(0.1, 0.9, 2, 0.25);
        let bytes = dsi.encode_vote_state();
        let back = DsiVolume::<f32>::decode_vote_state(5, 4, planes(3), &bytes).unwrap();
        for plane in 0..3 {
            for (a, b) in dsi.plane_scores(plane).iter().zip(back.plane_scores(plane)) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        assert_eq!(back.votes_cast(), dsi.votes_cast());
    }

    #[test]
    fn vote_state_length_mismatch_is_a_typed_error() {
        let dsi = DsiVolume::<u16>::new(4, 4, planes(2)).unwrap();
        let bytes = dsi.encode_vote_state();
        for bad in [&bytes[..bytes.len() - 1], &bytes[..0], &bytes[..15]] {
            assert!(matches!(
                DsiVolume::<u16>::decode_vote_state(4, 4, planes(2), bad),
                Err(DsiError::InvalidVoteState { .. })
            ));
        }
        // Wrong score width (f32 vs u16) cannot silently decode either.
        assert!(matches!(
            DsiVolume::<f32>::decode_vote_state(4, 4, planes(2), &bytes),
            Err(DsiError::InvalidVoteState { .. })
        ));
        assert!(matches!(
            DsiVolume::<u16>::decode_vote_state(0, 4, planes(2), &bytes),
            Err(DsiError::EmptyVolume { .. })
        ));
    }
}
