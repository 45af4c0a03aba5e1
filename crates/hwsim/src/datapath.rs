//! Bit-accurate functional models of the Eventor processing elements.
//!
//! Where [`crate::pe`] models *how long* the processing elements take, this
//! module models *what they compute*, at the precision of the Table 1
//! fixed-point formats:
//!
//! * [`HomographyRegisters`] / [`PeZ0Datapath`] — the `Buf_H` register bank
//!   and the matrix-vector MAC + normalization of `PE_Z0` (`𝒫{Z0}`),
//! * [`PhiEntry`] / [`PeZiArrayDatapath`] — the `Buf_P` contents and the
//!   scalar MAC + Nearest Voxel Finder + Vote Address Generator of the
//!   `PE_Zi` array (`𝒫{Z0;Zi}` and `𝒢`), whose frame pass also applies
//!   the votes to [`crate::DsiDram`] as the Vote Execute Unit does (`𝒱`).
//!
//! These models are the register/FSM face of the datapath; the arithmetic
//! itself — wide MAC, normalization, saturation judgement, nearest-voxel
//! rounding — is the **bit-true integer kernel** in
//! [`eventor_fixed::kernel`], the same functions the software golden model
//! in `eventor-core` calls. Device ↔ golden-model agreement is therefore a
//! property of construction; the workspace integration tests
//! (`tests/cosim_equivalence.rs`) assert it end to end.

use crate::dram::DsiDram;
use eventor_fixed::kernel::{self, PhiWords};
use eventor_fixed::{PackedCoord, Q11p21};

/// The `Buf_H` register bank: the 3×3 homography `H_{Z0}` stored as nine
/// Q11.21 words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HomographyRegisters {
    words: [Q11p21; 9],
}

impl HomographyRegisters {
    /// Loads the register bank from nine raw Q11.21 bus words in row-major
    /// order.
    pub fn from_raw_words(words: [i32; 9]) -> Self {
        let mut regs = [Q11p21::zero(); 9];
        for (r, w) in regs.iter_mut().zip(words) {
            *r = Q11p21::from_raw(w);
        }
        Self { words: regs }
    }

    /// Quantizes a row-major `f64` homography into the register bank (the
    /// conversion the host driver performs before the DMA transfer).
    pub fn from_matrix(m: &[[f64; 3]; 3]) -> Self {
        let mut words = [0i32; 9];
        for (k, w) in words.iter_mut().enumerate() {
            *w = Q11p21::from_f64(m[k / 3][k % 3]).raw();
        }
        Self::from_raw_words(words)
    }

    /// The raw Q11.21 bus words in row-major order.
    pub fn raw_words(&self) -> [i32; 9] {
        let mut out = [0i32; 9];
        for (o, w) in out.iter_mut().zip(self.words) {
            *o = w.raw();
        }
        out
    }

    /// The entry at `(row, col)` as `f64`.
    pub fn entry(&self, row: usize, col: usize) -> f64 {
        self.words[row * 3 + col].to_f64()
    }
}

/// Functional model of `PE_Z0`: the canonical back-projection `𝒫{Z0}`.
///
/// The matrix-vector MAC runs in explicit `i64` wide accumulators (the RTL
/// keeps full-width partial products), the normalization divider produces
/// the canonical coordinates, and the result is re-quantized to the Q9.7
/// transport format written into `Buf_I` — all via
/// [`kernel::project_z0`] on the raw register words, no `f64` anywhere.
/// Events whose canonical projection cannot be represented in Q9.7, or that
/// map to infinity, are dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PeZ0Datapath {
    events_processed: u64,
    events_dropped: u64,
}

impl PeZ0Datapath {
    /// Creates an idle datapath.
    pub fn new() -> Self {
        Self::default()
    }

    /// Processes one packed event word against the homography registers.
    ///
    /// Returns the canonical projection in the Q9.7 transport format, or
    /// `None` when the projection-missing judgement drops the event.
    pub fn project(&mut self, h: &HomographyRegisters, event_word: u32) -> Option<PackedCoord> {
        self.events_processed += 1;
        let out = kernel::project_z0(&h.raw_words(), PackedCoord::from_word(event_word));
        if out.is_none() {
            self.events_dropped += 1;
        }
        out
    }

    /// Processes a whole `Buf_E` bank into `Buf_I`: replaces the contents
    /// of `survivors` with the canonical projections of the events the
    /// judgement keeps, in input order. The counters are charged once per
    /// bank.
    pub fn project_frame(
        &mut self,
        h: &HomographyRegisters,
        event_words: &[u32],
        survivors: &mut Vec<PackedCoord>,
    ) {
        let words = h.raw_words();
        survivors.clear();
        survivors.extend(
            event_words
                .iter()
                .filter_map(|&w| kernel::project_z0(&words, PackedCoord::from_word(w))),
        );
        self.events_processed += event_words.len() as u64;
        self.events_dropped += (event_words.len() - survivors.len()) as u64;
    }

    /// Events processed since construction.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Events dropped by the projection-missing judgement.
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }
}

/// One `Buf_P` entry: the proportional back-projection coefficients of a
/// single depth plane, as three Q11.21 words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhiEntry {
    /// Homothety ratio `r_i`.
    pub scale: Q11p21,
    /// Epipole term for the x axis, `(1 - r_i) * e_x`.
    pub offset_x: Q11p21,
    /// Epipole term for the y axis, `(1 - r_i) * e_y`.
    pub offset_y: Q11p21,
}

impl PhiEntry {
    /// Builds an entry from three raw Q11.21 bus words.
    pub fn from_raw_words(words: [i32; 3]) -> Self {
        Self {
            scale: Q11p21::from_raw(words[0]),
            offset_x: Q11p21::from_raw(words[1]),
            offset_y: Q11p21::from_raw(words[2]),
        }
    }

    /// Quantizes floating-point coefficients into an entry.
    pub fn from_f64(scale: f64, offset_x: f64, offset_y: f64) -> Self {
        Self {
            scale: Q11p21::from_f64(scale),
            offset_x: Q11p21::from_f64(offset_x),
            offset_y: Q11p21::from_f64(offset_y),
        }
    }

    /// The raw Q11.21 bus words `(scale, offset_x, offset_y)`.
    pub fn raw_words(&self) -> [i32; 3] {
        [self.scale.raw(), self.offset_x.raw(), self.offset_y.raw()]
    }

    /// The entry as the kernel's raw-word form — what the `PE_Zi` scalar
    /// MACs actually consume.
    #[inline]
    pub fn words(&self) -> PhiWords {
        PhiWords::from_raw_words(self.raw_words())
    }
}

/// A DSI vote address produced by the Vote Address Generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VoteAddress {
    /// Voxel column.
    pub x: u16,
    /// Voxel row.
    pub y: u16,
    /// Depth-plane index.
    pub plane: u16,
}

impl VoteAddress {
    /// The linear DRAM address of the voxel for a `width x height` plane.
    pub fn linear(&self, width: usize, height: usize) -> u64 {
        ((self.plane as usize * height + self.y as usize) * width + self.x as usize) as u64
    }
}

/// Per-frame execution statistics of the `PE_Zi` array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PeZiStats {
    /// Plane transfers executed (canonical points × planes).
    pub transfers: u64,
    /// Votes generated (transfers that landed inside the sensor).
    pub votes_generated: u64,
    /// Transfers rejected by the projection-missing judgement.
    pub transfers_missed: u64,
}

/// Functional model of the `PE_Zi` array: scalar MACs, Nearest Voxel Finder
/// and Vote Address Generator.
///
/// Depth planes are distributed over the physical `PE_Zi` in round-robin
/// order (plane `i` is handled by PE `i mod num_pe`); all PEs share the same
/// canonical input, exactly as the Data Allocator distributes it.
#[derive(Debug, Clone, PartialEq)]
pub struct PeZiArrayDatapath {
    /// `Buf_P` contents in the kernel's raw-word form, hoisted once at
    /// construction so the per-event loop touches only integers.
    phi: Vec<PhiWords>,
    num_pe: usize,
    sensor_width: u32,
    sensor_height: u32,
    stats: PeZiStats,
    per_pe_transfers: Vec<u64>,
}

impl PeZiArrayDatapath {
    /// Creates the array datapath.
    ///
    /// # Panics
    ///
    /// Panics if `num_pe` is zero or the sensor is empty.
    pub fn new(phi: Vec<PhiEntry>, num_pe: usize, sensor_width: u32, sensor_height: u32) -> Self {
        assert!(num_pe > 0, "need at least one PE_Zi");
        assert!(
            sensor_width > 0 && sensor_height > 0,
            "sensor must be non-empty"
        );
        Self {
            phi: phi.iter().map(PhiEntry::words).collect(),
            num_pe,
            sensor_width,
            sensor_height,
            stats: PeZiStats::default(),
            per_pe_transfers: vec![0; num_pe],
        }
    }

    /// Number of depth planes loaded in `Buf_P`.
    pub fn num_planes(&self) -> usize {
        self.phi.len()
    }

    /// Number of physical `PE_Zi`.
    pub fn num_pe(&self) -> usize {
        self.num_pe
    }

    /// Transfers one canonical point to every depth plane and generates the
    /// vote addresses of the in-sensor projections.
    pub fn generate_votes(&mut self, canonical: PackedCoord) -> Vec<VoteAddress> {
        let mut votes = Vec::with_capacity(self.phi.len());
        for (i, phi) in self.phi.iter().enumerate() {
            self.per_pe_transfers[i % self.num_pe] += 1;
            self.stats.transfers += 1;
            match kernel::transfer_nearest(phi, canonical, self.sensor_width, self.sensor_height)
                .address()
            {
                Some((vx, vy)) => {
                    self.stats.votes_generated += 1;
                    votes.push(VoteAddress {
                        x: vx,
                        y: vy,
                        plane: i as u16,
                    });
                }
                None => self.stats.transfers_missed += 1,
            }
        }
        votes
    }

    /// The frame pass of the array and the Vote Execute Unit: plane by
    /// plane, transfers every canonical point of a `Buf_I` bank and applies
    /// each in-sensor vote to that plane of `dram`
    /// ([`DsiDram::vote_plane`]), in the vote order of
    /// [`Self::generate_votes`] within each plane. Statistics are charged
    /// once per plane; the frame's own are returned.
    ///
    /// # Panics
    ///
    /// Panics if `dram` is narrower, shorter or shallower than the array's
    /// sensor and `Buf_P`.
    pub fn vote_frame(&mut self, canonical: &[PackedCoord], dram: &mut DsiDram) -> PeZiStats {
        let (width, height) = (self.sensor_width, self.sensor_height);
        assert!(
            width as usize <= dram.width()
                && height as usize <= dram.height()
                && self.phi.len() <= dram.planes(),
            "the DSI must hold every vote address the array generates"
        );
        let transfers = canonical.len() as u64;
        let mut frame = PeZiStats::default();
        for (plane, phi) in self.phi.iter().enumerate() {
            let votes = dram.vote_plane(
                plane,
                canonical
                    .iter()
                    .filter_map(|&c| kernel::transfer_nearest(phi, c, width, height).address()),
            );
            self.per_pe_transfers[plane % self.num_pe] += transfers;
            frame.transfers += transfers;
            frame.votes_generated += votes;
            frame.transfers_missed += transfers - votes;
        }
        self.stats.transfers += frame.transfers;
        self.stats.votes_generated += frame.votes_generated;
        self.stats.transfers_missed += frame.transfers_missed;
        frame
    }

    /// Execution statistics since construction.
    pub fn stats(&self) -> PeZiStats {
        self.stats
    }

    /// Plane-transfer count per physical PE (load-balance view).
    pub fn per_pe_transfers(&self) -> &[u64] {
        &self.per_pe_transfers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identity_registers() -> HomographyRegisters {
        HomographyRegisters::from_matrix(&[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    }

    #[test]
    fn homography_registers_round_trip_raw_words() {
        let h = HomographyRegisters::from_matrix(&[
            [1.25, -0.5, 3.0],
            [0.0, 0.875, -2.5],
            [0.001, 0.002, 1.0],
        ]);
        let words = h.raw_words();
        let back = HomographyRegisters::from_raw_words(words);
        assert_eq!(h, back);
        assert!((h.entry(0, 0) - 1.25).abs() < 1e-6);
        assert!((h.entry(2, 2) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn identity_homography_passes_coordinates_through() {
        let h = identity_registers();
        let mut pe = PeZ0Datapath::new();
        let input = PackedCoord::from_f64(120.5, 89.25);
        let out = pe.project(&h, input.to_word()).unwrap();
        assert_eq!(out, input);
        assert_eq!(pe.events_processed(), 1);
        assert_eq!(pe.events_dropped(), 0);
    }

    #[test]
    fn degenerate_projection_is_dropped() {
        // A homography whose third row annihilates the input maps it to
        // infinity; the projection-missing judgement must drop it.
        let h =
            HomographyRegisters::from_matrix(&[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]);
        let mut pe = PeZ0Datapath::new();
        assert!(pe
            .project(&h, PackedCoord::from_f64(10.0, 10.0).to_word())
            .is_none());
        assert_eq!(pe.events_dropped(), 1);
    }

    #[test]
    fn out_of_transport_range_projection_is_dropped() {
        // Scaling by 8 pushes a 100-pixel coordinate far beyond the Q9.7
        // range.
        let h =
            HomographyRegisters::from_matrix(&[[8.0, 0.0, 0.0], [0.0, 8.0, 0.0], [0.0, 0.0, 1.0]]);
        let mut pe = PeZ0Datapath::new();
        assert!(pe
            .project(&h, PackedCoord::from_f64(100.0, 10.0).to_word())
            .is_none());
        assert_eq!(pe.events_dropped(), 1);
    }

    #[test]
    fn frame_projection_preserves_order_and_length() {
        let h = identity_registers();
        let mut pe = PeZ0Datapath::new();
        let words: Vec<u32> = (0..16)
            .map(|i| PackedCoord::from_f64(i as f64 * 10.0, 5.0).to_word())
            .collect();
        // The bank replaces whatever the buffer held.
        let mut out = vec![PackedCoord::from_f64(1.0, 1.0); 40];
        pe.project_frame(&h, &words, &mut out);
        assert_eq!(out.len(), 16);
        assert_eq!(out[3].x_f64(), 30.0);
        assert_eq!(pe.events_processed(), 16);
        assert_eq!(pe.events_dropped(), 0);
    }

    #[test]
    fn phi_entry_round_trips_raw_words() {
        let phi = PhiEntry::from_f64(0.75, 12.5, -3.25);
        let back = PhiEntry::from_raw_words(phi.raw_words());
        assert_eq!(phi, back);
    }

    #[test]
    fn pe_zi_identity_transfer_votes_every_plane() {
        let phi = vec![PhiEntry::from_f64(1.0, 0.0, 0.0); 10];
        let mut array = PeZiArrayDatapath::new(phi, 2, 240, 180);
        let votes = array.generate_votes(PackedCoord::from_f64(30.0, 40.0));
        assert_eq!(votes.len(), 10);
        assert!(votes
            .iter()
            .enumerate()
            .all(|(i, v)| v.plane as usize == i && v.x == 30 && v.y == 40));
        let stats = array.stats();
        assert_eq!(stats.transfers, 10);
        assert_eq!(stats.votes_generated, 10);
        assert_eq!(stats.transfers_missed, 0);
        // Planes are distributed evenly over the two PEs.
        assert_eq!(array.per_pe_transfers(), &[5, 5]);
    }

    #[test]
    fn pe_zi_out_of_sensor_transfers_are_missed() {
        // A large offset pushes every plane projection outside the sensor.
        let phi = vec![PhiEntry::from_f64(1.0, 500.0, 0.0); 4];
        let mut array = PeZiArrayDatapath::new(phi, 1, 240, 180);
        let votes = array.generate_votes(PackedCoord::from_f64(30.0, 40.0));
        assert!(votes.is_empty());
        assert_eq!(array.stats().transfers_missed, 4);
    }

    #[test]
    fn frame_votes_skip_dropped_events() {
        // Scaling by 2 throws (200, 10) out of the Q9.7 range.
        let h =
            HomographyRegisters::from_matrix(&[[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]]);
        let words = [(1.0, 1.0), (200.0, 10.0), (2.0, 2.0)]
            .map(|(x, y)| PackedCoord::from_f64(x, y).to_word());
        let mut pe_z0 = PeZ0Datapath::new();
        let mut canonical = Vec::new();
        pe_z0.project_frame(&h, &words, &mut canonical);
        assert_eq!(pe_z0.events_dropped(), 1);
        assert_eq!(canonical.len(), 2);

        let phi = vec![PhiEntry::from_f64(1.0, 0.0, 0.0); 3];
        let mut array = PeZiArrayDatapath::new(phi, 1, 240, 180);
        let mut dram = DsiDram::new(240, 180, 3);
        let frame = array.vote_frame(&canonical, &mut dram);
        assert_eq!(frame.votes_generated, 6);
        assert_eq!(dram.score(4, 4, 2), Some(1));
        assert_eq!(array.num_planes(), 3);
        assert_eq!(array.num_pe(), 1);
    }

    #[test]
    fn frame_pass_charges_what_generate_votes_charges() {
        // Canonical points inside, straddling and beyond the sensor under
        // seven planes of growing epipole offset.
        let phi: Vec<PhiEntry> = (0..7)
            .map(|i| PhiEntry::from_f64(1.0 - 0.05 * i as f64, 12.0 * i as f64, -7.5 * i as f64))
            .collect();
        let canonical: Vec<PackedCoord> = (0..40)
            .map(|i| PackedCoord::from_f64(i as f64 * 7.3 - 20.0, i as f64 * 5.1 - 10.0))
            .collect();
        for num_pe in [1, 2, 4] {
            let mut reference = PeZiArrayDatapath::new(phi.clone(), num_pe, 240, 180);
            let mut reference_dram = DsiDram::new(240, 180, 7);
            for &c in &canonical {
                for v in reference.generate_votes(c) {
                    reference_dram.vote(v.linear(240, 180));
                }
            }
            let mut array = PeZiArrayDatapath::new(phi.clone(), num_pe, 240, 180);
            let mut dram = DsiDram::new(240, 180, 7);
            assert_eq!(array.vote_frame(&canonical, &mut dram), reference.stats());
            assert_eq!(array.stats(), reference.stats());
            assert_eq!(array.per_pe_transfers(), reference.per_pe_transfers());
            assert_eq!(dram, reference_dram);
            let stats = array.stats();
            assert!(stats.transfers_missed > 0 && stats.votes_generated > 0);
        }
    }

    #[test]
    fn vote_addresses_match_dram_layout() {
        let v = VoteAddress {
            x: 3,
            y: 2,
            plane: 1,
        };
        let dram = DsiDram::new(10, 5, 4);
        assert_eq!(Some(v.linear(10, 5)), dram.linear_address(3, 2, 1));
    }

    #[test]
    fn vote_execute_applies_and_counts() {
        let phi = vec![PhiEntry::from_f64(1.0, 0.0, 0.0); 4];
        let mut array = PeZiArrayDatapath::new(phi, 2, 16, 16);
        let mut dram = DsiDram::new(16, 16, 4);
        let canonical =
            [(1.0, 1.0), (1.0, 1.0), (5.0, 3.0)].map(|(x, y)| PackedCoord::from_f64(x, y));
        let frame = array.vote_frame(&canonical, &mut dram);
        assert_eq!(frame.votes_generated, 12);
        assert_eq!(frame.transfers_missed, 0);
        assert_eq!(dram.score(1, 1, 0), Some(2));
        assert_eq!(dram.score(5, 3, 2), Some(1));
        let stats = dram.stats();
        assert_eq!(stats.vote_rmw_ops, 12);
        assert_eq!(stats.address_faults, 0);
        assert_eq!(stats.score_bytes(), 48);
        assert_eq!(array.per_pe_transfers(), &[6, 6]);
    }

    #[test]
    #[should_panic]
    fn frame_pass_rejects_a_dsi_smaller_than_the_sensor() {
        let mut array =
            PeZiArrayDatapath::new(vec![PhiEntry::from_f64(1.0, 0.0, 0.0)], 1, 240, 180);
        array.vote_frame(&[], &mut DsiDram::new(240, 179, 1));
    }

    #[test]
    #[should_panic]
    fn zero_pe_array_panics() {
        let _ = PeZiArrayDatapath::new(vec![], 0, 240, 180);
    }
}
