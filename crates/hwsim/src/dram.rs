//! Behavioural model of the external DDR3 memory holding the DSI score
//! volume.
//!
//! The Eventor prototype keeps the whole disparity space image (DSI) in the
//! 1 GB DDR3 attached to the Zynq PS and reaches it from the programmable
//! logic through the AXI-HP ports. This module models that memory at the
//! *data* level: a flat array of 16-bit scores addressed exactly the way the
//! Vote Address Generator addresses it (`plane * W * H + y * W + x`), with
//! read/write/read-modify-write accounting of the traffic the device
//! actually issues.

use crate::timing::AcceleratorConfig;

/// A linear DSI voxel address as produced by the Vote Address Generator.
pub type VoxelAddress = u64;

/// Access statistics of the DSI region in external memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DramStats {
    /// Number of 16-bit score reads.
    pub score_reads: u64,
    /// Number of 16-bit score writes.
    pub score_writes: u64,
    /// Number of read-modify-write vote operations.
    pub vote_rmw_ops: u64,
    /// Number of votes that saturated the 16-bit score.
    pub saturated_votes: u64,
    /// Number of accesses that fell outside the DSI region (address faults).
    pub address_faults: u64,
    /// Number of full-volume resets.
    pub resets: u64,
}

impl DramStats {
    /// Total bytes moved across the memory interface by score traffic
    /// (2 bytes per read or write).
    pub fn score_bytes(&self) -> u64 {
        2 * (self.score_reads + self.score_writes)
    }
}

/// The DSI score volume stored in external DDR3 memory.
///
/// Scores are 16-bit unsigned integers (Table 1); votes are applied as
/// saturating read-modify-write operations, exactly what the Vote Execute
/// Unit performs over the AXI-HP ports.
///
/// # Examples
///
/// ```
/// use eventor_hwsim::DsiDram;
/// let mut dram = DsiDram::new(240, 180, 100);
/// let addr = dram.linear_address(10, 20, 5).unwrap();
/// dram.vote(addr);
/// dram.vote(addr);
/// assert_eq!(dram.score(10, 20, 5), Some(2));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DsiDram {
    width: usize,
    height: usize,
    planes: usize,
    scores: Vec<u16>,
    stats: DramStats,
}

impl DsiDram {
    /// Allocates a zeroed DSI region of `width x height x planes` voxels.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero (the hardware cannot address an empty
    /// volume).
    pub fn new(width: usize, height: usize, planes: usize) -> Self {
        assert!(
            width > 0 && height > 0 && planes > 0,
            "DSI dimensions must be positive"
        );
        Self {
            width,
            height,
            planes,
            scores: vec![0; width * height * planes],
            stats: DramStats::default(),
        }
    }

    /// Allocates the DSI region described by an accelerator configuration.
    pub fn for_config(config: &AcceleratorConfig) -> Self {
        Self::new(
            config.sensor_width,
            config.sensor_height,
            config.num_depth_planes,
        )
    }

    /// Volume width in voxels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Volume height in voxels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of depth planes.
    pub fn planes(&self) -> usize {
        self.planes
    }

    /// Number of voxels in the volume.
    pub fn voxel_count(&self) -> usize {
        self.scores.len()
    }

    /// Bytes occupied by the score array (2 bytes per voxel).
    pub fn footprint_bytes(&self) -> usize {
        self.scores.len() * 2
    }

    /// Linear address of voxel `(x, y, plane)`, or `None` when the voxel is
    /// outside the volume.
    pub fn linear_address(&self, x: usize, y: usize, plane: usize) -> Option<VoxelAddress> {
        if x >= self.width || y >= self.height || plane >= self.planes {
            return None;
        }
        Some(((plane * self.height + y) * self.width + x) as VoxelAddress)
    }

    /// Reads the score stored at a linear address.
    ///
    /// Out-of-range addresses are counted as address faults and return `None`.
    pub fn read(&mut self, addr: VoxelAddress) -> Option<u16> {
        match self.scores.get(addr as usize) {
            Some(&s) => {
                self.stats.score_reads += 1;
                Some(s)
            }
            None => {
                self.stats.address_faults += 1;
                None
            }
        }
    }

    /// Writes a score to a linear address.
    ///
    /// Out-of-range addresses are counted as address faults and ignored.
    pub fn write(&mut self, addr: VoxelAddress, value: u16) -> bool {
        match self.scores.get_mut(addr as usize) {
            Some(s) => {
                *s = value;
                self.stats.score_writes += 1;
                true
            }
            None => {
                self.stats.address_faults += 1;
                false
            }
        }
    }

    /// Applies one vote to a linear address: the saturating read-modify-write
    /// the Vote Execute Unit performs.
    ///
    /// Returns the new score, or `None` for an address fault.
    pub fn vote(&mut self, addr: VoxelAddress) -> Option<u16> {
        let Some(slot) = self.scores.get_mut(addr as usize) else {
            self.stats.address_faults += 1;
            return None;
        };
        self.stats.score_reads += 1;
        self.stats.score_writes += 1;
        self.stats.vote_rmw_ops += 1;
        if *slot == u16::MAX {
            self.stats.saturated_votes += 1;
        } else {
            *slot += 1;
        }
        Some(*slot)
    }

    /// Applies one depth plane's votes in order: [`Self::vote`] at each
    /// voxel `(x, y)` of `plane`, with the statistics charged once for the
    /// whole plane. A voxel outside the plane is an address fault, as in
    /// [`Self::vote`].
    ///
    /// Returns the number of votes applied, saturated ones included.
    ///
    /// # Panics
    ///
    /// Panics if `plane` is out of range.
    pub fn vote_plane(
        &mut self,
        plane: usize,
        voxels: impl IntoIterator<Item = (u16, u16)>,
    ) -> u64 {
        assert!(plane < self.planes, "plane {plane} out of range");
        let (width, height) = (self.width, self.height);
        let stride = width * height;
        let slab = &mut self.scores[plane * stride..(plane + 1) * stride];
        let (mut applied, mut saturated, mut faults) = (0u64, 0u64, 0u64);
        // `for_each` folds a filtering producer into one loop with a
        // conditional body, where a `for` loop nests a search loop in it.
        voxels.into_iter().for_each(|(x, y)| {
            let (x, y) = (x as usize, y as usize);
            if x >= width || y >= height {
                faults += 1;
                return;
            }
            let score = &mut slab[y * width + x];
            applied += 1;
            saturated += u64::from(*score == u16::MAX);
            *score = score.saturating_add(1);
        });
        self.stats.score_reads += applied;
        self.stats.score_writes += applied;
        self.stats.vote_rmw_ops += applied;
        self.stats.saturated_votes += saturated;
        self.stats.address_faults += faults;
        applied
    }

    /// The score of voxel `(x, y, plane)` without touching the statistics
    /// (a debug/readback view, not a hardware access).
    pub fn score(&self, x: usize, y: usize, plane: usize) -> Option<u16> {
        let addr = self.linear_address(x, y, plane)?;
        self.scores.get(addr as usize).copied()
    }

    /// The raw score array in `plane`-major, then row-major order.
    pub fn scores(&self) -> &[u16] {
        &self.scores
    }

    /// The scores of one depth plane.
    ///
    /// # Panics
    ///
    /// Panics if `plane` is out of range.
    pub fn plane_scores(&self, plane: usize) -> &[u16] {
        assert!(plane < self.planes, "plane {plane} out of range");
        let stride = self.width * self.height;
        &self.scores[plane * stride..(plane + 1) * stride]
    }

    /// Zeroes the whole volume (the DSI reset performed when a new key frame
    /// is selected).
    pub fn reset(&mut self) {
        self.scores.fill(0);
        self.stats.resets += 1;
    }

    /// Overwrites the whole score array without touching the statistics — the
    /// checkpoint-restore path, which re-images a snapshotted DSI into the
    /// memory model (a host-side DMA, not Vote Execute Unit traffic).
    ///
    /// # Panics
    ///
    /// Panics if `scores` does not cover the volume exactly.
    pub fn load_scores(&mut self, scores: &[u16]) {
        assert_eq!(
            scores.len(),
            self.scores.len(),
            "score image must cover the DSI region exactly"
        );
        self.scores.copy_from_slice(scores);
    }

    /// Sum of all scores (equals the number of applied votes as long as no
    /// voxel saturated).
    pub fn total_score(&self) -> u64 {
        self.scores.iter().map(|&s| s as u64).sum()
    }

    /// Largest score in the volume.
    pub fn max_score(&self) -> u16 {
        self.scores.iter().copied().max().unwrap_or(0)
    }

    /// Access statistics accumulated so far.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Clears the access statistics (the score contents are untouched).
    pub fn clear_stats(&mut self) {
        self.stats = DramStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addressing_matches_vote_address_generator_layout() {
        let dram = DsiDram::new(240, 180, 100);
        assert_eq!(dram.linear_address(0, 0, 0), Some(0));
        assert_eq!(dram.linear_address(1, 0, 0), Some(1));
        assert_eq!(dram.linear_address(0, 1, 0), Some(240));
        assert_eq!(dram.linear_address(0, 0, 1), Some(240 * 180));
        assert_eq!(dram.linear_address(239, 179, 99), Some(240 * 180 * 100 - 1));
        assert_eq!(dram.linear_address(240, 0, 0), None);
        assert_eq!(dram.linear_address(0, 180, 0), None);
        assert_eq!(dram.linear_address(0, 0, 100), None);
    }

    #[test]
    fn footprint_matches_table1_dsi_quantization() {
        let dram = DsiDram::for_config(&AcceleratorConfig::default());
        // 240 x 180 x 100 voxels at 2 bytes each.
        assert_eq!(dram.footprint_bytes(), 8_640_000);
        assert_eq!(dram.voxel_count(), 4_320_000);
        assert_eq!(dram.width(), 240);
        assert_eq!(dram.height(), 180);
        assert_eq!(dram.planes(), 100);
    }

    #[test]
    fn votes_are_read_modify_write() {
        let mut dram = DsiDram::new(16, 16, 4);
        let addr = dram.linear_address(3, 5, 2).unwrap();
        assert_eq!(dram.vote(addr), Some(1));
        assert_eq!(dram.vote(addr), Some(2));
        let stats = dram.stats();
        assert_eq!(stats.vote_rmw_ops, 2);
        assert_eq!(stats.score_reads, 2);
        assert_eq!(stats.score_writes, 2);
        assert_eq!(stats.score_bytes(), 8);
        assert_eq!(dram.score(3, 5, 2), Some(2));
        assert_eq!(dram.total_score(), 2);
        assert_eq!(dram.max_score(), 2);
    }

    #[test]
    fn votes_saturate_instead_of_wrapping() {
        let mut dram = DsiDram::new(4, 4, 1);
        let addr = dram.linear_address(0, 0, 0).unwrap();
        dram.write(addr, u16::MAX);
        assert_eq!(dram.vote(addr), Some(u16::MAX));
        assert_eq!(dram.stats().saturated_votes, 1);
        assert_eq!(dram.vote_plane(0, [(0, 0), (1, 0), (0, 0)]), 3);
        assert_eq!(dram.score(0, 0, 0), Some(u16::MAX));
        assert_eq!(dram.score(1, 0, 0), Some(1));
        assert_eq!(dram.stats().saturated_votes, 3);
        assert_eq!(dram.stats().vote_rmw_ops, 4);
    }

    #[test]
    fn out_of_range_accesses_fault_instead_of_panicking() {
        let mut dram = DsiDram::new(4, 4, 1);
        assert_eq!(dram.read(1_000_000), None);
        assert!(!dram.write(1_000_000, 1));
        assert_eq!(dram.vote(1_000_000), None);
        assert_eq!(dram.vote_plane(0, [(4, 0), (0, 4), (3, 3)]), 1);
        assert_eq!(dram.stats().address_faults, 5);
        assert_eq!(dram.total_score(), 1);
    }

    #[test]
    fn reset_zeroes_and_counts() {
        let mut dram = DsiDram::new(8, 8, 2);
        let addr = dram.linear_address(1, 1, 1).unwrap();
        dram.vote(addr);
        dram.reset();
        assert_eq!(dram.total_score(), 0);
        assert_eq!(dram.stats().resets, 1);
        assert!(dram.plane_scores(1).iter().all(|&s| s == 0));
    }

    #[test]
    #[should_panic]
    fn zero_dimension_panics() {
        let _ = DsiDram::new(0, 10, 10);
    }

    #[test]
    fn load_scores_overwrites_without_stats() {
        let mut dram = DsiDram::new(4, 4, 2);
        let image: Vec<u16> = (0..32).collect();
        dram.load_scores(&image);
        assert_eq!(dram.scores(), image.as_slice());
        assert_eq!(dram.stats(), DramStats::default());
    }

    #[test]
    #[should_panic]
    fn load_scores_rejects_wrong_length() {
        let mut dram = DsiDram::new(4, 4, 2);
        dram.load_scores(&[0; 3]);
    }

    #[test]
    fn clear_stats_keeps_scores() {
        let mut dram = DsiDram::new(4, 4, 1);
        let addr = dram.linear_address(2, 2, 0).unwrap();
        dram.vote(addr);
        dram.clear_stats();
        assert_eq!(dram.stats(), DramStats::default());
        assert_eq!(dram.score(2, 2, 0), Some(1));
    }
}
