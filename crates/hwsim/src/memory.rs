//! On-chip buffer inventory: the double-buffered BRAMs of the projection
//! modules, sized for a configuration (Table 2's BRAM). The time the DMA
//! input path and the DDR3 DSI traffic take is part of the frame cost in
//! [`crate::schedule`].

use crate::timing::AcceleratorConfig;

/// A ping-pong pair of identical BRAM banks.
///
/// While the datapath consumes one bank, the DMA fills the other; the banks
/// are swapped at frame boundaries under control of the module FSMs. This is
/// the mechanism that lets Eventor overlap data transfer with processing.
/// The model keeps the bank size, which the resource estimate counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DoubleBuffer {
    /// Capacity of each bank, in bytes.
    pub bank_bytes: usize,
}

impl DoubleBuffer {
    /// Total BRAM bytes of both banks.
    pub fn total_bytes(&self) -> usize {
        2 * self.bank_bytes
    }
}

/// The full on-chip buffer inventory of the Eventor prototype.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferInventory {
    /// Event buffer `Buf_E` (packed input coordinates).
    pub buf_e: DoubleBuffer,
    /// Intermediate buffer `Buf_I` (canonical projections), one per `PE_Zi`.
    pub buf_i: Vec<DoubleBuffer>,
    /// Proportional-coefficient buffer `Buf_P`.
    pub buf_p: DoubleBuffer,
    /// Vote-address buffer `Buf_V`.
    pub buf_v: DoubleBuffer,
}

impl BufferInventory {
    /// Builds the buffer inventory for a configuration.
    pub fn new(config: &AcceleratorConfig) -> Self {
        // Bank capacities are rounded up to whole BRAM18 primitives (2 KB).
        let bank = |bytes: usize| DoubleBuffer {
            bank_bytes: bytes.next_multiple_of(2 * 1024),
        };
        Self {
            buf_e: bank(config.events_per_frame * 4),
            buf_i: vec![bank(config.events_per_frame * 4); config.num_pe_zi],
            buf_p: bank(config.num_depth_planes * 3 * 4),
            // Vote addresses are produced in batches; the buffer holds one
            // batch of per-plane addresses for a block of events.
            buf_v: bank(16 * 1024),
        }
    }

    /// Total BRAM bytes used by all buffers.
    pub fn total_bram_bytes(&self) -> usize {
        self.buf_e.total_bytes()
            + self
                .buf_i
                .iter()
                .map(DoubleBuffer::total_bytes)
                .sum::<usize>()
            + self.buf_p.total_bytes()
            + self.buf_v.total_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::dsi_for;
    use crate::schedule::{frame_timing, FrameKind};

    #[test]
    fn dma_transfer_scales_with_frame_size() {
        let base = AcceleratorConfig::default();
        let small = AcceleratorConfig::default().with_events_per_frame(256);
        let dma = |config| frame_timing(config, FrameKind::Normal).dma_cycles;
        assert!(dma(&base) > dma(&small));
        assert!(dma(&small) > base.dma_setup_cycles);
    }

    #[test]
    fn dsi_footprint_matches_quantized_size() {
        let config = AcceleratorConfig::default();
        // The DSI the device votes into: 240 x 180 x 100 voxels x 2 bytes
        // = 8.64 MB.
        assert_eq!(dsi_for(&config).score_bytes(), 240 * 180 * 100 * 2);
        let key = frame_timing(&config, FrameKind::Key);
        assert!(key.vote_cycles > 0);
        assert!(key.reset_cycles > 0);
    }

    #[test]
    fn vote_cycles_scale_inversely_with_efficiency() {
        let fast = AcceleratorConfig::default();
        let slow = AcceleratorConfig {
            dram_efficiency: fast.dram_efficiency / 2.0,
            ..fast.clone()
        };
        let c_fast = frame_timing(&fast, FrameKind::Normal).vote_cycles;
        let c_slow = frame_timing(&slow, FrameKind::Normal).vote_cycles;
        assert!(c_slow > c_fast);
        assert!((c_slow as f64 / c_fast as f64 - 2.0).abs() < 0.01);
    }

    #[test]
    fn buffer_inventory_counts_pe_zi_buffers() {
        let two = BufferInventory::new(&AcceleratorConfig::default());
        let four = BufferInventory::new(&AcceleratorConfig::default().with_pe_zi(4));
        assert_eq!(two.buf_i.len(), 2);
        assert_eq!(four.buf_i.len(), 4);
        assert!(four.total_bram_bytes() > two.total_bram_bytes());
        // The prototype's buffers fit comfortably in the 64 KB reported in Table 2.
        assert!(two.total_bram_bytes() <= 64 * 1024);
    }
}
