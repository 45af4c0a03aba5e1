//! Transaction-level model of the AXI interconnect between the programmable
//! logic and the PS memory system.
//!
//! An [`AxiPort`] models one master port of the Zynq-7000 fabric: the
//! **AXI-GP/DMA path** that streams event frames and per-frame parameters
//! into the on-chip buffers (`Buf_E`, `Buf_P`, `Buf_H`) through the
//! [`crate::DmaEngine`], or an **AXI-HP port** into the DDR3 controller.
//!
//! The model is transaction-level, not signal-level: a burst is charged an
//! issue latency plus a payload time derived from the port's sustainable
//! bandwidth. Its counters (bytes, transactions, busy cycles) feed the DMA
//! engine's statistics only. The energy model and the Table 3 runtime
//! breakdown read the device's [`crate::FrameExecution`] records, and the
//! Vote Execute Unit's DSI traffic is counted in [`crate::DramStats`] and
//! timed by [`crate::AcceleratorConfig::votes_per_cycle`].

use crate::timing::Cycles;

/// Direction of an AXI burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AxiDirection {
    /// Memory-to-fabric transfer (read from DDR).
    Read,
    /// Fabric-to-memory transfer (write to DDR).
    Write,
}

/// One AXI burst transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AxiBurst {
    /// Byte address of the first beat.
    pub address: u64,
    /// Number of data beats in the burst (AXI allows up to 256).
    pub beats: u32,
    /// Bytes per beat (the HP ports are 64-bit, the GP port 32-bit).
    pub bytes_per_beat: u32,
    /// Transfer direction.
    pub direction: AxiDirection,
}

impl AxiBurst {
    /// Creates a read burst.
    pub fn read(address: u64, beats: u32, bytes_per_beat: u32) -> Self {
        Self {
            address,
            beats,
            bytes_per_beat,
            direction: AxiDirection::Read,
        }
    }

    /// Creates a write burst.
    pub fn write(address: u64, beats: u32, bytes_per_beat: u32) -> Self {
        Self {
            address,
            beats,
            bytes_per_beat,
            direction: AxiDirection::Write,
        }
    }

    /// Payload size of the burst in bytes.
    pub fn bytes(&self) -> u64 {
        self.beats as u64 * self.bytes_per_beat as u64
    }
}

/// Accumulated traffic counters of one AXI port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AxiPortStats {
    /// Number of read bursts issued.
    pub read_transactions: u64,
    /// Number of write bursts issued.
    pub write_transactions: u64,
    /// Bytes read from memory.
    pub bytes_read: u64,
    /// Bytes written to memory.
    pub bytes_written: u64,
    /// Fabric cycles the port spent busy.
    pub busy_cycles: Cycles,
}

impl AxiPortStats {
    /// Total bursts issued.
    pub fn transactions(&self) -> u64 {
        self.read_transactions + self.write_transactions
    }

    /// Total bytes moved in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

/// A single AXI master port with a fixed issue latency and sustainable
/// bandwidth.
#[derive(Debug, Clone, PartialEq)]
pub struct AxiPort {
    name: String,
    /// Cycles of address/handshake latency charged per burst.
    issue_latency: Cycles,
    /// Sustainable payload bandwidth, bytes per fabric cycle.
    bytes_per_cycle: f64,
    stats: AxiPortStats,
}

impl AxiPort {
    /// Creates a port.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` is not strictly positive.
    pub fn new(name: impl Into<String>, issue_latency: Cycles, bytes_per_cycle: f64) -> Self {
        assert!(bytes_per_cycle > 0.0, "AXI port bandwidth must be positive");
        Self {
            name: name.into(),
            issue_latency,
            bytes_per_cycle,
            stats: AxiPortStats::default(),
        }
    }

    /// A 64-bit AXI-HP port as configured on the XC7Z020 (high-performance
    /// path into the DDR controller).
    pub fn hp_default(index: usize) -> Self {
        Self::new(format!("AXI_HP{index}"), 12, 4.0)
    }

    /// The general-purpose DMA path used for input streaming.
    pub fn gp_dma_default() -> Self {
        Self::new("AXI_GP_DMA", 20, 4.0)
    }

    /// The port's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Issues a burst on this port and returns the cycles it occupies the
    /// port.
    pub fn issue(&mut self, burst: AxiBurst) -> Cycles {
        let payload_cycles = (burst.bytes() as f64 / self.bytes_per_cycle).ceil() as Cycles;
        let cycles = self.issue_latency + payload_cycles;
        match burst.direction {
            AxiDirection::Read => {
                self.stats.read_transactions += 1;
                self.stats.bytes_read += burst.bytes();
            }
            AxiDirection::Write => {
                self.stats.write_transactions += 1;
                self.stats.bytes_written += burst.bytes();
            }
        }
        self.stats.busy_cycles += cycles;
        cycles
    }

    /// Traffic counters accumulated so far.
    pub fn stats(&self) -> AxiPortStats {
        self.stats
    }

    /// Fraction of `elapsed_cycles` the port spent busy.
    pub fn utilization(&self, elapsed_cycles: Cycles) -> f64 {
        if elapsed_cycles == 0 {
            return 0.0;
        }
        self.stats.busy_cycles as f64 / elapsed_cycles as f64
    }

    /// Clears the traffic counters.
    pub fn clear_stats(&mut self) {
        self.stats = AxiPortStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_payload_sizes() {
        let b = AxiBurst::read(0x1000, 16, 8);
        assert_eq!(b.bytes(), 128);
        assert_eq!(b.direction, AxiDirection::Read);
        let w = AxiBurst::write(0x2000, 4, 4);
        assert_eq!(w.bytes(), 16);
        assert_eq!(w.direction, AxiDirection::Write);
    }

    #[test]
    fn port_charges_latency_plus_payload() {
        let mut port = AxiPort::new("AXI_HP0", 10, 4.0);
        let cycles = port.issue(AxiBurst::read(0, 16, 8)); // 128 bytes
        assert_eq!(cycles, 10 + 32);
        let stats = port.stats();
        assert_eq!(stats.read_transactions, 1);
        assert_eq!(stats.bytes_read, 128);
        assert_eq!(stats.busy_cycles, 42);
        assert!((port.utilization(84) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn writes_and_reads_are_tracked_separately() {
        let mut port = AxiPort::gp_dma_default();
        port.issue(AxiBurst::write(0, 8, 4));
        port.issue(AxiBurst::read(64, 8, 4));
        let s = port.stats();
        assert_eq!(s.read_transactions, 1);
        assert_eq!(s.write_transactions, 1);
        assert_eq!(s.total_bytes(), 64);
        assert_eq!(s.transactions(), 2);
        port.clear_stats();
        assert_eq!(port.stats(), AxiPortStats::default());
        assert_eq!(port.name(), "AXI_GP_DMA");
    }

    #[test]
    fn utilization_of_idle_port_is_zero() {
        let port = AxiPort::hp_default(1);
        assert_eq!(port.utilization(0), 0.0);
        assert_eq!(port.utilization(100), 0.0);
        assert_eq!(port.name(), "AXI_HP1");
    }

    #[test]
    #[should_panic]
    fn zero_bandwidth_port_panics() {
        let _ = AxiPort::new("bad", 1, 0.0);
    }
}
