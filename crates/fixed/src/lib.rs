//! # eventor-fixed
//!
//! Fixed-point arithmetic substrate implementing the **hybrid data
//! quantization** strategy of the Eventor accelerator (Table 1 of the paper):
//!
//! * event coordinates and canonical back-projections in **Q9.7** (16 bit),
//! * per-plane projections as **8-bit integers** (nearest voting only needs
//!   the rounded pixel),
//! * the homography `H_{Z0}` and the proportional coefficients `φ` in
//!   **Q11.21** (32 bit),
//! * DSI scores as **16-bit integers**.
//!
//! The quantized datapaths are built exclusively on these types, so the
//! accuracy comparison of Fig. 4b / Fig. 7a exercises exactly the arithmetic
//! the RTL would perform. [`Fix`] only stores and converts.
//!
//! The [`kernel`] module is the **bit-true integer datapath kernel**: the
//! single implementation of the Table 1 arithmetic (wide-MAC canonical
//! projection, normalization with the projection-missing judgement,
//! per-plane scalar MAC, Nearest Voxel Finder). The voting engine, the
//! golden-model tests and the functional device model (`eventor-hwsim`'s
//! `EventorDevice`) all call it directly on the per-frame parameter block
//! of `eventor-emvs` — integer end to end, no `f64` between quantization
//! points.
//!
//! ## Example
//!
//! ```
//! use eventor_fixed::{PackedCoord, Q9p7, Q11p21};
//!
//! // An event coordinate quantized for the 32-bit AXI bus.
//! let coord = PackedCoord::from_f64(133.75, 71.5);
//! assert_eq!(PackedCoord::from_word(coord.to_word()), coord);
//!
//! // Homography entries keep ~6 decimal digits in Q11.21.
//! let h = Q11p21::from_f64(0.99973);
//! assert!((h.to_f64() - 0.99973).abs() < 1e-6);
//! # let _ = Q9p7::from_f64(1.0);
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod fix;
mod formats;
pub mod kernel;
mod quantize;

pub use fix::{Fix, FixedStorage};
pub use formats::{
    frame_memory_footprint, DsiScore, PackedCoord, PlaneCoord, Q11p21, Q9p7, QuantizationSpec,
    TABLE1_STRATEGY,
};
pub use quantize::{analyze, round_trip, QuantizationReport};
