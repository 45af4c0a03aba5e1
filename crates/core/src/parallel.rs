//! Parallel helpers of `eventor-core`, and the shard configuration of the
//! one voting engine.
//!
//! The engine itself — [`VotingEngine`](eventor_emvs::VotingEngine), with
//! its scoped shard runner ([`run_sharded`]) and hoisted per-frame parameter
//! block ([`QuantizedFrameParams`]) — lives in [`eventor_emvs`] and is
//! re-exported here. This module adds [`parallel_map`], the chunked,
//! order-preserving parallel map the co-simulation driver uses for its
//! PS-side per-event stages (distortion correction and Q9.7 transport encoding: pure
//! per-event functions, so the parallel result is bit-identical).

pub use eventor_emvs::{run_sharded, ParallelConfig, QuantizedFrameParams};

/// Order-preserving parallel map: splits `input` into up to `shards`
/// contiguous chunks (capped at the available hardware threads), maps each
/// chunk on its own scoped worker thread, and concatenates the results in
/// chunk order.
///
/// Because `f` is applied per element and the output order is the input
/// order, the result is identical to `input.iter().map(f).collect()` for any
/// shard count — this is what makes the parallel distortion-correction and
/// transport-encoding stages bit-exact.
pub fn parallel_map<T, U, F>(input: &[T], shards: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let shards = shards.min(available).max(1);
    if shards == 1 || input.len() < 2 * shards {
        return input.iter().map(f).collect();
    }
    let chunk = input.len().div_ceil(shards);
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = input
            .chunks(chunk)
            .map(|part| scope.spawn(move || part.iter().map(f).collect::<Vec<U>>()))
            .collect();
        let mut out = Vec::with_capacity(input.len());
        for handle in handles {
            out.extend(handle.join().expect("parallel_map worker panicked"));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_is_order_preserving_and_exact() {
        let input: Vec<u64> = (0..10_001).collect();
        let sequential: Vec<u64> = input.iter().map(|x| x * 3 + 1).collect();
        for shards in [1, 2, 3, 8, 64] {
            assert_eq!(
                parallel_map(&input, shards, |x| x * 3 + 1),
                sequential,
                "shards {shards}"
            );
        }
        // Tiny inputs fall back to the sequential path.
        assert_eq!(parallel_map(&input[..3], 8, |x| x + 1), vec![1, 2, 3]);
        assert_eq!(
            parallel_map::<u64, u64, _>(&[], 4, |x| *x),
            Vec::<u64>::new()
        );
    }

    #[test]
    fn hoisted_params_match_golden_model() {
        use crate::quantized::{QuantizedCoefficients, QuantizedHomography};
        use eventor_dsi::DepthPlanes;
        use eventor_emvs::FrameGeometry;
        use eventor_fixed::{kernel, PackedCoord};
        use eventor_geom::{CameraIntrinsics, Pose, Vec3};

        let intrinsics = CameraIntrinsics::davis240_default();
        let planes = DepthPlanes::uniform_inverse_depth(1.0, 5.0, 30).unwrap();
        let geometry = FrameGeometry::compute(
            &Pose::identity(),
            &Pose::from_translation(Vec3::new(0.06, -0.03, 0.01)),
            &intrinsics,
            &planes,
        )
        .unwrap();
        let params = QuantizedFrameParams::from_geometry(&geometry);
        let qh = QuantizedHomography::from_homography(&geometry.homography);
        let qphi = QuantizedCoefficients::from_coefficients(&geometry.coefficients);
        assert_eq!(params.num_planes(), qphi.len());
        // The hoisted block is the golden model's raw words, verbatim — the
        // hoist copies storage, it no longer re-derives arithmetic.
        assert_eq!(params.coefficients(), qphi.words());
        for &(x, y) in &[(10.0, 10.0), (120.5, 90.25), (230.0, 170.0)] {
            let coord = PackedCoord::from_f64(x, y);
            let via_params = params.project(coord);
            let via_golden = qh.project(coord);
            assert_eq!(via_params, via_golden);
            if let Some(c) = via_golden {
                for (i, phi) in params.coefficients().iter().enumerate() {
                    let golden = qphi.transfer_nearest(c, i, 240, 180);
                    assert_eq!(kernel::transfer_nearest(phi, c, 240, 180), golden);
                }
            }
        }
    }
}
