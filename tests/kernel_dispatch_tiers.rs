//! Golden-digest sweep with every kernel dispatch tier forced in turn
//! (`docs/ARCHITECTURE.md` §batched-kernel): the SIMD and scalar tiers of
//! `eventor_fixed::kernel::batch` must be bit-identical not just at the
//! kernel faces (the proptests in `crates/fixed`) but through the complete
//! reconstruction pipeline — software and sharded backends, projection,
//! cache-blocked voting, detection, digesting.
//!
//! CI additionally runs the kernel, DSI and end-to-end suites under
//! `EVENTOR_KERNEL_DISPATCH=scalar` (the `kernel-dispatch` job), which
//! exercises the env-resolution path this test bypasses via
//! [`batch::force`].

use eventor::fixed::kernel::batch::{self, Dispatch};
use eventor::scenarios::{digest_world, find, golden_digest, BackendKind, Scenario, ScenarioWorld};

fn worlds() -> Vec<ScenarioWorld> {
    ["orbit_burst", "shake_closeup"]
        .iter()
        .map(|name| {
            let s = find(name).expect("corpus scenario exists");
            s.build(s.default_seed()).expect("corpus worlds build")
        })
        .collect()
}

/// One test owns the process-global tier override for the whole binary:
/// integration-test binaries run `#[test]`s concurrently, so splitting the
/// sweep across tests would race on [`batch::force`].
#[test]
fn every_supported_tier_reconstructs_the_committed_goldens() {
    let worlds = worlds();
    for tier in Dispatch::ALL.into_iter().filter(|t| t.is_supported()) {
        batch::force(Some(tier)).expect("supported tier pins");
        assert_eq!(batch::active(), tier, "forced tier is not active");
        for world in &worlds {
            for backend in [BackendKind::Software, BackendKind::Sharded] {
                let digest = digest_world(world, backend).expect("run succeeds");
                assert_eq!(
                    Some(digest),
                    golden_digest(&world.name),
                    "{} on {backend} with the '{}' tier diverged from the golden digest",
                    world.name,
                    tier.name(),
                );
            }
        }
    }
    batch::force(None).expect("override clears");
}
