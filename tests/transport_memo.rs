//! The process-wide memo behind `TransportTable::shared`: sessions built on
//! one camera share one table, and another camera gets its own.
//!
//! A binary of its own: the memo holds one camera for the whole process,
//! and the other suites build sessions on other cameras concurrently.

use std::sync::Arc;

use eventor::core::{CosimBackend, EventorOptions, ParallelConfig, VotingEngine};
use eventor::emvs::{EmvsConfig, TransportTable};
use eventor::geom::CameraModel;
use eventor::hwsim::AcceleratorConfig;

fn engine(camera: CameraModel, options: EventorOptions) -> VotingEngine {
    let config = EmvsConfig::default();
    VotingEngine::new(camera, &config, options, ParallelConfig::sequential()).unwrap()
}

fn cosim(camera: CameraModel) -> CosimBackend {
    let config = EmvsConfig::default();
    let accelerator = AcceleratorConfig::default();
    CosimBackend::new(camera, &config, accelerator, ParallelConfig::sequential()).unwrap()
}

#[test]
fn sessions_on_one_camera_share_one_transport_table() {
    let camera = CameraModel::davis240_distorted();
    let table = TransportTable::shared(&camera);
    assert!(Arc::ptr_eq(&table, &TransportTable::shared(&camera)));

    // Both constructors take the memo's table: it is held by the memo,
    // `table` and the two sessions. A float engine takes none.
    let software = engine(camera, EventorOptions::accelerator());
    let device = cosim(camera);
    let float = engine(camera, EventorOptions::exact());
    assert_eq!(Arc::strong_count(&table), 4);

    // A camera one bit away gets a table of its own, which takes the
    // memo's one entry.
    let mut other = camera;
    other.distortion.k1 = f64::from_bits(camera.distortion.k1.to_bits() + 1);
    let other_table = TransportTable::shared(&other);
    assert!(!Arc::ptr_eq(&table, &other_table));
    assert_eq!(Arc::strong_count(&table), 3);
    let other_software = engine(other, EventorOptions::quantized_only());
    assert_eq!(Arc::strong_count(&other_table), 3);

    // The first camera again: the memo builds it anew.
    let again = TransportTable::shared(&camera);
    assert!(!Arc::ptr_eq(&table, &again));
    drop((software, device, float, other_software));
    assert_eq!(Arc::strong_count(&table), 1);
    assert_eq!(Arc::strong_count(&other_table), 1);
}
