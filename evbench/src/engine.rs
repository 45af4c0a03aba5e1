//! Building sessions on a named backend, optionally under the probe.

use crate::probe::{Probe, SharedCounts};
use crate::trace::Tracer;
use eventor_core::{
    CosimBackend, EventorOptions, EventorSession, ExecutionBackend, ParallelConfig, ShardedBackend,
    SoftwareBackend,
};
use eventor_emvs::{EmvsConfig, EmvsError};
use eventor_geom::CameraModel;
use eventor_hwsim::AcceleratorConfig;

/// The backends the workloads run sessions on, all on the accelerator
/// datapath (quantized, nearest voting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Software,
    Sharded(usize),
    Cosim,
}

impl Engine {
    fn backend(
        self,
        camera: CameraModel,
        config: &EmvsConfig,
    ) -> Result<Box<dyn ExecutionBackend>, EmvsError> {
        Ok(match self {
            Engine::Software => Box::new(SoftwareBackend::new(
                camera,
                config,
                EventorOptions::accelerator(),
            )?),
            Engine::Sharded(shards) => Box::new(ShardedBackend::new(
                camera,
                config,
                EventorOptions::accelerator(),
                ParallelConfig::with_shards(shards),
            )?),
            Engine::Cosim => Box::new(CosimBackend::new(
                camera,
                config,
                AcceleratorConfig::default(),
                ParallelConfig::sequential(),
            )?),
        })
    }

    /// A plain session: the backend exactly as a user builds it.
    pub fn session(
        self,
        camera: CameraModel,
        config: &EmvsConfig,
    ) -> Result<EventorSession, EmvsError> {
        let builder = EventorSession::builder(camera, config.clone());
        match self {
            Engine::Software => builder.software(EventorOptions::accelerator()),
            Engine::Sharded(shards) => builder.sharded(
                EventorOptions::accelerator(),
                ParallelConfig::with_shards(shards),
            ),
            Engine::Cosim => builder.cosim(AcceleratorConfig::default()),
        }
        .build()
    }

    /// A session whose backend sits under the probe; `replay` adds the
    /// kernel/DSI replay of every frame.
    pub fn probed_session(
        self,
        camera: CameraModel,
        config: &EmvsConfig,
        tracer: &Tracer,
        replay: bool,
    ) -> Result<(EventorSession, SharedCounts), EmvsError> {
        let (probe, counts) = Probe::new(
            self.backend(camera, config)?,
            tracer.clone(),
            replay.then_some((camera, config)),
        )?;
        let session = EventorSession::builder(camera, config.clone())
            .custom_backend(Box::new(probe))
            .build()?;
        Ok((session, counts))
    }
}
