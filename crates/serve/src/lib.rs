//! # eventor-serve
//!
//! The **multi-session serving engine**: one [`ServeEngine`] multiplexes any
//! number of independent streaming
//! [`EventorSession`](eventor_core::EventorSession)s — heavy traffic from
//! many concurrent producers — over a **bounded worker pool**, the host-side
//! analogue of the paper's time-multiplexed processing elements.
//!
//! The serving tier sits on top of `eventor-core`'s session API, so every
//! execution backend (software, sharded, co-simulated device, custom) works
//! per session, in any mix. What the engine adds:
//!
//! * **Fair round-robin scheduling** — each [`pump`](ServeEngine::pump)
//!   round grants every runnable session one bounded ingestion quantum
//!   ([`ServeConfig::quantum_events`]); sessions are assigned to workers
//!   round-robin (`id mod workers`), so a heavy stream can delay but never
//!   starve a light one.
//! * **Per-session bounded ingest queues** with the session layer's exact
//!   backpressure semantics ([`EmvsError::Backpressure`](eventor_emvs::EmvsError),
//!   `write(2)`-style short writes) — total in-flight memory is
//!   `O(sessions)`, never `O(traffic)`.
//! * **Lifecycle fan-out** — per-session
//!   [`SessionEvent`](eventor_emvs::SessionEvent) delivery via
//!   [`poll_session`](ServeEngine::poll_session), engine-level [`ServeEvent`]s
//!   (admitted / stalled / failed / finished) via
//!   [`poll_serve`](ServeEngine::poll_serve).
//! * **Serving metrics** — per-session and aggregate events/s, depth maps/s,
//!   queue depths and worker-pool utilisation ([`SessionMetrics`],
//!   [`ServeMetrics`]).
//! * **Graceful drain and shutdown** — [`drain`](ServeEngine::drain) pumps
//!   until quiescent and attributes any wedge to the session that caused it;
//!   [`shutdown`](ServeEngine::shutdown) returns every session's terminal
//!   result.
//!
//! ## Bit-identity under interleaving
//!
//! Sessions share compute but no state, and each session's input is
//! delivered in enqueue order, so the engine's output per session is
//! **bit-identical** to running that stream standalone — for every backend,
//! every worker count, and every interleaving of enqueues and pumps. This is
//! the `eventor-serve/1` contract (`docs/ARCHITECTURE.md` §7), proven by
//! `tests/serve_equivalence.rs` (including proptest-random interleaving
//! schedules).
//!
//! Operational guidance — worker-count sizing, queue/quantum tuning, backend
//! selection per session, the metrics field reference and drain semantics —
//! lives in `docs/SERVING.md`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;
pub mod loadgen;
mod metrics;
mod queue;

pub use engine::{
    PumpStats, ServeConfig, ServeEngine, ServeError, ServeEvent, SessionId, DEFAULT_QUANTUM_EVENTS,
    DEFAULT_QUEUE_CAPACITY,
};
pub use loadgen::{drive, LoadShape, LoadStream};
pub use metrics::{MetricsSnapshot, ServeMetrics, SessionMetrics, SessionStatus};
