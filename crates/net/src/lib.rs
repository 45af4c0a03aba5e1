//! # eventor-net
//!
//! The TCP serving front-end of the Eventor reproduction: the versioned
//! **`eventor-wire/1`** protocol putting the multi-session serving engine
//! (`eventor-serve`) behind a socket, entirely on `std::net` — no runtime,
//! no framework, hermetic like everything else in the workspace.
//!
//! `eventor-wire/1` is a length-prefixed binary protocol following the
//! `eventor-evtr/1` container conventions: little-endian integers, a
//! versioned header with zero-checked reserved bytes, length-prefixed
//! sections and a trailing FNV-1a 64 checksum per frame. A connection
//! admits sessions from declarative manifests (corpus scenario by name, or
//! an inline `eventor-fuzzworld/1` spec), streams poses and events in,
//! receives lifecycle notifications and bit-exact depth maps back, and
//! ends with an ordered shutdown. Engine backpressure is surfaced as
//! **credit-grant flow control**: every ack and poll reply carries how many
//! events the server guarantees to accept next, so a well-behaved client
//! never loses data, while a misbehaving one gets a typed short-write ack —
//! never silent truncation. The full grammar and state machine live in
//! `docs/WIRE.md`.
//!
//! Served sessions are built through the exact golden construction path
//! (`eventor_scenarios::session_for_profile`), so a depth map streamed over
//! TCP is **bit-identical** to one computed in-process: the loopback
//! equivalence suite pins every corpus world's remote digest to the
//! committed golden table, and the `wire_loopback` bench holds the line at
//! hundreds of concurrent clients.
//!
//! The server is a **single-threaded readiness loop** over nonblocking
//! sockets (no thread per connection, no fixed poll tick): per-connection
//! read/write state machines, vectored-write send buffering, a connection
//! limit and metrics-driven session admission control that answer overload
//! with a typed [`code::OVERLOADED`] reply, and `Ping`/`Pong` keepalive
//! (wire v1.1) so idle-but-alive clients are distinguishable from dead
//! peers — see [`NetConfig`], [`AdmissionConfig`] and [`KeepaliveConfig`].
//!
//! ## Example
//!
//! ```
//! use eventor_net::{
//!     spawn_loopback, ManifestSource, NetConfig, SessionManifest, WireClient,
//! };
//! use eventor_scenarios::{find, BackendKind, Scenario};
//!
//! # fn main() -> Result<(), eventor_net::WireError> {
//! let server = spawn_loopback(NetConfig::new())?;
//! let mut client = WireClient::connect(server.addr())?;
//!
//! let scenario = find("shake_closeup").expect("corpus scenario");
//! let world = scenario.build(scenario.default_seed()).expect("world");
//! let id = client.admit(&SessionManifest {
//!     backend: BackendKind::Software,
//!     source: ManifestSource::Scenario {
//!         name: "shake_closeup".into(),
//!         seed: scenario.default_seed(),
//!     },
//! })?;
//! client.send_trajectory(id, &world.trajectory)?;
//! let mut offset = 0;
//! while offset < world.events.len() {
//!     let take = (world.events.len() - offset).min(client.credits(id) as usize);
//!     if take == 0 {
//!         client.poll(id)?;
//!         continue;
//!     }
//!     let events = &world.events.as_slice()[offset..offset + take];
//!     offset += client.send_events(id, events)? as usize;
//! }
//! let report = client.finish(id)?;
//! // Server digest, client recomputation and the golden table all agree.
//! assert_eq!(report.digest, client.digest(id));
//! assert_eq!(report.digest, eventor_scenarios::golden_digest("shake_closeup").unwrap());
//! client.bye()?;
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod client;
mod frame_io;
mod manifest;
mod server;
mod wire;

pub use client::{FinishReport, WireClient};
pub use frame_io::{read_frame, write_frame, IdleWait};
pub use manifest::{ManifestSource, SessionManifest};
pub use server::{
    spawn_loopback, AdmissionConfig, KeepaliveConfig, NetConfig, ServerHandle, WireServer,
};
pub use wire::{
    code, decode_frame, digest_of_depth_maps, encode_frame, trajectory_samples, DepthMapFrame,
    WireError, WireFrame, WireSessionEvent, CHECKSUM_LEN, DEFAULT_MAX_PAYLOAD, HEADER_LEN,
    WIRE_MAGIC, WIRE_VERSION,
};
