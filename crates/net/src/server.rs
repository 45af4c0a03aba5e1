//! The `eventor-wire/1` TCP server: a readiness-loop front-end over one
//! [`ServeEngine`].
//!
//! ## Architecture
//!
//! One thread owns everything: the nonblocking listener, every connection's
//! read/write state machine, and the engine itself (no mutex — the loop is
//! the only accessor). Each sweep accepts pending connections, drains
//! readable sockets into per-connection reassembly buffers, dispatches every
//! complete frame, runs timeout/keepalive bookkeeping, and flushes outboxes
//! with vectored writes. When a sweep makes no progress the loop sleeps with
//! an adaptive backoff (200 µs doubling to 5 ms) — the 5 ms ceiling is the
//! coarse fallback timer for timeout bookkeeping and shutdown observation,
//! replacing the old fixed 25 ms poll tick. A slow or dead peer can never
//! block the loop: writes buffer in the connection's outbox and everything
//! nonblocking-fails forward.
//!
//! ## Connection protocol
//!
//! Every connection opens with `Hello` / `HelloOk` (capability exchange),
//! then issues any number of session and connection frames, and ends with
//! `Bye` / `ByeOk` — the ordered shutdown. Sessions are **owned by the
//! connection that admitted them**: frames naming another connection's
//! session get a typed `Error` reply, and when a connection ends — orderly
//! or not — every unfinished session it owns is
//! [`abort`](ServeEngine::abort)ed, so a vanished client surfaces as
//! `SessionFailed` in the engine's lifecycle feed instead of wedging the
//! drain.
//!
//! ## Admission control
//!
//! Two capacity gates, both replying typed — never a hang, never silence:
//!
//! * **connection limit** ([`NetConfig::max_conns`]): accepts past the cap
//!   get an `Error` frame with [`code::OVERLOADED`] and an immediate close;
//! * **session admission** ([`AdmissionConfig`]): `Admit` frames are
//!   rejected with [`code::OVERLOADED`] while the engine is over its live
//!   session cap or aggregate ingest-queue fraction. The connection stays
//!   usable and the client may retry.
//!
//! ## Keepalive
//!
//! With [`KeepaliveConfig`] enabled, a connection idle past the interval is
//! sent a `Ping`; any inbound traffic (a `Pong` or any other frame) proves
//! liveness. Only after [`KeepaliveConfig::max_misses`] unanswered pings is
//! the peer reaped — so an idle-but-alive client survives indefinitely while
//! a dead peer is distinguished and its sessions aborted (`docs/WIRE.md`
//! §7).
//!
//! ## Error discipline
//!
//! *Wire-level* violations (bad magic, checksum mismatch, malformed
//! payloads, a mid-frame stall past the read timeout) are unrecoverable for
//! the connection: the server sends a best-effort `Error` frame naming the
//! violation and closes. *Semantic* refusals (unknown scenario, duplicate
//! session id, closed session, overload) are typed `Rejected`/`Error`
//! replies and the connection stays usable. No client bytes — corrupt,
//! truncated, hostile — ever panic the server (`tests/` corruption suite).

use crate::manifest::SessionManifest;
use crate::wire::{
    code, decode_frame, decode_header, encode_frame, DepthMapFrame, WireError, WireFrame,
    WireSessionEvent, CHECKSUM_LEN, DEFAULT_MAX_PAYLOAD, HEADER_LEN,
};
use eventor_emvs::{EmvsError, KeyframeReconstruction};
use eventor_scenarios::digest_output;
use eventor_serve::{ServeConfig, ServeEngine, ServeError};
use std::collections::{HashMap, VecDeque};
use std::io::{IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Keepalive policy of a [`WireServer`] (`docs/WIRE.md` §7).
///
/// After a connection has been idle for [`interval`](Self::interval) the
/// server sends a `Ping`; every further interval without **any** inbound
/// traffic counts one miss, and at [`max_misses`](Self::max_misses) the peer
/// is declared dead: a best-effort `Error` naming the keepalive expiry is
/// sent, the connection is closed, and its unfinished sessions are aborted.
/// Any inbound byte resets the miss count — a busy peer is never pinged and
/// a slow-but-alive one is never reaped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeepaliveConfig {
    /// Idle time before the first `Ping`, and the patience per miss after
    /// it. [`Duration::ZERO`] disables keepalive entirely.
    pub interval: Duration,
    /// Unanswered pings tolerated before the peer is reaped (min 1).
    pub max_misses: u32,
}

impl KeepaliveConfig {
    /// The default policy: ping after 30 s idle, reap after 3 misses.
    pub fn new() -> Self {
        Self {
            interval: Duration::from_secs(30),
            max_misses: 3,
        }
    }

    /// A policy pinging after `interval` idle (3 misses).
    pub fn every(interval: Duration) -> Self {
        Self {
            interval,
            max_misses: 3,
        }
    }

    /// Disables keepalive: idle connections are never probed or reaped.
    pub fn disabled() -> Self {
        Self {
            interval: Duration::ZERO,
            max_misses: 3,
        }
    }

    /// Replaces the miss budget (clamped to at least 1).
    pub fn with_max_misses(mut self, max_misses: u32) -> Self {
        self.max_misses = max_misses.max(1);
        self
    }

    /// Whether the policy probes at all.
    pub fn enabled(&self) -> bool {
        self.interval > Duration::ZERO
    }
}

impl Default for KeepaliveConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Session-admission policy of a [`WireServer`], driven by the engine's own
/// live-session count (`docs/SERVING.md` sizing notes).
///
/// When the gate trips, `Admit` is answered with `Rejected` carrying
/// [`code::OVERLOADED`]; the connection stays usable and the client may
/// retry once load drains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Most sessions allowed to be live (active + draining + failed) at
    /// once. `0` means unlimited.
    pub max_sessions: usize,
}

impl AdmissionConfig {
    /// The default policy: no limits (every `Admit` is considered).
    pub fn new() -> Self {
        Self { max_sessions: 0 }
    }

    /// Replaces the live-session cap (`0` = unlimited).
    pub fn with_max_sessions(mut self, max_sessions: usize) -> Self {
        self.max_sessions = max_sessions;
        self
    }
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Configuration of a [`WireServer`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Configuration of the underlying serving engine.
    pub serve: ServeConfig,
    /// Largest payload accepted per frame, in bytes (advertised in
    /// `HelloOk`).
    pub max_payload: u32,
    /// How long a peer may stall **mid-frame** (or a closing connection may
    /// take to drain its outbox) before it is abandoned with
    /// [`WireError::Timeout`]. Idle waits between frames are not bounded by
    /// this — see [`keepalive`](Self::keepalive) for idle-peer policy.
    pub read_timeout: Duration,
    /// Most simultaneous connections served; accepts past the cap are
    /// answered with `Error`/[`code::OVERLOADED`] and closed. `0` means
    /// unlimited.
    pub max_conns: usize,
    /// Idle-connection probing policy.
    pub keepalive: KeepaliveConfig,
    /// Session-admission policy.
    pub admission: AdmissionConfig,
}

impl NetConfig {
    /// A configuration suitable for loopback serving and tests: no
    /// connection or admission limits, 30 s keepalive.
    pub fn new() -> Self {
        Self {
            serve: ServeConfig::new(),
            max_payload: DEFAULT_MAX_PAYLOAD,
            read_timeout: Duration::from_secs(2),
            max_conns: 0,
            keepalive: KeepaliveConfig::new(),
            admission: AdmissionConfig::new(),
        }
    }

    /// Replaces the serving-engine configuration.
    pub fn with_serve(mut self, serve: ServeConfig) -> Self {
        self.serve = serve;
        self
    }

    /// Replaces the mid-frame read timeout.
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Replaces the connection limit (`0` = unlimited).
    pub fn with_max_conns(mut self, max_conns: usize) -> Self {
        self.max_conns = max_conns;
        self
    }

    /// Replaces the keepalive policy.
    pub fn with_keepalive(mut self, keepalive: KeepaliveConfig) -> Self {
        self.keepalive = keepalive;
        self
    }

    /// Replaces the session-admission policy.
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = admission;
        self
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// One wire session's bookkeeping inside the engine core.
struct NetSession {
    /// The engine-side id the wire id maps to.
    engine_id: eventor_serve::SessionId,
    /// Key frames already streamed to the client as `DepthMap` frames.
    sent_keyframes: usize,
}

/// The engine and the wire-id table — owned by the loop thread, no lock.
///
/// Wire session ids are a **per-connection namespace** — the table key is
/// `(connection, wire id)`, so independent clients may both call their
/// first session `1` and never observe each other.
struct EngineCore {
    engine: ServeEngine,
    sessions: HashMap<(u64, u64), NetSession>,
}

/// State shared between the loop thread and [`ServerHandle`]s.
struct Shared {
    shutdown: AtomicBool,
}

/// A bound, not-yet-running `eventor-wire/1` server.
pub struct WireServer {
    listener: TcpListener,
    config: NetConfig,
    core: EngineCore,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for WireServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireServer")
            .field("addr", &self.listener.local_addr())
            .finish_non_exhaustive()
    }
}

/// Handle to a server running on a background thread; dropping it without
/// [`shutdown`](ServerHandle::shutdown) leaves the server running detached.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals shutdown and joins the server thread. The loop observes the
    /// flag within one fallback tick and closes; unfinished sessions are
    /// aborted.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Floor of the adaptive idle backoff: the first sleep after a sweep that
/// made no progress.
const MIN_IDLE_BACKOFF: Duration = Duration::from_micros(200);

/// Ceiling of the adaptive idle backoff — the coarse fallback timer that
/// bounds how stale timeout/keepalive bookkeeping and the shutdown flag can
/// get while every socket is quiet.
const MAX_IDLE_BACKOFF: Duration = Duration::from_millis(5);

/// Bytes read per `read` call during a connection's read sweep.
const READ_CHUNK: usize = 64 * 1024;

/// Most `READ_CHUNK` reads drained from one connection per sweep, so a
/// firehose peer cannot starve its neighbours within a sweep.
const MAX_READS_PER_SWEEP: usize = 16;

/// Most buffers handed to one vectored write.
const MAX_WRITE_SLICES: usize = 32;

/// Hard per-connection outbox bound: a peer that stops reading while
/// replies accumulate past this is dropped instead of growing the heap.
const MAX_OUTBOX_BYTES: usize = 1 << 30;

impl WireServer {
    /// Binds a listener. Use address `"127.0.0.1:0"` to let the OS pick a
    /// loopback port (read it back with [`local_addr`](Self::local_addr)).
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] when the bind fails.
    pub fn bind(addr: impl ToSocketAddrs, config: NetConfig) -> Result<Self, WireError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let core = EngineCore {
            engine: ServeEngine::new(config.serve),
            sessions: HashMap::new(),
        };
        Ok(Self {
            listener,
            config,
            core,
            shared: Arc::new(Shared {
                shutdown: AtomicBool::new(false),
            }),
        })
    }

    /// The bound address.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] when the socket cannot report it.
    pub fn local_addr(&self) -> Result<SocketAddr, WireError> {
        Ok(self.listener.local_addr()?)
    }

    /// Runs the readiness loop on the calling thread until shutdown is
    /// signalled (via the [`ServerHandle`] of [`spawn`](Self::spawn), or by
    /// `stop` returning true).
    pub fn run_until(self, stop: impl Fn() -> bool) {
        let mut lp = ServerLoop {
            listener: self.listener,
            config: self.config,
            shared: self.shared,
            core: self.core,
            conns: Vec::new(),
            next_conn: 1,
            next_nonce: 1,
        };
        lp.run(stop);
    }

    /// Spawns the readiness loop on a background thread and returns its
    /// handle.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] when the bound address cannot be read back.
    pub fn spawn(self) -> Result<ServerHandle, WireError> {
        let addr = self.local_addr()?;
        let shared = Arc::clone(&self.shared);
        let thread = std::thread::spawn(move || self.run_until(|| false));
        Ok(ServerHandle {
            addr,
            shared,
            thread: Some(thread),
        })
    }
}

/// Binds on a loopback port chosen by the OS and spawns the server — the
/// one-liner behind every loopback test and bench.
///
/// # Errors
///
/// [`WireError::Io`] when the bind fails.
pub fn spawn_loopback(config: NetConfig) -> Result<ServerHandle, WireError> {
    WireServer::bind("127.0.0.1:0", config)?.spawn()
}

/// One connection's read/write state machine.
struct Conn {
    stream: TcpStream,
    /// This connection's id — the first half of every wire-session key.
    id: u64,
    /// Inbound reassembly buffer: zero or one partial frame after each
    /// sweep (complete frames are dispatched in place).
    rbuf: Vec<u8>,
    /// Encoded frames awaiting socket room, oldest first.
    outbox: VecDeque<Vec<u8>>,
    /// Bytes of `outbox.front()` already written.
    out_head: usize,
    /// Total unsent bytes across the outbox.
    out_bytes: usize,
    /// Whether the `Hello`/`HelloOk` handshake completed.
    hello_done: bool,
    /// Set once the connection is condemned: drain the outbox, then drop.
    /// No further inbound bytes are parsed.
    closing: bool,
    /// When `closing` was set — bounds the final drain.
    closing_since: Option<Instant>,
    /// Set when the connection is gone (peer closed, I/O error, drain
    /// finished or timed out); the loop reaps it after the sweep.
    dead: bool,
    /// Last instant any inbound bytes arrived.
    last_rx: Instant,
    /// When the currently outstanding keepalive ping was sent.
    ping_sent: Option<Instant>,
    /// Unanswered pings so far.
    ping_misses: u32,
}

impl Conn {
    fn new(stream: TcpStream, id: u64, now: Instant) -> Self {
        Self {
            stream,
            id,
            rbuf: Vec::new(),
            outbox: VecDeque::new(),
            out_head: 0,
            out_bytes: 0,
            hello_done: false,
            closing: false,
            closing_since: None,
            dead: false,
            last_rx: now,
            ping_sent: None,
            ping_misses: 0,
        }
    }

    /// Queues one frame for delivery.
    fn queue(&mut self, session: u64, frame: &WireFrame) {
        let bytes = encode_frame(session, frame);
        self.out_bytes += bytes.len();
        self.outbox.push_back(bytes);
    }

    /// Condemns the connection: flush what is queued, then close.
    fn begin_close(&mut self, now: Instant) {
        if !self.closing {
            self.closing = true;
            self.closing_since = Some(now);
        }
    }

    /// Queues a best-effort `Error` frame and condemns the connection — the
    /// path every wire-level violation takes.
    fn fail(&mut self, now: Instant, reason: String) {
        self.queue(
            0,
            &WireFrame::Error {
                code: code::PROTOCOL,
                reason,
            },
        );
        self.begin_close(now);
    }
}

/// The running server: listener, connections, engine — one thread, no
/// locks.
struct ServerLoop {
    listener: TcpListener,
    config: NetConfig,
    shared: Arc<Shared>,
    core: EngineCore,
    conns: Vec<Conn>,
    next_conn: u64,
    next_nonce: u64,
}

impl ServerLoop {
    fn run(&mut self, stop: impl Fn() -> bool) {
        let mut backoff = MIN_IDLE_BACKOFF;
        let mut scratch = vec![0u8; READ_CHUNK];
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) || stop() {
                self.shared.shutdown.store(true, Ordering::SeqCst);
                break;
            }
            let mut progress = self.accept_new();
            let now = Instant::now();
            let Self {
                conns,
                core,
                config,
                shared,
                next_nonce,
                ..
            } = self;
            for conn in conns.iter_mut() {
                progress |= sweep_read(conn, &mut scratch, now);
                progress |= parse_and_dispatch(conn, core, config, shared, now);
                check_timeouts(conn, config, next_nonce, now);
                progress |= flush(conn);
                if conn.closing && conn.outbox.is_empty() {
                    conn.dead = true;
                }
            }
            // Reap dead connections; a connection's unfinished sessions die
            // with it, orderly exit or not.
            if conns.iter().any(|c| c.dead) {
                progress = true;
                for conn in conns.iter().filter(|c| c.dead) {
                    abort_owned(core, conn.id);
                }
                conns.retain(|c| !c.dead);
            }
            if progress {
                backoff = MIN_IDLE_BACKOFF;
            } else {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(MAX_IDLE_BACKOFF);
            }
        }
        // Shutdown: one best-effort flush, then abort whatever is left.
        for conn in &mut self.conns {
            let _ = flush(conn);
            abort_owned(&mut self.core, conn.id);
        }
        self.conns.clear();
    }

    /// Drains the accept queue. Connections past the cap get a typed
    /// `OVERLOADED` goodbye instead of a silent reset or an unbounded
    /// backlog.
    fn accept_new(&mut self) -> bool {
        let mut any = false;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    any = true;
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let conn_id = self.next_conn;
                    self.next_conn += 1;
                    let now = Instant::now();
                    let mut conn = Conn::new(stream, conn_id, now);
                    let live = self.conns.iter().filter(|c| !c.closing).count();
                    if self.config.max_conns > 0 && live >= self.config.max_conns {
                        conn.queue(
                            0,
                            &WireFrame::Error {
                                code: code::OVERLOADED,
                                reason: format!(
                                    "server is at its connection limit ({})",
                                    self.config.max_conns
                                ),
                            },
                        );
                        conn.begin_close(now);
                    }
                    self.conns.push(conn);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        any
    }
}

/// Reads whatever the socket has ready (bounded per sweep) into the
/// connection's reassembly buffer.
fn sweep_read(conn: &mut Conn, scratch: &mut [u8], now: Instant) -> bool {
    if conn.dead {
        return false;
    }
    let mut progress = false;
    for _ in 0..MAX_READS_PER_SWEEP {
        match conn.stream.read(scratch) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => {
                progress = true;
                conn.last_rx = now;
                conn.ping_sent = None;
                conn.ping_misses = 0;
                if !conn.closing {
                    conn.rbuf.extend_from_slice(&scratch[..n]);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    progress
}

/// Dispatches every complete frame sitting in the reassembly buffer.
fn parse_and_dispatch(
    conn: &mut Conn,
    core: &mut EngineCore,
    config: &NetConfig,
    shared: &Shared,
    now: Instant,
) -> bool {
    let mut progress = false;
    while !conn.dead && !conn.closing && conn.rbuf.len() >= HEADER_LEN {
        let payload_len = match decode_header(&conn.rbuf[..HEADER_LEN], config.max_payload) {
            Ok((_, _, payload_len)) => payload_len as usize,
            Err(e) => {
                conn.fail(now, e.to_string());
                break;
            }
        };
        let total = HEADER_LEN + payload_len + CHECKSUM_LEN;
        if conn.rbuf.len() < total {
            break;
        }
        progress = true;
        let decoded = decode_frame(&conn.rbuf[..total], config.max_payload);
        conn.rbuf.drain(..total);
        match decoded {
            Ok((wire_id, frame)) => dispatch(conn, core, config, shared, wire_id, frame, now),
            Err(e) => {
                conn.fail(now, e.to_string());
                break;
            }
        }
    }
    progress
}

/// Handles one complete inbound frame.
fn dispatch(
    conn: &mut Conn,
    core: &mut EngineCore,
    config: &NetConfig,
    shared: &Shared,
    wire_id: u64,
    frame: WireFrame,
    now: Instant,
) {
    if !conn.hello_done {
        match frame {
            WireFrame::Hello => {
                conn.hello_done = true;
                conn.queue(
                    0,
                    &WireFrame::HelloOk {
                        max_payload: config.max_payload,
                        queue_capacity: config.serve.queue_capacity() as u64,
                    },
                );
            }
            other => {
                conn.fail(
                    now,
                    WireError::UnexpectedFrame {
                        expected: "Hello",
                        found: other.kind_name(),
                    }
                    .to_string(),
                );
            }
        }
        return;
    }
    match frame {
        WireFrame::Bye => {
            conn.queue(0, &WireFrame::ByeOk);
            conn.begin_close(now);
        }
        WireFrame::Ping { nonce } => {
            conn.queue(wire_id, &WireFrame::Pong { nonce });
        }
        WireFrame::Pong { .. } => {
            // Liveness was already proven by the bytes themselves
            // (`sweep_read` cleared the outstanding ping); nothing to
            // answer.
        }
        WireFrame::Metrics => {
            let json = core.engine.metrics_snapshot().to_json();
            conn.queue(wire_id, &WireFrame::MetricsReply { json });
        }
        WireFrame::Admit { manifest } => {
            let reply = admit(core, config, shared, conn.id, wire_id, &manifest);
            conn.queue(wire_id, &reply);
        }
        WireFrame::Poses { samples } => {
            let reply = with_session(core, conn.id, wire_id, |core, id| {
                for (timestamp, pose) in &samples {
                    if let Err(e) = core.engine.enqueue_pose(id, *timestamp, *pose) {
                        return serve_error_reply(&e);
                    }
                }
                WireFrame::Ok
            });
            conn.queue(wire_id, &reply);
        }
        WireFrame::Events { events } => {
            let reply = with_session(core, conn.id, wire_id, |core, id| {
                let accepted = match core.engine.enqueue_events(id, &events) {
                    Ok(n) => n,
                    Err(ServeError::Session {
                        source: EmvsError::Backpressure { .. },
                        ..
                    }) => {
                        // The queue is full: pump once and retry. A client
                        // that respects its credit grant never lands here; a
                        // misbehaving one gets a zero-accept ack
                        // (short-write semantics — the excess was NOT
                        // buffered).
                        core.engine.pump();
                        match core.engine.enqueue_events(id, &events) {
                            Ok(n) => n,
                            Err(ServeError::Session {
                                source: EmvsError::Backpressure { .. },
                                ..
                            }) => 0,
                            Err(e) => return serve_error_reply(&e),
                        }
                    }
                    Err(e) => return serve_error_reply(&e),
                };
                WireFrame::EventsAck {
                    accepted: accepted as u64,
                    credits: core.credits(id),
                }
            });
            conn.queue(wire_id, &reply);
        }
        WireFrame::Poll => poll_into(conn, core, wire_id),
        WireFrame::Close => {
            let reply = with_session(core, conn.id, wire_id, |core, id| {
                match core.engine.close(id) {
                    Ok(()) => WireFrame::Ok,
                    Err(e) => serve_error_reply(&e),
                }
            });
            conn.queue(wire_id, &reply);
        }
        WireFrame::Discard => {
            let reply = with_session(core, conn.id, wire_id, |core, id| {
                match core.engine.discard_pending(id) {
                    Ok(_) => WireFrame::Ok,
                    Err(e) => serve_error_reply(&e),
                }
            });
            conn.queue(wire_id, &reply);
        }
        WireFrame::Finish => finish_into(conn, core, wire_id),
        other => {
            conn.fail(
                now,
                WireError::UnexpectedFrame {
                    expected: "a client request",
                    found: other.kind_name(),
                }
                .to_string(),
            );
        }
    }
}

/// Timeout and keepalive bookkeeping — runs **after** the read sweep, so
/// bytes already delivered by the kernel always clear a stall before it can
/// be punished.
fn check_timeouts(conn: &mut Conn, config: &NetConfig, next_nonce: &mut u64, now: Instant) {
    if conn.dead {
        return;
    }
    if conn.closing {
        // Bound the final drain: a peer that never reads its goodbye does
        // not pin the buffer forever.
        if let Some(since) = conn.closing_since {
            if now.duration_since(since) >= config.read_timeout {
                conn.dead = true;
            }
        }
        return;
    }
    // A partial frame is a promise: stalling mid-frame past the read
    // timeout is a wire-level violation.
    if !conn.rbuf.is_empty() && now.duration_since(conn.last_rx) >= config.read_timeout {
        conn.fail(now, WireError::Timeout { mid_frame: true }.to_string());
        return;
    }
    // Keepalive: only quiet, fully-framed, handshaken peers are probed.
    let ka = config.keepalive;
    if !ka.enabled() || !conn.hello_done || !conn.rbuf.is_empty() {
        return;
    }
    match conn.ping_sent {
        None => {
            if now.duration_since(conn.last_rx) >= ka.interval {
                let nonce = *next_nonce;
                *next_nonce += 1;
                conn.queue(0, &WireFrame::Ping { nonce });
                conn.ping_sent = Some(now);
            }
        }
        Some(sent) => {
            if now.duration_since(sent) >= ka.interval {
                conn.ping_misses += 1;
                if conn.ping_misses >= ka.max_misses.max(1) {
                    conn.fail(
                        now,
                        format!(
                            "keepalive expired: {} pings unanswered over {:?}",
                            conn.ping_misses,
                            ka.interval * (conn.ping_misses + 1),
                        ),
                    );
                } else {
                    let nonce = *next_nonce;
                    *next_nonce += 1;
                    conn.queue(0, &WireFrame::Ping { nonce });
                    conn.ping_sent = Some(now);
                }
            }
        }
    }
}

/// Flushes as much of the outbox as the socket will take, vectored.
fn flush(conn: &mut Conn) -> bool {
    if conn.dead {
        return false;
    }
    if conn.out_bytes > MAX_OUTBOX_BYTES {
        conn.dead = true;
        return false;
    }
    let mut progress = false;
    while !conn.outbox.is_empty() {
        let mut slices: Vec<IoSlice<'_>> =
            Vec::with_capacity(MAX_WRITE_SLICES.min(conn.outbox.len()));
        for (i, buf) in conn.outbox.iter().take(MAX_WRITE_SLICES).enumerate() {
            let part = if i == 0 {
                &buf[conn.out_head..]
            } else {
                &buf[..]
            };
            slices.push(IoSlice::new(part));
        }
        match conn.stream.write_vectored(&slices) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(mut n) => {
                progress = true;
                conn.out_bytes -= n;
                while n > 0 {
                    let front_remaining = conn.outbox[0].len() - conn.out_head;
                    if n >= front_remaining {
                        n -= front_remaining;
                        conn.outbox.pop_front();
                        conn.out_head = 0;
                    } else {
                        conn.out_head += n;
                        n = 0;
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    progress
}

/// Converts a retired key frame into its wire rendering.
fn depth_map_frame(index: usize, k: &KeyframeReconstruction) -> DepthMapFrame {
    DepthMapFrame {
        index: index as u64,
        width: k.depth_map.width() as u64,
        height: k.depth_map.height() as u64,
        votes_cast: k.votes_cast,
        depths: k
            .depth_map
            .depth_data()
            .iter()
            .map(|d| d.to_bits())
            .collect(),
    }
}

fn serve_error_reply(e: &ServeError) -> WireFrame {
    let (code, reason) = match e {
        ServeError::UnknownSession { .. } => (code::UNKNOWN_SESSION, e.to_string()),
        ServeError::SessionClosed { .. } => (code::SESSION_CLOSED, e.to_string()),
        other => (code::SESSION, other.to_string()),
    };
    WireFrame::Error { code, reason }
}

impl EngineCore {
    /// Remaining ingest-queue credits of one session (events the client may
    /// send before the next ack).
    fn credits(&self, id: eventor_serve::SessionId) -> u64 {
        self.engine
            .session_metrics(id)
            .map(|m| m.queue_capacity.saturating_sub(m.queue_depth) as u64)
            .unwrap_or(0)
    }

    /// Looks a wire session up in the connection's namespace. A wire id
    /// admitted by another connection is indistinguishable from one that
    /// was never admitted — cross-connection hijack is impossible by
    /// construction, so [`code::NOT_OWNER`] stays reserved on this server.
    fn resolve(&self, wire_id: u64, conn: u64) -> Result<eventor_serve::SessionId, WireFrame> {
        match self.sessions.get(&(conn, wire_id)) {
            None => Err(WireFrame::Error {
                code: code::UNKNOWN_SESSION,
                reason: format!("wire session {wire_id} was never admitted"),
            }),
            Some(s) => Ok(s.engine_id),
        }
    }
}

/// Aborts every unfinished session the connection owns (client vanished or
/// violated the protocol). Finished sessions keep their outputs.
fn abort_owned(core: &mut EngineCore, conn: u64) {
    let owned: Vec<eventor_serve::SessionId> = core
        .sessions
        .iter()
        .filter(|((owner, _), _)| *owner == conn)
        .map(|(_, s)| s.engine_id)
        .collect();
    for id in owned {
        let _ = core.engine.abort(
            id,
            EmvsError::InvalidConfig {
                reason: "wire client disconnected before finishing the session".into(),
            },
        );
    }
    core.sessions.retain(|(owner, _), _| *owner != conn);
}

/// Runs `op` with the wire id resolved; ownership and existence failures
/// become their typed reply without touching the engine.
fn with_session(
    core: &mut EngineCore,
    conn: u64,
    wire_id: u64,
    op: impl FnOnce(&mut EngineCore, eventor_serve::SessionId) -> WireFrame,
) -> WireFrame {
    match core.resolve(wire_id, conn) {
        Ok(id) => op(core, id),
        Err(reply) => reply,
    }
}

fn admit(
    core: &mut EngineCore,
    config: &NetConfig,
    shared: &Shared,
    conn: u64,
    wire_id: u64,
    manifest: &SessionManifest,
) -> WireFrame {
    if shared.shutdown.load(Ordering::SeqCst) {
        return WireFrame::Rejected {
            code: code::SHUTTING_DOWN,
            reason: "server is shutting down".into(),
        };
    }
    if wire_id == 0 {
        return WireFrame::Rejected {
            code: code::BAD_SESSION_ID,
            reason: "session id 0 is reserved for connection-level frames".into(),
        };
    }
    if let Some(reject) = admission_reject(core, &config.admission) {
        return reject;
    }
    // Resolve the manifest before touching the engine: building a session
    // is pure and needs no engine state.
    let session = match manifest.resolve() {
        Ok(s) => s,
        Err(WireError::Rejected { code, reason }) => {
            return WireFrame::Rejected { code, reason };
        }
        Err(other) => {
            return WireFrame::Rejected {
                code: code::PROTOCOL,
                reason: other.to_string(),
            };
        }
    };
    if core.sessions.contains_key(&(conn, wire_id)) {
        return WireFrame::Rejected {
            code: code::DUPLICATE_SESSION,
            reason: format!("wire session {wire_id} already exists"),
        };
    }
    let engine_id = core.engine.admit(session);
    core.sessions.insert(
        (conn, wire_id),
        NetSession {
            engine_id,
            sent_keyframes: 0,
        },
    );
    WireFrame::Admitted {
        credits: core.credits(engine_id),
    }
}

/// Evaluates the live-session gate against the engine's live metrics.
fn admission_reject(core: &EngineCore, admission: &AdmissionConfig) -> Option<WireFrame> {
    if admission.max_sessions == 0 {
        return None;
    }
    let live = core.engine.metrics().live_sessions();
    if live < admission.max_sessions {
        return None;
    }
    Some(WireFrame::Rejected {
        code: code::OVERLOADED,
        reason: format!(
            "admission refused: {live} live sessions at the cap of {}",
            admission.max_sessions
        ),
    })
}

/// `Poll`: pump once, then stream everything new — lifecycle events first,
/// then any newly retired depth maps, then the `PollDone` credit grant.
fn poll_into(conn: &mut Conn, core: &mut EngineCore, wire_id: u64) {
    let id = match core.resolve(wire_id, conn.id) {
        Ok(id) => id,
        Err(reply) => {
            conn.queue(wire_id, &reply);
            return;
        }
    };
    core.engine.pump();
    let lifecycle = core.engine.poll_session(id).unwrap_or_default();
    if !lifecycle.is_empty() {
        conn.queue(
            wire_id,
            &WireFrame::Lifecycle {
                events: lifecycle
                    .iter()
                    .filter_map(WireSessionEvent::from_session)
                    .collect(),
            },
        );
    }
    let sent = core
        .sessions
        .get(&(conn.id, wire_id))
        .map(|s| s.sent_keyframes)
        .unwrap_or(0);
    let keyframes = core.engine.keyframes(id).unwrap_or(&[]);
    let total = keyframes.len();
    let maps: Vec<WireFrame> = keyframes
        .iter()
        .enumerate()
        .skip(sent)
        .map(|(offset, k)| WireFrame::DepthMap(depth_map_frame(offset, k)))
        .collect();
    for frame in &maps {
        conn.queue(wire_id, frame);
    }
    if let Some(s) = core.sessions.get_mut(&(conn.id, wire_id)) {
        s.sent_keyframes = total.max(s.sent_keyframes);
    }
    conn.queue(
        wire_id,
        &WireFrame::PollDone {
            credits: core.credits(id),
        },
    );
}

/// `Finish`: drain the session to completion, stream the leftovers, reply
/// with the terminal summary, and release the wire id.
fn finish_into(conn: &mut Conn, core: &mut EngineCore, wire_id: u64) {
    let id = match core.resolve(wire_id, conn.id) {
        Ok(id) => id,
        Err(reply) => {
            conn.queue(wire_id, &reply);
            return;
        }
    };
    let output = match core.engine.finish_session(id) {
        Ok(output) => output,
        Err(e) => {
            let reply = serve_error_reply(&e);
            conn.queue(wire_id, &reply);
            return;
        }
    };
    // Lifecycle events polled into the outbox during the drain, then the
    // final-flush events the engine stashed in the output (the two sets are
    // disjoint by construction).
    let mut lifecycle = core.engine.poll_session(id).unwrap_or_default();
    lifecycle.extend(output.events.iter().cloned());
    if !lifecycle.is_empty() {
        conn.queue(
            wire_id,
            &WireFrame::Lifecycle {
                events: lifecycle
                    .iter()
                    .filter_map(WireSessionEvent::from_session)
                    .collect(),
            },
        );
    }
    let sent = core
        .sessions
        .get(&(conn.id, wire_id))
        .map(|s| s.sent_keyframes)
        .unwrap_or(0);
    for (offset, k) in output.output.keyframes.iter().enumerate().skip(sent) {
        conn.queue(wire_id, &WireFrame::DepthMap(depth_map_frame(offset, k)));
    }
    core.sessions.remove(&(conn.id, wire_id));
    conn.queue(
        wire_id,
        &WireFrame::Finished {
            digest: digest_output(&output),
            keyframes: output.output.keyframes.len() as u64,
            events_processed: output.output.profile.events_processed,
        },
    );
}
