//! The multi-session serving engine: [`ServeEngine`] and its configuration,
//! identifiers, lifecycle events and error type.

use crate::metrics::{per_second, ServeMetrics, SessionMetrics, SessionStatus};
use crate::queue::IngestQueue;
use eventor_core::SessionOutput;
use eventor_core::{EventorOptions, EventorSession, SessionCheckpoint};
use eventor_emvs::{run_sharded, EmvsError, ParallelConfig, SessionEvent};
use eventor_events::Event;
use eventor_geom::{Pose, Trajectory};
use std::fmt;
use std::time::{Duration, Instant};

/// Default per-session ingest-queue capacity, in events, so a session's
/// total in-flight memory (queue + pending buffer + the engine's vote
/// window) stays within a few of these.
pub const DEFAULT_QUEUE_CAPACITY: usize = 1 << 16;

/// Default pump quantum, in events: how many queued events one session may
/// move into its session per [`ServeEngine::pump`] round. Large enough to
/// amortise scheduling overhead over several aggregated frames, small enough
/// that 64 sessions sharing a pool stay interactive.
pub const DEFAULT_QUANTUM_EVENTS: usize = 8192;

/// Handle of one admitted session, returned by [`ServeEngine::admit`].
///
/// Identifiers are dense (admission order) and never reused within one
/// engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub(crate) usize);

impl SessionId {
    /// The dense admission index of this session.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session #{}", self.0)
    }
}

/// Configuration of a [`ServeEngine`]: worker-pool size, per-session queue
/// bound and scheduling quantum. All setters clamp to usable values, so a
/// configuration is always valid (mirroring
/// [`ParallelConfig`]).
///
/// # Examples
///
/// ```
/// use eventor_serve::ServeConfig;
/// let config = ServeConfig::new()
///     .with_workers(8)
///     .with_queue_capacity(32 * 1024)
///     .with_quantum_events(4096);
/// assert_eq!(config.workers(), 8);
/// assert_eq!(config.queue_capacity(), 32 * 1024);
/// assert_eq!(config.quantum_events(), 4096);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    workers: usize,
    queue_capacity: usize,
    quantum_events: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeConfig {
    /// One worker per available hardware thread,
    /// [`DEFAULT_QUEUE_CAPACITY`], [`DEFAULT_QUANTUM_EVENTS`].
    pub fn new() -> Self {
        Self {
            workers: ParallelConfig::auto().shards(),
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            quantum_events: DEFAULT_QUANTUM_EVENTS,
        }
    }

    /// Sets the worker-pool size (clamped to at least 1). Like the sharded
    /// voting engine, the *partition* of sessions onto workers is a pure
    /// function of this count; how many OS threads execute it is capped at
    /// the machine's hardware threads by the runner.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the per-session ingest-queue capacity in events (clamped to at
    /// least 1).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Sets the per-session pump quantum in events (clamped to at least 1).
    pub fn with_quantum_events(mut self, quantum: usize) -> Self {
        self.quantum_events = quantum.max(1);
        self
    }

    /// Size of the worker pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Per-session ingest-queue capacity, in events.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Per-session, per-round scheduling quantum, in events.
    pub fn quantum_events(&self) -> usize {
        self.quantum_events
    }
}

/// Engine-level lifecycle notifications, drained by
/// [`ServeEngine::poll_serve`]. Per-session reconstruction lifecycle
/// ([`SessionEvent`]) is delivered separately by
/// [`ServeEngine::poll_session`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeEvent {
    /// A session was admitted into the engine.
    SessionAdmitted {
        /// The new session's handle.
        session: SessionId,
        /// Short identifier of its execution backend.
        backend: &'static str,
    },
    /// A pump round could not move a single queued event into this session:
    /// it is waiting on poses (or on its own bounded pending buffer).
    /// Emitted once per stall, not once per round; ingestion progress clears
    /// the stall.
    SessionStalled {
        /// The stalled session.
        session: SessionId,
        /// Events waiting in its ingest queue.
        queued: usize,
        /// Events buffered inside the session awaiting pose coverage.
        pending: usize,
    },
    /// A pump round recorded an error for this session (sticky until the
    /// cause is fixed; see [`ServeEngine::last_error`]). Emitted once per
    /// failure, not once per round.
    SessionFailed {
        /// The failed session.
        session: SessionId,
        /// The recorded error.
        error: EmvsError,
    },
    /// A closed session fully drained, flushed and finished; its
    /// [`SessionOutput`] is ready for [`ServeEngine::take_output`].
    SessionFinished {
        /// The finished session.
        session: SessionId,
        /// Key frames (= depth maps) it produced.
        keyframes: usize,
        /// Events its datapath processed.
        events_processed: u64,
    },
}

/// Errors returned by [`ServeEngine`] entry points.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// The [`SessionId`] does not name a session of this engine.
    UnknownSession {
        /// The offending handle.
        session: SessionId,
    },
    /// Input was enqueued into a session that was already
    /// [`close`](ServeEngine::close)d or finished.
    SessionClosed {
        /// The closed session.
        session: SessionId,
    },
    /// A session-layer error, attributed to the session it occurred in. The
    /// `source` keeps the exact `eventor-emvs` semantics — in particular
    /// [`EmvsError::Backpressure`] retains its meaning of "a bounded buffer
    /// is full; drain it or supply the poses it is waiting for".
    Session {
        /// The session the error belongs to.
        session: SessionId,
        /// The underlying session-layer error.
        source: EmvsError,
    },
    /// A [`SessionCheckpoint`] could not be resumed into this engine
    /// (unknown backend kind, incompatible vote state, inconsistent
    /// checkpoint). Unlike [`ServeError::Session`] there is no session to
    /// blame: admission never happened.
    Resume {
        /// The underlying checkpoint error.
        source: EmvsError,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownSession { session } => write!(f, "{session} is not admitted here"),
            Self::SessionClosed { session } => {
                write!(f, "{session} is closed and accepts no more input")
            }
            Self::Session { session, source } => write!(f, "{session}: {source}"),
            Self::Resume { source } => write!(f, "cannot resume checkpoint: {source}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Session { source, .. } => Some(source),
            Self::Resume { source } => Some(source),
            _ => None,
        }
    }
}

/// What one [`ServeEngine::pump`] round accomplished, for callers driving
/// their own scheduling loops ([`ServeEngine::drain`] is the built-in one).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PumpStats {
    /// Events moved from ingest queues into sessions this round.
    pub events_ingested: u64,
    /// Pose samples moved from ingest queues into sessions this round.
    pub poses_ingested: u64,
    /// Sessions that reached their terminal output this round.
    pub sessions_finished: usize,
}

impl PumpStats {
    /// Whether the round moved any input or finished any session.
    pub fn made_progress(&self) -> bool {
        self.events_ingested > 0 || self.poses_ingested > 0 || self.sessions_finished > 0
    }
}

/// One admitted session and everything the engine tracks about it.
#[derive(Debug)]
struct Slot {
    id: usize,
    backend: &'static str,
    session: Option<EventorSession>,
    queue: IngestQueue,
    outbox: Vec<SessionEvent>,
    error: Option<EmvsError>,
    failure_reported: bool,
    stalled: bool,
    just_finished: bool,
    output: Option<SessionOutput>,
    output_taken: bool,
    events_enqueued: u64,
    events_ingested: u64,
    busy: Duration,
    round_events: usize,
    round_poses: usize,
    final_processed: u64,
    final_keyframes: usize,
}

impl Slot {
    fn new(id: usize, session: EventorSession, queue_capacity: usize) -> Self {
        Self {
            id,
            backend: session.backend_name(),
            session: Some(session),
            queue: IngestQueue::new(queue_capacity),
            outbox: Vec::new(),
            error: None,
            failure_reported: false,
            stalled: false,
            just_finished: false,
            output: None,
            output_taken: false,
            events_enqueued: 0,
            events_ingested: 0,
            busy: Duration::ZERO,
            round_events: 0,
            round_poses: 0,
            final_processed: 0,
            final_keyframes: 0,
        }
    }

    /// Whether a pump round has any work to attempt on this slot.
    fn runnable(&self) -> bool {
        self.session.is_some()
            && (self.queue.depth() > 0
                || !self.queue.poses.is_empty()
                || self.queue.is_closed()
                || self.error.is_some())
    }

    fn status(&self) -> SessionStatus {
        if self.output.is_some() || self.output_taken {
            SessionStatus::Finished
        } else if self.error.is_some() || self.session.is_none() {
            SessionStatus::Failed
        } else if self.queue.is_closed() {
            SessionStatus::Draining
        } else {
            SessionStatus::Active
        }
    }

    fn live_processed(&self) -> u64 {
        match &self.session {
            Some(session) => session.profile().events_processed,
            None => self.final_processed,
        }
    }

    fn live_keyframes(&self) -> usize {
        match &self.session {
            Some(session) => session.keyframes().len(),
            None => self.final_keyframes,
        }
    }

    fn metrics(&self) -> SessionMetrics {
        let busy = self.busy.as_secs_f64();
        let processed = self.live_processed();
        let keyframes = self.live_keyframes();
        SessionMetrics {
            session: SessionId(self.id),
            backend: self.backend,
            status: self.status(),
            queue_depth: self.queue.depth(),
            queued_poses: self.queue.poses.len(),
            queue_capacity: self.queue.capacity(),
            events_enqueued: self.events_enqueued,
            events_ingested: self.events_ingested,
            events_processed: processed,
            depth_maps: keyframes,
            busy_seconds: busy,
            events_per_second: per_second(processed as f64, busy),
            depth_maps_per_second: per_second(keyframes as f64, busy),
            stalled: self.stalled,
        }
    }
}

/// One scheduling quantum for one session, executed on a worker thread:
/// deliver queued poses, move up to `quantum` queued events into the session
/// (the session votes them as frames become ready), poll lifecycle events,
/// and — once the slot is closed and its queue empty — flush and finish.
///
/// Errors never propagate across sessions: they are recorded on the slot
/// (sticky until the cause is fixed) and surfaced through
/// [`ServeEvent::SessionFailed`] / [`ServeEngine::last_error`].
fn pump_slot(slot: &mut Slot, quantum: usize) {
    let t0 = Instant::now();
    slot.error = None;
    let Some(session) = slot.session.as_mut() else {
        return;
    };

    // ➊ Poses: always delivered in full — they are what unblock event
    //   ingestion. An invalid sample (non-monotonic timestamp) is dropped and
    //   recorded instead of wedging the queue forever.
    while let Some(&(timestamp, pose)) = slot.queue.poses.front() {
        match session.push_pose(timestamp, pose) {
            Ok(()) => {
                slot.queue.poses.pop_front();
                slot.round_poses += 1;
            }
            Err(e) => {
                slot.queue.poses.pop_front();
                slot.error = Some(e);
                break;
            }
        }
    }

    // ➋ Events, up to the fairness quantum. `push_events` both buffers and
    //   drains ready frames, so the voting work happens here, on this worker.
    let mut moved = 0usize;
    while moved < quantum && slot.queue.depth() > 0 && slot.error.is_none() {
        let (front, _) = slot.queue.events.as_slices();
        let take = front.len().min(quantum - moved);
        match session.push_events(&front[..take]) {
            Ok(accepted) => {
                slot.queue.events.drain(..accepted);
                moved += accepted;
                if accepted < take {
                    break; // Session pending buffer is full: waiting on poses.
                }
            }
            Err(EmvsError::Backpressure { .. }) => break,
            Err(e) => {
                slot.error = Some(e);
                break;
            }
        }
    }
    slot.round_events = moved;
    slot.events_ingested += moved as u64;

    // ➌ Lifecycle delivery. A poll error (e.g. a frame whose pose can never
    //   arrive) is sticky but recoverable: the events stay buffered inside
    //   the session, and the next round retries after the caller intervenes.
    match session.poll() {
        Ok(events) => slot.outbox.extend(events),
        Err(e) => slot.error = Some(e),
    }

    // ➍ Termination: closed + fully drained → flush (recoverable on error)
    //   and finish (stashes the terminal output).
    if slot.queue.is_closed()
        && slot.queue.depth() == 0
        && slot.queue.poses.is_empty()
        && slot.error.is_none()
    {
        match session.flush() {
            Ok(()) => {
                match session.poll() {
                    Ok(events) => slot.outbox.extend(events),
                    Err(e) => slot.error = Some(e),
                }
                if slot.error.is_none() {
                    let session = slot.session.take().expect("checked above");
                    slot.queue.release();
                    slot.final_processed = session.profile().events_processed;
                    match session.finish() {
                        Ok(output) => {
                            slot.final_keyframes = output.output.keyframes.len();
                            slot.outbox.extend(output.events.iter().cloned());
                            slot.output = Some(output);
                            slot.just_finished = true;
                        }
                        // Terminal: `finish` consumed the session (only
                        // `NoEvents` reaches this arm — the flush above
                        // already succeeded).
                        Err(e) => slot.error = Some(e),
                    }
                }
            }
            Err(e) => slot.error = Some(e),
        }
    }
    slot.busy += t0.elapsed();
}

/// The multi-session serving engine: multiplexes any number of independent
/// [`EventorSession`] streams over a bounded worker pool with fair
/// round-robin scheduling, per-session bounded ingest queues, lifecycle
/// fan-out and serving metrics.
///
/// The engine is the `eventor-serve/1` contract (`docs/ARCHITECTURE.md`
/// §7): sessions share nothing but compute, so each session's
/// quantized-nearest output is **bit-identical** to the same stream run
/// standalone, for every backend and every interleaving of input and
/// [`pump`](Self::pump) calls (`tests/serve_equivalence.rs`).
///
/// # Examples
///
/// ```
/// use eventor_core::{config_for_sequence, EventorOptions, EventorSession};
/// use eventor_events::{DatasetConfig, SequenceKind, SyntheticSequence};
/// use eventor_serve::{ServeConfig, ServeEngine};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let seq = SyntheticSequence::generate(SequenceKind::SliderClose, &DatasetConfig::fast_test())?;
/// let mut engine = ServeEngine::new(ServeConfig::new().with_workers(2));
///
/// // Admit independent sessions (any backend mix).
/// let a = engine.admit(
///     EventorSession::builder(seq.camera, config_for_sequence(&seq, 60))
///         .software(EventorOptions::accelerator())
///         .build()?,
/// );
///
/// // Feed input, pump the pool, poll lifecycle events.
/// engine.enqueue_trajectory(a, &seq.trajectory)?;
/// let mut offset = 0;
/// let events = seq.events.as_slice();
/// while offset < events.len() {
///     offset += engine.enqueue_events(a, &events[offset..])?;
///     engine.pump();
/// }
/// engine.close(a)?;
/// engine.drain()?;
/// let output = engine.take_output(a).expect("session finished");
/// assert!(!output.output.keyframes.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ServeEngine {
    config: ServeConfig,
    slots: Vec<Slot>,
    serve_outbox: Vec<ServeEvent>,
    pump_rounds: u64,
    pump_wall: Duration,
}

impl ServeEngine {
    /// Creates an engine with the given configuration (always valid — the
    /// setters clamp).
    pub fn new(config: ServeConfig) -> Self {
        Self {
            config,
            slots: Vec::new(),
            serve_outbox: Vec::new(),
            pump_rounds: 0,
            pump_wall: Duration::ZERO,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Number of sessions ever admitted (finished ones included).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no session was ever admitted.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Admits a session into the engine and emits
    /// [`ServeEvent::SessionAdmitted`]. The session keeps whatever backend
    /// and options it was built with — heterogeneous pools are the normal
    /// case.
    pub fn admit(&mut self, session: EventorSession) -> SessionId {
        let id = SessionId(self.slots.len());
        self.serve_outbox.push(ServeEvent::SessionAdmitted {
            session: id,
            backend: session.backend_name(),
        });
        self.slots
            .push(Slot::new(id.0, session, self.config.queue_capacity()));
        id
    }

    fn slot(&self, id: SessionId) -> Result<&Slot, ServeError> {
        self.slots
            .get(id.0)
            .ok_or(ServeError::UnknownSession { session: id })
    }

    fn slot_mut(&mut self, id: SessionId) -> Result<&mut Slot, ServeError> {
        self.slots
            .get_mut(id.0)
            .ok_or(ServeError::UnknownSession { session: id })
    }

    /// Enqueues one pose sample for a session. Poses are accepted until the
    /// session finishes — a [`close`](Self::close)d stream's trailing frames
    /// may still be waiting for the poses that cover them.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`], or [`ServeError::SessionClosed`] once
    /// the session has finished.
    pub fn enqueue_pose(
        &mut self,
        id: SessionId,
        timestamp: f64,
        pose: Pose,
    ) -> Result<(), ServeError> {
        let slot = self.slot_mut(id)?;
        if slot.session.is_none() {
            return Err(ServeError::SessionClosed { session: id });
        }
        slot.queue.enqueue_pose(timestamp, pose);
        Ok(())
    }

    /// Enqueues every sample of a trajectory ([`Self::enqueue_pose`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::enqueue_pose`].
    pub fn enqueue_trajectory(
        &mut self,
        id: SessionId,
        trajectory: &Trajectory,
    ) -> Result<(), ServeError> {
        for sample in trajectory.iter() {
            self.enqueue_pose(id, sample.timestamp, sample.pose)?;
        }
        Ok(())
    }

    /// Enqueues a time-ordered event packet into a session's bounded ingest
    /// queue, returning the number of events accepted — `write(2)`-style
    /// short-write semantics, exactly like
    /// [`EventorSession::push_events`].
    ///
    /// # Errors
    ///
    /// * [`ServeError::UnknownSession`] / [`ServeError::SessionClosed`],
    /// * [`ServeError::Session`] wrapping [`EmvsError::OutOfOrder`] (nothing
    ///   accepted) or [`EmvsError::Backpressure`] when the queue is full and
    ///   zero events could be accepted — [`pump`](Self::pump) (or supply the
    ///   poses the session is waiting for) and retry.
    pub fn enqueue_events(&mut self, id: SessionId, events: &[Event]) -> Result<usize, ServeError> {
        let slot = self.slot_mut(id)?;
        if slot.session.is_none() || slot.queue.is_closed() {
            return Err(ServeError::SessionClosed { session: id });
        }
        match slot.queue.enqueue_events(events) {
            Ok(accepted) => {
                slot.events_enqueued += accepted as u64;
                Ok(accepted)
            }
            Err(source) => Err(ServeError::Session {
                session: id,
                source,
            }),
        }
    }

    /// Declares end-of-stream for a session: no further events are accepted,
    /// and once its queue drains the engine flushes and finishes it
    /// (emitting [`ServeEvent::SessionFinished`]). Idempotent.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`].
    pub fn close(&mut self, id: SessionId) -> Result<(), ServeError> {
        self.slot_mut(id)?.queue.close();
        Ok(())
    }

    /// Drops every queued and session-buffered event of one session and
    /// clears its failure state — the escape hatch for input whose poses can
    /// never arrive. Returns how many events were discarded.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`].
    pub fn discard_pending(&mut self, id: SessionId) -> Result<usize, ServeError> {
        let slot = self.slot_mut(id)?;
        let mut dropped = slot.queue.discard_events();
        if let Some(session) = slot.session.as_mut() {
            dropped += session.discard_pending();
        }
        slot.error = None;
        slot.failure_reported = false;
        Ok(dropped)
    }

    /// Aborts a session: every queued and session-buffered input is dropped,
    /// the live session is destroyed, and `reason` is recorded as the
    /// session's sticky failure — the serving-tier response to a client that
    /// vanished mid-stream. [`ServeEvent::SessionFailed`] is emitted
    /// immediately. Aborting a session that already finished is a no-op (its
    /// output stays available); aborting twice is idempotent.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`].
    pub fn abort(&mut self, id: SessionId, reason: EmvsError) -> Result<(), ServeError> {
        let slot = self.slot_mut(id)?;
        if slot.output.is_some() || slot.output_taken {
            return Ok(());
        }
        slot.queue.release();
        if let Some(session) = slot.session.take() {
            slot.final_processed = session.profile().events_processed;
            slot.final_keyframes = session.keyframes().len();
        }
        slot.stalled = false;
        let already_failed = slot.failure_reported && slot.error.is_some();
        slot.error = Some(reason.clone());
        slot.failure_reported = true;
        if !already_failed {
            self.serve_outbox.push(ServeEvent::SessionFailed {
                session: id,
                error: reason,
            });
        }
        Ok(())
    }

    /// Captures a live session as a durable [`SessionCheckpoint`] without
    /// disturbing it — the session keeps serving afterwards. `origin` is
    /// recorded verbatim for the resume side (e.g. the scenario and seed
    /// that generated the stream).
    ///
    /// The session's ingest queue must be fully drained
    /// ([`pump`](Self::pump) until idle): queued-but-uningested input is
    /// client state the checkpoint would silently lose.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`]; [`ServeError::SessionClosed`] when
    /// the session already finished; [`ServeError::Session`] wrapping
    /// [`EmvsError::Checkpoint`] when the queue still holds input, a sticky
    /// failure is recorded, or the session layer refuses the snapshot.
    pub fn checkpoint_session(
        &mut self,
        id: SessionId,
        origin: &str,
    ) -> Result<SessionCheckpoint, ServeError> {
        let slot = self.slot_mut(id)?;
        let Some(session) = slot.session.as_mut() else {
            return Err(ServeError::SessionClosed { session: id });
        };
        let refuse = |reason: String| ServeError::Session {
            session: id,
            source: EmvsError::Checkpoint { reason },
        };
        if let Some(error) = &slot.error {
            return Err(refuse(format!(
                "session has a recorded failure ({error}); resolve it before checkpointing"
            )));
        }
        if slot.queue.depth() > 0 || !slot.queue.poses.is_empty() {
            return Err(refuse(format!(
                "{} events and {} poses still queued: pump() until idle before checkpointing",
                slot.queue.depth(),
                slot.queue.poses.len()
            )));
        }
        session
            .snapshot(origin)
            .map_err(|source| ServeError::Session {
                session: id,
                source,
            })
    }

    /// Admits a session resumed from a [`SessionCheckpoint`], on the backend
    /// kind recorded in the checkpoint: `"software"`, `"sharded"` (at
    /// [`ParallelConfig::auto`]; the output does not depend on the shard
    /// count) or `"cosim"`.
    /// Emits [`ServeEvent::SessionAdmitted`] like any admission.
    ///
    /// # Errors
    ///
    /// [`ServeError::Resume`] wrapping [`EmvsError::Checkpoint`] for an
    /// unknown backend kind, an incompatible vote state or an internally
    /// inconsistent checkpoint.
    pub fn resume_session(
        &mut self,
        checkpoint: SessionCheckpoint,
    ) -> Result<SessionId, ServeError> {
        let builder = EventorSession::builder(*checkpoint.camera(), checkpoint.config().clone());
        let builder = match checkpoint.backend_kind() {
            "software" => builder.software(EventorOptions::accelerator()),
            "sharded" => builder.sharded(EventorOptions::accelerator(), ParallelConfig::auto()),
            "cosim" => builder.cosim(eventor_hwsim::AcceleratorConfig::default()),
            other => {
                return Err(ServeError::Resume {
                    source: EmvsError::Checkpoint {
                        reason: format!("unknown backend kind '{other}'"),
                    },
                })
            }
        };
        let session = builder
            .restore(checkpoint)
            .map_err(|source| ServeError::Resume { source })?;
        Ok(self.admit(session))
    }

    /// Runs one fair scheduling round over the worker pool: every runnable
    /// session receives up to one quantum
    /// ([`ServeConfig::quantum_events`]) of ingestion plus the voting work
    /// it unlocks. Sessions are assigned to workers round-robin
    /// (`id mod workers`) and the pool executes on at most
    /// `min(workers, hardware threads)` OS threads; because sessions share
    /// no state, the assignment affects wall time only, never output.
    pub fn pump(&mut self) -> PumpStats {
        let t0 = Instant::now();
        let workers = self.config.workers();
        let quantum = self.config.quantum_events();
        for slot in &mut self.slots {
            slot.round_events = 0;
            slot.round_poses = 0;
        }
        let mut lanes: Vec<Vec<&mut Slot>> = Vec::new();
        lanes.resize_with(workers, Vec::new);
        for slot in self.slots.iter_mut().filter(|s| s.runnable()) {
            let lane = slot.id % workers;
            lanes[lane].push(slot);
        }
        // Empty lanes would only add threads: sessions share nothing, so
        // leaving them out changes no output.
        lanes.retain(|lane| !lane.is_empty());
        run_sharded(&mut lanes, |lane| {
            for slot in lane.iter_mut() {
                pump_slot(slot, quantum);
            }
        });
        drop(lanes);

        let mut stats = PumpStats::default();
        for slot in &mut self.slots {
            stats.events_ingested += slot.round_events as u64;
            stats.poses_ingested += slot.round_poses as u64;
            let stalled_now =
                slot.session.is_some() && slot.queue.depth() > 0 && slot.round_events == 0;
            if stalled_now && !slot.stalled {
                self.serve_outbox.push(ServeEvent::SessionStalled {
                    session: SessionId(slot.id),
                    queued: slot.queue.depth(),
                    pending: slot
                        .session
                        .as_ref()
                        .map(|s| s.pending_events())
                        .unwrap_or(0),
                });
            }
            slot.stalled = stalled_now;
            match &slot.error {
                Some(error) if !slot.failure_reported => {
                    slot.failure_reported = true;
                    self.serve_outbox.push(ServeEvent::SessionFailed {
                        session: SessionId(slot.id),
                        error: error.clone(),
                    });
                }
                Some(_) => {}
                None => slot.failure_reported = false,
            }
            if slot.just_finished {
                slot.just_finished = false;
                stats.sessions_finished += 1;
                self.serve_outbox.push(ServeEvent::SessionFinished {
                    session: SessionId(slot.id),
                    keyframes: slot.final_keyframes,
                    events_processed: slot.final_processed,
                });
            }
        }
        self.pump_rounds += 1;
        self.pump_wall += t0.elapsed();
        stats
    }

    /// Whether every ingest queue is empty and every closed session has
    /// reached a terminal state — the condition [`Self::drain`] pumps
    /// toward.
    pub fn is_idle(&self) -> bool {
        self.slots.iter().all(|s| {
            s.queue.depth() == 0
                && s.queue.poses.is_empty()
                && (!s.queue.is_closed() || s.session.is_none())
        })
    }

    /// The graceful drain: pumps until every queue is empty and every closed
    /// session has finished.
    ///
    /// # Errors
    ///
    /// When a full round makes no progress while work remains, the first
    /// stuck session's error is returned: its sticky session error if one is
    /// recorded, otherwise a [`ServeError::Session`] wrapping
    /// [`EmvsError::Backpressure`] (its input is wedged behind poses that
    /// were never enqueued — supply them or
    /// [`discard_pending`](Self::discard_pending)). Other sessions keep
    /// draining; calling `drain` again after fixing the cause resumes.
    pub fn drain(&mut self) -> Result<(), ServeError> {
        loop {
            let stats = self.pump();
            if self.is_idle() {
                return Ok(());
            }
            if !stats.made_progress() {
                return Err(self.stuck_error());
            }
        }
    }

    /// The error blamed for a no-progress round: the first non-idle slot's
    /// recorded error, or backpressure on its wedged input.
    fn stuck_error(&self) -> ServeError {
        for slot in &self.slots {
            let idle = slot.queue.depth() == 0
                && slot.queue.poses.is_empty()
                && (!slot.queue.is_closed() || slot.session.is_none());
            if idle {
                continue;
            }
            let session = SessionId(slot.id);
            return match &slot.error {
                Some(source) => ServeError::Session {
                    session,
                    source: source.clone(),
                },
                None => ServeError::Session {
                    session,
                    source: EmvsError::Backpressure {
                        pending: slot.queue.depth()
                            + slot
                                .session
                                .as_ref()
                                .map(|s| s.pending_events())
                                .unwrap_or(0),
                        capacity: slot.queue.capacity(),
                    },
                },
            };
        }
        // Unreachable: callers only ask after observing a non-idle engine.
        ServeError::UnknownSession {
            session: SessionId(usize::MAX),
        }
    }

    /// Takes the lifecycle events a session emitted since the last poll
    /// (`SegmentRetired` → `DepthMapReady` → `KeyframeReady` [→ `MapFused`]
    /// per key frame, in order). Delivery is per-session: no interleaving
    /// with other sessions' events.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`].
    pub fn poll_session(&mut self, id: SessionId) -> Result<Vec<SessionEvent>, ServeError> {
        Ok(std::mem::take(&mut self.slot_mut(id)?.outbox))
    }

    /// Takes the engine-level events emitted since the last poll
    /// (admissions, stalls, failures, finishes).
    pub fn poll_serve(&mut self) -> Vec<ServeEvent> {
        std::mem::take(&mut self.serve_outbox)
    }

    /// The lifecycle state of one session.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`].
    pub fn status(&self, id: SessionId) -> Result<SessionStatus, ServeError> {
        Ok(self.slot(id)?.status())
    }

    /// The sticky error recorded for a session by the last pump round, if
    /// any. Cleared automatically once a round succeeds (or explicitly by
    /// [`discard_pending`](Self::discard_pending)).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`].
    pub fn last_error(&self, id: SessionId) -> Result<Option<EmvsError>, ServeError> {
        Ok(self.slot(id)?.error.clone())
    }

    /// Takes a finished session's terminal output, if it has finished and
    /// the output was not taken before.
    pub fn take_output(&mut self, id: SessionId) -> Option<SessionOutput> {
        let slot = self.slots.get_mut(id.0)?;
        let output = slot.output.take();
        if output.is_some() {
            slot.output_taken = true;
        }
        output
    }

    /// Closes one session and pumps the engine until it finishes, returning
    /// its terminal output — the synchronous convenience over
    /// [`close`](Self::close) + [`drain`](Self::drain) +
    /// [`take_output`](Self::take_output). Other sessions keep making
    /// progress during the wait (the pump rounds are engine-wide).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`]; [`ServeError::SessionClosed`] when
    /// the output was already taken; the session's own error when it cannot
    /// finish (missing poses, flush failure).
    pub fn finish_session(&mut self, id: SessionId) -> Result<SessionOutput, ServeError> {
        self.close(id)?;
        loop {
            let slot = self.slot_mut(id)?;
            if let Some(output) = slot.output.take() {
                slot.output_taken = true;
                return Ok(output);
            }
            if slot.session.is_none() {
                return match &slot.error {
                    Some(source) => Err(ServeError::Session {
                        session: id,
                        source: source.clone(),
                    }),
                    None => Err(ServeError::SessionClosed { session: id }),
                };
            }
            if !self.pump().made_progress() {
                let slot = self.slot(id)?;
                return match &slot.error {
                    Some(source) => Err(ServeError::Session {
                        session: id,
                        source: source.clone(),
                    }),
                    None => Err(self.stuck_error()),
                };
            }
        }
    }

    /// Graceful shutdown: closes every session, drains the pool, and returns
    /// each session's terminal result in admission order — the output for
    /// sessions that finished (now or earlier, unless already taken), the
    /// blocking error for sessions that could not.
    pub fn shutdown(mut self) -> Vec<(SessionId, Result<SessionOutput, ServeError>)> {
        for slot in &mut self.slots {
            slot.queue.close();
        }
        let _ = self.drain();
        self.slots
            .into_iter()
            .map(|slot| {
                let id = SessionId(slot.id);
                let result = if let Some(output) = slot.output {
                    Ok(output)
                } else if slot.output_taken {
                    Err(ServeError::SessionClosed { session: id })
                } else if let Some(source) = slot.error {
                    Err(ServeError::Session {
                        session: id,
                        source,
                    })
                } else if let Some(session) = slot.session {
                    session.finish().map_err(|source| ServeError::Session {
                        session: id,
                        source,
                    })
                } else {
                    Err(ServeError::SessionClosed { session: id })
                };
                (id, result)
            })
            .collect()
    }

    /// A metrics snapshot for one session (field reference in
    /// `docs/SERVING.md`).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`].
    pub fn session_metrics(&self, id: SessionId) -> Result<SessionMetrics, ServeError> {
        Ok(self.slot(id)?.metrics())
    }

    /// A point-in-time snapshot of the whole serving tier: aggregate
    /// counters plus every session's [`SessionMetrics`], in admission order.
    /// This is the surface remote readers consume — render it with
    /// [`MetricsSnapshot::to_json`](crate::MetricsSnapshot::to_json) for the
    /// byte-reproducible `eventor-metrics/1` document.
    pub fn metrics_snapshot(&self) -> crate::MetricsSnapshot {
        crate::MetricsSnapshot {
            aggregate: self.metrics(),
            sessions: self.slots.iter().map(Slot::metrics).collect(),
        }
    }

    /// The key frames a session has retired so far: the live session's
    /// running reconstruction while it is being served, the terminal
    /// output's key frames once it finished, and the empty slice after the
    /// output was taken. Lets a bridge stream depth maps incrementally
    /// without consuming the terminal output.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`].
    pub fn keyframes(
        &self,
        id: SessionId,
    ) -> Result<&[eventor_emvs::KeyframeReconstruction], ServeError> {
        let slot = self.slot(id)?;
        if let Some(session) = &slot.session {
            return Ok(session.keyframes());
        }
        match &slot.output {
            Some(output) => Ok(&output.output.keyframes),
            None => Ok(&[]),
        }
    }

    /// An aggregate metrics snapshot for the whole engine (field reference
    /// in `docs/SERVING.md`).
    pub fn metrics(&self) -> ServeMetrics {
        let mut m = ServeMetrics {
            sessions: self.slots.len(),
            active: 0,
            draining: 0,
            finished: 0,
            failed: 0,
            workers: self.config.workers(),
            queue_depth: 0,
            events_enqueued: 0,
            events_ingested: 0,
            events_processed: 0,
            depth_maps: 0,
            pump_rounds: self.pump_rounds,
            busy_seconds: 0.0,
            wall_seconds: self.pump_wall.as_secs_f64(),
            events_per_second: 0.0,
            depth_maps_per_second: 0.0,
            utilization: 0.0,
        };
        for slot in &self.slots {
            match slot.status() {
                SessionStatus::Active => m.active += 1,
                SessionStatus::Draining => m.draining += 1,
                SessionStatus::Finished => m.finished += 1,
                SessionStatus::Failed => m.failed += 1,
            }
            m.queue_depth += slot.queue.depth();
            m.events_enqueued += slot.events_enqueued;
            m.events_ingested += slot.events_ingested;
            m.events_processed += slot.live_processed();
            m.depth_maps += slot.live_keyframes();
            m.busy_seconds += slot.busy.as_secs_f64();
        }
        m.events_per_second = per_second(m.events_processed as f64, m.wall_seconds);
        m.depth_maps_per_second = per_second(m.depth_maps as f64, m.wall_seconds);
        m.utilization = per_second(m.busy_seconds, m.wall_seconds * m.workers as f64);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventor_core::{config_for_sequence, EventorOptions, EventorSession};
    use eventor_events::{DatasetConfig, Polarity, SequenceKind, SyntheticSequence};

    fn sequence() -> SyntheticSequence {
        SyntheticSequence::generate(SequenceKind::SliderClose, &DatasetConfig::fast_test())
            .expect("fast_test sequences generate")
    }

    fn session_for(seq: &SyntheticSequence) -> EventorSession {
        EventorSession::builder(seq.camera, config_for_sequence(seq, 50))
            .software(EventorOptions::accelerator())
            .build()
            .expect("session builds")
    }

    #[test]
    fn engine_and_slots_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ServeEngine>();
        assert_send::<EventorSession>();
    }

    #[test]
    fn config_defaults_and_clamps() {
        let c = ServeConfig::default();
        assert!(c.workers() >= 1);
        assert_eq!(c.queue_capacity(), DEFAULT_QUEUE_CAPACITY);
        assert_eq!(c.quantum_events(), DEFAULT_QUANTUM_EVENTS);
        let c = c
            .with_workers(0)
            .with_queue_capacity(0)
            .with_quantum_events(0);
        assert_eq!(
            (c.workers(), c.queue_capacity(), c.quantum_events()),
            (1, 1, 1)
        );
    }

    #[test]
    fn unknown_session_ids_are_rejected_everywhere() {
        let mut engine = ServeEngine::new(ServeConfig::new());
        let ghost = SessionId(7);
        assert!(matches!(
            engine.enqueue_events(ghost, &[]),
            Err(ServeError::UnknownSession { .. })
        ));
        assert!(matches!(
            engine.enqueue_pose(ghost, 0.0, Pose::identity()),
            Err(ServeError::UnknownSession { .. })
        ));
        assert!(matches!(
            engine.close(ghost),
            Err(ServeError::UnknownSession { .. })
        ));
        assert!(matches!(
            engine.status(ghost),
            Err(ServeError::UnknownSession { .. })
        ));
        assert!(engine.take_output(ghost).is_none());
        assert!(engine.is_empty());
        assert!(engine.is_idle());
        let err = ServeError::UnknownSession { session: ghost };
        assert!(err.to_string().contains("#7"));
    }

    #[test]
    fn admitted_session_runs_to_completion() {
        let seq = sequence();
        let mut engine = ServeEngine::new(ServeConfig::new().with_workers(2));
        let id = engine.admit(session_for(&seq));
        assert_eq!(engine.len(), 1);
        assert_eq!(engine.status(id).unwrap(), SessionStatus::Active);
        assert!(matches!(
            engine.poll_serve().as_slice(),
            [ServeEvent::SessionAdmitted {
                backend: "software",
                ..
            }]
        ));

        engine.enqueue_trajectory(id, &seq.trajectory).unwrap();
        let events = seq.events.as_slice();
        let mut offset = 0usize;
        while offset < events.len() {
            match engine.enqueue_events(id, &events[offset..]) {
                Ok(n) => offset += n,
                Err(ServeError::Session {
                    source: EmvsError::Backpressure { .. },
                    ..
                }) => {}
                Err(e) => panic!("unexpected enqueue error: {e}"),
            }
            engine.pump();
        }
        engine.close(id).unwrap();
        assert_eq!(engine.status(id).unwrap(), SessionStatus::Draining);
        engine.drain().unwrap();
        assert_eq!(engine.status(id).unwrap(), SessionStatus::Finished);
        assert!(engine
            .poll_serve()
            .iter()
            .any(|e| matches!(e, ServeEvent::SessionFinished { .. })));

        let metrics = engine.session_metrics(id).unwrap();
        assert_eq!(metrics.events_enqueued, events.len() as u64);
        assert_eq!(metrics.events_ingested, events.len() as u64);
        assert_eq!(metrics.events_processed, events.len() as u64);
        assert!(metrics.depth_maps > 0);
        assert!(metrics.busy_seconds > 0.0);
        assert!(metrics.events_per_second > 0.0);

        let output = engine.take_output(id).expect("finished output");
        assert_eq!(output.output.keyframes.len(), metrics.depth_maps);
        assert!(engine.take_output(id).is_none(), "output is taken once");
    }

    #[test]
    fn enqueue_after_close_is_rejected() {
        let seq = sequence();
        let mut engine = ServeEngine::new(ServeConfig::new());
        let id = engine.admit(session_for(&seq));
        engine.close(id).unwrap();
        engine.close(id).unwrap(); // idempotent
        assert!(matches!(
            engine.enqueue_events(id, seq.events.as_slice()),
            Err(ServeError::SessionClosed { .. })
        ));
        // Poses are still welcome: the tail may need them.
        engine.enqueue_pose(id, 0.0, Pose::identity()).unwrap();
    }

    #[test]
    fn queue_backpressure_reuses_emvs_semantics() {
        let seq = sequence();
        let mut engine =
            ServeEngine::new(ServeConfig::new().with_workers(1).with_queue_capacity(1000));
        let id = engine.admit(
            EventorSession::builder(seq.camera, config_for_sequence(&seq, 50))
                .software(EventorOptions::accelerator())
                .max_pending_events(2048)
                .build()
                .expect("session builds"),
        );
        // No poses: nothing drains, so the queue and then the session's
        // bounded pending buffer fill up.
        let events = seq.events.as_slice();
        let first = engine.enqueue_events(id, events).unwrap();
        assert_eq!(first, 1000, "short write at queue capacity");
        engine.pump();
        let mut total = first;
        loop {
            match engine.enqueue_events(id, &events[total..]) {
                Ok(n) => {
                    assert!(n > 0);
                    total += n;
                }
                Err(ServeError::Session {
                    source: EmvsError::Backpressure { pending, capacity },
                    ..
                }) => {
                    assert_eq!((pending, capacity), (1000, 1000));
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
            engine.pump();
        }
        assert!(total < events.len());
        // drain() reports the wedge as backpressure on this session.
        assert!(matches!(
            engine.drain(),
            Err(ServeError::Session {
                source: EmvsError::Backpressure { .. },
                ..
            })
        ));
        // Stall was observed and reported once.
        let stalls = engine
            .poll_serve()
            .iter()
            .filter(|e| matches!(e, ServeEvent::SessionStalled { .. }))
            .count();
        assert_eq!(stalls, 1);
        // Supplying the poses unwedges the same engine.
        engine.enqueue_trajectory(id, &seq.trajectory).unwrap();
        engine.drain().unwrap();
        let mut offset = total;
        while offset < events.len() {
            match engine.enqueue_events(id, &events[offset..]) {
                Ok(n) => offset += n,
                Err(e) => panic!("unexpected error after poses: {e}"),
            }
            engine.pump();
        }
        let output = engine.finish_session(id).unwrap();
        assert!(!output.output.keyframes.is_empty());
    }

    #[test]
    fn failed_sessions_are_isolated_and_recoverable() {
        let seq = sequence();
        let mut engine = ServeEngine::new(ServeConfig::new().with_workers(2));
        let healthy = engine.admit(session_for(&seq));
        let doomed = engine.admit(session_for(&seq));
        engine.enqueue_trajectory(healthy, &seq.trajectory).unwrap();
        let events = seq.events.as_slice();
        let mut offset = 0usize;
        while offset < events.len() {
            offset += engine.enqueue_events(healthy, &events[offset..]).unwrap();
            engine.pump();
        }
        // Events whose frame mid-points precede every pose: the pose lookup
        // fails at flush and no future pose can cover them.
        let early: Vec<Event> = (0..2048)
            .map(|i| Event::new(i as f64 * 1e-5, 0, 0, Polarity::Positive))
            .collect();
        engine.enqueue_events(doomed, &early).unwrap();
        engine
            .enqueue_pose(doomed, 100.0, Pose::identity())
            .unwrap();
        engine
            .enqueue_pose(doomed, 101.0, Pose::identity())
            .unwrap();
        engine.close(healthy).unwrap();
        engine.close(doomed).unwrap();
        let err = engine.drain().expect_err("doomed session wedges the drain");
        assert!(matches!(err, ServeError::Session { session, .. } if session == doomed));
        // The healthy session finished regardless.
        assert_eq!(engine.status(healthy).unwrap(), SessionStatus::Finished);
        assert_eq!(engine.status(doomed).unwrap(), SessionStatus::Failed);
        assert!(engine.last_error(doomed).unwrap().is_some());
        assert!(engine
            .poll_serve()
            .iter()
            .any(|e| matches!(e, ServeEvent::SessionFailed { session, .. } if *session == doomed)));
        // Discarding the unservable input recovers the doomed session: it
        // now drains to an (empty) but well-formed terminal output.
        assert!(engine.discard_pending(doomed).unwrap() > 0);
        assert!(engine.last_error(doomed).unwrap().is_none());
        let recovered = engine.finish_session(doomed).unwrap();
        assert!(recovered.output.keyframes.is_empty());
        let output = engine.take_output(healthy).expect("healthy output");
        assert!(!output.output.keyframes.is_empty());
    }

    #[test]
    fn a_dead_session_stays_failed_after_discard() {
        // `finish` can consume a session and still fail (NoEvents): the slot
        // must stay terminal even after `discard_pending` clears the sticky
        // error — it can never be misread as Draining/Active again.
        let seq = sequence();
        let mut engine = ServeEngine::new(ServeConfig::new());
        let id = engine.admit(session_for(&seq));
        engine.close(id).unwrap();
        engine.pump();
        assert_eq!(engine.status(id).unwrap(), SessionStatus::Failed);
        assert!(matches!(
            engine.last_error(id).unwrap(),
            Some(EmvsError::NoEvents)
        ));
        engine.discard_pending(id).unwrap();
        assert!(engine.last_error(id).unwrap().is_none());
        assert_eq!(engine.status(id).unwrap(), SessionStatus::Failed);
        // The engine stays quiescent and consistent around the dead slot.
        engine.drain().unwrap();
        assert!(matches!(
            engine.finish_session(id),
            Err(ServeError::SessionClosed { .. })
        ));
        assert!(engine.take_output(id).is_none());
    }

    #[test]
    fn abort_kills_a_live_session_and_spares_finished_ones() {
        let seq = sequence();
        let mut engine = ServeEngine::new(ServeConfig::new().with_workers(2));
        let doomed = engine.admit(session_for(&seq));
        let healthy = engine.admit(session_for(&seq));
        let events = seq.events.as_slice();
        for &id in &[doomed, healthy] {
            engine.enqueue_trajectory(id, &seq.trajectory).unwrap();
            let mut offset = 0usize;
            while offset < events.len() {
                offset += engine.enqueue_events(id, &events[offset..]).unwrap();
                engine.pump();
            }
        }
        let reason = EmvsError::InvalidConfig {
            reason: "client went away".into(),
        };
        engine.abort(doomed, reason.clone()).unwrap();
        engine.abort(doomed, reason.clone()).unwrap(); // idempotent
        assert_eq!(engine.status(doomed).unwrap(), SessionStatus::Failed);
        let failures = engine
            .poll_serve()
            .iter()
            .filter(
                |e| matches!(e, ServeEvent::SessionFailed { session, .. } if *session == doomed),
            )
            .count();
        assert_eq!(failures, 1, "abort reports the failure exactly once");
        // The aborted slot never wedges the engine; the healthy session
        // still drains to its full, untruncated output.
        engine.close(healthy).unwrap();
        engine.drain().unwrap();
        let output = engine.take_output(healthy).expect("healthy output");
        assert_eq!(output.output.profile.events_processed, events.len() as u64);
        assert!(engine.take_output(doomed).is_none());
        // Aborting a finished session is a no-op: status and output survive.
        let finished = engine.admit(session_for(&seq));
        engine
            .enqueue_trajectory(finished, &seq.trajectory)
            .unwrap();
        let mut offset = 0usize;
        while offset < events.len() {
            offset += engine.enqueue_events(finished, &events[offset..]).unwrap();
            engine.pump();
        }
        let out = engine.finish_session(finished).unwrap();
        assert!(!out.output.keyframes.is_empty());
        engine.abort(finished, reason).unwrap();
        assert_eq!(engine.status(finished).unwrap(), SessionStatus::Finished);
    }

    #[test]
    fn terminal_sessions_release_their_queue_storage() {
        let seq = sequence();
        let events = seq.events.as_slice();
        let mut engine = ServeEngine::new(ServeConfig::new().with_workers(1));
        let holds_storage = |engine: &ServeEngine, id: SessionId| {
            let queue = &engine.slots[id.0].queue;
            queue.events.capacity() > 0 || queue.poses.capacity() > 0
        };
        let finished = engine.admit(session_for(&seq));
        let aborted = engine.admit(session_for(&seq));
        for id in [finished, aborted] {
            engine.enqueue_trajectory(id, &seq.trajectory).unwrap();
            engine.enqueue_events(id, events).unwrap();
            assert!(holds_storage(&engine, id));
        }
        engine.finish_session(finished).unwrap();
        assert!(!holds_storage(&engine, finished));
        let reason = EmvsError::InvalidConfig {
            reason: "client went away".into(),
        };
        engine.abort(aborted, reason).unwrap();
        assert!(!holds_storage(&engine, aborted));
    }

    #[test]
    fn shutdown_returns_every_terminal_result() {
        let seq = sequence();
        let mut engine = ServeEngine::new(ServeConfig::new().with_workers(3));
        let ids: Vec<SessionId> = (0..3).map(|_| engine.admit(session_for(&seq))).collect();
        let events = seq.events.as_slice();
        for &id in &ids {
            engine.enqueue_trajectory(id, &seq.trajectory).unwrap();
            let mut offset = 0usize;
            while offset < events.len() {
                offset += engine.enqueue_events(id, &events[offset..]).unwrap();
                engine.pump();
            }
        }
        let results = engine.shutdown();
        assert_eq!(results.len(), 3);
        for ((id, result), expected) in results.into_iter().zip(&ids) {
            assert_eq!(id, *expected);
            let output = result.expect("all sessions finish");
            assert!(!output.output.keyframes.is_empty());
            // The *whole* stream was served, not a truncated prefix.
            assert_eq!(output.output.profile.events_processed, events.len() as u64);
        }
    }

    #[test]
    fn checkpointed_session_resumes_to_the_identical_output() {
        let seq = sequence();
        let events = seq.events.as_slice();
        let mut engine = ServeEngine::new(ServeConfig::new().with_workers(2));
        let id = engine.admit(session_for(&seq));
        engine.enqueue_trajectory(id, &seq.trajectory).unwrap();

        // A checkpoint with queued input is refused: it would lose client
        // state.
        engine.enqueue_events(id, &events[..100]).unwrap();
        let err = engine.checkpoint_session(id, "origin").unwrap_err();
        assert!(matches!(
            err,
            ServeError::Session {
                source: EmvsError::Checkpoint { .. },
                ..
            }
        ));

        // Serve half the stream, drain the queue, checkpoint mid-flight.
        let cut = events.len() / 2;
        let mut offset = 100usize;
        while offset < cut {
            offset += engine.enqueue_events(id, &events[offset..cut]).unwrap();
            engine.pump();
        }
        while engine.session_metrics(id).unwrap().queue_depth > 0 {
            engine.pump();
        }
        let checkpoint = engine.checkpoint_session(id, "serve-test").unwrap();
        assert_eq!(checkpoint.origin(), "serve-test");
        assert_eq!(checkpoint.backend_kind(), "software");

        // Kill the original (client vanished), resume from the checkpoint,
        // serve the remainder: the terminal output must equal the
        // uninterrupted run bit for bit.
        engine
            .abort(
                id,
                EmvsError::InvalidConfig {
                    reason: "client went away".into(),
                },
            )
            .unwrap();
        let resumed = engine.resume_session(checkpoint).unwrap();
        let mut offset = cut;
        while offset < events.len() {
            offset += engine.enqueue_events(resumed, &events[offset..]).unwrap();
            engine.pump();
        }
        let output = engine.finish_session(resumed).unwrap();

        let mut reference = session_for(&seq);
        reference.push_trajectory(&seq.trajectory).unwrap();
        reference.push_events(events).unwrap();
        let expected = reference.finish().unwrap();
        assert_eq!(
            output.output.keyframes.len(),
            expected.output.keyframes.len()
        );
        for (got, want) in output
            .output
            .keyframes
            .iter()
            .zip(&expected.output.keyframes)
        {
            assert_eq!(got.depth_map.depth_data(), want.depth_map.depth_data());
            assert_eq!(got.votes_cast, want.votes_cast);
        }

        // Resuming an unknown backend kind is a typed resume error.
        let mut bad = session_for(&seq);
        bad.push_trajectory(&seq.trajectory).unwrap();
        bad.push_events(&events[..cut]).unwrap();
        bad.poll().unwrap();
        let ckpt = bad.snapshot("origin").unwrap();
        let bytes = ckpt.encode();
        // Patch the backend-kind string in the payload ("software" follows
        // the origin string).
        let mut patched = bytes.clone();
        let kind_at = 4 + "origin".len() + 4;
        patched[kind_at.."software".len() + kind_at].copy_from_slice(b"softwarX");
        let forged = SessionCheckpoint::decode(&patched).unwrap();
        assert!(matches!(
            engine.resume_session(forged),
            Err(ServeError::Resume {
                source: EmvsError::Checkpoint { .. }
            })
        ));
    }

    #[test]
    fn aggregate_metrics_sum_the_sessions() {
        let seq = sequence();
        let mut engine = ServeEngine::new(ServeConfig::new().with_workers(2));
        let a = engine.admit(session_for(&seq));
        let b = engine.admit(session_for(&seq));
        let events = seq.events.as_slice();
        for &id in &[a, b] {
            engine.enqueue_trajectory(id, &seq.trajectory).unwrap();
            let mut offset = 0usize;
            while offset < events.len() {
                offset += engine.enqueue_events(id, &events[offset..]).unwrap();
                engine.pump();
            }
            engine.close(id).unwrap();
        }
        engine.drain().unwrap();
        let m = engine.metrics();
        assert_eq!(m.sessions, 2);
        assert_eq!(m.finished, 2);
        assert_eq!((m.active, m.draining, m.failed), (0, 0, 0));
        assert_eq!(m.queue_depth, 0);
        assert_eq!(m.events_processed, 2 * seq.events.len() as u64);
        assert_eq!(
            m.events_processed,
            engine.session_metrics(a).unwrap().events_processed
                + engine.session_metrics(b).unwrap().events_processed
        );
        assert!(m.depth_maps > 0);
        assert!(m.pump_rounds > 0);
        assert!(m.wall_seconds > 0.0);
        assert!(m.events_per_second > 0.0);
        assert!(m.utilization > 0.0);
    }
}
