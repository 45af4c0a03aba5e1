//! `wire_mix`: one loopback `WireServer` in the benchmark process, loaded
//! open loop by `nproc` client threads with one connection each, every
//! connection multiplexing many sessions by wire id.
//!
//! Worlds are `heterogeneous_pool` corpus worlds (80×60, 44–56 planes);
//! session `s` streams world `s mod POOL`, and every [`COSIM_EVERY`]th
//! session runs on the `cosim` backend. Sessions start on a fixed schedule
//! that offers [`OFFERED_EVENTS_PER_S`] in aggregate, and each session's
//! events fall due at their own timestamps, sent in
//! [`CHUNK`]-event `Events` frames each followed by a `Poll`. A client that
//! falls behind sends late and the lateness is charged to every latency it
//! causes: depth-map latency runs from the *due* time of the chunk that
//! completed a key frame to the client receiving that `DepthMap`.
//!
//! The gated rate is events per second of the process's CPU time (server
//! and clients): the delivered rate is set by the schedule as long as the
//! server keeps up, and the wall-clock latencies move with every stall of
//! the host, so both go to the context line.

use crate::engine::Engine;
use crate::feed::{feed, Stream};
use crate::golden;
use crate::host;
use crate::layers;
use crate::report::Outcome;
use crate::stats;
use crate::trace::{self, Tracer, ROOT};
use eventor_core::CosimReport;
use eventor_net::{
    spawn_loopback, ManifestSource, NetConfig, ServerHandle, SessionManifest, WireClient,
    WireError, WireSessionEvent,
};
use eventor_scenarios::{heterogeneous_pool, BackendKind, ScenarioWorld};
use eventor_serve::{LoadShape, ServeConfig, ServeEngine};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Distinct worlds per run.
pub const POOL: usize = 20;
/// Events per `Events` frame (and per packet of the in-process ladder).
pub const CHUNK: usize = 2048;
/// Session `s` runs on `cosim` when `s % COSIM_EVERY == COSIM_EVERY - 1`.
pub const COSIM_EVERY: usize = 8;
/// Aggregate event rate the schedule offers: about a third of the
/// closed-loop wire capacity of a quiet 2-core host (≈ 1.6 M events/s).
/// Half of it saturated the server whenever other tenants slowed the host
/// down by half, and the backlog then swamped every latency figure.
pub const OFFERED_EVENTS_PER_S: f64 = 4.5e5;
/// Sessions of the closed-loop layer ladder and the in-process replays.
pub const LADDER_SESSIONS: usize = 40;
/// Times the set-up is repeated per run (the median is reported).
pub const SETUP_REPEATS: usize = 3;
/// Lead time between planning and the first due send, so every client is
/// connected before the schedule starts.
const START_LEAD: Duration = Duration::from_millis(50);

/// One planned session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionPlan {
    pub world: usize,
    pub cosim: bool,
    /// Offset of the session's start from the schedule's epoch.
    pub start: Duration,
}

/// One due send: chunk `chunk` of session `session`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Item {
    /// Offset from the schedule's epoch.
    pub due: Duration,
    pub session: usize,
    pub chunk: usize,
    pub last: bool,
}

/// The whole open-loop schedule: every session, and each client's sends in
/// due order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    pub sessions: Vec<SessionPlan>,
    pub clients: Vec<Vec<Item>>,
}

fn is_cosim(session: usize) -> bool {
    session % COSIM_EVERY == COSIM_EVERY - 1
}

/// Due offset of every chunk of a stream, relative to the stream's start:
/// a chunk falls due when its last event has happened.
pub fn chunk_dues(timestamps: &[f64], chunk: usize) -> Vec<Duration> {
    let Some(&t0) = timestamps.first() else {
        return Vec::new();
    };
    timestamps
        .chunks(chunk)
        .map(|c| Duration::from_secs_f64((c[c.len() - 1] - t0).max(0.0)))
        .collect()
}

/// Plans the schedule: sessions cycle over the worlds, session `s + 1`
/// starts `events(s) / offered` after session `s`, and sessions are
/// planned while they end inside `window`. Session `s` belongs to client
/// `s mod clients`. A pure function of its inputs.
pub fn plan(
    dues: &[Vec<Duration>],
    world_events: &[usize],
    offered: f64,
    window: Duration,
    clients: usize,
) -> Plan {
    let mut sessions = Vec::new();
    let mut start = Duration::ZERO;
    loop {
        let s = sessions.len();
        let world = s % dues.len();
        let end = start + dues[world].last().copied().unwrap_or_default();
        if end > window {
            break;
        }
        sessions.push(SessionPlan {
            world,
            cosim: is_cosim(s),
            start,
        });
        start += Duration::from_secs_f64(world_events[world] as f64 / offered);
    }
    let clients = clients.max(1);
    let mut per_client = vec![Vec::new(); clients];
    for (s, p) in sessions.iter().enumerate() {
        let n = dues[p.world].len();
        for (chunk, due) in dues[p.world].iter().enumerate() {
            per_client[s % clients].push(Item {
                due: p.start + *due,
                session: s,
                chunk,
                last: chunk + 1 == n,
            });
        }
    }
    for items in &mut per_client {
        items.sort_by_key(|i| (i.due, i.session, i.chunk));
    }
    Plan {
        sessions,
        clients: per_client,
    }
}

/// Where an open-loop client delivers its due sends.
pub trait Sink {
    fn deliver(&mut self, item: &Item);
}

/// Sends every item at its due time (sleeping until then) and returns how
/// late each send started, in ms. A sink slower than the schedule makes
/// every later send late: the lag is charged, never skipped.
pub fn drive<S: Sink>(items: &[Item], epoch: Instant, sink: &mut S) -> Vec<f64> {
    let mut lag_ms = Vec::with_capacity(items.len());
    for item in items {
        let due = epoch + item.due;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        lag_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        sink.deliver(item);
    }
    lag_ms
}

/// Generated worlds, their reference digests and the running server.
struct Inputs {
    worlds: Vec<ScenarioWorld>,
    /// Software-backend digest of every world.
    refs: Vec<u64>,
    dues: Vec<Vec<Duration>>,
    server: ServerHandle,
}

fn world_stream(w: &ScenarioWorld) -> Stream<'_> {
    Stream {
        name: &w.name,
        camera: w.camera,
        config: &w.config,
        trajectory: &w.trajectory,
        events: w.events.as_slice(),
    }
}

impl Inputs {
    fn stream(&self, world: usize) -> Stream<'_> {
        world_stream(&self.worlds[world])
    }

    fn plan(&self, window: Duration, clients: usize) -> Plan {
        let lens: Vec<usize> = self.worlds.iter().map(|w| w.events.len()).collect();
        plan(&self.dues, &lens, OFFERED_EVENTS_PER_S, window, clients)
    }

    fn shutdown(self) {
        self.server.shutdown();
    }
}

fn setup(seed: u64) -> Result<Inputs, String> {
    let worlds = heterogeneous_pool(POOL, seed).map_err(|e| format!("world pool: {e}"))?;
    let quiet = Tracer::new(false);
    let mut refs = Vec::with_capacity(worlds.len());
    for (i, w) in worlds.iter().enumerate() {
        let fed = feed(
            Engine::Software,
            world_stream(w),
            CHUNK,
            &quiet,
            false,
            i as u64,
        );
        if fed.failed_packets > 0 {
            return Err(format!("reference run of {} failed", w.name));
        }
        refs.push(fed.digest);
    }
    let dues = worlds
        .iter()
        .map(|w| {
            let t: Vec<f64> = w.events.as_slice().iter().map(|e| e.t).collect();
            chunk_dues(&t, CHUNK)
        })
        .collect();
    let server = spawn_loopback(NetConfig::new()).map_err(|e| format!("server spawn: {e}"))?;
    Ok(Inputs {
        worlds,
        refs,
        dues,
        server,
    })
}

fn manifest(world: &ScenarioWorld, cosim: bool) -> SessionManifest {
    SessionManifest {
        backend: if cosim {
            BackendKind::Cosim
        } else {
            BackendKind::Software
        },
        source: ManifestSource::Scenario {
            name: world.name.clone(),
            seed: world.seed,
        },
    }
}

/// A session in flight on one client.
#[derive(Debug)]
struct Live {
    id: u64,
    /// Cumulative events at the end of each retired segment.
    retired: Vec<usize>,
    lifecycle_seen: usize,
    maps_seen: usize,
}

/// One client's tallies.
#[derive(Debug, Default)]
struct ClientOut {
    sessions: u64,
    failed: u64,
    events: u64,
    frame_us: Vec<f64>,
    depth_ms: Vec<f64>,
    credit_stalls: u64,
    lag_ms: Vec<f64>,
    last_done: Option<Instant>,
}

/// The open-loop sink: one connection, many sessions.
struct WireSink<'a> {
    client: WireClient,
    inputs: &'a Inputs,
    plan: &'a Plan,
    tracer: &'a Tracer,
    epoch: Instant,
    live: HashMap<usize, Live>,
    out: ClientOut,
}

impl WireSink<'_> {
    fn span(&self, name: &'static str, op: usize, start: Instant, end: Instant) {
        self.tracer.record(name, ROOT, op as u64, start, end);
    }

    fn admit(&mut self, session: usize) -> Result<(), WireError> {
        let p = self.plan.sessions[session];
        let world = &self.inputs.worlds[p.world];
        let t = Instant::now();
        let id = self.client.admit(&manifest(world, p.cosim))?;
        self.span("net.admit", session, t, Instant::now());
        self.client.send_trajectory(id, &world.trajectory)?;
        self.live.insert(
            session,
            Live {
                id,
                retired: Vec::new(),
                lifecycle_seen: 0,
                maps_seen: 0,
            },
        );
        Ok(())
    }

    fn poll(&mut self, session: usize, id: u64) -> Result<Instant, WireError> {
        let t = Instant::now();
        self.client.poll(id)?;
        let done = Instant::now();
        self.span("net.poll", session, t, done);
        Ok(done)
    }

    fn send_chunk(&mut self, item: &Item) -> Result<(), WireError> {
        let session = item.session;
        let id = self.live[&session].id;
        let world = &self.inputs.worlds[self.plan.sessions[session].world];
        let all = world.events.as_slice();
        let events = &all[item.chunk * CHUNK..((item.chunk + 1) * CHUNK).min(all.len())];
        let start = Instant::now();
        let mut offset = 0;
        while offset < events.len() {
            let credits = self.client.credits(id) as usize;
            if credits == 0 {
                self.out.credit_stalls += 1;
                self.poll(session, id)?;
                continue;
            }
            let take = credits.min(events.len() - offset);
            let t = Instant::now();
            let accepted = self
                .client
                .send_events(id, &events[offset..offset + take])?;
            self.span("net.events", session, t, Instant::now());
            offset += accepted as usize;
        }
        let done = self.poll(session, id)?;
        self.out.frame_us.push((done - start).as_secs_f64() * 1e6);
        self.collect(session, done);
        Ok(())
    }

    /// Takes in the lifecycle and depth maps that arrived for `session`,
    /// and times every new depth map of a software session from the due
    /// time of the chunk that completed it: the chunk holding the last
    /// event of the frame that retired its key frame, or the last chunk
    /// for the key frame the finish retires.
    fn collect(&mut self, session: usize, received: Instant) {
        let p = self.plan.sessions[session];
        let world = &self.inputs.worlds[p.world];
        let dues = &self.inputs.dues[p.world];
        let live = self
            .live
            .get_mut(&session)
            .expect("collecting a live session");
        for e in &self.client.lifecycle(live.id)[live.lifecycle_seen..] {
            if let WireSessionEvent::SegmentRetired { events, .. } = e {
                let before = live.retired.last().copied().unwrap_or(0);
                live.retired.push(before + *events as usize);
            }
        }
        live.lifecycle_seen = self.client.lifecycle(live.id).len();
        let maps = self.client.depth_maps(live.id).len();
        if !p.cosim {
            let frame = world.config.events_per_frame;
            for &end in live.retired.iter().take(maps).skip(live.maps_seen) {
                let chunk = ((end + frame - 1) / CHUNK).min(dues.len() - 1);
                let due = self.epoch + p.start + dues[chunk];
                self.out
                    .depth_ms
                    .push(received.saturating_duration_since(due).as_secs_f64() * 1e3);
            }
        }
        live.maps_seen = maps;
    }

    fn finish(&mut self, session: usize) -> Result<(), String> {
        let p = self.plan.sessions[session];
        let id = self.live[&session].id;
        let t = Instant::now();
        let report = self.client.finish(id).map_err(|e| e.to_string())?;
        let done = Instant::now();
        self.span("net.finish", session, t, done);
        self.collect(session, done);
        self.live.remove(&session);
        self.out.last_done = Some(done);
        let local = self.client.digest(id);
        let want = self.inputs.refs[p.world];
        if report.digest != local || local != want {
            return Err(format!(
                "digest {:016x} (client {local:016x}) != reference {want:016x}",
                report.digest
            ));
        }
        self.out.events += report.events_processed;
        Ok(())
    }

    fn step(&mut self, item: &Item) -> Result<(), String> {
        if item.chunk == 0 {
            self.out.sessions += 1;
            self.admit(item.session).map_err(|e| e.to_string())?;
        }
        if !self.live.contains_key(&item.session) {
            // Failed earlier; already counted.
            return Ok(());
        }
        self.send_chunk(item).map_err(|e| e.to_string())?;
        if item.last {
            self.finish(item.session)?;
        }
        Ok(())
    }
}

impl Sink for WireSink<'_> {
    fn deliver(&mut self, item: &Item) {
        if let Err(e) = self.step(item) {
            let p = self.plan.sessions[item.session];
            eprintln!(
                "evbench: wire session {} ({}): {e}",
                item.session, self.inputs.worlds[p.world].name
            );
            self.out.failed += 1;
            self.live.remove(&item.session);
        }
    }
}

/// The outcome of one open-loop window.
#[derive(Debug, Default)]
struct OpenLoop {
    sessions: u64,
    failed: u64,
    events: u64,
    wall: f64,
    /// CPU time of the whole process (server and clients) over the window.
    cpu: f64,
    frame_us: Vec<f64>,
    depth_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    credit_stalls: u64,
}

impl OpenLoop {
    /// Events per second of the process's CPU time.
    fn events_per_cpu_s(&self) -> f64 {
        self.events as f64 / self.cpu
    }

    /// Events the server processed per second of wall time: the offered
    /// rate until the server falls behind.
    fn delivered_per_s(&self) -> f64 {
        self.events as f64 / self.wall
    }
}

fn open_loop(inputs: &Inputs, window: Duration, tracer: &Tracer) -> OpenLoop {
    let clients = host::nproc();
    let plan = inputs.plan(window, clients);
    let addr = inputs.server.addr();
    let cpu = host::process_cpu();
    let connected: Vec<Result<WireClient, WireError>> =
        (0..clients).map(|_| WireClient::connect(addr)).collect();
    let epoch = Instant::now() + START_LEAD;
    let outs: Vec<ClientOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = connected
            .into_iter()
            .zip(&plan.clients)
            .map(|(client, items)| {
                let plan = &plan;
                scope.spawn(move || {
                    let client = match client {
                        Ok(c) => c,
                        Err(e) => {
                            eprintln!("evbench: client connect failed: {e}");
                            let sessions = items.iter().filter(|i| i.chunk == 0).count() as u64;
                            return ClientOut {
                                sessions,
                                failed: sessions,
                                ..ClientOut::default()
                            };
                        }
                    };
                    let mut sink = WireSink {
                        client,
                        inputs,
                        plan,
                        tracer,
                        epoch,
                        live: HashMap::new(),
                        out: ClientOut::default(),
                    };
                    let lag = drive(items, epoch, &mut sink);
                    let WireSink {
                        client, mut out, ..
                    } = sink;
                    out.lag_ms = lag;
                    if let Err(e) = client.bye() {
                        eprintln!("evbench: client bye failed: {e}");
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("wire client panicked"))
            .collect()
    });
    let mut total = OpenLoop {
        cpu: (host::process_cpu() - cpu).as_secs_f64(),
        ..OpenLoop::default()
    };
    let mut last_done = epoch;
    for out in outs {
        total.sessions += out.sessions;
        total.failed += out.failed;
        total.events += out.events;
        total.frame_us.extend(out.frame_us);
        total.depth_ms.extend(out.depth_ms);
        total.lag_ms.extend(out.lag_ms);
        total.credit_stalls += out.credit_stalls;
        last_done = last_done.max(out.last_done.unwrap_or(epoch));
    }
    total.wall = (last_done - epoch).as_secs_f64().max(1e-9);
    total
}

fn put_end_to_end(outcome: &mut Outcome, run: &OpenLoop, setup_s: &[f64]) {
    outcome.put("events_per_s", run.events_per_cpu_s());
    outcome.put("setup_s", stats::median(setup_s));
    outcome.put("peak_rss_mb", host::peak_rss_mb());
    outcome.note_latencies(&run.frame_us, &run.depth_ms);
    outcome.note("delivered_events_per_s", run.delivered_per_s());
    outcome.note("sessions", run.sessions);
    outcome.note("lag_ms_p99", stats::tail(&run.lag_ms, 0.99).value);
    outcome.note("setup_s_each", format!("{setup_s:?}"));
}

fn count_ops(outcome: &mut Outcome, run: &OpenLoop) {
    outcome.attempted += run.sessions;
    if run.failed > 0 {
        outcome.fail(run.failed, format!("{} wire sessions failed", run.failed));
    }
}

pub fn run(seed: u64, seconds: u64, traced: bool, outcome: &mut Outcome) -> Result<(), String> {
    outcome.note("offered_events_per_s", OFFERED_EVENTS_PER_S);
    let repeats = if traced { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::with_capacity(repeats);
    let mut inputs: Option<Inputs> = None;
    for _ in 0..repeats {
        if let Some(old) = inputs.take() {
            old.shutdown();
        }
        let cpu = host::process_cpu();
        inputs = Some(setup(seed)?);
        setup_s.push((host::process_cpu() - cpu).as_secs_f64());
    }
    let inputs = inputs.expect("set-up ran at least once");
    if seed == golden::DEFAULT_SEED {
        let got: Vec<(&str, u64)> = inputs
            .worlds
            .iter()
            .map(|w| w.name.as_str())
            .zip(inputs.refs.iter().copied())
            .collect();
        if got != golden::WIRE_POOL {
            outcome.drift(format!("world digests {got:x?} != committed"));
        }
    }
    let result = if traced {
        run_traced(&inputs, seed, seconds, outcome)
    } else {
        if let Err(e) = host::reset_peak_rss() {
            outcome.note_str("peak_rss_reset", &e.to_string());
        }
        let run = open_loop(&inputs, Duration::from_secs(seconds), &Tracer::new(false));
        count_ops(outcome, &run);
        put_end_to_end(outcome, &run, &setup_s);
        Ok(())
    };
    inputs.shutdown();
    result
}

/// Reads a number from the `eventor-metrics/1` document's aggregate block
/// (which precedes every per-session block).
fn metrics_number(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\": ");
    let at = doc.find(&needle)? + needle.len();
    let rest = &doc[at..];
    let end = rest.find([',', '\n']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn server_metrics(addr: SocketAddr) -> Result<String, WireError> {
    let mut client = WireClient::connect(addr)?;
    let doc = client.metrics()?;
    client.bye()?;
    Ok(doc)
}

/// The traced run: an untraced and a traced open-loop window (the overhead
/// baseline and the client-side request spans), the server's own metrics,
/// the closed-loop layer ladder and the in-process replays.
fn run_traced(
    inputs: &Inputs,
    seed: u64,
    seconds: u64,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let window = Duration::from_secs(seconds.div_ceil(2).max(1));
    let plain = open_loop(inputs, window, &Tracer::new(false));
    let tracer = Tracer::new(true);
    let traced = open_loop(inputs, window, &tracer);
    count_ops(outcome, &plain);
    count_ops(outcome, &traced);
    let spans = tracer.spans();
    crate::write_trace(&tracer, "", outcome);
    let us = |name| -> Vec<f64> {
        trace::durations_ns(&spans, name)
            .into_iter()
            .map(|ns| ns / 1e3)
            .collect()
    };
    let ack = us("net.events");
    outcome.put("net.events_ack_us.p50", stats::median(&ack));
    outcome.put("net.events_ack_us.p99", stats::tail(&ack, 0.99).value);
    outcome.put("net.poll_us.p99", stats::tail(&us("net.poll"), 0.99).value);
    let ms = |v: Vec<f64>| -> Vec<f64> { v.into_iter().map(|x| x / 1e3).collect() };
    outcome.put(
        "net.admit_ms.p99",
        stats::tail(&ms(us("net.admit")), 0.99).value,
    );
    outcome.put(
        "net.finish_ms.p99",
        stats::tail(&ms(us("net.finish")), 0.99).value,
    );
    outcome.put("net.credit_stalls", traced.credit_stalls as f64);
    outcome.put("bench.lag_ms.p99", stats::tail(&traced.lag_ms, 0.99).value);
    outcome.put(
        "bench.trace_overhead_frac",
        1.0 - traced.events_per_cpu_s() / plain.events_per_cpu_s(),
    );
    outcome.note("untraced_events_per_s", plain.events_per_cpu_s());
    outcome.note("traced_events_per_s", traced.events_per_cpu_s());

    let doc = server_metrics(inputs.server.addr()).map_err(|e| format!("metrics: {e}"))?;
    for (metric, key) in [
        ("serve.pump_rounds", "pump_rounds"),
        ("serve.utilization", "utilization"),
        ("serve.busy_s", "busy_seconds"),
        ("serve.pump_wall_s", "wall_seconds"),
    ] {
        let value = metrics_number(&doc, key).ok_or(format!("metrics document lacks {key}"))?;
        outcome.put(metric, value);
    }

    ladder(inputs, outcome);
    let core = replay_software(inputs, outcome);
    let hwsim = replay_cosim(inputs, outcome);
    if seed == golden::DEFAULT_SEED {
        if core != golden::WIRE_CORE {
            outcome.drift(format!(
                "replay frames/key frames {core:?} != committed {:?}",
                golden::WIRE_CORE
            ));
        }
        if hwsim != golden::WIRE_HWSIM {
            outcome.drift(format!(
                "simulated frames/votes/seconds {hwsim:?} != committed {:?}",
                golden::WIRE_HWSIM
            ));
        }
    }
    Ok(())
}

/// The sessions of the ladder and the replays: the schedule's first
/// [`LADDER_SESSIONS`] sessions, as `(world, cosim)`.
fn ladder_sessions() -> Vec<(usize, bool)> {
    (0..LADDER_SESSIONS)
        .map(|s| (s % POOL, is_cosim(s)))
        .collect()
}

fn engine_of(cosim: bool) -> Engine {
    if cosim {
        Engine::Cosim
    } else {
        Engine::Software
    }
}

/// The ladder: the same sessions closed loop as standalone in-process
/// sessions, through an in-process `ServeEngine`, and over the wire.
fn ladder(inputs: &Inputs, outcome: &mut Outcome) {
    let sessions = ladder_sessions();
    let events: u64 = sessions
        .iter()
        .map(|&(w, _)| inputs.worlds[w].events.len() as u64)
        .sum();
    let check = |outcome: &mut Outcome, layer: &str, world: usize, digest: Option<u64>| {
        outcome.attempted += 1;
        if digest != Some(inputs.refs[world]) {
            outcome.fail(
                1,
                format!(
                    "ladder {layer}: {} digest {digest:x?}",
                    inputs.worlds[world].name
                ),
            );
        }
    };

    let quiet = Tracer::new(false);
    let start = Instant::now();
    for (i, &(w, cosim)) in sessions.iter().enumerate() {
        let fed = feed(
            engine_of(cosim),
            inputs.stream(w),
            CHUNK,
            &quiet,
            false,
            i as u64,
        );
        check(
            outcome,
            "session",
            w,
            (fed.failed_packets == 0).then_some(fed.digest),
        );
    }
    let session_rate = events as f64 / start.elapsed().as_secs_f64();

    let start = Instant::now();
    let mut engine = ServeEngine::new(ServeConfig::new());
    let mut ids = Vec::new();
    for &(w, cosim) in &sessions {
        let world = &inputs.worlds[w];
        let admitted = engine_of(cosim)
            .session(world.camera, &world.config)
            .map_err(|e| e.to_string())
            .and_then(|s| {
                let id = engine.admit(s);
                engine
                    .enqueue_trajectory(id, &world.trajectory)
                    .and_then(|()| engine.enqueue_events(id, world.events.as_slice()))
                    .and_then(|_| engine.close(id))
                    .map(|()| id)
                    .map_err(|e| e.to_string())
            });
        ids.push(admitted);
    }
    let mut pump_ms = Vec::new();
    while !engine.is_idle() {
        let t = Instant::now();
        engine.pump();
        pump_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let mut digests = Vec::new();
    for id in &ids {
        digests.push(match id {
            Ok(id) => engine
                .take_output(*id)
                .map(|o| eventor_scenarios::digest_output(&o)),
            Err(e) => {
                eprintln!("evbench: ladder serve admission: {e}");
                None
            }
        });
    }
    let serve_rate = events as f64 / start.elapsed().as_secs_f64();
    for (&(w, _), digest) in sessions.iter().zip(digests) {
        check(outcome, "serve", w, digest);
    }

    let clients = host::nproc();
    let addr = inputs.server.addr();
    let start = Instant::now();
    let results: Vec<Vec<(usize, Option<u64>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let sessions = &sessions;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut client = match WireClient::connect(addr) {
                        Ok(client) => client,
                        Err(e) => {
                            eprintln!("evbench: ladder wire connect: {e}");
                            return sessions
                                .iter()
                                .skip(c)
                                .step_by(clients)
                                .map(|&(w, _)| (w, None))
                                .collect();
                        }
                    };
                    for &(w, cosim) in sessions.iter().skip(c).step_by(clients) {
                        let world = &inputs.worlds[w];
                        let report = client.admit(&manifest(world, cosim)).and_then(|id| {
                            client.drive(
                                id,
                                &world.trajectory,
                                world.events.as_slice(),
                                LoadShape::Steady { chunk: CHUNK },
                            )
                        });
                        match report {
                            Ok(r) => out.push((w, Some(r.digest))),
                            Err(e) => {
                                eprintln!("evbench: ladder wire {}: {e}", world.name);
                                out.push((w, None));
                            }
                        }
                    }
                    if let Err(e) = client.bye() {
                        eprintln!("evbench: ladder wire bye: {e}");
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ladder client panicked"))
            .collect()
    });
    let wire_rate = events as f64 / start.elapsed().as_secs_f64();
    for (w, digest) in results.into_iter().flatten() {
        check(outcome, "wire", w, digest);
    }

    outcome.put("serve.pump_ms.p99", stats::tail(&pump_ms, 0.99).value);
    outcome.put("ladder.session_events_per_s", session_rate);
    outcome.put("ladder.serve_events_per_s", serve_rate);
    outcome.put("ladder.wire_closed_events_per_s", wire_rate);
    outcome.put("ladder.serve_over_session", serve_rate / session_rate);
    outcome.put("ladder.wire_over_serve", wire_rate / serve_rate);
}

/// The ladder's software sessions in process, once under the probe and
/// once under the probe with the kernel/DSI replay: the kernel, DSI,
/// backend and session layers as the wire worlds load them.
fn replay_software(inputs: &Inputs, outcome: &mut Outcome) -> (u64, u64) {
    let tracer = Tracer::new(true);
    let kernel = Tracer::new(true);
    let mut fed = Vec::new();
    for (i, &(w, cosim)) in ladder_sessions().iter().enumerate() {
        if cosim {
            continue;
        }
        let probed = feed(
            Engine::Software,
            inputs.stream(w),
            CHUNK,
            &tracer,
            false,
            i as u64,
        );
        let replayed = feed(
            Engine::Software,
            inputs.stream(w),
            CHUNK,
            &kernel,
            true,
            i as u64,
        );
        for run in [&probed, &replayed] {
            outcome.attempted += 1;
            if run.failed_packets > 0 || run.digest != inputs.refs[w] {
                let name = &inputs.worlds[w].name;
                outcome.fail(1, format!("replay of {name}: digest {:016x}", run.digest));
            }
        }
        fed.push((inputs.worlds[w].name.as_str(), probed, replayed));
    }
    let runs: Vec<_> = fed.iter().map(|(name, p, r)| (*name, p, r)).collect();
    let profile = layers::sum_profiles(fed.iter().map(|(_, p, _)| &p.profile));
    layers::put_probed(outcome, &runs, (&tracer, &kernel), "-session", &profile)
}

/// The ladder's cosim sessions in process, once under the probe (host
/// time) and once plain; the simulated statistics must agree exactly.
fn replay_cosim(inputs: &Inputs, outcome: &mut Outcome) -> (u64, u64, u64) {
    let tracer = Tracer::new(true);
    let quiet = Tracer::new(false);
    let mut frames = 0u64;
    let mut sim_seconds = 0.0f64;
    let mut votes = 0u64;
    for (i, &(w, cosim)) in ladder_sessions().iter().enumerate() {
        if !cosim {
            continue;
        }
        let probed = feed(
            Engine::Cosim,
            inputs.stream(w),
            CHUNK,
            &tracer,
            false,
            i as u64,
        );
        let plain = feed(
            Engine::Cosim,
            inputs.stream(w),
            CHUNK,
            &quiet,
            false,
            i as u64,
        );
        let name = &inputs.worlds[w].name;
        outcome.attempted += 1;
        if probed.failed_packets > 0 || probed.digest != inputs.refs[w] {
            outcome.fail(
                1,
                format!("cosim replay of {name}: digest {:016x}", probed.digest),
            );
        }
        let stats = |r: &Option<CosimReport>| {
            r.as_ref()
                .map(|r| (r.frames, r.votes_applied, r.accelerator_seconds.to_bits()))
        };
        match (stats(&probed.cosim), stats(&plain.cosim)) {
            (Some(a), Some(b)) if a == b => {
                frames += a.0;
                votes += a.1;
                sim_seconds += f64::from_bits(a.2);
            }
            (a, b) => outcome.drift(format!("cosim replay of {name}: simulated {a:?} != {b:?}")),
        }
    }
    let host_ns = trace::total_ns(&tracer.spans(), "core.vote_frame") as f64;
    outcome.put(
        "hwsim.host_us_per_frame",
        host_ns / 1e3 / frames.max(1) as f64,
    );
    outcome.put(
        "hwsim.sim_us_per_frame",
        sim_seconds * 1e6 / frames.max(1) as f64,
    );
    outcome.put("hwsim.sim_votes_applied", votes as f64);
    outcome.note("hwsim_sim_frames", frames);
    (frames, votes, sim_seconds.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stand-in for seeded worlds: a pure function of the seed.
    fn fake_worlds(seed: u64, n: usize) -> (Vec<Vec<Duration>>, Vec<usize>) {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut dues = Vec::new();
        let mut lens = Vec::new();
        for _ in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let len = 3_000 + (x % 5_000) as usize;
            let t: Vec<f64> = (0..len).map(|i| i as f64 * 2e-5).collect();
            dues.push(chunk_dues(&t, CHUNK));
            lens.push(len);
        }
        (dues, lens)
    }

    #[test]
    fn the_schedule_is_a_pure_function_of_the_seed() {
        let (d1, l1) = fake_worlds(42, 6);
        let (d2, l2) = fake_worlds(42, 6);
        let a = plan(&d1, &l1, 1e6, Duration::from_secs(2), 2);
        let b = plan(&d2, &l2, 1e6, Duration::from_secs(2), 2);
        assert_eq!(a, b);
        let (d3, l3) = fake_worlds(43, 6);
        assert_ne!(a, plan(&d3, &l3, 1e6, Duration::from_secs(2), 2));
        // Every session's chunks are planned once, on its own client, in
        // due order, and every session ends inside the window.
        let items: usize = a.clients.iter().map(Vec::len).sum();
        let chunks: usize = a.sessions.iter().map(|s| d1[s.world].len()).sum();
        assert_eq!(items, chunks);
        for (c, client) in a.clients.iter().enumerate() {
            assert!(client.windows(2).all(|w| w[0].due <= w[1].due));
            assert!(client.iter().all(|i| i.session % 2 == c));
            assert!(client.iter().all(|i| i.due <= Duration::from_secs(2)));
        }
        assert!(a.sessions.iter().any(|s| s.cosim));
    }

    #[test]
    fn the_schedule_offers_the_configured_rate() {
        let (dues, lens) = fake_worlds(7, 8);
        let p = plan(&dues, &lens, 2e6, Duration::from_secs(5), 2);
        let events: usize = p.sessions.iter().map(|s| lens[s.world]).sum();
        let last_start = p.sessions.last().unwrap().start.as_secs_f64();
        let last_len = lens[p.sessions.last().unwrap().world];
        let rate = (events - last_len) as f64 / last_start;
        assert!((rate / 2e6 - 1.0).abs() < 1e-6, "{rate}");
    }

    struct SlowSink {
        cost: Duration,
        delivered: Vec<(usize, Instant)>,
    }

    impl Sink for SlowSink {
        fn deliver(&mut self, item: &Item) {
            self.delivered.push((item.chunk, Instant::now()));
            std::thread::sleep(self.cost);
        }
    }

    fn items(n: usize, every: Duration) -> Vec<Item> {
        (0..n)
            .map(|i| Item {
                due: every * i as u32,
                session: 0,
                chunk: i,
                last: i + 1 == n,
            })
            .collect()
    }

    #[test]
    fn a_slow_sink_is_charged_the_lateness_it_causes() {
        // Sends fall due every 1 ms but each takes 4 ms: send i starts about
        // 3·i ms late, and nothing is skipped.
        let mut sink = SlowSink {
            cost: Duration::from_millis(4),
            delivered: Vec::new(),
        };
        let lag = drive(
            &items(20, Duration::from_millis(1)),
            Instant::now(),
            &mut sink,
        );
        assert_eq!(sink.delivered.len(), 20);
        assert!(lag[0] < 3.0, "{lag:?}");
        assert!(
            lag.windows(2).all(|w| w[1] > w[0]),
            "lag must grow: {lag:?}"
        );
        assert!(lag[19] >= 19.0 * 3.0, "{lag:?}");
    }

    #[test]
    fn a_fast_sink_keeps_the_schedule() {
        let mut sink = SlowSink {
            cost: Duration::ZERO,
            delivered: Vec::new(),
        };
        let epoch = Instant::now();
        let lag = drive(&items(10, Duration::from_millis(3)), epoch, &mut sink);
        // Sends never start early.
        for (i, (_, at)) in sink.delivered.iter().enumerate() {
            assert!(*at >= epoch + Duration::from_millis(3) * i as u32);
        }
        assert!(stats::median(&lag) < 2.0, "{lag:?}");
    }

    #[test]
    fn metrics_numbers_are_read_from_the_aggregate_block() {
        let doc = "{\n  \"aggregate\": {\n    \"pump_rounds\": 42,\n    \"utilization\": 0.5\n  },\n  \"sessions\": [ { \"pump_rounds\": 1 } ]\n}\n";
        assert_eq!(metrics_number(doc, "pump_rounds"), Some(42.0));
        assert_eq!(metrics_number(doc, "utilization"), Some(0.5));
        assert_eq!(metrics_number(doc, "missing"), None);
    }
}
