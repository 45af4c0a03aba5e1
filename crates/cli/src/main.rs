//! `eventor-cli` — the command-line front end of the scenario corpus
//! (`eventor-scenarios`, `docs/SCENARIOS.md`).
//!
//! ```text
//! eventor-cli list
//! eventor-cli generate --scenario NAME [--seed N] [--out FILE.evtr]
//! eventor-cli replay   --scenario NAME --in FILE.evtr [--seed N] [--backend B] [--expect HEX]
//! eventor-cli check    (--all | --scenario NAME | --spec FILE) [--backend B] [--print-table]
//! eventor-cli fuzz     --seed N [--count N] [--max-events N] [--backend B]...
//!                      [--invariant NAME]... [--report FILE] [--minimize-dir DIR] [--no-minimize]
//! eventor-cli minimize --spec FILE [--backend B] [--invariant NAME] [--out FILE]
//! eventor-cli serve    [--addr ADDR] [--workers N] [--port-file FILE]
//!                      [--max-conns N] [--keepalive SECS]
//! eventor-cli connect  --addr ADDR (--scenario NAME [--seed N] | --spec FILE)
//!                      [--backend B] [--expect HEX]
//! eventor-cli checkpoint --scenario NAME --out FILE.evtr [--seed N] [--backend B] [--events N]
//! eventor-cli resume   --in FILE.evtr [--backend B] [--check] [--expect HEX]
//! ```
//!
//! * `list` prints the catalog (name, tags, default seed, description).
//! * `generate` builds a world and records it as an `eventor-evtr/1` file,
//!   printing the reconstruction digest the record must replay to.
//! * `replay` reads a record, runs it through a backend with the named
//!   scenario's configuration, and verifies the digest — against `--expect`
//!   if given, else against the committed golden.
//! * `check` re-runs scenarios from scratch and compares against the
//!   committed golden digests; the CI regression matrix runs
//!   `check --all --backend {software,sharded,serve}`. `--print-table`
//!   emits a fresh `GOLDEN_DIGESTS` table body for intentional re-records.
//!   `--spec FILE` instead checks one `eventor-fuzzworld/1` spec against its
//!   pinned golden (the committed-regression path).
//! * `fuzz` runs a seeded generative campaign: `--count` worlds (scaled by
//!   `PROPTEST_CASES_MULTIPLIER`) are generated from `--seed`, every
//!   metamorphic invariant (F.1-F.5, `docs/SCENARIOS.md` §8) is checked, and
//!   violations are auto-minimized. The machine-readable `eventor-fuzz/1`
//!   JSON report goes to stdout (and `--report FILE`); minimized
//!   reproductions go to `--minimize-dir` as `.fuzzworld` files. Output is
//!   bit-reproducible: same seed, count and environment — same bytes.
//! * `minimize` shrinks one failing `.fuzzworld` spec along the generator
//!   axes and emits the minimized spec (stdout or `--out`).
//! * `serve` binds an `eventor-wire/1` TCP server (`docs/WIRE.md`) over the
//!   multi-session serving engine and runs until killed. It prints
//!   `listening on ADDR` once ready; `--addr 127.0.0.1:0` picks a free
//!   loopback port (recover it from the printed line or `--port-file`).
//! * `connect` streams one scenario (or `.fuzzworld` spec) to a running
//!   server, recomputes the digest from the depth maps streamed back, and
//!   verifies server digest == client digest == the expected golden.
//! * `checkpoint` runs a scenario stream partway (`--events`, default half)
//!   through a backend and records the mid-flight session as an
//!   `eventor-evtr/1` `CKPT` container, embedding the scenario and seed as
//!   the resume origin.
//! * `resume` restores a `CKPT` container (on the recorded backend unless
//!   `--backend` overrides), regenerates the origin scenario's stream,
//!   replays the remainder, and prints the final digest; `--check` verifies
//!   it against the committed golden — the kill-and-restore drill CI runs.
//!
//! Exit codes are distinct and stable (`docs/SCENARIOS.md` §9): 0 success,
//! 1 usage or internal error, 2 digest mismatch or invariant violation,
//! 3 unknown scenario, 4 invalid or truncated record/spec, 5 wire-protocol
//! error (typed server rejection, corrupt frame), 6 network failure
//! (connect refused, connection lost, timeout), 7 checkpoint error (a
//! structurally invalid checkpoint payload inside an intact container, or a
//! snapshot/restore the session layer refuses).

#![forbid(unsafe_code)]

use eventor_core::SessionCheckpoint;
use eventor_emvs::EmvsError;
use eventor_net::{
    KeepaliveConfig, ManifestSource, NetConfig, SessionManifest, WireClient, WireError, WireServer,
};
use eventor_scenarios::{
    builder_for_profile, check_invariant, corpus, digest_output, digest_world, find, golden_digest,
    minimize_spec, run_fuzz, run_world, session_for_profile, BackendKind, FuzzOptions, FuzzReport,
    Invariant, Scenario, ScenarioError, ScenarioWorld, Violation, WorldSpec,
};
use eventor_serve::{LoadShape, ServeConfig};
use std::fmt::Write as _;
use std::process::ExitCode;

/// Exit code: bad flags, missing arguments, or an internal failure.
const CODE_USAGE: u8 = 1;
/// Exit code: a digest mismatch or a caught invariant violation.
const CODE_MISMATCH: u8 = 2;
/// Exit code: a scenario name that is not in the corpus.
const CODE_UNKNOWN_SCENARIO: u8 = 3;
/// Exit code: an `.evtr` record or `.fuzzworld` spec that failed to parse.
const CODE_BAD_RECORD: u8 = 4;
/// Exit code: an `eventor-wire/1` protocol error (typed server rejection,
/// corrupt or unexpected frame).
const CODE_WIRE: u8 = 5;
/// Exit code: a network failure (connect refused, connection lost, reply
/// timeout).
const CODE_NET: u8 = 6;
/// Exit code: a checkpoint error — a structurally invalid `CKPT` payload
/// inside an intact container, or a snapshot/restore the session layer
/// refuses (incompatible backend, inconsistent state). Distinct from
/// [`CODE_BAD_RECORD`], which covers container-level corruption.
const CODE_CHECKPOINT: u8 = 7;

/// An error carrying its process exit code.
struct CliError {
    code: u8,
    message: String,
}

impl CliError {
    fn usage(message: impl Into<String>) -> Self {
        Self {
            code: CODE_USAGE,
            message: message.into(),
        }
    }

    fn mismatch(message: impl Into<String>) -> Self {
        Self {
            code: CODE_MISMATCH,
            message: message.into(),
        }
    }

    fn unknown_scenario(message: impl Into<String>) -> Self {
        Self {
            code: CODE_UNKNOWN_SCENARIO,
            message: message.into(),
        }
    }

    fn bad_record(message: impl Into<String>) -> Self {
        Self {
            code: CODE_BAD_RECORD,
            message: message.into(),
        }
    }

    fn checkpoint(message: impl Into<String>) -> Self {
        Self {
            code: CODE_CHECKPOINT,
            message: message.into(),
        }
    }

    /// Maps a session-layer error: checkpoint refusals keep their own exit
    /// code (exit 7); everything else is internal (exit 1).
    fn from_emvs(context: &str, e: EmvsError) -> Self {
        match e {
            EmvsError::Checkpoint { .. } => Self::checkpoint(format!("{context}: {e}")),
            _ => Self::usage(format!("{context}: {e}")),
        }
    }

    /// Maps a scenario-layer error: spec problems are record problems
    /// (exit 4); everything else is internal (exit 1).
    fn from_scenario(context: &str, e: ScenarioError) -> Self {
        match e {
            ScenarioError::Spec { .. } => Self::bad_record(format!("{context}: {e}")),
            _ => Self::usage(format!("{context}: {e}")),
        }
    }

    /// Maps a wire-layer error: transport failures (refused, lost, timed
    /// out) are network errors (exit 6); everything else — typed server
    /// rejections, corrupt frames, state-machine violations — is a wire
    /// error (exit 5).
    fn from_wire(context: &str, e: WireError) -> Self {
        let code = match e {
            WireError::Io { .. } | WireError::ConnectionClosed | WireError::Timeout { .. } => {
                CODE_NET
            }
            _ => CODE_WIRE,
        };
        Self {
            code,
            message: format!("{context}: {e}"),
        }
    }
}

fn usage() -> String {
    let mut s = String::new();
    let _ = writeln!(s, "eventor-cli — scenario corpus driver\n");
    let _ = writeln!(s, "USAGE:");
    let _ = writeln!(s, "  eventor-cli list");
    let _ = writeln!(
        s,
        "  eventor-cli generate --scenario NAME [--seed N] [--out FILE.evtr]"
    );
    let _ = writeln!(
        s,
        "  eventor-cli replay   --scenario NAME --in FILE.evtr [--seed N] [--backend B] [--expect HEX]"
    );
    let _ = writeln!(
        s,
        "  eventor-cli check    (--all | --scenario NAME | --spec FILE) [--backend B] [--print-table]"
    );
    let _ = writeln!(
        s,
        "  eventor-cli fuzz     --seed N [--count N] [--max-events N] [--backend B]..."
    );
    let _ = writeln!(
        s,
        "                       [--invariant NAME]... [--report FILE] [--minimize-dir DIR] [--no-minimize]"
    );
    let _ = writeln!(
        s,
        "  eventor-cli minimize --spec FILE [--backend B] [--invariant NAME] [--out FILE]"
    );
    let _ = writeln!(
        s,
        "  eventor-cli serve    [--addr ADDR] [--workers N] [--port-file FILE]"
    );
    let _ = writeln!(
        s,
        "                       [--max-conns N] [--keepalive SECS (0 = off)]"
    );
    let _ = writeln!(
        s,
        "  eventor-cli connect  --addr ADDR (--scenario NAME [--seed N] | --spec FILE)"
    );
    let _ = writeln!(s, "                       [--backend B] [--expect HEX]");
    let _ = writeln!(
        s,
        "  eventor-cli checkpoint --scenario NAME --out FILE.evtr [--seed N] [--backend B] [--events N]"
    );
    let _ = writeln!(
        s,
        "  eventor-cli resume   --in FILE.evtr [--backend B] [--check] [--expect HEX]"
    );
    let _ = writeln!(
        s,
        "\nBackends: software (default), sharded, cosim, serve. Digests are FNV-1a 64"
    );
    let _ = writeln!(
        s,
        "over the reconstruction's depth maps; goldens live in eventor-scenarios."
    );
    let _ = write!(
        s,
        "Exit codes: 0 ok, 1 usage/internal, 2 mismatch/violation, 3 unknown scenario,\n4 bad record, 5 wire-protocol error, 6 network failure, 7 checkpoint error."
    );
    s
}

/// Minimal `--flag value` parser: no external dependencies, exact flags
/// only, every unknown flag is an error.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: Vec<String>) -> Result<Self, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = raw.into_iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = match it.peek() {
                    Some(v) if !v.starts_with("--") => Some(it.next().unwrap()),
                    _ => None,
                };
                flags.push((name.to_string(), value));
            } else {
                positional.push(a);
            }
        }
        Ok(Self { positional, flags })
    }

    fn flag_value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Every value of a repeatable flag, in order.
    fn flag_values(&self, name: &str) -> Vec<&str> {
        self.flags
            .iter()
            .filter(|(n, _)| n == name)
            .filter_map(|(_, v)| v.as_deref())
            .collect()
    }

    fn has_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn reject_unknown(&self, allowed: &[&str]) -> Result<(), CliError> {
        for (n, _) in &self.flags {
            if !allowed.contains(&n.as_str()) {
                return Err(CliError::usage(format!(
                    "unknown flag --{n}\n\n{}",
                    usage()
                )));
            }
        }
        Ok(())
    }
}

fn backend_from(args: &Args) -> Result<BackendKind, CliError> {
    match args.flag_value("backend") {
        None => Ok(BackendKind::Software),
        Some(name) => parse_backend(name),
    }
}

fn parse_backend(name: &str) -> Result<BackendKind, CliError> {
    BackendKind::parse(name).ok_or_else(|| {
        CliError::usage(format!(
            "unknown backend `{name}` (expected one of: {})",
            BackendKind::ALL.map(BackendKind::name).join(", ")
        ))
    })
}

fn parse_invariant(name: &str) -> Result<Invariant, CliError> {
    Invariant::parse(name).ok_or_else(|| {
        CliError::usage(format!(
            "unknown invariant `{name}` (expected one of: {})",
            Invariant::ALL.map(Invariant::name).join(", ")
        ))
    })
}

fn scenario_from(args: &Args) -> Result<&'static eventor_scenarios::CorpusScenario, CliError> {
    let name = args
        .flag_value("scenario")
        .ok_or_else(|| CliError::usage(format!("--scenario NAME is required\n\n{}", usage())))?;
    find(name).ok_or_else(|| {
        CliError::unknown_scenario(format!(
            "unknown scenario `{name}`; run `eventor-cli list` for the catalog"
        ))
    })
}

fn cmd_list(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&[])?;
    println!(
        "{:<20} {:>10} {:<44} description",
        "scenario", "seed", "tags"
    );
    for s in corpus() {
        println!(
            "{:<20} {:>#10x} {:<44} {}",
            s.name(),
            s.default_seed(),
            s.tags().join(","),
            s.description()
        );
    }
    println!(
        "\n{} scenarios; digests recorded at each default seed.",
        corpus().len()
    );
    Ok(())
}

fn build_world(
    scenario: &dyn Scenario,
    seed: Option<&str>,
) -> Result<(ScenarioWorld, u64), CliError> {
    let seed = match seed {
        None => scenario.default_seed(),
        Some(text) => parse_u64(text)?,
    };
    let world = scenario
        .build(seed)
        .map_err(|e| CliError::usage(format!("{}: build failed: {e}", scenario.name())))?;
    Ok((world, seed))
}

fn parse_u64(text: &str) -> Result<u64, CliError> {
    let parsed = if let Some(hex) = text.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        text.parse()
    };
    parsed.map_err(|_| CliError::usage(format!("`{text}` is not a u64 (decimal or 0x-hex)")))
}

fn parse_usize(text: &str) -> Result<usize, CliError> {
    text.parse()
        .map_err(|_| CliError::usage(format!("`{text}` is not a count")))
}

fn cmd_generate(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&["scenario", "seed", "out", "backend"])?;
    let scenario = scenario_from(args)?;
    let backend = backend_from(args)?;
    let (world, seed) = build_world(scenario, args.flag_value("seed"))?;
    let output = run_world(&world, backend)
        .map_err(|e| CliError::usage(format!("{}: reconstruction failed: {e}", scenario.name())))?;
    let digest = digest_output(&output);
    if let Some(path) = args.flag_value("out") {
        let file = std::fs::File::create(path)
            .map_err(|e| CliError::usage(format!("cannot create {path}: {e}")))?;
        eventor_events::write_evtr(&world.events, &world.trajectory, file)
            .map_err(|e| CliError::usage(format!("cannot write {path}: {e}")))?;
        println!(
            "recorded {} events + {} poses -> {path} (eventor-evtr/1)",
            world.events.len(),
            world.trajectory.len()
        );
    }
    println!(
        "{}: seed {seed:#x} backend {backend} keyframes {} digest {digest:#018x}",
        scenario.name(),
        output.output.keyframes.len(),
    );
    Ok(())
}

fn cmd_replay(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&["scenario", "in", "seed", "backend", "expect"])?;
    let scenario = scenario_from(args)?;
    let backend = backend_from(args)?;
    let path = args
        .flag_value("in")
        .ok_or_else(|| CliError::usage(format!("--in FILE.evtr is required\n\n{}", usage())))?;
    let file = std::fs::File::open(path)
        .map_err(|e| CliError::usage(format!("cannot open {path}: {e}")))?;
    // A record that fails to parse — truncated, corrupt, version-skewed —
    // is its own failure class (exit 4), distinct from a digest mismatch.
    let (events, trajectory) = eventor_events::read_evtr(file)
        .map_err(|e| CliError::bad_record(format!("{path}: {e}")))?;
    // The record carries the inputs; the scenario contributes the camera and
    // reconstruction configuration they were recorded for — recovered
    // without rebuilding (and re-simulating) the world.
    let seed = match args.flag_value("seed") {
        None => scenario.default_seed(),
        Some(text) => parse_u64(text)?,
    };
    let (camera, config) = scenario.session_profile(seed);
    let world = ScenarioWorld {
        name: scenario.name().to_string(),
        seed,
        camera,
        trajectory,
        events,
        config,
    };
    let output = run_world(&world, backend)
        .map_err(|e| CliError::usage(format!("{}: replay failed: {e}", scenario.name())))?;
    let digest = digest_output(&output);
    let expected = match args.flag_value("expect") {
        Some(text) => Some(parse_u64(text)?),
        None => golden_digest(scenario.name()),
    };
    match expected {
        Some(want) if want == digest => {
            println!(
                "{}: replay of {path} on {backend} reproduces digest {digest:#018x} — OK",
                scenario.name()
            );
            Ok(())
        }
        Some(want) => Err(CliError::mismatch(format!(
            "{}: replay digest {digest:#018x} != expected {want:#018x}",
            scenario.name()
        ))),
        None => {
            println!(
                "{}: replay digest {digest:#018x} (no golden to compare against)",
                scenario.name()
            );
            Ok(())
        }
    }
}

/// `check --spec FILE`: one committed `.fuzzworld` regression against its
/// pinned golden.
fn check_spec(path: &str, backend: BackendKind) -> Result<(), CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::usage(format!("cannot read {path}: {e}")))?;
    let spec = WorldSpec::parse(&text).map_err(|e| CliError::bad_record(format!("{path}: {e}")))?;
    let want = spec.golden.ok_or_else(|| {
        CliError::usage(format!(
            "{path}: spec has no pinned golden digest; add one with `minimize` or the fuzzer"
        ))
    })?;
    let world = spec.build().map_err(|e| CliError::from_scenario(path, e))?;
    let digest = digest_world(&world, backend).map_err(|e| CliError::from_scenario(path, e))?;
    if digest == want {
        println!(
            "  ok   {:<40} {backend:<9} digest {digest:#018x}",
            spec.world_name()
        );
        println!("check: 1 fuzz regression bit-identical on the {backend} backend");
        Ok(())
    } else {
        Err(CliError::mismatch(format!(
            "{}: digest {digest:#018x} != golden {want:#018x} on the {backend} backend",
            spec.world_name()
        )))
    }
}

fn cmd_check(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&["all", "scenario", "spec", "backend", "print-table"])?;
    let backend = backend_from(args)?;
    if let Some(path) = args.flag_value("spec") {
        return check_spec(path, backend);
    }
    let targets: Vec<&eventor_scenarios::CorpusScenario> = if args.has_flag("all") {
        corpus().iter().collect()
    } else {
        vec![scenario_from(args)?]
    };
    let mut failures = Vec::new();
    let mut table = String::new();
    for scenario in &targets {
        let (world, _) = build_world(*scenario, None)?;
        let output = run_world(&world, backend)
            .map_err(|e| CliError::usage(format!("{}: run failed: {e}", scenario.name())))?;
        let digest = digest_output(&output);
        let _ = writeln!(table, "    ({:?}, {digest:#018x}),", scenario.name());
        match golden_digest(scenario.name()) {
            Some(want) if want == digest => {
                println!(
                    "  ok   {:<20} {backend:<9} digest {digest:#018x}",
                    scenario.name()
                );
            }
            Some(want) => {
                println!(
                    "  FAIL {:<20} {backend:<9} digest {digest:#018x} != golden {want:#018x}",
                    scenario.name()
                );
                failures.push(scenario.name());
            }
            None => {
                println!(
                    "  FAIL {:<20} {backend:<9} digest {digest:#018x} has no committed golden",
                    scenario.name()
                );
                failures.push(scenario.name());
            }
        }
    }
    if args.has_flag("print-table") {
        println!("\n// GOLDEN_DIGESTS body for crates/scenarios/src/golden.rs:");
        print!("{table}");
    }
    if failures.is_empty() {
        println!(
            "check: {} scenario(s) bit-identical on the {backend} backend",
            targets.len()
        );
        Ok(())
    } else {
        Err(CliError::mismatch(format!(
            "check: {} of {} scenario(s) diverged on the {backend} backend: {}",
            failures.len(),
            targets.len(),
            failures.join(", ")
        )))
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn violation_json(v: &Violation) -> String {
    format!(
        "{{\"contract\":\"{}\",\"invariant\":\"{}\",\"world\":\"{}\",\"backend\":\"{}\",\"detail\":\"{}\"}}",
        v.invariant.contract(),
        v.invariant.name(),
        json_escape(&v.world),
        v.backend.name(),
        json_escape(&v.detail)
    )
}

/// Renders the `eventor-fuzz/1` report. Deliberately free of timestamps,
/// hostnames and paths: the same campaign must serialize to the same bytes.
fn report_json(report: &FuzzReport) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"format\": \"eventor-fuzz/1\",");
    let _ = writeln!(s, "  \"seed\": \"{:#018x}\",", report.seed);
    let _ = writeln!(s, "  \"count\": {},", report.count);
    let _ = writeln!(s, "  \"violations\": {},", report.violation_count());
    let _ = writeln!(s, "  \"worlds\": [");
    for (i, w) in report.worlds.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(
            s,
            "      \"name\": \"{}\",",
            json_escape(&w.spec.world_name())
        );
        let _ = writeln!(s, "      \"digest\": \"{:#018x}\",", w.digest);
        let _ = writeln!(s, "      \"spec\": \"{}\",", json_escape(&w.spec.to_text()));
        let violations: Vec<String> = w.violations.iter().map(violation_json).collect();
        let _ = writeln!(s, "      \"violations\": [{}],", violations.join(","));
        match &w.minimized {
            Some(min) => {
                let _ = writeln!(
                    s,
                    "      \"minimized\": \"{}\"",
                    json_escape(&min.to_text())
                );
            }
            None => {
                let _ = writeln!(s, "      \"minimized\": null");
            }
        }
        let comma = if i + 1 < report.worlds.len() { "," } else { "" };
        let _ = writeln!(s, "    }}{comma}");
    }
    let _ = writeln!(s, "  ]");
    s.push_str("}\n");
    s
}

fn cmd_fuzz(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&[
        "seed",
        "count",
        "max-events",
        "backend",
        "invariant",
        "report",
        "minimize-dir",
        "no-minimize",
    ])?;
    let seed = parse_u64(
        args.flag_value("seed")
            .ok_or_else(|| CliError::usage(format!("--seed N is required\n\n{}", usage())))?,
    )?;
    let base_count = match args.flag_value("count") {
        None => 4,
        Some(text) => parse_usize(text)?,
    };
    // Nightly CI deepens campaigns the same way it deepens proptests: one
    // multiplier environment variable scales the case count.
    let count = proptest::scaled_cases(base_count.min(u32::MAX as usize) as u32) as usize;
    let mut backends: Vec<BackendKind> = args
        .flag_values("backend")
        .into_iter()
        .map(parse_backend)
        .collect::<Result<_, _>>()?;
    if backends.is_empty() {
        backends.push(BackendKind::Software);
    }
    let mut invariants: Vec<Invariant> = args
        .flag_values("invariant")
        .into_iter()
        .map(parse_invariant)
        .collect::<Result<_, _>>()?;
    if invariants.is_empty() {
        invariants = Invariant::ALL.to_vec();
    }
    let max_events = match args.flag_value("max-events") {
        None => None,
        Some(text) => Some(parse_usize(text)?),
    };
    let options = FuzzOptions {
        backends,
        invariants,
        max_events,
        minimize: !args.has_flag("no-minimize"),
    };
    let report = run_fuzz(seed, count, &options)
        .map_err(|e| CliError::from_scenario("fuzz campaign failed", e))?;
    let json = report_json(&report);
    print!("{json}");
    if let Some(path) = args.flag_value("report") {
        std::fs::write(path, &json)
            .map_err(|e| CliError::usage(format!("cannot write {path}: {e}")))?;
    }
    if let Some(dir) = args.flag_value("minimize-dir") {
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError::usage(format!("cannot create {dir}: {e}")))?;
        for w in &report.worlds {
            if let Some(min) = &w.minimized {
                let path = format!("{dir}/{}.fuzzworld", min.world_name());
                std::fs::write(&path, min.to_text())
                    .map_err(|e| CliError::usage(format!("cannot write {path}: {e}")))?;
                eprintln!("minimized reproduction -> {path}");
            }
        }
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(CliError::mismatch(format!(
            "fuzz: {} invariant violation(s) across {} world(s) (seed {seed:#x})",
            report.violation_count(),
            report.count
        )))
    }
}

fn cmd_minimize(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&["spec", "backend", "invariant", "out"])?;
    let path = args
        .flag_value("spec")
        .ok_or_else(|| CliError::usage(format!("--spec FILE is required\n\n{}", usage())))?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::usage(format!("cannot read {path}: {e}")))?;
    let spec = WorldSpec::parse(&text).map_err(|e| CliError::bad_record(format!("{path}: {e}")))?;
    let backend = backend_from(args)?;
    let invariants: Vec<Invariant> = match args.flag_value("invariant") {
        Some(name) => vec![parse_invariant(name)?],
        None => Invariant::ALL.to_vec(),
    };
    let world = spec.build().map_err(|e| CliError::from_scenario(path, e))?;
    // Find the invariant the spec actually violates; minimizing a healthy
    // spec would only shred it to the generator floors.
    let mut failing = None;
    for &invariant in &invariants {
        let verdict = check_invariant(&world, invariant, backend)
            .map_err(|e| CliError::from_scenario(path, e))?;
        if let Some(v) = verdict {
            eprintln!("reproduced: {v}");
            failing = Some(invariant);
            break;
        }
    }
    let Some(invariant) = failing else {
        println!(
            "{}: no invariant violation reproduces on the {backend} backend; nothing to minimize",
            spec.world_name()
        );
        return Ok(());
    };
    let mut fails = |probe: &WorldSpec| -> bool {
        probe
            .build()
            .ok()
            .and_then(|w| check_invariant(&w, invariant, backend).ok())
            .flatten()
            .is_some()
    };
    let mut min = minimize_spec(&spec, &mut fails);
    min.golden = min
        .build()
        .ok()
        .and_then(|w| digest_world(&w, backend).ok());
    eprintln!(
        "minimized {} -> {} (samples {} -> {}, events {} -> {}, planes {} -> {}, noise {} -> {})",
        spec.world_name(),
        min.world_name(),
        spec.samples,
        min.samples,
        spec.event_cap,
        min.event_cap,
        spec.planes,
        min.planes,
        spec.noise.len(),
        min.noise.len()
    );
    match args.flag_value("out") {
        Some(out) => {
            std::fs::write(out, min.to_text())
                .map_err(|e| CliError::usage(format!("cannot write {out}: {e}")))?;
            println!("minimized spec -> {out}");
        }
        None => print!("{}", min.to_text()),
    }
    Ok(())
}

/// `serve`: bind an `eventor-wire/1` server over the multi-session engine
/// and run until the process is killed.
fn cmd_serve(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&["addr", "workers", "port-file", "max-conns", "keepalive"])?;
    let addr = args.flag_value("addr").unwrap_or("127.0.0.1:0");
    let mut config = NetConfig::new();
    if let Some(workers) = args.flag_value("workers") {
        config = config.with_serve(ServeConfig::new().with_workers(parse_usize(workers)?));
    }
    if let Some(max_conns) = args.flag_value("max-conns") {
        config = config.with_max_conns(parse_usize(max_conns)?);
    }
    if let Some(keepalive) = args.flag_value("keepalive") {
        // Seconds; 0 disables idle probing entirely.
        let secs = parse_usize(keepalive)?;
        config = config.with_keepalive(if secs == 0 {
            KeepaliveConfig::disabled()
        } else {
            KeepaliveConfig::every(std::time::Duration::from_secs(secs as u64))
        });
    }
    let server = WireServer::bind(addr, config)
        .map_err(|e| CliError::from_wire(&format!("cannot bind {addr}"), e))?;
    let local = server
        .local_addr()
        .map_err(|e| CliError::from_wire(addr, e))?;
    // The readiness line is the contract scripts and the CI smoke test key
    // on; the port file is the machine-readable variant.
    println!("listening on {local}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    if let Some(path) = args.flag_value("port-file") {
        std::fs::write(path, format!("{local}\n"))
            .map_err(|e| CliError::usage(format!("cannot write {path}: {e}")))?;
    }
    server.run_until(|| false);
    Ok(())
}

/// `connect`: stream one world to a running server and verify bit-identity
/// three ways — the server's digest, the digest recomputed from the depth
/// maps streamed back, and the expected golden.
fn cmd_connect(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&["addr", "scenario", "seed", "spec", "backend", "expect"])?;
    let addr = args
        .flag_value("addr")
        .ok_or_else(|| CliError::usage(format!("--addr ADDR is required\n\n{}", usage())))?;
    let backend = backend_from(args)?;

    // Build the world locally (for the input stream) and the manifest the
    // server will rebuild the session profile from.
    let (world, manifest, label, golden) = if let Some(path) = args.flag_value("spec") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::usage(format!("cannot read {path}: {e}")))?;
        let spec =
            WorldSpec::parse(&text).map_err(|e| CliError::bad_record(format!("{path}: {e}")))?;
        let world = spec.build().map_err(|e| CliError::from_scenario(path, e))?;
        let manifest = SessionManifest {
            backend,
            source: ManifestSource::Spec { text },
        };
        (world, manifest, spec.world_name(), spec.golden)
    } else {
        let scenario = scenario_from(args)?;
        let (world, seed) = build_world(scenario, args.flag_value("seed"))?;
        let manifest = SessionManifest {
            backend,
            source: ManifestSource::Scenario {
                name: scenario.name().to_string(),
                seed,
            },
        };
        // The committed golden pins the default seed only.
        let golden = (seed == scenario.default_seed())
            .then(|| golden_digest(scenario.name()))
            .flatten();
        (world, manifest, scenario.name().to_string(), golden)
    };
    let expected = match args.flag_value("expect") {
        Some(text) => Some(parse_u64(text)?),
        None => golden,
    };

    let mut client = WireClient::connect(addr)
        .map_err(|e| CliError::from_wire(&format!("connect {addr}"), e))?;
    let id = client
        .admit(&manifest)
        .map_err(|e| CliError::from_wire(&label, e))?;
    let report = client
        .drive(
            id,
            &world.trajectory,
            world.events.as_slice(),
            LoadShape::Steady { chunk: 2048 },
        )
        .map_err(|e| CliError::from_wire(&label, e))?;
    let local_digest = client.digest(id);
    let _ = client.bye();

    if report.digest != local_digest {
        return Err(CliError::mismatch(format!(
            "{label}: server digest {:#018x} != digest {local_digest:#018x} recomputed from the streamed depth maps",
            report.digest
        )));
    }
    match expected {
        Some(want) if want != report.digest => Err(CliError::mismatch(format!(
            "{label}: served digest {:#018x} != expected {want:#018x} on the {backend} backend",
            report.digest
        ))),
        Some(_) => {
            println!(
                "{label}: served over {addr} on {backend}: {} keyframes, {} events, digest {:#018x} — OK (server == client == golden)",
                report.keyframes, report.events_processed, report.digest
            );
            Ok(())
        }
        None => {
            println!(
                "{label}: served over {addr} on {backend}: {} keyframes, {} events, digest {:#018x} (no golden to compare against)",
                report.keyframes, report.events_processed, report.digest
            );
            Ok(())
        }
    }
}

/// `checkpoint`: run a scenario stream partway through a backend and record
/// the mid-flight session as an `eventor-evtr/1` `CKPT` container.
fn cmd_checkpoint(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&["scenario", "seed", "backend", "events", "out"])?;
    let scenario = scenario_from(args)?;
    let backend = backend_from(args)?;
    let out = args
        .flag_value("out")
        .ok_or_else(|| CliError::usage(format!("--out FILE.evtr is required\n\n{}", usage())))?;
    let (world, seed) = build_world(scenario, args.flag_value("seed"))?;
    let events = world.events.as_slice();
    let cut = match args.flag_value("events") {
        None => events.len() / 2,
        Some(text) => parse_usize(text)?.min(events.len()),
    };
    let label = scenario.name();
    let mut session = session_for_profile(world.camera, world.config.clone(), backend)
        .map_err(|e| CliError::from_emvs(label, e))?;
    session
        .push_trajectory(&world.trajectory)
        .map_err(|e| CliError::from_emvs(label, e))?;
    let mut offset = 0usize;
    while offset < cut {
        offset += session
            .push_events(&events[offset..cut])
            .map_err(|e| CliError::from_emvs(label, e))?;
        session.poll().map_err(|e| CliError::from_emvs(label, e))?;
    }
    // The origin string is the resume contract: it names the generator the
    // remainder of the stream comes from.
    let origin = format!("scenario={label} seed={seed:#x}");
    let checkpoint = session
        .snapshot(&origin)
        .map_err(|e| CliError::from_emvs(label, e))?;
    let file = std::fs::File::create(out)
        .map_err(|e| CliError::usage(format!("cannot create {out}: {e}")))?;
    checkpoint
        .write_to(file)
        .map_err(|e| CliError::usage(format!("cannot write {out}: {e}")))?;
    println!(
        "{label}: checkpointed after {cut} of {} events on {} -> {out} ({} keyframes retired)",
        events.len(),
        checkpoint.backend_kind(),
        checkpoint.keyframes_retired(),
    );
    Ok(())
}

/// Parses a `checkpoint` origin string (`scenario=NAME seed=0xHEX`).
fn parse_origin(origin: &str) -> Option<(&str, u64)> {
    let mut name = None;
    let mut seed = None;
    for part in origin.split_whitespace() {
        if let Some(v) = part.strip_prefix("scenario=") {
            name = Some(v);
        } else if let Some(v) = part.strip_prefix("seed=") {
            seed = match v.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => v.parse().ok(),
            };
        }
    }
    Some((name?, seed?))
}

/// `resume`: restore a `CKPT` container, replay the remainder of the origin
/// scenario's stream, and verify the final digest.
fn cmd_resume(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&["in", "backend", "check", "expect"])?;
    let path = args
        .flag_value("in")
        .ok_or_else(|| CliError::usage(format!("--in FILE.evtr is required\n\n{}", usage())))?;
    let file = std::fs::File::open(path)
        .map_err(|e| CliError::usage(format!("cannot open {path}: {e}")))?;
    // Two distinct failure classes: container corruption (bad checksum,
    // truncation — exit 4, like any corrupt record) versus a structurally
    // invalid checkpoint payload inside an intact container (exit 7).
    let checkpoint = SessionCheckpoint::read_from(file)
        .map_err(|e| CliError::bad_record(format!("{path}: {e}")))?
        .map_err(|e| CliError::checkpoint(format!("{path}: {e}")))?;
    let (name, seed) = parse_origin(checkpoint.origin()).ok_or_else(|| {
        CliError::checkpoint(format!(
            "{path}: origin `{}` does not name a scenario and seed",
            checkpoint.origin()
        ))
    })?;
    let name = name.to_string();
    let name = name.as_str();
    let scenario = find(name).ok_or_else(|| {
        CliError::unknown_scenario(format!(
            "{path}: origin names unknown scenario `{name}`; run `eventor-cli list` for the catalog"
        ))
    })?;
    let backend = match args.flag_value("backend") {
        Some(text) => parse_backend(text)?,
        None => BackendKind::parse(checkpoint.backend_kind()).ok_or_else(|| {
            CliError::checkpoint(format!(
                "{path}: checkpoint names unknown backend `{}`",
                checkpoint.backend_kind()
            ))
        })?,
    };
    let world = scenario
        .build(seed)
        .map_err(|e| CliError::usage(format!("{name}: build failed: {e}")))?;
    let events = world.events.as_slice();
    let done = usize::try_from(checkpoint.events_pushed())
        .ok()
        .filter(|&n| n <= events.len())
        .ok_or_else(|| {
            CliError::checkpoint(format!(
                "{path}: checkpoint claims {} events pushed but the {name} stream has {}",
                checkpoint.events_pushed(),
                events.len()
            ))
        })?;
    // The builder carries the *scenario's* profile, so restore() cross-checks
    // the checkpoint's embedded camera and configuration against it.
    let mut session = builder_for_profile(world.camera, world.config.clone(), backend)
        .restore(checkpoint)
        .map_err(|e| CliError::from_emvs(path, e))?;
    let mut offset = done;
    while offset < events.len() {
        offset += session
            .push_events(&events[offset..])
            .map_err(|e| CliError::from_emvs(name, e))?;
        session.poll().map_err(|e| CliError::from_emvs(name, e))?;
    }
    let output = session.finish().map_err(|e| CliError::from_emvs(name, e))?;
    let digest = digest_output(&output);
    let expected = match args.flag_value("expect") {
        Some(text) => Some(parse_u64(text)?),
        None if args.has_flag("check") => Some(golden_digest(name).ok_or_else(|| {
            CliError::usage(format!(
                "{name}: no committed golden digest to check against"
            ))
        })?),
        None => None,
    };
    match expected {
        Some(want) if want == digest => {
            println!(
                "{name}: resumed {path} at event {done} on {backend}, finished {} keyframes, digest {digest:#018x} — OK (equals the uninterrupted run)",
                output.output.keyframes.len()
            );
            Ok(())
        }
        Some(want) => Err(CliError::mismatch(format!(
            "{name}: resumed digest {digest:#018x} != expected {want:#018x} on the {backend} backend"
        ))),
        None => {
            println!(
                "{name}: resumed {path} at event {done} on {backend}, finished {} keyframes, digest {digest:#018x}",
                output.output.keyframes.len()
            );
            Ok(())
        }
    }
}

fn run() -> Result<(), CliError> {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() {
        return Err(CliError::usage(usage()));
    }
    let command = raw.remove(0);
    let args = Args::parse(raw).map_err(CliError::usage)?;
    if !args.positional.is_empty() {
        return Err(CliError::usage(format!(
            "unexpected argument `{}`\n\n{}",
            args.positional[0],
            usage()
        )));
    }
    match command.as_str() {
        "list" => cmd_list(&args),
        "generate" => cmd_generate(&args),
        "replay" => cmd_replay(&args),
        "check" => cmd_check(&args),
        "fuzz" => cmd_fuzz(&args),
        "minimize" => cmd_minimize(&args),
        "serve" => cmd_serve(&args),
        "connect" => cmd_connect(&args),
        "checkpoint" => cmd_checkpoint(&args),
        "resume" => cmd_resume(&args),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(CliError::usage(format!(
            "unknown command `{other}`\n\n{}",
            usage()
        ))),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{}", e.message);
            ExitCode::from(e.code)
        }
    }
}
