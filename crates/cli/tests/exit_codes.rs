//! Negative-path contract of the `eventor-cli` binary: every failure class
//! has its own stable exit code (`docs/SCENARIOS.md` §9), and the fuzz
//! pipeline — campaign, planted-violation capture, auto-minimization,
//! regression check — works end to end through the real executable.
//!
//! Exit codes under test: 0 success, 1 usage, 2 digest mismatch or invariant
//! violation, 3 unknown scenario, 4 invalid/truncated record, 5 wire-protocol
//! error, 6 network failure, 7 checkpoint error (sealed container, invalid
//! payload).

use std::path::PathBuf;
use std::process::{Command, Output};

fn cli() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_eventor-cli"));
    // Campaign sizing must come from the flags under test, not from an
    // ambient multiplier (nightly CI sets one).
    cmd.env_remove("PROPTEST_CASES_MULTIPLIER");
    cmd.env_remove("EVENTOR_FUZZ_PLANT");
    cmd
}

fn run(cmd: &mut Command) -> Output {
    cmd.output().expect("eventor-cli spawns")
}

fn exit_code(output: &Output) -> i32 {
    output.status.code().expect("exit code, not a signal")
}

/// A scratch directory unique to this test binary run.
fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "eventor-cli-exit-codes-{}-{label}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn missing_arguments_and_unknown_flags_exit_1() {
    let no_args = run(&mut cli());
    assert_eq!(exit_code(&no_args), 1);
    let unknown_flag = run(cli().args(["list", "--frobnicate"]));
    assert_eq!(exit_code(&unknown_flag), 1);
    let unknown_command = run(cli().args(["explode"]));
    assert_eq!(exit_code(&unknown_command), 1);
}

#[test]
fn unknown_scenario_exits_3() {
    let output = run(cli().args(["check", "--scenario", "definitely_not_a_scenario"]));
    assert_eq!(exit_code(&output), 3);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("unknown scenario"),
        "stderr should name the failure: {stderr}"
    );
}

#[test]
fn truncated_record_exits_4() {
    let dir = scratch("truncated");
    let path = dir.join("truncated.evtr");
    std::fs::write(&path, b"EVTR").expect("write truncated record");
    let output = run(cli().args([
        "replay",
        "--scenario",
        "shake_closeup",
        "--in",
        path.to_str().unwrap(),
    ]));
    assert_eq!(exit_code(&output), 4);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("invalid evtr record"), "stderr: {stderr}");
}

#[test]
fn malformed_fuzz_spec_exits_4() {
    let dir = scratch("badspec");
    let path = dir.join("bad.fuzzworld");
    std::fs::write(&path, "eventor-fuzzworld/1\nseed = not-a-number\n").expect("write spec");
    let output = run(cli().args(["minimize", "--spec", path.to_str().unwrap()]));
    assert_eq!(exit_code(&output), 4);
}

#[test]
fn digest_mismatch_exits_2() {
    let dir = scratch("mismatch");
    let record = dir.join("shake.evtr");
    let generated = run(cli().args([
        "generate",
        "--scenario",
        "shake_closeup",
        "--out",
        record.to_str().unwrap(),
    ]));
    assert_eq!(exit_code(&generated), 0);
    let output = run(cli().args([
        "replay",
        "--scenario",
        "shake_closeup",
        "--in",
        record.to_str().unwrap(),
        "--expect",
        "0x1",
    ]));
    assert_eq!(exit_code(&output), 2);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("!="),
        "stderr should show both digests: {stderr}"
    );
}

/// The acceptance bar for the fuzz front end: two identical invocations
/// produce identical bytes on stdout and in the report file.
#[test]
fn fuzz_campaign_is_bit_reproducible() {
    let dir = scratch("repro");
    let args = |report: &str| {
        vec![
            "fuzz".to_string(),
            "--seed".into(),
            "0xD5".into(),
            "--count".into(),
            "2".into(),
            "--max-events".into(),
            "1200".into(),
            "--invariant".into(),
            "polarity-relabel".into(),
            "--report".into(),
            report.into(),
        ]
    };
    let r1 = dir.join("report1.json");
    let r2 = dir.join("report2.json");
    let a = run(cli().args(args(r1.to_str().unwrap())));
    let b = run(cli().args(args(r2.to_str().unwrap())));
    assert_eq!(exit_code(&a), 0, "{}", String::from_utf8_lossy(&a.stderr));
    assert_eq!(exit_code(&b), 0);
    assert_eq!(a.stdout, b.stdout, "fuzz stdout must be bit-reproducible");
    let f1 = std::fs::read(&r1).expect("report 1");
    let f2 = std::fs::read(&r2).expect("report 2");
    assert_eq!(f1, f2, "fuzz report files must be bit-reproducible");
    assert_eq!(a.stdout, f1, "report file mirrors stdout");
    let text = String::from_utf8(f1).expect("report is UTF-8");
    assert!(text.contains("\"format\": \"eventor-fuzz/1\""));
    assert!(text.contains("\"violations\": 0"));
}

/// End-to-end planted-violation drill through the real binary: the hook
/// (crossing the process boundary via `EVENTOR_FUZZ_PLANT`) makes the
/// campaign fail with exit 2, the minimized reproduction lands in
/// `--minimize-dir`, and `check --spec` accepts it once the hook is gone.
#[test]
fn planted_violation_exits_2_and_minimized_spec_checks_clean() {
    let dir = scratch("planted");
    let mindir = dir.join("minimized");
    let output = run(cli().env("EVENTOR_FUZZ_PLANT", "8,400,4").args([
        "fuzz",
        "--seed",
        "0xBEEF",
        "--count",
        "1",
        "--max-events",
        "1200",
        "--invariant",
        "polarity-relabel",
        "--minimize-dir",
        mindir.to_str().unwrap(),
    ]));
    assert_eq!(
        exit_code(&output),
        2,
        "planted violation must fail the campaign: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("\"violations\": 1"), "stdout: {stdout}");
    assert!(stdout.contains("planted violation hook fired"));

    let minimized: Vec<PathBuf> = std::fs::read_dir(&mindir)
        .expect("minimize dir exists")
        .map(|e| e.expect("dir entry").path())
        .collect();
    assert_eq!(minimized.len(), 1, "one failing world, one reproduction");
    let spec_text = std::fs::read_to_string(&minimized[0]).expect("minimized spec");
    assert!(spec_text.starts_with("eventor-fuzzworld/1"));
    assert!(spec_text.contains("samples = 8"), "spec: {spec_text}");
    assert!(spec_text.contains("event_cap = 400"), "spec: {spec_text}");
    assert!(spec_text.contains("planes = 4"), "spec: {spec_text}");
    assert!(spec_text.contains("golden = 0x"), "spec: {spec_text}");

    // Without the plant, the minimized world is healthy and its pinned
    // golden verifies — the committed-regression workflow end to end.
    let check = run(cli().args(["check", "--spec", minimized[0].to_str().unwrap()]));
    assert_eq!(
        exit_code(&check),
        0,
        "{}",
        String::from_utf8_lossy(&check.stderr)
    );
}

#[test]
fn connect_to_a_dead_listener_exits_6() {
    // Grab a port the kernel just proved free, then close the listener so
    // the connection is refused.
    let port = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr").port()
    };
    let output = run(cli().args([
        "connect",
        "--addr",
        &format!("127.0.0.1:{port}"),
        "--scenario",
        "shake_closeup",
    ]));
    assert_eq!(
        exit_code(&output),
        6,
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn connect_to_a_garbage_server_exits_5() {
    // A listener that speaks anything but eventor-wire/1: the client's
    // handshake reply fails frame validation, which is the wire-protocol
    // exit code, not the network one.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || {
        use std::io::Write;
        if let Ok((mut stream, _)) = listener.accept() {
            let _ = stream.write_all(b"HTTP/1.1 400 Bad Request\r\n\r\n");
            let _ = stream.flush();
        }
    });
    let output = run(cli().args([
        "connect",
        "--addr",
        &addr.to_string(),
        "--scenario",
        "shake_closeup",
    ]));
    server.join().expect("garbage server thread");
    assert_eq!(
        exit_code(&output),
        5,
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn serve_then_connect_round_trips_with_exit_0() {
    // The readiness contract of `serve --port-file`: the file appears only
    // once the listener is bound, and a `connect` against it verifies the
    // served digest against the committed golden (exit 0).
    let dir = scratch("serve-connect");
    let port_file = dir.join("port");
    let _ = std::fs::remove_file(&port_file);
    let mut server = cli()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--port-file",
            port_file.to_str().expect("utf8 path"),
        ])
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("serve spawns");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let addr = loop {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            let text = text.trim().to_string();
            if !text.is_empty() {
                break text;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "serve never wrote its port file"
        );
        std::thread::sleep(std::time::Duration::from_millis(25));
    };
    let output = run(cli().args([
        "connect",
        "--addr",
        &addr,
        "--scenario",
        "shake_closeup",
        "--backend",
        "sharded",
    ]));
    server.kill().expect("serve stops");
    let _ = server.wait();
    assert_eq!(
        exit_code(&output),
        0,
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("server == client == golden"),
        "stdout should report the triple digest equality: {stdout}"
    );
}

/// Checkpoints a scenario through the real binary and returns the container
/// bytes plus the path it was written to.
fn checkpoint_container(label: &str) -> (PathBuf, Vec<u8>) {
    let dir = scratch(label);
    let path = dir.join("mid.ckpt.evtr");
    let output = run(cli().args([
        "checkpoint",
        "--scenario",
        "orbit_burst",
        "--out",
        path.to_str().expect("utf8 path"),
    ]));
    assert_eq!(
        exit_code(&output),
        0,
        "checkpoint stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let bytes = std::fs::read(&path).expect("checkpoint container reads");
    (path, bytes)
}

#[test]
fn resume_of_an_intact_checkpoint_exits_0_and_corruption_exits_4() {
    let (path, bytes) = checkpoint_container("resume-corruption");

    // The honest round trip first: resume --check replays the remainder and
    // verifies the committed golden digest.
    let ok = run(cli().args(["resume", "--in", path.to_str().unwrap(), "--check"]));
    assert_eq!(
        exit_code(&ok),
        0,
        "stderr: {}",
        String::from_utf8_lossy(&ok.stderr)
    );

    // A single flipped byte anywhere breaks the container checksum (or the
    // framing before it): exit 4, the invalid-record code, with a message.
    for position in [0, 9, bytes.len() / 2, bytes.len() - 1] {
        let mut corrupt = bytes.clone();
        corrupt[position] ^= 0x40;
        std::fs::write(&path, &corrupt).expect("corrupt container writes");
        let output = run(cli().args(["resume", "--in", path.to_str().unwrap()]));
        assert_eq!(
            exit_code(&output),
            4,
            "flip at byte {position} must be a container error"
        );
        assert!(
            !String::from_utf8_lossy(&output.stderr).is_empty(),
            "exit 4 must explain itself on stderr"
        );
    }

    // Truncation is the other container-level corruption class.
    std::fs::write(&path, &bytes[..bytes.len() - 3]).expect("truncated container writes");
    let output = run(cli().args(["resume", "--in", path.to_str().unwrap()]));
    assert_eq!(
        exit_code(&output),
        4,
        "truncation must be a container error"
    );
}

#[test]
fn resume_of_a_forged_but_resealed_checkpoint_exits_7() {
    let (path, mut bytes) = checkpoint_container("resume-forged");

    // Forge the origin-string length (the first payload field, right after
    // the 16-byte container header, the CKPT tag, its u64 length, and the
    // u32 payload version) and re-seal the trailing FNV-1a checksum: the
    // container is now *valid* but the checkpoint payload inside is not, so
    // the failure must land in the checkpoint domain (exit 7), not 4.
    const PAYLOAD_START: usize = 16 + 4 + 8 + 4;
    bytes[PAYLOAD_START..PAYLOAD_START + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let n = bytes.len();
    let seal = eventor_events::fnv1a_64(&bytes[..n - 8]).to_le_bytes();
    bytes[n - 8..].copy_from_slice(&seal);
    std::fs::write(&path, &bytes).expect("forged container writes");

    let output = run(cli().args(["resume", "--in", path.to_str().unwrap()]));
    assert_eq!(exit_code(&output), 7);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("origin"),
        "stderr should name the forged field: {stderr}"
    );
}

#[test]
fn resume_of_a_checkpoint_with_a_forged_cap_exits_7() {
    let (path, bytes) = checkpoint_container("resume-forged-cap");

    // Re-encode the checkpoint with more pending events than its buffer cap
    // (which clamps to one frame) and seal it properly: the container is
    // valid, the state is one no live session reaches, so `resume` must
    // refuse it as a checkpoint error before pushing the rest of the stream.
    let checkpoint = eventor_core::SessionCheckpoint::read_from(bytes.as_slice())
        .expect("container reads")
        .expect("payload decodes");
    let (kind, origin) = (
        checkpoint.backend_kind().to_string(),
        checkpoint.origin().to_string(),
    );
    let mut driver = checkpoint.into_driver();
    let t = driver.last_event_t.expect("events were pushed");
    let event = eventor_events::Event::new(t, 0, 0, eventor_events::Polarity::Positive);
    driver.pending = vec![event; driver.config.events_per_frame + 1];
    driver.max_pending_events = 0;
    let mut forged = Vec::new();
    eventor_core::SessionCheckpoint::new(driver, &kind, &origin)
        .write_to(&mut forged)
        .expect("forged container writes");
    std::fs::write(&path, &forged).expect("forged container saves");

    let output = run(cli().args(["resume", "--in", path.to_str().unwrap()]));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(exit_code(&output), 7, "stderr: {stderr}");
    assert!(
        stderr.contains("cap"),
        "stderr should name the cap: {stderr}"
    );
}

#[test]
fn resume_digest_mismatch_exits_2_and_record_containers_exit_4() {
    let (path, _) = checkpoint_container("resume-mismatch");

    // A wrong --expect digest is a verification failure, same code as
    // `check`'s mismatch class.
    let output = run(cli().args(["resume", "--in", path.to_str().unwrap(), "--expect", "0x1"]));
    assert_eq!(exit_code(&output), 2);

    // A *record* container handed to `resume` is a container-domain error:
    // the reader redirects to replay, it never guesses.
    let dir = scratch("resume-mismatch-record");
    let record = dir.join("stream.evtr");
    let recorded = run(cli().args([
        "generate",
        "--scenario",
        "orbit_burst",
        "--out",
        record.to_str().unwrap(),
    ]));
    assert_eq!(exit_code(&recorded), 0);
    let output = run(cli().args(["resume", "--in", record.to_str().unwrap()]));
    assert_eq!(exit_code(&output), 4);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("replay"),
        "stderr should redirect record containers to replay: {stderr}"
    );
}
