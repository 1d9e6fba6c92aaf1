//! End-to-end tests of the `barracuda` CLI binary.

use std::io::Write;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_barracuda");

const RACY: &str = r#"
.version 4.3
.target sm_35
.address_size 64
.visible .entry k(.param .u64 buf)
{
    .reg .b32 %r<4>;
    .reg .b64 %rd<4>;
    ld.param.u64 %rd1, [buf];
    ld.global.u32 %r1, [%rd1];
    add.s32 %r1, %r1, 1;
    st.global.u32 [%rd1], %r1;
    ret;
}
"#;

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let path =
        std::env::temp_dir().join(format!("barracuda_cli_{name}_{}.ptx", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("create temp ptx");
    f.write_all(content.as_bytes()).expect("write temp ptx");
    path
}

#[test]
fn check_reports_race_with_exit_code_1() {
    let ptx = write_temp("racy", RACY);
    let out = Command::new(BIN)
        .args([
            "check",
            ptx.to_str().expect("utf8"),
            "--kernel",
            "k",
            "--grid",
            "2",
            "--block",
            "32",
            "--param",
            "buf:4",
        ])
        .output()
        .expect("run cli");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("race"), "{stdout}");
    assert!(stdout.contains("1 race(s)"), "{stdout}");
}

#[test]
fn check_clean_kernel_exits_zero() {
    let clean = RACY.replace(
        "ld.global.u32 %r1, [%rd1];\n    add.s32 %r1, %r1, 1;\n    st.global.u32 [%rd1], %r1;",
        "atom.global.add.u32 %r1, [%rd1], 1;",
    );
    let ptx = write_temp("clean", &clean);
    let out = Command::new(BIN)
        .args([
            "check",
            ptx.to_str().expect("utf8"),
            "--grid",
            "2",
            "--block",
            "32",
            "--param",
            "buf:4",
        ])
        .output()
        .expect("run cli");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn instrument_prints_rewritten_ptx() {
    let ptx = write_temp("instr", RACY);
    let out = Command::new(BIN)
        .args(["instrument", ptx.to_str().expect("utf8")])
        .output()
        .expect("run cli");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("__barracuda_log_access"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("instrumented"), "{stderr}");
    // The printed module must itself be valid PTX.
    barracuda_ptx::parse(&stdout).expect("instrumented output reparses");
}

#[test]
fn warp_sweep_flag_runs_all_sizes() {
    // A warp-synchronous shared-memory exchange: clean at 32, racy below.
    let sync = r#"
.version 4.3
.target sm_35
.address_size 64
.visible .entry k(.param .u64 out)
{
    .reg .b32 %r<8>;
    .reg .b64 %rd<8>;
    .shared .align 4 .b8 sm[128];
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %tid.x;
    mov.u64 %rd3, sm;
    mul.wide.s32 %rd2, %r1, 4;
    add.s64 %rd4, %rd3, %rd2;
    st.shared.u32 [%rd4], %r1;
    add.s32 %r2, %r1, 1;
    and.b32 %r2, %r2, 31;
    mul.wide.s32 %rd5, %r2, 4;
    add.s64 %rd6, %rd3, %rd5;
    ld.shared.u32 %r3, [%rd6];
    add.s64 %rd7, %rd1, %rd2;
    st.global.u32 [%rd7], %r3;
    ret;
}
"#;
    let ptx = write_temp("sweep", sync);
    let out = Command::new(BIN)
        .args([
            "check",
            ptx.to_str().expect("utf8"),
            "--block",
            "32",
            "--warp-sweep",
            "--param",
            "buf:128",
        ])
        .output()
        .expect("run cli");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(1),
        "latent races found → exit 1: {stdout}"
    );
    assert!(stdout.contains("warp size"), "{stdout}");
    // 4 rows: 32 clean, smaller sizes racy.
    assert!(
        stdout
            .lines()
            .filter(|l| l.trim().starts_with(char::is_numeric))
            .count()
            >= 4
    );
}

#[test]
fn bad_arguments_exit_2() {
    let out = Command::new(BIN)
        .args(["check", "/nonexistent.ptx"])
        .output()
        .expect("run cli");
    assert_eq!(out.status.code(), Some(2));
    let out = Command::new(BIN)
        .args(["frobnicate"])
        .output()
        .expect("run cli");
    assert_eq!(out.status.code(), Some(2));

    // Flag combinations a subcommand would ignore, and buffer arguments
    // past the per-request cap (refused before anything is allocated:
    // `u64::MAX` bytes would panic the allocator).
    let ptx = write_temp("badargs", RACY);
    let ptx = ptx.to_str().expect("utf8");
    let rows: &[(&[&str], &str)] = &[
        (&["check", "--warp-sweep", "--stats-json"], "--stats-json"),
        (&["trace", "--threaded"], "--threaded"),
        (&["trace", "--stats-json"], "--stats-json"),
        (&["trace", "--warp-sweep"], "--warp-sweep"),
        (&["trace", "--chaos-stalls", "1"], "--chaos-stalls"),
        (&["check", "--param", "buf:18446744073709551615"], "cap"),
    ];
    for (args, want) in rows {
        let out = Command::new(BIN)
            .args(&args[..1])
            .arg(ptx)
            .args(&args[1..])
            .output()
            .expect("run cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(want), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed output");
    }

    // Declarations past the parser's caps are refused before anything is
    // allocated: 4e9 registers or shared bytes would abort the process.
    for (decl, cap) in [
        (".reg .b32 %q<4000000000>;", "65536"),
        (".shared .b8 sm[4000000000];", "49152"),
    ] {
        let src = RACY.replace("ld.param", &format!("{decl}\n    ld.param"));
        let hostile = write_temp("hostile_decl", &src);
        let out = Command::new(BIN)
            .args(["check", hostile.to_str().expect("utf8"), "--param", "buf:4"])
            .output()
            .expect("run cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{decl}: {stderr}");
        assert!(stderr.contains(cap), "{decl}: {stderr}");
    }
}

/// Register files scale with the grid: 65,530 `.b64` registers, within
/// the parser's cap, need about 32 GiB at 64 × 1,024 threads. `check`
/// refuses that launch before allocating (exit 2, no abort), and the same
/// kernel still runs on one block.
#[test]
fn grid_scaled_register_files_past_the_cap_exit_2() {
    let src = RACY.replace(".reg .b64 %rd<4>;", ".reg .b64 %rd<65530>;");
    let ptx = write_temp("regfile", &src);
    let run = |grid: &str| {
        Command::new(BIN)
            .args(["check", ptx.to_str().expect("utf8"), "--param", "buf:4"])
            .args(["--grid", grid, "--block", "1024"])
            .output()
            .expect("run cli")
    };
    let out = run("64");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("cap"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    let out = run("1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "the racy kernel on one block: {stderr}"
    );
}

#[test]
fn bad_launch_geometry_exits_2_without_a_panic() {
    let ptx = write_temp("geometry", RACY);
    for (flags, want) in [
        (["--grid", "0", "--block", "32"], "grid must be non-empty"),
        (["--warp-size", "3", "--block", "32"], "warp size"),
        (
            ["--grid", "65536,65536", "--block", "32"],
            "thread-id space",
        ),
    ] {
        let out = Command::new(BIN)
            .args(["check", ptx.to_str().expect("utf8"), "--param", "buf:4"])
            .args(flags)
            .output()
            .expect("run cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {stderr}");
        assert!(stderr.contains(want), "{flags:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flags:?}: {stderr}");
    }
}

#[test]
fn unparseable_ptx_exits_2() {
    let ptx = write_temp("garbage", ".version 4.3\nthis is not ptx at all {{{");
    let out = Command::new(BIN)
        .args(["check", ptx.to_str().expect("utf8")])
        .output()
        .expect("run cli");
    assert_eq!(
        out.status.code(),
        Some(2),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn timeout_exits_3() {
    let spin = r#"
.version 4.3
.target sm_35
.address_size 64
.visible .entry k()
{
L:
    bra L;
}
"#;
    let ptx = write_temp("spin", spin);
    // A step budget, and a wall-clock deadline on `trace` (the watchdog
    // cancels its launch as it does a `check`).
    for (cmd, flags) in [
        ("check", ["--max-steps", "10000"]),
        ("trace", ["--timeout-ms", "150"]),
    ] {
        let out = Command::new(BIN)
            .args([cmd, ptx.to_str().expect("utf8")])
            .args(flags)
            .output()
            .expect("run cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{cmd} {flags:?}: {stderr}");
        assert!(stderr.contains("timeout"), "{cmd} {flags:?}: {stderr}");
    }
}

#[test]
fn stats_json_emits_parseable_schema_and_nothing_else() {
    let ptx = write_temp("statsjson", RACY);
    let out = Command::new(BIN)
        .args([
            "check",
            ptx.to_str().expect("utf8"),
            "--grid",
            "2",
            "--block",
            "32",
            "--param",
            "buf:4",
            "--stats-json",
        ])
        .output()
        .expect("run cli");
    assert_eq!(out.status.code(), Some(1), "racy input still exits 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = barracuda::statsjson::parse(&stdout).expect("stdout is exactly one JSON document");
    assert_eq!(doc.get("verdict").and_then(|v| v.as_str()), Some("race"));
    assert_eq!(doc.get("degraded").and_then(|v| v.as_bool()), Some(false));
    assert!(doc.get("races").and_then(|v| v.as_u64()).unwrap_or(0) >= 1);
    let stats = doc.get("stats").expect("stats object");
    assert!(stats.get("records").and_then(|v| v.as_u64()).unwrap_or(0) > 0);
    let pipeline = stats.get("pipeline").expect("pipeline telemetry");
    for key in [
        "queues",
        "queue_high_water",
        "producer_stall_cycles",
        "records_dropped",
        "records_corrupt",
        "worker_panics",
    ] {
        assert!(
            pipeline.get(key).and_then(|v| v.as_u64()).is_some(),
            "missing {key}"
        );
    }
    assert!(pipeline
        .get("per_worker")
        .and_then(|v| v.as_arr())
        .is_some());
}

#[test]
fn chaos_stalls_flag_preserves_verdict_and_reports_telemetry() {
    let ptx = write_temp("chaos", RACY);
    let out = Command::new(BIN)
        .args([
            "check",
            ptx.to_str().expect("utf8"),
            "--grid",
            "2",
            "--block",
            "32",
            "--param",
            "buf:4",
            "--chaos-stalls",
            "42",
            "--stats-json",
        ])
        .output()
        .expect("run cli");
    assert_eq!(
        out.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = barracuda::statsjson::parse(&stdout).expect("json parses");
    assert_eq!(doc.get("verdict").and_then(|v| v.as_str()), Some("race"));
    // The seed replays: the repro block names the stall plan it built.
    assert_eq!(
        doc.get("repro")
            .and_then(|r| r.get("chaos_seed"))
            .and_then(|v| v.as_u64()),
        Some(42)
    );
    // --chaos-stalls implies the threaded pipeline: queues are live.
    let pipeline = doc
        .get("stats")
        .and_then(|s| s.get("pipeline"))
        .expect("pipeline");
    assert!(pipeline.get("queues").and_then(|v| v.as_u64()).unwrap_or(0) > 0);
    // Stall-only chaos is lossless.
    assert_eq!(
        pipeline.get("records_dropped").and_then(|v| v.as_u64()),
        Some(0)
    );
}

#[test]
fn serve_and_one_shot_exit_codes_agree() {
    // The exit-code taxonomy is one contract (barracuda::exitcode):
    // the same request must produce the same code whether it runs
    // one-shot or through the server. Pinned for clean (0), races (1),
    // a step budget and a wall-clock deadline (3).
    let spin = "\n.version 4.3\n.target sm_35\n.address_size 64\n.visible .entry k()\n{\nL:\n    bra L;\n}\n";
    let clean_src = RACY.replace(
        "ld.global.u32 %r1, [%rd1];\n    add.s32 %r1, %r1, 1;\n    st.global.u32 [%rd1], %r1;",
        "atom.global.add.u32 %r1, [%rd1], 1;",
    );
    let racy_ptx = write_temp("agree_racy", RACY);
    let clean_ptx = write_temp("agree_clean", &clean_src);
    let spin_ptx = write_temp("agree_spin", spin);
    let sock = std::env::temp_dir().join(format!("barracuda_agree_{}.sock", std::process::id()));
    let sock_s = sock.to_str().expect("utf8").to_string();

    let server = Command::new(BIN)
        .args(["serve", "--socket", &sock_s])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn server");
    // Wait for the socket to come up.
    for _ in 0..200 {
        if sock.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    assert!(sock.exists(), "server socket never appeared");

    let run = |args: &[&str]| Command::new(BIN).args(args).output().expect("run cli");
    let cases: &[(&std::path::PathBuf, &[&str], i32)] = &[
        (
            &racy_ptx,
            &["--grid", "2", "--block", "32", "--param", "buf:4"],
            1,
        ),
        (
            &clean_ptx,
            &["--grid", "2", "--block", "32", "--param", "buf:4"],
            0,
        ),
        (&spin_ptx, &["--max-steps", "10000"], 3),
        (&spin_ptx, &["--timeout-ms", "150"], 3),
    ];
    for (ptx, extra, want) in cases {
        let p = ptx.to_str().expect("utf8");
        let mut one_shot = vec!["check", p];
        one_shot.extend_from_slice(extra);
        let mut served = vec!["client", "--socket", &sock_s, p];
        served.extend_from_slice(extra);
        let direct = run(&one_shot).status.code();
        let via_server = run(&served).status.code();
        assert_eq!(direct, Some(*want), "one-shot {p} {extra:?}");
        assert_eq!(
            via_server, direct,
            "serve and one-shot disagree on {p} {extra:?}"
        );
    }

    // A served request honours no warp size, memory model, seed, stall
    // plan or local hook: the client refuses each such flag (and the
    // retired --deadline-ms)
    // and sends nothing, rather than dropping it and reporting a verdict
    // for a launch the user did not ask for.
    let racy = racy_ptx.to_str().expect("utf8");
    for flag in [
        &["--warp-size", "4"][..],
        &["--warp-sweep"],
        &["--threaded"],
        &["--memory-model", "kepler"],
        &["--seed", "7"],
        &["--stats-json"],
        &["--chaos-stalls", "42"],
        &["--chaos-abort"],
        &["--chaos-hang"],
        &["--deadline-ms", "150"],
    ] {
        let mut served = vec!["client", "--socket", &sock_s, racy, "--param", "buf:4"];
        served.extend_from_slice(flag);
        let out = run(&served);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag:?}: {stderr}");
        assert!(stderr.contains(flag[0]), "{flag:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag:?} printed a verdict");
    }

    assert_eq!(
        run(&["client", "--socket", &sock_s, "--shutdown"])
            .status
            .code(),
        Some(0)
    );
    let out = server.wait_with_output().expect("server exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "server must shut down cleanly: {:?}",
        out.status
    );
    // Only the four agreeing requests (and the shutdown) reached it.
    assert!(
        stderr.contains(&format!(" {} accepted,", cases.len())),
        "{stderr}"
    );
}

#[test]
fn trace_subcommand_prints_trace_operations() {
    let ptx = write_temp("trace", RACY);
    let out = Command::new(BIN)
        .args([
            "trace",
            ptx.to_str().expect("utf8"),
            "--grid",
            "1",
            "--block",
            "2",
            "--param",
            "buf:4",
        ])
        .output()
        .expect("run cli");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Read"), "{stdout}");
    assert!(stdout.contains("Write"), "{stdout}");
    assert!(stdout.contains("endi"), "{stdout}");
    assert!(stdout.contains("exit"), "{stdout}");
}
