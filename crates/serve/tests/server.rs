//! Integration tests of the detection server: verdict parity with a
//! direct engine, cooperative deadlines, step budgets, panic quarantine,
//! admission control, graceful shutdown, and the wire's line cap and
//! nesting depth cap over both transports.

mod common;

use barracuda::{BarracudaConfig, Engine, KernelRun};
use barracuda_serve::{
    ArgSpec, CheckRequest, Client, Connection, Endpoint, Response, RetryPolicy, Server,
    ServerConfig, ServerStats, Transport, MAX_FRAME,
};
use barracuda_simt::ParamValue;
use barracuda_trace::GridDims;
use common::{spawn_server, Wire};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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

/// A kernel that never terminates: only a deadline or step budget stops it.
const SPIN: &str = r#"
.version 4.3
.target sm_35
.address_size 64
.visible .entry k()
{
L:
    bra L;
}
"#;

fn clean_ptx() -> String {
    RACY.replace(
        "ld.global.u32 %r1, [%rd1];\n    add.s32 %r1, %r1, 1;\n    st.global.u32 [%rd1], %r1;",
        "atom.global.add.u32 %r1, [%rd1], 1;",
    )
}

fn racy_request() -> CheckRequest {
    let mut req = CheckRequest::new(RACY, "k", 2, 32);
    req.params.push(ArgSpec::Buf(4));
    req
}

fn spin_request() -> CheckRequest {
    CheckRequest::new(SPIN, "k", 1, 32)
}

/// The direct-engine verdict for the same launch a request describes.
fn direct_verdict(source: &str) -> (u64, bool, u8) {
    let mut engine = Engine::with_config(BarracudaConfig::default());
    let buf = engine.gpu_mut().malloc(4);
    let analysis = engine
        .check(&KernelRun {
            source,
            kernel: "k",
            dims: GridDims::new(2u32, 32u32),
            params: &[ParamValue::Ptr(buf)],
        })
        .expect("direct check");
    (
        analysis.race_count() as u64,
        analysis.is_degraded(),
        barracuda::exitcode::for_analysis(&analysis),
    )
}

#[test]
fn served_verdicts_match_a_direct_engine() {
    let server = Server::with_defaults();
    let session = server.session().expect("session");

    for source in [RACY.to_string(), clean_ptx()] {
        let mut req = CheckRequest::new(&source, "k", 2, 32);
        req.params.push(ArgSpec::Buf(4));
        let (races, degraded, code) = direct_verdict(&source);
        match session.submit(req) {
            Response::Done(body) => {
                assert_eq!(body.races, races, "race count parity");
                assert_eq!(body.degraded, degraded, "degradation parity");
                assert_eq!(body.exit_code, code, "taxonomy parity");
            }
            other => panic!("expected Done, got {other:?}"),
        }
    }

    let stats = server.shutdown();
    assert_eq!(stats.accepted, 2);
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.quarantines, 0);
}

#[test]
fn deadline_cancels_cooperatively_and_the_worker_is_reusable() {
    let server = Server::with_defaults();
    let session = server.session().expect("session");

    // No step budget: only the wall-clock watchdog can stop this kernel.
    let mut spin = spin_request();
    spin.deadline_ms = Some(100);
    let started = Instant::now();
    match session.submit(spin) {
        Response::Timeout { deadline, steps } => {
            assert!(deadline, "wall-clock deadline, not a step budget");
            assert!(steps > 0, "the launch made progress before cancelling");
        }
        other => panic!("expected Timeout, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "cancellation must be prompt, not a hang"
    );

    // The same session (same engine, same worker thread) keeps serving:
    // cancellation poisons nothing.
    match session.submit(racy_request()) {
        Response::Done(body) => assert!(body.races > 0, "racy kernel after a timeout"),
        other => panic!("expected Done after timeout, got {other:?}"),
    }

    let stats = server.shutdown();
    assert_eq!(stats.timeouts, 1);
    assert_eq!(stats.deadlines_fired, 1);
    assert_eq!(stats.quarantines, 0, "a deadline is not a crash");
}

#[test]
fn step_budget_timeouts_are_distinguished_from_deadlines() {
    let server = Server::with_defaults();
    let session = server.session().expect("session");

    let mut spin = spin_request();
    spin.max_steps = Some(10_000);
    match session.submit(spin) {
        Response::Timeout { deadline, steps } => {
            assert!(!deadline, "step budget, not a wall-clock deadline");
            assert!(steps >= 10_000);
        }
        other => panic!("expected Timeout, got {other:?}"),
    }

    let stats = server.shutdown();
    assert_eq!(stats.timeouts, 1);
    assert_eq!(stats.deadlines_fired, 0, "no deadline was armed or fired");
}

/// A request without `max_steps` gets the engine template's
/// `gpu.max_steps`, as `barracuda check` does: never an unbounded run,
/// and never the budget an earlier request on the same engine set.
#[test]
fn a_request_without_a_step_budget_gets_the_template_budget() {
    let mut engine = BarracudaConfig::default();
    engine.gpu.max_steps = 100_000;
    let server = Server::new(ServerConfig {
        engine,
        // One worker and one resident engine: every request below runs
        // on the same engine.
        pool_workers: 1,
        max_resident_engines: 1,
        ..ServerConfig::default()
    });
    let session = server.session().expect("session");
    let template_budget = |req: CheckRequest| match session.submit(req) {
        Response::Timeout { deadline, steps } => {
            assert!(
                !deadline,
                "the step budget must stop the spin, not the deadline"
            );
            assert!(
                (100_000..200_000).contains(&steps),
                "{steps} steps under a 100000-step budget"
            );
        }
        other => panic!("expected a step-budget Timeout, got {other:?}"),
    };

    // The deadline is only a backstop: the budget stops the spin first.
    let mut spin = spin_request();
    spin.deadline_ms = Some(10_000);
    template_budget(spin.clone());

    let mut cold = spin.clone();
    cold.max_steps = Some(0);
    match session.submit(cold) {
        Response::Timeout { deadline, steps } => {
            assert!(!deadline);
            assert!(steps < 100_000, "a zero budget ran {steps} steps");
        }
        other => panic!("expected Timeout, got {other:?}"),
    }
    template_budget(spin);

    let stats = server.shutdown();
    assert_eq!(stats.timeouts, 3);
    assert_eq!(stats.deadlines_fired, 0);
}

#[test]
fn a_panicking_request_quarantines_the_engine_and_the_session_survives() {
    let config = ServerConfig {
        chaos_panic_kernel: Some("boom".to_string()),
        ..ServerConfig::default()
    };
    let server = Server::new(config);
    let session = server.session().expect("session");

    // Warm the session with a real verdict first so the quarantine
    // replaces an engine that has served work.
    match session.submit(racy_request()) {
        Response::Done(body) => assert!(body.races > 0),
        other => panic!("expected Done, got {other:?}"),
    }

    let poisoned = CheckRequest::new(RACY, "boom", 1, 32);
    match session.submit(poisoned) {
        Response::Degraded { message } => {
            assert!(
                message.contains("chaos"),
                "panic message surfaced: {message}"
            );
        }
        other => panic!("expected Degraded, got {other:?}"),
    }

    // The rebuilt engine serves the same verdict as before the crash.
    match session.submit(racy_request()) {
        Response::Done(body) => {
            assert!(body.races > 0, "verdict after quarantine");
            assert_eq!(body.exit_code, barracuda::exitcode::RACES);
        }
        other => panic!("expected Done after quarantine, got {other:?}"),
    }

    let stats = server.shutdown();
    assert_eq!(stats.quarantines, 1);
    assert_eq!(stats.completed, 3, "the degraded answer still completed");
}

#[test]
fn full_queues_shed_load_and_a_retrying_client_eventually_lands() {
    let config = ServerConfig {
        queue_depth: 1,
        retry_after_ms: 5,
        ..ServerConfig::default()
    };
    let server = Server::new(config);
    let session = server.session().expect("session");

    // Occupy the worker with a deadline-bounded spin, and fill the
    // one-slot queue behind it.
    let mut long = spin_request();
    long.deadline_ms = Some(400);
    let occupant = {
        let s = session.clone();
        std::thread::spawn(move || s.submit(long))
    };
    // Wait for the worker to pick the spin up, then stuff the queue.
    std::thread::sleep(Duration::from_millis(50));
    let queued = {
        let s = session.clone();
        std::thread::spawn(move || s.submit(racy_request()))
    };
    std::thread::sleep(Duration::from_millis(50));

    // Worker busy + queue full: admission control must refuse, not block.
    match session.submit(racy_request()) {
        Response::Rejected { retry_after_ms } => assert_eq!(retry_after_ms, 5),
        other => panic!("expected Rejected under load, got {other:?}"),
    }

    // A retrying client outlasts the 400ms spin and lands its request.
    let mut client = Client::new(
        session.clone(),
        RetryPolicy {
            base_ms: 20,
            cap_ms: 200,
            max_attempts: 64,
            seed: 7,
        },
    );
    match client.check(&racy_request()) {
        Response::Done(body) => assert!(body.races > 0),
        other => panic!("retrying client expected Done, got {other:?}"),
    }
    assert!(
        client.retries() > 0,
        "the client had to back off at least once"
    );

    assert!(matches!(
        occupant.join().expect("occupant"),
        Response::Timeout { deadline: true, .. }
    ));
    assert!(matches!(queued.join().expect("queued"), Response::Done(_)));

    let stats = server.shutdown();
    assert!(stats.rejected > client.retries());
    assert_eq!(stats.timeouts, 1);
}

#[test]
fn graceful_shutdown_answers_queued_work_and_counts_it() {
    let config = ServerConfig {
        queue_depth: 4,
        ..ServerConfig::default()
    };
    let server = Server::new(config);
    let session = server.session().expect("session");

    // Occupy the worker so follow-up submissions stay queued.
    let mut long = spin_request();
    long.deadline_ms = Some(300);
    let occupant = {
        let s = session.clone();
        std::thread::spawn(move || s.submit(long))
    };
    std::thread::sleep(Duration::from_millis(50));
    let queued: Vec<_> = (0..2)
        .map(|_| {
            let s = session.clone();
            std::thread::spawn(move || s.submit(racy_request()))
        })
        .collect();
    std::thread::sleep(Duration::from_millis(50));

    let stats = server.shutdown();

    // The in-flight launch resolved (its deadline fired); everything
    // admitted-but-unstarted was answered honestly, not dropped.
    assert!(matches!(
        occupant.join().expect("occupant"),
        Response::Timeout { deadline: true, .. }
    ));
    for q in queued {
        assert_eq!(q.join().expect("queued"), Response::ShuttingDown);
    }
    assert_eq!(stats.dropped_on_shutdown, 2);
    assert_eq!(stats.accepted, 3);
    assert_eq!(stats.completed, 1, "only the in-flight launch completed");

    // Clones of the session refuse new work after shutdown.
    assert_eq!(session.submit(racy_request()), Response::ShuttingDown);
}

/// A raw connection to `endpoint`, bypassing the client's framing. A
/// server that never answers fails its reads after 30 s instead of
/// hanging the test.
fn raw_connect(endpoint: &Endpoint) -> (Box<dyn Write>, BufReader<Box<dyn Read>>) {
    let timeout = Some(Duration::from_secs(30));
    let (writer, reader): (Box<dyn Write>, Box<dyn Read>) = match endpoint {
        Endpoint::Unix(path) => {
            let stream = UnixStream::connect(path).expect("connect");
            stream.set_read_timeout(timeout).expect("read timeout");
            (
                Box::new(stream.try_clone().expect("clone")),
                Box::new(stream),
            )
        }
        Endpoint::Tcp(addr) => {
            let stream = TcpStream::connect(addr).expect("connect");
            stream.set_read_timeout(timeout).expect("read timeout");
            (
                Box::new(stream.try_clone().expect("clone")),
                Box::new(stream),
            )
        }
    };
    (writer, BufReader::new(reader))
}

/// The racy request through `good` still gets the direct engine's
/// verdict; then the server shuts down with no engine quarantined.
fn assert_other_session_unharmed(
    mut good: Connection,
    server: JoinHandle<ServerStats>,
) -> ServerStats {
    let (races, degraded, code) = direct_verdict(RACY);
    match good.submit(&racy_request()) {
        Response::Done(body) => {
            assert_eq!(body.races, races);
            assert_eq!(body.degraded, degraded);
            assert_eq!(body.exit_code, code);
        }
        other => panic!("expected Done, got {other:?}"),
    }
    good.shutdown_server().expect("shutdown");
    let stats = server.join().expect("server thread");
    assert_eq!(stats.quarantines, 0);
    stats
}

fn an_oversized_line_is_refused_without_touching_other_sessions(wire: Wire) {
    let (endpoint, server) = spawn_server(wire, "linecap");
    // A second session opened before the oversized line arrives.
    let good = Connection::connect(&endpoint).expect("connect");

    let (mut bad, mut reader) = raw_connect(&endpoint);
    let chunk = vec![b'x'; 1 << 20];
    let mut sent = 0usize;
    while sent <= MAX_FRAME as usize {
        // The server hangs up once the cap is crossed; later writes may
        // fail with a broken pipe.
        if bad.write_all(&chunk).is_err() {
            break;
        }
        sent += chunk.len();
    }
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("error line");
    match barracuda_serve::proto::decode_response(reply.trim()) {
        Ok(Response::Error { message }) => assert!(message.contains("exceeds cap"), "{message}"),
        other => panic!("expected an error line, got {other:?}"),
    }
    // The oversized connection ends in an orderly end of stream on both
    // transports: the server reads the rest of the line before it
    // closes, so TCP does not reset.
    let mut rest = String::new();
    match reader.read_line(&mut rest) {
        Ok(0) => {}
        other => panic!("the oversized connection ends with EOF, got {other:?}"),
    }

    assert_eq!(assert_other_session_unharmed(good, server).completed, 1);
}

#[test]
fn an_oversized_socket_line_is_refused_without_touching_other_sessions() {
    an_oversized_line_is_refused_without_touching_other_sessions(Wire::Unix);
}

#[test]
fn an_oversized_tcp_line_is_refused_without_touching_other_sessions() {
    an_oversized_line_is_refused_without_touching_other_sessions(Wire::Tcp);
}

fn a_deeply_nested_line_is_an_error_and_other_sessions_keep_their_verdicts(wire: Wire) {
    let (endpoint, server) = spawn_server(wire, "deepline");
    let good = Connection::connect(&endpoint).expect("connect");

    // 1 MiB of nesting: a recursive parser without a depth cap overflows
    // the connection handler's stack and aborts the whole server.
    let (mut bad, mut reader) = raw_connect(&endpoint);
    for opener in ["[", "{\"a\":"] {
        let mut line = opener.repeat(1 << 20);
        line.push('\n');
        bad.write_all(line.as_bytes()).expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply line");
        match barracuda_serve::proto::decode_response(reply.trim()) {
            Ok(Response::Error { message }) => assert!(message.contains("nesting"), "{message}"),
            other => panic!("expected an error line, got {other:?}"),
        }
    }

    assert_eq!(assert_other_session_unharmed(good, server).completed, 1);
}

#[test]
fn a_deeply_nested_socket_line_is_an_error_and_other_sessions_keep_their_verdicts() {
    a_deeply_nested_line_is_an_error_and_other_sessions_keep_their_verdicts(Wire::Unix);
}

#[test]
fn a_deeply_nested_tcp_line_is_an_error_and_other_sessions_keep_their_verdicts() {
    a_deeply_nested_line_is_an_error_and_other_sessions_keep_their_verdicts(Wire::Tcp);
}

/// A launch with no blocks is refused before it reaches the engine: an
/// error answer, not a panic that quarantines the engine.
#[test]
fn a_zero_grid_socket_request_is_an_error_and_no_engine_is_quarantined() {
    let (endpoint, server) = spawn_server(Wire::Unix, "zerogrid");
    let good = Connection::connect(&endpoint).expect("connect");

    let mut bad = Connection::connect(&endpoint).expect("connect");
    let mut req = racy_request();
    req.grid = (0, 1, 1);
    match bad.submit(&req) {
        Response::Error { message } => {
            assert!(message.contains("grid must be non-empty"), "{message}")
        }
        other => panic!("expected Error, got {other:?}"),
    }
    drop(bad);

    let stats = assert_other_session_unharmed(good, server);
    assert_eq!(stats.completed, 2, "the refused request still completed");
}

/// Buffer arguments past the per-request cap are refused before anything
/// is allocated: an error answer, not a host-memory blow-up or a panic.
/// Were the first buffer allocated, the second (`u64::MAX` bytes) would
/// panic the allocator and quarantine the engine.
#[test]
fn an_oversized_buffer_socket_request_is_an_error_and_no_engine_is_quarantined() {
    let (endpoint, server) = spawn_server(Wire::Unix, "bigbuf");
    let good = Connection::connect(&endpoint).expect("connect");

    let mut bad = Connection::connect(&endpoint).expect("connect");
    let mut req = racy_request();
    req.params = vec![ArgSpec::Buf(4), ArgSpec::Buf(u64::MAX)];
    match bad.submit(&req) {
        Response::Error { message } => assert!(message.contains("cap"), "{message}"),
        other => panic!("expected Error, got {other:?}"),
    }
    drop(bad);

    let stats = assert_other_session_unharmed(good, server);
    assert_eq!(stats.completed, 2, "the refused request still completed");
}

/// A register or static `.shared` declaration past the parser's cap is
/// refused at parse time, before anything is allocated: an error answer,
/// not an allocation abort that takes the server down. The register cap
/// counts the whole module, so 1,000 small kernels that each declare the
/// cap (about 3 GiB of register names between them) are refused too. The
/// same session then gets the verdict of its next request.
#[test]
fn a_hostile_declaration_socket_request_is_an_error_and_the_server_keeps_serving() {
    let (endpoint, server) = spawn_server(Wire::Unix, "hostiledecl");
    let good = Connection::connect(&endpoint).expect("connect");

    let mut bad = Connection::connect(&endpoint).expect("connect");
    let (races, _, _) = direct_verdict(RACY);
    let with_decl = |decl: &str| RACY.replace("ld.param", &format!("{decl}\n    ld.param"));
    let many_kernels: String = (0..1000)
        .map(|i| format!(".entry a{i}{{.reg .b32 %r<65536>;}}\n"))
        .collect();
    for (source, cap) in [
        (with_decl(".reg .b32 %q<4000000000>;"), "65536"),
        (with_decl(".shared .b8 sm[4000000000];"), "49152"),
        (format!("{RACY}{many_kernels}"), "65536"),
    ] {
        let mut req = racy_request();
        req.source = source;
        match bad.submit(&req) {
            Response::Error { message } => assert!(message.contains(cap), "{message}"),
            other => panic!("expected Error, got {other:?}"),
        }
        match bad.submit(&racy_request()) {
            Response::Done(body) => assert_eq!(body.races, races),
            other => panic!("expected Done, got {other:?}"),
        }
    }
    drop(bad);

    let stats = assert_other_session_unharmed(good, server);
    assert_eq!(stats.completed, 7, "the refused requests still completed");
}

/// A kernel declaring 65,530 `.b64` registers, within the parser's
/// per-module cap, whose register files scale with the grid.
fn wide_register_kernel() -> String {
    RACY.replace(".reg .b64 %rd<4>;", ".reg .b64 %rd<65530>;")
}

/// A launch whose register files would need about 32 GiB (65,530
/// registers × 2,048 warps × 32 lanes × 8 bytes) is refused before
/// anything is allocated: an error answer, not an allocation abort that
/// takes the server down. The same session then gets the verdict of its
/// next request, and no engine is quarantined.
#[test]
fn a_grid_scaled_register_file_socket_request_is_an_error_and_the_server_keeps_serving() {
    let (endpoint, server) = spawn_server(Wire::Unix, "regfile");
    let good = Connection::connect(&endpoint).expect("connect");

    let mut bad = Connection::connect(&endpoint).expect("connect");
    let mut req = CheckRequest::new(&wide_register_kernel(), "k", 64, 1024);
    req.params.push(ArgSpec::Buf(4));
    match bad.submit(&req) {
        Response::Error { message } => assert!(message.contains("cap"), "{message}"),
        other => panic!("expected Error, got {other:?}"),
    }
    let (races, _, _) = direct_verdict(RACY);
    match bad.submit(&racy_request()) {
        Response::Done(body) => assert_eq!(body.races, races),
        other => panic!("expected Done, got {other:?}"),
    }
    drop(bad);

    let stats = assert_other_session_unharmed(good, server);
    assert_eq!(stats.completed, 3, "the refused request still completed");
}
