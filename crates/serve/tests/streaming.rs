//! Streaming verdicts: incremental race events, launch-id idempotency,
//! reconnect-and-resume, and the interrupted exit code.
//!
//! A streamed check must deliver `RaceEvent` frames *while the launch
//! runs* and finish with a `LaunchDone` whose body is the complete
//! verdict — events are a preview, never the record. A broken stream
//! must resume by launch id without re-running the launch, and when
//! resume fails the client must answer `Interrupted` (exit code 5),
//! never a fabricated clean verdict.

mod common;

use barracuda::exitcode;
use barracuda_serve::{
    ArgSpec, CheckRequest, Client, Connection, Response, RetryPolicy, Server, ServerConfig,
    Transport,
};
use common::{spawn_server, Wire};

/// Races once at the top, then burns a bounded loop: the race is
/// visible to the streaming sidecar long before the verdict lands.
///
/// The loop is what lets events stream at all. The sidecar polls the
/// race sink every 200 µs, and the end-of-launch drain takes every
/// report and rewinds the sink's streaming cursor, so a report the
/// sidecar has not polled before that drain never streams as an event
/// (it still reaches the client in the terminal verdict). The launch
/// must therefore outlast the poll by a wide margin even on a loaded
/// host: 20,000 iterations take ~300 ms per launch in a debug build,
/// some 1,500 polls.
const SLOW_RACY: &str = r#"
.version 4.3
.target sm_35
.address_size 64
.visible .entry k(.param .u64 buf)
{
    .reg .pred %p<2>;
    .reg .b32 %r<4>;
    .reg .b64 %rd<4>;
    ld.param.u64 %rd1, [buf];
    ld.global.u32 %r1, [%rd1];
    add.s32 %r1, %r1, 1;
    st.global.u32 [%rd1], %r1;
    mov.u32 %r2, 20000;
L:
    sub.s32 %r2, %r2, 1;
    setp.ne.s32 %p1, %r2, 0;
    @%p1 bra L;
    ret;
}
"#;

fn slow_racy_request() -> CheckRequest {
    let mut req = CheckRequest::new(SLOW_RACY, "k", 2, 32);
    req.params.push(ArgSpec::Buf(4));
    req
}

fn unwrap_done(resp: &Response) -> &barracuda_serve::DoneBody {
    match resp {
        Response::LaunchDone { body, .. } => match body.as_ref() {
            Response::Done(b) => b,
            other => panic!("expected Done body, got {other:?}"),
        },
        other => panic!("expected LaunchDone, got {other:?}"),
    }
}

#[test]
fn events_arrive_before_the_terminal_and_the_verdict_is_complete() {
    let server = Server::with_defaults();
    let session = server.session().expect("session");

    // Baseline: the same request unstreamed.
    let baseline = match session.submit(slow_racy_request()) {
        Response::Done(b) => b.races,
        other => panic!("baseline: {other:?}"),
    };
    assert!(baseline > 0);

    let mut req = slow_racy_request();
    req.stream = true;
    req.launch_id = Some(42);
    let mut events = Vec::new();
    let resp = session.submit_streamed(req, &mut |ev| match ev {
        Response::RaceEvent { launch_id, seq, .. } => events.push((*launch_id, *seq)),
        other => panic!("non-terminal frame {other:?}"),
    });

    let body = unwrap_done(&resp);
    assert_eq!(
        body.races, baseline,
        "streaming must not change the verdict"
    );
    assert!(
        !events.is_empty(),
        "the early race must stream out while the loop still burns"
    );
    assert!(
        (events.len() as u64) <= baseline,
        "events are a preview, never more than the verdict's races"
    );
    for (i, (lid, seq)) in events.iter().enumerate() {
        assert_eq!(*lid, 42, "events carry the launch id");
        assert_eq!(*seq, i as u64, "event sequence is dense and ordered");
    }

    let stats = server.shutdown();
    assert_eq!(stats.streamed_events, events.len() as u64);
}

#[test]
fn a_replayed_launch_id_returns_the_cached_verdict_without_rerunning() {
    let server = Server::with_defaults();
    let session = server.session().expect("session");

    let mut req = slow_racy_request();
    req.stream = true;
    req.launch_id = Some(7);
    let first = session.submit_streamed(req.clone(), &mut |_| {});
    let races = unwrap_done(&first).races;
    assert!(races > 0);

    // Same id again: the cached terminal comes back — identical verdict,
    // no second execution, no replayed preview events.
    let mut replay_events = 0u64;
    let second = session.submit_streamed(req, &mut |_| replay_events += 1);
    assert_eq!(second, first, "replay is byte-identical");
    assert_eq!(replay_events, 0, "a replay streams nothing");

    let stats = server.shutdown();
    assert_eq!(stats.replays, 1);
    assert_eq!(stats.completed, 1, "the launch ran exactly once");
}

/// A transport whose link dies after the server has finished the launch:
/// the submission reaches the session, the terminal is produced and
/// cached, but the caller sees an I/O error. Exactly the window the
/// launch-id resume protocol exists for.
struct DropTerminal<T> {
    inner: T,
    drops_left: u32,
    reconnectable: bool,
}

impl<T: Transport> Transport for DropTerminal<T> {
    fn submit(&mut self, req: &CheckRequest) -> Response {
        self.inner.submit(req)
    }

    fn submit_streamed(
        &mut self,
        req: &CheckRequest,
        on_event: &mut dyn FnMut(&Response),
    ) -> std::io::Result<Response> {
        let resp = self.inner.submit_streamed(req, on_event)?;
        if self.drops_left > 0 {
            self.drops_left -= 1;
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "link died before the terminal frame",
            ));
        }
        Ok(resp)
    }

    fn reconnect(&mut self) -> bool {
        self.reconnectable
    }
}

#[test]
fn a_cut_stream_resumes_by_launch_id_and_never_reruns_the_launch() {
    let server = Server::with_defaults();
    let session = server.session().expect("session");

    let mut client = Client::new(
        DropTerminal {
            inner: session,
            drops_left: 1,
            reconnectable: true,
        },
        RetryPolicy::default(),
    );
    let resp = client.check_streamed(&slow_racy_request(), &mut |_| {});
    assert!(unwrap_done(&resp).races > 0);
    assert_eq!(
        client.resumes(),
        1,
        "the cut was resumed, not retried blind"
    );

    let stats = server.shutdown();
    assert_eq!(stats.completed, 1, "resume replayed; the launch ran once");
    assert_eq!(stats.replays, 1);
}

#[test]
fn an_unresumable_stream_answers_interrupted_never_success() {
    let server = Server::with_defaults();
    let session = server.session().expect("session");

    let mut client = Client::new(
        DropTerminal {
            inner: session,
            drops_left: u32::MAX,
            reconnectable: false,
        },
        RetryPolicy::default(),
    );
    let mut events = 0u64;
    let resp = client.check_streamed(&slow_racy_request(), &mut |_| events += 1);
    match &resp {
        Response::Interrupted {
            events: reported, ..
        } => assert_eq!(*reported, events, "the count of events that did land"),
        other => panic!("expected Interrupted, got {other:?}"),
    }
    assert_eq!(resp.exit_code(), exitcode::INTERRUPTED);
    server.shutdown();
}

#[test]
fn exit_codes_agree_between_streamed_and_plain_responses() {
    let server = Server::new(ServerConfig {
        chaos_panic_kernel: Some("boom".to_string()),
        ..ServerConfig::default()
    });
    let session = server.session().expect("session");

    // A streamed racy verdict exits RACES, exactly like its plain twin.
    let mut req = slow_racy_request();
    req.stream = true;
    let streamed = session.submit_streamed(req, &mut |_| {});
    assert_eq!(streamed.exit_code(), exitcode::RACES);
    let plain = session.submit(slow_racy_request());
    assert_eq!(plain.exit_code(), exitcode::RACES);

    // A quarantine mid-stream must surface DEGRADED through the wrapper
    // — a partial event stream plus a crash is not a success.
    let mut boom = CheckRequest::new(SLOW_RACY, "boom", 1, 32);
    boom.stream = true;
    let resp = session.submit_streamed(boom, &mut |_| {});
    match &resp {
        Response::LaunchDone { body, .. } => {
            assert!(
                matches!(body.as_ref(), Response::Degraded { .. }),
                "{body:?}"
            );
        }
        other => panic!("expected wrapped Degraded, got {other:?}"),
    }
    assert_eq!(resp.exit_code(), exitcode::DEGRADED);
    server.shutdown();
}

fn transport_streams_events_and_reconnects(wire: Wire) {
    let (endpoint, server) = spawn_server(wire, "stream");

    let conn = Connection::connect(&endpoint).expect("connect");
    let mut client = Client::new(conn, RetryPolicy::default());
    let mut events = 0u64;
    let resp = client.check_streamed(&slow_racy_request(), &mut |ev| {
        assert!(matches!(ev, Response::RaceEvent { .. }));
        events += 1;
    });
    assert!(unwrap_done(&resp).races > 0, "verdict over {wire:?}");
    assert!(
        events > 0,
        "events streamed over {wire:?} before the terminal"
    );

    // A fresh connection to the same endpoint works after a reconnect.
    let mut conn = client.into_inner();
    assert!(conn.reconnect(), "server still up");
    let plain = conn.submit(&slow_racy_request());
    assert!(matches!(plain, Response::Done(_)), "{plain:?}");

    conn.shutdown_server().expect("shutdown");
    let stats = server.join().expect("server thread");
    assert!(stats.streamed_events > 0);
    assert_eq!(stats.completed, 2);
}

#[test]
fn tcp_transport_streams_events_and_reconnects() {
    transport_streams_events_and_reconnects(Wire::Tcp);
}

#[test]
fn unix_socket_transport_streams_events_and_reconnects() {
    transport_streams_events_and_reconnects(Wire::Unix);
}
