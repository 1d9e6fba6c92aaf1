//! Detection-server throughput/latency harness.
//!
//! Four sections, written machine-readably to `BENCH_serve.json`
//! (current directory unless `--out <path>` is given; `--quick` shrinks
//! request counts for CI smoke):
//!
//! * **scenarios** — the in-process [`Server`] driven by 1, 4 and 16
//!   concurrent clients (one isolated session each, standard retry
//!   policy): aggregate requests per second plus p50/p99 request
//!   latency.
//! * **pool_sweep** — 16 clients multiplexed over a bounded engine pool
//!   of 1, 2 and 4 workers/resident engines: the cost (or win) of
//!   engine sharing versus the per-session default.
//! * **streaming** — a slow racy kernel submitted with `stream: true`:
//!   p50/p99 of the *first race event* versus the terminal verdict, the
//!   number streaming exists to shrink.
//! * **tcp** — the same race-free workload over the wire transport
//!   (newline-delimited JSON) on loopback TCP, measuring the framing +
//!   syscall overhead against the in-process numbers.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use barracuda_serve::{
    serve_tcp_listener, ArgSpec, CheckRequest, Client, Connection, Endpoint, Response, RetryPolicy,
    Server, ServerConfig, Transport,
};

/// Requests issued by each client in full mode (percentile resolution).
const REQUESTS_FULL: usize = 40;
/// Requests issued by each client in `--quick` mode.
const REQUESTS_QUICK: usize = 3;

/// A small race-free kernel: every thread writes its own slot (one
/// block, so `%tid.x` is globally unique), so the bench measures
/// serving overhead, not race triage.
fn source() -> String {
    ".version 4.3\n.target sm_35\n.address_size 64\n\
     .visible .entry k(.param .u64 out)\n{\n\
     .reg .b32 %r<4>;\n.reg .b64 %rd<4>;\n\
     mov.u32 %r1, %tid.x;\n\
     ld.param.u64 %rd1, [out];\n\
     mul.wide.u32 %rd2, %r1, 4;\n\
     add.s64 %rd3, %rd1, %rd2;\n\
     st.global.u32 [%rd3], %r1;\n\
     ret;\n}"
        .to_string()
}

/// Races once at the top, then burns a bounded loop: the gap between
/// the first streamed event and the terminal verdict is the latency
/// win streaming buys.
fn slow_racy_source(loop_iters: u32) -> String {
    format!(
        ".version 4.3\n.target sm_35\n.address_size 64\n\
         .visible .entry k(.param .u64 buf)\n{{\n\
         .reg .pred %p<2>;\n.reg .b32 %r<4>;\n.reg .b64 %rd<4>;\n\
         ld.param.u64 %rd1, [buf];\n\
         ld.global.u32 %r1, [%rd1];\n\
         add.s32 %r1, %r1, 1;\n\
         st.global.u32 [%rd1], %r1;\n\
         mov.u32 %r2, {loop_iters};\n\
         L:\n\
         sub.s32 %r2, %r2, 1;\n\
         setp.ne.s32 %p1, %r2, 0;\n\
         @%p1 bra L;\n\
         ret;\n}}"
    )
}

fn request() -> CheckRequest {
    let mut req = CheckRequest::new(&source(), "k", 1, 32);
    req.params.push(ArgSpec::Buf(32 * 4));
    req
}

struct Measurement {
    requests_per_sec: f64,
    p50_us: u64,
    p99_us: u64,
}

fn percentile(sorted: &[Duration], p: f64) -> u64 {
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx].as_micros() as u64
}

fn summarize(mut latencies: Vec<Duration>, wall: f64) -> Measurement {
    latencies.sort_unstable();
    Measurement {
        requests_per_sec: latencies.len() as f64 / wall,
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
    }
}

/// One scenario: `clients` concurrent sessions, `requests` each.
fn run_scenario(config: ServerConfig, clients: usize, requests: usize) -> Measurement {
    let server = Server::new(config);
    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let session = server.session().expect("session");
            std::thread::spawn(move || {
                let mut client = Client::new(
                    session,
                    RetryPolicy {
                        seed: 0xbe7 ^ c as u64,
                        ..RetryPolicy::default()
                    },
                );
                let mut latencies = Vec::with_capacity(requests);
                for _ in 0..requests {
                    let req = request();
                    let t = Instant::now();
                    match client.check(&req) {
                        Response::Done(body) => {
                            assert_eq!(body.races, 0, "bench kernel must be race-free");
                            assert!(!body.degraded, "a fault-free server loses nothing");
                        }
                        other => panic!("bench request failed: {other:?}"),
                    }
                    latencies.push(t.elapsed());
                }
                latencies
            })
        })
        .collect();
    let latencies: Vec<Duration> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let wall = start.elapsed().as_secs_f64();
    server.shutdown();
    summarize(latencies, wall)
}

struct StreamMeasurement {
    first_event_p50_us: u64,
    first_event_p99_us: u64,
    terminal_p50_us: u64,
    terminal_p99_us: u64,
}

/// Streamed checks of a slow racy kernel: latency to the first
/// `RaceEvent` versus the terminal verdict.
fn run_streaming(requests: usize, loop_iters: u32) -> StreamMeasurement {
    let server = Server::with_defaults();
    let session = server.session().expect("session");
    let src = slow_racy_source(loop_iters);
    let mut first = Vec::with_capacity(requests);
    let mut terminal = Vec::with_capacity(requests);
    for i in 0..requests {
        let mut req = CheckRequest::new(&src, "k", 2, 32);
        req.params.push(ArgSpec::Buf(4));
        req.stream = true;
        req.launch_id = Some(1 + i as u64);
        let t = Instant::now();
        let mut first_at: Option<Duration> = None;
        let resp = session.submit_streamed(req, &mut |_| {
            first_at.get_or_insert_with(|| t.elapsed());
        });
        let done = t.elapsed();
        match &resp {
            Response::LaunchDone { body, .. } => {
                assert!(matches!(body.as_ref(), Response::Done(b) if b.races > 0));
            }
            other => panic!("streamed bench request failed: {other:?}"),
        }
        first.push(first_at.expect("the race must stream before the verdict"));
        terminal.push(done);
    }
    server.shutdown();
    first.sort_unstable();
    terminal.sort_unstable();
    StreamMeasurement {
        first_event_p50_us: percentile(&first, 0.50),
        first_event_p99_us: percentile(&first, 0.99),
        terminal_p50_us: percentile(&terminal, 0.50),
        terminal_p99_us: percentile(&terminal, 0.99),
    }
}

/// The race-free workload over loopback TCP: `clients` connections,
/// `requests` each.
fn run_tcp(clients: usize, requests: usize) -> Measurement {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let endpoint = Endpoint::Tcp(listener.local_addr().expect("addr"));
    let server = std::thread::spawn(move || serve_tcp_listener(listener, ServerConfig::default()));
    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let endpoint = endpoint.clone();
            std::thread::spawn(move || {
                let conn = Connection::connect(&endpoint).expect("connect");
                let mut client = Client::new(
                    conn,
                    RetryPolicy {
                        seed: 0x7c9 ^ c as u64,
                        ..RetryPolicy::default()
                    },
                );
                let mut latencies = Vec::with_capacity(requests);
                for _ in 0..requests {
                    let req = request();
                    let t = Instant::now();
                    match client.check(&req) {
                        Response::Done(body) => assert_eq!(body.races, 0),
                        other => panic!("tcp bench request failed: {other:?}"),
                    }
                    latencies.push(t.elapsed());
                }
                latencies
            })
        })
        .collect();
    let latencies: Vec<Duration> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let wall = start.elapsed().as_secs_f64();
    let mut conn = Connection::connect(&endpoint).expect("connect for shutdown");
    conn.shutdown_server().expect("shutdown");
    server.join().expect("server thread").expect("serve");
    summarize(latencies, wall)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_serve.json", |s| s.as_str());

    let requests = if quick { REQUESTS_QUICK } else { REQUESTS_FULL };
    let loop_iters = if quick { 20_000 } else { 200_000 };

    let mut rows = String::new();
    let mut first = true;
    for &clients in &[1usize, 4, 16] {
        let m = run_scenario(ServerConfig::default(), clients, requests);
        println!(
            "{clients:>2} client(s)        {:>8.0} req/s   p50 {:>7} us   p99 {:>7} us",
            m.requests_per_sec, m.p50_us, m.p99_us
        );
        if !first {
            rows.push_str(",\n");
        }
        first = false;
        write!(
            rows,
            "    {{\n      \"clients\": {clients},\n      \
             \"requests_per_sec\": {:.0},\n      \"p50_us\": {},\n      \
             \"p99_us\": {}\n    }}",
            m.requests_per_sec, m.p50_us, m.p99_us
        )
        .expect("write to string");
    }

    let mut sweep_rows = String::new();
    let mut first = true;
    for &pool in &[1usize, 2, 4] {
        let config = ServerConfig {
            pool_workers: pool,
            max_resident_engines: pool,
            ..ServerConfig::default()
        };
        let m = run_scenario(config, 16, requests);
        println!(
            "16 clients / pool {pool}   {:>8.0} req/s   p50 {:>7} us   p99 {:>7} us",
            m.requests_per_sec, m.p50_us, m.p99_us
        );
        if !first {
            sweep_rows.push_str(",\n");
        }
        first = false;
        write!(
            sweep_rows,
            "    {{\n      \"pool_workers\": {pool},\n      \"max_resident_engines\": {pool},\n      \
             \"clients\": 16,\n      \
             \"requests_per_sec\": {:.0},\n      \"p50_us\": {},\n      \"p99_us\": {}\n    }}",
            m.requests_per_sec, m.p50_us, m.p99_us
        )
        .expect("write to string");
    }

    let s = run_streaming(requests.max(8), loop_iters);
    println!(
        "streamed first race   p50 {:>7} us   p99 {:>7} us   (terminal p50 {} us, p99 {} us)",
        s.first_event_p50_us, s.first_event_p99_us, s.terminal_p50_us, s.terminal_p99_us
    );

    let t = run_tcp(4, requests);
    println!(
        "tcp 4 clients         {:>8.0} req/s   p50 {:>7} us   p99 {:>7} us",
        t.requests_per_sec, t.p50_us, t.p99_us
    );

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"description\": \"in-process detection server: \
         concurrent sessions submitting race-free launches; engine-pool sweep, streamed \
         first-race latency and loopback TCP transport\",\n  \"unit\": \"requests per second; latency in \
         microseconds\",\n  \"nproc\": {nproc},\n  \"quick\": {quick},\n  \"requests_per_client\": {requests},\n  \
         \"scenarios\": [\n{rows}\n  ],\n  \"pool_sweep\": [\n{sweep_rows}\n  ],\n  \
         \"streaming\": {{\n    \"loop_iters\": {loop_iters},\n    \
         \"first_event_p50_us\": {},\n    \"first_event_p99_us\": {},\n    \
         \"terminal_p50_us\": {},\n    \"terminal_p99_us\": {}\n  }},\n  \
         \"tcp\": {{\n    \"clients\": 4,\n    \"requests_per_sec\": {:.0},\n    \
         \"p50_us\": {},\n    \"p99_us\": {}\n  }}\n}}\n",
        s.first_event_p50_us,
        s.first_event_p99_us,
        s.terminal_p50_us,
        s.terminal_p99_us,
        t.requests_per_sec,
        t.p50_us,
        t.p99_us
    );
    std::fs::write(out_path, &json).expect("write BENCH_serve.json");
    println!("wrote {out_path}");
}
