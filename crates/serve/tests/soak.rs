//! Chaos soak: concurrent retrying clients and injected worker panics
//! against one server. Pins the serving layer's robustness claim —
//! completed requests keep verdict parity with a direct engine,
//! everything else resolves to a *structured* outcome
//! (`Rejected`/`Timeout`/`Degraded`/`ShuttingDown`), and the server
//! survives every retry seed and shuts down with consistent counters.

use barracuda::{BarracudaConfig, Engine, KernelRun};
use barracuda_serve::{ArgSpec, CheckRequest, Client, Response, RetryPolicy, Server, ServerConfig};
use barracuda_simt::ParamValue;
use barracuda_trace::GridDims;

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

fn clean_ptx() -> String {
    RACY.replace(
        "ld.global.u32 %r1, [%rd1];\n    add.s32 %r1, %r1, 1;\n    st.global.u32 [%rd1], %r1;",
        "atom.global.add.u32 %r1, [%rd1], 1;",
    )
}

/// The fault-free direct-engine race count for a source.
fn baseline_races(source: &str) -> u64 {
    let mut engine = Engine::with_config(BarracudaConfig::default());
    let buf = engine.gpu_mut().malloc(4);
    let analysis = engine
        .check(&KernelRun {
            source,
            kernel: "k",
            dims: GridDims::new(2u32, 32u32),
            params: &[ParamValue::Ptr(buf)],
        })
        .expect("baseline check");
    analysis.race_count() as u64
}

#[test]
fn chaos_soak_keeps_verdict_parity_under_faults_and_panics() {
    const CLIENTS: u64 = 4;
    const REQUESTS_PER_CLIENT: u64 = 6;

    let clean = clean_ptx();
    let racy_baseline = baseline_races(RACY);
    let clean_baseline = baseline_races(&clean);
    assert!(racy_baseline > 0);
    assert_eq!(clean_baseline, 0);

    let config = ServerConfig {
        queue_depth: 2,
        retry_after_ms: 2,
        chaos_panic_kernel: Some("boom".to_string()),
        ..ServerConfig::default()
    };
    let server = Server::new(config);

    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let session = server.session().expect("session");
            let clean = clean.clone();
            std::thread::spawn(move || {
                let mut client = Client::new(
                    session,
                    RetryPolicy {
                        base_ms: 2,
                        cap_ms: 50,
                        max_attempts: 32,
                        seed: 0x50a_u64 ^ c,
                    },
                );
                let mut outcomes = Vec::new();
                for i in 0..REQUESTS_PER_CLIENT {
                    // Alternate racy/clean; one request per client takes
                    // the quarantine path via the chaos kernel name.
                    let (source, kernel, want_races) = if i == REQUESTS_PER_CLIENT - 1 {
                        (RACY, "boom", 0)
                    } else if i % 2 == 0 {
                        (RACY, "k", racy_baseline)
                    } else {
                        (clean.as_str(), "k", clean_baseline)
                    };
                    let mut req = CheckRequest::new(source, kernel, 2, 32);
                    req.params.push(ArgSpec::Buf(4));
                    outcomes.push((want_races, kernel == "boom", client.check(&req)));
                }
                outcomes
            })
        })
        .collect();

    let mut completed = 0u64;
    let mut degraded = 0u64;
    for h in handles {
        for (want_races, was_chaos, resp) in h.join().expect("client thread") {
            match resp {
                Response::Done(body) => {
                    assert!(!was_chaos, "chaos kernel must not produce a verdict");
                    assert_eq!(body.races, want_races, "verdict parity");
                    assert!(!body.degraded, "only injected panics may degrade");
                    completed += 1;
                }
                Response::Degraded { message } => {
                    assert!(was_chaos, "only injected panics may degrade: {message}");
                    degraded += 1;
                }
                other => panic!("unstructured outcome {other:?}"),
            }
        }
    }

    assert_eq!(degraded, CLIENTS, "every client hit the chaos kernel once");
    assert_eq!(completed, CLIENTS * (REQUESTS_PER_CLIENT - 1));

    let stats = server.shutdown();
    assert_eq!(stats.sessions, CLIENTS);
    assert_eq!(stats.quarantines, CLIENTS);
    assert_eq!(
        stats.completed,
        CLIENTS * REQUESTS_PER_CLIENT,
        "accepted work all resolved (degraded answers count as completed)"
    );
    assert_eq!(
        stats.accepted,
        stats.completed + stats.dropped_on_shutdown,
        "admitted work is either answered or reported dropped — never lost"
    );
    assert_eq!(stats.dropped_on_shutdown, 0, "shutdown after quiescence");
}
