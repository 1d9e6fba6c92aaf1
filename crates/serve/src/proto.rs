//! The request/response protocol of the detection service.
//!
//! One request checks one kernel launch; the response is the *verdict*
//! of that launch — completed analysis, structured refusal (queue full,
//! shutting down), or structured failure (deadline exceeded, engine
//! quarantined). Every outcome a client can observe is a typed variant:
//! the server never answers with a bare error string for conditions a
//! client is expected to handle programmatically.
//!
//! The wire encoding (used by both transports of [`crate::wire`] and the
//! CLI client) is newline-delimited JSON. Each message is built as a
//! [`Json`] tree and written by [`Json::dump`]; lines are read back with
//! [`barracuda::statsjson::parse`], which bounds nesting depth and keeps
//! `u64` fields such as launch ids exact. Options that are unset stay off
//! the wire. In-process clients skip the encoding entirely and exchange
//! these types over channels.

use barracuda::statsjson::{parse, Json};
use barracuda_simt::ArgSpec;

/// A request to check one kernel launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckRequest {
    /// PTX source of the module.
    pub source: String,
    /// Kernel entry name; empty selects the module's first kernel.
    pub kernel: String,
    /// Grid dimensions `(x, y, z)`.
    pub grid: (u32, u32, u32),
    /// Block dimensions `(x, y, z)`.
    pub block: (u32, u32, u32),
    /// Kernel parameters.
    pub params: Vec<ArgSpec>,
    /// Step budget for this request (`None` = the server's default).
    pub max_steps: Option<u64>,
    /// Wall-clock deadline in milliseconds (`None` = no deadline).
    pub deadline_ms: Option<u64>,
    /// Stream incremental findings: the server interleaves
    /// [`Response::RaceEvent`] frames while the launch runs and finishes
    /// with a [`Response::LaunchDone`] terminal frame instead of a bare
    /// verdict. Events are a *preview* (at-least-once, may duplicate
    /// across a resumed stream); the terminal body is authoritative.
    pub stream: bool,
    /// Client-assigned idempotency key. A session caches the terminal
    /// verdict per launch id: resubmitting after a broken stream replays
    /// the cached verdict instead of re-running the launch, and a
    /// duplicate of a launch still in flight is refused with
    /// [`Response::Rejected`] (retry later; the verdict will be cached).
    pub launch_id: Option<u64>,
}

impl CheckRequest {
    /// A minimal request with 1-D grid/block and no limits.
    pub fn new(source: &str, kernel: &str, grid_x: u32, block_x: u32) -> Self {
        CheckRequest {
            source: source.to_string(),
            kernel: kernel.to_string(),
            grid: (grid_x, 1, 1),
            block: (block_x, 1, 1),
            params: Vec::new(),
            max_steps: None,
            deadline_ms: None,
            stream: false,
            launch_id: None,
        }
    }
}

/// A client→server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Check one kernel launch.
    Check(CheckRequest),
    /// Ask the server to shut down gracefully.
    Shutdown,
}

/// The completed-analysis payload of [`Response::Done`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DoneBody {
    /// Distinct racing locations found.
    pub races: u64,
    /// True when the pipeline lost records or a worker died — the
    /// verdict is a sound lower bound, not a complete analysis.
    pub degraded: bool,
    /// Human-readable race reports and diagnostics.
    pub reports: Vec<String>,
    /// The exit-code taxonomy verdict ([`barracuda::exitcode`]): the
    /// one-shot CLI and the server agree by construction because both
    /// call the same mapping.
    pub exit_code: u8,
    /// Device log records the launch produced.
    pub records: u64,
    /// Events the detector processed.
    pub events: u64,
}

/// A server→client verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The analysis completed (possibly degraded — see the body).
    Done(DoneBody),
    /// Admission control refused the request: the session's queue is
    /// full. Retry after the hinted delay.
    Rejected {
        /// Backoff hint in milliseconds.
        retry_after_ms: u64,
    },
    /// The request was cancelled before completing: wall-clock deadline
    /// (`deadline = true`) or step budget (`deadline = false`).
    Timeout {
        /// True for a wall-clock deadline, false for a step budget.
        deadline: bool,
        /// Steps executed before the run stopped.
        steps: u64,
    },
    /// The engine crashed serving this request and was quarantined and
    /// rebuilt; the session stays usable. The analysis was lost.
    Degraded {
        /// The panic message, for diagnostics.
        message: String,
    },
    /// Usage-class failure (parse error, unknown kernel, bad launch).
    Error {
        /// The failure description.
        message: String,
    },
    /// The server is shutting down and did not run the request.
    ShuttingDown,
    /// An incremental finding streamed while the launch is still running
    /// (`stream: true` requests only). **Not terminal**: more events or
    /// the terminal frame follow on the same stream. Delivery is
    /// at-least-once — a resumed stream may replay events — so events
    /// are a preview; only the terminal body is authoritative.
    RaceEvent {
        /// The launch these events belong to (0 when the request carried
        /// no launch id).
        launch_id: u64,
        /// Monotonic event sequence number within this launch attempt.
        seq: u64,
        /// The human-readable race report.
        report: String,
    },
    /// Terminal frame of a streamed check: wraps the verdict the request
    /// would have received without streaming. Its body carries the
    /// *complete* report set — clients need not have seen every
    /// [`Response::RaceEvent`] to have the full verdict.
    LaunchDone {
        /// The launch this verdict concludes.
        launch_id: u64,
        /// The wrapped terminal verdict (never itself a `RaceEvent`,
        /// `LaunchDone` or `Interrupted`).
        body: Box<Response>,
    },
    /// Synthesized **by the client** when a stream broke mid-launch and
    /// reconnect-and-resume failed: the terminal verdict never arrived,
    /// so whatever events were seen are a lower bound, not a verdict.
    /// Servers never send this variant.
    Interrupted {
        /// The launch whose stream was cut.
        launch_id: u64,
        /// Events received before the cut.
        events: u64,
    },
}

impl Response {
    /// The exit-code taxonomy verdict for this response (what the CLI
    /// client exits with).
    pub fn exit_code(&self) -> u8 {
        match self {
            Response::Done(b) => b.exit_code,
            Response::Timeout { .. } => barracuda::exitcode::TIMEOUT,
            Response::Degraded { .. } => barracuda::exitcode::DEGRADED,
            Response::Rejected { .. } | Response::Error { .. } | Response::ShuttingDown => {
                barracuda::exitcode::USAGE
            }
            // A streamed verdict is whatever it wraps — the taxonomy must
            // not depend on whether the client streamed.
            Response::LaunchDone { body, .. } => body.exit_code(),
            // An event proves at least one race even if the terminal
            // verdict never arrives (events are a sound lower bound).
            Response::RaceEvent { .. } => barracuda::exitcode::RACES,
            // A cut stream proves nothing about the rest of the launch:
            // never CLEAN, and distinct from TIMEOUT (the server may have
            // finished fine — *we* lost the answer).
            Response::Interrupted { .. } => barracuda::exitcode::INTERRUPTED,
        }
    }

    /// True when this frame ends a request's response stream. Every
    /// variant except [`Response::RaceEvent`] is terminal; non-streamed
    /// requests receive exactly one terminal frame.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, Response::RaceEvent { .. })
    }
}

/// Encodes a request as one line of JSON (no trailing newline).
pub fn encode_request(req: &Request) -> String {
    let c = match req {
        Request::Shutdown => return Json::obj([("op", "shutdown".into())]).dump(),
        Request::Check(c) => c,
    };
    let dim3 = |(x, y, z): (u32, u32, u32)| Json::from(vec![x.into(), y.into(), z.into()]);
    let param = |p: &ArgSpec| match *p {
        ArgSpec::Buf(bytes) => Json::obj([("buf", bytes.into())]),
        ArgSpec::U32(v) => Json::obj([("u32", v.into())]),
    };
    // Unset options stay off the wire, so the line decodes on v1 peers.
    let options = [
        ("max_steps", c.max_steps),
        ("deadline_ms", c.deadline_ms),
        ("launch_id", c.launch_id),
    ];
    let options = options
        .into_iter()
        .filter_map(|(k, v)| Some((k, v?.into())));
    let fields = [
        ("op", "check".into()),
        ("source", c.source.as_str().into()),
        ("kernel", c.kernel.as_str().into()),
        ("grid", dim3(c.grid)),
        ("block", dim3(c.block)),
        ("params", c.params.iter().map(param).collect()),
    ];
    let stream = c.stream.then(|| ("stream", true.into()));
    Json::obj(fields.into_iter().chain(options).chain(stream)).dump()
}

/// Encodes a response as one line of JSON (no trailing newline).
pub fn encode_response(resp: &Response) -> String {
    response_json(resp).dump()
}

fn response_json(resp: &Response) -> Json {
    let (verdict, fields): (&str, Vec<(&str, Json)>) = match *resp {
        Response::Done(ref b) => (
            "done",
            vec![
                ("races", b.races.into()),
                ("degraded", b.degraded.into()),
                ("exit_code", b.exit_code.into()),
                ("records", b.records.into()),
                ("events", b.events.into()),
                (
                    "reports",
                    b.reports.iter().map(|r| r.as_str().into()).collect(),
                ),
            ],
        ),
        Response::Rejected { retry_after_ms } => {
            ("rejected", vec![("retry_after_ms", retry_after_ms.into())])
        }
        Response::Timeout { deadline, steps } => (
            "timeout",
            vec![("deadline", deadline.into()), ("steps", steps.into())],
        ),
        Response::Degraded { ref message } => {
            ("degraded", vec![("message", message.as_str().into())])
        }
        Response::Error { ref message } => ("error", vec![("message", message.as_str().into())]),
        Response::ShuttingDown => ("shutting_down", vec![]),
        Response::RaceEvent {
            launch_id,
            seq,
            ref report,
        } => (
            "race_event",
            vec![
                ("launch_id", launch_id.into()),
                ("seq", seq.into()),
                ("report", report.as_str().into()),
            ],
        ),
        Response::LaunchDone {
            launch_id,
            ref body,
        } => (
            "launch_done",
            vec![
                ("launch_id", launch_id.into()),
                ("body", response_json(body)),
            ],
        ),
        Response::Interrupted { launch_id, events } => (
            "interrupted",
            vec![("launch_id", launch_id.into()), ("events", events.into())],
        ),
    };
    Json::obj(fields.into_iter().chain([("verdict", verdict.into())]))
}

fn dim3(j: &Json, key: &str) -> Result<(u32, u32, u32), String> {
    let arr = j
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing array '{key}'"))?;
    let get = |i: usize| -> Result<u32, String> {
        arr.get(i)
            .and_then(Json::as_u64)
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| format!("bad '{key}[{i}]'"))
    };
    Ok((get(0)?, get(1)?, get(2)?))
}

/// Decodes one line of JSON into a request.
///
/// # Errors
///
/// Returns a message for syntactically valid JSON that is not a
/// well-formed request, and for syntax errors.
pub fn decode_request(line: &str) -> Result<Request, String> {
    let j = parse(line)?;
    match j.get("op").and_then(Json::as_str) {
        Some("shutdown") => Ok(Request::Shutdown),
        Some("check") => {
            let field = |k: &str| {
                j.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("missing string '{k}'"))
            };
            let mut params = Vec::new();
            for p in j.get("params").and_then(Json::as_arr).unwrap_or(&[]) {
                if let Some(bytes) = p.get("buf").and_then(Json::as_u64) {
                    params.push(ArgSpec::Buf(bytes));
                } else if let Some(v) = p.get("u32").and_then(Json::as_u64) {
                    let v = u32::try_from(v).map_err(|_| "u32 param out of range".to_string())?;
                    params.push(ArgSpec::U32(v));
                } else {
                    return Err("bad param (expected {\"buf\":N} or {\"u32\":N})".to_string());
                }
            }
            Ok(Request::Check(CheckRequest {
                source: field("source")?,
                kernel: field("kernel")?,
                grid: dim3(&j, "grid")?,
                block: dim3(&j, "block")?,
                params,
                max_steps: j.get("max_steps").and_then(Json::as_u64),
                deadline_ms: j.get("deadline_ms").and_then(Json::as_u64),
                stream: j.get("stream").and_then(Json::as_bool).unwrap_or(false),
                launch_id: j.get("launch_id").and_then(Json::as_u64),
            }))
        }
        _ => Err("missing or unknown 'op'".to_string()),
    }
}

/// Decodes one line of JSON into a response.
///
/// # Errors
///
/// Returns a message for syntactically valid JSON that is not a
/// well-formed response, and for syntax errors.
pub fn decode_response(line: &str) -> Result<Response, String> {
    let j = parse(line)?;
    decode_response_value(&j)
}

/// Decodes an already-parsed JSON value into a response (recursing into
/// [`Response::LaunchDone`]'s nested body).
fn decode_response_value(j: &Json) -> Result<Response, String> {
    let num = |k: &str| -> Result<u64, String> {
        j.get(k)
            .and_then(Json::as_u64)
            .ok_or(format!("missing number '{k}'"))
    };
    match j.get("verdict").and_then(Json::as_str) {
        Some("done") => {
            let mut reports = Vec::new();
            for r in j.get("reports").and_then(Json::as_arr).unwrap_or(&[]) {
                reports.push(
                    r.as_str()
                        .ok_or_else(|| "bad report entry".to_string())?
                        .to_string(),
                );
            }
            Ok(Response::Done(DoneBody {
                races: num("races")?,
                degraded: j
                    .get("degraded")
                    .and_then(Json::as_bool)
                    .ok_or("missing 'degraded'")?,
                reports,
                exit_code: u8::try_from(num("exit_code")?).map_err(|_| "bad exit_code")?,
                records: num("records")?,
                events: num("events")?,
            }))
        }
        Some("rejected") => Ok(Response::Rejected {
            retry_after_ms: num("retry_after_ms")?,
        }),
        Some("timeout") => Ok(Response::Timeout {
            deadline: j
                .get("deadline")
                .and_then(Json::as_bool)
                .ok_or("missing 'deadline'")?,
            steps: num("steps")?,
        }),
        Some("degraded") => Ok(Response::Degraded {
            message: j
                .get("message")
                .and_then(Json::as_str)
                .ok_or("missing 'message'")?
                .to_string(),
        }),
        Some("error") => Ok(Response::Error {
            message: j
                .get("message")
                .and_then(Json::as_str)
                .ok_or("missing 'message'")?
                .to_string(),
        }),
        Some("shutting_down") => Ok(Response::ShuttingDown),
        Some("race_event") => Ok(Response::RaceEvent {
            launch_id: num("launch_id")?,
            seq: num("seq")?,
            report: j
                .get("report")
                .and_then(Json::as_str)
                .ok_or("missing 'report'")?
                .to_string(),
        }),
        Some("launch_done") => Ok(Response::LaunchDone {
            launch_id: num("launch_id")?,
            body: Box::new(decode_response_value(
                j.get("body").ok_or("missing 'body'")?,
            )?),
        }),
        Some("interrupted") => Ok(Response::Interrupted {
            launch_id: num("launch_id")?,
            events: num("events")?,
        }),
        _ => Err("missing or unknown 'verdict'".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The request of `requests_round_trip`, and the text the
    /// format-string encoder wrote for it before `encode_request` built a
    /// [`Json`] tree (likewise for every fixture below). That text also
    /// carried `"chaos_stalls":42`, a key the protocol no longer has: it
    /// still decodes, to the request without it.
    fn full_request() -> CheckRequest {
        CheckRequest {
            source: ".version 4.3\n// \"quoted\"".to_string(),
            kernel: "k".to_string(),
            grid: (2, 1, 1),
            block: (64, 2, 1),
            params: vec![ArgSpec::Buf(1024), ArgSpec::U32(7)],
            max_steps: Some(10_000),
            deadline_ms: Some(250),
            stream: true,
            launch_id: Some(0xdead_beef),
        }
    }

    const PARENT_REQUESTS: [&str; 3] = [
        r#"{"op":"check","source":".version 4.3\n// \"quoted\"","kernel":"k","grid":[2,1,1],"block":[64,2,1],"params":[{"buf":1024},{"u32":7}],"max_steps":10000,"deadline_ms":250,"chaos_stalls":42,"stream":true,"launch_id":3735928559}"#,
        r#"{"op":"shutdown"}"#,
        r#"{"op":"check","source":".version 4.3","kernel":"k","grid":[1,1,1],"block":[32,1,1],"params":[]}"#,
    ];

    /// In the order of `all_responses`.
    const PARENT_RESPONSES: [&str; 10] = [
        r#"{"verdict":"done","races":3,"degraded":true,"exit_code":1,"records":100,"events":99,"reports":["race at 0x40\nline2"]}"#,
        r#"{"verdict":"rejected","retry_after_ms":25}"#,
        r#"{"verdict":"timeout","deadline":true,"steps":4096}"#,
        r#"{"verdict":"degraded","message":"worker died: \"chaos\""}"#,
        r#"{"verdict":"error","message":"unknown kernel 'x'"}"#,
        r#"{"verdict":"shutting_down"}"#,
        r#"{"verdict":"race_event","launch_id":7,"seq":2,"report":"global write-write race at 0x40\n  \"tid 3\""}"#,
        r#"{"verdict":"launch_done","launch_id":7,"body":{"verdict":"done","races":1,"degraded":false,"exit_code":1,"records":10,"events":9,"reports":["race"]}}"#,
        r#"{"verdict":"launch_done","launch_id":8,"body":{"verdict":"degraded","message":"engine quarantined"}}"#,
        r#"{"verdict":"interrupted","launch_id":9,"events":4}"#,
    ];

    #[test]
    fn requests_round_trip() {
        let req = Request::Check(full_request());
        assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        let s = Request::Shutdown;
        assert_eq!(decode_request(&encode_request(&s)).unwrap(), s);
    }

    fn all_responses() -> [Response; 10] {
        [
            Response::Done(DoneBody {
                races: 3,
                degraded: true,
                reports: vec!["race at 0x40\nline2".to_string()],
                exit_code: 1,
                records: 100,
                events: 99,
            }),
            Response::Rejected { retry_after_ms: 25 },
            Response::Timeout {
                deadline: true,
                steps: 4096,
            },
            Response::Degraded {
                message: "worker died: \"chaos\"".to_string(),
            },
            Response::Error {
                message: "unknown kernel 'x'".to_string(),
            },
            Response::ShuttingDown,
            Response::RaceEvent {
                launch_id: 7,
                seq: 2,
                report: "global write-write race at 0x40\n  \"tid 3\"".to_string(),
            },
            Response::LaunchDone {
                launch_id: 7,
                body: Box::new(Response::Done(DoneBody {
                    races: 1,
                    degraded: false,
                    reports: vec!["race".to_string()],
                    exit_code: 1,
                    records: 10,
                    events: 9,
                })),
            },
            Response::LaunchDone {
                launch_id: 8,
                body: Box::new(Response::Degraded {
                    message: "engine quarantined".to_string(),
                }),
            },
            Response::Interrupted {
                launch_id: 9,
                events: 4,
            },
        ]
    }

    #[test]
    fn responses_round_trip() {
        for r in all_responses() {
            assert_eq!(decode_response(&encode_response(&r)).unwrap(), r);
        }
    }

    #[test]
    fn defaulted_stream_fields_stay_off_the_wire_and_decode() {
        // Old-style requests (no stream/launch_id keys) must keep
        // decoding — wire compatibility with v1 clients.
        let req = CheckRequest::new(".version 4.3", "k", 1, 32);
        let line = encode_request(&Request::Check(req.clone()));
        assert!(!line.contains("stream") && !line.contains("launch_id"));
        assert_eq!(decode_request(&line).unwrap(), Request::Check(req));
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(decode_request("{}").is_err());
        assert!(decode_request("{\"op\":\"check\"}").is_err());
        assert!(decode_request("not json").is_err());
        assert!(decode_response("{\"verdict\":\"done\"}").is_err());
        assert!(decode_response("{}").is_err());
    }

    #[test]
    fn exit_codes_follow_the_taxonomy() {
        use barracuda::exitcode;
        assert_eq!(
            Response::Timeout {
                deadline: false,
                steps: 1
            }
            .exit_code(),
            exitcode::TIMEOUT
        );
        assert_eq!(
            Response::Degraded {
                message: String::new()
            }
            .exit_code(),
            exitcode::DEGRADED
        );
        assert_eq!(Response::ShuttingDown.exit_code(), exitcode::USAGE);
        // A streamed terminal agrees with what it wraps: a partial stream
        // ending in a quarantine must surface DEGRADED, never CLEAN.
        assert_eq!(
            Response::LaunchDone {
                launch_id: 1,
                body: Box::new(Response::Degraded {
                    message: String::new()
                }),
            }
            .exit_code(),
            exitcode::DEGRADED
        );
        assert_eq!(
            Response::Interrupted {
                launch_id: 1,
                events: 0
            }
            .exit_code(),
            exitcode::INTERRUPTED
        );
        assert!(!Response::RaceEvent {
            launch_id: 1,
            seq: 0,
            report: String::new()
        }
        .is_terminal());
        assert!(Response::ShuttingDown.is_terminal());
    }

    #[test]
    fn parent_text_parses_to_the_same_tree() {
        let requests = [
            Request::Check(full_request()),
            Request::Shutdown,
            Request::Check(CheckRequest::new(".version 4.3", "k", 1, 32)),
        ];
        for (req, text) in requests.iter().zip(PARENT_REQUESTS) {
            let current = text.replace(r#","chaos_stalls":42"#, "");
            assert_eq!(parse(&encode_request(req)), parse(&current));
            assert_eq!(decode_request(text).as_ref(), Ok(req));
        }
        for (resp, text) in all_responses().iter().zip(PARENT_RESPONSES) {
            assert_eq!(parse(&encode_response(resp)), parse(text));
            assert_eq!(decode_response(text).as_ref(), Ok(resp));
        }
    }

    #[test]
    fn u64_fields_round_trip_exactly() {
        for id in [(1 << 53) + 1, u64::MAX] {
            let mut req = full_request();
            req.launch_id = Some(id);
            req.max_steps = Some(u64::MAX);
            let req = Request::Check(req);
            assert_eq!(decode_request(&encode_request(&req)), Ok(req));
            let resp = Response::LaunchDone {
                launch_id: id,
                body: Box::new(Response::Timeout {
                    deadline: false,
                    steps: id,
                }),
            };
            assert_eq!(decode_response(&encode_response(&resp)), Ok(resp));
        }
        // Two launch ids that differ only above 2^53 stay distinct.
        let line =
            |id: u64| format!("{{\"verdict\":\"interrupted\",\"launch_id\":{id},\"events\":0}}");
        let id = |id| match decode_response(&line(id)) {
            Ok(Response::Interrupted { launch_id, .. }) => launch_id,
            other => panic!("{other:?}"),
        };
        assert_ne!(id(1 << 53), id((1 << 53) + 1));
    }

    #[test]
    fn a_deeply_nested_line_is_an_error_on_a_default_stack_thread() {
        let results = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let deep = "[".repeat(100_000);
                (decode_request(&deep), decode_response(&deep))
            })
            .expect("spawn")
            .join()
            .expect("no panic");
        assert!(results.0.is_err() && results.1.is_err());
    }

    /// Arbitrary bytes read as lossy UTF-8, or an encoded line with a few
    /// bytes overwritten, inserted or cut off.
    fn hostile_line() -> impl Strategy<Value = String> {
        let edits = prop::collection::vec((any::<usize>(), any::<u8>(), 0u8..3), 0..6);
        let raw = prop::collection::vec(any::<u8>(), 0..96);
        (any::<bool>(), 0usize..4, edits, raw).prop_map(|(mutate, base, edits, raw)| {
            if !mutate {
                return String::from_utf8_lossy(&raw).into_owned();
            }
            let mut bytes = match base {
                0 => encode_request(&Request::Check(full_request())),
                1 => PARENT_RESPONSES[0].to_string(),
                2 => PARENT_RESPONSES[7].to_string(),
                _ => PARENT_RESPONSES[6].to_string(),
            }
            .into_bytes();
            for (at, b, op) in edits {
                let at = at % (bytes.len() + 1);
                match op {
                    0 if at < bytes.len() => bytes[at] = b,
                    1 => bytes.insert(at, b),
                    _ => bytes.truncate(at),
                }
            }
            String::from_utf8_lossy(&bytes).into_owned()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn decoders_never_panic_on_hostile_lines(line in hostile_line()) {
            let _ = decode_request(&line);
            let _ = decode_response(&line);
        }

        #[test]
        fn checks_round_trip_over_the_u64_range(
            ids in (any::<u64>(), any::<u64>(), any::<u64>()),
            buf in any::<u64>(),
        ) {
            let mut req = full_request();
            req.params.push(ArgSpec::Buf(buf));
            (req.max_steps, req.deadline_ms, req.launch_id) =
                (Some(ids.0), Some(ids.1), Some(ids.2));
            let req = Request::Check(req);
            prop_assert_eq!(decode_request(&encode_request(&req)), Ok(req));
        }

        /// The wire frames each message as one line, so no encoding may
        /// contain a raw newline — whatever the text it carries.
        #[test]
        fn every_encoding_is_one_line_for_any_text(
            text in prop::collection::vec((0u8..4, any::<u32>()), 0..200).prop_map(|cs| {
                // Line breaks, printable ASCII and any other scalar value.
                cs.into_iter()
                    .map(|(kind, c)| match kind {
                        0 => '\n',
                        1 => '\r',
                        2 => char::from(b' ' + (c % 95) as u8),
                        _ => char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}'),
                    })
                    .collect::<String>()
            }),
        ) {
            let mut req = full_request();
            req.source = format!(".version 4.3\n{text}\n");
            req.kernel = text.clone();
            let req = Request::Check(req);
            let line = encode_request(&req);
            prop_assert!(!line.contains('\n'), "raw newline in {line:?}");
            prop_assert_eq!(decode_request(&line), Ok(req));
            let done = Response::Done(DoneBody {
                races: 1,
                degraded: false,
                reports: vec![text.clone(), text.clone()],
                exit_code: 1,
                records: 2,
                events: 3,
            });
            let responses = [
                Response::RaceEvent { launch_id: 1, seq: 0, report: text.clone() },
                Response::LaunchDone { launch_id: 1, body: Box::new(done.clone()) },
                done,
                Response::Error { message: text.clone() },
                Response::Degraded { message: text },
            ];
            for resp in responses {
                let line = encode_response(&resp);
                prop_assert!(!line.contains('\n'), "raw newline in {line:?}");
                prop_assert_eq!(decode_response(&line), Ok(resp));
            }
        }
    }
}
