//! BARRACUDA command-line interface.
//!
//! ```text
//! barracuda check <file.ptx> [--kernel <name>] [--grid X[,Y[,Z]]] [--block X[,Y[,Z]]]
//!                 [--param buf:<bytes> | --param u32:<value>]...
//!                 [--max-steps N] [--chaos-stalls SEED] [--timeout-ms N]
//!                 [--warp-size N] [--warp-sweep] [--threaded]
//!                 [--memory-model sc|kepler|maxwell] [--seed N]
//!                 [--stats-json] [--chaos-abort] [--chaos-hang]
//! barracuda trace <file.ptx> [check options except --threaded, --stats-json,
//!                 --warp-sweep and --chaos-stalls]
//! barracuda fleet [--gen all|NAME,...] [--seeds S,...] [--warp-sizes W,...]
//!                 [--presets sc,kepler,maxwell] [--scale quick|default]
//!                 [--ptx-dir DIR]... [--ptx-grid X[,Y[,Z]]] [--ptx-block X[,Y[,Z]]]
//!                 [--ptx-param buf:N|u32:V]... --journal PATH [--resume]
//!                 [--report-json PATH] [--jobs N] [--timeout-ms N]
//!                 [--kill-grace-ms N] [--retries N] [--quarantine-after N]
//!                 [--chaos-abort-match S] [--chaos-hang-match S]
//! barracuda instrument <file.ptx> [--no-prune]
//! barracuda serve (--socket <path> | --tcp <addr>) [--queue-depth N]
//!                 [--retry-after-ms N] [--default-deadline-ms N]
//!                 [--chaos-panic-kernel NAME] [--pool N] [--max-engines N]
//! barracuda client (--socket <path> | --tcp <addr>)
//!                 (<file.ptx> [--kernel <name>] [--grid X[,Y[,Z]]] [--block X[,Y[,Z]]]
//!                  [--param buf:<bytes> | --param u32:<value>]...
//!                  [--max-steps N] [--timeout-ms N] [--stream]
//!                  | --shutdown)
//! ```
//!
//! `check` instruments the module, executes the kernel on the SIMT
//! simulator and reports data races; `trace` prints the decoded
//! warp-level trace operations of the same launch; `instrument` prints
//! the rewritten PTX and the instrumentation statistics (the Fig. 9
//! numbers for one file). `serve` runs the detection server on a Unix
//! socket (`--socket`) or a TCP endpoint (`--tcp`), both speaking
//! newline-delimited JSON, with
//! `--pool`/`--max-engines` bounding the worker pool and warm-engine
//! residency; `client` submits one request to it (with
//! rejected-submission retry) and exits with the verdict's code.
//! `client --stream` streams incremental race events as they are found
//! (resuming idempotently by launch id if the connection drops) instead
//! of blocking until the launch completes.
//!
//! `check`, `trace` and `client` share one parser, which turns the flags
//! into a [`CheckRequest`], and `check`, `trace` and the server run it
//! through one function, [`barracuda_serve::run_request`]. The flags a
//! served request does not honour — `--warp-size`, `--warp-sweep`,
//! `--threaded`, `--memory-model`, `--seed`, `--stats-json`,
//! `--chaos-stalls`, `--chaos-abort` and `--chaos-hang` — set up the local
//! engine instead: `client` refuses each with exit 2 and sends nothing,
//! and `trace` refuses the ones it would ignore.
//!
//! Exit codes follow the [`barracuda::exitcode`] taxonomy in **every**
//! mode — `0` clean, `1` races/diagnostics, `2` usage error, `3`
//! timeout or cancellation, `4` degraded-but-clean, `5` stream
//! interrupted without resume — so `barracuda check` and the same
//! request served over a socket always agree.
//!
//! `--stats-json` prints one machine-readable JSON object (see
//! `barracuda::statsjson`) with the verdict and the full pipeline
//! telemetry. `--chaos-stalls SEED` builds the engine with a stall-only
//! [`FaultPlan`] and the threaded pipeline (it implies `--threaded`):
//! verdicts must match the synchronous mode, making it a quick
//! self-check of pipeline robustness.
//!
//! `--timeout-ms` is the request's wall-clock deadline (cooperative
//! cancellation, exit code 3), the same in `check`, `client` and
//! `fleet`. `--max-steps` is its step budget (exit code 3); a request
//! without one gets the engine's configured budget
//! (`GpuConfig::max_steps`), in `check` and on the server alike.
//! `--chaos-abort` / `--chaos-hang` are fault-injection points for fleet
//! robustness testing: the former crashes the process before the
//! verdict, the latter wedges it while ignoring cooperative
//! cancellation, forcing a coordinator's hard kill. `fleet` shards a
//! generated corpus (workloads × seeds × weak-memory presets × warp
//! sizes, plus `--ptx-dir` files) across crash-isolated child processes
//! with a checkpointing journal (`--resume` skips finished targets) and
//! emits a deduplicated triage report — see `barracuda-fleet`.

use barracuda::{
    exitcode, BarracudaConfig, DetectionMode, Engine, FaultPlan, GpuConfig, InstrumentOptions,
    KernelRun, MemoryModel,
};
use barracuda_serve::{run_request, CheckRequest, Response};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => cmd_check(&args[1..], false),
        Some("trace") => cmd_check(&args[1..], true),
        Some("instrument") => cmd_instrument(&args[1..]),
        Some("fleet") => cmd_fleet(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        _ => {
            eprintln!("usage: barracuda <check|trace|instrument|fleet|serve|client> [options]");
            eprintln!(
                "       barracuda check k.ptx --kernel k --grid 2 --block 64 --param buf:1024"
            );
            eprintln!(
                "       barracuda trace k.ptx ...   # print the decoded trace-operation stream"
            );
            eprintln!("       barracuda fleet --gen all --journal fleet.jsonl");
            eprintln!("       barracuda serve --socket /tmp/barracuda.sock");
            eprintln!("       barracuda client --socket /tmp/barracuda.sock k.ptx --kernel k");
            eprintln!("       barracuda client --socket /tmp/barracuda.sock --shutdown");
            ExitCode::from(exitcode::USAGE)
        }
    }
}

fn usage(e: impl std::fmt::Display) -> ExitCode {
    eprintln!("error: {e}");
    ExitCode::from(exitcode::USAGE)
}

fn parse_dim3(s: &str) -> Result<(u32, u32, u32), String> {
    let parts: Vec<u32> = s
        .split(',')
        .map(|p| {
            p.parse::<u32>()
                .map_err(|e| format!("bad dimension '{p}': {e}"))
        })
        .collect::<Result<_, _>>()?;
    match parts.as_slice() {
        [x] => Ok((*x, 1, 1)),
        [x, y] => Ok((*x, *y, 1)),
        [x, y, z] => Ok((*x, *y, *z)),
        _ => Err(format!("bad dim3 '{s}' (expected X[,Y[,Z]])")),
    }
}

/// The settings only a local run honours: a [`CheckRequest`] does not
/// carry them.
struct LocalArgs {
    warp_size: u32,
    warp_sweep: bool,
    threaded: bool,
    model: MemoryModel,
    seed: u64,
    stats_json: bool,
    /// Seed of a stall-only [`FaultPlan`] for the threaded pipeline.
    stall_seed: Option<u64>,
    chaos_abort: bool,
    chaos_hang: bool,
}

/// Flags a server would not honour, so `client` refuses every one: those
/// that set a [`LocalArgs`] field.
const LOCAL_ONLY: [&str; 9] = [
    "--warp-size",
    "--warp-sweep",
    "--threaded",
    "--memory-model",
    "--seed",
    "--stats-json",
    "--chaos-stalls",
    "--chaos-abort",
    "--chaos-hang",
];

/// Flags `trace` would ignore: it prints one synchronous launch.
const TRACE_IGNORES: [&str; 4] = [
    "--threaded",
    "--stats-json",
    "--warp-sweep",
    "--chaos-stalls",
];

fn num<T: std::str::FromStr>(v: String, what: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse().map_err(|e| format!("bad {what}: {e}"))
}

/// The one parser of `check`, `trace` and `client` (`cmd`) arguments:
/// reads the PTX file into the request and refuses any flag `cmd` would
/// ignore.
fn parse_check_args(cmd: &str, args: &[String]) -> Result<(CheckRequest, LocalArgs), String> {
    let mut req = CheckRequest::new("", "", 1, 32);
    let mut local = LocalArgs {
        warp_size: 32,
        warp_sweep: false,
        threaded: false,
        model: MemoryModel::SequentiallyConsistent,
        seed: 0x0be5_11e5,
        stats_json: false,
        stall_seed: None,
        chaos_abort: false,
        chaos_hang: false,
    };
    let mut file = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let refused = match cmd {
            "client" => LOCAL_ONLY.contains(&a.as_str()),
            "trace" => TRACE_IGNORES.contains(&a.as_str()),
            _ => false,
        };
        if refused {
            return Err(format!("{cmd} does not take {a}"));
        }
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match a.as_str() {
            "--kernel" => req.kernel = value("--kernel")?,
            "--grid" => req.grid = parse_dim3(&value("--grid")?)?,
            "--block" => req.block = parse_dim3(&value("--block")?)?,
            "--param" => req.params.push(value("--param")?.parse()?),
            "--max-steps" => req.max_steps = Some(num(value("--max-steps")?, "max steps")?),
            "--timeout-ms" => req.deadline_ms = Some(num(value("--timeout-ms")?, "timeout")?),
            "--chaos-stalls" => {
                local.stall_seed = Some(num(value("--chaos-stalls")?, "chaos seed")?);
                local.threaded = true;
            }
            "--warp-size" => local.warp_size = num(value("--warp-size")?, "warp size")?,
            "--warp-sweep" => local.warp_sweep = true,
            "--threaded" => local.threaded = true,
            "--seed" => local.seed = num(value("--seed")?, "seed")?,
            "--memory-model" => local.model = value("--memory-model")?.parse()?,
            "--stats-json" => local.stats_json = true,
            "--chaos-abort" => local.chaos_abort = true,
            "--chaos-hang" => local.chaos_hang = true,
            other if !other.starts_with("--") && file.is_none() => file = Some(other),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if local.warp_sweep && local.stats_json {
        return Err("--warp-sweep prints a table and cannot be combined with --stats-json".into());
    }
    let file = file.ok_or("missing PTX file")?;
    req.source = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    Ok((req, local))
}

/// Prints why a request ended without a verdict and returns its exit
/// code — the same for a local run and a served one.
fn fail(resp: &Response) -> ExitCode {
    match resp {
        Response::Timeout { deadline, steps } => eprintln!(
            "error: timeout — {} after {steps} steps",
            if *deadline {
                "deadline exceeded"
            } else {
                "step budget exceeded"
            }
        ),
        Response::Degraded { message } => eprintln!("error: engine quarantined: {message}"),
        Response::Error { message } => eprintln!("error: {message}"),
        Response::Rejected { retry_after_ms } => {
            eprintln!("error: overloaded (retry after {retry_after_ms} ms)");
        }
        Response::ShuttingDown => eprintln!("error: server is shutting down"),
        Response::Interrupted { events, .. } => eprintln!(
            "error: stream interrupted after {events} event(s); \
             the verdict never arrived (partial findings are a lower bound)"
        ),
        Response::Done(_) | Response::RaceEvent { .. } | Response::LaunchDone { .. } => {
            unreachable!("not a failure")
        }
    }
    ExitCode::from(resp.exit_code())
}

/// Runs the instrumented kernel and prints the decoded warp-level trace
/// operations (the paper's Fig. 1(b) view of an execution).
fn dump_trace(engine: &mut Engine, run: &KernelRun<'_>) -> Result<(), barracuda::Error> {
    use barracuda_simt::VecSink;
    use barracuda_trace::ops::Event;
    let module = barracuda_ptx::parse(run.source)?;
    let (instrumented, _) =
        barracuda_instrument::instrument_module(&module, &InstrumentOptions::default());
    let lk = barracuda_simt::LoadedKernel::load(&instrumented, run.kernel)?;
    let sink = VecSink::new();
    let dims = run.dims;
    engine
        .gpu_mut()
        .launch_loaded(&lk, dims, run.params, Some(&sink))?;
    for rec in sink.take() {
        match rec.decode() {
            Event::Access {
                warp,
                kind,
                space,
                mask,
                addrs,
                size,
            } => {
                let lanes: Vec<String> = (0..dims.warp_size)
                    .filter(|l| mask & (1 << l) != 0)
                    .map(|l| format!("{}:{:#x}", dims.tid_of_lane(warp, l), addrs[l as usize]))
                    .collect();
                println!(
                    "w{warp} {kind:?} {space:?} size={size} [{}]",
                    lanes.join(" ")
                );
                println!("w{warp} endi");
            }
            Event::If {
                warp,
                then_mask,
                else_mask,
            } => {
                println!("w{warp} if(then={then_mask:#x}, else={else_mask:#x})");
            }
            Event::Else { warp } => println!("w{warp} else"),
            Event::Fi { warp } => println!("w{warp} fi"),
            Event::Bar { warp, mask } => println!("w{warp} bar(mask={mask:#x})"),
            Event::Exit { warp, mask } => println!("w{warp} exit(mask={mask:#x})"),
        }
    }
    Ok(())
}

fn cmd_check(args: &[String], trace: bool) -> ExitCode {
    let (req, local) = match parse_check_args(if trace { "trace" } else { "check" }, args) {
        Ok(parsed) => parsed,
        Err(e) => return usage(e),
    };
    // Fault-injection points for fleet robustness testing: a target that
    // crashes the whole process, and one that wedges while ignoring
    // cooperative cancellation (forcing the coordinator's hard kill).
    if local.chaos_abort {
        eprintln!("chaos: aborting process (--chaos-abort)");
        std::process::abort();
    }
    if local.chaos_hang {
        eprintln!("chaos: hanging process (--chaos-hang)");
        loop {
            std::thread::sleep(std::time::Duration::from_secs(1));
        }
    }
    let mut engine = Engine::with_config(BarracudaConfig {
        gpu: GpuConfig {
            memory_model: local.model,
            seed: local.seed,
            ..GpuConfig::default()
        },
        mode: if local.threaded {
            DetectionMode::Threaded
        } else {
            DetectionMode::Synchronous
        },
        fault_plan: local.stall_seed.map(FaultPlan::stalls_only),
        ..BarracudaConfig::default()
    });
    let ws = local.warp_size;

    // Wall-clock deadline: the one-shot analog of the serve watchdog.
    // After `--timeout-ms` the timer fires the engine's CancelToken; the
    // simulator and detector workers notice cooperatively and the run
    // exits with code 3. Cancelling in a loop (rather than once) covers
    // launches that re-arm the token after the first shot lands — e.g.
    // each launch of a warp sweep — so the deadline binds the whole
    // command, not one launch.
    if let Some(ms) = req.deadline_ms {
        let token = engine.cancel_token();
        let _ = std::thread::Builder::new()
            .name("deadline-watchdog".to_string())
            .spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                loop {
                    token.cancel();
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
            });
    }

    if trace {
        return match run_request(&mut engine, &req, ws, dump_trace) {
            Ok(()) => ExitCode::SUCCESS,
            Err(resp) => fail(&resp),
        };
    }

    if local.warp_sweep {
        let swept = run_request(&mut engine, &req, ws, |engine, run| {
            let sizes: Vec<u32> = [32u32, 16, 8, 4]
                .into_iter()
                .filter(|&s| s <= run.dims.warp_size)
                .collect();
            engine.check_warp_sizes(run, &sizes)
        });
        let results = match swept {
            Ok(results) => results,
            Err(resp) => return fail(&resp),
        };
        println!("{:<12} {:>8}", "warp size", "races");
        let mut any = false;
        for (ws, analysis) in &results {
            println!("{ws:<12} {:>8}", analysis.race_count());
            any |= analysis.race_count() > 0;
        }
        return ExitCode::from(u8::from(any));
    }

    let checked = run_request(&mut engine, &req, ws, |engine, run| {
        Ok((engine.check(run)?, run.dims.total_threads()))
    });
    let (analysis, threads) = match checked {
        Ok(checked) => checked,
        Err(resp) => return fail(&resp),
    };
    let repro = barracuda::statsjson::ReproInfo::from_config(engine.config(), ws);
    if local.stats_json {
        // Machine-readable mode: exactly one JSON object on stdout,
        // including the engine's per-launch race counts and the repro
        // block (seeds, scheduler, chaos plan).
        let doc = barracuda::statsjson::document(&analysis, Some(engine.launches()), Some(&repro));
        println!("{}", doc.dump());
        return ExitCode::from(exitcode::for_analysis(&analysis));
    }
    for d in analysis.diagnostics() {
        println!("diagnostic: {d}");
    }
    if analysis.is_degraded() {
        // A degraded verdict is only actionable if it can be replayed:
        // print the full repro line with it.
        println!("{}", repro.human_line());
    }
    for r in analysis.races() {
        println!("{r}");
    }
    let s = analysis.stats();
    println!(
        "\n{} race(s) across {threads} threads; {} records, {} events, {} KiB shadow, {:?}",
        analysis.race_count(),
        s.records,
        s.events,
        s.shadow_bytes / 1024,
        s.detection_time
    );
    if s.pipeline.queues > 0 {
        println!(
            "pipeline: {} queue(s), high-water {}, {} stall cycle(s), \
             {} dropped, {} corrupt, {} worker panic(s)",
            s.pipeline.queues,
            s.pipeline.queue_high_water,
            s.pipeline.producer_stall_cycles,
            s.pipeline.records_dropped,
            s.pipeline.records_corrupt,
            s.pipeline.worker_panics
        );
    }
    ExitCode::from(exitcode::for_analysis(&analysis))
}

fn cmd_instrument(args: &[String]) -> ExitCode {
    let mut file = String::new();
    let mut prune = true;
    for a in args {
        match a.as_str() {
            "--no-prune" => prune = false,
            other if !other.starts_with("--") => file = other.to_string(),
            other => {
                eprintln!("error: unknown argument '{other}'");
                return ExitCode::from(exitcode::USAGE);
            }
        }
    }
    if file.is_empty() {
        eprintln!("error: missing PTX file");
        return ExitCode::from(exitcode::USAGE);
    }
    let source = match std::fs::read_to_string(&file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {file}: {e}");
            return ExitCode::from(exitcode::USAGE);
        }
    };
    let module = match barracuda_ptx::parse(&source) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(exitcode::USAGE);
        }
    };
    let opts = if prune {
        InstrumentOptions::default()
    } else {
        InstrumentOptions::unoptimized()
    };
    let (instrumented, stats) = barracuda_instrument::instrument_module(&module, &opts);
    println!("{}", barracuda_ptx::printer::print_module(&instrumented));
    eprintln!(
        "// {} of {} static instructions instrumented ({:.1}%), {} log calls, {} pruned, \
         {} acquires, {} releases, {} acq-rels, {} atomics",
        stats.instrumented_instructions,
        stats.static_instructions,
        stats.instrumented_fraction() * 100.0,
        stats.log_calls,
        stats.pruned,
        stats.acquires,
        stats.releases,
        stats.acqrels,
        stats.standalone_atomics
    );
    ExitCode::SUCCESS
}

/// Crash-isolated corpus analysis: shards generated and on-disk targets
/// across child processes of this same binary, checkpointing to
/// `--journal` (`--resume` skips finished work) and emitting the
/// deduplicated triage report. Exit code: `1` when any race cluster
/// survived triage, `4` when coverage is incomplete (unreconciled,
/// panicked, timed-out, quarantined or degraded targets) but no races,
/// `0` when everything ran clean.
fn cmd_fleet(args: &[String]) -> ExitCode {
    fn list_u64(flag: &str, s: &str) -> Result<Vec<u64>, String> {
        s.split(',')
            .map(|p| {
                let p = p.trim();
                p.strip_prefix("0x")
                    .map_or_else(|| p.parse::<u64>(), |h| u64::from_str_radix(h, 16))
                    .map_err(|e| format!("bad {flag} value '{p}': {e}"))
            })
            .collect()
    }
    let mut axes: Option<barracuda_fleet::CorpusAxes> = None;
    let mut seeds = None;
    let mut warp_sizes = None;
    let mut presets = None;
    let mut scale = barracuda_workloads::Scale::default_scale();
    let mut ptx_dirs: Vec<std::path::PathBuf> = Vec::new();
    let mut ptx_args: Vec<String> = Vec::new();
    let mut journal: Option<std::path::PathBuf> = None;
    let mut report_json: Option<std::path::PathBuf> = None;
    let mut resume = false;
    let mut jobs = 4usize;
    let mut timeout_ms = 10_000u64;
    let mut kill_grace_ms = 2_000u64;
    let mut retries = 2u32;
    let mut quarantine_after = 3u32;
    let mut chaos_abort_match = None;
    let mut chaos_hang_match = None;

    let mut it = args.iter();
    macro_rules! value {
        ($flag:expr) => {
            match it.next() {
                Some(v) => v.clone(),
                None => {
                    eprintln!("error: {} needs a value", $flag);
                    return ExitCode::from(exitcode::USAGE);
                }
            }
        };
    }
    macro_rules! num {
        ($flag:expr, $ty:ty) => {
            match value!($flag).parse::<$ty>() {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("error: bad {} value: {e}", $flag);
                    return ExitCode::from(exitcode::USAGE);
                }
            }
        };
    }
    while let Some(a) = it.next() {
        match a.as_str() {
            "--gen" => {
                let v = value!("--gen");
                let mut ax = barracuda_fleet::CorpusAxes::default();
                if v != "all" {
                    ax.workloads = v.split(',').map(|s| s.trim().to_string()).collect();
                }
                axes = Some(ax);
            }
            "--seeds" => match list_u64("--seeds", &value!("--seeds")) {
                Ok(v) => seeds = Some(v),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(exitcode::USAGE);
                }
            },
            "--warp-sizes" => match list_u64("--warp-sizes", &value!("--warp-sizes")) {
                Ok(v) => warp_sizes = Some(v.into_iter().map(|w| w as u32).collect::<Vec<_>>()),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(exitcode::USAGE);
                }
            },
            "--presets" => match value!("--presets")
                .split(',')
                .map(|s| s.trim().parse::<MemoryModel>())
                .collect()
            {
                Ok(v) => presets = Some(v),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(exitcode::USAGE);
                }
            },
            "--scale" => {
                scale = match value!("--scale").as_str() {
                    "quick" => barracuda_workloads::Scale::quick(),
                    "default" => barracuda_workloads::Scale::default_scale(),
                    other => {
                        eprintln!("error: bad --scale '{other}' (expected quick or default)");
                        return ExitCode::from(exitcode::USAGE);
                    }
                };
            }
            "--ptx-dir" => ptx_dirs.push(std::path::PathBuf::from(value!("--ptx-dir"))),
            "--ptx-grid" => {
                ptx_args.push("--grid".to_string());
                ptx_args.push(value!("--ptx-grid"));
            }
            "--ptx-block" => {
                ptx_args.push("--block".to_string());
                ptx_args.push(value!("--ptx-block"));
            }
            "--ptx-param" => {
                ptx_args.push("--param".to_string());
                ptx_args.push(value!("--ptx-param"));
            }
            "--journal" => journal = Some(std::path::PathBuf::from(value!("--journal"))),
            "--report-json" => {
                report_json = Some(std::path::PathBuf::from(value!("--report-json")))
            }
            "--resume" => resume = true,
            "--jobs" => jobs = num!("--jobs", usize),
            "--timeout-ms" => timeout_ms = num!("--timeout-ms", u64),
            "--kill-grace-ms" => kill_grace_ms = num!("--kill-grace-ms", u64),
            "--retries" => retries = num!("--retries", u32),
            "--quarantine-after" => quarantine_after = num!("--quarantine-after", u32),
            "--chaos-abort-match" => chaos_abort_match = Some(value!("--chaos-abort-match")),
            "--chaos-hang-match" => chaos_hang_match = Some(value!("--chaos-hang-match")),
            other => {
                eprintln!("error: unknown argument '{other}'");
                return ExitCode::from(exitcode::USAGE);
            }
        }
    }
    let Some(journal) = journal else {
        eprintln!("error: fleet needs --journal PATH (the checkpoint file)");
        return ExitCode::from(exitcode::USAGE);
    };
    if axes.is_none() && ptx_dirs.is_empty() {
        eprintln!("error: fleet needs a corpus: --gen all|NAME,... and/or --ptx-dir DIR");
        return ExitCode::from(exitcode::USAGE);
    }

    let mut targets = Vec::new();
    if let Some(mut ax) = axes {
        if let Some(s) = seeds {
            ax.seeds = s;
        }
        if let Some(w) = warp_sizes {
            ax.warp_sizes = w;
        }
        if let Some(p) = presets {
            ax.memory_models = p;
        }
        ax.scale = scale;
        // Generated PTX lands next to the journal so a resumed run finds
        // identical files.
        let work_dir = journal.with_file_name(format!(
            "{}.gen",
            journal.file_name().unwrap_or_default().to_string_lossy()
        ));
        match barracuda_fleet::generated_targets(&ax, &work_dir) {
            Ok(mut t) => targets.append(&mut t),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(exitcode::USAGE);
            }
        }
    }
    for dir in &ptx_dirs {
        match barracuda_fleet::ptx_dir_targets(dir, &ptx_args) {
            Ok(mut t) => targets.append(&mut t),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(exitcode::USAGE);
            }
        }
    }
    let binary = match std::env::current_exe() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: cannot locate own binary: {e}");
            return ExitCode::from(exitcode::USAGE);
        }
    };

    let mut cfg = barracuda_fleet::FleetConfig::new(binary, targets, journal);
    cfg.resume = resume;
    cfg.jobs = jobs;
    cfg.timeout_ms = timeout_ms;
    cfg.kill_grace_ms = kill_grace_ms;
    cfg.retries = retries;
    cfg.quarantine_after = quarantine_after;
    cfg.chaos_abort_match = chaos_abort_match;
    cfg.chaos_hang_match = chaos_hang_match;

    let summary = match barracuda_fleet::run(&cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(exitcode::USAGE);
        }
    };
    // Run-local facts go to stdout only; the report file stays
    // byte-identical across interrupted-and-resumed and uninterrupted
    // runs over the same corpus.
    println!(
        "fleet: executed {} / skipped {} (resume){}",
        summary.executed,
        summary.skipped,
        if summary.torn_lines > 0 {
            format!("; tolerated {} torn journal line(s)", summary.torn_lines)
        } else {
            String::new()
        }
    );
    print!("{}", summary.report.human());
    if let Some(path) = report_json {
        let mut body = summary.report.to_json();
        body.push('\n');
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("error: cannot write report {}: {e}", path.display());
            return ExitCode::from(exitcode::USAGE);
        }
    }
    let r = &summary.report;
    if !r.clusters.is_empty() {
        ExitCode::from(exitcode::RACES)
    } else if !r.reconciled
        || r.count(barracuda_fleet::Outcome::Panicked)
            + r.count(barracuda_fleet::Outcome::TimedOut)
            + r.count(barracuda_fleet::Outcome::Quarantined)
            + r.count(barracuda_fleet::Outcome::Degraded)
            > 0
    {
        ExitCode::from(exitcode::DEGRADED)
    } else {
        ExitCode::SUCCESS
    }
}

/// Splits the endpoint flags `serve` and `client` share — exactly one
/// of `--socket <path>` or `--tcp <addr>` — from the rest of `args`.
fn split_endpoint(
    cmd: &str,
    args: &[String],
) -> Result<(barracuda_serve::Endpoint, Vec<String>), String> {
    use barracuda_serve::Endpoint;
    let (mut socket, mut tcp, mut rest) = (None, None, Vec::new());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let slot = match a.as_str() {
            "--socket" => &mut socket,
            "--tcp" => &mut tcp,
            _ => {
                rest.push(a.clone());
                continue;
            }
        };
        *slot = Some(it.next().ok_or_else(|| format!("{a} requires a value"))?);
    }
    let endpoint = match (socket, tcp) {
        (Some(path), None) => Endpoint::Unix(path.into()),
        (None, Some(addr)) => {
            Endpoint::tcp(addr.as_str()).map_err(|e| format!("bad --tcp address {addr}: {e}"))?
        }
        _ => {
            return Err(format!(
                "{cmd} requires exactly one of --socket <path> or --tcp <addr>"
            ))
        }
    };
    Ok((endpoint, rest))
}

fn cmd_serve(args: &[String]) -> ExitCode {
    use barracuda_serve::ServerConfig;
    let (endpoint, args) = match split_endpoint("serve", args) {
        Ok(split) => split,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(exitcode::USAGE);
        }
    };
    let mut config = ServerConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        let r: Result<(), String> = (|| {
            match a.as_str() {
                "--pool" => {
                    config.pool_workers = value("--pool")?
                        .parse()
                        .map_err(|e| format!("bad pool size: {e}"))?;
                }
                "--max-engines" => {
                    config.max_resident_engines = value("--max-engines")?
                        .parse()
                        .map_err(|e| format!("bad engine cap: {e}"))?;
                }
                "--queue-depth" => {
                    config.queue_depth = value("--queue-depth")?
                        .parse()
                        .map_err(|e| format!("bad queue depth: {e}"))?;
                }
                "--retry-after-ms" => {
                    config.retry_after_ms = value("--retry-after-ms")?
                        .parse()
                        .map_err(|e| format!("bad retry-after: {e}"))?;
                }
                "--default-deadline-ms" => {
                    config.default_deadline_ms = Some(
                        value("--default-deadline-ms")?
                            .parse()
                            .map_err(|e| format!("bad deadline: {e}"))?,
                    );
                }
                "--chaos-panic-kernel" => {
                    config.chaos_panic_kernel = Some(value("--chaos-panic-kernel")?);
                }
                other => return Err(format!("unknown argument '{other}'")),
            }
            Ok(())
        })();
        if let Err(e) = r {
            eprintln!("error: {e}");
            return ExitCode::from(exitcode::USAGE);
        }
    }
    match endpoint.serve(config) {
        Ok(stats) => {
            eprintln!(
                "server: {} session(s), {} accepted, {} completed, {} rejected, \
                 {} timeout(s), {} quarantine(s), {} dropped at shutdown, \
                 {} eviction(s), {} engine build(s), {} streamed event(s), {} replay(s)",
                stats.sessions,
                stats.accepted,
                stats.completed,
                stats.rejected,
                stats.timeouts,
                stats.quarantines,
                stats.dropped_on_shutdown,
                stats.evictions,
                stats.engine_builds,
                stats.streamed_events,
                stats.replays
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(exitcode::USAGE)
        }
    }
}

fn cmd_client(args: &[String]) -> ExitCode {
    use barracuda_serve::{Client, Connection, RetryPolicy, Transport};
    let (endpoint, args) = match split_endpoint("client", args) {
        Ok(split) => split,
        Err(e) => return usage(e),
    };
    let (mut shutdown, mut stream) = (false, false);
    let mut rest: Vec<String> = Vec::new();
    for a in args {
        match a.as_str() {
            "--shutdown" => shutdown = true,
            "--stream" => stream = true,
            _ => rest.push(a),
        }
    }
    // Parsed before connecting: a refused flag sends nothing.
    let req = if shutdown {
        None
    } else {
        match parse_check_args("client", &rest) {
            Ok((req, _)) => Some(CheckRequest { stream, ..req }),
            Err(e) => return usage(e),
        }
    };
    let mut conn = match Connection::connect(&endpoint) {
        Ok(c) => c,
        Err(e) => return usage(format!("cannot connect to {endpoint}: {e}")),
    };
    let Some(req) = req else {
        return match conn.shutdown_server() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => usage(e),
        };
    };
    let mut client = Client::new(conn, RetryPolicy::default());
    let resp = if stream {
        client.check_streamed(&req, &mut |ev| {
            if let Response::RaceEvent { seq, report, .. } = ev {
                println!("[event {seq}] {report}");
            }
        })
    } else {
        client.check(&req)
    };
    // Streamed verdicts wrap the terminal; report the body.
    let terminal = match &resp {
        Response::LaunchDone { body, .. } => body.as_ref(),
        other => other,
    };
    let Response::Done(b) = terminal else {
        return fail(terminal);
    };
    for r in &b.reports {
        println!("{r}");
    }
    println!(
        "{} race(s); {} records, {} events{}",
        b.races,
        b.records,
        b.events,
        if b.degraded { " (degraded)" } else { "" }
    );
    ExitCode::from(resp.exit_code())
}
