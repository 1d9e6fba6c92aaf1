//! Machine-readable analysis output (`barracuda check --stats-json`).
//!
//! Emits one JSON object per analysis with the verdict, race/diagnostic
//! breakdown and the full [`crate::AnalysisStats`] including the pipeline
//! telemetry (queue high-water marks, producer stall cycles, per-worker
//! event counts, drop counts). The build environment has no registry
//! access, so — in the same spirit as the `vendor/` shims — serialization
//! is hand-rolled here and paired with [`parse`], a minimal JSON reader
//! used by the round-trip tests and available to downstream tooling.

use crate::analysis::Analysis;
use barracuda_core::{Diagnostic, RaceClass};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value (the subset the stats schema uses).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as f64; the schema only emits integers).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, key-ordered for deterministic comparison.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value at `key` of an object, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Serializes this value back to JSON text (the inverse of
    /// [`parse`]; object keys come out in `BTreeMap` order, so
    /// `parse(x).dump()` is a canonical form). Used by the fleet journal
    /// to re-emit sub-documents (race sites, repro blocks) verbatim.
    pub fn dump(&self) -> String {
        let mut s = String::new();
        self.dump_into(&mut s);
        s
    }

    fn dump_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                // The schema only emits integers; keep whole numbers
                // integral so round-trips are byte-stable.
                #[allow(clippy::cast_possible_truncation)]
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(v) => escape(v, out),
            Json::Arr(v) => {
                out.push('[');
                for (i, e) in v.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    e.dump_into(out);
                }
                out.push(']');
            }
            Json::Obj(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape(k, out);
                    out.push(':');
                    v.dump_into(out);
                }
                out.push('}');
            }
        }
    }

    /// This value as an integer, if it is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// This value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Serializes one analysis to the stats-JSON schema.
pub fn to_json(a: &Analysis) -> String {
    let mut s = String::with_capacity(1024);
    let verdict = if a.race_count() > 0 {
        "race"
    } else if a.diagnostics().is_empty() {
        "clean"
    } else {
        "diagnostic"
    };
    let (shared, global) = a.space_counts();
    let st = a.stats();
    let p = &st.pipeline;
    let _ = write!(
        s,
        "{{\"verdict\":\"{verdict}\",\"degraded\":{},\"races\":{},\
         \"race_classes\":{{\"intra_warp\":{},\"divergence\":{},\"intra_block\":{},\
         \"inter_block\":{},\"inter_kernel\":{},\"host_device\":{}}},\
         \"spaces\":{{\"shared\":{shared},\"global\":{global}}}",
        a.is_degraded(),
        a.race_count(),
        a.count_class(RaceClass::IntraWarp),
        a.count_class(RaceClass::Divergence),
        a.count_class(RaceClass::IntraBlock),
        a.count_class(RaceClass::InterBlock),
        a.count_class(RaceClass::InterKernel),
        a.count_class(RaceClass::HostDevice),
    );
    // Per-race site records: the static signature of each report, the
    // fleet aggregator's dedup input. The engine does not (yet) thread
    // instruction PCs into shadow state, so a site is identified by the
    // pair of access kinds plus the racy byte address — stable across
    // seeds and warp sizes for deterministic corpora.
    s.push_str(",\"race_sites\":[");
    for (i, r) in a.races().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let space = match r.space {
            barracuda_trace::MemSpace::Shared => "shared",
            barracuda_trace::MemSpace::Global => "global",
        };
        let _ = write!(
            s,
            "{{\"space\":\"{space}\",\"block\":{},\"addr\":{},\
             \"current\":\"{}\",\"previous\":\"{}\",\"class\":\"{}\"}}",
            r.block.map_or("null".to_string(), |b| b.to_string()),
            r.addr,
            r.current.1,
            r.previous.1,
            r.class,
        );
    }
    s.push(']');
    s.push_str(",\"diagnostics\":[");
    for (i, d) in a.diagnostics().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        match d {
            Diagnostic::BarrierDivergence { block } => {
                let _ = write!(s, "{{\"kind\":\"barrier_divergence\",\"block\":{block}}}");
            }
            Diagnostic::WorkerPanic { worker, message } => {
                let _ = write!(
                    s,
                    "{{\"kind\":\"worker_panic\",\"worker\":{worker},\"message\":"
                );
                escape(message, &mut s);
                s.push('}');
            }
            Diagnostic::LostRecords { dropped, corrupt } => {
                let _ = write!(
                    s,
                    "{{\"kind\":\"lost_records\",\"dropped\":{dropped},\"corrupt\":{corrupt}}}"
                );
            }
        }
    }
    let _ = write!(
        s,
        "],\"stats\":{{\"records\":{},\"events\":{},\
         \"format_census\":[{},{},{},{}],\
         \"ptvc_histogram\":{{\"converged\":{},\"diverged\":{},\
         \"nested_diverged\":{},\"sparse_vc\":{}}},\
         \"sync_locations\":{},\"shadow_pages\":{},\
         \"shadow_bytes\":{},\"detection_time_us\":{},\
         \"launch\":{{\"instructions\":{},\"barriers\":{}}},\
         \"instrument\":{{\"static_instructions\":{},\"instrumented_instructions\":{},\
         \"log_calls\":{},\"pruned\":{}}}",
        st.records,
        st.events,
        st.format_census[0],
        st.format_census[1],
        st.format_census[2],
        st.format_census[3],
        st.format_census[0],
        st.format_census[1],
        st.format_census[2],
        st.format_census[3],
        st.sync_locations,
        st.shadow_pages,
        st.shadow_bytes,
        st.detection_time.as_micros(),
        st.launch.instructions,
        st.launch.barriers,
        st.instrument.static_instructions,
        st.instrument.instrumented_instructions,
        st.instrument.log_calls,
        st.instrument.pruned,
    );
    let sp = &st.shadow_paths;
    let _ = write!(
        s,
        ",\"shadow_fast_path\":{{\"batched_records\":{},\"page_locks\":{},\
         \"word_merges\":{},\"word_fallbacks\":{},\
         \"uniform_records\":{},\"cell_checks\":{}}}",
        sp.batched_records,
        sp.page_locks,
        sp.word_merges,
        sp.word_fallbacks,
        sp.uniform_records,
        sp.cell_checks,
    );
    let _ = write!(
        s,
        ",\"pipeline\":{{\"queues\":{},\"queue_high_water\":{},\
         \"producer_stall_cycles\":{},\"records_dropped\":{},\"records_corrupt\":{},\
         \"worker_panics\":{},\"per_worker\":[",
        p.queues,
        p.queue_high_water,
        p.producer_stall_cycles,
        p.records_dropped,
        p.records_corrupt,
        p.worker_panics,
    );
    for (i, w) in p.per_worker.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"worker\":{},\"events\":{},\"format_census\":[{},{},{},{}],\
             \"corrupt_records\":{},\"panicked\":{}}}",
            w.worker,
            w.events,
            w.format_census[0],
            w.format_census[1],
            w.format_census[2],
            w.format_census[3],
            w.corrupt_records,
            w.panicked,
        );
    }
    s.push_str("],\"per_stream\":[");
    for (i, t) in p.per_stream.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"stream\":{},\"launches\":{},\"records\":{},\"dropped\":{},\
             \"stall_cycles\":{},\"peak_depth\":{}}}",
            t.stream, t.launches, t.records, t.dropped, t.stall_cycles, t.peak_depth,
        );
    }
    s.push_str("]}}}");
    s
}

/// Serializes an engine's per-launch summaries as a JSON array (the
/// `launches` field of `--stats-json` output): launch order, stream,
/// kernel, and the races each launch exposed — including inter-kernel and
/// host-device races only a persistent engine can see.
pub fn launches_to_json(launches: &[crate::engine::LaunchSummary]) -> String {
    let mut s = String::with_capacity(64 * launches.len() + 2);
    s.push('[');
    for (i, l) in launches.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"epoch\":{},\"stream\":{},\"kernel\":",
            l.epoch, l.stream
        );
        escape(&l.kernel, &mut s);
        let _ = write!(
            s,
            ",\"races\":{},\"records\":{},\"events\":{}}}",
            l.races, l.records, l.events
        );
    }
    s.push(']');
    s
}

/// [`to_json`] plus the engine's per-launch `launches` array — the full
/// `--stats-json` document of a persistent-engine run.
pub fn to_json_with_launches(a: &Analysis, launches: &[crate::engine::LaunchSummary]) -> String {
    let mut s = to_json(a);
    let closing = s.pop();
    debug_assert_eq!(closing, Some('}'));
    s.push_str(",\"launches\":");
    s.push_str(&launches_to_json(launches));
    s.push('}');
    s
}

/// Everything needed to reproduce one run from its telemetry alone: the
/// simulator seed, launch geometry knobs, the chaos [`FaultPlan`] seed
/// (when fault injection was active) and the co-resident scheduler
/// policy/seed. The fleet journal stores this block verbatim, so any
/// fleet-reported failure replays from the journal line without the
/// original command line.
///
/// [`FaultPlan`]: barracuda_trace::FaultPlan
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReproInfo {
    /// Simulator RNG seed (`--seed`).
    pub seed: u64,
    /// Simulated warp size (`--warp-size`).
    pub warp_size: u32,
    /// Memory-model preset name (`sc` / `kepler` / `maxwell`).
    pub memory_model: String,
    /// Chaos [`FaultPlan`](barracuda_trace::FaultPlan) seed, when fault
    /// injection was configured.
    pub chaos_seed: Option<u64>,
    /// Co-resident scheduler policy name (`rr` / `random` / `starve`),
    /// or `eager` when interleaving was off.
    pub sched_policy: String,
    /// Seed of the seeded scheduler policies.
    pub sched_seed: u64,
}

impl ReproInfo {
    /// Builds the repro block from a session configuration plus the
    /// per-run warp size.
    pub fn from_config(config: &crate::BarracudaConfig, warp_size: u32) -> Self {
        use barracuda_simt::{MemoryModel, SchedPolicy};
        let (sched_policy, sched_seed) = if config.interleave_kernels {
            match config.scheduler {
                SchedPolicy::RoundRobin => ("rr".to_string(), 0),
                SchedPolicy::Random(s) => ("random".to_string(), s),
                SchedPolicy::StarveOne(s) => ("starve".to_string(), s),
            }
        } else {
            ("eager".to_string(), 0)
        };
        ReproInfo {
            seed: config.gpu.seed,
            warp_size,
            memory_model: match config.gpu.memory_model {
                MemoryModel::SequentiallyConsistent => "sc",
                MemoryModel::KeplerK520 => "kepler",
                MemoryModel::MaxwellTitanX => "maxwell",
            }
            .to_string(),
            chaos_seed: config.fault_plan.as_ref().map(|p| p.seed),
            sched_policy,
            sched_seed,
        }
    }

    /// Serializes the repro block as a JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        let _ = write!(
            s,
            "{{\"seed\":{},\"warp_size\":{},\"memory_model\":",
            self.seed, self.warp_size
        );
        escape(&self.memory_model, &mut s);
        s.push_str(",\"chaos_seed\":");
        match self.chaos_seed {
            Some(c) => {
                let _ = write!(s, "{c}");
            }
            None => s.push_str("null"),
        }
        s.push_str(",\"sched_policy\":");
        escape(&self.sched_policy, &mut s);
        let _ = write!(s, ",\"sched_seed\":{}}}", self.sched_seed);
        s
    }

    /// One human-readable line (printed with degraded-run diagnostics so
    /// a degraded verdict is reproducible straight from the terminal).
    pub fn human_line(&self) -> String {
        format!(
            "repro: seed={} warp-size={} memory-model={} chaos-seed={} sched={}/{}",
            self.seed,
            self.warp_size,
            self.memory_model,
            self.chaos_seed
                .map_or("none".to_string(), |c| c.to_string()),
            self.sched_policy,
            self.sched_seed,
        )
    }
}

/// The full `--stats-json` document: [`to_json`] plus the per-launch
/// `launches` array plus the `repro` block.
pub fn to_json_full(
    a: &Analysis,
    launches: &[crate::engine::LaunchSummary],
    repro: &ReproInfo,
) -> String {
    let mut s = to_json_with_launches(a, launches);
    let closing = s.pop();
    debug_assert_eq!(closing, Some('}'));
    s.push_str(",\"repro\":");
    s.push_str(&repro.to_json());
    s.push('}');
    s
}

/// Parses a JSON document (the subset [`to_json`] emits: objects, arrays,
/// strings with basic escapes, numbers, booleans, null).
///
/// # Errors
///
/// Returns a message describing the first syntax error.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_str(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(b, pos),
        _ => Err(format!("unexpected input at byte {}", *pos)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_str(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so this is
                // always on a char boundary).
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().ok_or("empty char")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut m = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(m));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_str(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let val = parse_value(b, pos)?;
        m.insert(key, val);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(m));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut v = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(v));
    }
    loop {
        v.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(v));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{AnalysisStats, PipelineStats, StreamTelemetry, WorkerTelemetry};
    use crate::Analysis;
    use barracuda_core::{AccessType, PathStats, RaceReport};
    use barracuda_trace::{MemSpace, Tid};

    fn sample_analysis() -> Analysis {
        let race = RaceReport {
            space: MemSpace::Global,
            block: None,
            addr: 0x40,
            current: (Tid(1), AccessType::Write),
            previous: (Tid(9), AccessType::Read),
            class: RaceClass::InterBlock,
        };
        let stats = AnalysisStats {
            records: 128,
            events: 120,
            format_census: [100, 12, 5, 3],
            sync_locations: 2,
            shadow_pages: 1,
            shadow_bytes: 4096,
            shadow_paths: PathStats {
                batched_records: 40,
                page_locks: 44,
                word_merges: 30,
                word_fallbacks: 3,
                uniform_records: 38,
                cell_checks: 55,
                ..PathStats::default()
            },
            pipeline: PipelineStats {
                queues: 4,
                queue_high_water: 37,
                producer_stall_cycles: 991,
                records_dropped: 6,
                records_corrupt: 2,
                worker_panics: 1,
                per_worker: vec![
                    WorkerTelemetry {
                        worker: 0,
                        events: 120,
                        format_census: [100, 12, 5, 3],
                        corrupt_records: 2,
                        panicked: false,
                    },
                    WorkerTelemetry {
                        worker: 1,
                        panicked: true,
                        ..WorkerTelemetry::default()
                    },
                ],
                per_stream: vec![StreamTelemetry {
                    stream: 0,
                    launches: 2,
                    records: 128,
                    dropped: 6,
                    stall_cycles: 991,
                    peak_depth: 37,
                }],
            },
            ..AnalysisStats::default()
        };
        Analysis::new(
            vec![race],
            vec![
                Diagnostic::WorkerPanic {
                    worker: 1,
                    message: "chaos \"quoted\"".to_string(),
                },
                Diagnostic::LostRecords {
                    dropped: 6,
                    corrupt: 2,
                },
            ],
            stats,
        )
    }

    #[test]
    fn emitted_json_parses() {
        let j = parse(&to_json(&sample_analysis())).expect("valid json");
        assert_eq!(j.get("verdict").and_then(Json::as_str), Some("race"));
        assert_eq!(j.get("degraded"), Some(&Json::Bool(true)));
        assert_eq!(j.get("races").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn schema_round_trips_every_field() {
        let a = sample_analysis();
        let j = parse(&to_json(&a)).unwrap();
        let stats = j.get("stats").expect("stats object");
        assert_eq!(stats.get("records").and_then(Json::as_u64), Some(128));
        assert_eq!(stats.get("events").and_then(Json::as_u64), Some(120));
        let census = stats.get("format_census").and_then(Json::as_arr).unwrap();
        let census: Vec<u64> = census.iter().map(|c| c.as_u64().unwrap()).collect();
        assert_eq!(census, vec![100, 12, 5, 3]);
        let hist = stats.get("ptvc_histogram").expect("ptvc_histogram object");
        assert_eq!(hist.get("converged").and_then(Json::as_u64), Some(100));
        assert_eq!(hist.get("diverged").and_then(Json::as_u64), Some(12));
        assert_eq!(hist.get("nested_diverged").and_then(Json::as_u64), Some(5));
        assert_eq!(hist.get("sparse_vc").and_then(Json::as_u64), Some(3));
        let sp = stats
            .get("shadow_fast_path")
            .expect("shadow_fast_path object");
        assert_eq!(sp.get("batched_records").and_then(Json::as_u64), Some(40));
        assert!(
            sp.get("slow_records").is_none(),
            "slow_records is not emitted"
        );
        assert_eq!(sp.get("page_locks").and_then(Json::as_u64), Some(44));
        assert_eq!(sp.get("word_merges").and_then(Json::as_u64), Some(30));
        assert_eq!(sp.get("word_fallbacks").and_then(Json::as_u64), Some(3));
        assert_eq!(sp.get("uniform_records").and_then(Json::as_u64), Some(38));
        assert_eq!(sp.get("cell_checks").and_then(Json::as_u64), Some(55));
        let p = stats.get("pipeline").expect("pipeline object");
        assert_eq!(p.get("queues").and_then(Json::as_u64), Some(4));
        assert_eq!(p.get("queue_high_water").and_then(Json::as_u64), Some(37));
        assert_eq!(
            p.get("producer_stall_cycles").and_then(Json::as_u64),
            Some(991)
        );
        assert_eq!(p.get("records_dropped").and_then(Json::as_u64), Some(6));
        assert_eq!(p.get("records_corrupt").and_then(Json::as_u64), Some(2));
        assert_eq!(p.get("worker_panics").and_then(Json::as_u64), Some(1));
        let workers = p.get("per_worker").and_then(Json::as_arr).unwrap();
        assert_eq!(workers.len(), 2);
        assert_eq!(workers[0].get("events").and_then(Json::as_u64), Some(120));
        assert_eq!(workers[1].get("panicked"), Some(&Json::Bool(true)));
        let streams = p.get("per_stream").and_then(Json::as_arr).unwrap();
        assert_eq!(streams.len(), 1);
        assert_eq!(streams[0].get("stream").and_then(Json::as_u64), Some(0));
        assert_eq!(streams[0].get("launches").and_then(Json::as_u64), Some(2));
        assert_eq!(streams[0].get("dropped").and_then(Json::as_u64), Some(6));
        assert_eq!(
            streams[0].get("peak_depth").and_then(Json::as_u64),
            Some(37)
        );
        let diags = j.get("diagnostics").and_then(Json::as_arr).unwrap();
        assert_eq!(diags.len(), 2);
        assert_eq!(
            diags[0].get("kind").and_then(Json::as_str),
            Some("worker_panic")
        );
        assert_eq!(
            diags[0].get("message").and_then(Json::as_str),
            Some("chaos \"quoted\""),
            "string escapes must round-trip"
        );
        assert_eq!(
            diags[1].get("kind").and_then(Json::as_str),
            Some("lost_records")
        );
        assert_eq!(diags[1].get("dropped").and_then(Json::as_u64), Some(6));
    }

    #[test]
    fn race_classes_include_engine_classes() {
        let j = parse(&to_json(&sample_analysis())).unwrap();
        let classes = j.get("race_classes").expect("race_classes object");
        assert_eq!(classes.get("inter_kernel").and_then(Json::as_u64), Some(0));
        assert_eq!(classes.get("host_device").and_then(Json::as_u64), Some(0));
        assert_eq!(classes.get("inter_block").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn launches_array_round_trips() {
        use crate::engine::LaunchSummary;
        let launches = vec![
            LaunchSummary {
                epoch: 0,
                stream: 0,
                kernel: "k\"q\"".to_string(),
                races: 2,
                records: 100,
                events: 99,
            },
            LaunchSummary {
                epoch: 1,
                stream: 3,
                kernel: "other".to_string(),
                races: 0,
                records: 5,
                events: 5,
            },
        ];
        let j = parse(&launches_to_json(&launches)).expect("valid json");
        let arr = j.as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("kernel").and_then(Json::as_str), Some("k\"q\""));
        assert_eq!(arr[0].get("races").and_then(Json::as_u64), Some(2));
        assert_eq!(arr[1].get("stream").and_then(Json::as_u64), Some(3));
        assert_eq!(arr[1].get("epoch").and_then(Json::as_u64), Some(1));
        assert_eq!(parse(&launches_to_json(&[])).unwrap(), Json::Arr(vec![]));

        let doc = parse(&to_json_with_launches(&sample_analysis(), &launches)).unwrap();
        assert_eq!(doc.get("verdict").and_then(Json::as_str), Some("race"));
        assert_eq!(
            doc.get("launches")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn race_sites_round_trip() {
        let j = parse(&to_json(&sample_analysis())).unwrap();
        let sites = j.get("race_sites").and_then(Json::as_arr).unwrap();
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].get("space").and_then(Json::as_str), Some("global"));
        assert_eq!(sites[0].get("addr").and_then(Json::as_u64), Some(0x40));
        assert_eq!(sites[0].get("block"), Some(&Json::Null));
        assert_eq!(
            sites[0].get("current").and_then(Json::as_str),
            Some("write")
        );
        assert_eq!(
            sites[0].get("previous").and_then(Json::as_str),
            Some("read")
        );
        assert_eq!(
            sites[0].get("class").and_then(Json::as_str),
            Some("inter-block")
        );
    }

    #[test]
    fn repro_block_round_trips_and_attaches() {
        let repro = ReproInfo {
            seed: 7,
            warp_size: 16,
            memory_model: "kepler".to_string(),
            chaos_seed: Some(99),
            sched_policy: "random".to_string(),
            sched_seed: 3,
        };
        let j = parse(&repro.to_json()).unwrap();
        assert_eq!(j.get("seed").and_then(Json::as_u64), Some(7));
        assert_eq!(j.get("warp_size").and_then(Json::as_u64), Some(16));
        assert_eq!(j.get("memory_model").and_then(Json::as_str), Some("kepler"));
        assert_eq!(j.get("chaos_seed").and_then(Json::as_u64), Some(99));
        assert_eq!(j.get("sched_policy").and_then(Json::as_str), Some("random"));
        assert_eq!(j.get("sched_seed").and_then(Json::as_u64), Some(3));

        let doc = parse(&to_json_full(&sample_analysis(), &[], &repro)).unwrap();
        let r = doc.get("repro").expect("repro object");
        assert_eq!(r.get("chaos_seed").and_then(Json::as_u64), Some(99));
        assert!(repro.human_line().contains("chaos-seed=99"));
        assert!(repro.human_line().contains("sched=random/3"));

        let none = ReproInfo {
            chaos_seed: None,
            ..repro
        };
        let j = parse(&none.to_json()).unwrap();
        assert_eq!(j.get("chaos_seed"), Some(&Json::Null));
    }

    #[test]
    fn repro_from_config_reads_every_knob() {
        use crate::{BarracudaConfig, FaultPlan};
        use barracuda_simt::{MemoryModel, SchedPolicy};
        let mut cfg = BarracudaConfig::default();
        cfg.gpu.seed = 41;
        cfg.gpu.memory_model = MemoryModel::MaxwellTitanX;
        cfg.fault_plan = Some(FaultPlan::stalls_only(5));
        cfg.interleave_kernels = true;
        cfg.scheduler = SchedPolicy::StarveOne(8);
        let r = ReproInfo::from_config(&cfg, 8);
        assert_eq!(r.seed, 41);
        assert_eq!(r.warp_size, 8);
        assert_eq!(r.memory_model, "maxwell");
        assert_eq!(r.chaos_seed, Some(5));
        assert_eq!((r.sched_policy.as_str(), r.sched_seed), ("starve", 8));
        // Eager (non-interleaved) runs record the policy as inert.
        cfg.interleave_kernels = false;
        assert_eq!(ReproInfo::from_config(&cfg, 8).sched_policy, "eager");
    }

    #[test]
    fn dump_round_trips_documents() {
        let doc = to_json_with_launches(&sample_analysis(), &[]);
        let parsed = parse(&doc).unwrap();
        // dump() is canonical (sorted keys), so parse∘dump is a fixpoint.
        assert_eq!(parse(&parsed.dump()).unwrap(), parsed);
        let tricky = Json::Obj(BTreeMap::from([
            ("s".to_string(), Json::Str("a\"b\\c\nd".to_string())),
            ("n".to_string(), Json::Num(-3.5)),
            ("i".to_string(), Json::Num(42.0)),
            (
                "z".to_string(),
                Json::Arr(vec![Json::Null, Json::Bool(true)]),
            ),
        ]));
        assert_eq!(parse(&tricky.dump()).unwrap(), tricky);
        assert!(tricky.dump().contains("\"i\":42,"), "{}", tricky.dump());
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "{\"a\":1} x", "\"unterminated"] {
            assert!(parse(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn parser_handles_nested_structures_and_escapes() {
        let j = parse(r#"{"a":[1,2,{"b":"x\ny"}],"c":null,"d":-3.5,"e":true}"#).unwrap();
        assert_eq!(
            j.get("a").and_then(Json::as_arr).unwrap()[2]
                .get("b")
                .and_then(Json::as_str),
            Some("x\ny")
        );
        assert_eq!(j.get("c"), Some(&Json::Null));
        assert_eq!(j.get("d"), Some(&Json::Num(-3.5)));
        assert_eq!(j.get("e"), Some(&Json::Bool(true)));
    }
}
