//! JSON: the one value type, writer and parser of every document the
//! repo emits, and the `barracuda check --stats-json` schema.
//!
//! [`document`] builds the stats document of one analysis: the verdict,
//! race/diagnostic breakdown and the full [`crate::AnalysisStats`]
//! including the pipeline telemetry (queue high-water marks, producer
//! stall cycles, per-worker event counts, drop counts), plus the engine's
//! per-launch summaries and the repro block when given. The serve wire
//! protocol and the fleet journal and report build their documents as
//! [`Json`] trees too, so [`Json::dump`] is the only JSON writer and
//! [`parse`] the only reader. Objects dump their keys in `BTreeMap`
//! order; key order is not part of any schema.
//!
//! The build environment has no registry access, so — in the same spirit
//! as the `vendor/` shims — there is no serde. [`parse`] reads untrusted
//! input (the serve transports feed it client lines): nesting deeper than
//! [`MAX_DEPTH`] is an error rather than a stack overflow, and a number
//! keeps its literal text, so integers of any width round-trip exactly.

use crate::analysis::{Analysis, StreamTelemetry, WorkerTelemetry};
use crate::engine::LaunchSummary;
use barracuda_core::{Diagnostic, RaceClass, RaceReport};
use barracuda_trace::MemSpace;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its literal JSON text (`42`, `-3.5`, `1e6`), so
    /// integers of any width dump and parse back exactly.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, key-ordered for deterministic comparison.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// An object from `(key, value)` fields.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The value at `key` of an object, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Serializes this value to JSON text (the inverse of [`parse`];
    /// object keys come out in `BTreeMap` order, so `parse(x).dump()` is
    /// a canonical form).
    pub fn dump(&self) -> String {
        let mut s = String::new();
        self.dump_into(&mut s);
        s
    }

    fn dump_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(n),
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

    /// This value as an integer, if it is a whole number: exactly for an
    /// integer literal, through `f64` for other spellings (`1e6`).
    pub fn as_u64(&self) -> Option<u64> {
        let Json::Num(text) = self else { return None };
        text.parse().ok().or_else(|| {
            let n: f64 = text.parse().ok()?;
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            (n >= 0.0 && n.fract() == 0.0).then_some(n as u64)
        })
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

/// `From<$t>` for each listed type, wrapping `v.$conv()` in `Json::$variant`.
macro_rules! json_from {
    ($variant:ident, $conv:ident: $($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::$variant(v.$conv())
            }
        }
    )*};
}
json_from!(Num, to_string: u8, u32, u64, usize, u128);
json_from!(Str, into: &str, String);
json_from!(Bool, into: bool);
json_from!(Arr, into: Vec<Json>);

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl FromIterator<Json> for Json {
    fn from_iter<I: IntoIterator<Item = Json>>(iter: I) -> Json {
        Json::Arr(iter.into_iter().collect())
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

/// The `--stats-json` document of one analysis. `launches` adds the
/// engine's per-launch summaries (launch order, stream, kernel and the
/// races each launch exposed, including inter-kernel and host-device
/// races only a persistent engine can see); `repro` adds the repro block.
pub fn document(
    a: &Analysis,
    launches: Option<&[LaunchSummary]>,
    repro: Option<&ReproInfo>,
) -> Json {
    let verdict = if a.race_count() > 0 {
        "race"
    } else if a.diagnostics().is_empty() {
        "clean"
    } else {
        "diagnostic"
    };
    let (shared, global) = a.space_counts();
    let st = a.stats();
    let (c, ins, sp, p) = (
        st.format_census,
        &st.instrument,
        &st.shadow_paths,
        &st.pipeline,
    );
    let census = |c: [u64; 4]| Json::Arr(c.map(Json::from).into());
    let race_classes = Json::obj([
        ("intra_warp", a.count_class(RaceClass::IntraWarp).into()),
        ("divergence", a.count_class(RaceClass::Divergence).into()),
        ("intra_block", a.count_class(RaceClass::IntraBlock).into()),
        ("inter_block", a.count_class(RaceClass::InterBlock).into()),
        ("inter_kernel", a.count_class(RaceClass::InterKernel).into()),
        ("host_device", a.count_class(RaceClass::HostDevice).into()),
    ]);
    let spaces = Json::obj([("shared", shared.into()), ("global", global.into())]);
    let diagnostics: Json = a.diagnostics().iter().map(diagnostic).collect();
    let ptvc_histogram = Json::obj([
        ("converged", c[0].into()),
        ("diverged", c[1].into()),
        ("nested_diverged", c[2].into()),
        ("sparse_vc", c[3].into()),
    ]);
    let launch = Json::obj([
        ("instructions", st.launch.instructions.into()),
        ("barriers", st.launch.barriers.into()),
    ]);
    let instrument = Json::obj([
        ("static_instructions", ins.static_instructions.into()),
        (
            "instrumented_instructions",
            ins.instrumented_instructions.into(),
        ),
        ("log_calls", ins.log_calls.into()),
        ("pruned", ins.pruned.into()),
    ]);
    let shadow_fast_path = Json::obj([
        ("batched_records", sp.batched_records.into()),
        ("page_locks", sp.page_locks.into()),
        ("word_merges", sp.word_merges.into()),
        ("word_fallbacks", sp.word_fallbacks.into()),
        ("uniform_records", sp.uniform_records.into()),
        ("cell_checks", sp.cell_checks.into()),
    ]);
    let worker = |w: &WorkerTelemetry| {
        Json::obj([
            ("worker", w.worker.into()),
            ("events", w.events.into()),
            ("format_census", census(w.format_census)),
            ("corrupt_records", w.corrupt_records.into()),
            ("panicked", w.panicked.into()),
        ])
    };
    let stream = |t: &StreamTelemetry| {
        Json::obj([
            ("stream", t.stream.into()),
            ("launches", t.launches.into()),
            ("records", t.records.into()),
            ("dropped", t.dropped.into()),
            ("stall_cycles", t.stall_cycles.into()),
            ("peak_depth", t.peak_depth.into()),
        ])
    };
    let pipeline = Json::obj([
        ("queues", p.queues.into()),
        ("queue_high_water", p.queue_high_water.into()),
        ("producer_stall_cycles", p.producer_stall_cycles.into()),
        ("records_dropped", p.records_dropped.into()),
        ("records_corrupt", p.records_corrupt.into()),
        ("worker_panics", p.worker_panics.into()),
        ("per_worker", p.per_worker.iter().map(worker).collect()),
        ("per_stream", p.per_stream.iter().map(stream).collect()),
    ]);
    let stats = Json::obj([
        ("records", st.records.into()),
        ("events", st.events.into()),
        ("format_census", census(c)),
        ("ptvc_histogram", ptvc_histogram),
        ("sync_locations", st.sync_locations.into()),
        ("shadow_pages", st.shadow_pages.into()),
        ("shadow_bytes", st.shadow_bytes.into()),
        ("detection_time_us", st.detection_time.as_micros().into()),
        ("launch", launch),
        ("instrument", instrument),
        ("shadow_fast_path", shadow_fast_path),
        ("pipeline", pipeline),
    ]);
    let doc = [
        ("verdict", verdict.into()),
        ("degraded", a.is_degraded().into()),
        ("races", a.race_count().into()),
        ("race_classes", race_classes),
        ("spaces", spaces),
        ("race_sites", a.races().iter().map(race_site).collect()),
        ("diagnostics", diagnostics),
        ("stats", stats),
    ];
    let launch = |l: &LaunchSummary| {
        Json::obj([
            ("epoch", l.epoch.into()),
            ("stream", l.stream.into()),
            ("kernel", l.kernel.as_str().into()),
            ("races", l.races.into()),
            ("records", l.records.into()),
            ("events", l.events.into()),
        ])
    };
    let launches = launches.map(|ls| ("launches", ls.iter().map(launch).collect()));
    let repro = repro.map(|r| {
        let block = Json::obj([
            ("seed", r.seed.into()),
            ("warp_size", r.warp_size.into()),
            ("memory_model", r.memory_model.as_str().into()),
            ("chaos_seed", r.chaos_seed.into()),
            ("sched_policy", r.sched_policy.as_str().into()),
            ("sched_seed", r.sched_seed.into()),
        ]);
        ("repro", block)
    });
    Json::obj(doc.into_iter().chain(launches).chain(repro))
}

/// One race's site record: the static signature of its report, the fleet
/// aggregator's dedup input. The engine does not (yet) thread instruction
/// PCs into shadow state, so a site is identified by the pair of access
/// kinds plus the racy byte address — stable across seeds and warp sizes
/// for deterministic corpora.
fn race_site(r: &RaceReport) -> Json {
    let space = match r.space {
        MemSpace::Shared => "shared",
        MemSpace::Global => "global",
    };
    Json::obj([
        ("space", space.into()),
        ("block", r.block.into()),
        ("addr", r.addr.into()),
        ("current", r.current.1.to_string().into()),
        ("previous", r.previous.1.to_string().into()),
        ("class", r.class.to_string().into()),
    ])
}

fn diagnostic(d: &Diagnostic) -> Json {
    match d {
        Diagnostic::BarrierDivergence { block } => Json::obj([
            ("kind", "barrier_divergence".into()),
            ("block", (*block).into()),
        ]),
        Diagnostic::WorkerPanic { worker, message } => Json::obj([
            ("kind", "worker_panic".into()),
            ("worker", (*worker).into()),
            ("message", message.as_str().into()),
        ]),
        Diagnostic::LostRecords { dropped, corrupt } => Json::obj([
            ("kind", "lost_records".into()),
            ("dropped", (*dropped).into()),
            ("corrupt", (*corrupt).into()),
        ]),
    }
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
    /// Builds the repro block from an engine configuration plus the
    /// per-run warp size.
    pub fn from_config(config: &crate::BarracudaConfig, warp_size: u32) -> Self {
        use barracuda_simt::SchedPolicy;
        let (sched_policy, sched_seed) = match config.interleave {
            None => ("eager", 0),
            Some(SchedPolicy::RoundRobin) => ("rr", 0),
            Some(SchedPolicy::Random(s)) => ("random", s),
            Some(SchedPolicy::StarveOne(s)) => ("starve", s),
        };
        ReproInfo {
            seed: config.gpu.seed,
            warp_size,
            memory_model: config.gpu.memory_model.to_string(),
            chaos_seed: config.fault_plan.as_ref().map(|p| p.seed),
            sched_policy: sched_policy.to_string(),
            sched_seed,
        }
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

/// Deepest array/object nesting [`parse`] accepts. The deepest document
/// the repo emits has five levels; the cap keeps a hostile line from
/// overflowing the stack of the thread that parses it.
pub const MAX_DEPTH: usize = 64;

/// Parses a JSON document: objects, arrays, strings, numbers, booleans
/// and null, nested at most [`MAX_DEPTH`] deep.
///
/// # Errors
///
/// Returns a message describing the first syntax error, or the nesting
/// that went past [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos, 0)?;
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

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos))
        }
        Some(b'{') => parse_obj(b, pos, depth + 1),
        Some(b'[') => parse_arr(b, pos, depth + 1),
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
    // The scanned bytes are ASCII; `f64` parsing only validates them.
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .filter(|s| s.parse::<f64>().is_ok())
        .map(|s| Json::Num(s.to_string()))
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_str(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or backslash at once; both
        // are ASCII, so the run is whole UTF-8 of the input `&str`.
        let run = b[*pos..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\')
            .ok_or("unterminated string")?;
        out.push_str(std::str::from_utf8(&b[*pos..*pos + run]).map_err(|e| e.to_string())?);
        *pos += run + 1;
        if b[*pos - 1] == b'"' {
            return Ok(out);
        }
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
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
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
        let val = parse_value(b, pos, depth)?;
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

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut v = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(v));
    }
    loop {
        v.push(parse_value(b, pos, depth)?);
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
    use crate::analysis::{AnalysisStats, PipelineStats};
    use barracuda_core::{AccessType, PathStats};
    use barracuda_trace::Tid;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// `to_json_full(&sample_analysis(), &launches(), &repro())` as the
    /// format-string serializer wrote it, before `document` replaced it.
    /// Key order differs now; the tree must not.
    const PARENT_FULL_DOCUMENT: &str = r#"{"verdict":"race","degraded":true,"races":1,"race_classes":{"intra_warp":0,"divergence":0,"intra_block":0,"inter_block":1,"inter_kernel":0,"host_device":0},"spaces":{"shared":0,"global":1},"race_sites":[{"space":"global","block":null,"addr":64,"current":"write","previous":"read","class":"inter-block"}],"diagnostics":[{"kind":"worker_panic","worker":1,"message":"chaos \"quoted\""},{"kind":"lost_records","dropped":6,"corrupt":2}],"stats":{"records":128,"events":120,"format_census":[100,12,5,3],"ptvc_histogram":{"converged":100,"diverged":12,"nested_diverged":5,"sparse_vc":3},"sync_locations":2,"shadow_pages":1,"shadow_bytes":4096,"detection_time_us":0,"launch":{"instructions":0,"barriers":0},"instrument":{"static_instructions":0,"instrumented_instructions":0,"log_calls":0,"pruned":0},"shadow_fast_path":{"batched_records":40,"page_locks":44,"word_merges":30,"word_fallbacks":3,"uniform_records":38,"cell_checks":55},"pipeline":{"queues":4,"queue_high_water":37,"producer_stall_cycles":991,"records_dropped":6,"records_corrupt":2,"worker_panics":1,"per_worker":[{"worker":0,"events":120,"format_census":[100,12,5,3],"corrupt_records":2,"panicked":false},{"worker":1,"events":0,"format_census":[0,0,0,0],"corrupt_records":0,"panicked":true}],"per_stream":[{"stream":0,"launches":2,"records":128,"dropped":6,"stall_cycles":991,"peak_depth":37}]}},"launches":[{"epoch":0,"stream":0,"kernel":"k\"q\"","races":2,"records":100,"events":99},{"epoch":1,"stream":3,"kernel":"other","races":0,"records":5,"events":5}],"repro":{"seed":7,"warp_size":16,"memory_model":"kepler","chaos_seed":99,"sched_policy":"random","sched_seed":3}}"#;

    fn launches() -> Vec<LaunchSummary> {
        vec![
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
        ]
    }

    fn repro() -> ReproInfo {
        ReproInfo {
            seed: 7,
            warp_size: 16,
            memory_model: "kepler".to_string(),
            chaos_seed: Some(99),
            sched_policy: "random".to_string(),
            sched_seed: 3,
        }
    }

    /// The analysis-only document, through its text.
    fn emitted(a: &Analysis) -> Json {
        parse(&document(a, None, None).dump()).expect("valid json")
    }

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
        let j = emitted(&sample_analysis());
        assert_eq!(j.get("verdict").and_then(Json::as_str), Some("race"));
        assert_eq!(j.get("degraded"), Some(&Json::Bool(true)));
        assert_eq!(j.get("races").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn schema_round_trips_every_field() {
        let j = emitted(&sample_analysis());
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
        let j = emitted(&sample_analysis());
        let classes = j.get("race_classes").expect("race_classes object");
        assert_eq!(classes.get("inter_kernel").and_then(Json::as_u64), Some(0));
        assert_eq!(classes.get("host_device").and_then(Json::as_u64), Some(0));
        assert_eq!(classes.get("inter_block").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn launches_array_round_trips() {
        let doc = parse(&document(&sample_analysis(), Some(&launches()), None).dump()).unwrap();
        assert_eq!(doc.get("verdict").and_then(Json::as_str), Some("race"));
        assert!(doc.get("repro").is_none(), "no repro block unless given");
        let arr = doc.get("launches").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("kernel").and_then(Json::as_str), Some("k\"q\""));
        assert_eq!(arr[0].get("races").and_then(Json::as_u64), Some(2));
        assert_eq!(arr[1].get("stream").and_then(Json::as_u64), Some(3));
        assert_eq!(arr[1].get("epoch").and_then(Json::as_u64), Some(1));
        let empty = document(&sample_analysis(), Some(&[]), None);
        assert_eq!(empty.get("launches"), Some(&Json::Arr(vec![])));
        assert!(emitted(&sample_analysis()).get("launches").is_none());
    }

    #[test]
    fn race_sites_round_trip() {
        let j = emitted(&sample_analysis());
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
        let repro = repro();
        let doc = parse(&document(&sample_analysis(), None, Some(&repro)).dump()).unwrap();
        let j = doc.get("repro").expect("repro object");
        assert_eq!(j.get("seed").and_then(Json::as_u64), Some(7));
        assert_eq!(j.get("warp_size").and_then(Json::as_u64), Some(16));
        assert_eq!(j.get("memory_model").and_then(Json::as_str), Some("kepler"));
        assert_eq!(j.get("chaos_seed").and_then(Json::as_u64), Some(99));
        assert_eq!(j.get("sched_policy").and_then(Json::as_str), Some("random"));
        assert_eq!(j.get("sched_seed").and_then(Json::as_u64), Some(3));

        assert!(repro.human_line().contains("chaos-seed=99"));
        assert!(repro.human_line().contains("sched=random/3"));

        let none = ReproInfo {
            chaos_seed: None,
            ..repro
        };
        let doc = document(&sample_analysis(), None, Some(&none));
        assert_eq!(
            doc.get("repro").unwrap().get("chaos_seed"),
            Some(&Json::Null)
        );
    }

    #[test]
    fn repro_from_config_reads_every_knob() {
        use crate::{BarracudaConfig, FaultPlan};
        use barracuda_simt::{MemoryModel, SchedPolicy};
        let mut cfg = BarracudaConfig::default();
        cfg.gpu.seed = 41;
        cfg.gpu.memory_model = MemoryModel::MaxwellTitanX;
        cfg.fault_plan = Some(FaultPlan::stalls_only(5));
        cfg.interleave = Some(SchedPolicy::StarveOne(8));
        let r = ReproInfo::from_config(&cfg, 8);
        assert_eq!(r.seed, 41);
        assert_eq!(r.warp_size, 8);
        assert_eq!(r.memory_model, "maxwell");
        assert_eq!(r.chaos_seed, Some(5));
        assert_eq!((r.sched_policy.as_str(), r.sched_seed), ("starve", 8));
        cfg.interleave = None;
        assert_eq!(ReproInfo::from_config(&cfg, 8).sched_policy, "eager");
    }

    #[test]
    fn dump_round_trips_documents() {
        let doc = document(&sample_analysis(), Some(&[]), None);
        // dump() is canonical (sorted keys), so parse∘dump is a fixpoint.
        assert_eq!(parse(&doc.dump()).unwrap(), doc);
        let tricky = Json::obj([
            ("s", "a\"b\\c\nd".into()),
            ("n", Json::Num("-3.5".to_string())),
            ("i", 42u64.into()),
            ("z", vec![Json::Null, true.into()].into()),
        ]);
        assert_eq!(parse(&tricky.dump()).unwrap(), tricky);
        assert!(tricky.dump().contains("\"i\":42,"), "{}", tricky.dump());
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "{\"a\":1} x",
            "\"unterminated",
            "-",
            "1.2.3",
            "1e",
            "--1",
            "1-",
        ] {
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
        assert_eq!(j.get("d"), Some(&Json::Num("-3.5".to_string())));
        assert_eq!(j.get("e"), Some(&Json::Bool(true)));
    }

    #[test]
    fn parent_text_parses_to_the_same_tree() {
        let doc = document(&sample_analysis(), Some(&launches()), Some(&repro()));
        assert_eq!(parse(PARENT_FULL_DOCUMENT).unwrap(), doc);
        assert_eq!(parse(&doc.dump()).unwrap(), doc);
    }

    #[test]
    fn integers_parse_and_dump_exactly() {
        for n in [0, 1 << 53, (1 << 53) + 1, u64::MAX - 1, u64::MAX] {
            let text = format!("{{\"seed\":{n}}}");
            let j = parse(&text).unwrap();
            assert_eq!(j.get("seed").and_then(Json::as_u64), Some(n));
            assert_eq!(j.dump(), text);
            assert_eq!(Json::from(n), j.get("seed").unwrap().clone());
        }
        // Other spellings of a whole number keep their meaning.
        for (text, n) in [
            ("1e6", Some(1_000_000)),
            ("2.0", Some(2)),
            ("2.5", None),
            ("-1", None),
        ] {
            assert_eq!(parse(text).unwrap().as_u64(), n, "{text}");
        }
        assert_eq!(
            parse("18446744073709551616").unwrap().dump(),
            "18446744073709551616"
        );
    }

    #[test]
    fn nesting_past_the_depth_cap_is_an_error_not_a_stack_overflow() {
        // The default 2 MiB stack, as on the serve transports' connection
        // handler threads.
        let errors = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let deep_arr = "[".repeat(1 << 20);
                let deep_obj = "{\"a\":".repeat(1 << 20);
                [parse(&deep_arr), parse(&deep_obj)].map(|r| r.unwrap_err())
            })
            .expect("spawn")
            .join()
            .expect("no panic");
        for e in errors {
            assert!(e.contains("nesting deeper than 64"), "{e}");
        }
        let nested = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn a_long_string_parses_in_linear_time() {
        // A wire line carries a whole PTX module as one string. Re-checking
        // the rest of the input per character took ~0.7 s for 256 KiB and
        // grew with the square of the length.
        let ptx = "ptx é\n".repeat(1 << 19);
        let text = Json::from(ptx.as_str()).dump();
        let started = std::time::Instant::now();
        assert_eq!(parse(&text).unwrap().as_str(), Some(ptx.as_str()));
        let took = started.elapsed();
        assert!(took < std::time::Duration::from_secs(2), "{took:?}");
    }

    /// Trees of depth ≤ `depth` over strings with quotes, backslashes,
    /// control characters and non-ASCII text, and integers over all of
    /// `u64`.
    struct Trees {
        depth: u32,
    }

    fn string(rng: &mut TestRng) -> String {
        const ALPHABET: [char; 12] = [
            'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\u{1}', '\u{1f}', 'é', '😀',
        ];
        (0..rng.range(0..8usize))
            .map(|_| ALPHABET[rng.range(0..ALPHABET.len())])
            .collect()
    }

    fn tree(rng: &mut TestRng, depth: u32) -> Json {
        let leaf = depth == 0 || rng.range(0..3u32) == 0;
        match rng.range(0..if leaf { 5u32 } else { 7 }) {
            0 => Json::Null,
            1 => rng.any::<bool>().into(),
            2 => rng.any::<u64>().into(),
            3 => Json::Num(["-7", "-3.5", "0.25", "1e6"][rng.range(0..4usize)].to_string()),
            4 => string(rng).into(),
            5 => (0..rng.range(0..4usize))
                .map(|_| tree(rng, depth - 1))
                .collect(),
            _ => Json::obj((0..rng.range(0..4usize)).map(|_| (string(rng), tree(rng, depth - 1)))),
        }
    }

    impl Strategy for Trees {
        type Value = Json;
        fn sample(&self, rng: &mut TestRng) -> Json {
            tree(rng, self.depth)
        }
    }

    /// Arbitrary bytes, biased towards JSON punctuation so the parser
    /// gets past its first byte, read as lossy UTF-8.
    fn hostile_text() -> impl Strategy<Value = String> {
        const BYTES: &[u8] = b"{}[]\":,\\-+.eE0123456789 truefalsn\xc3\xa9\xff";
        prop::collection::vec((any::<bool>(), any::<u8>()), 0..64).prop_map(|v| {
            let bytes: Vec<u8> = v
                .into_iter()
                .map(|(raw, b)| {
                    if raw {
                        b
                    } else {
                        BYTES[usize::from(b) % BYTES.len()]
                    }
                })
                .collect();
            String::from_utf8_lossy(&bytes).into_owned()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn parse_inverts_dump(j in Trees { depth: 6 }) {
            prop_assert_eq!(parse(&j.dump()), Ok(j));
        }

        #[test]
        fn parse_never_panics_on_hostile_text(text in hostile_text()) {
            if let Ok(j) = parse(&text) {
                prop_assert_eq!(parse(&j.dump()), Ok(j));
            }
        }
    }
}
