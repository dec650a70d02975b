//! Benchmark harness for the CHOP partitioner and its service.
//!
//! Runs one workload for a fixed time, checks every op's output and
//! prints a report ending in one JSON line. `--trace 1` instead measures
//! every layer from outside (see `ledger`). Usually driven by `run.py`,
//! which builds this harness and the `chop` binary first.

mod inproc;
mod ledger;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use chop_service::json::{obj, Value};
use stats::Samples;
use trace::Tracer;

/// Deterministic work counters of a fixed amount of work, by name.
pub type Counters = BTreeMap<&'static str, u64>;

/// Set-ups per run of the in-process workloads; the reported `setup_s`
/// is their median.
const SETUPS: usize = 3;
/// Set-ups per `serve_routed` run: each is ~40 ms, so more of them cost
/// little and steady the median.
const SERVE_SETUPS: usize = 5;

/// The timing of one op.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    pub latency: Duration,
    /// The op's read-only part, if it has one.
    pub read: Option<Duration>,
    /// The op's state-changing part, if it has one.
    pub write: Option<Duration>,
    /// Whether the output passed its check.
    pub ok: bool,
}

impl OpRecord {
    pub fn failed(latency: Duration) -> Self {
        OpRecord { latency, read: None, write: None, ok: false }
    }
}

/// Everything one timed loop measured.
#[derive(Debug, Default)]
pub struct LoopResult {
    pub latency: Samples,
    pub read: Samples,
    pub write: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub elapsed: Duration,
    /// Predictor calls made by the timed ops (0 on a warm workload).
    pub predictor_calls: u64,
    /// Nanoseconds the engine reported in its predict stage.
    pub predict_ns: u64,
    /// Op latency (ms) per input, for in-process workloads.
    pub by_case: BTreeMap<String, Samples>,
}

impl LoopResult {
    pub fn record(&mut self, r: &OpRecord) {
        self.attempted += 1;
        if !r.ok {
            self.failed += 1;
        }
        self.latency.push_duration_ms(r.latency);
        if let Some(d) = r.read {
            self.read.push_duration_ms(d);
        }
        if let Some(d) = r.write {
            self.write.push_duration_ms(d);
        }
    }

    pub fn merge(&mut self, other: LoopResult) {
        self.latency.extend(&other.latency);
        self.read.extend(&other.read);
        self.write.extend(&other.write);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.elapsed += other.elapsed;
        self.predictor_calls += other.predictor_calls;
        self.predict_ns += other.predict_ns;
        for (case, samples) in other.by_case {
            self.by_case.entry(case).or_default().extend(&samples);
        }
    }

    fn ops_per_s(&self) -> f64 {
        self.attempted as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (1 for a count or a single measurement).
    pub samples: u64,
    /// Whether the value goes on the result line; a layer counter that
    /// reads 0 on these inputs is only printed.
    pub listed: bool,
}

impl Metric {
    pub fn new(
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        samples: usize,
    ) -> Self {
        Metric { name: name.into(), unit, value, samples: samples as u64, listed: true }
    }

    pub fn info(
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        samples: usize,
    ) -> Self {
        Metric { listed: false, ..Metric::new(name, unit, value, samples) }
    }
}

/// Runs `op` in a closed loop for `seconds`, always finishing the pass
/// over the `cases` inputs it is in, so every input weighs the same.
fn closed_loop(
    seconds: f64,
    cases: usize,
    first_op: &mut u64,
    mut op: impl FnMut(u64, &mut LoopResult),
) -> LoopResult {
    let mut out = LoopResult::default();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut i = 0u64;
    while !i.is_multiple_of(cases as u64) || Instant::now() < deadline {
        op(*first_op + i, &mut out);
        i += 1;
    }
    *first_op += i;
    out.elapsed = started.elapsed();
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ExploreCold,
    WhatifWarm,
    ServeRouted,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "explore_cold" => Some(Workload::ExploreCold),
            "whatif_warm" => Some(Workload::WhatifWarm),
            "serve_routed" => Some(Workload::ServeRouted),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ExploreCold => "explore_cold",
            Workload::WhatifWarm => "whatif_warm",
            Workload::ServeRouted => "serve_routed",
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    counters_only: bool,
    chop: PathBuf,
    state_dir: PathBuf,
    jobs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 7;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut counters_only = false;
    let mut chop = None;
    let mut state_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => trace = value()? == "1",
            "--counters" => counters_only = true,
            "--chop" => chop = Some(PathBuf::from(value()?)),
            "--state-dir" => state_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown option {other}")),
        }
    }
    let jobs = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        counters_only,
        chop: chop.ok_or("--chop is required")?,
        state_dir: state_dir.ok_or("--state-dir is required")?,
        jobs,
    })
}

/// What a workload run hands back for reporting.
struct RunOutput {
    setup: Samples,
    counters: Counters,
    /// The timed loop (untraced; the traced run's untraced half).
    timed: LoopResult,
    /// The traced loop, in a traced run.
    traced: Option<LoopResult>,
    tracers: Vec<Tracer>,
    peak_rss_mb: f64,
    /// Layer metrics (traced run only).
    layers: Vec<Metric>,
    /// Isolation findings: (description, holds).
    isolation: Vec<(String, bool)>,
    /// Client connections (or callers) the workload drove.
    connections: usize,
    /// Worker threads of the sessions doing the work.
    jobs: usize,
    chop_binary: Option<PathBuf>,
}

/// Times `setups` set-ups, keeping the last instance. Every set-up must
/// produce the same work counters.
fn timed_setups<T>(
    setups: usize,
    mut setup: impl FnMut() -> Result<(T, Counters), String>,
) -> Result<(T, Counters, Samples), String> {
    let mut times = Samples::default();
    let mut kept: Option<(T, Counters)> = None;
    for _ in 0..setups {
        // The previous instance goes first: a cluster frees its ports.
        let first = kept.take().map(|(_, counters)| counters);
        let started = Instant::now();
        let (value, counters) = setup()?;
        times.push(started.elapsed().as_secs_f64());
        if first.is_some_and(|f| f != counters) {
            return Err("set-up work counters differ between set-ups".into());
        }
        kept = Some((value, counters));
    }
    let (value, counters) = kept.ok_or("no set-up ran")?;
    Ok((value, counters, times))
}

/// Runs the timed loop, or in a traced run four alternating untraced and
/// traced quarters so host speed drifts hit both halves alike. `phase`
/// runs one loop of `(seconds, traced, next op number)` and returns it
/// with its span recorders.
fn run_phases(
    args: &Args,
    mut phase: impl FnMut(f64, bool, &mut u64) -> Result<(LoopResult, Vec<Tracer>), String>,
) -> Result<(LoopResult, Option<LoopResult>, Vec<Tracer>), String> {
    let mut next_op = 0u64;
    if !args.trace {
        let (timed, _) = phase(args.seconds, false, &mut next_op)?;
        return Ok((timed, None, Vec::new()));
    }
    let (mut plain, mut traced, mut tracers) =
        (LoopResult::default(), LoopResult::default(), Vec::new());
    for quarter in 0..4 {
        let on = quarter % 2 == 1;
        let (result, ts) = phase(args.seconds / 4.0, on, &mut next_op)?;
        if on {
            traced.merge(result);
            tracers.extend(ts);
        } else {
            plain.merge(result);
        }
    }
    Ok((plain, Some(traced), tracers))
}

fn self_rss() -> f64 {
    stats::peak_rss_mb("self").unwrap_or(0.0)
}

fn run_explore_cold(args: &Args) -> Result<RunOutput, String> {
    let origin = Instant::now();
    let (w, counters, setup) =
        timed_setups(SETUPS, || inproc::ExploreCold::setup(args.seed, args.jobs))?;
    let (timed, traced, tracers) = run_phases(args, |s, on, next| {
        let mut t = Tracer::new(on, origin);
        let result = closed_loop(s, w.len(), next, |i, out| {
            let (r, trace) = w.op(i, &mut t);
            out.by_case.entry(w.case_name(i)).or_default().push_duration_ms(r.latency);
            if let Some(trace) = trace {
                out.predictor_calls += trace.predictor_calls;
                out.predict_ns += trace.predict_ns;
            }
            out.record(&r);
        });
        Ok((result, vec![t]))
    })?;
    let mut isolation = Vec::new();
    if args.trace {
        let halves = std::iter::once(&timed).chain(&traced);
        let (predict_ns, op_ms) =
            halves.fold((0u64, 0.0), |(ns, ms), h| (ns + h.predict_ns, ms + h.latency.sum()));
        let share = predict_ns as f64 / 1e6 / op_ms.max(1e-9);
        isolation.push((
            format!("predict stage is {:.1}% of op time (need >= 80%)", share * 100.0),
            share >= 0.8,
        ));
    }
    let layers = if args.trace { ledger::all(args)? } else { Vec::new() };
    Ok(RunOutput {
        setup,
        counters,
        timed,
        traced,
        tracers,
        peak_rss_mb: self_rss(),
        layers,
        isolation,
        connections: 1,
        jobs: args.jobs,
        chop_binary: None,
    })
}

fn run_whatif_warm(args: &Args) -> Result<RunOutput, String> {
    let origin = Instant::now();
    let (w, counters, setup) = timed_setups(SETUPS, || inproc::WhatifWarm::setup(args.seed))?;
    let (timed, traced, tracers) = run_phases(args, |s, on, next| {
        let mut t = Tracer::new(on, origin);
        let result = closed_loop(s, w.len(), next, |i, out| {
            let (r, misses) = w.op(i, &mut t);
            out.by_case.entry(w.case_name(i)).or_default().push_duration_ms(r.latency);
            out.predictor_calls += misses;
            out.record(&r);
        });
        Ok((result, vec![t]))
    })?;
    let calls = timed.predictor_calls + traced.as_ref().map_or(0, |t| t.predictor_calls);
    let isolation =
        vec![(format!("{calls} predictor call(s) after set-up (need 0)"), calls == 0)];
    let layers = if args.trace { ledger::all(args)? } else { Vec::new() };
    Ok(RunOutput {
        setup,
        counters,
        timed,
        traced,
        tracers,
        peak_rss_mb: self_rss(),
        layers,
        isolation,
        connections: 1,
        jobs: inproc::WHATIF_JOBS,
        chop_binary: None,
    })
}

fn run_serve_routed(args: &Args) -> Result<RunOutput, String> {
    let origin = Instant::now();
    let mut attempt = 0usize;
    let (w, counters, setup) = timed_setups(SERVE_SETUPS, || {
        attempt += 1;
        let dir = args.state_dir.join(format!("serve-{attempt}"));
        serve::ServeRouted::setup(&args.chop, &dir, args.seed)
    })?;
    let (timed, traced, tracers) = run_phases(args, |s, on, next| w.run(s, on, origin, next))?;
    let calls = timed.predictor_calls + traced.as_ref().map_or(0, |t| t.predictor_calls);
    let isolation =
        vec![(format!("{calls} predictor call(s) after set-up (need 0)"), calls == 0)];
    let peak_rss_mb = w.primary_peak_rss_mb().ok_or("cannot read the primary's VmHWM")?;
    let layers = if args.trace { ledger::all(args)? } else { Vec::new() };
    Ok(RunOutput {
        setup,
        counters,
        timed,
        traced,
        tracers,
        peak_rss_mb,
        layers,
        isolation,
        connections: serve::CONNECTIONS,
        jobs: args.jobs,
        chop_binary: Some(args.chop.clone()),
    })
}

/// The end-to-end metrics of a timed loop.
fn end_to_end(out: &mut RunOutput) -> Vec<Metric> {
    let setup_n = out.setup.len();
    let t = &mut out.timed;
    let n = t.latency.len();
    vec![
        Metric::new("setup_s", "s", out.setup.median(), setup_n),
        Metric::new("ops_per_s", "1/s", t.ops_per_s(), n),
        Metric::new("latency_p50_ms", "ms", t.latency.quantile(0.5), n),
        Metric::new("latency_p90_ms", "ms", t.latency.quantile(0.9), n),
        Metric::new("peak_rss_mb", "MiB", out.peak_rss_mb, 1),
    ]
}

/// Metrics printed beside the gated set but not gated. Reads and writes
/// are `serve_routed`'s split; the in-process workloads report the same
/// split of each op (see the README).
fn informational(out: &mut RunOutput) -> Vec<Metric> {
    let t = &mut out.timed;
    let n = t.latency.len();
    vec![
        Metric::new("read_p50_ms", "ms", t.read.quantile(0.5), t.read.len()),
        Metric::new("write_p50_ms", "ms", t.write.quantile(0.5), t.write.len()),
        Metric::new("write_p90_ms", "ms", t.write.quantile(0.9), t.write.len()),
        Metric::new("latency_p99_ms", "ms", t.latency.quantile(0.99), n),
        Metric::new("failed_ratio", "ratio", t.failed as f64 / t.attempted.max(1) as f64, n),
    ]
}

/// Per-layer metrics of the bench-side spans and the tracing overhead.
fn span_metrics(out: &mut RunOutput) -> Vec<Metric> {
    let Some(traced) = out.traced.as_mut() else { return Vec::new() };
    let ops = traced.attempted.max(1) as f64;
    let refs: Vec<&Tracer> = out.tracers.iter().collect();
    let self_ns = trace::self_times(&refs);
    let mut metrics: Vec<Metric> = trace::NAMES
        .iter()
        .map(|name| {
            let ns = self_ns.get(name).copied().unwrap_or(0);
            Metric::new(
                format!("trace.{name}_self_ms"),
                "ms",
                ns as f64 / 1e6 / ops,
                ops as usize,
            )
        })
        .collect();
    let plain = &mut out.timed;
    let (p50_on, p50_off) = (traced.latency.quantile(0.5), plain.latency.quantile(0.5));
    metrics.push(Metric::new(
        "trace.overhead_latency_ratio",
        "ratio",
        p50_on / p50_off.max(1e-12),
        traced.latency.len(),
    ));
    metrics.push(Metric::new(
        "trace.overhead_ops_ratio",
        "ratio",
        plain.ops_per_s() / traced.ops_per_s().max(1e-12),
        traced.latency.len(),
    ));
    metrics
}

fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

fn metrics_json<'a>(metrics: impl Iterator<Item = &'a Metric>) -> Value {
    Value::Obj(
        metrics
            .map(|m| {
                let unit = Value::Str(m.unit.to_owned());
                (m.name.clone(), obj(vec![("value", Value::Num(m.value)), ("unit", unit)]))
            })
            .collect(),
    )
}

fn counters_json(counters: &Counters) -> Value {
    Value::Obj(counters.iter().map(|(k, v)| ((*k).to_owned(), Value::Num(*v as f64))).collect())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.state_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.state_dir.display());
        std::process::exit(2);
    }
    if args.counters_only {
        match counters_for(&args) {
            Ok(c) => {
                println!("{}", counters_json(&c));
                return;
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
    }
    let result = match args.workload {
        Workload::ExploreCold => run_explore_cold(&args),
        Workload::WhatifWarm => run_whatif_warm(&args),
        Workload::ServeRouted => run_serve_routed(&args),
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            std::process::exit(1);
        }
    };
    report(&args, &mut out);
}

/// Only the deterministic counters: one set-up of the workload.
fn counters_for(args: &Args) -> Result<Counters, String> {
    Ok(match args.workload {
        Workload::ExploreCold => inproc::ExploreCold::setup(args.seed, args.jobs)?.1,
        Workload::WhatifWarm => inproc::WhatifWarm::setup(args.seed)?.1,
        Workload::ServeRouted => {
            serve::ServeRouted::setup(&args.chop, &args.state_dir.join("counters"), args.seed)?
                .1
        }
    })
}

fn print_metric(m: &Metric) {
    println!("  {:<40} {:>14.4} {:<6} (n={})", m.name, m.value, m.unit, m.samples);
}

fn report(args: &Args, out: &mut RunOutput) {
    let e2e = end_to_end(out);
    let info = informational(out);
    let spans = span_metrics(out);
    let isolation_ok = out.isolation.iter().all(|(_, ok)| *ok);
    let (attempted, failed) = match &out.traced {
        Some(t) => (out.timed.attempted + t.attempted, out.timed.failed + t.failed),
        None => (out.timed.attempted, out.timed.failed),
    };
    let correct = failed == 0 && attempted > 0 && isolation_ok;

    println!(
        "workload {} seed {} ({} s, trace {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let git = git_revision();
    let chop = out.chop_binary.as_ref().map(|p| p.display().to_string());
    println!(
        "provenance: nproc={} jobs={} connections={} git={git} chop={}",
        args.jobs,
        out.jobs,
        out.connections,
        chop.as_deref().unwrap_or("in-process")
    );
    println!("end-to-end{}:", if args.trace { " (untraced half)" } else { "" });
    e2e.iter().chain(&info).for_each(print_metric);
    for (case, samples) in &mut out.timed.by_case {
        println!("  case {case:<32} p50 {:>10.4} ms (n={})", samples.median(), samples.len());
    }
    println!("work counters: {}", counters_json(&out.counters));
    for (what, ok) in &out.isolation {
        println!("isolation: {what}: {}", if *ok { "ok" } else { "VIOLATED" });
    }
    let layer_metrics: Vec<Metric> = spans.iter().chain(&out.layers).cloned().collect();
    if args.trace {
        println!("per-layer:");
        layer_metrics.iter().for_each(print_metric);
        let path =
            args.state_dir.join(format!("spans-{}-{}.jsonl", args.workload.name(), args.seed));
        let refs: Vec<&Tracer> = out.tracers.iter().collect();
        if let Err(e) = trace::write_spans(&path, &refs) {
            eprintln!("perfbench: cannot write spans: {e}");
        }
    }
    let gated = if args.trace { &layer_metrics } else { &e2e };
    let num = |v: usize| Value::Num(v as f64);
    let provenance = obj(vec![
        ("workload", Value::Str(args.workload.name().to_owned())),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("nproc", num(args.jobs)),
        ("jobs", num(out.jobs)),
        ("connections", num(out.connections)),
        ("git_revision", Value::Str(git)),
        ("chop_binary", chop.map_or(Value::Null, Value::Str)),
    ]);
    let all: Vec<Metric> = e2e.iter().chain(&info).chain(&layer_metrics).cloned().collect();
    let samples = all.iter().map(|m| (m.name.clone(), Value::Num(m.samples as f64))).collect();
    let record = obj(vec![
        ("provenance", provenance),
        ("counters", counters_json(&out.counters)),
        ("metrics", metrics_json(all.iter())),
        ("samples", Value::Obj(samples)),
        ("isolation_ok", Value::Bool(isolation_ok)),
    ]);
    let path = args.state_dir.join(format!(
        "result-{}-{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, format!("{record}\n")) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    let line = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", metrics_json(gated.iter().filter(|m| m.listed))),
    ]);
    println!("{line}");
}
