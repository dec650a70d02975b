//! The traced run's layer ledger: each layer measured from outside by
//! timing calls into its public functions on the seed's inputs, beside
//! the work counters those calls return. Every traced run emits the
//! whole ledger, whatever its workload, so a layer's numbers read the
//! same in every run.
//!
//! Timings here run at jobs 1, so a stage's time is one core's work.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use chop_core::prelude::Heuristic;
use chop_service::{Client, Journal, Request, Response, SessionManager};

use crate::inproc::{self, move_pairs, WhatifWarm};
use crate::serve::{self, ServeRouted, KINDS, STEPS, VARIANTS};
use crate::stats::Samples;
use crate::{Args, Metric};

/// Every layer's metrics.
pub fn all(args: &Args) -> Result<Vec<Metric>, String> {
    let mut out = bad_and_engine(args.seed)?;
    out.extend(cache_spec_optimize(args.seed)?);
    out.extend(service(args)?);
    Ok(out)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `bad` and `core.engine`, on `explore_cold`'s cases.
fn bad_and_engine(seed: u64) -> Result<Vec<Metric>, String> {
    let cases = inproc::explore_cold_cases(seed);
    // BAD alone: Predictor::predict on each case's partition DFGs.
    let mut predict = Samples::default();
    let mut enumerated = 0usize;
    for case in &cases {
        let predictor = case.predictor();
        for dfg in case.partition_dfgs()? {
            let started = Instant::now();
            let designs = predictor.predict(black_box(&dfg)).map_err(|e| e.to_string())?;
            predict.push_duration_ms(started.elapsed());
            enumerated += designs.len();
        }
    }
    // The engine: one cold explore per case at jobs 1.
    let mut sum = chop_core::ExploreTrace::default();
    let (mut total, mut kept, mut feasible_trials) = (0usize, 0usize, 0usize);
    for case in &cases {
        let o = case.build(1)?.explore(Heuristic::Enumeration).map_err(|e| e.to_string())?;
        let t = o.trace;
        sum.predict_ns += t.predict_ns;
        sum.prune_l1_ns += t.prune_l1_ns;
        sum.search_ns += t.search_ns;
        sum.integrate_ns += t.integrate_ns;
        sum.feasibility_ns += t.feasibility_ns;
        sum.predictor_calls += t.predictor_calls;
        sum.evaluations += t.evaluations;
        sum.quick_rejects += t.quick_rejects;
        sum.combinations_skipped += t.combinations_skipped;
        total += o.total_predictions();
        kept += o.predictions.iter().map(|l| l.len()).sum::<usize>();
        feasible_trials += o.feasible_trials;
    }
    let n = cases.len();
    let per_op = |ns: u64| ns as f64 / 1e6 / n as f64;
    let parts = predict.len();
    Ok(vec![
        Metric::new("bad.predict_ms", "ms", predict.sum() / parts as f64, parts),
        Metric::new("bad.designs_enumerated", "count", enumerated as f64, 1),
        Metric::new("bad.designs_kept_ratio", "ratio", kept as f64 / total.max(1) as f64, 1),
        Metric::new("core.engine.predict_ms", "ms", per_op(sum.predict_ns), n),
        Metric::new("core.engine.prune_l1_ms", "ms", per_op(sum.prune_l1_ns), n),
        Metric::new("core.engine.search_ms", "ms", per_op(sum.search_ns), n),
        Metric::new("core.engine.integrate_ms", "ms", per_op(sum.integrate_ns), n),
        Metric::new("core.engine.feasibility_ms", "ms", per_op(sum.feasibility_ns), n),
        Metric::new("core.engine.predictor_calls", "count", sum.predictor_calls as f64, 1),
        Metric::new("core.engine.evaluations", "count", sum.evaluations as f64, 1),
        Metric::info("core.engine.quick_rejects", "count", sum.quick_rejects as f64, 1),
        Metric::new(
            "core.engine.combinations_skipped",
            "count",
            sum.combinations_skipped as f64,
            1,
        ),
        Metric::new(
            "core.engine.useful_eval_ratio",
            "ratio",
            feasible_trials as f64 / sum.evaluations.max(1) as f64,
            1,
        ),
    ])
}

/// Repeats `f` until `budget` has passed (at least `min` times) and
/// returns the mean time per call.
fn per_call(budget: Duration, min: usize, mut f: impl FnMut()) -> (Duration, usize) {
    let started = Instant::now();
    let mut calls = 0usize;
    while calls < min || started.elapsed() < budget {
        f();
        calls += 1;
    }
    (started.elapsed() / calls as u32, calls)
}

/// `core.cache`, `core.spec` and `core.optimize`, on a fresh set-up of
/// `whatif_warm`'s cases at jobs 1.
fn cache_spec_optimize(seed: u64) -> Result<Vec<Metric>, String> {
    let (w, _) = WhatifWarm::setup(seed)?;
    // One warm optimize per set-up run. The cache counters then cover the
    // cold set-up plus this pass, a fixed amount of work.
    let (mut evaluations, mut accepted, mut wall) = (0u64, 0usize, Duration::ZERO);
    for (idx, spec, _) in w.runs() {
        let started = Instant::now();
        let r = w.sessions()[*idx].optimize(spec).map_err(|e| e.to_string())?;
        wall += started.elapsed();
        evaluations += r.evaluations;
        accepted += r.moves.len();
    }
    let (mut hits, mut misses) = (0u64, 0u64);
    for s in w.sessions() {
        let stats = s.cache_stats();
        hits += stats.hits;
        misses += stats.misses;
    }
    // Warm predict_partitions: cache lookups only.
    let mut lookup = Samples::default();
    for s in w.sessions() {
        let parts = s.partitioning().partition_count() as f64;
        let (d, _) = per_call(Duration::from_millis(100), 20, || {
            black_box(s.predict_partitions().expect("warm predictions"));
        });
        lookup.push(us(d) / parts);
    }
    // Replaying every accepted move through Session::repartition.
    let mut repartition = Samples::default();
    let mut replayed = 0usize;
    for (idx, _, r) in w.runs() {
        let pairs = move_pairs(r);
        if pairs.is_empty() {
            continue;
        }
        let base = &w.sessions()[*idx];
        let (d, _) = per_call(Duration::from_millis(50), 5, || {
            let mut cur = base.clone();
            for &(node, to) in &pairs {
                cur = cur.repartition(node, to).expect("accepted moves replay");
            }
            black_box(cur);
        });
        repartition.push(us(d) / pairs.len() as f64);
        replayed += pairs.len();
    }
    let sessions = w.sessions().len();
    Ok(vec![
        Metric::new("core.cache.hits", "count", hits as f64, 1),
        Metric::new("core.cache.misses", "count", misses as f64, 1),
        Metric::new(
            "core.cache.hit_ratio",
            "ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            1,
        ),
        Metric::new("core.cache.lookup_us", "us", lookup.sum() / sessions as f64, sessions),
        Metric::new(
            "core.spec.repartition_us",
            "us",
            repartition.sum() / repartition.len().max(1) as f64,
            replayed,
        ),
        Metric::new("core.optimize.evaluations", "count", evaluations as f64, 1),
        Metric::new(
            "core.optimize.eval_us",
            "us",
            us(wall) / evaluations.max(1) as f64,
            evaluations as usize,
        ),
        Metric::new(
            "core.optimize.accepted_ratio",
            "ratio",
            accepted as f64 / evaluations.max(1) as f64,
            1,
        ),
    ])
}

/// A request as sent and the response line received.
struct Exchange {
    kind: &'static str,
    request: Request,
    req_id: Option<String>,
    response_line: String,
}

/// Times each request of a cycle over `client` by kind, recording the
/// exchanges when `record` is given.
fn timed_cycle(
    client: &mut Client,
    plan: &serve::Plan,
    name: &str,
    variant: usize,
    rtt: &mut BTreeMap<&'static str, Samples>,
    mut record: Option<&mut Vec<Exchange>>,
) -> Result<(), String> {
    for (step, (request, tag)) in plan.cycle(name, variant).into_iter().enumerate() {
        let started = Instant::now();
        let response =
            client.request_tagged(&request, tag.as_deref()).map_err(|e| e.to_string())?;
        let took = started.elapsed();
        if plan.check(name, variant, step, &response).is_none() {
            return Err(format!("ledger cycle {name}: step {} failed its check", STEPS[step]));
        }
        rtt.entry(STEPS[step]).or_default().push(us(took));
        if let Some(rec) = record.as_deref_mut() {
            rec.push(Exchange {
                kind: STEPS[step],
                request,
                req_id: tag,
                response_line: response.encode(),
            });
        }
    }
    Ok(())
}

fn median_of(map: &mut BTreeMap<&'static str, Samples>, kind: &str) -> f64 {
    map.get_mut(kind).map_or(0.0, Samples::median)
}

/// Every `service.*` layer, on a cluster of its own running
/// `serve_routed`'s cycle.
fn service(args: &Args) -> Result<Vec<Metric>, String> {
    let dir = args.state_dir.join("ledger");
    let (w, counters) = ServeRouted::setup(&args.chop, &dir.join("cluster"), args.seed)?;
    let plan = &w.plan;
    let connect = |addr: &str| Client::connect(addr).map_err(|e| e.to_string());
    let mut routed = connect(&w.cluster.router.addr)?;
    let mut direct = connect(&w.cluster.primary.addr)?;

    // Routed and direct round trips, interleaved cycle by cycle.
    let (mut rtt_routed, mut rtt_direct) = (BTreeMap::new(), BTreeMap::new());
    let mut exchanges = Vec::new();
    let started = Instant::now();
    let mut round = 0usize;
    while round < 2 || started.elapsed() < Duration::from_millis(1500) {
        for v in 0..VARIANTS {
            let rec = (round == 0).then_some(&mut exchanges);
            timed_cycle(&mut routed, plan, &format!("lr{round}v{v}"), v, &mut rtt_routed, rec)?;
            timed_cycle(
                &mut direct,
                plan,
                &format!("ld{round}v{v}"),
                v,
                &mut rtt_direct,
                None,
            )?;
        }
        round += 1;
    }

    // Codec: encode and decode of each recorded request and response.
    let mut encode: BTreeMap<&str, Samples> = BTreeMap::new();
    let mut decode: BTreeMap<&str, Samples> = BTreeMap::new();
    for x in &exchanges {
        let response = Response::decode(&x.response_line).map_err(|e| e.to_string())?;
        let line = x.request.encode_tagged(x.req_id.as_deref());
        let (enc_req, _) = per_call(Duration::from_millis(5), 50, || {
            black_box(x.request.encode_tagged(x.req_id.as_deref()));
        });
        let (enc_resp, _) = per_call(Duration::from_millis(5), 50, || {
            black_box(response.encode());
        });
        let (dec_req, _) = per_call(Duration::from_millis(5), 50, || {
            black_box(Request::decode_tagged(black_box(&line)).expect("recorded line decodes"));
        });
        let (dec_resp, _) = per_call(Duration::from_millis(5), 50, || {
            black_box(
                Response::decode(black_box(&x.response_line)).expect("recorded line decodes"),
            );
        });
        encode.entry(x.kind).or_default().push(us(enc_req + enc_resp));
        decode.entry(x.kind).or_default().push(us(dec_req + dec_resp));
    }

    // Dispatch: the recorded stream replayed into an in-process manager
    // with no journal, warmed by one replay first.
    let manager = SessionManager::new(1);
    let mut dispatch: BTreeMap<&str, Samples> = BTreeMap::new();
    let started = Instant::now();
    let mut pass = 0usize;
    while pass < 3 || started.elapsed() < Duration::from_millis(500) {
        for (i, x) in exchanges.iter().enumerate() {
            let tag = x.req_id.as_ref().map(|t| format!("{t}-r{pass}-{i}"));
            let t0 = Instant::now();
            let response = manager.dispatch_tagged(&x.request, tag.as_deref());
            let took = t0.elapsed();
            if let Response::Error(e) = &response {
                return Err(format!("dispatch replay of {}: {}", x.kind, e.message));
            }
            if pass > 0 {
                dispatch.entry(x.kind).or_default().push(us(took));
            }
        }
        pass += 1;
    }

    // Journal: the recorded mutations appended (with fsync) to a fresh
    // journal.
    let journal_dir = dir.join("journal");
    let _ = std::fs::remove_dir_all(&journal_dir);
    let (mut journal, _) = Journal::open(&journal_dir, 0).map_err(|e| e.to_string())?;
    let mutations: Vec<&Exchange> =
        exchanges.iter().filter(|x| x.request.is_mutation()).collect();
    let mut append = Samples::default();
    let started = Instant::now();
    while append.len() < 64 || started.elapsed() < Duration::from_millis(300) {
        for x in &mutations {
            let t0 = Instant::now();
            journal.append(&x.request, x.req_id.as_deref()).map_err(|e| e.to_string())?;
            append.push(us(t0.elapsed()));
        }
    }
    let append_us = append.median();

    // Replication lag: a direct open acknowledged by the primary until
    // the standby's stats list the session.
    let mut standby = connect(&w.cluster.standby.addr)?;
    let mut lag = Samples::default();
    for i in 0..20 {
        let name = format!("lag{i}");
        let open = Request::Open { session: name.clone(), params: serve::open_params() };
        match direct.request_tagged(&open, Some(&name)).map_err(|e| e.to_string())? {
            Response::Opened { .. } => {}
            other => return Err(format!("lag probe open: {other:?}")),
        }
        let acked = Instant::now();
        loop {
            let stats = standby
                .request(&Request::Stats { session: None })
                .map_err(|e| e.to_string())?;
            if matches!(&stats, Response::Stats { sessions, .. } if sessions.contains(&name)) {
                break;
            }
            if acked.elapsed() > Duration::from_secs(10) {
                return Err(format!("standby never listed {name}"));
            }
        }
        lag.push(ms(acked.elapsed()));
        let close = Request::Close { session: name.clone() };
        direct.request_tagged(&close, Some(&format!("{name}-c"))).map_err(|e| e.to_string())?;
    }

    let mut out = Vec::new();
    for kind in KINDS {
        let enc = median_of(&mut encode, kind);
        let dec = median_of(&mut decode, kind);
        let disp = median_of(&mut dispatch, kind);
        let via_router = median_of(&mut rtt_routed, kind);
        let to_primary = median_of(&mut rtt_direct, kind);
        let journaled = if matches!(kind, "explore" | "stats") { 0.0 } else { append_us };
        let n = rtt_direct.get(kind).map_or(0, Samples::len);
        out.push(Metric::new(format!("service.protocol.encode_us.{kind}"), "us", enc, 1));
        out.push(Metric::new(format!("service.protocol.decode_us.{kind}"), "us", dec, 1));
        out.push(Metric::new(format!("service.client.rtt_us.{kind}"), "us", via_router, n));
        out.push(Metric::new(
            format!("service.client.direct_rtt_us.{kind}"),
            "us",
            to_primary,
            n,
        ));
        out.push(Metric::new(
            format!("service.manager.dispatch_us.{kind}"),
            "us",
            disp,
            dispatch.get(kind).map_or(0, Samples::len),
        ));
        out.push(Metric::new(
            format!("service.net.overhead_us.{kind}"),
            "us",
            to_primary - disp - enc - dec - journaled,
            n,
        ));
        out.push(Metric::new(
            format!("service.router.hop_us.{kind}"),
            "us",
            via_router - to_primary,
            n,
        ));
    }
    let writes = counters.get("writes").copied().unwrap_or(0);
    let appends = counters.get("journal_appends").copied().unwrap_or(0);
    out.push(Metric::new("service.journal.append_us", "us", append_us, append.len()));
    out.push(Metric::new(
        "service.journal.appends_per_write",
        "ratio",
        appends as f64 / writes.max(1) as f64,
        writes as usize,
    ));
    out.push(Metric::new("service.replication.lag_ms", "ms", lag.median(), lag.len()));
    drop(w);
    Ok(out)
}
