//! Property tests: `decode(encode(m)) == m` for **every** protocol
//! variant, with fuzzed payloads (including JSON-hostile strings — quotes,
//! backslashes, control characters, non-ASCII) since the wire format is
//! hand-written rather than serde-derived.

use chop_core::prelude::{CacheStats, Completion, Heuristic, MoveKind};
use chop_service::{
    BudgetEnvelope, ExploreParams, MoveSummary, OpenParams, OptimizeParams, OptimizeSummary,
    Request, Response, RunSummary, ServiceError, PROTOCOL_VERSION,
};
use proptest::collection;
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

/// A session-ish identifier.
fn name() -> BoxedStrategy<String> {
    "[a-z][a-z0-9_-]{0,12}".boxed()
}

/// Strings that stress the JSON escaper: quotes, backslashes, control
/// characters, multi-byte UTF-8, braces. Built from literal fragments so
/// the regex stub can't mangle the escapes.
fn hostile_text() -> BoxedStrategy<String> {
    let fragment = prop_oneof![
        Just("a = input 16"),
        Just("\n"),
        Just("\""),
        Just("\\"),
        Just("\t"),
        Just("\r"),
        Just("\u{0}"),
        Just("\u{1f}"),
        Just("π"),
        Just("🦀"),
        Just("{},:[]"),
        Just(" "),
    ];
    collection::vec(fragment, 0..8).prop_map(|parts| parts.concat()).boxed()
}

fn heuristic() -> BoxedStrategy<Heuristic> {
    prop_oneof![Just(Heuristic::Enumeration), Just(Heuristic::Iterative)].boxed()
}

fn completion() -> BoxedStrategy<Completion> {
    prop_oneof![
        Just(Completion::Complete),
        Just(Completion::TruncatedDeadline),
        Just(Completion::TruncatedTrials),
        Just(Completion::DegradedToIterative),
    ]
    .boxed()
}

fn opt_u64() -> BoxedStrategy<Option<u64>> {
    prop_oneof![Just(None), (0u64..1_000_000_000).prop_map(Some)].boxed()
}

fn opt_u32() -> BoxedStrategy<Option<u32>> {
    prop_oneof![Just(None), (1u32..64).prop_map(Some)].boxed()
}

fn open_params() -> BoxedStrategy<OpenParams> {
    let head = (hostile_text(), 1u32..9, opt_u32());
    let tail = (prop_oneof![Just(64u32), Just(84u32)], 1.0f64..1e9, 1.0f64..1e9, any::<bool>());
    (head, tail)
        .prop_map(|((spec, partitions, chips), (package_pins, perf, delay, multi_cycle))| {
            OpenParams {
                spec,
                partitions,
                chips,
                package_pins,
                performance_ns: perf,
                delay_ns: delay,
                multi_cycle,
            }
        })
        .boxed()
}

fn budget() -> BoxedStrategy<BudgetEnvelope> {
    (opt_u64(), opt_u64())
        .prop_map(|(deadline_ms, max_trials)| BudgetEnvelope { deadline_ms, max_trials })
        .boxed()
}

fn explore_params() -> BoxedStrategy<ExploreParams> {
    (heuristic(), budget(), opt_u32())
        .prop_map(|(heuristic, budget, jobs)| ExploreParams { heuristic, budget, jobs })
        .boxed()
}

fn optimize_params() -> BoxedStrategy<OptimizeParams> {
    // Wire numbers ride on JSON doubles, so seeds cap at 2^53 − 1 (the
    // largest exactly-representable integer; larger seeds are rejected
    // on decode rather than silently rounded).
    let head = (0u64..(1 << 53), budget(), heuristic(), opt_u32(), opt_u32(), opt_u32());
    let tail = (
        collection::vec(0u32..64, 0..4),
        collection::vec(collection::vec(0u32..64, 0..3), 0..3),
        collection::vec((0u32..64, 0u32..64), 0..3),
    );
    (head, tail)
        .prop_map(
            |(
                (seed, budget, heuristic, kicks, kick_moves, jobs),
                (pinned, groups, exclusions),
            )| {
                OptimizeParams {
                    seed,
                    budget,
                    heuristic,
                    kicks,
                    kick_moves,
                    jobs,
                    pinned,
                    groups,
                    exclusions,
                }
            },
        )
        .boxed()
}

fn move_kind() -> BoxedStrategy<MoveKind> {
    prop_oneof![Just(MoveKind::Gain), Just(MoveKind::Kick)].boxed()
}

fn move_summary() -> BoxedStrategy<MoveSummary> {
    (collection::vec(0u32..256, 1..4), 0u32..8, 0u32..8, 1u32..16, move_kind())
        .prop_map(|(nodes, from, to, pass, kind)| MoveSummary { nodes, from, to, pass, kind })
        .boxed()
}

fn optimize_summary() -> BoxedStrategy<OptimizeSummary> {
    let head = (hostile_text(), any::<bool>(), 0.0f64..2e18, 0.0f64..1e6, 0u64..1_000_000);
    let tail =
        (0u32..64, 0u32..8, completion(), collection::vec(move_summary(), 0..5), run_summary());
    (head, tail)
        .prop_map(
            |(
                (digest, feasible, initial_score, final_score, evaluations),
                (passes, kicks, completion, moves, run),
            )| OptimizeSummary {
                digest,
                feasible,
                initial_score,
                final_score,
                evaluations,
                passes,
                kicks,
                completion,
                moves,
                run,
            },
        )
        .boxed()
}

fn run_summary() -> BoxedStrategy<RunSummary> {
    let head = (heuristic(), hostile_text(), 0u64..1_000_000, 0u64..1_000_000, 0u64..1_000);
    let tail = (
        completion(),
        any::<bool>(),
        0.0f64..1e6,
        0u64..1_000_000,
        0u64..1_000_000,
        0u64..1_000,
        0u64..1_000_000,
        0u64..1_000_000_000,
    );
    (head, tail)
        .prop_map(
            |(
                (heuristic, digest, trials, feasible_trials, feasible),
                (
                    completion,
                    degraded,
                    elapsed_ms,
                    predictor_calls,
                    cache_hits,
                    cache_misses,
                    subtrees_skipped,
                    combinations_skipped,
                ),
            )| RunSummary {
                heuristic,
                digest,
                trials,
                feasible_trials,
                feasible,
                completion,
                degraded,
                elapsed_ms,
                predictor_calls,
                cache_hits,
                cache_misses,
                subtrees_skipped,
                combinations_skipped,
            },
        )
        .boxed()
}

fn cache_stats() -> BoxedStrategy<CacheStats> {
    (0u64..1_000_000, 0u64..1_000_000, 0u64..1_000, 0u64..1_000, 0u64..1_000_000_000)
        .prop_map(|(hits, misses, evictions, entries, bytes)| CacheStats {
            hits,
            misses,
            evictions,
            entries,
            bytes,
        })
        .boxed()
}

fn service_error() -> BoxedStrategy<ServiceError> {
    use chop_service::ErrorKind;
    let kind = prop_oneof![
        Just(ErrorKind::Protocol),
        Just(ErrorKind::UnknownSession),
        Just(ErrorKind::SessionExists),
        Just(ErrorKind::Spec),
        Just(ErrorKind::Engine),
        Just(ErrorKind::Internal),
        Just(ErrorKind::Standby),
        Just(ErrorKind::Fenced),
    ];
    let primary = prop_oneof![Just(None), hostile_text().prop_map(Some)];
    let epoch = prop_oneof![Just(None), (0u64..1_000).prop_map(Some)];
    (kind, hostile_text(), primary, epoch)
        .prop_map(|(kind, message, primary, epoch)| {
            let mut err = ServiceError::new(kind, message);
            err.primary = primary;
            err.epoch = epoch;
            err
        })
        .boxed()
}

/// Every [`Request`] variant, with fuzzed payloads.
fn request() -> BoxedStrategy<Request> {
    prop_oneof![
        Just(Request::Ping),
        (name(), open_params()).prop_map(|(session, params)| Request::Open { session, params }),
        (name(), explore_params())
            .prop_map(|(session, params)| Request::Explore { session, params }),
        (name(), optimize_params())
            .prop_map(|(session, params)| Request::Optimize { session, params }),
        (name(), collection::vec((0u32..64, 0u32..8), 0..5))
            .prop_map(|(session, moves)| Request::ApplyMoves { session, moves }),
        (name(), 0u32..64, 0u32..8).prop_map(|(session, node, to)| Request::Repartition {
            session,
            node,
            to
        }),
        (name(), 1.0f64..1e9, 1.0f64..1e9).prop_map(|(session, performance_ns, delay_ns)| {
            Request::SetConstraints { session, performance_ns, delay_ns }
        }),
        prop_oneof![Just(None), name().prop_map(Some)]
            .prop_map(|session| Request::Stats { session }),
        name().prop_map(|session| Request::Close { session }),
        Just(Request::Shutdown),
        (
            0u64..1_000_000,
            hostile_text(),
            0u64..100,
            prop_oneof![Just(None), hostile_text().prop_map(Some)]
        )
            .prop_map(|(seq, record, epoch, primary)| Request::ReplApply {
                seq,
                record,
                epoch,
                primary
            }),
        (
            0u64..1_000_000,
            collection::vec(hostile_text(), 0..4),
            0u64..100,
            prop_oneof![Just(None), hostile_text().prop_map(Some)]
        )
            .prop_map(|(seq, records, epoch, primary)| Request::ReplSnapshot {
                seq,
                records,
                epoch,
                primary
            }),
        Just(Request::Promote),
        // `primary && fenced` never encodes (fencing demotes), so the
        // strategy sticks to the three reachable roles.
        (
            0u64..100,
            prop_oneof![Just((true, false)), Just((false, false)), Just((false, true))]
        )
            .prop_map(|(epoch, (primary, fenced))| Request::RoleChange {
                epoch,
                primary,
                fenced
            }),
        hostile_text().prop_map(|pair| Request::AddPair { pair }),
        hostile_text().prop_map(|pair| Request::RemovePair { pair }),
        Just(Request::RouterStatus),
        name().prop_map(|session| Request::Export { session }),
        collection::vec(hostile_text(), 0..4).prop_map(|records| Request::Import { records }),
    ]
    .boxed()
}

/// Valid `req_id` envelope tags (1..=128 bytes, arbitrary content).
fn req_id() -> BoxedStrategy<Option<String>> {
    prop_oneof![
        Just(None),
        "[a-z0-9-]{1,32}".prop_map(Some),
        hostile_text().prop_map(|s| {
            let mut id = s;
            while id.len() > 128 {
                id.pop();
            }
            if id.is_empty() {
                id.push('x');
            }
            Some(id)
        }),
    ]
    .boxed()
}

/// Every [`Response`] variant, with fuzzed payloads.
fn response() -> BoxedStrategy<Response> {
    prop_oneof![
        (
            // A role-less (legacy) pong never encodes an epoch, so pair
            // the two: epoch rides only when a role is present.
            prop_oneof![
                Just(None),
                (
                    prop_oneof![
                        Just("primary".to_owned()),
                        Just("standby".to_owned()),
                        Just("fenced".to_owned())
                    ],
                    0u64..100,
                )
                    .prop_map(Some)
            ],
            prop_oneof![Just(None), hostile_text().prop_map(Some)],
        )
            .prop_map(|(role_epoch, peer)| {
                let (role, epoch) = match role_epoch {
                    Some((role, epoch)) => (Some(role), epoch),
                    None => (None, 0),
                };
                Response::Pong { version: PROTOCOL_VERSION, role, epoch, peer }
            }),
        (name(), 1u64..64)
            .prop_map(|(session, partitions)| Response::Opened { session, partitions }),
        (name(), run_summary()).prop_map(|(session, run)| Response::Explored { session, run }),
        (name(), optimize_summary()).prop_map(|(session, result)| Response::Optimized {
            session,
            result: Box::new(result)
        }),
        (name(), 0u64..1_000)
            .prop_map(|(session, moves)| Response::MovesApplied { session, moves }),
        (name(), 0u32..64, 0u32..8).prop_map(|(session, node, to)| Response::Repartitioned {
            session,
            node,
            to
        }),
        (
            collection::vec(name(), 0..5),
            cache_stats(),
            collection::vec(0u64..4_096, 0..9),
            prop_oneof![Just(None), run_summary().prop_map(Some)],
        )
            .prop_map(|(sessions, cache, shard_entries, last_run)| Response::Stats {
                sessions,
                cache,
                shard_entries,
                last_run
            }),
        (name(), 1.0f64..1e9, 1.0f64..1e9).prop_map(|(session, performance_ns, delay_ns)| {
            Response::ConstraintsSet { session, performance_ns, delay_ns }
        }),
        name().prop_map(|session| Response::Closed { session }),
        Just(Response::ShuttingDown),
        (0u64..128, 0u64..128, 0u64..5_000).prop_map(
            |(inflight, max_inflight, retry_after_ms)| Response::Busy {
                inflight,
                max_inflight,
                retry_after_ms
            }
        ),
        (0u64..1_000_000).prop_map(|seq| Response::ReplAck { seq }),
        (0u64..1_000, 0u64..100)
            .prop_map(|(sessions, epoch)| Response::Promoted { sessions, epoch }),
        collection::vec(hostile_text(), 0..4).prop_map(|pairs| Response::PairAdded { pairs }),
        collection::vec(hostile_text(), 0..4).prop_map(|pairs| Response::PairRemoved { pairs }),
        collection::vec(hostile_text(), 0..4)
            .prop_map(|pairs| Response::RouterStatus { pairs }),
        (name(), collection::vec(hostile_text(), 0..4))
            .prop_map(|(session, records)| Response::Exported { session, records }),
        (name(), 0u64..1_000)
            .prop_map(|(session, records)| Response::Imported { session, records }),
        service_error().prop_map(Response::Error),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_request_round_trips(req in request()) {
        let line = req.encode();
        prop_assert!(!line.contains('\n'), "wire lines must be single-line: {line}");
        prop_assert_eq!(Request::decode(&line).expect(&line), req);
    }

    #[test]
    fn every_response_round_trips(resp in response()) {
        let line = resp.encode();
        prop_assert!(!line.contains('\n'), "wire lines must be single-line: {line}");
        prop_assert_eq!(Response::decode(&line).expect(&line), resp);
    }

    #[test]
    fn requests_survive_a_double_round_trip(req in request()) {
        // encode → decode → encode must be a fixed point (canonical form).
        let once = req.encode();
        let twice = Request::decode(&once).expect(&once).encode();
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn responses_survive_a_double_round_trip(resp in response()) {
        let once = resp.encode();
        let twice = Response::decode(&once).expect(&once).encode();
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn req_id_envelopes_round_trip(req in request(), id in req_id()) {
        let line = req.encode_tagged(id.as_deref());
        prop_assert!(!line.contains('\n'), "wire lines must be single-line: {line}");
        let (decoded, decoded_id) = Request::decode_tagged(&line).expect(&line);
        prop_assert_eq!(decoded, req);
        prop_assert_eq!(decoded_id, id);
    }

    #[test]
    fn untagged_decode_ignores_the_envelope(req in request(), id in req_id()) {
        // A plain decode must accept a tagged line and just drop the tag.
        let line = req.encode_tagged(id.as_deref());
        prop_assert_eq!(Request::decode(&line).expect(&line), req);
    }

    #[test]
    fn legacy_flat_budget_aliases_the_nested_envelope(
        session in name(),
        budget in budget(),
        jobs in opt_u32(),
    ) {
        // Pre-envelope clients sent `deadline_ms` / `max_trials` as flat
        // top-level fields. Hand-build such a line and check it decodes
        // to exactly what the canonical nested `"budget"` object yields.
        let mut flat = format!(
            "{{\"v\":1,\"type\":\"explore\",\"session\":\"{session}\",\"heuristic\":\"I\""
        );
        if let Some(deadline) = budget.deadline_ms {
            flat.push_str(&format!(",\"deadline_ms\":{deadline}"));
        }
        if let Some(trials) = budget.max_trials {
            flat.push_str(&format!(",\"max_trials\":{trials}"));
        }
        if let Some(jobs) = jobs {
            flat.push_str(&format!(",\"jobs\":{jobs}"));
        }
        flat.push('}');
        let canonical = Request::Explore {
            session,
            params: ExploreParams { heuristic: Heuristic::Iterative, budget, jobs },
        };
        let decoded = Request::decode(&flat).expect(&flat);
        prop_assert_eq!(&decoded, &canonical);
        // And the re-encoded canonical form still round-trips.
        let line = canonical.encode();
        prop_assert_eq!(Request::decode(&line).expect(&line), canonical);
    }
}

/// A fixed run summary for the byte-pinned table.
fn pinned_run() -> RunSummary {
    RunSummary {
        heuristic: Heuristic::Enumeration,
        digest: "h=E;trials=9".into(),
        trials: 9,
        feasible_trials: 4,
        feasible: 2,
        completion: Completion::TruncatedDeadline,
        degraded: true,
        elapsed_ms: 1.25,
        predictor_calls: 2,
        cache_hits: 1,
        cache_misses: 2,
        subtrees_skipped: 3,
        combinations_skipped: 120,
    }
}

/// Every request variant — with its optional fields set and unset — next
/// to the exact line it encodes to. The round-trip properties above
/// would accept a reordered or re-spelled encoder; journals, CRCs and
/// mixed-version peers would not, so the bytes themselves are pinned.
fn pinned_requests() -> Vec<(Request, &'static str)> {
    vec![
        (Request::Ping, r#"{"v":1,"type":"ping"}"#),
        (
            Request::Open {
                session: "a".into(),
                params: OpenParams {
                    spec: "x = input 16\ny = \"out\" x\n".into(),
                    partitions: 2,
                    chips: Some(3),
                    package_pins: 64,
                    performance_ns: 20_000.5,
                    delay_ns: 25_000.0,
                    multi_cycle: false,
                },
            },
            r#"{"v":1,"type":"open","session":"a","spec":"x = input 16\ny = \"out\" x\n","partitions":2,"chips":3,"package_pins":64,"performance_ns":20000.5,"delay_ns":25000,"multi_cycle":false}"#,
        ),
        (
            Request::Open { session: "a".into(), params: OpenParams::default() },
            r#"{"v":1,"type":"open","session":"a","spec":"","partitions":1,"package_pins":84,"performance_ns":30000,"delay_ns":30000,"multi_cycle":true}"#,
        ),
        (
            Request::Explore {
                session: "a".into(),
                params: ExploreParams {
                    heuristic: Heuristic::Enumeration,
                    budget: BudgetEnvelope { deadline_ms: Some(250), max_trials: Some(9) },
                    jobs: Some(4),
                },
            },
            r#"{"v":1,"type":"explore","session":"a","heuristic":"E","budget":{"deadline_ms":250,"max_trials":9},"jobs":4}"#,
        ),
        (
            Request::Explore {
                session: "a".into(),
                params: ExploreParams {
                    budget: BudgetEnvelope { deadline_ms: None, max_trials: Some(9) },
                    ..ExploreParams::default()
                },
            },
            r#"{"v":1,"type":"explore","session":"a","heuristic":"I","budget":{"max_trials":9}}"#,
        ),
        (
            Request::Explore { session: "a".into(), params: ExploreParams::default() },
            r#"{"v":1,"type":"explore","session":"a","heuristic":"I"}"#,
        ),
        (
            Request::Repartition { session: "a".into(), node: 3, to: 0 },
            r#"{"v":1,"type":"repartition","session":"a","node":3,"to":0}"#,
        ),
        (
            Request::Optimize {
                session: "a".into(),
                params: OptimizeParams {
                    seed: (1 << 53) - 1,
                    budget: BudgetEnvelope { deadline_ms: Some(100), max_trials: None },
                    heuristic: Heuristic::Enumeration,
                    kicks: Some(1),
                    kick_moves: Some(2),
                    jobs: Some(8),
                    pinned: vec![0, 7],
                    groups: vec![vec![1, 2], vec![]],
                    exclusions: vec![(3, 4), (5, 6)],
                },
            },
            r#"{"v":1,"type":"optimize","session":"a","seed":9007199254740991,"heuristic":"E","budget":{"deadline_ms":100},"kicks":1,"kick_moves":2,"jobs":8,"pinned":[0,7],"groups":[[1,2],[]],"exclusions":[[3,4],[5,6]]}"#,
        ),
        (
            Request::Optimize { session: "a".into(), params: OptimizeParams::default() },
            r#"{"v":1,"type":"optimize","session":"a","seed":0,"heuristic":"I"}"#,
        ),
        (
            Request::ApplyMoves { session: "a".into(), moves: vec![(3, 1), (5, 0)] },
            r#"{"v":1,"type":"apply_moves","session":"a","moves":[[3,1],[5,0]]}"#,
        ),
        (
            Request::ApplyMoves { session: "a".into(), moves: vec![] },
            r#"{"v":1,"type":"apply_moves","session":"a","moves":[]}"#,
        ),
        (
            Request::SetConstraints {
                session: "a".into(),
                performance_ns: 20_000.0,
                delay_ns: 0.125,
            },
            r#"{"v":1,"type":"set_constraints","session":"a","performance_ns":20000,"delay_ns":0.125}"#,
        ),
        (
            Request::Stats { session: Some("a".into()) },
            r#"{"v":1,"type":"stats","session":"a"}"#,
        ),
        (Request::Stats { session: None }, r#"{"v":1,"type":"stats"}"#),
        (Request::Close { session: "a".into() }, r#"{"v":1,"type":"close","session":"a"}"#),
        (Request::Shutdown, r#"{"v":1,"type":"shutdown"}"#),
        (
            Request::ReplApply {
                seq: 7,
                record: r#"{"v":1,"type":"close","session":"a"}"#.into(),
                epoch: 3,
                primary: Some("10.0.0.1:1991".into()),
            },
            r#"{"v":1,"type":"repl_apply","seq":7,"record":"{\"v\":1,\"type\":\"close\",\"session\":\"a\"}","epoch":3,"primary":"10.0.0.1:1991"}"#,
        ),
        (
            Request::ReplApply { seq: 0, record: String::new(), epoch: 0, primary: None },
            r#"{"v":1,"type":"repl_apply","seq":0,"record":"","epoch":0}"#,
        ),
        (
            Request::ReplSnapshot {
                seq: 12,
                records: vec!["r1".into(), "r2".into()],
                epoch: 2,
                primary: Some("10.0.0.1:1991".into()),
            },
            r#"{"v":1,"type":"repl_snapshot","seq":12,"records":["r1","r2"],"epoch":2,"primary":"10.0.0.1:1991"}"#,
        ),
        (
            Request::ReplSnapshot { seq: 0, records: vec![], epoch: 0, primary: None },
            r#"{"v":1,"type":"repl_snapshot","seq":0,"records":[],"epoch":0}"#,
        ),
        (Request::Promote, r#"{"v":1,"type":"promote"}"#),
        (
            Request::RoleChange { epoch: 4, primary: true, fenced: false },
            r#"{"v":1,"type":"role_change","epoch":4,"role":"primary"}"#,
        ),
        (
            Request::RoleChange { epoch: 5, primary: false, fenced: true },
            r#"{"v":1,"type":"role_change","epoch":5,"role":"fenced"}"#,
        ),
        (
            Request::RoleChange { epoch: 0, primary: false, fenced: false },
            r#"{"v":1,"type":"role_change","epoch":0,"role":"standby"}"#,
        ),
        (
            Request::AddPair { pair: "10.0.0.3:1991,10.0.0.4:1991".into() },
            r#"{"v":1,"type":"add_pair","pair":"10.0.0.3:1991,10.0.0.4:1991"}"#,
        ),
        (
            Request::RemovePair { pair: "10.0.0.3:1991".into() },
            r#"{"v":1,"type":"remove_pair","pair":"10.0.0.3:1991"}"#,
        ),
        (Request::RouterStatus, r#"{"v":1,"type":"router_status"}"#),
        (Request::Export { session: "a".into() }, r#"{"v":1,"type":"export","session":"a"}"#),
        (
            Request::Import { records: vec!["r1".into()] },
            r#"{"v":1,"type":"import","records":["r1"]}"#,
        ),
        (Request::Import { records: vec![] }, r#"{"v":1,"type":"import","records":[]}"#),
    ]
}

/// Every response variant next to its exact encoded line.
fn pinned_responses() -> Vec<(Response, &'static str)> {
    use chop_service::ErrorKind;
    vec![
        (
            Response::Pong { version: PROTOCOL_VERSION, role: None, epoch: 0, peer: None },
            r#"{"v":1,"type":"pong","version":1}"#,
        ),
        (
            Response::Pong {
                version: PROTOCOL_VERSION,
                role: Some("standby".into()),
                epoch: 5,
                peer: Some("10.0.0.2:1991".into()),
            },
            r#"{"v":1,"type":"pong","version":1,"role":"standby","epoch":5,"peer":"10.0.0.2:1991"}"#,
        ),
        (
            Response::Pong {
                version: PROTOCOL_VERSION,
                role: Some("primary".into()),
                epoch: 0,
                peer: None,
            },
            r#"{"v":1,"type":"pong","version":1,"role":"primary","epoch":0}"#,
        ),
        (
            Response::Pong {
                version: PROTOCOL_VERSION,
                role: None,
                epoch: 0,
                peer: Some("10.0.0.2:1991".into()),
            },
            r#"{"v":1,"type":"pong","version":1,"peer":"10.0.0.2:1991"}"#,
        ),
        (
            Response::Opened { session: "a".into(), partitions: 2 },
            r#"{"v":1,"type":"opened","session":"a","partitions":2}"#,
        ),
        (
            Response::Explored { session: "a".into(), run: pinned_run() },
            r#"{"v":1,"type":"explored","session":"a","run":{"heuristic":"E","digest":"h=E;trials=9","trials":9,"feasible_trials":4,"feasible":2,"completion":"truncated_deadline","degraded":true,"elapsed_ms":1.25,"predictor_calls":2,"cache_hits":1,"cache_misses":2,"subtrees_skipped":3,"combinations_skipped":120}}"#,
        ),
        (
            Response::Repartitioned { session: "a".into(), node: 3, to: 1 },
            r#"{"v":1,"type":"repartitioned","session":"a","node":3,"to":1}"#,
        ),
        (
            Response::Optimized {
                session: "a".into(),
                result: Box::new(OptimizeSummary {
                    digest: "opt;completion=Complete;".into(),
                    feasible: true,
                    initial_score: 1e18,
                    final_score: 61_252.5,
                    evaluations: 17,
                    passes: 3,
                    kicks: 1,
                    completion: Completion::Complete,
                    moves: vec![
                        MoveSummary {
                            nodes: vec![4],
                            from: 0,
                            to: 2,
                            pass: 1,
                            kind: MoveKind::Gain,
                        },
                        MoveSummary {
                            nodes: vec![1, 2],
                            from: 2,
                            to: 1,
                            pass: 2,
                            kind: MoveKind::Kick,
                        },
                    ],
                    run: RunSummary {
                        heuristic: Heuristic::Iterative,
                        completion: Completion::DegradedToIterative,
                        ..pinned_run()
                    },
                }),
            },
            r#"{"v":1,"type":"optimized","session":"a","result":{"digest":"opt;completion=Complete;","feasible":true,"initial_score":1000000000000000000,"final_score":61252.5,"evaluations":17,"passes":3,"kicks":1,"completion":"complete","moves":[{"nodes":[4],"from":0,"to":2,"pass":1,"kind":"gain"},{"nodes":[1,2],"from":2,"to":1,"pass":2,"kind":"kick"}],"run":{"heuristic":"I","digest":"h=E;trials=9","trials":9,"feasible_trials":4,"feasible":2,"completion":"degraded_to_iterative","degraded":true,"elapsed_ms":1.25,"predictor_calls":2,"cache_hits":1,"cache_misses":2,"subtrees_skipped":3,"combinations_skipped":120}}}"#,
        ),
        (
            Response::Optimized {
                session: "a".into(),
                result: Box::new(OptimizeSummary {
                    digest: String::new(),
                    feasible: false,
                    initial_score: 0.0,
                    final_score: 0.0,
                    evaluations: 0,
                    passes: 0,
                    kicks: 0,
                    completion: Completion::TruncatedTrials,
                    moves: vec![],
                    run: pinned_run(),
                }),
            },
            r#"{"v":1,"type":"optimized","session":"a","result":{"digest":"","feasible":false,"initial_score":0,"final_score":0,"evaluations":0,"passes":0,"kicks":0,"completion":"truncated_trials","moves":[],"run":{"heuristic":"E","digest":"h=E;trials=9","trials":9,"feasible_trials":4,"feasible":2,"completion":"truncated_deadline","degraded":true,"elapsed_ms":1.25,"predictor_calls":2,"cache_hits":1,"cache_misses":2,"subtrees_skipped":3,"combinations_skipped":120}}}"#,
        ),
        (
            Response::MovesApplied { session: "a".into(), moves: 2 },
            r#"{"v":1,"type":"moves_applied","session":"a","moves":2}"#,
        ),
        (
            Response::ConstraintsSet {
                session: "a".into(),
                performance_ns: 12_500.0,
                delay_ns: 8_000.25,
            },
            r#"{"v":1,"type":"constraints_set","session":"a","performance_ns":12500,"delay_ns":8000.25}"#,
        ),
        (
            Response::Stats {
                sessions: vec!["a".into(), "b".into()],
                cache: CacheStats { hits: 5, misses: 3, evictions: 1, entries: 3, bytes: 640 },
                shard_entries: vec![2, 0, 1, 0],
                last_run: Some(pinned_run()),
            },
            r#"{"v":1,"type":"stats","sessions":["a","b"],"cache":{"hits":5,"misses":3,"evictions":1,"entries":3,"bytes":640},"shard_entries":[2,0,1,0],"last_run":{"heuristic":"E","digest":"h=E;trials=9","trials":9,"feasible_trials":4,"feasible":2,"completion":"truncated_deadline","degraded":true,"elapsed_ms":1.25,"predictor_calls":2,"cache_hits":1,"cache_misses":2,"subtrees_skipped":3,"combinations_skipped":120}}"#,
        ),
        (
            Response::Stats {
                sessions: vec![],
                cache: CacheStats::default(),
                shard_entries: vec![],
                last_run: None,
            },
            r#"{"v":1,"type":"stats","sessions":[],"cache":{"hits":0,"misses":0,"evictions":0,"entries":0,"bytes":0},"shard_entries":[],"last_run":null}"#,
        ),
        (Response::Closed { session: "a".into() }, r#"{"v":1,"type":"closed","session":"a"}"#),
        (Response::ShuttingDown, r#"{"v":1,"type":"shutting_down"}"#),
        (Response::ReplAck { seq: 99 }, r#"{"v":1,"type":"repl_ack","seq":99}"#),
        (
            Response::Promoted { sessions: 3, epoch: 7 },
            r#"{"v":1,"type":"promoted","sessions":3,"epoch":7}"#,
        ),
        (
            Response::Busy { inflight: 8, max_inflight: 8, retry_after_ms: 75 },
            r#"{"v":1,"type":"busy","inflight":8,"max_inflight":8,"retry_after_ms":75}"#,
        ),
        (
            Response::PairAdded { pairs: vec!["a:1 active".into(), "b:2 active".into()] },
            r#"{"v":1,"type":"pair_added","pairs":["a:1 active","b:2 active"]}"#,
        ),
        (
            Response::PairRemoved { pairs: vec![] },
            r#"{"v":1,"type":"pair_removed","pairs":[]}"#,
        ),
        (
            Response::RouterStatus { pairs: vec!["a:1 active, standby b:2 (armed)".into()] },
            r#"{"v":1,"type":"router_status","pairs":["a:1 active, standby b:2 (armed)"]}"#,
        ),
        (
            Response::Exported { session: "a".into(), records: vec!["r1".into()] },
            r#"{"v":1,"type":"exported","session":"a","records":["r1"]}"#,
        ),
        (
            Response::Imported { session: "a".into(), records: 4 },
            r#"{"v":1,"type":"imported","session":"a","records":4}"#,
        ),
        (
            Response::Error(ServiceError::new(ErrorKind::UnknownSession, "no session \"z\"")),
            r#"{"v":1,"type":"error","kind":"unknown_session","message":"no session \"z\""}"#,
        ),
        (
            Response::Error(
                ServiceError::new(ErrorKind::Standby, "standby refuses mutations")
                    .with_redirect(Some("10.0.0.1:1991".into()), 2),
            ),
            r#"{"v":1,"type":"error","kind":"standby","message":"standby refuses mutations","primary":"10.0.0.1:1991","epoch":2}"#,
        ),
        (
            Response::Error(
                ServiceError::new(ErrorKind::Fenced, "stale epoch").with_redirect(None, 9),
            ),
            r#"{"v":1,"type":"error","kind":"fenced","message":"stale epoch","epoch":9}"#,
        ),
        (
            Response::Error(ServiceError::new(ErrorKind::Protocol, "bad")),
            r#"{"v":1,"type":"error","kind":"protocol","message":"bad"}"#,
        ),
        (
            Response::Error(ServiceError::new(ErrorKind::SessionExists, "dup")),
            r#"{"v":1,"type":"error","kind":"session_exists","message":"dup"}"#,
        ),
        (
            Response::Error(ServiceError::new(ErrorKind::Spec, "spec")),
            r#"{"v":1,"type":"error","kind":"spec","message":"spec"}"#,
        ),
        (
            Response::Error(ServiceError::new(ErrorKind::Engine, "engine")),
            r#"{"v":1,"type":"error","kind":"engine","message":"engine"}"#,
        ),
        (
            Response::Error(ServiceError::new(ErrorKind::Internal, "internal")),
            r#"{"v":1,"type":"error","kind":"internal","message":"internal"}"#,
        ),
    ]
}

#[test]
fn encodings_are_byte_pinned() {
    for (req, line) in pinned_requests() {
        assert_eq!(req.encode(), line);
        assert_eq!(Request::decode(line).expect(line), req, "{line}");
        // A `req_id` rides at the end of the same object.
        let tagged = format!("{},\"req_id\":\"r-1\"}}", &line[..line.len() - 1]);
        assert_eq!(req.encode_tagged(Some("r-1")), tagged);
        assert_eq!(Request::decode_tagged(&tagged).expect(&tagged), (req, Some("r-1".into())));
    }
    for (resp, line) in pinned_responses() {
        assert_eq!(resp.encode(), line);
        assert_eq!(Response::decode(line).expect(line), resp, "{line}");
    }
}
