//! The `serve_routed` workload: session cycles sent through `chop router`
//! to a journaled `chop serve` primary replicating to a journaled
//! standby, all three spawned as release binaries.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use chop_core::prelude::{Constraints, Heuristic, PartitionId, Session};
use chop_service::{build_session, Client, ExploreParams, OpenParams, Request, Response};
use chop_stat::units::Nanos;

use crate::stats::{peak_rss_mb, Rng};
use crate::trace::{Tracer, CHECK, OP, READ, WRITE};
use crate::{Counters, LoopResult, OpRecord};

/// Client connections driving the timed loop, one per core of the
/// reference host.
pub const CONNECTIONS: usize = 2;
/// Distinct (move, constraints) variants a seed generates; cycle `c`
/// runs variant `c % VARIANTS`.
pub const VARIANTS: usize = 8;
/// The steps of one cycle, in order.
pub const STEPS: [&str; 8] = [
    "open",
    "explore",
    "repartition",
    "explore",
    "set_constraints",
    "explore",
    "stats",
    "close",
];
/// The distinct request kinds a cycle sends.
pub const KINDS: [&str; 6] =
    ["open", "explore", "repartition", "set_constraints", "stats", "close"];

const SPEC: &str = include_str!("../../specs/biquad.cbs");
const BANNER_TIMEOUT: Duration = Duration::from_secs(20);

/// One spawned `chop` process. Dropping it kills the process, waits for
/// it and joins its stdout drain.
pub struct Node {
    child: Child,
    pub addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Node {
    fn spawn(chop: &Path, args: &[&str], log: &Path) -> Result<Node, String> {
        let stderr =
            std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut child = Command::new(chop)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", chop.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = std::sync::mpsc::channel();
        // Keep reading after the banner: a closed pipe would make the
        // node's later status lines fail.
        let drain = std::thread::spawn(move || {
            let mut reader = BufReader::new(stdout);
            let mut line = String::new();
            let mut sent = false;
            while reader.read_line(&mut line).is_ok_and(|n| n > 0) {
                if !sent {
                    if let Some(rest) = line.split("listening on ").nth(1) {
                        let addr = rest.split_whitespace().next().unwrap_or("").to_owned();
                        let _ = tx.send(addr);
                        sent = true;
                    }
                }
                line.clear();
            }
        });
        let mut node = Node { child, addr: String::new(), drain: Some(drain) };
        match rx.recv_timeout(BANNER_TIMEOUT) {
            Ok(addr) if !addr.is_empty() => {
                node.addr = addr;
                Ok(node)
            }
            _ => Err(format!("`chop {}` printed no listening banner", args.join(" "))),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// Standby, primary and router, torn down router first.
pub struct Cluster {
    pub router: Node,
    pub primary: Node,
    pub standby: Node,
    pub primary_dir: PathBuf,
}

impl Cluster {
    pub fn spawn(chop: &Path, dir: &Path) -> Result<Cluster, String> {
        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let standby_dir = dir.join("standby");
        let primary_dir = dir.join("primary");
        let path = |p: &Path| p.to_string_lossy().into_owned();
        let standby = Node::spawn(
            chop,
            &[
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--standby",
                "--state-dir",
                &path(&standby_dir),
            ],
            &dir.join("standby.log"),
        )?;
        let primary = Node::spawn(
            chop,
            &[
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--state-dir",
                &path(&primary_dir),
                "--peer",
                &standby.addr,
            ],
            &dir.join("primary.log"),
        )?;
        let pair = format!("{},{}", primary.addr, standby.addr);
        let router = Node::spawn(
            chop,
            &["router", "--addr", "127.0.0.1:0", "--backend", &pair],
            &dir.join("router.log"),
        )?;
        Ok(Cluster { router, primary, standby, primary_dir })
    }

    /// Records in the primary's journal file.
    pub fn primary_journal_records(&self) -> Result<u64, String> {
        let path = self.primary_dir.join(chop_service::journal::JOURNAL_FILE);
        let raw =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(raw.lines().filter(|l| l.starts_with("J1 ")).count() as u64)
    }
}

/// One generated what-if: a node move and a constraint change, with the
/// in-process digests each `explore` of the cycle must reproduce.
#[derive(Debug, Clone)]
pub struct Variant {
    pub node: u32,
    pub to: u32,
    pub performance_ns: f64,
    pub delay_ns: f64,
    /// Digests after open, after the move, after the constraint change.
    pub digests: [String; 3],
}

/// The seed's cycle plan.
#[derive(Debug, Clone)]
pub struct Plan {
    pub seed: u64,
    pub variants: Vec<Variant>,
}

pub fn open_params() -> OpenParams {
    OpenParams { spec: SPEC.to_owned(), partitions: 2, chips: Some(2), ..OpenParams::default() }
}

fn explore_digest(session: &Session) -> Result<String, String> {
    Ok(session.explore(Heuristic::Iterative).map_err(|e| e.to_string())?.digest())
}

impl Plan {
    /// Generates the variants and their reference digests in-process
    /// through the core `Session` API.
    pub fn new(seed: u64) -> Result<Plan, String> {
        let base = build_session(&open_params(), 1).map_err(|e| e.to_string())?;
        let opened = explore_digest(&base)?;
        let mut rng = Rng::new(seed);
        let nodes: Vec<_> = base.partitioning().dfg().nodes().map(|(id, _)| id).collect();
        let mut variants = Vec::new();
        while variants.len() < VARIANTS {
            let node = nodes[rng.below(nodes.len() as u64) as usize];
            let from = base.partitioning().grouping().group_of(node) as u32;
            let to = 1 - from;
            let Ok(moved) = base.repartition(node, PartitionId::new(to)) else { continue };
            let performance_ns =
                [20_000.0, 25_000.0, 30_000.0, 40_000.0][rng.below(4) as usize];
            let delay_ns = [30_000.0, 40_000.0, 50_000.0][rng.below(3) as usize];
            let constrained = moved
                .clone()
                .try_with_constraints(Constraints::new(
                    Nanos::new(performance_ns),
                    Nanos::new(delay_ns),
                ))
                .map_err(|e| e.to_string())?;
            variants.push(Variant {
                node: node.index() as u32,
                to,
                performance_ns,
                delay_ns,
                digests: [
                    opened.clone(),
                    explore_digest(&moved)?,
                    explore_digest(&constrained)?,
                ],
            });
        }
        Ok(Plan { seed, variants })
    }

    /// The requests of one cycle on session `name`, with their `req_id`
    /// tags (mutations only, as `chop client --retry` sends them).
    pub fn cycle(&self, name: &str, variant: usize) -> Vec<(Request, Option<String>)> {
        let v = &self.variants[variant % self.variants.len()];
        let session = name.to_owned();
        let explore =
            || Request::Explore { session: session.clone(), params: ExploreParams::default() };
        let requests = vec![
            Request::Open { session: session.clone(), params: open_params() },
            explore(),
            Request::Repartition { session: session.clone(), node: v.node, to: v.to },
            explore(),
            Request::SetConstraints {
                session: session.clone(),
                performance_ns: v.performance_ns,
                delay_ns: v.delay_ns,
            },
            explore(),
            Request::Stats { session: Some(session.clone()) },
            Request::Close { session: session.clone() },
        ];
        requests
            .into_iter()
            .enumerate()
            .map(|(step, r)| {
                let tag = r.is_mutation().then(|| format!("{name}-{step}"));
                (r, tag)
            })
            .collect()
    }

    /// Whether `response` is the right answer to step `step` of a cycle
    /// on `name` running `variant`. Returns the predictor calls and cache
    /// hits/misses an `explore` reported.
    pub fn check(
        &self,
        name: &str,
        variant: usize,
        step: usize,
        response: &Response,
    ) -> Option<[u64; 3]> {
        let v = &self.variants[variant % self.variants.len()];
        let ok = match (step, response) {
            (0, Response::Opened { session, partitions }) => {
                session == name && *partitions == 2
            }
            (1 | 3 | 5, Response::Explored { session, run }) => {
                if session != name || run.digest != v.digests[(step - 1) / 2] {
                    return None;
                }
                return Some([run.predictor_calls, run.cache_hits, run.cache_misses]);
            }
            (2, Response::Repartitioned { session, node, to }) => {
                session == name && *node == v.node && *to == v.to
            }
            (4, Response::ConstraintsSet { session, performance_ns, delay_ns }) => {
                session == name
                    && *performance_ns == v.performance_ns
                    && *delay_ns == v.delay_ns
            }
            (6, Response::Stats { sessions, last_run, .. }) => {
                sessions.iter().any(|s| s == name)
                    && last_run.as_ref().is_some_and(|r| r.digest == v.digests[2])
            }
            (7, Response::Closed { session }) => session == name,
            _ => false,
        };
        ok.then_some([0, 0, 0])
    }
}

/// A running cluster plus its plan.
pub struct ServeRouted {
    pub cluster: Cluster,
    pub plan: Plan,
}

/// One cycle's outcome on a connection.
pub struct CycleStats {
    pub records: Vec<OpRecord>,
    /// Predictor calls, cache hits, cache misses the explores reported.
    pub engine: [u64; 3],
}

/// Runs one cycle over `client`, timing each request.
pub fn run_cycle(
    client: &mut Client,
    plan: &Plan,
    name: &str,
    variant: usize,
    t: &mut Tracer,
    first_op: u64,
) -> CycleStats {
    let mut records = Vec::with_capacity(STEPS.len());
    let mut engine = [0u64; 3];
    for (step, (request, tag)) in plan.cycle(name, variant).into_iter().enumerate() {
        let op_id = first_op + step as u64;
        let op = t.open(OP, op_id, Tracer::root());
        let write = request.is_mutation();
        let span = t.open(if write { WRITE } else { READ }, op_id, op);
        let started = Instant::now();
        let response = client.request_tagged(&request, tag.as_deref());
        let latency = started.elapsed();
        t.close(span);
        let span = t.open(CHECK, op_id, op);
        let checked = response.ok().and_then(|r| plan.check(name, variant, step, &r));
        t.close(span);
        t.close(op);
        if let Some(e) = checked {
            for (acc, x) in engine.iter_mut().zip(e) {
                *acc += x;
            }
        }
        records.push(OpRecord {
            latency,
            read: (!write).then_some(latency),
            write: write.then_some(latency),
            ok: checked.is_some(),
        });
    }
    CycleStats { records, engine }
}

impl ServeRouted {
    /// Plans the cycles, starts the cluster and sends every variant's
    /// cycle once through the router on one connection, filling the
    /// primary's cache. That warm-up is a fixed amount of work, so its
    /// counters are deterministic.
    pub fn setup(chop: &Path, dir: &Path, seed: u64) -> Result<(Self, Counters), String> {
        let plan = Plan::new(seed)?;
        let cluster = Cluster::spawn(chop, dir)?;
        let mut client =
            Client::connect(cluster.router.addr.as_str()).map_err(|e| e.to_string())?;
        let mut counters = Counters::new();
        let mut off = Tracer::new(false, Instant::now());
        for v in 0..VARIANTS {
            let name = format!("pb{seed}w{v}");
            let cycle = run_cycle(&mut client, &plan, &name, v, &mut off, 0);
            if let Some(step) = cycle.records.iter().position(|r| !r.ok) {
                return Err(format!(
                    "warm-up cycle {v}: step {} failed its check",
                    STEPS[step]
                ));
            }
            let writes = cycle.records.iter().filter(|r| r.write.is_some()).count() as u64;
            *counters.entry("writes").or_default() += writes;
            *counters.entry("predictor_calls").or_default() += cycle.engine[0];
            *counters.entry("cache_hits").or_default() += cycle.engine[1];
            *counters.entry("cache_misses").or_default() += cycle.engine[2];
        }
        counters.insert("journal_appends", cluster.primary_journal_records()?);
        Ok((ServeRouted { cluster, plan }, counters))
    }

    /// Runs `CONNECTIONS` closed-loop clients through the router for
    /// `seconds`, each finishing the cycle it is in.
    pub fn run(
        &self,
        seconds: f64,
        trace: bool,
        origin: Instant,
        next_cycle: &mut u64,
    ) -> Result<(LoopResult, Vec<Tracer>), String> {
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(seconds);
        let base = *next_cycle;
        let results: Vec<Result<(LoopResult, Tracer, u64), String>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..CONNECTIONS)
                    .map(|conn| {
                        scope.spawn(move || {
                            self.client_loop(conn, base, deadline, Tracer::new(trace, origin))
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|_| Err("client thread panicked".into())))
                    .collect()
            });
        let mut out = LoopResult::default();
        let mut tracers = Vec::new();
        let mut most = 0;
        for r in results {
            let (result, tracer, n) = r?;
            out.merge(result);
            tracers.push(tracer);
            most = most.max(n);
        }
        *next_cycle += most * CONNECTIONS as u64;
        out.elapsed = started.elapsed();
        Ok((out, tracers))
    }

    fn client_loop(
        &self,
        conn: usize,
        base: u64,
        deadline: Instant,
        mut tracer: Tracer,
    ) -> Result<(LoopResult, Tracer, u64), String> {
        let mut client =
            Client::connect(self.cluster.router.addr.as_str()).map_err(|e| e.to_string())?;
        let mut out = LoopResult::default();
        let mut cycle = 0u64;
        while Instant::now() < deadline {
            // Cycle numbers interleave across connections, so each
            // session name is used once per run.
            let global = base + cycle * CONNECTIONS as u64 + conn as u64;
            let name = format!("pb{}c{global}", self.plan.seed);
            let stats = run_cycle(
                &mut client,
                &self.plan,
                &name,
                global as usize,
                &mut tracer,
                global * STEPS.len() as u64,
            );
            for r in &stats.records {
                out.record(r);
            }
            out.predictor_calls += stats.engine[0];
            cycle += 1;
        }
        Ok((out, tracer, cycle))
    }

    pub fn primary_peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&self.cluster.primary.pid().to_string())
    }
}
