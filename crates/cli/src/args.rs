//! Hand-rolled option parsing (the approved dependency list has no clap).

use std::fmt;

use chop_core::prelude::Heuristic;

/// Options shared by `check` and `tasks`.
#[derive(Debug, Clone)]
pub struct Options {
    /// Spec file path.
    pub spec: String,
    /// Number of partitions (and default chips).
    pub partitions: usize,
    /// Number of chips (defaults to `partitions`).
    pub chips: Option<usize>,
    /// Package pins: 64 or 84 (Table 2).
    pub package_pins: u32,
    /// Performance constraint in ns.
    pub performance: f64,
    /// Delay constraint in ns.
    pub delay: f64,
    /// Optional system power limit in mW.
    pub power: Option<f64>,
    /// Multi-cycle operation style (default single-cycle).
    pub multi_cycle: bool,
    /// Datapath clock multiplier over the 300 ns main clock.
    pub dp_mult: u32,
    /// Search heuristic (`--heuristic e|i`).
    pub heuristic: Heuristic,
    /// Testability: none|partial|full.
    pub testability: String,
    /// On-chip memory placements: `(memory index, chip index)`.
    pub on_chip_memories: Vec<(u32, u32)>,
    /// Use the extended library (comparators, logic, shifters).
    pub extended_library: bool,
    /// Emit a markdown report instead of plain text (check only).
    pub markdown: bool,
    /// Wall-clock deadline for exploration, in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Cap on global combinations examined.
    pub max_trials: Option<usize>,
    /// Cap on retained design points.
    pub max_points: Option<usize>,
    /// Never degrade heuristic E to I, however large the space.
    pub no_degrade: bool,
    /// Disable branch-and-bound subtree skipping in heuristic E (the
    /// exhaustive odometer walk; results are identical, only slower).
    pub no_bnb: bool,
    /// Worker threads for prediction and combination scoring
    /// (default: available parallelism).
    pub jobs: Option<usize>,
    /// Print the per-stage trace and cache statistics after the search.
    pub stats: bool,
    /// Write the trace and cache statistics as JSON to this path.
    pub stats_json: Option<String>,
    /// What-if migration: `(node index, target partition)` re-explored
    /// incrementally after the baseline run.
    pub move_node: Option<(u32, u32)>,
    /// Lock stripes in the prediction cache (`None` sizes the stripe
    /// from `--jobs`; results never depend on the shard count).
    pub cache_shards: Option<usize>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            spec: String::new(),
            partitions: 1,
            chips: None,
            package_pins: 84,
            performance: 30_000.0,
            delay: 30_000.0,
            power: None,
            multi_cycle: false,
            dp_mult: 10,
            heuristic: Heuristic::Iterative,
            testability: "none".to_owned(),
            on_chip_memories: Vec::new(),
            extended_library: false,
            markdown: false,
            deadline_ms: None,
            max_trials: None,
            max_points: None,
            no_degrade: false,
            no_bnb: false,
            jobs: None,
            stats: false,
            stats_json: None,
            move_node: None,
            cache_shards: None,
        }
    }
}

/// A user-facing argument error.
#[derive(Debug)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (run `chop help`)", self.0)
    }
}

impl std::error::Error for ArgError {}

/// Parses a `--heuristic` value: `e` (enumeration) or `i` (iterative),
/// either case.
pub fn parse_heuristic(v: &str) -> Result<Heuristic, ArgError> {
    match v {
        "e" | "E" => Ok(Heuristic::Enumeration),
        "i" | "I" => Ok(Heuristic::Iterative),
        _ => Err(ArgError("--heuristic must be e or i".into())),
    }
}

/// Parses `check`/`tasks` options from argv (after the subcommand).
pub fn parse_options(argv: &[String]) -> Result<Options, ArgError> {
    let mut opts = Options::default();
    let mut it = argv.iter().peekable();
    let mut positional = Vec::new();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<String, ArgError> {
            it.next().cloned().ok_or_else(|| ArgError(format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--partitions" | "-k" => {
                opts.partitions = value(arg)?
                    .parse()
                    .map_err(|_| ArgError(format!("bad value for {arg}")))?;
            }
            "--chips" => {
                opts.chips = Some(
                    value(arg)?
                        .parse()
                        .map_err(|_| ArgError(format!("bad value for {arg}")))?,
                );
            }
            "--package" => {
                let v: u32 = value(arg)?
                    .parse()
                    .map_err(|_| ArgError(format!("bad value for {arg}")))?;
                if v != 64 && v != 84 {
                    return Err(ArgError("--package must be 64 or 84".into()));
                }
                opts.package_pins = v;
            }
            "--perf" => {
                opts.performance = value(arg)?
                    .parse()
                    .map_err(|_| ArgError(format!("bad value for {arg}")))?;
            }
            "--delay" => {
                opts.delay = value(arg)?
                    .parse()
                    .map_err(|_| ArgError(format!("bad value for {arg}")))?;
            }
            "--power" => {
                opts.power = Some(
                    value(arg)?
                        .parse()
                        .map_err(|_| ArgError(format!("bad value for {arg}")))?,
                );
            }
            "--multi-cycle" => {
                opts.multi_cycle = true;
                if opts.dp_mult == 10 {
                    opts.dp_mult = 1;
                }
            }
            "--dp-mult" => {
                opts.dp_mult = value(arg)?
                    .parse()
                    .map_err(|_| ArgError(format!("bad value for {arg}")))?;
            }
            "--heuristic" => opts.heuristic = parse_heuristic(&value(arg)?)?,
            "--testability" => {
                let v = value(arg)?;
                if !["none", "partial", "full"].contains(&v.as_str()) {
                    return Err(ArgError("--testability must be none, partial or full".into()));
                }
                opts.testability = v;
            }
            "--on-chip-memory" => {
                let v = value(arg)?;
                let (m, c) = v
                    .split_once(':')
                    .ok_or_else(|| ArgError("--on-chip-memory wants M:CHIP".into()))?;
                let m = m
                    .trim_start_matches('M')
                    .parse()
                    .map_err(|_| ArgError("bad memory index".into()))?;
                let c = c.parse().map_err(|_| ArgError("bad chip index".into()))?;
                opts.on_chip_memories.push((m, c));
            }
            "--extended-library" => opts.extended_library = true,
            "--markdown" => opts.markdown = true,
            "--deadline" => {
                opts.deadline_ms = Some(
                    value(arg)?
                        .parse()
                        .map_err(|_| ArgError(format!("bad value for {arg}")))?,
                );
            }
            "--max-trials" => {
                opts.max_trials = Some(
                    value(arg)?
                        .parse()
                        .map_err(|_| ArgError(format!("bad value for {arg}")))?,
                );
            }
            "--max-points" => {
                opts.max_points = Some(
                    value(arg)?
                        .parse()
                        .map_err(|_| ArgError(format!("bad value for {arg}")))?,
                );
            }
            "--no-degrade" => opts.no_degrade = true,
            "--no-bnb" => opts.no_bnb = true,
            "--jobs" | "-j" => {
                let n: usize = value(arg)?
                    .parse()
                    .map_err(|_| ArgError(format!("bad value for {arg}")))?;
                if n == 0 {
                    return Err(ArgError("--jobs must be at least 1".into()));
                }
                opts.jobs = Some(n);
            }
            "--stats" => opts.stats = true,
            "--stats-json" => opts.stats_json = Some(value(arg)?),
            "--cache-shards" => {
                let n: usize = value(arg)?
                    .parse()
                    .map_err(|_| ArgError(format!("bad value for {arg}")))?;
                if n == 0 {
                    return Err(ArgError("--cache-shards must be at least 1".into()));
                }
                opts.cache_shards = Some(n);
            }
            "--move-node" => {
                let v = value(arg)?;
                let (n, p) = v
                    .split_once(':')
                    .ok_or_else(|| ArgError("--move-node wants NODE:PARTITION".into()))?;
                let n = n.parse().map_err(|_| ArgError("bad node index".into()))?;
                let p = p.parse().map_err(|_| ArgError("bad partition index".into()))?;
                opts.move_node = Some((n, p));
            }
            flag if flag.starts_with('-') => {
                return Err(ArgError(format!("unknown option {flag}")));
            }
            _ => positional.push(arg.clone()),
        }
    }
    match positional.as_slice() {
        [spec] => opts.spec = spec.clone(),
        [] => return Err(ArgError("missing <spec.cbs> argument".into())),
        _ => return Err(ArgError("too many positional arguments".into())),
    }
    Ok(opts)
}

/// Optimizer-specific options for `chop optimize`; the shared session
/// options (spec, partitions, constraints, budget) ride in [`Options`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OptimizeOptions {
    /// Seed for the optimizer's deterministic randomness.
    pub seed: u64,
    /// Cap on candidate move evaluations (the optimizer's trial budget).
    pub max_moves: Option<u64>,
    /// Plateau kicks allowed (`None` = the core default).
    pub kicks: Option<u32>,
    /// Annealed moves attempted per kick (`None` = the core default).
    pub kick_moves: Option<u32>,
    /// Node indices pinned to their current partition.
    pub pinned: Vec<u32>,
    /// Groups of node indices that move atomically and stay co-located.
    pub groups: Vec<Vec<u32>>,
    /// Node index pairs that must never share a partition.
    pub exclusions: Vec<(u32, u32)>,
}

/// Parses `optimize` options from argv (after the subcommand): the
/// optimizer flags are stripped here, everything else goes through
/// [`parse_options`] unchanged.
pub fn parse_optimize_options(argv: &[String]) -> Result<(Options, OptimizeOptions), ArgError> {
    let mut oopts = OptimizeOptions::default();
    let mut rest = Vec::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<String, ArgError> {
            it.next().cloned().ok_or_else(|| ArgError(format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--seed" => {
                oopts.seed = value(arg)?
                    .parse()
                    .map_err(|_| ArgError(format!("bad value for {arg}")))?;
            }
            "--max-moves" => {
                oopts.max_moves = Some(
                    value(arg)?
                        .parse()
                        .map_err(|_| ArgError(format!("bad value for {arg}")))?,
                );
            }
            "--kicks" => {
                oopts.kicks = Some(
                    value(arg)?
                        .parse()
                        .map_err(|_| ArgError(format!("bad value for {arg}")))?,
                );
            }
            "--kick-moves" => {
                oopts.kick_moves = Some(
                    value(arg)?
                        .parse()
                        .map_err(|_| ArgError(format!("bad value for {arg}")))?,
                );
            }
            "--pin" => {
                oopts
                    .pinned
                    .push(value(arg)?.parse().map_err(|_| ArgError("bad node index".into()))?);
            }
            "--group" => {
                let nodes = value(arg)?
                    .split(',')
                    .map(|n| n.trim().parse().map_err(|_| ArgError("bad node index".into())))
                    .collect::<Result<Vec<u32>, _>>()?;
                if nodes.len() < 2 {
                    return Err(ArgError("--group wants at least two node indices".into()));
                }
                oopts.groups.push(nodes);
            }
            "--exclude" => {
                let v = value(arg)?;
                let (a, b) =
                    v.split_once(':').ok_or_else(|| ArgError("--exclude wants A:B".into()))?;
                let a = a.parse().map_err(|_| ArgError("bad node index".into()))?;
                let b = b.parse().map_err(|_| ArgError("bad node index".into()))?;
                oopts.exclusions.push((a, b));
            }
            _ => rest.push(arg.clone()),
        }
    }
    Ok((parse_options(&rest)?, oopts))
}

/// Options for `chop serve`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOptions {
    /// Listen address. Port 0 asks the OS for an ephemeral port (the
    /// server prints the bound address either way).
    pub addr: String,
    /// Worker threads running explorations.
    pub workers: usize,
    /// Explorations queued or running before `busy` replies.
    pub max_inflight: usize,
    /// Default per-exploration thread count (requests may override).
    pub jobs: Option<usize>,
    /// Directory for the write-ahead journal; `None` keeps sessions
    /// in memory only (the pre-journal behaviour).
    pub state_dir: Option<String>,
    /// Journal records tolerated before snapshot compaction (0 = never).
    pub snapshot_every: usize,
    /// Start as a warm standby: refuse direct mutations, accept the
    /// replication stream, wait to be promoted.
    pub standby: bool,
    /// Symmetric replication peer (`host:port`): ship to it while
    /// primary, accept its stream (and rejoin demoted after fencing)
    /// while standby. Combine with `--standby` to pick the initial role.
    pub peer: Option<String>,
    /// Concurrent connections accepted before new ones are refused.
    pub max_connections: usize,
    /// Close connections idle for this many milliseconds (0 = never).
    pub idle_timeout_ms: u64,
    /// Request lines admitted per connection per second; past the cap a
    /// typed `busy` reply is sent and the connection stays open (0 =
    /// uncapped).
    pub max_requests_per_sec: u32,
    /// Lock stripes in the shared prediction cache (0 = sized from the
    /// worker and jobs counts).
    pub cache_shards: usize,
    /// Prediction-cache snapshot path: loaded at startup, rewritten on
    /// graceful drain and periodically.
    pub cache_snapshot: Option<String>,
    /// Cache insertions between periodic snapshot rewrites (0 = only on
    /// graceful drain).
    pub cache_snapshot_every: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        // 1991: the year of the DAC paper — a memorable default port.
        Self {
            addr: "127.0.0.1:1991".to_owned(),
            workers: 4,
            max_inflight: 64,
            jobs: None,
            state_dir: None,
            snapshot_every: 1024,
            standby: false,
            peer: None,
            max_connections: 4096,
            idle_timeout_ms: 600_000,
            max_requests_per_sec: 0,
            cache_shards: 0,
            cache_snapshot: None,
            cache_snapshot_every: 256,
        }
    }
}

/// Parses `serve` options from argv (after the subcommand).
pub fn parse_serve_options(argv: &[String]) -> Result<ServeOptions, ArgError> {
    let mut opts = ServeOptions::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<String, ArgError> {
            it.next().cloned().ok_or_else(|| ArgError(format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--addr" => opts.addr = value(arg)?,
            "--workers" => {
                let n: usize = value(arg)?
                    .parse()
                    .map_err(|_| ArgError(format!("bad value for {arg}")))?;
                if n == 0 {
                    return Err(ArgError("--workers must be at least 1".into()));
                }
                opts.workers = n;
            }
            "--max-inflight" => {
                opts.max_inflight = value(arg)?
                    .parse()
                    .map_err(|_| ArgError(format!("bad value for {arg}")))?;
            }
            "--jobs" | "-j" => {
                let n: usize = value(arg)?
                    .parse()
                    .map_err(|_| ArgError(format!("bad value for {arg}")))?;
                if n == 0 {
                    return Err(ArgError("--jobs must be at least 1".into()));
                }
                opts.jobs = Some(n);
            }
            "--state-dir" => opts.state_dir = Some(value(arg)?),
            "--journal-snapshot-every" => {
                opts.snapshot_every = value(arg)?
                    .parse()
                    .map_err(|_| ArgError(format!("bad value for {arg}")))?;
            }
            "--standby" => opts.standby = true,
            "--peer" => opts.peer = Some(value(arg)?),
            "--max-connections" => {
                let n: usize = value(arg)?
                    .parse()
                    .map_err(|_| ArgError(format!("bad value for {arg}")))?;
                if n == 0 {
                    return Err(ArgError("--max-connections must be at least 1".into()));
                }
                opts.max_connections = n;
            }
            "--idle-timeout-ms" => {
                opts.idle_timeout_ms = value(arg)?
                    .parse()
                    .map_err(|_| ArgError(format!("bad value for {arg}")))?;
            }
            "--max-requests-per-sec" => {
                opts.max_requests_per_sec = value(arg)?
                    .parse()
                    .map_err(|_| ArgError(format!("bad value for {arg}")))?;
            }
            "--cache-shards" => {
                let n: usize = value(arg)?
                    .parse()
                    .map_err(|_| ArgError(format!("bad value for {arg}")))?;
                if n == 0 {
                    return Err(ArgError("--cache-shards must be at least 1".into()));
                }
                opts.cache_shards = n;
            }
            "--cache-snapshot" => opts.cache_snapshot = Some(value(arg)?),
            "--cache-snapshot-every" => {
                opts.cache_snapshot_every = value(arg)?
                    .parse()
                    .map_err(|_| ArgError(format!("bad value for {arg}")))?;
            }
            other => return Err(ArgError(format!("unknown serve option {other}"))),
        }
    }
    Ok(opts)
}

/// Options for `chop router`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterOptions {
    /// Listen address (same convention as `serve`: port 0 = ephemeral).
    pub addr: String,
    /// Backend pairs, each `primary[,standby]`.
    pub backends: Vec<String>,
    /// Health-check cadence, in milliseconds.
    pub health_interval_ms: u64,
}

impl Default for RouterOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:1990".to_owned(),
            backends: Vec::new(),
            health_interval_ms: 500,
        }
    }
}

/// Parses `router` options from argv (after the subcommand).
pub fn parse_router_options(argv: &[String]) -> Result<RouterOptions, ArgError> {
    let mut opts = RouterOptions::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<String, ArgError> {
            it.next().cloned().ok_or_else(|| ArgError(format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--addr" => opts.addr = value(arg)?,
            "--backend" => opts.backends.push(value(arg)?),
            "--health-interval-ms" => {
                opts.health_interval_ms = value(arg)?
                    .parse()
                    .map_err(|_| ArgError(format!("bad value for {arg}")))?;
            }
            other => return Err(ArgError(format!("unknown router option {other}"))),
        }
    }
    if opts.backends.is_empty() {
        return Err(ArgError(
            "router needs at least one --backend <primary[,standby]> pair".into(),
        ));
    }
    Ok(opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn serve_defaults_and_flags() {
        let o = parse_serve_options(&[]).unwrap();
        assert_eq!(o.addr, "127.0.0.1:1991");
        assert_eq!(o.workers, 4);
        assert_eq!(o.max_inflight, 64);
        assert_eq!(o.jobs, None);
        assert_eq!(o.state_dir, None);
        assert_eq!(o.snapshot_every, 1024);
        assert_eq!(o.max_connections, 4096);
        assert_eq!(o.idle_timeout_ms, 600_000);
        let o = parse_serve_options(&s(&[
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--max-inflight",
            "8",
            "--jobs",
            "3",
            "--state-dir",
            "/tmp/chop-state",
            "--journal-snapshot-every",
            "16",
            "--max-connections",
            "128",
            "--idle-timeout-ms",
            "15000",
        ]))
        .unwrap();
        assert_eq!(o.addr, "127.0.0.1:0");
        assert_eq!(o.workers, 2);
        assert_eq!(o.max_inflight, 8);
        assert_eq!(o.jobs, Some(3));
        assert_eq!(o.state_dir.as_deref(), Some("/tmp/chop-state"));
        assert_eq!(o.snapshot_every, 16);
        assert_eq!(o.max_connections, 128);
        assert_eq!(o.idle_timeout_ms, 15_000);
        // 0 disables idle reaping but a zero connection cap is nonsense.
        let o = parse_serve_options(&s(&["--idle-timeout-ms", "0"])).unwrap();
        assert_eq!(o.idle_timeout_ms, 0);
        // The rate cap defaults off and parses like the other limits.
        assert_eq!(o.max_requests_per_sec, 0);
        let o = parse_serve_options(&s(&["--max-requests-per-sec", "100"])).unwrap();
        assert_eq!(o.max_requests_per_sec, 100);
        assert!(parse_serve_options(&s(&["--max-requests-per-sec", "lots"])).is_err());
    }

    #[test]
    fn serve_cache_tier_flags() {
        // Defaults: auto-sized shards, no snapshot, 256-insert cadence.
        let o = parse_serve_options(&[]).unwrap();
        assert_eq!(o.cache_shards, 0);
        assert_eq!(o.cache_snapshot, None);
        assert_eq!(o.cache_snapshot_every, 256);
        let o = parse_serve_options(&s(&[
            "--cache-shards",
            "16",
            "--cache-snapshot",
            "/tmp/chop-cache.snap",
            "--cache-snapshot-every",
            "64",
        ]))
        .unwrap();
        assert_eq!(o.cache_shards, 16);
        assert_eq!(o.cache_snapshot.as_deref(), Some("/tmp/chop-cache.snap"));
        assert_eq!(o.cache_snapshot_every, 64);
        // Cadence 0 = drain-only snapshots; shard count 0 is rejected
        // (pass nothing to get auto-sizing instead).
        let o = parse_serve_options(&s(&["--cache-snapshot-every", "0"])).unwrap();
        assert_eq!(o.cache_snapshot_every, 0);
        assert!(parse_serve_options(&s(&["--cache-shards", "0"])).is_err());
        assert!(parse_serve_options(&s(&["--cache-shards", "lots"])).is_err());
        assert!(parse_serve_options(&s(&["--cache-snapshot"])).is_err());
    }

    #[test]
    fn optimize_options_parse_and_pass_through() {
        let (opts, oopts) = parse_optimize_options(&s(&[
            "d.cbs",
            "--partitions",
            "3",
            "--seed",
            "42",
            "--max-moves",
            "128",
            "--kicks",
            "2",
            "--kick-moves",
            "5",
            "--pin",
            "0",
            "--pin",
            "7",
            "--group",
            "1,2,3",
            "--exclude",
            "4:5",
            "--deadline",
            "250",
        ]))
        .unwrap();
        assert_eq!(opts.spec, "d.cbs");
        assert_eq!(opts.partitions, 3);
        assert_eq!(opts.deadline_ms, Some(250));
        assert_eq!(oopts.seed, 42);
        assert_eq!(oopts.max_moves, Some(128));
        assert_eq!(oopts.kicks, Some(2));
        assert_eq!(oopts.kick_moves, Some(5));
        assert_eq!(oopts.pinned, vec![0, 7]);
        assert_eq!(oopts.groups, vec![vec![1, 2, 3]]);
        assert_eq!(oopts.exclusions, vec![(4, 5)]);
    }

    #[test]
    fn optimize_options_default_off_and_reject_nonsense() {
        let (_, oopts) = parse_optimize_options(&s(&["d.cbs"])).unwrap();
        assert_eq!(oopts, OptimizeOptions::default());
        assert!(parse_optimize_options(&s(&["d.cbs", "--seed", "entropy"])).is_err());
        assert!(parse_optimize_options(&s(&["d.cbs", "--group", "1"])).is_err());
        assert!(parse_optimize_options(&s(&["d.cbs", "--exclude", "4"])).is_err());
        assert!(parse_optimize_options(&s(&["d.cbs", "--pin"])).is_err());
        // Unknown flags still fail in the shared parser.
        assert!(parse_optimize_options(&s(&["d.cbs", "--frobnicate"])).is_err());
    }

    #[test]
    fn serve_rejects_bad_flags() {
        assert!(parse_serve_options(&s(&["--workers", "0"])).is_err());
        assert!(parse_serve_options(&s(&["--jobs", "0"])).is_err());
        assert!(parse_serve_options(&s(&["--addr"])).is_err());
        assert!(parse_serve_options(&s(&["--state-dir"])).is_err());
        assert!(parse_serve_options(&s(&["--journal-snapshot-every", "often"])).is_err());
        assert!(parse_serve_options(&s(&["--frobnicate"])).is_err());
        assert!(parse_serve_options(&s(&["--max-connections", "0"])).is_err());
        assert!(parse_serve_options(&s(&["--max-connections", "many"])).is_err());
        assert!(parse_serve_options(&s(&["--idle-timeout-ms", "soon"])).is_err());
    }

    #[test]
    fn serve_replication_flags_parse() {
        let o = parse_serve_options(&s(&["--standby"])).unwrap();
        assert!(o.standby);
        // --peer is valid alone (primary) or with --standby (the initial
        // role of the standby half).
        let o = parse_serve_options(&s(&["--peer", "127.0.0.1:1992"])).unwrap();
        assert_eq!(o.peer.as_deref(), Some("127.0.0.1:1992"));
        assert!(!o.standby);
        let o = parse_serve_options(&s(&["--peer", "127.0.0.1:1991", "--standby"])).unwrap();
        assert!(o.standby && o.peer.is_some());
        assert!(parse_serve_options(&s(&["--peer"])).is_err());
        assert!(parse_serve_options(&s(&["--replicate-to", "127.0.0.1:1992"])).is_err());
    }

    #[test]
    fn router_options_parse() {
        let o = parse_router_options(&s(&[
            "--addr",
            "127.0.0.1:0",
            "--backend",
            "127.0.0.1:1991,127.0.0.1:1992",
            "--backend",
            "127.0.0.1:2991",
            "--health-interval-ms",
            "250",
        ]))
        .unwrap();
        assert_eq!(o.addr, "127.0.0.1:0");
        assert_eq!(o.backends.len(), 2);
        assert_eq!(o.health_interval_ms, 250);
        assert!(parse_router_options(&[]).is_err(), "no backends is an error");
        assert!(parse_router_options(&s(&["--backend"])).is_err());
        assert!(parse_router_options(&s(&["--health-interval-ms", "soon"])).is_err());
        assert!(parse_router_options(&s(&["--frobnicate"])).is_err());
    }

    #[test]
    fn defaults_and_spec() {
        let o = parse_options(&s(&["design.cbs"])).unwrap();
        assert_eq!(o.spec, "design.cbs");
        assert_eq!(o.partitions, 1);
        assert_eq!(o.package_pins, 84);
        assert!(!o.multi_cycle);
    }

    #[test]
    fn full_flag_set() {
        let o = parse_options(&s(&[
            "d.cbs",
            "--partitions",
            "3",
            "--package",
            "64",
            "--perf",
            "20000",
            "--delay",
            "25000",
            "--multi-cycle",
            "--heuristic",
            "e",
            "--power",
            "5000",
            "--testability",
            "full",
            "--on-chip-memory",
            "M0:1",
        ]))
        .unwrap();
        assert_eq!(o.partitions, 3);
        assert_eq!(o.package_pins, 64);
        assert_eq!(o.performance, 20_000.0);
        assert!(o.multi_cycle);
        assert_eq!(o.dp_mult, 1);
        assert_eq!(o.heuristic, Heuristic::Enumeration);
        assert_eq!(o.power, Some(5000.0));
        assert_eq!(o.testability, "full");
        assert_eq!(o.on_chip_memories, vec![(0, 1)]);
    }

    #[test]
    fn budget_flags_parse() {
        let o = parse_options(&s(&[
            "d.cbs",
            "--deadline",
            "250",
            "--max-trials",
            "5000",
            "--max-points",
            "100",
            "--no-degrade",
            "--no-bnb",
        ]))
        .unwrap();
        assert_eq!(o.deadline_ms, Some(250));
        assert_eq!(o.max_trials, Some(5000));
        assert_eq!(o.max_points, Some(100));
        assert!(o.no_degrade);
        assert!(o.no_bnb);
    }

    #[test]
    fn budget_flags_default_off() {
        let o = parse_options(&s(&["d.cbs"])).unwrap();
        assert_eq!(o.deadline_ms, None);
        assert_eq!(o.max_trials, None);
        assert_eq!(o.max_points, None);
        assert!(!o.no_degrade);
        assert!(!o.no_bnb);
    }

    #[test]
    fn engine_flags_parse() {
        let o = parse_options(&s(&[
            "d.cbs",
            "--jobs",
            "4",
            "--stats",
            "--stats-json",
            "out.json",
            "--move-node",
            "7:1",
        ]))
        .unwrap();
        assert_eq!(o.jobs, Some(4));
        assert!(o.stats);
        assert_eq!(o.stats_json.as_deref(), Some("out.json"));
        assert_eq!(o.move_node, Some((7, 1)));
        let o = parse_options(&s(&["d.cbs", "--cache-shards", "8"])).unwrap();
        assert_eq!(o.cache_shards, Some(8));
        assert!(parse_options(&s(&["d.cbs", "--cache-shards", "0"])).is_err());
    }

    #[test]
    fn engine_flags_default_off() {
        let o = parse_options(&s(&["d.cbs"])).unwrap();
        assert_eq!(o.jobs, None);
        assert!(!o.stats);
        assert_eq!(o.stats_json, None);
        assert_eq!(o.move_node, None);
    }

    #[test]
    fn rejects_zero_jobs() {
        assert!(parse_options(&s(&["d.cbs", "--jobs", "0"])).is_err());
    }

    #[test]
    fn rejects_malformed_move_node() {
        assert!(parse_options(&s(&["d.cbs", "--move-node", "7"])).is_err());
        assert!(parse_options(&s(&["d.cbs", "--move-node", "a:b"])).is_err());
    }

    #[test]
    fn rejects_bad_deadline() {
        assert!(parse_options(&s(&["d.cbs", "--deadline", "soon"])).is_err());
    }

    #[test]
    fn rejects_unknown_flag() {
        assert!(parse_options(&s(&["d.cbs", "--frobnicate"])).is_err());
    }

    #[test]
    fn rejects_bad_package() {
        assert!(parse_options(&s(&["d.cbs", "--package", "100"])).is_err());
    }

    #[test]
    fn rejects_missing_spec() {
        assert!(parse_options(&s(&["--partitions", "2"])).is_err());
    }
}
