//! The versioned, newline-delimited JSON wire protocol.
//!
//! Every message is one JSON object on one line, and every object carries
//! two envelope fields: `"v"` (the protocol version, currently
//! [`PROTOCOL_VERSION`]) and `"type"` (the variant tag). Unknown *fields*
//! are ignored for forward compatibility; an unknown *type* or a version
//! mismatch is a [`ErrorKind::Protocol`] error.
//!
//! Encoding and decoding run on the [`crate::json`] value model (the
//! vendored `serde` is a no-op stub) through one private field codec:
//! every wire type — scalars, lists, the summary records and the tag
//! enums — maps to JSON and back in exactly one place, and each tag enum
//! reads its wire names from one `(variant, "tag")` table in both
//! directions. A message is then one field list per variant. The exact
//! bytes of every variant are pinned, and the round-trip guarantee —
//! `decode(encode(m)) == m` for every variant — is enforced by property
//! tests, both in `tests/protocol_roundtrip.rs`.
//!
//! Requests may additionally carry an optional client-generated `req_id`
//! envelope field ([`Request::encode_tagged`] /
//! [`Request::decode_tagged`]). A `req_id` on a *mutating* request lets
//! the server answer a retried mutation from its recorded outcome instead
//! of applying it twice — the idempotency window documented in
//! `DESIGN.md` §11.

use std::fmt;

use chop_core::prelude::{
    CacheStats, Completion, Heuristic, MoveKind, OptimizeResult, SearchOutcome,
};

use crate::json::{self, obj, Value};

/// The wire-protocol version this build speaks.
pub const PROTOCOL_VERSION: u64 = 1;

/// Longest accepted `req_id` (bounds the server's idempotency window).
pub const MAX_REQ_ID_LEN: usize = 128;

/// Classifies a [`ServiceError`]; the wire tag is the snake_case name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line was not a valid protocol message.
    Protocol,
    /// The named session does not exist.
    UnknownSession,
    /// `open` named a session that already exists.
    SessionExists,
    /// The request was well-formed but its contents are invalid (bad
    /// spec text, out-of-range partition count, zero constraint…).
    Spec,
    /// The exploration engine failed (prediction error, bad move…).
    Engine,
    /// The server malfunctioned (a handler panicked, a worker vanished).
    Internal,
    /// The node's replication role refused the request: a warm standby
    /// refuses direct mutations (they must arrive over the replication
    /// stream), and a primary refuses replication records.
    Standby,
    /// The request carried (or arrived at) a stale cluster epoch: a
    /// fenced ex-primary refuses direct mutations, and a node refuses
    /// replication traffic from a peer whose epoch is older than its
    /// own. The error carries the refusing node's epoch and its best
    /// guess at the current primary so the caller can rejoin.
    Fenced,
}

/// A typed service failure, sent on the wire as the `error` response and
/// raised locally by the [`SessionManager`](crate::manager::SessionManager).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceError {
    /// Failure class.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
    /// For `standby`/`fenced` refusals: the refusing node's best guess
    /// at the current primary's `host:port`, so clients can follow the
    /// redirect and routers can re-learn topology. `None` elsewhere.
    pub primary: Option<String>,
    /// For `fenced` refusals: the refusing node's cluster epoch.
    pub epoch: Option<u64>,
}

impl ServiceError {
    /// Builds an error of the given kind.
    #[must_use]
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        Self { kind, message: message.into(), primary: None, epoch: None }
    }

    /// A protocol-level (malformed message) error.
    #[must_use]
    pub fn protocol(message: impl Into<String>) -> Self {
        Self::new(ErrorKind::Protocol, message)
    }

    /// Attaches the redirect hint (current primary address) and epoch a
    /// `standby`/`fenced` refusal carries.
    #[must_use]
    pub fn with_redirect(mut self, primary: Option<String>, epoch: u64) -> Self {
        self.primary = primary;
        self.epoch = Some(epoch);
        self
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} error: {}", self.kind.tag(), self.message)?;
        if let Some(primary) = &self.primary {
            write!(f, " (current primary: {primary})")?;
        }
        Ok(())
    }
}

impl std::error::Error for ServiceError {}

/// Parameters of an `open` request — everything needed to build a
/// [`Session`](chop_core::Session) server-side. Mirrors the `chop check`
/// flags; fields omitted on the wire take these defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenParams {
    /// The behavioral spec, inline, in the `.cbs` text format.
    pub spec: String,
    /// Partition count (horizontal cut). Default 1.
    pub partitions: u32,
    /// Chips in the set. Default: one per partition.
    pub chips: Option<u32>,
    /// MOSIS package pins, 64 or 84. Default 84.
    pub package_pins: u32,
    /// Performance constraint in ns. Default 30 000.
    pub performance_ns: f64,
    /// System-delay constraint in ns. Default 30 000.
    pub delay_ns: f64,
    /// Multi-cycle operations (datapath multiplier 1). Default true.
    pub multi_cycle: bool,
}

impl Default for OpenParams {
    fn default() -> Self {
        Self {
            spec: String::new(),
            partitions: 1,
            chips: None,
            package_pins: 84,
            performance_ns: 30_000.0,
            delay_ns: 30_000.0,
            multi_cycle: true,
        }
    }
}

/// The shared budget envelope of every bounded request: `explore` and
/// `optimize` both carry one, and both interpret it the same way —
/// `deadline_ms` is a wall-clock cut-off, `max_trials` caps the units of
/// work examined (combinations for `explore`, move evaluations for
/// `optimize`). The third idempotency-window field, `req_id`, rides the
/// *tagged* message envelope ([`Request::encode_tagged`]) rather than the
/// budget object so read-only requests can carry it too.
///
/// On the wire the canonical form is one nested object,
/// `"budget": {"deadline_ms": …, "max_trials": …}` (omitted entirely when
/// both fields are unset); the pre-envelope flat spelling — top-level
/// `deadline_ms` / `max_trials` — still decodes as a back-compat alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BudgetEnvelope {
    /// Wall-clock deadline for the search, in ms.
    pub deadline_ms: Option<u64>,
    /// Cap on units of work examined (trials / move evaluations).
    pub max_trials: Option<u64>,
}

impl BudgetEnvelope {
    /// Whether no bound is set (the envelope is omitted on the wire).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.deadline_ms.is_none() && self.max_trials.is_none()
    }
}

/// Parameters of an `explore` request; the budget reuses the core
/// [`SearchBudget`](chop_core::prelude::SearchBudget) semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreParams {
    /// Which heuristic to run. Default I (iterative).
    pub heuristic: Heuristic,
    /// Deadline / trial-cap envelope. Default: unbounded.
    pub budget: BudgetEnvelope,
    /// Worker threads for this run. Default: the server's `--jobs`.
    pub jobs: Option<u32>,
}

impl Default for ExploreParams {
    fn default() -> Self {
        Self { heuristic: Heuristic::Iterative, budget: BudgetEnvelope::default(), jobs: None }
    }
}

/// Parameters of an `optimize` request, mirroring the builder knobs of
/// [`OptimizeSpec`](chop_core::prelude::OptimizeSpec). Node-naming fields
/// use DFG node indices; the server resolves them against the session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptimizeParams {
    /// Seed for the optimizer's deterministic randomness. Default 0.
    /// Wire numbers ride on JSON doubles, so seeds above 2^53 − 1 are
    /// rejected on decode rather than silently rounded.
    pub seed: u64,
    /// Deadline / move-evaluation-cap envelope. Default: the core spec's
    /// built-in move budget.
    pub budget: BudgetEnvelope,
    /// Heuristic for each candidate evaluation. Default I (iterative).
    pub heuristic: Heuristic,
    /// Plateau kicks allowed. Default: the core spec's default.
    pub kicks: Option<u32>,
    /// Annealed moves attempted per kick. Default: the core default.
    pub kick_moves: Option<u32>,
    /// Worker threads for this run. Default: the server's `--jobs`.
    pub jobs: Option<u32>,
    /// Node indices pinned to their current partition.
    pub pinned: Vec<u32>,
    /// Groups of node indices that must move atomically and stay
    /// co-located.
    pub groups: Vec<Vec<u32>>,
    /// Pairs of node indices that must never share a partition.
    pub exclusions: Vec<(u32, u32)>,
}

impl Default for OptimizeParams {
    fn default() -> Self {
        Self {
            seed: 0,
            budget: BudgetEnvelope::default(),
            heuristic: Heuristic::Iterative,
            kicks: None,
            kick_moves: None,
            jobs: None,
            pinned: Vec::new(),
            groups: Vec::new(),
            exclusions: Vec::new(),
        }
    }
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness/version probe.
    Ping,
    /// Create a named session.
    Open {
        /// Session name (unique on the server).
        session: String,
        /// Session construction parameters.
        params: OpenParams,
    },
    /// Run an exploration on a session (dispatched to the worker pool).
    Explore {
        /// Session name.
        session: String,
        /// Search parameters.
        params: ExploreParams,
    },
    /// Move one node to another partition (incremental what-if).
    Repartition {
        /// Session name.
        session: String,
        /// DFG node index to move.
        node: u32,
        /// Target partition index.
        to: u32,
    },
    /// Run the move-based optimizer on a session (dispatched to the
    /// worker pool). On success the accepted final partitioning is
    /// installed — the journal records it as an `apply_moves`, because a
    /// deadline-truncated `optimize` is not deterministically replayable
    /// while its accepted move trace always is.
    Optimize {
        /// Session name.
        session: String,
        /// Optimizer parameters.
        params: OptimizeParams,
    },
    /// Apply a batch of `(node, partition)` moves atomically — the
    /// journaled/replicated form of an accepted optimizer trace, also
    /// usable directly as a multi-node what-if.
    ApplyMoves {
        /// Session name.
        session: String,
        /// `(node index, target partition index)` pairs, applied in
        /// order with one final validation.
        moves: Vec<(u32, u32)>,
    },
    /// Replace a session's performance/delay constraints (the next
    /// `explore` searches under the new envelope; predictions are
    /// constraint-independent, so the cache stays warm).
    SetConstraints {
        /// Session name.
        session: String,
        /// New performance constraint in ns.
        performance_ns: f64,
        /// New system-delay constraint in ns.
        delay_ns: f64,
    },
    /// Server and cache statistics; with a session name, also that
    /// session's last run.
    Stats {
        /// Optional session whose last run to report.
        session: Option<String>,
    },
    /// Discard a session.
    Close {
        /// Session name.
        session: String,
    },
    /// Ask the server to drain and exit.
    Shutdown,
    /// Replication: apply one committed journal record on a standby.
    /// `record` is the exact tagged request line the primary journaled;
    /// `seq` is the primary's monotonic replication sequence number.
    ReplApply {
        /// Position of this record in the primary's replication stream.
        seq: u64,
        /// The journaled request line, verbatim.
        record: String,
        /// The sender's cluster epoch; a receiver at a higher epoch
        /// refuses with `fenced`. 0 from pre-epoch senders.
        epoch: u64,
        /// The sender's advertised `host:port`, so a fenced receiver
        /// (and its replicator) can find the peer again after restarts.
        primary: Option<String>,
    },
    /// Replication: replace the standby's entire state with a snapshot
    /// (sent on stream start and after primary-side compaction).
    ReplSnapshot {
        /// Replication sequence number the snapshot is current through.
        seq: u64,
        /// One journaled request line per record, in replay order.
        records: Vec<String>,
        /// The sender's cluster epoch (see [`Request::ReplApply`]).
        epoch: u64,
        /// The sender's advertised `host:port`.
        primary: Option<String>,
    },
    /// Promote a warm standby to primary: it bumps the cluster epoch,
    /// journals the role change, starts accepting direct mutations and
    /// stops accepting replication records from stale-epoch peers.
    Promote,
    /// Journal-internal: a durable role/epoch transition (`promote`
    /// writes `primary`, a fencing demotion writes `fenced`). Never sent
    /// by clients; it exists so a restarted node replays its way back
    /// into the role it held at the crash.
    RoleChange {
        /// The cluster epoch this transition established.
        epoch: u64,
        /// Whether the node became primary (else standby).
        primary: bool,
        /// Whether the standby role was forced by fencing (a demoted
        /// ex-primary) rather than configured.
        fenced: bool,
    },
    /// Router admin: add a backend pair (`primary[,standby]`) to the
    /// ring, migrating the sessions that remap onto it. Refused by
    /// `chop serve` backends.
    AddPair {
        /// The pair spec, `primary[,standby]`.
        pair: String,
    },
    /// Router admin: remove the backend pair whose primary label
    /// matches, migrating its sessions to the surviving pairs.
    RemovePair {
        /// The pair's primary label (`host:port`).
        pair: String,
    },
    /// Router admin: report the router's pairs and their health state.
    RouterStatus,
    /// Export one session's replayable history (its genesis `open` plus
    /// every mutation since, as tagged journal lines) for migration.
    Export {
        /// Session name.
        session: String,
    },
    /// Import a session exported from another node: replay its records
    /// through the normal mutation paths (journaled and replicated).
    Import {
        /// The exported tagged request lines, in replay order.
        records: Vec<String>,
    },
}

/// A condensed [`SearchOutcome`]: the digest plus the counters a client
/// needs to reason about feasibility, truncation and cache behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Heuristic that produced the run.
    pub heuristic: Heuristic,
    /// Canonical result fingerprint ([`SearchOutcome::digest`]).
    pub digest: String,
    /// Combinations examined.
    pub trials: u64,
    /// Feasible combinations.
    pub feasible_trials: u64,
    /// Feasible, non-inferior implementations found.
    pub feasible: u64,
    /// How the search ended.
    pub completion: Completion,
    /// Whether heuristic E degraded to I.
    pub degraded: bool,
    /// Wall-clock search time in ms.
    pub elapsed_ms: f64,
    /// BAD predictor invocations this run (cache misses that did work).
    pub predictor_calls: u64,
    /// Partition predictions served from the shared cache this run.
    pub cache_hits: u64,
    /// Cache lookups that missed this run.
    pub cache_misses: u64,
    /// Odometer subtrees skipped by the branch-and-bound search.
    pub subtrees_skipped: u64,
    /// Combinations never visited thanks to subtree skipping.
    pub combinations_skipped: u64,
}

impl RunSummary {
    /// Condenses a full outcome into its wire summary.
    #[must_use]
    pub fn from_outcome(outcome: &SearchOutcome) -> Self {
        Self {
            heuristic: outcome.heuristic,
            digest: outcome.digest(),
            trials: outcome.trials as u64,
            feasible_trials: outcome.feasible_trials as u64,
            feasible: outcome.feasible.len() as u64,
            completion: outcome.completion,
            degraded: outcome.degraded,
            elapsed_ms: outcome.elapsed.as_secs_f64() * 1e3,
            predictor_calls: outcome.trace.predictor_calls,
            cache_hits: outcome.trace.cache_hits,
            cache_misses: outcome.trace.cache_misses,
            subtrees_skipped: outcome.trace.subtrees_skipped,
            combinations_skipped: outcome.trace.combinations_skipped,
        }
    }
}

/// One accepted optimizer move on the wire: the unit's node indices, the
/// partitions it left and joined, and which phase proposed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MoveSummary {
    /// DFG node indices of the moved unit (singleton or group).
    pub nodes: Vec<u32>,
    /// Partition index the unit left.
    pub from: u32,
    /// Partition index the unit joined.
    pub to: u32,
    /// 1-based optimizer pass that proposed the move.
    pub pass: u32,
    /// Whether a gain-directed pass or an annealing kick proposed it.
    pub kind: MoveKind,
}

/// A condensed [`OptimizeResult`]: the digest, the accepted move trace
/// and the counters a client needs, plus the final state's run summary.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeSummary {
    /// Canonical result fingerprint ([`OptimizeResult::digest`]).
    pub digest: String,
    /// Whether the final partitioning has a feasible implementation.
    pub feasible: bool,
    /// Objective score of the starting partitioning.
    pub initial_score: f64,
    /// Objective score of the final partitioning.
    pub final_score: f64,
    /// Candidate evaluations spent.
    pub evaluations: u64,
    /// Gain-directed passes run.
    pub passes: u32,
    /// Plateau kicks used.
    pub kicks: u32,
    /// How the search ended.
    pub completion: Completion,
    /// The accepted move trace, in application order.
    pub moves: Vec<MoveSummary>,
    /// Exploration summary of the final partitioning.
    pub run: RunSummary,
}

impl OptimizeSummary {
    /// Condenses a full optimizer result into its wire summary.
    #[must_use]
    pub fn from_result(result: &OptimizeResult) -> Self {
        #[allow(clippy::cast_possible_truncation)]
        let moves = result
            .moves
            .iter()
            .map(|m| MoveSummary {
                nodes: m.nodes.iter().map(|n| n.index() as u32).collect(),
                from: m.from.index() as u32,
                to: m.to.index() as u32,
                pass: m.pass,
                kind: m.kind,
            })
            .collect();
        Self {
            digest: result.digest(),
            feasible: result.feasible(),
            initial_score: result.initial_score,
            final_score: result.final_score,
            evaluations: result.evaluations,
            passes: result.passes,
            kicks: result.kicks_used,
            completion: result.completion,
            moves,
            run: RunSummary::from_outcome(&result.outcome),
        }
    }
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to `ping`.
    Pong {
        /// The server's protocol version.
        version: u64,
        /// The node's replication role (`"primary"`, `"standby"` or
        /// `"fenced"`); `None` from routers and pre-epoch servers.
        role: Option<String>,
        /// The node's cluster epoch (0 when it never changed roles).
        epoch: u64,
        /// The node's configured replication peer, if any — the router
        /// learns a rejoined standby's address from its primary's pong.
        peer: Option<String>,
    },
    /// A session was created.
    Opened {
        /// Session name.
        session: String,
        /// Partition count of the built partitioning.
        partitions: u64,
    },
    /// An exploration finished.
    Explored {
        /// Session name.
        session: String,
        /// The run's summary.
        run: RunSummary,
    },
    /// A node was moved.
    Repartitioned {
        /// Session name.
        session: String,
        /// Node that moved.
        node: u32,
        /// Its new partition.
        to: u32,
    },
    /// An optimization finished and its final partitioning is installed.
    Optimized {
        /// Session name.
        session: String,
        /// The optimizer run's summary (boxed: by far the largest
        /// response payload, and `Response` values are moved around a
        /// lot — completion queues, dedup windows).
        result: Box<OptimizeSummary>,
    },
    /// A batch of moves was applied atomically.
    MovesApplied {
        /// Session name.
        session: String,
        /// How many `(node, partition)` pairs the batch carried.
        moves: u64,
    },
    /// A session's constraints were replaced.
    ConstraintsSet {
        /// Session name.
        session: String,
        /// The performance constraint now in force, in ns.
        performance_ns: f64,
        /// The system-delay constraint now in force, in ns.
        delay_ns: f64,
    },
    /// Server statistics.
    Stats {
        /// Names of the open sessions, sorted.
        sessions: Vec<String>,
        /// Shared prediction-cache counters (lifetime).
        cache: CacheStats,
        /// Resident entries per cache shard, in shard order (empty from
        /// servers that predate the sharded cache tier).
        shard_entries: Vec<u64>,
        /// The named session's most recent run, if any.
        last_run: Option<RunSummary>,
    },
    /// A session was discarded.
    Closed {
        /// Session name.
        session: String,
    },
    /// The server acknowledged `shutdown` and is draining.
    ShuttingDown,
    /// A replication record or snapshot was applied; the standby's
    /// high-water mark is now at least `seq`.
    ReplAck {
        /// Highest replication sequence number applied or skipped.
        seq: u64,
    },
    /// The standby was promoted (or already was primary).
    Promoted {
        /// Sessions live on the newly-promoted node.
        sessions: u64,
        /// The cluster epoch the promotion established (0 from pre-epoch
        /// servers).
        epoch: u64,
    },
    /// The worker pool is saturated; retry later.
    Busy {
        /// Explorations queued or running.
        inflight: u64,
        /// The server's `--max-inflight` bound.
        max_inflight: u64,
        /// Server-suggested backoff before retrying, in ms, derived from
        /// the inflight depth (0 when the server predates the hint).
        retry_after_ms: u64,
    },
    /// A backend pair joined the router's ring.
    PairAdded {
        /// The router's pairs after the change, rendered for display.
        pairs: Vec<String>,
    },
    /// A backend pair left the router's ring.
    PairRemoved {
        /// The router's pairs after the change, rendered for display.
        pairs: Vec<String>,
    },
    /// The router's membership and health report.
    RouterStatus {
        /// One rendered line per pair (active, standby, armed state).
        pairs: Vec<String>,
    },
    /// A session's replayable history, for migration.
    Exported {
        /// Session name.
        session: String,
        /// Tagged request lines: the genesis `open` plus every mutation.
        records: Vec<String>,
    },
    /// An exported session was replayed into this node.
    Imported {
        /// Session name the records established.
        session: String,
        /// How many records were applied.
        records: u64,
    },
    /// The request failed.
    Error(ServiceError),
}

// ---- the field codec -------------------------------------------------

/// How one Rust type maps to a JSON value and back. A decode error
/// completes the sentence `field "k" …` — `must be a string`, `items must
/// be …` — so [`req`] can name the field that carried it.
trait Wire: Sized {
    fn to_wire(&self) -> Value;
    fn from_wire(v: &Value) -> Result<Self, String>;
}

/// A tag enum: one `(variant, "tag")` row per variant, read by both
/// directions.
trait Tagged: Copy + PartialEq + 'static {
    const TAGS: &'static [(Self, &'static str)];

    fn tag(self) -> &'static str {
        let row = Self::TAGS.iter().find(|(variant, _)| *variant == self);
        row.expect("every variant has a wire tag").1
    }
}

impl<T: Tagged> Wire for T {
    fn to_wire(&self) -> Value {
        Value::Str(self.tag().to_owned())
    }

    fn from_wire(v: &Value) -> Result<Self, String> {
        let tag = v.as_str().ok_or("must be a string")?;
        let row = Self::TAGS.iter().find(|(_, t)| *t == tag);
        row.map(|(variant, _)| *variant).ok_or_else(|| {
            let tags: Vec<_> = Self::TAGS.iter().map(|(_, t)| t).collect();
            format!("must be one of {tags:?}, not {tag:?}")
        })
    }
}

impl Tagged for Heuristic {
    const TAGS: &'static [(Self, &'static str)] =
        &[(Heuristic::Enumeration, "E"), (Heuristic::Iterative, "I")];
}

impl Tagged for MoveKind {
    const TAGS: &'static [(Self, &'static str)] =
        &[(MoveKind::Gain, "gain"), (MoveKind::Kick, "kick")];
}

impl Tagged for Completion {
    const TAGS: &'static [(Self, &'static str)] = &[
        (Completion::Complete, "complete"),
        (Completion::TruncatedDeadline, "truncated_deadline"),
        (Completion::TruncatedTrials, "truncated_trials"),
        (Completion::DegradedToIterative, "degraded_to_iterative"),
    ];
}

impl Tagged for ErrorKind {
    const TAGS: &'static [(Self, &'static str)] = &[
        (ErrorKind::Protocol, "protocol"),
        (ErrorKind::UnknownSession, "unknown_session"),
        (ErrorKind::SessionExists, "session_exists"),
        (ErrorKind::Spec, "spec"),
        (ErrorKind::Engine, "engine"),
        (ErrorKind::Internal, "internal"),
        (ErrorKind::Standby, "standby"),
        (ErrorKind::Fenced, "fenced"),
    ];
}

/// `role_change` roles, keyed by the request's `(primary, fenced)` flags.
impl Tagged for (bool, bool) {
    const TAGS: &'static [(Self, &'static str)] =
        &[((true, false), "primary"), ((false, false), "standby"), ((false, true), "fenced")];
}

/// A node's role name (`"primary"`, `"standby"` or `"fenced"`), as the
/// `role_change` table spells it; a primary is never fenced.
pub(crate) fn role_name(primary: bool, fenced: bool) -> &'static str {
    (primary, fenced).tag()
}

impl Wire for String {
    fn to_wire(&self) -> Value {
        Value::Str(self.clone())
    }

    fn from_wire(v: &Value) -> Result<Self, String> {
        v.as_str().map(str::to_owned).ok_or_else(|| "must be a string".into())
    }
}

impl Wire for u64 {
    fn to_wire(&self) -> Value {
        #[allow(clippy::cast_precision_loss)]
        Value::Num(*self as f64)
    }

    fn from_wire(v: &Value) -> Result<Self, String> {
        v.as_u64().ok_or_else(|| "must be an integer".into())
    }
}

impl Wire for u32 {
    fn to_wire(&self) -> Value {
        Value::Num(f64::from(*self))
    }

    fn from_wire(v: &Value) -> Result<Self, String> {
        let n = v.as_u64().and_then(|n| u32::try_from(n).ok());
        n.ok_or_else(|| "must be an integer in u32 range".into())
    }
}

impl Wire for f64 {
    fn to_wire(&self) -> Value {
        Value::Num(*self)
    }

    fn from_wire(v: &Value) -> Result<Self, String> {
        v.as_f64().ok_or_else(|| "must be a number".into())
    }
}

impl Wire for bool {
    fn to_wire(&self) -> Value {
        Value::Bool(*self)
    }

    fn from_wire(v: &Value) -> Result<Self, String> {
        v.as_bool().ok_or_else(|| "must be a boolean".into())
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn to_wire(&self) -> Value {
        Value::Arr(self.iter().map(Wire::to_wire).collect())
    }

    fn from_wire(v: &Value) -> Result<Self, String> {
        let items = v.as_arr().ok_or("must be an array")?;
        items.iter().map(|item| T::from_wire(item).map_err(|e| format!("items {e}"))).collect()
    }
}

/// `null` for `None`. Only `stats.last_run` is written this way; other
/// optional fields are omitted instead ([`put_some`]).
impl<T: Wire> Wire for Option<T> {
    fn to_wire(&self) -> Value {
        self.as_ref().map_or(Value::Null, Wire::to_wire)
    }

    fn from_wire(v: &Value) -> Result<Self, String> {
        match v {
            Value::Null => Ok(None),
            v => T::from_wire(v).map(Some),
        }
    }
}

/// An `[a, b]` index pair: a move or an exclusion.
impl Wire for (u32, u32) {
    fn to_wire(&self) -> Value {
        Value::Arr(vec![self.0.to_wire(), self.1.to_wire()])
    }

    fn from_wire(v: &Value) -> Result<Self, String> {
        match v.as_arr() {
            Some([a, b]) => Ok((u32::from_wire(a)?, u32::from_wire(b)?)),
            _ => Err("must be an [a, b] pair".into()),
        }
    }
}

/// Field `key` of the object `v`.
fn req<T: Wire>(v: &Value, key: &str) -> Result<T, String> {
    let item = v.get(key).ok_or_else(|| format!("missing field {key:?}"))?;
    T::from_wire(item).map_err(|e| format!("field {key:?} {e}"))
}

/// Field `key` of the object `v`, `None` when absent or `null`.
fn opt<T: Wire>(v: &Value, key: &str) -> Result<Option<T>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(_) => req(v, key),
    }
}

/// One encoded object field; `None` leaves it out.
type Field = Option<(&'static str, Value)>;

/// Field `key`, always written.
fn put<T: Wire>(key: &'static str, value: &T) -> Field {
    Some((key, value.to_wire()))
}

/// Field `key`, written only when `keep` holds (non-empty lists and
/// budgets, a pong's epoch beside its role).
fn put_if<T: Wire>(keep: bool, key: &'static str, value: &T) -> Field {
    keep.then(|| (key, value.to_wire()))
}

/// Field `key`, omitted (not `null`) when `value` is `None`.
fn put_some<T: Wire>(key: &'static str, value: &Option<T>) -> Field {
    value.as_ref().and_then(|value| put(key, value))
}

fn object(fields: impl IntoIterator<Item = Field>) -> Value {
    obj(fields.into_iter().flatten().collect())
}

fn envelope(kind: &str, fields: Vec<Field>) -> Value {
    let head = [put("v", &PROTOCOL_VERSION), Some(("type", Value::Str(kind.to_owned())))];
    object(head.into_iter().chain(fields))
}

/// Parses and checks the `"v"` / `"type"` envelope, returning the type tag.
fn open_envelope(line: &str) -> Result<(Value, String), ServiceError> {
    let v = json::parse(line).map_err(|e| ServiceError::protocol(e.to_string()))?;
    let version: u64 = req(&v, "v").map_err(ServiceError::protocol)?;
    if version != PROTOCOL_VERSION {
        return Err(ServiceError::protocol(format!(
            "protocol version {version} not supported (this server speaks {PROTOCOL_VERSION})"
        )));
    }
    let kind = req(&v, "type").map_err(ServiceError::protocol)?;
    Ok((v, kind))
}

impl Wire for BudgetEnvelope {
    fn to_wire(&self) -> Value {
        object([
            put_some("deadline_ms", &self.deadline_ms),
            put_some("max_trials", &self.max_trials),
        ])
    }

    fn from_wire(v: &Value) -> Result<Self, String> {
        if !matches!(v, Value::Obj(_)) {
            return Err("must be an object".into());
        }
        Ok(Self { deadline_ms: opt(v, "deadline_ms")?, max_trials: opt(v, "max_trials")? })
    }
}

/// The budget of request `v`: its nested `"budget"` object when present,
/// else the legacy flat `deadline_ms` / `max_trials` fields beside it.
fn budget(v: &Value) -> Result<BudgetEnvelope, String> {
    match opt(v, "budget")? {
        Some(budget) => Ok(budget),
        None => BudgetEnvelope::from_wire(v),
    }
}

/// `Wire` for a record struct: each listed field goes on the wire under
/// its own name, in the listed order, and is required on decode.
macro_rules! wire_record {
    ($ty:ty { $($field:ident),* $(,)? }) => {
        impl Wire for $ty {
            fn to_wire(&self) -> Value {
                object([$(put(stringify!($field), &self.$field)),*])
            }

            fn from_wire(v: &Value) -> Result<Self, String> {
                Ok(Self { $($field: req(v, stringify!($field))?),* })
            }
        }
    };
}

wire_record!(RunSummary {
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
});
wire_record!(MoveSummary { nodes, from, to, pass, kind });
wire_record!(OptimizeSummary {
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
});
wire_record!(CacheStats { hits, misses, evictions, entries, bytes });

impl Request {
    /// Whether this request mutates server-side session state (and is
    /// therefore journaled, deduplicated by `req_id`, and only retried by
    /// clients when tagged). `explore` is *not* a mutation: re-running it
    /// produces a byte-identical digest.
    #[must_use]
    pub fn is_mutation(&self) -> bool {
        matches!(
            self,
            Request::Open { .. }
                | Request::Repartition { .. }
                | Request::Optimize { .. }
                | Request::ApplyMoves { .. }
                | Request::SetConstraints { .. }
                | Request::Close { .. }
                | Request::Import { .. }
        )
    }

    /// The session this request targets, if any — the router's sharding
    /// key. Sessionless requests (`ping`, global `stats`, replication
    /// traffic) return `None` and may be answered by any backend.
    #[must_use]
    pub fn session(&self) -> Option<&str> {
        match self {
            Request::Open { session, .. }
            | Request::Explore { session, .. }
            | Request::Repartition { session, .. }
            | Request::Optimize { session, .. }
            | Request::ApplyMoves { session, .. }
            | Request::SetConstraints { session, .. }
            | Request::Close { session }
            | Request::Export { session } => Some(session),
            Request::Stats { session } => session.as_deref(),
            Request::Ping
            | Request::Shutdown
            | Request::ReplApply { .. }
            | Request::ReplSnapshot { .. }
            | Request::Promote
            | Request::RoleChange { .. }
            | Request::AddPair { .. }
            | Request::RemovePair { .. }
            | Request::RouterStatus
            | Request::Import { .. } => None,
        }
    }

    /// Encodes this request as one line of JSON (no trailing newline).
    #[must_use]
    pub fn encode(&self) -> String {
        self.encode_tagged(None)
    }

    /// Encodes this request with an optional `req_id` envelope field.
    #[must_use]
    pub fn encode_tagged(&self, req_id: Option<&str>) -> String {
        let (kind, mut fields) = self.fields();
        fields.push(req_id.map(|id| ("req_id", Value::Str(id.to_owned()))));
        envelope(kind, fields).to_string()
    }

    /// The type tag and the body fields, in wire order.
    fn fields(&self) -> (&'static str, Vec<Field>) {
        match self {
            Request::Ping => ("ping", vec![]),
            Request::Open { session, params: p } => (
                "open",
                vec![
                    put("session", session),
                    put("spec", &p.spec),
                    put("partitions", &p.partitions),
                    put_some("chips", &p.chips),
                    put("package_pins", &p.package_pins),
                    put("performance_ns", &p.performance_ns),
                    put("delay_ns", &p.delay_ns),
                    put("multi_cycle", &p.multi_cycle),
                ],
            ),
            Request::Explore { session, params: p } => (
                "explore",
                vec![
                    put("session", session),
                    put("heuristic", &p.heuristic),
                    put_if(!p.budget.is_empty(), "budget", &p.budget),
                    put_some("jobs", &p.jobs),
                ],
            ),
            Request::Repartition { session, node, to } => {
                ("repartition", vec![put("session", session), put("node", node), put("to", to)])
            }
            Request::Optimize { session, params: p } => (
                "optimize",
                vec![
                    put("session", session),
                    put("seed", &p.seed),
                    put("heuristic", &p.heuristic),
                    put_if(!p.budget.is_empty(), "budget", &p.budget),
                    put_some("kicks", &p.kicks),
                    put_some("kick_moves", &p.kick_moves),
                    put_some("jobs", &p.jobs),
                    put_if(!p.pinned.is_empty(), "pinned", &p.pinned),
                    put_if(!p.groups.is_empty(), "groups", &p.groups),
                    put_if(!p.exclusions.is_empty(), "exclusions", &p.exclusions),
                ],
            ),
            Request::ApplyMoves { session, moves } => {
                ("apply_moves", vec![put("session", session), put("moves", moves)])
            }
            Request::SetConstraints { session, performance_ns, delay_ns } => (
                "set_constraints",
                vec![
                    put("session", session),
                    put("performance_ns", performance_ns),
                    put("delay_ns", delay_ns),
                ],
            ),
            Request::Stats { session } => ("stats", vec![put_some("session", session)]),
            Request::Close { session } => ("close", vec![put("session", session)]),
            Request::Shutdown => ("shutdown", vec![]),
            Request::ReplApply { seq, record, epoch, primary } => (
                "repl_apply",
                vec![
                    put("seq", seq),
                    put("record", record),
                    put("epoch", epoch),
                    put_some("primary", primary),
                ],
            ),
            Request::ReplSnapshot { seq, records, epoch, primary } => (
                "repl_snapshot",
                vec![
                    put("seq", seq),
                    put("records", records),
                    put("epoch", epoch),
                    put_some("primary", primary),
                ],
            ),
            Request::Promote => ("promote", vec![]),
            // A promotion clears fencing, so `primary` wins over `fenced`.
            Request::RoleChange { epoch, primary, fenced } => (
                "role_change",
                vec![put("epoch", epoch), put("role", &(*primary, *fenced && !*primary))],
            ),
            Request::AddPair { pair } => ("add_pair", vec![put("pair", pair)]),
            Request::RemovePair { pair } => ("remove_pair", vec![put("pair", pair)]),
            Request::RouterStatus => ("router_status", vec![]),
            Request::Export { session } => ("export", vec![put("session", session)]),
            Request::Import { records } => ("import", vec![put("records", records)]),
        }
    }

    /// Decodes one request line.
    ///
    /// # Errors
    ///
    /// Returns an [`ErrorKind::Protocol`] error for malformed JSON, a
    /// version mismatch, an unknown type tag or mistyped fields.
    pub fn decode(line: &str) -> Result<Self, ServiceError> {
        Self::decode_tagged(line).map(|(request, _)| request)
    }

    /// Decodes one request line together with its optional `req_id`.
    ///
    /// # Errors
    ///
    /// Everything [`decode`](Request::decode) rejects, plus an empty or
    /// over-long (> [`MAX_REQ_ID_LEN`]) `req_id`.
    pub fn decode_tagged(line: &str) -> Result<(Self, Option<String>), ServiceError> {
        let (v, kind) = open_envelope(line)?;
        let req_id: Option<String> = opt(&v, "req_id").map_err(ServiceError::protocol)?;
        if let Some(id) = &req_id {
            if id.is_empty() || id.len() > MAX_REQ_ID_LEN {
                return Err(ServiceError::protocol(format!(
                    "req_id must be 1..={MAX_REQ_ID_LEN} bytes"
                )));
            }
        }
        let request = Self::decode_body(&v, &kind).map_err(ServiceError::protocol)?;
        Ok((request, req_id))
    }

    fn decode_body(v: &Value, kind: &str) -> Result<Self, String> {
        Ok(match kind {
            "ping" => Request::Ping,
            "open" => {
                let d = OpenParams::default();
                let params = OpenParams {
                    spec: req(v, "spec")?,
                    partitions: opt(v, "partitions")?.unwrap_or(d.partitions),
                    chips: opt(v, "chips")?,
                    package_pins: opt(v, "package_pins")?.unwrap_or(d.package_pins),
                    performance_ns: opt(v, "performance_ns")?.unwrap_or(d.performance_ns),
                    delay_ns: opt(v, "delay_ns")?.unwrap_or(d.delay_ns),
                    multi_cycle: opt(v, "multi_cycle")?.unwrap_or(d.multi_cycle),
                };
                Request::Open { session: req(v, "session")?, params }
            }
            "explore" => {
                let params = ExploreParams {
                    heuristic: opt(v, "heuristic")?
                        .unwrap_or(ExploreParams::default().heuristic),
                    budget: budget(v)?,
                    jobs: opt(v, "jobs")?,
                };
                Request::Explore { session: req(v, "session")?, params }
            }
            "repartition" => Request::Repartition {
                session: req(v, "session")?,
                node: req(v, "node")?,
                to: req(v, "to")?,
            },
            "optimize" => {
                let d = OptimizeParams::default();
                let params = OptimizeParams {
                    seed: opt(v, "seed")?.unwrap_or(d.seed),
                    budget: budget(v)?,
                    heuristic: opt(v, "heuristic")?.unwrap_or(d.heuristic),
                    kicks: opt(v, "kicks")?,
                    kick_moves: opt(v, "kick_moves")?,
                    jobs: opt(v, "jobs")?,
                    pinned: opt(v, "pinned")?.unwrap_or_default(),
                    groups: opt(v, "groups")?.unwrap_or_default(),
                    exclusions: opt(v, "exclusions")?.unwrap_or_default(),
                };
                Request::Optimize { session: req(v, "session")?, params }
            }
            "apply_moves" => {
                Request::ApplyMoves { session: req(v, "session")?, moves: req(v, "moves")? }
            }
            "set_constraints" => Request::SetConstraints {
                session: req(v, "session")?,
                performance_ns: req(v, "performance_ns")?,
                delay_ns: req(v, "delay_ns")?,
            },
            "stats" => Request::Stats { session: opt(v, "session")? },
            "close" => Request::Close { session: req(v, "session")? },
            "shutdown" => Request::Shutdown,
            // Pre-epoch senders omit `epoch` and `primary`.
            "repl_apply" => Request::ReplApply {
                seq: req(v, "seq")?,
                record: req(v, "record")?,
                epoch: opt(v, "epoch")?.unwrap_or(0),
                primary: opt(v, "primary")?,
            },
            "repl_snapshot" => Request::ReplSnapshot {
                seq: req(v, "seq")?,
                records: req(v, "records")?,
                epoch: opt(v, "epoch")?.unwrap_or(0),
                primary: opt(v, "primary")?,
            },
            "promote" => Request::Promote,
            "role_change" => {
                let (primary, fenced) = req(v, "role")?;
                Request::RoleChange { epoch: req(v, "epoch")?, primary, fenced }
            }
            "add_pair" => Request::AddPair { pair: req(v, "pair")? },
            "remove_pair" => Request::RemovePair { pair: req(v, "pair")? },
            "router_status" => Request::RouterStatus,
            "export" => Request::Export { session: req(v, "session")? },
            "import" => Request::Import { records: req(v, "records")? },
            other => return Err(format!("unknown request type {other:?}")),
        })
    }
}

impl Response {
    /// Encodes this response as one line of JSON (no trailing newline).
    #[must_use]
    pub fn encode(&self) -> String {
        let (kind, fields) = match self {
            // Routers and pre-epoch servers send no role, and then no epoch.
            Response::Pong { version, role, epoch, peer } => (
                "pong",
                vec![
                    put("version", version),
                    put_some("role", role),
                    put_if(role.is_some(), "epoch", epoch),
                    put_some("peer", peer),
                ],
            ),
            Response::Opened { session, partitions } => {
                ("opened", vec![put("session", session), put("partitions", partitions)])
            }
            Response::Explored { session, run } => {
                ("explored", vec![put("session", session), put("run", run)])
            }
            Response::Repartitioned { session, node, to } => (
                "repartitioned",
                vec![put("session", session), put("node", node), put("to", to)],
            ),
            Response::Optimized { session, result } => {
                ("optimized", vec![put("session", session), put("result", &**result)])
            }
            Response::MovesApplied { session, moves } => {
                ("moves_applied", vec![put("session", session), put("moves", moves)])
            }
            Response::ConstraintsSet { session, performance_ns, delay_ns } => (
                "constraints_set",
                vec![
                    put("session", session),
                    put("performance_ns", performance_ns),
                    put("delay_ns", delay_ns),
                ],
            ),
            Response::Stats { sessions, cache, shard_entries, last_run } => (
                "stats",
                vec![
                    put("sessions", sessions),
                    put("cache", cache),
                    put("shard_entries", shard_entries),
                    put("last_run", last_run),
                ],
            ),
            Response::Closed { session } => ("closed", vec![put("session", session)]),
            Response::ShuttingDown => ("shutting_down", vec![]),
            Response::ReplAck { seq } => ("repl_ack", vec![put("seq", seq)]),
            Response::Promoted { sessions, epoch } => {
                ("promoted", vec![put("sessions", sessions), put("epoch", epoch)])
            }
            Response::Busy { inflight, max_inflight, retry_after_ms } => (
                "busy",
                vec![
                    put("inflight", inflight),
                    put("max_inflight", max_inflight),
                    put("retry_after_ms", retry_after_ms),
                ],
            ),
            Response::PairAdded { pairs } => ("pair_added", vec![put("pairs", pairs)]),
            Response::PairRemoved { pairs } => ("pair_removed", vec![put("pairs", pairs)]),
            Response::RouterStatus { pairs } => ("router_status", vec![put("pairs", pairs)]),
            Response::Exported { session, records } => {
                ("exported", vec![put("session", session), put("records", records)])
            }
            Response::Imported { session, records } => {
                ("imported", vec![put("session", session), put("records", records)])
            }
            Response::Error(e) => (
                "error",
                vec![
                    put("kind", &e.kind),
                    put("message", &e.message),
                    put_some("primary", &e.primary),
                    put_some("epoch", &e.epoch),
                ],
            ),
        };
        envelope(kind, fields).to_string()
    }

    /// Decodes one response line.
    ///
    /// # Errors
    ///
    /// Returns an [`ErrorKind::Protocol`] error for malformed JSON, a
    /// version mismatch, an unknown type tag or mistyped fields.
    pub fn decode(line: &str) -> Result<Self, ServiceError> {
        let (v, kind) = open_envelope(line)?;
        Self::decode_body(&v, &kind).map_err(ServiceError::protocol)
    }

    fn decode_body(v: &Value, kind: &str) -> Result<Self, String> {
        Ok(match kind {
            // Routers and pre-epoch servers omit the role fields.
            "pong" => Response::Pong {
                version: req(v, "version")?,
                role: opt(v, "role")?,
                epoch: opt(v, "epoch")?.unwrap_or(0),
                peer: opt(v, "peer")?,
            },
            "opened" => Response::Opened {
                session: req(v, "session")?,
                partitions: req(v, "partitions")?,
            },
            "explored" => {
                Response::Explored { session: req(v, "session")?, run: req(v, "run")? }
            }
            "repartitioned" => Response::Repartitioned {
                session: req(v, "session")?,
                node: req(v, "node")?,
                to: req(v, "to")?,
            },
            "optimized" => Response::Optimized {
                session: req(v, "session")?,
                result: Box::new(req(v, "result")?),
            },
            "moves_applied" => {
                Response::MovesApplied { session: req(v, "session")?, moves: req(v, "moves")? }
            }
            "constraints_set" => Response::ConstraintsSet {
                session: req(v, "session")?,
                performance_ns: req(v, "performance_ns")?,
                delay_ns: req(v, "delay_ns")?,
            },
            // Servers that predate the sharded cache tier omit
            // `shard_entries`.
            "stats" => Response::Stats {
                sessions: req(v, "sessions")?,
                cache: req(v, "cache")?,
                shard_entries: opt(v, "shard_entries")?.unwrap_or_default(),
                last_run: opt(v, "last_run")?,
            },
            "closed" => Response::Closed { session: req(v, "session")? },
            "shutting_down" => Response::ShuttingDown,
            "repl_ack" => Response::ReplAck { seq: req(v, "seq")? },
            // Pre-epoch servers omit the epoch.
            "promoted" => Response::Promoted {
                sessions: req(v, "sessions")?,
                epoch: opt(v, "epoch")?.unwrap_or(0),
            },
            // Servers that predate the backoff hint omit it.
            "busy" => Response::Busy {
                inflight: req(v, "inflight")?,
                max_inflight: req(v, "max_inflight")?,
                retry_after_ms: opt(v, "retry_after_ms")?.unwrap_or(0),
            },
            "pair_added" => Response::PairAdded { pairs: req(v, "pairs")? },
            "pair_removed" => Response::PairRemoved { pairs: req(v, "pairs")? },
            "router_status" => Response::RouterStatus { pairs: req(v, "pairs")? },
            "exported" => {
                Response::Exported { session: req(v, "session")?, records: req(v, "records")? }
            }
            "imported" => {
                Response::Imported { session: req(v, "session")?, records: req(v, "records")? }
            }
            "error" => Response::Error(ServiceError {
                kind: req(v, "kind")?,
                message: req(v, "message")?,
                primary: opt(v, "primary")?,
                epoch: opt(v, "epoch")?,
            }),
            other => return Err(format!("unknown response type {other:?}")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Ping,
            Request::Open {
                session: "a".into(),
                params: OpenParams {
                    spec: "x = input 16\ny = output x\n".into(),
                    partitions: 2,
                    chips: Some(3),
                    ..OpenParams::default()
                },
            },
            Request::Explore {
                session: "a".into(),
                params: ExploreParams {
                    heuristic: Heuristic::Enumeration,
                    budget: BudgetEnvelope { deadline_ms: Some(250), max_trials: None },
                    jobs: Some(4),
                },
            },
            Request::Repartition { session: "a".into(), node: 3, to: 0 },
            Request::Optimize {
                session: "a".into(),
                params: OptimizeParams {
                    seed: 42,
                    budget: BudgetEnvelope { deadline_ms: Some(100), max_trials: Some(64) },
                    kicks: Some(1),
                    kick_moves: Some(2),
                    jobs: Some(2),
                    pinned: vec![0, 7],
                    groups: vec![vec![1, 2], vec![9]],
                    exclusions: vec![(3, 4)],
                    ..OptimizeParams::default()
                },
            },
            Request::Optimize { session: "a".into(), params: OptimizeParams::default() },
            Request::ApplyMoves { session: "a".into(), moves: vec![(3, 1), (5, 0)] },
            Request::ApplyMoves { session: "a".into(), moves: vec![] },
            Request::SetConstraints {
                session: "a".into(),
                performance_ns: 20_000.0,
                delay_ns: 25_000.5,
            },
            Request::Stats { session: None },
            Request::Stats { session: Some("a".into()) },
            Request::Close { session: "a".into() },
            Request::Shutdown,
            Request::ReplApply {
                seq: 7,
                record: r#"{"v":1,"type":"close","session":"a"}"#.into(),
                epoch: 3,
                primary: Some("10.0.0.1:1991".into()),
            },
            Request::ReplSnapshot {
                seq: 12,
                records: vec![r#"{"v":1,"type":"close","session":"a"}"#.into()],
                epoch: 2,
                primary: None,
            },
            Request::ReplSnapshot { seq: 0, records: vec![], epoch: 0, primary: None },
            Request::Promote,
            Request::RoleChange { epoch: 4, primary: true, fenced: false },
            Request::RoleChange { epoch: 4, primary: false, fenced: true },
            Request::RoleChange { epoch: 0, primary: false, fenced: false },
            Request::AddPair { pair: "10.0.0.3:1991,10.0.0.4:1991".into() },
            Request::RemovePair { pair: "10.0.0.3:1991".into() },
            Request::RouterStatus,
            Request::Export { session: "a".into() },
            Request::Import {
                records: vec![r#"{"v":1,"type":"open","session":"a","spec":""}"#.into()],
            },
        ];
        for req in reqs {
            let line = req.encode();
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(Request::decode(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn req_id_rides_the_envelope_and_round_trips() {
        let req = Request::Repartition { session: "a".into(), node: 3, to: 0 };
        let line = req.encode_tagged(Some("retry-42"));
        let (decoded, id) = Request::decode_tagged(&line).unwrap();
        assert_eq!(decoded, req);
        assert_eq!(id.as_deref(), Some("retry-42"));
        // Untagged lines decode with no id, and plain decode ignores one.
        assert_eq!(Request::decode_tagged(&req.encode()).unwrap().1, None);
        assert_eq!(Request::decode(&line).unwrap(), req);
    }

    #[test]
    fn hostile_req_ids_are_protocol_errors() {
        for bad in [
            format!(r#"{{"v":1,"type":"ping","req_id":"{}"}}"#, "x".repeat(200)),
            r#"{"v":1,"type":"ping","req_id":""}"#.to_owned(),
            r#"{"v":1,"type":"ping","req_id":7}"#.to_owned(),
        ] {
            let err = Request::decode_tagged(&bad).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Protocol, "{bad}");
        }
    }

    #[test]
    fn mutation_classification_matches_the_journal_set() {
        assert!(
            Request::Open { session: "s".into(), params: OpenParams::default() }.is_mutation()
        );
        assert!(Request::Repartition { session: "s".into(), node: 0, to: 0 }.is_mutation());
        assert!(Request::Optimize { session: "s".into(), params: OptimizeParams::default() }
            .is_mutation());
        assert!(Request::ApplyMoves { session: "s".into(), moves: vec![(0, 1)] }.is_mutation());
        assert!(Request::SetConstraints {
            session: "s".into(),
            performance_ns: 1.0,
            delay_ns: 1.0
        }
        .is_mutation());
        assert!(Request::Close { session: "s".into() }.is_mutation());
        // An import replays mutations, so the carrier is one too (and a
        // standby must refuse it).
        assert!(Request::Import { records: vec![] }.is_mutation());
        for read_only in [
            Request::Ping,
            Request::Explore { session: "s".into(), params: ExploreParams::default() },
            Request::Stats { session: None },
            Request::Shutdown,
            // Replication traffic carries mutations *inside* records, but
            // the carrier itself is seq-idempotent, never journaled as-is.
            Request::ReplApply { seq: 1, record: String::new(), epoch: 0, primary: None },
            Request::ReplSnapshot { seq: 1, records: vec![], epoch: 0, primary: None },
            Request::Promote,
            // Role changes are journal-internal, not client mutations.
            Request::RoleChange { epoch: 1, primary: true, fenced: false },
            Request::AddPair { pair: "x:1".into() },
            Request::RemovePair { pair: "x:1".into() },
            Request::RouterStatus,
            Request::Export { session: "s".into() },
        ] {
            assert!(!read_only.is_mutation(), "{read_only:?}");
        }
    }

    #[test]
    fn session_routing_key_covers_every_variant() {
        assert_eq!(
            Request::Open { session: "s".into(), params: OpenParams::default() }.session(),
            Some("s")
        );
        assert_eq!(
            Request::Explore { session: "s".into(), params: ExploreParams::default() }
                .session(),
            Some("s")
        );
        assert_eq!(
            Request::Repartition { session: "s".into(), node: 0, to: 0 }.session(),
            Some("s")
        );
        assert_eq!(Request::Close { session: "s".into() }.session(), Some("s"));
        assert_eq!(
            Request::Optimize { session: "s".into(), params: OptimizeParams::default() }
                .session(),
            Some("s")
        );
        assert_eq!(
            Request::ApplyMoves { session: "s".into(), moves: vec![] }.session(),
            Some("s")
        );
        assert_eq!(Request::Stats { session: Some("s".into()) }.session(), Some("s"));
        assert_eq!(Request::Stats { session: None }.session(), None);
        assert_eq!(Request::Ping.session(), None);
        assert_eq!(Request::Shutdown.session(), None);
        assert_eq!(Request::Promote.session(), None);
        // An export routes to the backend that owns the session.
        assert_eq!(Request::Export { session: "s".into() }.session(), Some("s"));
        assert_eq!(Request::Import { records: vec![] }.session(), None);
        assert_eq!(Request::RouterStatus.session(), None);
    }

    #[test]
    fn legacy_flat_budget_fields_decode_as_alias() {
        // Pre-envelope clients spelled the budget as top-level fields;
        // they must keep decoding to the same params as the nested form.
        let flat = r#"{"v":1,"type":"explore","session":"s","deadline_ms":250,"max_trials":9}"#;
        let nested = r#"{"v":1,"type":"explore","session":"s","budget":{"deadline_ms":250,"max_trials":9}}"#;
        assert_eq!(Request::decode(flat).unwrap(), Request::decode(nested).unwrap());
        let Request::Explore { params, .. } = Request::decode(flat).unwrap() else { panic!() };
        assert_eq!(
            params.budget,
            BudgetEnvelope { deadline_ms: Some(250), max_trials: Some(9) }
        );
        // The alias works for optimize too, and a present-but-non-object
        // budget is a typed protocol error.
        let flat_opt = r#"{"v":1,"type":"optimize","session":"s","max_trials":5}"#;
        let Request::Optimize { params, .. } = Request::decode(flat_opt).unwrap() else {
            panic!()
        };
        assert_eq!(params.budget.max_trials, Some(5));
        let err = Request::decode(r#"{"v":1,"type":"explore","session":"s","budget":7}"#)
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::Protocol);
    }

    #[test]
    fn optimize_fields_default_when_omitted() {
        let req = Request::decode(r#"{"v":1,"type":"optimize","session":"s"}"#).unwrap();
        let Request::Optimize { params, .. } = req else { panic!() };
        assert_eq!(params, OptimizeParams::default());
        for bad in [
            r#"{"v":1,"type":"optimize","session":"s","pinned":[-1]}"#,
            r#"{"v":1,"type":"optimize","session":"s","groups":[7]}"#,
            r#"{"v":1,"type":"optimize","session":"s","exclusions":[[1]]}"#,
            r#"{"v":1,"type":"apply_moves","session":"s","moves":[[1,2,3]]}"#,
            r#"{"v":1,"type":"apply_moves","session":"s"}"#,
        ] {
            let err = Request::decode(bad).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Protocol, "{bad}");
        }
    }

    #[test]
    fn open_fields_default_when_omitted() {
        let req =
            Request::decode(r#"{"v":1,"type":"open","session":"s","spec":"x = input 8"}"#)
                .unwrap();
        let Request::Open { params, .. } = req else { panic!() };
        assert_eq!(params.partitions, 1);
        assert_eq!(params.package_pins, 84);
        assert!(params.multi_cycle);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let err = Request::decode(r#"{"v":2,"type":"ping"}"#).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Protocol);
        assert!(err.to_string().contains("version"));
        assert!(Request::decode(r#"{"type":"ping"}"#).is_err());
    }

    #[test]
    fn unknown_type_and_bad_fields_are_protocol_errors() {
        for bad in [
            "not json",
            r#"{"v":1,"type":"frobnicate"}"#,
            r#"{"v":1,"type":"open","session":7,"spec":""}"#,
            r#"{"v":1,"type":"explore","session":"s","heuristic":"Q"}"#,
            r#"{"v":1,"type":"repartition","session":"s","node":-1,"to":0}"#,
            // A missing required field.
            r#"{"v":1,"type":"repartition","session":"s","to":0}"#,
            r#"{"v":1,"type":"open","spec":""}"#,
            // A wrong type for each field type.
            r#"{"v":1,"type":"close","session":["s"]}"#,
            r#"{"v":1,"type":"repl_apply","seq":"7","record":"r"}"#,
            r#"{"v":1,"type":"repartition","session":"s","node":1.5,"to":0}"#,
            r#"{"v":1,"type":"set_constraints","session":"s","performance_ns":"1","delay_ns":1}"#,
            r#"{"v":1,"type":"open","session":"s","spec":"","multi_cycle":1}"#,
            r#"{"v":1,"type":"optimize","session":"s","pinned":3}"#,
            r#"{"v":1,"type":"optimize","session":"s","groups":[["1"]]}"#,
            r#"{"v":1,"type":"apply_moves","session":"s","moves":[7]}"#,
            r#"{"v":1,"type":"stats","session":false}"#,
            // u32 overflow, and a seed above 2^53.
            r#"{"v":1,"type":"repartition","session":"s","node":4294967296,"to":0}"#,
            r#"{"v":1,"type":"open","session":"s","spec":"","partitions":4294967296}"#,
            r#"{"v":1,"type":"optimize","session":"s","seed":9007199254740994}"#,
            // An unknown tag for each request-side tag enum.
            r#"{"v":1,"type":"optimize","session":"s","heuristic":"e"}"#,
            r#"{"v":1,"type":"role_change","epoch":1,"role":"leader"}"#,
            // Non-string `records` items, non-array `moves`, non-object
            // `budget`.
            r#"{"v":1,"type":"repl_snapshot","seq":1,"records":["r",1]}"#,
            r#"{"v":1,"type":"import","records":[null]}"#,
            r#"{"v":1,"type":"apply_moves","session":"s","moves":{"3":1}}"#,
            r#"{"v":1,"type":"optimize","session":"s","budget":[250]}"#,
        ] {
            let err = Request::decode(bad).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Protocol, "{bad}");
        }
        let run = r#"{"heuristic":"I","digest":"d","trials":1,"feasible_trials":1,"feasible":1,"completion":"complete","degraded":false,"elapsed_ms":1,"predictor_calls":0,"cache_hits":0,"cache_misses":0,"subtrees_skipped":0,"combinations_skipped":0}"#;
        let explored = format!(r#"{{"v":1,"type":"explored","session":"s","run":{run}}}"#);
        let optimized = format!(
            r#"{{"v":1,"type":"optimized","session":"s","result":{{"digest":"d","feasible":true,"initial_score":1,"final_score":1,"evaluations":1,"passes":1,"kicks":0,"completion":"complete","moves":[{{"nodes":[1],"from":0,"to":1,"pass":1,"kind":"gain"}}],"run":{run}}}}}"#
        );
        // The unmutated lines decode; each mutation below breaks one rule.
        Response::decode(&explored).unwrap();
        Response::decode(&optimized).unwrap();
        for bad in [
            r#"{"v":1,"type":"gossip"}"#.to_owned(),
            r#"{"v":1,"type":"opened","session":"s"}"#.to_owned(),
            r#"{"v":1,"type":"repl_ack","seq":-1}"#.to_owned(),
            r#"{"v":1,"type":"pong","version":1,"role":5}"#.to_owned(),
            explored.replace(r#""degraded":false"#, r#""degraded":"no""#),
            explored.replace(r#""elapsed_ms":1"#, r#""elapsed_ms":"1""#),
            explored.replace(r#""trials":1,"#, r#""trials":1e300,"#),
            // An unknown tag for each response-side tag enum.
            explored.replace(r#""heuristic":"I""#, r#""heuristic":"Q""#),
            explored.replace(r#""completion":"complete""#, r#""completion":"done""#),
            optimized.replace(r#""kind":"gain""#, r#""kind":"jump""#),
            r#"{"v":1,"type":"error","kind":"oops","message":"m"}"#.to_owned(),
            // u32 overflow inside a nested record; non-array `moves`.
            optimized.replace(r#""passes":1"#, r#""passes":4294967296"#),
            optimized.replace(r#""nodes":[1]"#, r#""nodes":[4294967296]"#),
            optimized.replace(r#""moves":[{"nodes":[1],"from":0,"to":1,"pass":1,"kind":"gain"}]"#, r#""moves":7"#),
            // Non-string items in string arrays.
            r#"{"v":1,"type":"exported","session":"s","records":[1]}"#.to_owned(),
            r#"{"v":1,"type":"router_status","pairs":[true]}"#.to_owned(),
            r#"{"v":1,"type":"stats","sessions":[1],"cache":{"hits":0,"misses":0,"evictions":0,"entries":0,"bytes":0}}"#.to_owned(),
        ] {
            let err = Response::decode(&bad).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Protocol, "{bad}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let run = RunSummary {
            heuristic: Heuristic::Iterative,
            digest: "h=I;trials=9".into(),
            trials: 9,
            feasible_trials: 4,
            feasible: 2,
            completion: Completion::Complete,
            degraded: false,
            elapsed_ms: 1.25,
            predictor_calls: 2,
            cache_hits: 1,
            cache_misses: 2,
            subtrees_skipped: 3,
            combinations_skipped: 120,
        };
        let resps = [
            Response::Pong { version: PROTOCOL_VERSION, role: None, epoch: 0, peer: None },
            Response::Pong {
                version: PROTOCOL_VERSION,
                role: Some("standby".into()),
                epoch: 5,
                peer: Some("10.0.0.2:1991".into()),
            },
            Response::Opened { session: "a".into(), partitions: 2 },
            Response::Explored { session: "a".into(), run: run.clone() },
            Response::Repartitioned { session: "a".into(), node: 3, to: 1 },
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
                    run: run.clone(),
                }),
            },
            Response::MovesApplied { session: "a".into(), moves: 2 },
            Response::ConstraintsSet {
                session: "a".into(),
                performance_ns: 12_500.0,
                delay_ns: 8_000.25,
            },
            Response::Stats {
                sessions: vec!["a".into(), "b".into()],
                cache: CacheStats { hits: 5, misses: 3, evictions: 0, entries: 3, bytes: 640 },
                shard_entries: vec![2, 0, 1, 0],
                last_run: Some(run),
            },
            Response::Stats {
                sessions: vec![],
                cache: CacheStats::default(),
                shard_entries: vec![],
                last_run: None,
            },
            Response::Closed { session: "a".into() },
            Response::ShuttingDown,
            Response::ReplAck { seq: 99 },
            Response::Promoted { sessions: 3, epoch: 7 },
            Response::Busy { inflight: 8, max_inflight: 8, retry_after_ms: 75 },
            Response::PairAdded { pairs: vec!["a:1 active".into(), "b:2 active".into()] },
            Response::PairRemoved { pairs: vec!["a:1 active".into()] },
            Response::RouterStatus { pairs: vec!["a:1 active, standby b:2 (armed)".into()] },
            Response::Exported {
                session: "a".into(),
                records: vec![r#"{"v":1,"type":"open","session":"a","spec":""}"#.into()],
            },
            Response::Imported { session: "a".into(), records: 4 },
            Response::Error(ServiceError::new(ErrorKind::UnknownSession, "no session \"z\"")),
            Response::Error(
                ServiceError::new(ErrorKind::Standby, "standby refuses mutations")
                    .with_redirect(Some("10.0.0.1:1991".into()), 2),
            ),
            Response::Error(
                ServiceError::new(ErrorKind::Fenced, "stale epoch").with_redirect(None, 9),
            ),
        ];
        for resp in resps {
            let line = resp.encode();
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(Response::decode(&line).unwrap(), resp, "{line}");
        }
    }

    #[test]
    fn busy_without_a_hint_defaults_to_zero_backoff() {
        let decoded =
            Response::decode(r#"{"v":1,"type":"busy","inflight":3,"max_inflight":2}"#).unwrap();
        assert_eq!(decoded, Response::Busy { inflight: 3, max_inflight: 2, retry_after_ms: 0 });
    }

    #[test]
    fn decode_errors_name_the_field() {
        for (line, message) in [
            (r#"{"v":1,"type":"repartition","session":"s","to":0}"#, r#"missing field "node""#),
            (
                r#"{"v":1,"type":"repartition","session":"s","node":"1","to":0}"#,
                r#"field "node" must be an integer in u32 range"#,
            ),
            (
                r#"{"v":1,"type":"import","records":[1]}"#,
                r#"field "records" items must be a string"#,
            ),
            (
                r#"{"v":1,"type":"explore","session":"s","heuristic":"Q"}"#,
                r#"field "heuristic" must be one of ["E", "I"], not "Q""#,
            ),
            (
                r#"{"v":1,"type":"apply_moves","session":"s","moves":[[1]]}"#,
                r#"field "moves" items must be an [a, b] pair"#,
            ),
        ] {
            assert_eq!(Request::decode(line).unwrap_err().message, message, "{line}");
        }
    }

    #[test]
    fn shard_entries_must_be_integers_like_every_other_count() {
        let stats = |entries: &str| {
            format!(
                r#"{{"v":1,"type":"stats","sessions":[],"cache":{{"hits":0,"misses":0,"evictions":0,"entries":0,"bytes":0}}{entries}}}"#
            )
        };
        let Response::Stats { shard_entries, .. } = Response::decode(&stats("")).unwrap()
        else {
            panic!()
        };
        assert!(shard_entries.is_empty(), "pre-sharding servers omit the field");
        let err = Response::decode(&stats(r#","shard_entries":[2,1.5]"#)).unwrap_err();
        assert_eq!(err.message, r#"field "shard_entries" items must be an integer"#);
    }

    #[test]
    fn pre_epoch_replies_decode_with_defaults() {
        // A pre-epoch pong has no role/epoch/peer; a pre-epoch promoted
        // reply has no epoch; a pre-epoch repl_apply has neither field.
        assert_eq!(
            Response::decode(r#"{"v":1,"type":"pong","version":1}"#).unwrap(),
            Response::Pong { version: 1, role: None, epoch: 0, peer: None }
        );
        assert_eq!(
            Response::decode(r#"{"v":1,"type":"promoted","sessions":2}"#).unwrap(),
            Response::Promoted { sessions: 2, epoch: 0 }
        );
        assert_eq!(
            Request::decode(r#"{"v":1,"type":"repl_apply","seq":4,"record":"r"}"#).unwrap(),
            Request::ReplApply { seq: 4, record: "r".into(), epoch: 0, primary: None }
        );
        // Pre-epoch errors have no redirect hint.
        let decoded =
            Response::decode(r#"{"v":1,"type":"error","kind":"standby","message":"m"}"#)
                .unwrap();
        let Response::Error(e) = decoded else { panic!() };
        assert_eq!((e.primary, e.epoch), (None, None));
    }

    #[test]
    fn service_error_implements_error_trait() {
        let e = ServiceError::new(ErrorKind::Spec, "bad spec");
        let dynamic: &dyn std::error::Error = &e;
        assert!(dynamic.to_string().contains("spec error: bad spec"));
    }
}
