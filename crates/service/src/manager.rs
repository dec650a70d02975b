//! Named-session bookkeeping and the request → core-API façade.
//!
//! A [`SessionManager`] owns every open [`Session`] behind one mutex and
//! threads a single shared [`PredictionCache`] through all of them, so
//! two sessions opened on the same spec (or a session re-explored after a
//! [`repartition`](SessionManager::repartition)) serve partition
//! predictions from each other's work — the cross-session cache hits the
//! `stats` response exposes.
//!
//! Locking discipline: the sessions map is locked only for bookkeeping.
//! [`explore`](SessionManager::explore) clones the session out of the map
//! (a cheap, `Arc`-sharing clone), runs the search **unlocked**, then
//! re-locks briefly to record the run summary — concurrent explores on
//! different (or the same) session never serialize on the manager.
//!
//! The manager is fully decoupled from connection I/O: it is called by
//! the reactor thread (cheap requests, answered inline) and by worker
//! threads (explores, handed back through the completion queue), and
//! never writes to a socket or blocks on a client. Lock order is strictly
//! `repl_apply → sessions → journal`; the reactor and the completion
//! queue take their own locks *after* all manager locks are released, so
//! no cycle exists (DESIGN.md §13).
//!
//! # One commit path
//!
//! Every state change — `open`, `repartition`, `apply_moves`,
//! `set_constraints`, `close`, the move trace an `optimize` accepts, and
//! this node's `role_change` transitions — goes through one private
//! `commit`. Under a single acquisition of the sessions lock it runs the
//! role guard, the kind-specific validation, the write-ahead [`Journal`]
//! append, the install, the replication ship, the history push and the
//! compaction check. A failed append refuses the mutation with a typed
//! `internal` error and state untouched. The caller says where a record
//! came from: a client (guarded, journaled), the replication stream
//! (journaled) or a replay of records already on disk (neither). The
//! role — epoch, primary or (fenced) standby, primary hint — is one value
//! under the same lock, so no role change interleaves with a compaction
//! or a client commit. Explores are pure and never journaled.
//!
//! Requests tagged with a client `req_id` are answered from a bounded
//! per-session dedup window on retry: the recorded [`Response`] is
//! returned instead of re-applying the mutation, which is what makes
//! client-side retry-after-reconnect safe for non-idempotent requests.

use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::Duration;

use chop_bad::{ArchitectureStyle, ClockConfig, PredictorParams};
use chop_core::prelude::*;
use chop_dfg::parse::parse_dfg;
use chop_library::standard::{example_off_shelf_ram, table1_library, table2_packages};
use chop_library::ChipSet;
use chop_stat::units::Nanos;

use crate::journal::{Journal, JournalEntry};
use crate::protocol::{
    role_name, ErrorKind, ExploreParams, OpenParams, OptimizeParams, OptimizeSummary, Request,
    Response, RunSummary, ServiceError, PROTOCOL_VERSION,
};
use crate::replication::ReplEvent;

/// Most recent `req_id` outcomes remembered per session.
const DEDUP_PER_SESSION: usize = 32;
/// Sessions tracked in the dedup window before the oldest is evicted
/// (kept separate from the sessions map so a `close` outcome can still be
/// replayed to a retry).
const DEDUP_SESSIONS: usize = 256;

/// One managed session: the live core session plus its latest run.
struct Managed {
    session: Session,
    last_run: Option<RunSummary>,
    /// Monotonic id assigned at `open`. An unlocked exploration captures
    /// it alongside the session clone; the run summary is recorded only
    /// if the entry under this name still carries the same generation,
    /// so a close + reopen racing the search never inherits a stale run.
    generation: u64,
    /// The `open` parameters this session was built from — the genesis
    /// record a journal compaction snapshot starts the session with.
    genesis: OpenParams,
    /// The `req_id` the `open` carried, preserved through compaction so
    /// the idempotency window survives a restart.
    open_req_id: Option<String>,
    /// Net mutation history since `open` (repartitions and constraint
    /// changes, with their `req_id`s), in application order.
    mutations: Vec<JournalEntry>,
}

/// This node's cluster role: the epoch it last heard or journaled and
/// what it serves as. A fenced primary cannot be expressed — fencing is a
/// kind of standby.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Role {
    /// Bumped by every promotion, adopted from higher-epoch peers.
    epoch: u64,
    standing: Standing,
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
enum Standing {
    /// Serves direct mutations.
    #[default]
    Primary,
    /// Refuses direct mutations; state arrives over the replication
    /// stream until a promotion. `fenced` when a higher epoch forced the
    /// role (a demoted ex-primary) rather than configuration; `primary`
    /// is the best guess at the current primary's `host:port`, attached
    /// to refusals so clients can follow the redirect.
    Standby { fenced: bool, primary: Option<String> },
}

impl Role {
    fn standby(epoch: u64, fenced: bool, primary: Option<String>) -> Self {
        Self { epoch, standing: Standing::Standby { fenced, primary } }
    }

    fn is_standby(&self) -> bool {
        matches!(self.standing, Standing::Standby { .. })
    }

    fn is_fenced(&self) -> bool {
        matches!(self.standing, Standing::Standby { fenced: true, .. })
    }

    fn name(&self) -> &'static str {
        role_name(!self.is_standby(), self.is_fenced())
    }

    /// The journal record a restart replays this role from.
    fn record(&self) -> Request {
        Request::RoleChange {
            epoch: self.epoch,
            primary: !self.is_standby(),
            fenced: self.is_fenced(),
        }
    }

    /// Admits a client mutation, or refuses it on a standby: `fenced`
    /// when the role was forced by a higher epoch, `standby` when
    /// configured — both carrying the current primary's address.
    fn admit(&self) -> Result<(), ServiceError> {
        let Standing::Standby { fenced, primary } = &self.standing else { return Ok(()) };
        let (kind, what) = match fenced {
            true => (ErrorKind::Fenced, "was fenced by a newer primary"),
            false => (ErrorKind::Standby, "is a warm standby"),
        };
        let message = format!("this node {what}; send mutations to the primary");
        Err(ServiceError::new(kind, message).with_redirect(primary.clone(), self.epoch))
    }
}

/// Everything the sessions lock guards: the sessions and the role that
/// admits mutations to them.
#[derive(Default)]
struct State {
    sessions: HashMap<String, Managed>,
    role: Role,
}

/// Where a committed record came from: decides the role guard and the
/// journal append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    /// A client (or this node's own decision): guarded, journaled.
    Client,
    /// The replication stream, already admitted by the sender: journaled.
    Stream,
    /// Records already on disk, or about to be as one snapshot: neither.
    Replay,
}

/// One state change for [`SessionManager::commit`].
enum Mutation {
    /// A session record (`open`, `repartition`, `apply_moves`,
    /// `set_constraints`, `close`), journaled and shipped as is. With a
    /// [`Base`], it is an optimizer's accepted trace.
    Record(Request, Option<Box<Base>>),
    /// A role transition, journaled as `role_change`, never shipped.
    Role(Role),
}

/// The session an unlocked optimizer run started from (the trace commits
/// only if it is unchanged), and the run it produced.
struct Base {
    generation: u64,
    mutations: usize,
    run: RunSummary,
}

/// What a validated [`Mutation`] installs.
enum Change {
    Open(Managed),
    Update(Session, Option<RunSummary>),
    Close,
    Role(Role),
}

/// Bounded per-session memory of `req_id` → outcome, so a retried
/// mutation is answered from the recorded response instead of re-applied.
#[derive(Default)]
struct DedupWindow {
    windows: HashMap<String, VecDeque<(String, Response)>>,
    /// Session insertion order, for eviction.
    order: VecDeque<String>,
}

impl DedupWindow {
    fn lookup(&self, session: &str, req_id: &str) -> Option<Response> {
        self.windows
            .get(session)?
            .iter()
            .find(|(id, _)| id == req_id)
            .map(|(_, response)| response.clone())
    }

    fn record(&mut self, session: &str, req_id: &str, response: Response) {
        if !self.windows.contains_key(session) {
            if self.order.len() >= DEDUP_SESSIONS {
                if let Some(evicted) = self.order.pop_front() {
                    self.windows.remove(&evicted);
                }
            }
            self.order.push_back(session.to_owned());
            self.windows.insert(session.to_owned(), VecDeque::new());
        }
        let window = self.windows.get_mut(session).expect("window just ensured");
        if let Some(stale) = window.iter().position(|(id, _)| id == req_id) {
            window.remove(stale);
        }
        if window.len() >= DEDUP_PER_SESSION {
            window.pop_front();
        }
        window.push_back((req_id.to_owned(), response));
    }
}

/// What [`SessionManager::recover`] found and rebuilt from the journal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sessions live after replay.
    pub sessions_restored: usize,
    /// Journal records replayed (including ones for since-closed sessions).
    pub records_replayed: usize,
    /// Torn or corrupt tail records skipped with a warning.
    pub records_skipped: usize,
}

/// Observer invoked with a one-line description of each role change.
type RoleHook = Box<dyn Fn(&str) + Send + Sync>;

/// Owns every named session and the cache they share.
pub struct SessionManager {
    cache: Arc<PredictionCache>,
    /// The sessions and this node's role. Lock order:
    /// `repl_apply → sessions → journal`, never the reverse.
    state: Mutex<State>,
    dedup: Mutex<DedupWindow>,
    /// The write-ahead log; `None` for a purely in-memory manager.
    journal: Option<Mutex<Journal>>,
    generations: AtomicU64,
    default_jobs: usize,
    /// This node's own dialable `host:port` (set after bind); carried on
    /// outgoing replication traffic so peers can find us back.
    advertised: Mutex<Option<String>>,
    /// The replication peer's address. Dynamic: hearing from a stale
    /// peer at a new address retargets the replicator to resync it.
    peer: Mutex<Option<String>>,
    /// Called with a one-line description on every role transition
    /// (promotion, fencing demotion) — the CLI wires its banner here.
    role_hook: Mutex<Option<RoleHook>>,
    /// Monotonic count of committed mutations — the position a
    /// replication stream ships records at. Advances only under the
    /// sessions lock, so emission order equals sequence order.
    repl_seq: AtomicU64,
    /// Highest replication sequence number this standby has applied or
    /// skipped; re-delivered records at or below it are acked, not
    /// re-applied.
    repl_high_water: AtomicU64,
    /// Where committed records are shipped, when a replicator is
    /// attached. Locked only while already holding the sessions lock.
    repl_sink: Mutex<Option<mpsc::Sender<ReplEvent>>>,
    /// Serializes replication applies and role transitions against each
    /// other, so a promote never interleaves a half-applied snapshot.
    repl_apply: Mutex<()>,
}

impl SessionManager {
    /// Creates an empty manager. `default_jobs` is the worker-thread count
    /// an `explore` uses when the request does not override it.
    #[must_use]
    pub fn new(default_jobs: usize) -> Self {
        Self::new_with_cache(default_jobs, default_cache(default_jobs))
    }

    /// Creates an empty manager around an externally built prediction
    /// cache — how `chop serve` injects a snapshot-warmed or custom-
    /// sharded cache. Every session this manager opens (including
    /// sessions rebuilt by journal replay) shares `cache`.
    #[must_use]
    pub fn new_with_cache(default_jobs: usize, cache: Arc<PredictionCache>) -> Self {
        Self {
            cache,
            state: Mutex::new(State::default()),
            dedup: Mutex::new(DedupWindow::default()),
            journal: None,
            generations: AtomicU64::new(0),
            default_jobs: default_jobs.max(1),
            advertised: Mutex::new(None),
            peer: Mutex::new(None),
            role_hook: Mutex::new(None),
            repl_seq: AtomicU64::new(0),
            repl_high_water: AtomicU64::new(0),
            repl_sink: Mutex::new(None),
            repl_apply: Mutex::new(()),
        }
    }

    /// Opens (or creates) the write-ahead journal under `state_dir`,
    /// replays every surviving record to rebuild the sessions it
    /// describes — torn or corrupt tail records are skipped with a
    /// warning, never a panic — and returns the recovered manager with
    /// journaling armed for subsequent mutations. Replay also re-records
    /// each journaled `req_id` outcome, so the idempotency window
    /// survives the restart.
    ///
    /// # Errors
    ///
    /// Real I/O failures opening the journal only; nothing *in* the
    /// journal can fail recovery.
    pub fn recover(
        default_jobs: usize,
        state_dir: &Path,
        snapshot_every: usize,
    ) -> std::io::Result<(Self, RecoveryReport)> {
        Self::recover_with_cache(
            default_jobs,
            state_dir,
            snapshot_every,
            default_cache(default_jobs),
        )
    }

    /// [`SessionManager::recover`] around an externally built prediction
    /// cache (see [`SessionManager::new_with_cache`]). The cache must be
    /// injected *before* replay: sessions capture the shared cache handle
    /// when they open, so replayed sessions warm — and are warmed by —
    /// the same cache the live ones use.
    ///
    /// # Errors
    ///
    /// Real I/O failures opening the journal only; nothing *in* the
    /// journal can fail recovery.
    pub fn recover_with_cache(
        default_jobs: usize,
        state_dir: &Path,
        snapshot_every: usize,
        cache: Arc<PredictionCache>,
    ) -> std::io::Result<(Self, RecoveryReport)> {
        let (journal, scan) = Journal::open(state_dir, snapshot_every)?;
        // The journal is mounted only after replay: the records are
        // already on disk.
        let mut manager = Self::new_with_cache(default_jobs, cache);
        let mut report = RecoveryReport {
            records_skipped: scan.skipped,
            records_replayed: scan.entries.len(),
            sessions_restored: 0,
        };
        for entry in &scan.entries {
            // Role records are journal-internal: replay installs the role
            // they name instead of dispatching them.
            if let Request::RoleChange { epoch, primary, fenced } = entry.request {
                manager.lock().role = match primary {
                    true => Role { epoch, standing: Standing::Primary },
                    false => Role::standby(epoch, fenced, None),
                };
                continue;
            }
            // Unguarded: a journaled record was admitted when it was
            // written, so a role record replayed *before* it must not
            // re-refuse it as a standby.
            let response =
                manager.dispatch_inner(&entry.request, entry.req_id.as_deref(), Origin::Replay);
            if let Response::Error(e) = response {
                // A journal written by this manager replays cleanly; an
                // error means a hand-edited or cross-version log. Keep
                // going — later sessions are independent.
                eprintln!(
                    "chop-service: recovery: replay of {:?} failed: {}",
                    entry.request.encode(),
                    e.message
                );
            }
        }
        report.sessions_restored = manager.session_count();
        manager.journal = Some(Mutex::new(journal));
        Ok((manager, report))
    }

    /// Scripts I/O faults into the journal's subsequent appends (chaos
    /// tests only). No-op for a manager without a journal.
    #[cfg(feature = "fault-inject")]
    pub fn inject_journal_faults(&self, plan: IoFaultPlan) {
        if let Some(journal) = &self.journal {
            journal.lock().unwrap_or_else(PoisonError::into_inner).set_io_faults(plan);
        }
    }

    /// The prediction cache shared by every session this manager opens.
    #[must_use]
    pub fn shared_cache(&self) -> Arc<PredictionCache> {
        Arc::clone(&self.cache)
    }

    /// Number of open sessions.
    ///
    /// # Panics
    ///
    /// Never — a poisoned lock is recovered, not propagated.
    #[must_use]
    pub fn session_count(&self) -> usize {
        self.lock().sessions.len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        // A panic while the map was locked (contained elsewhere by the
        // server's panic isolation) must not wedge every later request.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn role(&self) -> Role {
        self.lock().role.clone()
    }

    /// Worker threads for a search: the request's override, or the default.
    fn jobs(&self, requested: Option<u32>) -> usize {
        requested.map_or(self.default_jobs, |j| usize::try_from(j.max(1)).unwrap_or(1))
    }

    /// Handles any request synchronously and returns its response. The
    /// server dispatches `explore` through its worker pool instead (and
    /// intercepts `shutdown`, which here only acknowledges).
    pub fn dispatch(&self, request: &Request) -> Response {
        self.dispatch_tagged(request, None)
    }

    /// [`dispatch`](Self::dispatch) with the request's envelope `req_id`.
    /// A `req_id`-tagged mutation already in the dedup window is answered
    /// from its recorded outcome without being re-applied; fresh tagged
    /// mutations record their outcome (success *or* failure) for retries.
    ///
    /// Replication traffic is routed to its apply paths here, and a warm
    /// standby refuses every other mutation with [`ErrorKind::Standby`] —
    /// reads and explores are always served.
    pub fn dispatch_tagged(&self, request: &Request, req_id: Option<&str>) -> Response {
        match request {
            Request::ReplApply { seq, record, epoch, primary } => {
                self.apply_stream(*seq, std::slice::from_ref(record), false, *epoch, primary)
            }
            Request::ReplSnapshot { seq, records, epoch, primary } => {
                self.apply_stream(*seq, records, true, *epoch, primary)
            }
            Request::Promote => {
                let (sessions, epoch) = self.promote();
                Response::Promoted { sessions, epoch }
            }
            // Journal replay installs these directly; over the wire they
            // would let any client rewrite the cluster role.
            Request::RoleChange { .. } => Response::Error(ServiceError::protocol(
                "role_change records are journal-internal and not accepted over the wire",
            )),
            Request::Export { session } => self.export_session(session),
            Request::Import { records } => self.import_session(records),
            _ => self.dispatch_inner(request, req_id, Origin::Client),
        }
    }

    /// The dispatch core: dedup window, then the request itself, with
    /// mutations committed as coming from `origin`.
    fn dispatch_inner(
        &self,
        request: &Request,
        req_id: Option<&str>,
        origin: Origin,
    ) -> Response {
        let dedup_key = match (req_id, request.is_mutation(), request.session()) {
            (Some(id), true, Some(session)) => Some((session.to_owned(), id.to_owned())),
            _ => None,
        };
        if let Some((session, id)) = &dedup_key {
            let recorded =
                self.dedup.lock().unwrap_or_else(PoisonError::into_inner).lookup(session, id);
            if let Some(response) = recorded {
                return response;
            }
        }
        let outcome = match request {
            Request::Ping => {
                let role = self.role();
                Ok(Response::Pong {
                    version: PROTOCOL_VERSION,
                    role: Some(role.name().to_owned()),
                    epoch: role.epoch,
                    peer: self.peer(),
                })
            }
            Request::Open { .. }
            | Request::Repartition { .. }
            | Request::ApplyMoves { .. }
            | Request::SetConstraints { .. }
            | Request::Close { .. } => {
                self.commit(Mutation::Record(request.clone(), None), req_id, origin)
            }
            Request::Explore { session, params } => self
                .explore(session, params)
                .map(|run| Response::Explored { session: session.clone(), run }),
            Request::Optimize { session, params } => {
                self.run_optimizer(session, params, req_id, origin).map(|result| {
                    Response::Optimized { session: session.clone(), result: Box::new(result) }
                })
            }
            Request::Stats { session } => {
                self.stats(session.as_deref()).map(|(sessions, cache, last_run)| {
                    Response::Stats {
                        sessions,
                        cache,
                        shard_entries: self.cache.shard_occupancy(),
                        last_run,
                    }
                })
            }
            Request::Shutdown => Ok(Response::ShuttingDown),
            // Replication traffic must not nest inside itself (a record
            // carrying a record): the wrapper already routed the real
            // thing, so reaching here means a malformed stream.
            Request::ReplApply { .. }
            | Request::ReplSnapshot { .. }
            | Request::Promote
            | Request::RoleChange { .. }
            | Request::Export { .. }
            | Request::Import { .. } => Err(ServiceError::protocol(
                "replication requests cannot be nested inside records",
            )),
            // Membership administration is a router concern; a bare
            // server has no pair table to edit.
            Request::AddPair { .. } | Request::RemovePair { .. } | Request::RouterStatus => {
                Err(ServiceError::protocol(
                    "router admin requests must be sent to a chop router",
                ))
            }
        };
        let response = outcome.unwrap_or_else(Response::Error);
        // A role refusal says where to send the request, not what it did:
        // it must not shadow the real outcome once a retry reaches the
        // primary.
        let refused = matches!(
            &response,
            Response::Error(e) if matches!(e.kind, ErrorKind::Standby | ErrorKind::Fenced)
        );
        if let (Some((session, id)), false) = (dedup_key, refused) {
            self.dedup.lock().unwrap_or_else(PoisonError::into_inner).record(
                &session,
                &id,
                response.clone(),
            );
        }
        response
    }

    /// Commits a locally built session record as a client mutation.
    fn commit_client(&self, request: Request) -> Result<Response, ServiceError> {
        self.commit(Mutation::Record(request, None), None, Origin::Client)
    }

    /// The one commit path. Under a single acquisition of the sessions
    /// lock: the role guard (client session mutations only), the
    /// kind-specific validation and next state, the journal append (all
    /// but replays), the install, the replication ship (session records
    /// only), the history push and the compaction check. Returns the
    /// response acknowledging the change.
    fn commit(
        &self,
        mutation: Mutation,
        req_id: Option<&str>,
        origin: Origin,
    ) -> Result<Response, ServiceError> {
        let mut state = self.lock();
        let is_role = matches!(mutation, Mutation::Role(_));
        if origin == Origin::Client && !is_role {
            state.role.admit()?;
        }
        let (record, change, ack) = self.prepare(&state.sessions, mutation, req_id)?;
        if origin != Origin::Replay {
            if let Err(e) = self.journal_append(&record, req_id) {
                if !is_role {
                    return Err(e);
                }
                // A role change is an availability decision: serve in the
                // new role now, warn that a restart will not remember it.
                eprintln!("chop-service: role_change journal append failed: {}", e.message);
            }
        }
        let State { sessions, role } = &mut *state;
        let name = record.session().unwrap_or_default();
        let history = match change {
            Change::Open(managed) => {
                sessions.insert(name.to_owned(), managed);
                None
            }
            Change::Update(session, run) => {
                let managed = sessions.get_mut(name).expect("validated under this lock");
                managed.session = session;
                managed.last_run = run.or(managed.last_run.take());
                Some(&mut managed.mutations)
            }
            Change::Close => {
                sessions.remove(name);
                None
            }
            Change::Role(next) => {
                *role = next;
                None
            }
        };
        if !is_role {
            self.replicate(role, &record, req_id);
        }
        if let Some(history) = history {
            history.push(JournalEntry { request: record, req_id: req_id.map(str::to_owned) });
        }
        self.compact(&state, false);
        Ok(ack)
    }

    /// The kind-specific half of [`commit`](Self::commit): validates
    /// `mutation` against the locked sessions and returns the record to
    /// journal, the change to install and the acknowledging response.
    fn prepare(
        &self,
        sessions: &HashMap<String, Managed>,
        mutation: Mutation,
        req_id: Option<&str>,
    ) -> Result<(Request, Change, Response), ServiceError> {
        let (record, base) = match mutation {
            Mutation::Record(record, base) => (record, base),
            Mutation::Role(role) => {
                let ack =
                    Response::Promoted { sessions: sessions.len() as u64, epoch: role.epoch };
                return Ok((role.record(), Change::Role(role), ack));
            }
        };
        let live = |name: &str| {
            sessions.get(name).map(|m| &m.session).ok_or_else(|| unknown_session(name))
        };
        let engine =
            |e: &dyn std::fmt::Display| ServiceError::new(ErrorKind::Engine, e.to_string());
        let mut run = None;
        if let (Some(base), Some(name)) = (base, record.session()) {
            let managed = sessions.get(name).ok_or_else(|| unknown_session(name))?;
            if managed.generation != base.generation
                || managed.mutations.len() != base.mutations
            {
                return Err(engine(&"session mutated while the optimizer ran; retry"));
            }
            run = Some(base.run);
        }
        let (change, ack) = match &record {
            Request::Open { session: name, params } => {
                if name.is_empty() || name.len() > 256 {
                    return Err(ServiceError::new(
                        ErrorKind::Spec,
                        "session names must be 1..=256 characters",
                    ));
                }
                let session = build_session(params, self.default_jobs)?
                    .with_shared_cache(self.shared_cache());
                if sessions.contains_key(name) {
                    return Err(ServiceError::new(
                        ErrorKind::SessionExists,
                        format!("session {name:?} is already open"),
                    ));
                }
                let partitions = session.partitioning().partition_count() as u64;
                let managed = Managed {
                    session,
                    last_run: None,
                    generation: self.generations.fetch_add(1, Ordering::Relaxed),
                    genesis: params.clone(),
                    open_req_id: req_id.map(str::to_owned),
                    mutations: Vec::new(),
                };
                (Change::Open(managed), Response::Opened { session: name.clone(), partitions })
            }
            Request::Repartition { session: name, node, to } => {
                let current = live(name)?;
                let next = current
                    .repartition(resolve_node(current, *node)?, PartitionId::new(*to))
                    .map_err(|e| engine(&e))?;
                let ack =
                    Response::Repartitioned { session: name.clone(), node: *node, to: *to };
                (Change::Update(next, run), ack)
            }
            Request::ApplyMoves { session: name, moves } => {
                let current = live(name)?;
                let next = current
                    .apply_moves(&resolve_moves(current, moves)?)
                    .map_err(|e| engine(&e))?;
                let ack =
                    Response::MovesApplied { session: name.clone(), moves: moves.len() as u64 };
                (Change::Update(next, run), ack)
            }
            Request::SetConstraints { session: name, performance_ns, delay_ns } => {
                for (field, value) in
                    [("performance_ns", performance_ns), ("delay_ns", delay_ns)]
                {
                    if !(value.is_finite() && *value > 0.0) {
                        return Err(ServiceError::new(
                            ErrorKind::Spec,
                            format!("{field} must be a positive, finite number"),
                        ));
                    }
                }
                let constraints =
                    Constraints::new(Nanos::new(*performance_ns), Nanos::new(*delay_ns));
                let next = live(name)?
                    .clone()
                    .try_with_constraints(constraints)
                    .map_err(|e| ServiceError::new(ErrorKind::Spec, e.to_string()))?;
                let ack = Response::ConstraintsSet {
                    session: name.clone(),
                    performance_ns: *performance_ns,
                    delay_ns: *delay_ns,
                };
                (Change::Update(next, run), ack)
            }
            Request::Close { session: name } => {
                live(name)?;
                (Change::Close, Response::Closed { session: name.clone() })
            }
            _ => return Err(ServiceError::protocol("not a session mutation")),
        };
        Ok((record, change, ack))
    }

    /// Appends a record to the journal (when one is mounted), mapping
    /// failure to a typed `internal` error. Called by the commit path
    /// before it installs anything: an append failure therefore refuses
    /// the mutation with state unchanged.
    fn journal_append(
        &self,
        request: &Request,
        req_id: Option<&str>,
    ) -> Result<(), ServiceError> {
        let Some(journal) = &self.journal else { return Ok(()) };
        let appended =
            journal.lock().unwrap_or_else(PoisonError::into_inner).append(request, req_id);
        appended.map_err(|e| {
            let message = format!("journal append failed, mutation refused: {e}");
            ServiceError::new(ErrorKind::Internal, message)
        })
    }

    /// Rewrites the journal as a snapshot of `state` — its role record,
    /// then every live session — once it outgrows its threshold, or
    /// unconditionally when `force`d. Called with the sessions lock held;
    /// compaction failure only defers shrinking, it never loses records.
    /// A primary ships the same snapshot so its standby can reset to the
    /// same baseline instead of growing with compacted-away records.
    fn compact(&self, state: &State, force: bool) {
        let Some(journal) = &self.journal else { return };
        let mut journal = journal.lock().unwrap_or_else(PoisonError::into_inner);
        if !force && !journal.should_compact() {
            return;
        }
        let snapshot = Self::snapshot_entries(&state.sessions);
        // The epoch-0 primary default stays implicit, keeping single-node
        // journals byte-identical to earlier releases.
        let role = (state.role != Role::default())
            .then(|| JournalEntry { request: state.role.record(), req_id: None });
        let persisted: Vec<JournalEntry> = role.into_iter().chain(snapshot.clone()).collect();
        if let Err(e) = journal.compact(&persisted) {
            eprintln!("chop-service: journal compaction failed (will retry later): {e}");
            return;
        }
        drop(journal);
        if state.role.is_standby() {
            return;
        }
        let sink = self.repl_sink.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(sink) = sink.as_ref() {
            let _ = sink.send(ReplEvent::Snapshot {
                seq: self.repl_seq.load(Ordering::SeqCst),
                records: snapshot.iter().map(encode).collect(),
            });
        }
    }

    /// The genesis-plus-net-mutations history of every live session, in
    /// sorted-name order — what a compaction writes and a replication
    /// snapshot ships. Replaying it rebuilds the sessions byte-for-byte.
    fn snapshot_entries(sessions: &HashMap<String, Managed>) -> Vec<JournalEntry> {
        let mut names: Vec<&String> = sessions.keys().collect();
        names.sort_unstable();
        names.into_iter().flat_map(|name| history(name, &sessions[name])).collect()
    }

    /// Opens a named session, returning its partition count.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::SessionExists`] for a duplicate name,
    /// [`ErrorKind::Spec`] for anything wrong with the parameters and
    /// [`ErrorKind::Standby`]/[`ErrorKind::Fenced`] on a standby.
    pub fn open(&self, name: &str, params: &OpenParams) -> Result<u64, ServiceError> {
        let request = Request::Open { session: name.to_owned(), params: params.clone() };
        match self.commit_client(request)? {
            Response::Opened { partitions, .. } => Ok(partitions),
            other => unreachable!("open acknowledged as {other:?}"),
        }
    }

    /// Runs an exploration on a named session. The search itself runs
    /// without holding the manager lock.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::UnknownSession`] for a missing name,
    /// [`ErrorKind::Engine`] when the core search fails.
    pub fn explore(
        &self,
        name: &str,
        params: &ExploreParams,
    ) -> Result<RunSummary, ServiceError> {
        let (session, generation) = {
            let state = self.lock();
            let managed = state.sessions.get(name).ok_or_else(|| unknown_session(name))?;
            (managed.session.clone(), managed.generation)
        };
        let mut budget = SearchBudget::default();
        if let Some(ms) = params.budget.deadline_ms {
            budget = budget.with_deadline(Duration::from_millis(ms));
        }
        if let Some(n) = params.budget.max_trials {
            budget = budget.with_max_trials(usize::try_from(n).unwrap_or(usize::MAX));
        }
        let outcome = session
            .with_budget(budget)
            .with_jobs(self.jobs(params.jobs))
            .explore(params.heuristic)
            .map_err(|e| ServiceError::new(ErrorKind::Engine, e.to_string()))?;
        let run = RunSummary::from_outcome(&outcome);
        self.record_run(name, generation, run.clone());
        Ok(run)
    }

    /// Attaches a finished run to the session it actually came from: if
    /// the name was closed (or closed and reopened) while the search ran
    /// unlocked, the generation no longer matches and the summary is
    /// dropped instead of landing on an unrelated session.
    fn record_run(&self, name: &str, generation: u64, run: RunSummary) {
        if let Some(managed) = self.lock().sessions.get_mut(name) {
            if managed.generation == generation {
                managed.last_run = Some(run);
            }
        }
    }

    /// Moves one DFG node to another partition (the incremental what-if).
    /// The replaced session keeps the shared cache, so the next `explore`
    /// re-predicts only the touched partitions.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::UnknownSession`] for a missing name, [`ErrorKind::Spec`]
    /// for an unknown node index, [`ErrorKind::Engine`] for an invalid move.
    pub fn repartition(&self, name: &str, node: u32, to: u32) -> Result<(), ServiceError> {
        self.commit_client(Request::Repartition { session: name.to_owned(), node, to })
            .map(drop)
    }

    /// Runs the move-based optimizer on a named session. Like
    /// [`explore`](Self::explore), the search itself runs without holding
    /// the manager lock; on success the accepted final partitioning is
    /// committed by replaying the move trace onto the live session, and
    /// the journal/replication stream records that replay as an
    /// `apply_moves` (a truncated `optimize` is not deterministically
    /// replayable, its accepted trace always is).
    ///
    /// # Errors
    ///
    /// [`ErrorKind::UnknownSession`] for a missing name, [`ErrorKind::Spec`]
    /// for parameters naming unknown nodes or inconsistent constraints,
    /// [`ErrorKind::Engine`] when the search fails or the session was
    /// mutated while the optimizer ran unlocked (retry in that case).
    pub fn optimize(
        &self,
        name: &str,
        params: &OptimizeParams,
    ) -> Result<OptimizeSummary, ServiceError> {
        self.run_optimizer(name, params, None, Origin::Client)
    }

    /// The search half of [`optimize`](Self::optimize): runs unlocked on
    /// a clone of the session, then commits the accepted trace. A trace
    /// without moves changes nothing, so its run is recorded the way an
    /// explore's is.
    fn run_optimizer(
        &self,
        name: &str,
        params: &OptimizeParams,
        req_id: Option<&str>,
        origin: Origin,
    ) -> Result<OptimizeSummary, ServiceError> {
        let (session, generation, mutations) = {
            let state = self.lock();
            // Refuse before searching, not after.
            if origin == Origin::Client {
                state.role.admit()?;
            }
            let managed = state.sessions.get(name).ok_or_else(|| unknown_session(name))?;
            (managed.session.clone(), managed.generation, managed.mutations.len())
        };
        let spec = optimize_spec(&session, params)?;
        let result =
            session.with_jobs(self.jobs(params.jobs)).optimize(&spec).map_err(|e| match e {
                ChopError::InvalidOptimizeSpec(_) => {
                    ServiceError::new(ErrorKind::Spec, e.to_string())
                }
                other => ServiceError::new(ErrorKind::Engine, other.to_string()),
            })?;
        let run = RunSummary::from_outcome(&result.outcome);
        let moves = result.moves_as_indices();
        if moves.is_empty() {
            self.record_run(name, generation, run);
        } else {
            let trace = Request::ApplyMoves { session: name.to_owned(), moves };
            let base = Base { generation, mutations, run };
            self.commit(Mutation::Record(trace, Some(Box::new(base))), req_id, origin)?;
        }
        Ok(OptimizeSummary::from_result(&result))
    }

    /// Applies a batch of `(node index, partition index)` moves
    /// atomically — the journaled form of an accepted optimizer trace,
    /// also reachable directly as a multi-node what-if.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::UnknownSession`] for a missing name, [`ErrorKind::Spec`]
    /// for an unknown node index, [`ErrorKind::Engine`] for a batch whose
    /// final state is invalid.
    pub fn apply_moves(&self, name: &str, moves: &[(u32, u32)]) -> Result<(), ServiceError> {
        let request = Request::ApplyMoves { session: name.to_owned(), moves: moves.to_vec() };
        self.commit_client(request).map(drop)
    }

    /// Replaces a session's performance/delay constraints — the paper's
    /// interactive tighten-and-retry loop — keeping its partitioning,
    /// predictions and shared cache.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::UnknownSession`] for a missing name, [`ErrorKind::Spec`]
    /// for a non-positive or non-finite constraint.
    pub fn set_constraints(
        &self,
        name: &str,
        performance_ns: f64,
        delay_ns: f64,
    ) -> Result<(), ServiceError> {
        let request =
            Request::SetConstraints { session: name.to_owned(), performance_ns, delay_ns };
        self.commit_client(request).map(drop)
    }

    /// Server statistics: sorted session names, the shared cache's
    /// lifetime counters, and — when `session` names an open session —
    /// its most recent run summary.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::UnknownSession`] when `session` names nothing.
    pub fn stats(
        &self,
        session: Option<&str>,
    ) -> Result<(Vec<String>, CacheStats, Option<RunSummary>), ServiceError> {
        let state = self.lock();
        let last_run = match session {
            None => None,
            Some(name) => {
                state.sessions.get(name).ok_or_else(|| unknown_session(name))?.last_run.clone()
            }
        };
        let mut names: Vec<String> = state.sessions.keys().cloned().collect();
        names.sort_unstable();
        Ok((names, self.cache.stats(), last_run))
    }

    /// Discards a named session (its cache contributions stay shared).
    ///
    /// # Errors
    ///
    /// [`ErrorKind::UnknownSession`] for a missing name.
    pub fn close(&self, name: &str) -> Result<(), ServiceError> {
        self.commit_client(Request::Close { session: name.to_owned() }).map(drop)
    }

    // ---- session handoff ------------------------------------------------

    /// Exports one session as the portable record lines (genesis `open`
    /// plus net mutations, `req_id`s preserved) that rebuild it — the
    /// router uses this to migrate sessions during pair membership
    /// changes. Read-only; the session stays open here.
    fn export_session(&self, name: &str) -> Response {
        let state = self.lock();
        let Some(managed) = state.sessions.get(name) else {
            return Response::Error(unknown_session(name));
        };
        let records = history(name, managed).map(|e| encode(&e)).collect();
        Response::Exported { session: name.to_owned(), records }
    }

    /// Rebuilds an exported session here by committing its record lines
    /// as client mutations — each is role-guarded and lands in the
    /// journal and the replication stream like a fresh mutation. Refused
    /// if the session already exists or the records are malformed.
    fn import_session(&self, records: &[String]) -> Response {
        let decoded: Vec<_> = match records.iter().map(|r| Request::decode_tagged(r)).collect()
        {
            Ok(decoded) => decoded,
            Err(e) => {
                let message = format!("undecodable import record: {e}");
                return Response::Error(ServiceError::protocol(message));
            }
        };
        let Some((Request::Open { session, .. }, _)) = decoded.first() else {
            return Response::Error(ServiceError::protocol(
                "imports must start with the session's open record",
            ));
        };
        let session = session.clone();
        if decoded.iter().any(|(r, _)| r.session() != Some(session.as_str())) {
            return Response::Error(ServiceError::protocol(
                "import records must all target the imported session",
            ));
        }
        let mut applied = 0u64;
        for (request, req_id) in &decoded {
            if let Response::Error(e) =
                self.dispatch_inner(request, req_id.as_deref(), Origin::Client)
            {
                return Response::Error(ServiceError {
                    message: format!(
                        "import of {session:?} failed after {applied} records: {}",
                        e.message
                    ),
                    ..e
                });
            }
            applied += 1;
        }
        Response::Imported { session, records: applied }
    }

    // ---- replication ----------------------------------------------------

    /// Whether this node is a warm standby (refusing direct mutations).
    #[must_use]
    pub fn is_standby(&self) -> bool {
        self.lock().role.is_standby()
    }

    /// Puts this node into warm-standby mode: direct mutations are
    /// refused until [`promote`](Self::promote); state arrives via
    /// [`Request::ReplApply`] / [`Request::ReplSnapshot`]. A configured
    /// role, not journaled; a node that already is a standby keeps its
    /// fencing and primary hint.
    pub fn mark_standby(&self) {
        let mut state = self.lock();
        if !state.role.is_standby() {
            state.role = Role::standby(state.role.epoch, false, None);
        }
    }

    /// Whether this node's standby role was forced by fencing (it was a
    /// primary demoted by a higher-epoch peer) rather than configured.
    #[must_use]
    pub fn is_fenced(&self) -> bool {
        self.lock().role.is_fenced()
    }

    /// The cluster epoch this node last heard or journaled. Starts at 0;
    /// every promotion bumps it, every higher epoch heard adopts it.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.lock().role.epoch
    }

    /// The wire name for this node's current role.
    #[must_use]
    pub fn role_name(&self) -> &'static str {
        self.lock().role.name()
    }

    /// Records this node's own dialable address, stamped onto outgoing
    /// replication traffic so a refusing peer can find us back.
    pub fn set_advertised(&self, addr: impl Into<String>) {
        *self.advertised.lock().unwrap_or_else(PoisonError::into_inner) = Some(addr.into());
    }

    /// This node's own dialable address, if one was recorded after bind.
    #[must_use]
    pub fn advertised(&self) -> Option<String> {
        self.advertised.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Points the replicator at a (new) peer address. The replicator
    /// re-reads this on every reconnect, so retargeting takes effect
    /// without a restart.
    pub fn set_peer(&self, addr: Option<String>) {
        *self.peer.lock().unwrap_or_else(PoisonError::into_inner) = addr;
    }

    /// The current replication peer address, if any.
    #[must_use]
    pub fn peer(&self) -> Option<String> {
        self.peer.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Installs the hook called with a one-line description on every role
    /// transition (the CLI prints these as banner lines).
    pub fn set_role_change_hook(&self, hook: impl Fn(&str) + Send + Sync + 'static) {
        *self.role_hook.lock().unwrap_or_else(PoisonError::into_inner) = Some(Box::new(hook));
    }

    fn announce(&self, line: &str) {
        let hook = self.role_hook.lock().unwrap_or_else(PoisonError::into_inner);
        match hook.as_ref() {
            Some(hook) => hook(line),
            None => eprintln!("chop-service: {line}"),
        }
    }

    /// The best redirect target for a refused mutation: the stored
    /// primary hint on a standby, this node's own address on a primary.
    #[must_use]
    pub fn primary_hint(&self) -> Option<String> {
        match self.role().standing {
            Standing::Primary => self.advertised(),
            Standing::Standby { primary, .. } => primary,
        }
    }

    /// Promotes this node to primary, bumping the cluster epoch and
    /// journaling the `role_change` so a restart replays it back into
    /// the role. A no-op on a node already serving as primary (the epoch
    /// is *not* bumped — re-promotion must stay idempotent). Returns the
    /// live session count and the epoch now in force.
    pub fn promote(&self) -> (u64, u64) {
        let _apply = self.repl_apply.lock().unwrap_or_else(PoisonError::into_inner);
        let role = self.role();
        if !role.is_standby() {
            return (self.session_count() as u64, role.epoch);
        }
        let epoch = role.epoch + 1;
        // A role commit is never refused (a failed append only warns).
        let _ = self.commit(
            Mutation::Role(Role { epoch, standing: Standing::Primary }),
            None,
            Origin::Client,
        );
        self.announce(&format!("promoted to primary at epoch {epoch}"));
        (self.session_count() as u64, epoch)
    }

    /// Demotes this node to a **fenced** standby of `primary` at `epoch`,
    /// journaling the transition. Called when a fenced refusal or an
    /// incoming replication stream proves a newer primary exists. Stale
    /// calls (epoch not newer than our own) are ignored.
    pub fn demote(&self, epoch: u64, primary: Option<&str>) {
        let _apply = self.repl_apply.lock().unwrap_or_else(PoisonError::into_inner);
        self.adopt_epoch(epoch, primary);
    }

    /// Reacts to a `fenced` refusal from the peer our replicator ships
    /// to: demotes this node iff the refusal proves a strictly newer
    /// epoch (equal epochs never demote — that would let two primaries
    /// demote each other). Returns whether a demotion happened.
    pub fn observe_fencing(&self, err: &ServiceError) -> bool {
        let Some(epoch) = err.epoch else { return false };
        if err.kind != ErrorKind::Fenced || epoch <= self.epoch() {
            return false;
        }
        self.demote(epoch, err.primary.as_deref());
        true
    }

    /// Adopts a strictly newer epoch heard from the cluster: a primary
    /// demotes itself to a fenced standby, a standby just follows the
    /// epoch forward. Journals the resulting `role_change` and points the
    /// primary hint (and replication peer) at the announcing node. An
    /// equal epoch only refreshes a standby's primary hint. Caller must
    /// hold `repl_apply`.
    fn adopt_epoch(&self, epoch: u64, primary: Option<&str>) {
        let role = self.role();
        if epoch <= role.epoch {
            if let (Some(addr), Standing::Standby { primary: hint, .. }) =
                (primary, &mut self.lock().role.standing)
            {
                *hint = Some(addr.to_owned());
            }
            return;
        }
        let fenced = !role.is_standby() || role.is_fenced();
        let (was_primary, hint) = match role.standing {
            Standing::Primary => (true, None),
            Standing::Standby { primary, .. } => (false, primary),
        };
        let next = Role::standby(epoch, fenced, primary.map(str::to_owned).or(hint));
        let _ = self.commit(Mutation::Role(next), None, Origin::Stream);
        if let Some(addr) = primary {
            // Our replicator should ship to (and resync from) the node
            // that outranked us once we are promoted again.
            self.set_peer(Some(addr.to_owned()));
        }
        if was_primary {
            let to = primary.unwrap_or("the new primary");
            self.announce(&format!("demoted to standby of {to} at epoch {epoch} (fenced)"));
        }
    }

    /// The replication high-water mark: the highest stream sequence this
    /// node has applied or skipped.
    #[must_use]
    pub fn replication_high_water(&self) -> u64 {
        self.repl_high_water.load(Ordering::Acquire)
    }

    /// Attaches the channel committed mutations are shipped over. One
    /// replicator per manager; installing a new sink replaces the old.
    pub fn set_repl_sink(&self, sink: mpsc::Sender<ReplEvent>) {
        // Taken under the sessions lock so installation serializes with
        // in-flight commits (same order as `replicate`).
        let _state = self.lock();
        *self.repl_sink.lock().unwrap_or_else(PoisonError::into_inner) = Some(sink);
    }

    /// A consistent snapshot of the full state for stream (re)starts: the
    /// current replication sequence and the record lines that rebuild
    /// every live session, taken atomically under the sessions lock.
    #[must_use]
    pub fn replication_snapshot(&self) -> (u64, Vec<String>) {
        let state = self.lock();
        let seq = self.repl_seq.load(Ordering::SeqCst);
        let records = Self::snapshot_entries(&state.sessions).iter().map(encode).collect();
        (seq, records)
    }

    /// Assigns the next stream sequence to a just-committed mutation and
    /// ships it to the replicator, if one is attached and `role` is
    /// primary. Called with the sessions lock held so sequence order
    /// equals emission order.
    fn replicate(&self, role: &Role, request: &Request, req_id: Option<&str>) {
        let seq = self.repl_seq.fetch_add(1, Ordering::SeqCst) + 1;
        if role.is_standby() {
            // A standby applying the primary's stream must not echo the
            // records back out of its own (parked) replicator.
            return;
        }
        let sink = self.repl_sink.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(sink) = sink.as_ref() {
            let _ = sink.send(ReplEvent::Record { seq, line: request.encode_tagged(req_id) });
        }
    }

    /// Epoch fence on an incoming replication message, under `repl_apply`.
    ///
    /// - A **lower** epoch proves the sender is a stale ex-primary: refuse
    ///   with the typed `fenced` error (carrying our epoch and primary
    ///   hint, which demotes the sender), and — when we are the primary —
    ///   retarget our own replicator at the sender's advertised address so
    ///   the resync snapshot finds it even if its port changed.
    /// - A **higher** epoch proves a newer primary exists: adopt it (a
    ///   primary demotes itself, fenced) and accept the message.
    /// - An **equal** epoch is only legitimate when we are a standby (the
    ///   sender is our primary); two primaries at the same epoch refuse
    ///   each other without demoting (the refusal carries an equal epoch,
    ///   which [`observe_fencing`](Self::observe_fencing) ignores).
    fn fence_check(&self, epoch: u64, sender: Option<&str>) -> Result<(), ServiceError> {
        let role = self.role();
        if epoch < role.epoch || (epoch == role.epoch && !role.is_standby()) {
            if epoch < role.epoch && !role.is_standby() {
                if let Some(addr) = sender {
                    self.set_peer(Some(addr.to_owned()));
                }
            }
            return Err(ServiceError::new(
                ErrorKind::Fenced,
                format!(
                    "replication stream fenced: sender epoch {epoch} is not newer than {}",
                    role.epoch
                ),
            )
            .with_redirect(self.primary_hint(), role.epoch));
        }
        self.adopt_epoch(epoch, sender);
        Ok(())
    }

    /// Applies replication traffic on a standby: one record, or — when
    /// `snapshot` — a full-state handoff (sent on stream start and after
    /// primary-side compaction) that replaces every session and compacts
    /// this journal to the same baseline. The carried epoch is
    /// fence-checked first: stale senders are refused, newer senders
    /// demote us before the apply (the path a fenced ex-primary resyncs
    /// through). Traffic below the high-water mark is acked without being
    /// re-applied, which makes re-delivery idempotent.
    fn apply_stream(
        &self,
        seq: u64,
        records: &[String],
        snapshot: bool,
        epoch: u64,
        sender: &Option<String>,
    ) -> Response {
        let _apply = self.repl_apply.lock().unwrap_or_else(PoisonError::into_inner);
        if let Err(e) = self.fence_check(epoch, sender.as_deref()) {
            return Response::Error(e);
        }
        let high_water = self.repl_high_water.load(Ordering::Acquire);
        if seq < high_water || (seq == high_water && !snapshot) {
            return Response::ReplAck { seq: high_water };
        }
        // A record lands in this node's own journal (crash-safe in its own
        // right) and its req_id outcome in the dedup window, so a client
        // retrying against the promoted standby gets the recorded answer.
        // A snapshot is replayed unjournaled: the compaction that follows
        // persists it in one atomic write.
        let origin = if snapshot { Origin::Replay } else { Origin::Stream };
        if snapshot {
            self.lock().sessions.clear();
            *self.dedup.lock().unwrap_or_else(PoisonError::into_inner) = DedupWindow::default();
        }
        for record in records {
            let failure = match Request::decode_tagged(record) {
                Ok((request, req_id)) => {
                    match self.dispatch_inner(&request, req_id.as_deref(), origin) {
                        Response::Error(e) => e.message,
                        _ => continue,
                    }
                }
                Err(e) => format!("undecodable record: {e}"),
            };
            eprintln!("chop-service: replication: apply at seq {seq} failed: {failure}");
        }
        if snapshot {
            self.compact(&self.lock(), true);
        }
        self.repl_high_water.store(seq, Ordering::Release);
        self.repl_seq.store(seq, Ordering::SeqCst);
        Response::ReplAck { seq }
    }
}

/// A session's genesis `open` plus its net mutations, `req_id`s kept —
/// the records that rebuild it.
fn history<'a>(name: &str, managed: &'a Managed) -> impl Iterator<Item = JournalEntry> + 'a {
    let open = Request::Open { session: name.to_owned(), params: managed.genesis.clone() };
    let genesis = JournalEntry { request: open, req_id: managed.open_req_id.clone() };
    std::iter::once(genesis).chain(managed.mutations.iter().cloned())
}

/// A journal entry as the tagged request line it is persisted and shipped as.
fn encode(entry: &JournalEntry) -> String {
    entry.request.encode_tagged(entry.req_id.as_deref())
}

fn default_cache(jobs: usize) -> Arc<PredictionCache> {
    Arc::new(PredictionCache::with_config(DEFAULT_CACHE_CAPACITY, recommended_shards(jobs)))
}

fn unknown_session(name: &str) -> ServiceError {
    ServiceError::new(ErrorKind::UnknownSession, format!("no open session named {name:?}"))
}

/// Resolves a wire node index against a session's DFG.
fn resolve_node(session: &Session, node: u32) -> Result<chop_dfg::NodeId, ServiceError> {
    session
        .partitioning()
        .dfg()
        .nodes()
        .map(|(id, _)| id)
        .find(|id| id.index() == node as usize)
        .ok_or_else(|| ServiceError::new(ErrorKind::Spec, format!("no node with index {node}")))
}

/// Resolves a wire move batch to `(NodeId, PartitionId)` pairs.
fn resolve_moves(
    session: &Session,
    moves: &[(u32, u32)],
) -> Result<Vec<(chop_dfg::NodeId, PartitionId)>, ServiceError> {
    moves
        .iter()
        .map(|&(node, to)| Ok((resolve_node(session, node)?, PartitionId::new(to))))
        .collect()
}

/// Builds the core [`OptimizeSpec`] an `optimize` request describes,
/// resolving its node indices against the session.
fn optimize_spec(
    session: &Session,
    params: &OptimizeParams,
) -> Result<OptimizeSpec, ServiceError> {
    let mut spec = OptimizeSpec::new().with_seed(params.seed).with_heuristic(params.heuristic);
    if let Some(ms) = params.budget.deadline_ms {
        spec = spec.with_deadline(Duration::from_millis(ms));
    }
    if let Some(n) = params.budget.max_trials {
        spec = spec.with_max_moves(n);
    }
    if params.kicks.is_some() || params.kick_moves.is_some() {
        let kicks = params.kicks.unwrap_or_else(|| spec.kicks());
        let kick_moves = params.kick_moves.unwrap_or_else(|| spec.kick_moves());
        spec = spec.with_kicks(kicks, kick_moves);
    }
    for &node in &params.pinned {
        spec = spec.with_pinned_node(resolve_node(session, node)?);
    }
    for group in &params.groups {
        let nodes = group
            .iter()
            .map(|&node| resolve_node(session, node))
            .collect::<Result<Vec<_>, _>>()?;
        spec = spec.with_group(nodes);
    }
    for &(a, b) in &params.exclusions {
        spec = spec.with_exclusion(resolve_node(session, a)?, resolve_node(session, b)?);
    }
    Ok(spec)
}

/// Builds a core [`Session`] from wire parameters, mirroring the `chop
/// check` defaults: uniform MOSIS packages, a horizontal cut, referenced
/// memory blocks declared as off-the-shelf external parts.
///
/// Exposed so tests (and embedders) can reproduce the exact session a
/// server builds for an `open` request and compare
/// [`SearchOutcome::digest`]s against service results.
///
/// # Errors
///
/// [`ErrorKind::Spec`] for unparseable spec text, an out-of-range
/// partition/chip/package choice, or a non-positive constraint.
pub fn build_session(params: &OpenParams, jobs: usize) -> Result<Session, ServiceError> {
    let spec_err = |m: String| ServiceError::new(ErrorKind::Spec, m);
    let dfg = parse_dfg(&params.spec).map_err(|e| spec_err(e.to_string()))?;
    let partitions = params.partitions as usize;
    if partitions == 0 || partitions > dfg.len() {
        return Err(spec_err(format!(
            "partitions must be in 1..={} for this spec, got {partitions}",
            dfg.len()
        )));
    }
    let chip_count = params.chips.unwrap_or(params.partitions) as usize;
    if chip_count == 0 {
        return Err(spec_err("chip count must be at least 1".into()));
    }
    if params.package_pins != 64 && params.package_pins != 84 {
        return Err(spec_err(format!(
            "package_pins must be 64 or 84 (Table 2), got {}",
            params.package_pins
        )));
    }
    for (field, value) in
        [("performance_ns", params.performance_ns), ("delay_ns", params.delay_ns)]
    {
        if !(value.is_finite() && value > 0.0) {
            return Err(spec_err(format!("{field} must be a positive, finite number")));
        }
    }

    let packages = table2_packages();
    let package = if params.package_pins == 64 { &packages[0] } else { &packages[1] };
    let chips = ChipSet::uniform(package.clone(), chip_count);

    // Declare every memory block the spec references as an off-the-shelf
    // external part (protocol v1 has no on-chip memory placement).
    let mut max_memory: Option<u32> = None;
    for (_, node) in dfg.nodes() {
        if let Some(m) = node.op().memory() {
            max_memory = Some(max_memory.map_or(m.index(), |x| x.max(m.index())));
        }
    }
    let mut builder = PartitioningBuilder::new(dfg, chips).split_horizontal(partitions);
    if let Some(max) = max_memory {
        for _ in 0..=max {
            builder = builder.with_memory(example_off_shelf_ram(), MemoryAssignment::External);
        }
    }
    let partitioning = builder.build().map_err(|e| spec_err(e.to_string()))?;

    let (dp_mult, style) = if params.multi_cycle {
        (1, ArchitectureStyle::multi_cycle())
    } else {
        (10, ArchitectureStyle::single_cycle())
    };
    let clocks =
        ClockConfig::new(Nanos::new(300.0), dp_mult, 1).map_err(|e| spec_err(e.to_string()))?;
    let constraints =
        Constraints::new(Nanos::new(params.performance_ns), Nanos::new(params.delay_ns));
    let session = Session::new(
        partitioning,
        table1_library(),
        clocks,
        style,
        PredictorParams::default(),
        constraints,
    )
    .try_with_constraints(constraints)
    .map_err(|e| spec_err(e.to_string()))?;
    Ok(session.with_jobs(jobs.max(1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::BudgetEnvelope;

    const SPEC: &str = "a = input 16\nb = input 16\np = mul a b\ns = add p a\ny = output s\n";

    fn open_params(partitions: u32) -> OpenParams {
        OpenParams { spec: SPEC.into(), partitions, ..OpenParams::default() }
    }

    #[test]
    fn open_explore_stats_close_lifecycle() {
        let mgr = SessionManager::new(1);
        assert_eq!(mgr.open("s1", &open_params(2)).unwrap(), 2);
        let run = mgr.explore("s1", &ExploreParams::default()).unwrap();
        assert!(run.trials > 0);
        let (names, cache, last) = mgr.stats(Some("s1")).unwrap();
        assert_eq!(names, vec!["s1".to_owned()]);
        assert!(cache.misses > 0, "first run must miss the shared cache");
        assert_eq!(last.unwrap().digest, run.digest);
        mgr.close("s1").unwrap();
        assert_eq!(mgr.session_count(), 0);
        assert_eq!(mgr.close("s1").unwrap_err().kind, ErrorKind::UnknownSession);
    }

    #[test]
    fn duplicate_open_is_rejected() {
        let mgr = SessionManager::new(1);
        mgr.open("dup", &open_params(1)).unwrap();
        assert_eq!(
            mgr.open("dup", &open_params(1)).unwrap_err().kind,
            ErrorKind::SessionExists
        );
        assert_eq!(mgr.open("", &open_params(1)).unwrap_err().kind, ErrorKind::Spec);
    }

    #[test]
    fn sibling_sessions_share_the_prediction_cache() {
        let mgr = SessionManager::new(1);
        mgr.open("first", &open_params(2)).unwrap();
        mgr.open("second", &open_params(2)).unwrap();
        let a = mgr.explore("first", &ExploreParams::default()).unwrap();
        let b = mgr.explore("second", &ExploreParams::default()).unwrap();
        assert_eq!(a.digest, b.digest, "identical sessions find identical results");
        assert!(a.predictor_calls > 0);
        assert_eq!(b.predictor_calls, 0, "second session must be served from the cache");
        assert_eq!(b.cache_hits, 2);
    }

    #[test]
    fn repartition_then_explore_repredicts_only_touched_partitions() {
        let spec = "a = input 16\nb = input 16\np = mul a b\ns = add p a\nt = add s b\n\
                    u = add t a\ny = output u\n";
        let mgr = SessionManager::new(1);
        let params = OpenParams { spec: spec.into(), partitions: 3, ..OpenParams::default() };
        mgr.open("inc", &params).unwrap();
        let before = mgr.explore("inc", &ExploreParams::default()).unwrap();
        assert_eq!(before.cache_hits, 0);
        mgr.repartition("inc", 3, 0).unwrap();
        let after = mgr.explore("inc", &ExploreParams::default()).unwrap();
        assert!(
            after.cache_hits >= 1,
            "untouched partitions must be served from the cache, got {after:?}"
        );
        assert!(
            after.predictor_calls < before.predictor_calls,
            "only the touched partitions may be re-predicted"
        );
    }

    #[test]
    fn stale_run_is_not_recorded_on_a_reopened_session() {
        let mgr = SessionManager::new(1);
        mgr.open("s", &open_params(2)).unwrap();
        let stale_gen = mgr.lock().sessions.get("s").unwrap().generation;
        let run = mgr.explore("s", &ExploreParams::default()).unwrap();
        // Close and reopen under the same name while a hypothetical
        // search still holds the old generation.
        mgr.close("s").unwrap();
        mgr.open("s", &open_params(2)).unwrap();
        mgr.record_run("s", stale_gen, run.clone());
        let (_, _, last) = mgr.stats(Some("s")).unwrap();
        assert!(last.is_none(), "stale run must not attach to the reopened session");
        // The matching generation still records normally.
        let fresh_gen = mgr.lock().sessions.get("s").unwrap().generation;
        assert_ne!(fresh_gen, stale_gen);
        mgr.record_run("s", fresh_gen, run);
        assert!(mgr.stats(Some("s")).unwrap().2.is_some());
    }

    #[test]
    fn explore_budget_truncates() {
        let mgr = SessionManager::new(1);
        mgr.open("b", &open_params(2)).unwrap();
        let params = ExploreParams {
            budget: BudgetEnvelope { max_trials: Some(0), ..BudgetEnvelope::default() },
            ..ExploreParams::default()
        };
        let run = mgr.explore("b", &params).unwrap();
        assert!(run.completion.is_truncated());
    }

    #[test]
    fn errors_are_typed() {
        let mgr = SessionManager::new(1);
        assert_eq!(
            mgr.explore("ghost", &ExploreParams::default()).unwrap_err().kind,
            ErrorKind::UnknownSession
        );
        assert_eq!(mgr.stats(Some("ghost")).unwrap_err().kind, ErrorKind::UnknownSession);
        let bad = OpenParams { spec: "a = frob 16\n".into(), ..OpenParams::default() };
        assert_eq!(mgr.open("x", &bad).unwrap_err().kind, ErrorKind::Spec);
        let bad = OpenParams { partitions: 99, ..open_params(99) };
        assert_eq!(mgr.open("x", &bad).unwrap_err().kind, ErrorKind::Spec);
        let bad = OpenParams { package_pins: 40, ..open_params(1) };
        assert_eq!(mgr.open("x", &bad).unwrap_err().kind, ErrorKind::Spec);
        let bad = OpenParams { performance_ns: 0.0, ..open_params(1) };
        assert_eq!(mgr.open("x", &bad).unwrap_err().kind, ErrorKind::Spec);
        mgr.open("m", &open_params(2)).unwrap();
        assert_eq!(mgr.repartition("m", 99, 0).unwrap_err().kind, ErrorKind::Spec);
        assert_eq!(mgr.repartition("m", 0, 99).unwrap_err().kind, ErrorKind::Engine);
    }

    fn state_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "chop-mgr-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn set_constraints_validates_and_applies() {
        let mgr = SessionManager::new(1);
        mgr.open("c", &open_params(2)).unwrap();
        assert_eq!(mgr.set_constraints("c", 0.0, 100.0).unwrap_err().kind, ErrorKind::Spec);
        assert_eq!(
            mgr.set_constraints("c", f64::NAN, 100.0).unwrap_err().kind,
            ErrorKind::Spec
        );
        assert_eq!(
            mgr.set_constraints("ghost", 1.0, 1.0).unwrap_err().kind,
            ErrorKind::UnknownSession
        );
        mgr.set_constraints("c", 50_000.0, 50_000.0).unwrap();
        let run = mgr.explore("c", &ExploreParams::default()).unwrap();
        assert!(run.trials > 0, "session stays explorable after a constraint change");
    }

    #[test]
    fn journaled_mutations_survive_recovery_with_identical_digests() {
        let dir = state_dir("recover");
        let before = {
            let (mgr, report) = SessionManager::recover(1, &dir, 0).unwrap();
            assert_eq!(report, RecoveryReport::default());
            mgr.open("keep", &open_params(2)).unwrap();
            mgr.open("gone", &open_params(1)).unwrap();
            mgr.repartition("keep", 3, 0).unwrap();
            mgr.set_constraints("keep", 40_000.0, 40_000.0).unwrap();
            mgr.close("gone").unwrap();
            mgr.explore("keep", &ExploreParams::default()).unwrap().digest
            // Dropped without any shutdown ceremony — the crash.
        };
        let (mgr, report) = SessionManager::recover(1, &dir, 0).unwrap();
        assert_eq!(report.sessions_restored, 1);
        assert_eq!(report.records_replayed, 5);
        assert_eq!(report.records_skipped, 0);
        let (names, _, _) = mgr.stats(None).unwrap();
        assert_eq!(names, vec!["keep".to_owned()]);
        let after = mgr.explore("keep", &ExploreParams::default()).unwrap().digest;
        assert_eq!(before, after, "recovered session must reproduce the digest");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_keeps_only_live_sessions_and_their_req_ids() {
        let dir = state_dir("compact");
        {
            let (mgr, _) = SessionManager::recover(1, &dir, 3).unwrap();
            let open = Request::Open { session: "live".into(), params: open_params(2) };
            assert!(matches!(
                mgr.dispatch_tagged(&open, Some("open-live")),
                Response::Opened { .. }
            ));
            for i in 0..3 {
                mgr.open(&format!("tmp{i}"), &open_params(1)).unwrap();
                mgr.close(&format!("tmp{i}")).unwrap();
            }
        }
        let (mgr, report) = SessionManager::recover(1, &dir, 3).unwrap();
        assert!(
            report.records_replayed < 7,
            "compaction must have shrunk the log, got {report:?}"
        );
        assert_eq!(report.sessions_restored, 1);
        // The open's req_id survived compaction: a retry is idempotent.
        let open = Request::Open { session: "live".into(), params: open_params(2) };
        assert_eq!(
            mgr.dispatch_tagged(&open, Some("open-live")),
            Response::Opened { session: "live".into(), partitions: 2 }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retried_req_id_replays_the_recorded_outcome() {
        let mgr = SessionManager::new(1);
        let open = Request::Open { session: "dup".into(), params: open_params(2) };
        let first = mgr.dispatch_tagged(&open, Some("r-1"));
        assert!(matches!(first, Response::Opened { .. }));
        // Same req_id → replayed outcome, not SessionExists.
        assert_eq!(mgr.dispatch_tagged(&open, Some("r-1")), first);
        // Different req_id → genuinely re-applied, and the failure is
        // itself recorded for *its* retries.
        let conflict = mgr.dispatch_tagged(&open, Some("r-2"));
        let Response::Error(ref e) = conflict else { panic!("{conflict:?}") };
        assert_eq!(e.kind, ErrorKind::SessionExists);
        assert_eq!(mgr.dispatch_tagged(&open, Some("r-2")), conflict);
        // Untagged requests never touch the window.
        let close = Request::Close { session: "dup".into() };
        assert!(matches!(mgr.dispatch_tagged(&close, None), Response::Closed { .. }));
        assert!(matches!(mgr.dispatch_tagged(&close, None), Response::Error(_)));
    }

    #[test]
    fn dedup_window_is_bounded_per_session() {
        let mut window = DedupWindow::default();
        for i in 0..(DEDUP_PER_SESSION + 5) {
            window.record("s", &format!("id-{i}"), Response::ShuttingDown);
        }
        assert_eq!(window.windows["s"].len(), DEDUP_PER_SESSION);
        assert!(window.lookup("s", "id-0").is_none(), "oldest entries must be evicted");
        assert!(window.lookup("s", &format!("id-{}", DEDUP_PER_SESSION + 4)).is_some());
        // Session-count bound evicts whole sessions in insertion order.
        for i in 0..DEDUP_SESSIONS {
            window.record(&format!("extra-{i}"), "x", Response::ShuttingDown);
        }
        assert!(window.lookup("s", &format!("id-{}", DEDUP_PER_SESSION + 4)).is_none());
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn journal_append_failure_refuses_the_mutation() {
        use chop_core::prelude::fault::IoFaultPlan;
        let dir = state_dir("append-fail");
        let (mgr, _) = SessionManager::recover(1, &dir, 0).unwrap();
        mgr.open("ok", &open_params(2)).unwrap();
        mgr.inject_journal_faults(IoFaultPlan::none().fail_after(0));
        let err = mgr.open("refused", &open_params(1)).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Internal);
        assert_eq!(mgr.session_count(), 1, "refused mutation must not commit");
        let err = mgr.close("ok").unwrap_err();
        assert_eq!(err.kind, ErrorKind::Internal);
        assert_eq!(mgr.session_count(), 1, "session must survive a refused close");
        mgr.inject_journal_faults(IoFaultPlan::none());
        mgr.close("ok").unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dispatch_covers_every_request() {
        let mgr = SessionManager::new(1);
        assert_eq!(
            mgr.dispatch(&Request::Ping),
            Response::Pong {
                version: PROTOCOL_VERSION,
                role: Some("primary".into()),
                epoch: 0,
                peer: None,
            }
        );
        let open = Request::Open { session: "d".into(), params: open_params(2) };
        assert_eq!(
            mgr.dispatch(&open),
            Response::Opened { session: "d".into(), partitions: 2 }
        );
        let explored = mgr.dispatch(&Request::Explore {
            session: "d".into(),
            params: ExploreParams::default(),
        });
        assert!(matches!(explored, Response::Explored { .. }), "{explored:?}");
        assert!(matches!(
            mgr.dispatch(&Request::Stats { session: Some("d".into()) }),
            Response::Stats { .. }
        ));
        assert_eq!(
            mgr.dispatch(&Request::SetConstraints {
                session: "d".into(),
                performance_ns: 45_000.0,
                delay_ns: 45_000.0,
            }),
            Response::ConstraintsSet {
                session: "d".into(),
                performance_ns: 45_000.0,
                delay_ns: 45_000.0,
            }
        );
        assert_eq!(mgr.dispatch(&Request::Shutdown), Response::ShuttingDown);
        assert_eq!(
            mgr.dispatch(&Request::Close { session: "d".into() }),
            Response::Closed { session: "d".into() }
        );
        assert!(matches!(
            mgr.dispatch(&Request::Close { session: "d".into() }),
            Response::Error(_)
        ));
    }

    #[test]
    fn standby_refuses_direct_mutations_but_serves_reads() {
        let standby = SessionManager::new(1);
        standby.mark_standby();
        assert!(standby.is_standby());
        let open = Request::Open { session: "s".into(), params: open_params(2) };
        let Response::Error(e) = standby.dispatch(&open) else { panic!("mutation allowed") };
        assert_eq!(e.kind, ErrorKind::Standby);
        // Reads are served; explores on replicated sessions too.
        assert!(matches!(
            standby.dispatch(&Request::Stats { session: None }),
            Response::Stats { .. }
        ));
        let record = open.encode_tagged(None);
        assert_eq!(
            standby.dispatch(&Request::ReplApply { seq: 1, record, epoch: 0, primary: None }),
            Response::ReplAck { seq: 1 }
        );
        assert!(matches!(
            standby.dispatch(&Request::Explore {
                session: "s".into(),
                params: ExploreParams::default(),
            }),
            Response::Explored { .. }
        ));
    }

    #[test]
    fn replicated_records_ack_idempotently_below_the_high_water_mark() {
        let standby = SessionManager::new(1);
        standby.mark_standby();
        let open = Request::Open { session: "s".into(), params: open_params(2) };
        let record = open.encode_tagged(Some("open-1"));
        assert_eq!(
            standby.dispatch(&Request::ReplApply {
                seq: 3,
                record: record.clone(),
                epoch: 0,
                primary: None,
            }),
            Response::ReplAck { seq: 3 }
        );
        assert_eq!(standby.replication_high_water(), 3);
        // Re-delivery of the same (or an earlier) seq is acked, not
        // re-applied — no SessionExists noise, state untouched.
        assert_eq!(
            standby.dispatch(&Request::ReplApply { seq: 3, record, epoch: 0, primary: None }),
            Response::ReplAck { seq: 3 }
        );
        assert_eq!(standby.session_count(), 1);
        // A primary fences a same-epoch replication stream outright.
        let primary = SessionManager::new(1);
        let Response::Error(e) = primary.dispatch(&Request::ReplApply {
            seq: 1,
            record: String::new(),
            epoch: 0,
            primary: None,
        }) else {
            panic!("primary accepted a replication record")
        };
        assert_eq!(e.kind, ErrorKind::Fenced);
    }

    #[test]
    fn snapshot_apply_replaces_state_and_promote_flips_the_role() {
        let standby = SessionManager::new(1);
        standby.mark_standby();
        let stale = Request::Open { session: "stale".into(), params: open_params(1) };
        standby.dispatch(&Request::ReplApply {
            seq: 1,
            record: stale.encode(),
            epoch: 0,
            primary: None,
        });
        let fresh = Request::Open { session: "fresh".into(), params: open_params(2) };
        assert_eq!(
            standby.dispatch(&Request::ReplSnapshot {
                seq: 5,
                records: vec![fresh.encode_tagged(Some("open-fresh"))],
                epoch: 0,
                primary: None,
            }),
            Response::ReplAck { seq: 5 }
        );
        let (names, _, _) = standby.stats(None).unwrap();
        assert_eq!(names, vec!["fresh".to_owned()], "snapshot replaces, not merges");
        assert_eq!(standby.replication_high_water(), 5);
        // Promote: mutations flow directly, and a client retrying the
        // replicated open's req_id gets the recorded outcome.
        assert_eq!(
            standby.dispatch(&Request::Promote),
            Response::Promoted { sessions: 1, epoch: 1 }
        );
        assert!(!standby.is_standby());
        assert_eq!(
            standby.dispatch_tagged(&fresh, Some("open-fresh")),
            Response::Opened { session: "fresh".into(), partitions: 2 }
        );
        standby.repartition("fresh", 3, 0).unwrap();
    }

    #[test]
    fn optimize_commits_the_trace_and_records_the_run() {
        let mgr = SessionManager::new(1);
        mgr.open("o", &open_params(2)).unwrap();
        // Skew the start so the optimizer has something to improve.
        mgr.apply_moves("o", &[(3, 0)]).unwrap();
        let result = mgr.optimize("o", &OptimizeParams::default()).unwrap();
        assert!(result.run.trials > 0);
        let (_, _, last) = mgr.stats(Some("o")).unwrap();
        assert_eq!(last.unwrap().digest, result.run.digest, "optimize must record its run");
        // An identically prepared manager reproduces the result
        // byte-for-byte (the seeded optimizer is deterministic).
        let twin = SessionManager::new(1);
        twin.open("o", &open_params(2)).unwrap();
        twin.apply_moves("o", &[(3, 0)]).unwrap();
        let mut again = twin.optimize("o", &OptimizeParams::default()).unwrap();
        again.run.elapsed_ms = result.run.elapsed_ms; // wall-clock, not part of the contract
        assert_eq!(again, result);
    }

    #[test]
    fn optimize_rejects_unknown_nodes_and_sessions() {
        let mgr = SessionManager::new(1);
        assert_eq!(
            mgr.optimize("ghost", &OptimizeParams::default()).unwrap_err().kind,
            ErrorKind::UnknownSession
        );
        mgr.open("o", &open_params(2)).unwrap();
        let bad = OptimizeParams { pinned: vec![99], ..OptimizeParams::default() };
        assert_eq!(mgr.optimize("o", &bad).unwrap_err().kind, ErrorKind::Spec);
        assert_eq!(mgr.apply_moves("o", &[(99, 0)]).unwrap_err().kind, ErrorKind::Spec);
        assert_eq!(mgr.apply_moves("o", &[(3, 99)]).unwrap_err().kind, ErrorKind::Engine);
    }

    #[test]
    fn optimize_req_id_replays_the_recorded_outcome() {
        let mgr = SessionManager::new(1);
        mgr.open("o", &open_params(2)).unwrap();
        mgr.apply_moves("o", &[(3, 0)]).unwrap();
        let request =
            Request::Optimize { session: "o".into(), params: OptimizeParams::default() };
        let first = mgr.dispatch_tagged(&request, Some("opt-1"));
        assert!(matches!(first, Response::Optimized { .. }), "{first:?}");
        // A retry replays the recorded response instead of re-running
        // the search (and re-applying the trace) on the mutated session.
        assert_eq!(mgr.dispatch_tagged(&request, Some("opt-1")), first);
    }

    #[test]
    fn applied_moves_survive_journal_recovery() {
        let dir = state_dir("apply-moves");
        let before = {
            let (mgr, _) = SessionManager::recover(1, &dir, 0).unwrap();
            mgr.open("m", &open_params(2)).unwrap();
            mgr.apply_moves("m", &[(3, 0)]).unwrap();
            mgr.explore("m", &ExploreParams::default()).unwrap().digest
            // Dropped without any shutdown ceremony — the crash.
        };
        let (mgr, report) = SessionManager::recover(1, &dir, 0).unwrap();
        assert_eq!(report.sessions_restored, 1);
        assert_eq!(report.records_replayed, 2);
        let after = mgr.explore("m", &ExploreParams::default()).unwrap().digest;
        assert_eq!(before, after, "replayed moves must reproduce the digest");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn standby_refuses_optimize_and_apply_moves() {
        let standby = SessionManager::new(1);
        standby.mark_standby();
        let optimize =
            Request::Optimize { session: "s".into(), params: OptimizeParams::default() };
        let Response::Error(e) = standby.dispatch(&optimize) else {
            panic!("optimize allowed")
        };
        assert_eq!(e.kind, ErrorKind::Standby);
        let apply = Request::ApplyMoves { session: "s".into(), moves: vec![(3, 0)] };
        let Response::Error(e) = standby.dispatch(&apply) else { panic!("apply allowed") };
        assert_eq!(e.kind, ErrorKind::Standby);
    }

    #[test]
    fn committed_mutations_ship_in_sequence_order() {
        let mgr = SessionManager::new(1);
        let (tx, rx) = std::sync::mpsc::channel();
        mgr.set_repl_sink(tx);
        mgr.open("a", &open_params(2)).unwrap();
        mgr.repartition("a", 3, 0).unwrap();
        // A refused mutation ships nothing.
        assert!(mgr.open("a", &open_params(2)).is_err());
        mgr.close("a").unwrap();
        let events: Vec<ReplEvent> = rx.try_iter().collect();
        let seqs: Vec<u64> = events
            .iter()
            .map(|e| match e {
                ReplEvent::Record { seq, .. } | ReplEvent::Snapshot { seq, .. } => *seq,
            })
            .collect();
        assert_eq!(seqs, vec![1, 2, 3], "one event per commit, in order: {events:?}");
        // Shipping a record stream into a standby reproduces the state
        // machine: the final close leaves it empty.
        let standby = SessionManager::new(1);
        standby.mark_standby();
        for event in events {
            let ReplEvent::Record { seq, line } = event else { panic!("unexpected snapshot") };
            assert_eq!(
                standby.dispatch(&Request::ReplApply {
                    seq,
                    record: line,
                    epoch: 0,
                    primary: None,
                }),
                Response::ReplAck { seq }
            );
        }
        assert_eq!(standby.session_count(), 0);
    }
}
