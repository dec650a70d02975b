//! Races between role transitions and the mutations they must order
//! against, checked on the journal the manager leaves behind.
//!
//! - A role change racing a compaction must still be what a restart
//!   replays: the recovered epoch and role equal the live ones.
//! - A fencing demotion racing client mutations must split them cleanly:
//!   every acknowledged mutation is journaled before the fenced
//!   `role_change` record, and no client mutation after it.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

use chop_service::{ErrorKind, Journal, OpenParams, Request, Response, SessionManager};

const SPEC: &str = "a = input 16\nb = input 16\np = mul a b\ns = add p a\ny = output s\n";

fn open_params() -> OpenParams {
    OpenParams { spec: SPEC.into(), partitions: 2, ..OpenParams::default() }
}

fn state_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("chop-role-races-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `(epoch, standby, fenced)` — the role a node reports.
fn role(manager: &SessionManager) -> (u64, bool, bool) {
    (manager.epoch(), manager.is_standby(), manager.is_fenced())
}

/// Each round opens a session on a fresh journal that compacts after
/// every record, keeps `set_constraints` flowing from a second thread and
/// makes one role transition in the middle of that stream: a promotion
/// of a configured (`mark_standby`) standby on even rounds, a
/// `demote(epoch + 1)` of the primary on odd ones. The restart that
/// follows must replay exactly the role the node had when it stopped.
#[test]
fn role_changes_survive_concurrent_compaction() {
    const ROUNDS: usize = 40;
    const MAX_WRITES: usize = 200;
    for round in 0..ROUNDS {
        let dir = state_dir(&format!("compaction-{round}"));
        let (manager, _) = SessionManager::recover(1, &dir, 1).expect("fresh journal");
        manager.open("s", &open_params()).expect("open");
        if round % 2 == 0 {
            manager.mark_standby();
        }
        let stop = AtomicBool::new(false);
        let writes = AtomicUsize::new(0);
        thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..MAX_WRITES {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    // Refused while the node is a standby; committed (and
                    // compacted) while it is primary.
                    let _ = manager.set_constraints("s", 40_000.0 + i as f64, 40_000.0);
                    writes.fetch_add(1, Ordering::AcqRel);
                }
            });
            while writes.load(Ordering::Acquire) < 2 {
                thread::yield_now();
            }
            if manager.is_standby() {
                manager.promote();
            } else {
                manager.demote(manager.epoch() + 1, Some("peer:1991"));
            }
            stop.store(true, Ordering::Release);
        });
        let live = role(&manager);
        drop(manager);
        let (recovered, _) = SessionManager::recover(1, &dir, 1).expect("recover");
        assert_eq!(role(&recovered), live, "round {round}: restart replayed a stale role");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Client threads stream tagged `set_constraints` at a journaled primary
/// while another thread demotes it to a fenced standby of a newer epoch.
/// Scanning the journal afterwards, every acknowledged mutation sits
/// before the fenced `role_change` record and no client mutation follows
/// it — a mutation acknowledged as the node was fenced would be erased
/// by the resync snapshot that comes next.
#[test]
fn demotion_fences_concurrent_client_mutations() {
    const ROUNDS: usize = 20;
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 40;
    for round in 0..ROUNDS {
        let dir = state_dir(&format!("fence-{round}"));
        let (manager, _) = SessionManager::recover(1, &dir, 0).expect("fresh journal");
        manager.open("s", &open_params()).expect("open");
        let acked = Mutex::new(Vec::new());
        thread::scope(|scope| {
            for client in 0..CLIENTS {
                let (manager, acked) = (&manager, &acked);
                scope.spawn(move || {
                    for i in 0..PER_CLIENT {
                        let req_id = format!("c{client}-{i}");
                        let request = Request::SetConstraints {
                            session: "s".into(),
                            performance_ns: 40_000.0 + i as f64,
                            delay_ns: 40_000.0 + client as f64,
                        };
                        match manager.dispatch_tagged(&request, Some(&req_id)) {
                            Response::ConstraintsSet { .. } => {
                                acked.lock().expect("acked").push(req_id);
                            }
                            Response::Error(e) => {
                                assert_eq!(e.kind, ErrorKind::Fenced, "{e:?}")
                            }
                            other => panic!("unexpected response {other:?}"),
                        }
                    }
                });
            }
            // Demote mid-stream: once a few mutations are through.
            while acked.lock().expect("acked").len() < CLIENTS {
                thread::yield_now();
            }
            manager.demote(manager.epoch() + 1, Some("new-primary:1991"));
        });
        drop(manager);

        let (_, scan) = Journal::open(&dir, 0).expect("scan journal");
        let fence = scan
            .entries
            .iter()
            .position(|e| matches!(e.request, Request::RoleChange { fenced: true, .. }))
            .expect("the demotion must journal a fenced role_change");
        let late: Vec<_> = scan.entries[fence..]
            .iter()
            .filter(|e| matches!(e.request, Request::SetConstraints { .. }))
            .filter_map(|e| e.req_id.clone())
            .collect();
        assert!(late.is_empty(), "round {round}: client mutations after the fence: {late:?}");
        let before: HashSet<&str> =
            scan.entries[..fence].iter().filter_map(|e| e.req_id.as_deref()).collect();
        for id in acked.into_inner().expect("acked") {
            assert!(
                before.contains(id.as_str()),
                "round {round}: acked {id} not before the fence"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
