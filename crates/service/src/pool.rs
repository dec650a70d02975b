//! The worker pool and its two reactor-facing contracts: admission and
//! completion hand-back.
//!
//! Connections used to park a thread on an mpsc rendezvous waiting for
//! their exploration to finish. Under the epoll reactor no thread waits
//! anywhere: the dispatch layer acquires an [`Admission`] token, hands
//! the pool a job that runs the exploration, and the job pushes its
//! [`Response`] into the shared [`Completions`] queue, ringing the
//! reactor's eventfd doorbell. The reactor wakes, pops the completion
//! and queues the encoded reply on the owning connection.
//!
//! [`offload`] is that hand-off, shared by both line handlers: the
//! server's explore/optimize dispatch and the router's per-pair lanes
//! and admin worker.
//!
//! The pool itself stays deliberately tiny — `std::sync::mpsc` plus a
//! shared `Mutex<Receiver>` — because [`Admission`] (the server) or the
//! one-dispatch-per-connection rule (the router) already bounds how
//! much work can ever be queued.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use crate::net::reactor::LineOutcome;
use crate::net::sys::EventFd;
use crate::protocol::{ErrorKind, Response, ServiceError};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of job-running threads.
pub(crate) struct WorkerPool {
    sender: Option<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` (at least one) threads.
    pub(crate) fn new(workers: usize) -> Self {
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let handles = (0..workers.max(1))
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("chop-worker-{i}"))
                    .spawn(move || loop {
                        // Hold the lock only while *receiving*; jobs run
                        // unlocked so workers drain the queue in parallel.
                        let job = {
                            let guard = receiver.lock().unwrap_or_else(PoisonError::into_inner);
                            guard.recv()
                        };
                        match job {
                            // Jobs contain their own panic isolation, but a
                            // worker thread must survive even if that fails.
                            Ok(job) => drop(catch_unwind(AssertUnwindSafe(job))),
                            Err(_) => break, // all senders dropped: drain done
                        }
                    })
                    .expect("spawning a worker thread")
            })
            .collect();
        Self { sender: Some(sender), handles }
    }

    /// Enqueues a job. Fails only while the pool is shutting down.
    pub(crate) fn execute(&self, job: Job) -> Result<(), ()> {
        match &self.sender {
            Some(sender) => sender.send(job).map_err(|_| ()),
            None => Err(()),
        }
    }

    /// Drops the queue (letting workers finish what is already enqueued)
    /// and joins every worker.
    pub(crate) fn shutdown(mut self) {
        self.sender = None;
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Runs `job` on `pool` for connection `conn` and parks the connection
/// until its [`Response`] comes back through `completions`. A panicking
/// job still answers — an `internal` error naming `what` — so its
/// connection never stays parked; a pool that is already shutting down
/// is answered inline.
pub(crate) fn offload<F>(
    pool: &WorkerPool,
    completions: &Arc<Completions>,
    conn: u64,
    what: &'static str,
    job: F,
) -> LineOutcome
where
    F: FnOnce() -> Response + Send + 'static,
{
    let completions = Arc::clone(completions);
    let sent = pool.execute(Box::new(move || {
        let response = catch_unwind(AssertUnwindSafe(job)).unwrap_or_else(|payload| {
            Response::Error(ServiceError::new(
                ErrorKind::Internal,
                format!("{what} panicked: {}", panic_message(&*payload)),
            ))
        });
        completions.push(conn, response);
    }));
    match sent {
        Ok(()) => LineOutcome::Dispatched,
        Err(()) => LineOutcome::Reply(Response::Error(ServiceError::new(
            ErrorKind::Internal,
            "server is shutting down",
        ))),
    }
}

/// Best-effort panic payload extraction.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_owned()
    }
}

/// Finished worker results on their way back to the reactor: a mutexed
/// queue of `(connection token, response)` pairs plus the eventfd
/// doorbell that interrupts the reactor's `epoll_wait`.
pub(crate) struct Completions {
    queue: Mutex<Vec<(u64, Response)>>,
    doorbell: EventFd,
}

impl Completions {
    /// Creates the queue and its doorbell.
    ///
    /// # Errors
    ///
    /// The `eventfd(2)` failure, if the fd table is exhausted.
    pub(crate) fn new() -> std::io::Result<Self> {
        Ok(Self { queue: Mutex::new(Vec::new()), doorbell: EventFd::new()? })
    }

    /// Hands one finished response back and wakes the reactor. Called
    /// from worker threads.
    pub(crate) fn push(&self, token: u64, response: Response) {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner).push((token, response));
        self.doorbell.signal();
    }

    /// Takes every pending completion and clears the doorbell. Called
    /// from the reactor thread.
    pub(crate) fn drain(&self) -> Vec<(u64, Response)> {
        self.doorbell.drain();
        std::mem::take(&mut *self.queue.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// The doorbell fd, for epoll registration.
    pub(crate) fn waker_fd(&self) -> std::os::fd::RawFd {
        self.doorbell.raw()
    }
}

/// Admission control for explorations: at most `max` may be queued or
/// running; past that the dispatch layer answers [`Response::Busy`]
/// instead of growing an unbounded queue.
pub(crate) struct Admission {
    inflight: AtomicUsize,
    max: usize,
}

impl Admission {
    pub(crate) fn new(max: usize) -> Self {
        Self { inflight: AtomicUsize::new(0), max }
    }

    /// Takes one slot, or `None` when the pool is saturated.
    pub(crate) fn try_acquire(self: &Arc<Self>) -> Option<AdmissionToken> {
        self.inflight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < self.max).then_some(n + 1)
            })
            .ok()
            .map(|_| AdmissionToken(Arc::clone(self)))
    }

    /// The `busy` reply for a saturated pool, with a backoff hint scaled
    /// by how oversubscribed it is: one explore-slot's worth of queueing
    /// (50 ms) per excess in-flight request, clamped to 25 ms..=2 s.
    pub(crate) fn busy_reply(&self) -> Response {
        let inflight = self.inflight.load(Ordering::SeqCst);
        let excess = inflight.saturating_sub(self.max) as u64;
        Response::Busy {
            inflight: inflight as u64,
            max_inflight: self.max as u64,
            retry_after_ms: (50 * (excess + 1)).clamp(25, 2000),
        }
    }
}

/// RAII admission slot: holding one counts toward the cap; dropping it
/// (wherever the job ends — success, error or panic) releases it.
pub(crate) struct AdmissionToken(Arc<Admission>);

impl Drop for AdmissionToken {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn jobs_run_and_drain_on_shutdown() {
        let pool = WorkerPool::new(3);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..20 {
            let counter = Arc::clone(&counter);
            pool.execute(Box::new(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            }))
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn panicking_job_does_not_kill_workers() {
        let pool = WorkerPool::new(1);
        pool.execute(Box::new(|| panic!("boom"))).unwrap();
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        pool.execute(Box::new(move || {
            c.fetch_add(1, Ordering::SeqCst);
        }))
        .unwrap();
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 1, "the single worker must survive");
    }

    #[test]
    fn completions_hand_back_through_the_pool() {
        let completions = Arc::new(Completions::new().expect("eventfd"));
        let pool = WorkerPool::new(2);
        for token in 0..8u64 {
            let completions = Arc::clone(&completions);
            pool.execute(Box::new(move || {
                completions.push(token, Response::ShuttingDown);
            }))
            .unwrap();
        }
        pool.shutdown();
        let mut got = completions.drain();
        got.sort_by_key(|(token, _)| *token);
        assert_eq!(got.len(), 8);
        assert_eq!(got[7].0, 7);
        assert!(completions.drain().is_empty(), "drain must take everything");
    }

    #[test]
    fn offloaded_panic_still_completes_its_connection() {
        let completions = Arc::new(Completions::new().expect("eventfd"));
        let pool = WorkerPool::new(1);
        let outcome = offload(&pool, &completions, 7, "forwarding", || panic!("boom"));
        assert!(matches!(outcome, LineOutcome::Dispatched));
        pool.shutdown();
        let got = completions.drain();
        let [(7, Response::Error(e))] = got.as_slice() else { panic!("{got:?}") };
        assert_eq!(e.kind, ErrorKind::Internal);
        assert_eq!(e.message, "forwarding panicked: boom");
    }

    #[test]
    fn admission_caps_and_releases() {
        let admission = Arc::new(Admission::new(2));
        let a = admission.try_acquire().expect("slot 1");
        let _b = admission.try_acquire().expect("slot 2");
        assert!(admission.try_acquire().is_none(), "third slot must be refused");
        match admission.busy_reply() {
            Response::Busy { inflight: 2, max_inflight: 2, retry_after_ms: 50 } => {}
            other => panic!("unexpected busy reply: {other:?}"),
        }
        drop(a);
        assert!(admission.try_acquire().is_some(), "released slot must be reusable");
    }
}
