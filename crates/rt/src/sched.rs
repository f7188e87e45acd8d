//! Per-node task scheduler — the FLU execution core: one queue and up
//! to N worker threads.
//!
//! Each node owns one [`NodeScheduler`] with a fixed number of worker
//! *slots* (one per potential core slot, sized to the sum of every
//! function's max replicas). Every invocation enters the one shared
//! FIFO queue through [`NodeScheduler::submit`]; a worker pops the front
//! and runs it. Nothing ever produced work *for a particular worker*, so
//! there are no per-worker deques and nothing to steal.
//!
//! Elasticity is *parallelism*, not thread count: the autoscaler moves
//! [`NodeScheduler::set_active`] up and down, and a worker whose slot
//! index falls outside the active window claims nothing and parks until
//! the window grows again — queued tasks simply wait in the shared
//! queue for the workers still inside it, so scale-in cannot strand one
//! (pinned by the `scheduler_scale_in_mid_burst_loses_no_tasks` stress property).
//! Worker threads are spawned lazily, on the first submission that finds
//! no idle worker, so an idle node costs zero executor threads — and the
//! herd a `submit` wakes is never larger than the window ever was.
//!
//! Two locks, on purpose: the *queue* lock is what `submit` and a worker
//! finishing a task need; the *park* lock (with the condvar) is where
//! idle and retired workers sleep. `submit` wakes every parked worker
//! (`notify_all`), and the woken herd re-parks on the park lock without
//! touching the queue lock the producers are using. Folding both under
//! one mutex was measured and lost closed-loop throughput on the
//! end-to-end benchmark (ROADMAP item 3).
//!
//! Shutdown keeps the drain guarantee: [`NodeScheduler::stop`] lets every
//! worker — retired slots included — keep executing until the queue is
//! empty, then joins them; invocations submitted before the stop still
//! run exactly once.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A unit of FLU work: one function invocation, boxed with its inputs.
pub type Task = Box<dyn FnOnce() + Send>;

#[derive(Debug, Default)]
struct ParkState {
    /// Worker threads spawned so far (monotonic; parked workers are
    /// reused when the active window regrows rather than respawned).
    spawned: usize,
    /// Workers currently parked waiting for work.
    idle: usize,
}

struct SchedInner {
    /// The one submission queue: `submit` pushes the back, workers pop
    /// the front.
    queue: Mutex<VecDeque<Task>>,
    /// Total worker slots (the elasticity ceiling).
    max_slots: usize,
    /// Slots currently allowed to run — the autoscaler's gauge.
    active: AtomicUsize,
    stop: AtomicBool,
    park: Mutex<ParkState>,
    cv: Condvar,
}

impl std::fmt::Debug for SchedInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedInner")
            .field("slots", &self.max_slots)
            .field("active", &self.active.load(Ordering::Relaxed))
            .field("stop", &self.stop.load(Ordering::Relaxed))
            .finish()
    }
}

/// A node's FLU executor. Cheap to clone (shared handle).
#[derive(Debug, Clone)]
pub struct NodeScheduler {
    inner: Arc<SchedInner>,
    label: Arc<str>,
    handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl NodeScheduler {
    /// A scheduler with `max_slots` worker slots, `active` of them
    /// initially eligible to run. No threads are spawned until the
    /// first [`Self::submit`].
    pub fn new(label: impl Into<String>, max_slots: usize, active: usize) -> NodeScheduler {
        let max_slots = max_slots.max(1);
        NodeScheduler {
            inner: Arc::new(SchedInner {
                queue: Mutex::new(VecDeque::new()),
                max_slots,
                active: AtomicUsize::new(active.clamp(1, max_slots)),
                stop: AtomicBool::new(false),
                park: Mutex::new(ParkState::default()),
                cv: Condvar::new(),
            }),
            label: Arc::from(label.into()),
            handles: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Queues a task for execution. Spawns a worker thread lazily when
    /// no idle worker exists and the active window has unspawned slots;
    /// otherwise wakes the parked workers. Tasks submitted after
    /// [`Self::stop`] are still executed by the draining workers.
    pub fn submit(&self, task: Task) {
        self.inner
            .queue
            .lock()
            .expect("scheduler queue poisoned")
            .push_back(task);
        let mut park = self.inner.park.lock().expect("scheduler park poisoned");
        if park.idle == 0 && park.spawned < self.inner.active.load(Ordering::Acquire) {
            let slot = park.spawned;
            park.spawned += 1;
            drop(park);
            let inner = Arc::clone(&self.inner);
            let handle = std::thread::Builder::new()
                .name(format!("{}-w{slot}", self.label))
                .spawn(move || worker(inner, slot))
                .expect("spawn scheduler worker");
            self.handles
                .lock()
                .expect("scheduler handles poisoned")
                .push(handle);
        } else {
            // notify_all, not notify_one: a retired slot's worker may be
            // the one that wakes, re-parks, and would otherwise swallow
            // the signal meant for an active worker.
            self.inner.cv.notify_all();
        }
    }

    /// Resizes the active-slot window (clamped to `1..=max_slots`).
    /// Growing wakes parked workers; shrinking makes out-of-window
    /// workers park after the task they are running.
    pub fn set_active(&self, n: usize) {
        let n = n.clamp(1, self.inner.max_slots);
        self.inner.active.store(n, Ordering::Release);
        let _g = self.inner.park.lock().expect("scheduler park poisoned");
        self.inner.cv.notify_all();
    }

    /// Slots currently eligible to run.
    pub fn active(&self) -> usize {
        self.inner.active.load(Ordering::Acquire)
    }

    /// Total worker slots (the elasticity ceiling).
    pub fn max_slots(&self) -> usize {
        self.inner.max_slots
    }

    /// Tasks queued but not yet claimed by a worker (racy snapshot).
    pub fn queued(&self) -> usize {
        self.inner
            .queue
            .lock()
            .expect("scheduler queue poisoned")
            .len()
    }

    /// Signals the scheduler to stop without waiting: workers wake,
    /// finish every queued task (the queue drains to empty) and exit on
    /// their own. Pair with [`NodeScheduler::stop`] to also join them;
    /// detached teardown (`Drop` paths) uses this alone so it never
    /// blocks.
    pub fn signal_stop(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        let _g = self.inner.park.lock().expect("scheduler park poisoned");
        self.inner.cv.notify_all();
    }

    /// Stops the scheduler and joins every worker it ever spawned.
    pub fn stop(&self) {
        self.signal_stop();
        let handles =
            std::mem::take(&mut *self.handles.lock().expect("scheduler handles poisoned"));
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Claims the next task for `slot`. A slot outside the active window
/// claims nothing — unless the scheduler is stopping, when every worker
/// helps drain the queue.
fn claim(inner: &SchedInner, slot: usize, stopping: bool) -> Option<Task> {
    if !stopping && slot >= inner.active.load(Ordering::Acquire) {
        return None;
    }
    inner
        .queue
        .lock()
        .expect("scheduler queue poisoned")
        .pop_front()
}

fn worker(inner: Arc<SchedInner>, slot: usize) {
    loop {
        let stopping = inner.stop.load(Ordering::Acquire);
        if let Some(task) = claim(&inner, slot, stopping) {
            task();
            continue;
        }
        // Nothing claimable. At stop, exit once the queue is visibly
        // empty — a worker never exits with work it could run.
        let mut park = inner.park.lock().expect("scheduler park poisoned");
        let has_work = !inner
            .queue
            .lock()
            .expect("scheduler queue poisoned")
            .is_empty();
        if inner.stop.load(Ordering::Acquire) {
            if has_work {
                continue;
            }
            return;
        }
        // `has_work` was read under the park lock and submit notifies
        // under the same lock, so parking now cannot miss a wakeup.
        if has_work && slot < inner.active.load(Ordering::Acquire) {
            continue;
        }
        park.idle += 1;
        let mut park = inner.cv.wait(park).expect("scheduler park poisoned");
        park.idle -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::{Duration, Instant};

    #[test]
    fn runs_submitted_tasks_exactly_once() {
        let sched = NodeScheduler::new("t", 4, 2);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..1000 {
            let hits = Arc::clone(&hits);
            sched.submit(Box::new(move || {
                hits.fetch_add(1, Ordering::SeqCst);
            }));
        }
        sched.stop();
        assert_eq!(hits.load(Ordering::SeqCst), 1000);
    }

    #[test]
    fn lazy_spawn_caps_threads_at_active() {
        let sched = NodeScheduler::new("t", 8, 2);
        for _ in 0..100 {
            sched.submit(Box::new(|| {}));
        }
        assert!(sched.inner.park.lock().unwrap().spawned <= 2);
        sched.stop();
    }

    /// Scale-in mid-burst loses no task: what the retired slots no
    /// longer claim stays queued for the one slot left (and for every
    /// worker once `stop` drains).
    #[test]
    fn scale_in_mid_burst_runs_every_task() {
        let sched = NodeScheduler::new("t", 4, 4);
        let hits = Arc::new(AtomicU64::new(0));
        let gate = Arc::new(AtomicBool::new(false));
        for _ in 0..500 {
            let hits = Arc::clone(&hits);
            let gate = Arc::clone(&gate);
            sched.submit(Box::new(move || {
                while !gate.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                hits.fetch_add(1, Ordering::SeqCst);
            }));
        }
        sched.set_active(1); // retire three slots while tasks are queued
        gate.store(true, Ordering::Release);
        sched.stop();
        assert_eq!(hits.load(Ordering::SeqCst), 500);
    }

    /// The active window bounds parallelism: with every worker thread
    /// already spawned, `set_active(k)` caps concurrently running tasks
    /// at `k`, and growing the window lets the rest in again.
    #[test]
    fn active_window_bounds_parallelism() {
        const M: usize = 4;
        const K: usize = 2;
        let sched = NodeScheduler::new("t", M, M);
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let gate = Arc::new(AtomicBool::new(false));
        // Each task counts itself in, then holds its worker until the
        // gate opens.
        let burst = |n: usize| {
            for _ in 0..n {
                let (running, peak, gate) =
                    (Arc::clone(&running), Arc::clone(&peak), Arc::clone(&gate));
                sched.submit(Box::new(move || {
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    while !gate.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    running.fetch_sub(1, Ordering::SeqCst);
                }));
            }
        };
        let wait_for_running = |n: usize| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while running.load(Ordering::SeqCst) != n {
                assert!(Instant::now() < deadline, "never saw {n} running");
                std::thread::yield_now();
            }
        };

        // M gated tasks need M threads at once: every slot gets spawned.
        burst(M);
        wait_for_running(M);
        assert_eq!(sched.inner.park.lock().unwrap().spawned, M);
        gate.store(true, Ordering::Release);
        wait_for_running(0);
        gate.store(false, Ordering::Release);
        peak.store(0, Ordering::SeqCst);

        sched.set_active(K);
        burst(2 * M);
        wait_for_running(K);
        // Grace for a scheduler without the window to show itself: its
        // retired workers were woken by every submit above.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(peak.load(Ordering::SeqCst), K);
        assert_eq!(sched.queued(), 2 * M - K);

        sched.set_active(M);
        wait_for_running(M);
        gate.store(true, Ordering::Release);
        sched.stop();
        assert_eq!(peak.load(Ordering::SeqCst), M);
        assert_eq!(running.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn tasks_after_stop_signal_still_drain() {
        let sched = NodeScheduler::new("t", 2, 2);
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        sched.submit(Box::new(move || {
            h.fetch_add(1, Ordering::SeqCst);
        }));
        sched.stop();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn set_active_clamps() {
        let sched = NodeScheduler::new("t", 4, 2);
        sched.set_active(0);
        assert_eq!(sched.active(), 1);
        sched.set_active(100);
        assert_eq!(sched.active(), 4);
        assert_eq!(sched.max_slots(), 4);
        sched.stop();
    }
}
