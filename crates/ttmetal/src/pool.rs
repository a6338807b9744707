//! Persistent worker pool for kernel-instance execution.
//!
//! [`crate::queue::CommandQueue::enqueue_program_checked`] used to spawn one
//! OS thread per kernel instance per launch; an N-body step at paper scale
//! launches thousands of programs, so thread creation dominated host
//! wall-clock. The pool keeps kernel threads alive across launches and hands
//! them jobs instead.
//!
//! Sizing invariant: kernel instances of one launch genuinely block on each
//! other (circular-buffer back-pressure condvars), so every job of a batch
//! must be able to run *concurrently* — an undersized pool would deadlock a
//! launch that fits on real hardware. [`WorkerPool::submit_batch`] therefore
//! grows the pool to the high-water mark of in-flight jobs before enqueueing
//! and never shrinks it. A job counts as in flight until its worker has
//! retired it, and [`Batch::wait`] returns only then, so back-to-back
//! sequential launches reuse the same workers: the pool's size is the
//! largest set of concurrently submitted jobs, not an accident of timing.
//!
//! The pool is deliberately oblivious to kernel semantics: jobs are plain
//! closures that report their results over a channel owned by the launch.
//! Panics inside a job are caught by the job itself (the launch supervisor
//! needs them for abort classification); the pool's own `catch_unwind` is
//! only a backstop that keeps a worker alive no matter what.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::thread;

use parking_lot::{Condvar, Mutex};

/// A unit of work: one kernel instance of one launch.
pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<(Job, Arc<BatchState>)>,
    /// Worker threads ever spawned (workers never exit).
    workers: usize,
    /// Jobs submitted but not yet finished (queued or running).
    inflight: usize,
}

/// Jobs of one batch not yet retired by their workers.
struct BatchState {
    pending: Mutex<usize>,
    retired: Condvar,
}

/// Handle on a submitted batch; see [`Batch::wait`].
#[must_use = "a launch must wait for its batch to retire"]
pub(crate) struct Batch(Arc<BatchState>);

impl Batch {
    /// Block until every job of the batch has been retired by its worker —
    /// after the job's own result was delivered, and after the pool stopped
    /// counting it as in flight.
    pub(crate) fn wait(self) {
        let mut pending = self.0.pending.lock();
        while *pending > 0 {
            self.0.retired.wait(&mut pending);
        }
    }
}

/// Process-wide persistent worker pool; see module docs.
pub(crate) struct WorkerPool {
    state: Mutex<PoolState>,
    available: Condvar,
}

impl WorkerPool {
    fn new() -> Self {
        WorkerPool {
            state: Mutex::new(PoolState { queue: VecDeque::new(), workers: 0, inflight: 0 }),
            available: Condvar::new(),
        }
    }

    /// The process-wide pool, created on first use.
    pub(crate) fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(WorkerPool::new)
    }

    /// Submit a batch of jobs that may block on one another. The pool is
    /// grown so that all in-flight jobs (this batch plus any concurrent
    /// launches) can run at the same time before any job is queued.
    pub(crate) fn submit_batch(&'static self, jobs: Vec<Job>) -> Batch {
        let batch =
            Arc::new(BatchState { pending: Mutex::new(jobs.len()), retired: Condvar::new() });
        let mut st = self.state.lock();
        st.inflight += jobs.len();
        while st.workers < st.inflight {
            st.workers += 1;
            let id = st.workers;
            thread::Builder::new()
                .name(format!("tensix-worker-{id}"))
                .spawn(move || self.worker_loop())
                .expect("spawn tensix worker thread");
        }
        st.queue.extend(jobs.into_iter().map(|job| (job, Arc::clone(&batch))));
        drop(st);
        self.available.notify_all();
        Batch(batch)
    }

    /// Number of worker threads currently alive (the high-water mark of
    /// concurrent jobs). Exposed for tests.
    #[cfg(test)]
    pub(crate) fn workers(&self) -> usize {
        self.state.lock().workers
    }

    fn worker_loop(&'static self) {
        loop {
            let (job, batch) = {
                let mut st = self.state.lock();
                loop {
                    if let Some(queued) = st.queue.pop_front() {
                        break queued;
                    }
                    self.available.wait(&mut st);
                }
            };
            let _ = catch_unwind(AssertUnwindSafe(job));
            self.state.lock().inflight -= 1;
            let mut pending = batch.pending.lock();
            *pending -= 1;
            if *pending == 0 {
                batch.retired.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::sync::Arc;

    #[test]
    fn batch_runs_all_jobs_and_reuses_workers() {
        let pool = WorkerPool::global();
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..3 {
            let (tx, rx) = mpsc::channel();
            let jobs: Vec<Job> = (0..4)
                .map(|i| {
                    let tx = tx.clone();
                    let ran = Arc::clone(&ran);
                    Box::new(move || {
                        ran.fetch_add(1, Ordering::SeqCst);
                        tx.send(i).unwrap();
                    }) as Job
                })
                .collect();
            let batch = pool.submit_batch(jobs);
            let mut got: Vec<usize> = (0..4).map(|_| rx.recv().unwrap()).collect();
            batch.wait();
            got.sort_unstable();
            assert_eq!(got, vec![0, 1, 2, 3]);
        }
        assert!(ran.load(Ordering::SeqCst) >= 12);
    }

    #[test]
    fn interdependent_jobs_do_not_starve() {
        // Job 0 blocks until job 1 runs: only a pool that runs the whole
        // batch concurrently can finish (the CB back-pressure pattern).
        let pool = WorkerPool::global();
        let (tx0, rx0) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel();
        let done_tx2 = done_tx.clone();
        let jobs: Vec<Job> = vec![
            Box::new(move || {
                let v: i32 = rx0.recv().unwrap();
                done_tx.send(v).unwrap();
            }),
            Box::new(move || {
                tx0.send(7).unwrap();
                done_tx2.send(0).unwrap();
            }),
        ];
        let batch = pool.submit_batch(jobs);
        let mut got = vec![done_rx.recv().unwrap(), done_rx.recv().unwrap()];
        batch.wait();
        got.sort_unstable();
        assert_eq!(got, vec![0, 7]);
        assert!(pool.workers() >= 2);
    }

    #[test]
    fn sequential_batches_reuse_the_same_workers() {
        // A private pool, so concurrently running tests cannot grow it.
        // Each job delivers its result and only then finishes, held back by
        // a release channel: a launch that returned on the results alone
        // would start the next batch while those workers still count as
        // busy, and grow the pool past the batch size.
        let pool: &'static WorkerPool = Box::leak(Box::new(WorkerPool::new()));
        for _ in 0..50 {
            let (tx, rx) = mpsc::channel();
            let (release, held) = mpsc::channel::<()>();
            let held = Arc::new(parking_lot::Mutex::new(held));
            let jobs: Vec<Job> = (0..6)
                .map(|i| {
                    let (tx, held) = (tx.clone(), Arc::clone(&held));
                    Box::new(move || {
                        tx.send(i).unwrap();
                        held.lock().recv().unwrap();
                    }) as Job
                })
                .collect();
            let batch = pool.submit_batch(jobs);
            assert_eq!((0..6).map(|_| rx.recv().unwrap()).sum::<usize>(), 15);
            (0..6).for_each(|_| release.send(()).unwrap());
            batch.wait();
            assert_eq!(pool.state.lock().inflight, 0, "a waited batch has retired");
        }
        assert_eq!(pool.workers(), 6);
    }
}
