//! Persistent worker pool for launches.
//!
//! [`crate::queue::CommandQueue::enqueue_program`] hands each core of a
//! launch to one job, which runs that core's kernel instances as
//! cooperative tasks on one host thread. Cores never wait on one another,
//! so the jobs need no more threads than the host has: the pool starts
//! `available_parallelism() - 1` workers once, and the launching thread
//! works through its own batch beside them. A one-core launch therefore
//! runs entirely on the thread that enqueued it. Spawning threads per
//! launch instead would cost more than a small launch does.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::thread;

use parking_lot::{Condvar, Mutex};

/// A batch the workers can help with.
trait Work: Send + Sync {
    /// Run the batch's jobs until none is left to take.
    fn work(&self);
}

/// One [`WorkerPool::map`] call: the items not yet taken, and the results.
struct Batch<I, T> {
    job: fn(I) -> T,
    todo: Mutex<VecDeque<(usize, I)>>,
    /// Result (or panic) per item, and how many are still missing.
    done: Mutex<(Vec<Option<thread::Result<T>>>, usize)>,
    finished: Condvar,
}

impl<I: Send, T: Send> Work for Batch<I, T> {
    fn work(&self) {
        loop {
            let Some((i, item)) = self.todo.lock().pop_front() else { return };
            let out = catch_unwind(AssertUnwindSafe(|| (self.job)(item)));
            let mut done = self.done.lock();
            done.0[i] = Some(out);
            done.1 -= 1;
            if done.1 == 0 {
                self.finished.notify_all();
            }
        }
    }
}

/// Process-wide persistent worker pool; see module docs.
pub(crate) struct WorkerPool {
    queue: Mutex<VecDeque<Arc<dyn Work>>>,
    available: Condvar,
    workers: usize,
}

impl WorkerPool {
    /// The process-wide pool, with its workers started on first use.
    pub(crate) fn global() -> &'static WorkerPool {
        static POOL: OnceLock<&'static WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| {
            let threads = thread::available_parallelism().map_or(1, |n| n.get());
            let pool: &'static WorkerPool = Box::leak(Box::new(WorkerPool {
                queue: Mutex::new(VecDeque::new()),
                available: Condvar::new(),
                workers: threads - 1,
            }));
            for id in 0..pool.workers {
                thread::Builder::new()
                    .name(format!("tensix-worker-{id}"))
                    .spawn(move || pool.worker_loop())
                    .expect("spawn tensix worker thread");
            }
            pool
        })
    }

    /// Apply `job` to every item, on the calling thread and as many workers
    /// as will help, and return the results in item order. A job that
    /// panics re-raises its panic here once the batch is done.
    pub(crate) fn map<I, T>(&self, items: Vec<I>, job: fn(I) -> T) -> Vec<T>
    where
        I: Send + 'static,
        T: Send + 'static,
    {
        let n = items.len();
        let batch = Arc::new(Batch {
            job,
            todo: Mutex::new(items.into_iter().enumerate().collect()),
            done: Mutex::new(((0..n).map(|_| None).collect(), n)),
            finished: Condvar::new(),
        });
        let helpers = self.workers.min(n.saturating_sub(1));
        if helpers > 0 {
            let mut queue = self.queue.lock();
            queue.extend((0..helpers).map(|_| Arc::clone(&batch) as Arc<dyn Work>));
            drop(queue);
            self.available.notify_all();
        }
        batch.work();
        let mut done = batch.done.lock();
        while done.1 > 0 {
            batch.finished.wait(&mut done);
        }
        let results = std::mem::take(&mut done.0);
        results
            .into_iter()
            .map(|r| r.expect("every job ran").unwrap_or_else(|panic| resume_unwind(panic)))
            .collect()
    }

    fn worker_loop(&self) {
        loop {
            let batch = {
                let mut queue = self.queue.lock();
                loop {
                    if let Some(batch) = queue.pop_front() {
                        break batch;
                    }
                    self.available.wait(&mut queue);
                }
            };
            batch.work();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_returns_results_in_item_order() {
        let pool = WorkerPool::global();
        for n in [0usize, 1, 7, 64] {
            let items: Vec<usize> = (0..n).collect();
            assert_eq!(pool.map(items, |i| i * i), (0..n).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "job 3 failed")]
    fn a_panicking_job_panics_the_caller() {
        let _ = WorkerPool::global().map((0..8).collect(), |i: u32| {
            assert_ne!(i, 3, "job 3 failed");
        });
    }
}
