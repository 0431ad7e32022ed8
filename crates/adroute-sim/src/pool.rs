//! A persistent scoped worker pool for the parallel engine.
//!
//! [`crate::parallel`] used to spawn fresh OS threads for every parallel
//! window via `std::thread::scope`; at paper scale a storm run opens
//! thousands of short windows, so thread creation dominated the lanes'
//! actual work. This pool keeps the workers alive across windows and
//! re-lends them to each window's borrowed lane closures.
//!
//! Lending threads to non-`'static` closures is exactly what
//! `std::thread::scope` guarantees; a persistent pool must re-create the
//! guarantee itself: [`WorkerPool::scoped`] erases each job's borrow
//! lifetime to hand it across the channel, then **blocks until every job
//! has run** before returning, so no borrow inside a job can outlive the
//! call that lent it. That erasure is the one `unsafe` in the crate, and
//! its soundness argument lives next to it.
//!
//! Determinism is unaffected: jobs write results into caller-owned
//! per-lane slots, so worker scheduling cannot reorder anything the
//! caller observes — the sequential commit replays lane journals in
//! skeleton order regardless of which worker ran which lane.

// The one place in the workspace allowed to use unsafe: the lifetime
// erasure in `scoped` below, whose soundness argument sits on it.
#![allow(unsafe_code)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A type-erased, lifetime-erased unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Shared completion state: outstanding job count plus a panic flag.
struct Latch {
    pending: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

/// A fixed crew of OS threads that repeatedly runs batches of borrowed
/// closures, blocking the caller until each batch completes.
pub struct WorkerPool {
    workers: Vec<JoinHandle<()>>,
    /// `None` only during drop (closing the channel stops the workers).
    tx: Option<Sender<Job>>,
    rx: Arc<Mutex<Receiver<Job>>>,
    latch: Arc<Latch>,
}

impl WorkerPool {
    /// A pool with `workers` threads (at least one).
    pub fn new(workers: usize) -> WorkerPool {
        let (tx, rx) = channel::<Job>();
        let mut pool = WorkerPool {
            workers: Vec::new(),
            tx: Some(tx),
            rx: Arc::new(Mutex::new(rx)),
            latch: Arc::new(Latch {
                pending: Mutex::new(0),
                done: Condvar::new(),
                panicked: AtomicBool::new(false),
            }),
        };
        pool.ensure(workers.max(1));
        pool
    }

    /// Number of worker threads currently alive.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Grows the crew to at least `workers` threads (never shrinks — a
    /// sweep over region counts reuses the largest crew seen).
    pub fn ensure(&mut self, workers: usize) {
        while self.workers.len() < workers {
            let rx = Arc::clone(&self.rx);
            let latch = Arc::clone(&self.latch);
            self.workers.push(std::thread::spawn(move || loop {
                // Hold the receiver lock only while drawing the next job,
                // never while running it.
                let job = match rx.lock().expect("pool receiver poisoned").recv() {
                    Ok(job) => job,
                    Err(_) => return, // channel closed: pool dropped
                };
                if catch_unwind(AssertUnwindSafe(job)).is_err() {
                    latch.panicked.store(true, Ordering::SeqCst);
                }
                let mut pending = latch.pending.lock().expect("pool latch poisoned");
                *pending -= 1;
                if *pending == 0 {
                    latch.done.notify_all();
                }
            }));
        }
    }

    /// Runs every job on the crew and blocks until all have finished.
    ///
    /// Panics (after the whole batch settles) if any job panicked,
    /// mirroring `std::thread::scope`'s join behavior.
    pub fn scoped<'env>(&mut self, jobs: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        if jobs.is_empty() {
            return;
        }
        self.ensure(jobs.len().min(available_workers()));
        *self.latch.pending.lock().expect("pool latch poisoned") = jobs.len();
        let tx = self.tx.as_ref().expect("pool alive");
        for job in jobs {
            // SAFETY: the loop below blocks this call until `pending`
            // returns to zero, i.e. until every job sent here has run to
            // completion on a worker. The borrows captured for `'env`
            // therefore strictly outlive every use of the erased job, so
            // widening the lifetime to 'static for the channel crossing
            // cannot let a worker touch freed state. (This is the
            // scoped-threadpool construction; `std::thread::scope` makes
            // the same argument with a guard object.)
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) };
            tx.send(job).expect("workers alive while pool is alive");
        }
        let mut pending = self.latch.pending.lock().expect("pool latch poisoned");
        while *pending > 0 {
            pending = self.latch.done.wait(pending).expect("pool latch poisoned");
        }
        drop(pending);
        if self.latch.panicked.swap(false, Ordering::SeqCst) {
            panic!("lane thread panicked");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel ends each worker's recv loop.
        self.tx = None;
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

/// Upper bound on useful crew size for this host.
fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_borrowed_jobs_to_completion() {
        let mut pool = WorkerPool::new(3);
        let mut out = vec![0u64; 8];
        let base: u64 = 7; // borrowed immutably by every job
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = out
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| {
                let base = &base;
                Box::new(move || *slot = *base + i as u64) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.scoped(jobs);
        assert_eq!(out, vec![7, 8, 9, 10, 11, 12, 13, 14]);
    }

    #[test]
    fn pool_is_reusable_across_batches() {
        let mut pool = WorkerPool::new(2);
        let mut total = 0u64;
        for round in 0..50u64 {
            let mut parts = [0u64; 4];
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = parts
                .iter_mut()
                .enumerate()
                .map(|(i, p)| {
                    Box::new(move || *p = round * 4 + i as u64) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.scoped(jobs);
            total += parts.iter().sum::<u64>();
        }
        assert_eq!(total, (0..200u64).sum::<u64>());
        assert!(pool.workers() >= 2);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut pool = WorkerPool::new(1);
        pool.scoped(Vec::new());
        assert_eq!(pool.workers(), 1);
    }

    #[test]
    fn panicking_job_propagates_after_batch_settles() {
        let mut pool = WorkerPool::new(2);
        let mut ok = [false; 3];
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = ok
                .iter_mut()
                .map(|slot| Box::new(move || *slot = true) as Box<dyn FnOnce() + Send + '_>)
                .collect();
            jobs.push(Box::new(|| panic!("boom")));
            pool.scoped(jobs);
        }));
        assert!(result.is_err(), "the panic must propagate to the caller");
        assert_eq!(ok, [true; 3], "other jobs still ran to completion");
        // The pool stays usable after a panicked batch.
        let mut again = [0u8; 2];
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = again
            .iter_mut()
            .map(|slot| Box::new(move || *slot = 1) as Box<dyn FnOnce() + Send + '_>)
            .collect();
        pool.scoped(jobs);
        assert_eq!(again, [1, 1]);
    }
}
