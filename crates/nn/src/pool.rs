//! One process-wide pool of parked helper threads that lends idle cores to
//! compute entries.
//!
//! A *compute entry* is a top-level unit of dense work: one [`Parallel`]
//! kernel call (inline ones included) or one sampling chunk. Each entry
//! takes a [`Lease`] with [`lease`]: the lease occupies one core for the
//! caller while it lives and borrows up to `parts - 1` helpers, but only
//! from the *idle* cores — the configured worker count minus the cores
//! other entries and their helpers already occupy. So:
//!
//! - a lone caller on an otherwise quiet process gets every configured
//!   core;
//! - callers that together already hold every core (two serve tenants on
//!   two cores, say) each run inline and keep one core apiece, instead of
//!   oversubscribing the host with helpers;
//! - a call made inside an entry — a kernel inside a split sampling part,
//!   on the caller or on a helper — is *nested*: it borrows nothing and
//!   runs inline, so the pool never waits on itself.
//!
//! Helpers are spawned on first demand and then parked between jobs, so a
//! dispatch costs a condvar wake, not a thread spawn. [`Lease::run`] joins
//! every helper before it returns, even when a part panics, and re-raises
//! a helper's panic on the caller; that join is what makes lending a
//! borrowed closure to another thread sound, and this module holds the
//! only lifetime-erasing `unsafe` in the crate.
//!
//! The pool never changes what a computation produces: callers split work
//! into parts whose results do not depend on which thread runs them (see
//! the determinism guarantee in [`crate::backend`]).
//!
//! [`Parallel`]: crate::backend::Parallel

use silofuse_observe::names::{POOL_DISPATCHES, POOL_INLINE};
use std::any::Any;
use std::cell::Cell;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, Thread};

/// Cores held right now: one per live top-level lease plus the helpers it
/// borrowed. A statistic that publishes no other data, so `Relaxed`.
static OCCUPIED: AtomicUsize = AtomicUsize::new(0);

/// Parked helpers free to borrow. Grows on demand and never shrinks; the
/// occupancy rule bounds it by the largest worker count ever configured,
/// minus one.
static IDLE: Mutex<Vec<Arc<Helper>>> = Mutex::new(Vec::new());

thread_local! {
    /// Whether this thread is inside a compute entry: its own top-level
    /// lease, or (on a helper, always) a part of someone else's.
    static INSIDE: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is inside a compute entry, where every
/// further entry is nested and runs inline.
pub(crate) fn inside() -> bool {
    INSIDE.with(Cell::get)
}

/// One compute entry's hold on the pool: the core its caller occupies and
/// the helpers it borrowed. Dropping it returns both. Not `Send`: it
/// marks the calling thread as inside an entry until it drops.
#[must_use = "dropping the lease ends the compute entry"]
pub struct Lease {
    helpers: Vec<Arc<Helper>>,
    /// Cores this lease added to [`OCCUPIED`]; 0 for a nested entry.
    held: usize,
    _not_send: PhantomData<*const ()>,
}

/// Starts a compute entry that wants to run as `parts` parts on a backend
/// configured for `threads` workers.
///
/// A top-level entry occupies one core and borrows
/// `min(parts, threads) - 1` helpers, or fewer when fewer cores are idle.
/// A nested entry (see the module docs) borrows none. Either way
/// [`Lease::parts`] says how many parts the caller should split into.
pub fn lease(threads: usize, parts: usize) -> Lease {
    let mut lease = Lease { helpers: Vec::new(), held: 0, _not_send: PhantomData };
    if inside() {
        return lease;
    }
    INSIDE.with(|c| c.set(true));
    let want = parts.min(threads).saturating_sub(1);
    let mut occupied = OCCUPIED.load(Ordering::Relaxed);
    let borrow = loop {
        let k = want.min(threads.saturating_sub(occupied + 1));
        match OCCUPIED.compare_exchange_weak(
            occupied,
            occupied + 1 + k,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => break k,
            Err(now) => occupied = now,
        }
    };
    lease.helpers = take_helpers(borrow);
    // A helper that could not be spawned gives its core back.
    OCCUPIED.fetch_sub(borrow - lease.helpers.len(), Ordering::Relaxed);
    lease.held = 1 + lease.helpers.len();
    if want > 0 {
        let counter = if lease.helpers.is_empty() { POOL_INLINE } else { POOL_DISPATCHES };
        silofuse_observe::count(counter, 1);
    }
    lease
}

impl Lease {
    /// How many parts the entry runs as: 1 plus the borrowed helpers.
    pub fn parts(&self) -> usize {
        1 + self.helpers.len()
    }

    /// Runs `work` once on every job, with the caller and each borrowed
    /// helper pulling jobs from one shared queue until it is empty, and
    /// returns when all jobs have finished.
    ///
    /// # Panics
    /// Re-raises the panic of any job, after every part has finished.
    pub fn run<T: Send>(&self, jobs: Vec<T>, work: impl Fn(T) + Sync) {
        let queue = Mutex::new(jobs.into_iter());
        // No job runs while the queue is locked, so a panicking job
        // cannot poison it.
        let next = || queue.lock().unwrap_or_else(PoisonError::into_inner).next();
        self.broadcast(&|| {
            while let Some(job) = next() {
                work(job);
            }
        });
    }

    /// Runs `work` on the caller and on every borrowed helper at once, and
    /// returns when all of them have finished.
    fn broadcast<'a>(&self, work: &'a (dyn Fn() + Sync + 'a)) {
        if self.helpers.is_empty() {
            return work();
        }
        let join = Arc::new(Join {
            pending: AtomicUsize::new(self.helpers.len()),
            panic: Mutex::new(None),
            caller: thread::current(),
        });
        // SAFETY: the erased reference is only handed to this lease's
        // helpers, each of which stops using it before it counts itself
        // out of `join.pending`. This function does not return or unwind
        // until `join.wait()` has seen that count reach zero: the caller's
        // own part runs under `catch_unwind`, and nothing between the
        // dispatch and the wait can panic. So every use of the reference
        // happens while `work` is still borrowed for `'a`.
        let erased: &'static (dyn Fn() + Sync) = unsafe {
            std::mem::transmute::<&'a (dyn Fn() + Sync + 'a), &'static (dyn Fn() + Sync)>(work)
        };
        let actor: Option<Arc<str>> = silofuse_observe::handle().map(|t| Arc::from(t.actor()));
        for helper in &self.helpers {
            helper.start(Task { work: erased, actor: actor.clone(), join: join.clone() });
        }
        let mine = panic::catch_unwind(AssertUnwindSafe(work));
        join.wait();
        if let Err(payload) = mine {
            panic::resume_unwind(payload);
        }
        if let Some(payload) = join.take_panic() {
            panic::resume_unwind(payload);
        }
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        if self.held == 0 {
            return;
        }
        IDLE.lock().unwrap_or_else(PoisonError::into_inner).append(&mut self.helpers);
        OCCUPIED.fetch_sub(self.held, Ordering::Relaxed);
        INSIDE.with(|c| c.set(false));
    }
}

/// Borrows up to `n` parked helpers, spawning the ones the pool lacks.
/// Returns fewer only when the OS refuses a new thread.
fn take_helpers(n: usize) -> Vec<Arc<Helper>> {
    if n == 0 {
        return Vec::new();
    }
    let mut helpers = {
        let mut idle = IDLE.lock().unwrap_or_else(PoisonError::into_inner);
        let keep = idle.len().saturating_sub(n);
        idle.split_off(keep)
    };
    while helpers.len() < n {
        match Helper::spawn() {
            Some(helper) => helpers.push(helper),
            None => break,
        }
    }
    helpers
}

/// The completion latch of one broadcast.
struct Join {
    /// Helpers still running their part.
    pending: AtomicUsize,
    /// The first panic a helper's part raised.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Unparked by the helper that finishes last.
    caller: Thread,
}

impl Join {
    /// Counts one helper out. The `Release` half pairs with the
    /// `Acquire` load in [`Join::wait`], so everything the part wrote is
    /// visible to the caller once it sees zero.
    fn finish(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.caller.unpark();
        }
    }

    /// Blocks the caller until every helper has finished.
    fn wait(&self) {
        while self.pending.load(Ordering::Acquire) != 0 {
            thread::park();
        }
    }

    fn record_panic(&self, payload: Box<dyn Any + Send>) {
        self.panic.lock().unwrap_or_else(PoisonError::into_inner).get_or_insert(payload);
    }

    fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        self.panic.lock().unwrap_or_else(PoisonError::into_inner).take()
    }
}

/// One helper's share of a broadcast.
struct Task {
    work: &'static (dyn Fn() + Sync),
    /// The caller's telemetry actor, so the part's counters land where
    /// the caller's would.
    actor: Option<Arc<str>>,
    join: Arc<Join>,
}

/// A parked helper thread and the slot its next task arrives in.
struct Helper {
    slot: Mutex<Option<Task>>,
    ready: Condvar,
}

impl Helper {
    fn spawn() -> Option<Arc<Helper>> {
        let helper = Arc::new(Helper { slot: Mutex::new(None), ready: Condvar::new() });
        let me = helper.clone();
        // The thread is never joined: it parks for the life of the
        // process, and no part's panic escapes its loop.
        thread::Builder::new().name("silofuse-pool".into()).spawn(move || me.serve()).ok()?;
        Some(helper)
    }

    /// Hands the parked helper its next task.
    fn start(&self, task: Task) {
        *self.slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(task);
        self.ready.notify_one();
    }

    /// The helper's loop: wait for a task, run it, count out, repeat.
    fn serve(&self) {
        INSIDE.with(|c| c.set(true));
        loop {
            let Task { work, actor, join } = self.next_task();
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                let _scope = actor.as_deref().map(silofuse_observe::scope);
                work();
            }));
            if let Err(payload) = result {
                join.record_panic(payload);
            }
            join.finish();
        }
    }

    fn next_task(&self) -> Task {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(task) = slot.take() {
                return task;
            }
            slot = self.ready.wait(slot).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, Parallel, Reference};
    use std::sync::Barrier;

    /// More workers than any test process holds busy at once, so a
    /// top-level lease here always finds idle cores to borrow.
    const MANY: usize = 64;

    /// A GEMM big enough to fan out, run on `backend`, as output bits.
    fn big_gemm(backend: &dyn Backend) -> Vec<u32> {
        let (m, k, n) = (96, 80, 96);
        let a: Vec<f32> = (0..m * k).map(|i| (i % 13) as f32 * 0.37 - 2.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i % 7) as f32 * 0.53 - 1.5).collect();
        let mut out = vec![0.0; m * n];
        backend.gemm(m, k, n, &a, &b, &mut out);
        out.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn every_job_runs_exactly_once_across_the_parts() {
        let lease = lease(MANY, 4);
        assert_eq!(lease.parts(), 4);
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        lease.run((0..100).collect(), |i: usize| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn a_helpers_panic_reaches_the_caller_and_the_pool_still_works() {
        let caller = thread::current().id();
        let result = panic::catch_unwind(|| {
            let lease = lease(MANY, 2);
            assert_eq!(lease.parts(), 2);
            let barrier = Barrier::new(2);
            lease.run(vec![0, 1], |_| {
                // Both parts meet here, so one of them is on the helper.
                barrier.wait();
                if thread::current().id() != caller {
                    panic!("helper part failed");
                }
            });
        });
        let payload = result.expect_err("the helper's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"helper part failed"));
        assert!(!inside(), "the unwound lease must end the entry");

        let lease = lease(MANY, 2);
        assert_eq!(lease.parts(), 2);
        let ran = AtomicUsize::new(0);
        lease.run(vec![(); 8], |()| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn entries_inside_an_entry_run_inline() {
        let serial = big_gemm(&Reference);
        let lease = lease(MANY, 3);
        assert_eq!(lease.parts(), 3);
        let nested_parts = Mutex::new(Vec::new());
        lease.run(vec![(); 3], |()| {
            let inner = super::lease(MANY, MANY);
            nested_parts.lock().unwrap().push(inner.parts());
            inner.run(vec![(); 4], |()| {});
            drop(inner);
            // A kernel inside a part is nested too: inline, same bytes.
            assert_eq!(big_gemm(&Parallel::new(MANY)), serial);
        });
        assert_eq!(*nested_parts.lock().unwrap(), vec![1, 1, 1]);
    }

    #[test]
    fn a_caller_finding_every_core_held_borrows_nothing() {
        // Two other callers hold both cores of a 2-worker configuration.
        let threads = 2;
        let held = Barrier::new(3);
        let release = Barrier::new(3);
        let serial = big_gemm(&Reference);
        thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let _lease = lease(threads, 1);
                    held.wait();
                    release.wait();
                });
            }
            held.wait();
            assert_eq!(lease(threads, 2).parts(), 1, "no core is idle");
            assert_eq!(big_gemm(&Parallel::new(threads)), serial, "the kernel runs inline");
            release.wait();
        });
    }
}
