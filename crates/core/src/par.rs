//! Host-parallel helpers over `std::thread` (the workspace builds with no
//! external crates, so this replaces the former `rayon` fan-outs).
//!
//! Simulated time never depends on host parallelism — every ladder point
//! builds its own `Vm` — so `par_map` only shortens wall-clock time of the
//! harness. Results always come back in input order.

use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};

pub mod lockreg;

/// Lock `m`, recovering the data if a previous holder panicked.
///
/// `Mutex::lock().unwrap()` turns one panic while the lock is held into a
/// poisoned-lock cascade: every later locker panics too, and a daemon
/// wedges forever on the first bug. Shared state guarded by counters and
/// queues here stays structurally valid across a panicking critical
/// section (all updates are single-field or push/pop), so recovering the
/// guard is always safe; the panic itself still propagates to whoever
/// caused it.
pub fn plock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A [`plock`] guard carrying the name of the lock *site* it holds.
///
/// With the `lockcheck` feature enabled, constructing one (via
/// [`plock_named`]) records the acquisition in [`lockreg`] — the held-site
/// stack of the current thread grows an entry, and an ordering edge is
/// recorded from every site already held — and dropping it pops the stack.
/// Without the feature it is exactly a [`MutexGuard`]: no registry, no
/// bookkeeping, nothing to pay.
pub struct SiteGuard<'a, T: ?Sized> {
    #[cfg(feature = "lockcheck")]
    site: &'static str,
    guard: MutexGuard<'a, T>,
}

impl<T: ?Sized> Deref for SiteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for SiteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(feature = "lockcheck")]
impl<T: ?Sized> Drop for SiteGuard<'_, T> {
    fn drop(&mut self) {
        lockreg::release(self.site);
    }
}

/// [`plock`] with a named lock site, feeding the [`lockreg`] registry.
///
/// `site` names the *role* of the mutex (e.g. `"sxd.cache"`), not a code
/// location: every acquisition of the same mutex should pass the same
/// name, so the recorded ordering graph speaks about the daemon's lock
/// hierarchy rather than about call sites. Poison recovery is identical to
/// [`plock`].
pub fn plock_named<'a, T: ?Sized>(m: &'a Mutex<T>, site: &'static str) -> SiteGuard<'a, T> {
    let guard = m.lock().unwrap_or_else(PoisonError::into_inner);
    #[cfg(feature = "lockcheck")]
    lockreg::acquire(site);
    #[cfg(not(feature = "lockcheck"))]
    let _ = site;
    SiteGuard {
        #[cfg(feature = "lockcheck")]
        site,
        guard,
    }
}

/// Process-wide host-parallelism cap. 0 = no cap (use every core); set by
/// the `ncar-bench --jobs N` flag so CI boxes and laptops can bound how
/// many host threads the experiment fan-outs spawn.
static HOST_PARALLELISM_CAP: AtomicUsize = AtomicUsize::new(0);

/// Cap [`par_map`] (and anything else consulting [`host_parallelism`]) at
/// `threads` host threads; 0 removes the cap. Simulated time is unaffected
/// — this only bounds wall-clock concurrency of the harness.
pub fn set_host_parallelism(threads: usize) {
    HOST_PARALLELISM_CAP.store(threads, Ordering::Relaxed);
}

/// The number of host threads fan-outs should use: the configured cap if
/// one is set, else `available_parallelism`.
pub fn host_parallelism() -> usize {
    match HOST_PARALLELISM_CAP.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        n => n,
    }
}

/// Map `f` over `items` using up to [`host_parallelism`] host threads,
/// preserving input order.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    par_map_with(items, host_parallelism(), f)
}

/// [`par_map`] with an explicit thread cap (1 = sequential).
pub fn par_map_with<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        return items.into_iter().map(f).collect();
    }

    // Work queue: (index, item) pairs pulled by worker threads; results are
    // reassembled by index so output order matches input order.
    let queue: std::sync::Mutex<Vec<(usize, T)>> =
        std::sync::Mutex::new(items.into_iter().enumerate().rev().collect());
    let f = &f;
    let queue = &queue;
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let results: std::sync::Mutex<Vec<(usize, R)>> = std::sync::Mutex::new(Vec::with_capacity(n));
    let results_ref = &results;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(move || loop {
                let next = queue.lock().expect("worker panicked holding queue").pop();
                match next {
                    Some((i, item)) => {
                        let r = f(item);
                        results_ref.lock().expect("worker panicked holding results").push((i, r));
                    }
                    None => break,
                }
            });
        }
    });
    for (i, r) in results.into_inner().expect("worker panicked holding results") {
        slots[i] = Some(r);
    }
    slots.into_iter().map(|s| s.expect("every index produced exactly once")).collect()
}

type PoolJob = Box<dyn FnOnce() + Send + 'static>;

struct PoolQueue {
    jobs: VecDeque<PoolJob>,
    shutting_down: bool,
}

struct PoolShared {
    queue: Mutex<PoolQueue>,
    ready: Condvar,
    /// Workers currently executing a job (not parked, not between jobs).
    busy: AtomicUsize,
}

/// A bounded pool of long-lived worker threads.
///
/// [`par_map`] fans out one *batch* and joins; a daemon instead needs jobs
/// executed as they arrive while keeping host concurrency fixed. Jobs
/// submitted beyond the worker count queue FIFO. Dropping the pool drains
/// the queue, then joins every worker.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `threads` workers (at least one).
    pub fn new(threads: usize) -> WorkerPool {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue { jobs: VecDeque::new(), shutting_down: false }),
            ready: Condvar::new(),
            busy: AtomicUsize::new(0),
        });
        let handles = (0..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || loop {
                    let job = {
                        let mut q = plock(&shared.queue);
                        loop {
                            if let Some(job) = q.jobs.pop_front() {
                                break Some(job);
                            }
                            if q.shutting_down {
                                break None;
                            }
                            q = shared.ready.wait(q).unwrap_or_else(PoisonError::into_inner);
                        }
                    };
                    match job {
                        Some(job) => {
                            // Guarded so a panicking job (which kills this
                            // worker) still leaves the busy gauge correct.
                            struct Busy<'a>(&'a AtomicUsize);
                            impl Drop for Busy<'_> {
                                fn drop(&mut self) {
                                    self.0.fetch_sub(1, Ordering::Relaxed);
                                }
                            }
                            shared.busy.fetch_add(1, Ordering::Relaxed);
                            let _busy = Busy(&shared.busy);
                            job();
                        }
                        None => break,
                    }
                })
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Jobs accepted but not yet picked up by a worker.
    pub fn queue_depth(&self) -> usize {
        plock(&self.shared.queue).jobs.len()
    }

    /// Workers currently executing a job.
    pub fn busy_workers(&self) -> usize {
        self.shared.busy.load(Ordering::Relaxed)
    }

    /// Enqueue a fire-and-forget job.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        let mut q = plock(&self.shared.queue);
        q.jobs.push_back(Box::new(job));
        drop(q);
        self.shared.ready.notify_one();
    }

    /// Run `f` on a worker and block until its result comes back.
    pub fn run<R: Send + 'static>(&self, f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = mpsc::channel();
        self.submit(move || {
            let _ = tx.send(f());
        });
        rx.recv().expect("pool worker died before returning a result")
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut q = plock(&self.shared.queue);
            q.shutting_down = true;
        }
        self.shared.ready.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = par_map((0..100).collect::<Vec<usize>>(), |x| x * x);
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<usize> = par_map(Vec::<usize>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn sequential_cap_matches_parallel() {
        let items: Vec<usize> = (0..37).collect();
        let seq = par_map_with(items.clone(), 1, |x| x + 1);
        let par = par_map_with(items, 8, |x| x + 1);
        assert_eq!(seq, par);
    }

    #[test]
    fn more_threads_than_items() {
        let out = par_map_with(vec![1, 2, 3], 64, |x| x * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn host_parallelism_cap_round_trips() {
        // par_map stays correct at any cap, so racing other tests is safe.
        set_host_parallelism(1);
        assert_eq!(host_parallelism(), 1);
        let out = par_map((0..10).collect::<Vec<usize>>(), |x| x * 2);
        assert_eq!(out, (0..10).map(|x| x * 2).collect::<Vec<_>>());
        set_host_parallelism(0);
        assert!(host_parallelism() >= 1);
    }

    #[test]
    fn worker_pool_executes_queued_jobs_and_drains_on_drop() {
        let counter = Arc::new(AtomicUsize::new(0));
        let pool = WorkerPool::new(3);
        for _ in 0..50 {
            let c = Arc::clone(&counter);
            pool.submit(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        // run() gives back results from arbitrary workers.
        assert_eq!(pool.run(|| 6 * 7), 42);
        drop(pool); // must drain the 50 submits before joining
        assert_eq!(counter.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn plock_recovers_a_poisoned_mutex() {
        let m = Arc::new(Mutex::new(7usize));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(m.lock().is_err(), "the mutex really is poisoned");
        *plock(&m) += 1;
        assert_eq!(*plock(&m), 8);
    }

    #[test]
    fn worker_pool_reports_queue_depth_and_busy_workers() {
        let pool = WorkerPool::new(1);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        pool.submit(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        });
        started_rx.recv().unwrap();
        // One worker is occupied; two more jobs pile up behind it.
        pool.submit(|| {});
        pool.submit(|| {});
        assert_eq!(pool.busy_workers(), 1);
        assert_eq!(pool.queue_depth(), 2);
        release_tx.send(()).unwrap();
        drop(pool); // drains the queue
    }

    #[test]
    fn worker_pool_busy_gauge_survives_a_panicking_job() {
        let pool = WorkerPool::new(2);
        pool.run(|| {
            // run() from inside a catch to keep the test thread alive.
        });
        pool.submit(|| panic!("job dies on a worker"));
        // Wait for the panicking job to be consumed.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(pool.busy_workers(), 0, "busy gauge must not leak on panic");
    }

    #[test]
    fn worker_pool_bounds_concurrency() {
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let pool = WorkerPool::new(2);
        for _ in 0..20 {
            let live = Arc::clone(&live);
            let peak = Arc::clone(&peak);
            pool.submit(move || {
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(2));
                live.fetch_sub(1, Ordering::SeqCst);
            });
        }
        drop(pool);
        assert!(peak.load(Ordering::SeqCst) <= 2, "pool exceeded its bound");
    }
}
