//! Deterministic ordered fan-out over OS threads.
//!
//! The sweep, tuner and figure pipelines are embarrassingly parallel: a grid
//! of independent simulation runs whose outputs are combined by *index*, not
//! by completion order. [`par_map`] runs such a grid across a pool of scoped
//! threads and returns results in input order, so callers that derive any
//! per-item randomness from the item index produce byte-identical output at
//! every thread count.
//!
//! Thread count resolution, highest priority first:
//! 1. [`set_threads`] (e.g. from `papctl --threads N`),
//! 2. the `PAP_THREADS` environment variable,
//! 3. all available cores.
//!
//! A value of 1 forces the plain sequential loop (no threads spawned).
//! Nested [`par_map`] calls from inside a worker run sequentially, so outer
//! parallelism (e.g. the Figs. 7–9 drivers' fan-out over machines) is not
//! multiplied by inner parallelism (each machine's sweep). A single simulation run is never
//! split across threads: the engine is sequential, and parallelism pays
//! across runs.
//!
//! [`Pool`] serves dynamically submitted tasks (the daemon's compute and
//! refinement work); its [`Pool::submit`] never blocks the caller.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Explicit override; 0 means "not set".
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Cached `PAP_THREADS` / core-count default.
static DEFAULT: OnceLock<usize> = OnceLock::new();

std::thread_local! {
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Set the global thread count (1 forces sequential execution).
///
/// Takes priority over `PAP_THREADS` and the core count.
pub fn set_threads(n: usize) {
    OVERRIDE.store(n.max(1), Ordering::Relaxed);
}

/// The thread count [`par_map`] will use at top level.
pub fn threads() -> usize {
    let forced = OVERRIDE.load(Ordering::Relaxed);
    if forced != 0 {
        return forced;
    }
    *DEFAULT.get_or_init(|| {
        if let Ok(v) = std::env::var("PAP_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
            eprintln!("warning: ignoring invalid PAP_THREADS={v:?}");
        }
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    })
}

/// True when called from inside a [`par_map`] worker.
pub fn in_worker() -> bool {
    IN_WORKER.with(|f| f.get())
}

/// Apply `f(index, &item)` to every item, returning results in input order.
///
/// Runs on [`threads`] scoped threads pulling indices from a shared counter;
/// sequential when the thread count is 1, the input has fewer than 2 items,
/// or the caller is itself a worker. A panic in `f` propagates.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let n = items.len();
    let workers = threads().min(n);
    if workers <= 1 || in_worker() {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let m = pool_metrics();
    m.par_map_calls.inc();
    m.par_map_items.add(n as u64);
    let _span = pap_obs::span("pool", "par_map");

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<U>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    IN_WORKER.with(|flag| flag.set(true));
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i, &items[i])));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            // join() re-raises worker panics on the caller.
            for (i, v) in handle.join().expect("par_map worker panicked") {
                slots[i] = Some(v);
            }
        }
    });
    slots.into_iter().map(|s| s.expect("par_map slot unfilled")).collect()
}

/// Run `f` with this thread marked as a pool worker, so any [`par_map`]
/// it performs (directly or transitively) stays sequential. Long-running
/// services use this to keep total parallelism bounded by their own pool
/// instead of multiplying it by the fan-out width.
pub fn sequential<R>(f: impl FnOnce() -> R) -> R {
    let was = IN_WORKER.with(|w| w.replace(true));
    let out = f();
    IN_WORKER.with(|w| w.set(was));
    out
}

/// Cached handles into the global metrics registry. Resolved once; each
/// task then costs a few relaxed atomic ops (submit, queue-wait, busy
/// gauge, completion), taken only on the pool path — `par_map` grids pay a
/// single per-call add.
struct PoolMetrics {
    submitted: pap_obs::Counter,
    completed: pap_obs::Counter,
    dropped: pap_obs::Counter,
    queue_wait_us: pap_obs::Histogram,
    workers_busy: pap_obs::Gauge,
    par_map_calls: pap_obs::Counter,
    par_map_items: pap_obs::Counter,
}

fn pool_metrics() -> &'static PoolMetrics {
    static M: OnceLock<PoolMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let reg = pap_obs::global();
        PoolMetrics {
            submitted: reg.counter("pool.tasks.submitted"),
            completed: reg.counter("pool.tasks.completed"),
            dropped: reg.counter("pool.tasks.dropped"),
            queue_wait_us: reg.histogram(
                "pool.queue_wait_us",
                &[10, 100, 1_000, 10_000, 100_000, 1_000_000],
            ),
            workers_busy: reg.gauge("pool.workers_busy"),
            par_map_calls: reg.counter("pool.par_map.calls"),
            par_map_items: reg.counter("pool.par_map.items"),
        }
    })
}

/// A queued task plus its enqueue time (for the queue-wait histogram).
type Task = (std::time::Instant, Box<dyn FnOnce() + Send + 'static>);

struct PoolShared {
    queue: Mutex<PoolQueue>,
    /// Signalled when a task is pushed or the pool starts shutting down.
    task_ready: Condvar,
    bound: usize,
}

struct PoolQueue {
    tasks: VecDeque<Task>,
    shutdown: bool,
    /// When shutting down: run the queued backlog (`true`, drain) or drop it
    /// (`false`, abort). In-flight tasks always run to completion.
    run_backlog: bool,
}

/// A bounded FIFO pool of long-lived worker threads for dynamically
/// submitted tasks (as opposed to [`par_map`]'s static grids).
///
/// * [`Pool::submit`] never blocks: it refuses a task while the queue holds
///   `queue_bound` pending tasks, so an event loop can hand work to the
///   pool and shed load instead of stalling.
/// * Workers run tasks with the [`in_worker`] flag set, so a task calling
///   [`par_map`] runs it sequentially: total parallelism stays bounded by
///   the pool size.
/// * [`Pool::join`] stops intake, runs the queued backlog, and joins the
///   workers (graceful drain). [`Pool::abort`] drops the backlog and joins
///   after in-flight tasks finish.
pub struct Pool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Spawn a pool of `workers` threads with a queue bound of
    /// `queue_bound` pending tasks (both clamped to at least 1).
    pub fn new(workers: usize, queue_bound: usize) -> Pool {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                tasks: VecDeque::new(),
                shutdown: false,
                run_backlog: true,
            }),
            task_ready: Condvar::new(),
            bound: queue_bound.max(1),
        });
        let workers = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    IN_WORKER.with(|flag| flag.set(true));
                    loop {
                        let task = {
                            let mut q = shared.queue.lock().expect("pool queue poisoned");
                            loop {
                                if q.shutdown && (!q.run_backlog || q.tasks.is_empty()) {
                                    return;
                                }
                                if let Some(t) = q.tasks.pop_front() {
                                    break t;
                                }
                                q = shared.task_ready.wait(q).expect("pool queue poisoned");
                            }
                        };
                        let (enqueued, task) = task;
                        let m = pool_metrics();
                        m.queue_wait_us
                            .record(enqueued.elapsed().as_micros().min(u64::MAX as u128) as u64);
                        m.workers_busy.add(1);
                        let span = pap_obs::span("pool", "task");
                        task();
                        drop(span);
                        m.workers_busy.add(-1);
                        m.completed.inc();
                    }
                })
            })
            .collect();
        Pool { shared, workers }
    }

    /// Enqueue a task without blocking. Returns `false` (dropping the task)
    /// if the queue is full or the pool is shutting down.
    pub fn submit(&self, f: impl FnOnce() + Send + 'static) -> bool {
        let mut q = self.shared.queue.lock().expect("pool queue poisoned");
        if q.shutdown || q.tasks.len() >= self.shared.bound {
            return false;
        }
        q.tasks.push_back((std::time::Instant::now(), Box::new(f)));
        drop(q);
        pool_metrics().submitted.inc();
        self.shared.task_ready.notify_one();
        true
    }

    /// Number of tasks waiting in the queue (not yet started).
    pub fn backlog(&self) -> usize {
        self.shared.queue.lock().expect("pool queue poisoned").tasks.len()
    }

    /// Graceful shutdown: stop intake, run every queued task, join workers.
    pub fn join(self) {
        self.finish(true);
    }

    /// Abort: stop intake, drop queued tasks, join workers once their
    /// current task (if any) completes. Returns the number of dropped tasks.
    pub fn abort(self) -> usize {
        self.finish(false)
    }

    fn finish(mut self, run_backlog: bool) -> usize {
        let dropped = {
            let mut q = self.shared.queue.lock().expect("pool queue poisoned");
            q.shutdown = true;
            q.run_backlog = run_backlog;
            if run_backlog { 0 } else { std::mem::take(&mut q.tasks).len() }
        };
        pool_metrics().dropped.add(dropped as u64);
        self.shared.task_ready.notify_all();
        for w in self.workers.drain(..) {
            w.join().expect("pool worker panicked");
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that mutate the global thread-count override.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn results_are_in_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let out = par_map(&items, |i, &x| {
            assert_eq!(i as u64, x);
            x * 3 + 1
        });
        assert_eq!(out, items.iter().map(|x| x * 3 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn matches_sequential_at_any_thread_count() {
        let _guard = LOCK.lock().unwrap();
        let items: Vec<u64> = (0..100).collect();
        let seq: Vec<u64> = items.iter().map(|x| x.wrapping_mul(0x9E37_79B9)).collect();
        for n in [1, 2, 7] {
            set_threads(n);
            assert_eq!(par_map(&items, |_, x| x.wrapping_mul(0x9E37_79B9)), seq);
        }
        set_threads(1);
    }

    #[test]
    fn nested_calls_run_sequentially() {
        let _guard = LOCK.lock().unwrap();
        set_threads(4);
        let outer: Vec<usize> = (0..8).collect();
        let out = par_map(&outer, |_, &i| {
            assert!(in_worker());
            let inner: Vec<usize> = (0..4).collect();
            par_map(&inner, |_, &j| i * 10 + j)
        });
        assert_eq!(out[3], vec![30, 31, 32, 33]);
        set_threads(1);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |_, x| *x).is_empty());
        assert_eq!(par_map(&[42u32], |_, x| *x), vec![42]);
    }

    #[test]
    fn sequential_scope_disables_fanout() {
        assert!(!in_worker());
        let inside = sequential(|| {
            assert!(in_worker());
            // Nested par_map must run inline (order-preserving is trivially
            // true either way; in_worker() proves the sequential path).
            par_map(&[1u32, 2, 3], |_, &x| {
                assert!(in_worker());
                x * 2
            })
        });
        assert_eq!(inside, vec![2, 4, 6]);
        assert!(!in_worker(), "sequential() must restore the flag");
    }

    #[test]
    fn pool_runs_all_tasks_and_drains_on_join() {
        let counter = Arc::new(AtomicUsize::new(0));
        let pool = Pool::new(3, 50);
        for _ in 0..50 {
            let c = Arc::clone(&counter);
            assert!(pool.submit(move || {
                assert!(in_worker(), "pool tasks run with the worker flag set");
                c.fetch_add(1, Ordering::Relaxed);
            }));
        }
        pool.join();
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn pool_abort_drops_backlog_but_finishes_inflight() {
        let started = Arc::new(AtomicUsize::new(0));
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let pool = Pool::new(1, 64);
        // First task blocks the lone worker until the gate opens.
        {
            let started = Arc::clone(&started);
            let gate = Arc::clone(&gate);
            pool.submit(move || {
                started.fetch_add(1, Ordering::Relaxed);
                let (lock, cv) = &*gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            });
        }
        // Queue a backlog that abort() must drop.
        for _ in 0..10 {
            let started = Arc::clone(&started);
            pool.submit(move || {
                started.fetch_add(1, Ordering::Relaxed);
            });
        }
        // Wait for the worker to pick up the blocking task.
        while started.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        // Abort from a helper thread (it blocks joining the gated worker);
        // only open the gate once the shutdown flag is set, so the worker
        // cannot steal backlog tasks in the window before the abort.
        let shared = Arc::clone(&pool.shared);
        let aborter = std::thread::spawn(move || pool.abort());
        while !shared.queue.lock().unwrap().shutdown {
            std::thread::yield_now();
        }
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        let dropped = aborter.join().unwrap();
        assert_eq!(started.load(Ordering::Relaxed), 1, "backlog must not run after abort");
        assert_eq!(dropped, 10);
    }

    #[test]
    fn pool_submit_refuses_without_blocking_when_full() {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let pool = Arc::new(Pool::new(1, 2));
        let started = Arc::new(AtomicUsize::new(0));
        {
            // Gate the lone worker so the queue cannot drain.
            let (gate, started) = (Arc::clone(&gate), Arc::clone(&started));
            assert!(pool.submit(move || {
                started.fetch_add(1, Ordering::Relaxed);
                let (lock, cv) = &*gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            }));
        }
        while started.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        assert!(pool.submit(|| {}));
        assert!(pool.submit(|| {}));
        // The queue is full. Submit on a helper thread, so a blocking submit
        // shows up as a timeout here rather than hanging the test.
        let (tx, rx) = std::sync::mpsc::channel();
        let submitter = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || tx.send(pool.submit(|| {})).unwrap())
        };
        let accepted = rx.recv_timeout(std::time::Duration::from_secs(5));
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        assert_eq!(accepted, Ok(false), "submit into a full queue must refuse at once");
        submitter.join().unwrap();
        Arc::into_inner(pool).expect("sole pool handle").join();
    }

    #[test]
    fn pool_publishes_metrics() {
        let m = pool_metrics();
        let (sub0, comp0, wait0) =
            (m.submitted.get(), m.completed.get(), m.queue_wait_us.count());
        let pool = Pool::new(2, 8);
        for _ in 0..5 {
            assert!(pool.submit(|| {}));
        }
        pool.join();
        assert!(m.submitted.get() >= sub0 + 5);
        assert!(m.completed.get() >= comp0 + 5);
        assert!(m.queue_wait_us.count() >= wait0 + 5);
    }

    #[test]
    fn pool_submit_after_shutdown_is_rejected() {
        let pool = Pool::new(2, 2);
        let shared = Arc::clone(&pool.shared);
        pool.join();
        // A fresh handle to the shared state simulates a racing submitter.
        let mut q = shared.queue.lock().unwrap();
        assert!(q.shutdown);
        assert!(q.tasks.is_empty());
        q.tasks.clear();
    }
}
