//! A dependency-free mini-executor for driving lock futures in tests
//! and benches.
//!
//! `sal_sync::AsyncAbortableMutex` is sans-IO: its futures know nothing
//! about threads or timers, they only ask to be re-polled. Something
//! has to do the polling, and the workspace is offline (no tokio), so
//! this module ships the minimal driver:
//!
//! * [`block_on`] — run one future to completion on the current thread
//!   (`std::thread::park` based), for straight-line tests;
//! * [`Executor`] — a FIFO task queue drained by a caller-chosen number
//!   of worker threads, the same worker shape as the [`crate::pool`]
//!   job pool but re-polling tasks instead of running jobs once: spawn
//!   futures with [`Executor::spawn`], drain them with
//!   [`Executor::run`]. Tasks are re-queued by their wakers, so 10 000
//!   tasks interleave over 4 workers — the tasks ≫ threads shape the
//!   async mutex exists for;
//! * [`sleep_until`] / [`sleep`] — a timer future serviced by one
//!   lazily-started global timer thread, so deadline-bound waits can be
//!   woken without lock traffic.
//!
//! Wakers are hand-rolled over `Arc` reference counting (the
//! [`RawWakerVTable`] dance); each `unsafe` block carries its
//! obligation as a `// SAFETY:` comment, enforced by the
//! `clippy::undocumented_unsafe_blocks` lint this module opts into.
//!
//! ## Scheduling behaviour
//!
//! The run queue is a global FIFO: a woken task goes to the back, so
//! ready tasks make progress in wake order and none starves. A task is
//! never polled concurrently from two workers (a QUEUED/RUNNING/
//! NOTIFIED state machine serializes polls; a wake arriving mid-poll
//! re-queues the task at the end of the poll instead of being lost).

#![warn(clippy::undocumented_unsafe_blocks)]

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};
use std::time::{Duration, Instant};

/// Anything that can be woken through an `Arc`: the one trait both the
/// executor's tasks and `block_on`'s thread parker implement, so one
/// vtable construction serves every waker in the module.
trait ArcWake: Send + Sync + 'static {
    fn wake_by_ref(arc_self: &Arc<Self>);
}

/// The [`RawWakerVTable`] for an `Arc<W>`-backed waker. The `&` on a
/// `const fn`-constructed value is promoted to `'static`, which is what
/// lets one generic function mint vtables per concrete `W`.
const fn vtable<W: ArcWake>() -> &'static RawWakerVTable {
    &RawWakerVTable::new(
        clone_arc::<W>,
        wake_arc::<W>,
        wake_by_ref_arc::<W>,
        drop_arc::<W>,
    )
}

fn raw_waker<W: ArcWake>(w: Arc<W>) -> RawWaker {
    RawWaker::new(Arc::into_raw(w).cast::<()>(), vtable::<W>())
}

/// Build a [`Waker`] that calls `W::wake_by_ref` on the given `Arc`.
fn waker<W: ArcWake>(w: Arc<W>) -> Waker {
    // SAFETY: the RawWaker contract is upheld by the four vtable
    // functions below: `data` is always an `Arc<W>` raw pointer with
    // one reference count owned by the waker; clone bumps the count,
    // wake/drop consume it, wake_by_ref borrows it.
    unsafe { Waker::from_raw(raw_waker(w)) }
}

unsafe fn clone_arc<W: ArcWake>(data: *const ()) -> RawWaker {
    // SAFETY: `data` came from `Arc::into_raw` in `raw_waker`, so it is
    // a valid `Arc<W>` pointer; `increment_strong_count` manufactures
    // the extra count the cloned waker will own.
    unsafe { Arc::increment_strong_count(data.cast::<W>()) };
    RawWaker::new(data, vtable::<W>())
}

unsafe fn wake_arc<W: ArcWake>(data: *const ()) {
    // SAFETY: consumes the count owned by this waker (wake-by-value
    // drops the waker), reconstructing the Arc it was minted from.
    let arc = unsafe { Arc::from_raw(data.cast::<W>()) };
    W::wake_by_ref(&arc);
}

unsafe fn wake_by_ref_arc<W: ArcWake>(data: *const ()) {
    // SAFETY: borrows the Arc without consuming the waker's count;
    // `ManuallyDrop` keeps the count owned by the waker intact.
    let arc = std::mem::ManuallyDrop::new(unsafe { Arc::from_raw(data.cast::<W>()) });
    W::wake_by_ref(&arc);
}

unsafe fn drop_arc<W: ArcWake>(data: *const ()) {
    // SAFETY: releases the count owned by the dropped waker.
    drop(unsafe { Arc::from_raw(data.cast::<W>()) });
}

/// Task poll-state: not queued, not running, no pending wake.
const IDLE: u8 = 0;
/// In the run queue, awaiting a worker.
const QUEUED: u8 = 1;
/// A worker is polling the future right now.
const RUNNING: u8 = 2;
/// A wake arrived while RUNNING: the worker re-queues after the poll.
const NOTIFIED: u8 = 3;
/// The future completed. Terminal: wakes are ignored, so a stale waker
/// can never re-queue the task and have it counted out a second time.
const DONE: u8 = 4;

/// One spawned future plus its scheduling state.
struct Task {
    /// The future, present while the task is alive. The Mutex is
    /// uncontended by construction (the state machine admits one poller
    /// at a time); it exists to make `Task: Sync` without unsafe.
    future: Mutex<Option<Pin<Box<dyn Future<Output = ()> + Send + 'static>>>>,
    state: AtomicU8,
    shared: Arc<Shared>,
}

impl ArcWake for Task {
    fn wake_by_ref(arc_self: &Arc<Self>) {
        loop {
            match arc_self.state.load(Ordering::Acquire) {
                IDLE => {
                    if arc_self
                        .state
                        .compare_exchange(IDLE, QUEUED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        arc_self.shared.enqueue(Arc::clone(arc_self));
                        return;
                    }
                }
                RUNNING => {
                    if arc_self
                        .state
                        .compare_exchange(RUNNING, NOTIFIED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return;
                    }
                }
                // Already queued or already flagged: the wake coalesces.
                // DONE: the task is gone and the wake is stale.
                _ => return,
            }
        }
    }
}

/// State shared between the executor handle, its workers and all task
/// wakers.
struct Shared {
    queue: Mutex<VecDeque<Arc<Task>>>,
    /// Workers park here when the queue is empty but tasks are live.
    cv: Condvar,
    /// Spawned minus completed tasks; `run` returns at zero.
    live: AtomicUsize,
}

impl Shared {
    fn enqueue(&self, task: Arc<Task>) {
        self.queue.lock().unwrap().push_back(task);
        self.cv.notify_one();
    }
}

/// A FIFO multi-worker future executor; see the module docs.
///
/// ```
/// use sal_runtime::executor::Executor;
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
///
/// let ex = Executor::new();
/// let hits = Arc::new(AtomicU64::new(0));
/// for _ in 0..100 {
///     let hits = Arc::clone(&hits);
///     ex.spawn(async move {
///         hits.fetch_add(1, Ordering::Relaxed);
///     });
/// }
/// ex.run(4);
/// assert_eq!(hits.load(Ordering::Relaxed), 100);
/// ```
pub struct Executor {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("live", &self.shared.live.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Default for Executor {
    fn default() -> Self {
        Self::new()
    }
}

impl Executor {
    /// A fresh executor with an empty task queue.
    pub fn new() -> Self {
        Executor {
            shared: Arc::new(Shared {
                queue: Mutex::new(VecDeque::new()),
                cv: Condvar::new(),
                live: AtomicUsize::new(0),
            }),
        }
    }

    /// Queue a future as a task. Tasks only make progress inside
    /// [`run`](Self::run).
    pub fn spawn(&self, fut: impl Future<Output = ()> + Send + 'static) {
        self.shared.live.fetch_add(1, Ordering::SeqCst);
        let task = Arc::new(Task {
            future: Mutex::new(Some(Box::pin(fut))),
            state: AtomicU8::new(QUEUED),
            shared: Arc::clone(&self.shared),
        });
        self.shared.enqueue(task);
    }

    /// Drain the queue on `workers` threads until every spawned task
    /// has completed, then return. Tasks may [`spawn`](Self::spawn)
    /// further tasks through a clone of the handle. `workers == 1` is
    /// valid (single-threaded cooperative scheduling, still on a
    /// separate thread from the caller's).
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`, and propagates the first worker panic
    /// (a panicking task poisons the task mutex and aborts the drain).
    pub fn run(&self, workers: usize) {
        assert!(workers > 0, "executor needs at least one worker");
        std::thread::scope(|s| {
            for _ in 0..workers {
                let shared = Arc::clone(&self.shared);
                s.spawn(move || worker_loop(&shared));
            }
        });
    }

    /// Clone the spawn handle (e.g. to spawn from inside tasks).
    pub fn handle(&self) -> Executor {
        Executor {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Number of spawned tasks that have not completed yet.
    pub fn live(&self) -> usize {
        self.shared.live.load(Ordering::SeqCst)
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let task = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(t) = q.pop_front() {
                    break t;
                }
                if shared.live.load(Ordering::SeqCst) == 0 {
                    // All tasks done; wake the other workers so they
                    // observe termination too.
                    shared.cv.notify_all();
                    return;
                }
                // Timed backstop: termination (live == 0) is signalled
                // by notify_all, but a task completed by *another*
                // executor's thread (block_on interleaving) could miss
                // a notify; 1ms bounds the damage.
                q = shared
                    .cv
                    .wait_timeout(q, Duration::from_millis(1))
                    .unwrap()
                    .0;
            }
        };
        task.state.store(RUNNING, Ordering::Release);
        let mut slot = task.future.lock().unwrap();
        let fut = slot.as_mut().expect("a DONE task is never re-queued");
        let w = waker(Arc::clone(&task));
        let done = fut.as_mut().poll(&mut Context::from_waker(&w)).is_ready();
        if done {
            *slot = None; // drop the future eagerly
        }
        drop(slot);
        if done {
            task.state.store(DONE, Ordering::Release);
            if shared.live.fetch_sub(1, Ordering::SeqCst) == 1 {
                shared.cv.notify_all();
            }
        } else {
            match task
                .state
                .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {}
                Err(_) => {
                    // NOTIFIED: a wake raced our poll — re-queue.
                    task.state.store(QUEUED, Ordering::Release);
                    shared.enqueue(task);
                }
            }
        }
    }
}

/// `block_on`'s thread parker.
struct ThreadNotify {
    thread: std::thread::Thread,
    notified: AtomicBool,
}

impl ArcWake for ThreadNotify {
    fn wake_by_ref(arc_self: &Arc<Self>) {
        arc_self.notified.store(true, Ordering::Release);
        arc_self.thread.unpark();
    }
}

/// Run `fut` to completion on the current thread, parking between
/// polls. The entry point for straight-line async tests:
///
/// ```
/// use sal_runtime::executor::block_on;
///
/// assert_eq!(block_on(async { 6 * 7 }), 42);
/// ```
pub fn block_on<F: Future>(fut: F) -> F::Output {
    let notify = Arc::new(ThreadNotify {
        thread: std::thread::current(),
        notified: AtomicBool::new(false),
    });
    let w = waker(Arc::clone(&notify));
    let mut cx = Context::from_waker(&w);
    // SAFETY: `fut` lives on this stack frame for the whole function
    // and is never moved after this pin (only the pinned reference is
    // used below).
    let mut fut = std::pin::pin!(fut);
    loop {
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(out) => return out,
            Poll::Pending => {
                while !notify.notified.swap(false, Ordering::Acquire) {
                    std::thread::park();
                }
            }
        }
    }
}

/// The global timer service: one lazily-started thread parks until the
/// earliest registered deadline and fires the due wakers. Shared by
/// every [`Sleep`] in the process (tests and benches never need more).
struct TimerService {
    entries: Mutex<Vec<(Instant, Waker)>>,
    cv: Condvar,
}

fn timer() -> &'static TimerService {
    static TIMER: OnceLock<&'static TimerService> = OnceLock::new();
    TIMER.get_or_init(|| {
        let svc: &'static TimerService = Box::leak(Box::new(TimerService {
            entries: Mutex::new(Vec::new()),
            cv: Condvar::new(),
        }));
        std::thread::Builder::new()
            .name("sal-timer".into())
            .spawn(move || timer_loop(svc))
            .expect("spawn timer thread");
        svc
    })
}

fn timer_loop(svc: &'static TimerService) {
    let mut entries = svc.entries.lock().unwrap();
    loop {
        let now = Instant::now();
        let mut due = Vec::new();
        entries.retain(|(at, w)| {
            if *at <= now {
                due.push(w.clone());
                false
            } else {
                true
            }
        });
        if !due.is_empty() {
            drop(entries);
            for w in due {
                w.wake();
            }
            entries = svc.entries.lock().unwrap();
            continue;
        }
        entries = match entries.iter().map(|(at, _)| *at).min() {
            Some(next) => {
                let wait = next.saturating_duration_since(now);
                svc.cv.wait_timeout(entries, wait).unwrap().0
            }
            None => svc.cv.wait(entries).unwrap(),
        };
    }
}

/// Future of [`sleep_until`]: pending until the deadline passes.
#[derive(Debug)]
pub struct Sleep {
    deadline: Instant,
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if Instant::now() >= self.deadline {
            return Poll::Ready(());
        }
        let svc = timer();
        svc.entries
            .lock()
            .unwrap()
            .push((self.deadline, cx.waker().clone()));
        svc.cv.notify_one();
        Poll::Pending
    }
}

/// A future that completes once `deadline` passes, woken by the global
/// timer thread (no lock traffic required). Useful for giving
/// deadline-bound lock futures a poll at their deadline — the
/// `AsyncAbortableMutex` docs discuss when that matters.
pub fn sleep_until(deadline: Instant) -> Sleep {
    Sleep { deadline }
}

/// [`sleep_until`] with a relative duration.
pub fn sleep(dur: Duration) -> Sleep {
    Sleep {
        deadline: Instant::now() + dur,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn block_on_returns_the_value() {
        assert_eq!(block_on(async { 7 }), 7);
    }

    #[test]
    fn block_on_survives_pending_polls() {
        struct YieldOnce(bool);
        impl Future for YieldOnce {
            type Output = u32;
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<u32> {
                if self.0 {
                    Poll::Ready(99)
                } else {
                    self.0 = true;
                    cx.waker().wake_by_ref();
                    Poll::Pending
                }
            }
        }
        assert_eq!(block_on(YieldOnce(false)), 99);
    }

    #[test]
    fn executor_drains_tasks_across_workers() {
        for workers in [1, 4] {
            let ex = Executor::new();
            let hits = Arc::new(AtomicU64::new(0));
            for _ in 0..500 {
                let hits = Arc::clone(&hits);
                ex.spawn(async move {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
            ex.run(workers);
            assert_eq!(hits.load(Ordering::Relaxed), 500);
            assert_eq!(ex.live(), 0);
        }
    }

    #[test]
    fn tasks_can_spawn_tasks() {
        let ex = Executor::new();
        let hits = Arc::new(AtomicU64::new(0));
        let handle = ex.handle();
        let inner_hits = Arc::clone(&hits);
        ex.spawn(async move {
            for _ in 0..10 {
                let hits = Arc::clone(&inner_hits);
                handle.spawn(async move {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        ex.run(2);
        assert_eq!(hits.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn sleep_wakes_without_traffic() {
        let start = Instant::now();
        block_on(sleep(Duration::from_millis(20)));
        assert!(start.elapsed() >= Duration::from_millis(20));

        // And inside the executor.
        let ex = Executor::new();
        let done = Arc::new(AtomicU64::new(0));
        for _ in 0..8 {
            let done = Arc::clone(&done);
            ex.spawn(async move {
                sleep(Duration::from_millis(5)).await;
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        ex.run(2);
        assert_eq!(done.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn wakes_racing_a_poll_are_not_lost() {
        // A future woken from another thread while the executor is
        // mid-poll must be re-polled, not stranded.
        let ex = Executor::new();
        let flag = Arc::new(AtomicBool::new(false));
        struct WaitFlag(Arc<AtomicBool>);
        impl Future for WaitFlag {
            type Output = ();
            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                if self.0.load(Ordering::Acquire) {
                    Poll::Ready(())
                } else {
                    let flag = Arc::clone(&self.0);
                    let w = cx.waker().clone();
                    // Fire the condition + wake from another thread at
                    // an adversarial moment.
                    std::thread::spawn(move || {
                        flag.store(true, Ordering::Release);
                        w.wake();
                    });
                    Poll::Pending
                }
            }
        }
        ex.spawn(WaitFlag(Arc::clone(&flag)));
        ex.run(2);
        assert!(flag.load(Ordering::Acquire));
    }

    #[test]
    fn stale_wake_of_a_completed_task_is_ignored() {
        // Task A leaves a clone of its waker behind and completes; task
        // B fires that stale waker, then yields a few times. A must be
        // counted out once, so `run` returns with nothing live. Run on
        // a helper thread so that a hang fails the test instead of
        // stalling the suite.
        struct Yield(u32);
        impl Future for Yield {
            type Output = ();
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                if self.0 == 0 {
                    return Poll::Ready(());
                }
                self.0 -= 1;
                cx.waker().wake_by_ref();
                Poll::Pending
            }
        }
        let stash: Arc<Mutex<Option<Waker>>> = Arc::default();
        let ex = Executor::new();
        let left = Arc::clone(&stash);
        ex.spawn(async move {
            let w = std::future::poll_fn(|cx| Poll::Ready(cx.waker().clone())).await;
            *left.lock().unwrap() = Some(w);
        });
        ex.spawn(async move {
            let stale = stash.lock().unwrap().take().expect("task A ran first");
            stale.wake();
            Yield(3).await;
        });
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            ex.run(1);
            tx.send(ex.live()).ok();
        });
        let live = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("Executor::run did not return after a stale wake");
        assert_eq!(live, 0);
    }
}
