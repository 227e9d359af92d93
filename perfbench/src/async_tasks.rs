//! `async_tasks`: 256 tasks on a 2-worker `sal_runtime` executor share
//! one `AsyncAbortableMutex` of capacity 8. Each task loops over
//! attempts: 7/8 `lock().await`, 1/8 `lock_timeout(20 µs)`, then a
//! critical section that increments the counter.
//!
//! Tasks far outnumber pids, so this is the one workload that stresses
//! pid admission, waker parking and the async abort path.
//!
//! Every task runs inside a [`Stoppable`] wrapper that remembers the
//! task's waker. When the watchdog sees no attempt resolve for a stall
//! window it raises the stop flag and wakes every task; a woken wrapper
//! then ends its task without polling the lock future again (the future
//! is leaked, not dropped, so a wedged lock cannot hang the run), and
//! every attempt still in flight counts as failed.

use crate::measure::{
    bump, drive, ns, timed_setup, Progress, Recorder, Reservoir, Spans, Windows, STALL_WINDOW,
};
use crate::{metric, RunConfig, RunResult};
use sal_obs::fp::mix64;
use sal_runtime::executor::Executor;
use sal_runtime::SmallRng;
use sal_sync::AsyncAbortableMutex;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

/// Tasks sharing the mutex.
pub const TASKS: usize = 256;
/// Executor worker threads.
pub const WORKERS: usize = 2;
/// Pids of the mutex.
pub const CAPACITY: usize = 8;
/// Timeout of the `lock_timeout` attempts.
pub const TIMEOUT: Duration = Duration::from_micros(20);
/// Lock-future poll spans kept per task in a traced run.
const POLL_SPANS: usize = 4096;
/// Fewest set-up repetitions behind `setup_s`.
const SETUP_REPS: usize = 15;

/// How one attempt acquires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `lock().await`.
    Lock,
    /// `lock_timeout(TIMEOUT).await`.
    LockTimeout,
}

/// The seeded op stream of task `task`.
#[derive(Debug, Clone)]
pub struct Ops(SmallRng);

impl Ops {
    /// The stream for `(seed, task)`.
    pub fn new(seed: u64, task: usize) -> Self {
        Ops(SmallRng::seed_from_u64(mix64(
            seed ^ mix64(task as u64 + 0x5157),
        )))
    }
}

impl Iterator for Ops {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        Some(if self.0.next_u64().is_multiple_of(8) {
            Op::LockTimeout
        } else {
            Op::Lock
        })
    }
}

/// Owner-written per-task acquisition count.
#[repr(align(128))]
#[derive(Debug, Default)]
struct Tally(AtomicU64);

type Mx = AsyncAbortableMutex<u64>;

struct State {
    cfg: RunConfig,
    /// A task that takes the lock and never releases it is added.
    hog: bool,
    progress: Progress,
    windows: Windows,
    tallies: Vec<Tally>,
    /// Per task; kept here so a task ended by the watchdog loses none.
    recs: Vec<Mutex<Recorder>>,
    wakers: Vec<Mutex<Option<Waker>>>,
    /// Per task: time inside each lock-future poll (traced).
    polls: Vec<Mutex<Reservoir>>,
    /// Total ns inside task polls (traced).
    busy_ns: AtomicU64,
}

impl State {
    fn new(cfg: RunConfig, hog: bool) -> Self {
        let tasks = TASKS + usize::from(hog);
        State {
            cfg,
            hog,
            progress: Progress::new(tasks),
            windows: Windows::new(cfg.seconds),
            tallies: (0..tasks).map(|_| Tally::default()).collect(),
            recs: (0..tasks).map(|_| Mutex::default()).collect(),
            wakers: (0..tasks).map(|_| Mutex::new(None)).collect(),
            polls: (0..tasks).map(|_| Mutex::default()).collect(),
            busy_ns: AtomicU64::new(0),
        }
    }

    fn wake_all(&self) {
        for w in &self.wakers {
            if let Some(w) = w.lock().expect("waker slot poisoned").take() {
                w.wake();
            }
        }
    }
}

type Body = Pin<Box<dyn Future<Output = ()> + Send>>;

/// A task body that can be ended from outside: see the module docs.
struct Stoppable {
    body: Option<Body>,
    st: Arc<State>,
    index: usize,
}

impl Future for Stoppable {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = &mut *self;
        if this.st.progress.stopped() {
            if let Some(body) = this.body.take() {
                std::mem::forget(body);
            }
            return Poll::Ready(());
        }
        {
            let mut slot = this.st.wakers[this.index]
                .lock()
                .expect("waker slot poisoned");
            if !slot.as_ref().is_some_and(|w| w.will_wake(cx.waker())) {
                *slot = Some(cx.waker().clone());
            }
        }
        let Some(body) = this.body.as_mut() else {
            return Poll::Ready(());
        };
        let start = this.st.cfg.trace.then(Instant::now);
        let r = body.as_mut().poll(cx);
        if let Some(start) = start {
            this.st
                .busy_ns
                .fetch_add(u64::from(ns(start, Instant::now())), Ordering::Relaxed);
        }
        r
    }
}

/// Times each poll of a lock future into the task's span sample.
struct Timed<'b, F> {
    fut: Pin<&'b mut F>,
    spans: &'b Mutex<Reservoir>,
}

impl<F: Future> Future for Timed<'_, F> {
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        let start = Instant::now();
        let r = self.fut.as_mut().poll(cx);
        let span = ns(start, Instant::now());
        self.spans
            .lock()
            .expect("span sample poisoned")
            .offer(span, POLL_SPANS);
        r
    }
}

async fn task(st: Arc<State>, mx: Arc<Mx>, i: usize) {
    let slot = st.progress.slot(i);
    let tally = &st.tallies[i];
    let polls = &st.polls[i];
    let trace = st.cfg.trace;
    let end = st.windows.end();
    for op in Ops::new(st.cfg.seed, i) {
        let t0 = Instant::now();
        if t0 >= end || st.progress.stopped() {
            break;
        }
        slot.begin();
        let guard = match op {
            Op::Lock => {
                let mut f = std::pin::pin!(mx.lock());
                Some(if trace {
                    Timed {
                        fut: f.as_mut(),
                        spans: polls,
                    }
                    .await
                } else {
                    f.await
                })
            }
            Op::LockTimeout => {
                let mut f = std::pin::pin!(mx.lock_timeout(TIMEOUT));
                if trace {
                    Timed {
                        fut: f.as_mut(),
                        spans: polls,
                    }
                    .await
                } else {
                    f.await
                }
                .ok()
            }
        };
        let held = Instant::now();
        if let Some(mut g) = guard {
            *g += 1;
            drop(g);
            bump(&tally.0);
            st.recs[i]
                .lock()
                .expect("recorder poisoned")
                .record(&st.windows, held, ns(t0, held));
        }
        slot.end();
    }
}

/// Holds the lock forever once taken: the injected stall.
async fn hog(st: Arc<State>, mx: Arc<Mx>, i: usize) {
    st.progress.slot(i).begin();
    let _guard = mx.lock().await;
    std::future::pending::<()>().await;
}

fn spawn_all(ex: &Executor, st: &Arc<State>, mx: &Arc<Mx>) {
    let spawn = |i: usize, body: Body| {
        ex.spawn(Stoppable {
            body: Some(body),
            st: Arc::clone(st),
            index: i,
        });
    };
    if st.hog {
        spawn(TASKS, Box::pin(hog(Arc::clone(st), Arc::clone(mx), TASKS)));
    }
    for i in 0..TASKS {
        spawn(i, Box::pin(task(Arc::clone(st), Arc::clone(mx), i)));
    }
}

/// Run `async_tasks` once.
pub fn run(cfg: RunConfig) -> RunResult {
    run_with(cfg, false)
}

/// Run `async_tasks` with one more task that takes the lock and never
/// releases it: an injected stall.
pub fn run_hogged(cfg: RunConfig) -> RunResult {
    run_with(cfg, true)
}

fn run_with(cfg: RunConfig, hog: bool) -> RunResult {
    // Each repetition builds the mutex and executor and spawns every
    // task; all but the last are drained at once with the stop flag up.
    let (setup_s, setup_reps, mut rep) = timed_setup(SETUP_REPS, || {
        let st = Arc::new(State::new(cfg, hog));
        let mx = Arc::new(
            AsyncAbortableMutex::builder(0u64)
                .capacity(CAPACITY)
                .build_async(),
        );
        let ex = Executor::new();
        spawn_all(&ex, &st, &mx);
        Rep(Some((st, mx, ex)))
    });
    let (st, mx, ex) = rep.0.take().expect("the last repetition is kept");

    st.windows.begin();
    let (work_ex, waker_st) = (ex.handle(), Arc::clone(&st));
    let ended = drive(
        &st.progress,
        Some(&st.windows),
        STALL_WINDOW,
        move || work_ex.run(WORKERS),
        || waker_st.wake_all(),
    );

    for rec in &st.recs {
        rec.lock().expect("recorder poisoned").flush(&st.windows);
    }
    let mut r = RunResult {
        setup_s,
        setup_reps,
        windows: st.windows.finish(),
        attempted: st.progress.started(),
        stalled: ended.stalled,
        ..RunResult::default()
    };
    let acquired: u64 = st.tallies.iter().map(|t| t.0.load(Ordering::Relaxed)).sum();
    let stats = mx.stats();
    let unresolved = st.progress.in_flight();
    if ended.stalled || unresolved > 0 {
        // Attempts still pending (the watchdog fired, or the executor
        // returned before every task finished) fail; the pids they hold
        // are not leaks, so the end-of-run checks are skipped.
        r.failed += unresolved;
        r.notes.push(format!(
            "async_tasks {} after {} attempts: {unresolved} in flight, {} of {CAPACITY} pids \
             free, {} tasks queued for a pid, {} conditional waiters{}",
            if ended.stalled {
                "stalled"
            } else {
                "executor returned early"
            },
            r.attempted,
            stats.free_pids,
            stats.queued_tasks,
            mx.waiters(),
            if ended.hung {
                "; the executor never returned"
            } else {
                ""
            }
        ));
    } else {
        if stats.free_pids != CAPACITY || stats.queued_tasks != 0 {
            r.problem(
                (CAPACITY - stats.free_pids.min(CAPACITY)) as u64 + stats.queued_tasks as u64,
                format!(
                    "async_tasks leaked pids: {} of {CAPACITY} free, {} queued",
                    stats.free_pids, stats.queued_tasks
                ),
            );
        }
        match mx.try_lock() {
            Some(g) if *g == acquired => {}
            Some(g) => r.problem(
                acquired.abs_diff(*g),
                format!(
                    "async_tasks lost updates: counter {} after {acquired} acquisitions",
                    *g
                ),
            ),
            None => r.problem(1, "async_tasks: lock still held after the run".into()),
        }
    }
    if cfg.trace {
        let attempts = r.attempted.max(1) as f64;
        let per_1k = |x: u64| 1000.0 * x as f64 / attempts;
        let spans = Spans::default();
        for p in &st.polls {
            spans.absorb(&p.lock().expect("span sample poisoned"));
        }
        let polls = spans.summary();
        let n_polls = polls.map_or(0, |s| s.n);
        let busy = st.busy_ns.load(Ordering::Relaxed) as f64 / 1e9;
        r.layers = vec![
            metric(
                "async.poll.ns_p50",
                polls.map_or(f64::NAN, |s| s.p50),
                "ns",
                n_polls,
            ),
            metric(
                "async.polls_per_acquire",
                n_polls as f64 / acquired.max(1) as f64,
                "count",
                acquired,
            ),
            metric(
                "async.enter_wakeups",
                per_1k(stats.enter_wakeups),
                "per_1k",
                r.attempted,
            ),
            metric(
                "async.futile_enter_wakeups",
                per_1k(stats.futile_enter_wakeups),
                "per_1k",
                r.attempted,
            ),
            metric(
                "async.futile_wake_ratio",
                stats.futile_enter_wakeups as f64 / stats.enter_wakeups.max(1) as f64,
                "share",
                stats.enter_wakeups,
            ),
            metric(
                "async.pid_waits",
                per_1k(stats.pid_waits),
                "per_1k",
                r.attempted,
            ),
            metric(
                "async.cancelled_pending",
                per_1k(stats.cancelled_pending),
                "per_1k",
                r.attempted,
            ),
            metric(
                "executor.busy_share",
                busy / (WORKERS as f64 * cfg.seconds.as_secs_f64()),
                "share",
                n_polls,
            ),
        ];
    }
    r
}

/// One set-up repetition; dropping an unused one drains its executor.
struct Rep(Option<(Arc<State>, Arc<Mx>, Executor)>);

impl Drop for Rep {
    fn drop(&mut self) {
        if let Some((st, _, ex)) = self.0.take() {
            st.progress.stop();
            ex.run(WORKERS);
        }
    }
}
