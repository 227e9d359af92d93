//! `mutex_pair`: two OS threads on one `AbortableMutex` (capacity 64,
//! W = 64), the primary product.
//!
//! Each thread loops: seeded think time of about one uncontended
//! passage, then an acquisition — 13/16 `lock()`, 2/16
//! `try_lock_for(2 µs)`, 1/16 `lock_when` on the counter's parity —
//! then a critical section that increments the counter. Thread `t`
//! waits for parity `t`, so of two waiters one is always satisfiable.
//!
//! The same loop shape, with `lock_when` replaced by `lock`, drives the
//! long-lived core directly and the reference locks ([`drive_pair`]).

use crate::measure::{
    bump, drive, median, ns, think, timed_setup, Progress, Recorder, SpanBuf, Spans, Windows,
    STALL_WINDOW,
};
use crate::{metric, RunConfig, RunResult};
use sal_obs::fp::mix64;
use sal_runtime::SmallRng;
use sal_sync::AbortableMutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Threads in the loop.
pub const THREADS: usize = 2;
/// Timeout of the `try_lock_for` acquisitions.
pub const TRY_FOR: Duration = Duration::from_micros(2);
/// Think-time steps: uniform in `THINK_MIN..THINK_MIN + THINK_SPAN`.
const THINK_MIN: u32 = 1200;
const THINK_SPAN: u32 = 2400;
/// Fewest set-up repetitions behind `setup_s`.
const SETUP_REPS: usize = 15;

/// How one attempt acquires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `lock()`.
    Lock,
    /// `try_lock_for(TRY_FOR)`.
    TryLockFor,
    /// `lock_when(counter parity == thread index)`.
    LockWhen,
}

/// One attempt of the op stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Think-time iterations before the attempt.
    pub think: u32,
    /// How the attempt acquires.
    pub op: Op,
}

/// The seeded op stream of worker `worker`.
#[derive(Debug, Clone)]
pub struct Ops(SmallRng);

impl Ops {
    /// The stream for `(seed, worker)`.
    pub fn new(seed: u64, worker: usize) -> Self {
        Ops(SmallRng::seed_from_u64(mix64(
            seed ^ mix64(worker as u64 + 1),
        )))
    }
}

impl Iterator for Ops {
    type Item = Step;

    fn next(&mut self) -> Option<Step> {
        let r = self.0.next_u64();
        let op = match (r >> 32) % 16 {
            0..=12 => Op::Lock,
            13 | 14 => Op::TryLockFor,
            _ => Op::LockWhen,
        };
        // About 0.5 µs of local work on average on a 2-vCPU Xeon VM
        // (every run notes the measured mean): about one uncontended
        // passage.
        Some(Step {
            think: THINK_MIN + (r % u64::from(THINK_SPAN)) as u32,
            op,
        })
    }
}

/// Mean wall time, in ns, of the think time of the first `steps`
/// attempts of worker 0's stream for `seed`: the median over `passes`
/// timed passes.
pub fn think_ns(seed: u64, steps: usize, passes: usize) -> f64 {
    let thinks: Vec<u32> = Ops::new(seed, 0).take(steps).map(|s| s.think).collect();
    let per: Vec<f64> = (0..passes)
        .map(|_| {
            let t = Instant::now();
            for &n in &thinks {
                think(n, seed);
            }
            t.elapsed().as_nanos() as f64 / steps.max(1) as f64
        })
        .collect();
    median(&per)
}

/// Owner-written per-thread tallies.
#[repr(align(128))]
#[derive(Debug, Default)]
struct Tally {
    acquired: AtomicU64,
    timeouts: AtomicU64,
}

#[derive(Debug, Default)]
struct TraceSpans {
    lock: Spans,
    try_lock_for: Spans,
    lock_when: Spans,
    guard_drop: Spans,
}

struct State {
    mutex: AbortableMutex<u64>,
    /// Thread `t` has finished its measured attempts.
    done: [AtomicBool; THREADS],
    progress: Progress,
    windows: Windows,
    tallies: Vec<Tally>,
    spans: TraceSpans,
}

fn worker(st: &State, t: usize, cfg: RunConfig) {
    let mut h = st.mutex.handle();
    let parity = t as u64 % 2;
    let slot = st.progress.slot(t);
    let tally = &st.tallies[t];
    let mut rec = Recorder::default();
    let mut spans = cfg.trace.then(|| {
        [
            SpanBuf::new(&st.spans.lock),
            SpanBuf::new(&st.spans.try_lock_for),
            SpanBuf::new(&st.spans.lock_when),
            SpanBuf::new(&st.spans.guard_drop),
        ]
    });
    let end = st.windows.end();
    for step in Ops::new(cfg.seed, t) {
        think(step.think, cfg.seed);
        let t0 = Instant::now();
        if t0 >= end || st.progress.stopped() {
            break;
        }
        slot.begin();
        let guard = match step.op {
            Op::Lock => Some(h.lock()),
            Op::TryLockFor => h.try_lock_for(TRY_FOR),
            Op::LockWhen => Some(h.lock_when(move |v: &u64| v % 2 == parity)),
        };
        let held = Instant::now();
        let op_span = ns(t0, held);
        match guard {
            Some(mut g) => {
                *g += 1;
                let release = spans.is_some().then(Instant::now);
                drop(g);
                bump(&tally.acquired);
                rec.record(&st.windows, held, op_span);
                if let (Some(s), Some(r)) = (spans.as_mut(), release) {
                    s[3].push(ns(r, Instant::now()));
                }
            }
            None => bump(&tally.timeouts),
        }
        if let Some(s) = spans.as_mut() {
            s[step.op as usize].push(op_span);
        }
        slot.end();
    }
    rec.flush(&st.windows);
    // The other thread may be waiting for this one to flip the parity:
    // keep flipping it (unmeasured) until that thread is done too, or
    // for one more stall window once the watchdog has stopped the run.
    st.done[t].store(true, Ordering::Release);
    let mut give_up = None;
    while !st.done[1 - t].load(Ordering::Acquire) {
        if st.progress.stopped()
            && Instant::now() >= *give_up.get_or_insert_with(|| Instant::now() + STALL_WINDOW)
        {
            break;
        }
        *h.lock() += 1;
        bump(&tally.acquired);
    }
}

/// Takes the lock and holds it until the watchdog stops the run: the
/// injected stall.
fn hog(st: &State) {
    let mut h = st.mutex.handle();
    let _guard = h.lock();
    while !st.progress.stopped() {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Run `mutex_pair` once.
pub fn run(cfg: RunConfig) -> RunResult {
    run_with(cfg, false)
}

/// Run `mutex_pair` with a third thread that takes the lock at the
/// start and holds it until the watchdog fires: an injected stall.
pub fn run_hogged(cfg: RunConfig) -> RunResult {
    run_with(cfg, true)
}

fn run_with(cfg: RunConfig, hogged: bool) -> RunResult {
    let (setup_s, setup_reps, mutex) = timed_setup(SETUP_REPS, || AbortableMutex::new(0u64));
    let st = Arc::new(State {
        mutex,
        done: Default::default(),
        progress: Progress::new(THREADS),
        windows: Windows::new(cfg.seconds),
        tallies: (0..THREADS).map(|_| Tally::default()).collect(),
        spans: TraceSpans::default(),
    });
    st.windows.begin();
    let work_st = Arc::clone(&st);
    let ended = drive(
        &st.progress,
        Some(&st.windows),
        STALL_WINDOW,
        move || {
            std::thread::scope(|s| {
                if hogged {
                    s.spawn(|| hog(&work_st));
                }
                for t in 0..THREADS {
                    let st = &work_st;
                    s.spawn(move || worker(st, t, cfg));
                }
            });
        },
        || {},
    );

    let mut r = RunResult {
        setup_s,
        setup_reps,
        windows: st.windows.finish(),
        attempted: st.progress.started(),
        stalled: ended.stalled,
        ..RunResult::default()
    };
    let acquired: u64 = st
        .tallies
        .iter()
        .map(|t| t.acquired.load(Ordering::Relaxed))
        .sum();
    let timeouts: u64 = st
        .tallies
        .iter()
        .map(|t| t.timeouts.load(Ordering::Relaxed))
        .sum();
    if ended.stalled {
        r.failed += ended.unresolved;
    } else {
        // Every handle is gone: the lock must be free, nobody waiting,
        // and the counter must hold every increment.
        let mut h = st.mutex.handle();
        match h.try_lock() {
            Some(g) if *g == acquired => {}
            Some(g) => r.problem(
                acquired.abs_diff(*g),
                format!(
                    "mutex_pair lost updates: counter {} after {acquired} acquisitions",
                    *g
                ),
            ),
            None => r.problem(1, "mutex_pair: lock still held after the run".into()),
        }
        if st.mutex.waiters() != 0 {
            r.problem(
                1,
                format!("mutex_pair: {} waiters left", st.mutex.waiters()),
            );
        }
    }
    r.notes.push(format!(
        "mutex_pair think time: mean {:.0} ns per attempt (median of 15 passes over 4096 attempts)",
        think_ns(cfg.seed, 4096, 15)
    ));
    if cfg.trace {
        let per_1k = |x: u64| 1000.0 * x as f64 / acquired.max(1) as f64;
        let sp = &st.spans;
        let lock = sp.lock.summary();
        let ccs = st.mutex.ccs_stats();
        r.layers = vec![
            metric(
                "sync.lock.ns_p50",
                lock.map_or(f64::NAN, |s| s.p50),
                "ns",
                lock.map_or(0, |s| s.n),
            ),
            metric(
                "sync.lock.ns_p99",
                lock.map_or(f64::NAN, |s| s.p99),
                "ns",
                lock.map_or(0, |s| s.n),
            ),
            sp.try_lock_for.p50_metric("sync.try_lock_for.ns_p50"),
            sp.lock_when.p50_metric("sync.lock_when.ns_p50"),
            sp.guard_drop.p50_metric("sync.guard_drop.ns_p50"),
            metric("sync.timeouts_per_1k", per_1k(timeouts), "per_1k", acquired),
            metric("ccs.waits", per_1k(ccs.waits), "per_1k", acquired),
            metric("ccs.wakeups", per_1k(ccs.wakeups), "per_1k", acquired),
            metric(
                "ccs.futile_wakeups",
                per_1k(ccs.futile_wakeups),
                "per_1k",
                acquired,
            ),
            metric("ccs.evaluated", per_1k(ccs.evaluated), "per_1k", acquired),
            metric(
                "ccs.transitions",
                per_1k(ccs.transitions),
                "per_1k",
                acquired,
            ),
        ];
    }
    r
}

/// A lock driven by [`drive_pair`]: the reference locks and the
/// long-lived core without the `sal-sync` surface.
pub trait PairLock: Send + Sync + 'static {
    /// One passage as `pid`: acquire per `op` (`LockWhen` acquires like
    /// `Lock`), run `cs`, release. Returns when the lock was held and
    /// when the release began, or `None` if the attempt timed out.
    fn passage(&self, pid: usize, op: Op, cs: &mut dyn FnMut()) -> Option<(Instant, Instant)>;
}

/// What [`drive_pair`] measured.
#[derive(Debug)]
pub struct PairResult {
    /// Throughput and enter latency, as for the workloads.
    pub run: RunResult,
    /// Enter spans of the `Lock`/`LockWhen` attempts.
    pub enter: Spans,
    /// Release spans.
    pub exit: Spans,
    /// Successful acquisitions.
    pub acquired: u64,
}

struct PairState<L> {
    lock: Arc<L>,
    counter: AtomicU64,
    progress: Progress,
    windows: Windows,
    tallies: Vec<Tally>,
    enter: Spans,
    exit: Spans,
}

/// The `mutex_pair` loop over any [`PairLock`], with spans on.
pub fn drive_pair<L: PairLock>(lock: Arc<L>, seed: u64, seconds: Duration) -> PairResult {
    let st = Arc::new(PairState {
        lock,
        counter: AtomicU64::new(0),
        progress: Progress::new(THREADS),
        windows: Windows::new(seconds),
        tallies: (0..THREADS).map(|_| Tally::default()).collect(),
        enter: Spans::default(),
        exit: Spans::default(),
    });
    st.windows.begin();
    let work = Arc::clone(&st);
    let ended = drive(
        &st.progress,
        Some(&st.windows),
        STALL_WINDOW,
        move || {
            std::thread::scope(|s| {
                for t in 0..THREADS {
                    let st = &work;
                    s.spawn(move || pair_worker(st, t, seed));
                }
            });
        },
        || {},
    );
    let acquired: u64 = st
        .tallies
        .iter()
        .map(|t| t.acquired.load(Ordering::Relaxed))
        .sum();
    let mut run = RunResult {
        windows: st.windows.finish(),
        attempted: st.progress.started(),
        stalled: ended.stalled,
        ..RunResult::default()
    };
    if ended.stalled {
        run.failed += ended.unresolved;
    } else if st.counter.load(Ordering::Relaxed) != acquired {
        run.problem(
            acquired.abs_diff(st.counter.load(Ordering::Relaxed)),
            "pair loop lost updates".into(),
        );
    }
    let st = match Arc::try_unwrap(st) {
        Ok(st) => st,
        Err(_) => panic!("pair workers abandoned after a stall"),
    };
    PairResult {
        run,
        enter: st.enter,
        exit: st.exit,
        acquired,
    }
}

fn pair_worker<L: PairLock>(st: &PairState<L>, t: usize, seed: u64) {
    let slot = st.progress.slot(t);
    let tally = &st.tallies[t];
    let mut rec = Recorder::default();
    let mut enter = SpanBuf::new(&st.enter);
    let mut exit = SpanBuf::new(&st.exit);
    let end = st.windows.end();
    // Not an atomic increment: a lost update would show in the count.
    let mut cs = || {
        let v = st.counter.load(Ordering::Relaxed);
        st.counter.store(v + 1, Ordering::Relaxed);
    };
    for step in Ops::new(seed, t) {
        think(step.think, seed);
        let t0 = Instant::now();
        if t0 >= end || st.progress.stopped() {
            break;
        }
        slot.begin();
        if let Some((held, release)) = st.lock.passage(t, step.op, &mut cs) {
            let done = Instant::now();
            bump(&tally.acquired);
            rec.record(&st.windows, held, ns(t0, held));
            if step.op != Op::TryLockFor {
                enter.push(ns(t0, held));
            }
            exit.push(ns(release, done));
        } else {
            bump(&tally.timeouts);
        }
        slot.end();
    }
    rec.flush(&st.windows);
}
