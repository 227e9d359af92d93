//! `arena_zipf`: two threads over `Arena::<u64, u64>::new()`. Keys come
//! from `0..2^20`, drawn zipf(1.1) from a seeded exact CDF; the mix is
//! 7/8 `lock(&k)` and 1/8 `try_lock(&k)`, and the critical section
//! increments the key's value. Each worker replays the first
//! [`STREAM`] steps of its seeded stream in a loop, so the set of keys
//! touched, and with it the shard maps' memory, is fixed by the seed
//! and reached early rather than growing with throughput.
//!
//! Most acquisitions hit cold keys on the one-word inline path and
//! never touch a lock core, while the hot head promotes and demotes. A
//! change to the long-lived transformation should not move this
//! workload; a change to the inline word or the shard map should move
//! only this one.

use crate::measure::{
    bump, drive, ns, peak_rss_mb, rss_mb, timed_setup, Progress, Recorder, SpanBuf, Spans, Windows,
    STALL_WINDOW,
};
use crate::{metric, RunConfig, RunResult};
use sal_obs::fp::mix64;
use sal_runtime::SmallRng;
use sal_sync::Arena;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Threads in the loop.
pub const THREADS: usize = 2;
/// Key universe.
pub const KEYS: usize = 1 << 20;
/// Zipf exponent.
pub const THETA: f64 = 1.1;
/// The hot keys: the 64 most frequent, which are keys `0..64`.
pub const HOT: u64 = 64;
/// Keys whose final values are checked against the threads' counts.
/// Under zipf(1.1) they carry 77 % of the acquisitions, including every
/// contended one worth checking.
pub const CHECKED: usize = 4096;
/// Steps per worker before its stream repeats.
pub const STREAM: usize = 1 << 18;
/// Fewest set-up repetitions behind `setup_s`.
const SETUP_REPS: usize = 15;

/// One attempt of the op stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// The key.
    pub key: u32,
    /// `try_lock` instead of `lock`.
    pub try_lock: bool,
}

/// The first `len` steps of worker `worker`'s stream for `seed`. Key
/// `k` has rank `k + 1` and is drawn with probability proportional to
/// `(k + 1)^-θ`: each uniform draw `u` is inverted through the exact
/// CDF, found in one sweep over the ranks with the draws sorted, so no
/// CDF table is held. The streams themselves, and the draws and order
/// built for them, are part of the process's peak memory; every run
/// notes how much of it was reached before the arena was built.
pub fn stream(seed: u64, worker: usize, len: usize) -> Vec<Step> {
    let mut rng = SmallRng::seed_from_u64(mix64(seed ^ mix64(worker as u64 + 0xa7e4a)));
    let mut steps = Vec::with_capacity(len);
    let draws: Vec<f64> = (0..len)
        .map(|_| {
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            steps.push(Step {
                key: KEYS as u32 - 1,
                try_lock: rng.next_u64().is_multiple_of(8),
            });
            u
        })
        .collect();
    let mut order: Vec<u32> = (0..len as u32).collect();
    order.sort_by(|&a, &b| draws[a as usize].total_cmp(&draws[b as usize]));
    let weight = |rank: usize| (rank as f64).powf(-THETA);
    let total: f64 = (1..=KEYS).map(weight).sum();
    let (mut acc, mut next) = (0.0, order.iter().peekable());
    for rank in 1..=KEYS {
        acc += weight(rank);
        // Key `rank - 1` takes every draw below its CDF value.
        while let Some(&&i) = next.peek() {
            if draws[i as usize] >= acc / total {
                break;
            }
            steps[i as usize].key = rank as u32 - 1;
            next.next();
        }
    }
    steps
}

#[derive(Debug, Default)]
struct TraceSpans {
    hot: Spans,
    cold: Spans,
    try_lock: Spans,
}

struct State {
    arena: Arena<u64, u64>,
    /// Per worker: the steps it replays.
    streams: Vec<Vec<Step>>,
    progress: Progress,
    windows: Windows,
    /// Per thread: successful acquisitions of each checked key,
    /// written only by that thread; the last entry counts every key.
    counts: Vec<Vec<AtomicU64>>,
    spans: TraceSpans,
}

fn worker(st: &State, t: usize, cfg: RunConfig) {
    let slot = st.progress.slot(t);
    let counts = &st.counts[t];
    let mut rec = Recorder::default();
    let mut spans = cfg.trace.then(|| {
        [
            SpanBuf::new(&st.spans.hot),
            SpanBuf::new(&st.spans.cold),
            SpanBuf::new(&st.spans.try_lock),
        ]
    });
    let end = st.windows.end();
    for &step in st.streams[t].iter().cycle() {
        let t0 = Instant::now();
        if t0 >= end || st.progress.stopped() {
            break;
        }
        slot.begin();
        let guard = if step.try_lock {
            st.arena.try_lock(&u64::from(step.key))
        } else {
            Some(st.arena.lock(&u64::from(step.key)))
        };
        let held = Instant::now();
        if let Some(mut g) = guard {
            *g += 1;
            drop(g);
            if let Some(c) = counts[..CHECKED].get(step.key as usize) {
                bump(c);
            }
            bump(&counts[CHECKED]);
            rec.record(&st.windows, held, ns(t0, held));
        }
        if let Some(s) = spans.as_mut() {
            let site = match (step.try_lock, u64::from(step.key) < HOT) {
                (true, _) => 2,
                (false, true) => 0,
                (false, false) => 1,
            };
            s[site].push(ns(t0, held));
        }
        slot.end();
    }
    rec.flush(&st.windows);
}

/// Run `arena_zipf` once.
pub fn run(cfg: RunConfig) -> RunResult {
    let streams = (0..THREADS).map(|t| stream(cfg.seed, t, STREAM)).collect();
    let (resident, peak) = (rss_mb(), peak_rss_mb());
    let (setup_s, setup_reps, arena) = timed_setup(SETUP_REPS, Arena::<u64, u64>::new);
    let st = Arc::new(State {
        arena,
        streams,
        progress: Progress::new(THREADS),
        windows: Windows::new(cfg.seconds),
        counts: (0..THREADS)
            .map(|_| (0..=CHECKED).map(|_| AtomicU64::new(0)).collect())
            .collect(),
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
    let count = |k: usize| -> u64 { st.counts.iter().map(|c| c[k].load(Ordering::Relaxed)).sum() };
    let acquired = count(CHECKED);
    if ended.stalled {
        r.failed += ended.unresolved;
    } else {
        let resident = st.arena.stats().resident_cores;
        if resident != 0 {
            r.problem(
                resident as u64,
                format!("arena_zipf: {resident} cores still resident"),
            );
        }
        let lost: u64 = (0..CHECKED)
            .map(|k| {
                let key = k as u64;
                let v = *st
                    .arena
                    .try_lock(&key)
                    .expect("every key is free after the run");
                v.abs_diff(count(k))
            })
            .sum();
        if lost != 0 {
            r.problem(
                lost,
                format!("arena_zipf lost {lost} updates on the checked keys"),
            );
        }
    }
    r.notes.push(format!(
        "arena_zipf memory before the arena was built: {resident:.1} MiB resident \
         (op streams included), {peak:.1} MiB peak"
    ));
    if cfg.trace {
        let s = st.arena.stats();
        let per_1k = |x: u64| 1000.0 * x as f64 / acquired.max(1) as f64;
        r.layers = vec![
            st.spans.hot.p50_metric("arena.lock.ns_p50.hot"),
            st.spans.cold.p50_metric("arena.lock.ns_p50.cold"),
            st.spans.try_lock.p50_metric("arena.try_lock.ns_p50"),
            metric("arena.promotions", per_1k(s.promotions), "per_1k", acquired),
            metric("arena.demotions", per_1k(s.demotions), "per_1k", acquired),
            metric(
                "arena.raced_promotions",
                per_1k(s.raced_promotions),
                "per_1k",
                acquired,
            ),
            metric(
                "arena.fallback_spins",
                per_1k(s.fallback_spins),
                "per_1k",
                acquired,
            ),
            metric("arena.keys", s.keys as f64, "count", 1),
            metric("arena.built_cores", s.built_cores as f64, "count", 1),
        ];
    }
    r
}
