//! The traced run: per-layer metrics for every layer, whatever the
//! workload named on the command line.
//!
//! Every workload runs twice, untraced and then traced, and the
//! difference of their enter-latency medians is that workload's tracing
//! overhead. The named workload gets half of `--seconds` for each of its
//! two runs, the others an eighth. Spans are taken in this crate around
//! calls into each layer's public functions; nothing inside the program
//! is instrumented. On top come single-layer probes: the long-lived
//! core driven directly (solo and in the `mutex_pair` loop), the
//! one-shot lock and its tree, the `Mem` implementations, and the
//! reference locks on the `mutex_pair` loop.

use crate::measure::{median, ns, Summary};
use crate::mutex_pair::{drive_pair, Op, PairLock, PairResult, TRY_FOR};
use crate::{metric, run_workload, Metric, RunConfig, RunResult, Workload, PER_LAYER};
use sal_baselines::TasLock;
use sal_core::long_lived::{BoundedLongLivedLock, JjLock};
use sal_core::one_shot::OneShotLock;
use sal_core::tree::Tree;
use sal_core::LockCore;
use sal_memory::{AbortSignal, Deadline, Mem, MemoryBuilder, NeverAbort, RawMemory};
use sal_obs::NoProbe;
use sal_runtime::SmallRng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Capacity and branching of the product's lock (`AbortableMutex::new`).
pub const CAPACITY: usize = 64;
/// Tree branching factor of the product's lock.
pub const W: usize = 64;

/// Shared-memory operations and RMRs over a number of passages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassageCount {
    /// Operations.
    pub ops: u64,
    /// Remote memory references.
    pub rmrs: u64,
    /// Passages.
    pub passages: u64,
}

impl PassageCount {
    fn per(self, x: u64) -> f64 {
        x as f64 / self.passages.max(1) as f64
    }
}

/// Uncontended passages of the bounded long-lived lock at the product's
/// capacity and branching over `CcMemory`: pids 0 and 1 alternate.
pub fn long_lived_exact() -> PassageCount {
    const PASSAGES: u64 = 1000;
    let mut b = MemoryBuilder::new();
    let lock = BoundedLongLivedLock::layout(&mut b, CAPACITY, W);
    let mem = b.build_cc(CAPACITY);
    for i in 0..PASSAGES {
        let pid = (i % 2) as usize;
        assert!(lock.enter_core(&mem, pid, &NeverAbort, &NoProbe).entered());
        lock.exit_core(&mem, pid, &NoProbe);
    }
    PassageCount {
        ops: (0..CAPACITY).map(|p| mem.ops(p)).sum(),
        rmrs: mem.total_rmrs(),
        passages: PASSAGES,
    }
}

/// One uncontended passage per pid of the one-shot lock at the
/// product's capacity and branching over `CcMemory`.
pub fn one_shot_exact() -> PassageCount {
    let mut b = MemoryBuilder::new();
    let lock = OneShotLock::layout(&mut b, CAPACITY, W);
    let mem = b.build_cc(CAPACITY);
    for pid in 0..CAPACITY {
        assert!(lock.enter(&mem, pid, &NeverAbort).entered());
        lock.exit(&mem, pid);
    }
    PassageCount {
        ops: (0..CAPACITY).map(|p| mem.ops(p)).sum(),
        rmrs: mem.total_rmrs(),
        passages: CAPACITY as u64,
    }
}

/// A `LockCore` over raw atomics, as `sal-sync` drives it.
pub struct CoreLock<L> {
    /// The lock.
    pub lock: L,
    mem: RawMemory,
}

impl<L> CoreLock<L> {
    /// Lay out a lock for `n` pids with `make`.
    pub fn new(n: usize, make: impl FnOnce(&mut MemoryBuilder) -> L) -> Self {
        let mut b = MemoryBuilder::new();
        let lock = make(&mut b);
        CoreLock {
            lock,
            mem: b.build_raw(n),
        }
    }

    fn passage_with<S: AbortSignal>(
        &self,
        pid: usize,
        signal: &S,
        cs: &mut dyn FnMut(),
    ) -> Option<(Instant, Instant)>
    where
        L: LockCore<RawMemory, NoProbe>,
    {
        if !self
            .lock
            .enter_core(&self.mem, pid, signal, &NoProbe)
            .entered()
        {
            return None;
        }
        let held = Instant::now();
        cs();
        let release = Instant::now();
        self.lock.exit_core(&self.mem, pid, &NoProbe);
        Some((held, release))
    }
}

impl<L: LockCore<RawMemory, NoProbe> + 'static> PairLock for CoreLock<L> {
    fn passage(&self, pid: usize, op: Op, cs: &mut dyn FnMut()) -> Option<(Instant, Instant)> {
        match op {
            Op::TryLockFor => self.passage_with(pid, &Deadline::after(TRY_FOR), cs),
            Op::Lock | Op::LockWhen => self.passage_with(pid, &NeverAbort, cs),
        }
    }
}

/// `std::sync::Mutex`, with `try_lock_for` as a `try_lock` spin until
/// the deadline.
#[derive(Debug, Default)]
pub struct StdLock(std::sync::Mutex<()>);

impl PairLock for StdLock {
    fn passage(&self, _pid: usize, op: Op, cs: &mut dyn FnMut()) -> Option<(Instant, Instant)> {
        let guard = if op == Op::TryLockFor {
            let deadline = Instant::now() + TRY_FOR;
            loop {
                if let Ok(g) = self.0.try_lock() {
                    break g;
                }
                if Instant::now() >= deadline {
                    return None;
                }
                std::hint::spin_loop();
            }
        } else {
            self.0.lock().expect("reference mutex poisoned")
        };
        let held = Instant::now();
        cs();
        let release = Instant::now();
        drop(guard);
        Some((held, release))
    }
}

/// Median ns per call of `batch` calls, over batches run for `budget`.
fn per_call(budget: Duration, mut batch: impl FnMut() -> (Duration, u64)) -> (f64, u64) {
    let until = Instant::now() + budget;
    let mut per = Vec::new();
    while per.is_empty() || Instant::now() < until {
        let (d, calls) = batch();
        per.push(d.as_nanos() as f64 / calls.max(1) as f64);
    }
    (median(&per), per.len() as u64)
}

/// Solo passages of the long-lived core over raw atomics: enter and
/// exit span medians.
fn long_lived_solo(budget: Duration) -> (f64, f64, u64) {
    let core = CoreLock::new(CAPACITY, |b| BoundedLongLivedLock::layout(b, CAPACITY, W));
    let (mut e, mut x) = (Vec::new(), Vec::new());
    let until = Instant::now() + budget;
    while Instant::now() < until || e.is_empty() {
        for _ in 0..1000 {
            let t0 = Instant::now();
            core.lock.enter_core(&core.mem, 0, &NeverAbort, &NoProbe);
            let t1 = Instant::now();
            core.lock.exit_core(&core.mem, 0, &NoProbe);
            let t2 = Instant::now();
            e.push(ns(t0, t1));
            x.push(ns(t1, t2));
        }
    }
    let p50 = |v: &mut Vec<u32>| Summary::of(v).map_or(f64::NAN, |s| s.p50);
    (p50(&mut e), p50(&mut x), e.len() as u64)
}

/// One-shot passages (64 pids, once each) per batch, over raw atomics.
fn one_shot_passage(budget: Duration) -> (f64, u64) {
    per_call(budget, || {
        let core = CoreLock::new(CAPACITY, |b| OneShotLock::layout(b, CAPACITY, W));
        let t = Instant::now();
        for pid in 0..CAPACITY {
            black_box(core.lock.enter(&core.mem, pid, &NeverAbort));
            core.lock.exit(&core.mem, pid);
        }
        (t.elapsed(), CAPACITY as u64)
    })
}

/// `Tree::remove` of a seeded half of the leaves, then `find_next` from
/// every leaf, per fresh tree.
fn tree_calls(budget: Duration) -> (f64, f64, u64) {
    let mut rng = SmallRng::seed_from_u64(7);
    let (mut remove, mut find) = (Vec::new(), Vec::new());
    let until = Instant::now() + budget;
    while Instant::now() < until || remove.is_empty() {
        let mut b = MemoryBuilder::new();
        let tree = Tree::layout(&mut b, CAPACITY, W);
        let mem = b.build_raw(1);
        let mut leaves: Vec<u64> = (0..CAPACITY as u64).collect();
        for i in (1..leaves.len()).rev() {
            leaves.swap(i, rng.random_range(0..i + 1));
        }
        let half = &leaves[..CAPACITY / 2];
        let t = Instant::now();
        for &p in half {
            tree.remove(&mem, 0, p);
        }
        remove.push(t.elapsed().as_nanos() as f64 / half.len() as f64);
        let t = Instant::now();
        for p in 0..CAPACITY as u64 {
            black_box(tree.find_next(&mem, 0, p));
        }
        find.push(t.elapsed().as_nanos() as f64 / CAPACITY as f64);
    }
    (median(&find), median(&remove), find.len() as u64)
}

/// A fixed stream of 4096 operations over 64 words by two pids,
/// against any `Mem`.
fn mem_stream<M: Mem>(mem: &M, words: &[sal_memory::WordId]) -> u64 {
    let mut rng = SmallRng::seed_from_u64(11);
    let mut acc = 0u64;
    for _ in 0..4096 {
        let r = rng.next_u64();
        let (p, w) = ((r & 1) as usize, words[(r >> 1) as usize % words.len()]);
        acc = acc.wrapping_add(match (r >> 8) % 5 {
            0 => mem.read(p, w),
            1 => {
                mem.write(p, w, r >> 32);
                0
            }
            2 => u64::from(mem.cas(p, w, r >> 40, r >> 32)),
            3 => mem.faa(p, w, 1),
            _ => mem.swap(p, w, r >> 32),
        });
    }
    acc
}

fn mem_ns_per_op(budget: Duration) -> (f64, f64, u64) {
    let layout = || {
        let mut b = MemoryBuilder::new();
        let words: Vec<_> = (0..64).map(|_| b.alloc(0)).collect();
        (b, words)
    };
    let (b, words) = layout();
    let cc = b.build_cc(2);
    let (b, _) = layout();
    let raw = b.build_raw(2);
    let (cc_ns, n) = per_call(budget / 2, || {
        let t = Instant::now();
        black_box(mem_stream(&cc, &words));
        (t.elapsed(), 4096)
    });
    let (raw_ns, _) = per_call(budget / 2, || {
        let t = Instant::now();
        black_box(mem_stream(&raw, &words));
        (t.elapsed(), 4096)
    });
    (cc_ns, raw_ns, n)
}

/// The traced run; see the module docs. Returns the runs of the named
/// workload and of the single-layer probes (their attempts are the
/// run's attempts), the other workloads' runs (whose wrong outputs
/// still make the run incorrect), and the metrics in [`PER_LAYER`]
/// order.
pub fn traced_suite(
    workload: Workload,
    seed: u64,
    seconds: Duration,
) -> (Vec<RunResult>, Vec<RunResult>, Vec<Metric>) {
    let long = seconds / 2;
    let short = (seconds / 8).max(Duration::from_millis(250));
    let (mut results, mut others) = (Vec::new(), Vec::new());
    let mut found: Vec<Metric> = Vec::new();
    for wl in Workload::ALL {
        let d = if wl == workload { long } else { short };
        let cfg = RunConfig {
            seed,
            seconds: d,
            trace: false,
        };
        let plain = run_workload(wl, cfg);
        let mut traced = run_workload(wl, RunConfig { trace: true, ..cfg });
        let name = match wl {
            Workload::MutexPair => "trace.mutex_pair.overhead_ns",
            Workload::AsyncTasks => "trace.async_tasks.overhead_ns",
            Workload::ArenaZipf => "trace.arena_zipf.overhead_ns",
            Workload::SimCheck => "trace.sim_check.overhead_ns",
        };
        found.push(metric(
            name,
            traced.p50() - plain.p50(),
            "ns",
            traced.windows.samples,
        ));
        if wl == Workload::AsyncTasks {
            let stalls = u8::from(plain.stalled) + u8::from(traced.stalled);
            found.push(metric("async.stalls", f64::from(stalls), "count", 2));
        }
        found.append(&mut traced.layers);
        let runs = if wl == workload {
            &mut results
        } else {
            &mut others
        };
        runs.push(plain);
        runs.push(traced);
    }

    let ll = Arc::new(CoreLock::new(CAPACITY, |b| {
        BoundedLongLivedLock::layout(b, CAPACITY, W)
    }));
    let pair = drive_pair(Arc::clone(&ll), seed, short);
    let (spin_waits, _, switches, cas_failures) = ll.lock.stats().snapshot();
    let per_1k = |x: u64| 1000.0 * x as f64 / pair.acquired.max(1) as f64;
    found.extend([
        pair.enter.p50_metric("long_lived.enter.ns_p50"),
        pair.exit.p50_metric("long_lived.exit.ns_p50"),
        metric(
            "long_lived.switches",
            per_1k(switches),
            "per_1k",
            pair.acquired,
        ),
        metric(
            "long_lived.switch_cas_failures",
            per_1k(cas_failures),
            "per_1k",
            pair.acquired,
        ),
        metric(
            "long_lived.spin_waits",
            per_1k(spin_waits),
            "per_1k",
            pair.acquired,
        ),
    ]);
    results.push(pair.run);

    let probe = Duration::from_millis(200);
    let (solo_enter, solo_exit, solo_n) = long_lived_solo(probe);
    let (ll_exact, os_exact) = (long_lived_exact(), one_shot_exact());
    let (os_ns, os_n) = one_shot_passage(probe);
    let (find_ns, remove_ns, tree_n) = tree_calls(probe);
    let (cc_ns, raw_ns, mem_n) = mem_ns_per_op(probe);
    found.extend([
        metric("long_lived.solo.enter.ns_p50", solo_enter, "ns", solo_n),
        metric("long_lived.solo.exit.ns_p50", solo_exit, "ns", solo_n),
        metric(
            "long_lived.ops_per_passage",
            ll_exact.per(ll_exact.ops),
            "ops",
            ll_exact.passages,
        ),
        metric(
            "long_lived.rmrs_per_passage",
            ll_exact.per(ll_exact.rmrs),
            "rmrs",
            ll_exact.passages,
        ),
        metric("one_shot.passage.ns", os_ns, "ns", os_n),
        metric(
            "one_shot.ops_per_passage",
            os_exact.per(os_exact.ops),
            "ops",
            os_exact.passages,
        ),
        metric("tree.find_next.ns", find_ns, "ns", tree_n),
        metric("tree.remove.ns", remove_ns, "ns", tree_n),
        metric("memory.cc.ns_per_op", cc_ns, "ns", mem_n),
        metric("memory.raw.ns_per_op", raw_ns, "ns", mem_n),
    ]);

    let refs: [(&'static str, &'static str, PairResult); 3] = [
        (
            "ref.std.acquires_per_s",
            "ref.std.enter_p50_ns",
            drive_pair(Arc::new(StdLock::default()), seed, short),
        ),
        (
            "ref.jj.acquires_per_s",
            "ref.jj.enter_p50_ns",
            drive_pair(
                Arc::new(CoreLock::new(2, |b| JjLock::layout(b, 2))),
                seed,
                short,
            ),
        ),
        (
            "ref.tas.acquires_per_s",
            "ref.tas.enter_p50_ns",
            drive_pair(Arc::new(CoreLock::new(2, TasLock::layout)), seed, short),
        ),
    ];
    for (rate, p50, r) in refs {
        let e2e = r.run.end_to_end();
        found.push(metric(rate, e2e[0].value, "1/s", e2e[0].samples));
        found.push(metric(p50, e2e[1].value, "ns", e2e[1].samples));
        results.push(r.run);
    }

    let value = |name: &str| {
        found
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    };
    let surface = value("sync.lock.ns_p50") - value("long_lived.enter.ns_p50");
    found.push(metric("sync.surface_self.ns", surface, "ns", 1));

    let metrics = PER_LAYER
        .iter()
        .map(|&name| {
            found
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| metric(name, f64::NAN, "", 0))
        })
        .collect();
    (results, others, metrics)
}
