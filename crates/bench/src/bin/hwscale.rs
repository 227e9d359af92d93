//! hwscale — native hardware contention benchmark (M4).
//!
//! ```text
//! cargo run --release -p sal-bench --bin hwscale -- \
//!     [--smoke] [--duration-ms N] [--lock NAME]
//! ```
//!
//! Real OS threads hammer each lock over bare [`RawMemory`] for a fixed
//! wall-clock duration per cell, through the registry's [`AnyLock`]
//! (`LockCore<RawMemory, NoProbe>`: memory ops inline to direct
//! `AtomicU64` accesses, the kind is picked by one `match`).
//!
//! Grid: lock kind × thread count × abort rate. Each cell reports
//! entered/aborted passage counts, throughput and an enter-latency
//! histogram (sampled, nanoseconds). The lost-update invariant from
//! `real_threads_stress` is asserted on every cell: the CS increments
//! an unprotected cell, which must match the entered count.
//!
//! Results go to stdout as a table and to `BENCH_hwscale.json`
//! (machine-readable, with caveat fields: single-CPU containers
//! serialize threads, so contended cells there reflect code-path cost,
//! not parallel contention — see EXPERIMENTS.md M4). A full run writes
//! it at the repo root, a `--smoke` run under `target/experiments/`.

use sal_bench::{amortized_companion, AnyLock, LockKind, Table};
use sal_core::{Immediate, LockCore};
use sal_memory::{MemoryBuilder, NeverAbort, RawMemory};
use sal_obs::{AmortizedStats, Histogram, Json, NoProbe, ToJson};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// One cell's measured run.
struct CellRun {
    entered: u64,
    aborted: u64,
    elapsed: Duration,
    /// Enter latency of entered passages, nanoseconds, sampled 1-in-16.
    lat: Histogram,
}

impl CellRun {
    fn throughput(&self) -> f64 {
        self.entered as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("entered", self.entered.to_json()),
            ("aborted", self.aborted.to_json()),
            ("elapsed_ns", (self.elapsed.as_nanos() as u64).to_json()),
            ("throughput_per_sec", self.throughput().to_json()),
            (
                "enter_ns",
                Json::obj(vec![
                    ("samples", self.lat.count().to_json()),
                    ("p50", self.lat.quantile(0.50).to_json()),
                    ("p95", self.lat.quantile(0.95).to_json()),
                    ("p99", self.lat.quantile(0.99).to_json()),
                    ("max", self.lat.max().to_json()),
                    ("mean", self.lat.mean().to_json()),
                ]),
            ),
        ])
    }
}

/// Per-cell knobs.
struct CellCfg {
    duration: Duration,
    /// Every k-th attempt of a thread uses a pre-fired abort signal.
    abort_every: Option<usize>,
    /// Shared attempt cap for per-attempt kinds (their layouts hold
    /// exactly this many enter attempts); `None` = unbounded kinds.
    attempt_budget: Option<u64>,
}

/// The cell driver: `threads` real threads hammer `lock` over `mem`
/// until the deadline (or the shared attempt budget) runs out.
fn drive(lock: &AnyLock, mem: &RawMemory, threads: usize, cfg: &CellCfg) -> CellRun {
    // The protected counter lives outside the lock's memory: a
    // non-atomic cell only ever touched inside the CS, so any mutual
    // exclusion failure shows up as a lost update.
    struct Cell(std::cell::UnsafeCell<u64>);
    unsafe impl Sync for Cell {}
    let counter = Cell(std::cell::UnsafeCell::new(0));
    let entered = AtomicU64::new(0);
    let aborted = AtomicU64::new(0);
    let budget = cfg.attempt_budget.map(AtomicU64::new);
    // Main thread joins the barrier so the clock starts when the
    // workers are released, not when they are spawned.
    let barrier = Barrier::new(threads + 1);

    let (hists, elapsed) = std::thread::scope(|s| {
        let counter = &counter;
        let entered = &entered;
        let aborted = &aborted;
        let budget = budget.as_ref();
        let barrier = &barrier;
        let handles: Vec<_> = (0..threads)
            .map(|p| {
                s.spawn(move || {
                    let mut lat = Histogram::new();
                    barrier.wait();
                    let deadline = Instant::now() + cfg.duration;
                    let mut i = 0usize;
                    loop {
                        // Clock calls cost as much as a fast passage, so
                        // check the deadline and sample latency only on
                        // (staggered) 1-in-16 iterations.
                        if i & 15 == 0 && Instant::now() >= deadline {
                            break;
                        }
                        if let Some(b) = budget {
                            if b.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                                v.checked_sub(1)
                            })
                            .is_err()
                            {
                                break;
                            }
                        }
                        let want_abort = cfg
                            .abort_every
                            .map(|k| (i + p).is_multiple_of(k))
                            .unwrap_or(false);
                        let sample = i & 15 == 8;
                        let t0 = sample.then(Instant::now);
                        let ok = if want_abort {
                            // Pre-fired signal: abort at the first wait,
                            // succeed if handed the lock before it.
                            lock.enter_core(mem, p, &Immediate, &NoProbe).entered()
                        } else {
                            lock.enter_core(mem, p, &NeverAbort, &NoProbe).entered()
                        };
                        if ok {
                            if let Some(t0) = t0 {
                                lat.record(t0.elapsed().as_nanos() as u64);
                            }
                            // Critical section: read-modify-write on the
                            // unprotected cell.
                            unsafe {
                                let c = counter.0.get();
                                let v = c.read();
                                std::hint::black_box(v);
                                c.write(v + 1);
                            }
                            lock.exit_core(mem, p, &NoProbe);
                            entered.fetch_add(1, Ordering::Relaxed);
                        } else {
                            aborted.fetch_add(1, Ordering::Relaxed);
                        }
                        i += 1;
                    }
                    lat
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let hists: Vec<Histogram> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (hists, start.elapsed())
    });

    let entered = entered.load(Ordering::Relaxed);
    assert_eq!(
        unsafe { *counter.0.get() },
        entered,
        "lost update: mutual exclusion violated on real threads"
    );
    let mut lat = Histogram::new();
    for h in &hists {
        lat.merge_from(h);
    }
    CellRun {
        entered,
        aborted: aborted.load(Ordering::Relaxed),
        elapsed,
        lat,
    }
}

/// Lay `kind` out over raw memory and run the cell. One-shot kinds
/// are excluded from the grid: each process may enter at most once,
/// which cannot sustain a fixed-duration throughput loop.
fn run_cell(kind: LockKind, threads: usize, cfg: &CellCfg) -> CellRun {
    let mut mb = MemoryBuilder::new();
    let attempts = cfg.attempt_budget.unwrap_or(0) as usize;
    let lock = AnyLock::layout(kind, &mut mb, threads, attempts);
    let mem = mb.build_raw(threads);
    drive(&lock, &mem, threads, cfg)
}

struct CellRow {
    lock: String,
    threads: usize,
    abort_every: Option<usize>,
    run: CellRun,
    /// Run-scoped amortized RMR accounting from the CC-instrumented
    /// companion run ([`amortized_companion`]).
    amortized: AmortizedStats,
    /// Companion probe totals == CC ground-truth counters, bit-exact.
    accounting_ok: bool,
}

impl ToJson for CellRow {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("lock", self.lock.to_json()),
            ("threads", (self.threads as u64).to_json()),
            ("abort_every", self.abort_every.map(|k| k as u64).to_json()),
            ("run", self.run.to_json()),
            ("amortized", self.amortized.to_json()),
            ("accounting_ok", self.accounting_ok.to_json()),
        ])
    }
}

fn main() {
    let p = sal_bench::Cli::new("hwscale", "wall-clock lock scaling on real threads")
        .flag("--smoke", "CI-sized run (short cells, fewer locks)")
        .opt("--duration-ms", "N", "per-cell measurement window")
        .opt("--lock", "NAME", "measure only this lock kind")
        .parse_env_or_exit();
    let smoke = p.smoke();
    let duration_ms: Option<u64> = p.get("--duration-ms").unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    // The FromStr path shared with sweep/explore — same NAMES-listing
    // error on a bad name.
    let only: Option<LockKind> = p.lock().map(|name| {
        name.parse().unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    });

    let duration = Duration::from_millis(duration_ms.unwrap_or(if smoke { 120 } else { 300 }));
    let budget: u64 = if smoke { 200_000 } else { 1_000_000 };
    let b = if smoke { 8 } else { 16 };
    let mut kinds: Vec<LockKind> = if smoke {
        vec![
            LockKind::Tas,
            LockKind::Mcs,
            LockKind::Scott,
            LockKind::LongLived { b },
            LockKind::JjAmortized,
        ]
    } else {
        // Registry-driven: every kind that can sustain a fixed-duration
        // loop (one-shot kinds cannot — each process enters at most
        // once). New kinds appear here automatically.
        LockKind::all(b)
            .into_iter()
            .filter(|k| !k.one_shot())
            .collect()
    };
    if let Some(k) = only {
        let k = k.with_branching(b);
        if k.one_shot() {
            eprintln!(
                "error: one-shot kinds cannot sustain a fixed-duration loop; \
                 pick a long-lived kind"
            );
            std::process::exit(2);
        }
        kinds = vec![k];
    }
    let thread_counts: &[usize] = if smoke { &[2, 4] } else { &[2, 4, 8] };
    let abort_rates: &[Option<usize>] = &[None, Some(4)];

    let nprocs = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mode = if smoke { "smoke" } else { "full" };
    println!(
        "hwscale ({mode}): {} kinds × {:?} threads × {:?} abort rates, \
         {}ms/cell, {nprocs} CPUs",
        kinds.len(),
        thread_counts,
        abort_rates,
        duration.as_millis()
    );

    let mut rows: Vec<CellRow> = Vec::new();
    for &kind in &kinds {
        for &threads in thread_counts {
            for &abort_every in abort_rates {
                if abort_every.is_some() && !kind.abortable() {
                    continue; // mcs/ticket ignore signals; skip the abort cells
                }
                let cfg = CellCfg {
                    duration,
                    abort_every,
                    attempt_budget: kind.per_attempt().then_some(budget),
                };
                let run = run_cell(kind, threads, &cfg);
                let (amortized, accounting_ok) =
                    amortized_companion(kind, threads, abort_every, if smoke { 100 } else { 400 });
                rows.push(CellRow {
                    lock: kind.label(),
                    threads,
                    abort_every,
                    run,
                    amortized,
                    accounting_ok,
                });
            }
        }
    }

    let mut table = Table::new(
        "M4 — hwscale: real threads on RawMemory",
        &[
            "lock",
            "thr",
            "abort",
            "passages/s",
            "aborted",
            "p50 ns",
            "p99 ns",
            "amort rmr",
        ],
    );
    for r in &rows {
        assert!(
            r.accounting_ok,
            "{} @ {} threads: companion probe totals diverged from CC ground truth",
            r.lock, r.threads
        );
        table.row(vec![
            r.lock.clone(),
            r.threads.to_string(),
            r.abort_every.map_or("-".into(), |k| format!("1/{k}")),
            format!("{:.0}", r.run.throughput()),
            r.run.aborted.to_string(),
            r.run
                .lat
                .quantile(0.50)
                .map_or("-".into(), |v| v.to_string()),
            r.run
                .lat
                .quantile(0.99)
                .map_or("-".into(), |v| v.to_string()),
            format!("{:.1}", r.amortized.amortized_rmrs),
        ]);
    }
    table.print();

    let mut caveats: Vec<String> = Vec::new();
    if nprocs == 1 {
        caveats.push(format!(
            "single-CPU container: {thread} threads time-share one core, so contended \
             cells measure code-path cost under preemption, not parallel cache traffic",
            thread = thread_counts.last().unwrap()
        ));
    }
    for c in &caveats {
        println!("caveat: {c}");
    }

    let out = Json::obj(vec![
        ("bench", "hwscale".to_json()),
        ("mode", mode.to_json()),
        ("available_parallelism", (nprocs as u64).to_json()),
        (
            "duration_ms_per_cell",
            (duration.as_millis() as u64).to_json(),
        ),
        ("caveats", caveats.to_json()),
        ("cells", rows.to_json()),
    ]);
    sal_bench::save_artifact("hwscale", smoke, &out);
}
