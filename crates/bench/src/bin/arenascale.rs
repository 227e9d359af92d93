//! arenascale — keyed lock arena vs per-key mutex maps (M7).
//!
//! ```text
//! cargo run --release -p sal-bench --bin arenascale -- [--smoke] [--ops N] [--threads a,b]
//! ```
//!
//! Real OS threads hammer a keyed critical section (`*value += 1`)
//! over a grid of key-space size × key-distribution skew × thread
//! count × abort rate, once per implementation:
//!
//! * **arena** — [`sal_sync::Arena`]: one inline atomic word per key,
//!   lock cores materialized from a bounded pool only while a key is
//!   actually contended.
//! * **stdmap** — the arena's own key index ([`KeyMap`]) holding one
//!   `std::sync::Mutex` per key (no abortability, the OS-futex
//!   yardstick).
//! * **abortmap** — a prebuilt `HashMap<K, AbortableMutex>`: the
//!   naive way to get per-key abortable locking, paying a full lock
//!   core per key up front. Skipped (with a caveat) beyond
//!   [`ABORTMAP_MAX_KEYS`] keys — materializing a million lock cores
//!   is exactly the cost the arena exists to avoid, and on this
//!   runner it would swamp the benchmark in allocation.
//!
//! Every cell asserts no lost updates (the per-key sums equal the
//! number of successful acquisitions) and, for the arena, that no
//! pooled core leaked (`resident_cores == 0` after the run).
//!
//! Results go to stdout as a table and to `BENCH_arena.json` (at the
//! repo root; under `target/experiments/` for `--smoke`): throughput, sampled p99 enter latency (`null` when a
//! cell recorded no samples — see `lat_samples`), and the resident
//! lock-object counts that make the memory story checkable
//! (`built_cores` for the arena vs `resident_objects` for the maps).
//! Arena and abortmap rows also carry `amortized` — run-scoped
//! [`AmortizedStats`] from a CC-instrumented
//! companion run of the lock core both wrap
//! ([`BoundedLongLivedLock`](sal_core::long_lived::BoundedLongLivedLock)
//! at the builder-default branching) under the cell's thread count and
//! abort pattern; RMRs do not exist on the raw hardware path, so the
//! companion is where the exact-model cost per cell comes from
//! (`accounting_ok` records the bit-exact ground-truth cross-check).
//! `stdmap` rows carry `null` — an OS futex has no lock core to
//! instrument.
//! `target_met` requires the arena to beat abortmap on every
//! uncontended-heavy skewed cell where both ran, and the arena's
//! built-core count to stay bounded by the pool (≪ keys) at the
//! largest key space.

use sal_bench::{amortized_companion, LockKind};
use sal_obs::{AmortizedStats, Histogram, Json, ToJson};
use sal_runtime::SmallRng;
use sal_sync::arena::KeyMap;
use sal_sync::{AbortableMutex, Arena};
use std::collections::HashMap;
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// Largest key space the prebuilt `AbortableMutex`-per-key baseline
/// is asked to cover.
const ABORTMAP_MAX_KEYS: usize = 16_384;

/// One enter-latency sample per this many operations.
const LAT_SAMPLE_EVERY: u64 = 16;

/// Key-distribution skew of a cell.
#[derive(Clone, Copy, PartialEq)]
enum Skew {
    /// Every key equally likely.
    Uniform,
    /// Zipf with exponent 1.1: a hot head plus a long uncontended
    /// tail — the adaptive case the arena is built for.
    Zipf,
}

impl Skew {
    fn name(self) -> &'static str {
        match self {
            Skew::Uniform => "uniform",
            Skew::Zipf => "zipf1.1",
        }
    }
}

/// Draws keys from `0..keys` under a [`Skew`]. Zipf uses an exact
/// precomputed CDF (one `powf` per key at build time, one binary
/// search per draw).
struct Sampler {
    keys: usize,
    cdf: Option<Box<[f64]>>,
}

impl Sampler {
    fn new(skew: Skew, keys: usize) -> Self {
        let cdf = match skew {
            Skew::Uniform => None,
            Skew::Zipf => {
                let mut weights: Vec<f64> = (0..keys)
                    .map(|i| 1.0 / ((i + 1) as f64).powf(1.1))
                    .collect();
                let mut acc = 0.0;
                for w in &mut weights {
                    acc += *w;
                    *w = acc;
                }
                for w in &mut weights {
                    *w /= acc;
                }
                Some(weights.into_boxed_slice())
            }
        };
        Sampler { keys, cdf }
    }

    fn sample(&self, rng: &mut SmallRng) -> u64 {
        match &self.cdf {
            None => rng.random_range(0..self.keys) as u64,
            Some(cdf) => {
                let u = rng.next_u64() as f64 / u64::MAX as f64;
                cdf.partition_point(|&c| c < u).min(self.keys - 1) as u64
            }
        }
    }
}

/// What one (cell × implementation) run measured.
struct Measured {
    entered: u64,
    aborted: u64,
    elapsed_s: f64,
    lat: Histogram,
    /// Lock objects resident *during* the run: built cores for the
    /// arena, map entries / prebuilt mutexes for the baselines.
    resident_objects: u64,
}

impl Measured {
    fn mops(&self, total_ops: u64) -> f64 {
        total_ops as f64 / self.elapsed_s / 1e6
    }
}

/// One grid cell: every implementation runs the same operation
/// sequence shape.
#[derive(Clone, Copy)]
struct Cell {
    keys: usize,
    skew: Skew,
    threads: usize,
    /// Every k-th operation is a `try_lock` that may abort; `None`
    /// runs pure blocking locks.
    abort_every: Option<u64>,
    ops_per_thread: u64,
}

/// Drive `ops_per_thread` operations per thread through `op`, which
/// returns `true` when the acquisition succeeded. `op` captures
/// whatever shared state the implementation needs; `local` builds one
/// private per-thread value (e.g. a handle cache) that `op` may
/// mutate without synchronization.
fn drive<L: Send>(
    cell: Cell,
    local: impl Fn(usize) -> L + Sync,
    op: impl Fn(&mut L, u64, bool) -> bool + Sync,
) -> (u64, u64, f64, Histogram) {
    let sampler = Sampler::new(cell.skew, cell.keys);
    let barrier = Barrier::new(cell.threads);
    let merged: Mutex<(u64, u64, Histogram)> = Mutex::new((0, 0, Histogram::new()));
    let start = Mutex::new(None::<Instant>);
    std::thread::scope(|s| {
        for t in 0..cell.threads {
            let (sampler, barrier, merged, start) = (&sampler, &barrier, &merged, &start);
            let (local, op) = (&local, &op);
            s.spawn(move || {
                let mut rng =
                    SmallRng::seed_from_u64(0x9E37 ^ ((t as u64) << 8) ^ cell.keys as u64);
                let mut l = local(t);
                let mut entered = 0u64;
                let mut aborted = 0u64;
                let mut lat = Histogram::new();
                barrier.wait();
                if t == 0 {
                    *start.lock().unwrap() = Some(Instant::now());
                }
                for i in 0..cell.ops_per_thread {
                    let key = sampler.sample(&mut rng);
                    let abortable = cell.abort_every.is_some_and(|k| i % k == 0);
                    let sample = i % LAT_SAMPLE_EVERY == 0;
                    if sample {
                        let t0 = Instant::now();
                        if op(&mut l, key, abortable) {
                            lat.record(t0.elapsed().as_nanos() as u64);
                            entered += 1;
                        } else {
                            aborted += 1;
                        }
                    } else if op(&mut l, key, abortable) {
                        entered += 1;
                    } else {
                        aborted += 1;
                    }
                }
                let mut m = merged.lock().unwrap();
                m.0 += entered;
                m.1 += aborted;
                m.2.merge_from(&lat);
            });
        }
    });
    let elapsed = start.lock().unwrap().expect("started").elapsed();
    let (entered, aborted, lat) =
        std::mem::replace(&mut *merged.lock().unwrap(), (0, 0, Histogram::new()));
    (entered, aborted, elapsed.as_secs_f64(), lat)
}

fn run_arena(cell: Cell) -> Measured {
    let arena: Arena<u64, u64> = Arena::builder()
        .shards(256)
        .pool(cell.threads * 4)
        .core_capacity(cell.threads + 1)
        .build();
    let (entered, aborted, elapsed_s, lat) = drive(
        cell,
        |_| (),
        |_, key, abortable| {
            let a = &arena;
            if abortable {
                match a.try_lock(&key) {
                    Some(mut g) => {
                        *g += 1;
                        true
                    }
                    None => false,
                }
            } else {
                *a.lock(&key) += 1;
                true
            }
        },
    );
    let stats = arena.stats();
    assert_eq!(
        stats.resident_cores,
        0,
        "a pooled core leaked: {stats:?} in cell keys={} skew={} threads={}",
        cell.keys,
        cell.skew.name(),
        cell.threads
    );
    // Lost-update check: the per-key sums must add back up to the
    // number of successful acquisitions.
    let mut sum = 0u64;
    for key in 0..cell.keys as u64 {
        sum += *arena.lock(&key);
    }
    assert_eq!(sum, entered, "lost updates in the arena cell");
    Measured {
        entered,
        aborted,
        elapsed_s,
        lat,
        resident_objects: stats.built_cores as u64,
    }
}

fn run_stdmap(cell: Cell) -> Measured {
    let map: KeyMap<u64, Mutex<u64>> = KeyMap::new(256);
    let (entered, aborted, elapsed_s, lat) = drive(
        cell,
        |_| (),
        |_, key, abortable| {
            let lock = map.get(&key);
            if abortable {
                match lock.try_lock() {
                    Ok(mut g) => {
                        *g += 1;
                        true
                    }
                    Err(_) => false,
                }
            } else {
                *lock.lock().unwrap() += 1;
                true
            }
        },
    );
    // Count before summing: the sum touches every key of the space.
    let resident_objects = map.len() as u64;
    let sum: u64 = (0..cell.keys as u64)
        .map(|key| *map.get(&key).lock().unwrap())
        .sum();
    assert_eq!(sum, entered, "lost updates in the stdmap cell");
    Measured {
        entered,
        aborted,
        elapsed_s,
        lat,
        resident_objects,
    }
}

fn run_abortmap(cell: Cell) -> Measured {
    // The naive design pays for every key up front: one full lock
    // core per key, built before the clock starts.
    let map: HashMap<u64, AbortableMutex<u64>> = (0..cell.keys as u64)
        .map(|k| {
            (
                k,
                // One slot per worker thread plus one for the
                // post-run checksum reader.
                AbortableMutex::builder(0u64)
                    .capacity(cell.threads + 1)
                    .build(),
            )
        })
        .collect();
    // Handles are per-thread, per-mutex registrations — each thread
    // caches them privately so the baseline is not charged a
    // registration per operation.
    let (entered, aborted, elapsed_s, lat) = drive(
        cell,
        |_| HashMap::<u64, sal_sync::MutexHandle<'_, u64>>::new(),
        |cache, key, abortable| {
            let handle = cache
                .entry(key)
                .or_insert_with(|| map.get(&key).expect("prebuilt").handle());
            if abortable {
                match handle.try_lock() {
                    Some(mut g) => {
                        *g += 1;
                        true
                    }
                    None => false,
                }
            } else {
                *handle.lock() += 1;
                true
            }
        },
    );
    let mut sum = 0u64;
    for m in map.values() {
        sum += *m.handle().lock();
    }
    assert_eq!(sum, entered, "lost updates in the abortmap cell");
    Measured {
        entered,
        aborted,
        elapsed_s,
        lat,
        resident_objects: cell.keys as u64,
    }
}

struct Row {
    cell: Cell,
    imp: &'static str,
    m: Measured,
    /// Exact-model amortized cost of the lock core this implementation
    /// wraps, from the cell's companion run; `None` for `stdmap`.
    amortized: Option<AmortizedStats>,
    accounting_ok: Option<bool>,
}

impl Row {
    fn to_json(&self) -> Json {
        let total = self.cell.ops_per_thread * self.cell.threads as u64;
        Json::obj(vec![
            ("impl", self.imp.to_json()),
            ("keys", (self.cell.keys as u64).to_json()),
            ("skew", self.cell.skew.name().to_json()),
            ("threads", (self.cell.threads as u64).to_json()),
            ("abort_every", self.cell.abort_every.to_json()),
            ("ops_per_thread", self.cell.ops_per_thread.to_json()),
            ("entered", self.m.entered.to_json()),
            ("aborted", self.m.aborted.to_json()),
            ("elapsed_ms", (self.m.elapsed_s * 1e3).to_json()),
            ("mops", self.m.mops(total).to_json()),
            ("p99_enter_ns", self.m.lat.quantile(0.99).to_json()),
            ("lat_samples", self.m.lat.count().to_json()),
            ("resident_objects", self.m.resident_objects.to_json()),
            (
                "amortized",
                self.amortized.map_or(Json::Null, |a| a.to_json()),
            ),
            ("accounting_ok", self.accounting_ok.to_json()),
        ])
    }
}

fn main() {
    let p = sal_bench::Cli::new("arenascale", "keyed lock arena vs per-key mutex maps")
        .flag("--smoke", "CI-sized grid")
        .opt("--ops", "N", "operations per thread per cell")
        .opt("--threads", "a,b", "thread counts")
        .parse_env_or_exit();
    let smoke = p.smoke();
    let nprocs = std::thread::available_parallelism().map_or(4, std::num::NonZero::get);
    // Deliberately not clamped to available parallelism: on a small
    // runner, oversubscribed threads still interleave under preemption
    // and drive the promotion/parking paths — the caveat records it.
    let default_threads: Vec<usize> = if smoke { vec![4] } else { vec![2, 8] };
    let threads_list = p
        .list::<usize>("--threads")
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
        .unwrap_or(default_threads);
    let ops_per_thread: u64 = p
        .get("--ops")
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
        .unwrap_or(if smoke { 20_000 } else { 100_000 });
    let key_spaces: Vec<usize> = if smoke {
        vec![512, 16_384]
    } else {
        vec![1_024, 1 << 20]
    };
    let mode = if smoke { "smoke" } else { "full" };

    println!("arenascale ({mode}): ops/thread={ops_per_thread} threads={threads_list:?} keys={key_spaces:?}");
    println!(
        "{:<9} {:>9} {:<8} {:>7} {:>6} {:>10} {:>8} {:>12} {:>8} {:>9}",
        "impl",
        "keys",
        "skew",
        "threads",
        "abort",
        "mops",
        "p99(ns)",
        "samples",
        "aborted",
        "resident"
    );

    let mut rows: Vec<Row> = Vec::new();
    let mut caveats: Vec<String> = Vec::new();
    for &keys in &key_spaces {
        for skew in [Skew::Uniform, Skew::Zipf] {
            for &threads in &threads_list {
                for abort_every in [None, Some(8u64)] {
                    let cell = Cell {
                        keys,
                        skew,
                        threads,
                        abort_every,
                        ops_per_thread,
                    };
                    let mut runs: Vec<(&'static str, Measured)> =
                        vec![("arena", run_arena(cell)), ("stdmap", run_stdmap(cell))];
                    if keys <= ABORTMAP_MAX_KEYS {
                        runs.push(("abortmap", run_abortmap(cell)));
                    }
                    // One exact-model companion per cell: arena and
                    // abortmap wrap the same lock core, so they share
                    // its run-scoped amortized cost.
                    let (amortized, accounting_ok) = amortized_companion(
                        LockKind::LongLived { b: 64 },
                        cell.threads,
                        cell.abort_every.map(|k| k as usize),
                        if smoke { 100 } else { 200 },
                    );
                    assert!(
                        accounting_ok,
                        "companion probe totals diverged from memory ground truth \
                         (keys={keys} threads={threads})"
                    );
                    for (imp, m) in runs {
                        let total = cell.ops_per_thread * cell.threads as u64;
                        println!(
                            "{:<9} {:>9} {:<8} {:>7} {:>6} {:>10.2} {:>8} {:>12} {:>8} {:>9}",
                            imp,
                            keys,
                            skew.name(),
                            threads,
                            abort_every.map_or(0, |k| k),
                            m.mops(total),
                            m.lat
                                .quantile(0.99)
                                .map_or_else(|| "-".into(), |v| v.to_string()),
                            m.lat.count(),
                            m.aborted,
                            m.resident_objects,
                        );
                        let has_core = imp != "stdmap";
                        rows.push(Row {
                            cell,
                            imp,
                            m,
                            amortized: has_core.then_some(amortized),
                            accounting_ok: has_core.then_some(accounting_ok),
                        });
                    }
                }
            }
        }
    }
    if key_spaces.iter().any(|&k| k > ABORTMAP_MAX_KEYS) {
        caveats.push(format!(
            "abortmap baseline skipped beyond {ABORTMAP_MAX_KEYS} keys: prebuilding one \
             lock core per key at that scale is the cost the arena avoids"
        ));
    }
    if smoke {
        caveats.push("smoke mode: small grid, largest key space reduced".into());
    }
    if threads_list.iter().any(|&t| t > nprocs) {
        caveats.push(format!(
            "thread counts exceed available parallelism ({nprocs}): contention is \
             preemption-driven; throughput ratios stay comparable across impls"
        ));
    }
    caveats.push(
        "zipf cells draw from an exact precomputed CDF; arena and stdmap find keys through \
         the same 256-shard key index"
            .into(),
    );

    // Target 1: on uncontended-heavy skewed cells (many keys per
    // thread), the arena's inline word must beat the prebuilt
    // abortable map.
    let mut compared = 0usize;
    let mut arena_wins = 0usize;
    for r in rows.iter().filter(|r| r.imp == "arena") {
        let c = r.cell;
        if c.skew != Skew::Zipf || c.keys < 64 * c.threads {
            continue;
        }
        let Some(base) = rows.iter().find(|b| {
            b.imp == "abortmap"
                && b.cell.keys == c.keys
                && b.cell.threads == c.threads
                && b.cell.skew == c.skew
                && b.cell.abort_every == c.abort_every
        }) else {
            continue;
        };
        compared += 1;
        let total = c.ops_per_thread * c.threads as u64;
        if r.m.mops(total) > base.m.mops(total) {
            arena_wins += 1;
        }
    }
    let beat_map = compared > 0 && arena_wins == compared;
    // Target 2: at the largest key space, built cores stay bounded by
    // the pool — resident memory O(active contended keys), not O(keys).
    let max_keys = *key_spaces.iter().max().expect("non-empty");
    let max_built = rows
        .iter()
        .filter(|r| r.imp == "arena" && r.cell.keys == max_keys)
        .map(|r| r.m.resident_objects)
        .max()
        .unwrap_or(0);
    let pool_bound = threads_list.iter().max().copied().unwrap_or(1) as u64 * 4;
    let resident_bounded = max_built <= pool_bound && (max_built as usize) < max_keys;
    let target_met = beat_map && resident_bounded;
    println!(
        "arena vs abortmap on uncontended-heavy zipf cells: {arena_wins}/{compared} won; \
         max built cores at {max_keys} keys: {max_built} (pool bound {pool_bound}) — target {}",
        if target_met { "met" } else { "NOT met" }
    );
    for c in &caveats {
        println!("caveat: {c}");
    }

    let out = Json::obj(vec![
        ("bench", "arenascale".to_json()),
        ("mode", mode.to_json()),
        ("available_parallelism", (nprocs as u64).to_json()),
        ("ops_per_thread", ops_per_thread.to_json()),
        ("abortmap_max_keys", (ABORTMAP_MAX_KEYS as u64).to_json()),
        ("uncontended_cells_compared", (compared as u64).to_json()),
        ("uncontended_cells_arena_won", (arena_wins as u64).to_json()),
        ("max_keys", (max_keys as u64).to_json()),
        ("max_built_cores_at_max_keys", max_built.to_json()),
        ("resident_core_pool_bound", pool_bound.to_json()),
        ("resident_bounded", resident_bounded.to_json()),
        ("target_met", target_met.to_json()),
        ("caveats", caveats.to_json()),
        ("cells", Json::Arr(rows.iter().map(Row::to_json).collect())),
    ]);
    sal_bench::save_artifact("arena", smoke, &out);
}
