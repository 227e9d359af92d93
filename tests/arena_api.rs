//! Real-thread stress of the [`sal_sync::Arena`] public surface.
//!
//! The protocol-level interleavings are model-checked exhaustively in
//! `arena_protocol.rs`; this suite drives the actual implementation —
//! OS threads, real parking, the pooled cores — through the scenarios
//! a keyed arena exists for: promotion/demotion churn on hot keys,
//! conditional waits across the inline→materialized transition, mixed
//! deadline/abort traffic, and pool starvation. Every test ends with
//! the leak checks: all counters add up, no core stays resident.
//! The suite is lease-agnostic: CI runs it under both the default
//! scheduler config and `SAL_LEASE=1`.

use sal_runtime::SmallRng;
use sal_sync::{AbortFlag, Arena};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Hot-key churn: all threads hammer a handful of keys, forcing
/// repeated inline→materialized→inline cycles; counts must balance
/// and the pool must drain back to empty.
#[test]
fn promotion_demotion_churn_balances() {
    let threads = 4;
    let reps = 400;
    let keys = 3u64;
    let arena: Arc<Arena<u64, u64>> = Arc::new(Arena::builder().pool(2).build());
    let barrier = Arc::new(Barrier::new(threads));
    let mut handles = Vec::new();
    for t in 0..threads {
        let arena = Arc::clone(&arena);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            for i in 0..reps {
                let key = ((t as u64).wrapping_mul(31).wrapping_add(i)) % keys;
                *arena.lock(&key) += 1;
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let total: u64 = (0..keys).map(|k| *arena.lock(&k)).sum();
    assert_eq!(total, threads as u64 * reps, "lost updates under churn");
    let s = arena.stats();
    assert_eq!(s.resident_cores, 0, "cores leaked: {s:?}");
    assert_eq!(
        s.promotions, s.demotions,
        "unbalanced promote/demote: {s:?}"
    );
}

/// A herd of `lock_when` waiters across a transition: the predicate
/// only becomes true after the key has been materialized by
/// contention, and every waiter must see it.
#[test]
fn lock_when_herd_drains_completely() {
    let waiters = 6;
    let arena: Arc<Arena<&'static str, u64>> = Arc::new(Arena::new());
    let woken = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for _ in 0..waiters {
        let arena = Arc::clone(&arena);
        let woken = Arc::clone(&woken);
        handles.push(std::thread::spawn(move || {
            let mut g = arena.lock_when(&"gate", |v| *v >= 1);
            *g += 1; // each waiter bumps so all predicates stay true
            woken.fetch_add(1, Ordering::SeqCst);
        }));
    }
    // Let the herd register, then open the gate.
    std::thread::sleep(Duration::from_millis(30));
    *arena.lock(&"gate") = 1;
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(woken.load(Ordering::SeqCst), waiters);
    assert_eq!(*arena.lock(&"gate"), 1 + waiters);
    assert_eq!(arena.stats().resident_cores, 0);
}

/// Mixed deadline and abort-flag traffic against a deliberately held
/// key: expirations and aborts return errors, never corrupt the
/// count, and never strand a core.
#[test]
fn mixed_deadline_and_abort_traffic() {
    let arena: Arc<Arena<u64, u64>> = Arc::new(Arena::builder().pool(2).build());
    let stop = Arc::new(AtomicBool::new(false));
    let entered = Arc::new(AtomicU64::new(0));
    let denied = Arc::new(AtomicU64::new(0));

    // One thread camps on the key in bursts.
    let camper = {
        let arena = Arc::clone(&arena);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                let g = arena.lock(&7);
                std::thread::sleep(Duration::from_micros(300));
                drop(g);
                std::thread::yield_now();
            }
        })
    };
    let mut handles = Vec::new();
    for t in 0..3 {
        let arena = Arc::clone(&arena);
        let stop = Arc::clone(&stop);
        let entered = Arc::clone(&entered);
        let denied = Arc::clone(&denied);
        handles.push(std::thread::spawn(move || {
            let deadline_end = Instant::now() + Duration::from_millis(150);
            while Instant::now() < deadline_end && !stop.load(Ordering::SeqCst) {
                let got = match t {
                    0 => arena.try_lock_for(&7, Duration::from_micros(200)),
                    1 => arena.try_lock(&7),
                    _ => {
                        let flag = AbortFlag::new();
                        flag.set(); // pre-fired: bounded abort path
                        arena.lock_abortable(&7, &flag)
                    }
                };
                match got {
                    Some(mut g) => {
                        *g += 1;
                        entered.fetch_add(1, Ordering::SeqCst);
                    }
                    None => {
                        denied.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    stop.store(true, Ordering::SeqCst);
    camper.join().unwrap();
    assert_eq!(*arena.lock(&7), entered.load(Ordering::SeqCst));
    assert!(denied.load(Ordering::SeqCst) > 0, "camper never collided");
    assert_eq!(arena.stats().resident_cores, 0);
}

/// Pool starvation: more simultaneously-contended keys than pooled
/// cores degrades to spinning but stays correct and leak-free.
#[test]
fn starved_pool_stays_correct() {
    let threads = 6;
    let reps = 250;
    let keys = 4u64;
    let arena: Arc<Arena<u64, u64>> = Arc::new(Arena::builder().pool(1).build());
    let barrier = Arc::new(Barrier::new(threads));
    let mut handles = Vec::new();
    for t in 0..threads {
        let arena = Arc::clone(&arena);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            for i in 0..reps {
                let key = ((i as u64) + t as u64) % keys;
                *arena.lock(&key) += 1;
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let total: u64 = (0..keys).map(|k| *arena.lock(&k)).sum();
    assert_eq!(total, (threads * reps) as u64);
    let s = arena.stats();
    assert_eq!(s.resident_cores, 0, "{s:?}");
    assert!(s.built_cores <= 1, "pool bound violated: {s:?}");
}

/// Distinct keys never interfere: full parallel traffic over disjoint
/// keys stays on the inline fast path (no promotions at all).
#[test]
fn disjoint_keys_stay_inline() {
    let threads = 4;
    let reps = 2_000;
    let arena: Arc<Arena<u64, u64>> = Arc::new(Arena::new());
    let mut handles = Vec::new();
    for t in 0..threads as u64 {
        let arena = Arc::clone(&arena);
        handles.push(std::thread::spawn(move || {
            for _ in 0..reps {
                *arena.lock(&t) += 1;
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    for t in 0..threads as u64 {
        assert_eq!(*arena.lock(&t), reps);
    }
    let s = arena.stats();
    assert_eq!(
        s.promotions, 0,
        "disjoint keys should never materialize: {s:?}"
    );
    assert_eq!(s.built_cores, 0, "{s:?}");
}

/// Deadline-bounded conditional waits: expired waits report failure
/// without disturbing the value, satisfied ones complete.
#[test]
fn lock_when_deadlines_expire_cleanly() {
    let arena: Arena<u64, u64> = Arena::new();
    // Nothing ever sets key 9: the wait must time out.
    assert!(arena
        .lock_when_for(&9, |v| *v == 42, Duration::from_millis(20))
        .is_err());
    // And the failed wait must not have corrupted or leaked anything.
    assert_eq!(*arena.lock(&9), 0);
    assert_eq!(arena.stats().resident_cores, 0);

    // A satisfied wait on another key completes normally.
    *arena.lock(&10) = 42;
    let g = arena
        .lock_when_for(&10, |v| *v == 42, Duration::from_millis(500))
        .expect("predicate already true");
    assert_eq!(*g, 42);
}

/// Draw a key from `0..keys`: uniformly when `cdf` is `None`, else by
/// binary search in the normalised cumulative weights.
fn draw(rng: &mut SmallRng, keys: usize, cdf: Option<&[f64]>) -> u64 {
    match cdf {
        None => rng.random_range(0..keys) as u64,
        Some(cdf) => {
            let u = rng.next_u64() as f64 / u64::MAX as f64;
            cdf.partition_point(|&c| c < u).min(keys - 1) as u64
        }
    }
}

/// The pool bound at scale: four threads, 20,000 operations each over
/// 16,384 keys, under uniform and zipf(1.1) key choice, with and
/// without a `try_lock` on every 8th operation. Every key's value must
/// equal the number of acquisitions that incremented it, no core may
/// stay resident, and the cores ever built must stay within the pool
/// of 16 — resident lock state scales with contention, not with keys.
#[test]
fn pool_bounds_built_cores_at_sixteen_thousand_keys() {
    let threads = 4;
    let ops = 20_000;
    let keys = 16_384;
    let pool = 16;
    let zipf_cdf: Vec<f64> = {
        let weights: Vec<f64> = (1..=keys).map(|i| 1.0 / (i as f64).powf(1.1)).collect();
        let total: f64 = weights.iter().sum();
        weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w;
                Some(*acc / total)
            })
            .collect()
    };
    for cdf in [None, Some(zipf_cdf.as_slice())] {
        for try_every in [None, Some(8)] {
            let arena: Arena<u64, u64> = Arena::builder()
                .shards(256)
                .pool(pool)
                .core_capacity(threads + 1)
                .build();
            let barrier = Barrier::new(threads);
            let counts: Vec<Vec<u64>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        let (arena, barrier) = (&arena, &barrier);
                        s.spawn(move || {
                            let mut rng = SmallRng::seed_from_u64(0x9E37 ^ ((t as u64) << 8));
                            let mut counts = vec![0u64; keys];
                            barrier.wait();
                            for i in 0..ops {
                                let key = draw(&mut rng, keys, cdf);
                                if try_every.is_some_and(|k| i % k == 0) {
                                    if let Some(mut g) = arena.try_lock(&key) {
                                        *g += 1;
                                        counts[key as usize] += 1;
                                    }
                                } else {
                                    *arena.lock(&key) += 1;
                                    counts[key as usize] += 1;
                                }
                            }
                            counts
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let cell = format!("zipf={} try_every={try_every:?}", cdf.is_some());
            let stats = arena.stats();
            assert_eq!(stats.resident_cores, 0, "{cell}: a core leaked: {stats:?}");
            assert!(
                stats.built_cores <= pool,
                "{cell}: pool bound violated: {stats:?}"
            );
            for key in 0..keys {
                let want: u64 = counts.iter().map(|c| c[key]).sum();
                assert_eq!(
                    *arena.lock(&(key as u64)),
                    want,
                    "{cell}: lost updates on key {key}"
                );
            }
        }
    }
}
