//! Conditional-critical-section API tests: `lock_when` and friends on
//! real OS threads — lost-wakeup freedom, unlock-side evaluation,
//! deregistration hygiene, and the broadcast baseline's equivalence.
//!
//! The last section runs three wakeup-economy scenarios (mailbox
//! producer/consumer, bounded queue, generation barrier) over a grid
//! of wake policy × thread count × deadline-abort rate, asserting each
//! scenario's state invariants in every cell, and that unlock-side
//! evaluation wakes fewer waiters per transition than broadcast on the
//! mailbox scenario.

use sal_sync::{
    AbortFlag, AbortReason, AbortableMutex, CcsStats, MutexGuard, MutexHandle, WakePolicy,
};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

#[test]
fn lock_when_returns_immediately_when_pred_holds() {
    let m = AbortableMutex::builder(41u64).capacity(1).build();
    let mut h = m.handle();
    {
        let mut g = h.lock_when(|v| *v == 41);
        *g += 1;
    }
    assert_eq!(*h.lock_when(|v| *v == 42), 42);
    assert_eq!(m.waiters(), 0);
}

#[test]
fn lock_when_blocks_until_another_thread_satisfies_it() {
    let m = AbortableMutex::builder(0u64).capacity(2).build();
    let mut setter = m.handle();
    let mut waiter = m.handle();
    let woke = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let g = waiter.lock_when(|v| *v == 7);
            woke.store(true, Ordering::SeqCst);
            assert_eq!(*g, 7);
        });
        // Let the waiter park (its spin budget is microscopic compared
        // to 20ms), then verify it is actually registered and blocked.
        std::thread::sleep(Duration::from_millis(20));
        assert!(!woke.load(Ordering::SeqCst), "waiter ran before the set");
        *setter.lock() += 7;
    });
    assert!(woke.load(Ordering::SeqCst));
    assert_eq!(m.waiters(), 0);
}

/// Per-waiter conditions: each consumer waits for its own mailbox slot;
/// the producer fills them one at a time. Nothing is lost even though
/// every wakeup is only a hint.
fn mailbox_roundtrip(policy: WakePolicy) {
    const CONSUMERS: usize = 4;
    const ITEMS_EACH: usize = 50;
    let m = AbortableMutex::builder(vec![0u64; CONSUMERS])
        .capacity(CONSUMERS + 1)
        .wake_policy(policy)
        .build();
    let consumed = AtomicU64::new(0);
    std::thread::scope(|s| {
        for c in 0..CONSUMERS {
            let mut h = m.handle();
            let consumed = &consumed;
            s.spawn(move || {
                for _ in 0..ITEMS_EACH {
                    let mut g = h.lock_when(move |boxes: &Vec<u64>| boxes[c] != 0);
                    g[c] = 0;
                    consumed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let mut producer = m.handle();
        for i in 0..ITEMS_EACH {
            for c in 0..CONSUMERS {
                let mut g = producer.lock_when(move |boxes: &Vec<u64>| boxes[c] == 0);
                g[c] = (i + 1) as u64;
            }
        }
    });
    assert_eq!(
        consumed.load(Ordering::Relaxed),
        (CONSUMERS * ITEMS_EACH) as u64
    );
    assert_eq!(m.waiters(), 0);
    let stats = m.ccs_stats();
    assert!(
        stats.transitions > 0,
        "unlocks with waiters must be counted"
    );
    assert!(stats.wakeups > 0, "parked waiters must have been woken");
    if policy == WakePolicy::Evaluate {
        assert!(stats.evaluated > 0, "evaluate policy must run conditions");
    } else {
        assert_eq!(stats.evaluated, 0, "broadcast never evaluates conditions");
    }
}

#[test]
fn mailbox_fanout_under_evaluation() {
    mailbox_roundtrip(WakePolicy::Evaluate);
}

#[test]
fn broadcast_policy_is_equivalent_just_noisier() {
    mailbox_roundtrip(WakePolicy::Broadcast);
}

#[test]
fn await_when_releases_and_reacquires_in_place() {
    let m = AbortableMutex::builder((0u64, 0u64)).capacity(2).build();
    let mut a = m.handle();
    let mut b = m.handle();
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut g = a.lock();
            g.0 = 1; // signal: A is inside and about to await
            g.await_when(|v| v.1 == 1);
            // The guard survived the release/park/re-acquire round trip.
            g.0 = 2;
        });
        s.spawn(|| {
            let mut g = b.lock_when(|v| v.0 == 1);
            g.1 = 1;
            // Dropping the guard must wake A's await.
        });
    });
    drop((a, b));
    assert_eq!(m.into_inner(), (2, 1));
}

#[test]
fn lock_when_for_times_out_and_deregisters() {
    let m = AbortableMutex::builder(0u64).capacity(2).build();
    let mut h = m.handle();
    let start = Instant::now();
    let r = h.lock_when_for(|v| *v == 999, Duration::from_millis(25));
    assert_eq!(r.err(), Some(AbortReason::Deadline));
    assert!(start.elapsed() >= Duration::from_millis(25));
    // The failed wait left nothing behind: no registration, and the
    // lock is free for plain acquisition.
    assert_eq!(m.waiters(), 0);
    assert_eq!(*h.lock(), 0);
}

#[test]
fn lock_when_until_with_a_passed_deadline_still_tries_the_pred_once() {
    let m = AbortableMutex::builder(5u64).capacity(1).build();
    let mut h = m.handle();
    // Expired deadline + satisfiable predicate: Enter semantics say the
    // attempt may still succeed, and the pred check happens under the
    // lock we just won.
    let g = h
        .lock_when_until(|v| *v == 5, Instant::now())
        .expect("satisfied pred on a free lock wins even with an expired deadline");
    assert_eq!(*g, 5);
}

#[test]
fn lock_when_abortable_reports_caller_cancellation() {
    let m = AbortableMutex::builder(0u64).capacity(2).build();
    let flag = AbortFlag::new();
    let mut h = m.handle();
    std::thread::scope(|s| {
        let flag2 = flag.clone();
        s.spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            flag2.set();
        });
        let r = h.lock_when_abortable(|v| *v == 999, &flag);
        assert_eq!(r.err(), Some(AbortReason::Caller));
    });
    assert_eq!(m.waiters(), 0);
    assert_eq!(*h.lock(), 0);
}

#[test]
fn await_when_for_keeps_the_lock_on_timeout() {
    let m = AbortableMutex::builder(0u64).capacity(1).build();
    let mut h = m.handle();
    let mut g = h.lock();
    assert!(!g.await_when_for(|v| *v == 999, Duration::from_millis(15)));
    // Still holding: the guard mutates freely and the re-check sees it.
    *g += 1;
    assert!(g.await_when_for(|v| *v == 1, Duration::from_millis(15)));
    drop(g);
    assert_eq!(*h.lock(), 1);
}

#[test]
fn single_item_many_waiters_loses_nothing() {
    // All waiters share the same condition (non-empty pool). Wakeups
    // are hints: every push may wake several waiters, only one of which
    // gets the item — yet every item is consumed exactly once and every
    // waiter eventually completes (no lost wakeups, no deadlock).
    const WAITERS: usize = 6;
    const ITEMS: usize = 60;
    let m = AbortableMutex::builder(0u64).capacity(WAITERS + 1).build();
    let got = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..WAITERS {
            let mut h = m.handle();
            let got = &got;
            s.spawn(move || {
                for _ in 0..ITEMS / WAITERS {
                    let mut g = h.lock_when(|v| *v > 0);
                    *g -= 1;
                    got.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let mut producer = m.handle();
        for _ in 0..ITEMS {
            *producer.lock() += 1;
            std::thread::yield_now();
        }
    });
    assert_eq!(got.load(Ordering::Relaxed), ITEMS as u64);
    assert_eq!(
        m.into_inner(),
        0,
        "every produced unit consumed exactly once"
    );
}

#[test]
fn wait_stats_accumulate_and_expose_futility() {
    let m = AbortableMutex::builder(0u64)
        .capacity(2)
        .wake_policy(WakePolicy::Evaluate)
        .build();
    assert_eq!(m.wake_policy(), WakePolicy::Evaluate);
    let mut a = m.handle();
    let mut b = m.handle();
    std::thread::scope(|s| {
        s.spawn(|| {
            let g = a.lock_when(|v| *v == 3);
            assert_eq!(*g, 3);
        });
        s.spawn(|| {
            for _ in 0..3 {
                std::thread::sleep(Duration::from_millis(5));
                *b.lock() += 1;
            }
        });
    });
    let stats = m.ccs_stats();
    // The waiter parked at least once and was woken exactly at v == 3;
    // the evaluation count reflects the unlock-side checks.
    assert!(stats.waits >= 1, "{stats:?}");
    assert!(stats.wakeups >= 1, "{stats:?}");
    assert!(stats.evaluated >= stats.wakeups, "{stats:?}");
}

#[test]
fn guard_drop_without_waiters_stays_cheap_and_correct() {
    // Plain mutex traffic through the CCS-aware unlock path: no
    // registered waiters means no transitions are recorded.
    let m = AbortableMutex::builder(0u64).capacity(2).build();
    let mut h = m.handle();
    for _ in 0..100 {
        *h.lock() += 1;
    }
    assert_eq!(*h.lock(), 100);
    let stats = m.ccs_stats();
    assert_eq!(stats.transitions, 0, "no waiters, no registry scans");
    assert_eq!(stats.wakeups, 0);
}

// ---- Wakeup-economy scenarios ----

/// Bounded-queue capacity of the `bqueue` scenario.
const QUEUE_CAP: usize = 4;

/// Deadline of the deadline-first waits: short enough to fire under
/// contention, long enough that uncontended waits usually finish.
const ABORT_DEADLINE: Duration = Duration::from_micros(50);

/// One grid cell of a scenario.
#[derive(Clone, Copy, Debug)]
struct Cell {
    policy: WakePolicy,
    threads: usize,
    /// `Some(k)`: every k-th conditional wait first runs with
    /// [`ABORT_DEADLINE`] and retries unbounded on a deadline abort.
    abort_every: Option<usize>,
    /// Items per producer, or barrier rounds.
    items: usize,
}

/// Run `scenario` on every cell of policy {Evaluate, Broadcast} ×
/// threads {2, 4} × abort rate {none, 1/8}; returns each cell with the
/// mutex's CCS counters.
fn grid(items: usize, scenario: fn(Cell) -> CcsStats) -> Vec<(Cell, CcsStats)> {
    let mut out = Vec::new();
    for policy in [WakePolicy::Evaluate, WakePolicy::Broadcast] {
        for threads in [2, 4] {
            for abort_every in [None, Some(8)] {
                let cell = Cell {
                    policy,
                    threads,
                    abort_every,
                    items,
                };
                out.push((cell, scenario(cell)));
            }
        }
    }
    out
}

/// One conditional acquisition, deadline-first on the attempts
/// `abort_every` selects: the wait first runs with [`ABORT_DEADLINE`]
/// (injected as the lock's abort signal, so it aborts on the paper's
/// bounded path while queued) and falls back to the unbounded wait.
fn conditional_lock<'h, 'm, T, F>(
    h: &'h mut MutexHandle<'m, T>,
    pred: F,
    abort_every: Option<usize>,
    attempt: usize,
) -> MutexGuard<'h, 'm, T>
where
    F: Fn(&T) -> bool + Sync + Copy,
{
    if abort_every.is_some_and(|k| attempt.is_multiple_of(k)) {
        match h.lock_when_for(pred, ABORT_DEADLINE) {
            // Returning this guard would hold the borrow across the
            // fallback; drop it and take the (still satisfiable) wait.
            Ok(g) => drop(g),
            Err(AbortReason::Deadline) => {}
            Err(AbortReason::Caller) => unreachable!("deadline waits cannot report Caller"),
        }
    }
    h.lock_when(pred)
}

/// Mailbox producer/consumer state.
struct Mail {
    /// One capacity-1 slot per consumer: 0 = empty, else the item.
    boxes: Vec<u64>,
    produced: u64,
    consumed: u64,
    producers_done: usize,
}

/// Producers deposit into per-consumer mailboxes round-robin, waiting
/// for the target slot to drain; consumer `c` waits for its own slot
/// to fill. Every condition names one slot, so under evaluation a
/// deposit wakes its addressee only, while broadcast wakes every
/// parked thread on every unlock.
fn prodcons(cell: Cell) -> CcsStats {
    let producers = (cell.threads / 2).max(1);
    let consumers = (cell.threads - producers).max(1);
    let items = cell.items;
    let m = AbortableMutex::builder(Mail {
        boxes: vec![0; consumers],
        produced: 0,
        consumed: 0,
        producers_done: 0,
    })
    .capacity(producers + consumers)
    .wake_policy(cell.policy)
    .build();
    std::thread::scope(|s| {
        for p in 0..producers {
            let mut h = m.handle();
            s.spawn(move || {
                for i in 0..items {
                    let target = (p * items + i) % consumers;
                    let pred = move |s: &Mail| s.boxes[target] == 0;
                    let mut g = conditional_lock(&mut h, pred, cell.abort_every, i + 1);
                    g.boxes[target] = 1 + (p * items + i) as u64;
                    g.produced += 1;
                }
                h.lock().producers_done += 1;
            });
        }
        for c in 0..consumers {
            let mut h = m.handle();
            s.spawn(move || {
                let pred = move |s: &Mail| s.boxes[c] != 0 || s.producers_done == producers;
                for attempt in 1.. {
                    let mut g = conditional_lock(&mut h, pred, cell.abort_every, attempt);
                    if g.boxes[c] != 0 {
                        g.boxes[c] = 0;
                        g.consumed += 1;
                    } else if g.producers_done == producers {
                        break;
                    }
                }
            });
        }
    });
    let stats = m.ccs_stats();
    let total = (producers * items) as u64;
    let state = m.into_inner();
    assert_eq!(state.produced, total, "{cell:?}: lost production");
    assert_eq!(state.consumed, total, "{cell:?}: lost or duplicated items");
    assert!(
        state.boxes.iter().all(|&b| b == 0),
        "{cell:?}: undrained mailbox"
    );
    stats
}

/// Bounded-queue state.
struct Bq {
    q: VecDeque<u64>,
    pushed: u64,
    popped: u64,
    sum_pushed: u64,
    sum_popped: u64,
    producers_done: usize,
}

/// Producers wait for space, consumers wait for items: conditional
/// waits on both sides of one bounded queue.
fn bqueue(cell: Cell) -> CcsStats {
    let producers = (cell.threads / 2).max(1);
    let consumers = (cell.threads - producers).max(1);
    let items = cell.items;
    let m = AbortableMutex::builder(Bq {
        q: VecDeque::with_capacity(QUEUE_CAP),
        pushed: 0,
        popped: 0,
        sum_pushed: 0,
        sum_popped: 0,
        producers_done: 0,
    })
    .capacity(producers + consumers)
    .wake_policy(cell.policy)
    .build();
    std::thread::scope(|s| {
        for p in 0..producers {
            let mut h = m.handle();
            s.spawn(move || {
                for i in 0..items {
                    let v = (p * items + i) as u64;
                    let pred = |s: &Bq| s.q.len() < QUEUE_CAP;
                    let mut g = conditional_lock(&mut h, pred, cell.abort_every, i + 1);
                    assert!(g.q.len() < QUEUE_CAP, "{cell:?}: overfull on entry");
                    g.q.push_back(v);
                    g.pushed += 1;
                    g.sum_pushed += v;
                }
                h.lock().producers_done += 1;
            });
        }
        for _ in 0..consumers {
            let mut h = m.handle();
            s.spawn(move || {
                let pred = move |s: &Bq| !s.q.is_empty() || s.producers_done == producers;
                for attempt in 1.. {
                    let mut g = conditional_lock(&mut h, pred, cell.abort_every, attempt);
                    if let Some(v) = g.q.pop_front() {
                        g.popped += 1;
                        g.sum_popped += v;
                    } else if g.producers_done == producers {
                        break;
                    }
                }
            });
        }
    });
    let stats = m.ccs_stats();
    let total = (producers * items) as u64;
    let state = m.into_inner();
    assert_eq!(state.pushed, total, "{cell:?}: lost push");
    assert_eq!(state.popped, total, "{cell:?}: lost or duplicated pop");
    assert_eq!(
        state.sum_pushed, state.sum_popped,
        "{cell:?}: value corruption through the queue"
    );
    assert!(state.q.is_empty(), "{cell:?}: undrained queue");
    stats
}

/// Generation-barrier state.
struct Bar {
    gen: u64,
    count: usize,
}

/// All threads meet `items` times; the last arrival of a round bumps
/// the generation and everyone else `await_when`s it, re-waiting while
/// holding its guard (the release/re-acquire path).
fn barrier(cell: Cell) -> CcsStats {
    let n = cell.threads;
    let m = AbortableMutex::builder(Bar { gen: 0, count: 0 })
        .capacity(n)
        .wake_policy(cell.policy)
        .build();
    std::thread::scope(|s| {
        for _ in 0..n {
            let mut h = m.handle();
            s.spawn(move || {
                for r in 0..cell.items {
                    let mut g = h.lock();
                    let my_gen = g.gen;
                    g.count += 1;
                    if g.count == n {
                        // Dropping the guard evaluates the others'
                        // conditions and wakes them.
                        g.count = 0;
                        g.gen += 1;
                    } else {
                        let pred = move |s: &Bar| s.gen != my_gen;
                        if cell.abort_every.is_some_and(|k| (r + 1).is_multiple_of(k)) {
                            while !g.await_when_for(pred, ABORT_DEADLINE) {}
                        } else {
                            g.await_when(pred);
                        }
                    }
                }
            });
        }
    });
    let stats = m.ccs_stats();
    let state = m.into_inner();
    assert_eq!(
        state.gen, cell.items as u64,
        "{cell:?}: rounds lost or duplicated"
    );
    assert_eq!(state.count, 0, "{cell:?}: stragglers left behind");
    stats
}

/// Wakeups per state transition, aggregated over one policy's cells.
fn wakeups_per_transition(cells: &[(Cell, CcsStats)], policy: WakePolicy) -> f64 {
    let (w, t) = cells
        .iter()
        .filter(|(c, _)| c.policy == policy)
        .fold((0, 0), |(w, t), (_, s)| (w + s.wakeups, t + s.transitions));
    w as f64 / (t as f64).max(1.0)
}

#[test]
fn prodcons_loses_nothing_and_evaluation_wakes_fewer_than_broadcast() {
    let cells = grid(300, prodcons);
    let evaluate = wakeups_per_transition(&cells, WakePolicy::Evaluate);
    let broadcast = wakeups_per_transition(&cells, WakePolicy::Broadcast);
    assert!(
        evaluate < broadcast,
        "evaluate woke {evaluate:.3} waiters per transition, broadcast {broadcast:.3}"
    );
}

#[test]
fn bqueue_loses_nothing_under_every_policy_and_abort_rate() {
    grid(300, bqueue);
}

#[test]
fn barrier_completes_every_round_under_every_policy_and_abort_rate() {
    grid(100, barrier);
}
