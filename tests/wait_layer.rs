//! The pid-and-wait layer shared by the three `sal-sync` surfaces,
//! tested through each of them:
//!
//! * **A panicking predicate leaks nothing.** The lock, the pid, the
//!   arena seat and the registration are released whether the predicate
//!   panics on its own thread (`lock_when`) or inside another thread's
//!   unlock-side evaluation. Each probe runs under a timeout, so a leaked
//!   lock fails the test instead of hanging it.
//! * **An abort wakes the other parked enters** (an abort can hand the
//!   lock on, Algorithm 3.3 line 15), checked deterministically with
//!   counting wakers.
//! * **Parked async conditional waiters never hold every pid**, so the
//!   task that can satisfy them still gets in.
//! * **Handles recycle their pid** on drop.

use sal_runtime::executor::block_on;
use sal_sync::{AbortFlag, AbortReason, AbortableMutex, Arena, AsyncAbortableMutex};
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

/// Run `probe` on its own thread; fail if it panics or has not finished
/// within 2 s (a leaked lock makes the next acquisition hang, and a hung
/// probe thread is left behind rather than joined).
fn within_2s(probe: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let probe = std::thread::spawn(move || {
        probe();
        tx.send(()).unwrap();
    });
    match rx.recv_timeout(Duration::from_secs(2)) {
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("probe hung: the lock leaked"),
        Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => {
            if let Err(payload) = probe.join() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

/// `f` must panic; the panic is swallowed.
fn assert_panics(f: impl FnOnce()) {
    assert!(
        catch_unwind(AssertUnwindSafe(f)).is_err(),
        "expected a panic"
    );
}

#[test]
fn panicking_lock_when_predicate_releases_the_lock() {
    within_2s(|| {
        let m = AbortableMutex::builder(0u64).capacity(2).build();
        let mut a = m.handle();
        assert_panics(|| {
            a.lock_when(|_| panic!("predicate panics"));
        });
        let mut b = m.handle();
        *b.lock() += 1;
        assert_eq!(*a.lock(), 1);
        assert_eq!(m.waiters(), 0);
    });
}

#[test]
fn predicate_panicking_in_another_threads_unlock_releases_the_lock() {
    within_2s(|| {
        let m = AbortableMutex::builder(0u64).capacity(2).build();
        let mut a = m.handle();
        let mut b = m.handle();
        std::thread::scope(|s| {
            let waiter = s.spawn(move || {
                a.lock_when(|v| {
                    if *v == 1 {
                        panic!("predicate panics")
                    } else {
                        false
                    }
                });
            });
            while m.waiters() == 0 {
                std::thread::yield_now();
            }
            // This unlock evaluates the waiter's predicate, which panics:
            // it counts as satisfied and the unlock completes.
            *b.lock() = 1;
            assert!(
                waiter.join().is_err(),
                "the woken waiter re-runs its predicate and panics on its own thread"
            );
            *b.lock() += 1;
        });
        assert_eq!(*b.lock(), 2);
        assert_eq!(m.waiters(), 0);
        // The panicked waiter's handle returned its pid.
        let _c = m.handle();
    });
}

#[test]
fn panicking_arena_predicate_releases_the_key() {
    within_2s(|| {
        // One pooled core with one participant pid: a leaked pid would
        // make the next materialization fail.
        let arena: Arena<u8, u64> = Arena::builder().pool(1).core_capacity(2).build();
        // Inline hold: the predicate panics on its first check.
        assert_panics(|| {
            arena.lock_when(&1, |_| panic!("predicate panics"));
        });
        *arena.lock(&1) += 1;
        // Core hold: false once (the key materializes so the waiter can
        // register), then the re-check holding the core panics.
        let calls = AtomicUsize::new(0);
        assert_panics(|| {
            arena.lock_when(&2, |_| {
                if calls.fetch_add(1, Ordering::SeqCst) > 0 {
                    panic!("predicate panics");
                }
                false
            });
        });
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        *arena.lock(&2) += 1;
        assert_eq!((*arena.lock(&1), *arena.lock(&2)), (1, 1));
        // Seat and pid came back: the key demoted, and waiting on it
        // again materializes the same core with its one pid (a leaked
        // pid would fail that materialization).
        assert_eq!(arena.stats().resident_cores, 0);
        let r = arena.lock_when_for(&2, |v| *v == 2, Duration::from_millis(20));
        assert_eq!(r.err(), Some(AbortReason::Deadline));
        assert_eq!(arena.stats().resident_cores, 0);
    });
}

#[test]
fn panicking_async_lock_when_predicate_releases_lock_and_pid() {
    within_2s(|| {
        let m = AsyncAbortableMutex::builder(0u64).capacity(2).build_async();
        assert_panics(|| {
            block_on(m.lock_when(|v: &u64| {
                if *v == 0 {
                    panic!("predicate panics")
                } else {
                    true
                }
            }));
        });
        assert_eq!(m.free_pids(), 2);
        assert!(m.try_lock().is_some());
        assert_eq!(m.waiters(), 0);
    });
}

/// A waker that counts its wakes.
#[derive(Default)]
struct Count(AtomicUsize);

impl Wake for Count {
    fn wake(self: Arc<Self>) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

fn poll_with<F: Future + Unpin>(fut: &mut F, count: &Arc<Count>) -> Poll<F::Output> {
    let waker = Waker::from(Arc::clone(count));
    Pin::new(fut).poll(&mut Context::from_waker(&waker))
}

#[test]
fn an_abort_wakes_the_other_pending_enters() {
    let m = AsyncAbortableMutex::builder(0u32).capacity(3).build_async();
    let held = m.try_lock().expect("uncontended");
    let flag = AbortFlag::new();
    let (b_wakes, c_wakes) = (Arc::new(Count::default()), Arc::new(Count::default()));
    let mut b = m.lock_abortable(flag.clone());
    let mut c = m.lock();
    assert!(poll_with(&mut b, &b_wakes).is_pending());
    assert!(poll_with(&mut c, &c_wakes).is_pending());
    assert_eq!(c_wakes.0.load(Ordering::SeqCst), 0);
    flag.set();
    assert!(matches!(
        poll_with(&mut b, &b_wakes),
        Poll::Ready(Err(AbortReason::Caller))
    ));
    assert!(
        c_wakes.0.load(Ordering::SeqCst) >= 1,
        "B's abort must wake C's parked enter"
    );
    drop(held);
    match poll_with(&mut c, &c_wakes) {
        Poll::Ready(mut g) => *g += 1,
        Poll::Pending => panic!("C acquires once the holder leaves"),
    }
    drop((b, c));
    assert_eq!(m.free_pids(), 3);
}

#[test]
fn parked_async_waiters_leave_a_pid_for_the_task_that_can_wake_them() {
    let m = AsyncAbortableMutex::builder(0u32).capacity(2).build_async();
    let wakes = Arc::new(Count::default());
    let mut first = m.lock_when(|v: &u32| *v > 0);
    let mut second = m.lock_when(|v: &u32| *v > 0);
    assert!(poll_with(&mut first, &wakes).is_pending());
    assert!(poll_with(&mut second, &wakes).is_pending());
    // Only the first parks holding a pid; the second gave its pid back.
    assert_eq!((m.waiters(), m.free_pids()), (1, 1));
    *m.try_lock().expect("a producer still gets a pid") += 1;
    match poll_with(&mut first, &wakes) {
        Poll::Ready(g) => assert_eq!(*g, 1),
        Poll::Pending => panic!("the satisfied waiter acquires"),
    }
    match poll_with(&mut second, &wakes) {
        Poll::Ready(g) => assert_eq!(*g, 1),
        Poll::Pending => panic!("the retrying waiter acquires"),
    }
    drop((first, second));
    assert_eq!((m.waiters(), m.free_pids()), (0, 2));
}

#[test]
fn dropped_handles_return_their_pid() {
    let m = AbortableMutex::builder(0u32).capacity(1).build();
    drop(m.handle());
    let mut h = m.handle();
    *h.lock() += 1;
    drop(h);
    assert_eq!(m.into_inner(), 1);
}
