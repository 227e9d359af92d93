//! # sal-sync — a practical abortable mutex built on the paper's lock
//!
//! [`AbortableMutex<T>`] wraps the bounded long-lived lock of
//! `sal-core` (Figure 5 + §6.2) around a value, running the *identical*
//! algorithm code over bare `AtomicU64`s ([`sal_memory::RawMemory`])
//! instead of the instrumented simulator memory. The API follows
//! `std::sync::Mutex`, plus the paper's whole point — acquisition
//! attempts that can give up:
//!
//! * timeouts ([`MutexHandle::try_lock_for`] /
//!   [`MutexHandle::try_lock_until`]) — Scott & Scherer's motivating use
//!   case;
//! * external cancellation ([`MutexHandle::lock_abortable`] with an
//!   [`AbortFlag`]) — abandon a work chunk, recover from deadlock, or
//!   yield to a high-priority thread (§1's three use cases; see
//!   `examples/`).
//!
//! Each participating thread registers for a [`MutexHandle`], which
//! holds one of the mutex's `capacity` process identities until it is
//! dropped; the underlying algorithm is capacity-bounded (`O(N²)` words
//! for `N` live handles) and starvation-free.
//!
//! ## Conditional critical sections
//!
//! Beyond plain locking, the mutex offers the nsync/abseil
//! conditional-critical-section interface: acquire the lock *when a
//! predicate over the protected value holds*, with blocked waiters
//! parked (spin-then-park) rather than spinning.
//!
//! * [`MutexHandle::lock_when`] — block until `pred(&data)` is true and
//!   the lock is held;
//! * [`MutexHandle::lock_when_for`] / [`MutexHandle::lock_when_until`]
//!   (MutexHandle::lock_when_until) — the same with a deadline. The
//!   deadline is injected as the paper's abort signal, so a waiter
//!   whose deadline fires *while queued in the lock* abandons in a
//!   bounded number of its own steps — a timeout CCS lock over the
//!   bounded-RMR abort path;
//! * [`MutexHandle::lock_when_abortable`] — caller-signal cancellation,
//!   with [`AbortReason`] saying which limit ended an attempt;
//! * [`MutexGuard::await_when`] (+ timed variants) — atomically release,
//!   re-wait for a predicate, and re-acquire, while a guard is held.
//!
//! The mechanism is **unlock-side condition evaluation** ([`ccs`]
//! module docs): waiters register their conditions, and each unlock
//! evaluates them under the lock, waking only the waiters whose
//! condition currently holds — one state transition wakes the
//! satisfiable waiters, not the whole herd. The broadcast behaviour is
//! available as [`WakePolicy::Broadcast`], the baseline that
//! `tests/ccs_api.rs` checks evaluation against.
//!
//! ## Async locking
//!
//! [`AsyncAbortableMutex`] is the same lock behind poll-based futures:
//! `lock().await` suspends the task instead of spinning the thread, and
//! **dropping a pending lock future is an abort** — cancellation runs
//! the paper's bounded abort path in the dropping task's own poll, so
//! `select!`-style timeouts compose with the lock for free. See the
//! [`async_mutex`] module docs.
//!
//! ```
//! use sal_sync::AbortableMutex;
//!
//! let m = AbortableMutex::builder(Vec::<u32>::new()).capacity(2).build();
//! let mut producer = m.handle();
//! let mut consumer = m.handle();
//! std::thread::scope(|s| {
//!     s.spawn(move || producer.lock().push(7));
//!     s.spawn(move || {
//!         let q = consumer.lock_when(|q| !q.is_empty());
//!         assert_eq!(q[0], 7);
//!     });
//! });
//! ```
//!
//! ```
//! use sal_sync::AbortableMutex;
//! use std::time::Duration;
//!
//! let mutex = AbortableMutex::builder(0u64).capacity(4).build();
//! let mut h = mutex.handle();
//! *h.lock() += 1;                                  // blocking acquire
//! if let Some(mut g) = h.try_lock_for(Duration::from_millis(10)) {
//!     *g += 1;                                     // timed acquire
//! }
//! assert_eq!(*h.lock(), 2);
//! ```
//!
//! ## Opt-in observability
//!
//! The builder accepts any [`sal_obs::Probe`]; the mutex then reports
//! passage lifecycle (and, under instrumented memories, RMR) events to
//! it. With the default [`NoProbe`] every hook monomorphizes to a no-op
//! — the uninstrumented fast path keeps its codegen.
//!
//! ```
//! use sal_obs::PassageStats;
//! use sal_sync::AbortableMutex;
//!
//! let stats = PassageStats::new();
//! let mutex = AbortableMutex::builder(0u64)
//!     .capacity(2)
//!     .probe(stats.clone())
//!     .build();
//! let mut h = mutex.handle();
//! *h.lock() += 1;
//! assert_eq!(stats.total_entered(), 1);
//! ```

#![warn(missing_docs)]

pub mod arena;
pub mod async_mutex;
pub mod ccs;
mod wait;

use sal_core::LockCore;
use sal_memory::{AbortSignal, Deadline, Mem, NeverAbort, Pid};
use sal_obs::{NoProbe, Probe};
use std::cell::UnsafeCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::time::{Duration, Instant};
use wait::{Limit, LockBase};

pub use arena::{Arena, ArenaBuilder, ArenaGuard, ArenaStats};
pub use async_mutex::{AsyncAbortableMutex, AsyncMutexGuard, AsyncStats};
pub use ccs::{CcsStats, WakePolicy};
pub use sal_core::abort::{AbortReason, Immediate};
pub use sal_memory::AbortFlag;

/// Default thread capacity of [`AbortableMutex::new`] and
/// [`AbortableMutex::builder`].
pub const DEFAULT_CAPACITY: usize = 64;

/// Every deadline-bound entry point — [`MutexHandle::try_lock_until`],
/// [`MutexHandle::lock_when_until`] and the arena's deadline variants
/// (via the wait layer's `Limit::Until`), and the async
/// `lock_deadline`/`lock_when_deadline` — builds its abort signal here,
/// so "deadline → abort signal" has exactly one definition: the
/// deadline is injected as the lock's abort signal and honoured on the
/// paper's bounded-RMR abort path, not checked post hoc.
pub(crate) fn deadline_signal(at: Instant) -> Deadline {
    Deadline::at(at)
}

/// Relative-timeout entry points (`*_for` / `*_timeout`) resolve to an
/// absolute deadline exactly once, here, so the timeout and deadline
/// variants of each method cannot drift apart.
pub(crate) fn timeout_deadline(timeout: Duration) -> Instant {
    Instant::now() + timeout
}

/// Default branching factor of the underlying `W`-ary tree.
const DEFAULT_BRANCHING: usize = 64;

/// Configures and constructs an [`AbortableMutex`]: capacity, tree
/// branching, and an optional [`Probe`] sink. Obtain with
/// [`AbortableMutex::builder`].
///
/// ```
/// use sal_sync::AbortableMutex;
///
/// let mutex = AbortableMutex::builder(String::new()).capacity(8).build();
/// assert_eq!(mutex.capacity(), 8);
/// ```
#[derive(Debug)]
pub struct AbortableMutexBuilder<T, P: Probe = NoProbe> {
    value: T,
    capacity: usize,
    branching: usize,
    wake_policy: WakePolicy,
    probe: P,
}

impl<T, P: Probe> AbortableMutexBuilder<T, P> {
    /// Maximum number of registered threads (`1 ..= 1022`). Space is
    /// `O(capacity²)` words, per Claim 28. Defaults to
    /// [`DEFAULT_CAPACITY`].
    pub fn capacity(mut self, threads: usize) -> Self {
        self.capacity = threads;
        self
    }

    /// Branching factor `W` of the underlying tree (`2 ..= 64`).
    /// Defaults to 64, the paper's `Θ(√(log N / log log N))`-optimal
    /// word-width choice for realistic `N`.
    pub fn branching(mut self, w: usize) -> Self {
        self.branching = w;
        self
    }

    /// How unlocks treat conditional waiters: [`WakePolicy::Evaluate`]
    /// (the default — wake only satisfiable waiters) or
    /// [`WakePolicy::Broadcast`] (wake everyone; the measured baseline).
    pub fn wake_policy(mut self, policy: WakePolicy) -> Self {
        self.wake_policy = policy;
        self
    }

    /// Attach an observability sink: every passage of every handle
    /// reports lifecycle events to `probe`. Pass a clone of a shared
    /// sink handle (e.g. [`sal_obs::PassageStats`]) and keep the
    /// original for reading.
    pub fn probe<Q: Probe>(self, probe: Q) -> AbortableMutexBuilder<T, Q> {
        AbortableMutexBuilder {
            value: self.value,
            capacity: self.capacity,
            branching: self.branching,
            wake_policy: self.wake_policy,
            probe,
        }
    }

    /// Build the mutex.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is 0 or exceeds the algorithm's descriptor
    /// limit (1022), or if the branching factor is out of `2 ..= 64`.
    pub fn build(self) -> AbortableMutex<T, P> {
        AbortableMutex {
            base: LockBase::new(self.capacity, self.branching, self.wake_policy, self.probe),
            capacity: self.capacity,
            data: UnsafeCell::new(self.value),
        }
    }
}

/// A mutual-exclusion primitive protecting a `T`, with abortable
/// acquisition, built on the PODC'18 sublogarithmic-RMR abortable lock.
///
/// Unlike `std::sync::Mutex`, threads interact through per-thread
/// [`MutexHandle`]s (the algorithm needs stable process identities);
/// obtain one per thread with [`handle`](Self::handle).
///
/// The second type parameter is the attached [`Probe`] sink; the default
/// [`NoProbe`] compiles to the uninstrumented fast path. Configure with
/// [`builder`](Self::builder).
pub struct AbortableMutex<T: ?Sized, P: Probe = NoProbe> {
    base: LockBase<T, P>,
    capacity: usize,
    data: UnsafeCell<T>,
}

// Safety: the lock algorithm provides mutual exclusion over `data`
// (Lemma 26 / Theorem 23); handles hand out access only under the lock.
// `P: Probe` is already `Send + Sync`.
unsafe impl<T: ?Sized + Send, P: Probe> Send for AbortableMutex<T, P> {}
unsafe impl<T: ?Sized + Send, P: Probe> Sync for AbortableMutex<T, P> {}

impl<T> AbortableMutex<T> {
    /// Start configuring a mutex around `value` — capacity, branching
    /// and probe are set on the returned [`AbortableMutexBuilder`].
    pub fn builder(value: T) -> AbortableMutexBuilder<T> {
        AbortableMutexBuilder {
            value,
            capacity: DEFAULT_CAPACITY,
            branching: DEFAULT_BRANCHING,
            wake_policy: WakePolicy::default(),
            probe: NoProbe,
        }
    }

    /// Create a mutex for up to [`DEFAULT_CAPACITY`] threads.
    ///
    /// Retained shim, equivalent to `AbortableMutex::builder(value)
    /// .build()` — prefer the [`builder`](Self::builder), which also
    /// exposes capacity, branching and probe attachment.
    pub fn new(value: T) -> Self {
        Self::builder(value).build()
    }
}

impl<T, P: Probe> AbortableMutex<T, P> {
    /// Consume the mutex and return the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized, P: Probe> AbortableMutex<T, P> {
    /// Register the calling context and get a handle. Each handle owns
    /// one of the `capacity` process slots for the handle's lifetime;
    /// dropping it returns the slot.
    ///
    /// # Panics
    ///
    /// Panics when more handles are live at once than the capacity
    /// allows.
    pub fn handle(&self) -> MutexHandle<'_, T, P> {
        let Some(pid) = self.base.pids.try_checkout() else {
            panic!(
                "AbortableMutex capacity ({}) exceeded; drop a handle or build with a larger capacity",
                self.capacity
            );
        };
        MutexHandle { mutex: self, pid }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    /// Number of threads this mutex can register.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Shared memory words the lock occupies (the Table-1 space column,
    /// measured).
    pub fn shared_words(&self) -> usize {
        self.base.mem.num_words()
    }

    /// The attached probe sink.
    pub fn probe(&self) -> &P {
        &self.base.probe
    }

    /// The configured [`WakePolicy`] for conditional waiters.
    pub fn wake_policy(&self) -> WakePolicy {
        self.base.ccs.policy()
    }

    /// Number of threads currently blocked in a conditional wait
    /// (`lock_when*` / `await_when*`) on this mutex.
    pub fn waiters(&self) -> usize {
        self.base.ccs.waiting()
    }

    /// Snapshot of the conditional-critical-section counters; see
    /// [`CcsStats`] for the headline `wakeups / transitions` ratio.
    pub fn ccs_stats(&self) -> CcsStats {
        self.base.ccs.stats()
    }

    /// Release the lock held by `pid` (keeping the pid) through the
    /// wait layer's one release path: unlock-side condition evaluation
    /// ([`ccs`] module docs), `exit_core`, wakes.
    pub(crate) fn release(&self, pid: Pid) {
        self.base.release(pid, &self.data);
    }
}

impl<T: fmt::Debug, P: Probe> fmt::Debug for AbortableMutex<T, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AbortableMutex")
            .field("capacity", &self.capacity)
            .field("registered", &(self.capacity - self.base.pids.free_len()))
            .finish_non_exhaustive()
    }
}

impl<T: Default> Default for AbortableMutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T> From<T> for AbortableMutex<T> {
    fn from(value: T) -> Self {
        Self::new(value)
    }
}

/// A per-thread handle to an [`AbortableMutex`]. Obtain with
/// [`AbortableMutex::handle`]; move it to the thread that will use it.
/// Locking takes `&mut self`, so the borrow checker rules out re-entrant
/// acquisition through the same handle.
pub struct MutexHandle<'m, T: ?Sized, P: Probe = NoProbe> {
    mutex: &'m AbortableMutex<T, P>,
    pid: Pid,
}

impl<T: ?Sized, P: Probe> fmt::Debug for MutexHandle<'_, T, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MutexHandle")
            .field("pid", &self.pid)
            .finish()
    }
}

impl<T: ?Sized, P: Probe> Drop for MutexHandle<'_, T, P> {
    fn drop(&mut self) {
        self.mutex.base.pids.release(self.pid);
    }
}

impl<'m, T: ?Sized, P: Probe> MutexHandle<'m, T, P> {
    /// The process slot this handle occupies (diagnostic).
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Acquire the lock, waiting as long as it takes.
    ///
    /// Routed through [`LockCore`] monomorphized at
    /// `(RawMemory, P)` — with the default [`NoProbe`] the whole
    /// passage compiles to direct atomic operations.
    pub fn lock(&mut self) -> MutexGuard<'_, 'm, T, P> {
        let base = &self.mutex.base;
        let outcome = base
            .lock
            .enter_core(&base.mem, self.pid, &NeverAbort, &base.probe);
        debug_assert!(outcome.entered(), "non-abortable enter cannot fail");
        MutexGuard {
            handle: self,
            _marker: std::marker::PhantomData,
        }
    }

    /// Acquire with an arbitrary abort signal; `None` if the attempt was
    /// abandoned. The signal may fire after the lock is already won, in
    /// which case the acquisition still succeeds (the paper's `Enter`
    /// semantics) — the guard is returned and the caller decides.
    pub fn lock_abortable(
        &mut self,
        signal: &(impl AbortSignal + ?Sized),
    ) -> Option<MutexGuard<'_, 'm, T, P>> {
        let base = &self.mutex.base;
        if base
            .lock
            .enter_core(&base.mem, self.pid, signal, &base.probe)
            .entered()
        {
            Some(MutexGuard {
                handle: self,
                _marker: std::marker::PhantomData,
            })
        } else {
            None
        }
    }

    /// Acquire unless `timeout` elapses first.
    pub fn try_lock_for(&mut self, timeout: Duration) -> Option<MutexGuard<'_, 'm, T, P>> {
        self.try_lock_until(timeout_deadline(timeout))
    }

    /// Acquire unless the deadline passes first.
    pub fn try_lock_until(&mut self, deadline: Instant) -> Option<MutexGuard<'_, 'm, T, P>> {
        self.lock_abortable(&deadline_signal(deadline))
    }

    /// One near-immediate attempt: give up as soon as the lock is
    /// observed held. (The paper's `Enter` with the pre-fired
    /// [`Immediate`] signal: if the lock is handed over before the
    /// first wait, the acquisition still succeeds.)
    pub fn try_lock(&mut self) -> Option<MutexGuard<'_, 'm, T, P>> {
        self.lock_abortable(&Immediate)
    }

    /// Acquire the lock *when `pred` holds over the protected value* —
    /// the conditional critical section of nsync's `LockWhen` /
    /// abseil's `Mutex::LockWhen`.
    ///
    /// While `pred` is false the thread parks (spin-then-park); each
    /// unlock evaluates the registered predicate under the lock and
    /// wakes this waiter only once the predicate can succeed (under the
    /// default [`WakePolicy::Evaluate`]). On return the guard is held
    /// and `pred(&*guard)` is true.
    ///
    /// `pred` must be pure with respect to the protected value (it runs
    /// under the lock, possibly on *other* threads' unlock paths — that
    /// is why it must be `Sync`), and should be cheap: every unlocker
    /// pays its cost while holding the lock.
    pub fn lock_when<F>(&mut self, pred: F) -> MutexGuard<'_, 'm, T, P>
    where
        F: Fn(&T) -> bool + Sync,
    {
        let r = ccs::lock_when_raw(self.mutex, self.pid, &pred, &Limit::<NeverAbort>::Forever);
        debug_assert!(r.is_ok(), "unbounded lock_when cannot fail");
        MutexGuard {
            handle: self,
            _marker: std::marker::PhantomData,
        }
    }

    /// [`lock_when`](Self::lock_when) with a timeout: gives up with
    /// [`AbortReason::Deadline`] if `pred` did not hold (with the lock
    /// acquirable) within `timeout`.
    ///
    /// The deadline is injected as the lock's abort signal, so a
    /// deadline that fires while this thread is queued *inside* the
    /// lock is honoured within a bounded number of its own steps — the
    /// paper's bounded-RMR abort path, not a post-hoc check.
    pub fn lock_when_for<F>(
        &mut self,
        pred: F,
        timeout: Duration,
    ) -> Result<MutexGuard<'_, 'm, T, P>, AbortReason>
    where
        F: Fn(&T) -> bool + Sync,
    {
        self.lock_when_until(pred, timeout_deadline(timeout))
    }

    /// [`lock_when`](Self::lock_when) with an absolute deadline; see
    /// [`lock_when_for`](Self::lock_when_for).
    pub fn lock_when_until<F>(
        &mut self,
        pred: F,
        deadline: Instant,
    ) -> Result<MutexGuard<'_, 'm, T, P>, AbortReason>
    where
        F: Fn(&T) -> bool + Sync,
    {
        ccs::lock_when_raw(
            self.mutex,
            self.pid,
            &pred,
            &Limit::<NeverAbort>::Until(deadline),
        )?;
        Ok(MutexGuard {
            handle: self,
            _marker: std::marker::PhantomData,
        })
    }

    /// [`lock_when`](Self::lock_when) with caller-side cancellation:
    /// gives up with [`AbortReason::Caller`] once `signal` fires. Pair
    /// with an [`AbortFlag`] shared with a controller thread.
    pub fn lock_when_abortable<F>(
        &mut self,
        pred: F,
        signal: &(impl AbortSignal + ?Sized),
    ) -> Result<MutexGuard<'_, 'm, T, P>, AbortReason>
    where
        F: Fn(&T) -> bool + Sync,
    {
        ccs::lock_when_raw(self.mutex, self.pid, &pred, &Limit::Signal(signal))?;
        Ok(MutexGuard {
            handle: self,
            _marker: std::marker::PhantomData,
        })
    }
}

/// RAII guard: the lock is held while the guard lives, released on drop.
///
/// Like `std::sync::MutexGuard`: `Sync` only when `T: Sync` (sharing
/// `&MutexGuard` hands out `&T` across threads), and not `Send` (the
/// guard releases through the per-thread handle it borrows).
pub struct MutexGuard<'h, 'm, T: ?Sized, P: Probe = NoProbe> {
    handle: &'h mut MutexHandle<'m, T, P>,
    /// Suppresses the auto `Send`/`Sync` impls, which would otherwise be
    /// derived from the handle reference and wrongly make the guard
    /// `Sync` for any `T: Send` (unsound for `T = Cell<_>` etc.).
    _marker: std::marker::PhantomData<*const ()>,
}

// Safety: `&MutexGuard<T>` only exposes `&T` (plus lock bookkeeping that
// is itself thread-safe), so sharing requires exactly `T: Sync`.
unsafe impl<T: ?Sized + Sync, P: Probe> Sync for MutexGuard<'_, '_, T, P> {}

impl<T: ?Sized, P: Probe> Deref for MutexGuard<'_, '_, T, P> {
    type Target = T;

    fn deref(&self) -> &T {
        // Safety: we hold the lock.
        unsafe { &*self.handle.mutex.data.get() }
    }
}

impl<T: ?Sized, P: Probe> DerefMut for MutexGuard<'_, '_, T, P> {
    fn deref_mut(&mut self) -> &mut T {
        // Safety: we hold the lock exclusively.
        unsafe { &mut *self.handle.mutex.data.get() }
    }
}

impl<'m, T: ?Sized, P: Probe> MutexGuard<'_, 'm, T, P> {
    /// Atomically release the lock, wait until `pred` holds over the
    /// protected value, and re-acquire — nsync's `Await` / abseil's
    /// `Mutex::Await`, for re-waiting in the middle of a critical
    /// section. On return the lock is held (same guard) and
    /// `pred(&*guard)` is true.
    ///
    /// If `pred` already holds, returns immediately without releasing.
    pub fn await_when<F>(&mut self, pred: F)
    where
        F: Fn(&T) -> bool + Sync,
    {
        let m = self.handle.mutex;
        let r = ccs::await_when_raw(m, self.handle.pid, &pred, &Limit::<NeverAbort>::Forever);
        debug_assert!(r.is_ok(), "unbounded await_when cannot fail");
    }

    /// [`await_when`](Self::await_when) with a timeout (abseil
    /// `AwaitWithTimeout` semantics): waits for `pred` at most
    /// `timeout`, then re-acquires the lock *unconditionally* and
    /// returns whether `pred` held at the final, lock-held check. The
    /// lock is held on return either way — the guard stays valid.
    pub fn await_when_for<F>(&mut self, pred: F, timeout: Duration) -> bool
    where
        F: Fn(&T) -> bool + Sync,
    {
        self.await_when_until(pred, timeout_deadline(timeout))
    }

    /// [`await_when_for`](Self::await_when_for) with an absolute
    /// deadline.
    pub fn await_when_until<F>(&mut self, pred: F, deadline: Instant) -> bool
    where
        F: Fn(&T) -> bool + Sync,
    {
        let m = self.handle.mutex;
        ccs::await_when_raw(
            m,
            self.handle.pid,
            &pred,
            &Limit::<NeverAbort>::Until(deadline),
        )
        .is_ok()
    }
}

impl<T: ?Sized, P: Probe> Drop for MutexGuard<'_, '_, T, P> {
    fn drop(&mut self) {
        self.handle.mutex.release(self.handle.pid);
    }
}

impl<T: ?Sized + fmt::Debug, P: Probe> fmt::Debug for MutexGuard<'_, '_, T, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("MutexGuard").field(&&**self).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn basic_lock_unlock_mutates_data() {
        let m = AbortableMutex::builder(vec![1, 2]).capacity(2).build();
        let mut h = m.handle();
        h.lock().push(3);
        assert_eq!(*h.lock(), vec![1, 2, 3]);
        drop(h);
        assert_eq!(m.into_inner(), vec![1, 2, 3]);
    }

    #[test]
    fn counter_integrity_under_real_threads() {
        let m = Arc::new(AbortableMutex::builder(0u64).capacity(9).build());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    let mut h = m.handle();
                    for _ in 0..500 {
                        *h.lock() += 1;
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let mut h = m.handle();
        assert_eq!(*h.lock(), 4000);
    }

    #[test]
    fn timeout_abandons_a_held_lock() {
        let m = AbortableMutex::builder(()).capacity(2).build();
        let mut h0 = m.handle();
        let mut h1 = m.handle();
        let _g = h0.lock();
        let start = Instant::now();
        assert!(h1.try_lock_for(Duration::from_millis(20)).is_none());
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn flag_cancellation_unblocks_a_waiter() {
        let m = Arc::new(AbortableMutex::builder(0u32).capacity(2).build());
        let flag = AbortFlag::new();
        let waiting = Arc::new(AtomicBool::new(false));
        let mut holder = m.handle();
        let g = holder.lock();
        let t = {
            let m = Arc::clone(&m);
            let flag = flag.clone();
            let waiting = Arc::clone(&waiting);
            std::thread::spawn(move || {
                let mut h = m.handle();
                waiting.store(true, Ordering::SeqCst);
                let aborted = h.lock_abortable(&flag).is_none();
                aborted
            })
        };
        while !waiting.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(5));
        flag.set();
        assert!(t.join().unwrap(), "waiter should have aborted");
        drop(g);
    }

    #[test]
    fn try_lock_fails_fast_when_held_and_succeeds_when_free() {
        let m = AbortableMutex::builder(()).capacity(3).build();
        let mut a = m.handle();
        let mut b = m.handle();
        {
            let _g = a.lock();
            assert!(b.try_lock().is_none());
        }
        assert!(b.try_lock().is_some());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn over_registration_panics() {
        let m = AbortableMutex::builder(()).capacity(1).build();
        let _a = m.handle();
        let _b = m.handle();
    }

    #[test]
    fn contended_timed_locking_with_many_threads() {
        let m = Arc::new(AbortableMutex::builder(0u64).capacity(8).build());
        let acquired = Arc::new(AtomicUsize::new(0));
        let aborted = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let m = Arc::clone(&m);
                let acquired = Arc::clone(&acquired);
                let aborted = Arc::clone(&aborted);
                std::thread::spawn(move || {
                    let mut h = m.handle();
                    for _ in 0..100 {
                        match h.try_lock_for(Duration::from_micros(200)) {
                            Some(mut g) => {
                                *g += 1;
                                acquired.fetch_add(1, Ordering::Relaxed);
                            }
                            None => {
                                aborted.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let total = acquired.load(Ordering::Relaxed) as u64;
        let m = Arc::try_unwrap(m).expect("all threads joined");
        assert_eq!(m.into_inner(), total, "every acquisition incremented once");
        assert_eq!(
            acquired.load(Ordering::Relaxed) + aborted.load(Ordering::Relaxed),
            800
        );
    }

    #[test]
    fn debug_and_default_impls() {
        let m: AbortableMutex<u8> = AbortableMutex::default();
        assert!(format!("{m:?}").contains("AbortableMutex"));
        assert_eq!(m.capacity(), DEFAULT_CAPACITY);
        assert!(m.shared_words() > 0);
        let m2: AbortableMutex<u8> = 7u8.into();
        let mut h = m2.handle();
        assert_eq!(*h.lock(), 7);
    }

    #[test]
    fn builder_configures_capacity_and_branching() {
        let narrow = AbortableMutex::builder(()).capacity(4).branching(2).build();
        let wide = AbortableMutex::builder(())
            .capacity(4)
            .branching(64)
            .build();
        assert_eq!(narrow.capacity(), 4);
        // A binary tree over the same leaves needs more words than a
        // 64-ary one.
        assert!(narrow.shared_words() > wide.shared_words());
        let mut h = narrow.handle();
        let _g = h.lock();
    }

    #[test]
    fn builder_probe_observes_passages() {
        let stats = sal_obs::PassageStats::new();
        let log = sal_obs::EventLog::new(256);
        let m = AbortableMutex::builder(0u64)
            .capacity(2)
            .probe((stats.clone(), log.clone()))
            .build();
        let mut h = m.handle();
        for _ in 0..3 {
            *h.lock() += 1;
        }
        drop(h.try_lock().expect("uncontended try_lock succeeds"));
        assert_eq!(stats.total_entered(), 4);
        // Raw atomics report no RMR counts — lifecycle is still exact.
        assert!(stats.records().iter().all(|r| r.rmrs == 0 && r.entered));
        let events = log.events();
        let begins = events
            .iter()
            .filter(|e| e.kind == sal_obs::ObsEventKind::EnterBegin)
            .count();
        let exits = events
            .iter()
            .filter(|e| e.kind == sal_obs::ObsEventKind::CsExit)
            .count();
        assert_eq!((begins, exits), (4, 4));
        assert_eq!(m.probe().0.total_entered(), 4);
    }

    #[test]
    fn aborted_attempts_are_recorded_by_the_probe() {
        let stats = sal_obs::PassageStats::new();
        let m = AbortableMutex::builder(())
            .capacity(2)
            .probe(stats.clone())
            .build();
        let mut a = m.handle();
        let mut b = m.handle();
        let g = a.lock();
        assert!(b.try_lock().is_none());
        drop(g);
        let summary = stats.summary();
        assert_eq!(summary.entered, 1);
        assert_eq!(summary.aborted, 1);
    }
}

#[cfg(test)]
mod marker_tests {
    use super::*;

    fn assert_sync<T: Sync>() {}
    fn assert_send<T: Send>() {}

    #[test]
    fn auto_trait_bounds_match_std_mutex() {
        // The mutex itself: Send + Sync for T: Send, like std.
        assert_send::<AbortableMutex<std::cell::Cell<u64>>>();
        assert_sync::<AbortableMutex<std::cell::Cell<u64>>>();
        // The guard: Sync requires T: Sync (manual impl); a guard over a
        // Send-but-not-Sync T must NOT be shareable — enforced by the
        // PhantomData suppressor + the T: Sync bound on the unsafe impl.
        assert_sync::<MutexGuard<'static, 'static, u64>>();
        // (A compile-fail check for `MutexGuard<Cell<u64>>: Sync` lives
        // in the doc comment; negative impls aren't testable on stable.)
    }
}
