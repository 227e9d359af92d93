//! [`AsyncAbortableMutex`]: the paper's lock behind poll-based futures,
//! where **dropping a pending lock future runs the bounded abort**.
//!
//! ## Why an async surface fits this lock
//!
//! Abortable mutual exclusion asks: can a waiter abandon its attempt in
//! a bounded number of its own steps? That is exactly the contract
//! future cancellation needs. Rust cancels a future by dropping it —
//! whoever drops a pending `lock()` future (a `select!` arm losing, a
//! timeout firing, a task being torn down) implicitly demands that the
//! waiter leave the lock's queue *now*, without waiting for the lock.
//! Most queue locks cannot do that (their waiters must be handed the
//! lock before they can leave, so cancellation degrades to "acquire,
//! then release"). This lock can: `Drop` resolves the enter machine
//! with the pre-fired [`Immediate`](crate::Immediate) signal, which runs the paper's
//! abort path — Tree.remove, conditional rescue, Cleanup — in the
//! dropping thread's own bounded number of steps (§4–§6 of the paper;
//! the `tests/async_cancellation.rs` harness measures the ≤ 300-op
//! bound for every possible cancellation point).
//!
//! ## How it is built
//!
//! The sync [`AbortableMutex`] already split the protocol into a
//! sans-IO state machine ([`sal_core::resume::EnterMachine`]) plus a
//! blocking driver. This module is simply a *second driver*: each poll
//! of a lock future advances the machine one step
//! ([`EnterStep::Pending`](sal_core::EnterStep::Pending) ⇒ store a
//! [`Waker`](std::task::Waker), suspend), and each unlock wakes the
//! suspended enter waiters to re-poll. The pids, the enter slots and the
//! release path are the crate's one pid-and-wait layer (DESIGN.md §11),
//! shared with the sync handles and the arena. Three layers:
//!
//! 1. **Pid checkout.** The algorithm needs stable process identities
//!    and is capacity-bounded, but tasks outnumber pids (10 000 tasks
//!    on a 16-pid mutex is the intended shape). The mutex's FIFO pid
//!    pool hands each future a pid for the duration of its attempt;
//!    futures beyond the capacity queue a ticket carrying their waker
//!    (released pids are granted directly to the queue head, so
//!    admission is FIFO and barge-free).
//! 2. **Enter polling.** With a pid, the future polls the enter
//!    machine through the waker back-end of its pid's enter slot. The
//!    lost-wakeup race is closed by ordering: the waiter engages the
//!    slot and stores its waker *before* the machine reads its watched
//!    go word, and the releaser writes the go word *before* scanning
//!    the slots — whichever of the two orders the race resolves to,
//!    either the waiter sees the nonzero word or the releaser sees the
//!    waker.
//! 3. **Wake broadcast.** The releaser does not know which pid the
//!    protocol will hand the lock to (that knowledge lives in the
//!    queue's go words), so it wakes every *engaged* enter waiter — a
//!    hint, not a grant; woken waiters whose word is still zero go
//!    straight back to sleep and are counted as
//!    [`AsyncStats::futile_enter_wakeups`]. Aborts wake the same way as
//!    unlocks: an abort can hand the lock on (Algorithm 3.3, line 15).
//!
//! Conditional critical sections ride the sync registry: an async
//! `lock_when` registers its predicate in the same per-pid slot the
//! blocking `lock_when` uses, and unlock-side evaluation fires its
//! waker instead of an unpark. A registered task keeps its pid while it
//! waits, so at most `capacity - 1` tasks park that way; a further
//! waiter whose predicate is false releases its pid and retries after
//! yielding, which keeps a pid free for the task that can satisfy the
//! others. The evaluate-vs-broadcast economics
//! ([`WakePolicy`](crate::WakePolicy)) therefore apply unchanged to
//! tasks (`tests/async_mutex.rs` checks that evaluation wakes fewer
//! tasks than broadcast).
//!
//! ## Deadline caveat
//!
//! Deadline-bound waits ([`AsyncAbortableMutex::lock_timeout`] etc.)
//! check their deadline when *polled*: while queued in the lock, any
//! unlock wakes them (the signal is then honoured on the bounded abort
//! path), but under **zero lock traffic** nothing polls them — pair
//! the future with a timer (e.g. `sal_runtime::executor::sleep_until`)
//! if expiry must be prompt without traffic. The sync API, which owns
//! its blocked thread, does not have this caveat.
//!
//! ```
//! use sal_runtime::executor::block_on;
//! use sal_sync::AsyncAbortableMutex;
//!
//! let m = AsyncAbortableMutex::builder(0u64).capacity(4).build_async();
//! block_on(async {
//!     *m.lock().await += 1;
//! });
//! assert_eq!(m.into_inner(), 1);
//! ```

// Every unsafe block in the waker/guard plumbing must carry a
// `// Safety:` justification.
#![warn(clippy::undocumented_unsafe_blocks)]

use crate::wait::{check_held, EnterSlots, PidTicket};
use crate::{deadline_signal, timeout_deadline, AbortableMutex, AbortableMutexBuilder};
use sal_core::resume::EnterMachine;
use sal_core::AbortReason;
use sal_memory::{AbortSignal, Deadline, NeverAbort, Pid};
use sal_obs::{NoProbe, Probe};
use std::fmt;
use std::future::Future;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

#[derive(Default)]
struct StatsInner {
    pid_waits: AtomicU64,
    cancelled_pending: AtomicU64,
}

/// Counters of the async driver, snapshot via
/// [`AsyncAbortableMutex::stats`]. The CCS counters (shared with the
/// sync path) are separate — [`AsyncAbortableMutex::ccs_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AsyncStats {
    /// Wakers fired by unlockers at engaged enter waiters (broadcast
    /// hints — compare with `futile_enter_wakeups` for precision).
    pub enter_wakeups: u64,
    /// Hinted waiters whose re-poll still found their go word zero (the
    /// cost of not knowing the queue successor from the unlock side).
    pub futile_enter_wakeups: u64,
    /// Futures that found no free pid and queued for admission.
    pub pid_waits: u64,
    /// Pending enter futures that were dropped — each one ran the
    /// bounded abort (or took a just-granted lock and released it).
    pub cancelled_pending: u64,
    /// Size of the pid pool — the most tasks that can contend *inside*
    /// the lock at once. Tasks beyond this queue for admission.
    pub pool_capacity: usize,
    /// Pids sitting in the free pool at snapshot time. Equals
    /// [`pool_capacity`](Self::pool_capacity) when no attempt or guard
    /// is in flight — the zero-leak check.
    pub free_pids: usize,
    /// Tasks queued for pid admission at snapshot time: the excess of
    /// concurrent attempts over `pool_capacity`. The snapshot is
    /// advisory — attempts keep arriving while it is taken — but a
    /// persistently large value means the pool, not the lock, is the
    /// bottleneck.
    pub queued_tasks: usize,
}

/// An [`AbortableMutex`] driven by futures instead of blocked threads:
/// `lock().await` suspends the task, dropping a pending lock future
/// aborts the attempt on the paper's bounded abort path. See the
/// [module docs](self) for the design.
///
/// Tasks need no per-thread registration (unlike [`AbortableMutex`]'s
/// handles): process identities are checked out from an internal FIFO
/// pool per attempt, so any number of tasks may share the mutex — at
/// most `capacity` of them contend inside the lock at once, the rest
/// queue for admission.
///
/// ```
/// use sal_runtime::executor::Executor;
/// use sal_sync::AsyncAbortableMutex;
/// use std::sync::Arc;
///
/// let m = Arc::new(AsyncAbortableMutex::builder(0u64).capacity(4).build_async());
/// let ex = Executor::new();
/// for _ in 0..100 {
///     let m = Arc::clone(&m);
///     ex.spawn(async move {
///         *m.lock().await += 1;
///     });
/// }
/// ex.run(2);
/// assert_eq!(*Arc::try_unwrap(m).unwrap().get_mut(), 100);
/// ```
pub struct AsyncAbortableMutex<T: ?Sized, P: Probe = NoProbe> {
    stats: StatsInner,
    m: AbortableMutex<T, P>,
}

impl<T, P: Probe> AbortableMutexBuilder<T, P> {
    /// Build an [`AsyncAbortableMutex`] from this configuration (same
    /// capacity / branching / wake-policy / probe knobs as
    /// [`build`](Self::build)).
    pub fn build_async(self) -> AsyncAbortableMutex<T, P> {
        let mut m = self.build();
        m.base.enters = EnterSlots::new(m.capacity);
        AsyncAbortableMutex {
            stats: StatsInner::default(),
            m,
        }
    }
}

impl<T> AsyncAbortableMutex<T> {
    /// Start configuring: returns the common [`AbortableMutexBuilder`];
    /// finish with [`build_async`](AbortableMutexBuilder::build_async).
    pub fn builder(value: T) -> AbortableMutexBuilder<T> {
        AbortableMutex::builder(value)
    }

    /// An async mutex with default capacity and branching.
    pub fn new(value: T) -> Self {
        Self::builder(value).build_async()
    }

    /// Consume the mutex and return the protected value.
    pub fn into_inner(self) -> T {
        self.m.into_inner()
    }
}

impl<T: ?Sized, P: Probe> AsyncAbortableMutex<T, P> {
    /// Acquire the lock, suspending the task while waiting. Dropping
    /// the returned future before completion cancels the attempt in a
    /// bounded number of steps (module docs).
    pub fn lock(&self) -> LockFuture<'_, T, P> {
        LockFuture {
            inner: self.lock_abortable_impl(NeverAbort, AbortReason::Caller),
        }
    }

    /// [`lock`](Self::lock) with caller-side cancellation: resolves to
    /// [`AbortReason::Caller`] once `signal` fires (share an
    /// [`AbortFlag`](crate::AbortFlag) clone with a controller task).
    /// Dropping the future remains the other, always-available way to
    /// cancel.
    pub fn lock_abortable<S: AbortSignal>(&self, signal: S) -> TryLockFuture<'_, T, P, S> {
        self.lock_abortable_impl(signal, AbortReason::Caller)
    }

    /// [`lock`](Self::lock) bounded by an absolute deadline; resolves
    /// to [`AbortReason::Deadline`] on expiry. See the module docs for
    /// the zero-traffic caveat on async deadlines.
    pub fn lock_deadline(&self, deadline: Instant) -> TryLockFuture<'_, T, P, Deadline> {
        self.lock_abortable_impl(deadline_signal(deadline), AbortReason::Deadline)
    }

    /// [`lock_deadline`](Self::lock_deadline) with a relative timeout.
    pub fn lock_timeout(&self, timeout: Duration) -> TryLockFuture<'_, T, P, Deadline> {
        self.lock_deadline(timeout_deadline(timeout))
    }

    fn lock_abortable_impl<S: AbortSignal>(
        &self,
        signal: S,
        reason: AbortReason,
    ) -> TryLockFuture<'_, T, P, S> {
        TryLockFuture {
            mx: self,
            signal,
            reason,
            st: Acquire::Fresh,
        }
    }

    /// One near-immediate attempt, synchronously: `None` if the lock is
    /// held *or* all pids are checked out by in-flight futures.
    pub fn try_lock(&self) -> Option<AsyncMutexGuard<'_, T, P>> {
        let base = &self.m.base;
        let pid = base.pids.try_checkout()?;
        base.probe.enter_begin(pid);
        if base.enter_now(&mut base.lock.begin_enter(), pid) {
            Some(self.guard(pid))
        } else {
            base.pids.release(pid);
            None
        }
    }

    /// Acquire the lock *when `pred` holds over the protected value* —
    /// the async conditional critical section. Same contract as the
    /// sync [`lock_when`](crate::MutexHandle::lock_when): `pred` runs
    /// under the lock, on other tasks' unlock paths too (hence `Sync`),
    /// and on completion `pred(&*guard)` is true.
    pub fn lock_when<F>(&self, pred: F) -> LockWhenFuture<'_, T, F, P>
    where
        F: Fn(&T) -> bool + Sync,
    {
        LockWhenFuture {
            inner: self.lock_when_impl(pred, NeverAbort, AbortReason::Caller),
        }
    }

    /// [`lock_when`](Self::lock_when) with caller-side cancellation.
    pub fn lock_when_abortable<F, S>(&self, pred: F, signal: S) -> TryLockWhenFuture<'_, T, F, P, S>
    where
        F: Fn(&T) -> bool + Sync,
        S: AbortSignal,
    {
        self.lock_when_impl(pred, signal, AbortReason::Caller)
    }

    /// [`lock_when`](Self::lock_when) bounded by an absolute deadline
    /// (module docs: under zero lock traffic expiry is only noticed
    /// when the future is next polled).
    pub fn lock_when_deadline<F>(
        &self,
        pred: F,
        deadline: Instant,
    ) -> TryLockWhenFuture<'_, T, F, P, Deadline>
    where
        F: Fn(&T) -> bool + Sync,
    {
        self.lock_when_impl(pred, deadline_signal(deadline), AbortReason::Deadline)
    }

    /// [`lock_when_deadline`](Self::lock_when_deadline) with a relative
    /// timeout.
    pub fn lock_when_timeout<F>(
        &self,
        pred: F,
        timeout: Duration,
    ) -> TryLockWhenFuture<'_, T, F, P, Deadline>
    where
        F: Fn(&T) -> bool + Sync,
    {
        self.lock_when_deadline(pred, timeout_deadline(timeout))
    }

    fn lock_when_impl<F, S>(
        &self,
        pred: F,
        signal: S,
        reason: AbortReason,
    ) -> TryLockWhenFuture<'_, T, F, P, S>
    where
        F: Fn(&T) -> bool + Sync,
        S: AbortSignal,
    {
        TryLockWhenFuture {
            mx: self,
            pred: Box::new(pred),
            signal,
            reason,
            st: WhenState::Acquire(Acquire::Fresh),
            woken: false,
        }
    }

    /// Number of tasks this mutex admits into the lock at once (the
    /// underlying capacity; further tasks queue for admission).
    pub fn capacity(&self) -> usize {
        self.m.capacity()
    }

    /// Shared memory words the lock occupies.
    pub fn shared_words(&self) -> usize {
        self.m.shared_words()
    }

    /// The attached probe sink.
    pub fn probe(&self) -> &P {
        self.m.probe()
    }

    /// The configured [`WakePolicy`](crate::WakePolicy) for conditional
    /// waiters.
    pub fn wake_policy(&self) -> crate::WakePolicy {
        self.m.wake_policy()
    }

    /// Tasks currently registered in a conditional wait.
    pub fn waiters(&self) -> usize {
        self.m.waiters()
    }

    /// Snapshot of the conditional-critical-section counters (shared
    /// with the sync path; see [`CcsStats`](crate::CcsStats)).
    pub fn ccs_stats(&self) -> crate::CcsStats {
        self.m.ccs_stats()
    }

    /// Snapshot of the async driver counters.
    pub fn stats(&self) -> AsyncStats {
        AsyncStats {
            enter_wakeups: self.m.base.enters.woken_tasks.load(Ordering::Relaxed),
            futile_enter_wakeups: self.m.base.enters.futile_tasks.load(Ordering::Relaxed),
            pid_waits: self.stats.pid_waits.load(Ordering::Relaxed),
            cancelled_pending: self.stats.cancelled_pending.load(Ordering::Relaxed),
            pool_capacity: self.m.capacity(),
            free_pids: self.free_pids(),
            queued_tasks: self.queued_tasks(),
        }
    }

    /// Pids currently in the free pool. Equals
    /// [`capacity`](Self::capacity) when no attempt or guard is in
    /// flight — the leak check the cancellation tests assert after
    /// storms.
    pub fn free_pids(&self) -> usize {
        self.m.base.pids.free_len()
    }

    /// Tasks queued for pid admission right now.
    pub fn queued_tasks(&self) -> usize {
        self.m.base.pids.queued()
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.m.get_mut()
    }

    fn guard(&self, pid: Pid) -> AsyncMutexGuard<'_, T, P> {
        AsyncMutexGuard {
            mx: self,
            pid,
            _marker: PhantomData,
        }
    }

    /// Start a passage: lifecycle hook + fresh machine.
    fn start_enter(&self, pid: Pid) -> Acquire {
        self.m.base.probe.enter_begin(pid);
        Acquire::Enter {
            pid,
            machine: self.m.base.lock.begin_enter(),
        }
    }

    /// Full unlock: release the lock (waking conditional and enter
    /// waiters) and return the pid to the pool.
    fn unlock_async(&self, pid: Pid) {
        self.m.release(pid);
        self.m.base.pids.release(pid);
    }
}

impl<T: ?Sized, P: Probe> fmt::Debug for AsyncAbortableMutex<T, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AsyncAbortableMutex")
            .field("capacity", &self.capacity())
            .field("free_pids", &self.free_pids())
            .field("queued_tasks", &self.queued_tasks())
            .finish_non_exhaustive()
    }
}

impl<T: Default> Default for AsyncAbortableMutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T> From<T> for AsyncAbortableMutex<T> {
    fn from(value: T) -> Self {
        Self::new(value)
    }
}

/// Progress of one acquisition attempt — the shared core of every lock
/// future in this module.
enum Acquire {
    /// Not yet polled: no pid, no shared-memory footprint.
    Fresh,
    /// Queued for pid admission.
    PidWait(Arc<PidTicket>),
    /// Holding `pid`, driving the enter machine; `Drop` from this state
    /// is the bounded-abort obligation.
    Enter { pid: Pid, machine: EnterMachine },
    /// Resolved (guard handed out, aborted, or cancelled).
    Done,
}

/// Advance an acquisition by one poll. `Ready(Ok(pid))` means the lock
/// is held by `pid` (the caller wraps it in a guard); `Ready(Err)`
/// means the attempt aborted and the pid is already released.
fn poll_acquire<T, P, S>(
    mx: &AsyncAbortableMutex<T, P>,
    st: &mut Acquire,
    signal: &S,
    reason: AbortReason,
    cx: &mut Context<'_>,
) -> Poll<Result<Pid, AbortReason>>
where
    T: ?Sized,
    P: Probe,
    S: AbortSignal + ?Sized,
{
    let base = &mx.m.base;
    loop {
        match st {
            Acquire::Fresh => match base.pids.checkout_or_enqueue(cx.waker()) {
                Ok(pid) => *st = mx.start_enter(pid),
                Err(ticket) => {
                    mx.stats.pid_waits.fetch_add(1, Ordering::Relaxed);
                    *st = Acquire::PidWait(ticket);
                    return Poll::Pending;
                }
            },
            Acquire::PidWait(ticket) => match ticket.poll_granted(cx.waker()) {
                Some(pid) => *st = mx.start_enter(pid),
                None => return Poll::Pending,
            },
            Acquire::Enter { pid, machine } => {
                let pid = *pid;
                let acquired = match base.poll_task(machine, pid, signal, cx.waker()) {
                    Poll::Pending => return Poll::Pending,
                    Poll::Ready(acquired) => acquired,
                };
                *st = Acquire::Done;
                if acquired {
                    return Poll::Ready(Ok(pid));
                }
                base.pids.release(pid);
                return Poll::Ready(Err(reason));
            }
            Acquire::Done => panic!("lock future polled after completion"),
        }
    }
}

/// Resolve a dropped attempt: cancellation = the paper's abort. With
/// the pre-fired [`Immediate`](crate::Immediate) signal one poll either acquires (the
/// lock was handed over in the race window — release it) or runs the
/// complete abort path; both are bounded in the dropping task's steps.
fn drop_acquire<T, P>(mx: &AsyncAbortableMutex<T, P>, st: &mut Acquire)
where
    T: ?Sized,
    P: Probe,
{
    match std::mem::replace(st, Acquire::Done) {
        Acquire::Fresh | Acquire::Done => {}
        Acquire::PidWait(ticket) => {
            if let Some(pid) = ticket.cancel() {
                mx.m.base.pids.release(pid);
            }
        }
        Acquire::Enter { pid, mut machine } => {
            mx.m.base.disengage(pid);
            mx.stats.cancelled_pending.fetch_add(1, Ordering::Relaxed);
            if mx.m.base.enter_now(&mut machine, pid) {
                mx.m.release(pid);
            }
            mx.m.base.pids.release(pid);
        }
    }
}

/// Future of [`AsyncAbortableMutex::lock`]. Dropping it while pending
/// cancels the attempt (bounded abort).
pub struct LockFuture<'a, T: ?Sized, P: Probe = NoProbe> {
    inner: TryLockFuture<'a, T, P, NeverAbort>,
}

impl<'a, T: ?Sized, P: Probe> Future for LockFuture<'a, T, P> {
    type Output = AsyncMutexGuard<'a, T, P>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        Pin::new(&mut self.inner)
            .poll(cx)
            .map(|r| r.expect("non-abortable lock cannot fail"))
    }
}

impl<T: ?Sized, P: Probe> fmt::Debug for LockFuture<'_, T, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockFuture").finish_non_exhaustive()
    }
}

/// Future of the abortable/deadline lock methods. Resolves to `Err`
/// with the originating method's [`AbortReason`] if the signal ends the
/// attempt; dropping it while pending cancels like [`LockFuture`].
pub struct TryLockFuture<'a, T: ?Sized, P: Probe = NoProbe, S: AbortSignal = Deadline> {
    mx: &'a AsyncAbortableMutex<T, P>,
    signal: S,
    reason: AbortReason,
    st: Acquire,
}

impl<'a, T: ?Sized, P: Probe, S: AbortSignal + Unpin> Future for TryLockFuture<'a, T, P, S> {
    type Output = Result<AsyncMutexGuard<'a, T, P>, AbortReason>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        poll_acquire(this.mx, &mut this.st, &this.signal, this.reason, cx)
            .map(|r| r.map(|pid| this.mx.guard(pid)))
    }
}

impl<T: ?Sized, P: Probe, S: AbortSignal> Drop for TryLockFuture<'_, T, P, S> {
    fn drop(&mut self) {
        drop_acquire(self.mx, &mut self.st);
    }
}

impl<T: ?Sized, P: Probe, S: AbortSignal> fmt::Debug for TryLockFuture<'_, T, P, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TryLockFuture").finish_non_exhaustive()
    }
}

/// Progress of a conditional acquisition.
enum WhenState {
    /// (Re-)acquiring the lock to check the predicate.
    Acquire(Acquire),
    /// Predicate registered in the CCS slot of `pid`, lock released,
    /// waiting for an unlocker's evaluation to fire our waker.
    CondWait { pid: Pid },
    /// Resolved.
    Done,
}

/// Future of [`AsyncAbortableMutex::lock_when`] (via the unbounded
/// wrapper) and its abortable/deadline variants. The predicate lives in
/// a `Box` inside the future so the pointer registered with the CCS
/// slot stays valid even if the future is leaked mid-wait.
pub struct TryLockWhenFuture<'a, T: ?Sized, F, P: Probe = NoProbe, S: AbortSignal = Deadline> {
    mx: &'a AsyncAbortableMutex<T, P>,
    pred: Box<F>,
    signal: S,
    reason: AbortReason,
    st: WhenState,
    /// Whether the last cond-wait ended in a notification (futile-wake
    /// accounting parity with the sync path).
    woken: bool,
}

impl<'a, T, F, P, S> Future for TryLockWhenFuture<'a, T, F, P, S>
where
    T: ?Sized,
    F: Fn(&T) -> bool + Sync + Unpin,
    P: Probe,
    S: AbortSignal + Unpin,
{
    type Output = Result<AsyncMutexGuard<'a, T, P>, AbortReason>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        loop {
            match &mut this.st {
                WhenState::Acquire(acq) => {
                    let pid = match poll_acquire(this.mx, acq, &this.signal, this.reason, cx) {
                        Poll::Pending => return Poll::Pending,
                        Poll::Ready(Err(r)) => {
                            this.st = WhenState::Done;
                            return Poll::Ready(Err(r));
                        }
                        Poll::Ready(Ok(pid)) => pid,
                    };
                    let mx = this.mx;
                    if check_held(&mx.m.data, &*this.pred, || mx.unlock_async(pid)) {
                        this.st = WhenState::Done;
                        return Poll::Ready(Ok(mx.guard(pid)));
                    }
                    let ccs = &mx.m.base.ccs;
                    if this.woken {
                        ccs.note_futile();
                    }
                    if this.signal.is_set() {
                        mx.unlock_async(pid);
                        this.st = WhenState::Done;
                        return Poll::Ready(Err(this.reason));
                    }
                    // Parking would take the last pid no parked waiter
                    // holds, locking out every task that could make the
                    // predicate true: retry as a fresh attempt instead,
                    // after yielding.
                    if !mx.m.base.pids.hold_parked() {
                        mx.unlock_async(pid);
                        this.st = WhenState::Acquire(Acquire::Fresh);
                        cx.waker().wake_by_ref();
                        return Poll::Pending;
                    }
                    // Register under the lock (no transition can be
                    // missed), park the waker, then release.
                    ccs.register(pid, &*this.pred);
                    ccs.set_waker(pid, cx.waker());
                    ccs.note_wait();
                    mx.m.release(pid);
                    this.st = WhenState::CondWait { pid };
                    return Poll::Pending;
                }
                WhenState::CondWait { pid } => {
                    let pid = *pid;
                    this.woken = this.mx.m.base.ccs.deregister(pid);
                    this.mx.m.base.pids.unhold_parked();
                    this.st = WhenState::Acquire(this.mx.start_enter(pid));
                    // Fall through: re-acquire within this poll.
                }
                WhenState::Done => panic!("lock_when future polled after completion"),
            }
        }
    }
}

impl<T: ?Sized, F, P: Probe, S: AbortSignal> Drop for TryLockWhenFuture<'_, T, F, P, S> {
    fn drop(&mut self) {
        match std::mem::replace(&mut self.st, WhenState::Done) {
            WhenState::Acquire(mut acq) => drop_acquire(self.mx, &mut acq),
            WhenState::CondWait { pid } => {
                let base = &self.mx.m.base;
                base.ccs.deregister(pid);
                base.pids.unhold_parked();
                base.pids.release(pid);
            }
            WhenState::Done => {}
        }
    }
}

impl<T: ?Sized, F, P: Probe, S: AbortSignal> fmt::Debug for TryLockWhenFuture<'_, T, F, P, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TryLockWhenFuture").finish_non_exhaustive()
    }
}

/// Future of [`AsyncAbortableMutex::lock_when`]: unbounded, resolves to
/// the guard with the predicate true.
pub struct LockWhenFuture<'a, T: ?Sized, F, P: Probe = NoProbe> {
    inner: TryLockWhenFuture<'a, T, F, P, NeverAbort>,
}

impl<'a, T, F, P> Future for LockWhenFuture<'a, T, F, P>
where
    T: ?Sized,
    F: Fn(&T) -> bool + Sync + Unpin,
    P: Probe,
{
    type Output = AsyncMutexGuard<'a, T, P>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        Pin::new(&mut self.inner)
            .poll(cx)
            .map(|r| r.expect("unbounded lock_when cannot fail"))
    }
}

impl<T: ?Sized, F, P: Probe> fmt::Debug for LockWhenFuture<'_, T, F, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockWhenFuture").finish_non_exhaustive()
    }
}

/// RAII guard of the async mutex: the lock is held while the guard
/// lives, released (with unlock-side condition evaluation and enter-
/// waiter hints) on drop.
///
/// Unlike the sync [`MutexGuard`](crate::MutexGuard), this guard is
/// `Send` (for `T: Send`): the process identity is carried explicitly
/// in the guard rather than through a thread-affine handle, and the
/// algorithm keys all per-process state by pid, so an executor may
/// resume the holding task — and hence drop the guard — on any worker
/// thread.
pub struct AsyncMutexGuard<'a, T: ?Sized, P: Probe = NoProbe> {
    mx: &'a AsyncAbortableMutex<T, P>,
    pid: Pid,
    /// Suppresses the auto `Send`/`Sync` impls so the manual ones below
    /// carry exactly the right bounds.
    _marker: PhantomData<*const ()>,
}

// Safety: the guard is morally an `&mut T` plus pid-keyed lock
// bookkeeping; the algorithm is indifferent to which OS thread performs
// a pid's operations, so moving the guard across threads requires
// exactly `T: Send`.
unsafe impl<T: ?Sized + Send, P: Probe> Send for AsyncMutexGuard<'_, T, P> {}
// Safety: `&AsyncMutexGuard<T>` exposes only `&T` (plus thread-safe
// bookkeeping), so sharing requires exactly `T: Sync`.
unsafe impl<T: ?Sized + Sync, P: Probe> Sync for AsyncMutexGuard<'_, T, P> {}

impl<T: ?Sized, P: Probe> Deref for AsyncMutexGuard<'_, T, P> {
    type Target = T;

    fn deref(&self) -> &T {
        // Safety: we hold the lock.
        unsafe { &*self.mx.m.data.get() }
    }
}

impl<T: ?Sized, P: Probe> DerefMut for AsyncMutexGuard<'_, T, P> {
    fn deref_mut(&mut self) -> &mut T {
        // Safety: we hold the lock exclusively.
        unsafe { &mut *self.mx.m.data.get() }
    }
}

impl<T: ?Sized, P: Probe> Drop for AsyncMutexGuard<'_, T, P> {
    fn drop(&mut self) {
        self.mx.unlock_async(self.pid);
    }
}

impl<T: ?Sized + fmt::Debug, P: Probe> fmt::Debug for AsyncMutexGuard<'_, T, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("AsyncMutexGuard").field(&&**self).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::task::{RawWaker, RawWakerVTable, Waker};

    /// A waker that counts its wakes (enough to drive futures by hand).
    fn counting_waker(count: &'static AtomicUsize) -> Waker {
        fn vt() -> &'static RawWakerVTable {
            &RawWakerVTable::new(
                |d| RawWaker::new(d, vt()),
                |d| {
                    // Safety: `d` is the `&'static AtomicUsize` stored
                    // by `counting_waker`; it is never deallocated.
                    unsafe { &*d.cast::<AtomicUsize>() }.fetch_add(1, Ordering::SeqCst);
                },
                |d| {
                    // Safety: as above.
                    unsafe { &*d.cast::<AtomicUsize>() }.fetch_add(1, Ordering::SeqCst);
                },
                |_| {},
            )
        }
        let raw = RawWaker::new((count as *const AtomicUsize).cast(), vt());
        // Safety: the vtable functions only touch the leaked static.
        unsafe { Waker::from_raw(raw) }
    }

    fn poll_once<F: Future + Unpin>(fut: &mut F, w: &Waker) -> Poll<F::Output> {
        Pin::new(fut).poll(&mut Context::from_waker(w))
    }

    static WAKES: AtomicUsize = AtomicUsize::new(0);

    #[test]
    fn uncontended_lock_resolves_on_first_poll() {
        let m = AsyncAbortableMutex::builder(5u64).capacity(2).build_async();
        let w = counting_waker(&WAKES);
        let mut fut = m.lock();
        match poll_once(&mut fut, &w) {
            Poll::Ready(mut g) => *g += 1,
            Poll::Pending => panic!("uncontended lock should resolve immediately"),
        }
        drop(fut);
        assert_eq!(m.free_pids(), 2);
        assert_eq!(m.into_inner(), 6);
    }

    #[test]
    fn contended_lock_parks_and_release_wakes() {
        static CONTEND_WAKES: AtomicUsize = AtomicUsize::new(0);
        let m = AsyncAbortableMutex::builder(0u64).capacity(2).build_async();
        let w = counting_waker(&WAKES);
        let g = m.try_lock().expect("uncontended");
        let mut fut = m.lock();
        let cw = counting_waker(&CONTEND_WAKES);
        assert!(poll_once(&mut fut, &cw).is_pending());
        assert_eq!(CONTEND_WAKES.load(Ordering::SeqCst), 0);
        drop(g); // must hint the parked waiter
        assert!(CONTEND_WAKES.load(Ordering::SeqCst) >= 1);
        match poll_once(&mut fut, &w) {
            Poll::Ready(mut g2) => *g2 += 1,
            Poll::Pending => panic!("woken waiter should acquire"),
        }
        drop(fut);
        assert_eq!(m.stats().enter_wakeups, 1);
        assert_eq!(m.into_inner(), 1);
    }

    #[test]
    fn dropping_a_pending_future_aborts_and_frees_the_pid() {
        let m = AsyncAbortableMutex::builder(()).capacity(3).build_async();
        let w = counting_waker(&WAKES);
        let g = m.try_lock().expect("uncontended");
        let mut fut = m.lock();
        assert!(poll_once(&mut fut, &w).is_pending());
        assert_eq!(m.free_pids(), 1);
        drop(fut); // cancellation = bounded abort
        assert_eq!(m.free_pids(), 2);
        assert_eq!(m.stats().cancelled_pending, 1);
        drop(g);
        assert_eq!(m.free_pids(), 3);
        // The mutex still works.
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn pid_exhaustion_queues_tasks_fifo() {
        let m = AsyncAbortableMutex::builder(0u32).capacity(1).build_async();
        let w = counting_waker(&WAKES);
        let g = m.try_lock().expect("takes the only pid");
        let mut fut = m.lock();
        assert!(poll_once(&mut fut, &w).is_pending());
        assert_eq!(m.queued_tasks(), 1);
        assert_eq!(m.stats().pid_waits, 1);
        drop(g); // hands the pid to the queued future
        match poll_once(&mut fut, &w) {
            Poll::Ready(mut g2) => *g2 += 1,
            Poll::Pending => panic!("granted pid should let the waiter in"),
        }
        drop(fut);
        assert_eq!(m.queued_tasks(), 0);
        assert_eq!(m.into_inner(), 1);
    }

    #[test]
    fn stats_snapshot_pool_occupancy_with_tasks_beyond_capacity() {
        // 1 holder + 1 in-lock waiter exhaust a capacity-2 pool; six
        // more suspended attempts sit in the admission queue. The
        // occupancy snapshot must see all of it.
        let m = AsyncAbortableMutex::builder(0u32).capacity(2).build_async();
        let w = counting_waker(&WAKES);
        let g = m.try_lock().expect("uncontended");
        let mut futs: Vec<_> = (0..7).map(|_| m.lock()).collect();
        for fut in &mut futs {
            assert!(poll_once(fut, &w).is_pending());
        }
        let s = m.stats();
        assert_eq!(s.pool_capacity, 2);
        assert_eq!(s.free_pids, 0, "holder + one waiter own both pids");
        assert_eq!(s.queued_tasks, 6, "excess attempts queue for admission");
        drop(futs);
        drop(g);
        let s = m.stats();
        assert_eq!(s.free_pids, s.pool_capacity, "no pid leaked");
        assert_eq!(s.queued_tasks, 0);
    }

    #[test]
    fn deadline_future_errs_once_expired() {
        let m = AsyncAbortableMutex::builder(()).capacity(2).build_async();
        let w = counting_waker(&WAKES);
        let g = m.try_lock().expect("uncontended");
        let mut fut = m.lock_timeout(Duration::from_millis(5));
        assert!(poll_once(&mut fut, &w).is_pending());
        std::thread::sleep(Duration::from_millis(10));
        match poll_once(&mut fut, &w) {
            Poll::Ready(Err(AbortReason::Deadline)) => {}
            other => panic!("expected deadline abort, got {other:?}"),
        }
        drop(g);
        assert_eq!(m.free_pids(), 2);
    }

    #[test]
    fn abort_flag_cancels_a_parked_future() {
        let m = AsyncAbortableMutex::builder(()).capacity(2).build_async();
        let w = counting_waker(&WAKES);
        let g = m.try_lock().expect("uncontended");
        let flag = crate::AbortFlag::new();
        let mut fut = m.lock_abortable(flag.clone());
        assert!(poll_once(&mut fut, &w).is_pending());
        flag.set();
        match poll_once(&mut fut, &w) {
            Poll::Ready(Err(AbortReason::Caller)) => {}
            other => panic!("expected caller abort, got {other:?}"),
        }
        drop(g);
    }

    #[test]
    fn lock_when_waits_for_the_predicate() {
        let m = AsyncAbortableMutex::builder(0u32).capacity(2).build_async();
        let w = counting_waker(&WAKES);
        let mut fut = m.lock_when(|v: &u32| *v >= 3);
        assert!(poll_once(&mut fut, &w).is_pending());
        assert_eq!(m.waiters(), 1);
        // Two transitions that don't satisfy it, one that does.
        for _ in 0..3 {
            let mut g = m.try_lock().expect("lock free while waiter parked");
            *g += 1;
        }
        match poll_once(&mut fut, &w) {
            Poll::Ready(g) => assert_eq!(*g, 3),
            Poll::Pending => panic!("satisfied predicate should admit the waiter"),
        }
        assert_eq!(m.waiters(), 0);
    }

    #[test]
    fn dropping_a_cond_waiter_deregisters_and_frees_the_pid() {
        let m = AsyncAbortableMutex::builder(0u32).capacity(2).build_async();
        let w = counting_waker(&WAKES);
        let mut fut = m.lock_when(|v: &u32| *v > 0);
        assert!(poll_once(&mut fut, &w).is_pending());
        assert_eq!((m.waiters(), m.free_pids()), (1, 1));
        drop(fut);
        assert_eq!((m.waiters(), m.free_pids()), (0, 2));
    }

    #[test]
    fn guard_is_send_and_futures_are_send() {
        fn assert_send<X: Send>() {}
        assert_send::<AsyncMutexGuard<'static, u64>>();
        assert_send::<LockFuture<'static, u64>>();
        assert_send::<TryLockFuture<'static, u64>>();
        assert_send::<AsyncAbortableMutex<u64>>();
    }
}
