//! The pid-and-wait layer under all three surfaces.
//!
//! [`AbortableMutex`](crate::AbortableMutex),
//! [`AsyncAbortableMutex`](crate::AsyncAbortableMutex) and
//! [`Arena`](crate::Arena) each wrap a [`LockBase`]: the paper's lock
//! over raw memory, its probe, a FIFO [`PidPool`], the conditional-wait
//! registry and a row of [`EnterSlot`]s. This module is the only place
//! that leases pids and waits.
//!
//! * **One wait bound.** [`Limit`] (forever, until an instant, or until
//!   a caller signal fires) is also the lock's abort signal, so a limit
//!   firing while queued inside the lock abandons on the paper's bounded
//!   abort path.
//! * **One pid pool.** Released pids are granted straight to the oldest
//!   queued ticket, so admission is FIFO. Tasks queue with their waker;
//!   threads queue with a waker that unparks them
//!   ([`PidPool::checkout`]). Conditional waiters that lease their pid
//!   per attempt never park holding every pid
//!   ([`PidPool::hold_parked`]).
//! * **One enter-slot driver.** A parked enter — a blocked thread
//!   ([`LockBase::enter_parked`]) or a suspended task
//!   ([`LockBase::poll_task`]) — publishes itself in its pid's slot, and
//!   [`EnterSlots::wake_enter_waiters`] hints every engaged slot.
//!   Wakes follow every exit *and every abort*: an abort can hand the
//!   lock to a successor, writing its go word as an exit does
//!   (Algorithm 3.3, line 15).
//! * **One release path** ([`LockBase::release`]) and **one cond-wait
//!   step** ([`LockBase::cond_wait`]).
//!
//! A predicate that panics leaks nothing: the check that runs with the
//! lock held ([`check_held`]) releases the lock, the pid, the arena seat
//! and the registration before the panic continues, and an unlocker's
//! evaluation treats a panicking predicate as satisfied (its waiter
//! re-runs it and panics on its own thread).

use crate::ccs::{CcsRegistry, RegistrationGuard, WakePolicy};
use sal_core::long_lived::BoundedLongLivedLock;
use sal_core::park::{ParkResult, Waiter};
use sal_core::{AbortReason, EnterMachine, EnterStep, Immediate, LockCore};
use sal_memory::{AbortSignal, MemoryBuilder, Pid, RawMemory};
use sal_obs::{probed, Probe};
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Poll, Wake, Waker};
use std::time::{Duration, Instant};

/// How often a wait limited by an arbitrary caller signal re-polls the
/// signal while parked (nobody wakes us when a foreign signal fires;
/// deadline-limited waits park exactly until their instant).
const SIGNAL_POLL: Duration = Duration::from_micros(100);

/// What bounds a wait: nothing, a deadline, or a caller signal. It is
/// also the abort signal injected into the lock, so the unbounded case
/// never fires.
pub(crate) enum Limit<'s, S: AbortSignal + ?Sized> {
    /// Wait as long as it takes.
    Forever,
    /// Give up once the instant passes.
    Until(Instant),
    /// Give up once the signal fires.
    Signal(&'s S),
}

impl<S: AbortSignal + ?Sized> AbortSignal for Limit<'_, S> {
    #[inline]
    fn is_set(&self) -> bool {
        match self {
            Limit::Forever => false,
            Limit::Until(t) => crate::deadline_signal(*t).is_set(),
            Limit::Signal(s) => s.is_set(),
        }
    }
}

impl<S: AbortSignal + ?Sized> Limit<'_, S> {
    /// The reason this limit reports when it cuts a wait short.
    pub(crate) fn reason(&self) -> AbortReason {
        match self {
            Limit::Forever => unreachable!("unbounded waits cannot abort"),
            Limit::Until(_) => AbortReason::Deadline,
            Limit::Signal(_) => AbortReason::Caller,
        }
    }

    /// Whether the limit has already expired.
    pub(crate) fn expired(&self) -> Option<AbortReason> {
        self.is_set().then(|| self.reason())
    }

    /// Park on `w` until notified or the limit expires. `None` means
    /// notified (or a spurious wake — callers re-check anyway);
    /// `Some(reason)` means the limit ended the wait.
    pub(crate) fn park(&self, w: &Waiter) -> Option<AbortReason> {
        match self {
            Limit::Forever => {
                w.park_until(None);
                None
            }
            Limit::Until(t) => match w.park_until(Some(*t)) {
                ParkResult::Notified => None,
                ParkResult::TimedOut => Some(AbortReason::Deadline),
            },
            Limit::Signal(s) => loop {
                if w.park_until(Some(Instant::now() + SIGNAL_POLL)).notified() {
                    return None;
                }
                if s.is_set() {
                    return Some(AbortReason::Caller);
                }
            },
        }
    }
}

/// A waiter queued for a pid. Granted pids are handed to the ticket
/// directly (never parked back in the free list), which keeps admission
/// FIFO; a cancelled ticket is skipped by the grantor.
pub(crate) struct PidTicket {
    state: Mutex<TicketState>,
}

enum TicketState {
    /// In the queue; the waker (if any) is fired on grant.
    Waiting(Option<Waker>),
    /// A releaser handed this ticket a pid; the owner consumes it on its
    /// next poll (or releases it if it cancels first).
    Granted(Pid),
    /// Consumed or cancelled — the ticket is dead either way.
    Dead,
}

impl PidTicket {
    /// Take the granted pid if one arrived, else re-arm the waker.
    pub(crate) fn poll_granted(&self, waker: &Waker) -> Option<Pid> {
        let mut st = self.state.lock().unwrap();
        match *st {
            TicketState::Granted(pid) => {
                *st = TicketState::Dead;
                Some(pid)
            }
            TicketState::Waiting(_) => {
                *st = TicketState::Waiting(Some(waker.clone()));
                None
            }
            TicketState::Dead => unreachable!("pid ticket polled after death"),
        }
    }

    /// Cancel; returns a pid that must be put back if the grant raced
    /// the cancellation.
    pub(crate) fn cancel(&self) -> Option<Pid> {
        let mut st = self.state.lock().unwrap();
        match std::mem::replace(&mut *st, TicketState::Dead) {
            TicketState::Granted(pid) => Some(pid),
            TicketState::Waiting(_) | TicketState::Dead => None,
        }
    }
}

/// Wakes a thread blocked in [`PidPool::checkout`].
struct ThreadWaker(Waiter);

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.0.unpark();
    }
}

/// The pid free list + FIFO admission queue. Invariant: the free list
/// and the live part of the queue are never both non-empty (a release
/// grants to the queue head before feeding the free list), so a fresh
/// checkout popping the free list cannot barge past queued ones.
pub(crate) struct PidPool {
    inner: Mutex<PoolInner>,
    /// Pids held by parked conditional waiters of surfaces that lease a
    /// pid per attempt; kept below `size` (see [`PidPool::hold_parked`]).
    parked: AtomicUsize,
    size: usize,
}

struct PoolInner {
    free: Vec<Pid>,
    queue: VecDeque<Arc<PidTicket>>,
}

impl PidPool {
    /// A pool lending the pids in `pids`.
    pub(crate) fn new(pids: Range<Pid>) -> Self {
        PidPool {
            size: pids.len(),
            inner: Mutex::new(PoolInner {
                // Reversed so `pop` hands out the lowest pid first
                // (cosmetic).
                free: pids.rev().collect(),
                queue: VecDeque::new(),
            }),
            parked: AtomicUsize::new(0),
        }
    }

    /// Count one more pid as held by a parked conditional waiter, unless
    /// that would leave every pid parked: the task that could make the
    /// waiters' condition true would then never get a pid. `false` means
    /// the caller must release its pid instead of parking with it.
    pub(crate) fn hold_parked(&self) -> bool {
        self.parked
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n + 1 < self.size).then_some(n + 1)
            })
            .is_ok()
    }

    /// The parked waiter counted by [`hold_parked`](Self::hold_parked)
    /// woke or left.
    pub(crate) fn unhold_parked(&self) {
        self.parked.fetch_sub(1, Ordering::SeqCst);
    }

    /// Non-waiting checkout.
    pub(crate) fn try_checkout(&self) -> Option<Pid> {
        self.inner.lock().unwrap().free.pop()
    }

    /// Check out a pid now, or join the admission queue.
    pub(crate) fn checkout_or_enqueue(&self, waker: &Waker) -> Result<Pid, Arc<PidTicket>> {
        let mut inner = self.inner.lock().unwrap();
        if let Some(pid) = inner.free.pop() {
            return Ok(pid);
        }
        let ticket = Arc::new(PidTicket {
            state: Mutex::new(TicketState::Waiting(Some(waker.clone()))),
        });
        inner.queue.push_back(Arc::clone(&ticket));
        Err(ticket)
    }

    /// Blocking checkout for threads: queue a ticket whose waker unparks
    /// this thread. `None` when `limit` expired first (the ticket is
    /// cancelled, and a pid granted in the race is passed on).
    pub(crate) fn checkout<S: AbortSignal + ?Sized>(&self, limit: &Limit<'_, S>) -> Option<Pid> {
        if let Some(pid) = self.try_checkout() {
            return Some(pid);
        }
        let parker = Arc::new(ThreadWaker(Waiter::new()));
        let waker = Waker::from(Arc::clone(&parker));
        let ticket = match self.checkout_or_enqueue(&waker) {
            Ok(pid) => return Some(pid),
            Err(ticket) => ticket,
        };
        loop {
            if let Some(pid) = ticket.poll_granted(&waker) {
                return Some(pid);
            }
            if limit.park(&parker.0).is_some() {
                if let Some(pid) = ticket.cancel() {
                    self.release(pid);
                }
                return None;
            }
        }
    }

    /// Return `pid`: granted to the first live queued ticket, else put in
    /// the free list. The grantee's waker fires outside the pool lock.
    pub(crate) fn release(&self, pid: Pid) {
        let waker = {
            let mut inner = self.inner.lock().unwrap();
            let mut granted = None;
            while let Some(ticket) = inner.queue.pop_front() {
                let mut st = ticket.state.lock().unwrap();
                match &mut *st {
                    TicketState::Dead => continue,
                    TicketState::Waiting(w) => {
                        let w = w.take();
                        *st = TicketState::Granted(pid);
                        granted = Some(w);
                        break;
                    }
                    TicketState::Granted(_) => {
                        unreachable!("queued ticket already holds a pid")
                    }
                }
            }
            match granted {
                Some(w) => w,
                None => {
                    inner.free.push(pid);
                    None
                }
            }
        };
        if let Some(w) = waker {
            w.wake();
        }
    }

    /// Pids in the free list right now.
    pub(crate) fn free_len(&self) -> usize {
        self.inner.lock().unwrap().free.len()
    }

    /// Live tickets in the admission queue right now.
    pub(crate) fn queued(&self) -> usize {
        let inner = self.inner.lock().unwrap();
        inner
            .queue
            .iter()
            .filter(|t| matches!(*t.state.lock().unwrap(), TicketState::Waiting(_)))
            .count()
    }
}

/// Slot engagement: nobody parked, a blocked thread, a suspended task.
const IDLE: u8 = 0;
const THREAD: u8 = 1;
const TASK: u8 = 2;

/// Per-pid parking slot of a waiting enter. `engaged` says which
/// back-end is parked, so an unlocker pays one load per idle slot, one
/// unpark per parked thread, and touches the waker mutex only for slots
/// a task armed.
pub(crate) struct EnterSlot {
    engaged: AtomicU8,
    /// Set by the unlocker that woke a task; the task swaps it out to
    /// attribute its wake (futile-wakeup accounting).
    hint: AtomicBool,
    waiter: Waiter,
    waker: Mutex<Option<Waker>>,
}

impl EnterSlot {
    fn new() -> Self {
        EnterSlot {
            engaged: AtomicU8::new(IDLE),
            hint: AtomicBool::new(false),
            waiter: Waiter::new(),
            waker: Mutex::new(None),
        }
    }

    fn disengage(&self) {
        if self.engaged.swap(IDLE, Ordering::SeqCst) == TASK {
            self.hint.store(false, Ordering::SeqCst);
            self.waker.lock().unwrap().take();
        }
    }
}

/// The enter slots of one lock, with the task back-end's wake counters.
/// Empty for a surface that never parks an enter.
pub(crate) struct EnterSlots {
    slots: Box<[EnterSlot]>,
    /// Wakers fired at engaged task slots.
    pub(crate) woken_tasks: AtomicU64,
    /// Woken tasks whose re-poll still found the lock unavailable.
    pub(crate) futile_tasks: AtomicU64,
}

impl EnterSlots {
    pub(crate) fn new(n: usize) -> Self {
        EnterSlots {
            slots: (0..n).map(|_| EnterSlot::new()).collect(),
            woken_tasks: AtomicU64::new(0),
            futile_tasks: AtomicU64::new(0),
        }
    }

    /// Hint every engaged slot awake — the unlock side of the
    /// no-lost-wakeup protocol. The waiter engages (SeqCst) before its
    /// poll reads the go word; the releaser writes the go word before
    /// this scan, so either the poll sees the handoff or the scan sees
    /// the engagement. Wakes are hints: the woken enter re-polls.
    pub(crate) fn wake_enter_waiters(&self) {
        for slot in self.slots.iter() {
            match slot.engaged.load(Ordering::SeqCst) {
                IDLE => {}
                THREAD => slot.waiter.unpark(),
                _ => {
                    slot.hint.store(true, Ordering::SeqCst);
                    let w = slot.waker.lock().unwrap().take();
                    if let Some(w) = w {
                        self.woken_tasks.fetch_add(1, Ordering::Relaxed);
                        w.wake();
                    }
                }
            }
        }
    }
}

/// The lock state every surface wraps: the paper's bounded long-lived
/// lock over raw memory, its probe, the pid pool, the conditional-wait
/// registry and the enter slots.
pub(crate) struct LockBase<T: ?Sized, P: Probe> {
    pub(crate) mem: RawMemory,
    pub(crate) lock: BoundedLongLivedLock,
    pub(crate) probe: P,
    pub(crate) pids: PidPool,
    pub(crate) enters: EnterSlots,
    pub(crate) ccs: CcsRegistry<T>,
}

impl<T: ?Sized, P: Probe> LockBase<T, P> {
    /// A lock for `capacity` pids, all lent by the pool, with no enter
    /// slots (surfaces that park enters replace `enters`; the arena
    /// also withholds its proxy pid from `pids`).
    pub(crate) fn new(capacity: usize, branching: usize, policy: WakePolicy, probe: P) -> Self {
        let mut b = MemoryBuilder::new();
        let lock = BoundedLongLivedLock::layout(&mut b, capacity, branching);
        LockBase {
            mem: b.build_raw(capacity),
            lock,
            probe,
            pids: PidPool::new(0..capacity),
            enters: EnterSlots::new(0),
            ccs: CcsRegistry::new(capacity, policy),
        }
    }

    /// One poll of `pid`'s enter machine.
    fn poll_step<S: AbortSignal + ?Sized>(
        &self,
        machine: &mut EnterMachine,
        pid: Pid,
        signal: &S,
    ) -> EnterStep {
        let pm = probed(&self.mem, &self.probe);
        self.lock.poll_enter(machine, &pm, pid, signal, &self.probe)
    }

    /// Close out a resolved enter: disengage the slot, report the
    /// outcome, and after an abort wake the other enters. Returns
    /// whether the lock was acquired.
    fn resolve(&self, pid: Pid, step: &EnterStep) -> Option<bool> {
        let acquired = match step {
            EnterStep::Pending(_) => return None,
            EnterStep::Acquired { .. } => true,
            EnterStep::Aborted { .. } => false,
        };
        self.enters.slots[pid].disengage();
        if acquired {
            self.probe.enter_end(pid, None);
        } else {
            self.probe.abort(pid, None);
            self.enters.wake_enter_waiters();
        }
        Some(acquired)
    }

    /// Thread back-end: drive an enter to resolution, parking on the
    /// slot's waiter between `Pending` polls. `false` means `limit` fired
    /// and the attempt aborted on the bounded path.
    pub(crate) fn enter_parked<S: AbortSignal + ?Sized>(
        &self,
        pid: Pid,
        limit: &Limit<'_, S>,
    ) -> bool {
        self.probe.enter_begin(pid);
        let mut machine = self.lock.begin_enter();
        let slot = &self.enters.slots[pid];
        loop {
            slot.engaged.store(THREAD, Ordering::SeqCst);
            let step = self.poll_step(&mut machine, pid, limit);
            if let Some(acquired) = self.resolve(pid, &step) {
                return acquired;
            }
            // A fired limit re-polls and resolves through the machine's
            // bounded abort.
            limit.park(&slot.waiter);
        }
    }

    /// Waker back-end: one poll of a task's enter. `Ready(false)` means
    /// the signal aborted the attempt; the pid stays checked out.
    pub(crate) fn poll_task<S: AbortSignal + ?Sized>(
        &self,
        machine: &mut EnterMachine,
        pid: Pid,
        signal: &S,
        waker: &Waker,
    ) -> Poll<bool> {
        let slot = &self.enters.slots[pid];
        let hinted = slot.hint.swap(false, Ordering::SeqCst);
        // Engage and store the waker before the poll reads its go word
        // (see `wake_enter_waiters`).
        slot.engaged.store(TASK, Ordering::SeqCst);
        *slot.waker.lock().unwrap() = Some(waker.clone());
        let step = self.poll_step(machine, pid, signal);
        match self.resolve(pid, &step) {
            Some(acquired) => Poll::Ready(acquired),
            None => {
                if hinted {
                    self.enters.futile_tasks.fetch_add(1, Ordering::Relaxed);
                }
                Poll::Pending
            }
        }
    }

    /// Resolve an enter now with the pre-fired [`Immediate`] signal: one
    /// poll either acquires (the lock was free, or handed over in the
    /// race window) or runs the complete bounded abort.
    pub(crate) fn enter_now(&self, machine: &mut EnterMachine, pid: Pid) -> bool {
        loop {
            let step = self.poll_step(machine, pid, &Immediate);
            // `Pending` is unreachable under `Immediate`; re-poll.
            if let Some(acquired) = self.resolve(pid, &step) {
                return acquired;
            }
        }
    }

    /// Disengage `pid`'s enter slot (a task dropping its pending enter).
    pub(crate) fn disengage(&self, pid: Pid) {
        self.enters.slots[pid].disengage();
    }

    /// Release the lock held by `pid`, keeping the pid: evaluate the
    /// registered conditions under the lock, exit, then wake the
    /// satisfied conditional waiters and every engaged enter. With no
    /// registered waiter and no enter slots this is `exit_core` plus one
    /// load.
    pub(crate) fn release(&self, pid: Pid, data: &UnsafeCell<T>) {
        if self.ccs.has_waiters() {
            // Safety: the caller holds the lock, so the protected value
            // is stable while conditions run.
            let set = self.ccs.evaluate(pid, unsafe { &*data.get() });
            self.lock.exit_core(&self.mem, pid, &self.probe);
            let n = self.ccs.wake(&set);
            if n > 0 {
                self.probe.note(pid, "ccs-wake", n as u64);
            }
        } else {
            self.lock.exit_core(&self.mem, pid, &self.probe);
        }
        self.enters.wake_enter_waiters();
    }

    /// The conditional-wait step, entered holding the lock: register
    /// `pred`, release while keeping `pid`, park under `limit`, and
    /// deregister. Returns with the lock NOT held: `Ok(notified)`, or
    /// `Err` when the limit ended the park.
    pub(crate) fn cond_wait<F, S>(
        &self,
        pid: Pid,
        data: &UnsafeCell<T>,
        pred: &F,
        limit: &Limit<'_, S>,
    ) -> Result<bool, AbortReason>
    where
        F: Fn(&T) -> bool + Sync,
        S: AbortSignal + ?Sized,
    {
        let reg = RegistrationGuard::register(&self.ccs, pid, pred);
        self.release(pid, data);
        self.ccs.note_wait();
        let expired = limit.park(self.ccs.cond_waiter(pid));
        let notified = reg.deregister();
        // A wakeup racing the limit is dropped: evaluation wakes every
        // satisfiable waiter, so no other waiter's token depended on ours.
        match expired {
            Some(reason) => Err(reason),
            None => Ok(notified),
        }
    }
}

/// Run `pred` over the value while the lock is held. If `pred` panics,
/// `release` frees everything the caller holds (lock, pid, arena seat)
/// before the panic continues, so the lock stays usable.
pub(crate) fn check_held<T, F>(data: &UnsafeCell<T>, pred: &F, release: impl FnOnce()) -> bool
where
    T: ?Sized,
    F: Fn(&T) -> bool + ?Sized,
{
    // Safety: the caller holds the lock.
    match panic::catch_unwind(AssertUnwindSafe(|| pred(unsafe { &*data.get() }))) {
        Ok(holds) => holds,
        Err(payload) => {
            release();
            panic::resume_unwind(payload)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parked_holders_never_take_the_last_pid() {
        let pool = PidPool::new(1..4);
        assert!(pool.hold_parked());
        assert!(pool.hold_parked());
        assert!(
            !pool.hold_parked(),
            "a third parked holder would leave no pid"
        );
        pool.unhold_parked();
        assert!(pool.hold_parked());
    }
}
