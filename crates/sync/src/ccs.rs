//! Conditional critical sections: the waiter registry and the
//! unlock-side condition evaluation behind [`lock_when`] and friends.
//!
//! [`lock_when`]: crate::MutexHandle::lock_when
//!
//! ## The wakeup-storm problem
//!
//! The naive way to build `lock_when(pred)` over a mutex is: acquire,
//! check `pred`, and if false, release and have every unlock broadcast
//! to all waiters, each of which re-acquires and re-checks. One state
//! transition then costs `O(waiters)` wakeups and re-acquisitions even
//! when it can satisfy only one of them — Scott & Scherer's wakeup
//! storm, quadratic total work for a pipeline draining through a
//! condition.
//!
//! ## Unlock-side evaluation (nsync/abseil style)
//!
//! Instead, each waiter registers its *condition* next to its parking
//! slot, and the **unlocker** — who at that instant holds the lock and
//! therefore sees a stable protected value — evaluates the registered
//! conditions and wakes exactly the waiters whose condition currently
//! holds. All satisfiable waiters are woken (not just one): a wakeup is
//! only a *hint* (the woken waiter re-acquires and re-checks), so
//! dropping one — e.g. a timeout racing a wakeup — is harmless as long
//! as every waiter whose condition held got its own token.
//!
//! ## The registry
//!
//! One slot per registered handle (pid), so registration is index-based
//! and allocation-free. Each slot is a tiny state machine:
//!
//! ```text
//!  VACANT ──register (holding the lock)──▶ WAITING
//!  WAITING ──unlocker CAS──▶ EVALUATING ──cond false──▶ WAITING
//!                                │ cond true
//!                                ▼
//!                            NOTIFIED ──waiter deregister──▶ VACANT
//!  WAITING ──waiter deregister (timeout/cancel)──▶ VACANT
//! ```
//!
//! * `register` runs while *holding* the lock, so no state transition
//!   can be missed: any future unlock happens-after the registration.
//! * The unlocker evaluates under the lock, collects the satisfied
//!   waiters into a stack-allocated `WakeSet`, releases the lock
//!   (`exit_core` — the bounded-RMR paper path), and only then unparks,
//!   so woken waiters never stampede into a still-held lock.
//! * A waiter deregistering concurrently with an evaluation spins the
//!   few instructions until the evaluator leaves its slot; the stored
//!   condition pointer is therefore never dereferenced after
//!   deregistration returns (this is what makes the borrowed-closure
//!   registration sound — see `Slot::cond`).
//!
//! Fairness caveat: conditions are evaluated in pid order and all
//! satisfiable waiters race to re-acquire through the lock's normal
//! entry protocol; the registry adds no ordering of its own (DESIGN.md
//! §11 discusses the implications).

use crate::wait::{check_held, Limit};
use crate::AbortableMutex;
use sal_core::park::Waiter;
use sal_core::{AbortReason, LockCore};
use sal_memory::{AbortSignal, NeverAbort, Pid};
use sal_obs::Probe;
use std::cell::UnsafeCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::task::Waker;

/// Slot states — see the module docs for the transition diagram.
const VACANT: u8 = 0;
const WAITING: u8 = 1;
const EVALUATING: u8 = 2;
const NOTIFIED: u8 = 3;

/// Ceiling on registry slots; the lock algorithm's descriptor limit is
/// 1022 processes, so 16 × 64 bits always suffice for a `WakeSet`.
const MAX_SLOTS: usize = 1024;

/// A registered condition as stored: a borrowed closure over the
/// protected value, its lifetime erased to `'static` for storage (see
/// `Slot::cond` safety note — the protocol confines every dereference
/// to the real borrow's lifetime).
type StoredCond<T> = *const (dyn Fn(&T) -> bool + 'static);

/// How unlocks treat registered waiters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WakePolicy {
    /// Evaluate each registered condition under the lock at unlock and
    /// wake only the satisfiable waiters (the default, and the point of
    /// the design).
    #[default]
    Evaluate,
    /// Wake every registered waiter on every unlock without looking at
    /// conditions — the classic broadcast condition variable. Kept as
    /// the measured baseline (`ccsscale` quantifies the wakeup storm);
    /// behaviour is identical, only wakeup counts differ.
    Broadcast,
}

/// Counters of the conditional-critical-section machinery, snapshot via
/// [`AbortableMutex::ccs_stats`].
///
/// The headline ratio is `wakeups / transitions` — how many waiters one
/// state transition wakes. Unlock-side evaluation keeps it at the
/// number of *satisfiable* waiters; broadcast pays one per *registered*
/// waiter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CcsStats {
    /// Unparks issued by unlockers.
    pub wakeups: u64,
    /// Unlocks that scanned a non-empty registry (state transitions
    /// observable by waiters).
    pub transitions: u64,
    /// Conditions evaluated by unlockers (0 under
    /// [`WakePolicy::Broadcast`]).
    pub evaluated: u64,
    /// Park episodes taken by waiters.
    pub waits: u64,
    /// Wakeups that re-acquired the lock only to find their predicate
    /// false again (spurious under `Evaluate` — another waiter consumed
    /// the state first; pervasive under `Broadcast`).
    pub futile_wakeups: u64,
}

/// One waiter slot; owned (written) by the handle with the matching
/// pid, scanned by unlockers.
struct Slot<T: ?Sized> {
    /// VACANT / WAITING / EVALUATING / NOTIFIED.
    state: AtomicU8,
    /// The registered condition.
    ///
    /// Safety: the pointee is a closure borrowed from the registering
    /// waiter's stack frame, its lifetime erased for storage. The
    /// protocol keeps every dereference inside the registration window:
    /// writes happen in `register` (slot VACANT, owner-only, before the
    /// `Release` store of WAITING), reads happen only in the EVALUATING
    /// window, and `deregister` refuses to return while an evaluator is
    /// in that window. A `RegistrationGuard` deregisters on unwind, so
    /// the window closes even if the waiting frame panics.
    cond: UnsafeCell<Option<StoredCond<T>>>,
    /// The parking slot the registered waiter blocks on.
    waiter: Waiter,
    /// An async waiter's waker, fired by [`CcsRegistry::wake`] in
    /// addition to the unpark (a registration belongs to either a
    /// parked thread or a suspended task, never both; the spare
    /// mechanism is a no-op). The mutex is uncontended in practice —
    /// the owning pid stores, an unlocker takes.
    waker: Mutex<Option<Waker>>,
}

impl<T: ?Sized> Slot<T> {
    fn new() -> Self {
        Slot {
            state: AtomicU8::new(VACANT),
            cond: UnsafeCell::new(None),
            waiter: Waiter::new(),
            waker: Mutex::new(None),
        }
    }
}

/// The set of slots one unlock decided to wake: fixed-size bitmap, so
/// collecting wakes never allocates on the unlock path.
pub(crate) struct WakeSet {
    bits: [u64; MAX_SLOTS / 64],
    any: bool,
}

impl WakeSet {
    fn new() -> Self {
        WakeSet {
            bits: [0; MAX_SLOTS / 64],
            any: false,
        }
    }

    fn add(&mut self, i: usize) {
        self.bits[i / 64] |= 1 << (i % 64);
        self.any = true;
    }

    fn contains(&self, i: usize) -> bool {
        self.bits[i / 64] & (1 << (i % 64)) != 0
    }
}

/// The per-mutex waiter registry; see the module docs.
pub(crate) struct CcsRegistry<T: ?Sized> {
    slots: Box<[Slot<T>]>,
    /// Exact count of registered (WAITING/EVALUATING/NOTIFIED) slots —
    /// the unlock fast path: zero means skip the scan entirely, so
    /// plain mutex traffic pays one relaxed load.
    waiting: AtomicUsize,
    policy: WakePolicy,
    wakeups: AtomicU64,
    transitions: AtomicU64,
    evaluated: AtomicU64,
    waits: AtomicU64,
    futile: AtomicU64,
}

// Safety: the registry stores raw condition pointers, but the protocol
// (documented on `Slot::cond`) confines every dereference to the
// registration window of a closure that was required to be `Sync` at
// registration; `&T` is only ever produced by the lock holder. All
// other state is atomics + `Waiter` (Send + Sync).
unsafe impl<T: ?Sized> Send for CcsRegistry<T> {}
unsafe impl<T: ?Sized> Sync for CcsRegistry<T> {}

impl<T: ?Sized> CcsRegistry<T> {
    pub(crate) fn new(capacity: usize, policy: WakePolicy) -> Self {
        assert!(
            capacity <= MAX_SLOTS,
            "CCS registry capacity {capacity} exceeds {MAX_SLOTS}"
        );
        CcsRegistry {
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            waiting: AtomicUsize::new(0),
            policy,
            wakeups: AtomicU64::new(0),
            transitions: AtomicU64::new(0),
            evaluated: AtomicU64::new(0),
            waits: AtomicU64::new(0),
            futile: AtomicU64::new(0),
        }
    }

    pub(crate) fn policy(&self) -> WakePolicy {
        self.policy
    }

    /// Number of currently registered waiters.
    pub(crate) fn waiting(&self) -> usize {
        self.waiting.load(Ordering::SeqCst)
    }

    pub(crate) fn has_waiters(&self) -> bool {
        self.waiting() > 0
    }

    pub(crate) fn stats(&self) -> CcsStats {
        CcsStats {
            wakeups: self.wakeups.load(Ordering::Relaxed),
            transitions: self.transitions.load(Ordering::Relaxed),
            evaluated: self.evaluated.load(Ordering::Relaxed),
            waits: self.waits.load(Ordering::Relaxed),
            futile_wakeups: self.futile.load(Ordering::Relaxed),
        }
    }

    /// Register `cond` for `pid`. Caller must hold the lock (that is
    /// what makes registration race-free against state transitions) and
    /// must deregister before `cond`'s borrow ends. `pub(crate)` for the
    /// async conditional waits, whose registration windows span polls
    /// (their condition lives in a `Box` inside the future, so the
    /// borrow outlives the window even if the future is leaked).
    pub(crate) fn register<'a>(&self, pid: Pid, cond: &'a (dyn Fn(&T) -> bool + 'a)) {
        let slot = &self.slots[pid];
        debug_assert_eq!(slot.state.load(Ordering::Relaxed), VACANT);
        let ptr: *const (dyn Fn(&T) -> bool + 'a) = cond;
        // Safety: slot is VACANT, so no evaluator reads it; only the
        // owning pid writes it. Erasing the borrow's lifetime (a
        // fat-pointer transmute that changes only the lifetime bound)
        // is sound per the protocol on `Slot::cond`.
        unsafe {
            *slot.cond.get() = Some(std::mem::transmute::<
                *const (dyn Fn(&T) -> bool + 'a),
                StoredCond<T>,
            >(ptr));
        }
        self.waiting.fetch_add(1, Ordering::SeqCst);
        slot.state.store(WAITING, Ordering::Release);
    }

    /// Remove `pid`'s registration; returns whether a notification had
    /// been delivered (and is hereby consumed). Callable without the
    /// lock; spins out any in-flight evaluation of this slot first.
    pub(crate) fn deregister(&self, pid: Pid) -> bool {
        let slot = &self.slots[pid];
        let notified = loop {
            match slot
                .state
                .compare_exchange(WAITING, VACANT, Ordering::Acquire, Ordering::Acquire)
            {
                Ok(_) => break false,
                Err(EVALUATING) => std::hint::spin_loop(),
                Err(NOTIFIED) => {
                    slot.state.store(VACANT, Ordering::Release);
                    break true;
                }
                Err(s) => unreachable!("deregister of pid {pid} found slot state {s}"),
            }
        };
        // Safety: state is VACANT again; only the owner touches the
        // pointer now.
        unsafe {
            *slot.cond.get() = None;
        }
        // Drop any unfired waker so a dead registration cannot be woken
        // later (and does not pin its task's allocation alive).
        slot.waker.lock().unwrap().take();
        self.waiting.fetch_sub(1, Ordering::SeqCst);
        notified
    }

    /// Store the waker an async waiter wants fired when its condition
    /// is satisfied. Call after [`register`](Self::register) and before
    /// releasing the lock (same race-freedom argument: any future
    /// evaluation happens-after).
    pub(crate) fn set_waker(&self, pid: Pid, waker: &Waker) {
        let mut slot = self.slots[pid].waker.lock().unwrap();
        *slot = Some(waker.clone());
    }

    /// Bump the park-episode counter (async waits count one per
    /// registration window, mirroring the sync park episodes).
    pub(crate) fn note_wait(&self) {
        self.waits.fetch_add(1, Ordering::Relaxed);
    }

    /// The parking slot a registered waiter blocks on.
    pub(crate) fn cond_waiter(&self, pid: Pid) -> &Waiter {
        &self.slots[pid].waiter
    }

    /// Bump the futile-wakeup counter (a waiter woken only to find its
    /// predicate false again).
    pub(crate) fn note_futile(&self) {
        self.futile.fetch_add(1, Ordering::Relaxed);
    }

    /// Evaluate registered conditions against `data` (the unlocker must
    /// hold the lock) and return the set of waiters to wake after the
    /// lock is released. `skip` is the unlocker's own slot.
    pub(crate) fn evaluate(&self, skip: Pid, data: &T) -> WakeSet {
        self.transitions.fetch_add(1, Ordering::Relaxed);
        let mut set = WakeSet::new();
        for (i, slot) in self.slots.iter().enumerate() {
            if i == skip {
                continue;
            }
            match self.policy {
                WakePolicy::Broadcast => {
                    if slot
                        .state
                        .compare_exchange(WAITING, NOTIFIED, Ordering::AcqRel, Ordering::Relaxed)
                        .is_ok()
                    {
                        set.add(i);
                    }
                }
                WakePolicy::Evaluate => {
                    if slot
                        .state
                        .compare_exchange(WAITING, EVALUATING, Ordering::Acquire, Ordering::Relaxed)
                        .is_err()
                    {
                        continue;
                    }
                    // Safety: the slot was WAITING, so the pointer is
                    // registered and its waiter cannot leave while we
                    // are EVALUATING.
                    let cond = unsafe { &*(*slot.cond.get()).expect("WAITING slot has a cond") };
                    // A panicking condition counts as satisfied: its
                    // waiter re-runs it and panics on its own thread,
                    // and this unlock still reaches `exit_core`.
                    let satisfied =
                        panic::catch_unwind(AssertUnwindSafe(|| cond(data))).unwrap_or(true);
                    self.evaluated.fetch_add(1, Ordering::Relaxed);
                    if satisfied {
                        slot.state.store(NOTIFIED, Ordering::Release);
                        set.add(i);
                    } else {
                        slot.state.store(WAITING, Ordering::Release);
                    }
                }
            }
        }
        set
    }

    /// Unpark every waiter in `set`; returns how many. Called *after*
    /// the lock is released.
    pub(crate) fn wake(&self, set: &WakeSet) -> usize {
        if !set.any {
            return 0;
        }
        let mut n = 0;
        for (i, slot) in self.slots.iter().enumerate() {
            if set.contains(i) {
                slot.waiter.unpark();
                if let Some(w) = slot.waker.lock().unwrap().take() {
                    w.wake();
                }
                n += 1;
            }
        }
        self.wakeups.fetch_add(n as u64, Ordering::Relaxed);
        n
    }
}

/// Deregisters on unwind so a panic between registration and
/// deregistration (in the release that follows, or in a probe hook)
/// cannot leave a dangling condition pointer registered.
pub(crate) struct RegistrationGuard<'a, T: ?Sized> {
    reg: &'a CcsRegistry<T>,
    pid: Pid,
    armed: bool,
}

impl<'a, T: ?Sized> RegistrationGuard<'a, T> {
    pub(crate) fn register(
        reg: &'a CcsRegistry<T>,
        pid: Pid,
        cond: &(dyn Fn(&T) -> bool + '_),
    ) -> Self {
        reg.register(pid, cond);
        RegistrationGuard {
            reg,
            pid,
            armed: true,
        }
    }

    /// Normal-path deregistration; returns whether a notification was
    /// consumed.
    pub(crate) fn deregister(mut self) -> bool {
        self.armed = false;
        self.reg.deregister(self.pid)
    }
}

impl<T: ?Sized> Drop for RegistrationGuard<'_, T> {
    fn drop(&mut self) {
        if self.armed {
            self.reg.deregister(self.pid);
        }
    }
}

/// The conditional-acquisition loop behind every `lock_when*` entry
/// point. On `Ok(())` the caller holds the lock and `pred` held at the
/// last check; on `Err` the lock is not held.
pub(crate) fn lock_when_raw<T, P, F, S>(
    m: &AbortableMutex<T, P>,
    pid: Pid,
    pred: &F,
    limit: &Limit<'_, S>,
) -> Result<(), AbortReason>
where
    T: ?Sized,
    P: Probe,
    F: Fn(&T) -> bool + Sync,
    S: AbortSignal + ?Sized,
{
    let base = &m.base;
    let mut woken = false;
    loop {
        // The limit is the lock's abort signal: a deadline or signal
        // firing while queued costs a bounded number of our own steps.
        if !base
            .lock
            .enter_core(&base.mem, pid, limit, &base.probe)
            .entered()
        {
            return Err(limit.reason());
        }
        if check_held(&m.data, pred, || m.release(pid)) {
            return Ok(());
        }
        if woken {
            base.ccs.note_futile();
        }
        if let Some(reason) = limit.expired() {
            m.release(pid);
            return Err(reason);
        }
        woken = base.cond_wait(pid, &m.data, pred, limit)?;
    }
}

/// The re-wait loop behind `MutexGuard::await_when*`: entered and
/// exited with the lock HELD (a panicking `pred` unwinds through the
/// caller's guard, which releases). `Ok(())` means `pred` held at the
/// last check; `Err` means the limit expired and `pred` was false at the
/// final (lock-held) check. Timed variants bound the wait for the
/// predicate, not the re-acquisition (abseil `AwaitWithTimeout`
/// semantics): the final re-entry is unconditional, bounded by the
/// lock's starvation freedom.
pub(crate) fn await_when_raw<T, P, F, S>(
    m: &AbortableMutex<T, P>,
    pid: Pid,
    pred: &F,
    limit: &Limit<'_, S>,
) -> Result<(), AbortReason>
where
    T: ?Sized,
    P: Probe,
    F: Fn(&T) -> bool + Sync,
    S: AbortSignal + ?Sized,
{
    let base = &m.base;
    let mut woken = false;
    loop {
        // Safety: we hold the lock (loop invariant).
        if pred(unsafe { &*m.data.get() }) {
            return Ok(());
        }
        if woken {
            base.ccs.note_futile();
        }
        if let Some(reason) = limit.expired() {
            return Err(reason);
        }
        let waited = base.cond_wait(pid, &m.data, pred, limit);
        // Re-acquire unconditionally: the caller's guard stays valid.
        let outcome = base
            .lock
            .enter_core(&base.mem, pid, &NeverAbort, &base.probe);
        debug_assert!(outcome.entered());
        match waited {
            Ok(notified) => woken = notified,
            Err(reason) => {
                if pred(unsafe { &*m.data.get() }) {
                    return Ok(());
                }
                return Err(reason);
            }
        }
    }
}
