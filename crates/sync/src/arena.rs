//! Keyed lock arena: millions of logical locks with an inline-word
//! fast path and futex-class parking.
//!
//! [`Arena<K, T>`] keys a space of logical locks (each protecting its
//! own `T`) by hash, exposing the full [`MutexHandle`](crate::MutexHandle)
//! acquisition
//! surface per key — `lock`, `try_lock`, deadline/abortable variants,
//! and the conditional `lock_when*` family. Two properties make it an
//! *arena* rather than a map of mutexes:
//!
//! * **Inline-word fast path.** An uncontended key is one `AtomicU64`
//!   (see [`sal_core::arena_word`]): acquisition is a single CAS, no
//!   lock core exists. This is the word-sized-futex shape (nsync,
//!   WebKit parking): the overwhelmingly common case — skewed traffic
//!   over a huge key space where almost every acquisition meets a free
//!   key — pays for a word, not a queue lock.
//! * **Bounded materialization.** Only a key that *observes contention*
//!   (a second arrival while held, or a conditional waiter that must
//!   block) promotes to a real lock core — the paper's bounded
//!   long-lived abortable lock plus a parking bucket — drawn from a
//!   bounded pool, and is demoted back to the inline word when the last
//!   participant leaves. Resident lock-core memory is therefore
//!   O(currently contended keys), not O(keys): the practical analogue
//!   of the paper's §6.2 bounded-space constructions.
//!
//! The contended path is the resumable
//! [`EnterMachine`](sal_core::EnterMachine) driven park-style by the
//! crate's one pid-and-wait layer (DESIGN.md §11): between `Pending`
//! polls the waiter blocks on its pid's adaptive spin-then-park enter
//! slot instead of spinning, and each unlock or abort hints every
//! engaged slot awake (wakeups are hints; the machine re-polls).
//! Deadlines and caller signals are injected as the lock's abort signal,
//! so a waiter whose limit fires *while queued* abandons on the paper's
//! bounded abort path.
//!
//! Keys resolve to their entries through `KeyMap`, a sharded index
//! that only ever grows and is read without locks: a touched key costs
//! one hash and a few atomic loads, with no store and no lock, before
//! its inline CAS. First touches insert under a per-shard mutex.
//!
//! ## Concurrency limits, honestly stated
//!
//! * Per key, at most `core_capacity - 1` threads participate in the
//!   core concurrently (one slot is the promotion proxy); further
//!   arrivals queue in FIFO order for a process slot and park until a
//!   leaving participant hands its slot to the queue head. Conditional
//!   waiters hold their slot for the whole wait, but at most
//!   `core_capacity - 2` of them park at once, so a thread that can
//!   make their predicates true always gets a slot; further conditional
//!   waiters re-check with backoff instead of parking.
//! * At most `pool` keys can be materialized at once. When the pool is
//!   exhausted, additional contended keys fall back to a degraded
//!   spin-with-backoff on the inline word (counted in
//!   [`ArenaStats::fallback_spins`]) until a core frees up — the
//!   classic bounded-space tradeoff: space stays bounded, the overflow
//!   path loses the RMR guarantee but never correctness.
//! * Locking the same key twice from one thread deadlocks, exactly like
//!   `std::sync::Mutex`.
//!
//! ## The promotion/demotion protocol
//!
//! The word states and transition rules live in
//! [`sal_core::arena_word`] (shared with the exhaustive interleaving
//! model in `tests/arena_protocol.rs`); DESIGN.md §13 walks the
//! argument. The short form:
//!
//! * A promoter acquires a pooled core with the reserved **proxy pid**
//!   so the core models "held by the current inline holder", then
//!   publishes with CAS `LOCKED_INLINE → MATERIALIZED(idx)`; a failed
//!   publish is fully undone.
//! * An inline holder whose unlock CAS fails was promoted under its
//!   feet and releases by exiting the proxy pid — sound because the
//!   paper's protocol is pid-keyed, not thread-keyed.
//! * Every participant is counted in the core's `users`; the last one
//!   out swaps `users` to a demoting sentinel (which proves the lock is
//!   free — any holder is a user), resets the word to `UNLOCKED`, and
//!   returns the core to the pool. Joiners increment `users` first and
//!   revalidate the word after, so a joiner either blocks demotion or
//!   observes it and retries from the word.
//!
//! ```
//! use sal_sync::Arena;
//!
//! let arena: Arena<u64, u64> = Arena::builder().build();
//! *arena.lock(&7) += 1;                        // inline CAS, no core
//! if let Some(mut g) = arena.try_lock(&8) {
//!     *g += 1;
//! }
//! assert_eq!(*arena.lock(&7), 1);
//! assert_eq!(arena.stats().resident_cores, 0); // nothing materialized
//! ```

#![warn(clippy::undocumented_unsafe_blocks)]

mod keymap;

use keymap::KeyMap;

use crate::ccs::WakePolicy;
use crate::wait::{check_held, EnterSlots, Limit, LockBase, PidPool};
use crate::{timeout_deadline, AbortReason, Immediate};
use sal_core::arena_word as word;
use sal_core::LockCore;
use sal_memory::{AbortSignal, NeverAbort, Pid};
use sal_obs::NoProbe;
use std::cell::UnsafeCell;
use std::fmt;
use std::hash::Hash;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The proxy pid a promoter enters a fresh core with, standing in for
/// the inline holder; withheld from the core's pid pool.
const RESERVED: Pid = 0;

/// One logical lock: the inline word plus the protected value. Held in
/// the key index and never removed while the arena lives (the *cores*
/// are what get reclaimed), so references to it are stable.
struct Entry<T> {
    word: AtomicU64,
    data: UnsafeCell<T>,
}

impl<T: Default> Default for Entry<T> {
    fn default() -> Self {
        Entry {
            word: AtomicU64::new(word::UNLOCKED),
            data: UnsafeCell::new(T::default()),
        }
    }
}

/// A pooled lock core: the wait layer's lock base (pid 0, the promotion
/// proxy, withheld from its pool; enter slots for parked threads) plus
/// the participant count driving demotion. Reused across
/// materializations — a demoted core is returned with its lock free and
/// registry empty.
struct Core<T> {
    base: LockBase<T, NoProbe>,
    /// Participant count (joiners, holders, the promotion proxy) or
    /// [`word::USERS_DEMOTING`]; see the protocol in the module docs.
    users: AtomicUsize,
}

impl<T> Core<T> {
    fn new(capacity: usize, branching: usize, policy: WakePolicy) -> Self {
        let mut base = LockBase::new(capacity, branching, policy, NoProbe);
        base.pids = PidPool::new(RESERVED + 1..capacity);
        base.enters = EnterSlots::new(capacity);
        Core {
            base,
            users: AtomicUsize::new(0),
        }
    }
}

/// The bounded core pool: slots are constructed lazily (first
/// allocation of each index), never torn down, and recycled through a
/// free list — so `built` is the high-water mark of concurrently
/// contended keys and the hard space bound is `pool × O(capacity²)`
/// words regardless of key count.
struct CorePool<T> {
    slots: Box<[OnceLock<Core<T>>]>,
    free: Mutex<Vec<u32>>,
    built: AtomicUsize,
    capacity: usize,
    branching: usize,
    policy: WakePolicy,
}

impl<T> CorePool<T> {
    fn new(pool: usize, capacity: usize, branching: usize, policy: WakePolicy) -> Self {
        CorePool {
            slots: (0..pool).map(|_| OnceLock::new()).collect(),
            free: Mutex::new(Vec::new()),
            built: AtomicUsize::new(0),
            capacity,
            branching,
            policy,
        }
    }

    /// Take a core: a recycled one off the free list, else construct
    /// the next never-used slot. `None` when the pool is exhausted.
    fn acquire(&self) -> Option<u32> {
        if let Some(i) = self.free.lock().unwrap().pop() {
            return Some(i);
        }
        loop {
            let b = self.built.load(Ordering::SeqCst);
            if b >= self.slots.len() {
                // Fully built: one more look at the free list (a racing
                // release may have restocked it).
                return self.free.lock().unwrap().pop();
            }
            if self
                .built
                .compare_exchange(b, b + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                let core = Core::new(self.capacity, self.branching, self.policy);
                let set = self.slots[b].set(core);
                debug_assert!(set.is_ok(), "slot {b} built twice");
                return Some(b as u32);
            }
        }
    }

    fn release(&self, idx: u32) {
        self.free.lock().unwrap().push(idx);
    }

    fn get(&self, idx: u32) -> &Core<T> {
        self.slots[idx as usize]
            .get()
            .expect("materialized index names a built core")
    }

    /// Cores currently checked out (materialized keys, right now).
    fn resident(&self) -> usize {
        self.built.load(Ordering::SeqCst) - self.free.lock().unwrap().len()
    }
}

/// Snapshot of arena-level counters; see [`Arena::stats`].
///
/// The memory-bound story in two numbers: `built_cores` (high-water
/// mark of concurrently contended keys, hard-capped by
/// `pool_capacity`) versus `keys` — at a million keys and a handful of
/// contended ones, `built_cores` stays a handful.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Keys currently materialized (holding a pooled core).
    pub resident_cores: usize,
    /// High-water mark of cores ever constructed (≤ `pool_capacity`).
    pub built_cores: usize,
    /// The configured pool bound.
    pub pool_capacity: usize,
    /// Keys ever touched (entries in the key index).
    pub keys: usize,
    /// Inline → materialized transitions.
    pub promotions: u64,
    /// Materialized → inline reclamations (core returned to the pool).
    pub demotions: u64,
    /// Promotions undone because the holder released (or another
    /// promoter published) first.
    pub raced_promotions: u64,
    /// Degraded-path retries taken because the core pool was exhausted
    /// (the key stayed inline and the waiter spun with backoff).
    pub fallback_spins: u64,
}

/// Configures and constructs an [`Arena`]; obtain with
/// [`Arena::builder`].
#[derive(Debug)]
pub struct ArenaBuilder<K, T> {
    shards: usize,
    pool: usize,
    capacity: usize,
    branching: usize,
    policy: WakePolicy,
    _marker: PhantomData<fn() -> (K, T)>,
}

impl<K, T> ArenaBuilder<K, T> {
    /// Number of key-index shards (rounded up to a power of two;
    /// default 64). Lookups of touched keys take no lock whatever the
    /// count; shards spread first-touch inserts and table growth, each
    /// shard serialising its own.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n.max(1).next_power_of_two();
        self
    }

    /// Bound on concurrently materialized keys (default 64). This is
    /// the resident-memory knob: lock-core space is `pool ×
    /// O(core_capacity²)` words, independent of key count.
    pub fn pool(mut self, cores: usize) -> Self {
        assert!(cores >= 1, "arena needs at least one pooled core");
        self.pool = cores;
        self
    }

    /// Process slots per core, including the promotion proxy (default
    /// 8, minimum 2): at most `n - 1` threads participate in one key's
    /// core concurrently; more block for a slot.
    pub fn core_capacity(mut self, n: usize) -> Self {
        assert!(n >= 2, "core capacity must cover the proxy plus a waiter");
        self.capacity = n;
        self
    }

    /// Branching factor of each core's tree (`2 ..= 64`, default 16 —
    /// cores are small, a flat tree wastes words).
    pub fn branching(mut self, w: usize) -> Self {
        self.branching = w;
        self
    }

    /// How core unlocks treat conditional waiters (default
    /// [`WakePolicy::Evaluate`]).
    pub fn wake_policy(mut self, policy: WakePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Build the arena.
    pub fn build(self) -> Arena<K, T> {
        assert!(
            self.pool <= word::MAX_CORE_INDEX,
            "pool exceeds the word encoding"
        );
        Arena {
            entries: KeyMap::new(self.shards),
            pool: CorePool::new(self.pool, self.capacity, self.branching, self.policy),
            promotions: AtomicU64::new(0),
            demotions: AtomicU64::new(0),
            raced_promotions: AtomicU64::new(0),
            fallback_spins: AtomicU64::new(0),
        }
    }
}

/// A sharded, hash-keyed arena of logical locks with an inline-word
/// fast path and bounded lazy materialization; see the module docs.
///
/// Unlike [`AbortableMutex`](crate::AbortableMutex), no per-thread
/// registration is needed: any number of threads may use any key, and
/// process identities are checked out per contended acquisition from
/// the key's core.
pub struct Arena<K, T> {
    entries: KeyMap<K, Entry<T>>,
    pool: CorePool<T>,
    promotions: AtomicU64,
    demotions: AtomicU64,
    raced_promotions: AtomicU64,
    fallback_spins: AtomicU64,
}

// SAFETY: `T` lives in per-entry `UnsafeCell`s handed out only under
// that entry's lock (inline word or core — mutual exclusion per key),
// so crossing threads needs exactly `T: Send`. Keys are shared and
// compared across threads (`K: Send + Sync`). Everything else is
// atomics, std locks, and the already-`Sync` core machinery.
unsafe impl<K: Send + Sync, T: Send> Send for Arena<K, T> {}
// SAFETY: as above — `&Arena` exposes `&T`/`&mut T` only through
// per-key mutual exclusion.
unsafe impl<K: Send + Sync, T: Send> Sync for Arena<K, T> {}

/// How a guard holds its key: through the inline word, or through a
/// materialized core with a checked-out pid.
#[derive(Debug, Clone, Copy)]
enum Mode {
    Inline,
    Core { idx: u32, pid: Pid },
}

/// Result of one promotion attempt.
enum Promote {
    /// Published: the key now routes through a core.
    Done,
    /// The publish CAS lost (holder released, or another promoter won);
    /// fully undone — re-read the word.
    Raced,
    /// No core available; degraded path.
    Exhausted,
}

impl<K: Hash + Eq + Clone, T: Default> Default for Arena<K, T> {
    fn default() -> Self {
        Self::builder().build()
    }
}

impl<K: Hash + Eq + Clone, T: Default> Arena<K, T> {
    /// Start configuring an arena (shards, pool bound, core capacity,
    /// branching, wake policy).
    pub fn builder() -> ArenaBuilder<K, T> {
        ArenaBuilder {
            shards: 64,
            pool: 64,
            capacity: 8,
            branching: 16,
            policy: WakePolicy::default(),
            _marker: PhantomData,
        }
    }

    /// An arena with default configuration.
    pub fn new() -> Self {
        Self::builder().build()
    }

    // ---- plain acquisition --------------------------------------------

    /// Acquire `key`'s lock, waiting as long as it takes. Uncontended:
    /// one CAS on the inline word.
    pub fn lock(&self, key: &K) -> ArenaGuard<'_, K, T> {
        let entry = self.entries.get(key);
        let mode = self
            .acquire(entry, &Limit::<NeverAbort>::Forever)
            .expect("unbounded acquire cannot fail");
        self.guard(entry, mode)
    }

    /// Acquire with an arbitrary abort signal; `None` if the attempt
    /// was abandoned. Like [`MutexHandle::lock_abortable`]: a signal
    /// firing after the lock is won still yields the guard.
    ///
    /// [`MutexHandle::lock_abortable`]: crate::MutexHandle::lock_abortable
    pub fn lock_abortable(
        &self,
        key: &K,
        signal: &(impl AbortSignal + ?Sized),
    ) -> Option<ArenaGuard<'_, K, T>> {
        let entry = self.entries.get(key);
        self.acquire(entry, &Limit::Signal(signal))
            .ok()
            .map(|mode| self.guard(entry, mode))
    }

    /// One near-immediate attempt: give up as soon as the key is
    /// observed held (a held *inline* key fails without materializing
    /// anything; a materialized key runs one bounded abortable enter).
    pub fn try_lock(&self, key: &K) -> Option<ArenaGuard<'_, K, T>> {
        self.lock_abortable(key, &Immediate)
    }

    /// Acquire unless `timeout` elapses first. The deadline rides the
    /// lock's abort signal: expiring while queued aborts on the bounded
    /// path.
    pub fn try_lock_for(&self, key: &K, timeout: Duration) -> Option<ArenaGuard<'_, K, T>> {
        self.try_lock_until(key, timeout_deadline(timeout))
    }

    /// Acquire unless the deadline passes first.
    pub fn try_lock_until(&self, key: &K, deadline: Instant) -> Option<ArenaGuard<'_, K, T>> {
        let entry = self.entries.get(key);
        self.acquire(entry, &Limit::<NeverAbort>::Until(deadline))
            .ok()
            .map(|mode| self.guard(entry, mode))
    }

    // ---- conditional acquisition --------------------------------------

    /// Acquire `key`'s lock when `pred` holds over its value — the
    /// conditional critical section of
    /// [`MutexHandle::lock_when`](crate::MutexHandle::lock_when), per
    /// key. A waiting key materializes (the registry lives in the
    /// core), and demotes again once the last waiter leaves.
    pub fn lock_when<F>(&self, key: &K, pred: F) -> ArenaGuard<'_, K, T>
    where
        F: Fn(&T) -> bool + Sync,
    {
        let entry = self.entries.get(key);
        let mode = self
            .acquire_when(entry, &pred, &Limit::<NeverAbort>::Forever)
            .expect("unbounded lock_when cannot fail");
        self.guard(entry, mode)
    }

    /// [`lock_when`](Self::lock_when) with a timeout; fails with
    /// [`AbortReason::Deadline`].
    pub fn lock_when_for<F>(
        &self,
        key: &K,
        pred: F,
        timeout: Duration,
    ) -> Result<ArenaGuard<'_, K, T>, AbortReason>
    where
        F: Fn(&T) -> bool + Sync,
    {
        self.lock_when_until(key, pred, timeout_deadline(timeout))
    }

    /// [`lock_when`](Self::lock_when) with an absolute deadline.
    pub fn lock_when_until<F>(
        &self,
        key: &K,
        pred: F,
        deadline: Instant,
    ) -> Result<ArenaGuard<'_, K, T>, AbortReason>
    where
        F: Fn(&T) -> bool + Sync,
    {
        let entry = self.entries.get(key);
        let mode = self.acquire_when(entry, &pred, &Limit::<NeverAbort>::Until(deadline))?;
        Ok(self.guard(entry, mode))
    }

    /// [`lock_when`](Self::lock_when) with caller-side cancellation;
    /// fails with [`AbortReason::Caller`] once `signal` fires.
    pub fn lock_when_abortable<F>(
        &self,
        key: &K,
        pred: F,
        signal: &(impl AbortSignal + ?Sized),
    ) -> Result<ArenaGuard<'_, K, T>, AbortReason>
    where
        F: Fn(&T) -> bool + Sync,
    {
        let entry = self.entries.get(key);
        let mode = self.acquire_when(entry, &pred, &Limit::Signal(signal))?;
        Ok(self.guard(entry, mode))
    }

    // ---- introspection ------------------------------------------------
}

impl<K, T> Arena<K, T> {
    /// Snapshot the arena counters.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            resident_cores: self.pool.resident(),
            built_cores: self.pool.built.load(Ordering::SeqCst),
            pool_capacity: self.pool.slots.len(),
            keys: self.entries.len(),
            promotions: self.promotions.load(Ordering::Relaxed),
            demotions: self.demotions.load(Ordering::Relaxed),
            raced_promotions: self.raced_promotions.load(Ordering::Relaxed),
            fallback_spins: self.fallback_spins.load(Ordering::Relaxed),
        }
    }

    /// Number of key-index shards.
    pub fn shard_count(&self) -> usize {
        self.entries.shard_count()
    }

    // ---- the protocol -------------------------------------------------

    fn guard<'a>(&'a self, entry: &'a Entry<T>, mode: Mode) -> ArenaGuard<'a, K, T> {
        ArenaGuard {
            arena: self,
            entry,
            mode,
            _not_send: PhantomData,
        }
    }

    /// The dispatch loop behind every plain acquisition: CAS the inline
    /// word, promote on contention, or join the key's core and run the
    /// parked enter. On `Err` nothing is held or leaked.
    fn acquire<S: AbortSignal + ?Sized>(
        &self,
        entry: &Entry<T>,
        limit: &Limit<'_, S>,
    ) -> Result<Mode, AbortReason> {
        let mut backoff = 0u32;
        loop {
            match word::decode(entry.word.load(Ordering::SeqCst)) {
                word::WordState::Unlocked => {
                    if entry
                        .word
                        .compare_exchange(
                            word::UNLOCKED,
                            word::LOCKED_INLINE,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        )
                        .is_ok()
                    {
                        return Ok(Mode::Inline);
                    }
                }
                word::WordState::LockedInline => {
                    // A pre-fired signal (try_lock) fails fast here
                    // without materializing anything.
                    if let Some(r) = limit.expired() {
                        return Err(r);
                    }
                    match self.promote(entry) {
                        Promote::Done | Promote::Raced => {}
                        Promote::Exhausted => {
                            self.fallback_spins.fetch_add(1, Ordering::Relaxed);
                            backoff_step(&mut backoff);
                        }
                    }
                }
                word::WordState::Materialized(idx) => {
                    let idx = idx as u32;
                    let core = self.pool.get(idx);
                    if !self.join(entry, core, idx) {
                        continue;
                    }
                    let Some(pid) = core.base.pids.checkout(limit) else {
                        self.depart(entry, core, idx);
                        return Err(limit.reason());
                    };
                    if core.base.enter_parked(pid, limit) {
                        return Ok(Mode::Core { idx, pid });
                    }
                    self.unseat(entry, core, idx, pid);
                    return Err(limit.reason());
                }
            }
        }
    }

    /// The conditional-acquisition loop: acquire, check `pred`, and if
    /// false wait through the core's registry (materializing the key
    /// first when it is still inline). On `Ok` the lock is held and
    /// `pred` held at the last check.
    fn acquire_when<F, S>(
        &self,
        entry: &Entry<T>,
        pred: &F,
        limit: &Limit<'_, S>,
    ) -> Result<Mode, AbortReason>
    where
        F: Fn(&T) -> bool + Sync,
        S: AbortSignal + ?Sized,
    {
        let mut backoff = 0u32;
        'fresh: loop {
            let mut mode = self.acquire(entry, limit)?;
            let mut woken = false;
            loop {
                if check_held(&entry.data, pred, || self.unlock(entry, mode)) {
                    return Ok(mode);
                }
                if let Mode::Core { idx, .. } = mode {
                    if woken {
                        self.pool.get(idx).base.ccs.note_futile();
                    }
                }
                if let Some(r) = limit.expired() {
                    self.unlock(entry, mode);
                    return Err(r);
                }
                match mode {
                    Mode::Core { idx, pid } => {
                        let core = self.pool.get(idx);
                        // Parking would take the core's last pid no
                        // parked waiter holds, locking out every thread
                        // that could make `pred` true: retry instead.
                        if !core.base.pids.hold_parked() {
                            self.unlock(entry, mode);
                            backoff_step(&mut backoff);
                            continue 'fresh;
                        }
                        // Wait keeping our pid and users seat — a
                        // registered waiter must block demotion (its
                        // registration lives in this core).
                        let waited = core.base.cond_wait(pid, &entry.data, pred, limit);
                        core.base.pids.unhold_parked();
                        // Re-acquire through the core with the seat we
                        // kept; an abort here ends the whole wait.
                        let reentered = waited.and_then(|notified| {
                            if core.base.enter_parked(pid, limit) {
                                Ok(notified)
                            } else {
                                Err(limit.reason())
                            }
                        });
                        match reentered {
                            Ok(notified) => woken = notified,
                            Err(r) => {
                                self.unseat(entry, core, idx, pid);
                                return Err(r);
                            }
                        }
                    }
                    Mode::Inline => {
                        // To wait we need a registry, i.e. a core:
                        // promote while holding.
                        match self.materialize_held(entry) {
                            Ok((idx, pid)) => {
                                mode = Mode::Core { idx, pid };
                            }
                            Err(Promote::Raced) => {
                                // Someone else materialized under us:
                                // release through the proxy and come
                                // back in core mode.
                                self.unlock(entry, Mode::Inline);
                                continue 'fresh;
                            }
                            Err(_) => {
                                // Pool exhausted: degrade to re-polling
                                // the predicate with backoff.
                                self.unlock(entry, Mode::Inline);
                                self.fallback_spins.fetch_add(1, Ordering::Relaxed);
                                backoff_step(&mut backoff);
                                continue 'fresh;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Promote a held-by-someone-else inline key: acquire a pooled core
    /// through the proxy pid (modelling the current holder), publish,
    /// or undo completely.
    fn promote(&self, entry: &Entry<T>) -> Promote {
        let Some(idx) = self.pool.acquire() else {
            return Promote::Exhausted;
        };
        let core = self.pool.get(idx);
        core.users.fetch_add(1, Ordering::SeqCst); // the proxy's seat
        let outcome = core
            .base
            .lock
            .enter_core(&core.base.mem, RESERVED, &NeverAbort, &NoProbe);
        debug_assert!(outcome.entered(), "fresh core acquires immediately");
        if entry
            .word
            .compare_exchange(
                word::LOCKED_INLINE,
                word::materialized(idx as usize),
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok()
        {
            self.promotions.fetch_add(1, Ordering::Relaxed);
            Promote::Done
        } else {
            core.base.lock.exit_core(&core.base.mem, RESERVED, &NoProbe);
            core.users.fetch_sub(1, Ordering::SeqCst);
            self.pool.release(idx);
            self.raced_promotions.fetch_add(1, Ordering::Relaxed);
            Promote::Raced
        }
    }

    /// Promote a key *we* hold inline (conditional waits need a core to
    /// register in): transfer the hold to our own checked-out pid.
    fn materialize_held(&self, entry: &Entry<T>) -> Result<(u32, Pid), Promote> {
        let Some(idx) = self.pool.acquire() else {
            return Err(Promote::Exhausted);
        };
        let core = self.pool.get(idx);
        core.users.fetch_add(1, Ordering::SeqCst);
        let base = &core.base;
        let pid = base.pids.try_checkout().expect("fresh core has free pids");
        let outcome = base.lock.enter_core(&base.mem, pid, &NeverAbort, &NoProbe);
        debug_assert!(outcome.entered(), "fresh core acquires immediately");
        if entry
            .word
            .compare_exchange(
                word::LOCKED_INLINE,
                word::materialized(idx as usize),
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok()
        {
            self.promotions.fetch_add(1, Ordering::Relaxed);
            Ok((idx, pid))
        } else {
            // A concurrent promoter won the publish; its proxy now
            // models our hold. Undo our core entirely.
            base.lock.exit_core(&base.mem, pid, &NoProbe);
            base.pids.release(pid);
            core.users.fetch_sub(1, Ordering::SeqCst);
            self.pool.release(idx);
            self.raced_promotions.fetch_add(1, Ordering::Relaxed);
            Err(Promote::Raced)
        }
    }

    /// Become a counted participant of `core`, or back off (`false`) if
    /// the core is demoting / no longer serves this entry. Increment
    /// first, revalidate the word after — the demotion-race half of the
    /// protocol (module docs).
    fn join(&self, entry: &Entry<T>, core: &Core<T>, idx: u32) -> bool {
        loop {
            let u = core.users.load(Ordering::SeqCst);
            let Some(next) = word::join_users(u) else {
                // Demotion in flight; the demoter changes the word
                // before releasing the core, so re-reading it makes
                // progress.
                return false;
            };
            if core
                .users
                .compare_exchange(u, next, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                continue;
            }
            if entry.word.load(Ordering::SeqCst) == word::materialized(idx as usize) {
                return true;
            }
            // The core moved on (demoted, possibly re-promoted for
            // another key) between our read and our increment: undo.
            core.users.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
    }

    /// Give up a participant seat; the last one out demotes the key and
    /// returns the core to the pool.
    fn depart(&self, entry: &Entry<T>, core: &Core<T>, idx: u32) {
        loop {
            let u = core.users.load(Ordering::SeqCst);
            debug_assert!(u != 0 && u != word::USERS_DEMOTING, "departing a dead core");
            if word::may_demote(u) {
                if core
                    .users
                    .compare_exchange(u, word::USERS_DEMOTING, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    // Sole participant ⇒ the core's lock is free (any
                    // holder, waiter, or proxy is a counted user) and
                    // its registry is empty. Word first (joiners
                    // spinning on the sentinel re-read it), then the
                    // counter, then the pool slot.
                    let prev = entry.word.swap(word::UNLOCKED, Ordering::SeqCst);
                    debug_assert_eq!(prev, word::materialized(idx as usize));
                    core.users.store(0, Ordering::SeqCst);
                    self.pool.release(idx);
                    self.demotions.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            } else if core
                .users
                .compare_exchange(u, u - 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return;
            }
        }
    }

    /// Give up a core participation: return the pid, then the seat.
    fn unseat(&self, entry: &Entry<T>, core: &Core<T>, idx: u32, pid: Pid) {
        core.base.pids.release(pid);
        self.depart(entry, core, idx);
    }

    /// Full release of a held key in either mode.
    fn unlock(&self, entry: &Entry<T>, mode: Mode) {
        match mode {
            Mode::Inline => {
                if entry
                    .word
                    .compare_exchange(
                        word::LOCKED_INLINE,
                        word::UNLOCKED,
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    )
                    .is_ok()
                {
                    return;
                }
                // Promoted while we held: our hold is now modelled by
                // the proxy pid — exit through it and give up its seat.
                let w = word::decode(entry.word.load(Ordering::SeqCst));
                let word::WordState::Materialized(idx) = w else {
                    unreachable!("inline hold can only change by promotion, found {w:?}");
                };
                let idx = idx as u32;
                let core = self.pool.get(idx);
                core.base.release(RESERVED, &entry.data);
                self.depart(entry, core, idx);
            }
            Mode::Core { idx, pid } => {
                let core = self.pool.get(idx);
                core.base.release(pid, &entry.data);
                self.unseat(entry, core, idx, pid);
            }
        }
    }
}

impl<K, T> fmt::Debug for Arena<K, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Arena")
            .field("shards", &self.entries.shard_count())
            .field("pool", &self.pool.slots.len())
            .field("built_cores", &self.pool.built.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// Exhausted-pool backoff: brief spins, then yields, then short sleeps.
fn backoff_step(step: &mut u32) {
    *step = step.saturating_add(1);
    match *step {
        0..=4 => {
            for _ in 0..(1u32 << *step) {
                std::hint::spin_loop();
            }
        }
        5..=16 => std::thread::yield_now(),
        _ => std::thread::sleep(Duration::from_micros(u64::from((*step - 16).min(6)) * 10)),
    }
}

/// RAII guard over one key's value; the key's lock is held while the
/// guard lives and released (with demotion bookkeeping) on drop.
///
/// Like [`MutexGuard`](crate::MutexGuard): `Sync` only when `T: Sync`,
/// never `Send` (core-mode guards own a checked-out pid seat).
pub struct ArenaGuard<'a, K, T> {
    arena: &'a Arena<K, T>,
    entry: &'a Entry<T>,
    mode: Mode,
    /// Suppresses auto `Send`/`Sync` (see type docs).
    _not_send: PhantomData<*const ()>,
}

// SAFETY: `&ArenaGuard` only exposes `&T`, so sharing requires exactly
// `T: Sync` (matching std's guard).
unsafe impl<K, T: Sync> Sync for ArenaGuard<'_, K, T> {}

impl<K, T> Deref for ArenaGuard<'_, K, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: we hold the key's lock.
        unsafe { &*self.entry.data.get() }
    }
}

impl<K, T> DerefMut for ArenaGuard<'_, K, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: we hold the key's lock exclusively.
        unsafe { &mut *self.entry.data.get() }
    }
}

impl<K, T> Drop for ArenaGuard<'_, K, T> {
    fn drop(&mut self) {
        self.arena.unlock(self.entry, self.mode);
    }
}

impl<K, T: fmt::Debug> fmt::Debug for ArenaGuard<'_, K, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("ArenaGuard").field(&&**self).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AbortFlag;
    use std::sync::Arc;

    #[test]
    fn uncontended_traffic_never_materializes() {
        let arena: Arena<u64, u64> = Arena::builder().shards(4).build();
        for k in 0..100u64 {
            *arena.lock(&k) += 1;
            *arena.lock(&k) += 1;
        }
        let s = arena.stats();
        assert_eq!(s.keys, 100);
        assert_eq!(s.built_cores, 0, "no contention, no cores");
        assert_eq!(s.promotions, 0);
        for k in 0..100u64 {
            assert_eq!(*arena.lock(&k), 2);
        }
    }

    #[test]
    fn contended_key_promotes_and_demotes() {
        let arena: Arc<Arena<u32, u64>> = Arc::new(Arena::builder().shards(2).pool(4).build());
        let start = Arc::new(std::sync::Barrier::new(4));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let arena = Arc::clone(&arena);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    for _ in 0..2000 {
                        *arena.lock(&1) += 1;
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(*arena.lock(&1), 8000, "no lost updates");
        let s = arena.stats();
        assert_eq!(
            s.resident_cores, 0,
            "quiescent arena has demoted everything"
        );
        assert_eq!(s.promotions, s.demotions, "every promotion reclaimed");
        assert!(s.built_cores <= 4);
    }

    #[test]
    fn try_lock_on_held_inline_key_fails_without_materializing() {
        let arena: Arena<u8, ()> = Arena::new();
        let g = arena.lock(&1);
        assert!(arena.try_lock(&1).is_none());
        assert_eq!(arena.stats().built_cores, 0);
        drop(g);
        assert!(arena.try_lock(&1).is_some());
    }

    #[test]
    fn deadline_abandons_a_held_key() {
        let arena: Arc<Arena<u8, ()>> = Arc::new(Arena::new());
        let g = arena.lock(&1);
        let start = Instant::now();
        let arena2 = Arc::clone(&arena);
        let t = std::thread::spawn(move || {
            arena2.try_lock_for(&1, Duration::from_millis(20)).is_none()
        });
        assert!(t.join().unwrap(), "waiter should time out");
        assert!(start.elapsed() >= Duration::from_millis(20));
        drop(g);
        // The aborted waiter departed: the key demotes once we release.
        assert_eq!(arena.stats().resident_cores, 0);
    }

    #[test]
    fn abort_flag_unblocks_a_queued_waiter() {
        let arena: Arc<Arena<u8, u32>> = Arc::new(Arena::new());
        let flag = AbortFlag::new();
        let g = arena.lock(&3);
        let t = {
            let arena = Arc::clone(&arena);
            let flag = flag.clone();
            std::thread::spawn(move || arena.lock_abortable(&3, &flag).is_none())
        };
        std::thread::sleep(Duration::from_millis(10));
        flag.set();
        assert!(t.join().unwrap(), "waiter should abort");
        drop(g);
        assert_eq!(arena.stats().resident_cores, 0);
    }

    #[test]
    fn lock_when_waits_across_a_transition() {
        let arena: Arc<Arena<u8, u64>> = Arc::new(Arena::new());
        let t = {
            let arena = Arc::clone(&arena);
            std::thread::spawn(move || {
                let g = arena.lock_when(&1, |v| *v == 42);
                *g
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        *arena.lock(&1) = 42;
        assert_eq!(t.join().unwrap(), 42);
        assert_eq!(arena.stats().resident_cores, 0);
    }

    #[test]
    fn lock_when_already_true_stays_inline() {
        let arena: Arena<u8, u64> = Arena::new();
        *arena.lock(&1) = 5;
        let g = arena.lock_when(&1, |v| *v == 5);
        assert_eq!(*g, 5);
        drop(g);
        assert_eq!(arena.stats().built_cores, 0);
    }

    #[test]
    fn lock_when_deadline_expires() {
        let arena: Arena<u8, u64> = Arena::new();
        let r = arena.lock_when_for(&1, |v| *v == 99, Duration::from_millis(15));
        assert_eq!(r.err(), Some(AbortReason::Deadline));
        assert_eq!(arena.stats().resident_cores, 0, "waiter departed cleanly");
    }

    #[test]
    fn distinct_keys_do_not_contend() {
        let arena: Arc<Arena<u64, u64>> = Arc::new(Arena::builder().shards(8).build());
        let threads: Vec<_> = (0..4u64)
            .map(|k| {
                let arena = Arc::clone(&arena);
                std::thread::spawn(move || {
                    for _ in 0..5000 {
                        *arena.lock(&k) += 1;
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        for k in 0..4u64 {
            assert_eq!(*arena.lock(&k), 5000);
        }
        assert_eq!(arena.stats().built_cores, 0, "disjoint keys stay inline");
    }

    #[test]
    fn pool_of_one_still_correct_under_many_contended_keys() {
        // More concurrently contended keys than pooled cores: the
        // overflow keys take the degraded path; counts must still hold.
        let arena: Arc<Arena<u32, u64>> = Arc::new(Arena::builder().pool(1).build());
        let start = Arc::new(std::sync::Barrier::new(6));
        let threads: Vec<_> = (0..6)
            .map(|_| {
                let arena = Arc::clone(&arena);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    for n in 0..1500u32 {
                        *arena.lock(&(n % 3)) += 1;
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let total: u64 = (0..3u32).map(|k| *arena.lock(&k)).sum();
        assert_eq!(total, 9000);
        let s = arena.stats();
        assert!(s.built_cores <= 1, "pool bound respected");
        assert_eq!(s.resident_cores, 0);
    }

    #[test]
    fn racing_first_touches_across_growths_lose_nothing() {
        // One shard: every insert and every table growth (8 slots up to
        // 16 Ki) lands in one table chain while all threads probe it.
        let (threads, span, stride) = (4u32, 4000u32, 1000u32);
        let arena: Arc<Arena<u32, u64>> = Arc::new(Arena::builder().shards(1).build());
        let start = Arc::new(std::sync::Barrier::new(threads as usize));
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let arena = Arc::clone(&arena);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    let range = t * stride..t * stride + span;
                    // Odd threads walk down, so first touches collide
                    // from both ends of each overlap.
                    if t % 2 == 0 {
                        range.for_each(|k| *arena.lock(&k) += 1);
                    } else {
                        range.rev().for_each(|k| *arena.lock(&k) += 1);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let distinct = (threads - 1) * stride + span;
        assert_eq!(arena.stats().keys, distinct as usize);
        for k in 0..distinct {
            let covering = (0..threads)
                .filter(|t| (t * stride..t * stride + span).contains(&k))
                .count() as u64;
            assert_eq!(*arena.lock(&k), covering, "key {k}");
        }
        assert_eq!(arena.stats().keys, distinct as usize);
    }

    #[test]
    fn dropping_the_arena_drops_every_value_once() {
        static CREATED: AtomicUsize = AtomicUsize::new(0);
        static DROPPED: AtomicUsize = AtomicUsize::new(0);
        struct Counted(u64);
        impl Default for Counted {
            fn default() -> Self {
                CREATED.fetch_add(1, Ordering::SeqCst);
                Counted(0)
            }
        }
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPPED.fetch_add(1, Ordering::SeqCst);
            }
        }
        let arena: Arena<u32, Counted> = Arena::builder().shards(2).build();
        for k in (0..3000).chain(0..1000) {
            arena.lock(&k).0 += 1;
        }
        assert_eq!(arena.lock(&7).0, 2);
        let keys = arena.stats().keys;
        assert_eq!(keys, 3000);
        assert_eq!(CREATED.load(Ordering::SeqCst), keys, "one value per key");
        assert_eq!(DROPPED.load(Ordering::SeqCst), 0);
        drop(arena);
        assert_eq!(
            DROPPED.load(Ordering::SeqCst),
            keys,
            "each value dropped once"
        );
    }

    #[test]
    fn try_lock_on_a_new_key_creates_one_entry() {
        let arena: Arena<u32, u64> = Arena::new();
        let g = arena.try_lock(&5).expect("a new key is free");
        assert_eq!(arena.stats().keys, 1);
        assert!(arena.try_lock(&5).is_none());
        drop(g);
        assert!(arena.try_lock(&5).is_some());
        assert_eq!(arena.stats().keys, 1);
    }

    #[test]
    fn guard_debug_and_arena_debug() {
        let arena: Arena<u8, u64> = Arena::new();
        let g = arena.lock(&1);
        assert!(format!("{g:?}").contains("ArenaGuard"));
        drop(g);
        assert!(format!("{arena:?}").contains("Arena"));
    }
}
