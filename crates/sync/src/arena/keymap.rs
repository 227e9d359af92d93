//! The arena's key index: a sharded hash map that only ever grows and
//! is read without locks (DESIGN.md §13, "The key index").
//!
//! Each key gets one boxed node `{key, value}` that never moves and is
//! freed only when the map drops. Each shard is an open-addressing
//! table of node pointers (null = empty, linear probing). A lookup
//! hashes once — low bits pick the shard, the bits above them the
//! first slot — and probes with Acquire loads: a hit stores nothing.
//! A miss takes the shard's insert mutex, probes the current table
//! again, and publishes a new node with a Release store. At load factor
//! above 3/4 the table is copied into one twice the size, published
//! with a Release store; the superseded table stays alive, chained
//! from its successor, until the map drops.
//!
//! Publication order: a node is initialised before the Release store
//! of its pointer, and a grown table is filled before the Release
//! store of the table pointer; each Acquire load on the read path
//! pairs with one of them. Slots are never cleared, so a reader on a
//! stale table, or racing an insert, can only miss — never read freed
//! or uninitialised memory — and a miss retries under the lock.

#![warn(clippy::undocumented_unsafe_blocks)]

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Slots in a shard's first table.
const MIN_SLOTS: usize = 8;

/// One key and its value; boxed, never moved, freed when the map drops.
struct Node<K, V> {
    key: K,
    value: V,
}

/// One open-addressing table: a power-of-two slot array of node
/// pointers (null = empty) and the table it superseded, if any.
struct Table<K, V> {
    slots: Box<[AtomicPtr<Node<K, V>>]>,
    /// Owned: freed with this table. Readers may still be probing it.
    prev: *mut Table<K, V>,
}

impl<K, V> Table<K, V> {
    fn new(len: usize, prev: *mut Table<K, V>) -> Self {
        Table {
            slots: (0..len).map(|_| AtomicPtr::new(ptr::null_mut())).collect(),
            prev,
        }
    }

    /// The slots of `start`'s probe run, in probe order, from `start`
    /// around the whole table.
    fn probe(&self, start: u64) -> impl Iterator<Item = &AtomicPtr<Node<K, V>>> {
        let mask = self.slots.len() - 1;
        (0..self.slots.len()).map(move |i| &self.slots[(start as usize).wrapping_add(i) & mask])
    }
}

impl<K: Eq, V> Table<K, V> {
    /// The node for `key`, or `None` at the first empty slot of its run.
    fn find(&self, start: u64, key: &K) -> Option<&Node<K, V>> {
        for slot in self.probe(start) {
            let p = slot.load(Ordering::Acquire);
            if p.is_null() {
                return None;
            }
            // SAFETY: a non-null slot holds a node published (Release)
            // after its initialisation and paired with this Acquire
            // load; nodes are freed only when the map drops, which
            // cannot overlap the `&self` borrow of the map that reached
            // this table.
            let node = unsafe { &*p };
            if node.key == *key {
                return Some(node);
            }
        }
        // Tables are never full (load factor ≤ 3/4), so a run always
        // ends at an empty slot.
        None
    }

    /// Store `node` into the first empty slot of `start`'s run; the
    /// caller holds the shard's insert mutex, so no other thread
    /// stores into this table.
    fn place(&self, start: u64, node: *mut Node<K, V>) {
        let slot = self
            .probe(start)
            .find(|s| s.load(Ordering::Relaxed).is_null())
            .expect("tables grow before they fill");
        slot.store(node, Ordering::Release);
    }
}

impl<K, V> Drop for Table<K, V> {
    fn drop(&mut self) {
        if !self.prev.is_null() {
            // SAFETY: `prev` came from `Box::into_raw` when this table
            // superseded it and is owned by this table alone; the map
            // is being dropped, so no reader is probing it.
            drop(unsafe { Box::from_raw(self.prev) });
        }
    }
}

/// One hash shard: its current table (null until the first insert),
/// its key count, and the mutex serialising its inserts and growth.
struct Shard<K, V> {
    table: AtomicPtr<Table<K, V>>,
    len: AtomicUsize,
    insert: Mutex<()>,
}

/// A sharded hash map from `K` to `V` that only ever grows: [`get`]
/// returns the key's value, inserting `V::default()` on first touch,
/// and a lookup of a present key takes no lock and writes nothing. See
/// the module docs for the publication argument.
///
/// [`get`]: KeyMap::get
///
/// ```
/// use sal_sync::arena::KeyMap;
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let map: KeyMap<&str, AtomicU64> = KeyMap::new(4);
/// map.get(&"a").fetch_add(1, Ordering::Relaxed);
/// map.get(&"a").fetch_add(1, Ordering::Relaxed);
/// assert_eq!(map.get(&"a").load(Ordering::Relaxed), 2);
/// assert_eq!(map.len(), 1);
/// ```
pub struct KeyMap<K, V> {
    shards: Box<[Shard<K, V>]>,
    /// `log2(shards.len())`: the hash bits that pick the shard.
    shard_bits: u32,
    hasher: RandomState,
    /// The map owns its nodes (for auto-trait and drop-check purposes).
    _owns: PhantomData<Box<Node<K, V>>>,
}

// SAFETY: the map owns its keys, values, nodes and tables (raw
// pointers reached only through it); moving it to another thread moves
// them, which needs `K: Send` and `V: Send`.
unsafe impl<K: Send, V: Send> Send for KeyMap<K, V> {}
// SAFETY: through `&KeyMap`, any thread reads keys (comparison) and
// values (`&V`), so `K: Sync, V: Sync`; any thread may insert a key and
// value it created that the owner later drops, so `K: Send, V: Send`.
// Shard state is atomics and a mutex.
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for KeyMap<K, V> {}

impl<K, V> KeyMap<K, V> {
    /// An empty map with `shards` shards (rounded up to a power of
    /// two). No table is allocated until a shard's first insert.
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        KeyMap {
            shards: (0..shards)
                .map(|_| Shard {
                    table: AtomicPtr::new(ptr::null_mut()),
                    len: AtomicUsize::new(0),
                    insert: Mutex::new(()),
                })
                .collect(),
            shard_bits: shards.trailing_zeros(),
            hasher: RandomState::new(),
            _owns: PhantomData,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Keys ever inserted, summed from per-shard counters without
    /// taking a lock (a snapshot while inserts run).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.len.load(Ordering::Relaxed))
            .sum()
    }

    /// No key was ever inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Hash + Eq + Clone, V: Default> KeyMap<K, V> {
    /// `key`'s value, inserting `V::default()` on first touch. A
    /// present key costs one hash and atomic loads only.
    pub fn get(&self, key: &K) -> &V {
        let hash = self.hasher.hash_one(key);
        let shard = &self.shards[hash as usize & (self.shards.len() - 1)];
        let start = hash >> self.shard_bits;
        let table = shard.table.load(Ordering::Acquire);
        if !table.is_null() {
            // SAFETY: a non-null table pointer was published (Release)
            // after the table was filled, pairing with this Acquire
            // load; tables, superseded ones included, are freed only
            // when the map drops, which cannot overlap `&self`.
            if let Some(node) = unsafe { &*table }.find(start, key) {
                return &node.value;
            }
        }
        self.insert(shard, start, key)
    }

    /// The locked path of [`get`](Self::get): authoritative lookup,
    /// then growth and insertion when the key is still absent.
    #[cold]
    fn insert(&self, shard: &Shard<K, V>, start: u64, key: &K) -> &V {
        // A panic in user code here (`Hash`, `Eq`, `Clone`, `Default`)
        // leaves the shard consistent: nothing is published until it
        // is complete. So a poisoned mutex is still a valid one.
        let _serial = shard.insert.lock().unwrap_or_else(PoisonError::into_inner);
        let mut table = shard.table.load(Ordering::Acquire);
        if !table.is_null() {
            // SAFETY: as in `get`; besides, we hold the insert mutex,
            // so `table` is the current table and nobody stores into it.
            if let Some(node) = unsafe { &*table }.find(start, key) {
                return &node.value;
            }
        }
        let len = shard.len.load(Ordering::Relaxed);
        // SAFETY: as above.
        let capacity = unsafe { table.as_ref() }.map_or(0, |t| t.slots.len());
        if (len + 1) * 4 > capacity * 3 {
            table = self.grow(table, (capacity * 2).max(MIN_SLOTS));
            shard.table.store(table, Ordering::Release);
        }
        let node = Box::into_raw(Box::new(Node {
            key: key.clone(),
            value: V::default(),
        }));
        // SAFETY: `table` is the current table (non-null: grown above
        // if it was null) and stays alive as long as the map.
        unsafe { &*table }.place(start, node);
        shard.len.store(len + 1, Ordering::Relaxed);
        // SAFETY: `node` was just leaked from a box and is freed only
        // when the map drops.
        &unsafe { &*node }.value
    }

    /// A table of `slots` slots holding every node of `old` (may be
    /// null), chaining `old` behind it. The caller holds the shard's
    /// insert mutex and publishes the result.
    fn grow(&self, old: *mut Table<K, V>, slots: usize) -> *mut Table<K, V> {
        // `old` is chained only once the copy is done: a panicking
        // `Hash` mid-copy must not drop (free) the live table.
        let mut table = Table::new(slots, ptr::null_mut());
        // SAFETY: `old` is null or the shard's current table, alive as
        // long as the map; under the insert mutex nobody else writes it.
        if let Some(old) = unsafe { old.as_ref() } {
            for p in old.slots.iter().map(|s| s.load(Ordering::Relaxed)) {
                // SAFETY: non-null slots hold live nodes (see `find`).
                if let Some(node) = unsafe { p.as_ref() } {
                    table.place(self.hasher.hash_one(&node.key) >> self.shard_bits, p);
                }
            }
        }
        table.prev = old;
        Box::into_raw(Box::new(table))
    }
}

impl<K, V> Drop for KeyMap<K, V> {
    fn drop(&mut self) {
        for shard in self.shards.iter_mut() {
            let table = *shard.table.get_mut();
            if table.is_null() {
                continue;
            }
            // SAFETY: `&mut self`: no reader is left. The current table
            // came from `Box::into_raw` and holds every node of the
            // shard exactly once (growth copies all of them), each from
            // `Box::into_raw`; superseded tables hold only pointers to
            // these same nodes and are freed without following them.
            let table = unsafe { Box::from_raw(table) };
            for slot in table.slots.iter() {
                let p = slot.load(Ordering::Relaxed);
                if !p.is_null() {
                    // SAFETY: as above; each node is freed once.
                    drop(unsafe { Box::from_raw(p) });
                }
            }
        }
    }
}

impl<K, V> fmt::Debug for KeyMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KeyMap")
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hasher;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicU64};

    #[test]
    fn a_panic_while_growing_leaves_the_map_usable() {
        static ARMED: AtomicBool = AtomicBool::new(false);
        /// Hashing key 0 panics while armed.
        #[derive(Clone, PartialEq, Eq)]
        struct Key(u32);
        impl Hash for Key {
            fn hash<H: Hasher>(&self, h: &mut H) {
                assert!(!(self.0 == 0 && ARMED.load(Ordering::SeqCst)), "armed");
                self.0.hash(h);
            }
        }
        let map: KeyMap<Key, AtomicU64> = KeyMap::new(1);
        for k in 0..6 {
            map.get(&Key(k)).store(u64::from(k) + 1, Ordering::SeqCst);
        }
        // The seventh key grows the 8-slot table, rehashing key 0.
        ARMED.store(true, Ordering::SeqCst);
        let grew = catch_unwind(AssertUnwindSafe(|| {
            map.get(&Key(6));
        }));
        ARMED.store(false, Ordering::SeqCst);
        assert!(grew.is_err(), "growth rehashed the armed key");
        for k in 0..6 {
            assert_eq!(map.get(&Key(k)).load(Ordering::SeqCst), u64::from(k) + 1);
        }
        map.get(&Key(6)).store(7, Ordering::SeqCst);
        assert_eq!(map.len(), 7);
        assert_eq!(map.get(&Key(6)).load(Ordering::SeqCst), 7);
    }
}
