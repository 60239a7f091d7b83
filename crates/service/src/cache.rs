//! A sharded LRU memo cache with hit/miss/eviction counters.
//!
//! The serving layer's whole value proposition is that an evaluation is
//! computed once and then served from memory. This module provides the
//! memo structure: a fixed number of independently locked shards
//! (`parking_lot` mutexes), each holding a strict least-recently-used
//! map with a per-shard capacity. A key hashes to exactly one shard, so
//! concurrent requests for different keys rarely contend, and a
//! concurrent request for the *same* key blocks until the first
//! computation finishes and then reuses it (request coalescing — the
//! expensive evaluator runs once per key, never twice).
//!
//! Counters (hits, misses, evictions) are global atomics surfaced by the
//! `/stats` endpoint, which is also how the integration tests prove that
//! repeated identical requests are served from cache. A cache built
//! with [`ShardedLru::weighted`] also keeps the total weight (say, heap
//! bytes) of its resident values.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;

/// A snapshot of cache effectiveness counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute the value.
    pub misses: u64,
    /// Entries displaced to make room.
    pub evictions: u64,
    /// Entries currently resident, summed over shards.
    pub entries: usize,
    /// Total capacity, summed over shards.
    pub capacity: usize,
    /// Number of shards.
    pub shards: usize,
}

/// One LRU shard: a map plus a logical clock ordering recency.
#[derive(Debug)]
struct Shard<K, V> {
    map: HashMap<K, Entry<V>>,
    tick: u64,
    /// This shard's own entry budget; shard budgets sum exactly to the
    /// cache's requested total capacity.
    capacity: usize,
}

#[derive(Debug)]
struct Entry<V> {
    value: V,
    last_used: u64,
    /// The value's weight, taken once on insertion.
    weight: u64,
}

/// What one [`Shard::insert`] changed.
#[derive(Debug, Default)]
struct Inserted {
    evicted: u64,
    grew: usize,
    added_weight: u64,
    removed_weight: u64,
}

impl<K: Hash + Eq + Clone, V> Shard<K, V> {
    fn touch(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|e| {
            e.last_used = tick;
            &e.value
        })
    }

    /// Inserts `value` of the given `weight`, evicting the
    /// least-recently-used entry if the shard is at capacity. A
    /// zero-capacity shard (possible when the total capacity is below
    /// the shard count) retains nothing.
    fn insert(&mut self, key: K, value: V, weight: u64) -> Inserted {
        if self.capacity == 0 {
            return Inserted::default();
        }
        self.tick += 1;
        let mut out = Inserted {
            added_weight: weight,
            ..Inserted::default()
        };
        let is_new = !self.map.contains_key(&key);
        if is_new && self.map.len() >= self.capacity {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                if let Some(gone) = self.map.remove(&oldest) {
                    out.removed_weight += gone.weight;
                }
                out.evicted = 1;
            }
        }
        let entry = Entry {
            value,
            last_used: self.tick,
            weight,
        };
        if let Some(replaced) = self.map.insert(key, entry) {
            out.removed_weight += replaced.weight;
        }
        out.grew = usize::from(is_new) - out.evicted as usize;
        out
    }
}

/// A sharded, strictly-LRU memo cache.
///
/// # Example
///
/// ```
/// use raysearch_service::cache::ShardedLru;
///
/// let cache: ShardedLru<u32, String> = ShardedLru::new(128, 8);
/// let v = cache.get_or_insert_with(7, || "computed".to_owned());
/// assert_eq!(v, "computed");
/// assert_eq!(cache.stats().misses, 1);
/// let again = cache.get_or_insert_with(7, || unreachable!("cached"));
/// assert_eq!(again, "computed");
/// assert_eq!(cache.stats().hits, 1);
/// ```
#[derive(Debug)]
pub struct ShardedLru<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Resident entries, maintained atomically so [`Self::len`] (and
    /// the `/stats` endpoint built on it) never waits on a shard lock —
    /// in particular not on one held across a slow cold computation.
    entries: AtomicUsize,
    /// Weighs a value on insertion (`0` for an unweighted cache).
    weigh: fn(&V) -> u64,
    /// Total weight of the resident values, maintained like `entries`.
    weight: AtomicU64,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedLru<K, V> {
    /// Creates a cache of *exactly* `capacity` total entries split over
    /// `shards` shards: each shard gets `capacity / shards`, with the
    /// remainder spread one entry each over the first shards — so the
    /// budget an operator configures is the budget that is enforced
    /// (and reported by [`Self::stats`]).
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `capacity` is zero.
    pub fn new(capacity: usize, shards: usize) -> Self {
        Self::weighted(capacity, shards, |_| 0)
    }

    /// [`Self::new`], also keeping the total weight of the resident
    /// values as measured by `weigh` (read with [`Self::weight`]). Each
    /// value is weighed once, when it is inserted.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `capacity` is zero.
    pub fn weighted(capacity: usize, shards: usize, weigh: fn(&V) -> u64) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(capacity > 0, "need a nonzero capacity");
        let base = capacity / shards;
        let remainder = capacity % shards;
        ShardedLru {
            shards: (0..shards)
                .map(|i| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        tick: 0,
                        capacity: base + usize::from(i < remainder),
                    })
                })
                .collect(),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            entries: AtomicUsize::new(0),
            weigh,
            weight: AtomicU64::new(0),
        }
    }

    /// The shard a key belongs to — stable for the cache's lifetime, so
    /// logically equal keys (see `raysearch_core::canon`) always meet in
    /// the same shard.
    pub fn shard_index(&self, key: &K) -> usize {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() as usize) % self.shards.len()
    }

    /// Looks up `key`, refreshing its recency. Counts a hit or a miss.
    pub fn get(&self, key: &K) -> Option<V> {
        let mut shard = self.shards[self.shard_index(key)].lock();
        match shard.touch(key) {
            Some(v) => {
                let v = v.clone();
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts `key → value` unconditionally, evicting the shard's LRU
    /// entry if it is full. Does not count a hit or a miss.
    pub fn insert(&self, key: K, value: V) {
        let weight = (self.weigh)(&value);
        let mut shard = self.shards[self.shard_index(&key)].lock();
        let inserted = shard.insert(key, value, weight);
        self.record(&inserted);
    }

    /// Publishes one shard insert's effect on the lock-free counters.
    fn record(&self, inserted: &Inserted) {
        self.evictions
            .fetch_add(inserted.evicted, Ordering::Relaxed);
        self.entries.fetch_add(inserted.grew, Ordering::Relaxed);
        self.weight
            .fetch_add(inserted.added_weight, Ordering::Relaxed);
        self.weight
            .fetch_sub(inserted.removed_weight, Ordering::Relaxed);
    }

    /// Returns the cached value for `key`, computing and inserting it on
    /// a miss. The shard stays locked across `compute`, so concurrent
    /// requests for the same key coalesce into one computation.
    pub fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> V {
        match self.try_get_or_insert_with(key, || Ok::<V, std::convert::Infallible>(compute())) {
            Ok((v, _)) => v,
            Err(e) => match e {},
        }
    }

    /// Fallible [`Self::get_or_insert_with`]: on a miss, `compute` runs
    /// under the shard lock (same-key requests coalesce into one
    /// computation); an `Err` is propagated and *nothing* is cached, so
    /// a failed computation cannot poison the entry. Returns the value
    /// and whether it was a hit.
    ///
    /// Tradeoff: while `compute` runs, *other* keys hashing to the same
    /// shard also wait. With bounded per-request compute (the API layer
    /// enforces instance ceilings) and many shards this stall is
    /// bounded and buys exactly-once computation per key; counters and
    /// [`Self::len`] stay lock-free throughout.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error on a miss.
    pub fn try_get_or_insert_with<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), E> {
        let mut shard = self.shards[self.shard_index(&key)].lock();
        if let Some(v) = shard.touch(&key) {
            let v = v.clone();
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((v, true));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = compute()?;
        let inserted = shard.insert(key, value.clone(), (self.weigh)(&value));
        self.record(&inserted);
        Ok((value, false))
    }

    /// Number of resident entries across all shards. Lock-free: reads
    /// the maintained atomic, so it cannot block behind an in-flight
    /// computation holding a shard lock.
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }

    /// Total weight of the resident values (always `0` unless the cache
    /// was built with [`Self::weighted`]). Lock-free, like [`Self::len`].
    pub fn weight(&self) -> u64 {
        self.weight.load(Ordering::Relaxed)
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (hit/miss/eviction counters are preserved).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock();
            let dropped = shard.map.len();
            let weight: u64 = shard.map.values().map(|e| e.weight).sum();
            shard.map.clear();
            self.entries.fetch_sub(dropped, Ordering::Relaxed);
            self.weight.fetch_sub(weight, Ordering::Relaxed);
        }
    }

    /// A consistent-enough snapshot of the counters (all atomics — no
    /// shard lock is taken, so stats stay responsive while a cold
    /// computation is in flight).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
            capacity: self.capacity,
            shards: self.shards.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single-shard cache observes strict LRU globally.
    fn single(capacity: usize) -> ShardedLru<u64, u64> {
        ShardedLru::new(capacity, 1)
    }

    #[test]
    fn capacity_is_enforced() {
        let cache = single(3);
        for k in 0..10 {
            cache.insert(k, k * 100);
        }
        assert_eq!(cache.len(), 3);
        let stats = cache.stats();
        assert_eq!(stats.evictions, 7);
        assert_eq!(stats.capacity, 3);
        // the three most recent survive
        assert_eq!(cache.get(&9), Some(900));
        assert_eq!(cache.get(&8), Some(800));
        assert_eq!(cache.get(&7), Some(700));
        assert_eq!(cache.get(&0), None);
    }

    #[test]
    fn eviction_follows_recency_not_insertion() {
        let cache = single(3);
        cache.insert(1, 1);
        cache.insert(2, 2);
        cache.insert(3, 3);
        // touch 1 so 2 becomes the LRU entry
        assert_eq!(cache.get(&1), Some(1));
        cache.insert(4, 4);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.get(&2), None, "2 was least recently used");
        assert_eq!(cache.get(&1), Some(1));
        assert_eq!(cache.get(&3), Some(3));
        assert_eq!(cache.get(&4), Some(4));
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let cache = single(2);
        cache.insert(1, 10);
        cache.insert(2, 20);
        cache.insert(1, 11); // overwrite, not displacement
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&1), Some(11));
        assert_eq!(cache.get(&2), Some(20));
    }

    #[test]
    fn counters_are_accurate() {
        let cache = single(8);
        assert_eq!(cache.get(&1), None); // miss
        let v = cache.get_or_insert_with(1, || 100); // miss + insert
        assert_eq!(v, 100);
        let v = cache.get_or_insert_with(1, || panic!("must be cached")); // hit
        assert_eq!(v, 100);
        assert_eq!(cache.get(&1), Some(100)); // hit
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (2, 2, 0));
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn clear_preserves_counters() {
        let cache = single(4);
        cache.get_or_insert_with(1, || 1);
        cache.get_or_insert_with(1, || 1);
        cache.clear();
        assert!(cache.is_empty());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(cache.get(&1), None, "cleared entries are gone");
    }

    #[test]
    fn shards_partition_the_key_space() {
        let cache: ShardedLru<u64, u64> = ShardedLru::new(64, 8);
        assert_eq!(cache.stats().shards, 8);
        // a key's shard is stable call to call
        for k in 0..100 {
            assert_eq!(cache.shard_index(&k), cache.shard_index(&k));
        }
        // and the whole population spreads over more than one shard
        let mut seen = std::collections::HashSet::new();
        for k in 0..100u64 {
            seen.insert(cache.shard_index(&k));
        }
        assert!(seen.len() > 1, "all keys landed in one shard");
    }

    #[test]
    fn parallel_hammering_keeps_counters_consistent() {
        let cache: ShardedLru<u64, u64> = ShardedLru::new(1024, 8);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        let key = (t * 1000 + i) % 128;
                        let got = cache.get_or_insert_with(key, || key * 2);
                        assert_eq!(got, key * 2);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 4000);
        assert_eq!(stats.entries, 128);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn total_capacity_is_exactly_as_requested() {
        // 17 over 16 shards must not round up to 32
        let cache: ShardedLru<u64, u64> = ShardedLru::new(17, 16);
        assert_eq!(cache.stats().capacity, 17);
        for k in 0..1000 {
            cache.insert(k, k);
        }
        assert!(
            cache.len() <= 17,
            "cache holds {} entries over the budget of 17",
            cache.len()
        );
        // capacity below the shard count: zero-capacity shards retain
        // nothing, and the total budget still holds
        let tiny: ShardedLru<u64, u64> = ShardedLru::new(2, 8);
        assert_eq!(tiny.stats().capacity, 2);
        for k in 0..100 {
            tiny.insert(k, k);
        }
        assert!(tiny.len() <= 2, "tiny cache exceeded its budget");
    }

    #[test]
    fn weight_follows_inserts_overwrites_evictions_and_clears() {
        let cache: ShardedLru<u64, u64> = ShardedLru::weighted(2, 1, |v| *v);
        cache.insert(1, 10);
        cache.insert(2, 20);
        assert_eq!(cache.weight(), 30);
        cache.insert(1, 11); // overwrite: the old weight leaves
        assert_eq!(cache.weight(), 31);
        cache.get_or_insert_with(3, || 5); // evicts 2, the LRU entry
        assert_eq!(cache.weight(), 16);
        cache.clear();
        assert_eq!(cache.weight(), 0);
        // an unweighted cache reports zero
        let plain = single(4);
        plain.insert(1, 100);
        assert_eq!(plain.weight(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ShardedLru::<u64, u64>::new(8, 0);
    }

    #[test]
    #[should_panic(expected = "nonzero capacity")]
    fn zero_capacity_panics() {
        let _ = ShardedLru::<u64, u64>::new(0, 2);
    }
}
