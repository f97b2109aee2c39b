//! The workspace's one memo table.
//!
//! Two stages of the flow pose identical problems over and over: task
//! estimation (the same operation graph under the same allocation, once per
//! exploration sweep) and temporal partitioning (the same graph, board and
//! strategy, once per session, exploration or table). Both memoize through
//! a [`Memo`] — a thread-safe, capacity-bounded map with least-recently-used
//! eviction — keyed by a [`CacheKey`]: the *full* rendered problem
//! statement, not a digest of it. Every input type derives `Debug` over
//! plain data, so equal problems render equally, any field change changes
//! the key, and distinct problems can never alias — the map hashes
//! internally, so a hash collision degrades to a bucket probe, never to a
//! value computed for a different problem.
//!
//! The memo runs the computation *outside* its lock, so concurrent callers
//! never serialize on one another's work; two threads racing on one key
//! both compute, the first insert wins, and both return the same value.
//! Errors are never cached. Eviction is safe by construction: dropping an
//! entry only costs a future recomputation. [`CacheStats`] counts hits,
//! misses and evictions.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::fmt::{Debug, Write as _};
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock};

/// A memo key: the full rendered problem statement.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey(String);

impl CacheKey {
    /// The key of a problem whose inputs are `parts` — pass every input
    /// that influences the result. Each part is rendered through `Debug`
    /// and followed by a field separator, so adjacent values cannot alias
    /// (`("ab","c")` ≠ `("a","bc")`).
    pub fn of(parts: &[&dyn Debug]) -> Self {
        let mut material = String::new();
        for part in parts {
            let _ = write!(material, "{part:?}\u{1f}");
        }
        CacheKey(material)
    }

    /// The rendered statement; `sparcsd`'s disk store compares it on read,
    /// so a filename-hash collision degrades to a store miss.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// Hit/miss/eviction counters of a [`Memo`] (monotonic per memo).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that found nothing (the caller computes and inserts).
    pub misses: u64,
    /// Entries dropped to keep the map within its capacity cap.
    pub evictions: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// The map and its counters, all under one lock.
#[derive(Debug)]
struct Table<K, V> {
    /// Each value with the LRU stamp of its last touch.
    map: HashMap<K, (V, u64)>,
    /// Monotonic touch counter backing the LRU stamps.
    clock: u64,
    stats: CacheStats,
}

/// A thread-safe, capacity-bounded `key → value` memo table with
/// least-recently-used eviction. Values are handed out by clone, so large
/// values are stored behind an [`Arc`].
#[derive(Debug)]
pub struct Memo<K, V> {
    table: Mutex<Table<K, V>>,
    /// Maximum entries held at once; the least recently used one is
    /// evicted to admit a new insert at capacity.
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V: Clone> Default for Memo<K, V> {
    fn default() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Memo<K, V> {
    /// Default capacity cap: ample for exploration sweeps, yet a resident
    /// daemon serving arbitrary traffic stays at bounded memory.
    pub const DEFAULT_CAPACITY: usize = 512;

    /// An empty memo with the default capacity cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty memo holding at most `capacity` entries (at least one
    /// slot is always kept, so a zero capacity behaves as one).
    pub fn with_capacity(capacity: usize) -> Self {
        Memo {
            table: Mutex::new(Table {
                map: HashMap::new(),
                clock: 0,
                stats: CacheStats::default(),
            }),
            capacity: capacity.max(1),
        }
    }

    /// The capacity cap this memo evicts at.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Table<K, V>> {
        self.table.lock().expect("memo lock")
    }

    /// Returns the value under `key`, running `compute` and inserting on a
    /// miss. `compute` runs outside the lock; its errors are returned to
    /// the caller and never cached.
    ///
    /// # Errors
    ///
    /// Whatever `compute` returns on failure.
    pub fn get_or_insert_with<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        if let Some(hit) = self.get(&key) {
            return Ok(hit);
        }
        let value = compute()?;
        Ok(self.insert(key, value))
    }

    /// Looks the key up, counting a hit or a miss and refreshing the LRU
    /// stamp on a hit.
    pub fn get(&self, key: &K) -> Option<V> {
        let mut table = self.lock();
        table.clock += 1;
        let now = table.clock;
        let hit = table.map.get_mut(key).map(|(value, last_used)| {
            *last_used = now;
            value.clone()
        });
        match hit {
            Some(_) => table.stats.hits += 1,
            None => table.stats.misses += 1,
        }
        hit
    }

    /// Inserts (or refreshes) a value under `key`, evicting the least
    /// recently used entry if the memo is at capacity. Returns the value
    /// now held under the key: when two threads race, the first insert wins.
    pub fn insert(&self, key: K, value: V) -> V {
        let mut table = self.lock();
        table.clock += 1;
        let now = table.clock;
        if !table.map.contains_key(&key) && table.map.len() >= self.capacity {
            // O(n) victim scan: capacities are small (hundreds) and
            // eviction only happens on inserts past capacity, so the scan
            // is far cheaper than the computation that preceded it.
            let victim = table
                .map
                .iter()
                .min_by_key(|(_, (_, last_used))| *last_used)
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                table.map.remove(&victim);
                table.stats.evictions += 1;
            }
        }
        let slot = table.map.entry(key).or_insert((value, now));
        slot.1 = now;
        slot.0.clone()
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the memo holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss/eviction counters so far.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    /// Drops every entry (counters keep running).
    pub fn clear(&self) {
        self.lock().map.clear();
    }
}

impl<K, V> Memo<K, V>
where
    K: Eq + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// The process-wide memo of this key and value type, created on first
    /// use with the default capacity.
    pub fn global() -> &'static Arc<Self> {
        // A `static` inside a generic function is shared by every
        // instantiation, so the per-type instances live in one registry
        // keyed by type and are leaked once each.
        type Registry = Mutex<HashMap<TypeId, &'static (dyn Any + Send + Sync)>>;
        static REGISTRY: OnceLock<Registry> = OnceLock::new();
        let mut registry = REGISTRY
            .get_or_init(Default::default)
            .lock()
            .expect("memo registry lock");
        let entry = *registry
            .entry(TypeId::of::<Self>())
            .or_insert_with(|| Box::leak(Box::new(Arc::new(Self::new()))));
        entry
            .downcast_ref::<Arc<Self>>()
            .expect("the registry is keyed by the memo's own type")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::{EstimateCache, TaskEstimate};
    use sparcs_dfg::Resources;

    fn estimate(clbs: u64) -> TaskEstimate {
        TaskEstimate::from_cycles(Resources::clbs(clbs), 10, 50)
    }

    fn key(part: &str) -> CacheKey {
        CacheKey::of(&[&part])
    }

    #[test]
    fn keys_separate_adjacent_fields() {
        assert_ne!(CacheKey::of(&[&"ab", &"c"]), CacheKey::of(&[&"a", &"bc"]));
        // And equal inputs key equally.
        assert_eq!(CacheKey::of(&[&"a", &1]), CacheKey::of(&[&"a", &1]));
    }

    #[test]
    fn second_lookup_skips_the_estimator() {
        let cache = EstimateCache::new();
        let first = cache.get_or_insert_with::<()>(key("t"), || Ok(estimate(70)));
        let second = cache.get_or_insert_with::<()>(key("t"), || panic!("must not re-estimate"));
        assert_eq!(first, second);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.lookups()), (1, 1, 2));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_estimate_separately() {
        let cache = EstimateCache::new();
        for (k, clbs) in [("a", 1), ("b", 2)] {
            let got = cache.get_or_insert_with::<()>(key(k), || Ok(estimate(clbs)));
            assert_eq!(got, Ok(estimate(clbs)));
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let cache = EstimateCache::with_capacity(2);
        assert_eq!(cache.capacity(), 2);
        cache.insert(key("a"), estimate(1));
        cache.insert(key("b"), estimate(2));
        // Touch `a` so `b` becomes the LRU victim.
        assert!(cache.get(&key("a")).is_some());
        cache.insert(key("c"), estimate(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key("a")).is_some(), "recently used survives");
        assert!(cache.get(&key("b")).is_none(), "LRU entry was evicted");
        assert!(cache.get(&key("c")).is_some());
        assert_eq!(cache.stats().evictions, 1);
        // An evicted key is simply recomputable: the memo is a pure cache.
        let back = cache.get_or_insert_with::<()>(key("b"), || Ok(estimate(2)));
        assert_eq!(back, Ok(estimate(2)));
    }

    #[test]
    fn refreshing_an_existing_key_does_not_evict() {
        let cache = EstimateCache::with_capacity(2);
        cache.insert(key("a"), estimate(1));
        cache.insert(key("b"), estimate(2));
        // Re-inserting a resident key at capacity must not push anything
        // out (the map does not grow).
        cache.insert(key("a"), estimate(1));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn racing_inserts_keep_the_first_design() {
        let cache = EstimateCache::new();
        let first = cache.insert(key("k"), estimate(7));
        let second = cache.insert(key("k"), estimate(9));
        assert_eq!(first.resources.clbs, 7);
        assert_eq!(second.resources.clbs, 7, "first insert wins the slot");
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = EstimateCache::new();
        let err: Result<_, &str> = cache.get_or_insert_with(key("k"), || Err("cyclic"));
        assert_eq!(err.unwrap_err(), "cyclic");
        assert!(cache.is_empty());
        // The key stays askable and a later success is cached.
        let ok = cache.get_or_insert_with::<&str>(key("k"), || Ok(estimate(3)));
        assert_eq!(ok.expect("estimates now").resources.clbs, 3);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn global_is_one_memo_per_type() {
        let a = EstimateCache::global();
        assert!(Arc::ptr_eq(a, EstimateCache::global()));
        let other = Memo::<CacheKey, u64>::global();
        assert!(!std::ptr::addr_eq(&**a, &**other), "one memo per type");
    }

    #[test]
    fn clear_keeps_counters() {
        let cache = EstimateCache::new();
        let _ = cache.get_or_insert_with::<()>(key("x"), || Ok(estimate(5)));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 1);
    }
}
