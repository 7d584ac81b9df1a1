//! The universe cache: LRU over `(n, max_len, max_gap)` under a byte
//! budget.
//!
//! [`TileUniverse`] construction is the expensive, spec-independent part
//! of a solve — enumerating every DRC-routable tile and precomputing the
//! chord tables the kernels branch on. Jobs in a batch overwhelmingly
//! repeat a few ring shapes, so the service deduplicates construction
//! behind this cache: entries are shared out as [`Arc`]s (a solve keeps
//! its universe alive even if the cache evicts it mid-flight), charged at
//! [`TileUniverse::approx_bytes`], and evicted least-recently-used when
//! the resident total exceeds the configured budget.

use cyclecover_ring::Ring;
use cyclecover_solver::TileUniverse;
use std::sync::Arc;

/// The cache key: ring size, maximum tile length, maximum vertex gap —
/// exactly the parameters of
/// [`TileUniverse::with_max_gap`], and nothing
/// else: the demand spec deliberately does not participate, so distinct
/// specs over one ring shape share one enumeration.
pub type UniverseKey = (u32, u32, u32);

/// Cumulative cache counters (monotone except `bytes`, the resident
/// total).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a resident entry.
    pub hits: u64,
    /// Lookups that had to build a universe.
    pub misses: u64,
    /// Entries dropped to respect the byte budget.
    pub evictions: u64,
    /// Bytes currently resident.
    pub bytes: usize,
    /// High-water mark of `bytes` (sampled after each insertion, before
    /// eviction brings the total back under budget).
    pub peak_bytes: usize,
}

impl CacheStats {
    /// Hits over lookups, 0.0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    key: UniverseKey,
    universe: Arc<TileUniverse>,
    bytes: usize,
    last_used: u64,
}

/// An LRU cache of [`TileUniverse`]s under a byte budget. Not
/// thread-safe by itself — the service wraps it in a `Mutex`, which also
/// guarantees a universe is never built twice concurrently.
pub struct UniverseCache {
    budget: usize,
    tick: u64,
    entries: Vec<Entry>,
    stats: CacheStats,
}

impl UniverseCache {
    /// A cache that keeps at most `budget_bytes` of universes resident.
    /// A budget of 0 disables retention (every lookup builds).
    pub fn new(budget_bytes: usize) -> Self {
        UniverseCache {
            budget: budget_bytes,
            tick: 0,
            entries: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Whether `key` is resident right now (no LRU touch, no counter
    /// bump) — lets the service decide, under the cache lock, whether a
    /// lookup would construct (the fault-injection probe point).
    pub fn contains(&self, key: UniverseKey) -> bool {
        self.entries.iter().any(|e| e.key == key)
    }

    /// Returns the universe for `key`, building (and charging) it on a
    /// miss. The boolean is `true` on a hit. The returned [`Arc`] is the
    /// caller's to keep: eviction only drops the cache's reference.
    pub fn get_or_build(&mut self, key: UniverseKey) -> (Arc<TileUniverse>, bool) {
        self.tick += 1;
        if let Some(e) = self.entries.iter_mut().find(|e| e.key == key) {
            e.last_used = self.tick;
            self.stats.hits += 1;
            return (e.universe.clone(), true);
        }
        let (n, max_len, max_gap) = key;
        let universe = Arc::new(TileUniverse::with_max_gap(
            Ring::new(n),
            max_len as usize,
            max_gap,
        ));
        let bytes = universe.approx_bytes();
        self.stats.misses += 1;
        self.stats.bytes += bytes;
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.stats.bytes);
        self.entries.push(Entry {
            key,
            universe: universe.clone(),
            bytes,
            last_used: self.tick,
        });
        // Evict LRU-first until back under budget. The fresh entry has
        // the newest stamp, so it goes last — and does go, if it alone
        // exceeds the budget (the caller's Arc keeps it alive regardless).
        while self.stats.bytes > self.budget && !self.entries.is_empty() {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("non-empty");
            let evicted = self.entries.swap_remove(lru);
            self.stats.bytes -= evicted.bytes;
            self.stats.evictions += 1;
        }
        (universe, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key_bytes(key: UniverseKey) -> usize {
        TileUniverse::with_max_gap(Ring::new(key.0), key.1 as usize, key.2).approx_bytes()
    }

    #[test]
    fn hit_returns_the_same_allocation() {
        let mut cache = UniverseCache::new(usize::MAX);
        let (a, hit_a) = cache.get_or_build((8, 8, 8));
        let (b, hit_b) = cache.get_or_build((8, 8, 8));
        assert!(!hit_a && hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_are_distinct_universes() {
        let mut cache = UniverseCache::new(usize::MAX);
        let (full, _) = cache.get_or_build((8, 8, 8));
        let (short, _) = cache.get_or_build((8, 4, 8));
        let (gapped, _) = cache.get_or_build((8, 8, 2));
        assert!(!Arc::ptr_eq(&full, &short));
        assert!(short.len() < full.len());
        assert!(gapped.len() < full.len());
        assert_eq!(cache.stats().misses, 3);
        assert_eq!(cache.stats().bytes, cache.stats().peak_bytes);
    }

    #[test]
    fn eviction_is_lru_under_the_byte_budget() {
        // Budget sized to hold the two smaller universes but not three.
        let small = key_bytes((6, 6, 6));
        let mid = key_bytes((7, 7, 7));
        let big = key_bytes((8, 8, 8));
        let mut cache = UniverseCache::new(mid + big + small / 2);
        cache.get_or_build((6, 6, 6));
        cache.get_or_build((7, 7, 7));
        // Touch n=6 so n=7 becomes the LRU.
        cache.get_or_build((6, 6, 6));
        cache.get_or_build((8, 8, 8));
        assert_eq!(cache.stats().evictions, 1);
        let keys: Vec<UniverseKey> = cache.entries.iter().map(|e| e.key).collect();
        assert!(
            keys.contains(&(6, 6, 6)),
            "recently-used entry evicted: {keys:?}"
        );
        assert!(keys.contains(&(8, 8, 8)), "fresh entry evicted: {keys:?}");
        assert!(!keys.contains(&(7, 7, 7)), "LRU entry survived: {keys:?}");
        assert!(cache.stats().bytes <= cache.budget());
        // Rebuilding the evicted key is a miss again.
        let (_, hit) = cache.get_or_build((7, 7, 7));
        assert!(!hit);
    }

    #[test]
    fn zero_budget_retains_nothing_but_still_serves() {
        let mut cache = UniverseCache::new(0);
        let (u, hit) = cache.get_or_build((6, 6, 6));
        assert!(!hit);
        assert_eq!(u.ring().n(), 6);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().bytes, 0);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.stats().peak_bytes > 0);
        let (_, hit) = cache.get_or_build((6, 6, 6));
        assert!(!hit, "nothing resident to hit");
    }
}
