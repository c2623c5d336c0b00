//! The bounded plan cache: planning work done once per (plan, epoch).
//!
//! A cache entry is what the plan stage produces
//! ([`pathalg_engine::runner::Planner::plan`]) — the optimized plan, the
//! rewrite trace and the closure estimates the admission gate checks — so a
//! warm request goes straight from cache lookup to execution. The key is the
//! *normalised* plan fingerprint
//! ([`pathalg_parser::normalize::plan_cache_key`]) paired with the service's
//! epoch, and the epoch itself lives here, under the cache's own mutex:
//! `PlanCache::retain_epoch` advances it and drops every older entry, and
//! an insert planned under an older epoch is dropped, so no stale entry can
//! come back after a bump.
//!
//! Eviction is least-recently-used over a monotonic touch tick. The scan to
//! find the LRU victim is `O(capacity)`, which is deliberate: service plan
//! caches are small (hundreds of entries), and the simplicity keeps the
//! whole cache a plain `Mutex`-guarded map with no unsafe, no intrusive
//! lists, and no dependency.

use pathalg_engine::runner::PlannedQuery;
use pathalg_parser::normalize::PlanKey;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// Everything planning produced for one (normalised plan, epoch): the unit
/// the plan cache stores and the execution phase consumes.
pub(crate) type CachedPlan = PlannedQuery;

/// The plan cache's key: normalised-plan fingerprint × epoch.
pub(crate) type CacheKey = (PlanKey, u64);

/// A minimal bounded LRU map. Used for the plan cache and, separately, for
/// the query-text alias cache (text → checked plan + key) that lets repeat
/// identical request strings skip the parser too.
#[derive(Debug)]
pub(crate) struct Lru<K, V> {
    capacity: usize,
    tick: u64,
    map: HashMap<K, (V, u64)>,
}

impl<K: Eq + Hash + Clone, V: Clone> Lru<K, V> {
    /// An empty cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            tick: 0,
            map: HashMap::new(),
        }
    }

    /// Looks up and touches an entry.
    pub fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(v, used)| {
            *used = tick;
            v.clone()
        })
    }

    /// Inserts an entry, evicting the least recently used one at capacity.
    pub fn insert(&mut self, key: K, value: V) {
        self.tick += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&victim);
            }
        }
        self.map.insert(key, (value, self.tick));
    }

    /// Keeps only entries the predicate accepts.
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) {
        self.map.retain(|k, _| keep(k));
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }
}

/// The service's plan cache: a bounded LRU from [`CacheKey`] to shared
/// planning results, and the current epoch.
#[derive(Debug)]
pub(crate) struct PlanCache {
    entries: Lru<CacheKey, Arc<CachedPlan>>,
    epoch: u64,
}

impl PlanCache {
    /// An empty cache bounded to `capacity` plans, at epoch 0.
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: Lru::new(capacity),
            epoch: 0,
        }
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Looks up and touches the entry of `key`.
    pub fn get(&mut self, key: &CacheKey) -> Option<Arc<CachedPlan>> {
        self.entries.get(key)
    }

    /// Inserts a freshly planned entry. An entry planned under an older
    /// epoch is dropped: a request that raced a bump cannot put a stale
    /// entry back.
    pub fn insert(&mut self, key: CacheKey, plan: Arc<CachedPlan>) {
        if key.1 == self.epoch {
            self.entries.insert(key, plan);
        }
    }

    /// Makes `epoch` the current epoch and drops every entry of another
    /// one — called on epoch bumps so stale plans can never be served again.
    pub(crate) fn retain_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.entries.retain(|(_, e)| *e == epoch);
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let mut lru: Lru<u32, u32> = Lru::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        assert_eq!(lru.get(&1), Some(10)); // touch 1 → 2 is now LRU
        lru.insert(3, 30);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(&2), None, "the LRU entry was evicted");
        assert_eq!(lru.get(&1), Some(10));
        assert_eq!(lru.get(&3), Some(30));
        // Re-inserting an existing key is an update, not an eviction.
        lru.insert(3, 31);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(&3), Some(31));
    }

    #[test]
    fn retain_drops_rejected_keys() {
        let mut lru: Lru<u32, u32> = Lru::new(8);
        for k in 0..6 {
            lru.insert(k, k);
        }
        lru.retain(|k| k % 2 == 0);
        assert_eq!(lru.len(), 3);
        assert!(lru.get(&1).is_none());
        assert!(lru.get(&2).is_some());
    }

    #[test]
    fn an_insert_from_an_older_epoch_is_dropped() {
        use pathalg_core::expr::PlanExpr;
        use pathalg_core::ops::recursive::RecursionConfig;
        use pathalg_parser::normalize::plan_cache_key;
        let plan = PlanExpr::edges();
        let key = plan_cache_key(&plan, &RecursionConfig::default());
        let entry = Arc::new(CachedPlan {
            plan,
            rewrites: Vec::new(),
            closures: Vec::new(),
        });
        let mut cache = PlanCache::new(4);
        cache.retain_epoch(1);
        cache.insert((key.clone(), 0), entry.clone());
        assert_eq!(cache.len(), 0, "a plan from before the bump stays out");
        cache.insert((key, 1), entry);
        assert_eq!(cache.len(), 1);
    }
}
