//! The engine's shared feasibility memo, on the same lock-striped map
//! ([`arrayeq_core::StripedMap`]) as the session's proof cache.

use arrayeq_core::StripedMap;
use arrayeq_omega::FeasibilityCache;
use std::sync::atomic::{AtomicU64, Ordering};

/// The cross-thread feasibility memo installed (via
/// [`arrayeq_omega::with_feasibility_cache`]) around every query, promoting
/// the per-thread memo of `omega` to session scope.
#[derive(Default)]
pub(crate) struct SharedFeasibilityMemo {
    map: StripedMap<u64, bool>,
    pub(crate) hits: AtomicU64,
    pub(crate) misses: AtomicU64,
}

impl SharedFeasibilityMemo {
    pub(crate) fn entries(&self) -> usize {
        self.map.len()
    }

    /// Seeds an entry loaded from a persistent proof store without touching
    /// the hit/miss counters.  Feasibility keys are content hashes of the
    /// relation being tested, so persisted entries mean the same thing in
    /// every process.
    pub(crate) fn seed(&self, key: u64, feasible: bool) {
        self.map.insert(key, feasible);
    }

    /// A point-in-time copy of the memo in key order, for persisting.
    pub(crate) fn snapshot_entries(&self) -> Vec<(u64, bool)> {
        self.map.snapshot()
    }
}

impl FeasibilityCache for SharedFeasibilityMemo {
    fn get(&self, key: u64) -> Option<bool> {
        let found = self.map.get(&key);
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    fn put(&self, key: u64, feasible: bool) {
        self.map.insert(key, feasible);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memo_counts_hits_and_misses() {
        let m = SharedFeasibilityMemo::default();
        assert_eq!(m.get(9), None);
        m.put(9, false);
        assert_eq!(m.get(9), Some(false));
        assert_eq!(m.hits.load(Ordering::Relaxed), 1);
        assert_eq!(m.misses.load(Ordering::Relaxed), 1);
    }
}
