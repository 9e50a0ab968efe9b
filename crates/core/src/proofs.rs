//! The proof cache: the one place the checker looks up and publishes
//! established sub-equivalences.
//!
//! The synchronized traversal of Section 5 stays tractable because a
//! correspondence it proved between two sub-ADDGs under given mappings is
//! reused, not proven again.  Each such fact is one [`ProofKey`], and one
//! [`ProofCache`] holds them all, whichever run, file or process produced
//! them.  Every entry carries a provenance: this query, another query of
//! the same session, a persistent proof store, or an incremental baseline.
//! The provenance only picks the counter and the trace mechanism a hit
//! reports; the fact behind the key is the same in every case.
//!
//! **Soundness contract.** An entry asserts that the traversal, run under
//! the same [`crate::CheckOptions`], establishes the sub-equivalence behind
//! its key.  The checker publishes only positive sub-proofs that leaned on
//! no in-flight coinductive recurrence assumption.  Stores and baselines
//! are written from caches fed only that way, and are refused when their
//! options fingerprint differs.  A hit therefore returns exactly the
//! verdict the traversal would re-derive, and failures, which are never
//! cached, always re-derive their diagnostics: rendered reports are
//! byte-identical whichever entries were present.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Key of one proven obligation: the content fingerprints of the two
/// traversal positions ([`arrayeq_addg::Fingerprints`]) and the structural
/// hashes of the two output-current mappings.  Every component is a stable
/// content hash, so the key means the same thing in every query, process
/// and program.
pub type ProofKey = (u64, u64, u64, u64);

/// Stripes of the [`StripedMap`].  Contention is bounded by the stripe
/// count rather than by one global lock.
const STRIPES: usize = 64;

/// Entry capacity of the [`StripedMap`], split evenly over its stripes.
const CAPACITY: usize = 1 << 20;

/// The proof cache's lock-striped map, shared by threads: 64 small
/// mutex-guarded hash maps, selected by a mix of the key's four words.
///
/// An entry, once in, keeps its origin: a second insert of the same key is
/// ignored.  Each stripe holds at most its share of 2^20 entries; when one
/// fills up it is cleared wholesale (epoch eviction, the policy of the
/// thread-local feasibility memo too), which is cheap, and an active
/// session's working set refills quickly.
struct StripedMap {
    stripes: Vec<Mutex<HashMap<ProofKey, Origin>>>,
    cap_per_stripe: usize,
}

// Stripe locks recover from poisoning: a thread unwinding while holding one
// (possible only between complete map operations, since entries are
// single-`insert` facts, never partially published) must not wedge or crash
// the surviving threads and later requests of a session.
fn lock(stripe: &Mutex<HashMap<ProofKey, Origin>>) -> MutexGuard<'_, HashMap<ProofKey, Origin>> {
    stripe.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Finalizing mix so consecutive or low-entropy keys spread over the
/// stripes.
fn spread(key: &ProofKey) -> u64 {
    let x = key.0 ^ key.1.rotate_left(17) ^ key.2.rotate_left(31) ^ key.3.rotate_left(47);
    let mut z = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z ^= z >> 32;
    z.wrapping_mul(0xd6e8_feb8_6659_fd93)
}

impl StripedMap {
    fn with_layout(stripes: usize, capacity: usize) -> Self {
        StripedMap {
            stripes: (0..stripes).map(|_| Mutex::new(HashMap::new())).collect(),
            cap_per_stripe: (capacity / stripes).max(16),
        }
    }

    fn stripe(&self, key: &ProofKey) -> MutexGuard<'_, HashMap<ProofKey, Origin>> {
        let i = spread(key) as usize % self.stripes.len();
        lock(&self.stripes[i])
    }

    /// The origin held for `key`.
    fn get(&self, key: &ProofKey) -> Option<Origin> {
        self.stripe(key).get(key).copied()
    }

    /// Inserts `key` unless it is already present, evicting its stripe
    /// first when the stripe is full.
    fn insert(&self, key: ProofKey, origin: Origin) {
        let mut stripe = self.stripe(&key);
        if stripe.contains_key(&key) {
            return;
        }
        if stripe.len() >= self.cap_per_stripe {
            stripe.clear();
        }
        stripe.insert(key, origin);
    }

    /// Entries currently held.
    fn len(&self) -> usize {
        self.stripes.iter().map(|s| lock(s).len()).sum()
    }

    /// Every key held, in key order (deterministic whatever the stripe
    /// layout or insertion interleaving).  The stripes are walked one lock
    /// at a time, so concurrent writers are never blocked globally and the
    /// copy is consistent per stripe.  That is enough for entries that are
    /// facts and never change.
    fn keys(&self) -> Vec<ProofKey> {
        let mut all = Vec::new();
        for stripe in &self.stripes {
            all.extend(lock(stripe).keys().copied());
        }
        all.sort_unstable();
        all
    }
}

impl Default for StripedMap {
    fn default() -> Self {
        Self::with_layout(STRIPES, CAPACITY)
    }
}

/// Where a proof-cache hit came from, relative to the query that asked.
/// Each provenance names the discharge mechanism a hit reports in traces
/// ([`Provenance::mechanism`]) and picks the [`crate::CheckStats`] counter
/// it is booked under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Provenance {
    /// Established earlier by the asking query itself.
    Query,
    /// Established by another query of the same session.
    Session,
    /// Loaded from a persistent proof store.
    Store,
    /// Carried over by an incremental baseline.
    Baseline,
}

impl Provenance {
    /// The discharge mechanism a hit of this provenance reports in traces
    /// and in the `--explain` proof tree.
    pub(crate) fn mechanism(self) -> &'static str {
        match self {
            Provenance::Query => "local_table",
            Provenance::Session => "shared_table",
            Provenance::Store => "store",
            Provenance::Baseline => "baseline",
        }
    }
}

/// Where an entry came from, as stored: queries are told apart by id, so
/// a lookup can tell its own proofs from those of other queries.
#[derive(Debug, Clone, Copy)]
enum Origin {
    Query(u64),
    Store,
    Baseline,
}

/// Every proven obligation one run or session knows of, keyed by
/// [`ProofKey`] and tagged with its provenance (see the module docs for the
/// soundness contract).
///
/// [`crate::check`] takes one through [`crate::CheckContext::proofs`]; a
/// long-lived engine keeps one per session, seeded from its proof store
/// and from every baseline it applies, and writes baselines and stores
/// back from [`ProofCache::entries`].  Without one, `check` makes a
/// cache for the run, which its workers share.
#[derive(Default)]
pub struct ProofCache {
    map: StripedMap,
    queries: AtomicU64,
}

impl ProofCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Seeds entries loaded from a persistent proof store.  A key already
    /// present keeps its first provenance.
    pub fn seed_store(&self, keys: impl IntoIterator<Item = ProofKey>) {
        for key in keys {
            self.map.insert(key, Origin::Store);
        }
    }

    /// Seeds the entries of an applied incremental baseline.  A key
    /// already present keeps its first provenance.
    pub fn seed_baseline(&self, keys: impl IntoIterator<Item = ProofKey>) {
        for key in keys {
            self.map.insert(key, Origin::Baseline);
        }
    }

    /// Every key held, whatever its provenance, in key order: what a
    /// baseline or a proof-store flush writes.
    pub fn entries(&self) -> Vec<ProofKey> {
        self.map.keys()
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Opens one query's view of the cache: its hits report their
    /// provenance relative to this query, and its publishes are its own.
    pub(crate) fn begin_query(&self) -> QueryProofs<'_> {
        QueryProofs {
            cache: self,
            query: self.queries.fetch_add(1, Ordering::Relaxed),
        }
    }
}

/// One query's view of a [`ProofCache`], shared by all workers of the run.
#[derive(Clone, Copy)]
pub(crate) struct QueryProofs<'c> {
    cache: &'c ProofCache,
    query: u64,
}

impl QueryProofs<'_> {
    /// Whether `key` is proven, and if so where the proof came from.
    pub(crate) fn get(&self, key: &ProofKey) -> Option<Provenance> {
        self.cache.map.get(key).map(|origin| match origin {
            Origin::Query(q) if q == self.query => Provenance::Query,
            Origin::Query(_) => Provenance::Session,
            Origin::Store => Provenance::Store,
            Origin::Baseline => Provenance::Baseline,
        })
    }

    /// Publishes a proof this query established.  The caller guarantees
    /// the soundness contract: positive and assumption-free.
    pub(crate) fn publish(&self, key: ProofKey) {
        self.cache.map.insert(key, Origin::Query(self.query));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_provenance_is_reported_for_its_own_case() {
        let cache = ProofCache::new();
        let (own, other, stored, carried) =
            ((1, 0, 0, 0), (2, 0, 0, 0), (3, 0, 0, 0), (4, 0, 0, 0));
        cache.seed_store([stored]);
        cache.seed_baseline([carried]);
        let earlier = cache.begin_query();
        earlier.publish(other);
        let query = cache.begin_query();
        assert_eq!(query.get(&own), None);
        query.publish(own);
        assert_eq!(query.get(&own), Some(Provenance::Query));
        assert_eq!(query.get(&other), Some(Provenance::Session));
        assert_eq!(query.get(&stored), Some(Provenance::Store));
        assert_eq!(query.get(&carried), Some(Provenance::Baseline));
        assert_eq!(earlier.get(&own), Some(Provenance::Session));
        assert_eq!(earlier.get(&other), Some(Provenance::Query));
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn reseeding_a_present_key_keeps_its_first_provenance() {
        let cache = ProofCache::new();
        let (stored, published) = ((1, 2, 3, 4), (5, 6, 7, 8));
        cache.seed_store([stored]);
        cache.seed_baseline([stored]);
        let query = cache.begin_query();
        query.publish(published);
        cache.seed_baseline([published]);
        cache.seed_store([published]);
        query.publish(stored);
        assert_eq!(query.get(&stored), Some(Provenance::Store));
        assert_eq!(query.get(&published), Some(Provenance::Query));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn entries_come_back_in_key_order() {
        let cache = ProofCache::new();
        let keys = [
            (9, 0, 0, 0),
            (1, 5, 0, 0),
            (1, 2, 3, 4),
            (u64::MAX, 0, 0, 1),
        ];
        cache.seed_store([keys[0]]);
        cache.seed_baseline([keys[1]]);
        let query = cache.begin_query();
        query.publish(keys[2]);
        query.publish(keys[3]);
        let mut sorted = keys.to_vec();
        sorted.sort();
        assert_eq!(cache.entries(), sorted);
    }

    #[test]
    fn shard_capacity_evicts_by_epoch_instead_of_growing() {
        let map = StripedMap::with_layout(1, 16);
        for i in 0..200u64 {
            map.insert((i, 0, 0, 0), Origin::Store);
        }
        assert!(map.len() <= 16, "bounded: {}", map.len());
    }
}
