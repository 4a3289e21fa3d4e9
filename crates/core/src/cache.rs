//! Caching: the two-layer in-memory store, eviction policies, and the
//! chunk-result cache.
//!
//! §3 ("Generic Compression Algorithm"): *"we decided to use a hybrid
//! approach with two 'layers' of data-structures held in-memory:
//! uncompressed and compressed. Moving items between these layers or
//! finally evicting them entirely can be done, e.g., with the well-known
//! LRU cache eviction heuristic."*
//!
//! §5 ("Improved Cache Heuristics"): *"one-time scans of large files may
//! invalidate the entire cache [...] we have implemented a more
//! sophisticated cache eviction policy, replacing LRU. We chose an approach
//! similar to the adaptive-replacement-cache \[22\] and the 2Q algorithm
//! \[19\]."* — [`CachePolicy::TwoQ`] and [`CachePolicy::Arc`] implement those.
//!
//! §6: *"additionally to skipping over inactive chunks, we also cache
//! results for chunks which are fully active"* — [`ResultCache`].
//!
//! The payloads themselves always live in the owning [`crate::DataStore`];
//! the tiered cache tracks *residency* and returns the byte costs a real
//! deployment would pay (disk reads, decompressions), which feed the §6
//! accounting and Figure 5.

use pd_common::sync::Mutex;
use pd_common::FxHashMap;
use std::collections::VecDeque;
use std::sync::Arc;

/// Cache key: (column identity, chunk index).
pub type CacheKey = (Arc<str>, u32);

/// Eviction policy selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePolicy {
    /// Least-recently-used.
    Lru,
    /// Johnson & Shasha's 2Q (A1in / A1out / Am).
    TwoQ,
    /// Megiddo & Modha's adaptive replacement cache.
    #[default]
    Arc,
}

/// What a chunk access cost in modeled I/O.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessCost {
    /// Bytes read from (modeled) disk — compressed representation.
    pub disk_bytes: u64,
    /// Bytes produced by decompression (compressed → uncompressed layer).
    pub decompressed_bytes: u64,
}

impl AccessCost {
    pub fn hit(&self) -> bool {
        self.disk_bytes == 0 && self.decompressed_bytes == 0
    }
}

/// The two-layer residency model.
pub struct TieredCache {
    inner: Mutex<TieredInner>,
}

struct TieredInner {
    uncompressed: Layer,
    compressed: Layer,
}

impl TieredCache {
    /// Budgets are in bytes per layer.
    pub fn new(policy: CachePolicy, uncompressed_budget: usize, compressed_budget: usize) -> Self {
        TieredCache {
            inner: Mutex::new(TieredInner {
                uncompressed: Layer::new(policy, uncompressed_budget),
                compressed: Layer::new(policy, compressed_budget),
            }),
        }
    }

    /// Record an access to a chunk payload with the given layer sizes,
    /// returning what the access cost.
    pub fn touch(&self, key: &CacheKey, uncompressed: usize, compressed: usize) -> AccessCost {
        let mut inner = self.inner.lock();
        if inner.uncompressed.access(key) {
            return AccessCost::default();
        }
        let from_compressed = inner.compressed.access(key);
        let cost = if from_compressed {
            AccessCost { disk_bytes: 0, decompressed_bytes: uncompressed as u64 }
        } else {
            AccessCost { disk_bytes: compressed as u64, decompressed_bytes: uncompressed as u64 }
        };
        // Promote into the uncompressed layer; demoted entries fall to the
        // compressed layer, whose own victims vanish entirely.
        let demoted = inner.uncompressed.insert(key.clone(), uncompressed);
        for (k, _) in demoted {
            // Compressed size of a demoted sibling is approximated by the
            // ratio of the entry being inserted; exact sizes only shift the
            // simulation slightly and are tracked when that key is touched
            // again.
            let approx = compressed.max(1);
            inner.compressed.insert(k, approx);
        }
        cost
    }

    /// Drop everything (e.g. between experiment phases).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        let (up, ub) = (inner.uncompressed.policy, inner.uncompressed.budget);
        let (cp, cb) = (inner.compressed.policy, inner.compressed.budget);
        inner.uncompressed = Layer::new(up, ub);
        inner.compressed = Layer::new(cp, cb);
    }

    /// Bytes currently resident in (uncompressed, compressed) layers.
    pub fn resident_bytes(&self) -> (usize, usize) {
        let inner = self.inner.lock();
        (inner.uncompressed.used, inner.compressed.used)
    }
}

/// One policy-managed layer with a byte budget.
struct Layer {
    policy: CachePolicy,
    budget: usize,
    used: usize,
    sizes: FxHashMap<CacheKey, usize>,
    state: PolicyState,
}

enum PolicyState {
    Lru {
        order: OrderedKeys,
    },
    TwoQ {
        a1in: VecDeque<CacheKey>,
        a1out: VecDeque<CacheKey>,
        am: OrderedKeys,
        a1in_bytes: usize,
    },
    Arc {
        t1: OrderedKeys,
        t2: OrderedKeys,
        b1: OrderedKeys,
        b2: OrderedKeys,
        /// Target size of t1, in bytes.
        p: usize,
    },
}

impl Layer {
    fn new(policy: CachePolicy, budget: usize) -> Layer {
        let state = match policy {
            CachePolicy::Lru => PolicyState::Lru { order: OrderedKeys::default() },
            CachePolicy::TwoQ => PolicyState::TwoQ {
                a1in: VecDeque::new(),
                a1out: VecDeque::new(),
                am: OrderedKeys::default(),
                a1in_bytes: 0,
            },
            CachePolicy::Arc => PolicyState::Arc {
                t1: OrderedKeys::default(),
                t2: OrderedKeys::default(),
                b1: OrderedKeys::default(),
                b2: OrderedKeys::default(),
                p: 0,
            },
        };
        Layer { policy, budget, used: 0, sizes: FxHashMap::default(), state }
    }

    /// Is `key` resident? Updates recency structures on hit.
    fn access(&mut self, key: &CacheKey) -> bool {
        if !self.sizes.contains_key(key) {
            return false;
        }
        match &mut self.state {
            PolicyState::Lru { order } => order.move_to_back(key),
            PolicyState::TwoQ { a1in, am, .. } => {
                // A hit in A1in stays put (FIFO); a hit in Am refreshes.
                if !a1in.contains(key) {
                    am.move_to_back(key);
                }
            }
            PolicyState::Arc { t1, t2, .. } => {
                // Any resident hit promotes to the top of T2.
                if t1.remove(key) || t2.remove(key) {
                    t2.push_back(key.clone());
                }
            }
        }
        true
    }

    /// Insert `key` with `bytes`; returns the evicted entries.
    fn insert(&mut self, key: CacheKey, bytes: usize) -> Vec<(CacheKey, usize)> {
        if self.budget == 0 || bytes > self.budget {
            return Vec::new(); // Oversized entries are never cached.
        }
        if self.sizes.contains_key(&key) {
            self.access(&key);
            return Vec::new();
        }
        let mut evicted = Vec::new();
        // Make room.
        while self.used + bytes > self.budget {
            match self.victim(&key) {
                Some(v) => {
                    let sz = self.sizes.remove(&v).expect("victim is resident");
                    self.used -= sz;
                    evicted.push((v, sz));
                }
                None => return evicted,
            }
        }
        self.used += bytes;
        self.sizes.insert(key.clone(), bytes);
        match &mut self.state {
            PolicyState::Lru { order } => order.push_back(key),
            PolicyState::TwoQ { a1in, a1out, am, a1in_bytes } => {
                // Keys remembered in the ghost list go straight to Am.
                if let Some(pos) = a1out.iter().position(|k| k == &key) {
                    a1out.remove(pos);
                    am.push_back(key);
                } else {
                    *a1in_bytes += bytes;
                    a1in.push_back(key);
                }
            }
            PolicyState::Arc { t1, t2, b1, b2, p } => {
                // Ghost hits adapt p and insert into T2.
                if b1.remove(&key) {
                    *p = (*p + bytes).min(self.budget);
                    t2.push_back(key);
                } else if b2.remove(&key) {
                    *p = p.saturating_sub(bytes);
                    t2.push_back(key);
                } else {
                    t1.push_back(key);
                }
            }
        }
        evicted
    }

    /// Choose a victim according to the policy.
    fn victim(&mut self, incoming: &CacheKey) -> Option<CacheKey> {
        match &mut self.state {
            PolicyState::Lru { order } => order.pop_front(),
            PolicyState::TwoQ { a1in, a1out, am, a1in_bytes } => {
                // Evict from A1in while it exceeds ~25% of the budget;
                // remember victims in the ghost list.
                let kin = self.budget / 4;
                if *a1in_bytes > kin || am.is_empty() {
                    if let Some(k) = a1in.pop_front() {
                        *a1in_bytes -= self.sizes.get(&k).copied().unwrap_or(0);
                        a1out.push_back(k.clone());
                        while a1out.len() > 512 {
                            a1out.pop_front();
                        }
                        return Some(k);
                    }
                }
                am.pop_front().or_else(|| a1in.pop_front())
            }
            PolicyState::Arc { t1, t2, b1, b2, p } => {
                let t1_bytes: usize =
                    t1.keys().map(|k| self.sizes.get(k).copied().unwrap_or(0)).sum();
                let prefer_t1 =
                    t1_bytes > *p || (t1_bytes == *p && b2.contains(incoming)) || t2.is_empty();
                let (from, ghost) = if prefer_t1 && !t1.is_empty() { (t1, b1) } else { (t2, b2) };
                let victim = from.pop_front()?;
                ghost.push_back(victim.clone());
                while ghost.len() > 512 {
                    ghost.pop_front();
                }
                Some(victim)
            }
        }
    }
}

/// A queue with O(log n) arbitrary removal: (stamp ↔ key) maps.
#[derive(Default)]
struct OrderedKeys {
    by_stamp: std::collections::BTreeMap<u64, CacheKey>,
    stamps: FxHashMap<CacheKey, u64>,
    next: u64,
}

impl OrderedKeys {
    fn push_back(&mut self, key: CacheKey) {
        let stamp = self.next;
        self.next += 1;
        self.by_stamp.insert(stamp, key.clone());
        self.stamps.insert(key, stamp);
    }

    fn pop_front(&mut self) -> Option<CacheKey> {
        let (&stamp, _) = self.by_stamp.iter().next()?;
        let key = self.by_stamp.remove(&stamp).expect("present");
        self.stamps.remove(&key);
        Some(key)
    }

    fn move_to_back(&mut self, key: &CacheKey) {
        if self.remove(key) {
            self.push_back(key.clone());
        }
    }

    fn remove(&mut self, key: &CacheKey) -> bool {
        match self.stamps.remove(key) {
            Some(stamp) => {
                self.by_stamp.remove(&stamp);
                true
            }
            None => false,
        }
    }

    fn contains(&self, key: &CacheKey) -> bool {
        self.stamps.contains_key(key)
    }

    fn is_empty(&self) -> bool {
        self.stamps.is_empty()
    }

    fn len(&self) -> usize {
        self.stamps.len()
    }

    fn keys(&self) -> impl Iterator<Item = &CacheKey> {
        self.by_stamp.values()
    }
}

/// One cached group-by partial for a fully active chunk.
///
/// Keys are the **global-ids** of the group-by key columns (stable for the
/// lifetime of a store): the executor folds chunks in the id domain and
/// translates ids to [`pd_common::Value`]s only once per distinct result group, so a
/// cached chunk costs no dictionary lookups at all on a hit.
pub type ChunkGroups = Vec<(Box<[u32]>, Vec<crate::exec::AggState>)>;

/// A chunk's cached (or freshly computed) group-by contribution.
pub enum CachedChunk {
    /// Generic per-group aggregation states.
    Groups(ChunkGroups),
    /// The paper's fast path, kept in its raw form: a single plain group-by
    /// key and `COUNT(*)` only — counts indexed by **chunk-id**, no
    /// per-group allocation at all. The fold adds these straight into a
    /// global-id-indexed array via the chunk dictionary.
    DenseSingleCount(Vec<u64>),
}

impl CachedChunk {
    /// Approximate in-memory footprint, for cost-aware cache admission.
    pub fn approx_bytes(&self) -> usize {
        match self {
            CachedChunk::Groups(groups) => groups
                .iter()
                .map(|(key, states)| {
                    std::mem::size_of::<(Box<[u32]>, Vec<crate::exec::AggState>)>()
                        + key.len() * 4
                        + states.iter().map(|s| s.approx_bytes()).sum::<usize>()
                })
                .sum(),
            CachedChunk::DenseSingleCount(counts) => counts.len() * 8,
        }
    }
}

/// A thread-safe, capacity-bounded map with cost-aware admission and
/// hit/miss accounting — the shared bookkeeping behind the §6 chunk-result
/// cache and the distributed layer's shard/worker caches. Eviction only
/// ever drops entries, so a capacity bound can change *what is cached*,
/// never *what a query returns*.
///
/// Admission at capacity compares the incoming entry's cost (typically
/// bytes × measured recompute ns, see [`cost_score`]) with the cheapest
/// resident's: cheaper entries are rejected, costlier ones evict the
/// cheapest resident. Among equal costs the victim is the oldest entry, so
/// entries inserted at one cost (0, say) are evicted in FIFO order.
pub struct BoundedCache<K, V> {
    inner: Mutex<BoundedInner<K, V>>,
}

struct BoundedEntry<V> {
    value: V,
    cost: u64,
    stamp: u64,
}

struct BoundedInner<K, V> {
    entries: FxHashMap<K, BoundedEntry<V>>,
    /// Victim index ordered by (cost, stamp): cheapest first, FIFO among
    /// equal costs — O(log n) victim selection.
    by_score: std::collections::BTreeMap<(u64, u64), K>,
    next_stamp: u64,
    capacity: usize,
    hits: u64,
    misses: u64,
    rejected: u64,
}

impl<K: std::hash::Hash + Eq + Clone, V: Clone> BoundedCache<K, V> {
    /// Cache at most `capacity` entries.
    pub fn new(capacity: usize) -> BoundedCache<K, V> {
        BoundedCache {
            inner: Mutex::new(BoundedInner {
                entries: FxHashMap::default(),
                by_score: std::collections::BTreeMap::new(),
                next_stamp: 0,
                capacity: capacity.max(1),
                hits: 0,
                misses: 0,
                rejected: 0,
            }),
        }
    }

    pub fn get(&self, key: &K) -> Option<V> {
        self.get_borrowed(key)
    }

    /// [`BoundedCache::get`] keyed by any borrowed form of `K` (e.g.
    /// `&str` for `String` keys), so lookup paths need not allocate a
    /// throwaway owned key.
    pub fn get_borrowed<Q>(&self, key: &Q) -> Option<V>
    where
        K: std::borrow::Borrow<Q>,
        Q: std::hash::Hash + Eq + ?Sized,
    {
        let mut inner = self.inner.lock();
        match inner.entries.get(key).map(|e| e.value.clone()) {
            Some(hit) => {
                inner.hits += 1;
                Some(hit)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Insert with an admission cost: at capacity the incoming entry must
    /// cost at least as much as the cheapest resident, which it evicts.
    pub fn put_costed(&self, key: K, value: V, cost: u64) {
        let mut inner = self.inner.lock();
        if let Some((old_cost, stamp)) = inner.entries.get(&key).map(|e| (e.cost, e.stamp)) {
            // Same key: replace in place, keeping the insertion stamp.
            if old_cost != cost {
                inner.by_score.remove(&(old_cost, stamp));
                inner.by_score.insert((cost, stamp), key.clone());
            }
            let e = inner.entries.get_mut(&key).expect("entry is present");
            e.value = value;
            e.cost = cost;
            return;
        }
        while inner.entries.len() >= inner.capacity {
            let (&(vcost, vstamp), _) = inner.by_score.iter().next().expect("index matches map");
            if cost < vcost {
                inner.rejected += 1;
                return;
            }
            let victim = inner.by_score.remove(&(vcost, vstamp)).expect("victim is present");
            inner.entries.remove(&victim);
        }
        let stamp = inner.next_stamp;
        inner.next_stamp += 1;
        inner.by_score.insert((cost, stamp), key.clone());
        inner.entries.insert(key, BoundedEntry { value, cost, stamp });
    }

    /// Drop every entry (hit/miss counters keep accumulating).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.entries.clear();
        inner.by_score.clear();
    }

    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.hits, inner.misses)
    }

    /// Inserts refused because the incoming cost was below every
    /// resident's at capacity.
    pub fn rejected(&self) -> u64 {
        self.inner.lock().rejected
    }
}

/// The cost-aware admission score: approximate entry bytes × measured
/// recompute nanoseconds. Saturating; never 0 for a real (non-empty,
/// measured) entry, so such entries always outrank plain cost-0 inserts.
pub fn cost_score(bytes: usize, recompute: std::time::Duration) -> u64 {
    let ns = recompute.as_nanos().min(u64::MAX as u128) as u64;
    (bytes as u64).max(1).saturating_mul(ns.max(1))
}

/// The §6 chunk-result cache: results of fully-active chunks, keyed by
/// (query signature, chunk).
pub struct ResultCache {
    entries: BoundedCache<(String, u32), Arc<CachedChunk>>,
}

impl ResultCache {
    /// Cache at most `capacity` chunk results (cost-aware bound).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache { entries: BoundedCache::new(capacity) }
    }

    pub fn get(&self, signature: &str, chunk: u32) -> Option<Arc<CachedChunk>> {
        self.entries.get(&(signature.to_owned(), chunk))
    }

    /// Insert with cost-aware admission: the entry's score is its
    /// approximate bytes × the measured time to recompute it.
    pub fn put_costed(
        &self,
        signature: &str,
        chunk: u32,
        groups: Arc<CachedChunk>,
        recompute: std::time::Duration,
    ) {
        let cost = cost_score(groups.approx_bytes(), recompute);
        self.entries.put_costed((signature.to_owned(), chunk), groups, cost);
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        self.entries.stats()
    }

    /// Drop every cached chunk result (used when an in-place append makes
    /// resident chunk results stale without a process respawn).
    pub fn clear(&self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(name: &str, chunk: u32) -> CacheKey {
        (Arc::from(name), chunk)
    }

    #[test]
    fn first_touch_pays_disk_then_hits() {
        let cache = TieredCache::new(CachePolicy::Lru, 10_000, 10_000);
        let k = key("col", 0);
        let c1 = cache.touch(&k, 1000, 300);
        assert_eq!(c1, AccessCost { disk_bytes: 300, decompressed_bytes: 1000 });
        let c2 = cache.touch(&k, 1000, 300);
        assert!(c2.hit());
    }

    #[test]
    fn demotion_to_compressed_layer_skips_disk() {
        let cache = TieredCache::new(CachePolicy::Lru, 2_000, 100_000);
        let a = key("col", 0);
        cache.touch(&a, 1500, 200);
        // Fill the tiny uncompressed layer so `a` demotes.
        for i in 1..4 {
            cache.touch(&key("col", i), 1500, 200);
        }
        let back = cache.touch(&a, 1500, 200);
        assert_eq!(back.disk_bytes, 0, "demoted entry re-enters from the compressed layer");
        assert_eq!(back.decompressed_bytes, 1500);
    }

    #[test]
    fn lru_evicts_oldest() {
        let cache = TieredCache::new(CachePolicy::Lru, 3_000, 0);
        let (a, b, c, d) = (key("x", 0), key("x", 1), key("x", 2), key("x", 3));
        cache.touch(&a, 1000, 100);
        cache.touch(&b, 1000, 100);
        cache.touch(&c, 1000, 100);
        cache.touch(&a, 1000, 100); // refresh a
        cache.touch(&d, 1000, 100); // evicts b (oldest)
        assert!(cache.touch(&a, 1000, 100).hit());
        assert!(!cache.touch(&b, 1000, 100).hit());
    }

    #[test]
    fn two_q_and_arc_resist_repeated_scans() {
        // Hot set of 4 entries, a 100-entry scan, one hot-set re-touch
        // (ghost-aware policies re-admit into the protected region), a
        // second scan, then measure: LRU loses the hot set to the second
        // scan; 2Q and ARC keep it.
        let run = |policy: CachePolicy| -> usize {
            let cache = TieredCache::new(policy, 8_000, 0);
            let hot: Vec<CacheKey> = (0..4).map(|i| key("hot", i)).collect();
            for _ in 0..5 {
                for k in &hot {
                    cache.touch(k, 1000, 100);
                }
            }
            for i in 0..100 {
                cache.touch(&key("scan", i), 1000, 100);
            }
            for k in &hot {
                cache.touch(k, 1000, 100);
            }
            for i in 100..200 {
                cache.touch(&key("scan", i), 1000, 100);
            }
            hot.iter().filter(|k| cache.touch(k, 1000, 100).hit()).count()
        };
        let lru_hits = run(CachePolicy::Lru);
        let twoq_hits = run(CachePolicy::TwoQ);
        let arc_hits = run(CachePolicy::Arc);
        assert_eq!(lru_hits, 0, "LRU is flushed by the scan");
        assert!(twoq_hits > 0, "2Q keeps hot entries (got {twoq_hits})");
        assert!(arc_hits > 0, "ARC keeps hot entries (got {arc_hits})");
    }

    #[test]
    fn oversized_entries_bypass_cache() {
        let cache = TieredCache::new(CachePolicy::Arc, 100, 100);
        let k = key("big", 0);
        cache.touch(&k, 1000, 500);
        assert!(!cache.touch(&k, 1000, 500).hit(), "entry larger than budget never caches");
    }

    #[test]
    fn clear_resets_residency() {
        let cache = TieredCache::new(CachePolicy::Lru, 10_000, 10_000);
        let k = key("col", 0);
        cache.touch(&k, 1000, 100);
        assert!(cache.touch(&k, 1000, 100).hit());
        cache.clear();
        assert!(!cache.touch(&k, 1000, 100).hit());
        assert_eq!(cache.resident_bytes().0, 1000);
    }

    #[test]
    fn result_cache_round_trip_and_bound() {
        let rc = ResultCache::new(2);
        let groups: Arc<CachedChunk> = Arc::new(CachedChunk::Groups(vec![]));
        // Equal bytes and recompute time: equal costs, so FIFO eviction.
        let recompute = std::time::Duration::ZERO;
        rc.put_costed("sig", 0, groups.clone(), recompute);
        rc.put_costed("sig", 1, groups.clone(), recompute);
        assert!(rc.get("sig", 0).is_some());
        rc.put_costed("sig", 2, groups, recompute); // evicts chunk 0 (FIFO)
        assert!(rc.get("sig", 0).is_none());
        assert!(rc.get("sig", 2).is_some());
        let (hits, misses) = rc.stats();
        assert_eq!((hits, misses), (2, 1));
    }

    #[test]
    fn distinct_signatures_do_not_collide() {
        let rc = ResultCache::new(8);
        rc.put_costed("q1", 0, Arc::new(CachedChunk::Groups(vec![])), Default::default());
        assert!(rc.get("q2", 0).is_none());
    }

    #[test]
    fn bounded_cache_clear_invalidates_but_keeps_counters() {
        let cache: BoundedCache<u32, u32> = BoundedCache::new(4);
        cache.put_costed(1, 10, 0);
        assert_eq!(cache.get(&1), Some(10));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.get(&1), None);
        assert_eq!(cache.stats(), (1, 1), "counters accumulate across clears");
    }

    #[test]
    fn bounded_cache_put_is_idempotent_per_key() {
        let cache: BoundedCache<u32, u32> = BoundedCache::new(2);
        // Cost 0 throughout: equal costs, so eviction is FIFO.
        cache.put_costed(1, 10, 0);
        cache.put_costed(1, 11, 0); // replaces value, no duplicate FIFO slot
        cache.put_costed(2, 20, 0);
        cache.put_costed(3, 30, 0); // evicts key 1 only
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&1), None);
        assert_eq!(cache.get(&2), Some(20));
        assert_eq!(cache.get(&3), Some(30));
    }
}
