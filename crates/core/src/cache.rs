//! Delay-profile memoization.
//!
//! Profiling is the expensive half of every experiment: one timed
//! simulation per operand pair. Several flows re-profile the *same*
//! workload under the *same* delay assignment — period sweeps restarted
//! with different engine configs, calibration probes, and fault campaigns
//! whose delay faults share a baseline — so [`ProfileCache`] memoizes
//! finished [`PatternProfile`]s behind a key that is exact by construction:
//!
//! * the multiplier **kind** and **width** (circuit generation is
//!   deterministic, so these pin the netlist),
//! * the [`DelayAssignment::fingerprint`] — the *delay epoch*: any aging
//!   step, calibration rescale, or per-gate inflation changes it,
//! * a fingerprint of the ordered operand pairs (profiles are two-vector
//!   measurements, so order matters and is part of the key).
//!
//! Equal keys therefore mean equal profiles (up to 64-bit fingerprint
//! collision), and a hit returns the cached [`Arc`] without touching a
//! simulator. The key is a public [`ProfileKey`]: a caller that repeats a
//! question can build it once and look up with
//! [`ProfileCache::get_or_insert_keyed`], skipping the fingerprinting that
//! otherwise dominates a hit.
//!
//! # Sharding, bounding, and poison recovery
//!
//! The cache is built for a *resident* process (`agemul-serve`), not just
//! one-shot experiment runs, which imposes three requirements a single
//! unbounded `Mutex<HashMap>` cannot meet:
//!
//! * **sharding** — entries live in [`SHARD_COUNT`] independently locked
//!   shards selected by hashing (kind, width), so concurrent requests for
//!   different designs never contend on one global lock (and a campaign's
//!   per-fault inserts only serialize against their own design's shard);
//! * **bounding** — [`ProfileCache::with_capacity`] arms a per-shard LRU
//!   bound: once a shard is full, inserting a fresh key evicts the
//!   least-recently-*used* entry (hits refresh recency), so a long-lived
//!   server's memory is `SHARD_COUNT × capacity` profiles at worst;
//! * **poison recovery** — every lock acquisition recovers from a poisoned
//!   mutex via [`std::sync::PoisonError::into_inner`]. A worker thread
//!   that panics while holding a shard lock leaves the shard's map fully
//!   consistent (all map mutations are single calls that either happen or
//!   don't), so propagating the poison would turn one quarantined request
//!   into a permanent denial of service for every later request that
//!   hashes to the shard.
//!
//! [`ProfileCache::new`] keeps the historical unbounded behaviour, so the
//! experiment flows (and the `cache_keys` / hit≡miss coherence suites that
//! pin them) are unchanged.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use agemul_circuits::MultiplierKind;
use agemul_netlist::DelayAssignment;

use crate::{MultiplierDesign, PatternProfile};

/// Reciprocal of the aging-factor quantization step: factors are snapped to
/// a `1/4096` grid (≈ 2.4e-4 relative delay resolution — far below any
/// observable timing difference at femtosecond rounding) before a delay
/// assignment is built from them.
///
/// Both the cache key and the sweep's identical-year check
/// ([`AgingSweep`](crate::AgingSweep)) operate on *quantized* factors, so
/// the two agree by construction: a ΔVth step too small to move any factor
/// across a grid line is a cache hit *and* an identical year.
pub const AGING_FACTOR_GRID: f64 = 4096.0;

/// Number of independently locked shards in a [`ProfileCache`].
///
/// Shard selection hashes (kind, width), so every profile of one design
/// lands in one shard and designs spread across the others. 16 shards
/// cover the workspace's design population (5 kinds × a handful of
/// widths) with low collision while keeping an empty cache small.
pub const SHARD_COUNT: usize = 16;

/// Snaps one aging factor onto the shared quantization grid.
#[inline]
pub fn quantize_factor(f: f64) -> f64 {
    (f * AGING_FACTOR_GRID).round() / AGING_FACTOR_GRID
}

/// Snaps a per-gate aging-factor vector onto the shared quantization grid.
pub fn quantize_factors(factors: &[f64]) -> Vec<f64> {
    factors.iter().map(|&f| quantize_factor(f)).collect()
}

/// FNV-1a over a `u64` stream — both the workload fingerprint and the
/// shard-selection hash use it (tiny, deterministic, dependency-free).
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for word in words {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// FNV-1a over the ordered operand pairs; the workload half of a cache key.
fn workload_fingerprint(pairs: &[(u64, u64)]) -> u64 {
    fnv1a(std::iter::once(pairs.len() as u64).chain(pairs.iter().flat_map(|&(a, b)| [a, b])))
}

/// Stable per-kind tag for shard selection (independent of discriminant
/// layout, so the shard map never silently moves across refactors).
fn kind_tag(kind: MultiplierKind) -> u64 {
    match kind {
        MultiplierKind::Array => 1,
        MultiplierKind::ColumnBypass => 2,
        MultiplierKind::RowBypass => 3,
        MultiplierKind::Wallace => 4,
        MultiplierKind::Booth => 5,
    }
}

/// The exact identity of one cached profile: (kind, width, delay-assignment
/// fingerprint, workload fingerprint).
///
/// Building a key hashes the whole per-gate delay vector and every operand
/// pair, which costs more than the lookup it feeds. A caller that asks the
/// same question repeatedly (the `agemul-serve` hit path) builds the key
/// once and looks up with [`ProfileCache::get_or_insert_keyed`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ProfileKey {
    kind: MultiplierKind,
    width: usize,
    delay_fingerprint: u64,
    workload_fingerprint: u64,
}

impl ProfileKey {
    /// The key of `design`'s profile of `pairs` under `delays`.
    pub fn new(design: &MultiplierDesign, delays: &DelayAssignment, pairs: &[(u64, u64)]) -> Self {
        ProfileKey {
            kind: design.kind(),
            width: design.width(),
            delay_fingerprint: delays.fingerprint(),
            workload_fingerprint: workload_fingerprint(pairs),
        }
    }
}

/// Lock-free tallies for one shard (the shard mutex is *not* held while
/// a miss simulates, so the counters must be independently atomic).
#[derive(Default)]
struct ShardCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// A point-in-time statistics snapshot of one cache shard — the unit of
/// the `agemul-serve` `stats` op's per-shard breakdown. Shard residency is
/// keyed by (kind, width), so a hot shard identifies a hot *design*, and
/// an eviction-heavy shard identifies a design population outgrowing its
/// per-shard bound.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index in `0..`[`SHARD_COUNT`].
    pub index: usize,
    /// Profiles currently resident in the shard.
    pub entries: usize,
    /// Lookups answered from this shard.
    pub hits: u64,
    /// Lookups that had to build a profile keyed into this shard.
    pub misses: u64,
    /// Entries evicted from this shard by the LRU bound.
    pub evictions: u64,
}

/// One cached profile plus its LRU stamp (larger = more recently used).
struct Entry {
    profile: Arc<PatternProfile>,
    stamp: u64,
}

/// One shard: a map plus the shard-local LRU clock.
#[derive(Default)]
struct Shard {
    map: HashMap<ProfileKey, Entry>,
    clock: u64,
}

impl Shard {
    /// Advances the clock and returns the new stamp.
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }
}

/// One exported cache entry — the unit of the on-disk warm-start snapshot
/// (see [`ProfileCache::entries`] / [`ProfileCache::seed_entry`]).
#[derive(Clone)]
pub struct CacheEntry {
    /// Multiplier architecture of the cached profile.
    pub kind: MultiplierKind,
    /// Operand width in bits.
    pub width: usize,
    /// [`DelayAssignment::fingerprint`] the profile was simulated under.
    pub delay_fingerprint: u64,
    /// Fingerprint of the ordered operand pairs.
    pub workload_fingerprint: u64,
    /// The cached profile.
    pub profile: Arc<PatternProfile>,
}

/// A memoization cache for timing profiles, keyed by (kind, width,
/// delay-assignment fingerprint, workload fingerprint) and sharded by
/// (kind, width). See the module docs for the sharding, bounding, and
/// poison-recovery model.
///
/// # Example
///
/// ```no_run
/// use agemul::{MultiplierDesign, PatternSet, ProfileCache};
/// use agemul_circuits::MultiplierKind;
///
/// let design = MultiplierDesign::new(MultiplierKind::ColumnBypass, 16)?;
/// let patterns = PatternSet::uniform(16, 4_096, 7);
/// let cache = ProfileCache::new();
///
/// let first = cache.profile(&design, patterns.pairs(), None)?; // simulates
/// let again = cache.profile(&design, patterns.pairs(), None)?; // cache hit
/// assert!(std::sync::Arc::ptr_eq(&first, &again));
/// assert_eq!(cache.hits(), 1);
/// # Ok::<(), agemul::CoreError>(())
/// ```
#[derive(Default)]
pub struct ProfileCache {
    shards: [Mutex<Shard>; SHARD_COUNT],
    /// Per-shard entry bound; 0 = unbounded.
    capacity: usize,
    counters: [ShardCounters; SHARD_COUNT],
}

impl std::fmt::Debug for ProfileCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfileCache")
            .field("len", &self.len())
            .field("shard_capacity", &self.shard_capacity())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("evictions", &self.evictions())
            .finish()
    }
}

impl ProfileCache {
    /// An empty, *unbounded* cache — the historical behaviour, right for
    /// bounded-lifetime experiment runs.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache holding at most `per_shard` profiles in each of its
    /// [`SHARD_COUNT`] shards; a full shard evicts its least-recently-used
    /// entry on insert. The configuration for resident processes.
    ///
    /// # Panics
    ///
    /// Panics if `per_shard` is zero (a cache that can hold nothing cannot
    /// honour the hit≡miss coherence contract).
    pub fn with_capacity(per_shard: usize) -> Self {
        assert!(per_shard > 0, "per-shard capacity must be at least 1");
        ProfileCache {
            capacity: per_shard,
            ..Self::default()
        }
    }

    /// The per-shard entry bound, if this cache is bounded.
    #[inline]
    pub fn shard_capacity(&self) -> Option<usize> {
        (self.capacity > 0).then_some(self.capacity)
    }

    /// Number of lookups answered from the cache (all shards).
    #[inline]
    pub fn hits(&self) -> u64 {
        self.counters
            .iter()
            .map(|c| c.hits.load(Ordering::Relaxed))
            .sum()
    }

    /// Number of lookups that had to build a profile (all shards).
    #[inline]
    pub fn misses(&self) -> u64 {
        self.counters
            .iter()
            .map(|c| c.misses.load(Ordering::Relaxed))
            .sum()
    }

    /// Number of entries evicted by the per-shard LRU bound (all shards).
    #[inline]
    pub fn evictions(&self) -> u64 {
        self.counters
            .iter()
            .map(|c| c.evictions.load(Ordering::Relaxed))
            .sum()
    }

    /// Per-shard statistics snapshot, indexed `0..`[`SHARD_COUNT`].
    ///
    /// Counters and entry counts are read per shard without a global
    /// freeze, so concurrent traffic can make the rows mutually slightly
    /// stale — fine for the monitoring they exist for.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        (0..SHARD_COUNT)
            .map(|index| ShardStats {
                index,
                entries: self.lock_shard(index).map.len(),
                hits: self.counters[index].hits.load(Ordering::Relaxed),
                misses: self.counters[index].misses.load(Ordering::Relaxed),
                evictions: self.counters[index].evictions.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Locks one shard, recovering from poison: a panic while the lock was
    /// held cannot corrupt the map (every mutation is a single `HashMap`
    /// call), so the data is trusted and the shard stays serviceable.
    fn lock_shard(&self, index: usize) -> MutexGuard<'_, Shard> {
        self.shards[index]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The shard every profile of (`kind`, `width`) lives in.
    fn shard_index(kind: MultiplierKind, width: usize) -> usize {
        (fnv1a([kind_tag(kind), width as u64]) % SHARD_COUNT as u64) as usize
    }

    /// Number of cached profiles across all shards.
    pub fn len(&self) -> usize {
        (0..SHARD_COUNT).map(|i| self.lock_shard(i).map.len()).sum()
    }

    /// Whether the cache holds no profiles.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached profile (counters are kept).
    pub fn clear(&self) {
        for i in 0..SHARD_COUNT {
            self.lock_shard(i).map.clear();
        }
    }

    /// Exports every cached entry (key parts + profile `Arc`), shard by
    /// shard — the producer side of a warm-start snapshot. Recency order
    /// is not preserved; a reloaded cache starts with a fresh LRU clock.
    pub fn entries(&self) -> Vec<CacheEntry> {
        let mut out = Vec::new();
        for i in 0..SHARD_COUNT {
            let shard = self.lock_shard(i);
            out.extend(shard.map.iter().map(|(k, e)| CacheEntry {
                kind: k.kind,
                width: k.width,
                delay_fingerprint: k.delay_fingerprint,
                workload_fingerprint: k.workload_fingerprint,
                profile: Arc::clone(&e.profile),
            }));
        }
        out
    }

    /// Inserts a profile under externally recorded key parts — the
    /// consumer side of a warm-start snapshot.
    ///
    /// The caller promises the entry was produced by this workspace's
    /// profiling path for exactly that key (snapshot loaders get this for
    /// free: the fingerprints were recorded next to the profile). Neither
    /// the hit/miss counters nor eviction stats count the insert; a full
    /// shard evicts as usual.
    pub fn seed_entry(&self, entry: &CacheEntry) {
        let key = ProfileKey {
            kind: entry.kind,
            width: entry.width,
            delay_fingerprint: entry.delay_fingerprint,
            workload_fingerprint: entry.workload_fingerprint,
        };
        let index = Self::shard_index(key.kind, key.width);
        let mut shard = self.lock_shard(index);
        let stamp = shard.tick();
        self.evict_if_full(index, &mut shard, &key);
        shard.map.insert(
            key,
            Entry {
                profile: Arc::clone(&entry.profile),
                stamp,
            },
        );
    }

    /// Evicts the least-recently-used entry if inserting `incoming` would
    /// overflow a bounded shard. (No-op when `incoming` is already
    /// present — a replace does not grow the map.) `index` is the shard's
    /// position, used only to tally the eviction.
    fn evict_if_full(&self, index: usize, shard: &mut Shard, incoming: &ProfileKey) {
        if self.capacity == 0 || shard.map.len() < self.capacity || shard.map.contains_key(incoming)
        {
            return;
        }
        if let Some(victim) = shard
            .map
            .iter()
            .min_by_key(|(_, e)| e.stamp)
            .map(|(k, _)| *k)
        {
            shard.map.remove(&victim);
            self.counters[index]
                .evictions
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The memoized equivalent of [`MultiplierDesign::profile`]: a hit
    /// returns the cached profile, a miss profiles `pairs` (levelized
    /// kernel, functional verification included) and caches the result.
    ///
    /// Aging factors are snapped onto the [`AGING_FACTOR_GRID`] before the
    /// delay assignment is built, so two factor vectors that differ by less
    /// than the grid step produce the *same* assignment (and fingerprint):
    /// a sub-threshold ΔVth aging step is an honest cache hit, not a
    /// near-duplicate entry. This is the same grid the
    /// [`AgingSweep`](crate::AgingSweep) identical-year check uses.
    ///
    /// # Errors
    ///
    /// Propagates [`MultiplierDesign::profile`] errors on a miss; errors
    /// are not cached.
    pub fn profile(
        &self,
        design: &MultiplierDesign,
        pairs: &[(u64, u64)],
        factors: Option<&[f64]>,
    ) -> Result<Arc<PatternProfile>, crate::CoreError> {
        let quantized = factors.map(quantize_factors);
        let factors = quantized.as_deref();
        let delays = design.delay_assignment(factors)?;
        self.get_or_insert_with(design, &delays, pairs, || design.profile(pairs, factors))
    }

    /// Looks up the profile for (`design`, `delays`, `pairs`), building it
    /// with `build` and caching it on a miss.
    ///
    /// The caller promises that `build` produces the profile of exactly
    /// this workload under exactly `delays` — campaign preparation uses
    /// this with its verification-free delay-fault profiler. The build runs
    /// outside the cache lock, so concurrent callers (parallel campaign
    /// tasks, server workers) never serialize their simulations; if two
    /// race on the same key, the first inserted profile wins and both get
    /// the same `Arc`. For flows where N identical cold requests must cost
    /// *one* simulation rather than N racing ones, put a single-flight
    /// coalescer in front (the `agemul-serve` crate does).
    ///
    /// # Errors
    ///
    /// Propagates `build` errors; errors are not cached.
    pub fn get_or_insert_with<E>(
        &self,
        design: &MultiplierDesign,
        delays: &DelayAssignment,
        pairs: &[(u64, u64)],
        build: impl FnOnce() -> Result<PatternProfile, E>,
    ) -> Result<Arc<PatternProfile>, E> {
        self.get_or_insert_keyed(ProfileKey::new(design, delays, pairs), build)
    }

    /// [`get_or_insert_with`](Self::get_or_insert_with) on a key the
    /// caller already built: a hit costs one shard lock and one map lookup,
    /// with no fingerprinting.
    ///
    /// The caller promises that `build` produces the profile `key` names.
    ///
    /// # Errors
    ///
    /// Propagates `build` errors; errors are not cached.
    pub fn get_or_insert_keyed<E>(
        &self,
        key: ProfileKey,
        build: impl FnOnce() -> Result<PatternProfile, E>,
    ) -> Result<Arc<PatternProfile>, E> {
        let index = Self::shard_index(key.kind, key.width);
        {
            let mut shard = self.lock_shard(index);
            let stamp = shard.tick();
            if let Some(entry) = shard.map.get_mut(&key) {
                entry.stamp = stamp;
                self.counters[index].hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(&entry.profile));
            }
        }
        self.counters[index].misses.fetch_add(1, Ordering::Relaxed);
        let built = Arc::new(build()?);
        let mut shard = self.lock_shard(index);
        let stamp = shard.tick();
        if let Some(entry) = shard.map.get_mut(&key) {
            // A racing build won while ours simulated; keep the incumbent
            // so both callers share one Arc.
            entry.stamp = stamp;
            return Ok(Arc::clone(&entry.profile));
        }
        self.evict_if_full(index, &mut shard, &key);
        shard.map.insert(
            key,
            Entry {
                profile: Arc::clone(&built),
                stamp,
            },
        );
        Ok(built)
    }

    /// Test hook: poisons the shard that (`kind`, `width`) hashes to, by
    /// panicking on a helper thread while it holds the shard lock.
    ///
    /// Exists so the poison-recovery regression suite can drive the exact
    /// failure a panicking worker produces in a resident server; nothing
    /// outside tests should call it.
    #[doc(hidden)]
    pub fn poison_shard_for_test(&self, kind: MultiplierKind, width: usize) {
        let index = Self::shard_index(kind, width);
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                let _guard = self.shards[index]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                panic!("poisoning ProfileCache shard {index} for test");
            });
            // The panic is the point; swallow the propagated Err.
            let _ = handle.join();
        });
    }
}

#[cfg(test)]
mod tests {
    use agemul_circuits::MultiplierKind;

    use super::*;
    use crate::PatternSet;

    #[test]
    fn repeat_profiles_hit_the_cache() {
        let d = MultiplierDesign::new(MultiplierKind::ColumnBypass, 8).unwrap();
        let patterns = PatternSet::uniform(8, 40, 3);
        let cache = ProfileCache::new();

        let first = cache.profile(&d, patterns.pairs(), None).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let again = cache.profile(&d, patterns.pairs(), None).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);

        // The cached profile is the uncached one, record for record.
        let direct = d.profile(patterns.pairs(), None).unwrap();
        assert_eq!(first.records(), direct.records());
    }

    #[test]
    fn delay_epoch_separates_entries() {
        let d = MultiplierDesign::new(MultiplierKind::ColumnBypass, 8).unwrap();
        let patterns = PatternSet::uniform(8, 30, 5);
        let factors = vec![1.2; d.circuit().netlist().gate_count()];
        let cache = ProfileCache::new();

        let fresh = cache.profile(&d, patterns.pairs(), None).unwrap();
        let aged = cache.profile(&d, patterns.pairs(), Some(&factors)).unwrap();
        assert_eq!(cache.misses(), 2, "different fingerprints, both build");
        assert!(aged.avg_delay_ns() > fresh.avg_delay_ns());

        // Same factors again: same fingerprint, hit.
        let aged2 = cache.profile(&d, patterns.pairs(), Some(&factors)).unwrap();
        assert!(Arc::ptr_eq(&aged, &aged2));
        assert_eq!(cache.hits(), 1);
    }

    /// A ΔVth step smaller than the quantization grid must be a cache hit,
    /// and the hit must be coherent: the cached profile is byte-identical
    /// to what a fresh (miss) build of the perturbed factors would produce,
    /// because both snap to the same grid point before simulating.
    #[test]
    fn sub_threshold_aging_step_hits_coherently() {
        let d = MultiplierDesign::new(MultiplierKind::ColumnBypass, 8).unwrap();
        let patterns = PatternSet::uniform(8, 30, 11);
        let gates = d.circuit().netlist().gate_count();
        let cache = ProfileCache::new();

        let year_y = vec![1.08; gates];
        // Perturb by a tenth of the grid step: same grid point.
        let eps = 0.1 / super::AGING_FACTOR_GRID;
        let year_y1: Vec<f64> = year_y.iter().map(|f| f + eps).collect();
        assert_eq!(quantize_factors(&year_y), quantize_factors(&year_y1));

        let base = cache.profile(&d, patterns.pairs(), Some(&year_y)).unwrap();
        let stepped = cache.profile(&d, patterns.pairs(), Some(&year_y1)).unwrap();
        assert!(Arc::ptr_eq(&base, &stepped), "sub-threshold step must hit");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));

        // Coherence: a from-scratch build of the perturbed vector (through
        // the same quantization) reproduces the cached records exactly.
        let direct = d
            .profile(patterns.pairs(), Some(&quantize_factors(&year_y1)))
            .unwrap();
        assert_eq!(base.records(), direct.records());

        // A step that does cross a grid line still misses.
        let coarse: Vec<f64> = year_y
            .iter()
            .map(|f| f + 2.0 / super::AGING_FACTOR_GRID)
            .collect();
        cache.profile(&d, patterns.pairs(), Some(&coarse)).unwrap();
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn workload_order_is_part_of_the_key() {
        // Two-vector timing depends on pattern order, so a reordered
        // workload must not hit the original's entry.
        let d = MultiplierDesign::new(MultiplierKind::RowBypass, 8).unwrap();
        let fwd = [(3u64, 5u64), (0xFF, 0xFF), (0, 1)];
        let rev = [(0u64, 1u64), (0xFF, 0xFF), (3, 5)];
        let cache = ProfileCache::new();
        cache.profile(&d, &fwd, None).unwrap();
        cache.profile(&d, &rev, None).unwrap();
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn clear_empties_the_map() {
        let d = MultiplierDesign::new(MultiplierKind::Array, 4).unwrap();
        let cache = ProfileCache::new();
        cache.profile(&d, &[(1, 2), (3, 3)], None).unwrap();
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        cache.profile(&d, &[(1, 2), (3, 3)], None).unwrap();
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn entries_round_trip_through_seed_entry() {
        let d = MultiplierDesign::new(MultiplierKind::ColumnBypass, 8).unwrap();
        let patterns = PatternSet::uniform(8, 12, 9);
        let warm = ProfileCache::new();
        let original = warm.profile(&d, patterns.pairs(), None).unwrap();

        // Export from the warm cache, import into a cold one: the replayed
        // lookup must hit and serve the seeded profile.
        let cold = ProfileCache::new();
        for entry in warm.entries() {
            cold.seed_entry(&entry);
        }
        assert_eq!(cold.len(), 1);
        assert_eq!((cold.hits(), cold.misses()), (0, 0), "seeding is untallied");
        let served = cold.profile(&d, patterns.pairs(), None).unwrap();
        assert_eq!((cold.hits(), cold.misses()), (1, 0));
        assert_eq!(served.records(), original.records());
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let d = MultiplierDesign::new(MultiplierKind::Array, 4).unwrap();
        let cache = ProfileCache::new();
        for i in 0..40u64 {
            cache.profile(&d, &[(i % 16, (i / 16) % 16)], None).unwrap();
        }
        assert_eq!(cache.evictions(), 0);
        assert!(cache.shard_capacity().is_none());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_is_rejected() {
        let _ = ProfileCache::with_capacity(0);
    }

    /// Per-shard rows must attribute traffic to the shard its design hashes
    /// to, and the global counters are exactly the per-shard sums.
    #[test]
    fn shard_stats_attribute_and_sum() {
        let d = MultiplierDesign::new(MultiplierKind::Array, 4).unwrap();
        let cache = ProfileCache::with_capacity(2);
        // 3 distinct workloads into one (kind, width) shard: 3 misses, one
        // LRU eviction; then a repeat of the newest for a hit.
        for pairs in [[(1u64, 2u64)], [(3, 4)], [(5, 6)], [(5, 6)]] {
            cache.profile(&d, &pairs, None).unwrap();
        }
        let stats = cache.shard_stats();
        assert_eq!(stats.len(), SHARD_COUNT);
        assert_eq!(stats.iter().map(|s| s.hits).sum::<u64>(), cache.hits());
        assert_eq!(stats.iter().map(|s| s.misses).sum::<u64>(), cache.misses());
        assert_eq!(
            stats.iter().map(|s| s.evictions).sum::<u64>(),
            cache.evictions()
        );
        assert_eq!(stats.iter().map(|s| s.entries).sum::<usize>(), cache.len());

        let home = stats
            .iter()
            .find(|s| s.misses > 0)
            .expect("the design's shard saw traffic");
        assert_eq!(
            (home.hits, home.misses, home.evictions, home.entries),
            (1, 3, 1, 2),
            "all traffic lands in the design's home shard"
        );
        for other in stats.iter().filter(|s| s.index != home.index) {
            assert_eq!(
                (other.hits, other.misses, other.evictions, other.entries),
                (0, 0, 0, 0),
                "shard {} saw no traffic",
                other.index
            );
        }
    }
}
