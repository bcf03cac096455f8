//! Regression suite for the sharded, bounded, poison-recovering
//! `ProfileCache`.
//!
//! These are the long-lived-process guarantees `agemul-serve` leans on:
//! a panicked worker must not wedge every later request that hashes to
//! its shard (poison recovery), and a bounded shard must evict by
//! recency of *use*, never the hot entry (per-shard LRU).

use std::convert::Infallible;
use std::sync::Arc;

use agemul::{MultiplierDesign, PatternProfile, PatternSet, ProfileCache, ProfileKey};
use agemul_circuits::MultiplierKind;
use agemul_netlist::{DelayAssignment, GateId};

/// Inserts a placeholder profile for (`design`, `delays`, `pairs`) without
/// simulating; reports whether the lookup missed.
fn probe(
    cache: &ProfileCache,
    design: &MultiplierDesign,
    delays: &DelayAssignment,
    pairs: &[(u64, u64)],
) -> bool {
    let before = cache.misses();
    let result: Result<Arc<PatternProfile>, Infallible> =
        cache.get_or_insert_with(design, delays, pairs, || {
            Ok(PatternProfile::from_records(
                design.kind(),
                design.width(),
                vec![],
            ))
        });
    result.expect("builder is infallible");
    cache.misses() > before
}

/// A delay assignment with gate 0 inflated by `factor` — each distinct
/// factor has a distinct fingerprint, i.e. its own cache key.
fn epoch(design: &MultiplierDesign, factor: f64) -> DelayAssignment {
    let mut delays = design.delay_assignment(None).unwrap();
    delays.inflate(GateId::from_index(0), factor);
    delays
}

/// The headline bugfix: `len`/`profile`/`clear` previously called
/// `.expect("cache mutex poisoned")`, so one panicked worker turned every
/// subsequent lookup into a panic. A poisoned shard must now keep
/// serving: cached entries survive, lookups hit, and fresh inserts land.
#[test]
fn poisoned_shard_still_completes_lookups() {
    let d = MultiplierDesign::new(MultiplierKind::ColumnBypass, 8).unwrap();
    let patterns = PatternSet::uniform(8, 20, 1);
    let cache = ProfileCache::new();

    let before = cache.profile(&d, patterns.pairs(), None).unwrap();
    assert_eq!((cache.hits(), cache.misses()), (0, 1));

    // A helper thread panics while holding this design's shard lock —
    // exactly what a panicking server worker leaves behind.
    cache.poison_shard_for_test(d.kind(), d.width());

    // The poisoned shard still answers: the warm entry hits (same Arc),
    // len/clear walk every shard without panicking, and a brand-new key
    // inserts into the poisoned shard.
    let after = cache.profile(&d, patterns.pairs(), None).unwrap();
    assert!(Arc::ptr_eq(&before, &after));
    assert_eq!((cache.hits(), cache.misses()), (1, 1));
    assert_eq!(cache.len(), 1);

    let delays = epoch(&d, 2.0);
    assert!(
        probe(&cache, &d, &delays, patterns.pairs()),
        "fresh key must miss and insert into the poisoned shard"
    );
    assert_eq!(cache.len(), 2);
    assert!(!probe(&cache, &d, &delays, patterns.pairs()), "…and hit");

    cache.clear();
    assert!(cache.is_empty());
}

/// Poison must stay local to its shard: designs hashing elsewhere are
/// untouched (they would be even without recovery, but this pins the
/// sharding actually isolating them).
#[test]
fn poison_does_not_leak_across_designs() {
    let poisoned = MultiplierDesign::new(MultiplierKind::ColumnBypass, 8).unwrap();
    let healthy = MultiplierDesign::new(MultiplierKind::RowBypass, 8).unwrap();
    let patterns = PatternSet::uniform(8, 10, 2);
    let cache = ProfileCache::new();

    cache.poison_shard_for_test(poisoned.kind(), poisoned.width());
    for design in [&poisoned, &healthy] {
        cache.profile(design, patterns.pairs(), None).unwrap();
        let again = cache.profile(design, patterns.pairs(), None).unwrap();
        assert_eq!(again.len(), 10);
    }
    assert_eq!((cache.hits(), cache.misses()), (2, 2));
}

/// The capacity bugfix: inserting `capacity + 1` distinct delay epochs
/// must evict exactly the stalest entry — and a "hot" entry that keeps
/// getting used must survive arbitrarily many insertions.
#[test]
fn lru_evicts_the_stalest_entry_never_the_hot_one() {
    let d = MultiplierDesign::new(MultiplierKind::ColumnBypass, 8).unwrap();
    let pairs = PatternSet::uniform(8, 8, 3).pairs().to_vec();
    let capacity = 4;
    let cache = ProfileCache::with_capacity(capacity);

    // Epoch factors 2.0, 3.0, 4.0, 5.0 fill the shard; 2.0 is the hot
    // entry, 3.0 the stalest.
    let epochs: Vec<DelayAssignment> = (0..capacity).map(|i| epoch(&d, 2.0 + i as f64)).collect();
    for delays in &epochs {
        assert!(probe(&cache, &d, delays, &pairs));
    }
    assert_eq!(cache.len(), capacity);

    // Touch the hot entry so the first-inserted key is *not* the LRU.
    assert!(!probe(&cache, &d, &epochs[0], &pairs), "hot entry must hit");

    // One more distinct fingerprint: the shard is full, so exactly one
    // entry — the stalest (3.0), not the hot one — is evicted.
    let overflow = epoch(&d, 99.0);
    assert!(probe(&cache, &d, &overflow, &pairs));
    assert_eq!(cache.len(), capacity, "bounded shard may not grow");
    assert_eq!(cache.evictions(), 1);

    assert!(!probe(&cache, &d, &epochs[0], &pairs), "hot entry survives");
    assert!(
        !probe(&cache, &d, &epochs[2], &pairs),
        "younger entries survive"
    );
    assert!(!probe(&cache, &d, &epochs[3], &pairs));
    assert!(
        !probe(&cache, &d, &overflow, &pairs),
        "newcomer is resident"
    );
    assert!(
        probe(&cache, &d, &epochs[1], &pairs),
        "the stalest entry (and only it) was evicted"
    );
}

/// Eviction pressure in one design's shard must not disturb another
/// design cached in a different shard.
#[test]
fn eviction_is_per_shard() {
    let churner = MultiplierDesign::new(MultiplierKind::ColumnBypass, 8).unwrap();
    let resident = MultiplierDesign::new(MultiplierKind::RowBypass, 8).unwrap();
    let pairs = PatternSet::uniform(8, 8, 4).pairs().to_vec();
    let cache = ProfileCache::with_capacity(2);

    let resident_delays = resident.delay_assignment(None).unwrap();
    assert!(probe(&cache, &resident, &resident_delays, &pairs));

    // Churn far past the churner shard's capacity.
    for i in 0..10 {
        probe(
            &cache,
            &churner,
            &epoch(&churner, 2.0 + f64::from(i)),
            &pairs,
        );
    }
    assert!(cache.evictions() >= 8);

    assert!(
        !probe(&cache, &resident, &resident_delays, &pairs),
        "churn in another shard must not evict this design"
    );
}

/// Hit≡miss coherence holds through eviction: a re-built (previously
/// evicted) entry serves the same records a never-evicted cache would.
#[test]
fn evicted_entries_rebuild_coherently() {
    let d = MultiplierDesign::new(MultiplierKind::ColumnBypass, 8).unwrap();
    let patterns = PatternSet::uniform(8, 16, 5);
    let factors_a = vec![1.1; d.circuit().netlist().gate_count()];
    let factors_b = vec![1.2; d.circuit().netlist().gate_count()];

    let bounded = ProfileCache::with_capacity(1);
    let first = bounded
        .profile(&d, patterns.pairs(), Some(&factors_a))
        .unwrap();
    // Displaces `first` (capacity 1), then rebuilds it.
    bounded
        .profile(&d, patterns.pairs(), Some(&factors_b))
        .unwrap();
    assert_eq!(bounded.evictions(), 1);
    let rebuilt = bounded
        .profile(&d, patterns.pairs(), Some(&factors_a))
        .unwrap();
    assert!(!Arc::ptr_eq(&first, &rebuilt), "rebuild, not a stale hit");
    assert_eq!(first.records(), rebuilt.records());
    assert_eq!(bounded.misses(), 3);
}

/// A placeholder build for keyed lookups (no simulation).
fn placeholder(design: &MultiplierDesign) -> Result<PatternProfile, Infallible> {
    Ok(PatternProfile::from_records(
        design.kind(),
        design.width(),
        vec![],
    ))
}

/// `get_or_insert_with` is `get_or_insert_keyed` on `ProfileKey::new` of
/// the same parts: each finds the other's entries.
#[test]
fn keyed_and_unkeyed_lookups_share_entries() {
    let d = MultiplierDesign::new(MultiplierKind::ColumnBypass, 8).unwrap();
    let pairs = [(3u64, 5u64), (7, 9)];
    let fresh = d.delay_assignment(None).unwrap();
    let aged = epoch(&d, 1.5);
    let cache = ProfileCache::new();

    // Unkeyed insert, keyed hit.
    let a = cache
        .get_or_insert_with(&d, &fresh, &pairs, || placeholder(&d))
        .unwrap();
    let a_keyed = cache
        .get_or_insert_keyed(
            ProfileKey::new(&d, &fresh, &pairs),
            || -> Result<_, Infallible> { panic!("keyed lookup of an unkeyed insert must hit") },
        )
        .unwrap();
    assert!(Arc::ptr_eq(&a, &a_keyed));

    // Keyed insert, unkeyed hit.
    let b = cache
        .get_or_insert_keyed(ProfileKey::new(&d, &aged, &pairs), || placeholder(&d))
        .unwrap();
    let b_unkeyed = cache
        .get_or_insert_with(&d, &aged, &pairs, || -> Result<_, Infallible> {
            panic!("unkeyed lookup of a keyed insert must hit")
        })
        .unwrap();
    assert!(Arc::ptr_eq(&b, &b_unkeyed));
    assert!(!Arc::ptr_eq(&a, &b), "distinct delay epochs, distinct keys");
    assert_eq!(cache.len(), 2);
}

/// An entry exported by `entries()` and re-seeded into a cold cache is
/// found by a keyed lookup on the key its parts were built from.
#[test]
fn seeded_entries_hit_keyed_lookups() {
    let d = MultiplierDesign::new(MultiplierKind::RowBypass, 8).unwrap();
    let patterns = PatternSet::uniform(8, 12, 4);
    // On the aging-factor grid, so `profile`'s quantization is the identity.
    let factors = vec![1.25; d.circuit().netlist().gate_count()];
    let delays = d.delay_assignment(Some(&factors)).unwrap();
    let warm = ProfileCache::new();
    let original = warm.profile(&d, patterns.pairs(), Some(&factors)).unwrap();

    let cold = ProfileCache::new();
    for entry in warm.entries() {
        cold.seed_entry(&entry);
    }
    let served = cold
        .get_or_insert_keyed(
            ProfileKey::new(&d, &delays, patterns.pairs()),
            || -> Result<_, Infallible> { panic!("a seeded entry must hit") },
        )
        .unwrap();
    assert!(Arc::ptr_eq(&original, &served));
    assert_eq!((cold.hits(), cold.misses()), (1, 0));
}

/// Keyed lookups tally hits and misses (globally and in the design's
/// shard) exactly as unkeyed ones do.
#[test]
fn keyed_lookups_tally_like_unkeyed_ones() {
    let d = MultiplierDesign::new(MultiplierKind::Array, 8).unwrap();
    let pairs = [(1u64, 2u64)];
    let runs = |keyed: bool| {
        let cache = ProfileCache::new();
        for factor in [1.0, 1.5, 1.0, 2.0, 1.5, 1.5] {
            let delays = epoch(&d, factor);
            if keyed {
                cache
                    .get_or_insert_keyed(ProfileKey::new(&d, &delays, &pairs), || placeholder(&d))
                    .unwrap();
            } else {
                cache
                    .get_or_insert_with(&d, &delays, &pairs, || placeholder(&d))
                    .unwrap();
            }
        }
        (cache.hits(), cache.misses(), cache.shard_stats())
    };
    let (hits, misses, shards) = runs(true);
    assert_eq!((hits, misses), (3, 3));
    assert_eq!(runs(false), (hits, misses, shards));
}
