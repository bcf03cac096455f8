//! The serve hit path: each query resolves to its `ProfileKey` once, on an
//! exact per-query key.
//!
//! A warm hit must return the very profile its miss built; eviction must
//! fall back to a correct rebuild; a query that cannot resolve must leave
//! no trace; and two queries that differ by less than a hundredth of a
//! year must each get their own profile, whatever was asked before.

use std::sync::Arc;

use agemul::{quantize_factors, MultiplierDesign, PatternProfile, PatternSet, SimEngine};
use agemul_circuits::MultiplierKind;
use agemul_serve::{CacheOutcome, DesignQuery, FlightError, ServerState};

fn query(kind: MultiplierKind, width: usize, years: f64) -> DesignQuery {
    DesignQuery {
        kind,
        width,
        years,
        patterns: 24,
        seed: 11,
    }
}

fn profile(state: &ServerState, q: &DesignQuery) -> (Arc<PatternProfile>, CacheOutcome) {
    state.profile(q, SimEngine::Level, None).expect("profile")
}

/// The query's profile computed from scratch: `MultiplierDesign::profile`
/// with the query's own quantized aging factors, taken from a state that
/// has seen no other query.
fn from_scratch(q: &DesignQuery) -> PatternProfile {
    let oracle = ServerState::new(None);
    let factors = oracle
        .factors(q)
        .expect("factors")
        .map(|f| quantize_factors(&f));
    let design = MultiplierDesign::new(q.kind, q.width).expect("design");
    let workload = PatternSet::uniform(q.width, q.patterns, q.seed);
    design
        .profile(workload.pairs(), factors.as_deref())
        .expect("profile")
}

#[test]
fn warm_hit_returns_the_arc_its_miss_built() {
    let state = ServerState::new(Some(8));
    let q = query(MultiplierKind::RowBypass, 8, 3.0);
    let (built, how) = profile(&state, &q);
    assert_eq!(how, CacheOutcome::Miss);
    for _ in 0..3 {
        let (again, how) = profile(&state, &q);
        assert_eq!(how, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&built, &again));
    }
    assert_eq!((state.cache().hits(), state.cache().misses()), (3, 1));
    assert_eq!(state.resolved_queries(), 1);
}

/// With one entry per shard, a second query of the same design evicts the
/// first. The memo still names the first query's key, so asking again is
/// a miss that rebuilds the correct profile, and the repeat after that
/// hits again.
#[test]
fn evicted_query_misses_then_hits_again() {
    let state = ServerState::new(Some(1));
    let fresh = query(MultiplierKind::ColumnBypass, 8, 0.0);
    let aged = query(MultiplierKind::ColumnBypass, 8, 7.0);

    let (first, _) = profile(&state, &fresh);
    profile(&state, &aged);
    assert_eq!(state.cache().evictions(), 1);

    let (rebuilt, how) = profile(&state, &fresh);
    assert_eq!(how, CacheOutcome::Miss, "the evicted entry must rebuild");
    assert!(!Arc::ptr_eq(&first, &rebuilt));
    assert_eq!(rebuilt.records(), from_scratch(&fresh).records());

    let (again, how) = profile(&state, &fresh);
    assert_eq!(how, CacheOutcome::Hit);
    assert!(Arc::ptr_eq(&rebuilt, &again));
    assert_eq!(state.resolved_queries(), 2);
}

#[test]
fn unresolvable_query_leaves_no_memo_entry() {
    let state = ServerState::new(Some(8));
    let q = query(MultiplierKind::Array, 65, 0.0);
    let first = state.profile(&q, SimEngine::Level, None).unwrap_err();
    assert!(
        matches!(&first, FlightError::Build(msg) if msg.contains("width")),
        "{first:?}"
    );
    for _ in 0..3 {
        assert_eq!(
            state.profile(&q, SimEngine::Level, None).unwrap_err(),
            first
        );
    }
    assert_eq!(state.resolved_queries(), 0);
    assert_eq!((state.cache().hits(), state.cache().misses()), (0, 0));
    assert_eq!(state.in_flight(), 0);
}

/// Queries that differ by less than a hundredth of a year are distinct:
/// on one state, each second answer equals its own from-scratch profile,
/// not the first query's.
#[test]
fn nearby_years_get_their_own_profiles() {
    for (first, second) in [(0.0, 0.004), (3.001, 3.004)] {
        let state = ServerState::new(None);
        let a = query(MultiplierKind::ColumnBypass, 8, first);
        let b = query(MultiplierKind::ColumnBypass, 8, second);
        profile(&state, &a);
        let (served, how) = profile(&state, &b);
        assert_eq!(how, CacheOutcome::Miss, "years {first} -> {second}");
        let expected = from_scratch(&b);
        assert_eq!(
            served.records(),
            expected.records(),
            "years {first} -> {second}"
        );
        assert_ne!(
            served.avg_delay_ns(),
            from_scratch(&a).avg_delay_ns(),
            "the pair must straddle a quantization step to mean anything"
        );
    }
}

/// `-0.0` and `0.0` are the same fresh query: one memo entry, one profile.
#[test]
fn negative_zero_years_is_the_fresh_query() {
    let state = ServerState::new(None);
    let (zero, _) = profile(&state, &query(MultiplierKind::Wallace, 8, 0.0));
    let (neg, how) = profile(&state, &query(MultiplierKind::Wallace, 8, -0.0));
    assert_eq!(how, CacheOutcome::Hit);
    assert!(Arc::ptr_eq(&zero, &neg));
    assert_eq!(state.resolved_queries(), 1);
}
