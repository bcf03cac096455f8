//! Shared, thread-safe server state: designs, the sharded profile cache,
//! the query → cache-key memo, and the single-flight coalescer.
//!
//! This is the resident-process counterpart of the repro crate's
//! single-threaded `Context`, behind poison-recovering locks and `Arc`s so
//! hundreds of concurrent requests share one copy of each design and
//! profile. Profiles go through the sharded [`ProfileCache`] *behind* a
//! [`SingleFlight`] coalescer, so N identical cold requests cost one
//! simulation, not N racing ones. Workloads and aging factors are not
//! kept: a query builds them when it resolves, and again only after its
//! memo entry was cleared or its profile evicted — a uniform workload and
//! one functional sweep cost little next to the timing simulation that
//! follows.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use agemul::{
    quantize_factors, CacheEntry, CancelToken, Json, MultiplierDesign, PatternProfile, PatternSet,
    ProfileCache, ProfileKey, SimEngine, CACHE_SHARD_COUNT,
};
use agemul_aging::{aging_factors, BtiModel};
use agemul_circuits::MultiplierKind;
use agemul_harness::{
    is_cancellation, profile_from_json, profile_to_json, CaseRecord, CaseStatus, Checkpoint,
};

use crate::flight::{FlightError, FlightRole, SingleFlight};
use crate::proto::{parse_kind, DesignQuery};

/// Run key recorded in warm-start snapshot documents; a snapshot written
/// by an incompatible layout is refused on load instead of silently
/// seeding garbage.
pub const SNAPSHOT_KEY: &str = "agemul-serve-cache/1";

/// How a profile lookup was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the cache.
    Hit,
    /// Simulated by this request.
    Miss,
    /// Waited on another request's in-flight simulation of the same key.
    Coalesced,
}

impl CacheOutcome {
    /// Wire label (`hit` / `miss` / `coalesced`).
    pub fn label(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Coalesced => "coalesced",
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The exact identity of a [`DesignQuery`]: every field, with `years` by
/// its bits. Distinct queries never share per-query state, so an answer
/// cannot depend on which query came first. `-0.0` folds into `0.0`: both
/// are the fresh design.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct QueryKey {
    kind: MultiplierKind,
    width: usize,
    years_bits: u64,
    patterns: usize,
    seed: u64,
}

impl QueryKey {
    fn new(query: &DesignQuery) -> Self {
        let years = if query.years == 0.0 { 0.0 } else { query.years };
        QueryKey {
            kind: query.kind,
            width: query.width,
            years_bits: years.to_bits(),
            patterns: query.patterns,
            seed: query.seed,
        }
    }
}

/// Everything a query's profile build needs, plus the cache key it
/// resolves to.
struct Resolved {
    design: Arc<MultiplierDesign>,
    workload: PatternSet,
    /// Aging factors snapped onto the cache's grid (`None` = fresh).
    factors: Option<Vec<f64>>,
    key: ProfileKey,
}

/// The server's shared artifact store. Designs live in a plain
/// poison-recovering map; profiles — the expensive artifact — go through
/// the sharded bounded [`ProfileCache`] behind the [`SingleFlight`]
/// coalescer.
pub struct ServerState {
    bti: BtiModel,
    cache: ProfileCache,
    /// One in-flight simulation per query; both engines build the same
    /// profile, so the engine is not part of the key.
    flight: SingleFlight<QueryKey, Arc<PatternProfile>>,
    designs: Mutex<HashMap<(MultiplierKind, usize), Arc<MultiplierDesign>>>,
    /// Query → cache key memo: a repeated query skips rebuilding and
    /// fingerprinting its per-gate delay assignment. Cleared when it
    /// reaches the cache's total capacity (see [`Self::memo_limit`]).
    keys: Mutex<HashMap<QueryKey, ProfileKey>>,
    /// Connections shed by the acceptor with a typed `overloaded`
    /// response (surfaced in the `stats` op).
    shed: std::sync::atomic::AtomicU64,
    /// Context for this state's `serve/build` chaos failpoint; chaos plans
    /// scope on it so one test's injected leader deaths cannot strike
    /// another state in the same process.
    chaos_scope: String,
}

impl ServerState {
    /// Fresh state with the workspace-calibrated BTI model and a profile
    /// cache bounded to `shard_capacity` entries per shard (`None` =
    /// unbounded, for short-lived test servers).
    pub fn new(shard_capacity: Option<usize>) -> Self {
        Self::with_chaos_scope(shard_capacity, String::new())
    }

    /// Like [`new`](Self::new), but the `serve/build`, `flight/lead`, and
    /// `flight/publish` chaos failpoints carry `scope` as their context,
    /// so seeded fault plans can target exactly this state.
    pub fn with_chaos_scope(shard_capacity: Option<usize>, scope: impl Into<String>) -> Self {
        let scope = scope.into();
        ServerState {
            bti: BtiModel::reference(),
            cache: match shard_capacity {
                Some(per_shard) => ProfileCache::with_capacity(per_shard),
                None => ProfileCache::new(),
            },
            flight: SingleFlight::with_scope(scope.clone()),
            designs: Mutex::new(HashMap::new()),
            keys: Mutex::new(HashMap::new()),
            shed: std::sync::atomic::AtomicU64::new(0),
            chaos_scope: scope,
        }
    }

    /// Records one connection shed by the acceptor.
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Connections shed with a typed `overloaded` response so far.
    pub fn shed(&self) -> u64 {
        self.shed.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Profile builds currently in flight in the coalescer (0 when the
    /// server is quiescent — a stranded slot would wedge every future
    /// request for its key, so soaks assert this drains).
    pub fn in_flight(&self) -> usize {
        self.flight.in_flight()
    }

    /// Distinct queries resolved to a cache key since the memo was last
    /// cleared (the size of the query → [`ProfileKey`] memo; a query whose
    /// resolution failed is not counted). Never above the profile cache's
    /// total capacity.
    pub fn resolved_queries(&self) -> usize {
        lock(&self.keys).len()
    }

    /// The memo's entry bound: the profile cache's total capacity
    /// (`shard_capacity × CACHE_SHARD_COUNT`), or `None` for an unbounded
    /// cache. A memo entry whose profile was evicted only saves a
    /// re-resolve, so a memo larger than the cache buys nothing.
    fn memo_limit(&self) -> Option<usize> {
        self.cache
            .shard_capacity()
            .map(|per_shard| per_shard.saturating_mul(CACHE_SHARD_COUNT))
    }

    /// The profile cache (shared with campaign preparation).
    pub fn cache(&self) -> &ProfileCache {
        &self.cache
    }

    /// The workspace-calibrated BTI model (shared with the Monte Carlo
    /// op, so served yield curves match the batch `mc` experiment).
    pub fn bti(&self) -> &BtiModel {
        &self.bti
    }

    /// Number of profile lookups coalesced onto another request's
    /// in-flight simulation.
    pub fn coalesced(&self) -> u64 {
        self.flight.coalesced()
    }

    /// The design for `kind` × `width` (cached; built outside the map
    /// lock so concurrent first requests don't serialize on construction).
    ///
    /// # Errors
    ///
    /// Rendered construction errors (unsupported width, etc.).
    pub fn design(
        &self,
        kind: MultiplierKind,
        width: usize,
    ) -> Result<Arc<MultiplierDesign>, String> {
        if let Some(d) = lock(&self.designs).get(&(kind, width)) {
            return Ok(Arc::clone(d));
        }
        let built = Arc::new(MultiplierDesign::new(kind, width).map_err(|e| e.to_string())?);
        let mut designs = lock(&self.designs);
        let d = designs
            .entry((kind, width))
            .or_insert_with(|| Arc::clone(&built));
        Ok(Arc::clone(d))
    }

    /// Per-gate BTI aging factors for the query's design under its own
    /// workload's duty cycles, or `None` for a fresh design
    /// (`years <= 0`). Recomputed on every call: one functional sweep.
    ///
    /// # Errors
    ///
    /// Rendered design/statistics errors.
    pub fn factors(&self, query: &DesignQuery) -> Result<Option<Vec<f64>>, String> {
        let design = self.design(query.kind, query.width)?;
        let workload = PatternSet::uniform(query.width, query.patterns, query.seed);
        self.factors_for(&design, &workload, query.years)
    }

    fn factors_for(
        &self,
        design: &MultiplierDesign,
        workload: &PatternSet,
        years: f64,
    ) -> Result<Option<Vec<f64>>, String> {
        if years <= 0.0 {
            return Ok(None);
        }
        let stats = design
            .workload_stats(workload.pairs())
            .map_err(|e| e.to_string())?;
        Ok(Some(aging_factors(
            design.circuit().netlist(),
            &stats,
            &self.bti,
            years,
        )))
    }

    /// Resolves a query to its build inputs and cache key: design,
    /// workload, aging factors, and the fingerprints of the delay
    /// assignment and operand pairs.
    fn resolve(&self, query: &DesignQuery) -> Result<Resolved, String> {
        let design = self.design(query.kind, query.width)?;
        let workload = PatternSet::uniform(query.width, query.patterns, query.seed);
        let factors = self
            .factors_for(&design, &workload, query.years)?
            .map(|f| quantize_factors(&f));
        let delays = design
            .delay_assignment(factors.as_deref())
            .map_err(|e| e.to_string())?;
        let key = ProfileKey::new(&design, &delays, workload.pairs());
        Ok(Resolved {
            design,
            workload,
            factors,
            key,
        })
    }

    /// The query's timing profile: through the single-flight coalescer,
    /// then the sharded cache, simulating (on `engine`, under `cancel`)
    /// only on a true miss. Returns the profile and how it was obtained.
    ///
    /// Each distinct query resolves to its cache key once; later lookups
    /// read the memo and touch neither the design nor its delays unless
    /// the profile must be simulated.
    ///
    /// # Errors
    ///
    /// [`FlightError::Cancelled`] when the deadline fired inside the
    /// simulation, [`FlightError::Build`] for real failures (never
    /// cached), [`FlightError::LeaderPanicked`] when a concurrent leader
    /// died mid-build.
    pub fn profile(
        &self,
        query: &DesignQuery,
        engine: SimEngine,
        cancel: Option<&CancelToken>,
    ) -> Result<(Arc<PatternProfile>, CacheOutcome), FlightError> {
        let query_key = QueryKey::new(query);
        let memo = lock(&self.keys).get(&query_key).copied();
        let (key, resolved) = match memo {
            Some(key) => (key, None),
            None => {
                let resolved = self.resolve(query).map_err(FlightError::Build)?;
                let mut keys = lock(&self.keys);
                if self.memo_limit().is_some_and(|limit| keys.len() >= limit) {
                    keys.clear();
                }
                keys.insert(query_key, resolved.key);
                (resolved.key, Some(resolved))
            }
        };

        let simulated = std::cell::Cell::new(false);
        let (outcome, role) = self.flight.run(query_key, || {
            // Chaos failpoint `serve/build`: the leader dies *inside* the
            // build closure — between the flight's own lead/publish sites —
            // exercising the cache's exception safety under the coalescer.
            if agemul_chaos::armed() {
                agemul_chaos::maybe_panic(
                    "serve/build",
                    &format!(
                        "{} {}x{}",
                        self.chaos_scope,
                        query.kind.label(),
                        query.width
                    ),
                );
            }
            self.cache.get_or_insert_keyed(key, || {
                simulated.set(true);
                let build = match resolved {
                    Some(build) => build,
                    None => self.resolve(query).map_err(FlightError::Build)?,
                };
                build
                    .design
                    .profile_supervised(
                        build.workload.pairs(),
                        build.factors.as_deref(),
                        engine,
                        cancel,
                    )
                    .map_err(|e| {
                        if is_cancellation(&e) {
                            FlightError::Cancelled
                        } else {
                            FlightError::Build(e.to_string())
                        }
                    })
            })
        });
        let profile = outcome?;
        let how = match role {
            FlightRole::Coalesced => CacheOutcome::Coalesced,
            FlightRole::Leader if simulated.get() => CacheOutcome::Miss,
            FlightRole::Leader => CacheOutcome::Hit,
        };
        Ok((profile, how))
    }

    /// Cache/coalescer statistics as the `stats` op's result payload.
    ///
    /// The global totals (including `resolved_queries`, the memo's size)
    /// are followed by a `shards` array — one row per
    /// cache shard with its resident entries and hit/miss/eviction tallies
    /// (shards are keyed by (kind, width), so a hot row is a hot design) —
    /// and a `flight` object with the single-flight coalescer's
    /// led/coalesced counts.
    pub fn stats_json(&self) -> Json {
        let shards = self
            .cache
            .shard_stats()
            .into_iter()
            .map(|s| {
                Json::Obj(vec![
                    ("index".into(), Json::UInt(s.index as u64)),
                    ("entries".into(), Json::UInt(s.entries as u64)),
                    ("hits".into(), Json::UInt(s.hits)),
                    ("misses".into(), Json::UInt(s.misses)),
                    ("evictions".into(), Json::UInt(s.evictions)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("entries".into(), Json::UInt(self.cache.len() as u64)),
            ("hits".into(), Json::UInt(self.cache.hits())),
            ("misses".into(), Json::UInt(self.cache.misses())),
            ("evictions".into(), Json::UInt(self.cache.evictions())),
            ("coalesced".into(), Json::UInt(self.coalesced())),
            (
                "shard_capacity".into(),
                self.cache
                    .shard_capacity()
                    .map_or(Json::Null, |c| Json::UInt(c as u64)),
            ),
            ("shed".into(), Json::UInt(self.shed())),
            (
                "resolved_queries".into(),
                Json::UInt(self.resolved_queries() as u64),
            ),
            ("shards".into(), Json::Arr(shards)),
            (
                "flight".into(),
                Json::Obj(vec![
                    ("led".into(), Json::UInt(self.flight.led())),
                    ("coalesced".into(), Json::UInt(self.flight.coalesced())),
                    ("in_flight".into(), Json::UInt(self.in_flight() as u64)),
                ]),
            ),
        ])
    }

    /// Saves the cache as a warm-start snapshot (atomic temp + rename,
    /// CRC-checked — the harness checkpoint codec). Returns the number of
    /// entries written.
    ///
    /// # Errors
    ///
    /// Rendered checkpoint I/O errors.
    pub fn save_snapshot(&self, path: &Path) -> Result<usize, String> {
        let entries: Vec<CaseRecord> = self
            .cache
            .entries()
            .into_iter()
            .enumerate()
            .map(|(index, e)| CaseRecord {
                index,
                label: format!(
                    "{}{}@{:016x}/{:016x}",
                    e.kind.label(),
                    e.width,
                    e.delay_fingerprint,
                    e.workload_fingerprint
                ),
                retries: 0,
                status: CaseStatus::Done {
                    value: Json::Obj(vec![
                        ("kind".into(), Json::Str(e.kind.label().into())),
                        ("width".into(), Json::UInt(e.width as u64)),
                        ("delay_fp".into(), Json::UInt(e.delay_fingerprint)),
                        ("workload_fp".into(), Json::UInt(e.workload_fingerprint)),
                        ("profile".into(), profile_to_json(&e.profile)),
                    ]),
                },
            })
            .collect();
        let count = entries.len();
        Checkpoint {
            run_key: SNAPSHOT_KEY.into(),
            total: count,
            entries,
        }
        .save_atomic(path)
        .map_err(|e| e.to_string())?;
        Ok(count)
    }

    /// Seeds the cache from a warm-start snapshot written by
    /// [`save_snapshot`](Self::save_snapshot). Returns the number of
    /// entries seeded.
    ///
    /// # Errors
    ///
    /// Rendered load errors: I/O, CRC/schema mismatch, a snapshot written
    /// under a different [`SNAPSHOT_KEY`], or malformed entries.
    pub fn load_snapshot(&self, path: &Path) -> Result<usize, String> {
        let ck = Checkpoint::load(path, Some(SNAPSHOT_KEY)).map_err(|e| e.to_string())?;
        let mut seeded = 0;
        for record in &ck.entries {
            let CaseStatus::Done { value } = &record.status else {
                continue;
            };
            let decode = || -> Result<CacheEntry, String> {
                Ok(CacheEntry {
                    kind: parse_kind(value.get_str("kind")?)?,
                    width: value.get_u64("width")? as usize,
                    delay_fingerprint: value.get_u64("delay_fp")?,
                    workload_fingerprint: value.get_u64("workload_fp")?,
                    profile: Arc::new(profile_from_json(
                        value.get("profile").ok_or("missing profile")?,
                    )?),
                })
            };
            let entry = decode().map_err(|e| format!("snapshot entry {}: {e}", record.index))?;
            self.cache.seed_entry(&entry);
            seeded += 1;
        }
        Ok(seeded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query() -> DesignQuery {
        DesignQuery {
            kind: MultiplierKind::ColumnBypass,
            width: 8,
            years: 0.0,
            patterns: 24,
            seed: 11,
        }
    }

    #[test]
    fn repeat_profile_hits() {
        let state = ServerState::new(Some(8));
        let (first, how) = state.profile(&query(), SimEngine::Level, None).unwrap();
        assert_eq!(how, CacheOutcome::Miss);
        let (again, how) = state.profile(&query(), SimEngine::Level, None).unwrap();
        assert_eq!(how, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!((state.cache().hits(), state.cache().misses()), (1, 1));
    }

    #[test]
    fn aged_profile_is_slower_and_separately_cached() {
        let state = ServerState::new(None);
        let fresh = query();
        let aged = DesignQuery {
            years: 7.0,
            ..fresh
        };
        let (f, _) = state.profile(&fresh, SimEngine::Level, None).unwrap();
        let (a, _) = state.profile(&aged, SimEngine::Level, None).unwrap();
        assert!(a.avg_delay_ns() > f.avg_delay_ns());
        assert_eq!(state.cache().misses(), 2);
    }

    /// A client sending fresh seeds grows no map without bound: the memo
    /// stays within the cache's total capacity, and a repeat of a query
    /// resolved before a clear still gets a correct answer.
    #[test]
    fn key_memo_is_bounded_by_cache_capacity() {
        let state = ServerState::new(Some(2));
        let limit = state.memo_limit().unwrap();
        assert_eq!(limit, 2 * CACHE_SHARD_COUNT);
        let seeded = |seed| DesignQuery {
            kind: MultiplierKind::Array,
            width: 4,
            years: 0.0,
            patterns: 2,
            seed,
        };
        let mut peak = 0;
        for seed in 0..10_000 {
            state
                .profile(&seeded(seed), SimEngine::Level, None)
                .unwrap();
            peak = peak.max(state.resolved_queries());
            assert!(state.resolved_queries() <= limit, "seed {seed}");
        }
        assert_eq!(peak, limit, "the memo fills to its bound before clearing");

        let (again, _) = state.profile(&seeded(0), SimEngine::Level, None).unwrap();
        let design = MultiplierDesign::new(MultiplierKind::Array, 4).unwrap();
        let expected = design
            .profile(PatternSet::uniform(4, 2, 0).pairs(), None)
            .unwrap();
        assert_eq!(again.records(), expected.records());

        assert!(ServerState::new(None).memo_limit().is_none());
    }

    #[test]
    fn snapshot_round_trips_into_a_cold_state() {
        let dir = std::env::temp_dir().join(format!("agemul-serve-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.snap.json");

        let warm = ServerState::new(Some(8));
        let (original, _) = warm.profile(&query(), SimEngine::Level, None).unwrap();
        assert_eq!(warm.save_snapshot(&path).unwrap(), 1);

        let cold = ServerState::new(Some(8));
        assert_eq!(cold.load_snapshot(&path).unwrap(), 1);
        let (served, how) = cold.profile(&query(), SimEngine::Level, None).unwrap();
        assert_eq!(how, CacheOutcome::Hit, "warm start must hit");
        assert_eq!(served.records(), original.records());

        // A foreign document is refused, not silently seeded.
        std::fs::write(&path, "{}").unwrap();
        assert!(cold.load_snapshot(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
