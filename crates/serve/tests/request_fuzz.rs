//! Well-formed but hostile requests through a live server.
//!
//! Every response must be either a result equal to the query's profile
//! computed in-process from scratch, or a typed error response (`ok:
//! false`, the request's id, a message naming the offending field) that
//! the request decoder produced before any supervised attempt ran; the
//! server must keep answering afterwards. Unchecked, a count past
//! [`MAX_COUNT`](agemul_serve::MAX_COUNT) would reach `PatternSet`'s
//! allocation and abort the whole process.

use std::collections::HashMap;
use std::net::TcpStream;

use agemul::{quantize_factors, Json, PatternSet};
use agemul_aging::aging_factors;
use agemul_circuits::{MultiplierKind, MAX_WIDTH, MIN_WIDTH};
use agemul_serve::{roundtrip, spawn, Endpoint, ServeConfig, ServerHandle, ServerState, MAX_COUNT};

fn spawn_tcp() -> ServerHandle {
    spawn(ServeConfig {
        endpoint: Endpoint::Tcp("127.0.0.1:0".into()),
        workers: 2,
        shard_capacity: Some(64),
        ..ServeConfig::default()
    })
    .expect("spawn")
}

fn profile_frame(id: u64, kind: &str, width: u64, years: f64, patterns: u64, seed: u64) -> Json {
    Json::Obj(vec![
        ("id".into(), Json::UInt(id)),
        ("op".into(), Json::Str("profile".into())),
        ("kind".into(), Json::Str(kind.into())),
        ("width".into(), Json::UInt(width)),
        ("years".into(), Json::Num(years)),
        ("patterns".into(), Json::UInt(patterns)),
        ("seed".into(), Json::UInt(seed)),
    ])
}

fn stats(conn: &mut TcpStream) -> Json {
    let request = Json::Obj(vec![
        ("id".into(), Json::UInt(u64::MAX)),
        ("op".into(), Json::Str("stats".into())),
    ]);
    let response = roundtrip(conn, &request).expect("stats roundtrip");
    assert_eq!(
        response.get("ok").and_then(Json::as_bool),
        Some(true),
        "{response}"
    );
    response
}

/// Asserts `response` is the typed decode error for request `id`, naming
/// `field` — rejected up front, not after a supervised attempt failed.
fn assert_typed_error(response: &Json, id: u64, field: &str) {
    assert_eq!(response.get("id").and_then(Json::as_u64), Some(id));
    assert_eq!(
        response.get("ok").and_then(Json::as_bool),
        Some(false),
        "{response}"
    );
    let error = response
        .get("error")
        .and_then(Json::as_str)
        .unwrap_or_default();
    assert!(
        error.contains(field),
        "request {id}: {error:?} lacks {field:?}"
    );
    assert!(
        !error.contains("engine (attempt"),
        "request {id} reached supervision: {error:?}"
    );
}

#[test]
fn oversized_patterns_get_a_typed_error_and_the_server_keeps_serving() {
    let server = spawn_tcp();
    let mut conn = TcpStream::connect(server.tcp_addr().expect("addr")).expect("connect");
    for (id, patterns) in [(1, MAX_COUNT as u64 + 1), (2, 1 << 40), (3, u64::MAX)] {
        let response = roundtrip(&mut conn, &profile_frame(id, "CB", 8, 0.0, patterns, 1))
            .expect("the server answers");
        assert_typed_error(&response, id, "patterns");
    }
    stats(&mut conn);
    let ok = roundtrip(&mut conn, &profile_frame(4, "CB", 8, 0.0, 24, 1)).expect("profile");
    assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true), "{ok}");
    drop(conn);
    server.shutdown().expect("clean shutdown");
}

fn fleet_frame(id: u64, policy: &str, epochs: u64) -> Json {
    Json::Obj(vec![
        ("id".into(), Json::UInt(id)),
        ("op".into(), Json::Str("fleet".into())),
        ("kind".into(), Json::Str("CB".into())),
        ("width".into(), Json::UInt(8)),
        ("years".into(), Json::Num(1.0)),
        ("patterns".into(), Json::UInt(16)),
        ("seed".into(), Json::UInt(1)),
        ("nodes".into(), Json::UInt(2)),
        ("epochs".into(), Json::UInt(epochs)),
        ("policy".into(), Json::Str(policy.into())),
        ("skip".into(), Json::UInt(7)),
    ])
}

#[test]
fn unknown_fleet_policy_is_rejected_at_decode() {
    let server = spawn_tcp();
    let mut conn = TcpStream::connect(server.tcp_addr().expect("addr")).expect("connect");
    let response = roundtrip(&mut conn, &fleet_frame(1, "nope", 1)).expect("the server answers");
    assert_typed_error(&response, 1, "policy");
    let ok = roundtrip(&mut conn, &fleet_frame(2, "round-robin", 1)).expect("fleet");
    assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true), "{ok}");
    drop(conn);
    server.shutdown().expect("clean shutdown");
}

/// The fleet simulator allocates per epoch as it runs, so an uncapped
/// `epochs` would grow without bound inside a worker.
#[test]
fn oversized_fleet_epochs_get_a_typed_error_and_the_server_keeps_serving() {
    let server = spawn_tcp();
    let mut conn = TcpStream::connect(server.tcp_addr().expect("addr")).expect("connect");
    let response =
        roundtrip(&mut conn, &fleet_frame(1, "round-robin", 1 << 40)).expect("the server answers");
    assert_typed_error(&response, 1, "epochs");
    stats(&mut conn);
    let ok = roundtrip(&mut conn, &fleet_frame(2, "round-robin", 1)).expect("fleet");
    assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true), "{ok}");
    drop(conn);
    server.shutdown().expect("clean shutdown");
}

/// A huge but finite σ passes decode and draws per-gate variation factors
/// of 0 or ∞. The corner's delay assignment must refuse them with a typed
/// error, not panic inside the worker.
#[test]
fn extreme_mc_sigma_gets_a_typed_error_and_the_server_keeps_serving() {
    let server = spawn_tcp();
    let mut conn = TcpStream::connect(server.tcp_addr().expect("addr")).expect("connect");
    let frame = |id: u64, sigma: f64| {
        Json::Obj(vec![
            ("id".into(), Json::UInt(id)),
            ("op".into(), Json::Str("mc".into())),
            ("kind".into(), Json::Str("CB".into())),
            ("width".into(), Json::UInt(8)),
            ("years".into(), Json::Num(1.0)),
            ("patterns".into(), Json::UInt(16)),
            ("seed".into(), Json::UInt(1)),
            ("corners".into(), Json::UInt(2)),
            ("sigma".into(), Json::Num(sigma)),
            ("mc_seed".into(), Json::UInt(3)),
            ("skip".into(), Json::UInt(7)),
        ])
    };
    let response = roundtrip(&mut conn, &frame(1, 1e3)).expect("the server answers");
    assert_eq!(response.get("id").and_then(Json::as_u64), Some(1));
    assert_eq!(
        response.get("ok").and_then(Json::as_bool),
        Some(false),
        "{response}"
    );
    let error = response
        .get("error")
        .and_then(Json::as_str)
        .unwrap_or_default();
    assert!(error.contains("delay factor"), "{error:?}");
    assert!(!error.contains("panic"), "{error:?}");
    stats(&mut conn);
    let ok = roundtrip(&mut conn, &frame(2, 0.05)).expect("mc");
    assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true), "{ok}");
    drop(conn);
    server.shutdown().expect("clean shutdown");
}

/// SplitMix64: a tiny seeded generator, so the suite needs no RNG crate.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[(self.next() % from.len() as u64) as usize]
    }
}

/// One hostile `profile` query.
#[derive(Clone, Copy)]
struct Case {
    kind: MultiplierKind,
    width: u64,
    years: f64,
    patterns: u64,
    seed: u64,
}

/// (ops, avg_delay_ns, max_delay_ns) of a query's profile computed from
/// scratch: its own workload, BTI factors from that workload's stress,
/// quantized onto the cache grid. Designs come from `designs`, a state
/// that never profiles, so the server's memo, factor map and cache play
/// no part.
fn expected(designs: &ServerState, case: &Case) -> (f64, f64, f64) {
    let design = designs
        .design(case.kind, case.width as usize)
        .expect("design");
    let workload = PatternSet::uniform(case.width as usize, case.patterns as usize, case.seed);
    let factors = (case.years > 0.0).then(|| {
        let stats = design.workload_stats(workload.pairs()).expect("stats");
        quantize_factors(&aging_factors(
            design.circuit().netlist(),
            &stats,
            designs.bti(),
            case.years,
        ))
    });
    let profile = design
        .profile(workload.pairs(), factors.as_deref())
        .expect("profile");
    (
        profile.len() as f64,
        profile.avg_delay_ns(),
        profile.max_delay_ns(),
    )
}

/// Draws a query from the hostile ranges: every kind, widths 0–70, years
/// in {0, −0.0, 1e-9, 3.004, 1e300}, patterns in {1, 65,536, 65,537, 2⁴⁰},
/// two workload seeds. 65,536 patterns (the largest accepted count) comes
/// with a width the server rejects: simulating it costs seconds per query
/// in a debug build, so the suite simulates it once, on a fixed entry.
fn draw(rng: &mut SplitMix, width: u64) -> Case {
    const YEARS: [f64; 5] = [0.0, -0.0, 1e-9, 3.004, 1e300];
    const PATTERNS: [u64; 4] = [1, MAX_COUNT as u64, MAX_COUNT as u64 + 1, 1 << 40];
    const REJECTED_WIDTHS: [u64; 8] = [0, 1, 65, 66, 67, 68, 69, 70];
    let patterns = rng.pick(&PATTERNS);
    Case {
        kind: rng.pick(&MultiplierKind::ALL),
        width: if patterns == MAX_COUNT as u64 {
            rng.pick(&REJECTED_WIDTHS)
        } else {
            width
        },
        years: rng.pick(&YEARS),
        patterns,
        seed: 1 + rng.next() % 2,
    }
}

/// 1,200 seeded hostile `profile` requests over one connection, drawn
/// from a pool of 70 queries (see [`draw`]): the width edges 0, 1, 2, 64,
/// 65 and 70, 63 widths drawn from 0–70, and 65,536 patterns on the
/// smallest design. Most requests repeat a pooled query, so they exercise
/// the query → key memo as well as the cold path.
#[test]
fn hostile_profile_requests_get_correct_results_or_typed_errors() {
    const CASES: u64 = 1_200;

    let mut rng = SplitMix(0x5eed_f022);
    let mut widths = vec![0, 1, 2, 64, 65, 70];
    widths.extend((0..63).map(|_| rng.next() % 71));
    let mut pool: Vec<Case> = widths.into_iter().map(|w| draw(&mut rng, w)).collect();
    pool.push(Case {
        kind: MultiplierKind::Array,
        width: 2,
        years: 0.0,
        patterns: MAX_COUNT as u64,
        seed: 1,
    });

    let server = spawn_tcp();
    let mut conn = TcpStream::connect(server.tcp_addr().expect("addr")).expect("connect");
    let designs = ServerState::new(None);
    // Expected summary per pool entry, computed on first use.
    let mut oracle: HashMap<usize, (f64, f64, f64)> = HashMap::new();
    let (mut results, mut errors) = (0, 0);

    for id in 0..CASES {
        let entry = (rng.next() % pool.len() as u64) as usize;
        let case = pool[entry];
        let frame = profile_frame(
            id,
            case.kind.label(),
            case.width,
            case.years,
            case.patterns,
            case.seed,
        );
        let response = roundtrip(&mut conn, &frame)
            .unwrap_or_else(|e| panic!("request {id} ({frame}) got no response: {e}"));

        let width = case.width as usize;
        if !(MIN_WIDTH..=MAX_WIDTH).contains(&width) {
            assert_typed_error(&response, id, "width");
            errors += 1;
            continue;
        }
        if case.patterns > MAX_COUNT as u64 {
            assert_typed_error(&response, id, "patterns");
            errors += 1;
            continue;
        }
        assert_eq!(response.get("id").and_then(Json::as_u64), Some(id));
        let result = response
            .get("result")
            .unwrap_or_else(|| panic!("request {id} ({frame}): {response}"));
        let field = |k: &str| result.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        let served = (field("ops"), field("avg_delay_ns"), field("max_delay_ns"));
        let want = *oracle
            .entry(entry)
            .or_insert_with(|| expected(&designs, &case));
        assert_eq!(served, want, "request {id} ({frame})");
        results += 1;
    }
    assert!(
        results > 200 && errors > 200,
        "{results} results, {errors} errors"
    );

    let after = stats(&mut conn);
    let result = after.get("result").expect("stats result");
    assert_eq!(
        result
            .get("flight")
            .and_then(|f| f.get("in_flight"))
            .and_then(Json::as_u64),
        Some(0)
    );
    drop(conn);
    server.shutdown().expect("clean shutdown");
}
