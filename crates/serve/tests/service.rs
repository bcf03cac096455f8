//! End-to-end service tests: real sockets, real frames, real shutdown.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::sync::Barrier;

use agemul::{Json, SimEngine};
use agemul_circuits::MultiplierKind;
use agemul_serve::{
    roundtrip, spawn, CacheOutcome, DesignQuery, Endpoint, ServeConfig, ServerState,
};

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

fn cache_label(response: &Json) -> &str {
    response
        .get("result")
        .and_then(|r| r.get("cache"))
        .and_then(Json::as_str)
        .unwrap_or("?")
}

fn spawn_tcp(snapshot: Option<std::path::PathBuf>) -> agemul_serve::ServerHandle {
    spawn(ServeConfig {
        endpoint: Endpoint::Tcp("127.0.0.1:0".into()),
        workers: 4,
        shard_capacity: Some(16),
        snapshot,
        max_retries: 1,
        ..ServeConfig::default()
    })
    .expect("spawn")
}

#[test]
fn tcp_profile_miss_then_hit_then_sweep_and_campaign() {
    let server = spawn_tcp(None);
    let addr = server.tcp_addr().expect("tcp addr");
    let mut conn = TcpStream::connect(addr).expect("connect");

    // Cold profile simulates; the repeat is served from cache.
    let first = roundtrip(&mut conn, &profile_frame(1, "CB", 8, 0.0, 24, 11)).unwrap();
    assert_eq!(
        first.get("ok").and_then(Json::as_bool),
        Some(true),
        "{first}"
    );
    assert_eq!(cache_label(&first), "miss");
    assert_eq!(first.get("id").and_then(Json::as_u64), Some(1));
    assert_eq!(first.get("retries").and_then(Json::as_u64), Some(0));
    assert!(first.get("engine").is_none() && first.get("degraded").is_none());

    let again = roundtrip(&mut conn, &profile_frame(2, "CB", 8, 0.0, 24, 11)).unwrap();
    assert_eq!(cache_label(&again), "hit");
    let (a, b) = (
        first
            .get("result")
            .and_then(|r| r.get("avg_delay_ns"))
            .and_then(Json::as_f64),
        again
            .get("result")
            .and_then(|r| r.get("avg_delay_ns"))
            .and_then(Json::as_f64),
    );
    assert_eq!(a, b, "cached profile must match the simulated one");

    // A sweep over the now-warm profile returns per-period points.
    let sweep = Json::Obj(vec![
        ("id".into(), Json::UInt(3)),
        ("op".into(), Json::Str("sweep".into())),
        ("kind".into(), Json::Str("CB".into())),
        ("width".into(), Json::UInt(8)),
        ("years".into(), Json::Num(0.0)),
        ("patterns".into(), Json::UInt(24)),
        ("seed".into(), Json::UInt(11)),
        (
            "periods".into(),
            Json::Arr(vec![Json::Num(1.5), Json::Num(2.5), Json::Num(4.0)]),
        ),
        ("skip".into(), Json::UInt(7)),
    ]);
    let sweep = roundtrip(&mut conn, &sweep).unwrap();
    assert_eq!(
        sweep.get("ok").and_then(Json::as_bool),
        Some(true),
        "{sweep}"
    );
    assert_eq!(
        cache_label(&sweep),
        "hit",
        "sweep reuses the cached profile"
    );
    let points = sweep
        .get("result")
        .and_then(|r| r.get("points"))
        .and_then(Json::as_arr)
        .expect("points");
    assert_eq!(points.len(), 3);
    assert!(sweep
        .get("result")
        .and_then(|r| r.get("best_period_ns"))
        .and_then(Json::as_f64)
        .is_some());

    // A small campaign runs and reports.
    let campaign = Json::Obj(vec![
        ("id".into(), Json::UInt(4)),
        ("op".into(), Json::Str("campaign".into())),
        ("kind".into(), Json::Str("CB".into())),
        ("width".into(), Json::UInt(8)),
        ("years".into(), Json::Num(0.0)),
        ("patterns".into(), Json::UInt(24)),
        ("seed".into(), Json::UInt(11)),
        ("faults".into(), Json::UInt(3)),
        ("fault_seed".into(), Json::UInt(5)),
        ("skip".into(), Json::UInt(7)),
    ]);
    let campaign = roundtrip(&mut conn, &campaign).unwrap();
    assert_eq!(
        campaign.get("ok").and_then(Json::as_bool),
        Some(true),
        "{campaign}"
    );

    // Stats reflect the traffic.
    let stats = roundtrip(
        &mut conn,
        &Json::Obj(vec![
            ("id".into(), Json::UInt(5)),
            ("op".into(), Json::Str("stats".into())),
        ]),
    )
    .unwrap();
    let result = stats.get("result").expect("stats result");
    assert!(result.get("misses").and_then(Json::as_u64).unwrap_or(0) >= 1);
    assert!(result.get("hits").and_then(Json::as_u64).unwrap_or(0) >= 1);

    // The per-shard breakdown sums back to the global tallies, and the
    // flight object carries the coalescer counters.
    let shards = result
        .get("shards")
        .and_then(Json::as_arr)
        .expect("shards array");
    assert!(!shards.is_empty());
    for field in ["hits", "misses", "evictions"] {
        let total: u64 = shards
            .iter()
            .map(|s| s.get(field).and_then(Json::as_u64).expect(field))
            .sum();
        assert_eq!(Some(total), result.get(field).and_then(Json::as_u64));
    }
    let flight = result.get("flight").expect("flight object");
    assert!(flight.get("led").and_then(Json::as_u64).is_some());
    assert!(flight.get("coalesced").and_then(Json::as_u64).is_some());

    drop(conn);
    server.shutdown().expect("clean shutdown");
}

#[test]
fn mc_op_returns_yield_curves() {
    let server = spawn_tcp(None);
    let mut conn = TcpStream::connect(server.tcp_addr().unwrap()).unwrap();
    let frame = Json::Obj(vec![
        ("id".into(), Json::UInt(1)),
        ("op".into(), Json::Str("mc".into())),
        ("kind".into(), Json::Str("CB".into())),
        ("width".into(), Json::UInt(8)),
        // `years` is the maximum lifetime: points 0, 1, 2.
        ("years".into(), Json::Num(2.0)),
        ("patterns".into(), Json::UInt(24)),
        ("seed".into(), Json::UInt(11)),
        ("corners".into(), Json::UInt(4)),
        ("sigma".into(), Json::Num(0.05)),
        ("mc_seed".into(), Json::UInt(7)),
        ("skip".into(), Json::UInt(3)),
    ]);
    let response = roundtrip(&mut conn, &frame).unwrap();
    assert_eq!(
        response.get("ok").and_then(Json::as_bool),
        Some(true),
        "{response}"
    );
    let result = response.get("result").expect("mc result");
    assert_eq!(result.get("corners").and_then(Json::as_u64), Some(4));
    let years = result.get("years").and_then(Json::as_arr).expect("years");
    assert_eq!(years.len(), 3);
    let baseline = result
        .get("baseline_yield")
        .and_then(Json::as_arr)
        .expect("baseline curve");
    let ahl = result
        .get("ahl_yield")
        .and_then(Json::as_arr)
        .expect("ahl curve");
    assert_eq!((baseline.len(), ahl.len()), (3, 3));
    for (b, a) in baseline.iter().zip(ahl) {
        let (b, a) = (b.as_f64().unwrap(), a.as_f64().unwrap());
        assert!((0.0..=1.0).contains(&b) && (0.0..=1.0).contains(&a));
        assert!(a + 1e-12 >= b, "AHL yield must dominate the baseline");
    }

    // Sigma is validated at the protocol boundary.
    let mut bad = frame.clone();
    if let Json::Obj(pairs) = &mut bad {
        for (k, v) in pairs.iter_mut() {
            if k == "sigma" {
                *v = Json::Num(-0.5);
            }
        }
    }
    let rejected = roundtrip(&mut conn, &bad).unwrap();
    assert_eq!(rejected.get("ok").and_then(Json::as_bool), Some(false));

    drop(conn);
    server.shutdown().unwrap();
}

#[test]
fn fleet_op_returns_a_policy_summary() {
    let server = spawn_tcp(None);
    let mut conn = TcpStream::connect(server.tcp_addr().unwrap()).unwrap();
    let frame = Json::Obj(vec![
        ("id".into(), Json::UInt(1)),
        ("op".into(), Json::Str("fleet".into())),
        ("kind".into(), Json::Str("CB".into())),
        ("width".into(), Json::UInt(8)),
        // For the fleet op `years` is the aging per epoch at fair
        // utilization and `patterns` the operations routed per epoch.
        ("years".into(), Json::Num(1.0)),
        ("patterns".into(), Json::UInt(48)),
        ("seed".into(), Json::UInt(0x0A6E_0005)),
        ("nodes".into(), Json::UInt(2)),
        ("epochs".into(), Json::UInt(2)),
        ("policy".into(), Json::Str("aging-aware".into())),
        ("skip".into(), Json::UInt(7)),
    ]);
    let response = roundtrip(&mut conn, &frame).unwrap();
    assert_eq!(
        response.get("ok").and_then(Json::as_bool),
        Some(true),
        "{response}"
    );
    let result = response.get("result").expect("fleet summary");
    assert_eq!(
        result.get("policy").and_then(Json::as_str),
        Some("aging-aware")
    );
    assert_eq!(result.get("nodes").and_then(Json::as_u64), Some(2));
    assert_eq!(result.get("epochs").and_then(Json::as_u64), Some(2));
    assert_eq!(
        result.get("completed_ops").and_then(Json::as_u64),
        Some(2 * 48),
        "every routed op completes on a healthy two-node fleet"
    );
    assert!(result.get("log_hash").and_then(Json::as_u64).is_some());
    let reports = result
        .get("node_reports")
        .and_then(Json::as_arr)
        .expect("per-node reports");
    assert_eq!(reports.len(), 2);

    // Determinism across connections: the same frame replays to the same
    // event-log hash.
    let replay = roundtrip(&mut conn, &frame).unwrap();
    assert_eq!(
        replay
            .get("result")
            .and_then(|r| r.get("log_hash"))
            .and_then(Json::as_u64),
        result.get("log_hash").and_then(Json::as_u64)
    );

    // Unknown routing labels are rejected without killing the connection.
    let mut bad = frame.clone();
    if let Json::Obj(pairs) = &mut bad {
        for (k, v) in pairs.iter_mut() {
            if k == "policy" {
                *v = Json::Str("clairvoyant".into());
            }
        }
    }
    let rejected = roundtrip(&mut conn, &bad).unwrap();
    assert_eq!(rejected.get("ok").and_then(Json::as_bool), Some(false));

    drop(conn);
    server.shutdown().unwrap();
}

#[test]
fn batch_envelope_returns_ordered_responses() {
    let server = spawn_tcp(None);
    let mut conn = TcpStream::connect(server.tcp_addr().unwrap()).unwrap();
    let batch = Json::Obj(vec![
        ("op".into(), Json::Str("batch".into())),
        (
            "requests".into(),
            Json::Arr(vec![
                profile_frame(10, "AM", 4, 0.0, 16, 7),
                profile_frame(11, "AM", 4, 0.0, 16, 7),
                Json::Obj(vec![
                    ("id".into(), Json::UInt(12)),
                    ("op".into(), Json::Str("bogus".into())),
                ]),
            ]),
        ),
    ]);
    let response = roundtrip(&mut conn, &batch).unwrap();
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    let responses = response
        .get("responses")
        .and_then(Json::as_arr)
        .expect("responses array");
    assert_eq!(responses.len(), 3);
    assert_eq!(responses[0].get("id").and_then(Json::as_u64), Some(10));
    assert_eq!(cache_label(&responses[0]), "miss");
    assert_eq!(responses[1].get("id").and_then(Json::as_u64), Some(11));
    assert_eq!(cache_label(&responses[1]), "hit");
    assert_eq!(responses[2].get("ok").and_then(Json::as_bool), Some(false));
    assert!(responses[2]
        .get("error")
        .and_then(Json::as_str)
        .unwrap_or("")
        .contains("unknown op"));
    drop(conn);
    server.shutdown().unwrap();
}

/// Concurrent clients, each on its own persistent TCP connection to one
/// server (`workers = clients + 2`, so no connection waits for a worker),
/// send overlapping `profile` keys over all five kinds at widths 4 and 8,
/// mixing single frames with 4-request batch frames. Every response is
/// `ok`; single-flight plus a cache that holds the whole grid make the
/// server's misses exactly the distinct keys, the rest are hits or
/// coalesced; and the server shuts down cleanly.
#[test]
fn concurrent_clients_share_one_cache_over_tcp() {
    const CLIENTS: usize = 4;
    const FRAMES: usize = 48;
    let grid: Vec<(&str, u64, f64)> = ["AM", "CB", "RB", "WAL", "BOOTH"]
        .into_iter()
        .flat_map(|kind| [(kind, 4), (kind, 8)])
        .flat_map(|(kind, width)| [(kind, width, 0.0), (kind, width, 7.0)])
        .collect();
    let server = spawn(ServeConfig {
        endpoint: Endpoint::Tcp("127.0.0.1:0".into()),
        workers: CLIENTS + 2,
        shard_capacity: Some(64),
        max_retries: 1,
        ..ServeConfig::default()
    })
    .expect("spawn");
    let addr = server.tcp_addr().expect("tcp addr");

    // Every client is connected before any sends, so cold keys see
    // concurrent demand.
    let start = Barrier::new(CLIENTS);
    let picked: Vec<Vec<usize>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (grid, start) = (&grid, &start);
                scope.spawn(move || {
                    let mut conn = TcpStream::connect(addr).expect("connect");
                    start.wait();
                    let mut picked = Vec::new();
                    for frame in 0..FRAMES {
                        // Every third frame is a 4-request batch envelope.
                        let n = if frame % 3 == 2 { 4 } else { 1 };
                        let requests: Vec<Json> = (0..n)
                            .map(|i| {
                                let pick = (5 * client + 3 * frame + i) % grid.len();
                                picked.push(pick);
                                let (kind, width, years) = grid[pick];
                                profile_frame(picked.len() as u64, kind, width, years, 16, 11)
                            })
                            .collect();
                        let responses = if n == 1 {
                            vec![roundtrip(&mut conn, &requests[0]).expect("roundtrip")]
                        } else {
                            let batch = Json::Obj(vec![
                                ("op".into(), Json::Str("batch".into())),
                                ("requests".into(), Json::Arr(requests)),
                            ]);
                            let envelope = roundtrip(&mut conn, &batch).expect("roundtrip");
                            envelope
                                .get("responses")
                                .and_then(Json::as_arr)
                                .expect("responses array")
                                .to_vec()
                        };
                        assert_eq!(responses.len(), n);
                        for response in &responses {
                            assert_eq!(
                                response.get("ok").and_then(Json::as_bool),
                                Some(true),
                                "{response}"
                            );
                        }
                    }
                    picked
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut distinct: Vec<usize> = picked.iter().flatten().copied().collect();
    let ops = distinct.len();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(
        distinct.len(),
        grid.len(),
        "the clients span the whole grid"
    );

    let mut conn = TcpStream::connect(addr).expect("connect");
    let stats_frame = Json::Obj(vec![
        ("id".into(), Json::UInt(0)),
        ("op".into(), Json::Str("stats".into())),
    ]);
    let stats = roundtrip(&mut conn, &stats_frame).unwrap();
    let counter = |name: &str| {
        stats
            .get("result")
            .and_then(|r| r.get(name))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("stats lacks {name}: {stats}"))
    };
    assert_eq!(
        counter("misses"),
        grid.len() as u64,
        "one simulation per key"
    );
    assert!(counter("hits") > 0, "{stats}");
    assert_eq!(
        counter("hits") + counter("coalesced"),
        (ops - grid.len()) as u64
    );
    drop(conn);
    server.shutdown().expect("clean shutdown");
}

#[test]
fn malformed_requests_get_error_responses_not_disconnects() {
    let server = spawn_tcp(None);
    let mut conn = TcpStream::connect(server.tcp_addr().unwrap()).unwrap();

    // Unknown op, bad kind, zero deadline: each gets ok=false and the
    // connection stays usable.
    let cases = [
        Json::Obj(vec![
            ("id".into(), Json::UInt(1)),
            ("op".into(), Json::Str("nope".into())),
        ]),
        profile_frame(2, "XX", 8, 0.0, 24, 1),
        Json::Obj(vec![
            ("id".into(), Json::UInt(3)),
            ("op".into(), Json::Str("stats".into())),
            ("deadline_ms".into(), Json::UInt(0)),
        ]),
    ];
    for frame in &cases {
        let response = roundtrip(&mut conn, frame).unwrap();
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(false),
            "{response}"
        );
        assert!(response.get("error").and_then(Json::as_str).is_some());
    }
    // Still alive after three rejected frames.
    let ok = roundtrip(&mut conn, &profile_frame(4, "AM", 4, 0.0, 16, 1)).unwrap();
    assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));
    drop(conn);
    server.shutdown().unwrap();
}

#[test]
fn impossible_deadline_is_quarantined_into_an_error_response() {
    let server = spawn_tcp(None);
    let mut conn = TcpStream::connect(server.tcp_addr().unwrap()).unwrap();
    // A 1ms budget cannot cover a 2k-pattern aged Booth profile (hundreds
    // of milliseconds in the debug test profile); the supervisor burns its
    // retries, then quarantines — the client sees an error, not a hang.
    let mut frame = profile_frame(1, "BOOTH", 8, 7.0, 2_000, 3);
    if let Json::Obj(pairs) = &mut frame {
        pairs.push(("deadline_ms".into(), Json::UInt(1)));
    }
    // A fault campaign polls the deadline through its preparation too.
    let campaign = Json::Obj(vec![
        ("id".into(), Json::UInt(3)),
        ("op".into(), Json::Str("campaign".into())),
        ("kind".into(), Json::Str("BOOTH".into())),
        ("width".into(), Json::UInt(8)),
        ("years".into(), Json::Num(0.0)),
        ("patterns".into(), Json::UInt(2_000)),
        ("seed".into(), Json::UInt(3)),
        ("faults".into(), Json::UInt(4)),
        ("fault_seed".into(), Json::UInt(5)),
        ("skip".into(), Json::UInt(7)),
        ("deadline_ms".into(), Json::UInt(1)),
    ]);
    for frame in [frame, campaign] {
        let response = roundtrip(&mut conn, &frame).unwrap();
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(false),
            "{response}"
        );
        assert!(
            response
                .get("error")
                .and_then(Json::as_str)
                .is_some_and(|e| e.contains("deadline exceeded")),
            "{response}"
        );
    }

    // The failure was not cached: without the deadline the same query
    // simulates fine.
    let retry = roundtrip(&mut conn, &profile_frame(2, "BOOTH", 8, 7.0, 2_000, 3)).unwrap();
    assert_eq!(
        retry.get("ok").and_then(Json::as_bool),
        Some(true),
        "{retry}"
    );
    assert_eq!(cache_label(&retry), "miss");
    drop(conn);
    server.shutdown().unwrap();
}

#[test]
fn unix_socket_serves_and_cleans_up() {
    let path = std::env::temp_dir().join(format!("agemul-serve-{}.sock", std::process::id()));
    let server = spawn(ServeConfig {
        endpoint: Endpoint::Unix(path.clone()),
        workers: 2,
        shard_capacity: Some(8),
        snapshot: None,
        max_retries: 1,
        ..ServeConfig::default()
    })
    .expect("spawn unix");
    let mut conn = std::os::unix::net::UnixStream::connect(&path).expect("connect unix");
    let response = roundtrip(&mut conn, &profile_frame(1, "RB", 4, 0.0, 16, 9)).unwrap();
    assert_eq!(
        response.get("ok").and_then(Json::as_bool),
        Some(true),
        "{response}"
    );
    drop(conn);
    server.shutdown().unwrap();
    assert!(!path.exists(), "socket file removed on shutdown");
}

#[test]
fn shutdown_op_stops_the_server() {
    let server = spawn_tcp(None);
    let addr = server.tcp_addr().unwrap();
    let client = std::thread::spawn(move || {
        let mut conn = TcpStream::connect(addr).unwrap();
        let response = roundtrip(
            &mut conn,
            &Json::Obj(vec![
                ("id".into(), Json::UInt(1)),
                ("op".into(), Json::Str("shutdown".into())),
            ]),
        )
        .unwrap();
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    });
    // The op alone must bring the server down.
    server.run_until_shutdown().expect("run until shutdown");
    client.join().unwrap();
}

#[test]
fn shutdown_drains_even_with_an_idle_client_attached() {
    let server = spawn_tcp(None);
    let conn = TcpStream::connect(server.tcp_addr().unwrap()).unwrap();
    // The idle connection sends nothing; the worker's read timeout lets
    // it observe the stop flag instead of blocking shutdown forever.
    server.shutdown().expect("shutdown with idle client");
    drop(conn);
}

#[test]
fn snapshot_warm_start_serves_first_request_from_cache() {
    let dir = std::env::temp_dir().join(format!("agemul-serve-warm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("cache.snap.json");

    let first = spawn_tcp(Some(snap.clone()));
    let mut conn = TcpStream::connect(first.tcp_addr().unwrap()).unwrap();
    let cold = roundtrip(&mut conn, &profile_frame(1, "WAL", 8, 7.0, 24, 13)).unwrap();
    assert_eq!(cache_label(&cold), "miss");
    let cold_avg = cold
        .get("result")
        .and_then(|r| r.get("avg_delay_ns"))
        .and_then(Json::as_f64)
        .unwrap();
    drop(conn);
    first.shutdown().expect("first shutdown saves snapshot");
    assert!(snap.exists(), "snapshot written");

    // A brand-new process (state) starts warm: the same query hits.
    let second = spawn_tcp(Some(snap.clone()));
    let mut conn = TcpStream::connect(second.tcp_addr().unwrap()).unwrap();
    let warm = roundtrip(&mut conn, &profile_frame(2, "WAL", 8, 7.0, 24, 13)).unwrap();
    assert_eq!(cache_label(&warm), "hit", "{warm}");
    let warm_avg = warm
        .get("result")
        .and_then(|r| r.get("avg_delay_ns"))
        .and_then(Json::as_f64)
        .unwrap();
    assert_eq!(cold_avg, warm_avg, "snapshot round-trip is lossless");
    drop(conn);
    second.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A warm-start snapshot written before the Level→Event fallback was
/// retired, its entry still carrying `"engine"` and `"degraded"`, loads
/// under the unchanged schema: the query it was saved from (CB 4×4, 7
/// years, 8 pairs, seed 3) is a cache hit.
#[test]
fn snapshot_written_before_the_rung_removal_warm_starts() {
    const FIXTURE: &str = include_str!("fixtures/serve-before-rung-removal.snap.json");
    assert!(FIXTURE.contains(r#""engine":"level""#) && FIXTURE.contains(r#""degraded":false"#));
    let snap = std::env::temp_dir().join(format!("agemul-serve-legacy-{}", std::process::id()));
    std::fs::write(&snap, FIXTURE).unwrap();
    let server = spawn_tcp(Some(snap.clone()));
    let mut conn = TcpStream::connect(server.tcp_addr().unwrap()).unwrap();
    let warm = roundtrip(&mut conn, &profile_frame(1, "CB", 4, 7.0, 8, 3)).unwrap();
    assert_eq!(cache_label(&warm), "hit", "{warm}");
    drop(conn);
    server.shutdown().unwrap();
    std::fs::remove_file(&snap).ok();
}

#[test]
fn corrupt_snapshot_fails_spawn_loudly() {
    let dir = std::env::temp_dir().join(format!("agemul-serve-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("cache.snap.json");
    let mut file = std::fs::File::create(&snap).unwrap();
    file.write_all(b"not a checkpoint").unwrap();
    drop(file);
    let err = spawn(ServeConfig {
        endpoint: Endpoint::Tcp("127.0.0.1:0".into()),
        workers: 1,
        shard_capacity: Some(8),
        snapshot: Some(snap),
        max_retries: 0,
        ..ServeConfig::default()
    });
    assert!(err.is_err(), "corrupt warm start must not be ignored");
    std::fs::remove_dir_all(&dir).ok();
}

/// State-level single-flight proof: N threads release on a barrier and
/// demand the same cold profile; the cache records exactly one simulation
/// and every thread shares the same `Arc`.
#[test]
fn concurrent_cold_demand_simulates_once() {
    const N: usize = 8;
    let state = Arc::new(ServerState::new(Some(16)));
    let query = DesignQuery {
        kind: MultiplierKind::ColumnBypass,
        width: 8,
        years: 7.0,
        patterns: 512,
        seed: 21,
    };
    let barrier = Arc::new(Barrier::new(N));
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N)
            .map(|_| {
                let state = Arc::clone(&state);
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    state.profile(&query, SimEngine::Level, None).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(state.cache().misses(), 1, "exactly one simulation");
    let misses = results
        .iter()
        .filter(|(_, how)| *how == CacheOutcome::Miss)
        .count();
    assert_eq!(misses, 1);
    let first = &results[0].0;
    for (profile, _) in &results {
        assert!(Arc::ptr_eq(first, profile), "all threads share one Arc");
    }
    // Everyone else either coalesced onto the in-flight build or hit the
    // already-populated cache — never a second simulation.
    let others = results
        .iter()
        .filter(|(_, how)| matches!(how, CacheOutcome::Hit | CacheOutcome::Coalesced))
        .count();
    assert_eq!(others, N - 1);
}
