//! Overload-shedding contract over real TCP sockets.
//!
//! A one-worker server pinned by a deliberately slow client must shed
//! excess connections with a typed `overloaded` frame (fast), serve the
//! admitted backlog once the stall budget disconnects the offender, and
//! keep accepting fresh work afterwards — i.e. saturation never wedges
//! the process.

use std::io::Write as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use agemul::Json;
use agemul_serve::chaos::overload_probe;
use agemul_serve::{read_frame, spawn, write_frame, ServeConfig};

fn stats_frame(id: u64) -> Json {
    Json::Obj(vec![
        ("id".into(), Json::UInt(id)),
        ("op".into(), Json::Str("stats".into())),
    ])
}

/// The full probe: flood a pinned one-worker server and hold every
/// invariant — typed sheds under 10 ms p99, admitted requests served
/// after the budget fires, the slow client disconnected with a typed
/// error, and the shed counter visible in stats.
#[test]
fn saturated_server_sheds_typed_and_recovers() {
    let report = overload_probe(12);
    assert!(
        report.passed(),
        "overload probe violations: {:?}",
        report.violations
    );
    assert!(
        report.notes.iter().any(|n| n.contains("shed")),
        "probe recorded no shed note: {:?}",
        report.notes
    );
}

/// Shape of the shed frame itself: a connection rejected at admission
/// gets `ok:false`, `overloaded:true`, a retryable error string, and the
/// socket is closed immediately after — and the server still answers a
/// later request on a fresh connection.
#[test]
fn shed_frame_is_typed_and_server_stays_alive() {
    let stall_budget = Duration::from_millis(300);
    let server = spawn(ServeConfig {
        workers: 1,
        admission_queue: 1,
        stall_budget,
        shard_capacity: Some(8),
        ..ServeConfig::default()
    })
    .expect("spawn");
    let addr = server.tcp_addr().expect("tcp addr");

    // Pin the worker with a half-written length prefix.
    let mut slow = TcpStream::connect(addr).expect("slow connect");
    slow.set_read_timeout(Some(stall_budget + Duration::from_secs(2)))
        .expect("slow timeout");
    slow.write_all(&[0, 0]).expect("partial prefix");
    std::thread::sleep(Duration::from_millis(100));

    // Fill the admission queue, then collect one guaranteed shed. With
    // the worker pinned and depth 1, at most one connection is queued —
    // the rest must be shed, each with the typed frame.
    let mut keep: Vec<TcpStream> = Vec::new();
    let mut shed_seen = 0usize;
    for _ in 0..6 {
        let t0 = Instant::now();
        let mut conn = TcpStream::connect(addr).expect("flood connect");
        conn.set_read_timeout(Some(stall_budget + Duration::from_secs(2)))
            .expect("flood timeout");
        write_frame(&mut conn, &stats_frame(3)).expect("flood write");
        // A shed answer arrives immediately; a queued connection stays
        // silent until the worker frees up, so peek with a short poll.
        conn.set_read_timeout(Some(Duration::from_millis(50)))
            .expect("poll timeout");
        match read_frame(&mut conn) {
            Ok(Some(response)) => {
                let elapsed = t0.elapsed();
                assert_eq!(
                    response.get("overloaded").and_then(Json::as_bool),
                    Some(true),
                    "fast answer from a saturated server must be the shed frame: {response}"
                );
                assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
                let error = response
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or_default();
                assert!(
                    error.contains("overloaded") && error.contains("retry"),
                    "shed error must be typed and retryable: {error}"
                );
                assert!(
                    elapsed < Duration::from_millis(500),
                    "shed took {elapsed:?}"
                );
                // The shed socket is closed server-side right after.
                let mut rest = conn;
                rest.set_read_timeout(Some(Duration::from_millis(200)))
                    .expect("close timeout");
                assert!(
                    matches!(read_frame(&mut rest), Ok(None) | Err(_)),
                    "shed socket must be closed after the frame"
                );
                shed_seen += 1;
            }
            Ok(None) => panic!("connection closed without any frame"),
            // Silence: this one was admitted and is waiting its turn.
            Err(_) => {
                conn.set_read_timeout(Some(stall_budget + Duration::from_secs(2)))
                    .expect("restore timeout");
                keep.push(conn);
            }
        }
    }
    assert!(shed_seen > 0, "no connection was shed at admission");
    assert!(!keep.is_empty(), "no connection was admitted to the queue");

    // The slow client is cut loose with a typed error once the budget
    // fires, and the queued connections then get real answers.
    match read_frame(&mut slow) {
        Ok(Some(response)) => {
            assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
            let error = response
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or_default();
            assert!(error.contains("slow client"), "got: {error}");
        }
        other => panic!("slow client was not answered: {other:?}"),
    }
    for mut conn in keep {
        let response = read_frame(&mut conn)
            .expect("queued read")
            .expect("queued frame");
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(true),
            "queued request must be served after the budget fires: {response}"
        );
    }

    // Fresh work still flows, and the shed counter is visible in stats.
    let mut probe = TcpStream::connect(addr).expect("fresh connect");
    probe
        .set_read_timeout(Some(Duration::from_secs(2)))
        .expect("fresh timeout");
    write_frame(&mut probe, &stats_frame(9)).expect("fresh write");
    let response = read_frame(&mut probe).expect("fresh read").expect("frame");
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    let shed_stat = response
        .get("result")
        .and_then(|r| r.get("shed"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert!(
        shed_stat >= shed_seen as u64,
        "stats shed counter {shed_stat} < observed {shed_seen}"
    );
    assert_eq!(server.state().shed(), shed_stat);
    server.shutdown().expect("shutdown");
}
