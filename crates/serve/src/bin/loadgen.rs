//! Load generator for `agemul-serve`: spawns an in-process server,
//! drives it with hundreds of concurrent design/workload combinations
//! over persistent TCP connections, and reports latency percentiles and
//! cache behavior.
//!
//! ```text
//! loadgen [--ops N] [--clients N] [--smoke] [--bench-out PATH] [--csv PATH]
//! ```
//!
//! Default run: ≥100k ops across 16 clients. Results land as JSONL rows
//! in `BENCH_sim.json` (`serve/warm_p50` etc.) and as a per-phase CSV in
//! `results/serve__loadgen.csv`. `--smoke` runs a small fast pass and
//! exits nonzero unless the run had zero errors, a nonzero hit rate, and
//! a clean shutdown — `just serve-smoke` wires it into verification.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use agemul::Json;
use agemul_serve::{roundtrip, spawn, Endpoint, ServeConfig};

/// One client's view of the run: latency samples split by how the server
/// satisfied the profile lookup, plus error/batch counters.
#[derive(Default)]
struct ClientStats {
    warm_ns: Vec<u64>,
    cold_ns: Vec<u64>,
    coalesced: u64,
    shed: u64,
    errors: Vec<String>,
    ops: u64,
}

struct Config {
    ops: u64,
    clients: usize,
    smoke: bool,
    bench_out: String,
    csv_out: String,
}

fn parse_args() -> Result<Config, String> {
    // Default concurrency tracks the machine: on a many-core box 16
    // clients exercise real parallelism, but oversubscribing a small box
    // would only measure scheduler queueing, not the server.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut config = Config {
        ops: 120_000,
        clients: (4 * cores).clamp(4, 16),
        smoke: false,
        bench_out: "BENCH_sim.json".into(),
        csv_out: "results/serve__loadgen.csv".into(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--ops" => {
                let v = args.next().ok_or("--ops needs a value")?;
                config.ops = v.parse().map_err(|_| format!("bad --ops value: {v}"))?;
                if config.ops == 0 {
                    return Err("--ops must be positive".into());
                }
            }
            "--clients" => {
                let v = args.next().ok_or("--clients needs a value")?;
                config.clients = v.parse().map_err(|_| format!("bad --clients value: {v}"))?;
                if config.clients == 0 {
                    return Err("--clients must be positive".into());
                }
            }
            "--smoke" => {
                config.smoke = true;
                config.ops = config.ops.min(4_000);
                config.clients = config.clients.min(8);
            }
            "--bench-out" => config.bench_out = args.next().ok_or("--bench-out needs a value")?,
            "--csv" => config.csv_out = args.next().ok_or("--csv needs a value")?,
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(config)
}

/// The combo grid: 5 architectures × widths × aging epochs × workload
/// seeds = 300 distinct (design, workload, year) cache keys.
fn combos() -> Vec<(String, usize, f64, usize, u64)> {
    let kinds = ["AM", "CB", "RB", "WAL", "BOOTH"];
    let widths = [4usize, 8];
    let years = [0.0f64, 3.0, 7.0];
    let seeds = [11u64, 23, 37, 53, 71, 89, 101, 131, 151, 173];
    let mut combos = Vec::new();
    for kind in kinds {
        for width in widths {
            for &years in &years {
                for &seed in &seeds {
                    combos.push((kind.to_string(), width, years, 24usize, seed));
                }
            }
        }
    }
    combos
}

fn profile_request(id: u64, combo: &(String, usize, f64, usize, u64)) -> Json {
    Json::Obj(vec![
        ("id".into(), Json::UInt(id)),
        ("op".into(), Json::Str("profile".into())),
        ("kind".into(), Json::Str(combo.0.clone())),
        ("width".into(), Json::UInt(combo.1 as u64)),
        ("years".into(), Json::Num(combo.2)),
        ("patterns".into(), Json::UInt(combo.3 as u64)),
        ("seed".into(), Json::UInt(combo.4)),
    ])
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Bounded connect retry: a freshly spawned (or momentarily saturated)
/// server can refuse or shed the first attempts; back off geometrically
/// and give up with the last error after [`CONNECT_ATTEMPTS`] tries
/// rather than retrying forever.
const CONNECT_ATTEMPTS: u32 = 5;
const CONNECT_BACKOFF_MS: u64 = 20;

fn connect_with_retry(addr: std::net::SocketAddr) -> Result<TcpStream, String> {
    let mut last = String::from("no attempt made");
    for attempt in 0..CONNECT_ATTEMPTS {
        if attempt > 0 {
            std::thread::sleep(std::time::Duration::from_millis(
                CONNECT_BACKOFF_MS << (attempt - 1),
            ));
        }
        match TcpStream::connect(addr) {
            Ok(stream) => match stream.set_nodelay(true) {
                Ok(()) => return Ok(stream),
                Err(e) => last = format!("nodelay: {e}"),
            },
            Err(e) => last = format!("connect: {e}"),
        }
    }
    Err(format!(
        "gave up after {CONNECT_ATTEMPTS} connect attempts (last: {last})"
    ))
}

fn client_loop(
    addr: std::net::SocketAddr,
    combos: &[(String, usize, f64, usize, u64)],
    my_ops: u64,
    client_index: usize,
    next_id: &AtomicU64,
) -> Result<ClientStats, String> {
    let mut stream = connect_with_retry(addr)?;
    let mut stats = ClientStats::default();
    let mut op = 0u64;
    while op < my_ops {
        // Every 64th frame is a batch of 4 to exercise the envelope; the
        // rest are single-request frames.
        let batch = op % 64 == 63 && my_ops - op >= 4;
        let n = if batch { 4 } else { 1 };
        let picks: Vec<&(String, usize, f64, usize, u64)> = (0..n)
            .map(|i| {
                // Deterministic combo pick, striped per client so all
                // clients hammer overlapping keys (cache + coalescer
                // pressure) without global coordination.
                let x = (op + i as u64)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(client_index as u64);
                &combos[(x % combos.len() as u64) as usize]
            })
            .collect();
        let requests: Vec<Json> = picks
            .iter()
            .map(|c| profile_request(next_id.fetch_add(1, Ordering::Relaxed), c))
            .collect();
        let frame = if batch {
            Json::Obj(vec![
                ("op".into(), Json::Str("batch".into())),
                ("requests".into(), Json::Arr(requests)),
            ])
        } else {
            requests.into_iter().next().ok_or("empty request batch")?
        };

        let start = Instant::now();
        let response = roundtrip(&mut stream, &frame).map_err(|e| format!("roundtrip: {e}"))?;
        let elapsed = start.elapsed().as_nanos() as u64;

        // An acceptor shed: the server answered `overloaded` and closed
        // the connection. Reconnect (bounded, with backoff) and retry the
        // same frame; give up after a cap so a permanently saturated
        // server fails the client rather than spinning forever.
        if response.get("overloaded").and_then(Json::as_bool) == Some(true) {
            stats.shed += 1;
            if stats.shed > 16 {
                return Err("shed more than 16 times; server stays saturated".into());
            }
            stream = connect_with_retry(addr)?;
            continue;
        }

        let singles: Vec<&Json> = if batch {
            response
                .get("responses")
                .and_then(Json::as_arr)
                .map(|a| a.iter().collect())
                .unwrap_or_default()
        } else {
            vec![&response]
        };
        // Batch latency is amortized over its requests; single frames
        // carry their own latency. p50/p99 come from single warm hits.
        let per_op_ns = elapsed / n as u64;
        for single in singles {
            stats.ops += 1;
            if single.get("ok").and_then(Json::as_bool) != Some(true) {
                let msg = single
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("malformed response")
                    .to_string();
                stats.errors.push(msg);
                continue;
            }
            match single
                .get("result")
                .and_then(|r| r.get("cache"))
                .and_then(Json::as_str)
            {
                Some("hit") => {
                    if !batch {
                        stats.warm_ns.push(per_op_ns);
                    }
                }
                Some("coalesced") => stats.coalesced += 1,
                _ => stats.cold_ns.push(per_op_ns),
            }
        }
        op += n as u64;
    }
    Ok(stats)
}

fn append_bench_rows(path: &str, rows: &[(String, f64)], samples: u64) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    for (id, ns) in rows {
        writeln!(
            file,
            "{{\"id\":\"{id}\",\"ns_per_iter\":{ns:.1},\"stddev_ns\":0.0,\"samples\":{samples},\"iters\":1}}"
        )?;
    }
    Ok(())
}

fn main() {
    let config = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("loadgen: {e}");
            std::process::exit(2);
        }
    };

    // Workers > clients so persistent connections can never starve the
    // pool (each worker owns one connection for its whole lifetime).
    let server = match spawn(ServeConfig {
        endpoint: Endpoint::Tcp("127.0.0.1:0".into()),
        workers: config.clients + 2,
        shard_capacity: Some(64),
        snapshot: None,
        max_retries: 1,
        ..ServeConfig::default()
    }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("loadgen: spawn failed: {e}");
            std::process::exit(1);
        }
    };
    let addr = match server.tcp_addr() {
        Some(a) => a,
        None => {
            eprintln!("loadgen: server has no TCP address");
            std::process::exit(1);
        }
    };

    let combos = combos();
    eprintln!(
        "loadgen: {} ops, {} clients, {} combos, server {addr}",
        config.ops,
        config.clients,
        combos.len()
    );

    let next_id = AtomicU64::new(1);
    let per_client = config.ops / config.clients as u64;
    let started = Instant::now();
    let results: Vec<Result<ClientStats, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.clients)
            .map(|i| {
                let combos = &combos;
                let next_id = &next_id;
                scope.spawn(move || client_loop(addr, combos, per_client, i, next_id))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall = started.elapsed();

    let mut warm: Vec<u64> = Vec::new();
    let mut cold: Vec<u64> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    let mut total_ops = 0u64;
    let mut coalesced_seen = 0u64;
    let mut shed_seen = 0u64;
    for result in results {
        match result {
            Ok(stats) => {
                warm.extend(stats.warm_ns);
                cold.extend(stats.cold_ns);
                errors.extend(stats.errors);
                total_ops += stats.ops;
                coalesced_seen += stats.coalesced;
                shed_seen += stats.shed;
            }
            Err(e) => errors.push(e),
        }
    }
    warm.sort_unstable();
    cold.sort_unstable();

    // Server-side cache stats over a final dedicated connection.
    let stats_frame = Json::Obj(vec![
        ("id".into(), Json::UInt(0)),
        ("op".into(), Json::Str("stats".into())),
    ]);
    let server_stats = TcpStream::connect(addr)
        .ok()
        .and_then(|mut s| roundtrip(&mut s, &stats_frame).ok())
        .and_then(|r| r.get("result").cloned());
    let (hits, misses) = server_stats
        .as_ref()
        .map(|s| {
            (
                s.get("hits").and_then(Json::as_u64).unwrap_or(0),
                s.get("misses").and_then(Json::as_u64).unwrap_or(0),
            )
        })
        .unwrap_or((0, 0));
    let hit_rate = if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64
    } else {
        0.0
    };

    let shutdown_clean = server.shutdown().is_ok();

    let warm_p50 = percentile(&warm, 0.50);
    let warm_p99 = percentile(&warm, 0.99);
    let cold_p50 = percentile(&cold, 0.50);
    let throughput = total_ops as f64 / wall.as_secs_f64().max(1e-9);

    println!("loadgen results");
    println!(
        "  ops:            {total_ops} in {:.2}s ({throughput:.0} ops/s)",
        wall.as_secs_f64()
    );
    println!(
        "  warm p50/p99:   {warm_p50} ns / {warm_p99} ns ({} samples)",
        warm.len()
    );
    println!("  cold p50:       {cold_p50} ns ({} samples)", cold.len());
    println!(
        "  hit rate:       {:.4} ({hits} hits / {misses} misses)",
        hit_rate
    );
    println!("  coalesced:      {coalesced_seen} (client-observed)");
    println!("  shed+retried:   {shed_seen}");
    println!("  errors:         {}", errors.len());
    println!("  clean shutdown: {shutdown_clean}");
    for e in errors.iter().take(5) {
        eprintln!("  error sample: {e}");
    }

    if !config.smoke {
        let rows = vec![
            ("serve/warm_p50".to_string(), warm_p50 as f64),
            ("serve/warm_p99".to_string(), warm_p99 as f64),
            ("serve/cold_p50".to_string(), cold_p50 as f64),
        ];
        if let Err(e) = append_bench_rows(&config.bench_out, &rows, warm.len() as u64) {
            eprintln!("loadgen: bench write failed: {e}");
        }
        let csv = format!(
            "metric,value\nops,{total_ops}\nwall_s,{:.3}\nthroughput_ops_s,{throughput:.0}\nwarm_p50_ns,{warm_p50}\nwarm_p99_ns,{warm_p99}\ncold_p50_ns,{cold_p50}\nhit_rate,{hit_rate:.4}\nhits,{hits}\nmisses,{misses}\ncoalesced_client_observed,{coalesced_seen}\nerrors,{}\nclients,{}\n",
            wall.as_secs_f64(),
            errors.len(),
            config.clients,
        );
        if let Some(parent) = std::path::Path::new(&config.csv_out).parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = std::fs::write(&config.csv_out, csv) {
            eprintln!("loadgen: csv write failed: {e}");
        }
    }

    let ok = errors.is_empty() && hit_rate > 0.0 && shutdown_clean && total_ops > 0;
    if config.smoke {
        if ok {
            println!("serve-smoke: OK");
        } else {
            eprintln!("serve-smoke: FAILED (errors={}, hit_rate={hit_rate:.4}, clean_shutdown={shutdown_clean})", errors.len());
        }
    }
    std::process::exit(i32::from(!ok));
}
