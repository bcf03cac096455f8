//! `serve-open`: the resident service under open-loop load. An in-process
//! `agemul_serve` server with two workers answers Poisson arrivals sent by
//! one client on one persistent TCP connection; every request is timed from
//! its due time. It is the only workload that exercises transport, framing,
//! batching and the supervised request path.
//!
//! The request mix is the one the service's own `loadgen` sends: profile
//! queries picked uniformly from its grid of 300 cache keys (5 kinds ×
//! widths 4, 8 × years 0, 3, 7 × 10 workload seeds, 24 patterns each), with
//! one 4-request batch per 64 requests. Only the seeds and the picks come
//! from `--seed` here. Set-up profiles the whole grid, so the measured
//! phases see the resident steady state.
//!
//! An untraced run has two phases: loaded, at a fixed Poisson rate, which
//! gives the end-to-end latencies, then saturation, where the client keeps
//! several frames in flight, which gives the sustained rate. A traced run
//! has a light and a loaded phase, for the per-layer readings. The rates
//! and the SLO were calibrated once on a 2-core host and are frozen here;
//! the README records why.
//!
//! The whole run shares one CPU (the benchmark pins it) and the client
//! spins while it waits for a due time, so the host never sees the CPU go
//! idle between requests: each request is handed from client to worker and
//! back on one core, and its latency is the service's, not the time a
//! sleeping virtual CPU took to wake.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use agemul::SimEngine;
use agemul_circuits::MultiplierKind;
use agemul_conformance::Json;
use agemul_serve::{
    read_frame, roundtrip, spawn, write_frame, DesignQuery, Endpoint, Request, RequestBody,
    ServeConfig, ServerHandle, ServerState,
};

use super::{Check, Opts, Outcome};
use crate::metrics::{median, percentile, tail, Digest, Readings};
use crate::openloop::{drive, poisson, Clock, Sample, WallClock};
use crate::record::peak_rss_mb;
use crate::rng::{derive, Rng};
use crate::trace::{self, Span, Tracer};

struct Sizes {
    kinds: &'static [MultiplierKind],
    /// Workload seeds per (kind, width, year).
    seeds: usize,
    patterns: usize,
    light_rps: f64,
    loaded_rps: f64,
    slo: Duration,
    /// Requests at the head of the stream whose results enter the digest.
    digest_requests: u64,
    /// One request in this many is re-run in-process and compared.
    check_every: u64,
}

impl Sizes {
    fn new(smoke: bool) -> Self {
        if smoke {
            Sizes {
                kinds: &MultiplierKind::PAPER,
                seeds: 2,
                patterns: 8,
                light_rps: 100.0,
                loaded_rps: 200.0,
                slo: Duration::from_millis(500),
                digest_requests: 4,
                check_every: 8,
            }
        } else {
            Sizes {
                kinds: &MultiplierKind::ALL,
                seeds: 10,
                patterns: 24,
                light_rps: LIGHT_RPS,
                loaded_rps: LOADED_RPS,
                slo: Duration::from_millis(SLO_MS),
                digest_requests: 64,
                check_every: 256,
            }
        }
    }

    /// Distinct cache keys in the grid.
    fn keys(&self) -> usize {
        self.kinds.len() * WIDTHS.len() * YEARS.len() * self.seeds
    }

    /// The profile query of grid key `key`.
    fn query(&self, seed: u64, key: usize) -> DesignQuery {
        let k = self.kinds.len();
        DesignQuery {
            kind: self.kinds[key % k],
            width: WIDTHS[(key / k) % WIDTHS.len()],
            years: YEARS[(key / (k * WIDTHS.len())) % YEARS.len()],
            patterns: self.patterns,
            seed: derive(seed, (key / (k * WIDTHS.len() * YEARS.len())) as u64),
        }
    }
}

/// Frozen calibration (2-core host, client and server on one core, where a
/// single request takes about 28 µs to serve and the connection saturates
/// near 40 000 req/s): the light and loaded rates, which keep the
/// connection about 6 % and 17 % busy, and the latency limit for
/// `serve.slo_attain`. Busier loaded phases gave a p99 that did not repeat
/// across seeds (see the README).
const LIGHT_RPS: f64 = 2000.0;
const LOADED_RPS: f64 = 6000.0;
const SLO_MS: u64 = 1;

/// The `loadgen` grid's widths and aging years.
const WIDTHS: [usize; 2] = [4, 8];
const YEARS: [f64; 3] = [0.0, 3.0, 7.0];
/// As in `loadgen`: the frame starting at request index 64k + 63 is a
/// batch of 4.
const BATCH_EVERY: u64 = 64;
const BATCH_SIZE: usize = 4;
/// Share of `--seconds` an untraced run spends at saturation; the rest is
/// the loaded phase.
const SATURATION_SHARE: f64 = 0.3;
/// Share of each half of a traced run spent at the light rate; the rest is
/// at the loaded rate.
const TRACED_LIGHT_SHARE: f64 = 0.4;
/// The saturation phase is cut into this many windows and the loaded phase
/// into [`TAIL_SLICES`] slices; a reading is their median, so a burst of
/// host contention in one window or slice does not move it.
const SATURATION_WINDOWS: usize = 8;
const TAIL_SLICES: usize = 16;
/// Frames the client keeps in flight during saturation, so the server,
/// not the client's turn-around, sets the rate.
const PIPELINE: usize = 8;

/// The client's request stream: the same seed always yields the same
/// requests in the same order, whatever the timing.
struct Gen {
    seed: u64,
    picks: Rng,
    arrivals: Rng,
    next: u64,
}

impl Gen {
    fn new(seed: u64) -> Self {
        Gen {
            seed,
            picks: Rng::new(derive(seed, 0)),
            arrivals: Rng::new(derive(seed, 1)),
            next: 0,
        }
    }

    /// The next request: a uniform pick from the grid.
    fn request(&mut self, sizes: &Sizes) -> (u64, Request) {
        let index = self.next;
        self.next += 1;
        let key = (self.picks.next_u64() % sizes.keys() as u64) as usize;
        let request = Request {
            id: index,
            deadline_ms: None,
            body: RequestBody::Profile(sizes.query(self.seed, key)),
        };
        (index, request)
    }
}

/// One frame's timing and result.
struct FrameResult {
    sample: Sample,
    requests: u32,
    failed: u32,
    /// A single-request frame answered from the cache.
    hit: bool,
}

/// One fixed-rate phase: how long, and at which total rate.
#[derive(Clone, Copy, Debug)]
struct PhaseSpec {
    secs: f64,
    rate: f64,
}

fn connect(addr: SocketAddr) -> Option<TcpStream> {
    let stream = TcpStream::connect(addr).ok()?;
    stream.set_nodelay(true).ok()?;
    Some(stream)
}

/// Folds one response's simulated output into the digest (the `cache`
/// field says how it was served, which depends on timing, so it is left
/// out).
fn digest_result(digest: &mut Digest, response: &Json) {
    let result = response.get("result");
    for field in ["ops", "avg_delay_ns", "max_delay_ns"] {
        digest.f64(
            result
                .and_then(|r| r.get(field))
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN),
        );
    }
}

/// Whether a response says the server shed the request (it closes the
/// connection after saying so).
fn shed(response: &Json) -> bool {
    response.get("overloaded").and_then(Json::as_bool) == Some(true)
}

/// Completions of a saturation phase.
#[derive(Default)]
struct Saturated {
    /// Requests completed in each of [`SATURATION_WINDOWS`] equal windows.
    windows: Vec<f64>,
    requests: u64,
    failed: u64,
}

/// The load generator: one connection, one request stream, and what it
/// keeps of the responses for the checks after the run.
struct Client<'a> {
    sizes: &'a Sizes,
    addr: SocketAddr,
    stream: Option<TcpStream>,
    gen: Gen,
    digest: Digest,
    kept: Vec<(Request, Json)>,
}

impl Client<'_> {
    /// The next frame: its requests (with their stream indices), and the
    /// frame itself, a batch or a single request.
    fn next_frame(&mut self) -> (Vec<(u64, Request)>, Json) {
        let batch = self.gen.next % BATCH_EVERY == BATCH_EVERY - 1;
        let n = if batch { BATCH_SIZE } else { 1 };
        let requests: Vec<(u64, Request)> = (0..n).map(|_| self.gen.request(self.sizes)).collect();
        let frame = if batch {
            Json::Obj(vec![
                ("op".into(), Json::Str("batch".into())),
                (
                    "requests".into(),
                    Json::Arr(requests.iter().map(|(_, r)| r.to_json()).collect()),
                ),
            ])
        } else {
            requests[0].1.to_json()
        };
        (requests, frame)
    }

    /// Classifies the response to a frame that was not shed: (requests,
    /// failed, answered from the cache). Keeps the digest prefix and the
    /// responses to check.
    fn absorb(&mut self, requests: Vec<(u64, Request)>, response: &Json) -> (u32, u32, bool) {
        let n = requests.len();
        let singles: Vec<&Json> = if n > 1 {
            response
                .get("responses")
                .and_then(Json::as_arr)
                .map(|a| a.iter().collect())
                .unwrap_or_default()
        } else {
            vec![response]
        };
        let mut failed = n.saturating_sub(singles.len()) as u32;
        let mut hit = false;
        for ((index, request), single) in requests.into_iter().zip(singles) {
            if single.get("ok").and_then(Json::as_bool) != Some(true) {
                failed += 1;
            }
            if index < self.sizes.digest_requests {
                digest_result(&mut self.digest, single);
            }
            hit = n == 1
                && single
                    .get("result")
                    .and_then(|r| r.get("cache"))
                    .and_then(Json::as_str)
                    == Some("hit");
            if index.is_multiple_of(self.sizes.check_every) {
                self.kept.push((request, single.clone()));
            }
        }
        (n as u32, failed, hit)
    }

    /// Sends one frame, waits for its response and classifies it.
    fn frame(&mut self, tracer: &mut Tracer) -> (u32, u32, bool) {
        let (requests, frame) = self.next_frame();
        let n = requests.len() as u32;
        if self.stream.is_none() {
            self.stream = connect(self.addr);
        }
        let response = self.stream.as_mut().and_then(|stream| {
            tracer
                .span("serve.roundtrip", requests[0].1.id, |_| {
                    roundtrip(stream, &frame)
                })
                .ok()
        });
        match response.filter(|r| !shed(r)) {
            Some(response) => self.absorb(requests, &response),
            None => {
                self.stream = None;
                (n, n, false)
            }
        }
    }

    /// Sends a fixed-rate phase from `start`.
    fn phase(
        &mut self,
        spec: PhaseSpec,
        start: Duration,
        clock: &WallClock,
        tracer: &mut Tracer,
    ) -> Vec<FrameResult> {
        let end = start + Duration::from_secs_f64(spec.secs);
        let due = poisson(&mut self.gen.arrivals, spec.rate, start, end);
        drive(clock, &due, |_| self.frame(tracer))
            .into_iter()
            .map(|(sample, (requests, failed, hit))| FrameResult {
                sample,
                requests,
                failed,
                hit,
            })
            .collect()
    }

    /// Keeps [`PIPELINE`] frames in flight on the connection for `secs`,
    /// counting completed requests per window. A transport failure or a
    /// shed fails every frame in flight and ends the phase.
    fn saturate(&mut self, secs: f64) -> Saturated {
        let clock = WallClock(Instant::now());
        let end = Duration::from_secs_f64(secs);
        let window = secs / SATURATION_WINDOWS as f64;
        let mut out = Saturated {
            windows: vec![0.0; SATURATION_WINDOWS],
            ..Saturated::default()
        };
        let Some(mut stream) = self.stream.take().or_else(|| connect(self.addr)) else {
            out.requests = 1;
            out.failed = 1;
            return out;
        };
        let mut in_flight = VecDeque::with_capacity(PIPELINE);
        let mut healthy = true;
        loop {
            if healthy && clock.now() < end && in_flight.len() < PIPELINE {
                let (requests, frame) = self.next_frame();
                healthy = write_frame(&mut stream, &frame).is_ok();
                in_flight.push_back(requests);
                continue;
            }
            let Some(requests) = in_flight.pop_front() else {
                break;
            };
            let n = requests.len() as u32;
            let response = if healthy {
                read_frame(&mut stream).ok().flatten().filter(|r| !shed(r))
            } else {
                None
            };
            let (done, failed) = match response {
                Some(response) => {
                    let (done, failed, _) = self.absorb(requests, &response);
                    (done, failed)
                }
                None => {
                    healthy = false;
                    (n, n)
                }
            };
            let at = clock.now().as_secs_f64() / window;
            if let Some(count) = out.windows.get_mut(at as usize) {
                *count += f64::from(done - failed);
            }
            out.requests += u64::from(done);
            out.failed += u64::from(failed);
        }
        if healthy {
            self.stream = Some(stream);
        }
        out
    }
}

/// Runs the fixed-rate phases of `plan` one after the other from a fresh
/// clock origin; returns each phase's frames, ordered by due time, and the
/// spans recorded.
fn fixed_session(
    client: &mut Client<'_>,
    traced: bool,
    plan: &[PhaseSpec],
) -> (Vec<Vec<FrameResult>>, Vec<Span>) {
    let origin = Instant::now();
    let clock = WallClock(origin);
    let mut tracer = Tracer::new(traced, origin);
    let mut start = Duration::ZERO;
    let phases = plan
        .iter()
        .map(|&spec| {
            let frames = client.phase(spec, start, &clock, &mut tracer);
            start += Duration::from_secs_f64(spec.secs);
            frames
        })
        .collect();
    (phases, tracer.into_spans())
}

/// Latency of every request of a phase from its due time, in seconds,
/// ascending (a batch frame counts once per request).
fn latencies(frames: &[FrameResult]) -> Vec<f64> {
    let mut v: Vec<f64> = frames
        .iter()
        .flat_map(|f| std::iter::repeat_n(f.sample.latency().as_secs_f64(), f.requests as usize))
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// The median over [`TAIL_SLICES`] equal slices of a phase (by due time) of
/// each slice's tail percentile, as `(percentile, seconds)`.
fn sliced_tail(frames: &[FrameResult]) -> (f64, f64) {
    let size = frames.len().div_ceil(TAIL_SLICES).max(1);
    let tails: Vec<(f64, f64)> = frames
        .chunks(size)
        .map(|slice| {
            let lat = latencies(slice);
            tail(&lat, 99.0).unwrap_or((100.0, percentile(&lat, 100.0)))
        })
        .collect();
    let p = tails.iter().map(|t| t.0).fold(100.0, f64::min);
    let v: Vec<f64> = tails.iter().map(|t| t.1).collect();
    (p, median(&v))
}

/// Asks the server for its `stats` (needs a free worker: call it with no
/// client session open).
fn server_stats(addr: SocketAddr) -> Result<Json, String> {
    let mut stream = connect(addr).ok_or("stats: cannot connect")?;
    let request = Json::Obj(vec![
        ("id".into(), Json::UInt(0)),
        ("op".into(), Json::Str("stats".into())),
    ]);
    let response = roundtrip(&mut stream, &request).map_err(|e| format!("stats: {e}"))?;
    response
        .get("result")
        .cloned()
        .ok_or_else(|| "stats: no result".to_string())
}

fn stat(stats: &Json, key: &str) -> f64 {
    stats.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Spawns a server and profiles every grid key on one connection, so the
/// measured phases see the resident steady state.
fn warm_server(sizes: &Sizes, seed: u64) -> Result<ServerHandle, String> {
    let server = spawn(ServeConfig {
        endpoint: Endpoint::Tcp("127.0.0.1:0".into()),
        workers: 2,
        snapshot: None,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("spawn: {e}"))?;
    let addr = server.tcp_addr().ok_or("server has no TCP address")?;
    let mut stream = connect(addr).ok_or("warm-up: cannot connect")?;
    for key in 0..sizes.keys() {
        let request = Request {
            id: key as u64,
            deadline_ms: None,
            body: RequestBody::Profile(sizes.query(seed, key)),
        };
        let response =
            roundtrip(&mut stream, &request.to_json()).map_err(|e| format!("warm-up: {e}"))?;
        if response.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("warm-up request failed: {response}"));
        }
    }
    Ok(server)
}

/// Spawns and warms a server; returns it with the seconds that took.
fn timed_warm_server(sizes: &Sizes, seed: u64) -> Result<(ServerHandle, f64), String> {
    let t = Instant::now();
    let server = warm_server(sizes, seed)?;
    Ok((server, t.elapsed().as_secs_f64()))
}

/// Seconds of `reps` further set-ups, each server stopped once timed. They
/// run after the measured phases have read the peak memory: a stopped
/// server leaves freed memory in the allocator's per-thread arenas, and
/// which arenas a server lands in differs from run to run, so set-ups run
/// earlier add a varying share to the peak.
fn more_setups(sizes: &Sizes, seed: u64, reps: usize) -> Result<Vec<f64>, String> {
    (0..reps)
        .map(|_| {
            let (server, secs) = timed_warm_server(sizes, seed)?;
            server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
            Ok(secs)
        })
        .collect()
}

/// Re-runs a kept request in-process and compares the simulated output.
fn check_response(state: &ServerState, request: &Request, response: &Json) -> Result<(), String> {
    let result = response
        .get("result")
        .ok_or_else(|| format!("request {:#x}: error response {response}", request.id))?;
    let RequestBody::Profile(query) = &request.body else {
        return Err(format!("request {:#x}: not a profile query", request.id));
    };
    let (profile, _) = state
        .profile(query, SimEngine::Level, None)
        .map_err(|e| e.to_string())?;
    let field = |k: &str| result.get(k).and_then(Json::as_f64);
    if field("ops") == Some(profile.len() as f64)
        && field("avg_delay_ns") == Some(profile.avg_delay_ns())
        && field("max_delay_ns") == Some(profile.max_delay_ns())
    {
        Ok(())
    } else {
        Err(format!(
            "request {:#x}: served result differs from an in-process run",
            request.id
        ))
    }
}

/// Per-layer readings from a traced session's light and loaded phases and
/// the server `stats` around it.
fn layer_readings(
    sizes: &Sizes,
    light: &[FrameResult],
    loaded: &[FrameResult],
    baseline_service: f64,
    spans: &[Span],
    before: &Json,
    after: &Json,
) -> Readings {
    let mut r = Readings::layer_defaults();
    let n = |v: &[f64]| v.len() as u64;
    let both: Vec<&FrameResult> = light.iter().chain(loaded).collect();
    let mut hits: Vec<f64> = both
        .iter()
        .filter(|f| f.hit)
        .map(|f| f.sample.service().as_secs_f64())
        .collect();
    hits.sort_by(f64::total_cmp);
    r.set("serve.hit_us_p50", median(&hits) * 1e6, n(&hits));
    if let Some((p, v)) = tail(&hits, 99.0) {
        r.set_detail("serve.hit_us_p99", v * 1e6, n(&hits), format!("p{p}"));
    }
    let mut waits: Vec<f64> = loaded
        .iter()
        .map(|f| f.sample.client_wait().as_secs_f64())
        .collect();
    waits.sort_by(f64::total_cmp);
    if let Some((p, v)) = tail(&waits, 99.0) {
        r.set_detail(
            "serve.client_wait_ms_p99",
            v * 1e3,
            n(&waits),
            format!("p{p}"),
        );
    }
    let light_lat = latencies(light);
    r.set(
        "serve.light_p50_ms",
        median(&light_lat) * 1e3,
        n(&light_lat),
    );
    if let Some((p, v)) = tail(&light_lat, 99.0) {
        r.set_detail(
            "serve.light_p99_ms",
            v * 1e3,
            n(&light_lat),
            format!("p{p}"),
        );
    }
    let loaded_requests: u32 = loaded.iter().map(|f| f.requests).sum();
    let within: u32 = loaded
        .iter()
        .filter(|f| f.failed == 0 && f.sample.latency() <= sizes.slo)
        .map(|f| f.requests)
        .sum();
    r.set(
        "serve.slo_attain",
        f64::from(within) / f64::from(loaded_requests.max(1)),
        u64::from(loaded_requests),
    );
    let mut lags: Vec<f64> = both
        .iter()
        .filter_map(|f| f.sample.lag.map(|l| l.as_secs_f64()))
        .collect();
    lags.sort_by(f64::total_cmp);
    if let Some((p, v)) = tail(&lags, 99.0) {
        r.set_detail(
            "bench.generator_lag_ms_p99",
            v * 1e3,
            n(&lags),
            format!("p{p}"),
        );
    }

    let delta = |key: &str| stat(after, key) - stat(before, key);
    let (h, m) = (delta("hits"), delta("misses"));
    r.set("core.cache_misses", m, (h + m) as u64);
    r.set("core.cache_hit_ratio", h / (h + m).max(1.0), (h + m) as u64);
    r.set("serve.shed", delta("shed"), (h + m) as u64);

    let times = trace::self_times(spans);
    let busy: f64 = both.iter().map(|f| f.sample.service().as_secs_f64()).sum();
    r.set(
        "bench.attributed_share",
        trace::attributed_share(&times, busy),
        both.len() as u64,
    );
    r.set(
        "bench.trace_overhead_pct",
        100.0 * (mean_service(loaded) / baseline_service - 1.0),
        loaded.len() as u64,
    );
    r
}

fn mean_service(frames: &[FrameResult]) -> f64 {
    frames
        .iter()
        .map(|f| f.sample.service().as_secs_f64())
        .sum::<f64>()
        / frames.len().max(1) as f64
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let sizes = Sizes::new(opts.smoke);
    let (server, first_setup) = timed_warm_server(&sizes, opts.seed)?;
    let addr = server.tcp_addr().ok_or("server has no TCP address")?;
    let mut client = Client {
        sizes: &sizes,
        addr,
        stream: connect(addr),
        gen: Gen::new(opts.seed),
        digest: Digest::default(),
        kept: Vec::new(),
    };
    let mut outcome = Outcome::default();
    let (phases, saturated) = if opts.traced {
        // An untraced session is the overhead baseline; the traced one
        // supplies the per-layer readings. The client's connection holds
        // one worker; `stats` goes to the other.
        let half = opts.seconds / 2.0;
        let plan = [
            PhaseSpec {
                secs: TRACED_LIGHT_SHARE * half,
                rate: sizes.light_rps,
            },
            PhaseSpec {
                secs: (1.0 - TRACED_LIGHT_SHARE) * half,
                rate: sizes.loaded_rps,
            },
        ];
        let (base, _) = fixed_session(&mut client, false, &plan);
        let before = server_stats(addr)?;
        let (traced, spans) = fixed_session(&mut client, true, &plan);
        let after = server_stats(addr)?;
        outcome.readings = layer_readings(
            &sizes,
            &traced[0],
            &traced[1],
            mean_service(&base[1]),
            &spans,
            &before,
            &after,
        );
        outcome.spans = spans;
        (
            base.into_iter().chain(traced).collect::<Vec<_>>(),
            Saturated::default(),
        )
    } else {
        let plan = [PhaseSpec {
            secs: (1.0 - SATURATION_SHARE) * opts.seconds,
            rate: sizes.loaded_rps,
        }];
        let (phases, _) = fixed_session(&mut client, false, &plan);
        let secs = SATURATION_SHARE * opts.seconds;
        let saturated = client.saturate(secs);
        let mut r = Readings::default();
        r.set("peak_rss_mb", peak_rss_mb(), 1);
        r.set_detail(
            "work_per_s",
            median(&saturated.windows) * SATURATION_WINDOWS as f64 / secs,
            saturated.requests,
            format!("median of {SATURATION_WINDOWS} saturated windows"),
        );
        let loaded = &phases[0];
        let requests: u64 = loaded.iter().map(|f| u64::from(f.requests)).sum();
        r.set("p50_ms", median(&latencies(loaded)) * 1e3, requests);
        let (p, v) = sliced_tail(loaded);
        r.set_detail(
            "tail_ms",
            v * 1e3,
            requests,
            format!("p{p}, median of {TAIL_SLICES} slices"),
        );
        outcome.readings = r;
        (phases, saturated)
    };
    drop(client.stream.take());
    server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    if !opts.traced {
        let reps = opts.setup_reps(5);
        let mut secs = more_setups(&sizes, opts.seed, reps - 1)?;
        secs.push(first_setup);
        outcome.readings.set("setup_s", median(&secs), reps as u64);
    }

    let frames = || phases.iter().flatten();
    outcome.attempted = frames().map(|f| u64::from(f.requests)).sum::<u64>() + saturated.requests;
    outcome.failed = frames().map(|f| u64::from(f.failed)).sum::<u64>() + saturated.failed;
    // The digest covers the head of the request stream, all in the first
    // phase.
    outcome.digest = client.digest.finish();

    let state = ServerState::new(None);
    let responses = client
        .kept
        .iter()
        .try_for_each(|(request, response)| check_response(&state, request, response));
    outcome.checks = vec![
        Check::new(
            "ops",
            if outcome.failed == 0 {
                Ok(())
            } else {
                Err(format!(
                    "{} of {} requests failed",
                    outcome.failed, outcome.attempted
                ))
            },
        ),
        Check::new("responses", responses),
    ];
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_matches_loadgen() {
        let sizes = Sizes::new(false);
        assert_eq!(sizes.keys(), 300);
        let queries: Vec<DesignQuery> = (0..sizes.keys()).map(|k| sizes.query(1, k)).collect();
        for (i, a) in queries.iter().enumerate() {
            assert_eq!(a.patterns, 24);
            assert!(
                queries[..i]
                    .iter()
                    .all(|b| (a.kind, a.width, a.years.to_bits(), a.seed)
                        != (b.kind, b.width, b.years.to_bits(), b.seed)),
                "key {i} repeats"
            );
        }
    }

    /// A stall that delays a stretch of requests sets the p99 of its own
    /// slice, not the median over slices; a slowdown of every 20th request
    /// shows in every slice.
    #[test]
    fn sliced_tail_is_the_median_slice() {
        let frame = |i: u64, latency_us: u64| FrameResult {
            sample: Sample {
                due: Duration::from_millis(i),
                sent: Duration::from_millis(i),
                done: Duration::from_millis(i) + Duration::from_micros(latency_us),
                lag: None,
            },
            requests: 1,
            failed: 0,
            hit: true,
        };
        // 16 slices of 1000 requests at 100 µs; 300 of slice 2 stalled.
        let stalled: Vec<FrameResult> = (0..16_000)
            .map(|i| {
                frame(
                    i,
                    if (2000..2300).contains(&i) {
                        50_000
                    } else {
                        100
                    },
                )
            })
            .collect();
        let (p, v) = sliced_tail(&stalled);
        assert_eq!(p, 99.0);
        assert!((v - 100e-6).abs() < 1e-9, "{v}");
        let periodic: Vec<FrameResult> = (0..16_000)
            .map(|i| frame(i, if i % 20 == 0 { 5_000 } else { 100 }))
            .collect();
        assert!((sliced_tail(&periodic).1 - 5e-3).abs() < 1e-9);
    }

    #[test]
    fn smoke_run_is_correct_and_repeatable() {
        let opts = Opts {
            seed: 7,
            seconds: 0.4,
            traced: false,
            smoke: true,
        };
        let a = run(&opts).unwrap();
        assert!(a.correct(), "{:?}", a.checks);
        assert_eq!(a.failed, 0);
        assert!(a.attempted > 0);
        assert!(a.readings.get("work_per_s").unwrap().value > 0.0);
        assert_eq!(run(&opts).unwrap().digest, a.digest);
    }
}
