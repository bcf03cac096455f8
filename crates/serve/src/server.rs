//! The thread-pool + channel socket server.
//!
//! An acceptor thread hands connections to a fixed worker pool over an
//! mpsc channel; each worker serves one connection at a time, frame by
//! frame. Every simulation op runs under the harness's single-request
//! supervision ([`run_request_supervised`]): panics are quarantined into
//! an error *response* instead of killing the worker, a per-request
//! `deadline_ms` is enforced cooperatively through the attempt's
//! [`CancelToken`](agemul::CancelToken), and a failed attempt is retried
//! up to [`ServeConfig::max_retries`] times — the response records the
//! retries spent.
//!
//! Graceful shutdown (the `shutdown` op or [`ServerHandle::shutdown`])
//! stops the acceptor, drains the workers, and — when a snapshot path is
//! configured — saves the profile cache for the next process's warm
//! start.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use agemul::{
    EngineConfig, Json, McConfig, MonteCarloCampaign, PatternSet, PeriodSweep, SimEngine,
};
use agemul_faults::{Campaign, FaultSpec};
use agemul_fleet::{FleetCampaign, FleetConfig, FleetPolicy, FleetSim, RoutingPolicy};
use agemul_harness::{run_request_supervised, Attempt, CaseError, CaseStatus, SupervisorConfig};

use agemul_chaos::ChaosStream;

use crate::flight::FlightError;
use crate::proto::{
    response_error, response_ok, response_overloaded, write_frame, DesignQuery, FrameAccumulator,
    FramePoll, Request, RequestBody,
};
use crate::state::ServerState;

/// Where the server listens.
#[derive(Clone, Debug)]
pub enum Endpoint {
    /// TCP on the given address (e.g. `127.0.0.1:0` for an ephemeral
    /// port; the bound address is reported by [`ServerHandle::tcp_addr`]).
    Tcp(String),
    /// A Unix-domain socket at the given path (removed on bind and on
    /// shutdown).
    Unix(PathBuf),
}

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listening endpoint.
    pub endpoint: Endpoint,
    /// Worker threads. Each worker serves one connection at a time, so
    /// this bounds the number of concurrently served clients.
    pub workers: usize,
    /// Per-shard profile-cache bound (`None` = unbounded).
    pub shard_capacity: Option<usize>,
    /// Warm-start snapshot path: loaded (if present) on spawn, saved on
    /// graceful shutdown.
    pub snapshot: Option<PathBuf>,
    /// Retries per request after its first attempt, so a request gets at
    /// most `max_retries + 1` attempts.
    pub max_retries: u32,
    /// Admission-queue depth: connections accepted but not yet claimed by
    /// a worker. Beyond this the acceptor *sheds*: the excess connection
    /// gets one typed `overloaded` response and is closed immediately,
    /// instead of queueing unboundedly behind a saturated pool.
    pub admission_queue: usize,
    /// Slow-client budget: how long a connection may sit *mid-frame*
    /// without delivering a byte before the worker sends a typed error,
    /// shuts the socket down, and moves on. Silence between frames is an
    /// idle client and never counts.
    pub stall_budget: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            endpoint: Endpoint::Tcp("127.0.0.1:0".into()),
            workers: 4,
            shard_capacity: Some(64),
            snapshot: None,
            max_retries: 1,
            admission_queue: 64,
            stall_budget: Duration::from_secs(2),
        }
    }
}

/// What a worker needs from a connection beyond `Read + Write`: the
/// polling read timeout that lets it notice shutdown, and a hard
/// both-directions socket shutdown for teardown (so a half-dead peer can
/// never hold the worker's buffers or linger in `CLOSE_WAIT`).
///
/// Abstracting this (rather than using [`Conn`] directly) lets the serve
/// loop run over a chaos fault-wrapping stream in soaks and over mock
/// transports in unit tests.
pub(crate) trait Transport: Read + Write {
    /// Sets the polling read timeout.
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()>;
    /// Shuts down both directions of the underlying socket.
    fn shutdown_both(&self) -> io::Result<()>;
}

impl<S: Transport> Transport for ChaosStream<S> {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.get_ref().set_read_timeout(timeout)
    }

    fn shutdown_both(&self) -> io::Result<()> {
        self.get_ref().shutdown_both()
    }
}

/// One accepted connection, either transport.
enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_write_timeout(timeout),
            Conn::Unix(s) => s.set_write_timeout(timeout),
        }
    }
}

impl Transport for Conn {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(timeout),
            Conn::Unix(s) => s.set_read_timeout(timeout),
        }
    }

    fn shutdown_both(&self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.shutdown(Shutdown::Both),
            Conn::Unix(s) => s.shutdown(Shutdown::Both),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// The resolved listening address, used both to report where we bound and
/// to poke the blocking acceptor awake on shutdown.
#[derive(Clone, Debug)]
enum Bound {
    Tcp(SocketAddr),
    Unix(PathBuf),
}

impl Bound {
    /// A stable textual label for this listener, used as the context of
    /// the `serve/read` / `serve/write` chaos failpoints so a fault plan
    /// can target one server's transport without touching another's.
    fn label(&self) -> String {
        match self {
            Bound::Tcp(addr) => format!("tcp:{addr}"),
            Bound::Unix(path) => format!("unix:{}", path.display()),
        }
    }

    fn poke(&self) {
        // A throwaway connection unblocks the acceptor so it can observe
        // the stop flag; errors are irrelevant (the listener may already
        // be gone).
        match self {
            Bound::Tcp(addr) => drop(TcpStream::connect_timeout(addr, Duration::from_secs(1))),
            Bound::Unix(path) => drop(UnixStream::connect(path)),
        }
    }
}

/// A running server. Dropping the handle without calling
/// [`shutdown`](Self::shutdown) detaches the threads (they keep serving
/// until the process exits); tests and the benchmark always shut down.
pub struct ServerHandle {
    state: Arc<ServerState>,
    bound: Bound,
    stop: Arc<AtomicBool>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    snapshot: Option<PathBuf>,
}

/// Spawns the server described by `config`: binds the endpoint, loads the
/// warm-start snapshot if one exists, and starts the acceptor and worker
/// threads.
///
/// # Errors
///
/// Bind/listen failures, and a snapshot file that exists but fails to
/// load (a corrupt warm start is surfaced, not silently ignored).
pub fn spawn(config: ServeConfig) -> io::Result<ServerHandle> {
    // Bind first: the bound address labels the state's chaos failpoints,
    // so every fault site of one server shares one scope string.
    let (bound, listener) = match &config.endpoint {
        Endpoint::Tcp(addr) => {
            let listener = TcpListener::bind(addr.as_str())?;
            let bound = Bound::Tcp(listener.local_addr()?);
            (bound, Listener::Tcp(listener))
        }
        Endpoint::Unix(path) => {
            // A stale socket file from a killed predecessor would fail the
            // bind; remove it (errors deferred to the bind itself).
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path)?;
            (Bound::Unix(path.clone()), Listener::Unix(listener))
        }
    };

    let state = Arc::new(ServerState::with_chaos_scope(
        config.shard_capacity,
        bound.label(),
    ));
    if let Some(path) = &config.snapshot {
        if path.exists() {
            let seeded = state
                .load_snapshot(path)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            eprintln!(
                "[agemul-serve] warm start: {seeded} cache entries from {}",
                path.display()
            );
        }
    }

    let stop = Arc::new(AtomicBool::new(false));
    let queued = Arc::new(AtomicUsize::new(0));
    let (sender, receiver) = std::sync::mpsc::channel::<Conn>();
    let receiver = Arc::new(Mutex::new(receiver));

    let acceptor = {
        let stop = Arc::clone(&stop);
        let queued = Arc::clone(&queued);
        let state = Arc::clone(&state);
        let depth = config.admission_queue;
        std::thread::spawn(move || match listener {
            Listener::Tcp(l) => accept_tcp(&l, &sender, &stop, &queued, depth, &state),
            Listener::Unix(l) => accept_unix(&l, &sender, &stop, &queued, depth, &state),
        })
    };

    let workers = (0..config.workers.max(1))
        .map(|_| {
            let state = Arc::clone(&state);
            let receiver = Arc::clone(&receiver);
            let stop = Arc::clone(&stop);
            let queued = Arc::clone(&queued);
            let bound = bound.clone();
            let max_retries = config.max_retries;
            let stall_budget = config.stall_budget;
            std::thread::spawn(move || {
                worker_loop(
                    &state,
                    &receiver,
                    &stop,
                    &queued,
                    &bound,
                    max_retries,
                    stall_budget,
                )
            })
        })
        .collect();

    Ok(ServerHandle {
        state,
        bound,
        stop,
        acceptor,
        workers,
        snapshot: config.snapshot,
    })
}

impl ServerHandle {
    /// The server's shared state, for in-process inspection in tests.
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// The bound TCP address, when listening on TCP.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        match &self.bound {
            Bound::Tcp(addr) => Some(*addr),
            Bound::Unix(_) => None,
        }
    }

    /// Whether a shutdown (op or handle) has been requested.
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Blocks until a client's `shutdown` op stops the server, then
    /// finishes like [`shutdown`](Self::shutdown).
    ///
    /// # Errors
    ///
    /// Snapshot-save failures (the server is down regardless).
    pub fn run_until_shutdown(self) -> io::Result<()> {
        let ServerHandle {
            state,
            bound,
            acceptor,
            workers,
            snapshot,
            ..
        } = self;
        let _ = acceptor.join();
        finish(&state, &bound, workers, snapshot.as_deref())
    }

    /// Stops the server: no new connections, in-flight connections drain,
    /// workers exit, and the snapshot (if configured) is saved.
    ///
    /// # Errors
    ///
    /// Snapshot-save failures (the server is down regardless).
    pub fn shutdown(self) -> io::Result<()> {
        self.stop.store(true, Ordering::SeqCst);
        self.bound.poke();
        let ServerHandle {
            state,
            bound,
            acceptor,
            workers,
            snapshot,
            ..
        } = self;
        let _ = acceptor.join();
        finish(&state, &bound, workers, snapshot.as_deref())
    }
}

/// Common tail of both shutdown paths: drain workers, unlink a Unix
/// socket, save the warm-start snapshot.
fn finish(
    state: &ServerState,
    bound: &Bound,
    workers: Vec<JoinHandle<()>>,
    snapshot: Option<&std::path::Path>,
) -> io::Result<()> {
    for worker in workers {
        let _ = worker.join();
    }
    if let Bound::Unix(path) = bound {
        let _ = std::fs::remove_file(path);
    }
    if let Some(path) = snapshot {
        let saved = state.save_snapshot(path).map_err(io::Error::other)?;
        eprintln!(
            "[agemul-serve] snapshot: {saved} cache entries to {}",
            path.display()
        );
    }
    Ok(())
}

/// The bound listener, either transport (held so the acceptor thread can
/// be spawned after the server state exists).
enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

/// Admits `conn` into the bounded queue or sheds it with a typed
/// `overloaded` response. Returns `false` when the worker channel is gone
/// (shutdown) and the acceptor should exit.
fn admit(
    conn: Conn,
    sender: &Sender<Conn>,
    queued: &AtomicUsize,
    depth: usize,
    state: &ServerState,
) -> bool {
    // Reserve a queue slot before sending: the counter can momentarily
    // read high (a worker decrements only once it claims the connection),
    // which errs toward shedding — never toward unbounded queueing.
    let admitted = queued
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
            (n < depth).then_some(n + 1)
        })
        .is_ok();
    if !admitted {
        shed(conn, state);
        return true;
    }
    if sender.send(conn).is_err() {
        queued.fetch_sub(1, Ordering::SeqCst);
        return false;
    }
    true
}

/// Sheds one connection: a single typed `overloaded` response under a
/// short write timeout (a shed must cost microseconds, not a slow-client
/// stall), then a hard both-directions shutdown.
fn shed(mut conn: Conn, state: &ServerState) {
    state.record_shed();
    let _ = conn.set_write_timeout(Some(Duration::from_millis(50)));
    let _ = write_frame(&mut conn, &response_overloaded());
    let _ = conn.shutdown_both();
}

fn accept_tcp(
    listener: &TcpListener,
    sender: &Sender<Conn>,
    stop: &AtomicBool,
    queued: &AtomicUsize,
    depth: usize,
    state: &ServerState,
) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match conn {
            Ok(stream) => {
                // Request/response frames are small; leaving Nagle on
                // would cost a delayed-ACK round trip per response.
                let _ = stream.set_nodelay(true);
                if !admit(Conn::Tcp(stream), sender, queued, depth, state) {
                    break;
                }
            }
            Err(_) => continue,
        }
    }
    // Dropping the sender lets idle workers observe the drain.
}

fn accept_unix(
    listener: &UnixListener,
    sender: &Sender<Conn>,
    stop: &AtomicBool,
    queued: &AtomicUsize,
    depth: usize,
    state: &ServerState,
) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match conn {
            Ok(stream) => {
                if !admit(Conn::Unix(stream), sender, queued, depth, state) {
                    break;
                }
            }
            Err(_) => continue,
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    state: &ServerState,
    receiver: &Arc<Mutex<Receiver<Conn>>>,
    stop: &AtomicBool,
    queued: &AtomicUsize,
    bound: &Bound,
    max_retries: u32,
    stall_budget: Duration,
) {
    loop {
        // Holding the receiver lock only for the recv keeps the pool
        // honest: exactly one idle worker waits at a time, the rest block
        // on the mutex — both are woken by drain or by a new connection.
        let conn = {
            let guard = receiver.lock().unwrap_or_else(PoisonError::into_inner);
            guard.recv()
        };
        match conn {
            Ok(conn) => {
                // The connection left the admission queue the moment a
                // worker claimed it; free its slot for the acceptor.
                queued.fetch_sub(1, Ordering::SeqCst);
                serve_conn(state, conn, stop, bound, max_retries, stall_budget);
            }
            Err(_) => break, // channel drained: acceptor is gone
        }
    }
}

/// Serves one accepted connection: wraps it in the chaos fault layer
/// (one relaxed atomic load per IO call when no plan is armed) and runs
/// the transport-generic serve loop.
fn serve_conn(
    state: &ServerState,
    conn: Conn,
    stop: &AtomicBool,
    bound: &Bound,
    max_retries: u32,
    stall_budget: Duration,
) {
    let stream = ChaosStream::new(conn, "serve", bound.label());
    serve_stream(state, stream, stop, bound, max_retries, stall_budget);
}

/// Serves one connection to completion: frames in, responses out. A read
/// timeout lets the worker notice a shutdown even under an idle client
/// that never closes its end; the [`FrameAccumulator`] keeps partial
/// frames across those timeouts, and a client that stalls *mid-frame*
/// longer than `stall_budget` is sent a typed error and disconnected so
/// it can never pin a worker.
fn serve_stream<T: Transport>(
    state: &ServerState,
    mut stream: T,
    stop: &AtomicBool,
    bound: &Bound,
    max_retries: u32,
    stall_budget: Duration,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut acc = FrameAccumulator::new();
    let mut stalled_since: Option<Instant> = None;
    loop {
        let frame = match acc.poll(&mut stream) {
            Ok(FramePoll::Frame(frame)) => {
                stalled_since = None;
                frame
            }
            Ok(FramePoll::Closed) => return, // clean close
            Ok(FramePoll::Pending { progressed }) => {
                if progressed {
                    stalled_since = None;
                }
                if stop.load(Ordering::SeqCst) {
                    let _ = stream.shutdown_both();
                    return;
                }
                continue;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::SeqCst) {
                    let _ = stream.shutdown_both();
                    return;
                }
                if acc.mid_frame() {
                    let since = *stalled_since.get_or_insert_with(Instant::now);
                    if since.elapsed() >= stall_budget {
                        // Typed goodbye (best effort — the client may be
                        // gone), then a hard teardown so the worker is
                        // freed no matter what the peer does.
                        let _ = write_frame(
                            &mut stream,
                            &response_error(
                                0,
                                &format!(
                                    "slow client: no bytes mid-frame for {}ms; disconnecting",
                                    stall_budget.as_millis()
                                ),
                            ),
                        );
                        let _ = stream.shutdown_both();
                        return;
                    }
                } else {
                    stalled_since = None;
                }
                continue;
            }
            // Malformed length/JSON or transport failure: tear the socket
            // down both ways so the peer sees a reset, not a half-open
            // connection that swallows its next request.
            Err(_) => {
                let _ = stream.shutdown_both();
                return;
            }
        };
        let response = handle_frame(state, &frame, stop, bound, max_retries);
        if write_frame(&mut stream, &response).is_err() {
            // A failed response write leaves the stream mid-frame from the
            // client's perspective; shut down both directions so the
            // client unblocks immediately instead of waiting on a reply
            // that will never finish.
            let _ = stream.shutdown_both();
            return;
        }
        if stop.load(Ordering::SeqCst) {
            let _ = stream.shutdown_both();
            return;
        }
    }
}

/// Evaluates one frame: a single request object, or a
/// `{"op":"batch","requests":[...]}` envelope whose responses come back
/// in order under `"responses"`.
fn handle_frame(
    state: &ServerState,
    frame: &Json,
    stop: &AtomicBool,
    bound: &Bound,
    max_retries: u32,
) -> Json {
    if frame.get("op").and_then(Json::as_str) == Some("batch") {
        let Some(requests) = frame.get("requests").and_then(Json::as_arr) else {
            return response_error(0, "batch needs a requests array");
        };
        let responses = requests
            .iter()
            .map(|r| handle_request_json(state, r, stop, bound, max_retries))
            .collect();
        return Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            ("responses".into(), Json::Arr(responses)),
        ]);
    }
    handle_request_json(state, frame, stop, bound, max_retries)
}

fn handle_request_json(
    state: &ServerState,
    raw: &Json,
    stop: &AtomicBool,
    bound: &Bound,
    max_retries: u32,
) -> Json {
    let id = raw.get("id").and_then(Json::as_u64).unwrap_or(0);
    let request = match Request::from_json(raw) {
        Ok(r) => r,
        Err(e) => return response_error(id, &e),
    };
    match &request.body {
        RequestBody::Stats => response_ok(request.id, 0, state.stats_json()),
        RequestBody::Shutdown => {
            stop.store(true, Ordering::SeqCst);
            bound.poke();
            response_ok(
                request.id,
                0,
                Json::Obj(vec![("stopping".into(), Json::Bool(true))]),
            )
        }
        body => run_supervised_op(state, &request, body, max_retries),
    }
}

/// Runs one simulation op under single-request supervision and renders
/// the record as a response.
fn run_supervised_op(
    state: &ServerState,
    request: &Request,
    body: &RequestBody,
    max_retries: u32,
) -> Json {
    let config = SupervisorConfig {
        deadline: request.deadline_ms.map(Duration::from_millis),
        max_retries,
        retry_backoff: Duration::from_millis(1),
        checkpoint_every: 1,
    };
    let record =
        run_request_supervised(&config, &|attempt: &Attempt| eval_op(state, body, attempt));
    match record.status {
        CaseStatus::Done { value } => response_ok(request.id, record.retries, value),
        CaseStatus::Quarantined { reason } => response_error(request.id, &reason),
    }
}

fn flight_to_case(e: FlightError) -> CaseError {
    match e {
        FlightError::Cancelled => CaseError::Cancelled,
        other => CaseError::Failed(other.to_string()),
    }
}

/// One supervised attempt at one simulation op.
fn eval_op(state: &ServerState, body: &RequestBody, attempt: &Attempt) -> Result<Json, CaseError> {
    match body {
        RequestBody::Profile(query) => {
            let (profile, how) = state
                .profile(query, SimEngine::Level, attempt.cancel.as_ref())
                .map_err(flight_to_case)?;
            Ok(Json::Obj(vec![
                ("ops".into(), Json::UInt(profile.len() as u64)),
                ("avg_delay_ns".into(), Json::Num(profile.avg_delay_ns())),
                ("max_delay_ns".into(), Json::Num(profile.max_delay_ns())),
                ("cache".into(), Json::Str(how.label().into())),
            ]))
        }
        RequestBody::Sweep {
            query,
            periods,
            skip,
        } => {
            let (profile, how) = state
                .profile(query, SimEngine::Level, attempt.cancel.as_ref())
                .map_err(flight_to_case)?;
            let sweep = PeriodSweep::run(
                &profile,
                &EngineConfig::adaptive(periods[0], *skip),
                periods,
            );
            let points = sweep
                .points()
                .iter()
                .map(|(period, m)| {
                    Json::Obj(vec![
                        ("period_ns".into(), Json::Num(*period)),
                        ("avg_latency_ns".into(), Json::Num(m.avg_latency_ns())),
                        ("errors".into(), Json::UInt(m.errors)),
                        ("undetected".into(), Json::UInt(m.undetected)),
                    ])
                })
                .collect();
            let (best_period, best) = sweep.best_latency();
            Ok(Json::Obj(vec![
                ("cache".into(), Json::Str(how.label().into())),
                ("points".into(), Json::Arr(points)),
                ("best_period_ns".into(), Json::Num(best_period)),
                (
                    "best_avg_latency_ns".into(),
                    Json::Num(best.avg_latency_ns()),
                ),
            ]))
        }
        RequestBody::Campaign {
            query,
            faults,
            fault_seed,
            skip,
        } => eval_campaign(state, query, *faults, *fault_seed, *skip, attempt),
        RequestBody::Mc {
            query,
            corners,
            sigma,
            mc_seed,
            skip,
        } => eval_mc(state, query, *corners, *sigma, *mc_seed, *skip, attempt),
        RequestBody::Fleet {
            query,
            nodes,
            epochs,
            policy,
            skip,
        } => eval_fleet(state, query, *nodes, *epochs, *policy, *skip, attempt),
        RequestBody::Stats | RequestBody::Shutdown => Err(CaseError::Failed(
            "op does not run under supervision".into(),
        )),
    }
}

/// Prepares and evaluates a fault campaign. Preparation shares the
/// server's profile cache (baseline and delay-fault profiles), so
/// repeated campaigns over a shared workload reuse each other's
/// simulations, and polls the attempt's deadline token.
fn eval_campaign(
    state: &ServerState,
    query: &DesignQuery,
    faults: usize,
    fault_seed: u64,
    skip: u32,
    attempt: &Attempt,
) -> Result<Json, CaseError> {
    let design = state
        .design(query.kind, query.width)
        .map_err(CaseError::Failed)?;
    let workload = PatternSet::uniform(query.width, query.patterns, query.seed);
    let specs = FaultSpec::sample(&design, workload.pairs().len(), faults, fault_seed);
    let campaign = Campaign::prepare(
        &design,
        workload.pairs(),
        &specs,
        Some(state.cache()),
        attempt.cancel.as_ref(),
    )
    .map_err(|e| CaseError::from_error(&e))?;
    let cycle_ns = 0.95
        * design
            .critical_delay_ns(None)
            .map_err(|e| CaseError::Failed(e.to_string()))?;
    Ok(campaign
        .run(&EngineConfig::adaptive(cycle_ns, skip))
        .to_json())
}

/// Runs a Monte Carlo yield campaign: `corners` sampled dies, each
/// evaluated at integer lifetime points `0..=floor(query.years)` with the
/// short cycle anchored to the design's fresh critical path.
/// [`MonteCarloCampaign::run`] reuses one compiled kernel for every
/// corner and steps each corner's lifetime points in lockstep.
fn eval_mc(
    state: &ServerState,
    query: &DesignQuery,
    corners: usize,
    sigma: f64,
    mc_seed: u64,
    skip: u32,
    attempt: &Attempt,
) -> Result<Json, CaseError> {
    let design = state
        .design(query.kind, query.width)
        .map_err(CaseError::Failed)?;
    let workload = PatternSet::uniform(query.width, query.patterns, query.seed);
    let mut config = McConfig::new(corners, sigma, mc_seed);
    config.skip = skip;
    config.years = (0..=query.years.floor() as u64).map(|y| y as f64).collect();
    let campaign = MonteCarloCampaign::new(&design, workload.pairs(), state.bti(), config)
        .map_err(|e| CaseError::from_error(&e))?;

    let report = campaign
        .run(attempt.cancel.as_ref())
        .map_err(|e| CaseError::from_error(&e))?;

    let curve = |adaptive: bool| {
        Json::Arr(
            report
                .yield_curve(adaptive)
                .into_iter()
                .map(|(_, frac)| Json::Num(frac))
                .collect(),
        )
    };
    Ok(Json::Obj(vec![
        ("cycle_ns".into(), Json::Num(report.cycle_ns)),
        ("corners".into(), Json::UInt(report.corners.len() as u64)),
        (
            "years".into(),
            Json::Arr(report.years.iter().map(|&y| Json::Num(y)).collect()),
        ),
        ("baseline_yield".into(), curve(false)),
        ("ahl_yield".into(), curve(true)),
    ]))
}

/// Runs a fleet policy campaign on the discrete-event datacenter
/// simulator: `nodes` divergently aged instances, `epochs` epochs of
/// `query.patterns` routed operations with `query.years` of fair-share
/// aging per epoch, under the named routing policy.
fn eval_fleet(
    state: &ServerState,
    query: &DesignQuery,
    nodes: usize,
    epochs: usize,
    policy: RoutingPolicy,
    skip: u32,
    attempt: &Attempt,
) -> Result<Json, CaseError> {
    let design = state
        .design(query.kind, query.width)
        .map_err(CaseError::Failed)?;
    let mut config = FleetConfig::new(nodes, epochs, query.patterns, query.seed);
    config.skip = skip;
    config.years_per_epoch = query.years;
    config.policy = FleetPolicy::baseline(policy);
    let campaign =
        FleetCampaign::new(&design, state.bti(), config).map_err(|e| CaseError::from_error(&e))?;
    let mut sim = FleetSim::new(&campaign);
    let summary = sim
        .run(attempt.cancel.as_ref())
        .map_err(|e| CaseError::from_error(&e))?;
    Ok(summary.to_json())
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;
    use std::sync::atomic::AtomicUsize;

    use super::*;

    /// A scripted in-memory transport: reads replay a queue of chunks and
    /// error kinds (partial deliveries push their remainder back), writes
    /// either collect into a shared buffer or fail, and both shutdown
    /// directions are counted so tests can assert the teardown contract.
    struct MockTransport {
        reads: Mutex<VecDeque<io::Result<Vec<u8>>>>,
        /// What reads return once the script is exhausted.
        exhausted: io::ErrorKind,
        write_fails: bool,
        written: Arc<Mutex<Vec<u8>>>,
        shutdowns: Arc<AtomicUsize>,
    }

    impl MockTransport {
        fn new(script: Vec<io::Result<Vec<u8>>>, exhausted: io::ErrorKind) -> Self {
            MockTransport {
                reads: Mutex::new(script.into_iter().collect()),
                exhausted,
                write_fails: false,
                written: Arc::new(Mutex::new(Vec::new())),
                shutdowns: Arc::new(AtomicUsize::new(0)),
            }
        }
    }

    impl Read for MockTransport {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let mut reads = self.reads.lock().unwrap();
            match reads.pop_front() {
                Some(Ok(chunk)) => {
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        reads.push_front(Ok(chunk[n..].to_vec()));
                    }
                    Ok(n)
                }
                Some(Err(e)) => Err(e),
                None => {
                    if self.exhausted == io::ErrorKind::UnexpectedEof {
                        Ok(0) // clean close
                    } else {
                        Err(io::Error::new(self.exhausted, "script exhausted"))
                    }
                }
            }
        }
    }

    impl Write for MockTransport {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.write_fails {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer gone"));
            }
            self.written.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Transport for MockTransport {
        fn set_read_timeout(&self, _timeout: Option<Duration>) -> io::Result<()> {
            Ok(())
        }

        fn shutdown_both(&self) -> io::Result<()> {
            self.shutdowns.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }
    }

    fn frame_bytes(msg: &agemul::Json) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, msg).unwrap();
        buf
    }

    fn stats_request() -> agemul::Json {
        agemul::Json::parse(r#"{"op":"stats","id":1}"#).unwrap()
    }

    fn bound() -> Bound {
        Bound::Tcp("127.0.0.1:1".parse().unwrap())
    }

    /// Satellite regression: a response-write failure must tear the socket
    /// down in both directions and free the worker — not just drop the
    /// connection object and leave the peer half-open.
    #[test]
    fn write_failure_shuts_the_socket_down_both_ways() {
        let state = ServerState::new(Some(4));
        let mut mock = MockTransport::new(
            vec![Ok(frame_bytes(&stats_request()))],
            io::ErrorKind::UnexpectedEof,
        );
        mock.write_fails = true;
        let shutdowns = Arc::clone(&mock.shutdowns);

        let stop = AtomicBool::new(false);
        serve_stream(&state, mock, &stop, &bound(), 1, Duration::from_secs(2));
        assert!(
            shutdowns.load(Ordering::SeqCst) >= 1,
            "write failure must shutdown both directions"
        );
    }

    /// A client that delivers part of a frame and then goes silent past
    /// the stall budget gets a typed error response and a hard teardown.
    #[test]
    fn mid_frame_stall_past_budget_is_a_typed_disconnect() {
        let state = ServerState::new(Some(4));
        // Two bytes of a length prefix, then eternal timeouts.
        let mock = MockTransport::new(vec![Ok(vec![0, 0])], io::ErrorKind::TimedOut);
        let shutdowns = Arc::clone(&mock.shutdowns);
        let written = Arc::clone(&mock.written);

        let stop = AtomicBool::new(false);
        let start = Instant::now();
        serve_stream(&state, mock, &stop, &bound(), 1, Duration::from_millis(50));
        assert!(start.elapsed() >= Duration::from_millis(50));
        assert_eq!(shutdowns.load(Ordering::SeqCst), 1);

        let bytes = written.lock().unwrap().clone();
        let response = read_frame(&mut &bytes[..]).unwrap().unwrap();
        assert_eq!(
            response.get("ok").and_then(agemul::Json::as_bool),
            Some(false)
        );
        let error = response
            .get("error")
            .and_then(agemul::Json::as_str)
            .unwrap();
        assert!(error.contains("slow client"), "got: {error}");
    }

    /// Idle silence *between* frames never trips the stall budget: the
    /// connection stays open until the peer closes it.
    #[test]
    fn idle_between_frames_outlives_the_stall_budget() {
        let state = ServerState::new(Some(4));
        // Eight timeouts with nothing mid-frame, then a clean close.
        let mut script: Vec<io::Result<Vec<u8>>> = (0..8)
            .map(|_| Err(io::Error::new(io::ErrorKind::TimedOut, "idle")))
            .collect();
        script.push(Ok(frame_bytes(&stats_request())));
        let mock = MockTransport::new(script, io::ErrorKind::UnexpectedEof);
        let written = Arc::clone(&mock.written);

        let stop = AtomicBool::new(false);
        serve_stream(
            &state,
            mock,
            &stop,
            &bound(),
            1,
            Duration::from_millis(1), // far shorter than 8 idle polls
        );
        let bytes = written.lock().unwrap().clone();
        let response = read_frame(&mut &bytes[..]).unwrap().unwrap();
        assert_eq!(
            response.get("ok").and_then(agemul::Json::as_bool),
            Some(true),
            "idle client must still be served: {response}"
        );
    }

    use crate::proto::read_frame;
}
