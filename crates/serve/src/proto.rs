//! Length-prefixed JSON wire protocol.
//!
//! Each frame is a big-endian `u32` byte length followed by one UTF-8
//! JSON document (the dependency-free [`Json`] model from `agemul`,
//! whose distinct `u64` variant keeps workload seeds lossless). A frame
//! carries either a single request object or a
//! `{"op":"batch","requests":[...]}` envelope; responses mirror the
//! shape. Frames above [`MAX_FRAME_BYTES`] are rejected before any
//! allocation, so a corrupt length prefix cannot balloon the server.

use std::io::{self, Read, Write};

use agemul::Json;
use agemul_circuits::{MultiplierKind, MAX_WIDTH, MIN_WIDTH};
use agemul_fleet::RoutingPolicy;

/// Upper bound on one frame's payload (16 MiB) — far above any legitimate
/// request or response, small enough that a garbage length prefix fails
/// fast instead of allocating gigabytes.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Largest accepted value of every request count that sizes an allocation
/// before any work runs: `patterns` (65,536 is the paper's largest
/// workload), `corners`, `faults`, `nodes` and `epochs`, and the lifetime
/// points of an `mc` request. A larger count is a typed decode error: the
/// allocation it would size can abort the process, which no `catch_unwind`
/// catches.
pub const MAX_COUNT: usize = 65_536;

/// Writes one frame: big-endian `u32` length, then the JSON text.
///
/// # Errors
///
/// Propagates transport errors; a document over [`MAX_FRAME_BYTES`] is
/// `InvalidData`.
pub fn write_frame<W: Write>(w: &mut W, msg: &Json) -> io::Result<()> {
    let text = msg.to_string();
    if text.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds {MAX_FRAME_BYTES}", text.len()),
        ));
    }
    // One buffered write per frame: a separate length-prefix write would
    // put two small segments on the wire and let Nagle + delayed-ACK
    // stretch every round trip to tens of milliseconds.
    let len = text.len() as u32;
    let mut buf = Vec::with_capacity(4 + text.len());
    buf.extend_from_slice(&len.to_be_bytes());
    buf.extend_from_slice(text.as_bytes());
    w.write_all(&buf)?;
    w.flush()
}

/// Growth step for a frame body: the accumulator extends its buffer by at
/// most this much beyond the bytes actually delivered, so a hostile length
/// prefix can never force a large allocation up front.
const BODY_CHUNK: usize = 64 * 1024;

/// What one [`FrameAccumulator::poll`] observed.
#[derive(Debug)]
pub enum FramePoll {
    /// A complete frame was assembled and parsed.
    Frame(Json),
    /// The peer closed cleanly on a frame boundary.
    Closed,
    /// The frame is incomplete; `progressed` reports whether this poll
    /// consumed any bytes (the server's slow-client budget resets on
    /// progress and accrues on mid-frame silence).
    Pending {
        /// Whether any bytes arrived during this poll.
        progressed: bool,
    },
}

/// Incremental frame reassembly that survives read timeouts.
///
/// [`read_frame`]'s original implementation used `read_exact`, which
/// discards partially read bytes when a read times out mid-frame — under
/// the server's polling read timeout a slow client could desync the
/// stream. The accumulator owns the partial state instead: each
/// [`poll`](Self::poll) performs at most one `read`, and a `WouldBlock` /
/// `TimedOut` between polls loses nothing.
///
/// Allocation is bounded: the length prefix is validated against
/// [`MAX_FRAME_BYTES`] before any body allocation, and the body buffer
/// grows in `BODY_CHUNK` steps as bytes actually arrive — a corrupt
/// 4 GiB length prefix costs a rejection, not an allocation.
#[derive(Default)]
pub struct FrameAccumulator {
    header: [u8; 4],
    header_filled: usize,
    body: Vec<u8>,
    body_target: Option<usize>,
}

impl FrameAccumulator {
    /// An empty accumulator, positioned at a frame boundary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a frame is partially assembled (the slow-client budget
    /// only accrues mid-frame; silence *between* frames is an idle
    /// connection, which is fine).
    pub fn mid_frame(&self) -> bool {
        self.header_filled > 0
    }

    /// Current capacity of the body buffer — exposed so tests can assert
    /// the bounded-allocation contract against adversarial streams.
    pub fn body_capacity(&self) -> usize {
        self.body.capacity()
    }

    /// Performs at most one `read` and reports progress.
    ///
    /// # Errors
    ///
    /// Transport errors pass through (`WouldBlock`/`TimedOut` are
    /// recoverable: state is preserved and the next poll resumes).
    /// `UnexpectedEof` means the peer vanished mid-frame; `InvalidData`
    /// covers an oversized length prefix, non-UTF-8 text, and malformed
    /// JSON.
    pub fn poll<R: Read>(&mut self, r: &mut R) -> io::Result<FramePoll> {
        let Some(target) = self.body_target else {
            let n = r.read(&mut self.header[self.header_filled..])?;
            if n == 0 {
                if self.header_filled == 0 {
                    return Ok(FramePoll::Closed);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside a frame length prefix",
                ));
            }
            self.header_filled += n;
            if self.header_filled < 4 {
                return Ok(FramePoll::Pending { progressed: true });
            }
            let len = u32::from_be_bytes(self.header) as usize;
            if len > MAX_FRAME_BYTES {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("frame length {len} exceeds {MAX_FRAME_BYTES}"),
                ));
            }
            self.body_target = Some(len);
            self.body = Vec::new();
            if len == 0 {
                return self.finish();
            }
            return Ok(FramePoll::Pending { progressed: true });
        };

        // Grow by a bounded chunk, read into the fresh tail, then shrink
        // back to the bytes actually delivered.
        let filled = self.body.len();
        let want = (target - filled).min(BODY_CHUNK);
        self.body.resize(filled + want, 0);
        let n = match r.read(&mut self.body[filled..]) {
            Ok(n) => n,
            Err(e) => {
                self.body.truncate(filled);
                return Err(e);
            }
        };
        self.body.truncate(filled + n);
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("eof inside a frame body ({filled} of {target} bytes)"),
            ));
        }
        if self.body.len() == target {
            return self.finish();
        }
        Ok(FramePoll::Pending { progressed: true })
    }

    fn finish(&mut self) -> io::Result<FramePoll> {
        self.header_filled = 0;
        self.body_target = None;
        let text = String::from_utf8(std::mem::take(&mut self.body))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Json::parse(&text)
            .map(FramePoll::Frame)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// Reads one frame. `Ok(None)` is a clean end-of-stream (the peer closed
/// between frames); EOF mid-frame, an oversized length prefix, or
/// malformed JSON are errors.
///
/// Implemented on [`FrameAccumulator`], so allocation stays bounded by
/// delivered bytes plus one `BODY_CHUNK`.
///
/// # Errors
///
/// Transport errors (including read timeouts, surfaced as `WouldBlock` /
/// `TimedOut`) and the malformed-frame cases above.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Json>> {
    let mut acc = FrameAccumulator::new();
    loop {
        match acc.poll(r)? {
            FramePoll::Frame(json) => return Ok(Some(json)),
            FramePoll::Closed => return Ok(None),
            FramePoll::Pending { .. } => {}
        }
    }
}

/// Parses a multiplier-kind label (`AM`, `CB`, `RB`, `WAL`, `BOOTH`).
///
/// # Errors
///
/// Describes the unknown label and lists the valid ones.
pub fn parse_kind(label: &str) -> Result<MultiplierKind, String> {
    MultiplierKind::ALL
        .into_iter()
        .find(|k| k.label() == label)
        .ok_or_else(|| {
            let valid: Vec<&str> = MultiplierKind::ALL.iter().map(|k| k.label()).collect();
            format!("unknown kind {label:?} (want one of {})", valid.join(", "))
        })
}

/// The design/workload coordinates shared by every simulation op: which
/// multiplier, how aged, and which seed-derived uniform workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DesignQuery {
    /// Multiplier architecture.
    pub kind: MultiplierKind,
    /// Operand width in bits, in `MIN_WIDTH..=MAX_WIDTH`.
    pub width: usize,
    /// Aging epoch in years (0 = fresh).
    pub years: f64,
    /// Number of uniform operand pairs in the workload.
    pub patterns: usize,
    /// Workload seed.
    pub seed: u64,
}

/// One request's operation.
#[derive(Clone, Debug, PartialEq)]
pub enum RequestBody {
    /// Profile the design at its aging epoch; returns a delay summary.
    Profile(DesignQuery),
    /// Profile, then replay the profile across a cycle-period grid.
    Sweep {
        /// Design/workload coordinates.
        query: DesignQuery,
        /// Cycle periods to replay, nanoseconds.
        periods: Vec<f64>,
        /// AHL skip threshold for the replays.
        skip: u32,
    },
    /// Run a fault-injection campaign on the design.
    Campaign {
        /// Design/workload coordinates.
        query: DesignQuery,
        /// Number of faults to sample.
        faults: usize,
        /// Fault-sampling seed.
        fault_seed: u64,
        /// AHL skip threshold for the evaluation replays.
        skip: u32,
    },
    /// Seeded Monte Carlo yield campaign over process corners. The
    /// query's `years` field is read as the *maximum lifetime*: the
    /// campaign evaluates integer lifetime points `0..=floor(years)`.
    Mc {
        /// Design/workload coordinates (see `years` note above).
        query: DesignQuery,
        /// Process corners (dies) to sample.
        corners: usize,
        /// Lognormal σ of the per-gate time-zero variation.
        sigma: f64,
        /// Campaign base seed (corner streams are derived from it).
        mc_seed: u64,
        /// AHL skip threshold for the evaluation replays.
        skip: u32,
    },
    /// Seeded fleet policy study on the discrete-event datacenter
    /// simulator. The query's fields are reinterpreted for the fleet:
    /// `years` is the aging applied per epoch at fair utilization,
    /// `patterns` is the operations routed per epoch, and `seed` is the
    /// campaign base seed (node corners and epoch traces derive from it).
    Fleet {
        /// Design/workload coordinates (see reinterpretation above).
        query: DesignQuery,
        /// Multiplier instances in the fleet.
        nodes: usize,
        /// Epochs to simulate.
        epochs: usize,
        /// Routing policy (wire label `round-robin`, `least-loaded` or
        /// `aging-aware`).
        policy: RoutingPolicy,
        /// AHL skip threshold shared by every node.
        skip: u32,
    },
    /// Server cache/coalescer statistics.
    Stats,
    /// Graceful shutdown: the server finishes in-flight work, saves its
    /// snapshot (if configured), and stops accepting.
    Shutdown,
}

/// One decoded request.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Client correlation id, echoed in the response.
    pub id: u64,
    /// Per-request wall-clock budget in milliseconds; must be positive
    /// when present (omit the field to disable the deadline).
    pub deadline_ms: Option<u64>,
    /// The operation.
    pub body: RequestBody,
}

/// A count field in `1..=`[`MAX_COUNT`].
fn get_count(v: &Json, key: &str) -> Result<usize, String> {
    let n = v.get_u64(key)?;
    if n == 0 || n > MAX_COUNT as u64 {
        return Err(format!("{key} must be in 1..={MAX_COUNT}, got {n}"));
    }
    Ok(n as usize)
}

fn query_from_json(v: &Json) -> Result<DesignQuery, String> {
    let kind = parse_kind(v.get_str("kind")?)?;
    let width = v.get_u64("width")?;
    if !(MIN_WIDTH as u64..=MAX_WIDTH as u64).contains(&width) {
        return Err(format!(
            "width must be in {MIN_WIDTH}..={MAX_WIDTH}, got {width}"
        ));
    }
    let years = v.get_f64("years")?;
    if !years.is_finite() || years < 0.0 {
        return Err(format!(
            "years must be finite and non-negative, got {years}"
        ));
    }
    let patterns = get_count(v, "patterns")?;
    let seed = v.get_u64("seed")?;
    Ok(DesignQuery {
        kind,
        width: width as usize,
        years,
        patterns,
        seed,
    })
}

fn query_to_json(q: &DesignQuery) -> Vec<(String, Json)> {
    vec![
        ("kind".into(), Json::Str(q.kind.label().into())),
        ("width".into(), Json::UInt(q.width as u64)),
        ("years".into(), Json::Num(q.years)),
        ("patterns".into(), Json::UInt(q.patterns as u64)),
        ("seed".into(), Json::UInt(q.seed)),
    ]
}

impl Request {
    /// Decodes a request object (not a batch envelope).
    ///
    /// # Errors
    ///
    /// A rendered description of the first missing, mistyped, or
    /// out-of-range field — including widths outside
    /// `MIN_WIDTH..=MAX_WIDTH` and unknown fleet policies, so an impossible
    /// request never reaches supervision. A `deadline_ms` of 0 is rejected
    /// — a budget of nothing would quarantine every attempt; omit the
    /// field to disable the deadline.
    pub fn from_json(v: &Json) -> Result<Request, String> {
        let id = v.get_u64("id")?;
        let deadline_ms = v.get_opt_u64("deadline_ms")?;
        if deadline_ms == Some(0) {
            return Err(
                "deadline_ms must be positive (omit the field to disable the deadline)".into(),
            );
        }
        let body = match v.get_str("op")? {
            "profile" => RequestBody::Profile(query_from_json(v)?),
            "sweep" => {
                let raw = v.get_arr("periods")?;
                if raw.is_empty() {
                    return Err("sweep needs at least one period".into());
                }
                let mut periods = Vec::with_capacity(raw.len());
                for p in raw {
                    let p = p.as_f64().ok_or_else(|| "non-numeric period".to_string())?;
                    if !p.is_finite() || p <= 0.0 {
                        return Err(format!("periods must be finite and positive, got {p}"));
                    }
                    periods.push(p);
                }
                RequestBody::Sweep {
                    query: query_from_json(v)?,
                    periods,
                    skip: v.get_u32("skip")?,
                }
            }
            "campaign" => {
                let faults = get_count(v, "faults")?;
                RequestBody::Campaign {
                    query: query_from_json(v)?,
                    faults,
                    fault_seed: v.get_u64("fault_seed")?,
                    skip: v.get_u32("skip")?,
                }
            }
            "mc" => {
                let corners = get_count(v, "corners")?;
                let sigma = v.get_f64("sigma")?;
                if !sigma.is_finite() || sigma < 0.0 {
                    return Err(format!(
                        "sigma must be finite and non-negative, got {sigma}"
                    ));
                }
                let query = query_from_json(v)?;
                // `mc` evaluates lifetime points 0..=floor(years).
                if query.years >= MAX_COUNT as f64 {
                    return Err(format!(
                        "mc lifetime years must be below {MAX_COUNT}, got {}",
                        query.years
                    ));
                }
                RequestBody::Mc {
                    query,
                    corners,
                    sigma,
                    mc_seed: v.get_u64("mc_seed")?,
                    skip: v.get_u32("skip")?,
                }
            }
            "fleet" => {
                let nodes = get_count(v, "nodes")?;
                let epochs = get_count(v, "epochs")?;
                RequestBody::Fleet {
                    query: query_from_json(v)?,
                    nodes,
                    epochs,
                    policy: RoutingPolicy::parse(v.get_str("policy")?)?,
                    skip: v.get_u32("skip")?,
                }
            }
            "stats" => RequestBody::Stats,
            "shutdown" => RequestBody::Shutdown,
            other => return Err(format!("unknown op {other:?}")),
        };
        Ok(Request {
            id,
            deadline_ms,
            body,
        })
    }

    /// Encodes the request as its wire object.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![("id".into(), Json::UInt(self.id))];
        if let Some(ms) = self.deadline_ms {
            pairs.push(("deadline_ms".into(), Json::UInt(ms)));
        }
        match &self.body {
            RequestBody::Profile(q) => {
                pairs.push(("op".into(), Json::Str("profile".into())));
                pairs.extend(query_to_json(q));
            }
            RequestBody::Sweep {
                query,
                periods,
                skip,
            } => {
                pairs.push(("op".into(), Json::Str("sweep".into())));
                pairs.extend(query_to_json(query));
                pairs.push((
                    "periods".into(),
                    Json::Arr(periods.iter().map(|&p| Json::Num(p)).collect()),
                ));
                pairs.push(("skip".into(), Json::UInt(u64::from(*skip))));
            }
            RequestBody::Campaign {
                query,
                faults,
                fault_seed,
                skip,
            } => {
                pairs.push(("op".into(), Json::Str("campaign".into())));
                pairs.extend(query_to_json(query));
                pairs.push(("faults".into(), Json::UInt(*faults as u64)));
                pairs.push(("fault_seed".into(), Json::UInt(*fault_seed)));
                pairs.push(("skip".into(), Json::UInt(u64::from(*skip))));
            }
            RequestBody::Mc {
                query,
                corners,
                sigma,
                mc_seed,
                skip,
            } => {
                pairs.push(("op".into(), Json::Str("mc".into())));
                pairs.extend(query_to_json(query));
                pairs.push(("corners".into(), Json::UInt(*corners as u64)));
                pairs.push(("sigma".into(), Json::Num(*sigma)));
                pairs.push(("mc_seed".into(), Json::UInt(*mc_seed)));
                pairs.push(("skip".into(), Json::UInt(u64::from(*skip))));
            }
            RequestBody::Fleet {
                query,
                nodes,
                epochs,
                policy,
                skip,
            } => {
                pairs.push(("op".into(), Json::Str("fleet".into())));
                pairs.extend(query_to_json(query));
                pairs.push(("nodes".into(), Json::UInt(*nodes as u64)));
                pairs.push(("epochs".into(), Json::UInt(*epochs as u64)));
                pairs.push(("policy".into(), Json::Str(policy.label().into())));
                pairs.push(("skip".into(), Json::UInt(u64::from(*skip))));
            }
            RequestBody::Stats => pairs.push(("op".into(), Json::Str("stats".into()))),
            RequestBody::Shutdown => pairs.push(("op".into(), Json::Str("shutdown".into()))),
        }
        Json::Obj(pairs)
    }
}

/// A successful response: the request id, how the supervised attempt ran
/// (engine, retries, degradation), and the op's result payload.
pub fn response_ok(id: u64, engine: &str, retries: u32, degraded: bool, result: Json) -> Json {
    Json::Obj(vec![
        ("id".into(), Json::UInt(id)),
        ("ok".into(), Json::Bool(true)),
        ("engine".into(), Json::Str(engine.into())),
        ("retries".into(), Json::UInt(u64::from(retries))),
        ("degraded".into(), Json::Bool(degraded)),
        ("result".into(), result),
    ])
}

/// A failed response: the request id and a rendered error.
pub fn response_error(id: u64, error: &str) -> Json {
    Json::Obj(vec![
        ("id".into(), Json::UInt(id)),
        ("ok".into(), Json::Bool(false)),
        ("error".into(), Json::Str(error.into())),
    ])
}

/// The typed shed response: sent by the acceptor when the admission queue
/// is full, *before* any request is read (hence id 0), then the connection
/// is reset. `overloaded: true` lets clients distinguish "retry later"
/// from a request-level failure.
pub fn response_overloaded() -> Json {
    Json::Obj(vec![
        ("id".into(), Json::UInt(0)),
        ("ok".into(), Json::Bool(false)),
        (
            "error".into(),
            Json::Str("overloaded: admission queue full; retry later".into()),
        ),
        ("overloaded".into(), Json::Bool(true)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query() -> DesignQuery {
        DesignQuery {
            kind: MultiplierKind::ColumnBypass,
            width: 16,
            years: 7.0,
            patterns: 1_000,
            seed: 42,
        }
    }

    #[test]
    fn frames_round_trip() {
        let msg = Request {
            id: 3,
            deadline_ms: Some(250),
            body: RequestBody::Sweep {
                query: query(),
                periods: vec![0.9, 1.0, 1.1],
                skip: 7,
            },
        }
        .to_json();
        let mut wire = Vec::new();
        write_frame(&mut wire, &msg).unwrap();
        let mut cursor = wire.as_slice();
        let back = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(back, msg);
        // Stream exhausted → clean end-of-stream.
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn every_op_round_trips_through_json() {
        let requests = [
            Request {
                id: 1,
                deadline_ms: None,
                body: RequestBody::Profile(query()),
            },
            Request {
                id: 2,
                deadline_ms: Some(100),
                body: RequestBody::Sweep {
                    query: query(),
                    periods: vec![1.25],
                    skip: 3,
                },
            },
            Request {
                id: 3,
                deadline_ms: None,
                body: RequestBody::Campaign {
                    query: query(),
                    faults: 12,
                    fault_seed: 9,
                    skip: 7,
                },
            },
            Request {
                id: 4,
                deadline_ms: None,
                body: RequestBody::Mc {
                    query: query(),
                    corners: 32,
                    sigma: 0.05,
                    mc_seed: 7,
                    skip: 7,
                },
            },
            Request {
                id: 5,
                deadline_ms: None,
                body: RequestBody::Fleet {
                    query: query(),
                    nodes: 4,
                    epochs: 20,
                    policy: RoutingPolicy::AgingAware,
                    skip: 7,
                },
            },
            Request {
                id: 6,
                deadline_ms: None,
                body: RequestBody::Stats,
            },
            Request {
                id: 7,
                deadline_ms: None,
                body: RequestBody::Shutdown,
            },
        ];
        for req in requests {
            let back = Request::from_json(&req.to_json()).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn zero_deadline_is_rejected() {
        let mut obj = Request {
            id: 1,
            deadline_ms: None,
            body: RequestBody::Stats,
        }
        .to_json();
        if let Json::Obj(pairs) = &mut obj {
            pairs.push(("deadline_ms".into(), Json::UInt(0)));
        }
        let err = Request::from_json(&obj).unwrap_err();
        assert!(err.contains("deadline_ms must be positive"), "{err}");
    }

    #[test]
    fn malformed_requests_are_described() {
        let bad = [
            (Json::Obj(vec![("id".into(), Json::UInt(1))]), "op"),
            (
                Json::Obj(vec![
                    ("id".into(), Json::UInt(1)),
                    ("op".into(), Json::Str("bogus".into())),
                ]),
                "unknown op",
            ),
            (
                Json::Obj(vec![
                    ("id".into(), Json::UInt(1)),
                    ("op".into(), Json::Str("profile".into())),
                    ("kind".into(), Json::Str("XX".into())),
                ]),
                "unknown kind",
            ),
        ];
        for (doc, needle) in bad {
            let err = Request::from_json(&doc).unwrap_err();
            assert!(err.contains(needle), "{err:?} lacks {needle:?}");
        }
    }

    /// Counts that size an allocation are capped at decode: the cap is
    /// accepted, one past it (or zero) is a typed error naming the field.
    #[test]
    fn allocation_sized_counts_are_capped() {
        let decode = |op: &str, field: &str, value: u64| {
            let body = match op {
                "profile" => RequestBody::Profile(query()),
                "campaign" => RequestBody::Campaign {
                    query: query(),
                    faults: 1,
                    fault_seed: 1,
                    skip: 1,
                },
                "mc" => RequestBody::Mc {
                    query: query(),
                    corners: 1,
                    sigma: 0.05,
                    mc_seed: 1,
                    skip: 1,
                },
                _ => RequestBody::Fleet {
                    query: query(),
                    nodes: 1,
                    epochs: 1,
                    policy: RoutingPolicy::RoundRobin,
                    skip: 1,
                },
            };
            let mut obj = Request {
                id: 1,
                deadline_ms: None,
                body,
            }
            .to_json();
            if let Json::Obj(pairs) = &mut obj {
                pairs.retain(|(k, _)| k != field);
                pairs.push((field.into(), Json::UInt(value)));
            }
            Request::from_json(&obj)
        };
        let counts = [
            ("profile", "patterns"),
            ("campaign", "faults"),
            ("mc", "corners"),
            ("fleet", "nodes"),
            ("fleet", "epochs"),
        ];
        for (op, field) in counts {
            assert!(decode(op, field, MAX_COUNT as u64).is_ok(), "{op}.{field}");
            for bad in [0, MAX_COUNT as u64 + 1, 1 << 40, u64::MAX] {
                let err = decode(op, field, bad).unwrap_err();
                assert!(err.contains(field), "{op}.{field}={bad}: {err}");
            }
        }

        let mc_years = |years: f64| {
            Request::from_json(
                &Request {
                    id: 1,
                    deadline_ms: None,
                    body: RequestBody::Mc {
                        query: DesignQuery { years, ..query() },
                        corners: 1,
                        sigma: 0.05,
                        mc_seed: 1,
                        skip: 1,
                    },
                }
                .to_json(),
            )
        };
        assert!(mc_years(MAX_COUNT as f64 - 0.5).is_ok());
        for bad in [MAX_COUNT as f64, 1e300] {
            let err = mc_years(bad).unwrap_err();
            assert!(err.contains("lifetime"), "{err}");
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_be_bytes());
        wire.extend_from_slice(b"junk");
        let err = read_frame(&mut wire.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_clean_eof() {
        let msg = Json::Str("hello".into());
        let mut wire = Vec::new();
        write_frame(&mut wire, &msg).unwrap();
        wire.truncate(wire.len() - 2);
        let err = read_frame(&mut wire.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// A reader that yields its script one item per `read` call:
    /// `Ok(bytes)` delivers bytes, `Err(kind)` fails that call only.
    struct Script {
        items: std::collections::VecDeque<Result<Vec<u8>, io::ErrorKind>>,
    }

    impl Script {
        fn new(items: Vec<Result<Vec<u8>, io::ErrorKind>>) -> Self {
            Script {
                items: items.into(),
            }
        }
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.items.pop_front() {
                None => Ok(0),
                Some(Err(kind)) => Err(io::Error::new(kind, "scripted")),
                Some(Ok(bytes)) => {
                    let n = bytes.len().min(buf.len());
                    buf[..n].copy_from_slice(&bytes[..n]);
                    if n < bytes.len() {
                        self.items.push_front(Ok(bytes[n..].to_vec()));
                    }
                    Ok(n)
                }
            }
        }
    }

    /// The accumulator's whole reason to exist: a read timeout striking
    /// mid-frame (even mid-length-prefix) loses nothing; the next poll
    /// resumes exactly where the stream stalled.
    #[test]
    fn accumulator_survives_timeouts_at_every_split_point() {
        let msg = Json::Obj(vec![("x".into(), Json::UInt(7))]);
        let mut wire = Vec::new();
        write_frame(&mut wire, &msg).unwrap();

        for split in 1..wire.len() {
            let mut script = Script::new(vec![
                Ok(wire[..split].to_vec()),
                Err(io::ErrorKind::WouldBlock),
                Err(io::ErrorKind::TimedOut),
                Ok(wire[split..].to_vec()),
            ]);
            let mut acc = FrameAccumulator::new();
            let mut timeouts = 0;
            loop {
                match acc.poll(&mut script) {
                    Ok(FramePoll::Frame(json)) => {
                        assert_eq!(json, msg, "split at {split}");
                        break;
                    }
                    Ok(FramePoll::Pending { .. }) => {}
                    Ok(FramePoll::Closed) => panic!("split at {split}: spurious close"),
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) =>
                    {
                        timeouts += 1;
                        assert!(acc.mid_frame(), "split at {split}: stalled mid-frame");
                    }
                    Err(e) => panic!("split at {split}: {e}"),
                }
            }
            assert_eq!(timeouts, 2, "split at {split}");
        }
    }

    /// A hostile length prefix near the cap must not provoke a
    /// prefix-sized allocation: the body buffer grows only as bytes
    /// arrive, one bounded chunk beyond the delivered count.
    #[test]
    fn accumulator_allocation_tracks_delivered_bytes_not_the_prefix() {
        let claimed = MAX_FRAME_BYTES as u32; // maximal legal prefix
        let mut acc = FrameAccumulator::new();
        let mut script = Script::new(vec![
            Ok(claimed.to_be_bytes().to_vec()),
            Ok(vec![b'x'; 100]),
        ]);
        for _ in 0..2 {
            match acc.poll(&mut script) {
                Ok(FramePoll::Pending { progressed: true }) => {}
                other => panic!("{other:?}"),
            }
        }
        assert!(
            acc.body_capacity() <= 100 + 64 * 1024,
            "allocated {} bytes for 100 delivered",
            acc.body_capacity()
        );
    }

    #[test]
    fn accumulator_reads_back_to_back_frames() {
        let first = Json::Str("first".into());
        let second = Json::Str("second".into());
        let mut wire = Vec::new();
        write_frame(&mut wire, &first).unwrap();
        write_frame(&mut wire, &second).unwrap();
        let mut cursor = wire.as_slice();
        let mut acc = FrameAccumulator::new();
        let mut seen = Vec::new();
        loop {
            match acc.poll(&mut cursor).unwrap() {
                FramePoll::Frame(json) => seen.push(json),
                FramePoll::Closed => break,
                FramePoll::Pending { .. } => {}
            }
        }
        assert_eq!(seen, vec![first, second]);
        assert!(!acc.mid_frame());
    }

    #[test]
    fn overloaded_response_is_typed() {
        let resp = response_overloaded();
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(resp.get("overloaded").and_then(Json::as_bool), Some(true));
        assert!(resp
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("overloaded")));
    }
}
