//! `agemul-serve` — a resident, sharded aging-simulation service.
//!
//! The batch experiments in `agemul-repro` rebuild every artifact —
//! designs, workloads, BTI aging factors, timing profiles — from scratch
//! on each invocation. This crate keeps them resident: a thread-pool
//! socket server (TCP or Unix-domain) owns the sharded bounded
//! [`ProfileCache`](agemul::ProfileCache) and answers batched JSON
//! requests over a length-prefixed frame protocol:
//!
//! - `profile` — the timing profile of a design at an aging epoch,
//! - `sweep` — run a clock-period grid against that profile,
//! - `campaign` — sample and evaluate a delay-fault campaign,
//! - `mc` — a seeded Monte Carlo yield campaign over process corners
//!   (one compiled kernel, each corner's lifetime points in lockstep),
//! - `stats` / `shutdown` — cache introspection and graceful stop.
//!
//! Three properties distinguish the resident service from the batch path:
//!
//! 1. **Single-flight coalescing** ([`SingleFlight`]): N concurrent
//!    requests for the same cold profile cost one simulation; the cache
//!    alone would let them race.
//! 2. **Supervised requests**: every simulation op runs under the
//!    harness's per-request supervision — panics become error responses,
//!    the client's `deadline_ms` is enforced through a cancellation
//!    token, and a failed attempt is retried within the server's retry
//!    budget (the response says how many retries it spent).
//! 3. **Warm-start snapshots**: on graceful shutdown the profile cache is
//!    persisted with the harness's atomic CRC-checked checkpoint codec
//!    and reloaded at the next spawn, so a restarted server serves its
//!    first requests from cache.
//!
//! The benchmark package's `serve-open` workload measures the served hit
//! path (see `EXPERIMENTS.md`); `tests/service.rs` drives concurrent
//! clients against one server.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod chaos;
mod flight;
mod proto;
mod server;
mod state;

pub use flight::{FlightError, FlightRole, SingleFlight};
pub use proto::{
    parse_kind, read_frame, response_error, response_ok, response_overloaded, write_frame,
    DesignQuery, FrameAccumulator, FramePoll, Request, RequestBody, MAX_COUNT, MAX_FRAME_BYTES,
};
pub use server::{spawn, Endpoint, ServeConfig, ServerHandle};
pub use state::{CacheOutcome, ServerState, SNAPSHOT_KEY};

use agemul::Json;
use std::io::{Read, Write};

/// A minimal blocking client helper: writes `request` as one frame and
/// returns the server's response frame. Used by the `repro query`
/// subcommand and the tests; works over any `Read + Write` transport.
///
/// # Errors
///
/// Transport failures, oversized/malformed frames, or a connection closed
/// before the response arrived.
pub fn roundtrip<S: Read + Write>(stream: &mut S, request: &Json) -> std::io::Result<Json> {
    write_frame(stream, request)?;
    read_frame(stream)?.ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection before responding",
        )
    })
}
