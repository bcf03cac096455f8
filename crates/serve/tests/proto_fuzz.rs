//! Property fuzz over the length-prefixed frame reader.
//!
//! Three contracts, each against adversarial byte streams:
//!
//! 1. **No panic, typed errors only** — arbitrary garbage fed to
//!    `read_frame` returns `Ok` or an `io::Error` whose kind is
//!    `InvalidData` (oversized prefix, bad UTF-8, bad JSON) or
//!    `UnexpectedEof` (peer vanished mid-frame); nothing else, never a
//!    panic.
//! 2. **Bounded allocation** — the body buffer's capacity tracks the
//!    bytes actually delivered (within one growth step of the 64 KiB
//!    chunk), not the length prefix, so a hostile prefix cannot balloon
//!    memory.
//! 3. **Chunking-invariant reassembly** — a valid frame delivered in
//!    arbitrary fragment sizes with read timeouts interleaved reassembles
//!    to the identical document.

use std::io::{self, Read};

use agemul::Json;
use agemul_serve::{read_frame, write_frame, FrameAccumulator, FramePoll, MAX_FRAME_BYTES};
use proptest::prelude::*;

/// The accumulator's growth step (mirrors `proto::BODY_CHUNK`).
const CHUNK: usize = 64 * 1024;

/// Delivers a byte slice in scripted fragment sizes, injecting a read
/// timeout between fragments.
struct Fragmented<'a> {
    bytes: &'a [u8],
    splits: Vec<usize>,
    cursor: usize,
    split_at: usize,
    timeout_next: bool,
}

impl<'a> Fragmented<'a> {
    fn new(bytes: &'a [u8], splits: Vec<usize>) -> Self {
        Fragmented {
            bytes,
            splits,
            cursor: 0,
            split_at: 0,
            timeout_next: false,
        }
    }
}

impl Read for Fragmented<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.timeout_next {
            self.timeout_next = false;
            return Err(io::Error::new(io::ErrorKind::WouldBlock, "injected"));
        }
        self.timeout_next = true;
        let fragment = if self.splits.is_empty() {
            buf.len()
        } else {
            let s = self.splits[self.split_at % self.splits.len()];
            self.split_at += 1;
            s.max(1)
        };
        let n = fragment.min(buf.len()).min(self.bytes.len() - self.cursor);
        buf[..n].copy_from_slice(&self.bytes[self.cursor..self.cursor + n]);
        self.cursor += n;
        Ok(n)
    }
}

proptest! {
    /// Contract 1: arbitrary bytes produce `Ok` or a typed error, never a
    /// panic and never an unexpected error kind.
    #[test]
    fn garbage_never_panics_and_errors_are_typed(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let mut reader = &bytes[..];
        match read_frame(&mut reader) {
            Ok(_) => {}
            Err(e) => prop_assert!(
                matches!(
                    e.kind(),
                    io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                ),
                "unexpected error kind {:?}: {e}",
                e.kind()
            ),
        }
    }

    /// Contract 2: the body buffer never allocates more than the bytes
    /// actually delivered plus one growth step (amortized doubling bounds
    /// it at twice that), no matter what the length prefix claims.
    #[test]
    fn allocation_tracks_delivery_not_the_prefix(
        declared in 0u32..=(MAX_FRAME_BYTES as u32),
        delivered in 0usize..2048,
    ) {
        let mut bytes = declared.to_be_bytes().to_vec();
        let body = delivered.min(declared as usize);
        bytes.extend(std::iter::repeat_n(b' ', body));

        let mut acc = FrameAccumulator::new();
        let mut reader = &bytes[..];
        while let Ok(FramePoll::Pending { .. }) = acc.poll(&mut reader) {}
        prop_assert!(
            acc.body_capacity() <= 2 * (body + CHUNK),
            "capacity {} for {} delivered bytes",
            acc.body_capacity(),
            body
        );
    }

    /// Contract 3: any fragmentation of a valid frame — with timeouts
    /// interleaved between fragments — reassembles to the identical
    /// document, and the bytes of a following frame are not consumed.
    #[test]
    fn reassembly_is_chunking_invariant(
        values in proptest::collection::vec(0u64..1_000_000_000, 1..8),
        splits in proptest::collection::vec(1usize..48, 0..24),
    ) {
        let doc = Json::Obj(
            values
                .iter()
                .enumerate()
                .map(|(i, v)| (format!("k{i}"), Json::UInt(*v)))
                .collect(),
        );
        let mut wire = Vec::new();
        write_frame(&mut wire, &doc).unwrap();
        write_frame(&mut wire, &Json::Obj(vec![("next".into(), Json::Bool(true))])).unwrap();

        let mut reader = Fragmented::new(&wire, splits);
        let mut acc = FrameAccumulator::new();
        let mut timeouts = 0usize;
        let first = loop {
            match acc.poll(&mut reader) {
                Ok(FramePoll::Frame(json)) => break json,
                Ok(FramePoll::Closed) => prop_assert!(false, "closed before the frame"),
                Ok(FramePoll::Pending { .. }) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => timeouts += 1,
                Err(e) => prop_assert!(false, "unexpected error: {e}"),
            }
            prop_assert!(timeouts < 100_000, "no forward progress");
        };
        prop_assert_eq!(&first, &doc);

        // The second frame must still be intact on the stream.
        let second = loop {
            match acc.poll(&mut reader) {
                Ok(FramePoll::Frame(json)) => break json,
                Ok(FramePoll::Closed) => prop_assert!(false, "closed before frame 2"),
                Ok(FramePoll::Pending { .. }) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => prop_assert!(false, "unexpected error: {e}"),
            }
        };
        prop_assert_eq!(
            second.get("next").and_then(Json::as_bool),
            Some(true)
        );
    }
}
